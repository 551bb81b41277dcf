//! Top-K operator: `ORDER BY ... LIMIT k` without a full sort.

use super::context::{ExecContext, Scope};
use super::parallel::SharedSource;
use super::Operator;
use crate::error::Result;
use crate::eval::eval_arc;
use crate::logical::SortKey;
use crate::physical::sort::cmp_rows;
use crate::profile::OpStats;
use backbone_storage::{Column, RecordBatch, Schema, Value};
use std::cmp::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// One surviving row: its sort key values, the batch it came from (`seq`,
/// the batch's position in the input; `bi`, its slot in
/// [`TopKState::kept`]) and its logical position there.
struct Candidate {
    key: Vec<Value>,
    seq: usize,
    bi: usize,
    pos: usize,
}

/// Order candidates under per-key sort direction; ties fall back to input
/// order, `(seq, pos)`, so the result equals a stable sort plus limit.
fn cmp_candidates(descending: &[bool], a: &Candidate, b: &Candidate) -> Ordering {
    for (i, (va, vb)) in a.key.iter().zip(&b.key).enumerate() {
        let ord = va.sort_cmp(vb);
        let ord = if descending[i] { ord.reverse() } else { ord };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    (a.seq, a.pos).cmp(&(b.seq, b.pos))
}

/// Keep the `k` smallest of `items` under `cmp` (a total order), unordered:
/// a partial selection, O(n) instead of a sort.
fn keep_smallest<T>(items: &mut Vec<T>, k: usize, cmp: impl FnMut(&T, &T) -> Ordering) {
    if items.len() > k {
        items.select_nth_unstable_by(k, cmp);
        items.truncate(k);
    }
}

/// One selection buffer: the best `k` candidates seen so far, unordered.
/// Rows stay in their source batches until the final gather (late
/// materialization), so evicted candidates never cost a row copy. Each
/// worker keeps its own and the buffers merge at drain. Ties break on input
/// order, so any worker count keeps the same rows.
#[derive(Default)]
struct TopKState {
    kept: Vec<RecordBatch>,
    buffer: Vec<Candidate>,
    morsels: u64,
    rows: u64,
}

impl TopKState {
    /// Fold batch number `seq` of the input: partially select its local
    /// top-k lanes, add them to the buffer, and cut the buffer back to k.
    /// Selection cost is O(n + k) per batch and memory O(k + retained
    /// batches).
    fn consume(
        &mut self,
        keys: &[SortKey],
        descending: &[bool],
        k: usize,
        seq: usize,
        batch: RecordBatch,
    ) -> Result<()> {
        self.morsels += 1;
        self.rows += batch.num_rows() as u64;
        if batch.is_empty() {
            return Ok(());
        }
        let key_cols: Vec<(Arc<Column>, bool)> = keys
            .iter()
            .map(|key| Ok((eval_arc(&key.expr, &batch)?, key.descending)))
            .collect::<Result<_>>()?;
        // Key columns are base-length: compare base rows, break ties by
        // logical position.
        let base: Vec<usize> = (0..batch.num_rows()).map(|i| batch.base_index(i)).collect();
        let mut local: Vec<usize> = (0..base.len()).collect();
        keep_smallest(&mut local, k, |&a, &b| {
            cmp_rows(&key_cols, base[a], base[b]).then(a.cmp(&b))
        });
        let bi = self.kept.len();
        for pos in local {
            let key: Vec<Value> = key_cols.iter().map(|(c, _)| c.value(base[pos])).collect();
            self.buffer.push(Candidate { key, seq, bi, pos });
        }
        self.kept.push(batch);
        keep_smallest(&mut self.buffer, k, |a, b| cmp_candidates(descending, a, b));
        Ok(())
    }

    /// Append another worker's survivors (batch slots re-based), then
    /// re-select the global top-k.
    fn absorb(&mut self, other: TopKState, descending: &[bool], k: usize) {
        self.morsels += other.morsels;
        self.rows += other.rows;
        let offset = self.kept.len();
        self.kept.extend(other.kept);
        self.buffer
            .extend(other.buffer.into_iter().map(|c| Candidate {
                bi: c.bi + offset,
                ..c
            }));
        keep_smallest(&mut self.buffer, k, |a, b| cmp_candidates(descending, a, b));
    }
}

/// Keeps only the best `k` rows under the sort keys, using a bounded
/// selection buffer instead of sorting the whole input. The planner fuses
/// `Limit(Sort(x))` into this operator.
pub struct TopKExec {
    input: Option<Box<dyn Operator>>,
    keys: Vec<SortKey>,
    k: usize,
    schema: Arc<Schema>,
    ctx: ExecContext,
    stats: OpStats,
    done: bool,
}

impl TopKExec {
    /// Keep the best `k` rows of `input` under `keys`, with the context's
    /// workers, recording into `stats`.
    pub fn new(
        input: Box<dyn Operator>,
        keys: Vec<SortKey>,
        k: usize,
        ctx: &ExecContext,
        stats: OpStats,
    ) -> TopKExec {
        let schema = input.schema();
        TopKExec {
            input: Some(input),
            keys,
            k,
            schema,
            ctx: ctx.clone(),
            stats,
            done: false,
        }
    }

    /// Per-worker selection buffers over a shared source, merged in worker
    /// order. One worker runs inline and pulls the input in order.
    fn select(&self, input: &mut dyn Operator, descending: &[bool]) -> Result<TopKState> {
        let (ctx, keys, k) = (&self.ctx, &self.keys, self.k);
        let source = SharedSource::new(input);
        let states: Vec<Result<TopKState>> = super::pool::run_workers(ctx.workers, |w| {
            let _kernel = crate::kernel_metrics::install(ctx);
            let mut st = TopKState::default();
            while let Some((seq, batch)) = source.next_numbered()? {
                st.consume(keys, descending, k, seq, batch)?;
            }
            ctx.record_worker(Scope::TopK, w, st.morsels, st.rows);
            Ok(st)
        });
        let t0 = Instant::now();
        let mut merged: Option<TopKState> = None;
        for st in states {
            let st = st?;
            match &mut merged {
                None => merged = Some(st),
                Some(m) => m.absorb(st, descending, k),
            }
        }
        let merge_ns = t0.elapsed().as_nanos() as u64;
        let merged = merged.expect("at least one worker");
        self.stats.workers.add(ctx.workers as u64);
        self.stats.morsels.add(merged.morsels);
        self.stats.merge_ns.add(merge_ns);
        ctx.counters.topk_merge_ns.add(merge_ns);
        Ok(merged)
    }
}

impl Operator for TopKExec {
    fn schema(&self) -> Arc<Schema> {
        self.schema.clone()
    }

    fn next(&mut self) -> Result<Option<RecordBatch>> {
        if self.done {
            return Ok(None);
        }
        self.done = true;
        if self.k == 0 {
            return Ok(Some(RecordBatch::empty(self.schema.clone())));
        }
        let mut input = self.input.take().expect("run once");
        let descending: Vec<bool> = self.keys.iter().map(|k| k.descending).collect();

        let mut state = self.select(input.as_mut(), &descending)?;

        // Order the k survivors, then gather them column-by-column with
        // typed appends.
        state
            .buffer
            .sort_unstable_by(|a, b| cmp_candidates(&descending, a, b));
        let mut columns = Vec::with_capacity(self.schema.len());
        for (ci, f) in self.schema.fields().iter().enumerate() {
            let mut col = Column::empty(f.data_type);
            for c in &state.buffer {
                let batch = &state.kept[c.bi];
                col.push_from(batch.column(ci), batch.base_index(c.pos))?;
            }
            columns.push(Arc::new(col));
        }
        Ok(Some(RecordBatch::try_new(self.schema.clone(), columns)?))
    }

    fn name(&self) -> &'static str {
        "TopK"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::col;
    use crate::logical::{asc, desc};
    use crate::physical::drain_one;
    use crate::physical::test_util::{ctx, int_batch, BatchSource};
    use crate::physical::SortExec;

    fn topk(input: BatchSource, key: SortKey, k: usize, workers: usize) -> TopKExec {
        TopKExec::new(
            Box::new(input),
            vec![key],
            k,
            &ctx(workers),
            OpStats::default(),
        )
    }

    #[test]
    fn keeps_best_k() {
        let batch = int_batch(&[("x", vec![5, 3, 9, 1, 7])]);
        let mut t = topk(BatchSource::single(batch), asc(col("x")), 2, 1);
        let out = drain_one(&mut t).unwrap();
        assert_eq!(out.column(0).i64_data().unwrap(), &[1, 3]);
    }

    #[test]
    fn descending_top_k() {
        let batch = int_batch(&[("x", vec![5, 3, 9, 1, 7])]);
        let mut t = topk(BatchSource::single(batch), desc(col("x")), 3, 1);
        let out = drain_one(&mut t).unwrap();
        assert_eq!(out.column(0).i64_data().unwrap(), &[9, 7, 5]);
    }

    #[test]
    fn k_larger_than_input() {
        let batch = int_batch(&[("x", vec![2, 1])]);
        let mut t = topk(BatchSource::single(batch), asc(col("x")), 10, 1);
        let out = drain_one(&mut t).unwrap();
        assert_eq!(out.column(0).i64_data().unwrap(), &[1, 2]);
    }

    #[test]
    fn zero_k() {
        let batch = int_batch(&[("x", vec![1])]);
        let mut t = topk(BatchSource::single(batch), asc(col("x")), 0, 1);
        let out = drain_one(&mut t).unwrap();
        assert_eq!(out.num_rows(), 0);
    }

    #[test]
    fn respects_selection_views() {
        // Select lanes {1, 3, 4} -> values {3, 1, 7}; top-2 asc = [1, 3].
        let batch = int_batch(&[("x", vec![5, 3, 9, 1, 7])])
            .with_selection(Arc::new(vec![1, 3, 4]))
            .unwrap();
        let mut t = topk(BatchSource::single(batch), asc(col("x")), 2, 1);
        let out = drain_one(&mut t).unwrap();
        assert_eq!(out.column(0).i64_data().unwrap(), &[1, 3]);
    }

    #[test]
    fn matches_sort_plus_limit_across_batches() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(7);
        let batches: Vec<_> = (0..5)
            .map(|_| {
                let vals: Vec<i64> = (0..50).map(|_| rng.gen_range(0..1000)).collect();
                int_batch(&[("x", vals)])
            })
            .collect();
        let schema = batches[0].schema().clone();
        let src = BatchSource::new(schema.clone(), batches.clone());
        let a = drain_one(&mut topk(src, asc(col("x")), 7, 1)).unwrap();
        let mut sort = SortExec::new(
            Box::new(BatchSource::new(schema, batches)),
            vec![asc(col("x"))],
        );
        let full = drain_one(&mut sort).unwrap();
        let b = full.slice(0, 7).unwrap();
        assert_eq!(a.to_rows(), b.to_rows());
    }

    #[test]
    fn parallel_matches_serial() {
        use rand::prelude::*;
        let make = |workers: usize| {
            let mut rng = StdRng::seed_from_u64(11);
            let batches: Vec<_> = (0..6)
                .map(|_| {
                    let vals: Vec<i64> = (0..40).map(|_| rng.gen_range(0..10_000)).collect();
                    int_batch(&[("x", vals)])
                })
                .collect();
            let src = BatchSource::new(batches[0].schema().clone(), batches);
            topk(src, asc(col("x")), 9, workers)
        };
        let serial = drain_one(&mut make(1)).unwrap().to_rows();
        assert_eq!(serial, drain_one(&mut make(2)).unwrap().to_rows());
        assert_eq!(serial, drain_one(&mut make(4)).unwrap().to_rows());
    }

    #[test]
    fn parallel_zero_k_skips_workers() {
        let batch = int_batch(&[("x", vec![1, 2])]);
        let mut t = topk(BatchSource::single(batch), asc(col("x")), 0, 4);
        let out = drain_one(&mut t).unwrap();
        assert_eq!(out.num_rows(), 0);
    }

    #[test]
    fn parallel_records_profile() {
        let stats = OpStats::default();
        let batches: Vec<_> = (0..5)
            .map(|b| int_batch(&[("x", vec![b, b + 1])]))
            .collect();
        let mut t = TopKExec::new(
            Box::new(BatchSource::new(batches[0].schema().clone(), batches)),
            vec![asc(col("x"))],
            3,
            &ctx(2),
            stats.clone(),
        );
        drain_one(&mut t).unwrap();
        assert_eq!(stats.workers.get(), 2);
        assert_eq!(stats.morsels.get(), 5);
    }
}
