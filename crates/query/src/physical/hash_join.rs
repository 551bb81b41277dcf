//! Hash equi-join operator.
//!
//! Vectorized two-phase implementation: the build side is hashed column-wise
//! into a chained bucket table (head + next arrays of `u32` row ids, no
//! `Value` keys), the probe side hashes its key columns over the selected
//! lanes, and matches accumulate as `u32` row-id lists that turn into **one
//! gather per output column** instead of per-row pushes.
//!
//! The join forks once, on the context's worker count. One worker streams:
//! each probe batch is joined as the consumer pulls it. Two or more split
//! the build table into hash partitions linked in parallel and pull probe
//! batches on worker threads. Equal keys have equal hashes, so they land in
//! one partition and one bucket whose chain lists build rows in ascending
//! order exactly like the one-partition table — per-batch join output is
//! identical either way.

use super::context::{ExecContext, QueryCounters, Scope};
use super::parallel::SharedSource;
use super::spill::{one_key_hash, BudgetLease, SpillFile, SpillMeter, SpillSet, MAX_SPILL_DEPTH};
use super::{for_each_lane, Operator};
use crate::error::{QueryError, Result};
use crate::logical::JoinType;
use crate::profile::OpStats;
use backbone_storage::{Column, RecordBatch, Schema};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Classic two-phase hash join: materialize and hash the left (build) side,
/// then stream the right (probe) side. Supports inner and left-outer joins.
pub struct HashJoinExec {
    left: Option<Box<dyn Operator>>,
    right: Box<dyn Operator>,
    on: Vec<(String, String)>,
    join_type: JoinType,
    schema: Arc<Schema>,
    build: Option<BuildSide>,
    /// Workers and the shared memory budget: the build side spills to a
    /// Grace partition join when collecting it would cross the ceiling.
    ctx: ExecContext,
    stats: OpStats,
    meter: SpillMeter,
    pending: VecDeque<RecordBatch>,
    done_probe: bool,
    /// Left-outer padding emitted (at most once, after the probe drains).
    left_emitted: bool,
    /// Reservation for the resident build table (in-memory mode).
    lease: Option<BudgetLease>,
    grace: Option<GraceJoin>,
}

/// State for a Grace (partitioned, out-of-core) hash join: both inputs were
/// hash-partitioned into spill files and the pairs are joined one at a time.
/// Equal keys hash equally, so a partition pair is self-contained — and
/// distinct partitions are key-disjoint, which makes per-partition
/// left-outer padding sound.
struct GraceJoin {
    /// (build partition, probe partition, repartition depth) work queue.
    parts: VecDeque<(SpillFile, SpillFile, usize)>,
    lschema: Arc<Schema>,
    rschema: Arc<Schema>,
    build_keys: Vec<usize>,
    probe_keys: Vec<usize>,
}

struct BuildSide {
    batch: RecordBatch,
    /// Per-partition chained hash tables: `heads[part][bucket]` and
    /// `next[row]` hold `row + 1` (0 terminates). Rows with NULL keys are
    /// never linked in. One-worker builds use a single partition, the
    /// classic one-table layout.
    heads: Vec<Vec<u32>>,
    next: Vec<AtomicU32>,
    /// Per-row key hash, for cheap pre-checks before typed comparison.
    hashes: Vec<u64>,
    bucket_mask: usize,
    /// Hash → partition: top `part_bits` bits, independent of the low bits
    /// that pick the bucket.
    part_bits: u32,
    matched: Vec<AtomicBool>,
    /// Probe-side key column ordinals.
    probe_keys: Vec<usize>,
    /// Build-side key column ordinals.
    build_keys: Vec<usize>,
}

impl BuildSide {
    #[inline]
    fn partition(&self, hash: u64) -> usize {
        if self.part_bits == 0 {
            0
        } else {
            (hash >> (64 - self.part_bits)) as usize
        }
    }
}

/// Per-batch probe counters, folded into the query's counters by the caller.
#[derive(Default)]
struct ProbeStats {
    probe_ns: u64,
    gather_ns: u64,
    out_rows: u64,
    dict_shared_rows: u64,
    dict_mixed: u64,
}

impl ProbeStats {
    fn merge(&mut self, other: &ProbeStats) {
        self.probe_ns += other.probe_ns;
        self.gather_ns += other.gather_ns;
        self.out_rows += other.out_rows;
        self.dict_shared_rows += other.dict_shared_rows;
        self.dict_mixed += other.dict_mixed;
    }

    fn record(&self, c: &QueryCounters) {
        c.join_probe_ns.add(self.probe_ns);
        c.join_gather_ns.add(self.gather_ns);
        c.join_out_rows.add(self.out_rows);
        c.join_dict_code_probe_rows.add(self.dict_shared_rows);
        c.join_dict_fallback.add(self.dict_mixed);
    }
}

/// Probe one batch against the build table. Takes `&BuildSide` (match flags
/// are atomic) so parallel workers can probe concurrently.
fn probe_batch(
    build: &BuildSide,
    probe: &RecordBatch,
    schema: &Arc<Schema>,
) -> Result<(Option<RecordBatch>, ProbeStats)> {
    let mut stats = ProbeStats::default();
    let t0 = Instant::now();
    let sel = probe.selection();
    let n = probe.num_rows();
    let base = probe.base_rows();
    let probe_cols: Vec<&Arc<Column>> = build.probe_keys.iter().map(|&c| probe.column(c)).collect();

    // Column-wise probe hashing over the selected lanes.
    let mut hashes = vec![0u64; base];
    for pc in &probe_cols {
        pc.hash_combine(sel, &mut hashes);
    }
    // Classify key encodings once per batch: a shared dictionary means
    // `eq_rows_null_eq` verifies candidates by u32 code compare; any other
    // dict pairing falls back to per-row string comparison and must be
    // visible in the counters.
    for (&bc, pc) in build.build_keys.iter().zip(&probe_cols) {
        match (build.batch.column(bc).dict_parts(), pc.dict_parts()) {
            (Some((bd, _, _)), Some((pd, _, _))) if Arc::ptr_eq(bd, pd) => {
                stats.dict_shared_rows += n as u64;
            }
            (None, None) => {}
            _ => stats.dict_mixed += 1,
        }
    }

    // Row-id match lists: one (build_row, probe_base_row) pair per hit.
    let mut left_rows: Vec<u32> = Vec::new();
    let mut right_rows: Vec<u32> = Vec::new();
    // Run-aware fast path: a single all-valid RLE-encoded probe key with no
    // selection walks the build chain once per *run* — every row in a run
    // shares the key, hence the candidate set. Pair emission order matches
    // the per-row loop exactly (probe rows ascending, candidates in chain
    // order), so results are bit-for-bit identical.
    let probe_runs = if build.probe_keys.len() == 1 && sel.is_none() {
        match probe_cols[0].as_ref() {
            Column::Int64Encoded { data, validity } if validity.all_set() => data.runs(),
            _ => None,
        }
    } else {
        None
    };
    if let Some(runs) = probe_runs {
        let bcol = build.batch.column(build.build_keys[0]);
        let mut matches: Vec<u32> = Vec::new();
        let mut pos = 0usize;
        for &(_, cnt) in runs {
            let end = pos + cnt as usize;
            let h = hashes[pos];
            let heads = &build.heads[build.partition(h)];
            let mut cand = heads[(h as usize) & build.bucket_mask];
            matches.clear();
            while cand != 0 {
                let r = (cand - 1) as usize;
                if build.hashes[r] == h && bcol.eq_rows_null_eq(r, probe_cols[0], pos) {
                    matches.push(r as u32);
                }
                cand = build.next[r].load(Ordering::Relaxed);
            }
            if !matches.is_empty() {
                for &r in &matches {
                    build.matched[r as usize].store(true, Ordering::Relaxed);
                }
                for row in pos..end {
                    for &r in &matches {
                        left_rows.push(r);
                        right_rows.push(row as u32);
                    }
                }
            }
            pos = end;
        }
        stats.probe_ns = t0.elapsed().as_nanos() as u64;
        return finish_probe(build, probe, schema, left_rows, right_rows, stats);
    }
    for_each_lane(sel, n, |_, base_row| {
        if probe_cols.iter().any(|pc| pc.is_null(base_row)) {
            return;
        }
        let h = hashes[base_row];
        let heads = &build.heads[build.partition(h)];
        let mut cand = heads[(h as usize) & build.bucket_mask];
        while cand != 0 {
            let r = (cand - 1) as usize;
            if build.hashes[r] == h
                && build
                    .build_keys
                    .iter()
                    .zip(&probe_cols)
                    .all(|(&bc, pc)| build.batch.column(bc).eq_rows_null_eq(r, pc, base_row))
            {
                build.matched[r].store(true, Ordering::Relaxed);
                left_rows.push(r as u32);
                right_rows.push(base_row as u32);
            }
            cand = build.next[r].load(Ordering::Relaxed);
        }
    });
    stats.probe_ns = t0.elapsed().as_nanos() as u64;
    finish_probe(build, probe, schema, left_rows, right_rows, stats)
}

/// Gather the matched (build_row, probe_row) pairs into an output batch.
fn finish_probe(
    build: &BuildSide,
    probe: &RecordBatch,
    schema: &Arc<Schema>,
    left_rows: Vec<u32>,
    right_rows: Vec<u32>,
    mut stats: ProbeStats,
) -> Result<(Option<RecordBatch>, ProbeStats)> {
    if left_rows.is_empty() {
        return Ok((None, stats));
    }

    // One gather per output column.
    let t1 = Instant::now();
    let mut cols: Vec<Arc<Column>> =
        Vec::with_capacity(build.batch.num_columns() + probe.num_columns());
    for c in build.batch.columns() {
        cols.push(Arc::new(c.gather(&left_rows)));
    }
    for c in probe.columns() {
        cols.push(Arc::new(c.gather(&right_rows)));
    }
    stats.gather_ns = t1.elapsed().as_nanos() as u64;
    stats.out_rows = left_rows.len() as u64;
    Ok((Some(RecordBatch::try_new(schema.clone(), cols)?), stats))
}

/// Hash, partition, and link one dense build batch into a [`BuildSide`].
/// `workers >= 2` links hash partitions in parallel; otherwise the classic
/// single-partition table is produced (grace partitions always link on one
/// worker — they are already small by construction).
fn link_build_side(
    batch: RecordBatch,
    build_keys: Vec<usize>,
    probe_keys: Vec<usize>,
    workers: usize,
    counters: &QueryCounters,
) -> BuildSide {
    let t0 = Instant::now();
    let rows = batch.num_rows();
    // Column-wise key hashing over the dense build batch.
    let mut hashes = vec![0u64; rows];
    for &c in &build_keys {
        batch.column(c).hash_combine(None, &mut hashes);
    }
    // Partition by the top hash bits so the low bits that pick a bucket
    // stay independent. One-worker builds use one partition — the classic
    // single-table layout.
    let npart = if workers >= 2 {
        workers.next_power_of_two().min(64)
    } else {
        1
    };
    let part_bits = npart.trailing_zeros();
    let buckets = ((rows / npart).max(8) * 2).next_power_of_two();
    let bucket_mask = buckets - 1;
    // One pass assigning linkable rows to partitions, in ascending row
    // order so reverse-linking below leaves every chain ascending.
    let mut part_rows: Vec<Vec<u32>> = vec![Vec::new(); npart];
    for (row, &hash) in hashes.iter().enumerate() {
        // SQL join semantics: NULL keys never match — leave unlinked.
        if build_keys.iter().any(|&c| batch.column(c).is_null(row)) {
            continue;
        }
        let part = if part_bits == 0 {
            0
        } else {
            (hash >> (64 - part_bits)) as usize
        };
        part_rows[part].push(row as u32);
    }

    let next: Vec<AtomicU32> = (0..rows).map(|_| AtomicU32::new(0)).collect();
    let link = |rows_in_part: &[u32]| -> Vec<u32> {
        let mut heads = vec![0u32; buckets];
        // Insert in reverse so each chain lists build rows in ascending
        // order, matching the map-based implementation's match order.
        for &row in rows_in_part.iter().rev() {
            let b = (hashes[row as usize] as usize) & bucket_mask;
            next[row as usize].store(heads[b], Ordering::Relaxed);
            heads[b] = row + 1;
        }
        heads
    };
    let heads: Vec<Vec<u32>> = if npart == 1 {
        vec![link(&part_rows[0])]
    } else {
        // Workers claim partitions off a shared counter; each row is in
        // exactly one partition, so `next` writes never overlap.
        let cursor = AtomicUsize::new(0);
        let mut heads: Vec<Vec<u32>> = (0..npart).map(|_| Vec::new()).collect();
        let slots: Vec<std::sync::Mutex<&mut Vec<u32>>> =
            heads.iter_mut().map(std::sync::Mutex::new).collect();
        super::pool::run_workers(workers.min(npart), |_| loop {
            let p = cursor.fetch_add(1, Ordering::Relaxed);
            if p >= part_rows.len() {
                break;
            }
            let linked = link(&part_rows[p]);
            **slots[p].lock().expect("partition slot") = linked;
        });
        drop(slots);
        heads
    };

    counters.join_build_ns.add_elapsed(t0);
    counters.join_build_rows.add(rows as u64);
    if npart > 1 {
        counters.join_build_partitions.add(npart as u64);
    }
    BuildSide {
        batch,
        heads,
        next,
        hashes,
        bucket_mask,
        part_bits,
        matched: (0..rows).map(|_| AtomicBool::new(false)).collect(),
        probe_keys,
        build_keys,
    }
}

/// Left-outer padding for one build table: every never-matched build row,
/// right-side columns all NULL.
fn unmatched_left_batch(
    build: &BuildSide,
    rschema: &Arc<Schema>,
    schema: &Arc<Schema>,
) -> Result<Option<RecordBatch>> {
    let unmatched: Vec<u32> = build
        .matched
        .iter()
        .enumerate()
        .filter_map(|(i, m)| (!m.load(Ordering::Relaxed)).then_some(i as u32))
        .collect();
    if unmatched.is_empty() {
        return Ok(None);
    }
    let n = unmatched.len();
    let mut cols: Vec<Arc<Column>> = build
        .batch
        .columns()
        .iter()
        .map(|c| Arc::new(c.gather(&unmatched)))
        .collect();
    for f in rschema.fields() {
        cols.push(Arc::new(Column::nulls(f.data_type, n)));
    }
    Ok(Some(RecordBatch::try_new(schema.clone(), cols)?))
}

impl HashJoinExec {
    /// Build a hash join of `left` and `right` on `(left_col, right_col)`
    /// pairs, run with the context's workers and budget and recorded into
    /// `stats`. When collecting the build side would cross the budget, the
    /// join switches to Grace mode: both inputs are hash-partitioned to
    /// spill files and the partition pairs are joined one at a time.
    pub fn new(
        left: Box<dyn Operator>,
        right: Box<dyn Operator>,
        on: Vec<(String, String)>,
        join_type: JoinType,
        ctx: &ExecContext,
        stats: OpStats,
    ) -> Result<HashJoinExec> {
        if on.is_empty() {
            return Err(QueryError::InvalidPlan(
                "hash join requires at least one key".into(),
            ));
        }
        let lschema = left.schema();
        let rschema = right.schema();
        for (l, r) in &on {
            lschema.index_of(l)?;
            rschema.index_of(r)?;
        }
        let mut schema = lschema.join(&rschema);
        if join_type == JoinType::Left {
            // Right-side fields become nullable in the output.
            let fields = schema
                .fields()
                .iter()
                .enumerate()
                .map(|(i, f)| {
                    let mut f = f.clone();
                    if i >= lschema.len() {
                        f.nullable = true;
                    }
                    f
                })
                .collect();
            schema = Schema::new(fields);
        }
        Ok(HashJoinExec {
            left: Some(left),
            right,
            on,
            join_type,
            schema,
            build: None,
            meter: ctx.spill_meter(&stats),
            ctx: ctx.clone(),
            stats,
            pending: VecDeque::new(),
            done_probe: false,
            left_emitted: false,
            lease: None,
            grace: None,
        })
    }

    fn ensure_built(&mut self) -> Result<()> {
        if self.build.is_some() || self.grace.is_some() {
            return Ok(());
        }
        let mut left = self.left.take().expect("build side consumed once");
        let lschema = left.schema();
        let rschema = self.right.schema();
        let build_keys: Vec<usize> = self
            .on
            .iter()
            .map(|(l, _)| lschema.index_of(l).expect("validated in new"))
            .collect();
        let probe_keys: Vec<usize> = self
            .on
            .iter()
            .map(|(_, r)| rschema.index_of(r).expect("validated in new"))
            .collect();

        // Drain the build side under the shared budget. Batches are
        // densified up front so spill partitioning and concat both see
        // plain rows.
        self.stats.workers.add(self.ctx.workers as u64);
        let mut lease = self.ctx.lease();
        let mut batches: Vec<RecordBatch> = Vec::new();
        let mut held = 0usize;
        let mut overflow = false;
        while let Some(b) = left.next()? {
            let b = b.materialize();
            held += b.byte_size();
            batches.push(b);
            if let Some(l) = &mut lease {
                l.set(held);
                if l.over() {
                    overflow = true;
                    break;
                }
            }
        }

        if overflow {
            // Grace mode. What was collected goes to the partitions first,
            // then the rest of both inputs streams straight through without
            // ever being held whole.
            let mut build_spill = SpillSet::new();
            for b in batches.drain(..) {
                build_spill.append_partitioned(&b, &build_keys, 0, &self.meter)?;
            }
            if let Some(l) = &mut lease {
                l.set(0);
            }
            while let Some(b) = left.next()? {
                build_spill.append_partitioned(&b.materialize(), &build_keys, 0, &self.meter)?;
            }
            let mut probe_spill = SpillSet::new();
            while let Some(p) = self.right.next()? {
                probe_spill.append_partitioned(&p.materialize(), &probe_keys, 0, &self.meter)?;
            }
            self.done_probe = true;
            self.grace = Some(GraceJoin {
                parts: build_spill
                    .into_files()
                    .into_iter()
                    .zip(probe_spill.into_files())
                    .map(|(b, p)| (b, p, 1))
                    .collect(),
                lschema,
                rschema,
                build_keys,
                probe_keys,
            });
            return Ok(());
        }

        let any_dict_key: Vec<bool> = build_keys
            .iter()
            .map(|&c| batches.iter().any(|b| b.column(c).is_dict()))
            .collect();
        let batch = RecordBatch::concat(lschema, &batches)?;
        drop(batches);
        // Mixed-encoding inputs force the concat to decode: count it rather
        // than silently eating the cost.
        let decode_fallbacks = build_keys
            .iter()
            .zip(&any_dict_key)
            .filter(|&(&c, &was_dict)| was_dict && !batch.column(c).is_dict())
            .count() as u64;
        self.ctx.counters.join_dict_fallback.add(decode_fallbacks);
        if let Some(l) = &mut lease {
            l.set(batch.byte_size());
        }
        self.build = Some(link_build_side(
            batch,
            build_keys,
            probe_keys,
            self.ctx.workers,
            &self.ctx.counters,
        ));
        // Hold the reservation as long as the build table is resident.
        self.lease = lease;
        Ok(())
    }

    /// Join one spilled partition pair, or repartition it with deeper hash
    /// bits when the build half alone still exceeds the budget and its rows
    /// hold more than one key hash. Returns `false` once the grace queue is
    /// exhausted.
    fn grace_step(&mut self) -> Result<bool> {
        let (lschema, rschema, build_keys, probe_keys) = {
            let g = self.grace.as_ref().expect("grace mode");
            (
                g.lschema.clone(),
                g.rschema.clone(),
                g.build_keys.clone(),
                g.probe_keys.clone(),
            )
        };
        let popped = self.grace.as_mut().expect("grace mode").parts.pop_front();
        let Some((mut bf, mut pf, depth)) = popped else {
            return Ok(false);
        };
        if bf.is_empty() {
            // No build rows: inner joins emit nothing, and a left join has
            // no left rows here to pad either.
            return Ok(true);
        }
        let build_batches = bf.read_all(&lschema, &self.meter)?;
        let bytes: usize = build_batches.iter().map(|b| b.byte_size()).sum();
        let over = self.ctx.budget.as_ref().is_some_and(|b| bytes > b.limit());
        if over && depth < MAX_SPILL_DEPTH && !one_key_hash(&build_batches, &build_keys) {
            // This partition alone overflows: carve both halves into
            // sub-partitions by the next hash bits and requeue. Past
            // MAX_SPILL_DEPTH, or when every build row shares one key hash,
            // it is joined in memory anyway — correctness wins over the
            // ceiling on adversarial key distributions.
            let mut bsub = SpillSet::new();
            for b in &build_batches {
                bsub.append_partitioned(b, &build_keys, depth, &self.meter)?;
            }
            let mut psub = SpillSet::new();
            for p in pf.read_all(&rschema, &self.meter)? {
                psub.append_partitioned(&p, &probe_keys, depth, &self.meter)?;
            }
            let g = self.grace.as_mut().expect("grace mode");
            for (b, p) in bsub.into_files().into_iter().zip(psub.into_files()) {
                g.parts.push_back((b, p, depth + 1));
            }
            return Ok(true);
        }
        let mut lease = self.ctx.lease();
        let batch = RecordBatch::concat(lschema, &build_batches)?;
        if let Some(l) = &mut lease {
            l.set(batch.byte_size());
        }
        let build = link_build_side(batch, build_keys, probe_keys, 1, &self.ctx.counters);
        let mut stats = ProbeStats::default();
        for probe in pf.read_all(&rschema, &self.meter)? {
            let (out, st) = probe_batch(&build, &probe, &self.schema)?;
            stats.merge(&st);
            if let Some(b) = out {
                self.pending.push_back(b);
            }
        }
        stats.record(&self.ctx.counters);
        if self.join_type == JoinType::Left {
            // Partitions are key-disjoint, so a build row unmatched here can
            // never match another partition's probes: pad it now.
            if let Some(b) = unmatched_left_batch(&build, &rschema, &self.schema)? {
                self.pending.push_back(b);
            }
        }
        Ok(true)
    }

    /// Drain the whole probe side with two or more worker threads, queueing
    /// output batches in worker order.
    fn parallel_probe(&mut self) -> Result<()> {
        let build = self.build.as_ref().expect("built before probe");
        let schema = &self.schema;
        let ctx = &self.ctx;
        let source = SharedSource::new(self.right.as_mut());
        let results: Vec<Result<(Vec<RecordBatch>, ProbeStats, u64)>> =
            super::pool::run_workers(ctx.workers, |w| {
                let _kernel = crate::kernel_metrics::install(ctx);
                let mut out = Vec::new();
                let mut stats = ProbeStats::default();
                let mut morsels = 0u64;
                let mut rows = 0u64;
                while let Some(probe) = source.next()? {
                    morsels += 1;
                    rows += probe.num_rows() as u64;
                    let (batch, st) = probe_batch(build, &probe, schema)?;
                    stats.merge(&st);
                    out.extend(batch);
                }
                ctx.record_worker(Scope::HashJoin, w, morsels, rows);
                Ok((out, stats, morsels))
            });
        let mut stats = ProbeStats::default();
        for r in results {
            let (batches, st, morsels) = r?;
            self.pending.extend(batches);
            stats.merge(&st);
            self.stats.morsels.add(morsels);
        }
        stats.record(&self.ctx.counters);
        self.done_probe = true;
        Ok(())
    }

    fn emit_unmatched_left(&mut self) -> Result<Option<RecordBatch>> {
        let build = self.build.as_ref().expect("built before probe finished");
        unmatched_left_batch(build, &self.right.schema(), &self.schema)
    }
}

impl Operator for HashJoinExec {
    fn schema(&self) -> Arc<Schema> {
        self.schema.clone()
    }

    fn next(&mut self) -> Result<Option<RecordBatch>> {
        self.ensure_built()?;
        loop {
            if let Some(b) = self.pending.pop_front() {
                return Ok(Some(b));
            }
            if self.grace.is_some() {
                // Grace mode drained both inputs up front; unmatched-left
                // padding happens per partition inside grace_step.
                if self.grace_step()? {
                    continue;
                }
                return Ok(None);
            }
            if self.done_probe {
                if self.join_type == JoinType::Left && !self.left_emitted {
                    self.left_emitted = true;
                    return self.emit_unmatched_left();
                }
                return Ok(None);
            }
            if self.ctx.workers >= 2 {
                self.parallel_probe()?;
                continue;
            }
            let Some(probe) = self.right.next()? else {
                self.done_probe = true;
                continue;
            };
            self.stats.morsels.incr();
            let build = self.build.as_ref().expect("built above");
            let (out, stats) = probe_batch(build, &probe, &self.schema)?;
            stats.record(&self.ctx.counters);
            if let Some(b) = out {
                return Ok(Some(b));
            }
        }
    }

    fn name(&self) -> &'static str {
        "HashJoin"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::physical::drain_one;
    use crate::physical::test_util::{ctx, ctx_with, int_batch, BatchSource};
    use backbone_storage::{Metrics, Value};

    fn join(
        left: Vec<(&'static str, Vec<i64>)>,
        right: Vec<(&'static str, Vec<i64>)>,
        on: (&str, &str),
        jt: JoinType,
    ) -> RecordBatch {
        let lb = int_batch(&left);
        let rb = int_batch(&right);
        let mut j = HashJoinExec::new(
            Box::new(BatchSource::single(lb)),
            Box::new(BatchSource::single(rb)),
            vec![(on.0.to_string(), on.1.to_string())],
            jt,
            &ctx(1),
            OpStats::default(),
        )
        .unwrap();
        drain_one(&mut j).unwrap()
    }

    #[test]
    fn inner_join_matches() {
        let out = join(
            vec![("id", vec![1, 2, 3]), ("lv", vec![10, 20, 30])],
            vec![("rid", vec![2, 3, 4]), ("rv", vec![200, 300, 400])],
            ("id", "rid"),
            JoinType::Inner,
        );
        assert_eq!(out.num_rows(), 2);
        let ids: Vec<i64> = out.column(0).i64_data().unwrap().to_vec();
        assert!(ids.contains(&2) && ids.contains(&3));
        assert_eq!(out.num_columns(), 4);
    }

    #[test]
    fn duplicate_keys_fan_out() {
        let out = join(
            vec![("id", vec![1, 1]), ("lv", vec![10, 11])],
            vec![("rid", vec![1, 1, 1]), ("rv", vec![100, 101, 102])],
            ("id", "rid"),
            JoinType::Inner,
        );
        assert_eq!(out.num_rows(), 6); // 2 x 3 cross product on the key
    }

    #[test]
    fn left_join_pads_unmatched() {
        let out = join(
            vec![("id", vec![1, 2, 3])],
            vec![("rid", vec![2])],
            ("id", "rid"),
            JoinType::Left,
        );
        assert_eq!(out.num_rows(), 3);
        // Find the row with id=1: its rid must be NULL.
        let rows = out.to_rows();
        let row1 = rows.iter().find(|r| r[0] == Value::Int(1)).unwrap();
        assert!(row1[1].is_null());
        let row2 = rows.iter().find(|r| r[0] == Value::Int(2)).unwrap();
        assert_eq!(row2[1], Value::Int(2));
    }

    #[test]
    fn empty_probe_side() {
        let out = join(
            vec![("id", vec![1, 2])],
            vec![("rid", vec![])],
            ("id", "rid"),
            JoinType::Inner,
        );
        assert_eq!(out.num_rows(), 0);
    }

    #[test]
    fn left_join_empty_probe_keeps_all_left() {
        let out = join(
            vec![("id", vec![1, 2])],
            vec![("rid", vec![])],
            ("id", "rid"),
            JoinType::Left,
        );
        assert_eq!(out.num_rows(), 2);
        assert!(out.to_rows().iter().all(|r| r[1].is_null()));
    }

    #[test]
    fn null_keys_never_match() {
        use backbone_storage::{Column, DataType, Field};
        let schema = Schema::new(vec![Field::nullable("id", DataType::Int64)]);
        let lb = RecordBatch::try_new(
            schema.clone(),
            vec![Arc::new(Column::from_opt_i64(vec![Some(1), None]))],
        )
        .unwrap();
        let rschema = Schema::new(vec![Field::nullable("rid", DataType::Int64)]);
        let rb = RecordBatch::try_new(
            rschema,
            vec![Arc::new(Column::from_opt_i64(vec![Some(1), None]))],
        )
        .unwrap();
        let mut j = HashJoinExec::new(
            Box::new(BatchSource::single(lb)),
            Box::new(BatchSource::single(rb)),
            vec![("id".to_string(), "rid".to_string())],
            JoinType::Inner,
            &ctx(1),
            OpStats::default(),
        )
        .unwrap();
        let out = drain_one(&mut j).unwrap();
        assert_eq!(out.num_rows(), 1, "NULL = NULL must not join");
    }

    #[test]
    fn multi_key_join() {
        let lb = int_batch(&[("a", vec![1, 1, 2]), ("b", vec![1, 2, 1])]);
        let rb = int_batch(&[("c", vec![1, 1]), ("d", vec![2, 9])]);
        let mut j = HashJoinExec::new(
            Box::new(BatchSource::single(lb)),
            Box::new(BatchSource::single(rb)),
            vec![
                ("a".to_string(), "c".to_string()),
                ("b".to_string(), "d".to_string()),
            ],
            JoinType::Inner,
            &ctx(1),
            OpStats::default(),
        )
        .unwrap();
        let out = drain_one(&mut j).unwrap();
        assert_eq!(out.num_rows(), 1); // only (1,2) matches
    }

    #[test]
    fn probe_side_selection_respected() {
        let lb = int_batch(&[("id", vec![1, 2, 3])]);
        let rb = int_batch(&[("rid", vec![1, 2, 3]), ("rv", vec![10, 20, 30])]);
        // Select only probe rows 0 and 2.
        let view = rb.with_selection(Arc::new(vec![0, 2])).unwrap();
        let mut j = HashJoinExec::new(
            Box::new(BatchSource::single(lb)),
            Box::new(BatchSource::new(view.schema().clone(), vec![view])),
            vec![("id".to_string(), "rid".to_string())],
            JoinType::Inner,
            &ctx(1),
            OpStats::default(),
        )
        .unwrap();
        let out = drain_one(&mut j).unwrap();
        assert_eq!(out.num_rows(), 2);
        let rvs: Vec<i64> = out.column(2).i64_data().unwrap().to_vec();
        assert!(rvs.contains(&10) && rvs.contains(&30));
    }

    #[test]
    fn missing_key_column_rejected() {
        let lb = int_batch(&[("a", vec![1])]);
        let rb = int_batch(&[("b", vec![1])]);
        assert!(HashJoinExec::new(
            Box::new(BatchSource::single(lb)),
            Box::new(BatchSource::single(rb)),
            vec![("zzz".to_string(), "b".to_string())],
            JoinType::Inner,
            &ctx(1),
            OpStats::default(),
        )
        .is_err());
    }

    /// Sorted row images for order-insensitive comparison.
    fn sorted_rows(b: &RecordBatch) -> Vec<String> {
        let mut rows: Vec<String> = b.to_rows().iter().map(|r| format!("{r:?}")).collect();
        rows.sort();
        rows
    }

    #[test]
    fn parallel_inner_join_matches_serial() {
        let make = |workers: usize| {
            let lb = int_batch(&[
                ("id", (0..200).map(|i| i % 37).collect()),
                ("lv", (0..200).collect()),
            ]);
            let rbs: Vec<_> = (0..6)
                .map(|b| {
                    int_batch(&[
                        ("rid", (0..50).map(|i| (b * 11 + i) % 41).collect()),
                        ("rv", (0..50).map(|i| b * 50 + i).collect()),
                    ])
                })
                .collect();
            HashJoinExec::new(
                Box::new(BatchSource::single(lb)),
                Box::new(BatchSource::new(rbs[0].schema().clone(), rbs)),
                vec![("id".to_string(), "rid".to_string())],
                JoinType::Inner,
                &ctx(workers),
                OpStats::default(),
            )
            .unwrap()
        };
        let serial = sorted_rows(&drain_one(&mut make(1)).unwrap());
        assert_eq!(serial, sorted_rows(&drain_one(&mut make(2)).unwrap()));
        assert_eq!(serial, sorted_rows(&drain_one(&mut make(4)).unwrap()));
    }

    #[test]
    fn parallel_left_join_matches_serial() {
        let make = |workers: usize| {
            let lb = int_batch(&[("id", (0..60).collect()), ("lv", (100..160).collect())]);
            let rb = int_batch(&[
                ("rid", (0..30).map(|i| i * 2).collect()),
                ("rv", (0..30).collect()),
            ]);
            HashJoinExec::new(
                Box::new(BatchSource::single(lb)),
                Box::new(BatchSource::single(rb)),
                vec![("id".to_string(), "rid".to_string())],
                JoinType::Left,
                &ctx(workers),
                OpStats::default(),
            )
            .unwrap()
        };
        let serial = sorted_rows(&drain_one(&mut make(1)).unwrap());
        assert_eq!(serial, sorted_rows(&drain_one(&mut make(3)).unwrap()));
    }

    #[test]
    fn parallel_join_records_profile() {
        let stats = OpStats::default();
        let metrics = Metrics::new();
        let lb = int_batch(&[("id", vec![1, 2, 3])]);
        let rbs: Vec<_> = (0..3)
            .map(|b| int_batch(&[("rid", vec![b, b + 1])]))
            .collect();
        let mut j = HashJoinExec::new(
            Box::new(BatchSource::single(lb)),
            Box::new(BatchSource::new(rbs[0].schema().clone(), rbs)),
            vec![("id".to_string(), "rid".to_string())],
            JoinType::Inner,
            &ctx_with(2, None, Some(metrics.clone())),
            stats.clone(),
        )
        .unwrap();
        drain_one(&mut j).unwrap();
        assert_eq!(stats.workers.get(), 2);
        assert_eq!(stats.morsels.get(), 3);
        assert_eq!(metrics.value("op.hash_join.kernel.build_partitions"), 2);
        let worker_morsels: u64 = (0..2)
            .map(|w| metrics.value(&format!("op.hash_join.worker.{w}.morsels")))
            .sum();
        assert_eq!(worker_morsels, 3);
    }

    /// 320 build rows over 97 keys joined against 240 probe rows over 113
    /// keys, with duplicates on both sides.
    fn budget_join(
        workers: usize,
        budget: Option<usize>,
        jt: JoinType,
        metrics: Option<Metrics>,
    ) -> RecordBatch {
        let lbs: Vec<_> = (0..4)
            .map(|b| {
                int_batch(&[
                    ("id", (0..80).map(|i| (b * 80 + i) % 97).collect()),
                    ("lv", (0..80).map(|i| b * 80 + i).collect()),
                ])
            })
            .collect();
        let rbs: Vec<_> = (0..4)
            .map(|b| {
                int_batch(&[
                    ("rid", (0..60).map(|i| (b * 31 + i) % 113).collect()),
                    ("rv", (0..60).map(|i| b * 60 + i).collect()),
                ])
            })
            .collect();
        let mut j = HashJoinExec::new(
            Box::new(BatchSource::new(lbs[0].schema().clone(), lbs)),
            Box::new(BatchSource::new(rbs[0].schema().clone(), rbs)),
            vec![("id".to_string(), "rid".to_string())],
            jt,
            &ctx_with(workers, budget, metrics),
            OpStats::default(),
        )
        .unwrap();
        drain_one(&mut j).unwrap()
    }

    #[test]
    fn grace_inner_join_matches_in_memory() {
        let expect = sorted_rows(&budget_join(1, None, JoinType::Inner, None));
        let metrics = Metrics::new();
        let out = budget_join(1, Some(2048), JoinType::Inner, Some(metrics.clone()));
        assert_eq!(sorted_rows(&out), expect);
        assert!(
            metrics.value("storage.spill.partitions") > 0,
            "a 2 KiB budget must force a grace join"
        );
        assert!(metrics.value("storage.spill.bytes_read") > 0);
    }

    #[test]
    fn grace_left_join_pads_per_partition() {
        let expect = sorted_rows(&budget_join(1, None, JoinType::Left, None));
        let out = budget_join(1, Some(2048), JoinType::Left, None);
        assert_eq!(sorted_rows(&out), expect);
    }

    #[test]
    fn one_byte_budget_grace_recursion_stays_correct() {
        // Every partition is always "over", so both sides repartition down
        // to MAX_SPILL_DEPTH and join in memory there.
        let expect = sorted_rows(&budget_join(1, None, JoinType::Inner, None));
        assert_eq!(
            sorted_rows(&budget_join(1, Some(1), JoinType::Inner, None)),
            expect
        );
    }

    #[test]
    fn one_key_build_partitions_join_without_recursing() {
        // Every build row has key 5: no depth can split the partition, so
        // it joins at depth 1 and only the first level writes files (one
        // build and one probe partition).
        let lb = int_batch(&[("id", vec![5; 40]), ("lv", (0..40).collect())]);
        let rb = int_batch(&[("rid", vec![5, 5, 5]), ("rv", vec![1, 2, 3])]);
        let metrics = Metrics::new();
        let mut j = HashJoinExec::new(
            Box::new(BatchSource::single(lb)),
            Box::new(BatchSource::single(rb)),
            vec![("id".to_string(), "rid".to_string())],
            JoinType::Inner,
            &ctx_with(1, Some(1), Some(metrics.clone())),
            OpStats::default(),
        )
        .unwrap();
        assert_eq!(drain_one(&mut j).unwrap().num_rows(), 120);
        assert_eq!(metrics.value("storage.spill.partitions"), 2);
    }

    #[test]
    fn generous_budget_join_never_spills() {
        let metrics = Metrics::new();
        let out = budget_join(1, Some(64 << 20), JoinType::Inner, Some(metrics.clone()));
        assert_eq!(
            sorted_rows(&out),
            sorted_rows(&budget_join(1, None, JoinType::Inner, None))
        );
        assert_eq!(metrics.value("storage.spill.partitions"), 0);
    }

    #[test]
    fn grace_left_join_null_keys_padded() {
        use backbone_storage::{DataType, Field};
        let lschema = Schema::new(vec![Field::nullable("id", DataType::Int64)]);
        let lb = RecordBatch::try_new(
            lschema,
            vec![Arc::new(Column::from_opt_i64(vec![Some(1), None, Some(2)]))],
        )
        .unwrap();
        let rschema = Schema::new(vec![Field::nullable("rid", DataType::Int64)]);
        let rb = RecordBatch::try_new(
            rschema,
            vec![Arc::new(Column::from_opt_i64(vec![Some(1), None]))],
        )
        .unwrap();
        let make = |budget: Option<usize>| {
            let mut j = HashJoinExec::new(
                Box::new(BatchSource::single(lb.clone())),
                Box::new(BatchSource::single(rb.clone())),
                vec![("id".to_string(), "rid".to_string())],
                JoinType::Left,
                &ctx_with(1, budget, None),
                OpStats::default(),
            )
            .unwrap();
            drain_one(&mut j).unwrap()
        };
        let expect = sorted_rows(&make(None));
        let out = make(Some(1));
        // NULL build keys never match; the NULL-key left row still shows up
        // padded exactly once from whichever partition it landed in.
        assert_eq!(out.num_rows(), 3);
        assert_eq!(sorted_rows(&out), expect);
    }
}
