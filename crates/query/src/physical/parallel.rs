//! Shared machinery for morsel-driven parallel operators.
//!
//! Two pieces, reused by every parallel operator:
//!
//! - [`StealQueues`]: per-worker deques of morsel indices with LIFO stealing.
//!   Each scan worker drains its own range front-to-back and steals from the
//!   back of a victim's queue when it runs dry, so contiguous row groups stay
//!   with one worker (locality) while skew still balances out.
//! - [`SharedSource`]: a mutex around a pulled child operator. Breaker
//!   operators (aggregate, join probe, top-k) spawn workers that pull batches
//!   through it; the lock only covers the child's `next()` — when the child
//!   is a parallel scan that is one cheap channel receive, so the expensive
//!   per-batch kernel work happens outside the lock, on the worker.
//!
//! With one worker, the breakers' worker runs inline on the caller
//! ([`super::pool::run_workers`]), so the serial plan is the one-worker
//! plan. Workers, morsels, steals and merge time land in the operator's
//! [`OpStats`](crate::OpStats); per-worker totals go to the registry
//! through [`ExecContext::record_worker`](super::ExecContext).

use super::Operator;
use crate::error::Result;
use backbone_storage::RecordBatch;
use std::collections::VecDeque;
use std::sync::Mutex;

/// Work-stealing queues over `0..items` morsel indices, split into
/// contiguous per-worker ranges.
pub(crate) struct StealQueues {
    queues: Vec<Mutex<VecDeque<usize>>>,
}

impl StealQueues {
    /// Split `items` morsels into `workers` contiguous runs.
    pub fn split(items: usize, workers: usize) -> StealQueues {
        let workers = workers.max(1);
        let mut queues: Vec<Mutex<VecDeque<usize>>> =
            (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
        // Distribute remainder one-per-queue so runs differ by at most one.
        let base = items / workers;
        let extra = items % workers;
        let mut next = 0;
        for (w, q) in queues.iter_mut().enumerate() {
            let len = base + usize::from(w < extra);
            let dq = q.get_mut().expect("fresh queue lock");
            dq.extend(next..next + len);
            next += len;
        }
        StealQueues { queues }
    }

    /// Next morsel for `worker`: its own queue front, else steal from the
    /// back of the first non-empty victim. Returns `(index, stolen)`.
    pub fn pop(&self, worker: usize) -> Option<(usize, bool)> {
        if let Some(g) = self.queues[worker].lock().expect("queue lock").pop_front() {
            return Some((g, false));
        }
        let n = self.queues.len();
        for d in 1..n {
            let victim = (worker + d) % n;
            if let Some(g) = self.queues[victim].lock().expect("queue lock").pop_back() {
                return Some((g, true));
            }
        }
        None
    }
}

/// A pulled child operator shared by worker threads, with a count of the
/// batches served so far. Lock scope is exactly one `next()` call. Once the
/// child fails, the worker that pulled the error reports it and every later
/// pull ends the stream: a failed operator is never pulled again.
pub(crate) struct SharedSource<'a> {
    inner: Mutex<(&'a mut dyn Operator, usize, bool)>,
}

impl<'a> SharedSource<'a> {
    pub fn new(op: &'a mut dyn Operator) -> SharedSource<'a> {
        SharedSource {
            inner: Mutex::new((op, 0, false)),
        }
    }

    /// Pull the next batch on behalf of one worker.
    pub fn next(&self) -> Result<Option<RecordBatch>> {
        Ok(self.next_numbered()?.map(|(_, batch)| batch))
    }

    /// Pull the next batch with its position in the child's output order,
    /// so workers can break ties exactly as a serial pull would.
    pub fn next_numbered(&self) -> Result<Option<(usize, RecordBatch)>> {
        let mut guard = self.inner.lock().expect("source lock");
        let (op, served, failed) = &mut *guard;
        if *failed {
            return Ok(None);
        }
        let pulled = op.next();
        *failed = pulled.is_err();
        let Some(batch) = pulled? else {
            return Ok(None);
        };
        *served += 1;
        Ok(Some((*served - 1, batch)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::physical::test_util::{int_batch, BatchSource};

    #[test]
    fn split_covers_every_index_exactly_once() {
        let q = StealQueues::split(11, 3);
        let mut seen = [false; 11];
        let mut steals = 0;
        // Worker 2 drains everything: its own run plus two stolen runs.
        while let Some((g, stolen)) = q.pop(2) {
            assert!(!seen[g], "morsel {g} served twice");
            seen[g] = true;
            steals += usize::from(stolen);
        }
        assert!(seen.iter().all(|&s| s));
        assert!(steals > 0, "cross-queue pops must count as steals");
        assert!(q.pop(0).is_none());
    }

    #[test]
    fn split_handles_more_workers_than_items() {
        let q = StealQueues::split(2, 8);
        assert!(q.pop(7).is_some());
        assert!(q.pop(7).is_some());
        assert!(q.pop(0).is_none());
    }

    #[test]
    fn shared_source_serves_workers_to_exhaustion() {
        let batches: Vec<_> = (0..6).map(|i| int_batch(&[("x", vec![i])])).collect();
        let schema = batches[0].schema().clone();
        let mut src = BatchSource::new(schema, batches);
        let shared = SharedSource::new(&mut src);
        let got = std::thread::scope(|s| {
            let handles: Vec<_> = (0..3)
                .map(|_| {
                    let shared = &shared;
                    s.spawn(move || {
                        let mut n = 0;
                        while let Some(b) = shared.next().unwrap() {
                            n += b.num_rows();
                        }
                        n
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker"))
                .sum::<usize>()
        });
        assert_eq!(got, 6);
    }

    #[test]
    fn a_failed_source_is_never_pulled_again() {
        use crate::expr::{col, lit};
        let batch = int_batch(&[("x", vec![1, 2])]);
        let src = BatchSource::new(batch.schema().clone(), vec![batch.clone(), batch]);
        let div_by_zero = col("x").div(lit(0i64)).gt(lit(1i64));
        let mut filter = crate::physical::filter::FilterExec::new(Box::new(src), div_by_zero);
        let shared = SharedSource::new(&mut filter);
        assert!(shared.next().is_err());
        assert!(shared.next().unwrap().is_none());
    }

    #[test]
    fn worker_counters_land_in_registry() {
        use crate::physical::context::Scope;
        use crate::physical::ExecContext;
        use crate::{ExecOptions, Metrics};
        let m = Metrics::new();
        let ctx = |workers: usize| {
            ExecContext::new(&ExecOptions::with_parallelism(workers).with_metrics(m.clone()))
        };
        // One worker is the serial plan: no per-worker counter exists.
        ctx(1).record_worker(Scope::Scan, 0, 5, 120);
        assert!(m.snapshot().keys().all(|k| !k.contains(".worker.")));
        ctx(4).record_worker(Scope::Scan, 3, 5, 120);
        assert_eq!(m.value("op.scan.worker.3.morsels"), 5);
        assert_eq!(m.value("op.scan.worker.3.rows"), 120);
        assert_eq!(m.value("op.topk.worker.3.rows"), 0);
        // No registry: detached counters nobody reads.
        let opts = ExecOptions::with_parallelism(4);
        ExecContext::new(&opts).record_worker(Scope::Scan, 0, 1, 1);
    }
}
