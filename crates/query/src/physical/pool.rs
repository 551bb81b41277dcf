//! A process-wide, growing pool of reusable worker threads for
//! morsel-driven operators.
//!
//! Why not `std::thread::scope` per query: on short queries the dominant
//! parallel overhead is not thread *creation* (tens of microseconds) but
//! allocator churn — a fresh thread lands on a fresh malloc arena, so every
//! query re-faults pages for its batch and hash-table allocations, and the
//! memory freed on the consumer side never returns to a warm arena. Reusing
//! threads keeps arenas warm and cuts measured per-query overhead several
//! fold (see `BENCH_exec.json`'s `*_p1_ms` rungs).
//!
//! Design: every worker thread owns a dedicated job channel. Dispatch pops
//! an idle worker (or spawns a new thread when none is parked), so a job
//! never waits behind another job — the pool has plain `thread::spawn`
//! semantics, including for long-running producer jobs like parallel scans,
//! and can never deadlock on its own queueing. Threads park forever when
//! idle; the pool's high-water mark is bounded by peak concurrent jobs.
//!
//! Two entry points:
//! - [`run_workers`]: run `f(0), .., f(workers-1)` concurrently and block
//!   until all return (the breaker-operator shape: aggregate, join probe,
//!   top-k). Borrows non-`'static` state; panics propagate to the caller.
//! - `spawn_detached`: fire one `'static` job and get a join handle back
//!   (the scan-producer shape).

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Mutex, OnceLock};

type Job = Box<dyn FnOnce() + Send + 'static>;

struct Pool {
    /// Parked workers, each addressed by its private job channel.
    idle: Mutex<Vec<Sender<Job>>>,
    /// Threads ever spawned (observability + reuse tests).
    spawned: AtomicUsize,
}

static POOL: OnceLock<Pool> = OnceLock::new();

fn pool() -> &'static Pool {
    POOL.get_or_init(|| Pool {
        idle: Mutex::new(Vec::new()),
        spawned: AtomicUsize::new(0),
    })
}

/// Total worker threads this process has ever spawned.
#[cfg(test)]
pub(crate) fn threads_spawned() -> usize {
    pool().spawned.load(Ordering::Relaxed)
}

/// Hand `job` to a parked worker, or grow the pool by one thread.
fn dispatch(job: Job) {
    let p = pool();
    let parked = p.idle.lock().expect("pool idle lock").pop();
    match parked {
        // A send only fails if the worker's receiver is gone, which the
        // worker loop never allows; fall back to a fresh thread anyway.
        Some(tx) => {
            if let Err(std::sync::mpsc::SendError(job)) = tx.send(job) {
                spawn_worker(p, job);
            }
        }
        None => spawn_worker(p, job),
    }
}

fn spawn_worker(p: &'static Pool, first: Job) {
    p.spawned.fetch_add(1, Ordering::Relaxed);
    let (tx, rx): (Sender<Job>, Receiver<Job>) = channel();
    std::thread::Builder::new()
        .name("backbone-worker".into())
        .spawn(move || {
            let mut job = Some(first);
            loop {
                let j = match job.take() {
                    Some(j) => j,
                    None => match rx.recv() {
                        Ok(j) => j,
                        Err(_) => break,
                    },
                };
                j();
                // Park: re-register only after the job is fully done, so a
                // worker never holds more than one job.
                let p_idle = &mut *p.idle.lock().expect("pool idle lock");
                p_idle.push(tx.clone());
            }
        })
        .expect("spawn pool worker");
}

/// Run `f(0), .., f(workers-1)` concurrently on pooled threads and collect
/// the results in worker order. Blocks until every worker returns; a worker
/// panic resumes on the calling thread.
///
/// Public because the whole engine shares one pool: the vector indexes
/// (`backbone-vector`) partition ANN probes and query batches across the
/// same warm worker threads the relational operators use, instead of
/// spawning their own.
pub fn run_workers<R, F>(workers: usize, f: F) -> Vec<R>
where
    F: Fn(usize) -> R + Sync,
    R: Send,
{
    // A single worker needs no thread: the caller would only block waiting
    // for it, so run it inline. This makes 1-worker plans cost within a
    // shared-source mutex of serial ones — no handoff, no cross-thread
    // allocator traffic, nothing for the scheduler to preempt.
    if workers == 1 {
        return vec![f(0)];
    }
    let slots: Vec<Mutex<Option<R>>> = (0..workers).map(|_| Mutex::new(None)).collect();
    {
        let run = |w: usize| {
            let r = f(w);
            *slots[w].lock().expect("result slot lock") = Some(r);
        };
        scoped_raw(workers, &run);
    }
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot lock")
                .expect("worker completed")
        })
        .collect()
}

/// Dispatch `workers` calls of a borrowed closure and block until all have
/// completed.
///
/// Safety of the lifetime erasure: every dispatched job sends on `done`
/// exactly once, *after* its last use of `f` (the `catch_unwind` wrapper
/// sends even when `f` panics), and this function returns only after
/// receiving all `workers` completions — so the borrow of `f` strictly
/// outlives every use on the pool threads. The channel's happens-before
/// edge also makes all worker writes visible to the caller.
fn scoped_raw<'env>(workers: usize, f: &(dyn Fn(usize) + Sync + 'env)) {
    let f: &'static (dyn Fn(usize) + Sync) = unsafe {
        std::mem::transmute::<&(dyn Fn(usize) + Sync + 'env), &'static (dyn Fn(usize) + Sync)>(f)
    };
    let (done_tx, done_rx) = channel::<std::thread::Result<()>>();
    for w in 0..workers {
        let done = done_tx.clone();
        dispatch(Box::new(move || {
            let r = catch_unwind(AssertUnwindSafe(|| f(w)));
            let _ = done.send(r);
        }));
    }
    drop(done_tx);
    let mut panicked = None;
    for _ in 0..workers {
        match done_rx.recv() {
            Ok(Ok(())) => {}
            Ok(Err(p)) => panicked = Some(p),
            // Disconnect implies every job already completed (and sent).
            Err(_) => break,
        }
    }
    if let Some(p) = panicked {
        resume_unwind(p);
    }
}

/// A handle to one detached pool job; mirrors `std::thread::JoinHandle`.
pub(crate) struct PoolHandle {
    done: Receiver<std::thread::Result<()>>,
}

impl PoolHandle {
    /// Block until the job finishes; `Err` carries the job's panic payload.
    pub fn join(self) -> std::thread::Result<()> {
        self.done.recv().unwrap_or(Ok(()))
    }
}

/// Run `f` once on a pooled thread without blocking the caller — the
/// long-running producer shape (parallel scan workers).
pub(crate) fn spawn_detached(f: impl FnOnce() + Send + 'static) -> PoolHandle {
    let (tx, rx) = channel();
    dispatch(Box::new(move || {
        let r = catch_unwind(AssertUnwindSafe(f));
        let _ = tx.send(r);
    }));
    PoolHandle { done: rx }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn results_come_back_in_worker_order() {
        let out = run_workers(8, |w| w * 10);
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    fn borrowed_state_is_visible_to_workers() {
        let total = AtomicU64::new(0);
        run_workers(4, |w| {
            total.fetch_add(w as u64 + 1, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        let r = catch_unwind(AssertUnwindSafe(|| {
            run_workers(3, |w| {
                if w == 1 {
                    panic!("boom from worker 1");
                }
                w
            })
        }));
        let payload = r.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(msg.contains("boom"), "unexpected payload: {msg}");
        // The pool survives a panicking job.
        assert_eq!(run_workers(2, |w| w), vec![0, 1]);
    }

    #[test]
    fn detached_jobs_join_and_propagate_panics() {
        let h = spawn_detached(|| {});
        assert!(h.join().is_ok());
        let h = spawn_detached(|| panic!("detached boom"));
        assert!(h.join().is_err());
    }

    #[test]
    fn single_worker_runs_inline_on_the_caller() {
        let caller = std::thread::current().id();
        let out = run_workers(1, |_| std::thread::current().id());
        assert_eq!(out, vec![caller]);
    }

    #[test]
    fn threads_are_reused_across_runs() {
        // Warm the pool, then run 20 sequential two-worker jobs: far fewer
        // than 40 fresh threads may appear (other tests share the pool, so
        // assert reuse, not an exact count).
        run_workers(2, |_| {});
        let mut ids = HashSet::new();
        for _ in 0..20 {
            let id = run_workers(2, |_| format!("{:?}", std::thread::current().id()));
            ids.extend(id);
        }
        assert!(ids.len() < 40, "no thread reuse across {} runs", ids.len());
    }

    #[test]
    fn nested_dispatch_from_a_pool_thread() {
        // A pooled job dispatching its own sub-jobs (aggregate over a
        // parallel scan) must not deadlock.
        let out = run_workers(2, |w| {
            let inner = run_workers(2, move |v| w * 10 + v);
            inner.iter().sum::<usize>()
        });
        assert_eq!(out, vec![1, 21]);
        assert!(threads_spawned() >= 2);
    }
}
