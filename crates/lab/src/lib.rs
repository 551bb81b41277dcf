//! # backbone-lab
//!
//! Experiment substrates: the rigs behind experiments E4 and E5. No engine
//! crate depends on this one; `Database` and the server never run it.
//!
//! **E4 — the LLM KV cache as a buffering problem.** The paper (§4.7,
//! Papotti) points at *"the role of the key-value cache of LLMs and its
//! connection to buffering to reduce inference time and cost"* as exactly
//! the kind of problem database thinking solves:
//!
//! - [`eviction`]: eight replacement policies over opaque `u64` keys (FIFO,
//!   LRU, LRU-K, CLOCK, LFU, 2Q, ARC and the Belady oracle);
//! - [`cache`]: [`cache::CacheSim`], which replays a trace through one
//!   policy;
//! - [`trace`] generates synthetic transformer-serving block-access traces
//!   (multi-turn sessions, shared system-prompt prefixes, skewed template
//!   popularity) and classic database traces (loops, scans, skewed point
//!   reads) in the same format;
//! - [`sim`] replays a trace through every policy with an inference cost
//!   model (miss = recompute), and [`pinning`] layers prefix pinning on top.
//!
//! The substitution is documented in DESIGN.md: no production serving
//! system is available offline, so the trace generator preserves the three
//! structural properties policies react to — prefix sharing, session
//! locality, and popularity skew.
//!
//! **E5 — the transaction-throughput ladder.** Dittrich's quip that *"the
//! best (database) minds of my generation are thinking about how to
//! increase transaction throughput from one gazillion TAs/sec to 2
//! gazillion"*, measured: one key-value store under a ladder of engines, so
//! the gain of each classic optimization shows in isolation.
//!
//! 1. [`serial::SerialEngine`] — one global lock, the 1970s baseline;
//! 2. [`twopl::TwoPlEngine`] — strict two-phase locking on striped locks;
//! 3. [`mvcc::MvccEngine`] — multi-version snapshot isolation
//!    (first-committer-wins write-conflict detection);
//! 4. any engine + [`backbone_txn::wal::Wal`] group commit — amortized fsync.
//!
//! [`harness`] drives them with a contended multi-threaded workload.

pub mod cache;
pub mod error;
pub mod eviction;
pub mod harness;
pub mod mvcc;
pub mod ops;
pub mod pinning;
pub mod serial;
pub mod sim;
pub mod trace;
pub mod twopl;

pub use error::TxnError;
pub use harness::{run_workload, WorkloadConfig, WorkloadReport};
pub use mvcc::MvccEngine;
pub use ops::{KvEngine, TxnOp};
pub use pinning::{hottest_keys, PinnedPolicy};
pub use serial::SerialEngine;
pub use sim::{evaluate_policies, evaluate_policies_observed, CostModel, PolicyResult};
pub use trace::{generate_db_scan_trace, generate_llm_trace, LlmTraceConfig, Trace};
pub use twopl::TwoPlEngine;
