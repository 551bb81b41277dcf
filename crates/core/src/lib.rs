//! # backbone
//!
//! A unified embedded data engine executing **relational**, **vector**, and
//! **keyword** workloads under one declarative API.
//!
//! The SIGMOD 2025 panel this library reproduces (*"Where Does Academic
//! Database Research Go From Here?"*, Wu & Castro Fernandez) is a position
//! paper: it ships arguments, not code. `backbone` is the executable reading
//! of those arguments — every quantified claim in the panel text is built
//! and measured (see DESIGN.md and EXPERIMENTS.md):
//!
//! - the community's lasting principles — *declarativeness*,
//!   *logical/physical independence*, *automatic scalability* — live in
//!   [`backbone_query`];
//! - the "data backbone" for mixed workloads ("solutions are crappy when you
//!   combine diverse workloads like vectors, keywords, and relational
//!   queries") is [`hybrid`]; the bolt-on composition it replaces is the
//!   bench crate's measured baseline;
//! - substrates: [`backbone_storage`] (columns, compression, buffering),
//!   [`backbone_vector`], [`backbone_text`], [`backbone_txn`],
//!   `backbone_kvcache`.
//!
//! ## Quickstart
//!
//! ```
//! use backbone_core::Database;
//! use backbone_query::{col, lit, count_star};
//! use backbone_storage::{DataType, Field, Schema, Value};
//!
//! let db = Database::new();
//! db.create_table(
//!     "fruit",
//!     Schema::new(vec![
//!         Field::new("name", DataType::Utf8),
//!         Field::new("kg", DataType::Float64),
//!     ]),
//! ).unwrap();
//! db.insert("fruit", vec![
//!     vec![Value::str("apple"), Value::Float(2.0)],
//!     vec![Value::str("pear"), Value::Float(0.5)],
//! ]).unwrap();
//!
//! let plan = db.query("fruit").unwrap()
//!     .filter(col("kg").gt(lit(1.0)))
//!     .aggregate(vec![], vec![count_star().alias("n")]);
//! let out = db.execute(plan).unwrap();
//! assert_eq!(out.row(0)[0], Value::Int(1));
//! ```

//!
//! ## Observability
//!
//! Every [`Database`] owns a shared [`Metrics`] registry:
//! `db.sql("EXPLAIN ANALYZE SELECT ...")` (or [`Database::explain_analyze`])
//! runs the plan instrumented and renders per-operator rows-in/rows-out and
//! elapsed time, while operator totals (`op.*`), hybrid-search stage timings
//! (`hybrid.*`), and — when storage is wired to the same registry —
//! buffer-pool traffic (`bufferpool.*`) accumulate as counters readable via
//! [`Database::metrics`].
//!
//! ## Durability
//!
//! [`Database::open`] gives a directory-backed database: every
//! `create_table`/`insert` is WAL-logged (checksummed, file-backed, group
//! commit) before it is acknowledged, checkpoints snapshot tables and
//! truncate the log, and reopening replays checkpoint + log tail (see
//! [`durability`] and `DESIGN.md` § Durability & recovery). Per-caller
//! execution state lives in [`Session`]s (`db.session()`), and hybrid
//! queries are assembled with the [`SearchRequest`] builder
//! (`db.search("t").keyword("...").vector(v).k(5).run()`).

pub(crate) mod cache;
pub mod csv;
pub mod database;
pub mod durability;
pub mod error;
pub mod hybrid;
pub mod index;
pub mod session;

pub use database::Database;
pub use durability::{DbOp, DurabilityOptions, RecoveryReport};
pub use error::{Error, Result};
pub use hybrid::{
    FilterStrategy, FusionWeights, HybridHit, HybridProfile, HybridSpec, SearchResponse,
};
pub use index::VectorIndexSpec;
pub use session::{PreparedInfo, SearchRequest, Session};

// Durability policy knob, re-exported so `Database::open_with` callers
// don't need a direct `backbone_txn` dependency.
pub use backbone_txn::wal::FsyncPolicy;

// The engine-wide counter registry type (defined in `backbone_storage`,
// shared by every layer).
pub use backbone_query::Metrics;
// The typed parallelism knob consumed by `Session::with_parallelism`.
pub use backbone_query::Parallelism;
