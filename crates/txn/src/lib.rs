//! # backbone-txn
//!
//! The transaction substrate `Database` runs on:
//!
//! - [`wal`]: the write-ahead log. It appends length-prefixed,
//!   CRC-32-checksummed records to a pluggable [`wal::LogDevice`] (in-memory
//!   for benchmarks, a real file for persistence), batches fsyncs under
//!   group commit, and [`wal::Wal::replay`] recovers a torn or corrupt tail
//!   by truncating at the last valid record instead of panicking;
//! - [`snapshot`]: the epoch clock. Commits reserve and publish epochs,
//!   readers pin a [`SnapshotGuard`] and see a stable committed prefix
//!   without blocking a writer;
//! - [`fault`]: [`fault::FaultFile`], a deterministic crash-injecting log
//!   device for recovery tests.

pub mod fault;
pub mod snapshot;
pub mod wal;

pub use fault::{FaultFile, FaultKind, FaultPlan};
pub use snapshot::{EpochClock, SnapshotGuard};
pub use wal::{
    FileDevice, FsyncPolicy, LogDevice, MemDevice, Replay, Wal, WalConfig, WalError, WalRecord,
};
