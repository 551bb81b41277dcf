//! # backbone-storage
//!
//! Columnar storage substrate for the `backbone` data engine.
//!
//! The crate provides the physical layer that the paper's "logical/physical
//! independence" principle separates from the declarative query layer:
//!
//! - [`types`]: scalar values and data types,
//! - [`column`](mod@column): typed, nullable column vectors,
//! - [`schema`]: field and schema descriptors,
//! - [`batch`]: record batches (the unit of vectorized execution),
//! - [`table`]: row-grouped tables with zone-map pruning statistics,
//! - [`compress`]: lightweight column encodings (RLE, dictionary,
//!   frame-of-reference lanes),
//! - [`page`] / [`disk`]: fixed-size pages read from an immutable file,
//! - [`bufferpool`]: a read-only LRU cache of those pages,
//! - [`pager`]: byte-range reads over a page file served through the pool
//!   (how checkpoint row groups stream without whole-file materialization),
//! - [`codec`] / [`checkpoint`]: checksummed byte encodings and atomic
//!   table snapshots for the durability subsystem,
//! - [`metrics`]: the engine-wide [`metrics::Metrics`] counter registry that
//!   the buffer pool, query operators, and the `Database` facade all record
//!   into.

pub mod batch;
pub mod bufferpool;
pub mod checkpoint;
pub mod codec;
pub mod column;
pub mod compress;
pub mod disk;
pub mod error;
pub mod metrics;
pub mod page;
pub mod pager;
pub mod schema;
pub mod table;
pub mod types;

pub use batch::RecordBatch;
pub use column::{Bitmap, Column};
pub use error::StorageError;
pub use metrics::{Counter, Metrics};
pub use pager::PagedFile;
pub use schema::{Field, Schema};
pub use table::{RowGroup, Table};
pub use types::{DataType, Value};
