//! The unified error type of the `backbone` facade.
//!
//! Every [`crate::Database`] method returns [`Error`]. Lower-layer failures
//! ([`QueryError`], [`StorageError`]) convert in via `From`, so facade code
//! uses `?` freely, and the original error stays reachable through
//! [`std::error::Error::source`] — callers never lose the root cause.

use backbone_query::QueryError;
use backbone_storage::StorageError;
use backbone_txn::wal::WalError;
use std::fmt;

/// Any failure surfaced by the `backbone` facade.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// Planning, optimization, or execution failed in the query layer.
    Query(QueryError),
    /// The storage layer failed outside of any query.
    Storage(StorageError),
    /// The write-ahead log failed; the operation is not durable.
    Wal(WalError),
    /// A facade call referenced a table that does not exist.
    TableNotFound(String),
    /// `create_table` with a name that is already registered.
    TableExists(String),
    /// An index build supplied a different number of entries (documents or
    /// vectors) than the table has rows; ordinal alignment would be broken.
    IndexCardinality {
        /// The table the index was built for.
        table: String,
        /// Rows currently in the table.
        rows: usize,
        /// Entries supplied to the index build.
        entries: usize,
    },
    /// A query vector's dimensionality does not match the table's vector
    /// index. Typed (instead of the kernels' debug assertion) so a bad
    /// query in a release build is an error, not silently scored garbage.
    DimensionMismatch {
        /// Dimensionality of the index.
        expected: usize,
        /// Length of the offending vector.
        got: usize,
    },
    /// A search needs an index that has not been built.
    IndexMissing {
        /// The table searched.
        table: String,
        /// Which index family is missing (`"text"` or `"vector"`).
        kind: &'static str,
    },
    /// Malformed input to a facade ingestion or search call (CSV parsing,
    /// inconsistent hybrid spec, ...).
    InvalidInput(String),
    /// Admission control rejected the request: every session slot is busy
    /// and the bounded wait queue is full. Typed (instead of a hang or a
    /// dropped connection) so callers can back off and retry.
    Overloaded {
        /// Sessions currently being served.
        active: usize,
        /// Capacity of the wait queue that was full.
        queue: usize,
    },
    /// The engine panicked while serving one request. The request failed;
    /// the server caught the panic, so the session and its worker survive.
    Internal(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Query(e) => write!(f, "query error: {e}"),
            Error::Storage(e) => write!(f, "storage error: {e}"),
            Error::Wal(e) => write!(f, "durability error: {e}"),
            Error::TableNotFound(t) => write!(f, "table not found: {t}"),
            Error::TableExists(t) => write!(f, "table already exists: {t}"),
            Error::IndexCardinality {
                table,
                rows,
                entries,
            } => write!(
                f,
                "index over '{table}' has {entries} entries but the table has {rows} rows"
            ),
            Error::DimensionMismatch { expected, got } => write!(
                f,
                "vector dimension mismatch: index has dimension {expected}, got {got}"
            ),
            Error::IndexMissing { table, kind } => {
                write!(f, "no {kind} index on '{table}'")
            }
            Error::InvalidInput(msg) => write!(f, "invalid input: {msg}"),
            Error::Overloaded { active, queue } => write!(
                f,
                "server overloaded: {active} sessions active, wait queue of {queue} full"
            ),
            Error::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Query(e) => Some(e),
            Error::Storage(e) => Some(e),
            Error::Wal(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WalError> for Error {
    fn from(e: WalError) -> Self {
        Error::Wal(e)
    }
}

impl From<QueryError> for Error {
    fn from(e: QueryError) -> Self {
        Error::Query(e)
    }
}

impl From<StorageError> for Error {
    fn from(e: StorageError) -> Self {
        Error::Storage(e)
    }
}

impl From<backbone_vector::DimensionMismatch> for Error {
    fn from(e: backbone_vector::DimensionMismatch) -> Self {
        Error::DimensionMismatch {
            expected: e.expected,
            got: e.got,
        }
    }
}

/// Convenience alias used across the facade crate.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn wraps_preserve_source_context() {
        let q: Error = QueryError::TableNotFound("ghost".into()).into();
        let src = q.source().expect("query source preserved");
        assert_eq!(src.to_string(), "table not found: ghost");

        let s: Error = StorageError::SchemaMismatch("3 != 2".into()).into();
        assert!(s
            .source()
            .expect("storage source")
            .to_string()
            .contains("3 != 2"));

        // Two layers down: a storage error that travelled through the query
        // layer is still reachable by walking the source chain.
        let nested: Error = QueryError::Storage(StorageError::SchemaMismatch("deep".into())).into();
        let mid = nested.source().expect("query layer");
        let root = mid.source().expect("storage layer");
        assert!(root.to_string().contains("deep"));
    }

    #[test]
    fn display_is_specific() {
        let e = Error::IndexCardinality {
            table: "t".into(),
            rows: 3,
            entries: 2,
        };
        assert_eq!(
            e.to_string(),
            "index over 't' has 2 entries but the table has 3 rows"
        );
        let e = Error::IndexMissing {
            table: "t".into(),
            kind: "vector",
        };
        assert_eq!(e.to_string(), "no vector index on 't'");
    }
}
