//! Error types for the storage layer.

use std::fmt;

/// Errors raised by the storage layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// A type mismatch between a column and a requested operation.
    TypeMismatch {
        /// What the caller expected.
        expected: String,
        /// What was actually found.
        found: String,
    },
    /// A schema mismatch (wrong arity, wrong field type, unknown column).
    SchemaMismatch(String),
    /// A column or field name that does not exist.
    ColumnNotFound(String),
    /// An out-of-bounds row or page index.
    OutOfBounds {
        /// The offending index.
        index: usize,
        /// The container length.
        len: usize,
    },
    /// A page id past the end of the file.
    PageNotFound(u64),
    /// Corrupt or undecodable encoded data.
    Corrupt(String),
    /// An operating-system I/O failure (message retains the source error).
    Io(String),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::TypeMismatch { expected, found } => {
                write!(f, "type mismatch: expected {expected}, found {found}")
            }
            StorageError::SchemaMismatch(msg) => write!(f, "schema mismatch: {msg}"),
            StorageError::ColumnNotFound(name) => write!(f, "column not found: {name}"),
            StorageError::OutOfBounds { index, len } => {
                write!(f, "index {index} out of bounds for length {len}")
            }
            StorageError::PageNotFound(id) => write!(f, "page {id} not found"),
            StorageError::Corrupt(msg) => write!(f, "corrupt data: {msg}"),
            StorageError::Io(msg) => write!(f, "i/o error: {msg}"),
        }
    }
}

impl std::error::Error for StorageError {}

/// Convenience alias used across the storage crate.
pub type Result<T> = std::result::Result<T, StorageError>;
