//! Transaction errors.

use backbone_txn::wal::WalError;
use std::fmt;

/// Errors surfaced by transaction engines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxnError {
    /// A write-write conflict under snapshot isolation; the caller should
    /// retry the transaction.
    Conflict,
    /// An `Add` underflowed below zero (domain constraint used by the bank
    /// workload).
    ConstraintViolation,
    /// The write-ahead log failed; the commit is not durable and must not
    /// be acknowledged.
    Wal(WalError),
}

impl fmt::Display for TxnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TxnError::Conflict => write!(f, "write-write conflict; retry"),
            TxnError::ConstraintViolation => write!(f, "constraint violation"),
            TxnError::Wal(e) => write!(f, "commit not durable: {e}"),
        }
    }
}

impl std::error::Error for TxnError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TxnError::Wal(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WalError> for TxnError {
    fn from(e: WalError) -> TxnError {
        TxnError::Wal(e)
    }
}
