//! The serial baseline: one global lock.

use crate::error::TxnError;
use crate::ops::{KvEngine, TxnOp};
use backbone_txn::wal::Wal;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// A single-lock engine: every transaction serializes on one mutex. Trivially
/// serializable and trivially unscalable — rung 1 of the E5 ladder.
pub struct SerialEngine {
    store: Mutex<HashMap<u64, u64>>,
    wal: Option<Arc<Wal>>,
}

impl SerialEngine {
    /// An empty engine, optionally durable via `wal`.
    pub fn new(wal: Option<Arc<Wal>>) -> SerialEngine {
        SerialEngine {
            store: Mutex::new(HashMap::new()),
            wal,
        }
    }

    /// Bulk-load initial state without logging.
    pub fn load(&self, pairs: impl IntoIterator<Item = (u64, u64)>) {
        let mut st = self.store.lock();
        st.extend(pairs);
    }
}

/// Apply ops to a map, returning read results; used by serial and 2PL which
/// operate on locked in-place state.
pub(crate) fn apply_ops(
    store: &mut HashMap<u64, u64>,
    ops: &[TxnOp],
) -> Result<Vec<Option<u64>>, TxnError> {
    // Sequential evaluation against a scratch overlay; the store is only
    // mutated after every op validated, so an abort leaves no effects.
    let mut scratch: HashMap<u64, u64> = HashMap::new();
    let mut reads = Vec::new();
    let current = |scratch: &HashMap<u64, u64>, k: &u64| -> Option<u64> {
        scratch.get(k).copied().or_else(|| store.get(k).copied())
    };
    for op in ops {
        match op {
            TxnOp::Read(k) => reads.push(current(&scratch, k)),
            TxnOp::Write(k, v) => {
                scratch.insert(*k, *v);
            }
            TxnOp::Add(k, delta) => {
                let cur = current(&scratch, k).unwrap_or(0) as i128;
                let next = cur + *delta as i128;
                if next < 0 || next > u64::MAX as i128 {
                    return Err(TxnError::ConstraintViolation);
                }
                scratch.insert(*k, next as u64);
            }
        }
    }
    for (k, v) in scratch {
        store.insert(k, v);
    }
    Ok(reads)
}

/// Encode a transaction's write effects as a WAL record.
pub(crate) fn encode_record(ops: &[TxnOp]) -> Vec<u8> {
    let mut out = Vec::with_capacity(ops.len() * 17);
    for op in ops {
        match op {
            TxnOp::Read(_) => {}
            TxnOp::Write(k, v) => {
                out.push(b'W');
                out.extend_from_slice(&k.to_le_bytes());
                out.extend_from_slice(&v.to_le_bytes());
            }
            TxnOp::Add(k, d) => {
                out.push(b'A');
                out.extend_from_slice(&k.to_le_bytes());
                out.extend_from_slice(&d.to_le_bytes());
            }
        }
    }
    out
}

impl KvEngine for SerialEngine {
    fn name(&self) -> &'static str {
        "serial"
    }

    fn execute(&self, ops: &[TxnOp]) -> Result<Vec<Option<u64>>, TxnError> {
        let mut st = self.store.lock();
        let result = apply_ops(&mut st, ops)?;
        // Log before releasing the lock: commit order == log order.
        if let Some(wal) = &self.wal {
            if ops.iter().any(|o| o.is_write()) {
                wal.commit(&encode_record(ops))?;
            }
        }
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_add() {
        let e = SerialEngine::new(None);
        e.execute(&[TxnOp::Write(1, 10)]).unwrap();
        let r = e
            .execute(&[TxnOp::Add(1, 5), TxnOp::Read(1), TxnOp::Read(2)])
            .unwrap();
        assert_eq!(r, vec![Some(15), None]);
    }

    #[test]
    fn add_on_missing_key_starts_at_zero() {
        let e = SerialEngine::new(None);
        let r = e.execute(&[TxnOp::Add(9, 3), TxnOp::Read(9)]).unwrap();
        assert_eq!(r, vec![Some(3)]);
    }

    #[test]
    fn constraint_violation_aborts_whole_txn() {
        let e = SerialEngine::new(None);
        e.execute(&[TxnOp::Write(1, 5)]).unwrap();
        let err = e
            .execute(&[TxnOp::Add(1, 100), TxnOp::Add(2, -1)])
            .unwrap_err();
        assert_eq!(err, TxnError::ConstraintViolation);
        // First Add must not have been applied.
        assert_eq!(e.read(1), Some(5));
        assert_eq!(e.read(2), None);
    }

    #[test]
    fn read_your_own_writes() {
        let e = SerialEngine::new(None);
        let r = e
            .execute(&[
                TxnOp::Write(1, 7),
                TxnOp::Read(1),
                TxnOp::Add(1, 1),
                TxnOp::Read(1),
            ])
            .unwrap();
        assert_eq!(r, vec![Some(7), Some(8)]);
    }
}
