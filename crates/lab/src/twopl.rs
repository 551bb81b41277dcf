//! Strict two-phase locking over striped locks.

use crate::error::TxnError;
use crate::ops::{KvEngine, TxnOp};
use crate::serial::{apply_ops, encode_record};
use backbone_txn::wal::Wal;
use parking_lot::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::collections::HashMap;
use std::sync::Arc;

/// Number of lock stripes (power of two).
const STRIPES: usize = 256;

/// Strict 2PL engine: keys hash to lock stripes; a transaction takes every
/// stripe it touches (write stripes exclusively) *in stripe order*, which
/// makes deadlock impossible, runs, then releases — rung 2 of the E5 ladder.
pub struct TwoPlEngine {
    locks: Vec<RwLock<()>>,
    /// The data itself is sharded to match the stripes, so a stripe lock
    /// protects its shard.
    shards: Vec<Mutex<HashMap<u64, u64>>>,
    wal: Option<Arc<Wal>>,
}

enum StripeGuard<'a> {
    Read(#[allow(dead_code)] RwLockReadGuard<'a, ()>),
    Write(#[allow(dead_code)] RwLockWriteGuard<'a, ()>),
}

fn stripe_of(key: u64) -> usize {
    // Multiplicative hash; stripes are a power of two.
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as usize & (STRIPES - 1)
}

impl TwoPlEngine {
    /// An empty engine, optionally durable via `wal`.
    pub fn new(wal: Option<Arc<Wal>>) -> TwoPlEngine {
        TwoPlEngine {
            locks: (0..STRIPES).map(|_| RwLock::new(())).collect(),
            shards: (0..STRIPES).map(|_| Mutex::new(HashMap::new())).collect(),
            wal,
        }
    }

    /// Bulk-load initial state without locking or logging.
    pub fn load(&self, pairs: impl IntoIterator<Item = (u64, u64)>) {
        for (k, v) in pairs {
            self.shards[stripe_of(k)].lock().insert(k, v);
        }
    }
}

impl KvEngine for TwoPlEngine {
    fn name(&self) -> &'static str {
        "2PL"
    }

    fn execute(&self, ops: &[TxnOp]) -> Result<Vec<Option<u64>>, TxnError> {
        // Growing phase: collect stripes with the strongest mode needed and
        // lock in ascending stripe order (deadlock freedom by ordering).
        let mut modes: HashMap<usize, bool> = HashMap::new(); // stripe -> needs write
        for op in ops {
            let e = modes.entry(stripe_of(op.key())).or_insert(false);
            *e |= op.is_write();
        }
        let mut stripes: Vec<(usize, bool)> = modes.into_iter().collect();
        stripes.sort_unstable();
        let _guards: Vec<StripeGuard> = stripes
            .iter()
            .map(|&(s, write)| {
                if write {
                    StripeGuard::Write(self.locks[s].write())
                } else {
                    StripeGuard::Read(self.locks[s].read())
                }
            })
            .collect();

        // Execute against a merged view of the touched shards. A
        // transaction touches few keys, so copy-in/copy-out on just those
        // keys is cheap.
        let keys: Vec<u64> = ops.iter().map(|o| o.key()).collect();
        let mut view: HashMap<u64, u64> = HashMap::with_capacity(keys.len());
        for &k in &keys {
            if let Some(v) = self.shards[stripe_of(k)].lock().get(&k) {
                view.insert(k, *v);
            }
        }
        let before = view.clone();
        let result = apply_ops(&mut view, ops)?;
        for (k, v) in &view {
            if before.get(k) != Some(v) {
                self.shards[stripe_of(*k)].lock().insert(*k, *v);
            }
        }
        if let Some(wal) = &self.wal {
            if ops.iter().any(|o| o.is_write()) {
                wal.commit(&encode_record(ops))?;
            }
        }
        // Shrinking phase: guards drop here, after the commit record is
        // durable (strict 2PL).
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::execute_with_retry;

    #[test]
    fn basic_transactions() {
        let e = TwoPlEngine::new(None);
        e.execute(&[TxnOp::Write(1, 100), TxnOp::Write(2, 200)])
            .unwrap();
        let r = e.execute(&[TxnOp::Read(1), TxnOp::Read(2)]).unwrap();
        assert_eq!(r, vec![Some(100), Some(200)]);
    }

    #[test]
    fn concurrent_transfers_preserve_total() {
        // The classic bank test: concurrent transfers between 8 accounts
        // must conserve the total balance.
        let e = Arc::new(TwoPlEngine::new(None));
        e.load((0..8).map(|k| (k, 1000u64)));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let e = e.clone();
                std::thread::spawn(move || {
                    for i in 0..500u64 {
                        let from = (t + i) % 8;
                        let to = (t + i + 1) % 8;
                        let ops = [TxnOp::Add(from, -1), TxnOp::Add(to, 1)];
                        let (res, _) = execute_with_retry(e.as_ref(), &ops);
                        // ConstraintViolation possible if an account empties.
                        let _ = res;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let total: u64 = (0..8).map(|k| e.read(k).unwrap_or(0)).sum();
        assert_eq!(total, 8000);
    }

    #[test]
    fn cross_stripe_transactions_are_atomic() {
        let e = Arc::new(TwoPlEngine::new(None));
        e.load([(1, 0), (1_000_003, 0)]);
        let writer = {
            let e = e.clone();
            std::thread::spawn(move || {
                for _ in 0..1000 {
                    e.execute(&[TxnOp::Add(1, 1), TxnOp::Add(1_000_003, 1)])
                        .unwrap();
                }
            })
        };
        let reader = {
            let e = e.clone();
            std::thread::spawn(move || {
                for _ in 0..1000 {
                    let r = e
                        .execute(&[TxnOp::Read(1), TxnOp::Read(1_000_003)])
                        .unwrap();
                    let a = r[0].unwrap_or(0);
                    let b = r[1].unwrap_or(0);
                    assert_eq!(a, b, "reader saw a torn transaction");
                }
            })
        };
        writer.join().unwrap();
        reader.join().unwrap();
    }

    #[test]
    fn no_deadlock_on_opposite_orders() {
        // Two threads writing the same pair of keys in opposite op orders
        // must not deadlock (ordered stripe acquisition).
        let e = Arc::new(TwoPlEngine::new(None));
        let a = {
            let e = e.clone();
            std::thread::spawn(move || {
                for _ in 0..2000 {
                    e.execute(&[TxnOp::Add(10, 1), TxnOp::Add(20, 1)]).unwrap();
                }
            })
        };
        let b = {
            let e = e.clone();
            std::thread::spawn(move || {
                for _ in 0..2000 {
                    e.execute(&[TxnOp::Add(20, 1), TxnOp::Add(10, 1)]).unwrap();
                }
            })
        };
        a.join().unwrap();
        b.join().unwrap();
        assert_eq!(e.read(10), Some(4000));
        assert_eq!(e.read(20), Some(4000));
    }
}
