//! Snapshot epochs: the clock every snapshot-isolated reader pins.
//!
//! [`EpochClock`] is the shared commit clock extracted from the MVCC engine
//! so that both worlds use one mechanism:
//!
//! - the E5 key-value MVCC engine (`backbone_lab::mvcc::MvccEngine`)
//!   allocates commit timestamps from it and consults its horizon for
//!   version GC;
//! - the relational facade (`backbone_core::Database`) stamps every insert
//!   with an epoch and lets queries pin a [`SnapshotGuard`] so scans read a
//!   stable prefix of each table without ever blocking a writer.
//!
//! The clock separates *reserved* epochs (handed to a committer inside its
//! critical section, so epoch order equals commit order) from the
//! *published* epoch (the newest epoch whose effects readers may observe).
//! A writer reserves early, does its durable work, and publishes last;
//! readers pin the published epoch, so an un-acknowledged commit is never
//! visible. Publication is a `fetch_max`, which makes out-of-order
//! acknowledgements safe: group commit acknowledges a whole batch of
//! reserved epochs at once, and whichever waiter wakes first publishes for
//! all of them (every epoch below a durable epoch is itself durable, because
//! reservation order equals log order).
//!
//! Active pins are refcounted per epoch; [`EpochClock::horizon`] is the
//! oldest epoch any live reader can still see, which bounds both MVCC
//! version GC and the relational commit-mark pruning.

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A monotonically increasing commit clock with snapshot refcounting.
#[derive(Debug, Default)]
pub struct EpochClock {
    /// Highest epoch handed to any committer (visible or not).
    reserved: AtomicU64,
    /// Highest epoch readers may observe.
    published: AtomicU64,
    /// Active snapshot refcounts, keyed by pinned epoch.
    active: Mutex<BTreeMap<u64, usize>>,
}

impl EpochClock {
    /// A clock at epoch 0 (everything loaded before the first commit is
    /// stamped 0 and visible to every snapshot).
    pub fn new() -> EpochClock {
        EpochClock::default()
    }

    /// The newest epoch readers may observe.
    pub fn published(&self) -> u64 {
        self.published.load(Ordering::SeqCst)
    }

    /// Reserve the next epoch for a commit in flight. Call inside the
    /// commit critical section so reservation order equals commit order.
    pub fn reserve(&self) -> u64 {
        self.reserved.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Make every epoch up to `epoch` visible to new snapshots. Safe to
    /// call out of ack order (`fetch_max`): see the module docs.
    pub fn publish(&self, epoch: u64) {
        self.published.fetch_max(epoch, Ordering::SeqCst);
    }

    /// Register a pin on `epoch` (no guard — the MVCC engine manages its
    /// own pin lifetime). Pair with [`EpochClock::release`].
    pub fn register(&self, epoch: u64) {
        *self.active.lock().entry(epoch).or_insert(0) += 1;
    }

    /// Atomically read the published epoch and register a pin on it,
    /// returning the pinned epoch. Pair with [`EpochClock::release`].
    ///
    /// This must be one critical section: with a separate read-then-register
    /// ([`EpochClock::published`] + [`EpochClock::register`]), a writer can
    /// publish newer epochs and compute [`EpochClock::horizon`] in the gap —
    /// the in-flight pin is invisible, the horizon advances past it, and
    /// commit-mark / version GC reclaims state the pin still needs (readers
    /// then see an impossible empty prefix). Taking the `active` lock around
    /// the read serializes pinning against `horizon()`: a concurrent horizon
    /// either sees this pin, or completes first — in which case this pin
    /// lands at or above the epoch that horizon returned.
    pub fn pin_epoch(&self) -> u64 {
        let mut active = self.active.lock();
        let epoch = self.published();
        *active.entry(epoch).or_insert(0) += 1;
        epoch
    }

    /// Release a pin taken with [`EpochClock::register`].
    pub fn release(&self, epoch: u64) {
        let mut active = self.active.lock();
        if let Some(n) = active.get_mut(&epoch) {
            *n -= 1;
            if *n == 0 {
                active.remove(&epoch);
            }
        }
    }

    /// Pin the currently published epoch behind an RAII guard. The read and
    /// the registration are atomic ([`EpochClock::pin_epoch`]), so pruning
    /// can never slip between them and reclaim the pinned epoch's state.
    pub fn pin(self: &Arc<EpochClock>) -> SnapshotGuard {
        let epoch = self.pin_epoch();
        SnapshotGuard {
            clock: self.clone(),
            epoch,
        }
    }

    /// Oldest epoch any live snapshot might still read at (the published
    /// epoch when nothing is pinned). Versions and commit marks strictly
    /// older than the newest mark at or below this horizon are dead.
    pub fn horizon(&self) -> u64 {
        self.active
            .lock()
            .keys()
            .next()
            .copied()
            .unwrap_or_else(|| self.published())
    }

    /// Number of distinct epochs currently pinned (diagnostics).
    pub fn active_epochs(&self) -> usize {
        self.active.lock().len()
    }
}

/// An RAII pin on a published epoch: while alive, the clock's horizon stays
/// at or below [`SnapshotGuard::epoch`], so state visible at that epoch is
/// never garbage-collected out from under the reader.
#[derive(Debug)]
pub struct SnapshotGuard {
    clock: Arc<EpochClock>,
    epoch: u64,
}

impl SnapshotGuard {
    /// The pinned epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

impl Drop for SnapshotGuard {
    fn drop(&mut self) {
        self.clock.release(self.epoch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_then_publish_orders_visibility() {
        let clock = EpochClock::new();
        let e1 = clock.reserve();
        let e2 = clock.reserve();
        assert_eq!((e1, e2), (1, 2));
        assert_eq!(clock.published(), 0, "reserved epochs are not visible");
        // Group commit acks out of order: the later epoch publishes first.
        clock.publish(e2);
        assert_eq!(clock.published(), 2);
        clock.publish(e1); // late ack must not move the clock backwards
        assert_eq!(clock.published(), 2);
    }

    #[test]
    fn pins_hold_the_horizon() {
        let clock = Arc::new(EpochClock::new());
        clock.publish(clock.reserve());
        let pin = clock.pin();
        assert_eq!(pin.epoch(), 1);
        for _ in 0..5 {
            clock.publish(clock.reserve());
        }
        assert_eq!(clock.published(), 6);
        assert_eq!(clock.horizon(), 1, "live pin bounds the horizon");
        drop(pin);
        assert_eq!(clock.horizon(), 6, "released pin frees the horizon");
        assert_eq!(clock.active_epochs(), 0);
    }

    #[test]
    fn pinning_is_atomic_against_horizon_pruning() {
        // Regression test: pin() must read `published` and register in one
        // critical section. A writer thread publishes epochs and prunes a
        // mark list by horizon() exactly like Table::record_commit; with a
        // non-atomic pin, the horizon can pass an in-flight pin and the
        // pruned list strands it (no mark at or below the pinned epoch).
        let clock = Arc::new(EpochClock::new());
        clock.publish(clock.reserve());
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let marks = Arc::new(Mutex::new(vec![(1u64, 1usize)]));

        let writer = {
            let (clock, stop, marks) = (clock.clone(), stop.clone(), marks.clone());
            std::thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    let epoch = clock.reserve();
                    clock.publish(epoch);
                    let mut marks = marks.lock();
                    marks.push((epoch, epoch as usize));
                    let horizon = clock.horizon();
                    if let Some(base) = marks.iter().rposition(|(e, _)| *e <= horizon) {
                        marks.drain(..base);
                    }
                }
            })
        };

        for _ in 0..2000 {
            let pin = clock.pin();
            let visible = marks
                .lock()
                .iter()
                .rev()
                .find(|(e, _)| *e <= pin.epoch())
                .map(|(_, rows)| *rows);
            assert!(
                visible.is_some(),
                "pin at epoch {} stranded below every retained mark",
                pin.epoch()
            );
        }
        stop.store(true, Ordering::SeqCst);
        writer.join().unwrap();
    }

    #[test]
    fn nested_pins_refcount() {
        let clock = Arc::new(EpochClock::new());
        clock.publish(clock.reserve());
        let a = clock.pin();
        let b = clock.pin();
        assert_eq!(a.epoch(), b.epoch());
        drop(a);
        assert_eq!(clock.horizon(), 1, "second pin still holds epoch 1");
        drop(b);
        assert_eq!(clock.horizon(), 1, "horizon = published with no pins");
    }
}
