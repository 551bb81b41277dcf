//! Cache replacement policies.
//!
//! Every policy implements [`Policy`] over opaque `u64` keys, so one
//! [`crate::cache::CacheSim`] replays page traces and LLM KV-cache traces
//! alike (experiment E4 — the paper's observation that "the key-value cache
//! of LLMs and its connection to buffering" is classic database territory).

mod arc;
mod belady;
mod clock;
mod fifo;
mod lfu;
mod lru;
mod lruk;
mod twoq;

pub use arc::Arc;
pub use belady::Belady;
pub use clock::Clock;
pub use fifo::Fifo;
pub use lfu::Lfu;
pub use lru::Lru;
pub use lruk::LruK;
pub use twoq::TwoQ;

/// A cache replacement policy over opaque `u64` keys.
///
/// The policy tracks metadata only; residency is owned by the caller (the
/// simulator), which guarantees the invariants: `on_insert` is called
/// at most once per resident key, `on_access` only for resident keys, and
/// every key returned by `evict` is removed before being re-inserted.
pub trait Policy: Send {
    /// Human-readable policy name (stable, used in experiment output).
    fn name(&self) -> &'static str;

    /// A resident key was accessed (cache hit).
    fn on_access(&mut self, key: u64);

    /// A key became resident (cache miss, after any eviction).
    fn on_insert(&mut self, key: u64);

    /// Choose a victim among resident keys; `None` when nothing is resident.
    ///
    /// The policy must forget the returned key (no separate `on_remove`).
    fn evict(&mut self) -> Option<u64>;

    /// A key was removed without eviction (e.g. explicit invalidation).
    fn on_remove(&mut self, key: u64);
}

/// Which replacement policy to build — the experiment sweep axis for E4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// First-in first-out.
    Fifo,
    /// Least recently used.
    Lru,
    /// LRU-K with K=2 (O'Neil et al.): evicts by 2nd-most-recent access.
    LruK,
    /// Second-chance clock.
    Clock,
    /// Least frequently used (LRU tie-break).
    Lfu,
    /// Simplified 2Q (Johnson & Shasha): probationary FIFO + protected LRU.
    TwoQ,
    /// ARC (Megiddo & Modha): adaptive recency/frequency balance.
    Arc,
    /// Belady's offline optimum (requires the future trace).
    Belady,
}

impl PolicyKind {
    /// All online policies (everything except the Belady oracle).
    pub fn online() -> &'static [PolicyKind] {
        &[
            PolicyKind::Fifo,
            PolicyKind::Lru,
            PolicyKind::LruK,
            PolicyKind::Clock,
            PolicyKind::Lfu,
            PolicyKind::TwoQ,
            PolicyKind::Arc,
        ]
    }

    /// Stable display name.
    pub fn name(&self) -> &'static str {
        match self {
            PolicyKind::Fifo => "FIFO",
            PolicyKind::Lru => "LRU",
            PolicyKind::LruK => "LRU-2",
            PolicyKind::Clock => "CLOCK",
            PolicyKind::Lfu => "LFU",
            PolicyKind::TwoQ => "2Q",
            PolicyKind::Arc => "ARC",
            PolicyKind::Belady => "BELADY",
        }
    }

    /// Build a policy instance.
    ///
    /// `capacity` sizes internal queues (2Q). `future` supplies the full
    /// access trace for [`PolicyKind::Belady`]; online policies ignore it.
    /// Building `Belady` without a future trace panics: the oracle is
    /// meaningless online.
    pub fn build(&self, capacity: usize, future: Option<&[u64]>) -> Box<dyn Policy> {
        match self {
            PolicyKind::Fifo => Box::new(Fifo::new()),
            PolicyKind::Lru => Box::new(Lru::new()),
            PolicyKind::LruK => Box::new(LruK::new(2)),
            PolicyKind::Clock => Box::new(Clock::new()),
            PolicyKind::Lfu => Box::new(Lfu::new()),
            PolicyKind::TwoQ => Box::new(TwoQ::new(capacity)),
            PolicyKind::Arc => Box::new(Arc::new(capacity)),
            PolicyKind::Belady => Box::new(Belady::new(
                future.expect("Belady requires the future access trace"),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Generic conformance check each policy must satisfy: after inserting
    /// keys 1..=3 and evicting three times, each key is returned exactly
    /// once.
    fn check_conformance(mut p: Box<dyn Policy>) {
        for k in 1..=3 {
            p.on_insert(k);
        }
        let mut got = vec![p.evict().unwrap(), p.evict().unwrap(), p.evict().unwrap()];
        got.sort_unstable();
        assert_eq!(got, vec![1, 2, 3]);
        assert!(p.evict().is_none());
    }

    #[test]
    fn all_policies_conform() {
        for kind in PolicyKind::online() {
            check_conformance(kind.build(8, None));
        }
        // Belady with a trivial future.
        check_conformance(PolicyKind::Belady.build(8, Some(&[])));
    }

    #[test]
    fn on_remove_forgets_key() {
        for kind in PolicyKind::online() {
            let mut p = kind.build(8, None);
            p.on_insert(1);
            p.on_insert(2);
            p.on_remove(1);
            assert_eq!(p.evict(), Some(2), "policy {}", p.name());
            assert!(p.evict().is_none(), "policy {}", p.name());
        }
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(PolicyKind::Lru.build(1, None).name(), "LRU");
        assert_eq!(PolicyKind::TwoQ.name(), "2Q");
    }

    #[test]
    #[should_panic]
    fn belady_without_future_panics() {
        PolicyKind::Belady.build(4, None);
    }
}
