//! First-in first-out replacement.

use super::Policy;
use std::collections::VecDeque;

/// FIFO: evicts the key resident longest, regardless of accesses.
#[derive(Debug, Default)]
pub struct Fifo {
    queue: VecDeque<u64>,
}

impl Fifo {
    /// An empty FIFO policy.
    pub fn new() -> Fifo {
        Fifo::default()
    }
}

impl Policy for Fifo {
    fn name(&self) -> &'static str {
        "FIFO"
    }

    fn on_access(&mut self, _key: u64) {
        // FIFO ignores accesses by definition.
    }

    fn on_insert(&mut self, key: u64) {
        self.queue.push_back(key);
    }

    fn evict(&mut self) -> Option<u64> {
        self.queue.pop_front()
    }

    fn on_remove(&mut self, key: u64) {
        if let Some(pos) = self.queue.iter().position(|&k| k == key) {
            self.queue.remove(pos);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_in_insertion_order() {
        let mut p = Fifo::new();
        p.on_insert(10);
        p.on_insert(20);
        p.on_insert(30);
        // Access does not change FIFO order.
        p.on_access(10);
        assert_eq!(p.evict(), Some(10));
        assert_eq!(p.evict(), Some(20));
        assert_eq!(p.evict(), Some(30));
    }
}
