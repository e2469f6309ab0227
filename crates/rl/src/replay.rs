//! Replay buffer — stage 1 of the paper's two-stage training stores
//! "potentially good actions" (feature transformations the FPE model judged
//! positive) here, and stage 2 replays them against the real downstream
//! task (Algorithm 2, lines 7 and 16).

use serde::{Deserialize, Serialize};

/// A bounded FIFO replay buffer with priority eviction: when full, the entry
/// with the *lowest* priority is evicted first, so the most promising
/// transformations survive stage 1.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplayBuffer<T> {
    capacity: usize,
    entries: Vec<(f64, T)>,
}

impl<T> ReplayBuffer<T> {
    /// New buffer holding at most `capacity` entries (min 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            entries: Vec::new(),
        }
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Maximum size.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The stored items, in insertion order.
    pub fn items(&self) -> impl Iterator<Item = &T> {
        self.entries.iter().map(|(_, item)| item)
    }

    /// Insert with a priority (e.g. the FPE positive-class probability).
    /// When full, the lowest-priority entry is evicted — which may be the
    /// incoming one.
    pub fn push(&mut self, priority: f64, item: T) {
        if self.entries.len() < self.capacity {
            self.entries.push((priority, item));
            return;
        }
        // Find current minimum.
        let (min_idx, min_p) = self
            .entries
            .iter()
            .enumerate()
            .map(|(i, (p, _))| (i, *p))
            .fold(
                (0, f64::INFINITY),
                |acc, cur| {
                    if cur.1 < acc.1 {
                        cur
                    } else {
                        acc
                    }
                },
            );
        if priority > min_p {
            self.entries[min_idx] = (priority, item);
        }
    }

    /// Drain all entries, highest priority first.
    pub fn drain_by_priority(&mut self) -> Vec<(f64, T)> {
        let mut out = std::mem::take(&mut self.entries);
        out.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
        out
    }

    /// Remove everything.
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
impl<T> ReplayBuffer<T> {
    /// Iterate entries from highest to lowest priority.
    pub(crate) fn iter_by_priority(&self) -> impl Iterator<Item = (f64, &T)> {
        let mut order: Vec<usize> = (0..self.entries.len()).collect();
        order.sort_by(|&a, &b| {
            self.entries[b]
                .0
                .partial_cmp(&self.entries[a].0)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        order
            .into_iter()
            .map(|i| (self.entries[i].0, &self.entries[i].1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_len() {
        let mut b = ReplayBuffer::new(3);
        assert!(b.is_empty());
        b.push(0.5, "a");
        b.push(0.9, "b");
        assert_eq!(b.len(), 2);
        assert_eq!(b.capacity(), 3);
        assert_eq!(b.items().copied().collect::<Vec<_>>(), vec!["a", "b"]);
    }

    #[test]
    fn eviction_drops_lowest_priority() {
        let mut b = ReplayBuffer::new(2);
        b.push(0.1, "low");
        b.push(0.9, "high");
        b.push(0.5, "mid"); // evicts "low"
        let items: Vec<&str> = b.iter_by_priority().map(|(_, &s)| s).collect();
        assert_eq!(items, vec!["high", "mid"]);
    }

    #[test]
    fn incoming_lower_than_all_is_rejected() {
        let mut b = ReplayBuffer::new(2);
        b.push(0.8, "a");
        b.push(0.9, "b");
        b.push(0.1, "c"); // worse than everything already stored
        let items: Vec<&str> = b.iter_by_priority().map(|(_, &s)| s).collect();
        assert_eq!(items, vec!["b", "a"]);
    }

    #[test]
    fn drain_sorts_descending() {
        let mut b = ReplayBuffer::new(5);
        for (p, v) in [(0.3, 3), (0.9, 9), (0.1, 1), (0.7, 7)] {
            b.push(p, v);
        }
        let drained: Vec<i32> = b.drain_by_priority().into_iter().map(|(_, v)| v).collect();
        assert_eq!(drained, vec![9, 7, 3, 1]);
        assert!(b.is_empty());
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let mut b = ReplayBuffer::new(0);
        b.push(1.0, "x");
        assert_eq!(b.len(), 1);
        b.push(2.0, "y");
        assert_eq!(b.len(), 1);
        assert_eq!(b.iter_by_priority().next().unwrap().1, &"y");
    }

    #[test]
    fn clear_empties() {
        let mut b = ReplayBuffer::new(2);
        b.push(0.5, 1);
        b.clear();
        assert!(b.is_empty());
    }
}
