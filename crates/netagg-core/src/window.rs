//! A bounded recency window: a map that remembers only the `capacity`
//! most recently *first-inserted* keys.
//!
//! Recovery keeps three such memories — the chunks a worker may have to
//! replay, the output a box may have to resend to a new parent, and the
//! request ids the master already delivered — and each only ever needs
//! the recent past: a replay trails the failure it recovers from by at
//! most the in-flight window. One type bounds all three.

use std::collections::{HashMap, VecDeque};
use std::hash::Hash;

/// A map bounded to its `capacity` most recently first-inserted keys;
/// inserting a new key beyond that evicts the oldest.
#[derive(Debug, Clone)]
pub struct RecencyWindow<K, V> {
    map: HashMap<K, V>,
    order: VecDeque<K>,
    capacity: usize,
}

impl<K: Eq + Hash + Copy, V> RecencyWindow<K, V> {
    /// An empty window retaining at most `capacity` keys.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "a window must retain at least one key");
        Self {
            map: HashMap::new(),
            order: VecDeque::new(),
            capacity,
        }
    }

    /// The value under `key`, inserted as the default when absent (which
    /// evicts the oldest keys beyond the capacity).
    pub fn entry(&mut self, key: K) -> &mut V
    where
        V: Default,
    {
        if !self.map.contains_key(&key) {
            self.order.push_back(key);
            while self.order.len() > self.capacity {
                if let Some(old) = self.order.pop_front() {
                    self.map.remove(&old);
                }
            }
        }
        self.map.entry(key).or_default()
    }

    /// The retained value under `key`.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.map.get(key)
    }

    /// Whether `key` is still retained.
    pub fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    /// Forget `key` ahead of its eviction.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let v = self.map.remove(key)?;
        self.order.retain(|k| k != key);
        Some(v)
    }

    /// Retained entries, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.order
            .iter()
            .filter_map(|k| self.map.get(k).map(|v| (k, v)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_oldest_first_inserted_key_and_keeps_appending_to_live_ones() {
        let mut w: RecencyWindow<u32, Vec<u8>> = RecencyWindow::new(2);
        w.entry(1).push(10);
        w.entry(2).push(20);
        w.entry(1).push(11); // touching a live key does not refresh it
        w.entry(3).push(30);
        assert!(!w.contains(&1), "oldest first-inserted key is evicted");
        assert_eq!(w.get(&2), Some(&vec![20]));
        let order: Vec<u32> = w.iter().map(|(k, _)| *k).collect();
        assert_eq!(order, vec![2, 3]);
        assert_eq!(w.remove(&2), Some(vec![20]));
        assert_eq!(w.iter().count(), 1);
    }
}
