//! Least-recently-used bookkeeping under a byte bound, shared by the
//! daemon's two memory-resident stores: the dataset table
//! ([`crate::datasets`]) and the server's kept `result` lines.
//!
//! Each entry carries the cost its owner charges for it and the tick of its
//! last lookup or insert. An insert that takes the sum of costs past the
//! bound evicts the least recently used other entries until it fits again;
//! a value that alone exceeds the bound is not kept and evicts nothing. One
//! lock covers lookup and insert and nothing else, so no caller ever does
//! I/O or encoding under it.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Mutex;

use crate::manager::plock;

/// See the module docs.
pub(crate) struct Lru<K, V> {
    bound: usize,
    entries: Mutex<Entries<K, V>>,
}

struct Entries<K, V> {
    /// Key → (value, its cost, tick of its last lookup or insert).
    by_key: HashMap<K, (V, usize, u64)>,
    /// Sum of the entries' costs; never above the bound.
    retained: usize,
    clock: u64,
}

impl<K: Hash + Eq + Clone, V: Clone> Lru<K, V> {
    /// An empty store whose entries may cost `bound` in total.
    pub(crate) fn new(bound: usize) -> Lru<K, V> {
        Lru {
            bound,
            entries: Mutex::new(Entries {
                by_key: HashMap::new(),
                retained: 0,
                clock: 0,
            }),
        }
    }

    /// The bound the entries' costs sum to at most.
    pub(crate) fn bound(&self) -> usize {
        self.bound
    }

    /// The value under `key`, now the most recently used.
    pub(crate) fn get<Q>(&self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let mut entries = plock(&self.entries);
        entries.clock += 1;
        let now = entries.clock;
        let (value, _, used) = entries.by_key.get_mut(key)?;
        *used = now;
        Some(value.clone())
    }

    /// Keep `value` under `key` at `cost`, replacing the key's old entry and
    /// evicting the least recently used others until the store is back
    /// within its bound. The new entry is the newest, so it is never the one
    /// evicted; a `cost` above the bound is not kept at all.
    pub(crate) fn insert(&self, key: K, value: V, cost: usize) {
        if cost > self.bound {
            return;
        }
        let mut entries = plock(&self.entries);
        entries.clock += 1;
        let now = entries.clock;
        if let Some((_, old, _)) = entries.by_key.insert(key, (value, cost, now)) {
            entries.retained -= old;
        }
        entries.retained += cost;
        while entries.retained > self.bound {
            let oldest = entries
                .by_key
                .iter()
                .min_by_key(|(_, (_, _, used))| *used)
                .map(|(key, _)| key.clone());
            let Some((_, old, _)) = oldest.and_then(|key| entries.by_key.remove(&key)) else {
                break;
            };
            entries.retained -= old;
        }
    }
}

#[cfg(test)]
impl<K: Clone + Ord, V> Lru<K, V> {
    /// Sum of the kept entries' costs.
    pub(crate) fn retained(&self) -> usize {
        plock(&self.entries).retained
    }

    /// The kept keys, sorted.
    pub(crate) fn keys(&self) -> Vec<K> {
        let mut keys: Vec<K> = plock(&self.entries).by_key.keys().cloned().collect();
        keys.sort();
        keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used_and_refuses_what_cannot_fit() {
        let lru: Lru<u64, &str> = Lru::new(10);
        lru.insert(1, "a", 4);
        lru.insert(2, "b", 4);
        // Touch 1, so 2 is the least recently used when 3 arrives.
        assert_eq!(lru.get(&1), Some("a"));
        lru.insert(3, "c", 4);
        assert_eq!((lru.keys(), lru.retained()), (vec![1, 3], 8));
        assert_eq!(lru.get(&2), None);
        // Replacing a key recharges it rather than adding to it.
        lru.insert(3, "c2", 6);
        assert_eq!((lru.keys(), lru.retained()), (vec![1, 3], 10));
        // Too costly to keep: nothing is inserted and nothing is evicted.
        lru.insert(4, "d", 11);
        assert_eq!((lru.keys(), lru.retained()), (vec![1, 3], 10));
        // Exactly the bound evicts everything else.
        lru.insert(5, "e", 10);
        assert_eq!((lru.keys(), lru.retained()), (vec![5], 10));
    }
}
