//! Least-recently-used bookkeeping under a bound, shared by the daemon's
//! memory-resident stores: the dataset table ([`crate::datasets`]), the
//! server's kept `result` lines, and the manager's finished payloads and
//! terminal job records ([`crate::manager`]).
//!
//! Each entry carries the cost its owner charges for it (bytes, or 1 per
//! record) and the tick of its last lookup or insert. An insert that takes
//! the sum of costs past the bound evicts the least recently used other
//! entries until it fits again. A value that alone exceeds the bound is not
//! kept and evicts nothing — unless the store keeps its newest entry
//! ([`Lru::keeping_newest`]), which then evicts every other entry and keeps
//! that one alone. One lock covers lookup, insert and removal and nothing
//! else, so no caller ever does I/O or encoding under it.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Mutex;

use crate::manager::plock;

/// See the module docs.
pub(crate) struct Lru<K, V> {
    bound: usize,
    /// Keep the newest entry even when it alone exceeds the bound.
    keep_newest: bool,
    entries: Mutex<Entries<K, V>>,
}

struct Entries<K, V> {
    /// Key → (value, its cost, tick of its last lookup or insert).
    by_key: HashMap<K, (V, usize, u64)>,
    /// Sum of the entries' costs; above the bound only while a store that
    /// keeps its newest entry holds that one entry alone.
    retained: usize,
    clock: u64,
}

impl<K: Hash + Eq + Clone, V: Clone> Lru<K, V> {
    /// An empty store whose entries may cost `bound` in total.
    pub(crate) fn new(bound: usize) -> Lru<K, V> {
        Lru {
            bound,
            keep_newest: false,
            entries: Mutex::new(Entries {
                by_key: HashMap::new(),
                retained: 0,
                clock: 0,
            }),
        }
    }

    /// An empty store like [`Lru::new`]'s that always keeps its newest
    /// entry: one costing more than `bound` evicts every other entry and is
    /// kept alone until the next insert.
    pub(crate) fn keeping_newest(bound: usize) -> Lru<K, V> {
        Lru {
            keep_newest: true,
            ..Lru::new(bound)
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
    /// within its bound; returns the evicted keys. The new entry is the
    /// newest, so it is never the one evicted; a `cost` above the bound is
    /// not kept at all, unless the store keeps its newest entry.
    pub(crate) fn insert(&self, key: K, value: V, cost: usize) -> Vec<K> {
        if cost > self.bound && !self.keep_newest {
            return Vec::new();
        }
        let mut entries = plock(&self.entries);
        entries.clock += 1;
        let now = entries.clock;
        if let Some((_, old, _)) = entries.by_key.insert(key, (value, cost, now)) {
            entries.retained -= old;
        }
        entries.retained += cost;
        let mut evicted = Vec::new();
        while entries.retained > self.bound && entries.by_key.len() > 1 {
            let oldest = entries
                .by_key
                .iter()
                .min_by_key(|(_, (_, _, used))| *used)
                .map(|(key, _)| key.clone());
            let Some(key) = oldest else { break };
            if let Some((_, old, _)) = entries.by_key.remove(&key) {
                entries.retained -= old;
            }
            evicted.push(key);
        }
        evicted
    }

    /// Drop the entry under `key`, if there is one.
    pub(crate) fn remove<Q>(&self, key: &Q)
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let mut entries = plock(&self.entries);
        if let Some((_, old, _)) = entries.by_key.remove(key) {
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
        // Exactly the bound evicts everything else, and says so.
        assert_eq!(lru.insert(5, "e", 10), vec![1, 3]);
        assert_eq!((lru.keys(), lru.retained()), (vec![5], 10));
        lru.remove(&5);
        assert_eq!((lru.keys(), lru.retained()), (vec![], 0));
    }

    #[test]
    fn a_store_that_keeps_its_newest_entry_keeps_an_oversize_one_alone() {
        let lru: Lru<u64, &str> = Lru::keeping_newest(10);
        lru.insert(1, "a", 4);
        lru.insert(2, "b", 4);
        // Larger than the whole bound: everything else goes, it stays.
        assert_eq!(lru.insert(3, "big", 25), vec![1, 2]);
        assert_eq!((lru.keys(), lru.retained()), (vec![3], 25));
        assert_eq!(lru.get(&3), Some("big"));
        // The next insert, of any size, evicts it like any older entry.
        assert_eq!(lru.insert(4, "d", 4), vec![3]);
        assert_eq!((lru.keys(), lru.retained()), (vec![4], 4));
        lru.insert(5, "e", 4);
        assert_eq!((lru.keys(), lru.retained()), (vec![4, 5], 8));
        // The rule belongs to this store alone: a plain one refuses it.
        let plain: Lru<u64, &str> = Lru::new(10);
        plain.insert(1, "a", 4);
        assert_eq!(plain.insert(3, "big", 25), Vec::<u64>::new());
        assert_eq!((plain.keys(), plain.retained()), (vec![1], 4));
    }
}
