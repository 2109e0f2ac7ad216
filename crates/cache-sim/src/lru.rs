//! A capacity-bounded LRU map built on an intrusive doubly-linked list over
//! a slab.
//!
//! This single structure backs two users:
//! * the per-thread *cache states* of the paper's FS model (stack-distance
//!   analysis simulating a fully-associative LRU cache, §III-C),
//! * each set of the set-associative caches in the MESI simulator.

use std::collections::HashMap;
use std::hash::Hash;

const NIL: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Node<K, V> {
    key: K,
    value: V,
    prev: u32,
    next: u32,
}

/// Slab slots are `Option` so removal can move the entry out safely; a
/// `None` slot is always on the free list.
type Slot<K, V> = Option<Node<K, V>>;

/// An LRU map holding at most `capacity` entries. All operations are O(1)
/// expected.
#[derive(Debug, Clone)]
pub struct LruCache<K, V> {
    capacity: usize,
    map: HashMap<K, u32>,
    slab: Vec<Slot<K, V>>,
    free: Vec<u32>,
    head: u32, // most recently used
    tail: u32, // least recently used
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "LRU capacity must be positive");
        LruCache {
            capacity,
            map: HashMap::with_capacity(capacity.min(1 << 20)),
            slab: Vec::with_capacity(capacity.min(1 << 20)),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    pub fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    /// Read a value without touching recency.
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.map.get(key).map(|&i| {
            &self.slab[i as usize]
                .as_ref()
                .expect("mapped slot is live")
                .value
        })
    }

    fn node(&self, idx: u32) -> &Node<K, V> {
        self.slab[idx as usize]
            .as_ref()
            .expect("linked slot is live")
    }

    fn node_mut(&mut self, idx: u32) -> &mut Node<K, V> {
        self.slab[idx as usize]
            .as_mut()
            .expect("linked slot is live")
    }

    fn detach(&mut self, idx: u32) {
        let (prev, next) = {
            let n = self.node(idx);
            (n.prev, n.next)
        };
        if prev != NIL {
            self.node_mut(prev).next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.node_mut(next).prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, idx: u32) {
        let old_head = self.head;
        {
            let n = self.node_mut(idx);
            n.prev = NIL;
            n.next = old_head;
        }
        if old_head != NIL {
            self.node_mut(old_head).prev = idx;
        } else {
            self.tail = idx;
        }
        self.head = idx;
    }

    /// Touch `key`, making it most-recently-used. Returns a mutable
    /// reference to its value, or `None` if absent.
    pub fn touch(&mut self, key: &K) -> Option<&mut V> {
        let &idx = self.map.get(key)?;
        if self.head != idx {
            self.detach(idx);
            self.push_front(idx);
        }
        Some(&mut self.node_mut(idx).value)
    }

    /// Insert (or overwrite) `key`, making it most-recently-used. If the
    /// cache was full and `key` was absent, the least-recently-used entry is
    /// evicted and returned.
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        if let Some(&idx) = self.map.get(&key) {
            self.node_mut(idx).value = value;
            if self.head != idx {
                self.detach(idx);
                self.push_front(idx);
            }
            return None;
        }
        let mut evicted = None;
        if self.map.len() == self.capacity {
            evicted = self.pop_lru();
        }
        let node = Node {
            key: key.clone(),
            value,
            prev: NIL,
            next: NIL,
        };
        let idx = if let Some(i) = self.free.pop() {
            debug_assert!(self.slab[i as usize].is_none());
            self.slab[i as usize] = Some(node);
            i
        } else {
            self.slab.push(Some(node));
            (self.slab.len() - 1) as u32
        };
        self.map.insert(key, idx);
        self.push_front(idx);
        evicted
    }

    /// Remove and return the least-recently-used entry.
    pub fn pop_lru(&mut self) -> Option<(K, V)> {
        let idx = self.tail;
        if idx == NIL {
            return None;
        }
        self.detach(idx);
        let node = self.slab[idx as usize].take().expect("linked slot is live");
        self.free.push(idx);
        self.map.remove(&node.key);
        Some((node.key, node.value))
    }

    /// Remove a specific key.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let idx = self.map.remove(key)?;
        self.detach(idx);
        let node = self.slab[idx as usize].take().expect("linked slot is live");
        self.free.push(idx);
        Some(node.value)
    }
}

#[derive(Debug, Clone)]
struct DenseNode<V> {
    key: u32,
    set: u32,
    prev: u32,
    next: u32,
    value: V,
}

/// The absent slot of a [`DenseSetLru`]: zero, so that a fresh index is a
/// zeroed allocation (slot 0 holds no entry).
const SLOT_NIL: u32 = 0;

/// A set-associative LRU over *dense* `u32` keys: the `HashMap` of
/// [`LruCache`] is replaced by one flat `Vec<u32>` index shared by all
/// sets, so lookup/touch/insert are plain array loads. Built for the FS
/// model's per-thread cache states, where cache lines are interned to
/// contiguous ids and every probe of the hot loop would otherwise pay a
/// SipHash.
///
/// The caller assigns each key to a set (the FS model computes the set
/// from the *original* line number, not the dense id); a resident key
/// remembers its set, so only [`DenseSetLru::insert`] takes one.
#[derive(Debug, Clone)]
pub struct DenseSetLru<V> {
    ways: usize,
    /// key -> slab slot (`SLOT_NIL` when absent). Grown by [`Self::ensure_key`].
    /// All-zero when fresh, so the allocator hands out untouched zero pages
    /// and a large index costs memory only where keys are touched.
    index: Vec<u32>,
    nodes: Vec<DenseNode<V>>,
    free: Vec<u32>,
    /// Per-set intrusive-list heads (MRU), tails (LRU) and lengths.
    heads: Vec<u32>,
    tails: Vec<u32>,
    lens: Vec<u32>,
}

impl<V: Default> DenseSetLru<V> {
    /// `num_sets` sets of `ways` entries each; the index initially covers
    /// keys `0..key_capacity` and grows on demand via [`Self::ensure_key`].
    ///
    /// # Panics
    /// Panics if `num_sets == 0` or `ways == 0`.
    pub fn new(num_sets: usize, ways: usize, key_capacity: usize) -> Self {
        assert!(num_sets > 0, "need at least one set");
        assert!(ways > 0, "LRU capacity must be positive");
        DenseSetLru {
            ways,
            index: vec![SLOT_NIL; key_capacity],
            // Slot 0 is `SLOT_NIL`: a placeholder that is never linked.
            nodes: vec![DenseNode {
                key: 0,
                set: 0,
                prev: SLOT_NIL,
                next: SLOT_NIL,
                value: V::default(),
            }],
            free: Vec::new(),
            heads: vec![SLOT_NIL; num_sets],
            tails: vec![SLOT_NIL; num_sets],
            lens: vec![0; num_sets],
        }
    }

    pub fn num_sets(&self) -> usize {
        self.heads.len()
    }

    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Grow the key index so `key` is addressable.
    #[inline]
    pub fn ensure_key(&mut self, key: u32) {
        if key as usize >= self.index.len() {
            self.index.resize(key as usize + 1, SLOT_NIL);
        }
    }

    /// Read a resident key's value without touching recency. Keys beyond
    /// the index are simply absent.
    #[inline]
    pub fn peek(&self, key: u32) -> Option<&V> {
        match self.index.get(key as usize) {
            Some(&slot) if slot != SLOT_NIL => Some(&self.nodes[slot as usize].value),
            _ => None,
        }
    }

    fn detach(&mut self, slot: u32) {
        let (set, prev, next) = {
            let n = &self.nodes[slot as usize];
            (n.set as usize, n.prev, n.next)
        };
        if prev != SLOT_NIL {
            self.nodes[prev as usize].next = next;
        } else {
            self.heads[set] = next;
        }
        if next != SLOT_NIL {
            self.nodes[next as usize].prev = prev;
        } else {
            self.tails[set] = prev;
        }
    }

    fn push_front(&mut self, slot: u32, set: usize) {
        let old_head = self.heads[set];
        {
            let n = &mut self.nodes[slot as usize];
            n.prev = SLOT_NIL;
            n.next = old_head;
        }
        if old_head != SLOT_NIL {
            self.nodes[old_head as usize].prev = slot;
        } else {
            self.tails[set] = slot;
        }
        self.heads[set] = slot;
    }

    /// Touch `key`, making it most-recently-used within its set. Returns a
    /// mutable reference to its value, or `None` if absent.
    #[inline]
    pub fn touch(&mut self, key: u32) -> Option<&mut V> {
        let slot = *self.index.get(key as usize)?;
        if slot == SLOT_NIL {
            return None;
        }
        let set = self.nodes[slot as usize].set as usize;
        if self.heads[set] != slot {
            self.detach(slot);
            self.push_front(slot, set);
        }
        Some(&mut self.nodes[slot as usize].value)
    }

    /// Insert `key` into `set`, making it that set's MRU. If the set was
    /// full and `key` absent, the set's LRU entry is evicted and returned.
    /// A resident `key` is overwritten and moved to front (no eviction),
    /// matching [`LruCache::insert`].
    pub fn insert(&mut self, set: usize, key: u32, value: V) -> Option<(u32, V)> {
        self.ensure_key(key);
        let slot = self.index[key as usize];
        if slot != SLOT_NIL {
            debug_assert_eq!(self.nodes[slot as usize].set as usize, set);
            self.nodes[slot as usize].value = value;
            if self.heads[set] != slot {
                self.detach(slot);
                self.push_front(slot, set);
            }
            return None;
        }
        let mut evicted = None;
        if self.lens[set] as usize == self.ways {
            let victim = self.tails[set];
            self.detach(victim);
            let n = &mut self.nodes[victim as usize];
            self.index[n.key as usize] = SLOT_NIL;
            evicted = Some((n.key, std::mem::take(&mut n.value)));
            self.free.push(victim);
            self.lens[set] -= 1;
        }
        let node = DenseNode {
            key,
            set: set as u32,
            prev: SLOT_NIL,
            next: SLOT_NIL,
            value,
        };
        let slot = if let Some(s) = self.free.pop() {
            self.nodes[s as usize] = node;
            s
        } else {
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        };
        self.index[key as usize] = slot;
        self.push_front(slot, set);
        self.lens[set] += 1;
        evicted
    }

    /// Remove a specific key, returning its value — the dense counterpart
    /// of [`LruCache::remove`] (the MESI simulator invalidates lines on
    /// upgrades and inclusive evictions).
    pub fn remove(&mut self, key: u32) -> Option<V> {
        let slot = *self.index.get(key as usize)?;
        if slot == SLOT_NIL {
            return None;
        }
        self.detach(slot);
        let set = self.nodes[slot as usize].set as usize;
        self.index[key as usize] = SLOT_NIL;
        self.free.push(slot);
        self.lens[set] -= 1;
        Some(std::mem::take(&mut self.nodes[slot as usize].value))
    }

    /// Number of keys resident in `set`.
    pub fn set_len(&self, set: usize) -> usize {
        self.lens[set] as usize
    }

    /// `(key, value)` pairs resident in `set`, from most- to
    /// least-recently used.
    pub fn iter_set_mru(&self, set: usize) -> impl Iterator<Item = (u32, &V)> + '_ {
        let mut cur = self.heads[set];
        std::iter::from_fn(move || {
            if cur == SLOT_NIL {
                return None;
            }
            let n = &self.nodes[cur as usize];
            cur = n.next;
            Some((n.key, &n.value))
        })
    }

    /// Copy the recency lists into `lists`, reusing its buffers, with each
    /// value replaced by `tag(key, value)`. One sequential pass over the
    /// entries, with no list walking: a cheap snapshot of the state to
    /// compare a later state against.
    pub fn copy_lists<T>(&self, lists: &mut DenseSetLists<T>, tag: impl Fn(u32, &V) -> T) {
        lists.nodes.clear();
        lists.nodes.extend(self.nodes.iter().map(|n| ListNode {
            key: n.key,
            next: n.next,
            value: tag(n.key, &n.value),
        }));
        lists.heads.clone_from(&self.heads);
        lists.lens.clone_from(&self.lens);
    }

    /// Rebuild the index under new key names: every resident key `k`
    /// becomes `rename(k)`, keeping its set, value and recency. Returns
    /// false, with the cache untouched, when `rename` rejects any resident
    /// key. The renamed keys must be distinct.
    pub fn rename_keys(&mut self, mut rename: impl FnMut(u32) -> Option<u32>) -> bool {
        let mut moves: Vec<(u32, u32)> = Vec::new();
        for set in 0..self.num_sets() {
            let mut cur = self.heads[set];
            while cur != SLOT_NIL {
                let n = &self.nodes[cur as usize];
                let Some(key) = rename(n.key) else {
                    return false;
                };
                moves.push((cur, key));
                cur = n.next;
            }
        }
        for &(slot, _) in &moves {
            self.index[self.nodes[slot as usize].key as usize] = SLOT_NIL;
        }
        for (slot, key) in moves {
            self.ensure_key(key);
            assert_eq!(self.index[key as usize], SLOT_NIL, "renamed keys collide");
            self.index[key as usize] = slot;
            self.nodes[slot as usize].key = key;
        }
        true
    }
}

/// One entry of a [`DenseSetLists`].
#[derive(Debug, Clone)]
struct ListNode<T> {
    key: u32,
    next: u32,
    value: T,
}

/// The recency lists of a [`DenseSetLru`] without its key index, as
/// copied by [`DenseSetLru::copy_lists`].
#[derive(Debug, Clone)]
pub struct DenseSetLists<V> {
    nodes: Vec<ListNode<V>>,
    heads: Vec<u32>,
    lens: Vec<u32>,
}

impl<V> Default for DenseSetLists<V> {
    fn default() -> Self {
        DenseSetLists {
            nodes: Vec::new(),
            heads: Vec::new(),
            lens: Vec::new(),
        }
    }
}

impl<V> DenseSetLists<V> {
    /// Number of keys that were resident in `set`.
    pub fn set_len(&self, set: usize) -> usize {
        self.lens[set] as usize
    }

    /// `(key, value)` pairs that were resident in `set`, MRU first.
    pub fn iter_set_mru(&self, set: usize) -> impl Iterator<Item = (u32, &V)> + '_ {
        let mut cur = self.heads[set];
        std::iter::from_fn(move || {
            if cur == SLOT_NIL {
                return None;
            }
            let n = &self.nodes[cur as usize];
            cur = n.next;
            Some((n.key, &n.value))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_touch_evict_order() {
        let mut c: LruCache<u32, u32> = LruCache::new(3);
        assert!(c.insert(1, 10).is_none());
        assert!(c.insert(2, 20).is_none());
        assert!(c.insert(3, 30).is_none());
        assert_eq!(c.len(), 3);
        // touch 1 -> LRU is now 2
        assert_eq!(c.touch(&1), Some(&mut 10));
        let ev = c.insert(4, 40).unwrap();
        assert_eq!(ev, (2, 20));
        assert!(c.contains(&1) && c.contains(&3) && c.contains(&4));
    }

    #[test]
    fn reinsert_updates_value_without_evicting() {
        let mut c: LruCache<u32, u32> = LruCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        assert!(c.insert(1, 11).is_none());
        assert_eq!(c.peek(&1), Some(&11));
        assert_eq!(c.len(), 2);
        // 2 is now LRU
        let ev = c.insert(3, 30).unwrap();
        assert_eq!(ev.0, 2);
    }

    #[test]
    fn remove_and_reuse_slots() {
        let mut c: LruCache<u32, String> = LruCache::new(2);
        c.insert(1, "a".into());
        c.insert(2, "b".into());
        assert_eq!(c.remove(&1), Some("a".into()));
        assert_eq!(c.len(), 1);
        assert!(c.insert(3, "c".into()).is_none());
        assert!(c.insert(4, "d".into()).is_some());
        assert_eq!(c.remove(&9), None);
    }

    #[test]
    fn pop_lru_empties_cache() {
        let mut c: LruCache<u32, u32> = LruCache::new(2);
        assert!(c.pop_lru().is_none());
        c.insert(1, 10);
        c.insert(2, 20);
        assert_eq!(c.pop_lru(), Some((1, 10)));
        assert_eq!(c.pop_lru(), Some((2, 20)));
        assert!(c.is_empty());
    }

    #[test]
    fn heavy_churn_is_consistent() {
        let mut c: LruCache<u64, u64> = LruCache::new(16);
        for i in 0..10_000u64 {
            c.insert(i % 37, i);
            if i % 3 == 0 {
                c.touch(&(i % 7));
            }
            if i % 11 == 0 {
                c.remove(&(i % 5));
            }
            assert!(c.len() <= 16);
        }
        // Every key reachable through the map must be reachable via the list.
        let len = c.len();
        assert_eq!(std::iter::from_fn(|| c.pop_lru()).count(), len);
        assert!(c.is_empty());
    }

    #[test]
    fn dense_insert_touch_evict_order() {
        let mut c: DenseSetLru<u32> = DenseSetLru::new(1, 3, 8);
        assert!(c.insert(0, 1, 10).is_none());
        assert!(c.insert(0, 2, 20).is_none());
        assert!(c.insert(0, 3, 30).is_none());
        assert_eq!(c.touch(1), Some(&mut 10));
        let ev = c.insert(0, 4, 40).unwrap();
        assert_eq!(ev, (2, 20));
        assert_eq!(c.peek(1), Some(&10));
        assert_eq!(c.peek(2), None);
        assert_eq!(c.peek(3), Some(&30));
        assert_eq!(c.peek(4), Some(&40));
    }

    #[test]
    fn dense_reinsert_updates_without_evicting() {
        let mut c: DenseSetLru<u32> = DenseSetLru::new(1, 2, 4);
        c.insert(0, 1, 10);
        c.insert(0, 2, 20);
        assert!(c.insert(0, 1, 11).is_none());
        assert_eq!(c.peek(1), Some(&11));
        let ev = c.insert(0, 3, 30).unwrap();
        assert_eq!(ev.0, 2);
    }

    #[test]
    fn dense_sets_are_independent_and_index_grows() {
        let mut c: DenseSetLru<u32> = DenseSetLru::new(2, 1, 0);
        // Keys beyond the initial (empty) index are absent, not a panic.
        assert_eq!(c.peek(500), None);
        assert!(c.touch(500).is_none());
        assert!(c.insert(0, 500, 1).is_none());
        assert!(c.insert(1, 501, 2).is_none(), "other set has room");
        let ev = c.insert(0, 502, 3).unwrap();
        assert_eq!(ev, (500, 1), "eviction stays within the set");
        assert_eq!(c.peek(501), Some(&2));
    }

    /// The dense LRU must be operation-for-operation identical to an
    /// [`LruCache`] per set (the FS model's equivalence between its
    /// reference and optimized paths rests on this).
    #[test]
    fn dense_matches_lru_cache_under_churn() {
        const SETS: usize = 3;
        const WAYS: usize = 4;
        let mut dense: DenseSetLru<u64> = DenseSetLru::new(SETS, WAYS, 0);
        let mut refs: Vec<LruCache<u32, u64>> = (0..SETS).map(|_| LruCache::new(WAYS)).collect();
        // Deterministic xorshift stream of (op, key) pairs.
        let mut x = 0x9e3779b97f4a7c15u64;
        for i in 0..20_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = (x % 64) as u32;
            let set = (key as usize) % SETS;
            match x >> 62 {
                0 => {
                    assert_eq!(dense.peek(key), refs[set].peek(&key), "peek {key} @ {i}");
                }
                1 => {
                    assert_eq!(dense.touch(key), refs[set].touch(&key), "touch {key} @ {i}");
                }
                2 => {
                    assert_eq!(
                        dense.remove(key),
                        refs[set].remove(&key),
                        "remove {key} @ {i}"
                    );
                }
                _ => {
                    let ev_d = dense.insert(set, key, i);
                    let ev_r = refs[set].insert(key, i);
                    assert_eq!(ev_d, ev_r, "insert {key} @ {i}");
                }
            }
        }
        for key in 0..64u32 {
            assert_eq!(dense.peek(key), refs[(key as usize) % SETS].peek(&key));
        }
    }

    #[test]
    fn dense_set_iteration_and_key_renaming_keep_recency() {
        let mut c: DenseSetLru<u32> = DenseSetLru::new(2, 3, 0);
        for key in [0u32, 2, 4, 1, 3] {
            c.insert(key as usize % 2, key, key * 10);
        }
        c.touch(0);
        let set0: Vec<(u32, u32)> = c.iter_set_mru(0).map(|(k, &v)| (k, v)).collect();
        assert_eq!(set0, vec![(0, 0), (4, 40), (2, 20)]);
        assert_eq!(c.set_len(1), 2);

        // A copy keeps the lists as they were, tagged by key.
        let mut copy = DenseSetLists::default();
        c.copy_lists(&mut copy, |k, &v| (v, k + 100));
        c.touch(2);
        let copied: Vec<(u32, (u32, u32))> = copy.iter_set_mru(0).map(|(k, &v)| (k, v)).collect();
        assert_eq!(copied, vec![(0, (0, 100)), (4, (40, 104)), (2, (20, 102))]);
        assert_eq!(copy.set_len(1), 2);

        // A rejected key leaves the cache untouched.
        assert!(!c.rename_keys(|k| (k != 3).then_some(k + 10)));
        assert_eq!(c.peek(3), Some(&30));

        // Overlapping old and new names (2 -> 4 while 4 -> 6) are fine.
        assert!(c.rename_keys(|k| Some(k + 2)));
        let set0: Vec<(u32, u32)> = c.iter_set_mru(0).map(|(k, &v)| (k, v)).collect();
        assert_eq!(set0, vec![(4, 20), (2, 0), (6, 40)]);
        assert_eq!(c.peek(0), None);
        assert_eq!(c.peek(5), Some(&30));
        // Recency survives: set 0's LRU (old key 4, now 6) is evicted next.
        assert_eq!(c.insert(0, 8, 80), Some((6, 40)));
    }
}
