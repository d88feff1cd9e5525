//! An order-statistic treap: the "self-balance binary search tree" (§IV-A)
//! backing each sorted list `H(c)` of the ESDIndex.
//!
//! Keys are `(score, edge)` pairs ordered by *rank*: higher score first,
//! ties by ascending edge — so an in-order prefix walk yields the top-k in
//! `O(k + log m)` (Theorem 5). Node priorities are a deterministic
//! `splitmix64` hash of the key, making tree shapes reproducible and
//! independent of insertion order (which also makes the parallel builder's
//! output byte-identical to the sequential one's). Being a function of the
//! key, a priority is recomputed where compared rather than stored, which
//! keeps an arena node at 24 bytes.

use crate::ScoredEdge;
use esd_graph::Edge;
use std::cmp::Ordering;

/// A ranked key: score-descending, then edge-ascending.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankKey {
    /// Structural diversity at this list's threshold.
    pub score: u32,
    /// The edge.
    pub edge: Edge,
}

impl Ord for RankKey {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .score
            .cmp(&self.score)
            .then_with(|| self.edge.cmp(&other.edge))
    }
}

impl PartialOrd for RankKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

pub(crate) const NIL: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub(crate) struct Node {
    pub(crate) key: RankKey,
    pub(crate) left: u32,
    pub(crate) right: u32,
    pub(crate) size: u32,
}

/// Deterministic node priority.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

pub(crate) fn priority_of(key: &RankKey) -> u64 {
    splitmix64(key.edge.key() ^ (u64::from(key.score) << 40) ^ 0xE5D1)
}

/// An order-statistic treap over [`RankKey`]s.
///
/// # Examples
///
/// ```
/// use esd_core::index::ostree::{RankKey, ScoreTreap};
/// use esd_graph::Edge;
///
/// let mut t = ScoreTreap::new();
/// t.insert(RankKey { score: 2, edge: Edge::new(0, 1) });
/// t.insert(RankKey { score: 5, edge: Edge::new(2, 3) });
/// let top = t.top_k(1);
/// assert_eq!(top[0].score, 5);
/// ```
#[derive(Debug, Clone)]
pub struct ScoreTreap {
    pub(crate) nodes: Vec<Node>,
    pub(crate) free: Vec<u32>,
    pub(crate) root: u32,
    pub(crate) len: usize,
}

impl ScoreTreap {
    /// An empty treap.
    pub fn new() -> Self {
        Self {
            nodes: Vec::new(),
            free: Vec::new(),
            root: NIL,
            len: 0,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Approximate heap footprint, for the Fig 6(a) size report.
    pub fn byte_size(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<Node>()
            + self.free.capacity() * std::mem::size_of::<u32>()
    }

    #[inline]
    fn size(&self, t: u32) -> u32 {
        if t == NIL {
            0
        } else {
            self.nodes[t as usize].size
        }
    }

    /// The priority of the node in slot `t`, a hash of its key.
    #[inline]
    fn prio(&self, t: u32) -> u64 {
        priority_of(&self.nodes[t as usize].key)
    }

    #[inline]
    fn pull(&mut self, t: u32) {
        let (l, r) = (self.nodes[t as usize].left, self.nodes[t as usize].right);
        self.nodes[t as usize].size = 1 + self.size(l) + self.size(r);
    }

    fn alloc(&mut self, key: RankKey) -> u32 {
        let node = Node {
            key,
            left: NIL,
            right: NIL,
            size: 1,
        };
        if let Some(idx) = self.free.pop() {
            self.nodes[idx as usize] = node;
            idx
        } else {
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        }
    }

    /// Merges two treaps where every key of `a` ranks before every key of `b`.
    fn merge(&mut self, a: u32, b: u32) -> u32 {
        if a == NIL {
            return b;
        }
        if b == NIL {
            return a;
        }
        if self.prio(a) >= self.prio(b) {
            let ar = self.nodes[a as usize].right;
            let merged = self.merge(ar, b);
            self.nodes[a as usize].right = merged;
            self.pull(a);
            a
        } else {
            let bl = self.nodes[b as usize].left;
            let merged = self.merge(a, bl);
            self.nodes[b as usize].left = merged;
            self.pull(b);
            b
        }
    }

    /// Splits into `(keys ranking before `key`, keys ranking at/after `key`)`.
    fn split(&mut self, t: u32, key: &RankKey) -> (u32, u32) {
        if t == NIL {
            return (NIL, NIL);
        }
        if self.nodes[t as usize].key.cmp(key) == Ordering::Less {
            let tr = self.nodes[t as usize].right;
            let (l, r) = self.split(tr, key);
            self.nodes[t as usize].right = l;
            self.pull(t);
            (t, r)
        } else {
            let tl = self.nodes[t as usize].left;
            let (l, r) = self.split(tl, key);
            self.nodes[t as usize].left = r;
            self.pull(t);
            (l, t)
        }
    }

    /// True when `key` is present.
    pub fn contains(&self, key: &RankKey) -> bool {
        let mut t = self.root;
        while t != NIL {
            match key.cmp(&self.nodes[t as usize].key) {
                Ordering::Less => t = self.nodes[t as usize].left,
                Ordering::Greater => t = self.nodes[t as usize].right,
                Ordering::Equal => return true,
            }
        }
        false
    }

    /// Builds a treap from keys already in rank order, in `O(n)` via the
    /// right-spine/stack cartesian-tree construction — the resulting tree is
    /// **identical** to inserting the keys one by one (shapes are a pure
    /// function of keys and their hashed priorities), but skips the
    /// `O(n log n)` comparison walks. Used by the static index builders,
    /// where the list fill dominates construction time.
    ///
    /// # Panics
    /// Panics if the keys are not strictly rank-ascending.
    pub fn from_sorted(keys: &[RankKey]) -> Self {
        assert!(
            keys.windows(2).all(|w| w[0].cmp(&w[1]) == Ordering::Less),
            "keys must be strictly rank-ascending"
        );
        let mut treap = Self {
            nodes: Vec::with_capacity(keys.len()),
            free: Vec::new(),
            root: NIL,
            len: keys.len(),
        };
        // Right spine of the tree built so far with its priorities, root
        // first.
        let mut spine: Vec<(u32, u64)> = Vec::new();
        for &key in keys {
            let node = treap.alloc(key);
            let prio = priority_of(&key);
            // Pop spine entries with smaller priority; the last popped
            // becomes the new node's left child.
            let mut last_popped = NIL;
            while let Some(&(top, top_prio)) = spine.last() {
                if top_prio < prio {
                    last_popped = top;
                    spine.pop();
                } else {
                    break;
                }
            }
            treap.nodes[node as usize].left = last_popped;
            match spine.last() {
                Some(&(parent, _)) => treap.nodes[parent as usize].right = node,
                None => treap.root = node,
            }
            spine.push((node, prio));
        }
        // Recompute subtree sizes bottom-up along the spine path: sizes were
        // left at 1; fix by a post-order pass over the whole tree (O(n)).
        if treap.root != NIL {
            treap.fix_sizes(treap.root);
        }
        #[cfg(any(test, feature = "strict-invariants"))]
        crate::audit::assert_clean("ScoreTreap (from_sorted)", &treap.validate());
        treap
    }

    /// Recomputes subtree sizes below `t` (post-order, iterative).
    fn fix_sizes(&mut self, t: u32) {
        let mut stack = vec![(t, false)];
        while let Some((node, expanded)) = stack.pop() {
            if expanded {
                self.pull(node);
            } else {
                stack.push((node, true));
                let (l, r) = (
                    self.nodes[node as usize].left,
                    self.nodes[node as usize].right,
                );
                if l != NIL {
                    stack.push((l, false));
                }
                if r != NIL {
                    stack.push((r, false));
                }
            }
        }
    }

    /// Inserts `key`; returns `false` if it was already present.
    pub fn insert(&mut self, key: RankKey) -> bool {
        if self.contains(&key) {
            return false;
        }
        let (l, r) = self.split(self.root, &key);
        let node = self.alloc(key);
        let lk = self.merge(l, node);
        self.root = self.merge(lk, r);
        self.len += 1;
        true
    }

    /// Removes `key`; returns `false` if absent.
    pub fn remove(&mut self, key: &RankKey) -> bool {
        if !self.contains(key) {
            return false;
        }
        self.root = self.remove_rec(self.root, key);
        self.len -= 1;
        true
    }

    fn remove_rec(&mut self, t: u32, key: &RankKey) -> u32 {
        debug_assert_ne!(t, NIL);
        match key.cmp(&self.nodes[t as usize].key) {
            Ordering::Less => {
                let tl = self.nodes[t as usize].left;
                let nl = self.remove_rec(tl, key);
                self.nodes[t as usize].left = nl;
                self.pull(t);
                t
            }
            Ordering::Greater => {
                let tr = self.nodes[t as usize].right;
                let nr = self.remove_rec(tr, key);
                self.nodes[t as usize].right = nr;
                self.pull(t);
                t
            }
            Ordering::Equal => {
                let (l, r) = (self.nodes[t as usize].left, self.nodes[t as usize].right);
                self.free.push(t);
                self.merge(l, r)
            }
        }
    }

    /// The top `k` entries in rank order, in `O(k + log m)`.
    pub fn top_k(&self, k: usize) -> Vec<ScoredEdge> {
        let mut out = Vec::with_capacity(k.min(self.len));
        let mut stack = Vec::new();
        let mut t = self.root;
        while out.len() < k && (t != NIL || !stack.is_empty()) {
            while t != NIL {
                stack.push(t);
                t = self.nodes[t as usize].left;
            }
            let Some(top) = stack.pop() else { break };
            let key = self.nodes[top as usize].key;
            out.push(ScoredEdge {
                edge: key.edge,
                score: key.score,
            });
            t = self.nodes[top as usize].right;
        }
        out
    }

    /// The entry at 0-based `rank` (rank 0 = best), in `O(log m)`.
    pub fn select(&self, rank: usize) -> Option<RankKey> {
        if rank >= self.len {
            return None;
        }
        let mut t = self.root;
        let mut rank = rank as u32;
        loop {
            let left = self.nodes[t as usize].left;
            let ls = self.size(left);
            match rank.cmp(&ls) {
                Ordering::Less => t = left,
                Ordering::Equal => return Some(self.nodes[t as usize].key),
                Ordering::Greater => {
                    rank -= ls + 1;
                    t = self.nodes[t as usize].right;
                }
            }
        }
    }

    /// 0-based rank of `key`, if present.
    pub fn rank(&self, key: &RankKey) -> Option<usize> {
        let mut t = self.root;
        let mut acc = 0usize;
        while t != NIL {
            let node = &self.nodes[t as usize];
            match key.cmp(&node.key) {
                Ordering::Less => t = node.left,
                Ordering::Equal => return Some(acc + self.size(node.left) as usize),
                Ordering::Greater => {
                    acc += self.size(node.left) as usize + 1;
                    t = node.right;
                }
            }
        }
        None
    }

    /// All entries in rank order.
    pub fn iter_ranked(&self) -> Vec<ScoredEdge> {
        self.top_k(self.len)
    }
}

/// The empty treap; a derived `Default` would set `root` to slot 0, not `NIL`.
impl Default for ScoreTreap {
    fn default() -> Self {
        Self::new()
    }
}

/// Content equality: the same keys, whatever arena slots hold them.
impl PartialEq for ScoreTreap {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter_ranked() == other.iter_ranked()
    }
}

impl Eq for ScoreTreap {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn key(score: u32, a: u32, b: u32) -> RankKey {
        RankKey {
            score,
            edge: Edge::new(a, b),
        }
    }

    #[test]
    fn rank_order_is_score_desc_edge_asc() {
        let mut t = ScoreTreap::new();
        t.insert(key(1, 0, 1));
        t.insert(key(3, 5, 6));
        t.insert(key(3, 0, 2));
        t.insert(key(2, 9, 10));
        let ranked = t.iter_ranked();
        let scores: Vec<u32> = ranked.iter().map(|s| s.score).collect();
        assert_eq!(scores, vec![3, 3, 2, 1]);
        assert_eq!(ranked[0].edge, Edge::new(0, 2), "ties by smaller edge");
    }

    #[test]
    fn duplicate_insert_rejected() {
        let mut t = ScoreTreap::new();
        assert!(t.insert(key(2, 1, 2)));
        assert!(!t.insert(key(2, 1, 2)));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn remove_and_reuse() {
        let mut t = ScoreTreap::new();
        for i in 0..10u32 {
            t.insert(key(i, i, i + 1));
        }
        assert!(t.remove(&key(5, 5, 6)));
        assert!(!t.remove(&key(5, 5, 6)));
        assert!(!t.contains(&key(5, 5, 6)));
        assert_eq!(t.len(), 9);
        // Freed slot is recycled.
        t.insert(key(99, 50, 51));
        assert_eq!(t.top_k(1)[0].score, 99);
    }

    #[test]
    fn select_and_rank_are_inverse() {
        let mut t = ScoreTreap::new();
        for i in 0..50u32 {
            t.insert(key(i % 7, i, i + 1));
        }
        for r in 0..t.len() {
            let k = t.select(r).unwrap();
            assert_eq!(t.rank(&k), Some(r));
        }
        assert_eq!(t.select(t.len()), None);
        assert_eq!(t.rank(&key(100, 0, 1)), None);
    }

    #[test]
    fn default_is_the_empty_treap() {
        let mut t = ScoreTreap::default();
        assert!(!t.contains(&key(1, 0, 1)));
        assert!(t.insert(key(1, 0, 1)));
        assert_eq!(t, ScoreTreap::from_sorted(&[key(1, 0, 1)]));
        assert_ne!(t, ScoreTreap::new());
    }

    #[test]
    fn top_k_clamps() {
        let mut t = ScoreTreap::new();
        t.insert(key(1, 0, 1));
        assert_eq!(t.top_k(10).len(), 1);
        assert!(t.top_k(0).is_empty());
        assert!(ScoreTreap::new().top_k(5).is_empty());
    }

    #[test]
    fn from_sorted_equals_incremental_inserts() {
        let mut keys: Vec<RankKey> = (0..500u32).map(|i| key(i % 23, i, i + 1)).collect();
        keys.sort();
        let bulk = ScoreTreap::from_sorted(&keys);
        let mut incremental = ScoreTreap::new();
        for &k in &keys {
            incremental.insert(k);
        }
        assert_eq!(bulk.len(), incremental.len());
        assert_eq!(bulk.iter_ranked(), incremental.iter_ranked());
        // Order statistics must be intact after the bulk build.
        for r in (0..bulk.len()).step_by(37) {
            assert_eq!(bulk.select(r), incremental.select(r));
            assert_eq!(bulk.rank(&bulk.select(r).unwrap()), Some(r));
        }
        // And the bulk tree remains fully mutable.
        let mut bulk = bulk;
        assert!(bulk.remove(&keys[250]));
        assert!(bulk.insert(keys[250]));
        assert_eq!(bulk.iter_ranked(), incremental.iter_ranked());
    }

    #[test]
    fn from_sorted_empty_and_single() {
        assert!(ScoreTreap::from_sorted(&[]).is_empty());
        let t = ScoreTreap::from_sorted(&[key(3, 1, 2)]);
        assert_eq!(t.len(), 1);
        assert_eq!(t.select(0), Some(key(3, 1, 2)));
    }

    #[test]
    #[should_panic(expected = "rank-ascending")]
    fn from_sorted_rejects_unsorted() {
        let _ = ScoreTreap::from_sorted(&[key(1, 0, 1), key(5, 2, 3)]);
    }

    #[test]
    fn shape_is_insertion_order_independent() {
        let keys: Vec<RankKey> = (0..100u32).map(|i| key(i % 11, i, i + 1)).collect();
        let mut forward = ScoreTreap::new();
        for &k in &keys {
            forward.insert(k);
        }
        let mut backward = ScoreTreap::new();
        for &k in keys.iter().rev() {
            backward.insert(k);
        }
        assert_eq!(forward.iter_ranked(), backward.iter_ranked());
    }

    proptest! {
        #[test]
        fn matches_sorted_vec_model(ops in prop::collection::vec((any::<bool>(), 0u32..8, 0u32..20), 0..200)) {
            let mut treap = ScoreTreap::new();
            let mut model: Vec<RankKey> = Vec::new();
            for (insert, score, e) in ops {
                let k = key(score, e, e + 1);
                if insert {
                    let added = treap.insert(k);
                    let in_model = model.contains(&k);
                    prop_assert_eq!(added, !in_model);
                    if !in_model {
                        model.push(k);
                    }
                } else {
                    let removed = treap.remove(&k);
                    let pos = model.iter().position(|&m| m == k);
                    prop_assert_eq!(removed, pos.is_some());
                    if let Some(p) = pos {
                        model.swap_remove(p);
                    }
                }
                prop_assert_eq!(treap.len(), model.len());
            }
            model.sort();
            let ranked: Vec<RankKey> = treap
                .iter_ranked()
                .iter()
                .map(|s| RankKey { score: s.score, edge: s.edge })
                .collect();
            prop_assert_eq!(ranked, model);
            // Order statistics agree with the sorted model.
            for (r, k) in treap.iter_ranked().iter().enumerate() {
                let rk = RankKey { score: k.score, edge: k.edge };
                prop_assert_eq!(treap.select(r), Some(rk));
                prop_assert_eq!(treap.rank(&rk), Some(r));
            }
        }
    }
}
