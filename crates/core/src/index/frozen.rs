//! A frozen, flat-memory ESDIndex for read-only deployments.
//!
//! The treap-backed [`EsdIndex`] supports `O(log m)`
//! maintenance, but a read-only consumer pays for that flexibility in
//! pointer-chasing and per-node overhead. [`FrozenEsdIndex`] lays every
//! list `H(c)` out as one contiguous, rank-ordered slice:
//!
//! * query = one binary search over `C` + one `memcpy`-friendly slice scan
//!   (`O(log |C| + k)` — strictly better than Theorem 5's `O(k log m)`);
//! * memory ≈ 8 bytes/entry vs ≈ 24 for the treap arena;
//! * the layout is position-independent, which is what makes the on-disk
//!   format of [`super::persist`] a straight dump.
//!
//! This is an engineering extension over the paper (which only needs the
//! BST form); the `ablation` experiment quantifies the gap.

use super::EsdIndex;
use crate::ScoredEdge;
use esd_graph::Edge;

/// An immutable ESDIndex with contiguous rank-ordered lists.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FrozenEsdIndex {
    /// `C`, ascending.
    pub(crate) sizes: Vec<u32>,
    /// `list_offsets[i]..list_offsets[i+1]` bounds list `i` in `entries`.
    pub(crate) list_offsets: Vec<usize>,
    /// All lists back to back, each in rank order (score desc, edge asc).
    pub(crate) entries: Vec<ScoredEdge>,
}

impl FrozenEsdIndex {
    /// Builds directly from a graph (via [`EsdIndex::build_fast`]).
    pub fn build(g: &esd_graph::Graph) -> Self {
        EsdIndex::build_fast(g).freeze()
    }

    pub(crate) fn from_parts(
        sizes: Vec<u32>,
        list_offsets: Vec<usize>,
        entries: Vec<ScoredEdge>,
    ) -> Self {
        debug_assert_eq!(list_offsets.len(), sizes.len() + 1);
        Self {
            sizes,
            list_offsets,
            entries,
        }
    }

    /// The distinct component sizes `C`, ascending.
    pub fn component_sizes(&self) -> &[u32] {
        &self.sizes
    }

    /// Number of lists `|C|`.
    pub fn num_lists(&self) -> usize {
        self.sizes.len()
    }

    /// The full list `H(c)` in rank order, if `c ∈ C`.
    pub fn list(&self, c: u32) -> Option<&[ScoredEdge]> {
        let i = self.sizes.binary_search(&c).ok()?;
        Some(&self.entries[self.list_offsets[i]..self.list_offsets[i + 1]])
    }

    /// Total `(edge, list)` entries.
    pub fn total_entries(&self) -> usize {
        self.entries.len()
    }

    /// Approximate heap footprint in bytes.
    pub fn byte_size(&self) -> usize {
        self.sizes.capacity() * std::mem::size_of::<u32>()
            + self.list_offsets.capacity() * std::mem::size_of::<usize>()
            + self.entries.capacity() * std::mem::size_of::<ScoredEdge>()
    }

    /// Top-`k` edges at threshold `tau`; same contract as
    /// [`EsdIndex::query`].
    pub fn query(&self, k: usize, tau: u32) -> Vec<ScoredEdge> {
        assert!(tau >= 1, "component size threshold must be at least 1");
        let i = self.sizes.partition_point(|&c| c < tau);
        if i == self.sizes.len() {
            return Vec::new();
        }
        let list = &self.entries[self.list_offsets[i]..self.list_offsets[i + 1]];
        list[..k.min(list.len())].to_vec()
    }

    /// Zero-copy variant of [`Self::query`].
    pub fn query_slice(&self, k: usize, tau: u32) -> &[ScoredEdge] {
        let i = self.sizes.partition_point(|&c| c < tau);
        if i == self.sizes.len() {
            return &[];
        }
        let list = &self.entries[self.list_offsets[i]..self.list_offsets[i + 1]];
        &list[..k.min(list.len())]
    }

    /// Rank of `edge` in the list answering `tau` (0 = best), if present.
    pub fn rank_of(&self, edge: Edge, tau: u32) -> Option<usize> {
        let i = self.sizes.partition_point(|&c| c < tau);
        if i == self.sizes.len() {
            return None;
        }
        let list = &self.entries[self.list_offsets[i]..self.list_offsets[i + 1]];
        list.iter().position(|s| s.edge == edge)
    }
}

impl EsdIndex {
    /// Flattens into a read-only [`FrozenEsdIndex`]. The frozen form
    /// returns identical query results with ~3–4× less memory and faster
    /// top-k reads, but cannot be maintained incrementally.
    pub fn freeze(&self) -> FrozenEsdIndex {
        let mut list_offsets = Vec::with_capacity(self.num_lists() + 1);
        list_offsets.push(0usize);
        let mut entries = Vec::with_capacity(self.total_entries());
        for c in self.component_sizes() {
            let len = self.list_len(*c).expect("list exists");
            entries.extend(self.query(len, *c));
            list_offsets.push(entries.len());
        }
        let frozen =
            FrozenEsdIndex::from_parts(self.component_sizes().to_vec(), list_offsets, entries);
        #[cfg(any(test, feature = "strict-invariants"))]
        crate::audit::assert_clean("FrozenEsdIndex (post-freeze)", &frozen.validate());
        frozen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::fig1;
    use esd_graph::generators;

    #[test]
    fn frozen_matches_treap_queries() {
        let (g, _) = fig1();
        let index = EsdIndex::build_fast(&g);
        let frozen = index.freeze();
        assert_eq!(frozen.component_sizes(), index.component_sizes());
        for tau in 1..=7 {
            for k in [1, 3, 20, 100] {
                assert_eq!(frozen.query(k, tau), index.query(k, tau), "k={k} τ={tau}");
                assert_eq!(frozen.query_slice(k, tau), &index.query(k, tau)[..]);
            }
        }
    }

    #[test]
    fn frozen_on_random_graphs() {
        for seed in 0..4 {
            let g = generators::clique_overlap(80, 70, 5, seed);
            let index = EsdIndex::build_fast(&g);
            let frozen = index.freeze();
            assert_eq!(frozen.total_entries(), index.total_entries());
            assert!(
                frozen.byte_size() < index.byte_size(),
                "frozen must be smaller: {} vs {}",
                frozen.byte_size(),
                index.byte_size()
            );
            for tau in [1, 2, 3] {
                assert_eq!(frozen.query(15, tau), index.query(15, tau));
            }
        }
    }

    #[test]
    fn frozen_empty() {
        let g = esd_graph::Graph::from_edges(3, &[]);
        let frozen = FrozenEsdIndex::build(&g);
        assert_eq!(frozen.num_lists(), 0);
        assert!(frozen.query(5, 1).is_empty());
        assert!(frozen.query_slice(5, 1).is_empty());
    }

    #[test]
    fn list_and_rank() {
        let (g, n) = fig1();
        let frozen = FrozenEsdIndex::build(&g);
        assert_eq!(frozen.list(5).unwrap().len(), 3);
        assert!(frozen.list(3).is_none());
        let top = frozen.query(1, 2)[0];
        assert_eq!(frozen.rank_of(top.edge, 2), Some(0));
        assert_eq!(frozen.rank_of(Edge::new(n["a"], n["b"]), 2), None);
    }
}
