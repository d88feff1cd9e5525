//! The ESDIndex (§IV): near-optimal top-k edge structural diversity queries.
//!
//! For every distinct component size `c ∈ C` occurring in any edge
//! ego-network, the index keeps a list `H(c)` of all edges having at least
//! one component of size ≥ c, ranked by their structural diversity at
//! threshold `c`. A query `(k, τ)` binary-searches `C` for the smallest
//! `c* ≥ τ` and reads the top `k` of `H(c*)` — `O(k log m + log n)` total
//! (Theorems 4–5). Total space is `O(αm)` (Theorem 3).
//!
//! Three constructions are provided:
//! * [`EsdIndex::build_basic`] — Algorithm 2: BFS over every edge
//!   ego-network, `O((d_max + log m)·αm)`.
//! * [`EsdIndex::build_fast`] — Algorithm 3 (the paper's `ESDIndex+`):
//!   4-clique enumeration + union–find, `O((αγ(n) + log m)·αm)`.
//! * [`EsdIndex::build_parallel`] — §IV-E (the paper's `PESDIndex+`):
//!   edge-parallel 4-clique enumeration with sharded DSU application.

pub(crate) mod build;
pub mod delta;
pub mod frozen;
pub mod ostree;
mod parallel;
pub mod persist;
pub(crate) mod ranked;

pub use build::BuildStats;
pub use delta::{DeltaError, EdgeSetDelta, EdgeSetSnapshot};
pub use frozen::FrozenEsdIndex;

/// Assembles an [`EsdIndex`] from precomputed per-edge component sizes
/// (Algorithm 2 lines 5–15). Exposed so callers timing or customising the
/// component phase can reuse the list-fill phase.
pub fn assemble_index(g: &Graph, comps: &EdgeComponents) -> EsdIndex {
    EsdIndex::from_components(g, comps)
}
pub use parallel::ParallelBuildReport;
pub use persist::PersistError;

use crate::ScoredEdge;
use esd_graph::{Edge, Graph};
use ostree::{RankKey, ScoreTreap};

/// Per-edge sorted component-size multisets — the `C_uv` of every edge,
/// stored flat. The common intermediate from which the index is assembled;
/// also useful standalone (e.g. for scoring every edge at several τ without
/// building the full index). Produced by [`EdgeComponents::by_bfs`]
/// (Algorithm 2's per-edge BFS) or [`EdgeComponents::by_four_cliques`]
/// (Algorithm 3's enumerate-once pass) — both yield identical data.
#[derive(Debug, Clone, Default)]
pub struct EdgeComponents {
    /// `offsets[e]..offsets[e+1]` is edge `e`'s slice; length `m + 1`.
    pub(crate) offsets: Vec<usize>,
    /// Flat ascending-sorted size lists.
    pub(crate) sizes: Vec<u32>,
}

impl EdgeComponents {
    /// Component sizes of every edge ego-network by per-edge BFS
    /// (Algorithm 2 lines 1–3).
    pub fn by_bfs(g: &Graph) -> Self {
        let comps = build::components_by_bfs(g);
        #[cfg(any(test, feature = "strict-invariants"))]
        crate::audit::assert_clean("EdgeComponents (by_bfs)", &comps.validate());
        comps
    }

    /// Component sizes of every edge ego-network by 4-clique enumeration +
    /// union–find (Algorithm 3 lines 1–22).
    pub fn by_four_cliques(g: &Graph) -> Self {
        build::components_by_four_cliques(g).components
    }

    /// Edge `e`'s sorted component sizes (the paper's `C_uv`).
    #[inline]
    pub fn sizes_of(&self, e: usize) -> &[u32] {
        &self.sizes[self.offsets[e]..self.offsets[e + 1]]
    }

    /// The edge's structural diversity at threshold `tau`.
    pub fn score_of(&self, e: usize, tau: u32) -> u32 {
        crate::score::score_from_sizes(self.sizes_of(e), tau)
    }

    /// Number of edges covered.
    pub fn num_edges(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }
}

/// The ESDIndex: one ranked list per distinct component size.
#[derive(Debug, Clone, Default)]
pub struct EsdIndex {
    /// `C`, ascending.
    pub(crate) sizes: Vec<u32>,
    /// `H(c)` for each `c ∈ C`, parallel to `sizes`.
    pub(crate) lists: Vec<ScoreTreap>,
}

impl EsdIndex {
    /// Builds the index by per-edge BFS (Algorithm 2, the paper's
    /// `ESDIndex` baseline builder).
    pub fn build_basic(g: &Graph) -> Self {
        Self::from_components(g, &build::components_by_bfs(g))
    }

    /// Builds the index by 4-clique enumeration and union–find
    /// (Algorithm 3, the paper's `ESDIndex+` builder).
    pub fn build_fast(g: &Graph) -> Self {
        Self::from_components(g, &build::components_by_four_cliques(g).components)
    }

    /// [`EsdIndex::build_fast`] plus the 4-clique work counters, for the
    /// experiments harness.
    pub fn build_fast_with_stats(g: &Graph) -> (Self, BuildStats) {
        let artifacts = build::components_by_four_cliques(g);
        (
            Self::from_components(g, &artifacts.components),
            artifacts.stats,
        )
    }

    /// Builds the index with `threads` worker threads (the paper's
    /// `PESDIndex+`, §IV-E). Produces a byte-identical index to
    /// [`EsdIndex::build_fast`] for every thread count.
    pub fn build_parallel(g: &Graph, threads: usize) -> Self {
        parallel::build_parallel(g, threads).0
    }

    /// [`EsdIndex::build_parallel`] plus the per-worker/per-shard work
    /// balance report (printed by the Fig 7/10 experiments).
    pub fn build_parallel_with_report(g: &Graph, threads: usize) -> (Self, ParallelBuildReport) {
        parallel::build_parallel(g, threads)
    }

    /// Assembles lists from per-edge component sizes (Algorithm 2 lines
    /// 5–15, shared by every builder).
    pub(crate) fn from_components(g: &Graph, comps: &EdgeComponents) -> Self {
        let _span = esd_telemetry::span(esd_telemetry::Stage::BuildFill);
        let sizes = build::distinct_sizes(comps);
        let mut lists = vec![ScoreTreap::new(); sizes.len()];
        build::fill_lists(g.edges(), comps, &sizes, &mut lists, 0..sizes.len());
        let index = Self { sizes, lists };
        #[cfg(any(test, feature = "strict-invariants"))]
        crate::audit::assert_clean("EsdIndex (post-build)", &index.validate());
        index
    }

    /// The distinct component sizes `C`, ascending.
    pub fn component_sizes(&self) -> &[u32] {
        &self.sizes
    }

    /// Number of lists `|C|`.
    pub fn num_lists(&self) -> usize {
        self.sizes.len()
    }

    /// Entry count of `H(c)`, if `c ∈ C`.
    pub fn list_len(&self, c: u32) -> Option<usize> {
        let i = self.sizes.binary_search(&c).ok()?;
        Some(self.lists[i].len())
    }

    /// Total number of `(edge, list)` entries — the `O(αm)` quantity of
    /// Theorem 3.
    pub fn total_entries(&self) -> usize {
        self.lists.iter().map(ostree::ScoreTreap::len).sum()
    }

    /// Approximate heap footprint in bytes (Fig 6(a)).
    pub fn byte_size(&self) -> usize {
        self.sizes.capacity() * std::mem::size_of::<u32>()
            + self
                .lists
                .iter()
                .map(ostree::ScoreTreap::byte_size)
                .sum::<usize>()
    }

    /// The query processing algorithm (§IV-B): top-`k` edges with the
    /// highest structural diversity at threshold `tau`, in
    /// `O(k log m + log n)`.
    ///
    /// # Examples
    ///
    /// ```
    /// use esd_core::index::EsdIndex;
    /// use esd_core::fixtures::fig1;
    ///
    /// let (g, _) = fig1();
    /// let index = EsdIndex::build_fast(&g);
    /// let top = index.query(3, 2);
    /// assert!(top.iter().all(|s| s.score == 2));
    /// ```
    pub fn query(&self, k: usize, tau: u32) -> Vec<ScoredEdge> {
        assert!(tau >= 1, "component size threshold must be at least 1");
        let _span = esd_telemetry::span(esd_telemetry::Stage::QueryTopk);
        // Smallest c* ∈ C with c* >= τ.
        let i = self.sizes.partition_point(|&c| c < tau);
        if i == self.sizes.len() {
            return Vec::new();
        }
        self.lists[i].top_k(k)
    }

    /// The rank of `edge` within the list answering threshold `tau`
    /// (0 = best), if the edge has a component of size ≥ τ. Requires the
    /// edge's exact score at τ, available from [`crate::score::edge_score`].
    pub fn rank_of(&self, edge: Edge, score: u32, tau: u32) -> Option<usize> {
        let i = self.sizes.partition_point(|&c| c < tau);
        if i == self.sizes.len() {
            return None;
        }
        self.lists[i].rank(&RankKey { score, edge })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::fig1;
    use crate::score::naive_topk;
    use esd_graph::generators;

    #[test]
    fn fig1_index_structure_matches_example4() {
        let (g, _) = fig1();
        for index in [EsdIndex::build_basic(&g), EsdIndex::build_fast(&g)] {
            assert_eq!(index.component_sizes(), &[1, 2, 4, 5]);
            assert_eq!(index.list_len(1), Some(40), "H(1) contains all edges");
            assert_eq!(
                index.list_len(2),
                Some(33),
                "40 minus the 7 max-size-1 edges"
            );
            assert_eq!(index.list_len(4), Some(15), "the K6 edges");
            assert_eq!(index.list_len(5), Some(3));
            assert_eq!(index.list_len(3), None, "3 ∉ C");
        }
    }

    #[test]
    fn basic_and_fast_build_identical_indexes() {
        for seed in 0..4 {
            let g = generators::erdos_renyi(50, 0.2, seed);
            let a = EsdIndex::build_basic(&g);
            let b = EsdIndex::build_fast(&g);
            assert_eq!(a.component_sizes(), b.component_sizes());
            for (la, lb) in a.lists.iter().zip(&b.lists) {
                assert_eq!(la.iter_ranked(), lb.iter_ranked());
            }
        }
    }

    #[test]
    fn query_matches_naive_all_parameters() {
        let (g, _) = fig1();
        let index = EsdIndex::build_fast(&g);
        for tau in 1..=7 {
            for k in [1, 3, 10, 100] {
                assert_eq!(index.query(k, tau), naive_topk(&g, k, tau), "k={k} τ={tau}");
            }
        }
    }

    #[test]
    fn query_routing_between_sizes() {
        // Fig 1: C = {1,2,4,5}. τ = 3 must route to H(4) (Theorem 4 case 2).
        let (g, _) = fig1();
        let index = EsdIndex::build_fast(&g);
        assert_eq!(index.query(100, 3), index.query(100, 4));
        assert!(index.query(5, 6).is_empty(), "τ beyond max C");
    }

    #[test]
    fn query_on_random_graphs_matches_naive() {
        for seed in 0..5 {
            let g = generators::clique_overlap(80, 60, 5, seed);
            let index = EsdIndex::build_fast(&g);
            for tau in [1, 2, 3, 4] {
                assert_eq!(index.query(12, tau), naive_topk(&g, 12, tau));
            }
        }
    }

    #[test]
    fn empty_graph_index() {
        let g = Graph::from_edges(0, &[]);
        let index = EsdIndex::build_fast(&g);
        assert_eq!(index.num_lists(), 0);
        assert!(index.query(5, 1).is_empty());
    }

    #[test]
    fn triangle_free_graph_has_no_lists() {
        let g = generators::star(10);
        let index = EsdIndex::build_fast(&g);
        assert_eq!(index.num_lists(), 0, "all ego-networks are empty");
    }

    #[test]
    fn rank_of_top_edge_is_zero() {
        let (g, _) = fig1();
        let index = EsdIndex::build_fast(&g);
        let top = index.query(1, 5)[0];
        assert_eq!(index.rank_of(top.edge, top.score, 5), Some(0));
    }

    #[test]
    fn total_entries_bounded_by_sum_min_degree() {
        let g = generators::clique_overlap(100, 80, 6, 2);
        let index = EsdIndex::build_fast(&g);
        let bound = esd_graph::metrics::sum_min_degree(&g);
        assert!(index.total_entries() as u64 <= bound, "Theorem 3 bound");
    }
}
