//! Sequential index construction: Algorithm 2 (BFS) and Algorithm 3
//! (4-clique enumeration + union–find).

use super::ranked::for_each_entry;
use super::{EdgeComponents, RankKey, ScoreTreap};
use esd_dsu::ArenaDsu;
use esd_graph::{cliques::FourCliqueEnumerator, traversal, Edge, Graph, OrientedGraph, VertexId};
use std::ops::Range;

/// Work counters of the 4-clique construction, surfaced by the experiments
/// harness to validate the `O(α²m)` enumeration bound.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BuildStats {
    /// 4-cliques enumerated (each exactly once).
    pub four_cliques: u64,
    /// Union operations performed (six per 4-clique).
    pub union_ops: u64,
    /// `Σ |N(uv)|` — the `O(αm)` total neighbourhood size.
    pub total_neighborhood: usize,
}

/// Everything the 4-clique pass produces; the dynamic maintenance bootstrap
/// consumes the neighbourhoods and the forest, the static build only the
/// component sizes.
pub(crate) struct FourCliqueArtifacts {
    /// Per-edge sorted component sizes.
    pub components: EdgeComponents,
    /// Per-edge common neighbourhood offsets (`m + 1` entries).
    pub nbr_offsets: Vec<usize>,
    /// Flat sorted common neighbourhoods.
    pub nbrs: Vec<VertexId>,
    /// The union–find forest over all neighbourhoods (group = edge id).
    pub arena: ArenaDsu,
    /// Work counters.
    pub stats: BuildStats,
}

/// Algorithm 2, lines 1–3: component sizes of every edge ego-network by BFS.
pub(crate) fn components_by_bfs(g: &Graph) -> EdgeComponents {
    let _span = esd_telemetry::span(esd_telemetry::Stage::BuildBfs);
    let m = g.num_edges();
    let mut offsets = Vec::with_capacity(m + 1);
    offsets.push(0);
    let mut sizes = Vec::new();
    for e in g.edges() {
        let members = g.common_neighbors(e.u, e.v);
        let comp = traversal::induced_component_sizes(g, &members);
        sizes.extend(comp);
        offsets.push(sizes.len());
    }
    EdgeComponents { offsets, sizes }
}

/// Phase 1 of Algorithm 3: materialise every common neighbourhood
/// `N(uv) = N(u) ∩ N(v)` into one flat arena (total size `O(αm)`).
pub(crate) fn neighborhoods(g: &Graph) -> (Vec<usize>, Vec<VertexId>) {
    let m = g.num_edges();
    let mut offsets = Vec::with_capacity(m + 1);
    offsets.push(0);
    let mut nbrs = Vec::new();
    for e in g.edges() {
        esd_graph::intersect::intersect_into(g.neighbors(e.u), g.neighbors(e.v), &mut nbrs);
        offsets.push(nbrs.len());
    }
    (offsets, nbrs)
}

/// Algorithm 3, lines 1–22: builds per-edge disjoint-set forests by
/// enumerating every 4-clique once and extracts the component sizes.
pub(crate) fn components_by_four_cliques(g: &Graph) -> FourCliqueArtifacts {
    let (nbr_offsets, nbrs) = {
        let _span = esd_telemetry::span(esd_telemetry::Stage::BuildNeighborhoods);
        neighborhoods(g)
    };
    esd_telemetry::add(esd_telemetry::Metric::BuildNbrTotal, nbrs.len() as u64);
    let mut arena = ArenaDsu::new(nbr_offsets.clone());
    let mut stats = BuildStats {
        total_neighborhood: nbrs.len(),
        ..Default::default()
    };

    let enumerate_span = esd_telemetry::span(esd_telemetry::Stage::BuildEnumerate);
    let dag = OrientedGraph::by_degree(g);
    let mut enumerator = FourCliqueEnumerator::new(g.num_vertices());
    // A local slot of vertex `x` inside edge `e`'s neighbourhood.
    let slot = |e: u32, x: VertexId| -> usize {
        let range = &nbrs[nbr_offsets[e as usize]..nbr_offsets[e as usize + 1]];
        range
            .binary_search(&x)
            .expect("vertex in common neighbourhood")
    };

    for u in 0..dag.num_vertices() as VertexId {
        for i in 0..dag.out_degree(u) {
            let v = dag.out_neighbors(u)[i];
            let e_uv = g.edge_id(u, v).expect("directed edge exists");
            // The enumerator emits the pairs grouped by w1, so every
            // w1-level lookup (three edge ids, three slots) is cached and
            // recomputed only when w1 advances.
            let mut cached_w1 = VertexId::MAX;
            let (mut e_uw1, mut e_vw1) = (0u32, 0u32);
            let (mut s_w1_uv, mut s_v_uw1, mut s_u_vw1) = (0usize, 0usize, 0usize);
            enumerator.for_edge(&dag, u, v, |w1, w2| {
                // The 4-clique {u, v, w1, w2}: six member edges, six unions
                // (Algorithm 3 lines 10–15).
                if w1 != cached_w1 {
                    cached_w1 = w1;
                    e_uw1 = g.edge_id(u, w1).expect("clique edge");
                    e_vw1 = g.edge_id(v, w1).expect("clique edge");
                    s_w1_uv = slot(e_uv, w1);
                    s_v_uw1 = slot(e_uw1, v);
                    s_u_vw1 = slot(e_vw1, u);
                }
                let e_uw2 = g.edge_id(u, w2).expect("clique edge");
                let e_vw2 = g.edge_id(v, w2).expect("clique edge");
                let e_w1w2 = g.edge_id(w1, w2).expect("clique edge");
                arena.union(e_uv as usize, s_w1_uv, slot(e_uv, w2));
                arena.union(e_uw1 as usize, s_v_uw1, slot(e_uw1, w2));
                arena.union(e_uw2 as usize, slot(e_uw2, v), slot(e_uw2, w1));
                arena.union(e_vw1 as usize, s_u_vw1, slot(e_vw1, w2));
                arena.union(e_vw2 as usize, slot(e_vw2, u), slot(e_vw2, w1));
                arena.union(e_w1w2 as usize, slot(e_w1w2, u), slot(e_w1w2, v));
                stats.four_cliques += 1;
                stats.union_ops += 6;
            });
        }
    }

    drop(enumerate_span);
    esd_telemetry::add(esd_telemetry::Metric::BuildUnionOps, stats.union_ops);

    let components = {
        let _span = esd_telemetry::span(esd_telemetry::Stage::BuildExtract);
        components_from_arena(&arena, g.num_edges())
    };
    FourCliqueArtifacts {
        components,
        nbr_offsets,
        nbrs,
        arena,
        stats,
    }
}

/// Algorithm 3 lines 16–22: reads the sorted component-size multiset of each
/// edge out of the union–find forest.
pub(crate) fn components_from_arena(arena: &ArenaDsu, m: usize) -> EdgeComponents {
    let mut offsets = Vec::with_capacity(m + 1);
    offsets.push(0);
    let mut sizes = Vec::new();
    for e in 0..m {
        let start = sizes.len();
        arena.for_each_root(e, |_, size| sizes.push(size));
        sizes[start..].sort_unstable();
        offsets.push(sizes.len());
    }
    EdgeComponents { offsets, sizes }
}

/// The distinct size set `C = ∪ C_uv`, ascending.
pub(crate) fn distinct_sizes(comps: &EdgeComponents) -> Vec<u32> {
    let max = comps.sizes.iter().copied().max().unwrap_or(0) as usize;
    let mut present = vec![false; max + 1];
    for &s in &comps.sizes {
        present[s as usize] = true;
    }
    (1..=max as u32).filter(|&c| present[c as usize]).collect()
}

/// Algorithm 2 lines 6–15: inserts each edge into every applicable list
/// `H(c)` with its score at threshold `c`.
///
/// `lists` holds fresh treaps for `csizes[c_range]` (so the parallel builder
/// can fill disjoint list ranges independently). Entries are buffered,
/// sorted and bulk-built (`ScoreTreap::from_sorted`, O(L) per list) — the
/// result is identical to per-entry insertion but substantially faster,
/// since this phase dominates static construction.
pub(crate) fn fill_lists(
    edges: &[Edge],
    comps: &EdgeComponents,
    csizes: &[u32],
    lists: &mut [ScoreTreap],
    c_range: Range<usize>,
) {
    debug_assert_eq!(lists.len(), c_range.len());
    debug_assert!(
        lists.iter().all(super::ostree::ScoreTreap::is_empty),
        "fill expects fresh lists"
    );
    let mut buffers: Vec<Vec<RankKey>> = vec![Vec::new(); c_range.len()];
    for (eid, &edge) in edges.iter().enumerate() {
        let lists = csizes[c_range.clone()].iter().zip(&mut buffers);
        for_each_entry(lists, edge, comps.sizes_of(eid), |_, buf, key| {
            buf.push(key);
        });
    }
    for (li, mut buf) in buffers.into_iter().enumerate() {
        buf.sort_unstable();
        lists[li] = ScoreTreap::from_sorted(&buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::fig1;
    use esd_graph::generators;

    #[test]
    fn bfs_and_four_clique_components_agree() {
        for seed in 0..5 {
            let g = generators::erdos_renyi(40, 0.25, seed);
            let bfs = components_by_bfs(&g);
            let fc = components_by_four_cliques(&g).components;
            assert_eq!(bfs.offsets, fc.offsets);
            assert_eq!(bfs.sizes, fc.sizes);
        }
    }

    #[test]
    fn fig1_component_multisets() {
        let (g, n) = fig1();
        let comps = components_by_four_cliques(&g).components;
        let eid = |a: &str, b: &str| g.edge_id(n[a], n[b]).unwrap() as usize;
        assert_eq!(comps.sizes_of(eid("f", "g")), &[2, 2]);
        assert_eq!(comps.sizes_of(eid("j", "k")), &[2, 4]);
        assert_eq!(comps.sizes_of(eid("u", "p")), &[5]);
        assert_eq!(comps.sizes_of(eid("d", "e")), &[1, 2]);
        assert_eq!(distinct_sizes(&comps), vec![1, 2, 4, 5]);
    }

    #[test]
    fn four_clique_count_matches_enumerator() {
        let g = generators::clique_overlap(60, 40, 6, 1);
        let artifacts = components_by_four_cliques(&g);
        assert_eq!(
            artifacts.stats.four_cliques,
            esd_graph::cliques::count_four_cliques(&g)
        );
        assert_eq!(artifacts.stats.union_ops, artifacts.stats.four_cliques * 6);
    }

    #[test]
    fn neighborhood_total_is_sum_of_common_neighbors() {
        let g = generators::erdos_renyi(50, 0.2, 3);
        let (offsets, nbrs) = neighborhoods(&g);
        let expect: usize = g
            .edges()
            .iter()
            .map(|e| g.common_neighbor_count(e.u, e.v))
            .sum();
        assert_eq!(nbrs.len(), expect);
        assert_eq!(*offsets.last().unwrap(), expect);
    }

    #[test]
    fn distinct_sizes_empty() {
        let comps = EdgeComponents {
            offsets: vec![0, 0],
            sizes: vec![],
        };
        assert!(distinct_sizes(&comps).is_empty());
    }
}
