//! Brandes' algorithm for edge betweenness centrality.
//!
//! The paper's case studies (Exp-7/8) compare the top-k structural diversity
//! edges against a betweenness baseline `BT`. Exact edge betweenness is
//! `O(nm)`; a pivot-sampled estimator is provided for larger graphs.

use crate::{Graph, VertexId};
use rand::prelude::*;
use rand::rngs::StdRng;
use std::collections::VecDeque;

/// Exact edge betweenness: for each edge, the sum over vertex pairs `(s, t)`
/// of the fraction of shortest `s`–`t` paths passing through it. Index =
/// edge id. Each unordered pair is counted once.
pub fn edge_betweenness(g: &Graph) -> Vec<f64> {
    let sources: Vec<VertexId> = g.vertices().collect();
    let mut scores = accumulate(g, &sources);
    // Brandes accumulates each unordered pair twice (once per endpoint as
    // source); halve for the conventional normalisation.
    for s in &mut scores {
        *s /= 2.0;
    }
    scores
}

/// Sampled edge betweenness using `pivots` random BFS sources, scaled by
/// `n / pivots` so magnitudes are comparable with the exact values.
pub fn edge_betweenness_sampled(g: &Graph, pivots: usize, seed: u64) -> Vec<f64> {
    let n = g.num_vertices();
    if n == 0 || pivots == 0 {
        return vec![0.0; g.num_edges()];
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0xB27);
    let mut sources: Vec<VertexId> = g.vertices().collect();
    sources.shuffle(&mut rng);
    sources.truncate(pivots.min(n));
    let scale = n as f64 / sources.len() as f64 / 2.0;
    let mut scores = accumulate(g, &sources);
    for s in &mut scores {
        *s *= scale;
    }
    scores
}

/// One Brandes dependency accumulation pass per source.
fn accumulate(g: &Graph, sources: &[VertexId]) -> Vec<f64> {
    let n = g.num_vertices();
    let mut scores = vec![0.0f64; g.num_edges()];
    let mut dist = vec![i32::MAX; n];
    let mut sigma = vec![0.0f64; n];
    let mut delta = vec![0.0f64; n];
    let mut order: Vec<VertexId> = Vec::with_capacity(n);
    let mut queue = VecDeque::new();

    for &s in sources {
        dist.fill(i32::MAX);
        sigma.fill(0.0);
        delta.fill(0.0);
        order.clear();
        dist[s as usize] = 0;
        sigma[s as usize] = 1.0;
        queue.push_back(s);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            let dv = dist[v as usize];
            for &w in g.neighbors(v) {
                if dist[w as usize] == i32::MAX {
                    dist[w as usize] = dv + 1;
                    queue.push_back(w);
                }
                if dist[w as usize] == dv + 1 {
                    sigma[w as usize] += sigma[v as usize];
                }
            }
        }
        // Reverse BFS order: accumulate dependencies onto predecessor edges.
        for &w in order.iter().rev() {
            let dw = dist[w as usize];
            for &v in g.neighbors(w) {
                if dist[v as usize] + 1 == dw {
                    let c = sigma[v as usize] / sigma[w as usize] * (1.0 + delta[w as usize]);
                    let id = g.edge_id(v, w).expect("edge exists");
                    scores[id as usize] += c;
                    delta[v as usize] += c;
                }
            }
        }
    }
    scores
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn path_betweenness() {
        // Path 0-1-2-3: middle edge carries pairs {0,1,2}x{3} etc.
        // Edge (1,2) lies on s-t shortest paths for pairs (0,2),(0,3),(1,2),(1,3) = 4.
        let g = generators::path(4);
        let bt = edge_betweenness(&g);
        let mid = g.edge_id(1, 2).unwrap() as usize;
        assert!((bt[mid] - 4.0).abs() < 1e-9, "got {}", bt[mid]);
        let end = g.edge_id(0, 1).unwrap() as usize;
        assert!((bt[end] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn symmetric_graph_symmetric_scores() {
        let g = generators::cycle(6);
        let bt = edge_betweenness(&g);
        for w in bt.windows(2) {
            assert!((w[0] - w[1]).abs() < 1e-9, "cycle edges are equivalent");
        }
    }

    #[test]
    fn barbell_bridge_dominates() {
        // Two K4s joined by a single bridge: the bridge has the highest score.
        let mut edges = Vec::new();
        for u in 0..4u32 {
            for v in u + 1..4 {
                edges.push((u, v));
                edges.push((u + 4, v + 4));
            }
        }
        edges.push((0, 4));
        let g = Graph::from_edges(8, &edges);
        let bt = edge_betweenness(&g);
        let bridge = g.edge_id(0, 4).unwrap() as usize;
        let max = bt.iter().copied().fold(f64::MIN, f64::max);
        assert!((bt[bridge] - max).abs() < 1e-9, "bridge must rank first");
        assert!(
            (bt[bridge] - 16.0).abs() < 1e-9,
            "4x4 pairs cross the bridge"
        );
    }

    #[test]
    fn disconnected_components_do_not_interact() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        let bt = edge_betweenness(&g);
        assert!((bt[0] - 1.0).abs() < 1e-9);
        assert!((bt[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sampled_with_all_pivots_matches_exact() {
        let g = generators::erdos_renyi(40, 0.15, 11);
        let exact = edge_betweenness(&g);
        let sampled = edge_betweenness_sampled(&g, g.num_vertices(), 1);
        for (a, b) in exact.iter().zip(&sampled) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    mod properties {
        use super::super::*;
        use crate::generators;
        use proptest::prelude::*;

        /// Brute-force edge betweenness by enumerating all shortest paths
        /// with per-pair BFS counting.
        fn brute_force(g: &Graph) -> Vec<f64> {
            let n = g.num_vertices();
            let mut scores = vec![0.0; g.num_edges()];
            for s in 0..n as u32 {
                for t in s + 1..n as u32 {
                    // σ_st and, per edge, σ_st(e).
                    let dist = crate::traversal::bfs_distances(g, s);
                    if dist[t as usize] == u32::MAX {
                        continue;
                    }
                    // Count paths via DP from s.
                    let mut sigma = vec![0f64; n];
                    sigma[s as usize] = 1.0;
                    let mut order: Vec<u32> = (0..n as u32)
                        .filter(|&v| dist[v as usize] != u32::MAX)
                        .collect();
                    order.sort_by_key(|&v| dist[v as usize]);
                    for &v in &order {
                        for &w in g.neighbors(v) {
                            if dist[w as usize] == dist[v as usize] + 1 {
                                sigma[w as usize] += sigma[v as usize];
                            }
                        }
                    }
                    // Paths through edge (v,w) from s to t: v on a shortest
                    // path prefix, w exactly one step deeper, suffix count
                    // from w to t.
                    let dist_t = crate::traversal::bfs_distances(g, t);
                    let mut sigma_t = vec![0f64; n];
                    sigma_t[t as usize] = 1.0;
                    let mut order_t: Vec<u32> = (0..n as u32)
                        .filter(|&v| dist_t[v as usize] != u32::MAX)
                        .collect();
                    order_t.sort_by_key(|&v| dist_t[v as usize]);
                    for &v in &order_t {
                        for &w in g.neighbors(v) {
                            if dist_t[w as usize] == dist_t[v as usize] + 1 {
                                sigma_t[w as usize] += sigma_t[v as usize];
                            }
                        }
                    }
                    let d_st = f64::from(dist[t as usize]);
                    let total = sigma[t as usize];
                    for (id, e) in g.edges().iter().enumerate() {
                        for (a, b) in [(e.u, e.v), (e.v, e.u)] {
                            if dist[a as usize] != u32::MAX
                                && dist_t[b as usize] != u32::MAX
                                && f64::from(dist[a as usize]) + 1.0 + f64::from(dist_t[b as usize])
                                    == d_st
                            {
                                scores[id] += sigma[a as usize] * sigma_t[b as usize] / total;
                            }
                        }
                    }
                }
            }
            scores
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(16))]
            #[test]
            fn brandes_matches_brute_force(n in 4usize..14, p in 0.2f64..0.7, seed in 0u64..100) {
                let g = generators::erdos_renyi(n, p, seed);
                let fast = edge_betweenness(&g);
                let slow = brute_force(&g);
                for (i, (a, b)) in fast.iter().zip(&slow).enumerate() {
                    prop_assert!((a - b).abs() < 1e-6, "edge {i}: {a} vs {b}");
                }
            }

            /// Σ over edges of betweenness = Σ over connected pairs of d(s,t)
            /// (every shortest path contributes its length in edge-visits).
            #[test]
            fn total_mass_equals_sum_of_distances(n in 3usize..20, p in 0.1f64..0.6, seed in 0u64..100) {
                let g = generators::erdos_renyi(n, p, seed);
                let total: f64 = edge_betweenness(&g).iter().sum();
                let mut dist_sum = 0f64;
                for s in 0..n as u32 {
                    for (t, &d) in crate::traversal::bfs_distances(&g, s).iter().enumerate() {
                        if t as u32 > s && d != u32::MAX {
                            dist_sum += f64::from(d);
                        }
                    }
                }
                prop_assert!((total - dist_sum).abs() < 1e-6, "{total} vs {dist_sum}");
            }
        }
    }

    #[test]
    fn empty_graph_ok() {
        let g = Graph::from_edges(0, &[]);
        assert!(edge_betweenness(&g).is_empty());
        assert!(edge_betweenness_sampled(&g, 5, 0).is_empty());
    }
}
