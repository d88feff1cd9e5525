//! The query-family layer: three structural-diversity variants maintained
//! beside the component-based index, behind one request vocabulary.
//!
//! The paper's `score_τ(u, v)` — the number of size-≥ τ connected
//! components of the common-neighbourhood ego network `G_{N(uv)}` — is one
//! member of a family of ego-network diversity measures. This module
//! implements the other three the roadmap calls for, all over the same
//! ego substrate:
//!
//! * **[`Family::Truss`]** — *truss-based diversity* (after arXiv
//!   2007.05437): the number of ego components whose **3-truss core**
//!   holds at least τ vertices. The 3-truss of a graph is exactly the
//!   union of its triangles — every edge of a triangle has support ≥ 1
//!   inside the set of triangle edges, so that set satisfies the 3-truss
//!   condition and is maximal — which gives the production kernel a cheap
//!   per-component triangle-vertex count while the differential oracle
//!   runs the full bucket-peeling [`esd_graph::truss::truss_decomposition`]
//!   on the materialised ego subgraph. Since a component's core is a
//!   subset of the component, the truss score can never exceed the
//!   component score at the same τ — a cross-family invariant the
//!   agreement harness pins.
//! * **[`Family::ParameterFree`]** — *parameter-free diversity* (after
//!   arXiv 1908.11612): no τ knob. Each edge chooses its own threshold
//!   `τ*(e) = max(1, ⌈√h⌉)` from its neighbourhood size `h = |N(u)∩N(v)|`
//!   and scores as the component-based measure at that τ*. By construction
//!   it agrees with [`Family::Component`] at τ*(e) — the second pinned
//!   invariant.
//! * **[`Family::EgoBetweenness`]** — *ego-betweenness* (after arXiv
//!   2107.10052): the total betweenness mass of the ego network. Summed
//!   over all edges of a graph, Brandes betweenness equals the sum of
//!   pairwise shortest-path distances over connected pairs, so the mass is
//!   the exact integer `Σ_{s<t connected} d(s, t)` — the production kernel
//!   computes it with per-member BFS distance sums while the oracle sums
//!   [`esd_graph::betweenness::edge_betweenness`] over the ego subgraph.
//!   τ does not apply and is ignored.
//!
//! [`FamilySuite`] maintains the three non-component families beside (not
//! inside) [`MaintainedIndex`] and ranks them with the same treap lists:
//! truss core sizes (a sorted multiset, the shape of `C_uv`) feed the
//! component index's `H(c)` lists, and the τ-free parameter-free and
//! ego-betweenness scores each fill one [`ScoreTreap`], so a query is a
//! treap walk. The suite keeps one profile per **owned** edge, recomputed
//! per update window over the family-agnostic blast radius (the same radius
//! the component pipeline plans: the updated edge, edges incident to its
//! endpoints, and ego pairs of its common neighbourhood — all enumerated
//! against the post-window graph, which covers every membership change
//! because the update that caused it contributes its own incident edges).
//!
//! [`MaintainedIndex`]: crate::MaintainedIndex

use crate::index::ostree::{RankKey, ScoreTreap};
use crate::index::ranked::RankedLists;
use crate::maintain::{EdgeOwnership, GraphUpdate};
use crate::score::score_from_sizes;
use crate::ScoredEdge;
use esd_graph::{DynamicGraph, Edge, Graph, VertexId};
use std::collections::{BTreeSet, HashMap};

/// Which diversity measure a query ranks by.
///
/// The default is [`Family::Component`] — the paper's measure, served by
/// the component-based [`MaintainedIndex`](crate::MaintainedIndex) — so a
/// family-unspecified request behaves exactly as before the family layer
/// existed. The other three are maintained by [`FamilySuite`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Family {
    /// Component-based structural diversity (the paper's Definition 2).
    #[default]
    Component,
    /// Truss-based diversity: ego components counted only when their
    /// 3-truss core reaches τ vertices.
    Truss,
    /// Parameter-free diversity: each edge scores at its own
    /// `τ*(e) = max(1, ⌈√h⌉)`; the query's τ is ignored.
    ParameterFree,
    /// Total ego-network betweenness mass; the query's τ is ignored.
    EgoBetweenness,
}

impl Family {
    /// Every family, in declaration order.
    pub const ALL: [Family; 4] = [
        Family::Component,
        Family::Truss,
        Family::ParameterFree,
        Family::EgoBetweenness,
    ];

    /// The families [`FamilySuite`] maintains (everything but
    /// [`Family::Component`], which the component index serves).
    pub const MAINTAINED: [Family; 3] =
        [Family::Truss, Family::ParameterFree, Family::EgoBetweenness];

    /// The stable wire name (`component`, `truss`, `parameter-free`,
    /// `ego-betweenness`) used by the protocol, the CLI, and telemetry.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Family::Component => "component",
            Family::Truss => "truss",
            Family::ParameterFree => "parameter-free",
            Family::EgoBetweenness => "ego-betweenness",
        }
    }

    /// Parses a wire name back into a family — the inverse of
    /// [`Family::name`], also accepting the short aliases `pf` and
    /// `betweenness`. `None` for unknown names.
    #[must_use]
    pub fn parse(name: &str) -> Option<Family> {
        match name {
            "component" => Some(Family::Component),
            "truss" => Some(Family::Truss),
            "parameter-free" | "pf" => Some(Family::ParameterFree),
            "ego-betweenness" | "betweenness" => Some(Family::EgoBetweenness),
            _ => None,
        }
    }

    /// Whether the query's τ parameter participates in this family's
    /// score. Families that ignore τ still accept it on the wire (it must
    /// be ≥ 1 as always) so the request shape is uniform.
    #[must_use]
    pub const fn uses_tau(self) -> bool {
        matches!(self, Family::Component | Family::Truss)
    }
}

impl std::fmt::Display for Family {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The per-edge threshold of the parameter-free family:
/// `τ*(e) = max(1, ⌈√h⌉)` for a common neighbourhood of `h` vertices.
/// Exact integer arithmetic — no floating-point square root.
#[must_use]
pub fn tau_star(h: usize) -> u32 {
    let mut t: u32 = 1;
    while (t as usize) * (t as usize) < h {
        t += 1;
    }
    t
}

/// The maintained per-edge state: one score profile per family.
#[derive(Debug, Clone, PartialEq, Eq)]
struct EdgeProfiles {
    /// Sorted multiset of 3-truss core sizes, one entry per ego component
    /// with a non-empty core (zero-core components are dropped — they can
    /// never reach any τ ≥ 1).
    truss_cores: TrussCores,
    /// The parameter-free score (component score at `τ*(e)`).
    pf: u32,
    /// Total ego-betweenness mass `Σ_{s<t connected} d(s, t)`, saturated
    /// at `u32::MAX`.
    betweenness: u32,
}

impl EdgeProfiles {
    /// Recomputes all three profiles for edge `(u, v)` from scratch
    /// against `g` — one ego materialisation shared by every family.
    fn compute(g: &DynamicGraph, u: VertexId, v: VertexId) -> Self {
        let ego = EgoNetwork::around(g, u, v);
        let (labels, betweenness) = ego.components_and_mass();
        let comp_count = labels.iter().max().map_or(0, |&m| m as usize + 1);
        let mut comp_sizes = vec![0u32; comp_count];
        // Truss: per-component count of members sitting in ≥ 1 ego
        // triangle (the 3-truss core — see the module doc for why the
        // 3-truss is exactly the union of triangles).
        let mut truss_cores = vec![0u32; comp_count];
        for (&l, in_triangle) in labels.iter().zip(ego.triangle_members()) {
            comp_sizes[l as usize] += 1;
            truss_cores[l as usize] += u32::from(in_triangle);
        }
        truss_cores.retain(|&c| c > 0);
        truss_cores.sort_unstable();
        // Parameter-free: component score at τ*(h).
        comp_sizes.sort_unstable();
        Self {
            truss_cores: TrussCores::new(truss_cores),
            pf: score_from_sizes(&comp_sizes, tau_star(ego.len())),
            betweenness,
        }
    }
}

/// A sorted multiset of core sizes, each ≥ 1. Up to two sizes — every edge
/// but a handful on the bench surrogates — sit inline behind leading zero
/// padding, so cloning the profile map on each publish allocates nothing
/// for them.
#[derive(Debug, Clone, PartialEq, Eq)]
enum TrussCores {
    Inline([u32; 2]),
    Boxed(Box<[u32]>),
}

impl TrussCores {
    fn new(sorted: Vec<u32>) -> Self {
        match *sorted {
            [] => Self::Inline([0, 0]),
            [a] => Self::Inline([0, a]),
            [a, b] => Self::Inline([a, b]),
            _ => Self::Boxed(sorted.into_boxed_slice()),
        }
    }

    fn as_slice(&self) -> &[u32] {
        match self {
            Self::Inline(sizes) => &sizes[sizes.iter().take_while(|&&s| s == 0).count()..],
            Self::Boxed(sizes) => sizes,
        }
    }
}

/// A materialised ego network: the common neighbourhood of one edge with
/// its induced adjacency, re-indexed to local vertex ids.
struct EgoNetwork {
    /// Local adjacency, sorted; `adj[i]` are the local indices adjacent
    /// to member `i`.
    adj: Vec<Vec<u32>>,
}

impl EgoNetwork {
    fn around(g: &DynamicGraph, u: VertexId, v: VertexId) -> Self {
        let members = g.common_neighbors(u, v);
        let mut adj = Vec::with_capacity(members.len());
        let mut buf: Vec<VertexId> = Vec::new();
        for &m in &members {
            buf.clear();
            esd_graph::intersect::intersect_into(g.neighbors(m), &members, &mut buf);
            adj.push(
                buf.iter()
                    .map(|w| members.binary_search(w).expect("member") as u32)
                    .collect(),
            );
        }
        Self { adj }
    }

    fn len(&self) -> usize {
        self.adj.len()
    }

    /// Which members sit in at least one ego triangle — equivalently,
    /// which members the ego network's 3-truss retains.
    fn triangle_members(&self) -> Vec<bool> {
        let mut in_tri = vec![false; self.len()];
        let mut common = Vec::new();
        for (x, ax) in self.adj.iter().enumerate() {
            for &y in ax.iter().filter(|&&y| y as usize > x) {
                // Every common neighbour z closes a triangle {x, y, z}.
                common.clear();
                esd_graph::intersect::intersect_merge(ax, &self.adj[y as usize], &mut common);
                if !common.is_empty() {
                    in_tri[x] = true;
                    in_tri[y as usize] = true;
                }
                for &z in &common {
                    in_tri[z as usize] = true;
                }
            }
        }
        in_tri
    }

    /// One BFS per member over the local adjacency: each member's
    /// connected-component label, and `Σ_{s<t connected} d(s, t)` over the
    /// ego network — the total betweenness mass — saturated at `u32::MAX`.
    fn components_and_mass(&self) -> (Vec<u32>, u32) {
        let n = self.len();
        let mut labels = vec![u32::MAX; n];
        let mut next = 0u32;
        let mut total: u64 = 0;
        let mut dist = vec![u32::MAX; n];
        let mut queue = std::collections::VecDeque::new();
        for s in 0..n {
            if labels[s] == u32::MAX {
                labels[s] = next;
                next += 1;
            }
            let label = labels[s];
            dist.fill(u32::MAX);
            dist[s] = 0;
            queue.push_back(s);
            while let Some(x) = queue.pop_front() {
                labels[x] = label;
                total += u64::from(dist[x]);
                for &y in &self.adj[x] {
                    if dist[y as usize] == u32::MAX {
                        dist[y as usize] = dist[x] + 1;
                        queue.push_back(y as usize);
                    }
                }
            }
        }
        // Every connected pair was counted once from each endpoint.
        (labels, u32::try_from(total / 2).unwrap_or(u32::MAX))
    }
}

/// What one [`FamilySuite::apply`] window did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FamilyApplyReport {
    /// Owned edges in the window's blast radius (recomputed + deleted).
    pub affected: usize,
    /// Owned, still-present edges whose profiles were recomputed.
    pub recomputed: usize,
}

/// Maintained score state for every non-component [`Family`], kept beside
/// the component index: one score profile per **owned** edge and the ranked
/// lists built from them, updated per window by [`FamilySuite::apply`] and
/// walked by [`FamilySuite::query`].
#[derive(Debug, Clone, PartialEq)]
pub struct FamilySuite {
    ownership: EdgeOwnership,
    /// Edge key → profiles, for every owned edge of the graph.
    profiles: HashMap<u64, EdgeProfiles>,
    /// `H(c)` over each edge's 3-truss core sizes.
    truss: RankedLists,
    /// Edges with a positive parameter-free score, ranked by it.
    pf: ScoreTreap,
    /// Edges with a positive ego-betweenness mass, ranked by it.
    betweenness: ScoreTreap,
}

/// Builds a scalar family's treap in bulk from every profile with a
/// positive score (every top-k reports positive scores only).
fn scalar_treap(
    profiles: &HashMap<u64, EdgeProfiles>,
    score: impl Fn(&EdgeProfiles) -> u32,
) -> ScoreTreap {
    let mut keys: Vec<RankKey> = profiles
        .iter()
        .map(|(&key, p)| RankKey {
            score: score(p),
            edge: Edge::from_key(key),
        })
        .filter(|key| key.score > 0)
        .collect();
    keys.sort_unstable();
    ScoreTreap::from_sorted(&keys)
}

impl FamilySuite {
    /// Builds the suite for the full edge space of `g`.
    #[must_use]
    pub fn new(g: &Graph) -> Self {
        Self::new_owned(g, EdgeOwnership::ALL)
    }

    /// Builds the suite maintaining only the edges `ownership` owns —
    /// the sharded-serving construction, mirroring
    /// [`MaintainedIndex::new_owned`](crate::MaintainedIndex::new_owned).
    #[must_use]
    pub fn new_owned(g: &Graph, ownership: EdgeOwnership) -> Self {
        Self::rebuild(&DynamicGraph::from_graph(g), ownership)
    }

    /// From-scratch reconstruction against `g` — the recompute oracle the
    /// agreement harness compares maintained state to, and what crash
    /// recovery runs over the recovered graph. Every ranked list is built
    /// in bulk.
    #[must_use]
    pub fn rebuild(g: &DynamicGraph, ownership: EdgeOwnership) -> Self {
        let profiles: HashMap<u64, EdgeProfiles> = g
            .edges()
            .into_iter()
            .filter(|e| ownership.owns_key(e.key()))
            .map(|e| (e.key(), EdgeProfiles::compute(g, e.u, e.v)))
            .collect();
        let truss = RankedLists::build(
            profiles
                .iter()
                .map(|(&key, p)| (Edge::from_key(key), p.truss_cores.as_slice())),
        );
        Self {
            ownership,
            truss,
            pf: scalar_treap(&profiles, |p| p.pf),
            betweenness: scalar_treap(&profiles, |p| p.betweenness),
            profiles,
        }
    }

    /// The edge-space slice this suite maintains.
    #[must_use]
    pub fn ownership(&self) -> EdgeOwnership {
        self.ownership
    }

    /// Number of owned edges currently tracked.
    #[must_use]
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// Whether no owned edge is tracked.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }

    /// Incorporates one applied update window. `g` must be the graph
    /// **after** the window (the component index's
    /// [`graph()`](crate::MaintainedIndex::graph) right after
    /// `apply_batch_parallel`). The blast radius of each update `(u, v)`
    /// is family-agnostic: the edge itself, every edge incident to `u` or
    /// `v`, and every ego pair of `N(u) ∩ N(v)` — enumerated against the
    /// post-window graph, which covers membership changes caused by other
    /// updates in the same window because *those* updates contribute their
    /// own incident edges. Every affected edge's old entries leave the
    /// ranked lists; edges no longer present are dropped, the rest are
    /// recomputed, fanned out over `threads` workers, and installed.
    pub fn apply(
        &mut self,
        g: &DynamicGraph,
        updates: &[GraphUpdate],
        threads: usize,
    ) -> FamilyApplyReport {
        let _span = esd_telemetry::span(esd_telemetry::Stage::FamilyApply);
        let in_range = |x: VertexId| (x as usize) < g.num_vertices();
        let neighbors = |x: VertexId| -> &[VertexId] {
            if in_range(x) {
                g.neighbors(x)
            } else {
                &[]
            }
        };
        let mut candidates: BTreeSet<Edge> = BTreeSet::new();
        for upd in updates {
            let (u, v) = upd.endpoints();
            if u == v {
                continue; // rejected by the index; no state can change
            }
            candidates.insert(Edge::new(u, v));
            for &w in neighbors(u) {
                candidates.insert(Edge::new(u, w));
            }
            for &w in neighbors(v) {
                candidates.insert(Edge::new(v, w));
            }
            if in_range(u) && in_range(v) {
                let members = g.common_neighbors(u, v);
                for (a, b) in crate::maintain::ego_edges(g, &members) {
                    candidates.insert(Edge::new(a, b));
                }
            }
        }
        let owned: Vec<Edge> = candidates
            .into_iter()
            .filter(|e| self.ownership.owns_key(e.key()))
            .collect();
        let affected = owned.len();
        for &e in &owned {
            if let Some(old) = self.profiles.get(&e.key()) {
                self.truss.retract(e, old.truss_cores.as_slice());
                let scalars = Self::scalar_entries(&mut self.pf, &mut self.betweenness, e, old);
                for (treap, key) in scalars {
                    let removed = treap.remove(&key);
                    debug_assert!(removed, "stale family entry for {e}");
                }
            }
        }
        // Live edges overwrite their profiles in place: removing and
        // re-inserting would leave tombstones that make the map grow.
        let (live, dead): (Vec<Edge>, Vec<Edge>) = owned
            .into_iter()
            .partition(|e| in_range(e.u) && in_range(e.v) && g.has_edge(e.u, e.v));
        for e in &dead {
            self.profiles.remove(&e.key());
        }
        let recomputed = live.len();
        let compute = |c: &[Edge]| -> Vec<(Edge, EdgeProfiles)> {
            c.iter()
                .map(|&e| (e, EdgeProfiles::compute(g, e.u, e.v)))
                .collect()
        };
        let threads = threads.max(1).min(recomputed.max(1));
        let fresh = if threads <= 1 {
            compute(&live)
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = live
                    .chunks(recomputed.div_ceil(threads))
                    .map(|c| scope.spawn(move || compute(c)))
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("family recompute worker panicked"))
                    .collect()
            })
        };
        self.truss
            .restore(fresh.iter().map(|(e, p)| (*e, p.truss_cores.as_slice())));
        for (e, p) in fresh {
            for (treap, key) in Self::scalar_entries(&mut self.pf, &mut self.betweenness, e, &p) {
                let inserted = treap.insert(key);
                debug_assert!(inserted, "duplicate family entry for {e}");
            }
            self.profiles.insert(e.key(), p);
        }
        esd_telemetry::add(
            esd_telemetry::Metric::FamilyRecomputedEdges,
            recomputed as u64,
        );
        FamilyApplyReport {
            affected,
            recomputed,
        }
    }

    /// The scalar families' treaps, each with `edge`'s key under profile
    /// `p`; a family where `p` scores 0 is skipped.
    fn scalar_entries<'a>(
        pf: &'a mut ScoreTreap,
        betweenness: &'a mut ScoreTreap,
        edge: Edge,
        p: &EdgeProfiles,
    ) -> impl Iterator<Item = (&'a mut ScoreTreap, RankKey)> {
        [(pf, p.pf), (betweenness, p.betweenness)]
            .into_iter()
            .filter(|&(_, score)| score > 0)
            .map(move |(treap, score)| (treap, RankKey { score, edge }))
    }

    /// Top-`k` owned edges under `family` at threshold `tau`, ranked by
    /// [`ScoredEdge::ranking_cmp`] (score desc, edge asc — the same total
    /// order every component-based query uses, so per-shard answers merge
    /// byte-identically): a walk of the family's ranked list. Only
    /// positive scores are reported. Panics on `tau == 0` or
    /// [`Family::Component`] (served by the index, not the suite).
    #[must_use]
    pub fn query(&self, family: Family, k: usize, tau: u32) -> Vec<ScoredEdge> {
        assert!(tau >= 1, "component size threshold must be at least 1");
        let _span = esd_telemetry::span(esd_telemetry::Stage::FamilyQuery);
        let out = match family {
            Family::Truss => self.truss.top_k(k, tau),
            Family::ParameterFree => self.pf.top_k(k),
            Family::EgoBetweenness => self.betweenness.top_k(k),
            Family::Component => panic!("component queries are served by MaintainedIndex"),
        };
        esd_telemetry::add(esd_telemetry::Metric::FamilyQueries, 1);
        out
    }
}

/// Independent recompute oracles for the differential agreement harness.
///
/// Each oracle scores one edge from a **static** [`Graph`] through a code
/// path disjoint from the maintained kernels: the truss oracle materialises
/// the ego subgraph and runs the full bucket-peeling
/// [`truss_decomposition`](esd_graph::truss::truss_decomposition); the
/// betweenness oracle sums Brandes
/// [`edge_betweenness`](esd_graph::betweenness::edge_betweenness) over the
/// ego subgraph; the parameter-free oracle goes through the component
/// machinery of [`crate::score`]. Agreement between a maintained
/// [`FamilySuite`] and these oracles is therefore evidence the cheap
/// kernels compute the definitions, not merely themselves.
pub mod oracle {
    use super::{tau_star, Family, ScoredEdge};
    use crate::score::{component_sizes, naive_topk, score_from_sizes};
    use esd_graph::{Graph, VertexId};

    /// Materialises the ego subgraph `G_{N(uv)}` (induced on the common
    /// neighbourhood) as a standalone graph with local vertex ids.
    fn ego_subgraph(g: &Graph, u: VertexId, v: VertexId) -> Graph {
        let members = g.common_neighbors(u, v);
        esd_graph::subgraph::induced(g, &members).0
    }

    /// Sorted multiset of per-component 3-truss core sizes of the ego
    /// network, via full truss decomposition: a vertex is in the core iff
    /// it is incident to an edge of trussness ≥ 3.
    #[must_use]
    pub fn truss_core_sizes(g: &Graph, u: VertexId, v: VertexId) -> Vec<u32> {
        let ego = ego_subgraph(g, u, v);
        let trussness = esd_graph::truss::truss_decomposition(&ego);
        let mut in_core = vec![false; ego.num_vertices()];
        for (eid, e) in ego.edges().iter().enumerate() {
            if trussness[eid] >= 3 {
                in_core[e.u as usize] = true;
                in_core[e.v as usize] = true;
            }
        }
        let (labels, sizes) = esd_graph::traversal::connected_components(&ego);
        let mut cores = vec![0u32; sizes.len()];
        for (x, &l) in labels.iter().enumerate() {
            if in_core[x] {
                cores[l as usize] += 1;
            }
        }
        cores.retain(|&c| c > 0);
        cores.sort_unstable();
        cores
    }

    /// Truss-based diversity of `(u, v)` at threshold `tau`.
    #[must_use]
    pub fn truss_score(g: &Graph, u: VertexId, v: VertexId, tau: u32) -> u32 {
        score_from_sizes(&truss_core_sizes(g, u, v), tau)
    }

    /// Parameter-free diversity of `(u, v)`: the component score at
    /// `τ*(e)`, computed through the static component machinery.
    #[must_use]
    pub fn parameter_free_score(g: &Graph, u: VertexId, v: VertexId) -> u32 {
        let members = g.common_neighbors(u, v);
        score_from_sizes(&component_sizes(g, u, v), tau_star(members.len()))
    }

    /// Ego-betweenness mass of `(u, v)`: Brandes edge betweenness summed
    /// over the ego subgraph, rounded back to the exact integer it equals
    /// (`Σ_{s<t connected} d(s, t)`).
    #[must_use]
    pub fn ego_betweenness_score(g: &Graph, u: VertexId, v: VertexId) -> u32 {
        let ego = ego_subgraph(g, u, v);
        let total: f64 = esd_graph::betweenness::edge_betweenness(&ego).iter().sum();
        let mass = total.round();
        if mass >= f64::from(u32::MAX) {
            u32::MAX
        } else {
            mass as u32
        }
    }

    /// One edge's score under any family at threshold `tau`.
    #[must_use]
    pub fn score(g: &Graph, family: Family, u: VertexId, v: VertexId, tau: u32) -> u32 {
        match family {
            Family::Component => crate::score::edge_score(g, u, v, tau),
            Family::Truss => truss_score(g, u, v, tau),
            Family::ParameterFree => parameter_free_score(g, u, v),
            Family::EgoBetweenness => ego_betweenness_score(g, u, v),
        }
    }

    /// Reference top-k under any family: score every edge through the
    /// oracle, keep positives, rank by [`ScoredEdge::ranking_cmp`].
    #[must_use]
    pub fn topk(g: &Graph, family: Family, k: usize, tau: u32) -> Vec<ScoredEdge> {
        assert!(tau >= 1, "component size threshold must be at least 1");
        if family == Family::Component {
            return naive_topk(g, k, tau);
        }
        let mut scored: Vec<ScoredEdge> = g
            .edges()
            .iter()
            .map(|&edge| ScoredEdge {
                edge,
                score: score(g, family, edge.u, edge.v, tau),
            })
            .filter(|s| s.score > 0)
            .collect();
        scored.sort_by(ScoredEdge::ranking_cmp);
        scored.truncate(k);
        scored
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::fig1;
    use esd_graph::generators;
    use std::ops::RangeInclusive;

    fn suite_and_graph(seed: u64) -> (FamilySuite, Graph) {
        let g = generators::clique_overlap(80, 60, 4, seed);
        (FamilySuite::new(&g), g)
    }

    #[test]
    fn family_names_round_trip() {
        for f in Family::ALL {
            assert_eq!(Family::parse(f.name()), Some(f));
        }
        assert_eq!(Family::parse("pf"), Some(Family::ParameterFree));
        assert_eq!(Family::parse("betweenness"), Some(Family::EgoBetweenness));
        assert_eq!(Family::parse("nope"), None);
        assert_eq!(Family::default(), Family::Component);
    }

    #[test]
    fn truss_cores_round_trip_inline_and_boxed() {
        for sizes in [vec![], vec![3], vec![2, 5], vec![4, 4], vec![1, 1, 4]] {
            let inline = sizes.len() <= 2;
            let cores = TrussCores::new(sizes.clone());
            assert_eq!(matches!(cores, TrussCores::Inline(_)), inline);
            assert_eq!(cores.as_slice(), sizes);
        }
    }

    #[test]
    fn tau_star_is_ceil_sqrt() {
        for (h, expect) in [(0, 1), (1, 1), (2, 2), (4, 2), (5, 3), (9, 3), (10, 4)] {
            assert_eq!(tau_star(h), expect, "h={h}");
        }
    }

    /// Every maintained family's ranking equals the oracle's at every τ.
    fn assert_matches_oracles(
        suite: &FamilySuite,
        g: &Graph,
        taus: RangeInclusive<u32>,
        what: &str,
    ) {
        for tau in taus {
            for family in Family::MAINTAINED {
                assert_eq!(
                    suite.query(family, usize::MAX, tau),
                    oracle::topk(g, family, usize::MAX, tau),
                    "{what} {family} tau={tau}"
                );
            }
        }
    }

    #[test]
    fn kernels_agree_with_oracles_on_fig1() {
        let (g, _) = fig1();
        assert_matches_oracles(&FamilySuite::new(&g), &g, 1..=4, "fig1");
    }

    #[test]
    fn kernels_agree_with_oracles_on_surrogates() {
        for seed in [3, 17] {
            let (suite, g) = suite_and_graph(seed);
            assert_matches_oracles(&suite, &g, 1..=3, &format!("seed={seed}"));
        }
    }

    #[test]
    fn truss_lower_bounds_component_and_pf_matches_tau_star() {
        let (_, g) = suite_and_graph(11);
        for e in g.edges() {
            for tau in 1..=4 {
                assert!(
                    oracle::truss_score(&g, e.u, e.v, tau)
                        <= crate::score::edge_score(&g, e.u, e.v, tau),
                    "truss exceeds component at {e:?} tau={tau}"
                );
            }
            let h = g.common_neighbors(e.u, e.v).len();
            assert_eq!(
                oracle::parameter_free_score(&g, e.u, e.v),
                crate::score::edge_score(&g, e.u, e.v, tau_star(h)),
                "pf disagrees with component at tau* for {e:?}"
            );
        }
    }

    #[test]
    fn apply_matches_rebuild_under_churn() {
        let (mut suite, g) = suite_and_graph(5);
        let mut dg = DynamicGraph::from_graph(&g);
        let edges = dg.edges();
        // A window mixing removals, duplicate inserts, and fresh inserts.
        let updates = vec![
            GraphUpdate::Remove(edges[0].u, edges[0].v),
            GraphUpdate::Remove(edges[7].u, edges[7].v),
            GraphUpdate::Insert(0, 79),
            GraphUpdate::Insert(edges[3].u, edges[3].v), // duplicate
            GraphUpdate::Insert(1, 200),                 // fresh vertex
        ];
        for u in &updates {
            let (a, b) = u.endpoints();
            if u.is_insert() {
                dg.ensure_vertex(a);
                dg.ensure_vertex(b);
                dg.insert_edge(a, b);
            } else {
                dg.remove_edge(a, b);
            }
        }
        for threads in [1, 3] {
            let mut maintained = suite.clone();
            let report = maintained.apply(&dg, &updates, threads);
            assert!(report.affected >= report.recomputed);
            assert_eq!(
                maintained,
                FamilySuite::rebuild(&dg, EdgeOwnership::ALL),
                "threads={threads}"
            );
        }
        suite.apply(&dg, &updates, 2);
        assert_eq!(suite.len(), dg.num_edges());
    }

    /// Truss core sizes {3, 5} come from a triangle with a pendant tail in
    /// the common neighbourhood of (0, 1) and from a K7. Inserting (3, 5)
    /// closes a second triangle, so core size 4 appears strictly between
    /// them and `H(4)` is seeded from `H(5)`; removing (3, 5) reaps it.
    #[test]
    fn truss_lists_seed_and_reap_a_size_between_existing_ones() {
        let mut edges = vec![(0, 1), (2, 3), (2, 4), (3, 4), (2, 5)];
        for w in 2..=5 {
            edges.extend([(0, w), (1, w)]);
        }
        for a in 10..17 {
            edges.extend((a + 1..17).map(|b| (a, b)));
        }
        let g = Graph::from_edges(17, &edges);
        let mut suite = FamilySuite::new(&g);
        let mut dg = DynamicGraph::from_graph(&g);
        let truss_sizes = |s: &FamilySuite| s.truss.refcounts.keys().copied().collect::<Vec<_>>();
        assert_eq!(truss_sizes(&suite), [3, 5]);
        for (update, sizes) in [
            (GraphUpdate::Insert(3, 5), [3, 4, 5].as_slice()),
            (GraphUpdate::Remove(3, 5), [3, 5].as_slice()),
        ] {
            if update.is_insert() {
                dg.insert_edge(3, 5);
            } else {
                dg.remove_edge(3, 5);
            }
            suite.apply(&dg, &[update], 1);
            let what = format!("{update:?}");
            assert_eq!(truss_sizes(&suite), sizes, "{what}");
            assert_eq!(
                suite,
                FamilySuite::rebuild(&dg, EdgeOwnership::ALL),
                "{what}"
            );
            assert_matches_oracles(
                &suite,
                &dg.to_graph(),
                1..=sizes[sizes.len() - 1] + 1,
                &what,
            );
        }
    }

    #[test]
    fn owned_suites_partition_the_full_suite() {
        let (full, g) = suite_and_graph(23);
        let shards = 3;
        let parts: Vec<FamilySuite> = (0..shards)
            .map(|i| FamilySuite::new_owned(&g, EdgeOwnership::of(i, shards)))
            .collect();
        assert_eq!(
            parts.iter().map(FamilySuite::len).sum::<usize>(),
            full.len()
        );
        // Merging per-shard rankings under the total order reproduces the
        // full ranking.
        for family in Family::MAINTAINED {
            let mut merged: Vec<ScoredEdge> = parts
                .iter()
                .flat_map(|p| p.query(family, usize::MAX, 1))
                .collect();
            merged.sort_by(ScoredEdge::ranking_cmp);
            assert_eq!(merged, full.query(family, usize::MAX, 1), "{family}");
        }
    }

    #[test]
    fn query_respects_k_and_positivity() {
        let (suite, _) = suite_and_graph(29);
        for family in Family::MAINTAINED {
            let all = suite.query(family, usize::MAX, 1);
            assert!(all.iter().all(|s| s.score > 0));
            let top3 = suite.query(family, 3, 1);
            assert_eq!(top3, all[..all.len().min(3)]);
        }
    }

    #[test]
    #[should_panic(expected = "served by MaintainedIndex")]
    fn component_queries_are_refused() {
        let (suite, _) = suite_and_graph(1);
        let _ = suite.query(Family::Component, 5, 1);
    }
}
