//! Structural invariant auditing for the ESDIndex family.
//!
//! Every core structure exposes `validate()` returning a list of typed,
//! located violations instead of panicking — an empty list means every
//! invariant holds. Deeper `validate_against*` variants recompute ground
//! truth from the graph and report semantic divergence (wrong scores,
//! missing entries, a broken Theorem 3 bound), which pure structural checks
//! cannot see.
//!
//! | structure | validator | invariants |
//! |---|---|---|
//! | [`ScoreTreap`] | [`ScoreTreap::validate`] | arena bounds, acyclicity, heap order on key-hashed priorities, strict BST rank order, subtree sizes, free-list/slot accounting |
//! | [`EdgeComponents`] | [`EdgeComponents::validate`] | monotone offsets, ascending positive size multisets |
//! | [`EsdIndex`] | [`EsdIndex::validate`], [`EsdIndex::validate_against`] | ascending `C`, per-list treap soundness, list nesting `H(c') ⊆ H(c)`, score monotonicity; vs-graph: exact contents + Theorem 3 |
//! | [`FrozenEsdIndex`] | [`FrozenEsdIndex::validate`], [`FrozenEsdIndex::validate_against`] | same invariants on the flat layout |
//! | [`MaintainedIndex`] | [`MaintainedIndex::validate`], [`MaintainedIndex::validate_deep`] | graph soundness, forest well-formedness and coverage, refcounts, list/forest agreement; deep: forests vs true ego-network partitions |
//!
//! The `strict-invariants` cargo feature (always on in this crate's unit
//! tests) re-runs these validators at construction and maintenance
//! boundaries, panicking via [`assert_clean`] with the full report.

use crate::index::ostree::{priority_of, RankKey, ScoreTreap, NIL};
use crate::index::{EdgeComponents, EsdIndex, FrozenEsdIndex};
use crate::maintain::{ego_edges, EdgeDsu, MaintainedIndex};
use esd_graph::audit::GraphViolation;
use esd_graph::{Edge, Graph, VertexId};
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap};

pub use esd_graph::audit::assert_clean;

// ---------------------------------------------------------------------------
// ScoreTreap
// ---------------------------------------------------------------------------

/// One violated invariant of a [`ScoreTreap`], located by arena slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum TreapViolation {
    /// The root index is neither `NIL` nor a valid arena slot.
    RootOutOfBounds {
        /// The stored root index.
        root: u32,
    },
    /// A child pointer leaves the arena.
    ChildOutOfBounds {
        /// Parent slot holding the pointer.
        node: u32,
        /// The out-of-range child index.
        child: u32,
    },
    /// A slot is reachable through two paths (shared subtree or cycle).
    NodeRevisited {
        /// The slot reached twice.
        node: u32,
    },
    /// A child's priority exceeds its parent's (heap property broken).
    HeapOrder {
        /// Parent slot.
        parent: u32,
        /// Child slot with the larger priority.
        child: u32,
    },
    /// In-order traversal is not strictly rank-ascending at this node.
    BstOrder {
        /// The slot whose key does not follow its in-order predecessor.
        node: u32,
    },
    /// A cached subtree size disagrees with the recomputed count.
    SubtreeSizeMismatch {
        /// The slot with the stale size.
        node: u32,
        /// Cached size.
        stored: u32,
        /// Recomputed size.
        actual: u32,
    },
    /// `len` disagrees with the number of reachable nodes.
    LenMismatch {
        /// Cached length.
        stored: usize,
        /// Reachable node count.
        actual: usize,
    },
    /// A free-list entry is outside the arena.
    FreeSlotOutOfBounds {
        /// The out-of-range free-list entry.
        slot: u32,
    },
    /// A slot is simultaneously reachable and on the free list.
    FreeSlotReachable {
        /// The doubly-owned slot.
        slot: u32,
    },
    /// A slot appears twice on the free list.
    FreeSlotDuplicate {
        /// The repeated slot.
        slot: u32,
    },
    /// A slot is neither reachable nor free (leaked).
    SlotLeak {
        /// The orphaned slot.
        slot: u32,
    },
}

impl std::fmt::Display for TreapViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::RootOutOfBounds { root } => write!(f, "root index {root} out of bounds"),
            Self::ChildOutOfBounds { node, child } => {
                write!(f, "node {node} has out-of-bounds child {child}")
            }
            Self::NodeRevisited { node } => {
                write!(
                    f,
                    "node {node} is reachable twice (cycle or shared subtree)"
                )
            }
            Self::HeapOrder { parent, child } => {
                write!(
                    f,
                    "heap order broken: child {child} outranks parent {parent}"
                )
            }
            Self::BstOrder { node } => write!(f, "in-order rank sequence breaks at node {node}"),
            Self::SubtreeSizeMismatch {
                node,
                stored,
                actual,
            } => {
                write!(
                    f,
                    "node {node} caches subtree size {stored}, recount gives {actual}"
                )
            }
            Self::LenMismatch { stored, actual } => {
                write!(f, "len is {stored} but {actual} nodes are reachable")
            }
            Self::FreeSlotOutOfBounds { slot } => {
                write!(f, "free-list entry {slot} out of bounds")
            }
            Self::FreeSlotReachable { slot } => {
                write!(f, "slot {slot} is both reachable and free")
            }
            Self::FreeSlotDuplicate { slot } => write!(f, "slot {slot} freed twice"),
            Self::SlotLeak { slot } => write!(f, "slot {slot} neither reachable nor free"),
        }
    }
}

impl ScoreTreap {
    /// Audits every structural invariant of the treap arena; returns all
    /// violations found (empty = sound). `O(n)`.
    pub fn validate(&self) -> Vec<TreapViolation> {
        let mut out = Vec::new();
        let n = self.nodes.len();
        // 0 = unseen, 1 = reachable, 2 = free.
        let mut state = vec![0u8; n];

        if self.root != NIL && self.root as usize >= n {
            out.push(TreapViolation::RootOutOfBounds { root: self.root });
            return out;
        }

        // Reachability sweep: child bounds, revisits, heap order.
        let mut reachable = 0usize;
        let mut tree_sound = true;
        if self.root != NIL {
            state[self.root as usize] = 1;
            reachable = 1;
            let mut stack = vec![self.root];
            while let Some(t) = stack.pop() {
                let node = self.nodes[t as usize];
                for child in [node.left, node.right] {
                    if child == NIL {
                        continue;
                    }
                    if child as usize >= n {
                        out.push(TreapViolation::ChildOutOfBounds { node: t, child });
                        tree_sound = false;
                        continue;
                    }
                    if state[child as usize] == 1 {
                        out.push(TreapViolation::NodeRevisited { node: child });
                        tree_sound = false;
                        continue;
                    }
                    if priority_of(&self.nodes[child as usize].key) > priority_of(&node.key) {
                        out.push(TreapViolation::HeapOrder { parent: t, child });
                    }
                    state[child as usize] = 1;
                    reachable += 1;
                    stack.push(child);
                }
            }
        }
        if self.len != reachable {
            out.push(TreapViolation::LenMismatch {
                stored: self.len,
                actual: reachable,
            });
        }

        // Order checks need an actual tree; a cyclic or out-of-bounds shape
        // is already reported above.
        if tree_sound && self.root != NIL {
            // In-order walk: keys strictly rank-ascending.
            let mut stack = Vec::new();
            let mut t = self.root;
            let mut prev: Option<RankKey> = None;
            while t != NIL || !stack.is_empty() {
                while t != NIL {
                    stack.push(t);
                    t = self.nodes[t as usize].left;
                }
                let cur = stack.pop().expect("non-empty stack");
                let key = self.nodes[cur as usize].key;
                if let Some(p) = prev {
                    if p.cmp(&key) != Ordering::Less {
                        out.push(TreapViolation::BstOrder { node: cur });
                    }
                }
                prev = Some(key);
                t = self.nodes[cur as usize].right;
            }

            // Post-order recount of every cached subtree size.
            let mut actual = vec![0u32; n];
            let size_of = |t: u32, actual: &[u32]| if t == NIL { 0 } else { actual[t as usize] };
            let mut stack = vec![(self.root, false)];
            while let Some((node, expanded)) = stack.pop() {
                let nd = self.nodes[node as usize];
                if expanded {
                    let count = 1 + size_of(nd.left, &actual) + size_of(nd.right, &actual);
                    actual[node as usize] = count;
                    if nd.size != count {
                        out.push(TreapViolation::SubtreeSizeMismatch {
                            node,
                            stored: nd.size,
                            actual: count,
                        });
                    }
                } else {
                    stack.push((node, true));
                    if nd.left != NIL {
                        stack.push((nd.left, false));
                    }
                    if nd.right != NIL {
                        stack.push((nd.right, false));
                    }
                }
            }
        }

        // Free-list accounting: in-bounds, disjoint from the tree, no
        // duplicates, and together with the tree covering every slot.
        for &slot in &self.free {
            if slot as usize >= n {
                out.push(TreapViolation::FreeSlotOutOfBounds { slot });
                continue;
            }
            match state[slot as usize] {
                1 => out.push(TreapViolation::FreeSlotReachable { slot }),
                2 => out.push(TreapViolation::FreeSlotDuplicate { slot }),
                _ => state[slot as usize] = 2,
            }
        }
        for (slot, &s) in state.iter().enumerate() {
            if s == 0 {
                out.push(TreapViolation::SlotLeak { slot: slot as u32 });
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// EdgeComponents
// ---------------------------------------------------------------------------

/// One violated invariant of an [`EdgeComponents`] table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ComponentsViolation {
    /// `offsets` does not start at 0.
    OffsetsStart {
        /// The first offset found.
        actual: usize,
    },
    /// `offsets[edge] > offsets[edge + 1]`.
    OffsetsNotMonotone {
        /// The edge id whose range is reversed.
        edge: usize,
    },
    /// The terminal offset does not equal the size array length.
    OffsetsTerminal {
        /// Expected terminal offset.
        expected: usize,
        /// Terminal offset found.
        actual: usize,
    },
    /// An edge's size multiset is not ascending.
    SizesNotSorted {
        /// The edge id.
        edge: usize,
        /// Position within the edge's slice where order breaks.
        position: usize,
    },
    /// A component size of 0 (components have at least one vertex).
    ZeroSize {
        /// The edge id.
        edge: usize,
        /// Position within the edge's slice.
        position: usize,
    },
}

impl std::fmt::Display for ComponentsViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::OffsetsStart { actual } => write!(f, "offsets must start at 0, found {actual}"),
            Self::OffsetsNotMonotone { edge } => write!(f, "offsets decrease at edge {edge}"),
            Self::OffsetsTerminal { expected, actual } => {
                write!(f, "terminal offset {actual}, size array holds {expected}")
            }
            Self::SizesNotSorted { edge, position } => {
                write!(f, "edge {edge} sizes not ascending at position {position}")
            }
            Self::ZeroSize { edge, position } => {
                write!(
                    f,
                    "edge {edge} has a zero component size at position {position}"
                )
            }
        }
    }
}

impl EdgeComponents {
    /// Audits the flat component-size table; returns all violations found
    /// (empty = sound). `O(total sizes)`.
    pub fn validate(&self) -> Vec<ComponentsViolation> {
        let mut out = Vec::new();
        if self.offsets.first() != Some(&0) && !self.offsets.is_empty() {
            out.push(ComponentsViolation::OffsetsStart {
                actual: self.offsets.first().copied().unwrap_or(usize::MAX),
            });
        }
        for (e, w) in self.offsets.windows(2).enumerate() {
            if w[0] > w[1] {
                out.push(ComponentsViolation::OffsetsNotMonotone { edge: e });
            }
        }
        if !self.offsets.is_empty() && self.offsets.last() != Some(&self.sizes.len()) {
            out.push(ComponentsViolation::OffsetsTerminal {
                expected: self.sizes.len(),
                actual: self.offsets.last().copied().unwrap_or(usize::MAX),
            });
        }
        if !out.is_empty() {
            // Slicing below would panic on corrupt offsets.
            return out;
        }
        for e in 0..self.num_edges() {
            let sizes = self.sizes_of(e);
            for (i, &s) in sizes.iter().enumerate() {
                if s == 0 {
                    out.push(ComponentsViolation::ZeroSize {
                        edge: e,
                        position: i,
                    });
                }
                if i > 0 && sizes[i - 1] > s {
                    out.push(ComponentsViolation::SizesNotSorted {
                        edge: e,
                        position: i,
                    });
                }
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Shared entry-diff machinery
// ---------------------------------------------------------------------------

type EntryMap = HashMap<Edge, u32>;

/// Differences between an expected and an actual `(edge -> score)` map,
/// sorted for deterministic reports.
struct EntryDiff {
    /// `(edge, expected_score)` present only in the expected map.
    missing: Vec<(Edge, u32)>,
    /// `(edge, actual_score)` present only in the actual map.
    unexpected: Vec<(Edge, u32)>,
    /// `(edge, expected_score, actual_score)` present in both, scores differ.
    wrong: Vec<(Edge, u32, u32)>,
}

fn diff_entries(expected: &EntryMap, actual: &EntryMap) -> EntryDiff {
    let mut diff = EntryDiff {
        missing: Vec::new(),
        unexpected: Vec::new(),
        wrong: Vec::new(),
    };
    for (&e, &s) in expected {
        match actual.get(&e) {
            None => diff.missing.push((e, s)),
            Some(&a) if a != s => diff.wrong.push((e, s, a)),
            Some(_) => {}
        }
    }
    for (&e, &s) in actual {
        if !expected.contains_key(&e) {
            diff.unexpected.push((e, s));
        }
    }
    diff.missing.sort_unstable();
    diff.unexpected.sort_unstable();
    diff.wrong.sort_unstable();
    diff
}

/// Checks the nesting chain over `(threshold, entry-map)` pairs ordered by
/// ascending threshold: each list must be a sub-multiset of its predecessor
/// with monotonically non-increasing scores. Violations are reported through
/// the `nested` / `monotone` constructors so each index flavour keeps its own
/// typed violation.
fn nesting_violations<V>(
    lists: &[(u32, EntryMap)],
    mut not_nested: impl FnMut(u32, Edge) -> V,
    mut not_monotone: impl FnMut(u32, Edge, u32, u32) -> V,
    out: &mut Vec<V>,
) {
    for pair in lists.windows(2) {
        let (_, ref lower) = pair[0];
        let (c_hi, ref higher) = pair[1];
        let mut entries: Vec<(&Edge, &u32)> = higher.iter().collect();
        entries.sort_unstable();
        for (&e, &score_hi) in entries {
            match lower.get(&e) {
                None => out.push(not_nested(c_hi, e)),
                Some(&score_lo) if score_lo < score_hi => {
                    out.push(not_monotone(c_hi, e, score_hi, score_lo));
                }
                Some(_) => {}
            }
        }
    }
}

// ---------------------------------------------------------------------------
// EsdIndex
// ---------------------------------------------------------------------------

/// One violated invariant of an [`EsdIndex`], located by list threshold.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum IndexViolation {
    /// `C` is not strictly ascending at this position.
    SizesNotAscending {
        /// Index into `C` (compared with its predecessor).
        position: usize,
    },
    /// `C` contains 0 (no component has zero vertices).
    ZeroThreshold {
        /// Index into `C`.
        position: usize,
    },
    /// The list array length differs from `|C|`.
    ListArityMismatch {
        /// `|C|`.
        sizes: usize,
        /// Number of lists stored.
        lists: usize,
    },
    /// A list's backing treap fails its own audit.
    Treap {
        /// The list's threshold `c`.
        threshold: u32,
        /// The underlying treap violation.
        inner: TreapViolation,
    },
    /// A stored entry carries score 0 (never indexed per the paper).
    ZeroScore {
        /// The list's threshold `c`.
        threshold: u32,
        /// The offending edge.
        edge: Edge,
    },
    /// `H(c')` holds an edge absent from the next smaller list `H(c)`.
    NotNested {
        /// The larger threshold `c'`.
        threshold: u32,
        /// The edge violating `H(c') ⊆ H(c)`.
        edge: Edge,
    },
    /// An edge's score increases with the threshold.
    ScoreNotMonotone {
        /// The larger threshold `c'`.
        threshold: u32,
        /// The edge.
        edge: Edge,
        /// Score at `c'`.
        score: u32,
        /// Smaller score found at the next smaller threshold.
        lower_score: u32,
    },
    /// `C` differs from the recomputed distinct-size set.
    DivergedSizes {
        /// Ground-truth `C`.
        expected: Vec<u32>,
        /// Stored `C`.
        actual: Vec<u32>,
    },
    /// A ground-truth entry is absent from its list.
    MissingEntry {
        /// The list's threshold.
        threshold: u32,
        /// The absent edge.
        edge: Edge,
        /// Its ground-truth score.
        score: u32,
    },
    /// A stored entry has no ground-truth counterpart.
    UnexpectedEntry {
        /// The list's threshold.
        threshold: u32,
        /// The spurious edge.
        edge: Edge,
        /// Its stored score.
        score: u32,
    },
    /// An entry's stored score differs from ground truth.
    WrongScore {
        /// The list's threshold.
        threshold: u32,
        /// The edge.
        edge: Edge,
        /// Ground-truth score.
        expected: u32,
        /// Stored score.
        actual: u32,
    },
    /// Total entries exceed the Theorem 3 space bound `Σ min(d_u, d_v)`.
    SpaceBoundExceeded {
        /// Total `(edge, list)` entries stored.
        entries: usize,
        /// The Theorem 3 bound.
        bound: u64,
    },
}

impl std::fmt::Display for IndexViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::SizesNotAscending { position } => {
                write!(f, "C not strictly ascending at position {position}")
            }
            Self::ZeroThreshold { position } => write!(f, "C contains 0 at position {position}"),
            Self::ListArityMismatch { sizes, lists } => {
                write!(f, "|C| = {sizes} but {lists} lists stored")
            }
            Self::Treap { threshold, inner } => write!(f, "H({threshold}): {inner}"),
            Self::ZeroScore { threshold, edge } => {
                write!(f, "H({threshold}): entry {edge} has score 0")
            }
            Self::NotNested { threshold, edge } => {
                write!(f, "H({threshold}): {edge} missing from the next smaller list")
            }
            Self::ScoreNotMonotone { threshold, edge, score, lower_score } => write!(
                f,
                "H({threshold}): {edge} scores {score}, but only {lower_score} at the smaller threshold"
            ),
            Self::DivergedSizes { expected, actual } => {
                write!(f, "C diverged: expected {expected:?}, stored {actual:?}")
            }
            Self::MissingEntry { threshold, edge, score } => {
                write!(f, "H({threshold}): missing {edge} (score {score})")
            }
            Self::UnexpectedEntry { threshold, edge, score } => {
                write!(f, "H({threshold}): spurious {edge} (score {score})")
            }
            Self::WrongScore { threshold, edge, expected, actual } => {
                write!(f, "H({threshold}): {edge} scores {actual}, ground truth {expected}")
            }
            Self::SpaceBoundExceeded { entries, bound } => {
                write!(f, "{entries} entries exceed the Theorem 3 bound {bound}")
            }
        }
    }
}

/// Shared `C`-array checks for both index flavours.
fn sizes_violations<V>(
    sizes: &[u32],
    mut not_ascending: impl FnMut(usize) -> V,
    mut zero: impl FnMut(usize) -> V,
    out: &mut Vec<V>,
) {
    for (i, &c) in sizes.iter().enumerate() {
        if c == 0 {
            out.push(zero(i));
        }
        if i > 0 && sizes[i - 1] >= c {
            out.push(not_ascending(i));
        }
    }
}

impl EsdIndex {
    /// Audits the structural invariants of the index: ascending `C`, sound
    /// treaps, positive scores, list nesting and score monotonicity across
    /// thresholds. Returns all violations found (empty = sound).
    pub fn validate(&self) -> Vec<IndexViolation> {
        let mut out = Vec::new();
        sizes_violations(
            &self.sizes,
            |position| IndexViolation::SizesNotAscending { position },
            |position| IndexViolation::ZeroThreshold { position },
            &mut out,
        );
        if self.sizes.len() != self.lists.len() {
            out.push(IndexViolation::ListArityMismatch {
                sizes: self.sizes.len(),
                lists: self.lists.len(),
            });
            return out;
        }
        let mut maps: Vec<(u32, EntryMap)> = Vec::with_capacity(self.lists.len());
        for (&c, list) in self.sizes.iter().zip(&self.lists) {
            for v in list.validate() {
                out.push(IndexViolation::Treap {
                    threshold: c,
                    inner: v,
                });
            }
            let mut map = EntryMap::with_capacity(list.len());
            for s in list.iter_ranked() {
                if s.score == 0 {
                    out.push(IndexViolation::ZeroScore {
                        threshold: c,
                        edge: s.edge,
                    });
                }
                map.insert(s.edge, s.score);
            }
            maps.push((c, map));
        }
        nesting_violations(
            &maps,
            |threshold, edge| IndexViolation::NotNested { threshold, edge },
            |threshold, edge, score, lower_score| IndexViolation::ScoreNotMonotone {
                threshold,
                edge,
                score,
                lower_score,
            },
            &mut out,
        );
        out
    }

    /// [`EsdIndex::validate`] plus a full semantic audit against ground truth
    /// recomputed from `g` by per-edge BFS: exact `C`, exact list contents
    /// and scores, and the Theorem 3 space bound.
    pub fn validate_against(&self, g: &Graph) -> Vec<IndexViolation> {
        let mut out = self.validate();
        let comps = crate::index::build::components_by_bfs(g);
        let expected_sizes = crate::index::build::distinct_sizes(&comps);
        if expected_sizes != self.sizes {
            out.push(IndexViolation::DivergedSizes {
                expected: expected_sizes,
                actual: self.sizes.clone(),
            });
            return out;
        }
        for (&c, list) in self.sizes.iter().zip(&self.lists) {
            let mut expected = EntryMap::new();
            for (eid, e) in g.edges().iter().enumerate() {
                let score = comps.score_of(eid, c);
                if score > 0 {
                    expected.insert(*e, score);
                }
            }
            let actual: EntryMap = list
                .iter_ranked()
                .into_iter()
                .map(|s| (s.edge, s.score))
                .collect();
            let diff = diff_entries(&expected, &actual);
            for (edge, score) in diff.missing {
                out.push(IndexViolation::MissingEntry {
                    threshold: c,
                    edge,
                    score,
                });
            }
            for (edge, score) in diff.unexpected {
                out.push(IndexViolation::UnexpectedEntry {
                    threshold: c,
                    edge,
                    score,
                });
            }
            for (edge, expected, actual) in diff.wrong {
                out.push(IndexViolation::WrongScore {
                    threshold: c,
                    edge,
                    expected,
                    actual,
                });
            }
        }
        let bound = esd_graph::metrics::sum_min_degree(g);
        if self.total_entries() as u64 > bound {
            out.push(IndexViolation::SpaceBoundExceeded {
                entries: self.total_entries(),
                bound,
            });
        }
        out
    }
}

impl FrozenEsdIndex {
    /// Audits the flat layout: ascending `C`, monotone list offsets,
    /// canonical positively-scored entries, rank order within each list,
    /// nesting and score monotonicity across lists. Returns all violations
    /// found (empty = sound).
    pub fn validate(&self) -> Vec<IndexViolation> {
        let mut out = Vec::new();
        sizes_violations(
            &self.sizes,
            |position| IndexViolation::SizesNotAscending { position },
            |position| IndexViolation::ZeroThreshold { position },
            &mut out,
        );
        // Offsets: arity, start, monotone, terminal — reported through the
        // arity variant when the shape makes the lists unaddressable.
        let shape_ok = self.list_offsets.len() == self.sizes.len() + 1
            && self.list_offsets.first() == Some(&0)
            && self.list_offsets.windows(2).all(|w| w[0] <= w[1])
            && self.list_offsets.last() == Some(&self.entries.len());
        if !shape_ok {
            out.push(IndexViolation::ListArityMismatch {
                sizes: self.sizes.len(),
                lists: self.list_offsets.len().saturating_sub(1),
            });
            return out;
        }
        let mut maps: Vec<(u32, EntryMap)> = Vec::with_capacity(self.sizes.len());
        for (i, &c) in self.sizes.iter().enumerate() {
            let list = &self.entries[self.list_offsets[i]..self.list_offsets[i + 1]];
            let mut map = EntryMap::with_capacity(list.len());
            for (j, s) in list.iter().enumerate() {
                if s.edge.u >= s.edge.v {
                    // Located by treap-style slot: reuse ZeroScore shape via a
                    // dedicated variant would be clearer; report as NotNested
                    // is wrong — use WrongScore? Report as UnexpectedEntry.
                    out.push(IndexViolation::UnexpectedEntry {
                        threshold: c,
                        edge: s.edge,
                        score: s.score,
                    });
                    continue;
                }
                if s.score == 0 {
                    out.push(IndexViolation::ZeroScore {
                        threshold: c,
                        edge: s.edge,
                    });
                }
                if j > 0 {
                    let prev = list[j - 1];
                    let ranked =
                        prev.score > s.score || (prev.score == s.score && prev.edge < s.edge);
                    if !ranked {
                        out.push(IndexViolation::Treap {
                            threshold: c,
                            inner: TreapViolation::BstOrder {
                                node: (self.list_offsets[i] + j) as u32,
                            },
                        });
                    }
                }
                map.insert(s.edge, s.score);
            }
            maps.push((c, map));
        }
        nesting_violations(
            &maps,
            |threshold, edge| IndexViolation::NotNested { threshold, edge },
            |threshold, edge, score, lower_score| IndexViolation::ScoreNotMonotone {
                threshold,
                edge,
                score,
                lower_score,
            },
            &mut out,
        );
        out
    }

    /// [`FrozenEsdIndex::validate`] plus a full semantic audit against
    /// ground truth recomputed from `g`: exact `C`, exact list contents and
    /// scores, and the Theorem 3 space bound.
    pub fn validate_against(&self, g: &Graph) -> Vec<IndexViolation> {
        let mut out = self.validate();
        let comps = crate::index::build::components_by_bfs(g);
        let expected_sizes = crate::index::build::distinct_sizes(&comps);
        if expected_sizes != self.sizes {
            out.push(IndexViolation::DivergedSizes {
                expected: expected_sizes,
                actual: self.sizes.clone(),
            });
            return out;
        }
        for (i, &c) in self.sizes.iter().enumerate() {
            let mut expected = EntryMap::new();
            for (eid, e) in g.edges().iter().enumerate() {
                let score = comps.score_of(eid, c);
                if score > 0 {
                    expected.insert(*e, score);
                }
            }
            let list = &self.entries[self.list_offsets[i]..self.list_offsets[i + 1]];
            let actual: EntryMap = list.iter().map(|s| (s.edge, s.score)).collect();
            let diff = diff_entries(&expected, &actual);
            for (edge, score) in diff.missing {
                out.push(IndexViolation::MissingEntry {
                    threshold: c,
                    edge,
                    score,
                });
            }
            for (edge, score) in diff.unexpected {
                out.push(IndexViolation::UnexpectedEntry {
                    threshold: c,
                    edge,
                    score,
                });
            }
            for (edge, expected, actual) in diff.wrong {
                out.push(IndexViolation::WrongScore {
                    threshold: c,
                    edge,
                    expected,
                    actual,
                });
            }
        }
        let bound = esd_graph::metrics::sum_min_degree(g);
        if self.total_entries() as u64 > bound {
            out.push(IndexViolation::SpaceBoundExceeded {
                entries: self.total_entries(),
                bound,
            });
        }
        out
    }
}

// ---------------------------------------------------------------------------
// MaintainedIndex
// ---------------------------------------------------------------------------

/// One violated invariant of a [`MaintainedIndex`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MaintViolation {
    /// The underlying dynamic graph fails its own audit.
    Graph(GraphViolation),
    /// A forest is keyed by an edge absent from the graph.
    ForestForMissingEdge {
        /// The stray key.
        edge: Edge,
    },
    /// A forest with no members is stored (empty forests must be removed).
    EmptyForest {
        /// The edge owning the empty forest.
        edge: Edge,
    },
    /// An edge with a non-empty common neighbourhood has no forest.
    /// Only owned edges (per [`EdgeOwnership`](crate::maintain::EdgeOwnership))
    /// are required to be covered.
    MissingForest {
        /// The uncovered edge.
        edge: Edge,
    },
    /// A forest exists for an edge this index does not own.
    ForeignForest {
        /// The edge whose forest belongs to another ownership slice.
        edge: Edge,
    },
    /// A forest's member set differs from the edge's common neighbourhood.
    ForestMemberMismatch {
        /// The edge whose forest drifted.
        edge: Edge,
    },
    /// A parent pointer references an untracked vertex.
    ForestParentUntracked {
        /// The edge owning the forest.
        edge: Edge,
        /// The vertex with the stray pointer.
        vertex: VertexId,
        /// The untracked parent.
        parent: VertexId,
    },
    /// A parent chain does not terminate.
    ForestCycle {
        /// The edge owning the forest.
        edge: Edge,
        /// The vertex whose chain never reaches a root.
        vertex: VertexId,
    },
    /// A root's stored component size disagrees with the recomputed count.
    ForestRootSizeMismatch {
        /// The edge owning the forest.
        edge: Edge,
        /// The root vertex.
        root: VertexId,
        /// Stored size.
        stored: u32,
        /// Recomputed member count.
        actual: u32,
    },
    /// A forest's partition differs from the true ego-network connectivity
    /// (found only by [`MaintainedIndex::validate_deep`]).
    ForestPartitionDiverged {
        /// The edge whose forest merged or split the wrong components.
        edge: Edge,
    },
    /// A list's backing treap fails its own audit.
    Treap {
        /// The list's threshold `c`.
        threshold: u32,
        /// The underlying treap violation.
        inner: TreapViolation,
    },
    /// A refcount disagrees with the count recomputed from the forests.
    RefcountMismatch {
        /// The size `c`.
        threshold: u32,
        /// Stored refcount (0 when the key is missing).
        stored: usize,
        /// Recomputed refcount.
        actual: usize,
    },
    /// A list exists for a size with no refcount entry.
    ListWithoutRefcount {
        /// The orphaned list's threshold.
        threshold: u32,
    },
    /// A refcounted size has no list.
    RefcountWithoutList {
        /// The size missing its list.
        threshold: u32,
    },
    /// A forest-implied entry is absent from its list.
    MissingEntry {
        /// The list's threshold.
        threshold: u32,
        /// The absent edge.
        edge: Edge,
        /// Its forest-derived score.
        score: u32,
    },
    /// A stored entry has no forest-implied counterpart.
    UnexpectedEntry {
        /// The list's threshold.
        threshold: u32,
        /// The spurious edge.
        edge: Edge,
        /// Its stored score.
        score: u32,
    },
    /// An entry's stored score differs from the forest-derived score.
    WrongScore {
        /// The list's threshold.
        threshold: u32,
        /// The edge.
        edge: Edge,
        /// Forest-derived score.
        expected: u32,
        /// Stored score.
        actual: u32,
    },
}

impl std::fmt::Display for MaintViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Graph(v) => write!(f, "graph: {v}"),
            Self::ForestForMissingEdge { edge } => {
                write!(f, "forest stored for non-edge {edge}")
            }
            Self::EmptyForest { edge } => write!(f, "empty forest stored for {edge}"),
            Self::MissingForest { edge } => {
                write!(f, "{edge} has common neighbours but no forest")
            }
            Self::ForeignForest { edge } => {
                write!(f, "{edge} has a forest but is owned by another shard")
            }
            Self::ForestMemberMismatch { edge } => {
                write!(f, "forest of {edge} does not cover N(uv)")
            }
            Self::ForestParentUntracked {
                edge,
                vertex,
                parent,
            } => {
                write!(f, "forest of {edge}: {vertex} points at untracked {parent}")
            }
            Self::ForestCycle { edge, vertex } => {
                write!(f, "forest of {edge}: {vertex} sits on a parent cycle")
            }
            Self::ForestRootSizeMismatch {
                edge,
                root,
                stored,
                actual,
            } => write!(
                f,
                "forest of {edge}: root {root} stores size {stored}, chains give {actual}"
            ),
            Self::ForestPartitionDiverged { edge } => {
                write!(
                    f,
                    "forest of {edge} diverges from the true ego-network partition"
                )
            }
            Self::Treap { threshold, inner } => write!(f, "H({threshold}): {inner}"),
            Self::RefcountMismatch {
                threshold,
                stored,
                actual,
            } => {
                write!(
                    f,
                    "refcount[{threshold}] is {stored}, forests give {actual}"
                )
            }
            Self::ListWithoutRefcount { threshold } => {
                write!(f, "list H({threshold}) has no refcount entry")
            }
            Self::RefcountWithoutList { threshold } => {
                write!(f, "refcounted size {threshold} has no list")
            }
            Self::MissingEntry {
                threshold,
                edge,
                score,
            } => {
                write!(f, "H({threshold}): missing {edge} (score {score})")
            }
            Self::UnexpectedEntry {
                threshold,
                edge,
                score,
            } => {
                write!(f, "H({threshold}): spurious {edge} (score {score})")
            }
            Self::WrongScore {
                threshold,
                edge,
                expected,
                actual,
            } => {
                write!(
                    f,
                    "H({threshold}): {edge} scores {actual}, forests give {expected}"
                )
            }
        }
    }
}

/// Read-only root lookup in an [`EdgeDsu`]; `None` when the chain leaves the
/// tracked set or cycles.
fn forest_root(forest: &EdgeDsu, w: VertexId) -> Option<VertexId> {
    let mut cur = w;
    for _ in 0..=forest.nodes.len() {
        let &(p, _) = forest.nodes.get(&cur)?;
        if p == cur {
            return Some(cur);
        }
        cur = p;
    }
    None
}

impl MaintainedIndex {
    /// Audits the internal consistency of the maintained state: graph
    /// soundness, forest well-formedness and coverage, refcounts, and exact
    /// agreement between the lists and the forest-derived scores. Returns
    /// all violations found (empty = sound).
    ///
    /// This does **not** verify that each forest's partition matches the
    /// true ego-network connectivity — that requires recomputation; see
    /// [`MaintainedIndex::validate_deep`].
    pub fn validate(&self) -> Vec<MaintViolation> {
        let mut out: Vec<MaintViolation> = self
            .g
            .validate()
            .into_iter()
            .map(MaintViolation::Graph)
            .collect();
        let n = self.g.num_vertices();

        // Forest well-formedness, collecting each forest's size multiset.
        let mut edge_sizes: Vec<(Edge, Vec<u32>)> = Vec::with_capacity(self.forests.len());
        let mut forest_keys: Vec<u64> = self.forests.keys().copied().collect();
        forest_keys.sort_unstable();
        for key in forest_keys {
            let forest = &self.forests[&key];
            let e = Edge::from_key(key);
            if forest.nodes.is_empty() {
                out.push(MaintViolation::EmptyForest { edge: e });
                continue;
            }
            let in_graph = (e.u as usize) < n && (e.v as usize) < n && self.g.has_edge(e.u, e.v);
            if !in_graph {
                out.push(MaintViolation::ForestForMissingEdge { edge: e });
                continue;
            }
            let members = self.g.common_neighbors(e.u, e.v);
            let mut tracked: Vec<VertexId> = forest.nodes.keys().copied().collect();
            tracked.sort_unstable();
            if tracked != members {
                out.push(MaintViolation::ForestMemberMismatch { edge: e });
            }
            let mut chains_ok = true;
            let mut vertices: Vec<VertexId> = forest.nodes.keys().copied().collect();
            vertices.sort_unstable();
            for &w in &vertices {
                let (p, _) = forest.nodes[&w];
                if !forest.nodes.contains_key(&p) {
                    out.push(MaintViolation::ForestParentUntracked {
                        edge: e,
                        vertex: w,
                        parent: p,
                    });
                    chains_ok = false;
                }
            }
            if chains_ok {
                let mut counts: HashMap<VertexId, u32> = HashMap::new();
                for &w in &vertices {
                    match forest_root(forest, w) {
                        Some(r) => *counts.entry(r).or_insert(0) += 1,
                        None => {
                            out.push(MaintViolation::ForestCycle { edge: e, vertex: w });
                            chains_ok = false;
                        }
                    }
                }
                if chains_ok {
                    for &w in &vertices {
                        let (p, stored) = forest.nodes[&w];
                        if p == w {
                            let actual = counts.get(&w).copied().unwrap_or(0);
                            if stored != actual {
                                out.push(MaintViolation::ForestRootSizeMismatch {
                                    edge: e,
                                    root: w,
                                    stored,
                                    actual,
                                });
                            }
                        }
                    }
                }
            }
            edge_sizes.push((e, forest.component_sizes()));
        }

        // Coverage: every *owned* edge with common neighbours owns a
        // forest, and no forest exists for a non-owned edge.
        for e in self.g.edges() {
            if self.ownership.owns_key(e.key())
                && !self.forests.contains_key(&e.key())
                && !self.g.common_neighbors(e.u, e.v).is_empty()
            {
                out.push(MaintViolation::MissingForest { edge: e });
            }
        }
        let mut foreign: Vec<u64> = self
            .forests
            .keys()
            .copied()
            .filter(|&k| !self.ownership.owns_key(k))
            .collect();
        foreign.sort_unstable();
        for key in foreign {
            out.push(MaintViolation::ForeignForest {
                edge: Edge::from_key(key),
            });
        }

        // Refcounts recomputed from the forests.
        let mut expected_ref: BTreeMap<u32, usize> = BTreeMap::new();
        for (_, sizes) in &edge_sizes {
            for s in crate::index::ranked::distinct(sizes) {
                *expected_ref.entry(s).or_insert(0) += 1;
            }
        }
        for (&c, &actual) in &expected_ref {
            let stored = self.ranked.refcounts.get(&c).copied().unwrap_or(0);
            if stored != actual {
                out.push(MaintViolation::RefcountMismatch {
                    threshold: c,
                    stored,
                    actual,
                });
            }
        }
        for (&c, &stored) in &self.ranked.refcounts {
            if !expected_ref.contains_key(&c) {
                out.push(MaintViolation::RefcountMismatch {
                    threshold: c,
                    stored,
                    actual: 0,
                });
            }
        }

        // Key agreement between lists and refcounts.
        for &c in self.ranked.lists.keys() {
            if !self.ranked.refcounts.contains_key(&c) {
                out.push(MaintViolation::ListWithoutRefcount { threshold: c });
            }
        }
        for &c in self.ranked.refcounts.keys() {
            if !self.ranked.lists.contains_key(&c) {
                out.push(MaintViolation::RefcountWithoutList { threshold: c });
            }
        }

        // List contents vs forest-derived scores, plus treap soundness.
        for (&c, list) in &self.ranked.lists {
            for v in list.validate() {
                out.push(MaintViolation::Treap {
                    threshold: c,
                    inner: v,
                });
            }
            let mut expected = EntryMap::new();
            for (e, sizes) in &edge_sizes {
                let score = crate::score::score_from_sizes(sizes, c);
                if score > 0 {
                    expected.insert(*e, score);
                }
            }
            let actual: EntryMap = list
                .iter_ranked()
                .into_iter()
                .map(|s| (s.edge, s.score))
                .collect();
            let diff = diff_entries(&expected, &actual);
            for (edge, score) in diff.missing {
                out.push(MaintViolation::MissingEntry {
                    threshold: c,
                    edge,
                    score,
                });
            }
            for (edge, score) in diff.unexpected {
                out.push(MaintViolation::UnexpectedEntry {
                    threshold: c,
                    edge,
                    score,
                });
            }
            for (edge, expected, actual) in diff.wrong {
                out.push(MaintViolation::WrongScore {
                    threshold: c,
                    edge,
                    expected,
                    actual,
                });
            }
        }
        out
    }

    /// [`MaintainedIndex::validate`] plus a ground-truth connectivity check:
    /// every forest's partition is compared against a freshly computed
    /// partition of its ego-network. Together the two passes are equivalent
    /// in strength to a full from-scratch rebuild comparison.
    pub fn validate_deep(&self) -> Vec<MaintViolation> {
        let mut out = self.validate();
        let n = self.g.num_vertices();
        let mut forest_keys: Vec<u64> = self.forests.keys().copied().collect();
        forest_keys.sort_unstable();
        for key in forest_keys {
            let forest = &self.forests[&key];
            let e = Edge::from_key(key);
            let in_graph = (e.u as usize) < n && (e.v as usize) < n && self.g.has_edge(e.u, e.v);
            if !in_graph {
                continue; // already reported by validate()
            }
            let members = self.g.common_neighbors(e.u, e.v);
            let mut tracked: Vec<VertexId> = forest.nodes.keys().copied().collect();
            tracked.sort_unstable();
            if tracked != members {
                continue; // already reported by validate()
            }
            let pos: HashMap<VertexId, usize> =
                members.iter().enumerate().map(|(i, &w)| (w, i)).collect();
            let mut truth = esd_dsu::SlotDsu::new(members.len());
            for (w1, w2) in ego_edges(&self.g, &members) {
                truth.union(pos[&w1], pos[&w2]);
            }
            // The two partitions must induce the same equivalence: roots map
            // 1:1 between the forest and the recomputed truth.
            let mut forest_to_truth: HashMap<VertexId, usize> = HashMap::new();
            let mut truth_to_forest: HashMap<usize, VertexId> = HashMap::new();
            let mut diverged = false;
            for &w in &members {
                let Some(fr) = forest_root(forest, w) else {
                    diverged = false; // cycle already reported by validate()
                    break;
                };
                let tr = truth.find(pos[&w]);
                if *forest_to_truth.entry(fr).or_insert(tr) != tr
                    || *truth_to_forest.entry(tr).or_insert(fr) != fr
                {
                    diverged = true;
                    break;
                }
            }
            if diverged {
                out.push(MaintViolation::ForestPartitionDiverged { edge: e });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::fig1;
    use crate::index::ostree::Node;
    use esd_graph::generators;

    fn key(score: u32, a: u32, b: u32) -> RankKey {
        RankKey {
            score,
            edge: Edge::new(a, b),
        }
    }

    fn sample_treap() -> ScoreTreap {
        let mut t = ScoreTreap::new();
        for i in 0..30u32 {
            t.insert(key(i % 5 + 1, i, i + 1));
        }
        t.remove(&key(3, 2, 3));
        t
    }

    #[test]
    fn clean_treap_has_no_violations() {
        assert_eq!(ScoreTreap::new().validate(), Vec::new());
        assert_eq!(sample_treap().validate(), Vec::new());
    }

    #[test]
    fn treap_detects_size_corruption() {
        let mut t = sample_treap();
        let root = t.root as usize;
        t.nodes[root].size += 1;
        let v = t.validate();
        assert!(
            v.iter().any(|x| matches!(
                x,
                TreapViolation::SubtreeSizeMismatch { node, .. } if *node as usize == root
            )),
            "got {v:?}"
        );
    }

    #[test]
    fn treap_detects_len_corruption() {
        let mut t = sample_treap();
        t.len += 2;
        let v = t.validate();
        assert!(
            v.iter()
                .any(|x| matches!(x, TreapViolation::LenMismatch { .. })),
            "got {v:?}"
        );
    }

    #[test]
    fn treap_detects_heap_corruption() {
        let mut t = sample_treap();
        // Rotate the root's left child above it: rank order and subtree
        // sizes stay sound, but the old root now sits below a node of
        // lower priority.
        let root = t.root;
        let child = t.nodes[root as usize].left;
        assert_ne!(child, NIL, "sample treap has a left subtree");
        let lower = t.nodes[child as usize].right;
        let lower_size = if lower == NIL {
            0
        } else {
            t.nodes[lower as usize].size
        };
        let total = t.nodes[root as usize].size;
        t.nodes[root as usize].left = lower;
        t.nodes[root as usize].size -= t.nodes[child as usize].size - lower_size;
        t.nodes[child as usize].right = root;
        t.nodes[child as usize].size = total;
        t.root = child;
        let v = t.validate();
        assert_eq!(
            v,
            vec![TreapViolation::HeapOrder {
                parent: child,
                child: root
            }]
        );
    }

    #[test]
    fn treap_detects_bst_corruption() {
        let mut t = sample_treap();
        let root = t.root as usize;
        t.nodes[root].key = key(u32::MAX, 100, 101); // best possible rank, mid-tree
        let v = t.validate();
        assert!(
            v.iter()
                .any(|x| matches!(x, TreapViolation::BstOrder { .. })),
            "got {v:?}"
        );
    }

    #[test]
    fn treap_detects_cycle_and_arena_faults() {
        let mut t = sample_treap();
        let root = t.root;
        t.nodes[root as usize].right = root; // self-cycle
        let v = t.validate();
        assert!(
            v.contains(&TreapViolation::NodeRevisited { node: root }),
            "got {v:?}"
        );

        let mut t = sample_treap();
        let root = t.root;
        t.nodes[root as usize].left = 9999;
        let v = t.validate();
        assert!(
            v.contains(&TreapViolation::ChildOutOfBounds {
                node: root,
                child: 9999
            }),
            "got {v:?}"
        );

        let mut t = sample_treap();
        t.root = 9999;
        assert_eq!(
            t.validate(),
            vec![TreapViolation::RootOutOfBounds { root: 9999 }]
        );
    }

    #[test]
    fn treap_detects_free_list_faults() {
        let mut t = sample_treap();
        t.free.push(t.root);
        let v = t.validate();
        assert!(
            v.contains(&TreapViolation::FreeSlotReachable { slot: t.root }),
            "got {v:?}"
        );

        let mut t = sample_treap();
        let freed = t.free[0];
        t.free.push(freed);
        let v = t.validate();
        assert!(
            v.contains(&TreapViolation::FreeSlotDuplicate { slot: freed }),
            "got {v:?}"
        );

        let mut t = sample_treap();
        t.free.clear(); // the removed node's slot is now orphaned
        let v = t.validate();
        assert!(
            v.iter()
                .any(|x| matches!(x, TreapViolation::SlotLeak { .. })),
            "got {v:?}"
        );

        let mut t = sample_treap();
        t.free.push(40000);
        let v = t.validate();
        assert!(
            v.contains(&TreapViolation::FreeSlotOutOfBounds { slot: 40000 }),
            "got {v:?}"
        );

        // Dangling node beyond the free list (leak without a removal).
        let mut t = sample_treap();
        t.nodes.push(Node {
            key: key(1, 200, 201),
            left: NIL,
            right: NIL,
            size: 1,
        });
        let v = t.validate();
        assert!(
            v.contains(&TreapViolation::SlotLeak {
                slot: (t.nodes.len() - 1) as u32
            }),
            "got {v:?}"
        );
    }

    #[test]
    fn components_validate() {
        let (g, _) = fig1();
        let comps = EdgeComponents::by_bfs(&g);
        assert_eq!(comps.validate(), Vec::new());

        let mut bad = comps.clone();
        bad.offsets[1] = usize::MAX;
        let v = bad.validate();
        assert!(
            v.iter()
                .any(|x| matches!(x, ComponentsViolation::OffsetsNotMonotone { .. })),
            "got {v:?}"
        );

        let mut bad = comps.clone();
        bad.sizes[0] = 0;
        let v = bad.validate();
        assert!(
            v.iter()
                .any(|x| matches!(x, ComponentsViolation::ZeroSize { edge: 0, .. })),
            "got {v:?}"
        );

        // Find an edge with at least two components and swap to break order.
        let mut bad = comps.clone();
        let e = (0..bad.num_edges())
            .find(|&e| {
                let s = bad.sizes_of(e);
                s.len() >= 2 && s[0] != s[s.len() - 1]
            })
            .expect("fig1 has multi-component edges");
        let (lo, hi) = (bad.offsets[e], bad.offsets[e + 1] - 1);
        bad.sizes.swap(lo, hi);
        let v = bad.validate();
        assert!(
            v.iter()
                .any(|x| matches!(x, ComponentsViolation::SizesNotSorted { .. })),
            "got {v:?}"
        );
    }

    #[test]
    fn index_validate_clean_and_against_graph() {
        let (g, _) = fig1();
        let index = EsdIndex::build_fast(&g);
        assert_eq!(index.validate(), Vec::new());
        assert_eq!(index.validate_against(&g), Vec::new());
        let frozen = index.freeze();
        assert_eq!(frozen.validate(), Vec::new());
        assert_eq!(frozen.validate_against(&g), Vec::new());

        for seed in 0..3 {
            let g = generators::clique_overlap(60, 50, 5, seed);
            let index = EsdIndex::build_fast(&g);
            assert_eq!(index.validate_against(&g), Vec::new());
            assert_eq!(index.freeze().validate_against(&g), Vec::new());
        }
    }

    #[test]
    fn index_detects_unsorted_sizes_and_arity() {
        let (g, _) = fig1();
        let mut index = EsdIndex::build_fast(&g);
        index.sizes.swap(0, 1);
        let v = index.validate();
        assert!(
            v.iter()
                .any(|x| matches!(x, IndexViolation::SizesNotAscending { .. })),
            "got {v:?}"
        );

        let mut index = EsdIndex::build_fast(&g);
        index.lists.pop();
        let v = index.validate();
        assert!(
            v.iter()
                .any(|x| matches!(x, IndexViolation::ListArityMismatch { .. })),
            "got {v:?}"
        );
    }

    #[test]
    fn index_detects_broken_nesting() {
        let (g, _) = fig1();
        let mut index = EsdIndex::build_fast(&g);
        // Remove one H(5) edge from every smaller list: H(5) ⊄ H(4).
        let victim = index.lists.last().unwrap().iter_ranked()[0];
        for (i, &c) in index.sizes.clone().iter().enumerate().rev().skip(1) {
            let score = (0..victim.score + 10)
                .find(|&s| {
                    index.lists[i].contains(&RankKey {
                        score: s,
                        edge: victim.edge,
                    })
                })
                .expect("edge present in smaller lists");
            index.lists[i].remove(&RankKey {
                score,
                edge: victim.edge,
            });
            let _ = c;
        }
        let v = index.validate();
        assert!(
            v.iter().any(|x| matches!(
                x,
                IndexViolation::NotNested { edge, .. } if *edge == victim.edge
            )),
            "got {v:?}"
        );
    }

    #[test]
    fn index_validate_against_detects_score_drift() {
        let (g, _) = fig1();
        let mut index = EsdIndex::build_fast(&g);
        // Bump one entry's score in the last list.
        let victim = index.lists.last().unwrap().iter_ranked()[0];
        let last = index.lists.last_mut().unwrap();
        last.remove(&RankKey {
            score: victim.score,
            edge: victim.edge,
        });
        last.insert(RankKey {
            score: victim.score + 1,
            edge: victim.edge,
        });
        // Even the structural pass notices: the bumped score now exceeds the
        // edge's score at the next smaller threshold.
        let v = index.validate();
        assert!(
            v.iter().any(|x| matches!(
                x,
                IndexViolation::ScoreNotMonotone { edge, .. } if *edge == victim.edge
            )),
            "got {v:?}"
        );
        let v = index.validate_against(&g);
        assert!(
            v.iter().any(|x| matches!(
                x,
                IndexViolation::WrongScore { edge, .. } if *edge == victim.edge
            )),
            "got {v:?}"
        );
    }

    #[test]
    fn frozen_detects_corruption() {
        let (g, _) = fig1();
        let frozen = FrozenEsdIndex::build(&g);

        let mut bad = frozen.clone();
        bad.entries.swap(0, 1); // rank order within H(min C) breaks
        let v = bad.validate();
        assert!(
            v.iter().any(|x| matches!(x, IndexViolation::Treap { .. })),
            "got {v:?}"
        );

        let mut bad = frozen.clone();
        bad.entries[0].score = 0;
        let v = bad.validate();
        assert!(
            v.iter()
                .any(|x| matches!(x, IndexViolation::ZeroScore { .. })),
            "got {v:?}"
        );

        let mut bad = frozen.clone();
        bad.list_offsets[1] = bad.entries.len() + 7;
        let v = bad.validate();
        assert!(
            v.iter()
                .any(|x| matches!(x, IndexViolation::ListArityMismatch { .. })),
            "got {v:?}"
        );

        let mut bad = frozen.clone();
        let last = *bad.list_offsets.last().unwrap();
        let prev = bad.list_offsets[bad.list_offsets.len() - 2];
        // Drop the last list's entries without shrinking C: contents diverge.
        bad.entries.truncate(prev);
        *bad.list_offsets.last_mut().unwrap() = prev;
        let _ = last;
        let v = bad.validate_against(&g);
        assert!(
            v.iter()
                .any(|x| matches!(x, IndexViolation::MissingEntry { .. })),
            "got {v:?}"
        );
    }

    #[test]
    fn maintained_validate_clean() {
        let (g, _) = fig1();
        let index = MaintainedIndex::new(&g);
        assert_eq!(index.validate(), Vec::new());
        assert_eq!(index.validate_deep(), Vec::new());
    }

    #[test]
    fn maintained_detects_refcount_corruption() {
        let (g, _) = fig1();
        let mut index = MaintainedIndex::new(&g);
        let true_count = index.ranked.refcounts[&4];
        *index.ranked.refcounts.get_mut(&4).unwrap() += 3;
        let v = index.validate();
        assert!(
            v.contains(&MaintViolation::RefcountMismatch {
                threshold: 4,
                stored: true_count + 3,
                actual: true_count
            }),
            "got {v:?}"
        );
    }

    #[test]
    fn maintained_detects_list_key_divergence() {
        let (g, _) = fig1();
        let mut index = MaintainedIndex::new(&g);
        let treap = index.ranked.lists.remove(&4).unwrap();
        index.ranked.lists.insert(3, treap);
        let v = index.validate();
        assert!(
            v.contains(&MaintViolation::ListWithoutRefcount { threshold: 3 }),
            "got {v:?}"
        );
        assert!(
            v.contains(&MaintViolation::RefcountWithoutList { threshold: 4 }),
            "got {v:?}"
        );
    }

    #[test]
    fn maintained_detects_forest_faults() {
        let (g, _) = fig1();
        let mut index = MaintainedIndex::new(&g);
        let key = *index.forests.keys().next().unwrap();

        // Stray forest for a non-edge.
        let mut bad = index.clone();
        let forest = bad.forests[&key].clone();
        bad.forests.insert(Edge::new(0, 15).key(), forest);
        let v = bad.validate();
        assert!(
            v.iter()
                .any(|x| matches!(x, MaintViolation::ForestForMissingEdge { .. })
                    || matches!(x, MaintViolation::ForestMemberMismatch { .. })),
            "got {v:?}"
        );

        // Root size corruption.
        let forest = index.forests.get_mut(&key).unwrap();
        let root = {
            let mut vs: Vec<VertexId> = forest.nodes.keys().copied().collect();
            vs.sort_unstable();
            vs.into_iter()
                .find(|&w| forest.nodes[&w].0 == w)
                .expect("a root exists")
        };
        forest.nodes.get_mut(&root).unwrap().1 += 5;
        let v = index.validate();
        assert!(
            v.iter().any(|x| matches!(
                x,
                MaintViolation::ForestRootSizeMismatch { edge, .. } if edge.key() == key
            )),
            "got {v:?}"
        );
    }

    #[test]
    fn maintained_deep_detects_wrong_partition() {
        let (g, n) = fig1();
        let mut index = MaintainedIndex::new(&g);
        // (j, k)'s ego-network has components {h, i} and {u, v, p, q} in
        // Fig 1; merging them keeps every structural check locally sound at
        // the forest level except the partition itself.
        let key = Edge::new(n["j"], n["k"]).key();
        let forest = index.forests.get_mut(&key).unwrap();
        let mut roots: Vec<VertexId> = {
            let mut vs: Vec<VertexId> = forest.nodes.keys().copied().collect();
            vs.sort_unstable();
            vs.into_iter()
                .filter(|&w| forest.nodes[&w].0 == w)
                .collect()
        };
        assert_eq!(roots.len(), 2, "fig1 (j,k) has two components");
        let (a, b) = (roots.remove(0), roots.remove(0));
        let size_a = forest.nodes[&a].1;
        let size_b = forest.nodes[&b].1;
        forest.nodes.get_mut(&b).unwrap().0 = a;
        forest.nodes.get_mut(&a).unwrap().1 = size_a + size_b;
        // The shallow pass sees a self-consistent (but wrong) partition, so
        // it reports only the downstream list/refcount drift; the deep pass
        // pins the root cause.
        let v = index.validate_deep();
        assert!(
            v.contains(&MaintViolation::ForestPartitionDiverged {
                edge: Edge::new(n["j"], n["k"])
            }),
            "got {v:?}"
        );
    }

    #[test]
    fn maintained_detects_list_entry_drift() {
        let (g, _) = fig1();
        let mut index = MaintainedIndex::new(&g);
        let (&c, list) = index.ranked.lists.iter_mut().next().unwrap();
        let victim = list.iter_ranked()[0];
        list.remove(&RankKey {
            score: victim.score,
            edge: victim.edge,
        });
        let v = index.validate();
        assert!(
            v.contains(&MaintViolation::MissingEntry {
                threshold: c,
                edge: victim.edge,
                score: victim.score
            }),
            "got {v:?}"
        );
    }
}
