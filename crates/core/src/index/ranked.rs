//! The maintained `H(c)` lists (§IV-A), one shape for every query family
//! that ranks by a sorted size multiset: `MaintainedIndex` feeds them each
//! owned edge's ego-component sizes `C_uv`, `FamilySuite` each owned edge's
//! 3-truss core sizes.
//!
//! **Documented deviation from the paper** (see DESIGN.md): when an update
//! introduces a size `c ∉ C`, the fresh list `H(c)` is seeded as a clone of
//! its successor list `H(c')` before the updated edges are installed. The
//! paper's Example 7 inserts only the updated edge, which would leave `H(c)`
//! missing every edge of `H(c')` and break queries with `τ ≤ c`; cloning is
//! correct because no unaffected edge can have a size strictly between `c`
//! and `c'`.

use super::ostree::{RankKey, ScoreTreap};
use crate::score::score_from_sizes;
use crate::ScoredEdge;
use esd_graph::Edge;
use std::collections::BTreeMap;

/// `H(c)` per size `c ∈ C` plus the refcounts that define `C`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct RankedLists {
    /// `H(c)` per size `c ∈ C`.
    pub(crate) lists: BTreeMap<u32, ScoreTreap>,
    /// `c -> number of edges whose size multiset contains c`. Keys are
    /// exactly `C`.
    pub(crate) refcounts: BTreeMap<u32, usize>,
}

/// Calls `f` on every list `H(c)` with `c ≤ max(sizes)` — exactly the lists
/// an edge with the sorted multiset `sizes` belongs to — with the edge's
/// key there. `lists` yields `(c, list)` pairs in ascending `c`.
pub(crate) fn for_each_entry<'a, V: 'a>(
    lists: impl IntoIterator<Item = (&'a u32, &'a mut V)>,
    edge: Edge,
    sizes: &[u32],
    mut f: impl FnMut(u32, &mut V, RankKey),
) {
    let Some(&cmax) = sizes.last() else { return };
    for (&c, list) in lists.into_iter().take_while(|(&c, _)| c <= cmax) {
        let score = score_from_sizes(sizes, c);
        f(c, list, RankKey { score, edge });
    }
}

/// The distinct values of a sorted multiset.
pub(crate) fn distinct(sizes: &[u32]) -> impl Iterator<Item = u32> + '_ {
    sizes.chunk_by(|a, b| a == b).map(|run| run[0])
}

impl RankedLists {
    /// Builds the lists in bulk from each edge's sorted size multiset, each
    /// list with [`ScoreTreap::from_sorted`] over its gathered keys.
    pub(crate) fn build<'a, I>(edges: I) -> Self
    where
        I: IntoIterator<Item = (Edge, &'a [u32])> + Clone,
    {
        let mut refcounts: BTreeMap<u32, usize> = BTreeMap::new();
        for (_, sizes) in edges.clone() {
            for s in distinct(sizes) {
                *refcounts.entry(s).or_insert(0) += 1;
            }
        }
        let mut buffers: BTreeMap<u32, Vec<RankKey>> =
            refcounts.keys().map(|&c| (c, Vec::new())).collect();
        for (edge, sizes) in edges {
            for_each_entry(&mut buffers, edge, sizes, |_, buf, key| buf.push(key));
        }
        let lists = buffers
            .into_iter()
            .map(|(c, mut keys)| {
                keys.sort_unstable();
                (c, ScoreTreap::from_sorted(&keys))
            })
            .collect();
        Self { lists, refcounts }
    }

    /// Top-`k` of `H(c*)` for the smallest `c* ≥ tau`: every edge with a
    /// size ≥ `tau`, ranked by its count of such sizes.
    pub(crate) fn top_k(&self, k: usize, tau: u32) -> Vec<ScoredEdge> {
        let list = self.lists.range(tau..).next();
        list.map_or_else(Vec::new, |(_, list)| list.top_k(k))
    }

    /// Removes `edge`'s entries for its current multiset `sizes` and
    /// releases its refcounts. Sizes that fall to zero keep their lists
    /// until [`RankedLists::restore`], since the restored sizes may revive
    /// them. Returns the number of treap removals.
    pub(crate) fn retract(&mut self, edge: Edge, sizes: &[u32]) -> u64 {
        let mut removes = 0u64;
        for_each_entry(&mut self.lists, edge, sizes, |c, list, key| {
            let removed = list.remove(&key);
            debug_assert!(removed, "stale entry for {edge} in H({c})");
            removes += 1;
        });
        for s in distinct(sizes) {
            *self.refcounts.get_mut(&s).expect("refcounted size") -= 1;
        }
        removes
    }

    /// Installs the retracted edges with their new multisets: bumps the
    /// refcounts, reaps sizes no edge holds any more, seeds each new size's
    /// list from its successor (largest first), then inserts every entry.
    /// Returns the number of treap insertions.
    pub(crate) fn restore<'a, I>(&mut self, entries: I) -> u64
    where
        I: IntoIterator<Item = (Edge, &'a [u32])> + Clone,
    {
        for (_, sizes) in entries.clone() {
            for s in distinct(sizes) {
                *self.refcounts.entry(s).or_insert(0) += 1;
            }
        }
        let lists = &mut self.lists;
        self.refcounts.retain(|c, cnt| {
            if *cnt == 0 {
                lists.remove(c);
            }
            *cnt > 0
        });
        let fresh: Vec<u32> = self
            .refcounts
            .keys()
            .rev()
            .copied()
            .filter(|c| !self.lists.contains_key(c))
            .collect();
        for c in fresh {
            let successor = self.lists.range(c + 1..).next();
            let seeded = successor.map(|(_, list)| list.clone()).unwrap_or_default();
            self.lists.insert(c, seeded);
        }
        let mut inserts = 0u64;
        for (edge, sizes) in entries {
            for_each_entry(&mut self.lists, edge, sizes, |c, list, key| {
                let inserted = list.insert(key);
                debug_assert!(inserted, "duplicate entry for {edge} in H({c})");
                inserts += 1;
            });
        }
        inserts
    }
}
