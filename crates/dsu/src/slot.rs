//! A slot-indexed union–find with component sizes.

/// Union–find over the slots `0..len` with union by size and path halving.
///
/// Each set tracks its cardinality, which is what the paper's `count` field
/// of `M_uv` records (the size of each connected component of the edge
/// ego-network).
///
/// # Examples
///
/// ```
/// use esd_dsu::SlotDsu;
///
/// let mut dsu = SlotDsu::new(5);
/// dsu.union(0, 1);
/// dsu.union(1, 2);
/// assert!(dsu.same_set(0, 2));
/// assert_eq!(dsu.size_of(2), 3);
/// assert_eq!(dsu.num_sets(), 3); // {0,1,2} {3} {4}
/// ```
#[derive(Debug, Clone)]
pub struct SlotDsu {
    pub(crate) parent: Vec<u32>,
    /// Valid only at roots: number of elements in the set.
    pub(crate) size: Vec<u32>,
    pub(crate) num_sets: usize,
}

impl SlotDsu {
    /// Creates `len` singleton sets.
    pub fn new(len: usize) -> Self {
        assert!(
            len <= u32::MAX as usize,
            "SlotDsu supports at most u32::MAX slots"
        );
        Self {
            parent: (0..len as u32).collect(),
            size: vec![1; len],
            num_sets: len,
        }
    }

    /// Number of slots managed by this structure.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True when the structure manages no slots.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Current number of disjoint sets.
    pub fn num_sets(&self) -> usize {
        self.num_sets
    }

    /// Returns the representative of `x`'s set, compressing paths by halving.
    pub fn find(&mut self, x: usize) -> usize {
        let mut x = x as u32;
        loop {
            let p = self.parent[x as usize];
            if p == x {
                return x as usize;
            }
            let gp = self.parent[p as usize];
            self.parent[x as usize] = gp;
            x = gp;
        }
    }

    /// Read-only find (no path compression); usable through a shared reference.
    pub fn find_const(&self, x: usize) -> usize {
        let mut x = x as u32;
        while self.parent[x as usize] != x {
            x = self.parent[x as usize];
        }
        x as usize
    }

    /// Merges the sets of `a` and `b`. Returns `true` if they were distinct.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (big, small) = if self.size[ra] >= self.size[rb] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small] = big as u32;
        self.size[big] += self.size[small];
        self.num_sets -= 1;
        true
    }

    /// True when `a` and `b` are currently in the same set.
    pub fn same_set(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }

    /// Size of the set containing `x`.
    pub fn size_of(&mut self, x: usize) -> u32 {
        let r = self.find(x);
        self.size[r]
    }

    /// True when `x` is currently a set representative.
    pub fn is_root(&self, x: usize) -> bool {
        self.parent[x] == x as u32
    }

    /// Size stored at `x`; meaningful only when [`Self::is_root`] holds.
    pub fn root_size(&self, x: usize) -> u32 {
        self.size[x]
    }

    /// Sorted multiset of all component sizes.
    pub fn component_sizes(&self) -> Vec<u32> {
        let mut sizes: Vec<u32> = (0..self.parent.len())
            .filter(|&x| self.is_root(x))
            .map(|x| self.size[x])
            .collect();
        sizes.sort_unstable();
        sizes
    }

    /// Resets every slot back to a singleton without reallocating.
    pub fn reset(&mut self) {
        for (i, p) in self.parent.iter_mut().enumerate() {
            *p = i as u32;
        }
        self.size.fill(1);
        self.num_sets = self.parent.len();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn singletons() {
        let mut dsu = SlotDsu::new(4);
        assert_eq!(dsu.num_sets(), 4);
        for i in 0..4 {
            assert_eq!(dsu.find(i), i);
            assert_eq!(dsu.size_of(i), 1);
        }
        assert_eq!(dsu.component_sizes(), vec![1, 1, 1, 1]);
    }

    #[test]
    fn empty() {
        let dsu = SlotDsu::new(0);
        assert!(dsu.is_empty());
        assert_eq!(dsu.num_sets(), 0);
        assert!(dsu.component_sizes().is_empty());
    }

    #[test]
    fn union_merges_sizes() {
        let mut dsu = SlotDsu::new(6);
        assert!(dsu.union(0, 1));
        assert!(dsu.union(2, 3));
        assert!(dsu.union(0, 2));
        assert!(!dsu.union(1, 3), "already merged");
        assert_eq!(dsu.size_of(3), 4);
        assert_eq!(dsu.num_sets(), 3);
        assert_eq!(dsu.component_sizes(), vec![1, 1, 4]);
    }

    #[test]
    fn self_union_is_noop() {
        let mut dsu = SlotDsu::new(3);
        assert!(!dsu.union(1, 1));
        assert_eq!(dsu.num_sets(), 3);
    }

    #[test]
    fn reset_restores_singletons() {
        let mut dsu = SlotDsu::new(5);
        dsu.union(0, 4);
        dsu.union(1, 2);
        dsu.reset();
        assert_eq!(dsu.num_sets(), 5);
        assert_eq!(dsu.component_sizes(), vec![1; 5]);
    }

    #[test]
    fn find_const_matches_find() {
        let mut dsu = SlotDsu::new(10);
        for i in 0..9 {
            dsu.union(i, i + 1);
        }
        for i in 0..10 {
            let c = dsu.find_const(i);
            assert_eq!(dsu.find(i), c);
        }
    }

    /// Naive model: partition refinement by explicit component labels.
    fn model_components(n: usize, unions: &[(usize, usize)]) -> Vec<usize> {
        let mut label: Vec<usize> = (0..n).collect();
        for &(a, b) in unions {
            let (la, lb) = (label[a], label[b]);
            if la != lb {
                for l in &mut label {
                    if *l == lb {
                        *l = la;
                    }
                }
            }
        }
        label
    }

    proptest! {
        #[test]
        fn matches_naive_partition(n in 1usize..40, ops in prop::collection::vec((0usize..40, 0usize..40), 0..120)) {
            let ops: Vec<(usize, usize)> = ops.into_iter()
                .map(|(a, b)| (a % n, b % n))
                .collect();
            let mut dsu = SlotDsu::new(n);
            for &(a, b) in &ops {
                dsu.union(a, b);
            }
            let labels = model_components(n, &ops);
            for a in 0..n {
                for b in 0..n {
                    prop_assert_eq!(dsu.same_set(a, b), labels[a] == labels[b]);
                }
            }
            // Sizes must agree with the label multiplicities.
            for a in 0..n {
                let model_size = labels.iter().filter(|&&l| l == labels[a]).count() as u32;
                prop_assert_eq!(dsu.size_of(a), model_size);
            }
            let distinct: std::collections::HashSet<usize> = labels.iter().copied().collect();
            prop_assert_eq!(dsu.num_sets(), distinct.len());
        }
    }
}
