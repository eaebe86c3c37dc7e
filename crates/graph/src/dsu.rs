//! Union-find (disjoint-set union) with union by rank and path compression.
//!
//! The internal-cycle detector reduces to "does the underlying undirected
//! multigraph of the internal subgraph contain a cycle", which is a forest
//! check: process edges through a union-find and report the first edge whose
//! endpoints are already connected.

/// Disjoint-set forest over `0..n`.
#[derive(Clone, Debug)]
pub struct UnionFind {
    parent: Vec<u32>,
    rank: Vec<u8>,
    components: usize,
}

impl UnionFind {
    /// Create `n` singleton sets.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
            rank: vec![0; n],
            components: n,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// `true` when the structure holds no elements.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Number of disjoint sets currently present.
    pub fn component_count(&self) -> usize {
        self.components
    }

    /// Representative of the set containing `x` (with path halving).
    pub fn find(&mut self, x: usize) -> usize {
        let mut x = x as u32;
        while self.parent[x as usize] != x {
            let gp = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = gp;
            x = gp;
        }
        x as usize
    }

    /// Merge the sets of `a` and `b`. Returns `false` if they were already
    /// in the same set (i.e. the edge `{a,b}` would close a cycle).
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (hi, lo) = if self.rank[ra] >= self.rank[rb] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[lo] = hi as u32;
        if self.rank[hi] == self.rank[lo] {
            self.rank[hi] += 1;
        }
        self.components -= 1;
        true
    }

    /// `true` if `a` and `b` are in the same set.
    pub fn connected(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }

    /// Shadow structural validation (debug builds only; release builds
    /// compile this to nothing). Checks the forest invariants a corrupted
    /// `union` would break: every parent pointer in range, rank strictly
    /// increasing along parent chains (union by rank plus path halving
    /// preserves this), and the cached component count equal to the number
    /// of roots. Run by [`UnionFind::components`] — it is already O(n), so
    /// the audit never changes its complexity.
    fn debug_validate(&self) {
        if !cfg!(debug_assertions) {
            return;
        }
        let n = self.parent.len();
        let mut roots = 0usize;
        for (i, &p) in self.parent.iter().enumerate() {
            debug_assert!(
                (p as usize) < n,
                "parent[{i}] = {p} out of range for universe of {n}"
            );
            if p as usize == i {
                roots += 1;
            } else {
                debug_assert!(
                    self.rank[p as usize] > self.rank[i],
                    "rank must strictly increase along parent chains: \
                     rank[{i}] = {} !< rank[{p}] = {}",
                    self.rank[i],
                    self.rank[p as usize]
                );
            }
        }
        debug_assert_eq!(
            roots, self.components,
            "cached component count diverged from the number of roots"
        );
    }

    /// The disjoint sets as explicit member lists, each member `x` written
    /// as `f(x)`, in a canonical order: members ascend within each set and
    /// sets are ordered by their smallest member. The output is therefore
    /// independent of the union sequence that produced the partition —
    /// callers (e.g. conflict-graph decomposition) can rely on it as a
    /// deterministic shard order. One pass sizes the sets, so each member
    /// list is allocated once, at its final size.
    pub fn components<T>(&mut self, mut f: impl FnMut(usize) -> T) -> Vec<Vec<T>> {
        self.debug_validate();
        let n = self.len();
        // slot[root] = position of that root's set in the output. The
        // sizing pass points every element straight at its root (ranks
        // still rise along every parent chain), so the filling pass reads
        // each root with one load.
        let mut slot = vec![u32::MAX; n];
        let mut sizes: Vec<usize> = Vec::with_capacity(self.components);
        for x in 0..n {
            let r = self.find(x);
            self.parent[x] = r as u32;
            if slot[r] == u32::MAX {
                slot[r] = sizes.len() as u32;
                sizes.push(0);
            }
            sizes[slot[r] as usize] += 1;
        }
        let mut sets: Vec<Vec<T>> = sizes.iter().map(|&len| Vec::with_capacity(len)).collect();
        for x in 0..n {
            sets[slot[self.parent[x] as usize] as usize].push(f(x));
        }
        sets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons() {
        let mut uf = UnionFind::new(4);
        assert_eq!(uf.component_count(), 4);
        for i in 0..4 {
            assert_eq!(uf.find(i), i);
        }
        assert!(!uf.connected(0, 1));
    }

    #[test]
    fn union_reduces_components() {
        let mut uf = UnionFind::new(5);
        assert!(uf.union(0, 1));
        assert!(uf.union(2, 3));
        assert_eq!(uf.component_count(), 3);
        assert!(uf.connected(0, 1));
        assert!(!uf.connected(1, 2));
        assert!(uf.union(1, 2));
        assert!(uf.connected(0, 3));
        assert_eq!(uf.component_count(), 2);
    }

    #[test]
    fn union_detects_cycle_edge() {
        let mut uf = UnionFind::new(3);
        assert!(uf.union(0, 1));
        assert!(uf.union(1, 2));
        // Closing edge of a triangle: endpoints already connected.
        assert!(!uf.union(2, 0));
        assert_eq!(uf.component_count(), 1);
    }

    #[test]
    fn large_chain_path_compression() {
        let n = 10_000;
        let mut uf = UnionFind::new(n);
        for i in 1..n {
            assert!(uf.union(i - 1, i));
        }
        assert_eq!(uf.component_count(), 1);
        assert!(uf.connected(0, n - 1));
    }

    #[test]
    fn empty_structure() {
        let mut uf = UnionFind::new(0);
        assert!(uf.is_empty());
        assert_eq!(uf.len(), 0);
        assert_eq!(uf.component_count(), 0);
        assert!(uf.components(|x| x).is_empty());
    }

    #[test]
    fn components_of_singletons() {
        let mut uf = UnionFind::new(3);
        assert_eq!(uf.components(|x| x), vec![vec![0], vec![1], vec![2]]);
        assert_eq!(uf.component_count(), 3);
    }

    #[test]
    fn components_single_element() {
        let mut uf = UnionFind::new(1);
        assert_eq!(uf.components(|x| x), vec![vec![0]]);
    }

    #[test]
    fn components_are_canonical_regardless_of_union_order() {
        // The same partition {0,3,4} {1,2} built two different ways.
        let mut a = UnionFind::new(5);
        a.union(3, 0);
        a.union(4, 3);
        a.union(2, 1);
        let mut b = UnionFind::new(5);
        b.union(1, 2);
        b.union(0, 4);
        b.union(4, 3);
        let expected = vec![vec![0, 3, 4], vec![1, 2]];
        assert_eq!(a.components(|x| x), expected);
        assert_eq!(b.components(|x| x), expected);
        assert_eq!(a.component_count(), 2);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "out of range")]
    fn shadow_validation_catches_corrupted_parent_pointers() {
        let mut uf = UnionFind::new(3);
        uf.parent[1] = 9; // dangling pointer past the universe
        let _ = uf.components(|x| x);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "component count diverged")]
    fn shadow_validation_catches_stale_component_count() {
        let mut uf = UnionFind::new(4);
        uf.union(0, 1);
        uf.components = 4; // stale cache: only 3 roots remain
        let _ = uf.components(|x| x);
    }

    #[test]
    fn components_map_members_into_exact_lists() {
        let mut uf = UnionFind::new(6);
        uf.union(5, 1);
        uf.union(3, 0);
        uf.union(1, 3);
        let sets = uf.components(|x| 10 * x);
        assert_eq!(sets, vec![vec![0, 10, 30, 50], vec![20], vec![40]]);
        assert!(sets.iter().all(|s| s.capacity() == s.len()));
        // Pointing every element at its root leaves the partition intact.
        assert_eq!(
            uf.components(|x| x),
            vec![vec![0, 1, 3, 5], vec![2], vec![4]]
        );
        assert!(uf.connected(0, 5) && !uf.connected(2, 4));
    }

    #[test]
    fn components_match_component_count() {
        let mut uf = UnionFind::new(8);
        uf.union(0, 7);
        uf.union(2, 5);
        uf.union(5, 6);
        let comps = uf.components(|x| x);
        assert_eq!(comps.len(), uf.component_count());
        let total: usize = comps.iter().map(|c| c.len()).sum();
        assert_eq!(total, uf.len());
    }
}
