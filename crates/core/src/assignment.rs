//! Wavelength assignments and their validation.
//!
//! The solving surface certifies every backend attempt with
//! [`WavelengthAssignment::is_valid`], one pass over the dipaths grouped
//! by color. Theorem 6 checks its merge with
//! [`WavelengthAssignment::first_violation`], which names the clash: it
//! buckets the family once into a flat per-arc [`ArcIndex`] (a counting
//! sort by arc, family order within a bucket) instead of building a `Vec`
//! per arc.

use dagwave_graph::{ArcId, Digraph};
use dagwave_paths::{ArcIndex, DipathFamily, PathId};

/// A wavelength (color) assignment for a dipath family: `colors[p]` is the
/// wavelength of dipath `p`. Valid when dipaths sharing an arc get distinct
/// wavelengths.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WavelengthAssignment {
    colors: Vec<usize>,
}

impl WavelengthAssignment {
    /// Wrap a raw color vector (one entry per dipath, in id order).
    pub fn new(colors: Vec<usize>) -> Self {
        WavelengthAssignment { colors }
    }

    /// The wavelength of dipath `p`.
    #[inline]
    pub fn color(&self, p: PathId) -> usize {
        self.colors[p.index()]
    }

    /// Raw color slice.
    pub fn colors(&self) -> &[usize] {
        &self.colors
    }

    /// Number of dipaths covered.
    pub fn len(&self) -> usize {
        self.colors.len()
    }

    /// `true` for the empty assignment.
    pub fn is_empty(&self) -> bool {
        self.colors.is_empty()
    }

    /// Number of distinct wavelengths used.
    pub fn num_colors(&self) -> usize {
        let Some(&max) = self.colors.iter().max() else {
            return 0;
        };
        // Colors are almost always dense from 0; a bitmap beats hashing.
        // The guard keeps pathological sparse palettes from over-allocating.
        if max < 2 * self.colors.len() {
            let mut seen = vec![false; max + 1];
            let mut count = 0;
            for &c in &self.colors {
                if !seen[c] {
                    seen[c] = true;
                    count += 1;
                }
            }
            count
        } else {
            let mut seen = std::collections::HashSet::new();
            for &c in &self.colors {
                seen.insert(c);
            }
            seen.len()
        }
    }

    /// Validate against an instance: two dipaths sharing an arc must have
    /// different wavelengths. This is the audit the solving surface stamps
    /// on every backend attempt, so it is one O(m + |P| + Σ|p|) pass: the
    /// dipaths are grouped by color (a counting sort over the colors
    /// renumbered densely, as [`Self::normalized`] numbers them) and each
    /// color class stamps its arcs with its number, so an arc its own class
    /// already stamped carries a clash. [`Self::first_violation`] names the
    /// offending dipaths.
    pub fn is_valid(&self, g: &Digraph, family: &DipathFamily) -> bool {
        let n = self.colors.len();
        if n != family.len() {
            return false;
        }
        let mut class = Vec::with_capacity(n);
        self.for_each_normalized(&mut Vec::new(), |_, c| class.push(c));
        // Counting sort: `next[c]` is where class `c`'s next dipath goes.
        let mut next = vec![0u32; n + 1];
        for &c in &class {
            next[c as usize + 1] += 1;
        }
        for c in 0..n {
            next[c + 1] += next[c];
        }
        let mut by_class = vec![0u32; n];
        for (p, &c) in class.iter().enumerate() {
            by_class[next[c as usize] as usize] = p as u32;
            next[c as usize] += 1;
        }
        let mut stamp = vec![0u32; g.arc_count()];
        by_class.into_iter().all(|p| {
            // Stamps start at 0, so class `c` stamps `c + 1`.
            let c = class[p as usize] + 1;
            family
                .path(PathId(p))
                .arcs()
                .iter()
                .all(|a| std::mem::replace(&mut stamp[a.index()], c) != c)
        })
    }

    /// First pair of same-colored conflicting dipaths, if any: the first
    /// arc (by id) carrying a clash, and on it the first pair in family
    /// order, found by a pairwise scan of each bucket.
    pub fn first_violation(&self, g: &Digraph, family: &DipathFamily) -> Option<(PathId, PathId)> {
        if self.colors.len() != family.len() {
            // Treat a length mismatch as a violation on the first dipath.
            return Some((PathId(0), PathId(0)));
        }
        let index = ArcIndex::build(g, family);
        for a in 0..index.arc_count() {
            let bucket = index.paths_through(ArcId::from_index(a));
            for (i, &p) in bucket.iter().enumerate() {
                for &q in &bucket[i + 1..] {
                    if self.colors[p as usize] == self.colors[q as usize] {
                        return Some((PathId(p), PathId(q)));
                    }
                }
            }
        }
        None
    }

    /// Renumber wavelengths to the dense range `0..num_colors()`, preserving
    /// the partition (first-seen order).
    pub fn normalized(&self) -> WavelengthAssignment {
        let mut colors = vec![0; self.colors.len()];
        self.for_each_normalized(&mut Vec::new(), |i, c| colors[i] = c as usize);
        WavelengthAssignment { colors }
    }

    /// Call `visit(i, c)` for every dipath `i` in id order, with `c` its
    /// color renumbered as [`Self::normalized`] numbers it. Certification
    /// groups dipaths by these numbers, and the decomposed merge and the
    /// workspace's table patch renumber each shard this way, passing one
    /// `table` across shards. A dense palette renumbers through
    /// that flat table, indexed by color; the guard [`Self::num_colors`]
    /// applies sends a sparse palette to a hash map instead, so a huge
    /// color never sizes the table.
    pub(crate) fn for_each_normalized(
        &self,
        table: &mut Vec<u32>,
        mut visit: impl FnMut(usize, u32),
    ) {
        let Some(&max) = self.colors.iter().max() else {
            return;
        };
        if max < 2 * self.colors.len() {
            table.clear();
            table.resize(max + 1, u32::MAX);
            let mut next = 0;
            for (i, &c) in self.colors.iter().enumerate() {
                if table[c] == u32::MAX {
                    table[c] = next;
                    next += 1;
                }
                visit(i, table[c]);
            }
        } else {
            let mut map = std::collections::HashMap::new();
            for (i, &c) in self.colors.iter().enumerate() {
                let next = map.len() as u32;
                visit(i, *map.entry(c).or_insert(next));
            }
        }
    }

    /// Dipaths per wavelength, indexed by normalized color.
    pub fn classes(&self) -> Vec<Vec<PathId>> {
        let norm = self.normalized();
        let mut classes = vec![Vec::new(); norm.num_colors()];
        for (i, &c) in norm.colors.iter().enumerate() {
            classes[c].push(PathId::from_index(i));
        }
        classes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagwave_graph::builder::from_edges;
    use dagwave_graph::VertexId;
    use dagwave_paths::Dipath;

    fn v(i: usize) -> VertexId {
        VertexId::from_index(i)
    }

    fn instance() -> (Digraph, DipathFamily) {
        let g = from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let mut f = DipathFamily::new();
        f.push(Dipath::from_vertices(&g, &[v(0), v(1), v(2)]).unwrap());
        f.push(Dipath::from_vertices(&g, &[v(1), v(2), v(3)]).unwrap());
        f.push(Dipath::from_vertices(&g, &[v(2), v(3)]).unwrap());
        (g, f)
    }

    #[test]
    fn valid_assignment_accepted() {
        let (g, f) = instance();
        // p0 conflicts p1 (arc 1→2); p1 conflicts p2 (arc 2→3); p0 ∥ p2.
        let w = WavelengthAssignment::new(vec![0, 1, 0]);
        assert!(w.is_valid(&g, &f));
        assert_eq!(w.num_colors(), 2);
        assert_eq!(w.color(PathId(1)), 1);
    }

    #[test]
    fn conflicting_assignment_rejected() {
        let (g, f) = instance();
        let w = WavelengthAssignment::new(vec![0, 0, 1]);
        assert!(!w.is_valid(&g, &f));
        assert_eq!(w.first_violation(&g, &f), Some((PathId(0), PathId(1))));
    }

    #[test]
    fn length_mismatch_rejected() {
        let (g, f) = instance();
        let w = WavelengthAssignment::new(vec![0, 1]);
        assert!(!w.is_valid(&g, &f));
    }

    #[test]
    fn normalization_is_dense_and_consistent() {
        let w = WavelengthAssignment::new(vec![7, 3, 7, 9]);
        let n = w.normalized();
        assert_eq!(n.colors(), &[0, 1, 0, 2]);
        assert_eq!(n.num_colors(), 3);
        assert_eq!(w.num_colors(), 3);
        // Dense palettes renumber through the flat table (reused across
        // calls, whatever it held before), sparse ones through a map; both
        // number by first appearance.
        let mut table = vec![5; 40];
        for (colors, want) in [
            (vec![3, 1, 3, 0, 2], vec![0, 1, 0, 2, 3]),
            (vec![usize::MAX, 0, usize::MAX, 1 << 40], vec![0, 1, 0, 2]),
            (vec![1, 1], vec![0, 0]),
        ] {
            let mut got = vec![u32::MAX; colors.len()];
            WavelengthAssignment::new(colors.clone())
                .for_each_normalized(&mut table, |i, c| got[i] = c);
            assert_eq!(got, want, "{colors:?}");
        }
    }

    #[test]
    fn classes_partition_paths() {
        let w = WavelengthAssignment::new(vec![5, 2, 5]);
        let classes = w.classes();
        assert_eq!(classes.len(), 2);
        assert_eq!(classes[0], vec![PathId(0), PathId(2)]);
        assert_eq!(classes[1], vec![PathId(1)]);
    }

    #[test]
    fn empty_assignment() {
        let w = WavelengthAssignment::new(vec![]);
        assert!(w.is_empty());
        assert_eq!(w.num_colors(), 0);
        let g = Digraph::new();
        let f = DipathFamily::new();
        assert!(w.is_valid(&g, &f));
    }
}
