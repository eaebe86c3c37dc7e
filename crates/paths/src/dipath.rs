//! Validated dipaths.
//!
//! A dipath is a non-empty sequence of arcs `e_1, …, e_k` with
//! `head(e_i) = tail(e_{i+1})` (paper, Section 2: a sequence of vertices
//! `x_1, …, x_k` such that each `(x_i, x_{i+1})` is an arc). Since the host
//! digraphs are DAGs, dipaths are automatically simple; construction
//! nevertheless verifies simplicity to catch generator bugs early.

use crate::error::PathError;
use crate::intern::{ArcList, ArcListArena};
use dagwave_graph::{ArcId, Digraph, VertexId};

/// Longest arc sequence whose simplicity [`Dipath::validate`] checks
/// pairwise (`O(k²)` compares, no allocation); longer ones use a `HashSet`.
pub const SHORT_PATH: usize = 32;

/// A non-empty contiguous arc sequence in some digraph.
///
/// The dipath stores arc ids only; endpoint queries take the digraph. Equality
/// is by arc sequence. The sequence lives in an [`ArcList`] — an immutable
/// shared allocation that an [`ArcListArena`] can deduplicate — so cloning a
/// dipath is a refcount bump and two dipaths interned through one arena can be
/// compared by pointer. The front-shrink/extend edit operations rebuild the
/// list (same asymptotics as the `Vec` shift they replaced: those edits are
/// O(len) either way).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Dipath {
    arcs: ArcList,
}

impl Dipath {
    /// Build from an arc id sequence, validating contiguity and simplicity
    /// ([`Dipath::validate`]).
    pub fn from_arcs(g: &Digraph, arcs: Vec<ArcId>) -> Result<Self, PathError> {
        Dipath::validate(g, &arcs)?;
        Ok(Dipath {
            arcs: ArcList::from_vec(arcs),
        })
    }

    /// The checks behind [`Dipath::from_arcs`], without building a dipath:
    /// `arcs` is non-empty, contiguous and simple in `g`. Every arc id must
    /// be in range for `g` (callers holding untrusted ids bound-check
    /// first).
    ///
    /// Errors name the first offence in sequence order: the first gap, or
    /// else the first vertex the walk revisits. Vertex `x_{i+1}` (the head
    /// of arc `i`) is checked against `x_1, …, x_{i+1}`, the tails of arcs
    /// `0..=i`. Paths up to [`SHORT_PATH`] arcs compare pairwise, which
    /// allocates nothing and beats hashing at that length; longer ones keep
    /// a `HashSet`. Both report the same vertex.
    pub fn validate(g: &Digraph, arcs: &[ArcId]) -> Result<(), PathError> {
        if arcs.is_empty() {
            return Err(PathError::Empty);
        }
        for w in arcs.windows(2) {
            if g.head(w[0]) != g.tail(w[1]) {
                return Err(PathError::NotContiguous {
                    prev: w[0],
                    next: w[1],
                });
            }
        }
        // Simplicity: k arcs visit k+1 distinct vertices.
        if arcs.len() <= SHORT_PATH {
            for (i, &a) in arcs.iter().enumerate() {
                let h = g.head(a);
                if arcs[..=i].iter().any(|&b| g.tail(b) == h) {
                    return Err(PathError::RepeatedVertex(h));
                }
            }
        } else {
            let mut seen = std::collections::HashSet::with_capacity(arcs.len() + 1);
            seen.insert(g.tail(arcs[0]));
            for &a in arcs {
                let h = g.head(a);
                if !seen.insert(h) {
                    return Err(PathError::RepeatedVertex(h));
                }
            }
        }
        Ok(())
    }

    /// Build from a vertex route `x_1, …, x_k`, picking the first arc between
    /// consecutive vertices (parallel arcs: use [`Dipath::from_arcs`] to pick
    /// specific copies).
    pub fn from_vertices(g: &Digraph, route: &[VertexId]) -> Result<Self, PathError> {
        if route.len() < 2 {
            return Err(PathError::Empty);
        }
        let mut arcs = Vec::with_capacity(route.len() - 1);
        for w in route.windows(2) {
            let a = g.find_arc(w[0], w[1]).ok_or(PathError::MissingArc {
                from: w[0],
                to: w[1],
            })?;
            arcs.push(a);
        }
        Dipath::from_arcs(g, arcs)
    }

    /// Build a single-arc dipath.
    pub fn single(arc: ArcId) -> Self {
        Dipath {
            arcs: ArcList::from_vec(vec![arc]),
        }
    }

    /// Build from an (already-interned) arc list the *caller* guarantees is
    /// contiguous and simple in `g` — the shard-extraction fast path, where
    /// the sequence is an index remap of an already-validated dipath coming
    /// straight out of the extraction scratch's arena, so re-running
    /// [`Dipath::validate`] per shard member would be pure overhead.
    /// Debug builds re-validate anyway (the shadow-check discipline);
    /// release builds trust the remap invariant.
    pub(crate) fn from_list_trusted(g: &Digraph, arcs: ArcList) -> Self {
        if cfg!(debug_assertions) {
            // lint: allow(no-panic): debug-only shadow re-validation of the remap invariant
            Dipath::validate(g, arcs.as_slice()).expect("trusted arc sequence re-validates");
        }
        let _ = g;
        Dipath { arcs }
    }

    /// Rebuild this dipath around a content-equal interned list — the arena
    /// adoption step ([`crate::PathFamily`] interns on insert).
    pub(crate) fn with_list(&self, list: ArcList) -> Dipath {
        debug_assert_eq!(
            self.arcs.as_slice(),
            list.as_slice(),
            "interned list must be content-equal"
        );
        Dipath { arcs: list }
    }

    /// Intern this dipath's arc list in `arena`, adopting the arena's shared
    /// handle when the content was seen before.
    pub fn intern_into(&mut self, arena: &mut ArcListArena) {
        self.arcs = arena.intern(self.arcs.clone());
    }

    /// The arc sequence.
    #[inline]
    pub fn arcs(&self) -> &[ArcId] {
        self.arcs.as_slice()
    }

    /// The interned arc-list handle (content fingerprint + shared
    /// allocation).
    #[inline]
    pub fn arc_list(&self) -> &ArcList {
        &self.arcs
    }

    /// The cached content fingerprint of the arc sequence.
    #[inline]
    pub fn fingerprint(&self) -> u64 {
        self.arcs.fingerprint()
    }

    /// Content equality with a pointer-first short-circuit: O(1) for two
    /// handles interned through one arena, exact compare otherwise.
    #[inline]
    pub fn same_arcs(&self, other: &Dipath) -> bool {
        self.arcs == other.arcs
    }

    /// Number of arcs.
    #[inline]
    pub fn len(&self) -> usize {
        self.arcs.len()
    }

    /// Dipaths are never empty; provided for clippy-friendliness.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.arcs.is_empty()
    }

    /// First arc.
    #[inline]
    pub fn first_arc(&self) -> ArcId {
        self.arcs[0]
    }

    /// Last arc.
    #[inline]
    pub fn last_arc(&self) -> ArcId {
        *self.arcs.last().expect("dipath is non-empty") // lint: allow(no-panic): Dipath construction rejects empty arc lists
    }

    /// Initial vertex.
    pub fn source(&self, g: &Digraph) -> VertexId {
        g.tail(self.first_arc())
    }

    /// Terminal vertex.
    pub fn target(&self, g: &Digraph) -> VertexId {
        g.head(self.last_arc())
    }

    /// The vertex route `x_1, …, x_{k+1}`.
    pub fn vertices(&self, g: &Digraph) -> Vec<VertexId> {
        let mut vs = Vec::with_capacity(self.arcs.len() + 1);
        vs.push(self.source(g));
        for &a in self.arcs.as_slice() {
            vs.push(g.head(a));
        }
        vs
    }

    /// `true` if the dipath uses arc `a`.
    pub fn contains_arc(&self, a: ArcId) -> bool {
        self.arcs.contains(&a)
    }

    /// Position of arc `a` in the sequence, if present.
    pub fn arc_position(&self, a: ArcId) -> Option<usize> {
        self.arcs.iter().position(|&x| x == a)
    }

    /// The set of arcs shared with `other`, in `self` order.
    pub fn shared_arcs(&self, other: &Dipath) -> Vec<ArcId> {
        // Dipaths are short relative to instance sizes; a sorted probe of the
        // smaller side keeps this allocation-light.
        let (small, big) = if self.len() <= other.len() {
            (other, self)
        } else {
            (self, other)
        };
        let mut probe: Vec<ArcId> = small.arcs.to_vec();
        probe.sort_unstable();
        big.arcs
            .iter()
            .copied()
            .filter(|a| probe.binary_search(a).is_ok())
            .collect()
    }

    /// `true` if the two dipaths are *in conflict* (share at least one arc).
    pub fn conflicts_with(&self, other: &Dipath) -> bool {
        let (small, big) = if self.len() <= other.len() {
            (self, other)
        } else {
            (other, self)
        };
        let mut probe: Vec<ArcId> = small.arcs.to_vec();
        probe.sort_unstable();
        big.arcs.iter().any(|a| probe.binary_search(a).is_ok())
    }

    /// Remove the first arc, returning it; `None` if that would empty the
    /// dipath (the caller then drops the dipath — the paper's
    /// "`Q` reduced to the arc `(x0, y0)`" case).
    pub fn shrink_front(&mut self) -> Option<ArcId> {
        if self.arcs.len() <= 1 {
            return None;
        }
        let removed = self.arcs[0];
        self.arcs = ArcList::from_slice(&self.arcs.as_slice()[1..]);
        Some(removed)
    }

    /// Prepend an arc (must satisfy `head(arc) = tail(first)`).
    pub fn extend_front(&mut self, g: &Digraph, arc: ArcId) -> Result<(), PathError> {
        if g.head(arc) != g.tail(self.first_arc()) {
            return Err(PathError::NotContiguous {
                prev: arc,
                next: self.first_arc(),
            });
        }
        let mut arcs = Vec::with_capacity(self.arcs.len() + 1);
        arcs.push(arc);
        arcs.extend_from_slice(self.arcs.as_slice());
        self.arcs = ArcList::from_vec(arcs);
        Ok(())
    }

    /// The sub-dipath between positions `[from, to)` of the arc sequence.
    pub fn slice(&self, from: usize, to: usize) -> Option<Dipath> {
        if from >= to || to > self.arcs.len() {
            return None;
        }
        Some(Dipath {
            arcs: ArcList::from_slice(&self.arcs.as_slice()[from..to]),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagwave_graph::builder::from_edges;

    fn v(i: usize) -> VertexId {
        VertexId::from_index(i)
    }

    fn chain4() -> Digraph {
        from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)])
    }

    #[test]
    fn from_vertices_happy_path() {
        let g = chain4();
        let p = Dipath::from_vertices(&g, &[v(0), v(1), v(2)]).unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(p.source(&g), v(0));
        assert_eq!(p.target(&g), v(2));
        assert_eq!(p.vertices(&g), vec![v(0), v(1), v(2)]);
    }

    #[test]
    fn from_vertices_missing_arc() {
        let g = chain4();
        assert_eq!(
            Dipath::from_vertices(&g, &[v(0), v(2)]),
            Err(PathError::MissingArc {
                from: v(0),
                to: v(2)
            })
        );
    }

    #[test]
    fn from_arcs_rejects_gaps() {
        let g = chain4();
        let a01 = g.find_arc(v(0), v(1)).unwrap();
        let a23 = g.find_arc(v(2), v(3)).unwrap();
        assert!(matches!(
            Dipath::from_arcs(&g, vec![a01, a23]),
            Err(PathError::NotContiguous { .. })
        ));
    }

    #[test]
    fn empty_rejected() {
        let g = chain4();
        assert_eq!(Dipath::from_arcs(&g, vec![]), Err(PathError::Empty));
        assert_eq!(Dipath::from_vertices(&g, &[v(0)]), Err(PathError::Empty));
    }

    #[test]
    fn conflict_detection() {
        let g = chain4();
        let p1 = Dipath::from_vertices(&g, &[v(0), v(1), v(2)]).unwrap();
        let p2 = Dipath::from_vertices(&g, &[v(1), v(2), v(3)]).unwrap();
        let p3 = Dipath::from_vertices(&g, &[v(3), v(4)]).unwrap();
        assert!(p1.conflicts_with(&p2));
        assert!(!p1.conflicts_with(&p3));
        assert!(p2.conflicts_with(&p2), "a dipath conflicts with itself");
        let shared = p1.shared_arcs(&p2);
        assert_eq!(shared.len(), 1);
        assert_eq!(g.tail(shared[0]), v(1));
    }

    #[test]
    fn vertex_sharing_is_not_conflict() {
        // Dipaths meeting only at a vertex are arc-disjoint (paper: conflicts
        // are defined on arcs, not vertices).
        let g = from_edges(5, &[(0, 2), (1, 2), (2, 3), (2, 4)]);
        let p1 = Dipath::from_vertices(&g, &[v(0), v(2), v(3)]).unwrap();
        let p2 = Dipath::from_vertices(&g, &[v(1), v(2), v(4)]).unwrap();
        assert!(!p1.conflicts_with(&p2));
    }

    #[test]
    fn shrink_and_extend_front() {
        let g = chain4();
        let mut p = Dipath::from_vertices(&g, &[v(0), v(1), v(2)]).unwrap();
        let removed = p.shrink_front().unwrap();
        assert_eq!(g.tail(removed), v(0));
        assert_eq!(p.source(&g), v(1));
        assert_eq!(p.shrink_front(), None, "single-arc dipath cannot shrink");
        p.extend_front(&g, removed).unwrap();
        assert_eq!(p.source(&g), v(0));
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn extend_front_validates_contiguity() {
        let g = chain4();
        let mut p = Dipath::from_vertices(&g, &[v(2), v(3)]).unwrap();
        let a01 = g.find_arc(v(0), v(1)).unwrap();
        assert!(p.extend_front(&g, a01).is_err());
    }

    #[test]
    fn single_and_slice() {
        let g = chain4();
        let p = Dipath::from_vertices(&g, &[v(0), v(1), v(2), v(3)]).unwrap();
        let s = p.slice(1, 3).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.source(&g), v(1));
        assert_eq!(s.target(&g), v(3));
        assert!(p.slice(2, 2).is_none());
        assert!(p.slice(0, 9).is_none());
        let single = Dipath::single(p.first_arc());
        assert_eq!(single.len(), 1);
    }

    #[test]
    fn repeated_vertex_rejected() {
        // A cyclic walk is not a dipath.
        let g = from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        let a01 = g.find_arc(v(0), v(1)).unwrap();
        let a12 = g.find_arc(v(1), v(2)).unwrap();
        let a20 = g.find_arc(v(2), v(0)).unwrap();
        assert_eq!(
            Dipath::from_arcs(&g, vec![a01, a12, a20]),
            Err(PathError::RepeatedVertex(v(0)))
        );
    }

    #[test]
    fn arc_position_and_contains() {
        let g = chain4();
        let p = Dipath::from_vertices(&g, &[v(1), v(2), v(3)]).unwrap();
        let a12 = g.find_arc(v(1), v(2)).unwrap();
        let a34 = g.find_arc(v(3), v(4)).unwrap();
        assert!(p.contains_arc(a12));
        assert!(!p.contains_arc(a34));
        assert_eq!(p.arc_position(a12), Some(0));
        assert_eq!(p.arc_position(a34), None);
    }

    #[test]
    fn parallel_arc_choice_via_from_arcs() {
        let mut g = from_edges(2, &[(0, 1)]);
        let second = g.add_arc(v(0), v(1));
        let p = Dipath::from_arcs(&g, vec![second]).unwrap();
        assert_eq!(p.first_arc(), second);
        let q = Dipath::from_vertices(&g, &[v(0), v(1)]).unwrap();
        assert_ne!(
            p.first_arc(),
            q.first_arc(),
            "from_vertices picks first copy"
        );
        assert!(
            !p.conflicts_with(&q),
            "parallel arcs are distinct resources"
        );
    }
}
