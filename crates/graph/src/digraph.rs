//! The core directed multigraph type.
//!
//! [`Digraph`] is an append-only arena: vertices and arcs receive dense ids
//! in insertion order and are never removed (algorithms that need "deletion"
//! use [`crate::SubgraphView`] masks, which keeps all per-id tables valid
//! across the workspace). Parallel arcs are allowed; self-loops are rejected
//! because the paper's model is a DAG.
//!
//! ## Adjacency layout
//!
//! The graph stores its arcs once, as endpoint pairs in id order. Adjacency
//! is one flat CSR (compressed sparse row) table beside them, an
//! [`Adjacency`]: one array of arc ids holding each vertex's out-arcs and
//! then its in-arcs, and one array of offsets into it. A stable counting
//! sort over the arc list builds it on the first adjacency query after the
//! last mutation, so every per-vertex slice lists its arcs in insertion
//! order — the order a per-vertex push would give, which fixes peel order,
//! UPP witnesses and cycle witnesses downstream. The table sits in a
//! [`OnceLock`], so a shared `&Digraph` stays `Sync` and the first reader
//! builds it for all. A graph costs three allocations, however many
//! vertices it has.
//!
//! Each query on the graph checks that the table is built. A traversal
//! that queries every vertex (a topological sort, UPP counting, the
//! Theorem 1 peel) borrows the table once through [`Digraph::adjacency`]
//! and queries that instead.
//!
//! [`Digraph::add_vertex`] and [`Digraph::add_arc`] stay O(1): a mutation
//! drops a table that was already built, and the next query rebuilds it in
//! O(n + m). Interleaving mutations with adjacency queries therefore pays
//! one rebuild per switch; build the graph first, then query it. Arc
//! endpoints ([`Digraph::arc`], [`Digraph::tail`], [`Digraph::head`]),
//! counts and id iteration never touch the table, so checking a dipath with
//! [`Digraph::head`]/[`Digraph::tail`] while arcs are still being added
//! costs nothing extra.

use crate::error::GraphError;
use crate::ids::{ArcId, VertexId};
use std::sync::OnceLock;

/// An arc (directed edge) `tail → head`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Arc {
    /// Initial vertex (the arc leaves this vertex).
    pub tail: VertexId,
    /// Terminal vertex (the arc enters this vertex).
    pub head: VertexId,
}

/// A directed multigraph with dense integer ids.
#[derive(Clone, Debug, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Digraph {
    vertex_count: usize,
    arcs: Vec<Arc>,
    /// Built on the first adjacency query, dropped by every mutation.
    #[cfg_attr(feature = "serde", serde(skip))]
    adjacency: OnceLock<Adjacency>,
}

/// The flat adjacency of a [`Digraph`], borrowed through
/// [`Digraph::adjacency`].
///
/// Vertex `v` owns one run of `ids`: its out-arcs, then its in-arcs, each
/// in arc-id order. `start[2v]`, `start[2v + 1]` and `start[2v + 2]` bound
/// the two halves, so every query about one vertex reads three adjacent
/// offsets. The queries on [`Digraph`] itself check on every call that the
/// table is built; a loop over many vertices borrows the table once and
/// queries it directly.
#[derive(Clone, Debug)]
pub struct Adjacency {
    start: Box<[usize]>,
    ids: Box<[ArcId]>,
}

impl Adjacency {
    /// Stable counting sort of the arc ids: by tail into the out-halves, by
    /// head into the in-halves.
    fn build(vertex_count: usize, arcs: &[Arc]) -> Adjacency {
        // Half sizes, then inclusive prefix sums: `start[h]` becomes the end
        // of half `h` and `start[2n]` the total.
        let mut start = vec![0usize; 2 * vertex_count + 1];
        for a in arcs {
            start[2 * a.tail.index()] += 1;
            start[2 * a.head.index() + 1] += 1;
        }
        let mut end = 0;
        for s in &mut start {
            end += *s;
            *s = end;
        }
        // Walking the arcs backwards and filling each half from its end
        // leaves every half in id order and `start[h]` at its beginning.
        let mut ids = vec![ArcId(0); 2 * arcs.len()];
        for (i, a) in arcs.iter().enumerate().rev() {
            for half in [2 * a.tail.index(), 2 * a.head.index() + 1] {
                start[half] -= 1;
                ids[start[half]] = ArcId::from_index(i);
            }
        }
        Adjacency {
            start: start.into_boxed_slice(),
            ids: ids.into_boxed_slice(),
        }
    }

    /// Where `v`'s out-half begins, where its in-half begins, and where
    /// its run ends.
    #[inline]
    fn bounds(&self, v: VertexId) -> [usize; 3] {
        let h = 2 * v.index();
        let b = &self.start[h..h + 3];
        [b[0], b[1], b[2]]
    }

    /// Outgoing arc ids of `v`, in insertion order.
    #[inline]
    pub fn out_arcs(&self, v: VertexId) -> &[ArcId] {
        let [out, inc, _] = self.bounds(v);
        &self.ids[out..inc]
    }

    /// Incoming arc ids of `v`, in insertion order.
    #[inline]
    pub fn in_arcs(&self, v: VertexId) -> &[ArcId] {
        let [_, inc, end] = self.bounds(v);
        &self.ids[inc..end]
    }

    /// Outdegree of `v`.
    #[inline]
    pub fn outdegree(&self, v: VertexId) -> usize {
        let [out, inc, _] = self.bounds(v);
        inc - out
    }

    /// Indegree of `v`.
    #[inline]
    pub fn indegree(&self, v: VertexId) -> usize {
        let [_, inc, end] = self.bounds(v);
        end - inc
    }

    /// `true` if `v` has both an in-arc and an out-arc (see
    /// [`Digraph::is_internal`]).
    #[inline]
    pub fn is_internal(&self, v: VertexId) -> bool {
        let [out, inc, end] = self.bounds(v);
        out < inc && inc < end
    }
}

impl Digraph {
    /// Create an empty digraph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an empty digraph with `n` isolated vertices.
    pub fn with_vertices(n: usize) -> Self {
        Self::with_capacity(n, 0)
    }

    /// [`Digraph::with_vertices`] with room for `arcs` arcs, so adding
    /// that many reallocates nothing.
    pub fn with_capacity(n: usize, arcs: usize) -> Self {
        Digraph {
            vertex_count: n,
            arcs: Vec::with_capacity(arcs),
            adjacency: OnceLock::new(),
        }
    }

    /// The flat adjacency table, built on the first query after the last
    /// mutation. Every adjacency query passes here, so the built case is
    /// one load and a branch; a hot loop borrows the table once instead.
    #[inline]
    pub fn adjacency(&self) -> &Adjacency {
        match self.adjacency.get() {
            Some(adjacency) => adjacency,
            None => self.build_adjacency(),
        }
    }

    #[cold]
    fn build_adjacency(&self) -> &Adjacency {
        self.adjacency
            .get_or_init(|| Adjacency::build(self.vertex_count, &self.arcs))
    }

    /// Number of vertices.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.vertex_count
    }

    /// Number of arcs.
    #[inline]
    pub fn arc_count(&self) -> usize {
        self.arcs.len()
    }

    /// Add a new isolated vertex and return its id.
    pub fn add_vertex(&mut self) -> VertexId {
        let id = VertexId::from_index(self.vertex_count);
        self.vertex_count += 1;
        self.adjacency.take();
        id
    }

    /// Add `k` vertices, returning their ids in order.
    pub fn add_vertices(&mut self, k: usize) -> Vec<VertexId> {
        let first = self.vertex_count;
        self.vertex_count += k;
        self.adjacency.take();
        (first..self.vertex_count)
            .map(VertexId::from_index)
            .collect()
    }

    /// Add an arc `tail → head`. Parallel arcs are allowed; self-loops panic
    /// (use [`Digraph::try_add_arc`] for a fallible version).
    pub fn add_arc(&mut self, tail: VertexId, head: VertexId) -> ArcId {
        self.try_add_arc(tail, head).expect("invalid arc endpoints") // lint: allow(no-panic): documented panic contract; try_add_arc is the fallible variant
    }

    /// Fallible [`Digraph::add_arc`].
    pub fn try_add_arc(&mut self, tail: VertexId, head: VertexId) -> Result<ArcId, GraphError> {
        if tail.index() >= self.vertex_count() {
            return Err(GraphError::InvalidVertex(tail));
        }
        if head.index() >= self.vertex_count() {
            return Err(GraphError::InvalidVertex(head));
        }
        if tail == head {
            return Err(GraphError::SelfLoop(tail));
        }
        let id = ArcId::from_index(self.arcs.len());
        self.arcs.push(Arc { tail, head });
        self.adjacency.take();
        Ok(id)
    }

    /// Endpoints of arc `a`.
    #[inline]
    pub fn arc(&self, a: ArcId) -> Arc {
        self.arcs[a.index()]
    }

    /// Tail (initial vertex) of arc `a`.
    #[inline]
    pub fn tail(&self, a: ArcId) -> VertexId {
        self.arcs[a.index()].tail
    }

    /// Head (terminal vertex) of arc `a`.
    #[inline]
    pub fn head(&self, a: ArcId) -> VertexId {
        self.arcs[a.index()].head
    }

    /// Outdegree of `v` (number of arcs with initial vertex `v`).
    #[inline]
    pub fn outdegree(&self, v: VertexId) -> usize {
        self.adjacency().outdegree(v)
    }

    /// Indegree of `v` (number of arcs with terminal vertex `v`).
    #[inline]
    pub fn indegree(&self, v: VertexId) -> usize {
        self.adjacency().indegree(v)
    }

    /// `true` if `v` is a source (indegree 0).
    #[inline]
    pub fn is_source(&self, v: VertexId) -> bool {
        self.indegree(v) == 0
    }

    /// `true` if `v` is a sink (outdegree 0).
    #[inline]
    pub fn is_sink(&self, v: VertexId) -> bool {
        self.outdegree(v) == 0
    }

    /// `true` if `v` is *internal*: it has both a predecessor and a successor.
    ///
    /// This is the vertex condition in the paper's definition of an internal
    /// cycle (Section 2): "all its vertices have in `G` an indegree > 0 and
    /// an outdegree > 0".
    #[inline]
    pub fn is_internal(&self, v: VertexId) -> bool {
        self.adjacency().is_internal(v)
    }

    /// Iterate over all vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.vertex_count()).map(VertexId::from_index)
    }

    /// Iterate over all arc ids.
    pub fn arc_ids(&self) -> impl Iterator<Item = ArcId> + '_ {
        (0..self.arc_count()).map(ArcId::from_index)
    }

    /// Iterate over `(ArcId, Arc)` pairs.
    pub fn arcs(&self) -> impl Iterator<Item = (ArcId, Arc)> + '_ {
        self.arcs
            .iter()
            .enumerate()
            .map(|(i, &a)| (ArcId::from_index(i), a))
    }

    /// Outgoing arc ids of `v`.
    #[inline]
    pub fn out_arcs(&self, v: VertexId) -> &[ArcId] {
        self.adjacency().out_arcs(v)
    }

    /// Incoming arc ids of `v`.
    #[inline]
    pub fn in_arcs(&self, v: VertexId) -> &[ArcId] {
        self.adjacency().in_arcs(v)
    }

    /// Out-neighbors of `v` (with multiplicity, in insertion order).
    pub fn successors(&self, v: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        self.out_arcs(v).iter().map(move |&a| self.head(a))
    }

    /// In-neighbors of `v` (with multiplicity, in insertion order).
    pub fn predecessors(&self, v: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        self.in_arcs(v).iter().map(move |&a| self.tail(a))
    }

    /// All sources (indegree 0) in id order.
    pub fn sources(&self) -> Vec<VertexId> {
        self.vertices().filter(|&v| self.is_source(v)).collect()
    }

    /// All sinks (outdegree 0) in id order.
    pub fn sinks(&self) -> Vec<VertexId> {
        self.vertices().filter(|&v| self.is_sink(v)).collect()
    }

    /// The set of internal vertices (see [`Digraph::is_internal`]).
    pub fn internal_vertices(&self) -> Vec<VertexId> {
        self.vertices().filter(|&v| self.is_internal(v)).collect()
    }

    /// First arc id `tail → head` if one exists (ignores parallel copies).
    pub fn find_arc(&self, tail: VertexId, head: VertexId) -> Option<ArcId> {
        self.out_arcs(tail)
            .iter()
            .copied()
            .find(|&a| self.head(a) == head)
    }

    /// All arc ids `tail → head` (parallel arcs included).
    pub fn find_arcs(&self, tail: VertexId, head: VertexId) -> Vec<ArcId> {
        self.out_arcs(tail)
            .iter()
            .copied()
            .filter(|&a| self.head(a) == head)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (Digraph, Vec<VertexId>) {
        // a → b → d, a → c → d
        let mut g = Digraph::new();
        let vs = g.add_vertices(4);
        g.add_arc(vs[0], vs[1]);
        g.add_arc(vs[0], vs[2]);
        g.add_arc(vs[1], vs[3]);
        g.add_arc(vs[2], vs[3]);
        (g, vs)
    }

    #[test]
    fn counts_and_degrees() {
        let (g, vs) = diamond();
        assert_eq!(g.vertex_count(), 4);
        assert_eq!(g.arc_count(), 4);
        assert_eq!(g.outdegree(vs[0]), 2);
        assert_eq!(g.indegree(vs[0]), 0);
        assert_eq!(g.indegree(vs[3]), 2);
        assert_eq!(g.outdegree(vs[3]), 0);
        assert_eq!(g.indegree(vs[1]), 1);
        assert_eq!(g.outdegree(vs[1]), 1);
    }

    #[test]
    fn sources_sinks_internal() {
        let (g, vs) = diamond();
        assert_eq!(g.sources(), vec![vs[0]]);
        assert_eq!(g.sinks(), vec![vs[3]]);
        assert_eq!(g.internal_vertices(), vec![vs[1], vs[2]]);
        assert!(g.is_source(vs[0]) && g.is_sink(vs[3]));
        assert!(g.is_internal(vs[1]) && !g.is_internal(vs[0]));
    }

    #[test]
    fn arc_endpoints() {
        let (g, vs) = diamond();
        let a = g.find_arc(vs[0], vs[1]).unwrap();
        assert_eq!(g.tail(a), vs[0]);
        assert_eq!(g.head(a), vs[1]);
        assert_eq!(
            g.arc(a),
            Arc {
                tail: vs[0],
                head: vs[1]
            }
        );
    }

    #[test]
    fn neighbors() {
        let (g, vs) = diamond();
        let succ: Vec<_> = g.successors(vs[0]).collect();
        assert_eq!(succ, vec![vs[1], vs[2]]);
        let pred: Vec<_> = g.predecessors(vs[3]).collect();
        assert_eq!(pred, vec![vs[1], vs[2]]);
    }

    #[test]
    fn parallel_arcs_are_distinct() {
        let mut g = Digraph::new();
        let vs = g.add_vertices(2);
        let a1 = g.add_arc(vs[0], vs[1]);
        let a2 = g.add_arc(vs[0], vs[1]);
        assert_ne!(a1, a2);
        assert_eq!(g.outdegree(vs[0]), 2);
        assert_eq!(g.find_arcs(vs[0], vs[1]), vec![a1, a2]);
        assert_eq!(g.find_arc(vs[0], vs[1]), Some(a1));
    }

    #[test]
    fn self_loop_rejected() {
        let mut g = Digraph::new();
        let v = g.add_vertex();
        assert_eq!(g.try_add_arc(v, v), Err(GraphError::SelfLoop(v)));
    }

    #[test]
    fn invalid_endpoint_rejected() {
        let mut g = Digraph::new();
        let v = g.add_vertex();
        let bogus = VertexId(7);
        assert_eq!(
            g.try_add_arc(v, bogus),
            Err(GraphError::InvalidVertex(bogus))
        );
        assert_eq!(
            g.try_add_arc(bogus, v),
            Err(GraphError::InvalidVertex(bogus))
        );
    }

    #[test]
    fn with_vertices_constructor() {
        let g = Digraph::with_vertices(5);
        assert_eq!(g.vertex_count(), 5);
        assert_eq!(g.arc_count(), 0);
        assert_eq!(g.sources().len(), 5, "isolated vertices are sources");
        assert_eq!(g.sinks().len(), 5, "and sinks");
    }

    #[test]
    fn iterators_cover_everything() {
        let (g, _) = diamond();
        assert_eq!(g.vertices().count(), 4);
        assert_eq!(g.arc_ids().count(), 4);
        assert_eq!(g.arcs().count(), 4);
        for (id, arc) in g.arcs() {
            assert_eq!(g.tail(id), arc.tail);
            assert_eq!(g.head(id), arc.head);
        }
    }

    #[test]
    fn find_arc_absent() {
        let (g, vs) = diamond();
        assert_eq!(g.find_arc(vs[1], vs[0]), None);
        assert!(g.find_arcs(vs[3], vs[0]).is_empty());
    }
}
