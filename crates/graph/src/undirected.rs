//! The *underlying undirected multigraph* of a digraph.
//!
//! The paper's oriented cycles (Section 2, Figure 2) are cycles of the
//! underlying undirected multigraph: an even sequence of dipaths alternating
//! in direction. An **internal cycle** is such a cycle whose vertices are all
//! internal in `G`. This module provides explicit cycle extraction (as
//! arcs tagged with traversal direction) and the cyclomatic number, which
//! is zero exactly on a forest.

use crate::digraph::Digraph;
use crate::dsu::UnionFind;
use crate::ids::{ArcId, VertexId};
use crate::view::SubgraphView;

/// One step of an oriented (underlying) cycle: the arc and whether it is
/// traversed forward (`tail → head`) or in reverse.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OrientedStep {
    /// The arc being traversed.
    pub arc: ArcId,
    /// `true` if traversed in arc direction (tail to head).
    pub forward: bool,
}

/// An oriented cycle of the underlying multigraph: a closed walk of distinct
/// arcs. `steps[i]` leaves `vertices[i]` and arrives at `vertices[i+1 mod k]`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OrientedCycle {
    /// The cyclic vertex sequence (no repetition; length = number of steps).
    pub vertices: Vec<VertexId>,
    /// The arcs, tagged with traversal direction.
    pub steps: Vec<OrientedStep>,
}

impl OrientedCycle {
    /// Number of arcs (equals number of vertices).
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// `true` when the cycle is empty (never produced by the detectors).
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Check well-formedness against `g`: consecutive steps chain through the
    /// vertex sequence and all arcs are distinct.
    pub fn validate(&self, g: &Digraph) -> bool {
        if self.steps.len() != self.vertices.len() || self.steps.len() < 2 {
            return false;
        }
        let k = self.steps.len();
        let mut seen = std::collections::HashSet::new();
        for i in 0..k {
            let step = self.steps[i];
            if !seen.insert(step.arc) {
                return false;
            }
            let arc = g.arc(step.arc);
            let (from, to) = if step.forward {
                (arc.tail, arc.head)
            } else {
                (arc.head, arc.tail)
            };
            if from != self.vertices[i] || to != self.vertices[(i + 1) % k] {
                return false;
            }
        }
        true
    }

    /// Vertices where the walk switches orientation *into* outdegree-0 in the
    /// cycle (both incident cycle arcs point at the vertex). These are the
    /// paper's `c_i` / `z_{2h+1}` turn vertices.
    pub fn in_turn_vertices(&self, _g: &Digraph) -> Vec<VertexId> {
        self.turns(true)
    }

    /// Vertices where both incident cycle arcs leave the vertex (indegree-0
    /// inside the cycle): the paper's `b_i` / `z_{2h+2}` turn vertices.
    pub fn out_turn_vertices(&self, _g: &Digraph) -> Vec<VertexId> {
        self.turns(false)
    }

    fn turns(&self, into: bool) -> Vec<VertexId> {
        let k = self.steps.len();
        let mut result = Vec::new();
        for i in 0..k {
            let prev = self.steps[(i + k - 1) % k];
            let next = self.steps[i];
            // Arriving forward then leaving backward ⇒ both arcs point in.
            let arrives = prev.forward;
            let leaves_backward = !next.forward;
            if into && arrives && leaves_backward {
                result.push(self.vertices[i]);
            }
            // Arriving backward then leaving forward ⇒ both arcs point out.
            if !into && !prev.forward && next.forward {
                result.push(self.vertices[i]);
            }
        }
        result
    }
}

/// Cyclomatic number `m − n + c` of the underlying multigraph of the view:
/// the number of independent cycles. Zero iff the underlying graph is a
/// forest.
///
/// Counted as the arcs that close a cycle: inserting the arcs one by one
/// into a union-find, the `n − c` arcs that join two components form a
/// spanning forest and every other arc adds one independent cycle, so no
/// vertex set or component set is built.
pub fn cyclomatic_number(view: &SubgraphView<'_>) -> usize {
    let g = view.base();
    let mut uf = UnionFind::new(g.vertex_count());
    view.arcs()
        .filter(|&a| {
            let arc = g.arc(a);
            !uf.union(arc.tail.index(), arc.head.index())
        })
        .count()
}

/// Find an oriented cycle of the underlying multigraph of the view, if any.
///
/// Runs an iterative DFS on the underlying graph tracking the parent *arc*
/// (not parent vertex), so parallel arcs correctly close 2-cycles.
pub fn find_underlying_cycle(view: &SubgraphView<'_>) -> Option<OrientedCycle> {
    let g = view.base();
    let n = g.vertex_count();
    let mut visited = vec![false; n];
    // parent[v] = (parent vertex, arc used, forward?) on the DFS tree.
    let mut parent: Vec<Option<(VertexId, ArcId, bool)>> = vec![None; n];
    let mut depth = vec![0usize; n];

    for start in view.vertices() {
        if visited[start.index()] {
            continue;
        }
        visited[start.index()] = true;
        let mut stack = vec![start];
        while let Some(v) = stack.pop() {
            // Underlying neighbors: out-arcs traversed forward, in-arcs backward.
            let neighbors = view
                .out_arcs(v)
                .map(|a| (g.head(a), a, true))
                .chain(view.in_arcs(v).map(|a| (g.tail(a), a, false)));
            for (w, a, forward) in neighbors {
                // Skip the tree arc we came in on (by arc id, so a parallel
                // arc to the parent still closes a cycle).
                if let Some((_, pa, _)) = parent[v.index()] {
                    if pa == a {
                        continue;
                    }
                }
                if !visited[w.index()] {
                    visited[w.index()] = true;
                    parent[w.index()] = Some((v, a, forward));
                    depth[w.index()] = depth[v.index()] + 1;
                    stack.push(w);
                } else {
                    // Non-tree edge {v,w}: close the cycle through the tree.
                    return Some(close_cycle(g, &parent, &depth, v, w, a, forward));
                }
            }
        }
    }
    None
}

/// Build the explicit cycle for the non-tree edge `v —a→ w` using tree paths.
fn close_cycle(
    _g: &Digraph,
    parent: &[Option<(VertexId, ArcId, bool)>],
    depth: &[usize],
    v: VertexId,
    w: VertexId,
    a: ArcId,
    forward: bool,
) -> OrientedCycle {
    // Walk both endpoints up to their lowest common ancestor.
    let (mut pv, mut pw) = (v, w);
    let mut up_v: Vec<(VertexId, ArcId, bool)> = Vec::new(); // steps v→…→lca (each step goes up)
    let mut up_w: Vec<(VertexId, ArcId, bool)> = Vec::new();
    while depth[pv.index()] > depth[pw.index()] {
        let (p, arc, fwd) = parent[pv.index()].expect("deeper vertex has parent"); // lint: allow(no-panic): a strictly deeper vertex has a BFS parent
        up_v.push((pv, arc, fwd));
        pv = p;
    }
    while depth[pw.index()] > depth[pv.index()] {
        let (p, arc, fwd) = parent[pw.index()].expect("deeper vertex has parent"); // lint: allow(no-panic): a strictly deeper vertex has a BFS parent
        up_w.push((pw, arc, fwd));
        pw = p;
    }
    while pv != pw {
        let (p1, a1, f1) = parent[pv.index()].expect("lca walk"); // lint: allow(no-panic): below the LCA every vertex has a BFS parent
        up_v.push((pv, a1, f1));
        pv = p1;
        let (p2, a2, f2) = parent[pw.index()].expect("lca walk"); // lint: allow(no-panic): below the LCA every vertex has a BFS parent
        up_w.push((pw, a2, f2));
        pw = p2;
    }
    let lca = pv;

    // Cycle: lca → … → v  (down the v-branch), then arc a to w, then
    // w → … → lca (up the w-branch).
    let mut vertices = Vec::new();
    let mut steps = Vec::new();

    // Down the v branch: reverse of up_v. A tree step stored as
    // (child, arc, fwd) means arc goes parent→child if fwd, child→parent if
    // !fwd... Careful: `fwd` was recorded as the traversal direction from
    // parent to child. So traversing parent→child uses direction `fwd`.
    vertices.push(lca);
    for &(child, arc, fwd) in up_v.iter().rev() {
        steps.push(OrientedStep { arc, forward: fwd });
        vertices.push(child);
    }
    // Now at v; take the closing edge v→w with direction `forward`.
    steps.push(OrientedStep { arc: a, forward });
    // Up the w branch: from w to lca; each stored step (child, arc, fwd) was
    // parent→child, we traverse child→parent, i.e. direction !fwd.
    for &(child, arc, fwd) in up_w.iter() {
        vertices.push(child);
        steps.push(OrientedStep { arc, forward: !fwd });
    }
    // The walk ends at lca = vertices[0]; lengths must agree.
    debug_assert_eq!(vertices.len(), steps.len());
    OrientedCycle { vertices, steps }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::from_edges;

    #[test]
    fn forest_check_tree() {
        let g = from_edges(4, &[(0, 1), (0, 2), (2, 3)]);
        let view = SubgraphView::full(&g);
        assert_eq!(cyclomatic_number(&view), 0);
        assert!(find_underlying_cycle(&view).is_none());
    }

    #[test]
    fn diamond_is_an_oriented_cycle() {
        // 0→1→3, 0→2→3: acyclic as digraph, but the underlying graph has a
        // 4-cycle — exactly the paper's Figure 2a situation.
        let g = from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let view = SubgraphView::full(&g);
        assert_eq!(cyclomatic_number(&view), 1);
        let cycle = find_underlying_cycle(&view).unwrap();
        assert!(cycle.validate(&g), "cycle must be well-formed: {cycle:?}");
        assert_eq!(cycle.len(), 4);
    }

    #[test]
    fn parallel_arcs_close_a_2_cycle() {
        let g = from_edges(2, &[(0, 1), (0, 1)]);
        let view = SubgraphView::full(&g);
        assert_eq!(cyclomatic_number(&view), 1);
        let cycle = find_underlying_cycle(&view).unwrap();
        assert!(cycle.validate(&g));
        assert_eq!(cycle.len(), 2);
    }

    #[test]
    fn masked_arcs_are_ignored() {
        let g = from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let mut view = SubgraphView::full(&g);
        view.remove_arc(ArcId(0));
        assert_eq!(cyclomatic_number(&view), 0);
        assert!(find_underlying_cycle(&view).is_none());
    }

    #[test]
    fn cyclomatic_counts_independent_cycles() {
        // Two diamonds sharing nothing: 8 vertices, 8 arcs, 2 components.
        let g = from_edges(
            8,
            &[
                (0, 1),
                (0, 2),
                (1, 3),
                (2, 3),
                (4, 5),
                (4, 6),
                (5, 7),
                (6, 7),
            ],
        );
        let view = SubgraphView::full(&g);
        assert_eq!(cyclomatic_number(&view), 2);
    }

    #[test]
    fn cyclomatic_ignores_untouched_vertices() {
        // Isolated vertices must not count as components.
        let mut g = from_edges(3, &[(0, 1)]);
        g.add_vertex();
        g.add_vertex();
        let view = SubgraphView::full(&g);
        assert_eq!(cyclomatic_number(&view), 0);
    }

    #[test]
    fn turn_vertices_of_diamond() {
        let g = from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let view = SubgraphView::full(&g);
        let cycle = find_underlying_cycle(&view).unwrap();
        let ins = cycle.in_turn_vertices(&g);
        let outs = cycle.out_turn_vertices(&g);
        assert_eq!(ins, vec![VertexId(3)], "vertex 3 receives both cycle arcs");
        assert_eq!(outs, vec![VertexId(0)], "vertex 0 emits both cycle arcs");
    }

    #[test]
    fn theta_graph_has_two_cycles() {
        // Three parallel dipaths 0→x_i→4: cyclomatic number 2.
        let g = from_edges(5, &[(0, 1), (1, 4), (0, 2), (2, 4), (0, 3), (3, 4)]);
        let view = SubgraphView::full(&g);
        assert_eq!(cyclomatic_number(&view), 2);
        let c = find_underlying_cycle(&view).unwrap();
        assert!(c.validate(&g));
    }

    #[test]
    fn validate_rejects_malformed() {
        let g = from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let bad = OrientedCycle {
            vertices: vec![VertexId(0), VertexId(1)],
            steps: vec![
                OrientedStep {
                    arc: ArcId(0),
                    forward: true,
                },
                OrientedStep {
                    arc: ArcId(0),
                    forward: false,
                },
            ],
        };
        assert!(!bad.validate(&g), "repeated arc must be rejected");
    }

    #[test]
    fn longer_oriented_cycle_figure2a() {
        // Figure 2a-style: 6-cycle alternating 3 forward dipaths and
        // 3 reverse, built as b1→c1, b2→c1, b2→c2, b3→c2, b3→c3, b1→c3.
        let g = from_edges(6, &[(0, 3), (1, 3), (1, 4), (2, 4), (2, 5), (0, 5)]);
        let view = SubgraphView::full(&g);
        let cycle = find_underlying_cycle(&view).unwrap();
        assert!(cycle.validate(&g));
        assert_eq!(cycle.len(), 6);
        assert_eq!(cycle.in_turn_vertices(&g).len(), 3);
        assert_eq!(cycle.out_turn_vertices(&g).len(), 3);
    }
}
