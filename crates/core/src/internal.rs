//! Internal-cycle detection, counting, and witnesses.
//!
//! An **internal cycle** (paper, Section 2) is an oriented cycle of the
//! underlying multigraph all of whose vertices are *internal* in `G`
//! (indegree > 0 and outdegree > 0 — no source or sink of `G` on the
//! cycle). The Main Theorem says `w = π` holds for every family iff `G`
//! has none.
//!
//! Detection and counting take one union-find pass over the arcs whose two
//! endpoints are internal, with no subgraph view: such an arc closes an
//! independent cycle exactly when the pass has already joined its
//! endpoints, so those arcs number the cyclomatic number of the internal
//! sub-multigraph (the dimension of its cycle space), and the first one
//! proves a cycle exists. Witnesses walk [`internal_subgraph`].
//!
//! [`classify`] counts first and sorts only a graph with internal cycles,
//! once: the order feeds the UPP test, and a failed sort's directed cycle
//! is the witness that the graph is not a DAG.

use dagwave_graph::undirected::{self, OrientedCycle};
use dagwave_graph::{
    pathcount, topo, ArcId, Digraph, GraphError, SubgraphView, UnionFind, VertexId,
};

/// The view induced on the internal vertices of `g`.
pub fn internal_subgraph(g: &Digraph) -> SubgraphView<'_> {
    let adjacency = g.adjacency();
    SubgraphView::induced(g, g.vertices().filter(|&v| adjacency.is_internal(v)))
}

/// The arcs of `g` between two internal vertices that close a cycle of
/// the underlying multigraph, in arc-id order: the one union-find pass
/// behind detection and counting.
fn cycle_closing_arcs(g: &Digraph) -> impl Iterator<Item = ArcId> + '_ {
    let adjacency = g.adjacency();
    let mut uf = UnionFind::new(g.vertex_count());
    g.arcs().filter_map(move |(a, arc)| {
        let closes = adjacency.is_internal(arc.tail)
            && adjacency.is_internal(arc.head)
            && !uf.union(arc.tail.index(), arc.head.index());
        closes.then_some(a)
    })
}

/// `true` if `g` contains an internal cycle.
pub fn has_internal_cycle(g: &Digraph) -> bool {
    cycle_closing_arcs(g).next().is_some()
}

/// `true` if `g` has **no** internal cycle — the hypothesis of Theorem 1.
pub fn is_internal_cycle_free(g: &Digraph) -> bool {
    !has_internal_cycle(g)
}

/// Number of independent internal cycles: the cyclomatic number of the
/// internal sub-multigraph. Theorem 6 requires this to be exactly 1; the
/// paper's generalized bound is `⌈(4/3)^C · π⌉` for `C` cycles.
pub fn internal_cycle_count(g: &Digraph) -> usize {
    cycle_closing_arcs(g).count()
}

/// An explicit internal cycle of `g`, or `None` when there is none.
///
/// The returned [`OrientedCycle`] walks arcs of `g` (tagged with traversal
/// direction); every vertex on it is internal in `g`.
pub fn find_internal_cycle(g: &Digraph) -> Option<OrientedCycle> {
    undirected::find_underlying_cycle(&internal_subgraph(g))
}

/// Validate that `cycle` really is an internal cycle of `g`: well-formed as
/// an oriented cycle and with every vertex internal.
pub fn is_internal_cycle(g: &Digraph, cycle: &OrientedCycle) -> bool {
    cycle.validate(g) && cycle.vertices.iter().all(|&v| g.is_internal(v))
}

/// Classification of a DAG with respect to the paper's taxonomy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DagClass {
    /// No internal cycle: Theorem 1 applies, `w = π` for every family.
    InternalCycleFree,
    /// UPP with exactly one internal cycle: Theorem 6 applies,
    /// `w ≤ ⌈4π/3⌉`.
    UppSingleCycle,
    /// UPP with ≥ 2 internal cycles: conjectured unbounded ratio; the
    /// generalized bound `⌈(4/3)^C π⌉` holds.
    UppMultiCycle {
        /// Number of independent internal cycles.
        cycles: usize,
    },
    /// Not UPP, with internal cycles: ratio `w/π` is unbounded (Figure 1).
    General {
        /// Number of independent internal cycles.
        cycles: usize,
    },
}

impl std::fmt::Display for DagClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DagClass::InternalCycleFree => write!(f, "internal-cycle-free"),
            DagClass::UppSingleCycle => write!(f, "upp-single-cycle"),
            DagClass::UppMultiCycle { cycles } => write!(f, "upp-multi-cycle({cycles})"),
            DagClass::General { cycles } => write!(f, "general({cycles} internal cycles)"),
        }
    }
}

/// Classify `g`: the class alone of the one classification body, which
/// also decides for [`crate::InstanceContext::new`] whether `g` is a DAG.
/// A directed cycle is an internal cycle (each of its vertices has an in-
/// and an out-arc), so a graph with one never classifies as
/// [`DagClass::InternalCycleFree`]; it fails the UPP test and classifies
/// as [`DagClass::General`].
pub fn classify(g: &Digraph) -> DagClass {
    classify_and_sort(g).0
}

/// The one classification body: `g`'s class, and whether `g` is a DAG.
///
/// One pass counts the internal cycles. A graph with none is
/// internal-cycle-free, and a DAG since a directed cycle is an internal
/// cycle, so it is never sorted. Any other graph is sorted topologically
/// exactly once: the order answers the UPP test, or the sort's directed
/// cycle comes back as the error, with the class
/// [`DagClass::General`]. [`crate::InstanceContext::new`] rejects that
/// cycle, so its DAG check costs no sort of its own.
pub(crate) fn classify_and_sort(g: &Digraph) -> (DagClass, Result<(), GraphError>) {
    let cycles = internal_cycle_count(g);
    if cycles == 0 {
        return (DagClass::InternalCycleFree, Ok(()));
    }
    let sorted = topo::topological_order(g);
    let upp = sorted
        .as_ref()
        .is_ok_and(|order| pathcount::upp_violation_along(g, order).is_none());
    let class = match (upp, cycles) {
        (false, _) => DagClass::General { cycles },
        (true, 1) => DagClass::UppSingleCycle,
        (true, _) => DagClass::UppMultiCycle { cycles },
    };
    (class, sorted.map(drop))
}

/// The internal vertices of `g` (convenience re-export of the digraph
/// query, kept here because the paper's definitions live in this module).
pub fn internal_vertices(g: &Digraph) -> Vec<VertexId> {
    g.internal_vertices()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagwave_graph::builder::from_edges;

    /// Figure 3's digraph: internal cycle b1,c1,d... built explicitly:
    /// a→b, b→c (two parallel routes via c and via e'), making the diamond
    /// between b and d internal because b has predecessor a and d has
    /// successor t.
    fn figure3_like() -> Digraph {
        // a=0, b=1, c=2, m=3 (second route), d=4, t=5
        // a→b, b→c, c→d, b→m, m→d, d→t : diamond b..d is internal.
        from_edges(6, &[(0, 1), (1, 2), (2, 4), (1, 3), (3, 4), (4, 5)])
    }

    #[test]
    fn tree_has_no_internal_cycle() {
        let g = from_edges(5, &[(0, 1), (0, 2), (1, 3), (1, 4)]);
        assert!(is_internal_cycle_free(&g));
        assert_eq!(internal_cycle_count(&g), 0);
        assert!(find_internal_cycle(&g).is_none());
        assert_eq!(classify(&g), DagClass::InternalCycleFree);
    }

    #[test]
    fn bare_diamond_cycle_is_not_internal() {
        // Diamond 0→1→3, 0→2→3: the oriented cycle exists but vertex 0 is a
        // source and 3 a sink, so it is NOT internal (Figure 2a vs 2b).
        let g = from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        assert!(is_internal_cycle_free(&g));
        assert_eq!(classify(&g), DagClass::InternalCycleFree);
    }

    #[test]
    fn guarded_diamond_is_internal() {
        let g = figure3_like();
        assert!(has_internal_cycle(&g));
        assert_eq!(internal_cycle_count(&g), 1);
        let cycle = find_internal_cycle(&g).unwrap();
        assert!(is_internal_cycle(&g, &cycle));
        assert_eq!(cycle.len(), 4);
        // All cycle vertices are the diamond 1, 2, 3, 4.
        let mut vs: Vec<_> = cycle.vertices.iter().map(|v| v.index()).collect();
        vs.sort_unstable();
        assert_eq!(vs, vec![1, 2, 3, 4]);
    }

    #[test]
    fn classification_of_figure3() {
        let g = figure3_like();
        // The diamond gives two dipaths 1 → 4, so not UPP.
        assert_eq!(classify(&g), DagClass::General { cycles: 1 });
    }

    #[test]
    fn upp_single_cycle_class() {
        // Figure 9-ish: crossing single arcs b1→c1, b1→c2, b2→c1, b2→c2
        // would be parallel dipaths? No: dipaths b1→c1 etc. are single arcs,
        // all pairs distinct, UPP holds. Add guards to make vertices
        // internal: a_i→b_i, c_i→d_i.
        let g = from_edges(
            8,
            &[
                (0, 2), // a1→b1
                (1, 3), // a2→b2
                (2, 4), // b1→c1
                (2, 5), // b1→c2
                (3, 4), // b2→c1
                (3, 5), // b2→c2
                (4, 6), // c1→d1
                (5, 7), // c2→d2
            ],
        );
        assert!(dagwave_graph::pathcount::is_upp(&g));
        assert_eq!(internal_cycle_count(&g), 1);
        assert_eq!(classify(&g), DagClass::UppSingleCycle);
    }

    #[test]
    fn multi_cycle_counts() {
        // Two disjoint guarded diamonds.
        let g = from_edges(
            12,
            &[
                (0, 1),
                (1, 2),
                (2, 4),
                (1, 3),
                (3, 4),
                (4, 5),
                (6, 7),
                (7, 8),
                (8, 10),
                (7, 9),
                (9, 10),
                (10, 11),
            ],
        );
        assert_eq!(internal_cycle_count(&g), 2);
        assert_eq!(classify(&g), DagClass::General { cycles: 2 });
    }

    #[test]
    fn internal_vertices_query() {
        let g = figure3_like();
        let internal: Vec<usize> = internal_vertices(&g).iter().map(|v| v.index()).collect();
        assert_eq!(internal, vec![1, 2, 3, 4]);
    }

    #[test]
    fn chain_of_diamonds_without_guards() {
        // Two chained diamonds sharing a middle vertex: 0→{1,2}→3→{4,5}→6.
        // First diamond: 0 is a source (not internal). Second diamond: 6 is
        // a sink. Only cycles touching interior-only vertices count; here
        // vertex 3 is internal but each diamond has a non-internal vertex.
        let g = from_edges(
            7,
            &[
                (0, 1),
                (0, 2),
                (1, 3),
                (2, 3),
                (3, 4),
                (3, 5),
                (4, 6),
                (5, 6),
            ],
        );
        assert!(is_internal_cycle_free(&g));
    }

    #[test]
    fn guarding_one_diamond_flips_classification() {
        // Same as above plus a guard making the first diamond internal.
        let g = from_edges(
            8,
            &[
                (0, 1),
                (0, 2),
                (1, 3),
                (2, 3),
                (3, 4),
                (3, 5),
                (4, 6),
                (5, 6),
                (7, 0),
            ],
        );
        assert!(has_internal_cycle(&g), "0 now has a predecessor");
        assert_eq!(internal_cycle_count(&g), 1);
    }

    #[test]
    fn directed_cycle_is_general_and_not_a_dag() {
        let g = from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        assert_eq!(internal_cycle_count(&g), 1);
        let (class, sorted) = classify_and_sort(&g);
        assert_eq!(class, DagClass::General { cycles: 1 });
        assert_eq!(sorted, topo::topological_order(&g).map(drop));
        assert!(sorted.is_err());
    }

    #[test]
    fn class_display_names() {
        assert_eq!(
            DagClass::InternalCycleFree.to_string(),
            "internal-cycle-free"
        );
        assert_eq!(DagClass::UppSingleCycle.to_string(), "upp-single-cycle");
        assert_eq!(
            DagClass::UppMultiCycle { cycles: 2 }.to_string(),
            "upp-multi-cycle(2)"
        );
        assert_eq!(
            DagClass::General { cycles: 3 }.to_string(),
            "general(3 internal cycles)"
        );
    }
}
