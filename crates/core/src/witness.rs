//! Figure 4 — turning a blocked recoloring into an internal-cycle witness.
//!
//! When the Theorem-1 replay fails (case C of the proof), it returns the
//! alternating chain `P1, …, Pp = P0` of dipaths whose pairwise
//! intersections trace a closed walk. The proof extracts an internal cycle
//! from that walk; this module implements the extraction: the union of the
//! chain dipaths' arcs, restricted to vertices internal in `G`, must
//! contain an underlying cycle, which is internal.

use dagwave_graph::undirected::{self, OrientedCycle};
use dagwave_graph::{Digraph, SubgraphView};
use dagwave_paths::{DipathFamily, PathId};

/// Extract an explicit internal cycle from a blocked recoloring chain.
///
/// `chain` is the dipath sequence carried by
/// [`crate::CoreError::InternalCycleObstruction`]. Returns `None` only if
/// the chain does not actually witness an internal cycle (which would
/// indicate a solver bug — the proof guarantees it does).
pub fn internal_cycle_from_chain(
    g: &Digraph,
    family: &DipathFamily,
    chain: &[PathId],
) -> Option<OrientedCycle> {
    // Support of the chain: all arcs of the involved dipaths. The proof's
    // closed walk lives inside this support; every turn vertex of the
    // extracted cycle has a predecessor/successor along the dipaths
    // themselves, so restricting to internal vertices of G is safe.
    let mut arcs = std::collections::HashSet::new();
    for &p in chain {
        for &a in family.path(p).arcs() {
            arcs.insert(a);
        }
    }
    let mut view = SubgraphView::full(g);
    for a in g.arc_ids() {
        if !arcs.contains(&a) {
            view.remove_arc(a);
        }
    }
    for v in g.vertices() {
        if !g.is_internal(v) {
            view.remove_vertex(v);
        }
    }
    let cycle = undirected::find_underlying_cycle(&view)?;
    debug_assert!(crate::internal::is_internal_cycle(g, &cycle));
    Some(cycle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagwave_graph::builder::from_edges;
    use dagwave_graph::VertexId;
    use dagwave_paths::Dipath;

    /// Figure 3's instance blocks the Theorem-1 replay; the witness must be
    /// the b-c-d internal cycle.
    fn figure3() -> (Digraph, DipathFamily) {
        let g = from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (1, 3)]);
        let v = |i: usize| VertexId::from_index(i);
        let p = |route: &[usize]| {
            let r: Vec<VertexId> = route.iter().map(|&i| v(i)).collect();
            Dipath::from_vertices(&g, &r).unwrap()
        };
        let family = DipathFamily::from_paths(vec![
            p(&[0, 1, 2]),
            p(&[1, 2, 3]),
            p(&[2, 3, 4]),
            p(&[1, 3, 4]),
            p(&[0, 1, 3]),
        ]);
        (g, family)
    }

    #[test]
    fn chain_support_extraction() {
        let (g, family) = figure3();
        let Err(crate::CoreError::InternalCycleObstruction { chain }) =
            crate::theorem1::color_optimal(&g, &family)
        else {
            panic!("expected obstruction");
        };
        let cycle = internal_cycle_from_chain(&g, &family, &chain).expect("witness");
        assert!(cycle.validate(&g));
        assert!(cycle.vertices.iter().all(|&v| g.is_internal(v)));
    }

    #[test]
    fn obstruction_yields_internal_cycle() {
        let (g, family) = figure3();
        match crate::theorem1::color_optimal(&g, &family) {
            Err(crate::CoreError::InternalCycleObstruction { chain }) => {
                let cycle = internal_cycle_from_chain(&g, &family, &chain).expect("witness");
                assert!(crate::internal::is_internal_cycle(&g, &cycle));
                // The only internal cycle is b(1), c(2), d(3).
                let mut vs: Vec<usize> = cycle.vertices.iter().map(|v| v.index()).collect();
                vs.sort_unstable();
                assert_eq!(vs, vec![1, 2, 3]);
            }
            Err(other) => panic!("unexpected theorem-1 error: {other}"),
            Ok(res) => panic!(
                "C5 family must block at π = 2, got {} colors",
                res.assignment.num_colors()
            ),
        }
    }
}
