//! Figure 9 / Theorem 7 — Havet's tight example.
//!
//! An UPP-DAG with exactly one internal cycle and 8 dipaths whose conflict
//! graph is the Wagner graph `V8` (`C8` plus antipodal chords): `π = 2`,
//! `w = 3`. Replicating each dipath `h` times gives `π = 2h` and
//! `w = ⌈8h/3⌉` (the independence number is 3), which meets the Theorem 6
//! bound `⌈4π/3⌉` exactly — the bound is tight.

use crate::Instance;
use dagwave_graph::{Digraph, VertexId};
use dagwave_paths::{Dipath, DipathFamily};

/// Vertex indices of the Havet digraph, for readability.
/// `a1 a2 b1 b2 c1 c2 d1 d2 a'1 a'2 d'1 d'2` = `0..12`.
pub const HAVET_VERTICES: usize = 12;

/// The Havet digraph: sources `a1, a2, a'1, a'2`, the 4-cycle of `b/c`
/// arcs (the unique internal cycle), sinks `d1, d2, d'1, d'2`.
pub fn havet_graph() -> Digraph {
    dagwave_graph::builder::from_edges(
        HAVET_VERTICES,
        &[
            (0, 2),  // a1 → b1
            (1, 3),  // a2 → b2
            (8, 2),  // a'1 → b1
            (9, 3),  // a'2 → b2
            (2, 4),  // b1 → c1
            (2, 5),  // b1 → c2
            (3, 4),  // b2 → c1
            (3, 5),  // b2 → c2
            (4, 6),  // c1 → d1
            (5, 7),  // c2 → d2
            (4, 10), // c1 → d'1
            (5, 11), // c2 → d'2
        ],
    )
}

/// The 8 Havet dipaths on [`havet_graph`], in conflict-cycle order: the
/// a-side arcs pair consecutive dipaths `{01, 23, 45, 67}`, the cd-side
/// arcs pair `{12, 34, 56, 70}` (together the `C8`), and the bc-side arcs
/// pair antipodal dipaths `{04, 15, 26, 37}`.
pub fn havet_base_family(g: &Digraph) -> DipathFamily {
    let v = |i: usize| VertexId::from_index(i);
    let p = |route: &[usize]| {
        let r: Vec<VertexId> = route.iter().map(|&i| v(i)).collect();
        Dipath::from_vertices(g, &r).expect("havet path") // lint: allow(no-panic): fixture routes follow arcs added above
    };
    DipathFamily::from_paths(vec![
        p(&[0, 2, 4, 10]), // p0: a1 b1 c1 d'1
        p(&[0, 2, 5, 7]),  // p1: a1 b1 c2 d2
        p(&[1, 3, 5, 7]),  // p2: a2 b2 c2 d2
        p(&[1, 3, 4, 6]),  // p3: a2 b2 c1 d1
        p(&[8, 2, 4, 6]),  // p4: a'1 b1 c1 d1
        p(&[8, 2, 5, 11]), // p5: a'1 b1 c2 d'2
        p(&[9, 3, 5, 11]), // p6: a'2 b2 c2 d'2
        p(&[9, 3, 4, 10]), // p7: a'2 b2 c1 d'1
    ])
}

/// The Theorem-7 instance at replication factor `h`: `π = 2h`,
/// `w = ⌈8h/3⌉`.
pub fn havet(h: usize) -> Instance {
    assert!(h >= 1);
    let graph = havet_graph();
    let family = havet_base_family(&graph).replicate(h);
    Instance {
        graph,
        family,
        name: format!("fig9-havet-h{h}"),
    }
}

/// Havet's eight dipaths with `copies[i]` copies of dipath `i`, the copies
/// of each dipath in a row, in base order.
pub fn havet_copies(copies: &[usize; 8]) -> Instance {
    let graph = havet_graph();
    let base = havet_base_family(&graph);
    let family = base
        .iter()
        .zip(copies)
        .flat_map(|((_, p), &c)| std::iter::repeat_n(p, c).cloned())
        .collect();
    Instance {
        graph,
        family,
        name: format!("havet-copies{copies:?}"),
    }
}

/// Copy counts for [`havet_copies`] whose twin quotient is hard to cover:
/// a covering search that tries every ordering of the same color classes
/// spends the whole default node budget on each and proves none.
pub const REPLICATED_FIXTURES: [[usize; 8]; 4] = [
    [6, 7, 8, 9, 10, 4, 5, 6],
    [8, 9, 10, 4, 5, 6, 7, 8],
    [5, 6, 7, 8, 9, 3, 4, 5],
    [4, 5, 6, 7, 8, 9, 10, 4],
];

#[cfg(test)]
mod tests {
    use super::*;
    use dagwave_core::{bounds, internal};
    use dagwave_paths::{load, ConflictGraph, PathId};

    #[test]
    fn graph_is_single_cycle_upp() {
        let g = havet_graph();
        assert!(dagwave_graph::topo::is_dag(&g));
        assert!(dagwave_graph::pathcount::is_upp(&g));
        assert_eq!(internal::internal_cycle_count(&g), 1);
    }

    #[test]
    fn base_conflict_graph_is_wagner() {
        let inst = havet(1);
        assert_eq!(inst.load(), 2);
        let cg = ConflictGraph::build(&inst.graph, &inst.family);
        assert_eq!(cg.vertex_count(), 8);
        assert_eq!(cg.edge_count(), 12, "C8 + 4 antipodal chords");
        for i in 0..8 {
            assert_eq!(cg.degree(PathId::from_index(i)), 3, "cubic");
        }
        // C8 backbone: consecutive dipaths conflict.
        for i in 0..8u32 {
            assert!(
                cg.are_adjacent(PathId(i), PathId((i + 1) % 8)),
                "cycle edge {i}"
            );
        }
        // Antipodal chords.
        for i in 0..4u32 {
            assert!(cg.are_adjacent(PathId(i), PathId(i + 4)), "chord {i}");
        }
    }

    #[test]
    fn every_arc_has_load_two() {
        let inst = havet(1);
        let table = load::load_table(&inst.graph, &inst.family);
        assert!(table.iter().all(|&l| l == 2), "uniform load 2: {table:?}");
    }

    #[test]
    fn replication_scales_load() {
        for h in [1usize, 2, 5] {
            let inst = havet(h);
            assert_eq!(inst.load(), 2 * h);
            assert_eq!(inst.family.len(), 8 * h);
        }
    }

    #[test]
    fn solver_reaches_the_tight_value() {
        // w(havet(h)) = ⌈8h/3⌉, exactly the Theorem 6 bound ⌈4π/3⌉.
        for h in [1usize, 2, 3] {
            let inst = havet(h);
            let sol = dagwave_core::SolveSession::auto()
                .solve(&inst.graph, &inst.family)
                .unwrap();
            assert!(sol.assignment.is_valid(&inst.graph, &inst.family));
            assert_eq!(
                sol.num_colors,
                bounds::havet_wavelengths(h),
                "h={h}: w = ⌈8h/3⌉"
            );
            assert_eq!(
                bounds::havet_wavelengths(h),
                bounds::theorem6_bound(2 * h),
                "the bound is attained"
            );
        }
    }
}
