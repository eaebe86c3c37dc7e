//! Arc loads and `π(G, P)`.
//!
//! The load of an arc is the number of family members containing it; the
//! load of the instance, `π(G, P)`, is the maximum over arcs (paper,
//! Section 2). `π` is the universal lower bound on the number of wavelengths
//! — the whole paper is about when the bound is attained.

use crate::family::DipathFamily;
use dagwave_graph::{ArcId, Digraph};

/// Per-arc load table, indexed by arc id.
pub fn load_table(g: &Digraph, family: &DipathFamily) -> Vec<usize> {
    let mut table = vec![0usize; g.arc_count()];
    for (_, p) in family.iter() {
        for &a in p.arcs() {
            table[a.index()] += 1;
        }
    }
    table
}

/// The load of a single arc.
pub fn arc_load(family: &DipathFamily, a: ArcId) -> usize {
    family.iter().filter(|(_, p)| p.contains_arc(a)).count()
}

/// `π(G, P)`: the maximum arc load (0 for an empty family or arcless graph).
pub fn max_load(g: &Digraph, family: &DipathFamily) -> usize {
    load_table(g, family).into_iter().max().unwrap_or(0)
}

/// `π` together with one arc attaining it, or `None` if there are no arcs
/// or no dipaths.
pub fn max_load_arc(g: &Digraph, family: &DipathFamily) -> Option<(ArcId, usize)> {
    load_table(g, family)
        .into_iter()
        .enumerate()
        .max_by_key(|&(_, l)| l)
        .filter(|&(_, l)| l > 0)
        .map(|(i, l)| (ArcId::from_index(i), l))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dipath::Dipath;
    use dagwave_graph::builder::from_edges;
    use dagwave_graph::VertexId;

    fn v(i: usize) -> VertexId {
        VertexId::from_index(i)
    }

    fn overlapping_family() -> (Digraph, DipathFamily) {
        let g = from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let mut f = DipathFamily::new();
        f.push(Dipath::from_vertices(&g, &[v(0), v(1), v(2)]).unwrap());
        f.push(Dipath::from_vertices(&g, &[v(1), v(2), v(3)]).unwrap());
        f.push(Dipath::from_vertices(&g, &[v(1), v(2)]).unwrap());
        (g, f)
    }

    #[test]
    fn table_counts_membership() {
        let (g, f) = overlapping_family();
        let t = load_table(&g, &f);
        let a01 = g.find_arc(v(0), v(1)).unwrap();
        let a12 = g.find_arc(v(1), v(2)).unwrap();
        let a23 = g.find_arc(v(2), v(3)).unwrap();
        let a34 = g.find_arc(v(3), v(4)).unwrap();
        assert_eq!(t[a01.index()], 1);
        assert_eq!(t[a12.index()], 3);
        assert_eq!(t[a23.index()], 1);
        assert_eq!(t[a34.index()], 0);
    }

    #[test]
    fn max_load_and_witness() {
        let (g, f) = overlapping_family();
        assert_eq!(max_load(&g, &f), 3);
        let (arc, l) = max_load_arc(&g, &f).unwrap();
        assert_eq!(l, 3);
        assert_eq!(g.tail(arc), v(1));
        assert_eq!(arc_load(&f, arc), 3);
        assert_eq!(max_load(&g, &f.replicate(37)), 3 * 37);
    }

    #[test]
    fn empty_cases() {
        let g = from_edges(2, &[(0, 1)]);
        let f = DipathFamily::new();
        assert_eq!(max_load(&g, &f), 0);
        assert_eq!(max_load_arc(&g, &f), None);
        let g0 = Digraph::new();
        assert_eq!(max_load(&g0, &f), 0);
    }

    #[test]
    fn load_is_pi_lower_bound_sanity() {
        // π ≤ w always: here the three 1→2 users force at least π = 3
        // wavelengths; the conflict graph is K3 so w = 3 exactly.
        let (g, f) = overlapping_family();
        let pi = max_load(&g, &f);
        assert_eq!(pi, 3);
        // All pairs conflict on arc 1→2.
        for (i, p) in f.iter() {
            for (j, q) in f.iter() {
                if i != j {
                    assert!(p.conflicts_with(q));
                }
            }
        }
    }
}
