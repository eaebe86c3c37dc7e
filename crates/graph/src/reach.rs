//! Reachability and shortest dipaths.
//!
//! Includes a bitset transitive closure, which the all-to-all request
//! generator and the optical-backbone example use to pair only reachable
//! endpoints.

use crate::bitset::BitSet;
use crate::digraph::Digraph;
use crate::ids::{ArcId, VertexId};
use crate::topo;
use rayon::prelude::*;

/// Vertices reachable from `start` by dipaths (including `start`).
pub fn reachable_from(g: &Digraph, start: VertexId) -> BitSet {
    let mut seen = BitSet::new(g.vertex_count());
    let mut stack = vec![start];
    seen.insert(start.index());
    while let Some(v) = stack.pop() {
        for w in g.successors(v) {
            if seen.insert(w.index()) {
                stack.push(w);
            }
        }
    }
    seen
}

/// Vertices that can reach `target` by dipaths (including `target`).
pub fn reaching_to(g: &Digraph, target: VertexId) -> BitSet {
    let mut seen = BitSet::new(g.vertex_count());
    let mut stack = vec![target];
    seen.insert(target.index());
    while let Some(v) = stack.pop() {
        for w in g.predecessors(v) {
            if seen.insert(w.index()) {
                stack.push(w);
            }
        }
    }
    seen
}

/// `true` if a dipath `from → … → to` exists (also true when `from == to`).
pub fn is_reachable(g: &Digraph, from: VertexId, to: VertexId) -> bool {
    reachable_from(g, from).contains(to.index())
}

/// A shortest dipath (fewest arcs) from `from` to `to` as an arc sequence,
/// or `None` if unreachable. Empty sequence when `from == to`.
pub fn shortest_dipath(g: &Digraph, from: VertexId, to: VertexId) -> Option<Vec<ArcId>> {
    if from == to {
        return Some(Vec::new());
    }
    let n = g.vertex_count();
    let mut pred: Vec<Option<ArcId>> = vec![None; n];
    let mut seen = BitSet::new(n);
    seen.insert(from.index());
    let mut queue = std::collections::VecDeque::from([from]);
    while let Some(v) = queue.pop_front() {
        for &a in g.out_arcs(v) {
            let w = g.head(a);
            if seen.insert(w.index()) {
                pred[w.index()] = Some(a);
                if w == to {
                    // Reconstruct.
                    let mut arcs = Vec::new();
                    let mut cur = to;
                    while cur != from {
                        let a = pred[cur.index()].expect("bfs predecessor"); // lint: allow(no-panic): every vertex on the walk back was labelled with a predecessor
                        arcs.push(a);
                        cur = g.tail(a);
                    }
                    arcs.reverse();
                    return Some(arcs);
                }
                queue.push_back(w);
            }
        }
    }
    None
}

/// Full transitive closure: `closure[v]` is the reachable set of `v`
/// (including `v` itself). Computed sequentially in reverse topological
/// order for DAGs, one word-level union per arc; falls back to per-vertex
/// BFS on the rayon pool for cyclic digraphs.
pub fn transitive_closure(g: &Digraph) -> Vec<BitSet> {
    let n = g.vertex_count();
    match topo::topological_order(g) {
        Ok(order) => {
            let mut closure: Vec<BitSet> = (0..n).map(|_| BitSet::new(n)).collect();
            for &v in order.iter().rev() {
                let mut set = BitSet::new(n);
                set.insert(v.index());
                for w in g.successors(v) {
                    set.union_with(&closure[w.index()]);
                }
                closure[v.index()] = set;
            }
            closure
        }
        Err(_) => (0..n)
            .into_par_iter()
            .map(|i| reachable_from(g, VertexId::from_index(i)))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::from_edges;

    fn v(i: usize) -> VertexId {
        VertexId::from_index(i)
    }

    #[test]
    fn forward_and_backward_reachability() {
        let g = from_edges(5, &[(0, 1), (1, 2), (3, 2), (2, 4)]);
        let fwd = reachable_from(&g, v(0));
        assert_eq!(fwd.iter().collect::<Vec<_>>(), vec![0, 1, 2, 4]);
        let bwd = reaching_to(&g, v(2));
        assert_eq!(bwd.iter().collect::<Vec<_>>(), vec![0, 1, 2, 3]);
        assert!(is_reachable(&g, v(0), v(4)));
        assert!(!is_reachable(&g, v(4), v(0)));
        assert!(is_reachable(&g, v(3), v(3)), "trivially reachable");
    }

    #[test]
    fn shortest_path_prefers_fewest_arcs() {
        // 0→1→2→3 and shortcut 0→2.
        let g = from_edges(4, &[(0, 1), (1, 2), (2, 3), (0, 2)]);
        let p = shortest_dipath(&g, v(0), v(3)).unwrap();
        assert_eq!(p.len(), 2, "0→2→3 beats 0→1→2→3");
        assert_eq!(g.tail(p[0]), v(0));
        assert_eq!(g.head(p[1]), v(3));
        assert_eq!(g.head(p[0]), g.tail(p[1]), "arcs chain");
    }

    #[test]
    fn shortest_path_unreachable_and_trivial() {
        let g = from_edges(3, &[(0, 1)]);
        assert_eq!(shortest_dipath(&g, v(1), v(0)), None);
        assert_eq!(shortest_dipath(&g, v(2), v(2)), Some(vec![]));
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn closure_matches_pairwise_reachability() {
        let g = from_edges(6, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (5, 4)]);
        let closure = transitive_closure(&g);
        for a in 0..6 {
            for b in 0..6 {
                assert_eq!(
                    closure[a].contains(b),
                    is_reachable(&g, v(a), v(b)),
                    "mismatch at ({a},{b})"
                );
            }
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn closure_on_cyclic_digraph_falls_back() {
        let g = from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        let closure = transitive_closure(&g);
        for i in 0..3 {
            assert_eq!(closure[i].count(), 3, "strongly connected");
        }
    }

    #[test]
    fn closure_of_empty_graph() {
        let g = Digraph::new();
        assert!(transitive_closure(&g).is_empty());
    }
}
