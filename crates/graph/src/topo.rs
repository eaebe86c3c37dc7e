//! Topological orderings and DAG validation.
//!
//! Two implementations are provided: Kahn's queue-based algorithm (used by
//! the peel phase of the Theorem-1 solver, which needs explicit source
//! tracking) and an iterative DFS with cycle-witness extraction.

use crate::digraph::Digraph;
use crate::error::GraphError;
use crate::ids::VertexId;

/// `true` if the digraph has no directed cycle.
pub fn is_dag(g: &Digraph) -> bool {
    topological_order(g).is_ok()
}

/// A topological order of the vertices (Kahn's algorithm), or a witness
/// directed cycle if none exists.
pub fn topological_order(g: &Digraph) -> Result<Vec<VertexId>, GraphError> {
    let n = g.vertex_count();
    let adjacency = g.adjacency();
    let mut indeg: Vec<usize> = g.vertices().map(|v| adjacency.indegree(v)).collect();
    let mut queue: Vec<VertexId> = g.vertices().filter(|&v| indeg[v.index()] == 0).collect();
    let mut order = Vec::with_capacity(n);
    let mut qi = 0;
    while qi < queue.len() {
        let v = queue[qi];
        qi += 1;
        order.push(v);
        for &a in adjacency.out_arcs(v) {
            let w = g.head(a);
            indeg[w.index()] -= 1;
            if indeg[w.index()] == 0 {
                queue.push(w);
            }
        }
    }
    if order.len() == n {
        Ok(order)
    } else {
        Err(GraphError::NotADag(
            find_directed_cycle(g).expect("Kahn reported a cycle, DFS must find one"), // lint: allow(no-panic): Kahn reported a cycle, so DFS must find one
        ))
    }
}

/// Position of each vertex in a topological order: `rank[v] < rank[w]`
/// whenever there is an arc `v → w`.
pub fn topological_rank(g: &Digraph) -> Result<Vec<usize>, GraphError> {
    let order = topological_order(g)?;
    let mut rank = vec![0usize; g.vertex_count()];
    for (i, v) in order.iter().enumerate() {
        rank[v.index()] = i;
    }
    Ok(rank)
}

/// Find a directed cycle as a vertex sequence `v0 → v1 → … → v0` (the first
/// vertex is repeated at the end), or `None` if the digraph is acyclic.
pub fn find_directed_cycle(g: &Digraph) -> Option<Vec<VertexId>> {
    #[derive(Clone, Copy, PartialEq)]
    enum Mark {
        White,
        Gray,
        Black,
    }
    let n = g.vertex_count();
    let mut mark = vec![Mark::White; n];
    let mut parent: Vec<Option<VertexId>> = vec![None; n];

    let adjacency = g.adjacency();
    for start in g.vertices() {
        if mark[start.index()] != Mark::White {
            continue;
        }
        // Iterative DFS keeping an explicit successor cursor per frame.
        let mut stack: Vec<(VertexId, usize)> = vec![(start, 0)];
        mark[start.index()] = Mark::Gray;
        while let Some(&mut (v, ref mut cursor)) = stack.last_mut() {
            let outs = adjacency.out_arcs(v);
            if *cursor < outs.len() {
                let w = g.head(outs[*cursor]);
                *cursor += 1;
                match mark[w.index()] {
                    Mark::White => {
                        mark[w.index()] = Mark::Gray;
                        parent[w.index()] = Some(v);
                        stack.push((w, 0));
                    }
                    Mark::Gray => {
                        // Back edge v → w: unwind the parent chain from v to w.
                        // Collected as [w, v, parent(v), …, child-of-w]; the
                        // tail is in reverse tree order, so flip it, then
                        // close the cycle by repeating w.
                        let mut cycle = vec![w];
                        let mut cur = v;
                        while cur != w {
                            cycle.push(cur);
                            // lint: allow(no-panic): the DFS parents every gray vertex
                            cur = parent[cur.index()].expect("gray vertex has parent");
                        }
                        cycle[1..].reverse();
                        cycle.push(w);
                        debug_assert_eq!(cycle.first(), cycle.last());
                        return Some(cycle);
                    }
                    Mark::Black => {}
                }
            } else {
                mark[v.index()] = Mark::Black;
                stack.pop();
            }
        }
    }
    None
}

/// Longest-dipath length (number of arcs) ending at each vertex.
///
/// Useful for layering DAGs; errors if the digraph is not acyclic.
pub fn longest_path_lengths(g: &Digraph) -> Result<Vec<usize>, GraphError> {
    let order = topological_order(g)?;
    let mut depth = vec![0usize; g.vertex_count()];
    for v in order {
        for w in g.successors(v) {
            depth[w.index()] = depth[w.index()].max(depth[v.index()] + 1);
        }
    }
    Ok(depth)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::from_edges;

    #[test]
    fn chain_is_dag() {
        let g = from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        assert!(is_dag(&g));
        let ord = topological_order(&g).unwrap();
        assert_eq!(
            ord,
            vec![VertexId(0), VertexId(1), VertexId(2), VertexId(3)]
        );
    }

    #[test]
    fn cycle_is_rejected_with_witness() {
        let g = from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        assert!(!is_dag(&g));
        match topological_order(&g) {
            Err(GraphError::NotADag(cycle)) => {
                assert_eq!(cycle.first(), cycle.last());
                assert_eq!(cycle.len(), 4, "triangle witness has 3 arcs");
                // Each consecutive pair is an arc of g.
                for w in cycle.windows(2) {
                    assert!(g.find_arc(w[0], w[1]).is_some(), "{:?} not an arc", w);
                }
            }
            other => panic!("expected NotADag, got {other:?}"),
        }
    }

    #[test]
    fn self_contained_cycle_in_larger_graph() {
        // Acyclic part 0→1, cycle 2→3→4→2 reachable from 1.
        let g = from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 2)]);
        let cycle = find_directed_cycle(&g).unwrap();
        assert_eq!(cycle.first(), cycle.last());
        for w in cycle.windows(2) {
            assert!(g.find_arc(w[0], w[1]).is_some());
        }
        assert!(!cycle.contains(&VertexId(0)));
    }

    #[test]
    fn rank_respects_arcs() {
        let g = from_edges(5, &[(0, 2), (1, 2), (2, 3), (2, 4)]);
        let rank = topological_rank(&g).unwrap();
        for (_, arc) in g.arcs() {
            assert!(rank[arc.tail.index()] < rank[arc.head.index()]);
        }
    }

    #[test]
    fn empty_graph() {
        let g = Digraph::new();
        assert!(is_dag(&g));
        assert!(topological_order(&g).unwrap().is_empty());
        assert_eq!(find_directed_cycle(&g), None);
    }

    #[test]
    fn two_vertex_cycle_via_antiparallel_arcs() {
        let g = from_edges(2, &[(0, 1), (1, 0)]);
        assert!(!is_dag(&g));
        let cycle = find_directed_cycle(&g).unwrap();
        assert_eq!(cycle.len(), 3);
    }

    #[test]
    fn longest_paths_in_diamond() {
        let g = from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let depth = longest_path_lengths(&g).unwrap();
        assert_eq!(depth, vec![0, 1, 1, 2]);
    }

    #[test]
    fn longest_paths_error_on_cycle() {
        let g = from_edges(2, &[(0, 1), (1, 0)]);
        assert!(longest_path_lengths(&g).is_err());
    }

    #[test]
    fn parallel_arcs_do_not_break_kahn() {
        let g = from_edges(2, &[(0, 1), (0, 1)]);
        let ord = topological_order(&g).unwrap();
        assert_eq!(ord, vec![VertexId(0), VertexId(1)]);
    }
}
