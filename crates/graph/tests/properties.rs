//! Property tests for the graph substrate: the flat adjacency against a
//! per-vertex reference, topological-order invariants, reachability
//! consistency, undirected cycle machinery, and UPP counting.

use dagwave_graph::builder::from_edges;
use dagwave_graph::pathcount::{self, SatCount};
use dagwave_graph::{reach, topo, undirected, ArcId, Digraph, SubgraphView, VertexId};
use proptest::prelude::*;

/// Random DAG as an edge list with edges oriented low → high (always
/// acyclic) over `n` vertices.
fn dag_strategy() -> impl Strategy<Value = (usize, Vec<(usize, usize)>)> {
    (3usize..40).prop_flat_map(|n| {
        let edges =
            proptest::collection::vec((0usize..n, 0usize..n), 0..3 * n).prop_map(move |pairs| {
                pairs
                    .into_iter()
                    .filter(|(a, b)| a != b)
                    .map(|(a, b)| (a.min(b), a.max(b)))
                    .collect::<Vec<_>>()
            });
        (Just(n), edges)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn topo_order_respects_all_arcs((n, edges) in dag_strategy()) {
        let g = from_edges(n, &edges);
        let order = topo::topological_order(&g).expect("low→high edges are acyclic");
        prop_assert_eq!(order.len(), n);
        let rank = topo::topological_rank(&g).unwrap();
        for (_, arc) in g.arcs() {
            prop_assert!(rank[arc.tail.index()] < rank[arc.head.index()]);
        }
    }

    #[test]
    fn closure_matches_bfs((n, edges) in dag_strategy()) {
        let g = from_edges(n, &edges);
        let closure = reach::transitive_closure(&g);
        prop_assert_eq!(closure.len(), n);
        for (u, row) in closure.iter().enumerate() {
            let bfs = reach::reachable_from(&g, VertexId::from_index(u));
            prop_assert_eq!(row.iter().collect::<Vec<_>>(), bfs.iter().collect::<Vec<_>>());
        }
    }

    #[test]
    fn forward_backward_reachability_agree((n, edges) in dag_strategy()) {
        let g = from_edges(n, &edges);
        for u in 0..n.min(8) {
            for v in 0..n.min(8) {
                let fwd = reach::is_reachable(&g, VertexId::from_index(u), VertexId::from_index(v));
                let bwd = reach::reaching_to(&g, VertexId::from_index(v)).contains(u);
                prop_assert_eq!(fwd, bwd);
            }
        }
    }

    #[test]
    fn underlying_cycle_iff_not_forest((n, edges) in dag_strategy()) {
        let g = from_edges(n, &edges);
        let view = SubgraphView::full(&g);
        // Cyclomatic number 0 ⟺ forest ⟺ no cycle found, and it is
        // m − n + c, with c counted by a search over the underlying
        // multigraph.
        let forest = undirected::cyclomatic_number(&view) == 0;
        let found = undirected::find_underlying_cycle(&view);
        prop_assert_eq!(forest, found.is_none());
        if let Some(cycle) = found {
            prop_assert!(cycle.validate(&g));
        }
        let mut component = vec![usize::MAX; n];
        let mut c = 0;
        for s in 0..n {
            if component[s] != usize::MAX {
                continue;
            }
            component[s] = c;
            let mut stack = vec![s];
            while let Some(x) = stack.pop() {
                for &(a, b) in &edges {
                    for (p, q) in [(a, b), (b, a)] {
                        if p == x && component[q] == usize::MAX {
                            component[q] = c;
                            stack.push(q);
                        }
                    }
                }
            }
            c += 1;
        }
        prop_assert_eq!(undirected::cyclomatic_number(&view), g.arc_count() + c - n);
    }

    /// Every ordered pair, cross-checked by capped enumeration (the
    /// strategy draws parallel arcs, which are two dipaths on their own):
    /// the saturating count matches, UPP holds exactly when no pair has two
    /// dipaths, and the violation witness is the lexicographically smallest
    /// such pair.
    #[test]
    fn upp_agrees_with_enumeration((n, edges) in dag_strategy()) {
        let g = from_edges(n, &edges);
        let mut first_double = None;
        for u in 0..n {
            let uu = VertexId::from_index(u);
            let counts = pathcount::saturating_path_counts(&g, uu);
            for v in (0..n).filter(|&v| v != u) {
                let vv = VertexId::from_index(v);
                let expected = match pathcount::enumerate_dipaths(&g, uu, vv, 2).len() {
                    0 => SatCount::Zero,
                    1 => SatCount::One,
                    _ => SatCount::Many,
                };
                prop_assert_eq!(counts[v], expected, "{} → {}", u, v);
                if expected == SatCount::Many && first_double.is_none() {
                    first_double = Some((uu, vv));
                }
            }
        }
        prop_assert_eq!(pathcount::is_upp(&g), first_double.is_none());
        prop_assert_eq!(pathcount::upp_violation(&g), first_double);
    }

    #[test]
    fn shortest_path_is_minimal((n, edges) in dag_strategy()) {
        let g = from_edges(n, &edges);
        for u in 0..n.min(6) {
            for v in 0..n.min(6) {
                if u == v { continue; }
                let (uu, vv) = (VertexId::from_index(u), VertexId::from_index(v));
                if let Some(p) = reach::shortest_dipath(&g, uu, vv) {
                    // Chained and minimal vs capped enumeration.
                    for w in p.windows(2) {
                        prop_assert_eq!(g.head(w[0]), g.tail(w[1]));
                    }
                    let all = pathcount::enumerate_dipaths(&g, uu, vv, 50);
                    let min = all.iter().map(|q| q.len()).min().unwrap();
                    prop_assert_eq!(p.len(), min);
                }
            }
        }
    }

    #[test]
    fn longest_path_depths_are_consistent((n, edges) in dag_strategy()) {
        let g = from_edges(n, &edges);
        let depth = topo::longest_path_lengths(&g).unwrap();
        for (_, arc) in g.arcs() {
            prop_assert!(depth[arc.head.index()] > depth[arc.tail.index()]);
        }
    }
}

/// Per-vertex push-order adjacency: what `add_arc` appended to each
/// vertex's own `Vec` before the flat layout replaced them.
#[derive(Clone, Default)]
struct PushOrder {
    arcs: Vec<(usize, usize)>,
    out: Vec<Vec<ArcId>>,
    inc: Vec<Vec<ArcId>>,
}

impl PushOrder {
    fn add_vertex(&mut self) {
        self.out.push(Vec::new());
        self.inc.push(Vec::new());
    }

    fn add_arc(&mut self, t: usize, h: usize) {
        let id = ArcId::from_index(self.arcs.len());
        self.arcs.push((t, h));
        self.out[t].push(id);
        self.inc[h].push(id);
    }

    /// Kahn's algorithm over the reference lists, as the deleted `Csr`
    /// snapshot ran it: every source in id order, then FIFO.
    fn topological_order(&self) -> Option<Vec<VertexId>> {
        let n = self.out.len();
        let mut indeg: Vec<usize> = self.inc.iter().map(Vec::len).collect();
        let mut order: Vec<usize> = (0..n).filter(|&v| indeg[v] == 0).collect();
        let mut head = 0;
        while head < order.len() {
            let v = order[head];
            head += 1;
            for a in &self.out[v] {
                let w = self.arcs[a.index()].1;
                indeg[w] -= 1;
                if indeg[w] == 0 {
                    order.push(w);
                }
            }
        }
        (order.len() == n).then(|| order.into_iter().map(VertexId::from_index).collect())
    }
}

/// Every adjacency query of `g` against the reference.
fn check_adjacency(g: &Digraph, r: &PushOrder) {
    let n = r.out.len();
    prop_assert_eq!(g.vertex_count(), n);
    prop_assert_eq!(g.arc_count(), r.arcs.len());
    let v = VertexId::from_index;
    for x in 0..n {
        prop_assert_eq!(g.out_arcs(v(x)), &r.out[x][..]);
        prop_assert_eq!(g.in_arcs(v(x)), &r.inc[x][..]);
        prop_assert_eq!(g.outdegree(v(x)), r.out[x].len());
        prop_assert_eq!(g.indegree(v(x)), r.inc[x].len());
        let succ: Vec<VertexId> = r.out[x].iter().map(|a| v(r.arcs[a.index()].1)).collect();
        let pred: Vec<VertexId> = r.inc[x].iter().map(|a| v(r.arcs[a.index()].0)).collect();
        prop_assert_eq!(g.successors(v(x)).collect::<Vec<_>>(), succ);
        prop_assert_eq!(g.predecessors(v(x)).collect::<Vec<_>>(), pred);
        for y in 0..n {
            let parallel: Vec<ArcId> = r.out[x]
                .iter()
                .copied()
                .filter(|a| r.arcs[a.index()].1 == y)
                .collect();
            prop_assert_eq!(g.find_arc(v(x), v(y)), parallel.first().copied());
            prop_assert_eq!(g.find_arcs(v(x), v(y)), parallel);
        }
    }
    let filter = |keep: &dyn Fn(usize) -> bool| -> Vec<VertexId> {
        (0..n).filter(|&x| keep(x)).map(v).collect()
    };
    prop_assert_eq!(g.sources(), filter(&|x| r.inc[x].is_empty()));
    prop_assert_eq!(g.sinks(), filter(&|x| r.out[x].is_empty()));
    prop_assert_eq!(
        g.internal_vertices(),
        filter(&|x| !r.inc[x].is_empty() && !r.out[x].is_empty())
    );
    prop_assert_eq!(topo::topological_order(g).ok(), r.topological_order());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The flat adjacency against per-vertex push-order lists, on random
    /// multigraphs (parallel arcs, isolated vertices, cycles or not) grown
    /// by a script that queries, mutates after a query, and clones a graph
    /// whose table is already built.
    #[test]
    fn flat_adjacency_matches_push_order_reference(
        (n, ops) in (0usize..12, proptest::collection::vec((0u8..16, 0usize..64, 0usize..64), 0..96))
    ) {
        let mut g = Digraph::with_vertices(n);
        let mut r = PushOrder::default();
        for _ in 0..n {
            r.add_vertex();
        }
        let mut clones: Vec<(Digraph, PushOrder)> = Vec::new();
        for (kind, x, y) in ops {
            let n = r.out.len();
            match kind {
                0 | 1 => {
                    g.add_vertex();
                    r.add_vertex();
                }
                2 | 3 => check_adjacency(&g, &r),
                4 => {
                    // Clone after a query, so the copy carries a built table.
                    check_adjacency(&g, &r);
                    clones.push((g.clone(), r.clone()));
                }
                _ if n >= 2 && x % n != y % n => {
                    let (mut t, mut h) = (x % n, y % n);
                    // Mostly low → high (acyclic); some arcs may close cycles.
                    if kind < 15 && t > h {
                        std::mem::swap(&mut t, &mut h);
                    }
                    g.add_arc(VertexId::from_index(t), VertexId::from_index(h));
                    r.add_arc(t, h);
                }
                _ => {}
            }
        }
        check_adjacency(&g, &r);
        // A clone is independent of later mutations of its source.
        for (c, cr) in &clones {
            check_adjacency(c, cr);
        }
    }
}

#[test]
fn subgraph_view_masks_compose() {
    let g = from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]);
    let mut view = SubgraphView::full(&g);
    view.remove_vertex(VertexId(3));
    let (sub, vmap, amap) = view.to_digraph();
    assert_eq!(sub.vertex_count(), 5);
    // Arcs 2→3 and 3→4 vanish.
    assert_eq!(sub.arc_count(), 4);
    assert!(vmap[3].is_none());
    assert_eq!(amap.iter().filter(|m| m.is_some()).count(), 4);
    assert!(topo::is_dag(&sub));
}

#[test]
fn digraph_clone_is_independent() {
    let mut g = Digraph::new();
    let a = g.add_vertex();
    let b = g.add_vertex();
    g.add_arc(a, b);
    let snapshot = g.clone();
    g.add_vertex();
    g.add_arc(b, VertexId(2));
    assert_eq!(snapshot.vertex_count(), 2);
    assert_eq!(snapshot.arc_count(), 1);
    assert_eq!(g.arc_count(), 2);
}
