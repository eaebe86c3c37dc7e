//! Saturating dipath counting — the Unique-diPath-Property primitive.
//!
//! A DAG is an **UPP-DAG** (paper, Section 2) when there is at most one
//! dipath between any ordered vertex pair. Exact path counts explode
//! combinatorially, but the UPP test only needs to distinguish 0 / 1 / "2 or
//! more", so counts saturate at 2 and the DP stays O(V·E).

use crate::digraph::Digraph;
use crate::ids::VertexId;
use crate::topo;
use rayon::prelude::*;

/// A dipath count clamped at 2 ("two or more").
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SatCount {
    /// No dipath.
    Zero,
    /// Exactly one dipath.
    One,
    /// Two or more dipaths.
    Many,
}

impl SatCount {
    fn add(self, other: SatCount) -> SatCount {
        use SatCount::*;
        match (self, other) {
            (Zero, x) | (x, Zero) => x,
            (One, One) => Many,
            _ => Many,
        }
    }
}

/// Saturating number of dipaths from `from` to every vertex.
///
/// `counts[v]` is the number of distinct dipaths `from → … → v` clamped at
/// two; `counts[from]` is [`SatCount::One`] (the empty dipath). Requires a
/// DAG; panics otherwise (callers validate with [`topo::is_dag`] first).
pub fn saturating_path_counts(g: &Digraph, from: VertexId) -> Vec<SatCount> {
    let order = topo::topological_order(g).expect("saturating_path_counts requires a DAG"); // lint: allow(no-panic): documented contract: callers validate acyclicity first
    let mut counts = vec![SatCount::Zero; g.vertex_count()];
    counts_along(g, &order, from, &mut counts);
    counts
}

/// [`saturating_path_counts`] over a topological `order` computed once by
/// the caller, into a caller-owned buffer of one entry per vertex
/// (overwritten), so a sweep over every source sorts the graph once and
/// reuses one buffer.
fn counts_along(g: &Digraph, order: &[VertexId], from: VertexId, counts: &mut [SatCount]) {
    let adjacency = g.adjacency();
    counts.fill(SatCount::Zero);
    counts[from.index()] = SatCount::One;
    for &v in order {
        let cv = counts[v.index()];
        if cv == SatCount::Zero {
            continue;
        }
        for &a in adjacency.out_arcs(v) {
            let w = g.head(a);
            counts[w.index()] = counts[w.index()].add(cv);
        }
    }
}

/// The sources `0..n` cut into contiguous, ascending runs, one on a single
/// thread and a few per thread otherwise: each run is one pool task and
/// reuses one count buffer.
fn source_runs(n: usize) -> Vec<std::ops::Range<usize>> {
    let runs = match rayon::current_num_threads() {
        0 | 1 => 1,
        t => 4 * t,
    };
    let len = n.div_ceil(runs).max(1);
    (0..n)
        .step_by(len)
        .map(|lo| lo..(lo + len).min(n))
        .collect()
}

/// `true` if between every ordered pair of vertices there is at most one
/// dipath — the paper's UPP property. Sorts the graph and runs
/// [`upp_violation_along`] on the order; a graph with a directed cycle is
/// not UPP.
pub fn is_upp(g: &Digraph) -> bool {
    topo::topological_order(g).is_ok_and(|order| upp_violation_along(g, &order).is_none())
}

/// If the DAG violates UPP, return a witness pair `(u, v)` with at least two
/// distinct dipaths `u → v` — the lexicographically smallest such pair —
/// or `None` when the digraph is UPP (or not a DAG). Sorts the graph and
/// runs [`upp_violation_along`] on the order.
pub fn upp_violation(g: &Digraph) -> Option<(VertexId, VertexId)> {
    upp_violation_along(g, &topo::topological_order(g).ok()?)
}

/// The UPP test over a topological `order` of `g` the caller already
/// holds, the one body behind [`is_upp`] and [`upp_violation`]: the
/// lexicographically smallest pair `(u, v)` with two or more dipaths
/// `u → v`, or `None` when `g` is UPP. One saturating DP per source over
/// `order`, in parallel with rayon: one count buffer per run of sources,
/// not one per source. Each run reports its first (smallest) violating
/// source, so the minimum over runs is the sequential sweep's answer.
pub fn upp_violation_along(g: &Digraph, order: &[VertexId]) -> Option<(VertexId, VertexId)> {
    debug_assert_eq!(order.len(), g.vertex_count(), "not an order of g");
    source_runs(g.vertex_count())
        .into_par_iter()
        .filter_map(|run| {
            let mut counts = vec![SatCount::Zero; g.vertex_count()];
            run.into_iter().find_map(|i| {
                let from = VertexId::from_index(i);
                counts_along(g, order, from, &mut counts);
                counts
                    .iter()
                    .position(|&c| c == SatCount::Many)
                    .map(|j| (from, VertexId::from_index(j)))
            })
        })
        .min()
}

/// Enumerate all dipaths from `from` to `to` as arc sequences, stopping after
/// `cap` paths (guards against exponential blowup; returns at most `cap`).
pub fn enumerate_dipaths(
    g: &Digraph,
    from: VertexId,
    to: VertexId,
    cap: usize,
) -> Vec<Vec<crate::ids::ArcId>> {
    let mut results = Vec::new();
    if cap == 0 {
        return results;
    }
    // Prune: only explore vertices that can still reach `to`.
    let can_reach = crate::reach::reaching_to(g, to);
    if !can_reach.contains(from.index()) {
        return results;
    }
    let mut prefix = Vec::new();
    dfs_paths(g, from, to, &can_reach, cap, &mut prefix, &mut results);
    results
}

fn dfs_paths(
    g: &Digraph,
    cur: VertexId,
    to: VertexId,
    can_reach: &crate::bitset::BitSet,
    cap: usize,
    prefix: &mut Vec<crate::ids::ArcId>,
    results: &mut Vec<Vec<crate::ids::ArcId>>,
) {
    if results.len() >= cap {
        return;
    }
    if cur == to && !prefix.is_empty() {
        results.push(prefix.clone());
        return;
    }
    if cur == to {
        // Zero-length dipath from == to is not a "dipath" in the paper
        // (dipaths are arc sequences); callers wanting it handle it upstream.
        return;
    }
    for &a in g.out_arcs(cur) {
        let w = g.head(a);
        if !can_reach.contains(w.index()) {
            continue;
        }
        prefix.push(a);
        dfs_paths(g, w, to, can_reach, cap, prefix, results);
        prefix.pop();
        if results.len() >= cap {
            return;
        }
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
    fn chain_is_upp() {
        let g = from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        assert!(is_upp(&g));
        assert_eq!(upp_violation(&g), None);
    }

    #[test]
    fn diamond_violates_upp() {
        let g = from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        assert!(!is_upp(&g));
        assert_eq!(upp_violation(&g), Some((v(0), v(3))));
        let order = topo::topological_order(&g).unwrap();
        assert_eq!(upp_violation_along(&g, &order), Some((v(0), v(3))));
    }

    #[test]
    fn out_tree_is_upp() {
        // Rooted out-tree: unique dipath from root to everything.
        let g = from_edges(7, &[(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)]);
        assert!(is_upp(&g));
    }

    #[test]
    fn saturating_counts() {
        let g = from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let c = saturating_path_counts(&g, v(0));
        assert_eq!(c[0], SatCount::One);
        assert_eq!(c[1], SatCount::One);
        assert_eq!(c[2], SatCount::One);
        assert_eq!(c[3], SatCount::Many);
    }

    #[test]
    fn counts_do_not_overflow_on_exponential_dag() {
        // Chain of k diamonds: 2^k paths; DP must stay fast and saturate.
        let k = 60;
        let mut edges = Vec::new();
        for i in 0..k {
            let base = 3 * i;
            edges.push((base, base + 1));
            edges.push((base, base + 2));
            edges.push((base + 1, base + 3));
            edges.push((base + 2, base + 3));
        }
        let g = from_edges(3 * k + 1, &edges);
        let c = saturating_path_counts(&g, v(0));
        assert_eq!(c[3 * k], SatCount::Many);
    }

    #[test]
    fn parallel_arcs_break_upp() {
        let g = from_edges(2, &[(0, 1), (0, 1)]);
        assert!(!is_upp(&g));
        assert_eq!(upp_violation(&g), Some((v(0), v(1))));
    }

    #[test]
    fn cyclic_graph_is_not_upp() {
        let g = from_edges(2, &[(0, 1), (1, 0)]);
        assert!(!is_upp(&g));
    }

    #[test]
    fn enumerate_paths_in_diamond() {
        let g = from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let paths = enumerate_dipaths(&g, v(0), v(3), 10);
        assert_eq!(paths.len(), 2);
        for p in &paths {
            assert_eq!(p.len(), 2);
            assert_eq!(g.tail(p[0]), v(0));
            assert_eq!(g.head(p[1]), v(3));
        }
    }

    #[test]
    fn enumerate_respects_cap() {
        let g = from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let paths = enumerate_dipaths(&g, v(0), v(3), 1);
        assert_eq!(paths.len(), 1);
    }

    #[test]
    fn enumerate_unreachable_is_empty() {
        let g = from_edges(3, &[(0, 1)]);
        assert!(enumerate_dipaths(&g, v(1), v(0), 5).is_empty());
        assert!(enumerate_dipaths(&g, v(0), v(2), 5).is_empty());
    }

    #[test]
    fn upp_dag_with_oriented_cycle() {
        // The underlying graph may have cycles while the digraph stays UPP:
        // b1→c1, b2→c1, b2→c2, b1→c2 is a 4-cycle but every pair has ≤ 1
        // dipath (all dipaths are single arcs).
        let g = from_edges(4, &[(0, 2), (1, 2), (1, 3), (0, 3)]);
        assert!(is_upp(&g));
    }
}
