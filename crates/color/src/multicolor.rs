//! Weighted coloring (multicoloring) by independent-set covering.
//!
//! A family that replicates each dipath `h` times (Theorem 7) induces a
//! *blow-up* of the base conflict graph: each base vertex `v` must receive
//! `weight(v)` distinct colors and adjacent vertices' color sets must be
//! disjoint. Each color class is an independent set of the base graph, so
//! minimizing colors is covering the weight vector by independent sets —
//! the LP relaxation of which is the fractional chromatic number (`8/3` for
//! the Wagner graph, whence the paper's `⌈8h/3⌉`).
//!
//! The greedy solver below repeatedly assigns one fresh color to a
//! maximum-*remaining-weight* independent set. On vertex-transitive
//! paper-scale graphs it finds the rotational covering and matches the
//! optimum; tests verify `⌈8h/3⌉` on the Havet conflict graph exactly.
//!
//! [`exact_multicoloring`] proves or improves that greedy answer within a
//! node budget. Every search it runs spends nodes from that one budget: the
//! maximum-weight independent set of each greedy round, the independence
//! number, the enumeration of maximal independent sets, and the covering
//! branch and bound. A call is therefore bounded however large the base
//! graph is. It has two callers, both spending the solve request's exact
//! budget: the weighted backend of `dagwave-core`, which colors the
//! deduplicated dipath family, and the exact chromatic solver
//! ([`crate::exact`]), which colors a graph's true-twin quotient with the
//! root step and then gives the covering search turns against its own
//! branch and bound.
//!
//! **Each multiset of classes once.** The covering search branches on which
//! maximal independent set covers one more unit of the heaviest remaining
//! vertex. A cover is a multiset of sets, and without more care every
//! ordering of the same multiset is a path of its own. So once the branch
//! on set `S` has finished, `S` is banned from every later sibling branch
//! and its subtree, and the ban is lifted when the level that placed it
//! returns. Each cover is then reached once, under the first of its sets
//! that the heaviest vertex's branching tries. The answers do not move:
//! every cover a banned subtree would reach was already explored under
//! `S`'s own branch, whose incumbent was no tighter, so the same covers
//! improve the incumbent in the same order. Wherever the unbanned search
//! finishes within its budget, the best multicoloring and the bound are
//! the same (a test keeps that search as the oracle), and where it ran out,
//! this one gets at least as far on the same budget and often proves the
//! answer. Havet's Wagner graph at h = 6 took 8,516 nodes of one call's
//! budget and now takes 960, h = 7 took 9,606 and now takes 1,081, and no
//! h up to 10 needs more than 1,200.

use crate::ugraph::UGraph;
use dagwave_graph::BitSet;

/// Result of a multicoloring: per-vertex color lists plus the total count.
#[derive(Clone, Debug)]
pub struct Multicoloring {
    /// `colors[v]` — the `weight(v)` colors assigned to base vertex `v`.
    pub colors: Vec<Vec<usize>>,
    /// Total number of distinct colors used.
    pub total: usize,
}

impl Multicoloring {
    /// Validate: correct multiplicities, disjoint sets across edges.
    /// `false` also when `weights` does not have one entry per vertex.
    pub fn is_valid(&self, g: &UGraph, weights: &[usize]) -> bool {
        if self.colors.len() != g.vertex_count() || weights.len() != self.colors.len() {
            return false;
        }
        for (cs, &w) in self.colors.iter().zip(weights) {
            if cs.len() != w {
                return false;
            }
            let set: std::collections::HashSet<_> = cs.iter().collect();
            if set.len() != cs.len() {
                return false;
            }
        }
        for (a, b) in g.edge_list() {
            let sb: std::collections::HashSet<_> = self.colors[b].iter().collect();
            if self.colors[a].iter().any(|c| sb.contains(c)) {
                return false;
            }
        }
        true
    }
}

/// Outcome of [`exact_multicoloring`]: the best multicoloring found and the
/// best lower bound proven on the fewest colors.
#[derive(Clone, Debug)]
pub struct ExactMulticoloring {
    /// Best multicoloring found: the greedy one unless the search improved
    /// on it.
    pub best: Multicoloring,
    /// Best lower bound proven on the number of colors.
    pub lower: usize,
}

impl ExactMulticoloring {
    /// `true` when [`Self::best`] is proven to use the fewest colors: the
    /// greedy answer met the root bound, or the search finished within its
    /// budget.
    pub fn is_optimal(&self) -> bool {
        self.best.total <= self.lower
    }
}

/// Search nodes left in one budgeted call.
pub(crate) struct Budget(pub(crate) u64);

impl Budget {
    /// Spend one node; `false` once none is left.
    pub(crate) fn spend(&mut self) -> bool {
        let left = self.0 > 0;
        self.0 = self.0.saturating_sub(1);
        left
    }

    /// Run `f` on at most `allowance` of the nodes left, then charge what
    /// it spent.
    pub(crate) fn share<R>(&mut self, allowance: u64, f: impl FnOnce(&mut Budget) -> R) -> R {
        let mut part = Budget(allowance.min(self.0));
        let granted = part.0;
        let result = f(&mut part);
        self.0 -= granted - part.0;
        result
    }
}

/// Greedy multicoloring by maximum-weight independent sets.
///
/// Exponential in the base graph size (exact max-weight IS per round); use
/// on paper-scale base graphs (≲ 40 vertices).
pub fn greedy_multicoloring(g: &UGraph, weights: &[usize]) -> Multicoloring {
    assert_eq!(weights.len(), g.vertex_count());
    greedy(&neighbour_sets(g), weights, &mut Budget(u64::MAX))
}

/// [`greedy_multicoloring`] whose independent-set searches spend `budget`.
/// Once it is spent, each round takes the first maximal set its search
/// reaches, so the answer is still a valid multicoloring.
fn greedy(neigh: &[BitSet], weights: &[usize], budget: &mut Budget) -> Multicoloring {
    let mut remaining = weights.to_vec();
    let mut colors: Vec<Vec<usize>> = vec![Vec::new(); neigh.len()];
    let mut next_color = 0usize;
    while remaining.iter().any(|&w| w > 0) {
        let (set, _) = independent_set(neigh, &remaining, budget);
        debug_assert!(!set.is_empty());
        for &v in &set {
            colors[v].push(next_color);
            remaining[v] -= 1;
        }
        next_color += 1;
    }
    Multicoloring {
        colors,
        total: next_color,
    }
}

/// Exact multicoloring by branch and bound over *maximal* independent sets,
/// within `budget` search nodes.
///
/// Starts from [`greedy_multicoloring`]'s answer and returns it at once
/// when it meets the root bound `max(heaviest weight, ⌈total weight /
/// α⌉)`: no color covers a vertex twice or more than α vertices. Otherwise
/// it enumerates the maximal independent sets and searches assignments
/// "use maximal IS `S` as a color class" with a cover-the-heaviest-vertex
/// branching rule and the same bound. When the budget runs out, the result
/// carries the best multicoloring found and the root bound (only the
/// heaviest weight where α was not proven).
pub fn exact_multicoloring(g: &UGraph, weights: &[usize], budget: u64) -> ExactMulticoloring {
    assert_eq!(weights.len(), g.vertex_count());
    let mut budget = Budget(budget);
    let root = root_multicoloring(g, weights, &mut budget);
    if root.is_optimal() {
        return root;
    }
    cover_search(g, weights, &root, &mut budget)
}

/// The covering search of [`exact_multicoloring`], starting from `start`:
/// a root answer, or the result of an earlier search that the budget cut
/// short. Returns the best multicoloring found, proven optimal when the
/// search finished within `budget`.
pub(crate) fn cover_search(
    g: &UGraph,
    weights: &[usize],
    start: &ExactMulticoloring,
    budget: &mut Budget,
) -> ExactMulticoloring {
    let Some(sets) = maximal_independent_sets(g, budget) else {
        return start.clone();
    };
    let mut containing = vec![Vec::new(); weights.len()];
    for (si, set) in sets.iter().enumerate() {
        for &v in set {
            containing[v].push(si);
        }
    }
    let mut cover = Cover {
        sets: &sets,
        containing: &containing,
        alpha: sets.iter().map(Vec::len).max().unwrap_or(1),
        remaining: weights.to_vec(),
        counts: vec![0; sets.len()],
        banned: vec![false; sets.len()],
        bans: Vec::new(),
        touched: Vec::new(),
        best_total: start.best.total,
        best_counts: None,
        budget,
    };
    let finished = cover.branch(0);
    let best = match cover.best_counts {
        Some(counts) => materialize(&sets, &counts, weights),
        None => start.best.clone(),
    };
    ExactMulticoloring {
        lower: if finished { best.total } else { start.lower },
        best,
    }
}

/// The root step of [`exact_multicoloring`] within `budget`: the greedy
/// answer and the root bound, with α only where its search finished.
pub(crate) fn root_multicoloring(
    g: &UGraph,
    weights: &[usize],
    budget: &mut Budget,
) -> ExactMulticoloring {
    let neigh = neighbour_sets(g);
    let best = greedy(&neigh, weights, budget);
    let heaviest = weights.iter().copied().max().unwrap_or(0);
    let (largest, alpha_proven) = independent_set(&neigh, &vec![1; weights.len()], budget);
    let alpha = largest.len();
    let lower = if alpha_proven && alpha > 0 {
        heaviest.max(weights.iter().sum::<usize>().div_ceil(alpha))
    } else {
        heaviest
    };
    ExactMulticoloring { best, lower }
}

/// Branch and bound over "one more color on maximal independent set `S`".
struct Cover<'a> {
    sets: &'a [Vec<usize>],
    /// `containing[v]`: the indices of the sets that contain `v`.
    containing: &'a [Vec<usize>],
    /// The largest set's size, i.e. the independence number.
    alpha: usize,
    remaining: Vec<usize>,
    counts: Vec<usize>,
    /// `banned[s]`: set `s` is not used below the current node, because a
    /// finished earlier sibling branch covered with it (see the module docs).
    /// A banned set gets no branch, so no level below bans it a second time.
    banned: Vec<bool>,
    /// The sets each open level banned, in order; a level lifts its own
    /// bans when it returns.
    bans: Vec<usize>,
    /// The vertices each open branch decremented, in order.
    touched: Vec<usize>,
    best_total: usize,
    best_counts: Option<Vec<usize>>,
    budget: &'a mut Budget,
}

impl Cover<'_> {
    /// Returns `false` when the node budget ran out.
    fn branch(&mut self, used: usize) -> bool {
        if !self.budget.spend() {
            return false;
        }
        // Lower bounds: heaviest remaining vertex (each class covers it ≤
        // once) and total remaining weight over the largest class size.
        let (vmax, wmax) = self
            .remaining
            .iter()
            .enumerate()
            .max_by_key(|&(_, &w)| w)
            .map(|(v, &w)| (v, w))
            .unwrap_or((0, 0));
        if wmax == 0 {
            if used < self.best_total {
                self.best_total = used;
                self.best_counts = Some(self.counts.clone());
            }
            return true;
        }
        let total: usize = self.remaining.iter().sum();
        let lb = wmax.max(total.div_ceil(self.alpha));
        if used + lb >= self.best_total {
            return true;
        }
        // Branch: which maximal set covers one unit of vmax next. Once a
        // set's branch has finished, later siblings and their subtrees no
        // longer use it.
        let (sets, containing) = (self.sets, self.containing);
        let level = self.bans.len();
        let mut finished = true;
        for &si in &containing[vmax] {
            if self.banned[si] {
                continue;
            }
            self.counts[si] += 1;
            let mark = self.touched.len();
            for &v in &sets[si] {
                if self.remaining[v] > 0 {
                    self.remaining[v] -= 1;
                    self.touched.push(v);
                }
            }
            finished = self.branch(used + 1);
            for v in self.touched.drain(mark..) {
                self.remaining[v] += 1;
            }
            self.counts[si] -= 1;
            if !finished {
                break;
            }
            self.banned[si] = true;
            self.bans.push(si);
        }
        for si in self.bans.drain(level..) {
            self.banned[si] = false;
        }
        finished
    }
}

/// Colors from per-set use counts: each use of a set is one fresh color on
/// its members that still need one.
fn materialize(sets: &[Vec<usize>], counts: &[usize], weights: &[usize]) -> Multicoloring {
    let mut colors: Vec<Vec<usize>> = vec![Vec::new(); weights.len()];
    let mut need = weights.to_vec();
    let mut next_color = 0usize;
    for (set, &c) in sets.iter().zip(counts) {
        for _ in 0..c {
            let mut used = false;
            for &v in set {
                if need[v] > 0 {
                    colors[v].push(next_color);
                    need[v] -= 1;
                    used = true;
                }
            }
            if used {
                next_color += 1;
            }
        }
    }
    debug_assert!(need.iter().all(|&w| w == 0));
    Multicoloring {
        colors,
        total: next_color,
    }
}

/// All maximal independent sets (Bron–Kerbosch on the complement's cliques,
/// done directly on independence), or `None` when `budget` ran out first.
fn maximal_independent_sets(g: &UGraph, budget: &mut Budget) -> Option<Vec<Vec<usize>>> {
    let n = g.vertex_count();
    let non_neigh: Vec<BitSet> = (0..n)
        .map(|v| {
            let mut b = BitSet::new(n);
            for w in 0..n {
                if w != v && !g.has_edge(v, w) {
                    b.insert(w);
                }
            }
            b
        })
        .collect();
    let mut results = Vec::new();
    let mut r = Vec::new();
    let mut p = BitSet::new(n);
    for v in 0..n {
        p.insert(v);
    }
    let x = BitSet::new(n);
    bk_all(&non_neigh, &mut r, p, x, &mut results, budget).then_some(results)
}

/// Returns `false` when the node budget ran out.
fn bk_all(
    non_neigh: &[BitSet],
    r: &mut Vec<usize>,
    p: BitSet,
    x: BitSet,
    out: &mut Vec<Vec<usize>>,
    budget: &mut Budget,
) -> bool {
    if !budget.spend() {
        return false;
    }
    if p.is_empty() && x.is_empty() {
        out.push(r.clone());
        return true;
    }
    let pivot = p
        .iter()
        .chain(x.iter())
        .max_by_key(|&u| {
            let common = p.words().iter().zip(non_neigh[u].words());
            common.map(|(a, b)| (a & b).count_ones()).sum::<u32>()
        })
        .expect("P ∪ X non-empty"); // lint: allow(no-panic): the caller only recurses with P ∪ X non-empty, so a candidate exists
    let mut candidates = p.clone();
    candidates.difference_with(&non_neigh[pivot]);
    let mut p = p;
    let mut x = x;
    for v in candidates.iter().collect::<Vec<_>>() {
        let mut p2 = p.clone();
        p2.intersect_with(&non_neigh[v]);
        let mut x2 = x.clone();
        x2.intersect_with(&non_neigh[v]);
        r.push(v);
        let finished = bk_all(non_neigh, r, p2, x2, out, budget);
        r.pop();
        if !finished {
            return false;
        }
        p.remove(v);
        x.insert(v);
    }
    true
}

/// `neigh[v]`: the neighbours of `v` as a bit set.
fn neighbour_sets(g: &UGraph) -> Vec<BitSet> {
    let n = g.vertex_count();
    (0..n)
        .map(|v| {
            let mut b = BitSet::new(n);
            for &w in g.neighbors(v) {
                b.insert(w as usize);
            }
            b
        })
        .collect()
}

/// Exact maximum-weight independent set (branch and bound over vertices in
/// decreasing weight order). Vertices with zero weight are excluded.
pub fn max_weight_independent_set(g: &UGraph, weights: &[usize]) -> Vec<usize> {
    independent_set(&neighbour_sets(g), weights, &mut Budget(u64::MAX)).0
}

/// [`max_weight_independent_set`] within `budget` nodes, over the
/// neighbour sets `neigh`; the flag is `true` when the set is proven
/// maximum. Once the budget is spent the search still finishes its first
/// descent, so any positive weight yields a non-empty maximal set.
fn independent_set(neigh: &[BitSet], weights: &[usize], budget: &mut Budget) -> (Vec<usize>, bool) {
    let n = neigh.len();
    let mut order: Vec<usize> = (0..n).filter(|&v| weights[v] > 0).collect();
    order.sort_by_key(|&v| std::cmp::Reverse(weights[v]));
    let mut search = IndependentSearch {
        weights,
        neigh,
        order,
        blocked: BitSet::new(n),
        newly: Vec::new(),
        current: Vec::new(),
        best: Vec::new(),
        best_weight: 0,
        budget,
        cut: false,
    };
    search.branch(0, 0);
    (search.best, !search.cut)
}

struct IndependentSearch<'a> {
    weights: &'a [usize],
    neigh: &'a [BitSet],
    order: Vec<usize>,
    blocked: BitSet,
    /// The vertices each open include branch blocked, in order.
    newly: Vec<usize>,
    current: Vec<usize>,
    best: Vec<usize>,
    best_weight: usize,
    budget: &'a mut Budget,
    /// Set once the budget cut a node off.
    cut: bool,
}

impl IndependentSearch<'_> {
    fn branch(&mut self, idx: usize, cur_weight: usize) {
        if !self.budget.spend() {
            self.cut = true;
            if !self.best.is_empty() {
                return;
            }
        }
        // Upper bound: current + everything not yet decided.
        let rest: usize = self.order[idx..]
            .iter()
            .filter(|&&v| !self.blocked.contains(v))
            .map(|&v| self.weights[v])
            .sum();
        if cur_weight + rest <= self.best_weight {
            return;
        }
        let Some(&v) = self.order.get(idx) else {
            if cur_weight > self.best_weight {
                self.best_weight = cur_weight;
                self.best = self.current.clone();
            }
            return;
        };
        if self.blocked.contains(v) {
            self.branch(idx + 1, cur_weight);
            return;
        }
        // Include v.
        let mark = self.newly.len();
        for w in self.neigh[v].iter() {
            if self.blocked.insert(w) {
                self.newly.push(w);
            }
        }
        self.blocked.insert(v);
        self.current.push(v);
        self.branch(idx + 1, cur_weight + self.weights[v]);
        self.current.pop();
        for w in self.newly.drain(mark..) {
            self.blocked.remove(w);
        }
        // Exclude v (leave it blocked through this subtree, then restore).
        self.branch(idx + 1, cur_weight);
        self.blocked.remove(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::DEFAULT_NODE_BUDGET;
    use crate::ugraph::{complete_graph, cycle_graph, UGraph};

    /// [`exact_multicoloring`] with the default budget, which none of these
    /// graphs exhausts.
    fn optimum(g: &UGraph, weights: &[usize]) -> Multicoloring {
        let res = exact_multicoloring(g, weights, DEFAULT_NODE_BUDGET);
        assert!(res.is_optimal(), "{weights:?}: lower {}", res.lower);
        res.best
    }

    fn wagner() -> UGraph {
        let mut g = cycle_graph(8);
        for i in 0..4 {
            g.add_edge(i, i + 4);
        }
        g
    }

    #[test]
    fn max_weight_is_on_small_graphs() {
        let g = cycle_graph(5);
        let is = max_weight_independent_set(&g, &[1, 1, 1, 1, 1]);
        assert_eq!(is.len(), 2, "α(C5) = 2");
        let weighted = max_weight_independent_set(&g, &[10, 1, 1, 1, 1]);
        assert!(weighted.contains(&0), "heavy vertex selected");
        let k = complete_graph(4);
        assert_eq!(max_weight_independent_set(&k, &[1, 5, 2, 3]), vec![1]);
    }

    #[test]
    fn zero_weights_excluded() {
        let g = cycle_graph(4);
        let is = max_weight_independent_set(&g, &[0, 3, 0, 3]);
        let mut sorted = is.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![1, 3]);
    }

    #[test]
    fn multicoloring_uniform_clique() {
        // K3 with weight h: needs exactly 3h colors.
        let g = complete_graph(3);
        for h in 1..5 {
            let mc = optimum(&g, &[h, h, h]);
            assert!(mc.is_valid(&g, &[h, h, h]));
            assert_eq!(mc.total, 3 * h);
        }
    }

    #[test]
    fn multicoloring_bipartite_is_weightmax() {
        // Path a-b: total = w(a) + w(b)? No — a path P2's optimum is
        // w(a)+w(b) only when adjacent; here total = max over edges of the
        // sum; for a single edge: w(a)+w(b).
        let g = UGraph::from_edges(2, &[(0, 1)]);
        let mc = optimum(&g, &[3, 2]);
        assert!(mc.is_valid(&g, &[3, 2]));
        assert_eq!(mc.total, 5);
    }

    #[test]
    fn havet_blowup_matches_paper_formula() {
        // Wagner graph with uniform weight h: optimum ⌈8h/3⌉ (Theorem 7).
        let g = wagner();
        for h in 1..=6 {
            let w = vec![h; 8];
            let mc = optimum(&g, &w);
            assert!(mc.is_valid(&g, &w), "h={h}");
            let expected = (8 * h).div_ceil(3);
            assert_eq!(
                mc.total, expected,
                "h={h}: {} vs ⌈8h/3⌉={expected}",
                mc.total
            );
        }
    }

    #[test]
    fn odd_cycle_blowup() {
        // C5 with weight h: fractional chromatic 5/2 ⇒ optimum ⌈5h/2⌉ —
        // the paper's pre-Theorem-7 remark about the C5 family.
        let g = cycle_graph(5);
        for h in 1..=6 {
            let w = vec![h; 5];
            let mc = optimum(&g, &w);
            assert!(mc.is_valid(&g, &w));
            assert_eq!(mc.total, (5 * h).div_ceil(2), "h={h}");
        }
    }

    #[test]
    fn budget_exhaustion_keeps_a_valid_incumbent() {
        // C5 with weight 4 needs 10 colors. One node proves nothing past
        // the greedy's first descent, so only the heaviest weight bounds it.
        let g = cycle_graph(5);
        let w = [4; 5];
        let res = exact_multicoloring(&g, &w, 1);
        assert!(res.best.is_valid(&g, &w));
        assert!(!res.is_optimal());
        assert_eq!(res.lower, 4);
        assert!(res.best.total >= 10);
    }

    /// The covering search without the ban rule, kept verbatim as the
    /// oracle of [`Cover`]: it tries every ordering of the same color
    /// classes.
    struct ReferenceCover<'a> {
        sets: &'a [Vec<usize>],
        containing: &'a [Vec<usize>],
        alpha: usize,
        remaining: Vec<usize>,
        counts: Vec<usize>,
        best_total: usize,
        best_counts: Option<Vec<usize>>,
        budget: &'a mut Budget,
    }

    impl ReferenceCover<'_> {
        /// Returns `false` when the node budget ran out.
        fn branch(&mut self, used: usize) -> bool {
            if !self.budget.spend() {
                return false;
            }
            // Lower bounds: heaviest remaining vertex (each class covers it ≤
            // once) and total remaining weight over the largest class size.
            let (vmax, wmax) = self
                .remaining
                .iter()
                .enumerate()
                .max_by_key(|&(_, &w)| w)
                .map(|(v, &w)| (v, w))
                .unwrap_or((0, 0));
            if wmax == 0 {
                if used < self.best_total {
                    self.best_total = used;
                    self.best_counts = Some(self.counts.clone());
                }
                return true;
            }
            let total: usize = self.remaining.iter().sum();
            let lb = wmax.max(total.div_ceil(self.alpha));
            if used + lb >= self.best_total {
                return true;
            }
            // Branch: which maximal set covers one unit of vmax next.
            let (sets, containing) = (self.sets, self.containing);
            for &si in &containing[vmax] {
                self.counts[si] += 1;
                let mut touched = Vec::new();
                for &v in &sets[si] {
                    if self.remaining[v] > 0 {
                        self.remaining[v] -= 1;
                        touched.push(v);
                    }
                }
                let finished = self.branch(used + 1);
                for v in touched {
                    self.remaining[v] += 1;
                }
                self.counts[si] -= 1;
                if !finished {
                    return false;
                }
            }
            true
        }
    }

    /// [`exact_multicoloring`] with [`ReferenceCover`] as its covering
    /// search; the flag is `true` when the answer needed no search or the
    /// search finished within `budget`.
    fn reference_multicoloring(
        g: &UGraph,
        weights: &[usize],
        budget: u64,
    ) -> (ExactMulticoloring, bool) {
        let mut budget = Budget(budget);
        let root = root_multicoloring(g, weights, &mut budget);
        if root.is_optimal() {
            return (root, true);
        }
        let Some(sets) = maximal_independent_sets(g, &mut budget) else {
            return (root, false);
        };
        let mut containing = vec![Vec::new(); weights.len()];
        for (si, set) in sets.iter().enumerate() {
            for &v in set {
                containing[v].push(si);
            }
        }
        let mut cover = ReferenceCover {
            sets: &sets,
            containing: &containing,
            alpha: sets.iter().map(Vec::len).max().unwrap_or(1),
            remaining: weights.to_vec(),
            counts: vec![0; sets.len()],
            best_total: root.best.total,
            best_counts: None,
            budget: &mut budget,
        };
        let finished = cover.branch(0);
        let best = match cover.best_counts {
            Some(counts) => materialize(&sets, &counts, weights),
            None => root.best.clone(),
        };
        let lower = if finished { best.total } else { root.lower };
        (ExactMulticoloring { best, lower }, finished)
    }

    /// Seeded random graphs of at most 8 vertices with weights 0–6, then
    /// the Havet base (the Wagner graph) at h = 1…10 and Figure 3's C5 base
    /// at h = 1…9.
    fn oracle_cases() -> Vec<(UGraph, Vec<usize>)> {
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = move |bound: u64| {
            // SplitMix64.
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % bound) as usize
        };
        let mut cases = Vec::new();
        for _ in 0..400 {
            let n = 1 + next(8);
            let density = 1 + next(4);
            let mut g = UGraph::new(n);
            for a in 0..n {
                for b in a + 1..n {
                    if next(5) < density {
                        g.add_edge(a, b);
                    }
                }
            }
            let weights = (0..n).map(|_| next(7)).collect();
            cases.push((g, weights));
        }
        cases.extend((1..=10).map(|h| (wagner(), vec![h; 8])));
        cases.extend((1..=9).map(|h| (cycle_graph(5), vec![h; 5])));
        cases
    }

    #[test]
    fn banned_cover_search_matches_the_reference() {
        const BUDGET: u64 = 20_000;
        let (mut compared, mut rescued) = (0, 0);
        for (g, w) in oracle_cases() {
            let (reference, finished) = reference_multicoloring(&g, &w, BUDGET);
            let new = exact_multicoloring(&g, &w, BUDGET);
            assert!(new.best.is_valid(&g, &w), "{w:?}");
            if finished {
                assert_eq!(new.best.colors, reference.best.colors, "{w:?}");
                assert_eq!(new.best.total, reference.best.total, "{w:?}");
                assert_eq!(new.lower, reference.lower, "{w:?}");
                compared += 1;
            } else {
                assert!(new.best.total <= reference.best.total, "{w:?}");
                assert!(new.is_optimal(), "{w:?}: lower {}", new.lower);
                rescued += 1;
            }
        }
        // Both sides of the comparison are exercised.
        assert!(compared > 0 && rescued > 0, "{compared} / {rescued}");
    }

    #[test]
    fn havet_covers_close_within_1200_nodes() {
        let g = wagner();
        for h in 1..=10 {
            let w = vec![h; 8];
            let res = exact_multicoloring(&g, &w, 1_200);
            assert!(res.is_optimal(), "h={h}: lower {}", res.lower);
            assert_eq!(res.best.total, (8 * h).div_ceil(3), "h={h}");
        }
    }

    #[test]
    fn is_valid_rejects_a_weight_slice_of_another_length() {
        let g = cycle_graph(4);
        let mc = greedy_multicoloring(&g, &[1, 1, 1, 1]);
        assert!(mc.is_valid(&g, &[1, 1, 1, 1]));
        assert!(!mc.is_valid(&g, &[1, 1, 1]));
        assert!(!mc.is_valid(&g, &[1, 1, 1, 1, 0]));
    }

    #[test]
    fn empty_and_trivial() {
        let g = UGraph::new(3);
        let mc = greedy_multicoloring(&g, &[0, 0, 0]);
        assert_eq!(mc.total, 0);
        let mc = greedy_multicoloring(&g, &[2, 1, 0]);
        assert!(mc.is_valid(&g, &[2, 1, 0]));
        assert_eq!(mc.total, 2, "independent vertices share colors");
    }
}
