//! Exact chromatic number by branch and bound.
//!
//! A DSATUR-ordered backtracking solver: vertices are colored in saturation
//! order; a branch assigns either one of the colors already in use or one
//! fresh color; branches whose used-color count reaches the incumbent are
//! pruned. The initial lower bound is the larger of a greedy clique and
//! any bound the caller has already proven (for a conflict graph, the load
//! `π`: the dipaths through a most loaded arc are a clique the greedy one
//! may miss); the upper bound comes from DSATUR. Exponential in the worst
//! case — intended for the verification of `w` on paper-scale conflict
//! graphs (≲ 100 vertices), with an explicit node budget for safety.
//!
//! **Twin step.** When those root bounds do not meet, the solver looks for
//! *true twins*: adjacent vertices with equal closed neighbourhoods, such
//! as the conflict-graph vertices of identical dipaths. Each twin class is
//! a clique joined completely to every class next to it, so the graph is
//! the blow-up of its twin quotient with the class sizes as weights, and
//! its chromatic number is the quotient's weighted chromatic number — the
//! identity behind Theorem 7's `⌈8h/3⌉`. The quotient is first colored by
//! the root step of [`crate::multicolor::exact_multicoloring`] (greedy
//! maximum-weight independent sets against the bound `max(largest class,
//! ⌈n/α⌉)`), each class member taking one of its class's colors; on
//! replicated odd cycles the two usually meet at once. Where they do not,
//! the branch and bound on the graph runs and hands the multicoloring's
//! covering search on the quotient a turn at doubling intervals, each turn
//! twice as long as the last; both share the best coloring and bound, and
//! whichever closes them first ends the search. The covering search wins
//! on heavily replicated families, where the branch and bound would try
//! every ordering of the copies; the branch and bound wins on graphs with
//! a few twins among many vertices, whose quotients have too many maximal
//! independent sets to cover. The covering search explores each multiset
//! of color classes once (see [`crate::multicolor`]), so its turns close
//! Havet h = 6 within ~0.9 ms of this call and h = 7 within ~2.2 ms, where
//! a search that tried every ordering took ~21 and ~53 ms. The branch and
//! bound still takes the first turns; an Auto solve, whose weighted
//! backend runs the covering search alone, proves h = 6 in ~0.1 ms.
//! Non-adjacent vertices with equal neighbourhoods (false twins) may share
//! a color and stay apart. A graph without twins goes straight to the
//! branch and bound.
//!
//! **Budget.** One node budget covers the whole call: the twin step's
//! searches and the branch and bound spend from the same allowance, and
//! [`ExactResult::BudgetExceeded`] carries the best coloring and lower
//! bound found once it is gone.

use crate::clique::greedy_clique;
use crate::dsatur::dsatur_coloring;
use crate::multicolor::{
    cover_search, root_multicoloring, Budget, ExactMulticoloring, Multicoloring,
};
use crate::ugraph::UGraph;
use crate::verify::is_proper;
use crate::Coloring;

/// Outcome of an exact chromatic computation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExactResult {
    /// Optimum found: chromatic number and an optimal coloring.
    Optimal {
        /// The chromatic number.
        chromatic: usize,
        /// A proper coloring using `chromatic` colors.
        coloring: Coloring,
    },
    /// Node budget exhausted; best bounds found so far.
    BudgetExceeded {
        /// Best lower bound proven.
        lower: usize,
        /// Best proper coloring found (upper bound witness).
        upper: usize,
        /// The coloring witnessing `upper`.
        coloring: Coloring,
    },
}

impl ExactResult {
    /// The chromatic number if proven optimal.
    pub fn chromatic(&self) -> Option<usize> {
        match self {
            ExactResult::Optimal { chromatic, .. } => Some(*chromatic),
            ExactResult::BudgetExceeded { .. } => None,
        }
    }

    /// Best coloring found (optimal or incumbent).
    pub fn coloring(&self) -> &Coloring {
        match self {
            ExactResult::Optimal { coloring, .. } => coloring,
            ExactResult::BudgetExceeded { coloring, .. } => coloring,
        }
    }
}

/// Default branch-node budget for [`chromatic_number`].
pub const DEFAULT_NODE_BUDGET: u64 = 20_000_000;

/// Exact chromatic number with the default node budget.
pub fn chromatic_number(g: &UGraph) -> ExactResult {
    chromatic_number_budgeted(g, 0, DEFAULT_NODE_BUDGET)
}

/// Exact chromatic number with an explicit node budget, from a root lower
/// bound of at least `lower`, which must be a proven lower bound on `χ(g)`
/// (0 when none is known). When DSATUR already meets it the search closes
/// at the root.
pub fn chromatic_number_budgeted(g: &UGraph, lower: usize, budget: u64) -> ExactResult {
    if g.vertex_count() == 0 {
        return ExactResult::Optimal {
            chromatic: 0,
            coloring: Vec::new(),
        };
    }
    // Bounds.
    let clique = greedy_clique(g);
    let incumbent = dsatur_coloring(g);
    let mut bounds = Bounds {
        lower: clique.len().max(lower).max(1),
        upper: incumbent.iter().copied().max().unwrap_or(0) + 1,
        best: incumbent,
    };
    debug_assert!(bounds.lower <= bounds.upper, "`lower` exceeds a coloring");
    let mut budget = Budget(budget);
    let finished = bounds.closed()
        || match true_twin_classes(g) {
            Some(class_of) => twin_step(g, &clique, class_of, &mut bounds, &mut budget),
            None => branch_and_bound(g, &clique, &mut bounds, &mut budget, None),
        };
    if finished {
        debug_assert!(is_proper(g, &bounds.best));
        ExactResult::Optimal {
            chromatic: bounds.upper,
            coloring: bounds.best,
        }
    } else {
        ExactResult::BudgetExceeded {
            lower: bounds.lower,
            upper: bounds.upper,
            coloring: bounds.best,
        }
    }
}

/// The best coloring found and the best lower bound proven so far.
struct Bounds {
    lower: usize,
    /// Colors used by `best`.
    upper: usize,
    best: Coloring,
}

impl Bounds {
    /// `true` once `best` is proven optimal.
    fn closed(&self) -> bool {
        self.upper == self.lower
    }
}

/// Node allowance of the twin step's root and of the covering search's
/// first turn; every later turn doubles it.
const FIRST_TURN: u64 = 64;

/// The twin step (see the module docs): the quotient's root multicoloring,
/// then the branch and bound on `g`, which hands the covering search on the
/// quotient a turn whenever it has spent as many nodes as the last turn
/// had, each turn twice the one before, until one of them closes the bounds
/// or the budget is gone. Neither search is the faster one on every graph,
/// and the turns keep the total near twice the faster one's. Returns
/// `false` when the budget ran out.
fn twin_step(
    g: &UGraph,
    clique: &[usize],
    class_of: Vec<usize>,
    bounds: &mut Bounds,
    budget: &mut Budget,
) -> bool {
    let quotient = TwinQuotient::new(g, class_of);
    let found = budget.share(FIRST_TURN, |b| {
        root_multicoloring(&quotient.graph, &quotient.weights, b)
    });
    quotient.offer(g, &found, bounds);
    let turns = CoverTurns {
        quotient: &quotient,
        found,
        allowance: FIRST_TURN,
        wait: 0,
    };
    bounds.closed() || branch_and_bound(g, clique, bounds, budget, Some(turns))
}

/// The covering search's turns inside the branch and bound of
/// [`twin_step`].
struct CoverTurns<'a> {
    quotient: &'a TwinQuotient,
    /// The covering search's best answer and bound so far.
    found: ExactMulticoloring,
    /// Nodes of the next turn.
    allowance: u64,
    /// Branch-and-bound nodes left before the next turn.
    wait: u64,
}

impl CoverTurns<'_> {
    /// Count one branch-and-bound node, and take a turn when one is due.
    fn tick(&mut self, g: &UGraph, bounds: &mut Bounds, budget: &mut Budget) {
        if self.wait > 0 {
            self.wait -= 1;
            return;
        }
        let q = self.quotient;
        self.found = budget.share(self.allowance, |b| {
            cover_search(&q.graph, &q.weights, &self.found, b)
        });
        q.offer(g, &self.found, bounds);
        self.wait = self.allowance;
        self.allowance = self.allowance.saturating_mul(2);
    }
}

/// `class_of[v]`: the true-twin class of `v`, classes numbered in order of
/// their smallest members; `None` when no two vertices are twins.
fn true_twin_classes(g: &UGraph) -> Option<Vec<usize>> {
    let n = g.vertex_count();
    let mut class_of = vec![usize::MAX; n];
    let mut classes = 0;
    for u in 0..n {
        if class_of[u] != usize::MAX {
            continue;
        }
        class_of[u] = classes;
        // Twins are adjacent, so `u`'s later twins are among its neighbours.
        for &v in g.neighbors(u) {
            let v = v as usize;
            if v > u && class_of[v] == usize::MAX && same_closed_neighbourhood(g, u, v) {
                class_of[v] = classes;
            }
        }
        classes += 1;
    }
    (classes < n).then_some(class_of)
}

/// `N[u] == N[v]` for adjacent `u` and `v`: their sorted neighbour lists
/// agree once each drops the other.
fn same_closed_neighbourhood(g: &UGraph, u: usize, v: usize) -> bool {
    g.degree(u) == g.degree(v)
        && g.neighbors(u)
            .iter()
            .filter(|&&w| w as usize != v)
            .eq(g.neighbors(v).iter().filter(|&&w| w as usize != u))
}

/// A graph's true-twin quotient: one vertex per twin class, weighted by
/// the class size.
struct TwinQuotient {
    class_of: Vec<usize>,
    graph: UGraph,
    weights: Vec<usize>,
}

impl TwinQuotient {
    fn new(g: &UGraph, class_of: Vec<usize>) -> Self {
        let mut weights: Vec<usize> = Vec::new();
        let mut adjacency: Vec<Vec<u32>> = Vec::new();
        for (v, &c) in class_of.iter().enumerate() {
            if c == weights.len() {
                // `v` is the class's smallest member; its twins share its
                // neighbours.
                let mut adj: Vec<u32> = g
                    .neighbors(v)
                    .iter()
                    .map(|&w| class_of[w as usize])
                    .filter(|&d| d != c)
                    .map(|d| d as u32)
                    .collect();
                adj.sort_unstable();
                adj.dedup();
                adjacency.push(adj);
                weights.push(0);
            }
            weights[c] += 1;
        }
        TwinQuotient {
            class_of,
            graph: UGraph::from_sorted_adjacency(adjacency),
            weights,
        }
    }

    /// The coloring of the original graph in which each class member
    /// takes one of its class's colors.
    fn expand(&self, mc: &Multicoloring) -> Coloring {
        let mut taken = vec![0; self.weights.len()];
        self.class_of
            .iter()
            .map(|&c| {
                taken[c] += 1;
                mc.colors[c][taken[c] - 1]
            })
            .collect()
    }

    /// Take `found`'s lower bound, and its coloring expanded to `g` when
    /// that uses fewer colors than the incumbent.
    fn offer(&self, g: &UGraph, found: &ExactMulticoloring, bounds: &mut Bounds) {
        bounds.lower = bounds.lower.max(found.lower);
        if found.best.total < bounds.upper {
            bounds.upper = found.best.total;
            bounds.best = self.expand(&found.best);
            debug_assert!(is_proper(g, &bounds.best));
        }
    }
}

/// DSATUR branch and bound within `budget`, giving the covering search its
/// `turns` when `g` has twins; `false` when the budget ran out.
fn branch_and_bound(
    g: &UGraph,
    clique: &[usize],
    bounds: &mut Bounds,
    budget: &mut Budget,
    turns: Option<CoverTurns<'_>>,
) -> bool {
    // Pre-seed: color the clique first with distinct colors — symmetry
    // breaking that removes factorial branching on the densest part.
    let mut colors = vec![usize::MAX; g.vertex_count()];
    for (i, &v) in clique.iter().enumerate() {
        colors[v] = i;
    }
    Search {
        g,
        colors,
        seen: dagwave_graph::BitSet::new(bounds.upper + 1),
        bounds,
        budget,
        turns,
    }
    .branch(clique.len())
}

struct Search<'a> {
    g: &'a UGraph,
    colors: Coloring,
    /// Saturation scratch, sized at the root's upper bound (which only
    /// falls), reused for every vertex of every node.
    seen: dagwave_graph::BitSet,
    bounds: &'a mut Bounds,
    budget: &'a mut Budget,
    turns: Option<CoverTurns<'a>>,
}

impl Search<'_> {
    /// Returns `false` when the node budget ran out.
    fn branch(&mut self, used: usize) -> bool {
        if !self.budget.spend() {
            return false;
        }
        if let Some(turns) = &mut self.turns {
            turns.tick(self.g, self.bounds, self.budget);
            if self.bounds.closed() {
                return true; // the covering search proved it
            }
        }
        if used >= self.bounds.upper {
            return true; // pruned
        }
        // Next vertex: uncolored with max saturation (DSATUR rule inline).
        let n = self.g.vertex_count();
        let mut pick: Option<(usize, usize, usize)> = None; // (sat, deg, v)
        for v in 0..n {
            if self.colors[v] != usize::MAX {
                continue;
            }
            // Saturation counts the colors up to this node's upper bound.
            self.seen.clear();
            let mut sat = 0;
            for &w in self.g.neighbors(v) {
                let c = self.colors[w as usize];
                if c != usize::MAX && c <= self.bounds.upper && self.seen.insert(c) {
                    sat += 1;
                }
            }
            let key = (sat, self.g.degree(v), v);
            // lint: allow(no-panic): short-circuit: pick.is_none() is checked first
            if pick.is_none() || key > pick.unwrap() {
                pick = Some(key);
            }
        }
        let Some((_, _, v)) = pick else {
            // Complete coloring: update incumbent.
            if used < self.bounds.upper {
                self.bounds.upper = used;
                self.bounds.best = self.colors.clone();
            }
            // Optimality certificate: matched the clique lower bound.
            return true;
        };

        // Feasible existing colors, then at most one fresh color.
        let mut forbidden = dagwave_graph::BitSet::new(used + 1);
        for &w in self.g.neighbors(v) {
            let c = self.colors[w as usize];
            if c != usize::MAX && c <= used {
                forbidden.insert(c.min(used));
            }
        }
        for c in 0..used {
            if forbidden.contains(c) {
                continue;
            }
            self.colors[v] = c;
            if !self.branch(used) {
                return false;
            }
            self.colors[v] = usize::MAX;
            if self.bounds.upper == self.bounds.lower {
                return true; // proven optimal, stop early
            }
        }
        if used + 1 < self.bounds.upper {
            self.colors[v] = used;
            if !self.branch(used + 1) {
                return false;
            }
            self.colors[v] = usize::MAX;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multicolor::exact_multicoloring;
    use crate::ugraph::{complete_bipartite, complete_graph, cycle_graph, UGraph};
    use proptest::prelude::*;

    fn chi(g: &UGraph) -> usize {
        chromatic_number(g).chromatic().expect("budget sufficient")
    }

    #[test]
    fn standard_chromatic_numbers() {
        assert_eq!(chi(&complete_graph(5)), 5);
        assert_eq!(chi(&cycle_graph(6)), 2);
        assert_eq!(chi(&cycle_graph(7)), 3);
        assert_eq!(chi(&complete_bipartite(3, 4)), 2);
        assert_eq!(chi(&UGraph::new(4)), 1);
        assert_eq!(chi(&UGraph::new(0)), 0);
    }

    #[test]
    fn coloring_witness_is_proper_and_tight() {
        let g = cycle_graph(9);
        match chromatic_number(&g) {
            ExactResult::Optimal {
                chromatic,
                coloring,
            } => {
                assert_eq!(chromatic, 3);
                assert!(is_proper(&g, &coloring));
                let used = coloring.iter().copied().max().unwrap() + 1;
                assert_eq!(used, 3);
            }
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn petersen_graph_is_3_chromatic() {
        // Outer C5 0–4, inner pentagram 5–9, spokes i — i+5.
        let mut g = UGraph::new(10);
        for i in 0..5 {
            g.add_edge(i, (i + 1) % 5);
            g.add_edge(5 + i, 5 + (i + 2) % 5);
            g.add_edge(i, i + 5);
        }
        assert_eq!(chi(&g), 3);
    }

    #[test]
    fn havet_conflict_graph_is_3_chromatic() {
        // Figure 9: C8 plus antipodal chords.
        let mut g = cycle_graph(8);
        for i in 0..4 {
            g.add_edge(i, i + 4);
        }
        assert_eq!(chi(&g), 3);
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn wheel_graphs() {
        // Odd wheel W5 (C5 + hub): chromatic 4; even wheel W6: 3.
        let mut w5 = cycle_graph(5);
        let mut adj: Vec<Vec<u32>> = (0..6).map(|_| Vec::new()).collect();
        for v in 0..5 {
            for &w in w5.neighbors(v) {
                adj[v].push(w);
            }
        }
        let mut g = UGraph::new(6);
        for v in 0..5 {
            for &w in &adj[v] {
                g.add_edge(v, w as usize);
            }
            g.add_edge(v, 5);
        }
        w5 = g;
        assert_eq!(chi(&w5), 4);
    }

    #[test]
    fn budget_exhaustion_reports_bounds() {
        let g = complete_graph(12);
        match chromatic_number_budgeted(&g, 0, 1) {
            ExactResult::Optimal { chromatic, .. } => {
                // Greedy clique == DSATUR here, so it may close instantly.
                assert_eq!(chromatic, 12);
            }
            ExactResult::BudgetExceeded {
                lower,
                upper,
                coloring,
            } => {
                assert!(lower <= upper);
                assert!(is_proper(&g, &coloring));
            }
        }
    }

    /// Blow-up of `base`: vertex `v` becomes a clique of `weights[v]` copies,
    /// joined completely to the copies of its neighbours. Copy `i` of every
    /// vertex comes before copy `i + 1` of any, so twin classes interleave.
    fn blow_up(base: &UGraph, weights: &[usize]) -> UGraph {
        let mut copies: Vec<Vec<usize>> = vec![Vec::new(); weights.len()];
        let mut n = 0;
        for i in 0..weights.iter().copied().max().unwrap_or(0) {
            for (v, &w) in weights.iter().enumerate() {
                if i < w {
                    copies[v].push(n);
                    n += 1;
                }
            }
        }
        let mut g = UGraph::new(n);
        for (v, vs) in copies.iter().enumerate() {
            for (i, &a) in vs.iter().enumerate() {
                for &b in &vs[i + 1..] {
                    g.add_edge(a, b);
                }
                for &u in base.neighbors(v) {
                    for &b in &copies[u as usize] {
                        g.add_edge(a, b);
                    }
                }
            }
        }
        g
    }

    /// Naive backtracking oracle: is `g` properly `k`-colorable? A vertex
    /// opens at most the next unused color, so relabelled colorings are
    /// tried once.
    fn colorable(g: &UGraph, k: usize) -> bool {
        fn extend(g: &UGraph, k: usize, colors: &mut Vec<usize>, opened: usize) -> bool {
            let v = colors.len();
            if v == g.vertex_count() {
                return true;
            }
            for c in 0..k.min(opened + 1) {
                let free = g
                    .neighbors(v)
                    .iter()
                    .all(|&w| w as usize >= v || colors[w as usize] != c);
                if free {
                    colors.push(c);
                    if extend(g, k, colors, opened.max(c + 1)) {
                        return true;
                    }
                    colors.pop();
                }
            }
            false
        }
        extend(g, k, &mut Vec::new(), 0)
    }

    #[test]
    fn twin_classes_group_true_twins_only() {
        // 1 and 4 are true twins, and so are 3 and 5; 0 and 2 are false
        // twins (both see exactly {1, 4}) and must stay apart.
        let g = UGraph::from_edges(
            6,
            &[
                (1, 4),
                (0, 1),
                (0, 4),
                (2, 1),
                (2, 4),
                (3, 5),
                (2, 3),
                (2, 5),
            ],
        );
        // Classes are numbered by smallest member: {0}, {1,4}, {2}, {3,5}.
        assert_eq!(true_twin_classes(&g), Some(vec![0, 1, 2, 3, 1, 3]));
        // C4 and an edgeless graph have false twins only.
        assert_eq!(true_twin_classes(&cycle_graph(4)), None);
        assert_eq!(true_twin_classes(&UGraph::new(3)), None);
        assert_eq!(true_twin_classes(&complete_graph(3)), Some(vec![0; 3]));
    }

    #[test]
    fn replicated_c5_budget_exhaustion_reports_bounds() {
        // C5 × 4: the greedy clique (8) and DSATUR do not meet, so the twin
        // step runs; one node proves nothing past its first descent.
        let g = blow_up(&cycle_graph(5), &[4; 5]);
        match chromatic_number_budgeted(&g, 0, 1) {
            ExactResult::BudgetExceeded {
                lower,
                upper,
                coloring,
            } => {
                assert!(lower <= upper, "{lower} > {upper}");
                assert!(is_proper(&g, &coloring));
                assert_eq!(crate::color_count(&coloring), upper);
            }
            other => panic!("expected budget exhaustion, got {other:?}"),
        }
        for h in 1..=9 {
            let g = blow_up(&cycle_graph(5), &[h; 5]);
            assert_eq!(chi(&g), (5 * h).div_ceil(2), "C5 × {h}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// Blow-ups of random graphs on at most 8 vertices with weights 1–2
        /// are colored with χ colors, and the oracle finds no coloring with
        /// χ − 1.
        #[test]
        fn twin_quotient_colors_blow_ups_optimally(
            (edges, weights) in (1usize..=8).prop_flat_map(|n| (
                proptest::collection::vec(0u8..2, n * (n - 1) / 2),
                proptest::collection::vec(1usize..=2, n),
            ))
        ) {
            let n = weights.len();
            let pairs = (0..n).flat_map(|a| ((a + 1)..n).map(move |b| (a, b)));
            let present: Vec<(usize, usize)> = pairs
                .zip(&edges)
                .filter(|&(_, &e)| e == 1)
                .map(|(p, _)| p)
                .collect();
            let g = blow_up(&UGraph::from_edges(n, &present), &weights);
            let size = g.vertex_count();
            let ExactResult::Optimal { chromatic, coloring } = chromatic_number(&g) else {
                panic!("default budget exhausted on {size} vertices");
            };
            prop_assert!(is_proper(&g, &coloring));
            prop_assert_eq!(crate::color_count(&coloring), chromatic);
            prop_assert!(!colorable(&g, chromatic - 1), "{} colors suffice", chromatic - 1);
            // The quotient alone: its root answer and bound bracket χ, and
            // its exact multicoloring is χ, expanded to a proper coloring.
            if let Some(class_of) = true_twin_classes(&g) {
                let quotient = TwinQuotient::new(&g, class_of);
                let mut budget = Budget(DEFAULT_NODE_BUDGET);
                let root = root_multicoloring(&quotient.graph, &quotient.weights, &mut budget);
                prop_assert!(root.lower <= chromatic && chromatic <= root.best.total);
                prop_assert!(is_proper(&g, &quotient.expand(&root.best)));
                let exact = exact_multicoloring(&quotient.graph, &quotient.weights, DEFAULT_NODE_BUDGET);
                prop_assert!(exact.is_optimal());
                prop_assert_eq!(exact.best.total, chromatic);
                let coloring = quotient.expand(&exact.best);
                prop_assert!(is_proper(&g, &coloring));
                prop_assert_eq!(crate::color_count(&coloring), chromatic);
            }
        }
    }

    #[test]
    fn random_graph_exact_vs_dsatur_bound() {
        // Exact never exceeds the DSATUR upper bound.
        let edges: Vec<(usize, usize)> = (0..14)
            .flat_map(|a| ((a + 1)..14).map(move |b| (a, b)))
            .filter(|&(a, b)| (a * 7 + b * 13) % 3 == 0)
            .collect();
        let g = UGraph::from_edges(14, &edges);
        let exact = chi(&g);
        let ds = crate::dsatur::dsatur_color_count(&g);
        let omega = crate::clique::clique_number(&g);
        assert!(exact <= ds);
        assert!(exact >= omega);
    }
}
