//! Pluggable coloring backends — the named methods behind the solving
//! surface.
//!
//! The paper's taxonomy used to be hard-wired into one `match` inside the
//! solver facade; this module turns every method into a first-class
//! [`ColoringBackend`] that can be pinned or raced in a portfolio, every
//! one under the session's budgets:
//!
//! | backend | source | applicability |
//! |---------|--------|---------------|
//! | [`BackendKind::Theorem1`] | peel/replay (`w = π`) | internal-cycle-free |
//! | [`BackendKind::Theorem6`] | split/merge (`w ≤ ⌈4π/3⌉`) | UPP, one internal cycle |
//! | [`BackendKind::Weighted`] | dedup + multicoloring | duplicated families |
//! | [`BackendKind::Exact`] | branch-and-bound chromatic | small conflict graphs |
//! | [`BackendKind::Dsatur`] | DSATUR heuristic | any |
//! | [`BackendKind::GreedyNatural`] | first-fit, id order | any |
//! | [`BackendKind::GreedyLargestFirst`] | first-fit, Welsh–Powell | any |
//! | [`BackendKind::GreedySmallestLast`] | first-fit, degeneracy order | any |
//! | [`BackendKind::KempeGreedy`] | greedy + Kempe palette reduction | any |
//!
//! Backends receive a shared [`InstanceContext`] (instance, class, load,
//! budgets, and a lazily-built conflict graph) and return a
//! [`BackendOutcome`]. The [`crate::solver::SolveSession`] orchestrates them
//! according to a [`Policy`] and records one [`BackendAttempt`] per backend
//! consulted, so every `Solution` carries its provenance.
//!
//! A context proves each fact about its instance once. A whole instance's
//! context classifies the graph first ([`InstanceContext::new`]): a
//! directed cycle is an internal cycle, so an internal-cycle-free graph is
//! proven acyclic without a sort, and any other graph is sorted
//! topologically once, the order serving the UPP test and a failed sort's
//! cycle rejecting the graph. A shard's context inherits the proof from
//! its host, since a subgraph of a DAG is a DAG, and only classifies and
//! loads the shard. Backends trust the class: Theorem 6 runs its merge
//! without re-checking the preconditions classification just proved.

use crate::assignment::WavelengthAssignment;
use crate::error::CoreError;
use crate::internal::{self, DagClass};
use crate::{theorem1, theorem6};
use dagwave_color::ugraph::UGraph;
use dagwave_color::{dsatur, exact, greedy, kempe, multicolor};
use dagwave_graph::{ArcId, Digraph};
use dagwave_paths::{load, ConflictGraph, DipathFamily, PathId};
use std::fmt;
use std::sync::OnceLock;

/// Names every coloring backend reachable through the public API.
///
/// Also used as the `strategy` tag on a solved instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// Theorem 1 (peel/replay): optimal, `w = π`, internal-cycle-free DAGs.
    Theorem1,
    /// Theorem 6 (split/merge): `w ≤ ⌈4π/3⌉`, single-cycle UPP-DAGs.
    Theorem6,
    /// Weighted coloring (independent-set covering) of the deduplicated
    /// conflict graph — realizes Theorem 7's `⌈8h/3⌉` on replicated
    /// families.
    Weighted,
    /// Exact branch-and-bound chromatic number of the conflict graph.
    Exact,
    /// DSATUR heuristic on the conflict graph.
    Dsatur,
    /// First-fit greedy along natural vertex order.
    GreedyNatural,
    /// First-fit greedy along decreasing degree (Welsh–Powell).
    GreedyLargestFirst,
    /// First-fit greedy along smallest-last / degeneracy order.
    GreedySmallestLast,
    /// Smallest-last greedy refined by deterministic Kempe-chain palette
    /// reduction ([`dagwave_color::kempe::kempe_reduce`]).
    KempeGreedy,
}

impl BackendKind {
    /// Every backend, in the deterministic order portfolios race them.
    pub const ALL: [BackendKind; 9] = [
        BackendKind::Theorem1,
        BackendKind::Theorem6,
        BackendKind::Weighted,
        BackendKind::Exact,
        BackendKind::Dsatur,
        BackendKind::GreedyNatural,
        BackendKind::GreedyLargestFirst,
        BackendKind::GreedySmallestLast,
        BackendKind::KempeGreedy,
    ];

    /// Stable kebab-case name (what [`fmt::Display`] prints).
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Theorem1 => "theorem1",
            BackendKind::Theorem6 => "theorem6",
            BackendKind::Weighted => "weighted",
            BackendKind::Exact => "exact",
            BackendKind::Dsatur => "dsatur",
            BackendKind::GreedyNatural => "greedy-natural",
            BackendKind::GreedyLargestFirst => "greedy-largest-first",
            BackendKind::GreedySmallestLast => "greedy-smallest-last",
            BackendKind::KempeGreedy => "kempe-greedy",
        }
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How a [`crate::solver::SolveSession`] picks backends.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub enum Policy {
    /// Classify the instance and dispatch to the strongest applicable
    /// method.
    #[default]
    Auto,
    /// Run exactly this backend; error with
    /// [`CoreError::BackendUnsupported`] when it does not apply.
    Pinned(BackendKind),
    /// Race several backends on the rayon pool and keep the
    /// fewest-colors result (ties break toward the earlier list entry, so
    /// the outcome is deterministic regardless of scheduling). An empty
    /// list means "every backend that supports the instance".
    Portfolio(Vec<BackendKind>),
}

/// The policy and the budgets a caller sets on the solving surface.
/// Carried by [`crate::solver::SolveSession`] and built with
/// [`crate::solver::SolverBuilder`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SolveRequest {
    /// Backend-selection policy.
    pub policy: Policy,
    /// When to shard the instance by conflict-graph components before
    /// solving (decompose-solve-merge; see [`crate::DecomposePolicy`]).
    pub decompose: crate::decompose::DecomposePolicy,
    /// Largest conflict graph (vertices) handed to the exact solver.
    pub exact_limit: usize,
    /// Search-node budget for one exact call: the exact solver (its twin
    /// step included) and the weighted backend's exact multicoloring.
    pub exact_budget: u64,
}

impl SolveRequest {
    /// Default [`SolveRequest::exact_limit`].
    pub const DEFAULT_EXACT_LIMIT: usize = 80;
}

/// Largest deduplicated base family the weighted backend accepts (beyond it
/// the exact independent-set machinery is too expensive).
const WEIGHTED_DEDUP_LIMIT: usize = 40;
/// The weighted backend uses *exact* multicoloring when the base has at most
/// this many vertices…
const WEIGHTED_EXACT_BASE_LIMIT: usize = 16;
/// …and the family's total weight (original path count) is at most this;
/// otherwise it falls back to greedy multicoloring.
const WEIGHTED_EXACT_WEIGHT_LIMIT: usize = 64;

impl Default for SolveRequest {
    fn default() -> Self {
        SolveRequest {
            policy: Policy::Auto,
            decompose: crate::decompose::DecomposePolicy::default(),
            exact_limit: Self::DEFAULT_EXACT_LIMIT,
            exact_budget: exact::DEFAULT_NODE_BUDGET,
        }
    }
}

/// Everything a backend may consult about the instance being solved. Built
/// once per solve and shared (it is `Sync`) across portfolio members; the
/// conflict graph is constructed lazily on first use so cheap backends
/// (Theorem 1/6) never pay for it.
pub struct InstanceContext<'a> {
    /// The DAG.
    pub graph: &'a Digraph,
    /// The dipath family to color.
    pub family: &'a DipathFamily,
    /// The instance class per the paper's taxonomy.
    pub class: DagClass,
    /// `π(G, P)` — the universal lower bound.
    pub load: usize,
    /// Budgets and thresholds.
    pub request: &'a SolveRequest,
    ug: OnceLock<UGraph>,
    dedup: OnceLock<Vec<Vec<PathId>>>,
}

impl<'a> InstanceContext<'a> {
    /// Classify, validate the DAG precondition, and compute the load.
    /// Classification proves acyclicity on the way: a directed cycle is an
    /// internal cycle, so an internal-cycle-free graph is a DAG and is
    /// never sorted, and any other graph is sorted once, for the UPP test
    /// and the DAG check alike. A graph the sort rejects is
    /// [`CoreError::NotADag`] with the sort's cycle.
    pub fn new(
        graph: &'a Digraph,
        family: &'a DipathFamily,
        request: &'a SolveRequest,
    ) -> Result<Self, CoreError> {
        let (class, sorted) = internal::classify_and_sort(graph);
        if let Err(dagwave_graph::GraphError::NotADag(c)) = sorted {
            return Err(CoreError::NotADag(c));
        }
        debug_assert!(
            dagwave_graph::topo::is_dag(graph),
            "classification passed a graph with a directed cycle"
        );
        Ok(Self::classified(graph, family, class, request))
    }

    /// Classify and compute the load of a graph already known to be a DAG,
    /// without sorting it topologically again. Shard contexts come through
    /// here: every shard graph is a subgraph of a host that
    /// [`InstanceContext::new`] or [`crate::Workspace::new`] validated, and
    /// a subgraph of a DAG is a DAG. Debug builds still assert it.
    pub(crate) fn of_dag(
        graph: &'a Digraph,
        family: &'a DipathFamily,
        request: &'a SolveRequest,
    ) -> Self {
        debug_assert!(
            dagwave_graph::topo::is_dag(graph),
            "context of a subgraph of a validated DAG has a cycle"
        );
        Self::classified(graph, family, internal::classify(graph), request)
    }

    fn classified(
        graph: &'a Digraph,
        family: &'a DipathFamily,
        class: DagClass,
        request: &'a SolveRequest,
    ) -> Self {
        InstanceContext {
            graph,
            family,
            class,
            load: load::max_load(graph, family),
            request,
            ug: OnceLock::new(),
            dedup: OnceLock::new(),
        }
    }

    /// Assemble a context from *already-known* class and load, skipping the
    /// DAG validation, classification, and load scans — the incremental
    /// [`crate::Workspace`] patches those per mutation batch and rebuilds
    /// its context in O(1) per query instead of O(instance). The caller
    /// vouches that `graph` validated as a DAG before (the workspace's
    /// graph never mutates) and that `class`/`load` describe exactly this
    /// `(graph, family)` pair; debug builds shadow-check both claims
    /// against a from-scratch recomputation.
    pub(crate) fn from_parts(
        graph: &'a Digraph,
        family: &'a DipathFamily,
        class: DagClass,
        load: usize,
        request: &'a SolveRequest,
    ) -> Self {
        debug_assert_eq!(
            class,
            internal::classify(graph),
            "cached class diverged from a fresh classification"
        );
        debug_assert_eq!(
            load,
            load::max_load(graph, family),
            "cached load diverged from a fresh load scan"
        );
        debug_assert!(
            dagwave_graph::topo::topological_order(graph).is_ok(),
            "cached context built over a non-DAG"
        );
        InstanceContext {
            graph,
            family,
            class,
            load,
            request,
            ug: OnceLock::new(),
            dedup: OnceLock::new(),
        }
    }

    /// The conflict graph as a [`UGraph`], built on first use and cached.
    pub fn conflict_ugraph(&self) -> &UGraph {
        self.ug.get_or_init(|| {
            crate::solver::conflict_to_ugraph(&ConflictGraph::build(self.graph, self.family))
        })
    }

    /// Groups of identical dipaths (by arc sequence), each sorted so the
    /// smallest member id leads and ordered by that leader — the
    /// deterministic base the weighted backend colors. Computed on first
    /// use and cached, so the applicability probe and the run share one
    /// pass.
    pub fn dedup_groups(&self) -> &[Vec<PathId>] {
        self.dedup.get_or_init(|| {
            use std::collections::HashMap;
            let mut groups: HashMap<&[ArcId], Vec<PathId>> = HashMap::new();
            for (id, p) in self.family.iter() {
                groups.entry(p.arcs()).or_default().push(id);
            }
            let mut base: Vec<Vec<PathId>> = groups.into_values().collect();
            base.sort_by_key(|members| members[0]);
            base
        })
    }
}

/// What a backend produced for one instance.
#[derive(Clone, Debug)]
pub struct BackendOutcome {
    /// The wavelength assignment (proper by contract; the session
    /// re-validates it through `certify` and records the verdict on the
    /// corresponding [`BackendAttempt`]).
    pub assignment: WavelengthAssignment,
    /// Best lower bound on `w` this backend proved (at least `π`).
    pub lower_bound: usize,
    /// `true` when the backend proved its own assignment optimal.
    pub optimal: bool,
}

/// Provenance record: one backend consulted during a solve.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BackendAttempt {
    /// Which backend.
    pub backend: BackendKind,
    /// Best lower bound on `w` known after this attempt (at least `π`).
    pub lower_bound: usize,
    /// Colors used by the produced assignment — `None` when the backend
    /// declined or failed.
    pub upper_bound: Option<usize>,
    /// `certify`-backed validity: the produced assignment was re-checked to
    /// be conflict-free (`false` also when nothing was produced).
    pub valid: bool,
    /// Decline reason or error text, when the backend produced nothing.
    pub note: Option<String>,
}

/// A coloring method that can be pinned or raced by the solving surface.
///
/// Implementations must be deterministic: the same context always yields
/// the same assignment, which is what makes portfolio selection and the
/// parallel batch/stream entry points reproducible across thread budgets.
pub trait ColoringBackend: Send + Sync {
    /// The name tag.
    fn kind(&self) -> BackendKind;

    /// `None` when the backend can run on this instance, otherwise a
    /// human-readable reason it cannot.
    fn unsupported(&self, ctx: &InstanceContext<'_>) -> Option<String>;

    /// Produce a coloring. Only called after [`Self::unsupported`]
    /// returned `None`.
    fn run(&self, ctx: &InstanceContext<'_>) -> Result<BackendOutcome, CoreError>;
}

/// The static backend for `kind`.
pub fn backend(kind: BackendKind) -> &'static dyn ColoringBackend {
    match kind {
        BackendKind::Theorem1 => &Theorem1Backend,
        BackendKind::Theorem6 => &Theorem6Backend,
        BackendKind::Weighted => &WeightedBackend,
        BackendKind::Exact => &ExactBackend,
        BackendKind::Dsatur => &DsaturBackend,
        BackendKind::GreedyNatural => &GreedyBackend(greedy::Order::Natural),
        BackendKind::GreedyLargestFirst => &GreedyBackend(greedy::Order::LargestFirst),
        BackendKind::GreedySmallestLast => &GreedyBackend(greedy::Order::SmallestLast),
        BackendKind::KempeGreedy => &KempeGreedyBackend,
    }
}

// ---------------------------------------------------------------------------
// Adapted backends
// ---------------------------------------------------------------------------

struct Theorem1Backend;

impl ColoringBackend for Theorem1Backend {
    fn kind(&self) -> BackendKind {
        BackendKind::Theorem1
    }

    fn unsupported(&self, ctx: &InstanceContext<'_>) -> Option<String> {
        (ctx.class != DagClass::InternalCycleFree).then(|| {
            format!(
                "requires an internal-cycle-free DAG, instance is {}",
                ctx.class
            )
        })
    }

    fn run(&self, ctx: &InstanceContext<'_>) -> Result<BackendOutcome, CoreError> {
        let res = theorem1::color_optimal(ctx.graph, ctx.family)?;
        Ok(BackendOutcome {
            assignment: res.assignment,
            lower_bound: ctx.load,
            optimal: true,
        })
    }
}

struct Theorem6Backend;

impl ColoringBackend for Theorem6Backend {
    fn kind(&self) -> BackendKind {
        BackendKind::Theorem6
    }

    fn unsupported(&self, ctx: &InstanceContext<'_>) -> Option<String> {
        (ctx.class != DagClass::UppSingleCycle)
            .then(|| format!("requires a single-cycle UPP-DAG, instance is {}", ctx.class))
    }

    fn run(&self, ctx: &InstanceContext<'_>) -> Result<BackendOutcome, CoreError> {
        // `classify` derived this class from the same UPP test and internal
        // cycle count the public entry checks, on a graph the context
        // already proved acyclic: run the body on the proven class. A
        // caller that skipped `unsupported` gets the public entry's
        // precondition errors.
        let res = if ctx.class == DagClass::UppSingleCycle {
            theorem6::color_proven(
                ctx.graph,
                ctx.family,
                &internal::internal_subgraph(ctx.graph),
            )
        } else {
            theorem6::color_single_cycle_upp(ctx.graph, ctx.family)
        }?;
        let num = res.assignment.num_colors();
        Ok(BackendOutcome {
            assignment: res.assignment,
            lower_bound: ctx.load,
            // Optimal iff it matched the lower bound π.
            optimal: num == ctx.load || ctx.load == 0,
        })
    }
}

struct WeightedBackend;

impl ColoringBackend for WeightedBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Weighted
    }

    fn unsupported(&self, ctx: &InstanceContext<'_>) -> Option<String> {
        // Most families have no duplicate: find that out with one sort of
        // the arc sequences before grouping anything.
        let mut sequences: Vec<&[ArcId]> = ctx.family.iter().map(|(_, p)| p.arcs()).collect();
        sequences.sort_unstable();
        if !sequences.windows(2).any(|w| w[0] == w[1]) {
            return Some("family has no duplicated dipaths".to_string());
        }
        let base_count = ctx.dedup_groups().len();
        if base_count > WEIGHTED_DEDUP_LIMIT {
            return Some(format!(
                "deduplicated base has {base_count} dipaths, over the weighted dedup limit of {WEIGHTED_DEDUP_LIMIT}"
            ));
        }
        None
    }

    fn run(&self, ctx: &InstanceContext<'_>) -> Result<BackendOutcome, CoreError> {
        let base = ctx.dedup_groups();
        let base_family: DipathFamily = base
            .iter()
            .map(|members| ctx.family.path(members[0]).clone())
            .collect();
        let weights: Vec<usize> = base.iter().map(|m| m.len()).collect();
        let cg = ConflictGraph::build(ctx.graph, &base_family);
        let ug = crate::solver::conflict_to_ugraph(&cg);
        // Exact covering only within the configured limits; greedy beyond.
        let total_weight: usize = weights.iter().sum();
        let (mc, proven) = if base.len() <= WEIGHTED_EXACT_BASE_LIMIT
            && total_weight <= WEIGHTED_EXACT_WEIGHT_LIMIT
        {
            let exact = multicolor::exact_multicoloring(&ug, &weights, ctx.request.exact_budget);
            let proven = exact.is_optimal();
            (exact.best, proven)
        } else {
            (multicolor::greedy_multicoloring(&ug, &weights), false)
        };
        debug_assert!(mc.is_valid(&ug, &weights));
        let mut colors = vec![usize::MAX; ctx.family.len()];
        for (members, assigned) in base.iter().zip(&mc.colors) {
            for (member, &c) in members.iter().zip(assigned) {
                colors[member.index()] = c;
            }
        }
        let assignment = WavelengthAssignment::new(colors);
        let num = assignment.num_colors();
        // Identical dipaths are true twins of the conflict graph, which is
        // therefore the blow-up of the base's: a proven multicoloring is χ.
        let lower_bound = if proven { num } else { ctx.load };
        Ok(BackendOutcome {
            assignment,
            lower_bound,
            optimal: proven || num == ctx.load,
        })
    }
}

struct ExactBackend;

impl ColoringBackend for ExactBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Exact
    }

    fn unsupported(&self, ctx: &InstanceContext<'_>) -> Option<String> {
        // The conflict graph has one vertex per dipath, so the probe never
        // needs to build it — declining stays free on huge families.
        let n = ctx.family.len();
        (n > ctx.request.exact_limit).then(|| {
            format!(
                "conflict graph has {n} vertices, over the exact_limit of {}",
                ctx.request.exact_limit
            )
        })
    }

    fn run(&self, ctx: &InstanceContext<'_>) -> Result<BackendOutcome, CoreError> {
        let ug = ctx.conflict_ugraph();
        // The dipaths through a most loaded arc pairwise conflict, so `π`
        // is a proven root bound the search would otherwise have to prove.
        match exact::chromatic_number_budgeted(ug, ctx.load, ctx.request.exact_budget) {
            exact::ExactResult::Optimal {
                chromatic,
                coloring,
            } => Ok(BackendOutcome {
                assignment: WavelengthAssignment::new(coloring),
                lower_bound: chromatic,
                optimal: true,
            }),
            exact::ExactResult::BudgetExceeded {
                lower, coloring, ..
            } => {
                let assignment = WavelengthAssignment::new(coloring);
                let optimal = assignment.num_colors() == lower;
                Ok(BackendOutcome {
                    assignment,
                    lower_bound: lower,
                    optimal,
                })
            }
        }
    }
}

struct DsaturBackend;

impl ColoringBackend for DsaturBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Dsatur
    }

    fn unsupported(&self, _ctx: &InstanceContext<'_>) -> Option<String> {
        None
    }

    fn run(&self, ctx: &InstanceContext<'_>) -> Result<BackendOutcome, CoreError> {
        let assignment = WavelengthAssignment::new(dsatur::dsatur_coloring(ctx.conflict_ugraph()));
        let optimal = assignment.num_colors() == ctx.load;
        Ok(BackendOutcome {
            assignment,
            lower_bound: ctx.load,
            optimal,
        })
    }
}

struct GreedyBackend(greedy::Order);

impl ColoringBackend for GreedyBackend {
    fn kind(&self) -> BackendKind {
        match self.0 {
            greedy::Order::Natural => BackendKind::GreedyNatural,
            greedy::Order::LargestFirst => BackendKind::GreedyLargestFirst,
            greedy::Order::SmallestLast => BackendKind::GreedySmallestLast,
        }
    }

    fn unsupported(&self, _ctx: &InstanceContext<'_>) -> Option<String> {
        None
    }

    fn run(&self, ctx: &InstanceContext<'_>) -> Result<BackendOutcome, CoreError> {
        let coloring = greedy::greedy_coloring(ctx.conflict_ugraph(), self.0);
        let assignment = WavelengthAssignment::new(coloring);
        let optimal = assignment.num_colors() == ctx.load;
        Ok(BackendOutcome {
            assignment,
            lower_bound: ctx.load,
            optimal,
        })
    }
}

struct KempeGreedyBackend;

impl ColoringBackend for KempeGreedyBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::KempeGreedy
    }

    fn unsupported(&self, _ctx: &InstanceContext<'_>) -> Option<String> {
        None
    }

    fn run(&self, ctx: &InstanceContext<'_>) -> Result<BackendOutcome, CoreError> {
        let ug = ctx.conflict_ugraph();
        let coloring =
            kempe::kempe_reduce(ug, greedy::greedy_coloring(ug, greedy::Order::SmallestLast));
        let assignment = WavelengthAssignment::new(coloring);
        let optimal = assignment.num_colors() == ctx.load;
        Ok(BackendOutcome {
            assignment,
            lower_bound: ctx.load,
            optimal,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagwave_graph::builder::from_edges;
    use dagwave_graph::VertexId;
    use dagwave_paths::Dipath;

    fn v(i: usize) -> VertexId {
        VertexId::from_index(i)
    }

    fn path(g: &Digraph, route: &[usize]) -> Dipath {
        let route: Vec<VertexId> = route.iter().map(|&i| v(i)).collect();
        Dipath::from_vertices(g, &route).unwrap()
    }

    fn tree_instance() -> (Digraph, DipathFamily) {
        let g = from_edges(4, &[(0, 1), (1, 2), (1, 3)]);
        let f = DipathFamily::from_paths(vec![
            path(&g, &[0, 1, 2]),
            path(&g, &[0, 1, 3]),
            path(&g, &[1, 2]),
        ]);
        (g, f)
    }

    #[test]
    fn names_are_stable_and_distinct() {
        let mut seen = std::collections::HashSet::new();
        for kind in BackendKind::ALL {
            assert!(seen.insert(kind.name()), "duplicate name {kind}");
            assert_eq!(format!("{kind}"), kind.name());
        }
        assert_eq!(BackendKind::KempeGreedy.to_string(), "kempe-greedy");
    }

    #[test]
    fn request_defaults_pin_the_old_magic_numbers() {
        // The historical hard-coded heuristics: exact solver limit 80 as
        // configuration, and the weighted backend's dedup guard 40 and
        // exact multicoloring guards 16 (base) and 64 (total weight) as
        // named constants.
        let req = SolveRequest::default();
        assert_eq!(req.exact_limit, 80);
        assert_eq!(req.exact_budget, exact::DEFAULT_NODE_BUDGET);
        assert_eq!(WEIGHTED_DEDUP_LIMIT, 40);
        assert_eq!(WEIGHTED_EXACT_BASE_LIMIT, 16);
        assert_eq!(WEIGHTED_EXACT_WEIGHT_LIMIT, 64);
        assert_eq!(req.policy, Policy::Auto);
        assert_eq!(
            req.decompose,
            crate::decompose::DecomposePolicy::default(),
            "decomposition defaults to Auto above the size threshold"
        );
    }

    #[test]
    fn context_rejects_cyclic_input() {
        let g = from_edges(2, &[(0, 1), (1, 0)]);
        let f = DipathFamily::new();
        let req = SolveRequest::default();
        assert!(matches!(
            InstanceContext::new(&g, &f, &req),
            Err(CoreError::NotADag(_))
        ));
    }

    #[test]
    fn theorem_backends_guard_their_class() {
        let (g, f) = tree_instance();
        let req = SolveRequest::default();
        let ctx = InstanceContext::new(&g, &f, &req).unwrap();
        assert!(backend(BackendKind::Theorem1).unsupported(&ctx).is_none());
        let reason = backend(BackendKind::Theorem6).unsupported(&ctx).unwrap();
        assert!(reason.contains("internal-cycle-free"), "{reason}");
    }

    #[test]
    fn every_universal_backend_colors_the_tree_properly() {
        let (g, f) = tree_instance();
        let req = SolveRequest::default();
        let ctx = InstanceContext::new(&g, &f, &req).unwrap();
        for kind in BackendKind::ALL {
            let b = backend(kind);
            assert_eq!(b.kind(), kind);
            if b.unsupported(&ctx).is_some() {
                continue;
            }
            let out = b.run(&ctx).unwrap();
            assert!(out.assignment.is_valid(&g, &f), "{kind}");
            assert!(out.assignment.num_colors() >= ctx.load, "{kind}");
            assert!(out.lower_bound >= ctx.load, "{kind}");
        }
    }

    #[test]
    fn weighted_declines_without_duplicates_and_over_budget() {
        let (g, f) = tree_instance();
        let req = SolveRequest::default();
        let ctx = InstanceContext::new(&g, &f, &req).unwrap();
        let reason = backend(BackendKind::Weighted).unsupported(&ctx).unwrap();
        assert!(reason.contains("no duplicated"), "{reason}");

        // Every sub-interval of a 10-vertex path is a distinct dipath (45
        // of them); the first `distinct` plus one duplicate make the base.
        let chain: Vec<(usize, usize)> = (0..9).map(|i| (i, i + 1)).collect();
        let g = from_edges(10, &chain);
        let intervals: Vec<Dipath> = (0..10)
            .flat_map(|a| (a + 1..10).map(move |b| (a, b)))
            .map(|(a, b)| path(&g, &(a..=b).collect::<Vec<_>>()))
            .collect();
        let with_duplicate = |distinct: usize| {
            let mut paths = intervals[..distinct].to_vec();
            paths.push(intervals[0].clone());
            DipathFamily::from_paths(paths)
        };
        let at_limit = with_duplicate(40);
        let ctx = InstanceContext::new(&g, &at_limit, &req).unwrap();
        assert_eq!(backend(BackendKind::Weighted).unsupported(&ctx), None);
        let over = with_duplicate(41);
        let ctx = InstanceContext::new(&g, &over, &req).unwrap();
        let reason = backend(BackendKind::Weighted).unsupported(&ctx).unwrap();
        assert!(reason.contains("has 41 dipaths"), "{reason}");
        assert!(reason.contains("dedup limit of 40"), "{reason}");
    }

    #[test]
    fn exact_declines_over_the_vertex_limit() {
        let (g, f) = tree_instance();
        let req = SolveRequest {
            exact_limit: 1,
            ..SolveRequest::default()
        };
        let ctx = InstanceContext::new(&g, &f, &req).unwrap();
        let reason = backend(BackendKind::Exact).unsupported(&ctx).unwrap();
        assert!(reason.contains("exact_limit"), "{reason}");
    }

    #[test]
    fn conflict_ugraph_is_cached() {
        let (g, f) = tree_instance();
        let req = SolveRequest::default();
        let ctx = InstanceContext::new(&g, &f, &req).unwrap();
        let a = ctx.conflict_ugraph() as *const UGraph;
        let b = ctx.conflict_ugraph() as *const UGraph;
        assert_eq!(a, b);
    }
}
