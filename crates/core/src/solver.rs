//! The solving surface: sessions, policies, and the one-instance and
//! streaming entry points.
//!
//! A [`SolveSession`] (built with [`SolverBuilder`]) carries a
//! [`SolveRequest`] — its budgets, the decompose policy, and a [`Policy`]:
//!
//! * [`Policy::Auto`] — classify the instance and dispatch to the strongest
//!   applicable method (the paper's taxonomy, the historical behavior):
//!
//!   | class | method | guarantee |
//!   |-------|--------|-----------|
//!   | no internal cycle | Theorem 1 | `w = π`, polynomial |
//!   | UPP, one internal cycle | Theorem 6 (+ weighted rescue) | `w ≤ ⌈4π/3⌉` |
//!   | otherwise | exact B&B (small) or DSATUR (+ weighted rescue) | best effort, `w ≥ π` |
//!
//!   The weighted rescue is consulted only when the primary method is not
//!   proven optimal: no valid coloring uses fewer than `π` wavelengths.
//!
//! * [`Policy::Pinned`] — run exactly one named [`BackendKind`].
//! * [`Policy::Portfolio`] — race several backends on the rayon pool and
//!   keep the fewest-colors result deterministically.
//!
//! Instances can be solved one at a time ([`SolveSession::solve`]) or from
//! an iterator that is fed onto the pool one bounded window at a time,
//! without ever materializing the whole sequence
//! ([`SolveSession::solve_stream`]).
//!
//! When the session's [`DecomposePolicy`] shards an instance, each
//! conflict component is solved as its own sub-instance and the shard
//! colorings are merged. Shards are grouped by a flat content key before
//! anything is built ([`ShardGroups`]), and each group builds and solves
//! one sub-instance, for the one-shot path and the incremental
//! [`crate::workspace::Workspace`] alike: the paper's lower-bound
//! families, and the `federated` workload, glue copies of a few gadgets.

use crate::assignment::WavelengthAssignment;
use crate::backend::{
    backend, BackendAttempt, BackendKind, BackendOutcome, InstanceContext, Policy, SolveRequest,
};
use crate::bounds;
use crate::decompose::{DecomposePolicy, Decomposition, ShardOutcome};
use crate::error::CoreError;
use crate::internal::DagClass;
use dagwave_color::ugraph::UGraph;
use dagwave_graph::Digraph;
use dagwave_paths::{
    conflict_components, ConflictGraph, Dipath, DipathFamily, ExtractScratch, PathId, ShardGroups,
    SubInstance,
};
use std::collections::VecDeque;
use std::sync::Arc;

/// How many in-flight instances [`SolveSession::solve_stream`] keeps per
/// pool thread. A few windows of slack keep every worker busy across the
/// tail of one window and the head of the next without materializing an
/// unbounded prefix of the source iterator.
const STREAM_WINDOW_PER_THREAD: usize = 4;

/// A solved instance, with full provenance.
#[derive(Clone, Debug)]
pub struct Solution {
    /// The wavelength assignment.
    pub assignment: WavelengthAssignment,
    /// Number of wavelengths used.
    pub num_colors: usize,
    /// `π(G, P)` — the universal lower bound.
    pub load: usize,
    /// `true` when `num_colors` is provably minimum (`w`).
    pub optimal: bool,
    /// The instance class per the paper's taxonomy.
    pub class: DagClass,
    /// The backend that produced the kept assignment. For a decomposed
    /// solve this is the winning backend of the shard that determined the
    /// merged span (the first shard attaining the maximum).
    pub strategy: BackendKind,
    /// Every backend consulted for this solve, in consultation order, with
    /// its bounds and `certify`-backed validity verdict. For a decomposed
    /// solve: the shards' attempts concatenated in shard order (the
    /// per-shard split lives in [`Solution::decomposition`], whose shards
    /// share their solves' lists). Behind an [`Arc`], so sharing it is a
    /// refcount bump.
    pub attempts: Arc<[BackendAttempt]>,
    /// Present when the instance was sharded by conflict-graph components
    /// (decompose-solve-merge): one [`ShardOutcome`] per component, in
    /// deterministic shard order. `None` for monolithic solves. Behind an
    /// [`Arc`] because the provenance is immutable and can be large (one
    /// record per shard): cloning a solution — which the incremental engine
    /// does on every query of its merged cache — bumps a refcount instead
    /// of deep-copying every shard report.
    pub decomposition: Option<Arc<Decomposition>>,
    /// Present when this solution came out of an incremental
    /// [`crate::workspace::Workspace`] re-solve: how many shards were
    /// served from cache vs. actually recomputed. Always `None` for the
    /// one-shot entry points — the assignment itself is bit-identical
    /// either way, this field only records how it was obtained.
    pub resolve: Option<crate::workspace::Resolve>,
}

/// An owned instance, the item type of [`SolveSession::solve_stream`].
#[derive(Clone, Debug)]
pub struct Instance {
    /// The DAG.
    pub graph: dagwave_graph::Digraph,
    /// The dipath family to color.
    pub family: DipathFamily,
}

impl Instance {
    /// Bundle a graph and family into a streamable instance.
    pub fn new(graph: dagwave_graph::Digraph, family: DipathFamily) -> Self {
        Instance { graph, family }
    }
}

/// Fluent constructor for a [`SolveSession`].
///
/// ```
/// use dagwave_core::{BackendKind, Policy, SolverBuilder};
///
/// let session = SolverBuilder::new()
///     .policy(Policy::Portfolio(vec![
///         BackendKind::Dsatur,
///         BackendKind::KempeGreedy,
///     ]))
///     .exact_limit(120)
///     .build();
/// # let _ = session;
/// ```
#[derive(Clone, Debug, Default)]
pub struct SolverBuilder {
    request: SolveRequest,
}

impl SolverBuilder {
    /// Builder with default budgets and [`Policy::Auto`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the backend-selection policy.
    pub fn policy(mut self, policy: Policy) -> Self {
        self.request.policy = policy;
        self
    }

    /// Shorthand for [`Policy::Pinned`].
    pub fn pinned(self, kind: BackendKind) -> Self {
        self.policy(Policy::Pinned(kind))
    }

    /// Shorthand for [`Policy::Portfolio`] (empty = all applicable).
    pub fn portfolio(self, kinds: Vec<BackendKind>) -> Self {
        self.policy(Policy::Portfolio(kinds))
    }

    /// Set the decompose-solve-merge policy: when to shard the instance by
    /// conflict-graph connected components and solve the shards
    /// concurrently (see [`DecomposePolicy`]).
    pub fn decompose(mut self, policy: DecomposePolicy) -> Self {
        self.request.decompose = policy;
        self
    }

    /// Largest conflict graph (vertices) handed to the exact solver.
    pub fn exact_limit(mut self, limit: usize) -> Self {
        self.request.exact_limit = limit;
        self
    }

    /// Search-node budget for one exact call: the exact solver (its twin
    /// step included) and the weighted backend's exact multicoloring.
    pub fn exact_budget(mut self, budget: u64) -> Self {
        self.request.exact_budget = budget;
        self
    }

    /// Finalize into a session.
    pub fn build(self) -> SolveSession {
        SolveSession {
            request: self.request,
        }
    }
}

/// A configured solving surface: policy + budgets, reusable across any
/// number of instances (it is `Sync`, so one session can serve a whole
/// parameter sweep).
#[derive(Clone, Debug, Default)]
pub struct SolveSession {
    request: SolveRequest,
}

impl SolveSession {
    /// Session from an explicit request.
    pub fn new(request: SolveRequest) -> Self {
        SolveSession { request }
    }

    /// Session with default budgets, [`Policy::Auto`], and the default
    /// [`DecomposePolicy::Auto`], which shards large multi-component
    /// instances.
    pub fn auto() -> Self {
        Self::default()
    }

    /// Start building a customized session.
    pub fn builder() -> SolverBuilder {
        SolverBuilder::new()
    }

    /// The request this session runs.
    pub fn request(&self) -> &SolveRequest {
        &self.request
    }

    /// Solve one instance under this session's policy.
    ///
    /// Runs the decompose-solve-merge pipeline when the session's
    /// [`DecomposePolicy`] elects to shard (the instance is cut by
    /// conflict-graph connected components, each distinct shard is
    /// classified and solved independently on the rayon pool, and the
    /// shard colorings are merged with a shared palette); otherwise solves
    /// monolithically.
    pub fn solve(
        &self,
        g: &dagwave_graph::Digraph,
        family: &DipathFamily,
    ) -> Result<Solution, CoreError> {
        // One context serves both paths: DAG validation, classification,
        // and the load are computed exactly once per solve, whether the
        // decompose stage elects to shard or falls through.
        let ctx = InstanceContext::new(g, family, &self.request)?;
        match self.decomposition_plan(&ctx) {
            Some(components) => self.solve_decomposed(&ctx, components),
            None => self.dispatch(&ctx),
        }
    }

    /// One undecomposed shard solve — the per-shard engine of the
    /// decomposed path. The shard builds its own context, which inherits
    /// the host's DAG proof ([`InstanceContext::of_dag`]): it classifies
    /// and loads the shard but does not sort it topologically again. A
    /// shard is dispatched whole, never sharded again.
    fn solve_shard(&self, shard: &SubInstance) -> Result<Solution, CoreError> {
        let ctx = InstanceContext::of_dag(&shard.graph, &shard.family, &self.request);
        self.dispatch(&ctx)
    }

    /// Route one instance context to the configured backend policy.
    pub(crate) fn dispatch(&self, ctx: &InstanceContext<'_>) -> Result<Solution, CoreError> {
        match &self.request.policy {
            Policy::Auto => self.solve_auto(ctx),
            Policy::Pinned(kind) => self.solve_pinned(*kind, ctx),
            Policy::Portfolio(kinds) => self.solve_portfolio(kinds, ctx),
        }
    }

    /// The decompose stage: decide whether to shard and, if so, return the
    /// conflict-graph components in deterministic shard order.
    ///
    /// The gate reads only the already-validated context (no graph pass),
    /// and the component scan runs only when the gate leaves the decision
    /// to the component count. The scan never builds the conflict graph —
    /// dipaths are unioned through the arc buckets directly
    /// ([`dagwave_paths::conflict_components`]), so deciding costs
    /// `O(Σ|P| · α)` even when the conflict graph would be enormous. The
    /// incremental [`crate::workspace::Workspace`] tracks its components
    /// itself and always shards.
    fn decomposition_plan(&self, ctx: &InstanceContext<'_>) -> Option<Vec<Vec<PathId>>> {
        let min_components = match self.request.decompose {
            DecomposePolicy::Off => return None,
            // Auto declines when the Auto backend policy would take the
            // Theorem 1 fast path anyway: on an internal-cycle-free host
            // the monolithic solve is already optimal (`w = π`) in
            // O(m + Σ|p|) memory and O(n + m + Σ|p|) time plus its Kempe
            // searches (each costs the loads on the live arcs of the
            // dipaths it walks where the dipaths through an arc part
            // ways), so sharding could only add overhead, never save
            // colors. Pinned/Portfolio policies still shard (smaller
            // per-shard graphs genuinely help heuristic and exact
            // backends), as does `Always`. Auto only pays the shard
            // machinery when it actually splits.
            DecomposePolicy::Auto { min_paths } => {
                let fast_path =
                    self.request.policy == Policy::Auto && ctx.class == DagClass::InternalCycleFree;
                if ctx.family.len() < min_paths.max(1) || fast_path {
                    return None;
                }
                2
            }
            DecomposePolicy::Always if ctx.family.is_empty() => return None,
            DecomposePolicy::Always => 1,
        };
        let components = conflict_components(ctx.graph, ctx.family);
        (components.len() >= min_components).then_some(components)
    }

    /// Solve the shards concurrently and merge with a shared palette.
    ///
    /// The components go through [`SolveSession::solve_shards`]: one
    /// sub-instance per distinct shard content (dense local ids, host graph
    /// restricted to the arcs the shard uses), solved with this session's
    /// policy and budgets; a shard is never re-sharded. Results are merged
    /// in deterministic shard order regardless of completion order, so the
    /// output is bit-identical at every thread budget.
    fn solve_decomposed(
        &self,
        ctx: &InstanceContext<'_>,
        components: Vec<Vec<PathId>>,
    ) -> Result<Solution, CoreError> {
        let solves = self.solve_shards(
            ctx.graph,
            components
                .iter()
                .map(|members| members.iter().map(|&id| (id, ctx.family.path(id)))),
            &mut ExtractScratch::new(),
        );
        // First shard error wins, in shard order — deterministic.
        let shards: Vec<(Vec<PathId>, &Solution)> = components
            .into_iter()
            .zip(solves.per_shard())
            .map(|(members, result)| result.as_ref().map(|sol| (members, &**sol)))
            .collect::<Result<_, _>>()
            .map_err(CoreError::clone)?;
        Ok(merge_shards(ctx, shards))
    }

    /// Solve shards as independent tasks on the rayon pool — the one path
    /// from shards to answers, for the one-shot decomposed solve and the
    /// incremental workspace alike. Each shard is given as its members,
    /// `(id, dipath)` pairs in local-id order.
    ///
    /// Shards with identical content share one solve. A shard solve reads
    /// only its sub-instance's graph and family (never the original ids)
    /// plus this session's request, and backends are deterministic, so
    /// equal content means an equal answer. [`ShardGroups`] writes each
    /// shard's content key through `scratch` and groups equal keys; only
    /// the first shard of each group is built into a [`SubInstance`] and
    /// solved, and its result serves the whole group. No hashing, and
    /// nothing outlives the call. A lone shard, a steady refresh's usual
    /// load, has nothing to group with and is extracted straight through
    /// `scratch`'s own key buffer. Keys and builds run sequentially; only
    /// the solves fan out.
    pub(crate) fn solve_shards<'a, S, M>(
        &self,
        g: &Digraph,
        shards: S,
        scratch: &mut ExtractScratch,
    ) -> ShardSolves
    where
        S: IntoIterator<Item = M>,
        M: Iterator<Item = (PathId, &'a Dipath)> + Clone,
    {
        let shards: Vec<M> = shards.into_iter().collect();
        let (distinct, group_of): (Vec<SubInstance>, _) = match &shards[..] {
            [only] => (
                vec![SubInstance::extract_with(g, only.clone(), scratch)],
                vec![0],
            ),
            _ => {
                let paths = shards.iter().map(|m| m.clone().map(|(_, p)| p));
                let groups = ShardGroups::new(g, paths, scratch);
                let distinct = groups
                    .firsts()
                    .iter()
                    .map(|&i| groups.extract(i, shards[i].clone().map(|(id, _)| id), scratch))
                    .collect();
                (distinct, groups.group_of().to_vec())
            }
        };
        let mut slots: Vec<Option<Result<Arc<Solution>, CoreError>>> =
            distinct.iter().map(|_| None).collect();
        rayon::scope(|s| {
            for (slot, sub) in slots.iter_mut().zip(&distinct) {
                s.spawn(move |_| *slot = Some(self.solve_shard(sub).map(Arc::new)));
            }
        });
        let solved = slots
            .into_iter()
            .map(|r| r.expect("shard task completed")) // lint: allow(no-panic): the scope barrier filled every shard slot
            .collect();
        ShardSolves { solved, group_of }
    }

    /// Solve a *stream* of instances: the iterator is pulled one bounded
    /// window at a time, each window's instances are fanned out onto the
    /// rayon pool, and results are yielded in input order as windows
    /// complete. Memory stays bounded by the window (a few multiples of
    /// the thread count) no matter how many instances the iterator yields —
    /// the entry point for million-path instance families that must never
    /// be materialized as a slice.
    ///
    /// Each result is exactly what [`SolveSession::solve`] returns on that
    /// instance, except that a panic inside one solve is isolated to that
    /// instance and surfaced as [`CoreError::SolverPanic`].
    pub fn solve_stream<I>(&self, instances: I) -> SolveStream<'_, I::IntoIter>
    where
        I: IntoIterator<Item = Instance>,
    {
        SolveStream {
            session: self,
            source: instances.into_iter(),
            window: rayon::current_num_threads().max(1) * STREAM_WINDOW_PER_THREAD,
            ready: VecDeque::new(),
        }
    }

    /// The a-priori upper bound the paper guarantees for this instance
    /// class (`π` / `⌈4π/3⌉` / `⌈(4/3)^C π⌉`), or `None` for non-UPP DAGs
    /// with internal cycles (unbounded ratio, Figure 1).
    pub fn guaranteed_bound(
        &self,
        g: &dagwave_graph::Digraph,
        family: &DipathFamily,
    ) -> Option<usize> {
        let pi = dagwave_paths::load::max_load(g, family);
        bounds::class_bound(crate::internal::classify(g), pi)
    }

    /// Classify and dispatch: the class's primary backend, then the
    /// weighted rescue only when the primary is not proven optimal.
    fn solve_auto(&self, ctx: &InstanceContext<'_>) -> Result<Solution, CoreError> {
        let primary = match ctx.class {
            DagClass::InternalCycleFree => BackendKind::Theorem1,
            DagClass::UppSingleCycle => BackendKind::Theorem6,
            _ if backend(BackendKind::Exact).unsupported(ctx).is_none() => BackendKind::Exact,
            _ => BackendKind::Dsatur,
        };
        let (attempt, outcome) = run_required(primary, ctx)?;
        // No valid coloring beats a proven optimum (Theorem 1's always is).
        // Otherwise replicated families may sidestep the primary's weakness
        // — Theorem 6's duplicate penalty, Theorem 7's ⌈8h/3⌉ — via
        // weighted coloring; keep whichever uses fewer wavelengths.
        if outcome.optimal {
            return Ok(build_solution(ctx, primary, outcome, Arc::new([attempt])));
        }
        Ok(self.improve_with_weighted(ctx, primary, attempt, outcome))
    }

    /// Consult the weighted backend and keep whichever of the two outcomes
    /// uses fewer wavelengths (primary wins ties). The weighted result can
    /// only displace the primary when its certify verdict passed — an
    /// uncertified improvement is no improvement.
    fn improve_with_weighted(
        &self,
        ctx: &InstanceContext<'_>,
        primary_kind: BackendKind,
        primary_attempt: BackendAttempt,
        primary: BackendOutcome,
    ) -> Solution {
        let weighted = consult(BackendKind::Weighted, ctx);
        let weighted_valid = weighted.attempt.valid;
        let attempts = Arc::new([primary_attempt, weighted.attempt]);
        match weighted.outcome {
            Some(w)
                if weighted_valid
                    && w.assignment.num_colors() < primary.assignment.num_colors() =>
            {
                build_solution(ctx, BackendKind::Weighted, w, attempts)
            }
            _ => build_solution(ctx, primary_kind, primary, attempts),
        }
    }

    fn solve_pinned(
        &self,
        kind: BackendKind,
        ctx: &InstanceContext<'_>,
    ) -> Result<Solution, CoreError> {
        if let Some(reason) = backend(kind).unsupported(ctx) {
            return Err(CoreError::BackendUnsupported {
                backend: kind,
                reason,
            });
        }
        let (attempt, outcome) = run_required(kind, ctx)?;
        // Same gate the portfolio applies to its winner: an assignment that
        // fails certification is an error, not a result.
        if !attempt.valid {
            return Err(CoreError::BackendInvalid { backend: kind });
        }
        Ok(build_solution(ctx, kind, outcome, Arc::new([attempt])))
    }

    /// Race the portfolio members on the rayon pool; keep the
    /// fewest-colors valid result, ties breaking toward the earlier list
    /// entry — a deterministic choice independent of scheduling.
    fn solve_portfolio(
        &self,
        kinds: &[BackendKind],
        ctx: &InstanceContext<'_>,
    ) -> Result<Solution, CoreError> {
        let kinds: Vec<BackendKind> = if kinds.is_empty() {
            BackendKind::ALL
                .into_iter()
                .filter(|&k| backend(k).unsupported(ctx).is_none())
                .collect()
        } else {
            kinds.to_vec()
        };
        if kinds.is_empty() {
            return Err(CoreError::NoApplicableBackend);
        }
        let mut slots: Vec<Option<Attempted>> = kinds.iter().map(|_| None).collect();
        rayon::scope(|s| {
            for (slot, &kind) in slots.iter_mut().zip(&kinds) {
                s.spawn(move |_| *slot = Some(consult(kind, ctx)));
            }
        });
        let mut attempted: Vec<Attempted> = slots
            .into_iter()
            .map(|s| s.expect("portfolio member completed")) // lint: allow(no-panic): the scope barrier filled every portfolio slot
            .collect();
        let best = attempted
            .iter()
            .enumerate()
            .filter(|(_, a)| a.attempt.valid)
            .filter_map(|(i, a)| a.outcome.as_ref().map(|o| (o.assignment.num_colors(), i)))
            .min()
            .map(|(_, i)| i);
        let attempts: Arc<[BackendAttempt]> = attempted.iter().map(|a| a.attempt.clone()).collect();
        match best {
            Some(i) => {
                let winner = attempted[i].attempt.backend;
                let outcome = attempted
                    .swap_remove(i)
                    .outcome
                    .expect("winner has an outcome"); // lint: allow(no-panic): the winner was selected among attempts that all carry outcomes
                Ok(build_solution(ctx, winner, outcome, attempts))
            }
            // No member produced a valid coloring: surface the first
            // runtime error, or report that nothing was applicable.
            None => Err(attempted
                .into_iter()
                .find_map(|a| a.error)
                .unwrap_or(CoreError::NoApplicableBackend)),
        }
    }
}

/// Lazily solving iterator returned by [`SolveSession::solve_stream`].
pub struct SolveStream<'s, I: Iterator<Item = Instance>> {
    session: &'s SolveSession,
    source: I,
    window: usize,
    ready: VecDeque<Result<Solution, CoreError>>,
}

impl<I: Iterator<Item = Instance>> SolveStream<'_, I> {
    /// Pull one window from the source and fan it out onto the pool.
    fn refill(&mut self) {
        let window: Vec<Instance> = self.source.by_ref().take(self.window).collect();
        if window.is_empty() {
            return;
        }
        let mut slots: Vec<Option<Result<Solution, CoreError>>> =
            window.iter().map(|_| None).collect();
        let session = self.session;
        rayon::scope(|s| {
            for (slot, inst) in slots.iter_mut().zip(&window) {
                s.spawn(move |_| *slot = Some(solve_isolated(session, &inst.graph, &inst.family)));
            }
        });
        self.ready
            // lint: allow(no-panic): the scope barrier filled every stream slot
            .extend(slots.into_iter().map(|r| r.expect("stream task completed")));
    }
}

impl<I: Iterator<Item = Instance>> Iterator for SolveStream<'_, I> {
    type Item = Result<Solution, CoreError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.ready.is_empty() {
            self.refill();
        }
        self.ready.pop_front()
    }
}

// ---------------------------------------------------------------------------
// Backend orchestration internals
// ---------------------------------------------------------------------------

/// One consulted backend: the provenance record plus (when it ran to
/// completion) its outcome or (when it failed) its error.
struct Attempted {
    attempt: BackendAttempt,
    outcome: Option<BackendOutcome>,
    error: Option<CoreError>,
}

/// Consult a backend with full isolation: declines and failures (including
/// panics) become provenance records instead of propagating.
fn consult(kind: BackendKind, ctx: &InstanceContext<'_>) -> Attempted {
    let b = backend(kind);
    if let Some(reason) = b.unsupported(ctx) {
        return Attempted {
            attempt: BackendAttempt {
                backend: kind,
                lower_bound: ctx.load,
                upper_bound: None,
                valid: false,
                note: Some(reason),
            },
            outcome: None,
            error: None,
        };
    }
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| b.run(ctx)))
        .unwrap_or_else(|payload| Err(CoreError::SolverPanic(panic_message(payload.as_ref()))));
    match run {
        Ok(outcome) => Attempted {
            attempt: record(kind, ctx, &outcome),
            outcome: Some(outcome),
            error: None,
        },
        Err(e) => Attempted {
            attempt: BackendAttempt {
                backend: kind,
                lower_bound: ctx.load,
                upper_bound: None,
                valid: false,
                note: Some(e.to_string()),
            },
            outcome: None,
            error: Some(e),
        },
    }
}

/// Run a backend whose errors should propagate (Auto / Pinned paths).
fn run_required(
    kind: BackendKind,
    ctx: &InstanceContext<'_>,
) -> Result<(BackendAttempt, BackendOutcome), CoreError> {
    let outcome = backend(kind).run(ctx)?;
    Ok((record(kind, ctx, &outcome), outcome))
}

/// Provenance record for a completed run, including the validity re-check
/// `certify` runs (independent of the backend's own bookkeeping).
fn record(
    kind: BackendKind,
    ctx: &InstanceContext<'_>,
    outcome: &BackendOutcome,
) -> BackendAttempt {
    let valid = outcome.assignment.is_valid(ctx.graph, ctx.family);
    BackendAttempt {
        backend: kind,
        lower_bound: outcome.lower_bound.max(ctx.load),
        upper_bound: Some(outcome.assignment.num_colors()),
        valid,
        note: None,
    }
}

/// Assemble the final [`Solution`], pooling lower bounds across every
/// attempt (each is a valid bound on `w`, whichever backend proved it).
fn build_solution(
    ctx: &InstanceContext<'_>,
    winner: BackendKind,
    outcome: BackendOutcome,
    attempts: Arc<[BackendAttempt]>,
) -> Solution {
    let num_colors = outcome.assignment.num_colors();
    let best_lower = attempts
        .iter()
        .map(|a| a.lower_bound)
        .chain([outcome.lower_bound, ctx.load])
        .max()
        .unwrap_or(ctx.load);
    Solution {
        num_colors,
        assignment: outcome.assignment,
        load: ctx.load,
        optimal: outcome.optimal || num_colors == best_lower,
        class: ctx.class,
        strategy: winner,
        attempts,
        decomposition: None,
        resolve: None,
    }
}

/// Merge per-shard solutions into one whole-instance [`Solution`] with a
/// shared palette.
///
/// Shard palettes are normalized to dense `0..k` before writing back, so
/// the merged span is exactly the maximum over shard spans (the chromatic
/// number of a disjoint union is the max over its components — merging
/// loses nothing). Properness is structural: colors can only collide
/// across shards, and cross-shard dipaths never conflict.
///
/// Shard solutions are borrowed: identical shards of a one-shot solve
/// share one, and the incremental engine merges its cache without
/// deep-cloning the clean shards. Each shard's report shares its
/// solution's attempt list, so identical shards share one allocation, and
/// the merged list is copied once, at its final size.
pub(crate) fn merge_shards(
    ctx: &InstanceContext<'_>,
    shards: Vec<(Vec<PathId>, &Solution)>,
) -> Solution {
    let mut colors = vec![usize::MAX; ctx.family.len()];
    let mut span = 0usize;
    let mut best_lower = 0usize;
    let mut strategy: Option<BackendKind> = None;
    let mut all_optimal = true;
    let mut reports = Vec::with_capacity(shards.len());
    // One palette table reused across shards: the first-appearance
    // numbering of `WavelengthAssignment::normalized`, without
    // materializing a normalized copy per shard.
    let mut palette = Vec::new();
    for (original_ids, sol) in shards {
        sol.assignment
            .for_each_normalized(&mut palette, |local, c| {
                colors[original_ids[local].index()] = c as usize;
            });
        // The merged strategy tag: winner of the first shard attaining the
        // merged span (strictly-greater update keeps the earliest).
        if strategy.is_none() || sol.num_colors > span {
            strategy = Some(sol.strategy);
        }
        span = span.max(sol.num_colors);
        // Each shard's lower bound is a bound on the whole chromatic
        // number (the union contains the shard as an induced subgraph).
        let shard_lower = sol
            .attempts
            .iter()
            .map(|a| a.lower_bound)
            .max()
            .unwrap_or(sol.load);
        best_lower = best_lower.max(shard_lower);
        all_optimal &= sol.optimal;
        reports.push(ShardOutcome {
            paths: original_ids.len(),
            class: sol.class,
            strategy: sol.strategy,
            num_colors: sol.num_colors,
            load: sol.load,
            optimal: sol.optimal,
            attempts: Arc::clone(&sol.attempts),
            members: original_ids,
        });
    }
    let mut attempts = Vec::with_capacity(reports.iter().map(|r| r.attempts.len()).sum());
    for r in &reports {
        attempts.extend_from_slice(&r.attempts);
    }
    debug_assert!(
        colors.iter().all(|&c| c != usize::MAX),
        "components partition the family"
    );
    let assignment = WavelengthAssignment::new(colors);
    // Shadow re-certification (debug builds only): audit the *merged*
    // assignment with the same independent oracle tests use, so a bad
    // merge (palette collision across shards, rank/id mix-up) dies here
    // with a certificate instead of surfacing as a wrong answer later.
    // `cfg!` keeps the block type-checked; release builds compile it out.
    if cfg!(debug_assertions) {
        let cert = crate::certify::certify_assignment(ctx.graph, ctx.family, &assignment);
        debug_assert!(
            cert.conflict_free,
            "merged assignment has an arc conflict: {cert:?}"
        );
        debug_assert_eq!(
            cert.colors_used, span,
            "merged span diverged from max shard span: {cert:?}"
        );
    }
    Solution {
        assignment,
        num_colors: span,
        // Every arc's users live in exactly one shard, so the whole-
        // instance load (already on the context) is the max shard load.
        load: ctx.load,
        // Max of per-shard optima is the optimum of the union.
        optimal: all_optimal || span == best_lower,
        class: ctx.class,
        strategy: strategy.expect("decomposed solve has at least one shard"), // lint: allow(no-panic): decomposition plans always contain at least one shard
        attempts: attempts.into(),
        decomposition: Some(Arc::new(Decomposition { shards: reports })),
        resolve: None,
    }
}

/// What [`SolveSession::solve_shards`] returns: one shared result per
/// distinct shard content, and each shard's index into them.
pub(crate) struct ShardSolves {
    solved: Vec<Result<Arc<Solution>, CoreError>>,
    group_of: Vec<usize>,
}

impl ShardSolves {
    /// Each shard's result, in shard order; identical shards share one.
    pub(crate) fn per_shard(&self) -> impl Iterator<Item = &Result<Arc<Solution>, CoreError>> {
        self.group_of.iter().map(|&d| &self.solved[d])
    }

    /// Sub-instances built and solved: one per distinct shard content.
    pub(crate) fn solves(&self) -> usize {
        self.solved.len()
    }
}

/// One stream instance with panic isolation: a panic anywhere inside
/// `solve` is caught and converted to [`CoreError::SolverPanic`] so one
/// poisoned instance cannot take down the rest of the stream.
fn solve_isolated(
    session: &SolveSession,
    g: &dagwave_graph::Digraph,
    family: &DipathFamily,
) -> Result<Solution, CoreError> {
    run_isolated(|| session.solve(g, family))
}

/// The catch_unwind-to-[`CoreError::SolverPanic`] conversion, factored out
/// so the panic path itself is unit-testable.
fn run_isolated(f: impl FnOnce() -> Result<Solution, CoreError>) -> Result<Solution, CoreError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
        // `.as_ref()`, not `&payload`: a `&Box<dyn Any>` would itself
        // unsize-coerce to `&dyn Any` and hide the real payload.
        .unwrap_or_else(|payload| Err(CoreError::SolverPanic(panic_message(payload.as_ref()))))
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Adapt a [`ConflictGraph`] to the coloring toolkit's [`UGraph`].
pub fn conflict_to_ugraph(cg: &ConflictGraph) -> UGraph {
    let adj: Vec<Vec<u32>> = (0..cg.vertex_count())
        .map(|i| cg.neighbors(PathId::from_index(i)).to_vec())
        .collect();
    UGraph::from_sorted_adjacency(adj)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagwave_graph::builder::from_edges;
    use dagwave_graph::{Digraph, VertexId};
    use dagwave_paths::Dipath;

    fn v(i: usize) -> VertexId {
        VertexId::from_index(i)
    }

    fn path(g: &Digraph, route: &[usize]) -> Dipath {
        let route: Vec<VertexId> = route.iter().map(|&i| v(i)).collect();
        Dipath::from_vertices(g, &route).unwrap()
    }

    fn general_instance() -> (Digraph, DipathFamily) {
        // Guarded diamond: internal cycle, not UPP.
        let g = from_edges(6, &[(0, 1), (1, 2), (2, 4), (1, 3), (3, 4), (4, 5)]);
        let f = DipathFamily::from_paths(vec![
            path(&g, &[0, 1, 2]),
            path(&g, &[1, 2, 4]),
            path(&g, &[1, 3, 4]),
            path(&g, &[3, 4, 5]),
        ]);
        (g, f)
    }

    #[test]
    fn dispatches_theorem1_on_tree() {
        let g = from_edges(4, &[(0, 1), (1, 2), (1, 3)]);
        let f = DipathFamily::from_paths(vec![
            path(&g, &[0, 1, 2]),
            path(&g, &[0, 1, 3]),
            path(&g, &[1, 2]),
        ]);
        let sol = SolveSession::auto().solve(&g, &f).unwrap();
        assert_eq!(sol.strategy, BackendKind::Theorem1);
        assert!(sol.optimal);
        assert_eq!(sol.num_colors, sol.load);
        assert!(sol.assignment.is_valid(&g, &f));
        assert_eq!(sol.attempts.len(), 1);
        assert_eq!(sol.attempts[0].backend, BackendKind::Theorem1);
        assert!(sol.attempts[0].valid);
        assert_eq!(sol.attempts[0].upper_bound, Some(sol.num_colors));
        assert_eq!(
            SolveSession::auto().guaranteed_bound(&g, &f),
            Some(sol.load)
        );
    }

    #[test]
    fn dispatches_theorem6_on_single_cycle_upp() {
        // Single-arc dipaths over the crossing pattern.
        let g = from_edges(
            8,
            &[
                (0, 2),
                (1, 3),
                (2, 4),
                (2, 5),
                (3, 4),
                (3, 5),
                (4, 6),
                (5, 7),
            ],
        );
        let f = DipathFamily::from_paths(vec![
            path(&g, &[0, 2, 4, 6]),
            path(&g, &[1, 3, 5, 7]),
            path(&g, &[2, 5]),
            path(&g, &[3, 4]),
        ]);
        let sol = SolveSession::auto().solve(&g, &f).unwrap();
        assert_eq!(sol.strategy, BackendKind::Theorem6);
        assert!(sol.assignment.is_valid(&g, &f));
        // Provenance: theorem6 met π, so it is the only attempt — no
        // weighted consult can beat a proven optimum.
        assert_eq!(sol.num_colors, sol.load);
        assert!(sol.optimal);
        assert_eq!(sol.attempts.len(), 1);
        assert_eq!(sol.attempts[0].backend, BackendKind::Theorem6);
        let bound = SolveSession::auto().guaranteed_bound(&g, &f).unwrap();
        assert!(sol.num_colors <= bound);
    }

    #[test]
    fn dispatches_exact_on_general_dag() {
        let (g, f) = general_instance();
        let sol = SolveSession::auto().solve(&g, &f).unwrap();
        assert_eq!(sol.strategy, BackendKind::Exact);
        assert!(sol.optimal);
        assert!(sol.assignment.is_valid(&g, &f));
        assert!(sol.num_colors >= sol.load);
        assert_eq!(SolveSession::auto().guaranteed_bound(&g, &f), None);
    }

    #[test]
    fn dsatur_fallback_on_large_conflict_graph() {
        let (g, f) = general_instance();
        let f = f.replicate(30); // 120 paths > exact_limit
        let sol = SolveSession::auto().solve(&g, &f).unwrap();
        assert_eq!(sol.strategy, BackendKind::Dsatur);
        assert!(sol.assignment.is_valid(&g, &f));
        assert!(sol.num_colors >= sol.load);
    }

    #[test]
    fn pinned_runs_exactly_that_backend() {
        let (g, f) = general_instance();
        for kind in [
            BackendKind::Dsatur,
            BackendKind::GreedyNatural,
            BackendKind::GreedyLargestFirst,
            BackendKind::GreedySmallestLast,
            BackendKind::KempeGreedy,
            BackendKind::Exact,
        ] {
            let sol = SolveSession::builder()
                .pinned(kind)
                .build()
                .solve(&g, &f)
                .unwrap();
            assert_eq!(sol.strategy, kind);
            assert!(sol.assignment.is_valid(&g, &f), "{kind}");
            assert_eq!(sol.attempts.len(), 1);
            assert!(sol.attempts[0].valid, "{kind}");
        }
    }

    #[test]
    fn pinned_unsupported_backend_errors() {
        let (g, f) = general_instance();
        let err = SolveSession::builder()
            .pinned(BackendKind::Theorem1)
            .build()
            .solve(&g, &f)
            .unwrap_err();
        match err {
            CoreError::BackendUnsupported { backend, reason } => {
                assert_eq!(backend, BackendKind::Theorem1);
                assert!(reason.contains("internal-cycle-free"), "{reason}");
            }
            other => panic!("expected BackendUnsupported, got {other:?}"),
        }
    }

    #[test]
    fn portfolio_keeps_fewest_colors_deterministically() {
        let (g, f) = general_instance();
        let session = SolveSession::builder()
            .portfolio(vec![
                BackendKind::GreedyNatural,
                BackendKind::Dsatur,
                BackendKind::KempeGreedy,
                BackendKind::Exact,
            ])
            .build();
        let sol = session.solve(&g, &f).unwrap();
        assert!(sol.assignment.is_valid(&g, &f));
        assert_eq!(sol.attempts.len(), 4);
        // The winner's color count is the minimum over every attempt.
        let min = sol
            .attempts
            .iter()
            .filter_map(|a| a.upper_bound)
            .min()
            .unwrap();
        assert_eq!(sol.num_colors, min);
        // Every member of this portfolio produced a certified coloring.
        assert!(sol.attempts.iter().all(|a| a.valid));
        // Deterministic: repeated runs pick the same winner & assignment.
        let again = session.solve(&g, &f).unwrap();
        assert_eq!(again.strategy, sol.strategy);
        assert_eq!(again.assignment.colors(), sol.assignment.colors());
    }

    #[test]
    fn empty_portfolio_races_all_applicable_backends() {
        let (g, f) = general_instance();
        let sol = SolveSession::builder()
            .portfolio(vec![])
            .build()
            .solve(&g, &f)
            .unwrap();
        assert!(sol.assignment.is_valid(&g, &f));
        // Theorem1/Theorem6/Weighted don't apply here; the six others do.
        assert_eq!(sol.attempts.len(), 6);
        assert!(
            sol.optimal,
            "exact is in the pool, so the result is optimal"
        );
    }

    #[test]
    fn portfolio_of_unsupported_members_reports_no_applicable_backend() {
        let (g, f) = general_instance();
        let err = SolveSession::builder()
            .portfolio(vec![BackendKind::Theorem1, BackendKind::Theorem6])
            .build()
            .solve(&g, &f)
            .unwrap_err();
        assert_eq!(err, CoreError::NoApplicableBackend);
    }

    #[test]
    fn rejects_cyclic_input() {
        let g = from_edges(2, &[(0, 1), (1, 0)]);
        let f = DipathFamily::new();
        assert!(matches!(
            SolveSession::auto().solve(&g, &f),
            Err(CoreError::NotADag(_))
        ));
    }

    #[test]
    fn empty_family_on_any_class() {
        let g = from_edges(4, &[(0, 1), (1, 2), (1, 3)]);
        let sol = SolveSession::auto()
            .solve(&g, &DipathFamily::new())
            .unwrap();
        assert_eq!(sol.num_colors, 0);
        assert_eq!(sol.load, 0);
        assert!(sol.optimal);
    }

    #[test]
    fn batch_solving_matches_individual() {
        let g1 = from_edges(4, &[(0, 1), (1, 2), (1, 3)]);
        let f1 = DipathFamily::from_paths(vec![path(&g1, &[0, 1, 2]), path(&g1, &[0, 1, 3])]);
        let g2 = from_edges(3, &[(0, 1), (1, 2)]);
        let f2 = DipathFamily::from_paths(vec![path(&g2, &[0, 1, 2])]).replicate(4);
        let session = SolveSession::auto();
        let batch: Vec<_> = session
            .solve_stream([
                Instance::new(g1.clone(), f1.clone()),
                Instance::new(g2.clone(), f2.clone()),
            ])
            .collect();
        assert_eq!(batch.len(), 2);
        let s1 = batch[0].as_ref().unwrap();
        let s2 = batch[1].as_ref().unwrap();
        assert_eq!(s1.num_colors, session.solve(&g1, &f1).unwrap().num_colors);
        assert_eq!(s2.num_colors, 4);
    }

    #[test]
    fn batch_isolates_panics_per_instance() {
        // A healthy instance passes through untouched...
        let g = from_edges(2, &[(0, 1)]);
        let f = DipathFamily::new();
        let session = SolveSession::auto();
        assert!(super::solve_isolated(&session, &g, &f).is_ok());
        // ...and an actually panicking solve is converted to SolverPanic
        // (the same run_isolated path solve_stream's tasks go through),
        // for both &str and String payloads.
        match super::run_isolated(|| panic!("poisoned instance")) {
            Err(CoreError::SolverPanic(msg)) => assert_eq!(msg, "poisoned instance"),
            other => panic!("expected SolverPanic, got {other:?}"),
        }
        match super::run_isolated(|| panic!("{} of {}", 3, 7)) {
            Err(CoreError::SolverPanic(msg)) => assert_eq!(msg, "3 of 7"),
            other => panic!("expected SolverPanic, got {other:?}"),
        }
        let payload: Box<dyn std::any::Any + Send> = Box::new(7usize);
        assert_eq!(
            super::panic_message(payload.as_ref()),
            "non-string panic payload"
        );
    }

    #[test]
    fn batch_output_order_matches_input_order() {
        // Many instances with distinct answers: the result vector must line
        // up index-for-index with the inputs however tasks were scheduled.
        let g = from_edges(3, &[(0, 1), (1, 2)]);
        let session = SolveSession::auto();
        let families: Vec<DipathFamily> = (1..=12)
            .map(|h| DipathFamily::from_paths(vec![path(&g, &[0, 1, 2])]).replicate(h))
            .collect();
        let batch: Vec<_> = session
            .solve_stream(families.iter().map(|f| Instance::new(g.clone(), f.clone())))
            .collect();
        assert_eq!(batch.len(), families.len());
        for (i, sol) in batch.iter().enumerate() {
            assert_eq!(sol.as_ref().unwrap().num_colors, i + 1, "instance {i}");
        }
    }

    #[test]
    fn batch_reports_errors_per_instance() {
        let good = from_edges(2, &[(0, 1)]);
        let bad = from_edges(2, &[(0, 1), (1, 0)]);
        let f = DipathFamily::new();
        let batch: Vec<_> = SolveSession::auto()
            .solve_stream([Instance::new(good, f.clone()), Instance::new(bad, f)])
            .collect();
        assert_eq!(batch.len(), 2);
        assert!(batch[0].is_ok());
        assert!(matches!(batch[1], Err(CoreError::NotADag(_))));
    }

    #[test]
    fn stream_matches_solve_and_is_windowed() {
        // 25 instances span several stream windows at any pool size here.
        let g = from_edges(3, &[(0, 1), (1, 2)]);
        let session = SolveSession::auto();
        let families: Vec<DipathFamily> = (1..=25)
            .map(|h| DipathFamily::from_paths(vec![path(&g, &[0, 1, 2])]).replicate(h))
            .collect();
        let solved: Vec<_> = families.iter().map(|f| session.solve(&g, f)).collect();
        let streamed: Vec<_> = session
            .solve_stream(families.iter().map(|f| Instance::new(g.clone(), f.clone())))
            .collect();
        assert_eq!(streamed.len(), solved.len());
        for (i, (s, b)) in streamed.iter().zip(&solved).enumerate() {
            let (s, b) = (s.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!(s.num_colors, b.num_colors, "instance {i}");
            assert_eq!(s.assignment.colors(), b.assignment.colors());
        }
    }

    #[test]
    fn stream_is_lazy() {
        // The source iterator must not be exhausted up-front: pulling one
        // result consumes at most one window.
        let g = from_edges(3, &[(0, 1), (1, 2)]);
        let session = SolveSession::auto();
        let pulled = std::cell::Cell::new(0usize);
        let source = (0..1_000_000).map(|_| {
            pulled.set(pulled.get() + 1);
            Instance::new(
                g.clone(),
                DipathFamily::from_paths(vec![path(&g, &[0, 1, 2])]),
            )
        });
        let mut stream = session.solve_stream(source);
        assert!(stream.next().unwrap().is_ok());
        let window = rayon::current_num_threads().max(1) * 4;
        assert!(
            pulled.get() <= window,
            "pulled {} instances for one result (window {window})",
            pulled.get()
        );
    }

    /// Three conflict components: the guarded diamond family splits in two
    /// ({p0,p1} and {p2,p3} share no arc) and a disjoint chain part adds a
    /// third. Every shard's restricted graph is internal-cycle-free even
    /// though the whole DAG is general — the reclassification win the
    /// decompose stage exists for.
    fn three_component_instance() -> (Digraph, DipathFamily) {
        let (d, df) = general_instance(); // vertices 0..6, arcs 0..6
        let mut g = d.clone();
        // Second part: disjoint chain 6→7→8 with three overlapping paths.
        let v6 = g.add_vertex();
        let v7 = g.add_vertex();
        let v8 = g.add_vertex();
        let a67 = g.add_arc(v6, v7);
        let a78 = g.add_arc(v7, v8);
        let mut paths: Vec<Dipath> = df.iter().map(|(_, p)| p.clone()).collect();
        paths.push(Dipath::from_arcs(&g, vec![a67, a78]).unwrap());
        paths.push(Dipath::from_arcs(&g, vec![a67]).unwrap());
        paths.push(Dipath::from_arcs(&g, vec![a78]).unwrap());
        (g, DipathFamily::from_paths(paths))
    }

    #[test]
    fn decomposed_solve_merges_with_shared_palette() {
        let (g, f) = three_component_instance();
        let session = SolveSession::builder()
            .decompose(crate::DecomposePolicy::Always)
            .build();
        let sol = session.solve(&g, &f).unwrap();
        assert!(sol.assignment.is_valid(&g, &f));
        let d = sol.decomposition.as_ref().expect("decomposed solve");
        assert_eq!(d.shard_count(), 3);
        // Merged span = max over shards (shared palette).
        let max_shard = d.shards.iter().map(|s| s.num_colors).max().unwrap();
        assert_eq!(sol.num_colors, max_shard);
        assert_eq!(sol.num_colors, sol.assignment.num_colors());
        // Every shard's restricted graph drops the arcs that made the
        // whole DAG general: all three reclassify as internal-cycle-free
        // and solve via Theorem 1, so the merged solve is provably optimal.
        assert_eq!(d.class_histogram(), vec![(DagClass::InternalCycleFree, 3)]);
        assert!(d
            .shards
            .iter()
            .all(|s| s.strategy == BackendKind::Theorem1 && s.optimal));
        assert!(sol.optimal);
        // Whole-instance stats survive the merge.
        assert_eq!(sol.load, dagwave_paths::load::max_load(&g, &f));
        assert_eq!(sol.class, crate::internal::classify(&g));
        // Flattened provenance matches the per-shard records.
        let flat: usize = d.shards.iter().map(|s| s.attempts.len()).sum();
        assert_eq!(sol.attempts.len(), flat);
        assert_eq!(d.largest_shard(), 3);
    }

    #[test]
    fn decomposed_never_worse_than_monolithic_auto() {
        let (g, f) = three_component_instance();
        let mono = SolveSession::builder()
            .decompose(crate::DecomposePolicy::Off)
            .build()
            .solve(&g, &f)
            .unwrap();
        assert!(mono.decomposition.is_none());
        let dec = SolveSession::builder()
            .decompose(crate::DecomposePolicy::Always)
            .build()
            .solve(&g, &f)
            .unwrap();
        assert!(dec.num_colors <= mono.num_colors);
    }

    #[test]
    fn decomposition_composes_with_pinned_and_portfolio() {
        let (g, f) = three_component_instance();
        for policy in [
            Policy::Pinned(BackendKind::Dsatur),
            Policy::Portfolio(vec![BackendKind::Dsatur, BackendKind::KempeGreedy]),
        ] {
            let sol = SolveSession::builder()
                .policy(policy)
                .decompose(crate::DecomposePolicy::Always)
                .build()
                .solve(&g, &f)
                .unwrap();
            assert!(sol.assignment.is_valid(&g, &f));
            assert_eq!(sol.decomposition.unwrap().shard_count(), 3);
        }
    }

    #[test]
    fn auto_decompose_respects_threshold_and_split() {
        let (g, f) = three_component_instance();
        // Above the threshold and split: decomposes.
        let on = SolveSession::builder()
            .decompose(crate::DecomposePolicy::Auto { min_paths: 2 })
            .build()
            .solve(&g, &f)
            .unwrap();
        assert!(on.decomposition.is_some());
        // Threshold above the family size: monolithic.
        let off = SolveSession::builder()
            .decompose(crate::DecomposePolicy::Auto { min_paths: 100 })
            .build()
            .solve(&g, &f)
            .unwrap();
        assert!(off.decomposition.is_none());
        // Single-component instance: Auto stays monolithic at any size.
        let g1 = from_edges(4, &[(0, 1), (1, 2), (1, 3)]);
        let f1 = DipathFamily::from_paths(vec![
            path(&g1, &[0, 1, 2]),
            path(&g1, &[0, 1, 3]),
            path(&g1, &[1, 2]),
        ]);
        let single = SolveSession::builder()
            .decompose(crate::DecomposePolicy::Auto { min_paths: 1 })
            .build()
            .solve(&g1, &f1)
            .unwrap();
        assert!(single.decomposition.is_none());
        // ...but Always shards even a single component.
        let forced = SolveSession::builder()
            .decompose(crate::DecomposePolicy::Always)
            .build()
            .solve(&g1, &f1)
            .unwrap();
        assert_eq!(forced.decomposition.unwrap().shard_count(), 1);
        assert_eq!(forced.num_colors, single.num_colors);
    }

    #[test]
    fn auto_decompose_skips_the_theorem1_fast_path() {
        // Two disjoint chains: multi-component but internal-cycle-free, so
        // the monolithic Auto solve is already optimal.
        let g = from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]);
        let f = DipathFamily::from_paths(vec![
            path(&g, &[0, 1, 2]),
            path(&g, &[1, 2]),
            path(&g, &[3, 4, 5]),
            path(&g, &[4, 5]),
        ]);
        // Auto backend policy: stays monolithic despite the split.
        let auto = SolveSession::builder()
            .decompose(crate::DecomposePolicy::Auto { min_paths: 1 })
            .build()
            .solve(&g, &f)
            .unwrap();
        assert!(auto.decomposition.is_none());
        assert_eq!(auto.strategy, BackendKind::Theorem1);
        // A pinned heuristic backend still shards (smaller graphs help it).
        let pinned = SolveSession::builder()
            .pinned(BackendKind::Dsatur)
            .decompose(crate::DecomposePolicy::Auto { min_paths: 1 })
            .build()
            .solve(&g, &f)
            .unwrap();
        assert_eq!(pinned.decomposition.unwrap().shard_count(), 2);
        // And Always overrides the fast-path skip.
        let always = SolveSession::builder()
            .decompose(crate::DecomposePolicy::Always)
            .build()
            .solve(&g, &f)
            .unwrap();
        assert_eq!(always.decomposition.unwrap().shard_count(), 2);
        assert_eq!(always.num_colors, auto.num_colors, "both hit π");
    }

    #[test]
    fn decomposed_solve_rejects_cyclic_input_like_monolithic() {
        let g = from_edges(2, &[(0, 1), (1, 0)]);
        let f = DipathFamily::from_paths(vec![Dipath::single(g.find_arc(v(0), v(1)).unwrap())]);
        let err = SolveSession::builder()
            .decompose(crate::DecomposePolicy::Always)
            .build()
            .solve(&g, &f)
            .unwrap_err();
        assert!(matches!(err, CoreError::NotADag(_)));
    }

    #[test]
    fn decomposed_empty_family_falls_back_to_monolithic() {
        let g = from_edges(3, &[(0, 1), (1, 2)]);
        let sol = SolveSession::builder()
            .decompose(crate::DecomposePolicy::Always)
            .build()
            .solve(&g, &DipathFamily::new())
            .unwrap();
        assert_eq!(sol.num_colors, 0);
        assert!(sol.decomposition.is_none());
    }

    #[test]
    fn decomposition_flows_through_stream() {
        let (g, f) = three_component_instance();
        let session = SolveSession::builder()
            .decompose(crate::DecomposePolicy::Always)
            .build();
        let single = session.solve(&g, &f).unwrap();
        let streamed: Vec<_> = session
            .solve_stream([
                Instance::new(g.clone(), f.clone()),
                Instance::new(g.clone(), f.clone()),
            ])
            .collect();
        assert_eq!(streamed.len(), 2);
        for sol in &streamed {
            let sol = sol.as_ref().unwrap();
            assert_eq!(sol.num_colors, single.num_colors);
            assert_eq!(sol.assignment.colors(), single.assignment.colors());
            assert_eq!(
                sol.decomposition.as_ref().unwrap().shard_count(),
                single.decomposition.as_ref().unwrap().shard_count()
            );
        }
    }

    #[test]
    fn conflict_to_ugraph_preserves_structure() {
        let g = from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let f = DipathFamily::from_paths(vec![
            path(&g, &[0, 1, 2]),
            path(&g, &[1, 2, 3]),
            path(&g, &[2, 3]),
        ]);
        let cg = ConflictGraph::build(&g, &f);
        let ug = conflict_to_ugraph(&cg);
        assert_eq!(ug.vertex_count(), 3);
        assert_eq!(ug.edge_count(), cg.edge_count());
        assert!(ug.has_edge(0, 1));
    }
}
