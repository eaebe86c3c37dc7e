//! The end-to-end Routing-and-Wavelength-Assignment pipeline.
//!
//! The paper's introduction describes the standard decomposition: solve the
//! routing problem (minimize load), then the wavelength assignment on the
//! resulting dipaths. [`RwaPipeline`] wires `dagwave-route` routing into the
//! `dagwave-core` solver and reports both halves.

use crate::request::Request;
use crate::routing::{route_all, RouteError, RoutingStrategy};
use dagwave_core::{CoreError, Solution, SolveSession, Workspace};
use dagwave_graph::Digraph;
use dagwave_paths::{DipathFamily, PathId};
use std::sync::Arc;

/// Errors from the pipeline.
#[derive(Debug)]
#[non_exhaustive]
pub enum RwaError {
    /// A request could not be routed.
    Routing(RouteError),
    /// The coloring stage failed.
    Coloring(CoreError),
    /// Admission was rejected: the routed lightpath would push some arc's
    /// load — and therefore the span of the shard containing it, since
    /// `π ≤ w` — past the configured budget
    /// (see [`RwaWorkspace::set_span_budget`]). The workspace is unchanged.
    SpanBudgetExceeded {
        /// The configured ceiling.
        budget: usize,
        /// The load the most congested arc on the rejected route would
        /// have reached — the certified lower bound on the post-admit
        /// shard span.
        projected: usize,
    },
}

impl std::fmt::Display for RwaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RwaError::Routing(e) => write!(f, "routing: {e}"),
            RwaError::Coloring(e) => write!(f, "coloring: {e}"),
            RwaError::SpanBudgetExceeded { budget, projected } => write!(
                f,
                "admission rejected: projected span {projected} exceeds budget {budget}"
            ),
        }
    }
}

impl std::error::Error for RwaError {}

impl From<RouteError> for RwaError {
    fn from(e: RouteError) -> Self {
        RwaError::Routing(e)
    }
}

impl From<CoreError> for RwaError {
    fn from(e: CoreError) -> Self {
        RwaError::Coloring(e)
    }
}

/// Full report of an RWA run.
#[derive(Debug)]
pub struct RwaReport {
    /// The routed dipaths, in request order.
    pub family: DipathFamily,
    /// The wavelength solution on those dipaths.
    pub solution: Solution,
}

/// Route-then-color pipeline.
#[derive(Clone, Debug, Default)]
pub struct RwaPipeline {
    /// Routing strategy for the first stage.
    pub routing: RoutingStrategy,
    /// Solving session for the second stage (policy + budgets +
    /// decomposition; see `dagwave_core::SolverBuilder` for
    /// portfolio/pinned/sharded configurations).
    pub solver: SolveSession,
}

impl RwaPipeline {
    /// Pipeline with the given routing strategy and a default auto-policy
    /// session.
    pub fn new(routing: RoutingStrategy) -> Self {
        RwaPipeline {
            routing,
            solver: SolveSession::auto(),
        }
    }

    /// Pipeline with an explicit solving session — the hook for portfolio,
    /// pinned-backend, or decompose-solve-merge configurations. Requests
    /// for disjoint regions of the network route into arc-disjoint dipaths,
    /// which a sharding session then colors as independent components (the
    /// per-shard classes and winners land in
    /// `dagwave_core::Solution::decomposition`).
    pub fn with_session(routing: RoutingStrategy, solver: SolveSession) -> Self {
        RwaPipeline { routing, solver }
    }

    /// Satisfy the requests: route, then assign wavelengths.
    pub fn run(&self, g: &Digraph, requests: &[Request]) -> Result<RwaReport, RwaError> {
        let family = route_all(g, requests, self.routing)?;
        let solution = self.solver.solve(g, &family)?;
        Ok(RwaReport { family, solution })
    }

    /// Open a persistent, incrementally re-solvable workspace over the
    /// routed requests: the running pipeline can then
    /// [`admit`](RwaWorkspace::admit) and [`retire`](RwaWorkspace::retire)
    /// lightpaths without a full re-solve — only the conflict components a
    /// mutation touches are recolored
    /// (see [`dagwave_core::workspace::Workspace`]).
    pub fn workspace(&self, g: &Digraph, requests: &[Request]) -> Result<RwaWorkspace, RwaError> {
        let family = route_all(g, requests, self.routing)?;
        let workspace =
            Workspace::new(self.solver.clone(), g.clone(), family).map_err(RwaError::Coloring)?;
        Ok(RwaWorkspace {
            routing: self.routing,
            workspace,
            span_budget: None,
        })
    }
}

/// A long-lived RWA session: routed lightpaths come and go, and the
/// wavelength assignment is incrementally re-solved after each change.
///
/// Produced by [`RwaPipeline::workspace`]. Each admitted request is routed
/// *individually* under the pipeline's [`RoutingStrategy`] (admission-order
/// routing — unlike the batch [`RwaPipeline::run`], a load-aware strategy
/// only sees the requests admitted so far), then added to the underlying
/// [`Workspace`], which recolors only the shards the new lightpath touches.
#[derive(Clone, Debug)]
pub struct RwaWorkspace {
    routing: RoutingStrategy,
    workspace: Workspace,
    /// Admission-control ceiling on the projected post-admit load (and
    /// hence shard span); `None` = unlimited.
    span_budget: Option<usize>,
}

impl RwaWorkspace {
    /// Configure admission control: with `Some(budget)`, an
    /// [`admit`](RwaWorkspace::admit) whose routed lightpath would raise
    /// any arc's load above `budget` is rejected with
    /// [`RwaError::SpanBudgetExceeded`] before the workspace is touched.
    ///
    /// The check is against the *load* projection: the post-admit load is
    /// the certified lower bound on the span of the shard the lightpath
    /// lands in (`π ≤ w` always, and `w = π` on every internal-cycle-free
    /// shard), so a rejection is never spurious about the bound it quotes.
    /// Defaults to `None` — unlimited, every valid admission accepted.
    pub fn set_span_budget(&mut self, budget: Option<usize>) {
        self.span_budget = budget;
    }

    /// The configured admission ceiling (`None` = unlimited).
    pub fn span_budget(&self) -> Option<usize> {
        self.span_budget
    }

    /// Route one new request and admit its lightpath. Returns the stable
    /// [`PathId`] to later [`retire`](RwaWorkspace::retire) it by.
    ///
    /// With a [span budget](RwaWorkspace::set_span_budget) configured, the
    /// admission is rejected — typed, workspace untouched — when the routed
    /// lightpath's most congested arc would exceed it.
    pub fn admit(&mut self, request: Request) -> Result<PathId, RwaError> {
        let routed = route_all(self.workspace.graph(), &[request], self.routing)?;
        let path = routed
            .iter()
            .next()
            .map(|(_, p)| p.clone())
            .expect("one request routes to one dipath"); // lint: allow(no-panic): routing one request yields exactly one family entry
        if let Some(budget) = self.span_budget {
            let projected = path
                .arcs()
                .iter()
                .map(|&a| self.workspace.arc_load(a) + 1)
                .max()
                .unwrap_or(0);
            if projected > budget {
                return Err(RwaError::SpanBudgetExceeded { budget, projected });
            }
        }
        self.workspace.add_path(path).map_err(RwaError::Coloring)
    }

    /// Retire a previously admitted (or initially routed) lightpath.
    pub fn retire(&mut self, id: PathId) -> Result<(), RwaError> {
        self.workspace.remove_path(id).map_err(RwaError::Coloring)
    }

    /// The current wavelength solution, re-solving only what changed since
    /// the last call ([`dagwave_core::Solution::resolve`] records the
    /// reused/recomputed shard split). Returns a shared snapshot — repeated
    /// calls without intervening mutations are refcount bumps.
    pub fn solution(&mut self) -> Result<Arc<Solution>, RwaError> {
        self.workspace.solution().map_err(RwaError::Coloring)
    }

    /// The underlying incremental solving workspace (graph, live family,
    /// component partition).
    pub fn inner(&self) -> &Workspace {
        &self.workspace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request;
    use dagwave_core::BackendKind;
    use dagwave_graph::builder::from_edges;
    use dagwave_graph::VertexId;

    fn v(i: usize) -> VertexId {
        VertexId::from_index(i)
    }

    #[test]
    fn multicast_on_tree_is_optimal() {
        // Rooted tree + multicast: the paper's always-equal case.
        let g = from_edges(7, &[(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)]);
        let reqs = request::multicast(&g, v(0));
        let report = RwaPipeline::new(RoutingStrategy::Shortest)
            .run(&g, &reqs)
            .unwrap();
        assert_eq!(report.solution.strategy, BackendKind::Theorem1);
        assert!(report.solution.optimal);
        assert_eq!(report.solution.num_colors, report.solution.load);
        assert!(report.solution.assignment.is_valid(&g, &report.family));
    }

    #[test]
    fn all_to_all_on_out_tree() {
        let g = from_edges(5, &[(0, 1), (0, 2), (2, 3), (2, 4)]);
        let reqs = request::all_to_all(&g);
        let report = RwaPipeline::new(RoutingStrategy::Shortest)
            .run(&g, &reqs)
            .unwrap();
        assert!(report.solution.optimal);
        assert_eq!(report.solution.num_colors, report.solution.load, "w = π");
    }

    #[test]
    fn load_aware_pipeline_beats_shortest_on_parallel_routes() {
        let g = from_edges(4, &[(0, 1), (1, 3), (0, 2), (2, 3)]);
        let reqs = vec![Request::new(v(0), v(3)); 4];
        let short = RwaPipeline::new(RoutingStrategy::Shortest)
            .run(&g, &reqs)
            .unwrap();
        let aware = RwaPipeline::new(RoutingStrategy::LoadAware)
            .run(&g, &reqs)
            .unwrap();
        assert!(aware.solution.num_colors < short.solution.num_colors);
        assert_eq!(aware.solution.num_colors, 2);
    }

    #[test]
    fn sharded_pipeline_decomposes_disjoint_regions() {
        use dagwave_core::{DecomposePolicy, SolverBuilder};
        // Two disjoint rooted trees in one network: requests in each region
        // route into arc-disjoint dipaths, i.e. two conflict components.
        let g = from_edges(8, &[(0, 1), (0, 2), (1, 3), (4, 5), (4, 6), (5, 7)]);
        let mut reqs = request::multicast(&g, v(0));
        reqs.extend(request::multicast(&g, v(4)));
        let pipeline = RwaPipeline::with_session(
            RoutingStrategy::Shortest,
            SolverBuilder::new()
                .decompose(DecomposePolicy::Always)
                .build(),
        );
        let report = pipeline.run(&g, &reqs).unwrap();
        assert!(report.solution.assignment.is_valid(&g, &report.family));
        let d = report.solution.decomposition.as_ref().expect("sharded");
        // Per region: {0→1, 0→3} share the first arc, {0→2} is isolated —
        // two components each, four overall.
        assert_eq!(d.shard_count(), 4);
        assert_eq!(d.largest_shard(), 2);
        assert!(report.solution.optimal, "both shards are trees");
        // Same span as the monolithic pipeline — decomposition only splits.
        let mono = RwaPipeline::new(RoutingStrategy::Shortest)
            .run(&g, &reqs)
            .unwrap();
        assert_eq!(report.solution.num_colors, mono.solution.num_colors);
        assert!(mono.solution.decomposition.is_none());
    }

    #[test]
    fn workspace_admits_and_retires_without_full_resolve() {
        use dagwave_core::{DecomposePolicy, SolverBuilder};
        // Two disjoint rooted trees, as in the sharded-pipeline test.
        let g = from_edges(8, &[(0, 1), (0, 2), (1, 3), (4, 5), (4, 6), (5, 7)]);
        let mut reqs = request::multicast(&g, v(0));
        reqs.extend(request::multicast(&g, v(4)));
        let pipeline = RwaPipeline::with_session(
            RoutingStrategy::Shortest,
            SolverBuilder::new()
                .decompose(DecomposePolicy::Always)
                .build(),
        );
        let mut ws = pipeline.workspace(&g, &reqs).unwrap();
        let initial = ws.solution().unwrap();
        let shard_count = initial.decomposition.as_ref().unwrap().shard_count();
        assert_eq!(shard_count, 4);

        // Admit one more request in the second region: only the shards it
        // touches recolor, everything else is served from cache.
        let id = ws.admit(Request::new(v(4), v(7))).unwrap();
        let after = ws.solution().unwrap();
        let resolve = after.resolve.unwrap();
        assert!(resolve.shards_reused > 0, "{resolve:?}");
        assert!(resolve.shards_resolved >= 1, "{resolve:?}");
        // The incremental solution matches a from-scratch pipeline run on
        // the same requests.
        let mut all = reqs.clone();
        all.push(Request::new(v(4), v(7)));
        let scratch = pipeline.run(&g, &all).unwrap();
        assert_eq!(after.num_colors, scratch.solution.num_colors);
        // The admitted lightpath has a wavelength in the merged palette.
        let dense = ws.inner().dense_index_of(id).unwrap();
        assert!(after.assignment.colors()[dense] < after.num_colors);

        // Retire it again: back to the original span.
        ws.retire(id).unwrap();
        let back = ws.solution().unwrap();
        assert_eq!(back.num_colors, initial.num_colors);
        assert_eq!(back.assignment.colors(), initial.assignment.colors());
    }

    #[test]
    fn span_budget_rejects_over_budget_admissions() {
        // One arc, so every lightpath stacks on it: loads are predictable.
        let g = from_edges(2, &[(0, 1)]);
        let pipeline = RwaPipeline::default();
        let mut ws = pipeline
            .workspace(&g, &[Request::new(v(0), v(1)), Request::new(v(0), v(1))])
            .unwrap();
        assert_eq!(ws.span_budget(), None, "default is unlimited");
        ws.set_span_budget(Some(3));
        // Load 2 → 3: exactly at the budget, accepted.
        let id = ws.admit(Request::new(v(0), v(1))).unwrap();
        // Load 3 → 4: over budget, typed rejection, workspace untouched.
        let before = ws.inner().family().len();
        let err = ws.admit(Request::new(v(0), v(1))).unwrap_err();
        match err {
            RwaError::SpanBudgetExceeded { budget, projected } => {
                assert_eq!(budget, 3);
                assert_eq!(projected, 4);
            }
            other => panic!("expected SpanBudgetExceeded, got {other:?}"),
        }
        assert_eq!(ws.inner().family().len(), before);
        assert!(ws
            .admit(Request::new(v(0), v(1)))
            .unwrap_err()
            .to_string()
            .contains("budget 3"));
        // Retiring frees the headroom again.
        ws.retire(id).unwrap();
        ws.admit(Request::new(v(0), v(1))).unwrap();
        assert_eq!(ws.solution().unwrap().num_colors, 3);
        // Lifting the budget admits freely.
        ws.set_span_budget(None);
        ws.admit(Request::new(v(0), v(1))).unwrap();
        assert_eq!(ws.solution().unwrap().num_colors, 4);
    }

    #[test]
    fn workspace_surfaces_routing_failures_on_admit() {
        let g = from_edges(2, &[(0, 1)]);
        let pipeline = RwaPipeline::default();
        let mut ws = pipeline.workspace(&g, &[Request::new(v(0), v(1))]).unwrap();
        let err = ws.admit(Request::new(v(1), v(0))).unwrap_err();
        assert!(matches!(err, RwaError::Routing(_)));
    }

    #[test]
    fn routing_failure_surfaces() {
        let g = from_edges(2, &[(0, 1)]);
        let err = RwaPipeline::default()
            .run(&g, &[Request::new(v(1), v(0))])
            .unwrap_err();
        assert!(matches!(err, RwaError::Routing(_)));
        assert!(err.to_string().contains("routing"));
    }
}
