//! The single-writer tenant actor: one [`Workspace`], its counters and a
//! command queue, drained inline on the reactor thread.
//!
//! The `Workspace` is single-writer by design (every mutation rewrites
//! shard caches in place), so the service never shares it behind a lock.
//! Instead each tenant is an **actor**: the reactor owns it outright,
//! queues the commands its connections send during one poll round, then
//! drains the queue on the same thread. Each command carries a tag the
//! reactor picks (the connection and request kind), and each reply goes
//! back through a callback under that tag. Ordering within one connection
//! is the order it sends (the reactor takes one frame per connection per
//! round); across connections, the queue order.
//!
//! # Coalescing
//!
//! When several connections send mutations in the same round, the drain
//! takes every run of queued mutation batches (up to a configurable cap)
//! and applies it as **one** `Workspace::apply` call. Id assignment is
//! deterministic (smallest free slot, in op order), so a coalesced apply
//! assigns exactly the ids a sequential application would — coalescing is
//! invisible to clients except in the [`ActorStats::applies`] counter
//! staying below [`ActorStats::batches`]. Queries and stats are never
//! reordered past the point they were queued: the first non-mutation
//! command ends the run and is served right after the combined apply.
//!
//! # Admission control
//!
//! With a span budget configured, each client batch is checked against the
//! projected per-arc load (current load + deltas of batches already
//! accepted in this drain + the batch's own preceding ops) and rejected
//! with [`ServeError::SpanBudgetExceeded`] before anything is applied.
//! The projection keeps deltas only for the arcs the drain's batches
//! touch, so a check costs the batch's own arcs, not the host's.
//! A `Remove` is credited back only when it names a live dipath that no
//! earlier op of the drain removed: once a removal frees a slot, a later
//! `Add` of the drain may take its id, and the family does not show that
//! dipath's arcs yet. Skipping every other `Remove` keeps the projection
//! conservative (too high, never too low). Rejected batches contribute
//! neither deltas nor removed ids. When the combined apply fails and the
//! batches apply one at a time, each is checked again against the live
//! loads first, so no batch applies on the credit of a batch that failed.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use dagwave_core::{
    CoreError, Epoch, Mutation, Solution, SolutionDelta, Workspace, WorkspaceStats,
};
use dagwave_graph::ArcId;
use dagwave_paths::{Dipath, PathId};

use crate::server::ServerConfig;

/// One mutation as the service expresses it: arc-id sequences in, stable
/// path ids out. The actor owns the graph, so it (not the connection
/// code) materializes [`Dipath`]s.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ActorOp {
    /// Admit the dipath with this arc sequence.
    Add(Vec<ArcId>),
    /// Retire this live stable id.
    Remove(PathId),
}

/// Service-layer failures surfaced to clients.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServeError {
    /// The solver/workspace rejected the request.
    Core(CoreError),
    /// Admission control rejected a mutation batch: applying it would
    /// raise some arc's load past the configured budget. Nothing was
    /// applied.
    SpanBudgetExceeded {
        /// The configured ceiling.
        budget: usize,
        /// The projected post-batch maximum load.
        projected: usize,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Core(e) => write!(f, "{e}"),
            ServeError::SpanBudgetExceeded { budget, projected } => write!(
                f,
                "admission rejected: projected span {projected} exceeds budget {budget}"
            ),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<CoreError> for ServeError {
    fn from(e: CoreError) -> Self {
        ServeError::Core(e)
    }
}

/// Cumulative service-side counters for one tenant actor.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ActorStats {
    /// Client mutation batches accepted (admission passed, apply
    /// succeeded).
    pub batches: u64,
    /// `Workspace::apply` calls those batches were coalesced into.
    /// `batches / applies` is the coalescing ratio; above 1 means queued
    /// batches shared recomputations.
    pub applies: u64,
    /// Solution queries served.
    pub queries: u64,
    /// Delta queries served.
    pub delta_queries: u64,
}

/// An immutable view of one solved state: the solution plus the stable id
/// of each dipath, aligned with the assignment's dense ranks
/// (`solution.assignment.colors()[i]` is the wavelength of `ids[i]`).
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// The solved state.
    pub solution: Arc<Solution>,
    /// Stable path id per dense rank at snapshot time.
    pub ids: Arc<Vec<PathId>>,
}

/// The actor's answer to one command; the variant mirrors the command
/// kind so the reactor can shape replies without a typed callback per
/// request.
pub(crate) enum ActorReply {
    /// Answer to [`Command::Apply`].
    Applied(Result<Vec<PathId>, ServeError>),
    /// Answer to [`Read::Query`].
    Snapshot(Result<Snapshot, ServeError>),
    /// Answer to [`Read::QueryDelta`].
    Delta(Result<SolutionDelta, ServeError>),
    /// Answer to [`Read::Stats`].
    Stats(Box<(WorkspaceStats, ActorStats)>),
}

/// One request queued for a tenant.
pub(crate) enum Command {
    /// Apply one client mutation batch.
    Apply { ops: Vec<ActorOp> },
    /// Answer from the current state without mutating it.
    Read(Read),
}

/// A request that only reads a tenant's state.
pub(crate) enum Read {
    Query,
    QueryDelta { since: u64 },
    Stats,
}

/// One tenant: its workspace, counters and cached snapshot, and the
/// commands queued since its last drain, each under the tag its reply
/// goes back with.
pub(crate) struct Tenant<T> {
    ws: Workspace,
    stats: ActorStats,
    /// The last `Query` answer, kept until a mutation applies.
    snapshot: Option<Snapshot>,
    queue: VecDeque<(T, Command)>,
}

impl<T> Tenant<T> {
    pub(crate) fn new(ws: Workspace) -> Self {
        Tenant {
            ws,
            stats: ActorStats::default(),
            snapshot: None,
            queue: VecDeque::new(),
        }
    }

    /// Queue `cmd` for the next drain. Returns whether the queue was
    /// empty before, i.e. whether the tenant just became due for a drain.
    pub(crate) fn push(&mut self, tag: T, cmd: Command) -> bool {
        let idle = self.queue.is_empty();
        self.queue.push_back((tag, cmd));
        idle
    }

    /// Serve every queued command in queue order, handing each reply to
    /// `reply` under its command's tag. A run of queued `Apply` commands,
    /// up to `cfg.max_coalesce`, is admitted batch by batch and applied
    /// with one `Workspace::apply`; the read that ends the run is served
    /// right after.
    pub(crate) fn drain(&mut self, cfg: &ServerConfig, reply: &mut impl FnMut(T, ActorReply)) {
        while let Some((tag, cmd)) = self.queue.pop_front() {
            let ops = match cmd {
                Command::Apply { ops } => ops,
                Command::Read(read) => {
                    serve_read(
                        &mut self.ws,
                        tag,
                        read,
                        &mut self.stats,
                        &mut self.snapshot,
                        reply,
                    );
                    continue;
                }
            };
            let mut pending = vec![PendingBatch { ops, tag }];
            while pending.len() < cfg.max_coalesce.max(1) {
                match self.queue.pop_front() {
                    Some((tag, Command::Apply { ops })) => pending.push(PendingBatch { ops, tag }),
                    Some(read) => {
                        self.queue.push_front(read);
                        break;
                    }
                    None => break,
                }
            }
            if handle_mutations(
                &mut self.ws,
                cfg.span_budget,
                pending,
                &mut self.stats,
                reply,
            ) {
                self.snapshot = None;
            }
        }
    }
}

struct PendingBatch<T> {
    ops: Vec<ActorOp>,
    tag: T,
}

/// Admit or reject each drained batch, then apply the admitted ones in
/// one combined `Workspace::apply`. Returns whether the workspace mutated.
fn handle_mutations<T>(
    ws: &mut Workspace,
    span_budget: Option<usize>,
    pending: Vec<PendingBatch<T>>,
    stats: &mut ActorStats,
    reply: &mut impl FnMut(T, ActorReply),
) -> bool {
    // What the batches accepted so far in this drain do to the loads.
    let mut projection = Projection::default();
    let mut accepted: Vec<PendingBatch<T>> = Vec::new();
    for batch in pending {
        match admission_check(ws, span_budget, &batch.ops, &mut projection) {
            Ok(()) => accepted.push(batch),
            Err(e) => reply(batch.tag, ActorReply::Applied(Err(e))),
        }
    }
    apply_admitted(ws, span_budget, accepted, stats, reply)
}

/// Answer a read from the current state.
fn serve_read<T>(
    ws: &mut Workspace,
    tag: T,
    read: Read,
    stats: &mut ActorStats,
    snapshot: &mut Option<Snapshot>,
    reply: &mut impl FnMut(T, ActorReply),
) {
    match read {
        Read::Query => {
            stats.queries += 1;
            let snap = match snapshot {
                Some(snap) => Ok(snap.clone()),
                None => ws
                    .solution()
                    .map(|solution| {
                        // `solution` is already a shared snapshot — a
                        // repeat query bumps refcounts, nothing more.
                        let snap = Snapshot {
                            solution,
                            ids: Arc::new(ws.family().dense_ids().to_vec()),
                        };
                        *snapshot = Some(snap.clone());
                        snap
                    })
                    .map_err(ServeError::Core),
            };
            reply(tag, ActorReply::Snapshot(snap));
        }
        Read::QueryDelta { since } => {
            stats.delta_queries += 1;
            let delta = ws.delta_since(Epoch(since)).map_err(ServeError::Core);
            reply(tag, ActorReply::Delta(delta));
        }
        Read::Stats => {
            reply(tag, ActorReply::Stats(Box::new((ws.stats(), *stats))));
        }
    }
}

/// Apply admission-passed batches in a single `Workspace::apply` and
/// answer every batch. Returns whether the workspace mutated.
fn apply_admitted<T>(
    ws: &mut Workspace,
    span_budget: Option<usize>,
    mut accepted: Vec<PendingBatch<T>>,
    stats: &mut ActorStats,
    reply: &mut impl FnMut(T, ActorReply),
) -> bool {
    if accepted.is_empty() {
        return false;
    }

    // One combined apply; split the returned ids by each batch's Add
    // count. Smallest-free-slot id assignment makes the combined ids
    // identical to what sequential per-batch applies would assign.
    let combined: Vec<Mutation> = match materialize(ws, accepted.iter().map(|b| &b.ops[..])) {
        Ok(muts) => muts,
        Err((idx, e)) => {
            // A dipath failed to materialize: fail that batch, retry the
            // rest individually (ids stay sequentially consistent).
            let bad = accepted.remove(idx);
            reply(bad.tag, ActorReply::Applied(Err(e)));
            return apply_each(ws, span_budget, accepted, stats, reply);
        }
    };
    match ws.apply(combined) {
        Ok(all_ids) => {
            stats.applies += 1;
            let mut cursor = 0usize;
            for batch in accepted {
                stats.batches += 1;
                let adds = batch
                    .ops
                    .iter()
                    .filter(|op| matches!(op, ActorOp::Add(_)))
                    .count();
                let ids = all_ids[cursor..cursor + adds].to_vec();
                cursor += adds;
                reply(batch.tag, ActorReply::Applied(Ok(ids)));
            }
            true
        }
        Err(_) => {
            // The combined batch is atomic, so the workspace is untouched:
            // fall back to per-batch applies so one bad batch (e.g. a
            // stale Remove id) only fails its own sender.
            apply_each(ws, span_budget, accepted, stats, reply)
        }
    }
}

/// Build the dipath for an `Add`'s arc list, range-checking the arc ids
/// first (`Digraph` accessors index by arc id, so an out-of-range id must
/// be rejected here, as a typed error, before the graph ever sees it).
fn build_dipath(ws: &Workspace, arcs: &[ArcId]) -> Result<Dipath, ServeError> {
    let arc_count = ws.graph().arc_count();
    if let Some(bad) = arcs.iter().find(|a| a.index() >= arc_count) {
        return Err(ServeError::Core(CoreError::InvalidPath(format!(
            "arc id {} out of range (graph has {arc_count} arcs)",
            bad.0
        ))));
    }
    Dipath::from_arcs(ws.graph(), arcs.to_vec())
        .map_err(|e| ServeError::Core(CoreError::InvalidPath(e.to_string())))
}

/// Turn every batch's ops into workspace mutations; on a bad dipath,
/// report which batch index failed.
fn materialize<'a>(
    ws: &Workspace,
    batches: impl IntoIterator<Item = &'a [ActorOp]>,
) -> Result<Vec<Mutation>, (usize, ServeError)> {
    let mut out = Vec::new();
    for (idx, ops) in batches.into_iter().enumerate() {
        for op in ops {
            match op {
                ActorOp::Add(arcs) => {
                    out.push(Mutation::Add(build_dipath(ws, arcs).map_err(|e| (idx, e))?))
                }
                ActorOp::Remove(id) => out.push(Mutation::Remove(*id)),
            }
        }
    }
    Ok(out)
}

/// Apply each batch on its own (the non-coalesced slow path after a
/// combined failure); answers every batch. Returns whether any
/// batch mutated the workspace.
fn apply_each<T>(
    ws: &mut Workspace,
    span_budget: Option<usize>,
    batches: Vec<PendingBatch<T>>,
    stats: &mut ActorStats,
    reply: &mut impl FnMut(T, ActorReply),
) -> bool {
    let mut mutated = false;
    for batch in batches {
        let result = (|| -> Result<Vec<PathId>, ServeError> {
            // The drain admitted this batch on the credit of batches that
            // may since have failed: check it again against the live loads.
            admission_check(ws, span_budget, &batch.ops, &mut Projection::default())?;
            let muts = materialize(ws, [&batch.ops[..]]).map_err(|(_, e)| e)?;
            Ok(ws.apply(muts)?)
        })();
        if result.is_ok() {
            mutated = true;
            stats.batches += 1;
            stats.applies += 1;
        }
        reply(batch.tag, ActorReply::Applied(result));
    }
    mutated
}

/// What the batches admitted so far in one drain do to the live state:
/// the load delta of each arc they touch, and the live ids they remove.
#[derive(Default)]
struct Projection {
    delta: BTreeMap<ArcId, i64>,
    removed: BTreeSet<PathId>,
}

impl Projection {
    fn delta(&self, a: ArcId) -> i64 {
        self.delta.get(&a).copied().unwrap_or(0)
    }
}

/// Project the per-arc load of applying `ops` on top of the batches
/// already `admitted`; reject if any arc would exceed the budget,
/// otherwise fold the batch's deltas and removed ids into `admitted`.
fn admission_check(
    ws: &Workspace,
    span_budget: Option<usize>,
    ops: &[ActorOp],
    admitted: &mut Projection,
) -> Result<(), ServeError> {
    let Some(budget) = span_budget else {
        return Ok(());
    };
    let mut own = Projection::default();
    let projected_max = projected_span(ws, ops, admitted, &mut own);
    if projected_max > budget {
        return Err(ServeError::SpanBudgetExceeded {
            budget,
            projected: projected_max,
        });
    }
    for (a, d) in own.delta {
        *admitted.delta.entry(a).or_insert(0) += d;
    }
    admitted.removed.extend(own.removed);
    Ok(())
}

/// Walk `ops` accumulating its own per-arc deltas and removed ids into
/// `own` and return the maximum load any arc is projected to reach (live
/// load + admitted deltas + the batch's own preceding ops).
fn projected_span(
    ws: &Workspace,
    ops: &[ActorOp],
    admitted: &Projection,
    own: &mut Projection,
) -> usize {
    let arc_count = ws.graph().arc_count();
    let mut projected_max = 0usize;
    for op in ops {
        match op {
            ActorOp::Add(arcs) => {
                for &a in arcs {
                    if a.index() >= arc_count {
                        // Out-of-range arc: let `Dipath::from_arcs` produce
                        // the typed InvalidPath error downstream.
                        continue;
                    }
                    let own_delta = own.delta.entry(a).or_insert(0);
                    *own_delta += 1;
                    let projected = (ws.arc_load(a) as i64) + admitted.delta(a) + *own_delta;
                    projected_max = projected_max.max(projected.max(0) as usize);
                }
            }
            ActorOp::Remove(id) => {
                // Credit back a live member's arcs once. After an earlier
                // op of this drain removed the id, a later `Add` may hold
                // its slot, and the family does not show that dipath; an id
                // that is not live is not resolvable either. Skipping both
                // keeps the projection conservative (too high, never too
                // low).
                let Some(p) = ws.family().get(*id) else {
                    continue;
                };
                if admitted.removed.contains(id) || !own.removed.insert(*id) {
                    continue;
                }
                for &a in p.arcs() {
                    *own.delta.entry(a).or_insert(0) -= 1;
                }
            }
        }
    }
    projected_max
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagwave_core::SolveSession;
    use dagwave_graph::builder::from_edges;
    use dagwave_paths::DipathFamily;
    use proptest::prelude::*;

    fn line_workspace(n: usize) -> Workspace {
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let g = from_edges(n, &edges);
        Workspace::new(SolveSession::auto(), g, DipathFamily::new()).expect("line DAG is valid")
    }

    fn arc_ids(ids: &[u32]) -> Vec<ArcId> {
        ids.iter().map(|&i| ArcId(i)).collect()
    }

    fn config(span_budget: Option<usize>) -> ServerConfig {
        ServerConfig {
            span_budget,
            ..ServerConfig::default()
        }
    }

    /// A tenant driven one command at a time: each call queues one command
    /// and drains it on this thread, as the reactor does with a round that
    /// decoded one frame.
    struct Stepped {
        tenant: Tenant<()>,
        cfg: ServerConfig,
    }

    impl Stepped {
        fn new(ws: Workspace, cfg: ServerConfig) -> Self {
            Stepped {
                tenant: Tenant::new(ws),
                cfg,
            }
        }

        fn call(&mut self, cmd: Command) -> ActorReply {
            self.tenant.push((), cmd);
            let mut out = None;
            self.tenant
                .drain(&self.cfg, &mut |(), reply| out = Some(reply));
            out.expect("every command is answered")
        }

        fn apply(&mut self, ops: Vec<ActorOp>) -> Result<Vec<PathId>, ServeError> {
            match self.call(Command::Apply { ops }) {
                ActorReply::Applied(r) => r,
                _ => panic!("not an apply reply"),
            }
        }

        fn query(&mut self) -> Result<Snapshot, ServeError> {
            match self.call(Command::Read(Read::Query)) {
                ActorReply::Snapshot(r) => r,
                _ => panic!("not a snapshot reply"),
            }
        }

        fn query_delta(&mut self, since: u64) -> Result<SolutionDelta, ServeError> {
            match self.call(Command::Read(Read::QueryDelta { since })) {
                ActorReply::Delta(r) => r,
                _ => panic!("not a delta reply"),
            }
        }

        fn stats(&mut self) -> Result<(WorkspaceStats, ActorStats), ServeError> {
            match self.call(Command::Read(Read::Stats)) {
                ActorReply::Stats(pair) => Ok(*pair),
                _ => panic!("not a stats reply"),
            }
        }
    }

    fn apply_cmd(ops: Vec<ActorOp>) -> Command {
        Command::Apply { ops }
    }

    /// Queue every command, then drain the tenant once, so the drain sees
    /// all the queued batches at once. Reply `i` answers command `i`.
    fn run_queued(
        tenant: &mut Tenant<usize>,
        cfg: ServerConfig,
        cmds: Vec<Command>,
    ) -> Vec<Option<ActorReply>> {
        let mut replies: Vec<Option<ActorReply>> = cmds.iter().map(|_| None).collect();
        for (i, cmd) in cmds.into_iter().enumerate() {
            tenant.push(i, cmd);
        }
        tenant.drain(&cfg, &mut |i, reply| replies[i] = Some(reply));
        replies
    }

    fn applied(reply: &mut Option<ActorReply>) -> Result<Vec<PathId>, ServeError> {
        match reply.take() {
            Some(ActorReply::Applied(r)) => r,
            _ => panic!("no apply reply"),
        }
    }

    fn actor_stats(reply: &mut Option<ActorReply>) -> ActorStats {
        match reply.take() {
            Some(ActorReply::Stats(pair)) => pair.1,
            _ => panic!("no stats reply"),
        }
    }

    /// A 4-vertex line whose arc 0 carries dipaths 0 and 1: at budget 2
    /// it has no room left on arc 0.
    fn full_line() -> Workspace {
        let mut ws = line_workspace(4);
        let on_arc_0 = build_dipath(&ws, &arc_ids(&[0])).unwrap();
        let ids = ws
            .apply([Mutation::Add(on_arc_0.clone()), Mutation::Add(on_arc_0)])
            .unwrap();
        assert_eq!(ids, vec![PathId(0), PathId(1)]);
        ws
    }

    #[test]
    fn actor_round_trip_apply_query_stats_stop() {
        let mut h = Stepped::new(line_workspace(5), config(None));
        let ids = h
            .apply(vec![
                ActorOp::Add(arc_ids(&[0, 1])),
                ActorOp::Add(arc_ids(&[1, 2])),
            ])
            .expect("two adds");
        assert_eq!(ids, vec![PathId(0), PathId(1)]);
        let snap = h.query().expect("solution");
        assert_eq!(snap.solution.num_colors, 2);
        assert_eq!(snap.ids.as_slice(), &[PathId(0), PathId(1)]);
        h.apply(vec![ActorOp::Remove(PathId(0))]).expect("remove");
        let snap = h.query().expect("solution after remove");
        assert_eq!(snap.solution.num_colors, 1);
        assert_eq!(snap.ids.as_slice(), &[PathId(1)]);
        let (ws_stats, actor_stats) = h.stats().expect("stats");
        assert_eq!(ws_stats.live_paths, 1);
        assert_eq!(actor_stats.batches, 2);
        assert_eq!(actor_stats.queries, 2);
    }

    #[test]
    fn delta_queries_flow_through_the_actor() {
        let mut h = Stepped::new(line_workspace(5), config(None));
        h.apply(vec![ActorOp::Add(arc_ids(&[0, 1]))]).expect("add");
        let d0 = h.query_delta(0).expect("initial delta");
        assert!(!d0.full_resync);
        assert_eq!(d0.changes.len(), 1, "one live member, one change");
        h.apply(vec![ActorOp::Remove(PathId(0))]).expect("remove");
        let d1 = h.query_delta(d0.epoch.0).expect("second delta");
        assert_eq!(d1.removed, vec![PathId(0)]);
        assert!(d1.changes.is_empty());
        let (_, actor_stats) = h.stats().expect("stats");
        assert_eq!(actor_stats.delta_queries, 2);
    }

    #[test]
    fn budget_rejects_without_mutating() {
        let mut h = Stepped::new(line_workspace(3), config(Some(2)));
        h.apply(vec![
            ActorOp::Add(arc_ids(&[0])),
            ActorOp::Add(arc_ids(&[0])),
        ])
        .expect("fills the budget");
        let err = h
            .apply(vec![ActorOp::Add(arc_ids(&[0, 1]))])
            .expect_err("third path through arc 0 exceeds budget 2");
        assert!(matches!(
            err,
            ServeError::SpanBudgetExceeded {
                budget: 2,
                projected: 3
            }
        ));
        // Retiring frees headroom: the credit is visible to admission.
        h.apply(vec![
            ActorOp::Remove(PathId(0)),
            ActorOp::Add(arc_ids(&[0, 1])),
        ])
        .expect("retire then admit inside one batch stays at load 2");
        let (ws_stats, _) = h.stats().expect("stats");
        assert_eq!(ws_stats.live_paths, 2);
        assert_eq!(ws_stats.max_load, 2);
    }

    #[test]
    fn stale_remove_fails_only_its_own_batch() {
        let mut h = Stepped::new(line_workspace(4), config(None));
        let err = h
            .apply(vec![ActorOp::Remove(PathId(7))])
            .expect_err("id 7 was never allocated");
        assert!(matches!(
            err,
            ServeError::Core(CoreError::UnknownPath(PathId(7)))
        ));
        let ids = h
            .apply(vec![ActorOp::Add(arc_ids(&[2]))])
            .expect("workspace still healthy");
        assert_eq!(ids, vec![PathId(0)]);
    }

    #[test]
    fn invalid_arcs_yield_typed_invalid_path() {
        let mut h = Stepped::new(line_workspace(3), config(None));
        let err = h
            .apply(vec![ActorOp::Add(arc_ids(&[99]))])
            .expect_err("arc 99 is out of range");
        assert!(matches!(err, ServeError::Core(CoreError::InvalidPath(_))));
        let err = h
            .apply(vec![ActorOp::Add(vec![ArcId(1), ArcId(0)])])
            .expect_err("non-contiguous arc order");
        assert!(matches!(err, ServeError::Core(CoreError::InvalidPath(_))));
    }

    /// Admission keeps deltas only for the arcs a batch touches: on a
    /// 99,999-arc line at budget 2, checking one single-arc `Add` leaves a
    /// projection of one entry.
    #[test]
    fn admission_projects_only_the_batch_arcs() {
        let ws = line_workspace(100_000);
        let mut projection = Projection::default();
        admission_check(
            &ws,
            Some(2),
            &[ActorOp::Add(arc_ids(&[50_000]))],
            &mut projection,
        )
        .expect("an empty line has room");
        assert_eq!(projection.delta.len(), 1);
        assert_eq!(projection.delta(ArcId(50_000)), 1);
    }

    /// The batch's `Add [2]` takes the slot its first `Remove 0` frees, so
    /// its second `Remove 0` retires that new dipath and frees nothing on
    /// arc 0: the batch would raise arc 0 to load 3.
    #[test]
    fn reassigned_slot_is_not_credited_twice() {
        let mut t = Tenant::new(full_line());
        let mut replies = run_queued(
            &mut t,
            config(Some(2)),
            vec![apply_cmd(vec![
                ActorOp::Remove(PathId(0)),
                ActorOp::Add(arc_ids(&[2])),
                ActorOp::Remove(PathId(0)),
                ActorOp::Add(arc_ids(&[0])),
                ActorOp::Add(arc_ids(&[0])),
            ])],
        );
        assert!(matches!(
            applied(&mut replies[0]),
            Err(ServeError::SpanBudgetExceeded {
                budget: 2,
                projected: 3
            })
        ));
        assert_eq!(t.ws.max_load(), 2);
        assert_eq!(
            t.ws.family().ids().collect::<Vec<_>>(),
            [PathId(0), PathId(1)]
        );
    }

    /// The first batch fails on its stale `Remove 99`, so the retirement
    /// of dipath 0 that made room for the second batch never happens.
    #[test]
    fn failed_batch_lends_no_admission_credit() {
        let mut t = Tenant::new(full_line());
        let first = apply_cmd(vec![
            ActorOp::Remove(PathId(0)),
            ActorOp::Remove(PathId(99)),
        ]);
        let second = apply_cmd(vec![ActorOp::Add(arc_ids(&[0]))]);
        let mut replies = run_queued(&mut t, config(Some(2)), vec![first, second]);
        assert!(matches!(
            applied(&mut replies[0]),
            Err(ServeError::Core(CoreError::UnknownPath(PathId(99))))
        ));
        assert!(matches!(
            applied(&mut replies[1]),
            Err(ServeError::SpanBudgetExceeded {
                budget: 2,
                projected: 3
            })
        ));
        assert_eq!(t.ws.max_load(), 2);
        assert_eq!(
            t.ws.family().ids().collect::<Vec<_>>(),
            [PathId(0), PathId(1)]
        );
    }

    /// Two queued batches share one `Workspace::apply`; the read queued
    /// after them sees both, and the batch queued after the read does not
    /// share their apply.
    #[test]
    fn queued_batches_coalesce_around_a_read() {
        let mut t = Tenant::new(line_workspace(5));
        let a = apply_cmd(vec![ActorOp::Add(arc_ids(&[0, 1]))]);
        let b = apply_cmd(vec![ActorOp::Add(arc_ids(&[1, 2]))]);
        let c = apply_cmd(vec![ActorOp::Add(arc_ids(&[2, 3]))]);
        let (query, stats) = (Command::Read(Read::Query), Command::Read(Read::Stats));
        let last = Command::Read(Read::Stats);
        let cmds = vec![a, b, query, stats, c, last];
        let mut r = run_queued(&mut t, config(None), cmds);
        assert_eq!(applied(&mut r[0]).unwrap(), [PathId(0)]);
        assert_eq!(applied(&mut r[1]).unwrap(), [PathId(1)]);
        assert_eq!(applied(&mut r[4]).unwrap(), [PathId(2)]);
        match r[2].take() {
            Some(ActorReply::Snapshot(Ok(snap))) => {
                assert_eq!(snap.ids.as_slice(), [PathId(0), PathId(1)]);
                assert_eq!(snap.solution.num_colors, 2);
            }
            _ => panic!("no snapshot reply"),
        }
        let after_read = actor_stats(&mut r[3]);
        assert_eq!((after_read.applies, after_read.batches), (1, 2));
        let after_c = actor_stats(&mut r[5]);
        assert_eq!((after_c.applies, after_c.batches), (2, 3));
    }

    /// A stale `Remove` sinks the combined apply; the valid batch queued
    /// before it then applies on its own and gets the ids a sequential
    /// apply assigns.
    #[test]
    fn failed_combined_apply_keeps_sequential_ids() {
        let valid = vec![
            ActorOp::Remove(PathId(1)),
            ActorOp::Add(arc_ids(&[0])),
            ActorOp::Add(arc_ids(&[2])),
        ];
        let mut sequential = full_line();
        let muts = materialize(&sequential, [&valid[..]]).unwrap();
        let want = sequential.apply(muts).unwrap();
        assert_eq!(want, [PathId(1), PathId(2)]);

        let mut t = Tenant::new(full_line());
        let stale = apply_cmd(vec![ActorOp::Remove(PathId(7))]);
        let cmds = vec![apply_cmd(valid), stale, Command::Read(Read::Stats)];
        let mut r = run_queued(&mut t, config(None), cmds);
        assert_eq!(applied(&mut r[0]).unwrap(), want);
        assert!(matches!(
            applied(&mut r[1]),
            Err(ServeError::Core(CoreError::UnknownPath(PathId(7))))
        ));
        let stats = actor_stats(&mut r[2]);
        assert_eq!((stats.applies, stats.batches), (1, 1));
        assert!(t.ws.family().iter().eq(sequential.family().iter()));
    }

    /// Deterministic splitmix64: the proptest shim's ranges drive the seed.
    struct Mix(u64);

    impl Mix {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % n.max(1)
        }
    }

    /// An `Add` of a random arc interval of a 6-vertex line.
    fn random_add(mix: &mut Mix) -> ActorOp {
        let from = mix.below(5) as u32;
        let to = from + 1 + mix.below(5 - u64::from(from)) as u32;
        ActorOp::Add((from..to).map(ArcId).collect())
    }

    /// One random batch: adds of random arc intervals, now and then an
    /// out-of-range arc, removes of ids that were never or are no longer
    /// live, and removes of ids live when the drain started, some followed
    /// by an `Add` that may take the freed slot and the same `Remove`
    /// again.
    fn random_batch(mix: &mut Mix, live: &[PathId]) -> Vec<ActorOp> {
        let mut ops = Vec::new();
        for _ in 0..1 + mix.below(4) {
            match mix.below(8) {
                0..=3 => ops.push(random_add(mix)),
                4 => ops.push(ActorOp::Add(arc_ids(&[99]))),
                5 => ops.push(ActorOp::Remove(PathId(mix.below(12) as u32))),
                _ => {
                    let id = match live.len() {
                        0 => PathId(mix.below(4) as u32),
                        n => live[mix.below(n as u64) as usize],
                    };
                    ops.push(ActorOp::Remove(id));
                    if mix.below(2) == 0 {
                        ops.push(random_add(mix));
                        ops.push(ActorOp::Remove(id));
                    }
                }
            }
        }
        ops
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Admission holds across drains of 1–6 queued batches: starting
        /// within budget, no drain leaves an arc above it, and the drain
        /// leaves the state and ids that applying only its successful
        /// batches in queue order gives, so a rejected or failed batch
        /// leaves no trace.
        #[test]
        fn admission_holds_across_random_drains(seed in 0u64..1_000_000, budget in 1usize..4) {
            let mut mix = Mix(seed);
            let mut t = Tenant::new(line_workspace(6));
            let mut sequential = line_workspace(6);
            for drain in 0..8 {
                let live: Vec<PathId> = t.ws.family().ids().collect();
                let batches: Vec<Vec<ActorOp>> =
                    (0..1 + mix.below(6)).map(|_| random_batch(&mut mix, &live)).collect();
                let cmds = batches.iter().map(|ops| apply_cmd(ops.clone())).collect();
                let mut replies = run_queued(&mut t, config(Some(budget)), cmds);
                prop_assert!(t.ws.max_load() <= budget, "drain {drain}: load {}", t.ws.max_load());
                for (ops, reply) in batches.into_iter().zip(replies.iter_mut()) {
                    let Ok(ids) = applied(reply) else { continue };
                    let want = materialize(&sequential, [&ops[..]])
                        .map_err(|_| ())
                        .and_then(|muts| sequential.apply(muts).map_err(|_| ()));
                    prop_assert_eq!(Ok(ids), want, "drain {}", drain);
                }
                prop_assert!(
                    t.ws.family().iter().eq(sequential.family().iter()),
                    "drain {drain}: the actor's family differs from the successful batches'"
                );
            }
        }
    }
}
