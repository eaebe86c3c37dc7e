//! The single-writer tenant actor: one thread owns one [`Workspace`]
//! behind a **bounded** mpsc command queue.
//!
//! The `Workspace` is single-writer by design (every mutation rewrites
//! shard caches in place), so the service never shares it behind a lock.
//! Instead each tenant gets an **actor**: a dedicated thread that drains a
//! command channel. The reactor holds a cloneable `TenantHandle` per
//! tenant and enqueues commands; each command carries a callback that
//! posts the reply back to the reactor and wakes its `poll`. Ordering
//! within one connection is the order it sends (one request in flight per
//! connection); across connections, the queue order.
//!
//! # Backpressure
//!
//! The command queue is a `sync_channel` bounded at
//! [`ServerConfig::queue_depth`]. The reactor enqueues without blocking
//! and answers a full queue with a typed [`ServeError::Busy`], so a
//! saturated actor never stalls the connections of other tenants.
//!
//! # Coalescing
//!
//! When mutations arrive faster than the workspace re-solves, the actor
//! drains every already-queued mutation batch (up to a configurable cap)
//! and applies them as **one** `Workspace::apply` call. Id assignment is
//! deterministic (smallest free slot, in op order), so a coalesced apply
//! assigns exactly the ids a sequential application would — coalescing is
//! invisible to clients except in the [`ActorStats::applies`] counter
//! staying below [`ActorStats::batches`]. Queries and stats are never
//! reordered past the point they were queued: the drain defers the first
//! non-mutation command and handles it right after the combined apply.
//!
//! # Admission control
//!
//! With a span budget configured, each client batch is checked against the
//! projected per-arc load (current load + deltas of batches already
//! accepted in this drain + the batch's own preceding ops) and rejected
//! with [`ServeError::SpanBudgetExceeded`] before anything is applied.
//! A `Remove` is credited back only when it names a live dipath that no
//! earlier op of the drain removed: once a removal frees a slot, a later
//! `Add` of the drain may take its id, and the family does not show that
//! dipath's arcs yet. Skipping every other `Remove` keeps the projection
//! conservative (too high, never too low). Rejected batches contribute
//! neither deltas nor removed ids. When the combined apply fails and the
//! batches apply one at a time, each is checked again against the live
//! loads first, so no batch applies on the credit of a batch that failed.

use std::collections::BTreeSet;
use std::sync::mpsc::{self, Receiver, SyncSender, TryRecvError, TrySendError};
use std::sync::Arc;
use std::thread;

use dagwave_core::{
    CoreError, Epoch, Mutation, Solution, SolutionDelta, Workspace, WorkspaceStats,
};
use dagwave_graph::ArcId;
use dagwave_paths::{Dipath, PathId};

use crate::server::ServerConfig;

/// One mutation as the service expresses it: arc-id sequences in, stable
/// path ids out. The actor owns the graph, so it (not the connection
/// thread) materializes [`Dipath`]s.
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
    /// The actor has stopped (server shutting down).
    Stopped,
    /// The actor's bounded command queue is full. Nothing was applied.
    /// Transient: retry after draining responses.
    Busy,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Core(e) => write!(f, "{e}"),
            ServeError::SpanBudgetExceeded { budget, projected } => write!(
                f,
                "admission rejected: projected span {projected} exceeds budget {budget}"
            ),
            ServeError::Stopped => write!(f, "tenant actor has stopped"),
            ServeError::Busy => write!(f, "tenant actor queue is full; retry"),
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
/// kind so the reactor can route completions without a typed channel per
/// request.
pub(crate) enum ActorReply {
    /// Answer to [`Command::Apply`].
    Applied(Result<Vec<PathId>, ServeError>),
    /// Answer to [`Command::Query`].
    Snapshot(Result<Snapshot, ServeError>),
    /// Answer to [`Command::QueryDelta`].
    Delta(Result<SolutionDelta, ServeError>),
    /// Answer to [`Command::Stats`].
    Stats(Box<(WorkspaceStats, ActorStats)>),
}

/// Where one command's reply goes: a callback that posts a completion and
/// wakes the reactor. Decouples the actor from reactor types.
pub(crate) struct Responder(Box<dyn FnOnce(ActorReply) + Send>);

impl Responder {
    pub(crate) fn new(f: impl FnOnce(ActorReply) + Send + 'static) -> Self {
        Responder(Box::new(f))
    }

    fn send(self, reply: ActorReply) {
        (self.0)(reply)
    }
}

pub(crate) enum Command {
    Apply {
        ops: Vec<ActorOp>,
        respond: Responder,
    },
    Query {
        respond: Responder,
    },
    QueryDelta {
        since: u64,
        respond: Responder,
    },
    Stats {
        respond: Responder,
    },
    Stop,
}

/// A cloneable handle to one tenant actor: the reactor enqueues commands
/// through it without blocking, and the registry stops the actor through
/// it.
#[derive(Clone)]
pub(crate) struct TenantHandle {
    tx: SyncSender<Command>,
}

impl TenantHandle {
    /// Ask the actor to exit after draining already-queued commands.
    pub(crate) fn stop(&self) {
        let _ = self.tx.send(Command::Stop);
    }

    /// Non-blocking enqueue: a full queue comes back as `Err` instead of
    /// blocking the reactor thread.
    pub(crate) fn try_send(&self, cmd: Command) -> Result<(), TrySendError<Command>> {
        self.tx.try_send(cmd)
    }
}

/// Spawn the actor thread for one tenant workspace.
pub(crate) fn spawn_tenant(
    mut workspace: Workspace,
    config: ServerConfig,
) -> (TenantHandle, thread::JoinHandle<()>) {
    let (tx, rx) = mpsc::sync_channel(config.queue_depth.max(1));
    // lint: allow(no-raw-sync): the actor thread IS the synchronization design — one owner per workspace, mpsc the only coupling
    let join = thread::spawn(move || run_actor(&mut workspace, rx, config));
    (TenantHandle { tx }, join)
}

struct PendingBatch {
    ops: Vec<ActorOp>,
    respond: Responder,
}

/// Serve commands until a `Stop` or until every handle is dropped.
fn run_actor(ws: &mut Workspace, rx: Receiver<Command>, cfg: ServerConfig) {
    let mut stats = ActorStats::default();
    let mut snapshot: Option<Snapshot> = None;
    while let Ok(cmd) = rx.recv() {
        match cmd {
            Command::Apply { ops, respond } => {
                // Drain whatever mutation batches are already queued so one
                // recomputation serves them all; defer the first
                // non-mutation command to preserve queue order.
                let mut pending = vec![PendingBatch { ops, respond }];
                let mut deferred = None;
                while pending.len() < cfg.max_coalesce.max(1) {
                    match rx.try_recv() {
                        Ok(Command::Apply { ops, respond }) => {
                            pending.push(PendingBatch { ops, respond })
                        }
                        Ok(other) => {
                            deferred = Some(other);
                            break;
                        }
                        Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => break,
                    }
                }
                if handle_mutations(ws, cfg.span_budget, pending, &mut stats) {
                    snapshot = None;
                }
                match deferred {
                    Some(Command::Stop) => return,
                    Some(cmd) => serve_read(ws, cmd, &mut stats, &mut snapshot),
                    None => {}
                }
            }
            Command::Stop => return,
            other => serve_read(ws, other, &mut stats, &mut snapshot),
        }
    }
}

/// Admit or reject each drained batch, then apply the admitted ones in
/// one combined `Workspace::apply`. Returns whether the workspace mutated.
fn handle_mutations(
    ws: &mut Workspace,
    span_budget: Option<usize>,
    pending: Vec<PendingBatch>,
    stats: &mut ActorStats,
) -> bool {
    // What the batches accepted so far in this drain do to the loads.
    let mut projection = Projection::default();
    let mut accepted: Vec<PendingBatch> = Vec::new();
    for batch in pending {
        match admission_check(ws, span_budget, &batch.ops, &mut projection) {
            Ok(()) => accepted.push(batch),
            Err(e) => batch.respond.send(ActorReply::Applied(Err(e))),
        }
    }
    apply_admitted(ws, span_budget, accepted, stats)
}

/// Handle a Query/Stats command (never Apply/Stop).
fn serve_read(
    ws: &mut Workspace,
    cmd: Command,
    stats: &mut ActorStats,
    snapshot: &mut Option<Snapshot>,
) {
    match cmd {
        Command::Query { respond } => {
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
            respond.send(ActorReply::Snapshot(snap));
        }
        Command::QueryDelta { since, respond } => {
            stats.delta_queries += 1;
            let delta = ws.delta_since(Epoch(since)).map_err(ServeError::Core);
            respond.send(ActorReply::Delta(delta));
        }
        Command::Stats { respond } => {
            respond.send(ActorReply::Stats(Box::new((ws.stats(), *stats))));
        }
        Command::Apply { respond, .. } => {
            // Unreachable by construction; answer rather than panic.
            respond.send(ActorReply::Applied(Err(ServeError::Stopped)));
        }
        Command::Stop => {}
    }
}

/// Apply admission-passed batches in a single `Workspace::apply` and
/// answer every batch. Returns whether the workspace mutated.
fn apply_admitted(
    ws: &mut Workspace,
    span_budget: Option<usize>,
    mut accepted: Vec<PendingBatch>,
    stats: &mut ActorStats,
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
            bad.respond.send(ActorReply::Applied(Err(e)));
            return apply_each(ws, span_budget, accepted, stats);
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
                batch.respond.send(ActorReply::Applied(Ok(ids)));
            }
            true
        }
        Err(_) => {
            // The combined batch is atomic, so the workspace is untouched:
            // fall back to per-batch applies so one bad batch (e.g. a
            // stale Remove id) only fails its own sender.
            apply_each(ws, span_budget, accepted, stats)
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
fn apply_each(
    ws: &mut Workspace,
    span_budget: Option<usize>,
    batches: Vec<PendingBatch>,
    stats: &mut ActorStats,
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
        batch.respond.send(ActorReply::Applied(result));
    }
    mutated
}

/// What the batches admitted so far in one drain do to the live state:
/// per-arc load deltas, and the live ids they remove.
#[derive(Default)]
struct Projection {
    delta: Vec<i64>,
    removed: BTreeSet<PathId>,
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
    if admitted.delta.len() < ws.graph().arc_count() {
        admitted.delta.resize(ws.graph().arc_count(), 0);
    }
    let mut own = Projection {
        delta: vec![0; admitted.delta.len()],
        removed: BTreeSet::new(),
    };
    let projected_max = projected_span(ws, ops, admitted, &mut own);
    if projected_max > budget {
        return Err(ServeError::SpanBudgetExceeded {
            budget,
            projected: projected_max,
        });
    }
    for (acc, own) in admitted.delta.iter_mut().zip(&own.delta) {
        *acc += own;
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
    let mut projected_max = 0usize;
    for op in ops {
        match op {
            ActorOp::Add(arcs) => {
                for &a in arcs {
                    let i = a.index();
                    if i >= own.delta.len() {
                        // Out-of-range arc: let `Dipath::from_arcs` produce
                        // the typed InvalidPath error downstream.
                        continue;
                    }
                    own.delta[i] += 1;
                    let projected = (ws.arc_load(a) as i64) + admitted.delta[i] + own.delta[i];
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
                    let i = a.index();
                    if i < own.delta.len() {
                        own.delta[i] -= 1;
                    }
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

    /// A command made by `make`, and the channel its reply arrives on.
    fn queued(make: impl FnOnce(Responder) -> Command) -> (Command, Receiver<ActorReply>) {
        let (reply_tx, reply_rx) = mpsc::channel();
        let respond = Responder::new(move |reply| {
            // A dropped receiver just means the caller went away.
            let _ = reply_tx.send(reply);
        });
        (make(respond), reply_rx)
    }

    /// Blocking request/reply calls for the unit tests below: each one
    /// enqueues a command whose callback sends the reply into a channel, then
    /// waits on that channel.
    impl TenantHandle {
        fn round_trip(
            &self,
            make: impl FnOnce(Responder) -> Command,
        ) -> Result<ActorReply, ServeError> {
            let (cmd, reply_rx) = queued(make);
            self.tx.send(cmd).map_err(|_| ServeError::Stopped)?;
            reply_rx.recv().map_err(|_| ServeError::Stopped)
        }

        fn apply(&self, ops: Vec<ActorOp>) -> Result<Vec<PathId>, ServeError> {
            match self.round_trip(|respond| Command::Apply { ops, respond })? {
                ActorReply::Applied(r) => r,
                _ => Err(ServeError::Stopped),
            }
        }

        fn query(&self) -> Result<Snapshot, ServeError> {
            match self.round_trip(|respond| Command::Query { respond })? {
                ActorReply::Snapshot(r) => r,
                _ => Err(ServeError::Stopped),
            }
        }

        fn query_delta(&self, since: u64) -> Result<SolutionDelta, ServeError> {
            match self.round_trip(|respond| Command::QueryDelta { since, respond })? {
                ActorReply::Delta(r) => r,
                _ => Err(ServeError::Stopped),
            }
        }

        fn stats(&self) -> Result<(WorkspaceStats, ActorStats), ServeError> {
            match self.round_trip(|respond| Command::Stats { respond })? {
                ActorReply::Stats(pair) => Ok(*pair),
                _ => Err(ServeError::Stopped),
            }
        }
    }

    fn apply_cmd(ops: Vec<ActorOp>) -> (Command, Receiver<ActorReply>) {
        queued(|respond| Command::Apply { ops, respond })
    }

    /// Queue every command before the actor starts, so its first drain
    /// sees all the queued batches at once, then run it on this thread
    /// until the queue is empty.
    fn run_queued(ws: &mut Workspace, cfg: ServerConfig, cmds: Vec<Command>) {
        let (tx, rx) = mpsc::sync_channel(cmds.len().max(1));
        for cmd in cmds {
            tx.send(cmd).expect("the queue holds every command");
        }
        drop(tx);
        run_actor(ws, rx, cfg);
    }

    fn applied(reply: &Receiver<ActorReply>) -> Result<Vec<PathId>, ServeError> {
        match reply.try_recv() {
            Ok(ActorReply::Applied(r)) => r,
            _ => panic!("no apply reply"),
        }
    }

    fn actor_stats(reply: &Receiver<ActorReply>) -> ActorStats {
        match reply.try_recv() {
            Ok(ActorReply::Stats(pair)) => pair.1,
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
        let (h, join) = spawn_tenant(line_workspace(5), config(None));
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
        h.stop();
        join.join().expect("actor exits cleanly");
        assert!(matches!(h.query(), Err(ServeError::Stopped)));
    }

    #[test]
    fn delta_queries_flow_through_the_actor() {
        let (h, join) = spawn_tenant(line_workspace(5), config(None));
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
        h.stop();
        join.join().expect("clean exit");
    }

    #[test]
    fn budget_rejects_without_mutating() {
        let (h, join) = spawn_tenant(line_workspace(3), config(Some(2)));
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
        h.stop();
        join.join().expect("clean exit");
    }

    #[test]
    fn stale_remove_fails_only_its_own_batch() {
        let (h, join) = spawn_tenant(line_workspace(4), config(None));
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
        h.stop();
        join.join().expect("clean exit");
    }

    #[test]
    fn invalid_arcs_yield_typed_invalid_path() {
        let (h, join) = spawn_tenant(line_workspace(3), config(None));
        let err = h
            .apply(vec![ActorOp::Add(arc_ids(&[99]))])
            .expect_err("arc 99 is out of range");
        assert!(matches!(err, ServeError::Core(CoreError::InvalidPath(_))));
        let err = h
            .apply(vec![ActorOp::Add(vec![ArcId(1), ArcId(0)])])
            .expect_err("non-contiguous arc order");
        assert!(matches!(err, ServeError::Core(CoreError::InvalidPath(_))));
        h.stop();
        join.join().expect("clean exit");
    }

    /// The batch's `Add [2]` takes the slot its first `Remove 0` frees, so
    /// its second `Remove 0` retires that new dipath and frees nothing on
    /// arc 0: the batch would raise arc 0 to load 3.
    #[test]
    fn reassigned_slot_is_not_credited_twice() {
        let mut ws = full_line();
        let (batch, reply) = apply_cmd(vec![
            ActorOp::Remove(PathId(0)),
            ActorOp::Add(arc_ids(&[2])),
            ActorOp::Remove(PathId(0)),
            ActorOp::Add(arc_ids(&[0])),
            ActorOp::Add(arc_ids(&[0])),
        ]);
        run_queued(&mut ws, config(Some(2)), vec![batch]);
        assert!(matches!(
            applied(&reply),
            Err(ServeError::SpanBudgetExceeded {
                budget: 2,
                projected: 3
            })
        ));
        assert_eq!(ws.max_load(), 2);
        assert_eq!(
            ws.family().ids().collect::<Vec<_>>(),
            [PathId(0), PathId(1)]
        );
    }

    /// The first batch fails on its stale `Remove 99`, so the retirement
    /// of dipath 0 that made room for the second batch never happens.
    #[test]
    fn failed_batch_lends_no_admission_credit() {
        let mut ws = full_line();
        let (first, first_reply) = apply_cmd(vec![
            ActorOp::Remove(PathId(0)),
            ActorOp::Remove(PathId(99)),
        ]);
        let (second, second_reply) = apply_cmd(vec![ActorOp::Add(arc_ids(&[0]))]);
        run_queued(&mut ws, config(Some(2)), vec![first, second]);
        assert!(matches!(
            applied(&first_reply),
            Err(ServeError::Core(CoreError::UnknownPath(PathId(99))))
        ));
        assert!(matches!(
            applied(&second_reply),
            Err(ServeError::SpanBudgetExceeded {
                budget: 2,
                projected: 3
            })
        ));
        assert_eq!(ws.max_load(), 2);
        assert_eq!(
            ws.family().ids().collect::<Vec<_>>(),
            [PathId(0), PathId(1)]
        );
    }

    /// Two queued batches share one `Workspace::apply`; the read queued
    /// after them sees both, and the batch queued after the read does not
    /// share their apply.
    #[test]
    fn queued_batches_coalesce_around_a_read() {
        let mut ws = line_workspace(5);
        let (a, a_reply) = apply_cmd(vec![ActorOp::Add(arc_ids(&[0, 1]))]);
        let (b, b_reply) = apply_cmd(vec![ActorOp::Add(arc_ids(&[1, 2]))]);
        let (query, query_reply) = queued(|respond| Command::Query { respond });
        let (stats, stats_reply) = queued(|respond| Command::Stats { respond });
        let (c, c_reply) = apply_cmd(vec![ActorOp::Add(arc_ids(&[2, 3]))]);
        let (last, last_reply) = queued(|respond| Command::Stats { respond });
        run_queued(&mut ws, config(None), vec![a, b, query, stats, c, last]);
        assert_eq!(applied(&a_reply).unwrap(), [PathId(0)]);
        assert_eq!(applied(&b_reply).unwrap(), [PathId(1)]);
        assert_eq!(applied(&c_reply).unwrap(), [PathId(2)]);
        match query_reply.try_recv() {
            Ok(ActorReply::Snapshot(Ok(snap))) => {
                assert_eq!(snap.ids.as_slice(), [PathId(0), PathId(1)]);
                assert_eq!(snap.solution.num_colors, 2);
            }
            _ => panic!("no snapshot reply"),
        }
        let after_read = actor_stats(&stats_reply);
        assert_eq!((after_read.applies, after_read.batches), (1, 2));
        let after_c = actor_stats(&last_reply);
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

        let mut ws = full_line();
        let (batch, batch_reply) = apply_cmd(valid);
        let (stale, stale_reply) = apply_cmd(vec![ActorOp::Remove(PathId(7))]);
        let (stats, stats_reply) = queued(|respond| Command::Stats { respond });
        run_queued(&mut ws, config(None), vec![batch, stale, stats]);
        assert_eq!(applied(&batch_reply).unwrap(), want);
        assert!(matches!(
            applied(&stale_reply),
            Err(ServeError::Core(CoreError::UnknownPath(PathId(7))))
        ));
        let stats = actor_stats(&stats_reply);
        assert_eq!((stats.applies, stats.batches), (1, 1));
        assert!(ws.family().iter().eq(sequential.family().iter()));
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
            let mut ws = line_workspace(6);
            let mut sequential = line_workspace(6);
            for drain in 0..8 {
                let live: Vec<PathId> = ws.family().ids().collect();
                let batches: Vec<Vec<ActorOp>> =
                    (0..1 + mix.below(6)).map(|_| random_batch(&mut mix, &live)).collect();
                let (cmds, replies): (Vec<_>, Vec<_>) =
                    batches.iter().map(|ops| apply_cmd(ops.clone())).unzip();
                run_queued(&mut ws, config(Some(budget)), cmds);
                prop_assert!(ws.max_load() <= budget, "drain {drain}: load {}", ws.max_load());
                for (ops, reply) in batches.into_iter().zip(&replies) {
                    let Ok(ids) = applied(reply) else { continue };
                    let want = materialize(&sequential, [&ops[..]])
                        .map_err(|_| ())
                        .and_then(|muts| sequential.apply(muts).map_err(|_| ()));
                    prop_assert_eq!(Ok(ids), want, "drain {}", drain);
                }
                prop_assert!(
                    ws.family().iter().eq(sequential.family().iter()),
                    "drain {drain}: the actor's family differs from the successful batches'"
                );
            }
        }
    }
}
