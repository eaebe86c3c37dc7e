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
//! [`ActorConfig::queue_depth`]. The reactor enqueues without blocking
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
//! Rejected batches contribute no deltas. A `Remove` naming an id admitted
//! earlier in the *same* batch is not credited back (the projection keeps
//! the conservative, higher load); removes of live ids are credited.
//!
//! Under [`AdmissionPolicy::Wait`] an over-budget batch **parks** instead
//! of failing: it waits until retirements free enough capacity, falling
//! back to the same typed rejection when its timeout elapses or the
//! parking queue is full. Batches that fit the budget — retirements in
//! particular — still apply immediately while others are parked:
//! otherwise the capacity a `Remove` would free could never free. Parked
//! batches retry in arrival order after every mutation, and the timeout
//! bounds how long an overtaken batch can wait. Queries are served
//! immediately against the current state either way.

use std::collections::VecDeque;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SyncSender, TryRecvError, TrySendError};
use std::sync::Arc;
use std::thread;
use std::time::Duration;
// lint: allow(no-wallclock): Wait-admission deadlines are client-visible wall time, not solver timing
use std::time::Instant;

use dagwave_core::{
    CoreError, Epoch, Mutation, Solution, SolutionDelta, Workspace, WorkspaceStats,
};
use dagwave_graph::ArcId;
use dagwave_paths::{Dipath, PathId};

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
    /// raise some arc's load past the configured budget (immediately
    /// under [`AdmissionPolicy::Reject`]; after the wait timeout or on
    /// queue overflow under [`AdmissionPolicy::Wait`]).
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

/// What admission control does with a batch whose projected load exceeds
/// the span budget.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Reject immediately with [`ServeError::SpanBudgetExceeded`].
    Reject,
    /// Park the batch until retirements free capacity, then apply it
    /// (batches that fit the budget still apply immediately meanwhile).
    /// Falls back to the typed rejection when `timeout` elapses or the
    /// parking queue already holds `max_queue` batches.
    Wait {
        /// Most batches the parking queue holds before rejecting
        /// immediately.
        max_queue: usize,
        /// How long one batch may wait before the typed rejection.
        timeout: Duration,
    },
}

/// Per-tenant actor knobs, derived from the server's
/// [`ServerConfig`](crate::server::ServerConfig).
#[derive(Clone, Copy, Debug)]
pub struct ActorConfig {
    /// Admission ceiling on any arc's load (`None` = admit everything).
    pub span_budget: Option<usize>,
    /// Max queued mutation batches one `Workspace::apply` may coalesce.
    pub max_coalesce: usize,
    /// Bound on the actor's command queue; requests beyond it get
    /// [`ServeError::Busy`].
    pub queue_depth: usize,
    /// What to do with over-budget batches.
    pub admission: AdmissionPolicy,
}

impl Default for ActorConfig {
    fn default() -> Self {
        ActorConfig {
            span_budget: None,
            max_coalesce: 64,
            queue_depth: 256,
            admission: AdmissionPolicy::Reject,
        }
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

/// Blocking request/reply calls for the unit tests below: each one
/// enqueues a command whose callback sends the reply into a channel, then
/// waits on that channel.
#[cfg(test)]
impl TenantHandle {
    fn round_trip(
        &self,
        make: impl FnOnce(Responder) -> Command,
    ) -> Result<ActorReply, ServeError> {
        let (reply_tx, reply_rx) = mpsc::channel();
        let respond = Responder::new(move |reply| {
            // A dropped receiver just means the caller went away.
            let _ = reply_tx.send(reply);
        });
        self.tx
            .send(make(respond))
            .map_err(|_| ServeError::Stopped)?;
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

/// Spawn the actor thread for one tenant workspace.
pub(crate) fn spawn_tenant(
    workspace: Workspace,
    config: ActorConfig,
) -> (TenantHandle, thread::JoinHandle<()>) {
    let (tx, rx) = mpsc::sync_channel(config.queue_depth.max(1));
    // lint: allow(no-raw-sync): the actor thread IS the synchronization design — one owner per workspace, mpsc the only coupling
    let join = thread::spawn(move || run_actor(workspace, rx, config));
    (TenantHandle { tx }, join)
}

struct PendingBatch {
    ops: Vec<ActorOp>,
    respond: Responder,
}

/// A batch held back by [`AdmissionPolicy::Wait`].
struct Parked {
    ops: Vec<ActorOp>,
    respond: Responder,
    /// When the typed rejection fires.
    // lint: allow(no-wallclock): the Wait deadline is wall time by contract
    deadline: Instant,
    /// The budget/projection pair reported if this batch times out.
    budget: usize,
    projected: usize,
}

enum Wake {
    Cmd(Command),
    /// The head parked batch's deadline passed.
    Tick,
    /// Every handle dropped.
    Closed,
}

fn next_wake(rx: &Receiver<Command>, parked: &VecDeque<Parked>) -> Wake {
    let Some(head) = parked.front() else {
        return match rx.recv() {
            Ok(cmd) => Wake::Cmd(cmd),
            Err(_) => Wake::Closed,
        };
    };
    // lint: allow(no-wallclock): sleeping toward the Wait deadline, not measuring solver time
    let wait = head.deadline.saturating_duration_since(Instant::now());
    match rx.recv_timeout(wait) {
        Ok(cmd) => Wake::Cmd(cmd),
        Err(RecvTimeoutError::Timeout) => Wake::Tick,
        Err(RecvTimeoutError::Disconnected) => Wake::Closed,
    }
}

fn run_actor(mut ws: Workspace, rx: Receiver<Command>, cfg: ActorConfig) {
    let mut stats = ActorStats::default();
    let mut snapshot: Option<Snapshot> = None;
    let mut parked: VecDeque<Parked> = VecDeque::new();
    loop {
        let cmd = match next_wake(&rx, &parked) {
            Wake::Cmd(cmd) => cmd,
            Wake::Tick => {
                expire_overdue(&mut parked);
                // The expired head may have been the only thing blocking a
                // smaller parked batch.
                if retry_parked(&mut ws, &cfg, &mut parked, &mut stats) {
                    snapshot = None;
                }
                continue;
            }
            Wake::Closed => {
                fail_parked(&mut parked);
                return;
            }
        };
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
                if handle_mutations(&mut ws, &cfg, pending, &mut parked, &mut stats) {
                    snapshot = None;
                }
                match deferred {
                    Some(Command::Stop) => {
                        fail_parked(&mut parked);
                        return;
                    }
                    Some(cmd) => serve_read(&mut ws, cmd, &mut stats, &mut snapshot),
                    None => {}
                }
            }
            Command::Stop => {
                fail_parked(&mut parked);
                return;
            }
            other => serve_read(&mut ws, other, &mut stats, &mut snapshot),
        }
    }
}

/// Admit, park, or reject each drained batch per policy, apply the
/// admitted ones in one combined `Workspace::apply`, then retry parked
/// batches if capacity changed. Returns whether the workspace mutated.
fn handle_mutations(
    ws: &mut Workspace,
    cfg: &ActorConfig,
    pending: Vec<PendingBatch>,
    parked: &mut VecDeque<Parked>,
    stats: &mut ActorStats,
) -> bool {
    // Per-arc load deltas of the batches accepted so far in this drain.
    let mut accepted_delta: Vec<i64> = Vec::new();
    let mut accepted: Vec<PendingBatch> = Vec::new();
    for batch in pending {
        // Batches that fit the budget apply immediately even while others
        // are parked — a later `Remove` must be able to overtake a parked
        // over-budget `Add`, or the capacity it would free never frees.
        // Parked batches retry in arrival order once something mutates,
        // and their timeout bounds how long an overtaken batch can wait.
        match admission_check(ws, cfg.span_budget, &batch.ops, &mut accepted_delta) {
            Ok(()) => accepted.push(batch),
            Err(e) => match cfg.admission {
                AdmissionPolicy::Reject => {
                    batch.respond.send(ActorReply::Applied(Err(e)));
                }
                AdmissionPolicy::Wait { .. } => park_or_reject(ws, cfg, batch, parked),
            },
        }
    }
    let mut mutated = apply_admitted(ws, accepted, stats);
    if mutated {
        mutated |= retry_parked(ws, cfg, parked, stats);
    }
    mutated
}

/// Park one over-budget batch, or reject it immediately when the parking
/// queue is full.
fn park_or_reject(
    ws: &Workspace,
    cfg: &ActorConfig,
    batch: PendingBatch,
    parked: &mut VecDeque<Parked>,
) {
    let budget = cfg.span_budget.unwrap_or(usize::MAX);
    let projected = batch_projection(ws, &batch.ops);
    let AdmissionPolicy::Wait { max_queue, timeout } = cfg.admission else {
        batch
            .respond
            .send(ActorReply::Applied(Err(ServeError::SpanBudgetExceeded {
                budget,
                projected,
            })));
        return;
    };
    if parked.len() >= max_queue {
        batch
            .respond
            .send(ActorReply::Applied(Err(ServeError::SpanBudgetExceeded {
                budget,
                projected,
            })));
        return;
    }
    parked.push_back(Parked {
        ops: batch.ops,
        respond: batch.respond,
        // lint: allow(no-wallclock): stamping the client-visible Wait deadline
        deadline: Instant::now() + timeout,
        budget,
        projected,
    });
}

/// Reject every parked batch whose deadline has passed. Deadlines are
/// monotone in arrival order (one shared timeout), so checking heads
/// suffices.
fn expire_overdue(parked: &mut VecDeque<Parked>) {
    // lint: allow(no-wallclock): comparing against the client-visible Wait deadline
    let now = Instant::now();
    while parked.front().is_some_and(|p| p.deadline <= now) {
        if let Some(p) = parked.pop_front() {
            p.respond
                .send(ActorReply::Applied(Err(ServeError::SpanBudgetExceeded {
                    budget: p.budget,
                    projected: p.projected,
                })));
        }
    }
}

/// Apply parked batches from the head while they fit the freed capacity
/// (strict FIFO — stop at the first that still does not). Returns whether
/// anything mutated.
fn retry_parked(
    ws: &mut Workspace,
    cfg: &ActorConfig,
    parked: &mut VecDeque<Parked>,
    stats: &mut ActorStats,
) -> bool {
    let mut mutated = false;
    while let Some(head) = parked.front() {
        let mut scratch = Vec::new();
        if admission_check(ws, cfg.span_budget, &head.ops, &mut scratch).is_err() {
            break;
        }
        let Some(p) = parked.pop_front() else { break };
        mutated |= apply_admitted(
            ws,
            vec![PendingBatch {
                ops: p.ops,
                respond: p.respond,
            }],
            stats,
        );
    }
    mutated
}

/// Answer every parked batch with `Stopped` (actor shutting down).
fn fail_parked(parked: &mut VecDeque<Parked>) {
    for p in parked.drain(..) {
        p.respond
            .send(ActorReply::Applied(Err(ServeError::Stopped)));
    }
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
fn apply_admitted(ws: &mut Workspace, accepted: Vec<PendingBatch>, stats: &mut ActorStats) -> bool {
    if accepted.is_empty() {
        return false;
    }

    // One combined apply; split the returned ids by each batch's Add
    // count. Smallest-free-slot id assignment makes the combined ids
    // identical to what sequential per-batch applies would assign.
    let combined: Vec<Mutation> = match materialize(ws, &accepted) {
        Ok(muts) => muts,
        Err((idx, e)) => {
            // A dipath failed to materialize: fail that batch, retry the
            // rest individually (ids stay sequentialy consistent).
            return fail_one_then_apply_each(ws, accepted, idx, e, stats);
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
            apply_each(ws, accepted, stats)
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

/// Turn every accepted batch's ops into workspace mutations; on a bad
/// dipath, report which batch index failed.
fn materialize(
    ws: &Workspace,
    accepted: &[PendingBatch],
) -> Result<Vec<Mutation>, (usize, ServeError)> {
    let mut out = Vec::new();
    for (idx, batch) in accepted.iter().enumerate() {
        for op in &batch.ops {
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

fn fail_one_then_apply_each(
    ws: &mut Workspace,
    mut accepted: Vec<PendingBatch>,
    bad: usize,
    err: ServeError,
    stats: &mut ActorStats,
) -> bool {
    let batch = accepted.remove(bad);
    batch.respond.send(ActorReply::Applied(Err(err)));
    apply_each(ws, accepted, stats)
}

/// Apply each batch on its own (the non-coalesced slow path after a
/// combined failure); answers every batch. Returns whether any
/// batch mutated the workspace.
fn apply_each(ws: &mut Workspace, batches: Vec<PendingBatch>, stats: &mut ActorStats) -> bool {
    let mut mutated = false;
    for batch in batches {
        let result = (|| -> Result<Vec<PathId>, ServeError> {
            let mut muts = Vec::with_capacity(batch.ops.len());
            for op in &batch.ops {
                match op {
                    ActorOp::Add(arcs) => muts.push(Mutation::Add(build_dipath(ws, arcs)?)),
                    ActorOp::Remove(id) => muts.push(Mutation::Remove(*id)),
                }
            }
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

/// The projected post-batch maximum load of `ops` alone against the live
/// workspace (what admission would compare to the budget with nothing
/// else accepted). Used to report honest numbers for parked batches.
fn batch_projection(ws: &Workspace, ops: &[ActorOp]) -> usize {
    let accepted: Vec<i64> = vec![0; ws.graph().arc_count()];
    let mut own: Vec<i64> = vec![0; ws.graph().arc_count()];
    projected_span(ws, ops, &accepted, &mut own)
}

/// Project the per-arc load of applying `ops` on top of the already
/// accepted deltas; reject if any arc would exceed the budget, otherwise
/// fold the batch's deltas into `accepted_delta`.
fn admission_check(
    ws: &Workspace,
    span_budget: Option<usize>,
    ops: &[ActorOp],
    accepted_delta: &mut Vec<i64>,
) -> Result<(), ServeError> {
    let Some(budget) = span_budget else {
        return Ok(());
    };
    if accepted_delta.len() < ws.graph().arc_count() {
        accepted_delta.resize(ws.graph().arc_count(), 0);
    }
    let mut own_delta: Vec<i64> = vec![0; accepted_delta.len()];
    let projected_max = projected_span(ws, ops, accepted_delta, &mut own_delta);
    if projected_max > budget {
        return Err(ServeError::SpanBudgetExceeded {
            budget,
            projected: projected_max,
        });
    }
    for (acc, own) in accepted_delta.iter_mut().zip(&own_delta) {
        *acc += own;
    }
    Ok(())
}

/// Walk `ops` accumulating its own per-arc deltas into `own_delta` and
/// return the maximum load any arc is projected to reach (live load +
/// accepted deltas + the batch's own preceding ops).
fn projected_span(
    ws: &Workspace,
    ops: &[ActorOp],
    accepted_delta: &[i64],
    own_delta: &mut [i64],
) -> usize {
    let mut projected_max = 0usize;
    for op in ops {
        match op {
            ActorOp::Add(arcs) => {
                for &a in arcs {
                    let i = a.index();
                    if i >= own_delta.len() {
                        // Out-of-range arc: let `Dipath::from_arcs` produce
                        // the typed InvalidPath error downstream.
                        continue;
                    }
                    own_delta[i] += 1;
                    let accepted = accepted_delta.get(i).copied().unwrap_or(0);
                    let projected = (ws.arc_load(a) as i64) + accepted + own_delta[i];
                    projected_max = projected_max.max(projected.max(0) as usize);
                }
            }
            ActorOp::Remove(id) => {
                // Credit back a live member's arcs. An id admitted earlier
                // in this same drain is not resolvable here; skipping it
                // only keeps the projection conservative (too high, never
                // too low).
                if let Some(p) = ws.family().get(*id) {
                    for &a in p.arcs() {
                        let i = a.index();
                        if i < own_delta.len() {
                            own_delta[i] -= 1;
                        }
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

    fn line_workspace(n: usize) -> Workspace {
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let g = from_edges(n, &edges);
        Workspace::new(SolveSession::auto(), g, DipathFamily::new()).expect("line DAG is valid")
    }

    fn arc_ids(ids: &[u32]) -> Vec<ArcId> {
        ids.iter().map(|&i| ArcId(i)).collect()
    }

    fn config(span_budget: Option<usize>) -> ActorConfig {
        ActorConfig {
            span_budget,
            ..ActorConfig::default()
        }
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

    #[test]
    fn wait_policy_parks_until_capacity_frees() {
        let cfg = ActorConfig {
            span_budget: Some(2),
            admission: AdmissionPolicy::Wait {
                max_queue: 4,
                timeout: Duration::from_secs(10),
            },
            ..ActorConfig::default()
        };
        let (h, join) = spawn_tenant(line_workspace(3), cfg);
        h.apply(vec![
            ActorOp::Add(arc_ids(&[0])),
            ActorOp::Add(arc_ids(&[0])),
        ])
        .expect("fills the budget");
        // The over-budget batch parks, so the blocking apply waits on a
        // helper thread while the main thread frees capacity.
        let h2 = h.clone();
        let waiter = thread::spawn(move || h2.apply(vec![ActorOp::Add(arc_ids(&[0, 1]))]));
        thread::sleep(Duration::from_millis(50));
        h.apply(vec![ActorOp::Remove(PathId(0))])
            .expect("retire frees a slot");
        let ids = waiter
            .join()
            .expect("waiter thread")
            .expect("parked batch applies once capacity frees");
        assert_eq!(ids.len(), 1);
        let (ws_stats, _) = h.stats().expect("stats");
        assert_eq!(ws_stats.live_paths, 2);
        assert_eq!(ws_stats.max_load, 2);
        h.stop();
        join.join().expect("clean exit");
    }

    #[test]
    fn wait_policy_times_out_with_typed_error() {
        let cfg = ActorConfig {
            span_budget: Some(1),
            admission: AdmissionPolicy::Wait {
                max_queue: 4,
                timeout: Duration::from_millis(50),
            },
            ..ActorConfig::default()
        };
        let (h, join) = spawn_tenant(line_workspace(3), cfg);
        h.apply(vec![ActorOp::Add(arc_ids(&[0]))])
            .expect("fills the budget");
        let err = h
            .apply(vec![ActorOp::Add(arc_ids(&[0]))])
            .expect_err("no capacity ever frees, so the wait times out");
        assert!(matches!(
            err,
            ServeError::SpanBudgetExceeded {
                budget: 1,
                projected: 2
            }
        ));
        let (ws_stats, _) = h.stats().expect("stats");
        assert_eq!(ws_stats.live_paths, 1, "timed-out batch applied nothing");
        h.stop();
        join.join().expect("clean exit");
    }

    #[test]
    fn wait_policy_overflow_rejects_immediately() {
        let cfg = ActorConfig {
            span_budget: Some(1),
            admission: AdmissionPolicy::Wait {
                max_queue: 1,
                timeout: Duration::from_secs(10),
            },
            ..ActorConfig::default()
        };
        let (h, join) = spawn_tenant(line_workspace(3), cfg);
        h.apply(vec![ActorOp::Add(arc_ids(&[0]))])
            .expect("fills the budget");
        // First over-budget batch parks (helper thread blocks on it).
        let h2 = h.clone();
        let waiter = thread::spawn(move || h2.apply(vec![ActorOp::Add(arc_ids(&[0]))]));
        thread::sleep(Duration::from_millis(50));
        // Second over-budget batch finds the queue full: typed rejection
        // without waiting out the 10s timeout.
        let err = h
            .apply(vec![ActorOp::Add(arc_ids(&[0]))])
            .expect_err("parking queue is full");
        assert!(matches!(err, ServeError::SpanBudgetExceeded { .. }));
        // Free capacity so the parked batch (still FIFO head) applies.
        h.apply(vec![ActorOp::Remove(PathId(0))])
            .expect("retire frees a slot");
        waiter
            .join()
            .expect("waiter thread")
            .expect("parked batch applies after the retire");
        h.stop();
        join.join().expect("clean exit");
    }

    #[test]
    fn stop_fails_parked_batches_with_stopped() {
        let cfg = ActorConfig {
            span_budget: Some(1),
            admission: AdmissionPolicy::Wait {
                max_queue: 4,
                timeout: Duration::from_secs(10),
            },
            ..ActorConfig::default()
        };
        let (h, join) = spawn_tenant(line_workspace(3), cfg);
        h.apply(vec![ActorOp::Add(arc_ids(&[0]))])
            .expect("fills the budget");
        let h2 = h.clone();
        let waiter = thread::spawn(move || h2.apply(vec![ActorOp::Add(arc_ids(&[0]))]));
        thread::sleep(Duration::from_millis(50));
        h.stop();
        let err = waiter
            .join()
            .expect("waiter thread")
            .expect_err("shutdown fails the parked batch");
        assert!(matches!(err, ServeError::Stopped));
        join.join().expect("clean exit");
    }
}
