//! The TCP server: one thread runs the `poll(2)` reactor — the one
//! connection model — and every tenant's steps.
//!
//! # Thread topology
//!
//! ```text
//! reactor (Server::run caller)
//!   │ every connection, every tenant (workspace + counters + queue)
//!   └── shard solves fan out on the rayon pool
//! ```
//!
//! The reactor (see the `reactor` module docs for the rounds and the
//! backpressure story) drives every connection and owns every tenant, so
//! neither connection count nor tenant count costs OS threads: the server
//! is one thread plus the rayon pool its shard solves use. There is no
//! shared mutable state and no cross-thread hop: a request is decoded,
//! applied, solved, encoded and written on the reactor thread. An unseen
//! tenant id runs the factory on that thread too. The reactor blocks in
//! `poll` on the listener and the connections, so an idle server makes
//! zero wakeups; a `Shutdown` request ends the loop after the round that
//! decoded it.
//!
//! Inline, one tenant's long step delays every connection until it ends
//! (the `report` binary's D7 row measures that stall).

use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::thread;

use dagwave_core::{CoreError, SolutionDelta, Workspace, WorkspaceStats};
use dagwave_graph::ArcId;
use dagwave_paths::PathId;

use crate::actor::{ActorOp, ActorStats, ServeError, Snapshot};
use crate::protocol::{ErrorCode, Response, WireDelta, WireError, WireOp, WireSolution, WireStats};

/// Builds the initial [`Workspace`] for a tenant id the server has not
/// seen before. Called on the reactor thread; `Send` because
/// [`Server::spawn`] moves the server to its own thread.
pub type WorkspaceFactory = Box<dyn Fn(u64) -> Result<Workspace, CoreError> + Send>;

/// The connection model [`Server::run`] drives. There is one: the
/// single-threaded `poll(2)` reactor, and no code branches on this value.
/// The type and [`ServerConfig::front_end`] remain only because the
/// `perfbench` benchmark package writes `ServerConfig { front_end:
/// FrontEnd::Evented, .. }` and its sources stay fixed across the changes
/// it measures; both go with the next change to that package.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FrontEnd {
    /// A single-threaded `poll(2)` reactor over nonblocking sockets: OS
    /// thread count is independent of connection count.
    #[default]
    Evented,
}

/// Default cap on one connection's queued response bytes before the
/// reactor stops reading more requests from it.
pub const DEFAULT_MAX_WRITE_BUFFER: usize = 1 << 20;

/// Server-wide knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Admission ceiling on any arc's load (`None` = admit everything).
    pub span_budget: Option<usize>,
    /// Max queued mutation batches one `Workspace::apply` may coalesce.
    pub max_coalesce: usize,
    /// Connection model; always [`FrontEnd::Evented`] (see there).
    pub front_end: FrontEnd,
    /// Per-connection cap on queued response bytes: past it, the
    /// connection stops being read until the client drains.
    pub max_write_buffer: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            span_budget: None,
            max_coalesce: 64,
            front_end: FrontEnd::Evented,
            max_write_buffer: DEFAULT_MAX_WRITE_BUFFER,
        }
    }
}

/// Transport counters surfaced through [`WireStats`]: one instance,
/// owned by the reactor, counting every connection of the process.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Transport {
    pub(crate) bytes_in: u64,
    pub(crate) bytes_out: u64,
    pub(crate) max_write_queue: u64,
}

/// A bound-but-not-yet-running server. [`Server::run`] blocks the calling
/// thread until a client sends `Shutdown`; [`Server::spawn`] runs it on
/// its own thread and returns a joinable handle.
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    factory: WorkspaceFactory,
    config: ServerConfig,
}

/// Handle to a server running on its own thread (see [`Server::spawn`]).
pub struct ServerHandle {
    addr: SocketAddr,
    join: thread::JoinHandle<io::Result<()>>,
}

impl ServerHandle {
    /// The bound address (use it to connect when binding to port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Wait for the server to shut down.
    pub fn join(self) -> io::Result<()> {
        self.join
            .join()
            .map_err(|_| io::Error::other("server thread panicked"))?
    }
}

impl Server {
    /// Bind a listener. `factory` builds the workspace for each new
    /// tenant id.
    pub fn bind(
        addr: impl ToSocketAddrs,
        factory: WorkspaceFactory,
        config: ServerConfig,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(Server {
            listener,
            addr,
            factory,
            config,
        })
    }

    /// The bound address (use it to connect when binding to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Accept and serve connections until a `Shutdown` request arrives.
    /// Runs the reactor, and with it every tenant, on the calling thread.
    pub fn run(self) -> io::Result<()> {
        crate::reactor::run(self.listener, self.factory, self.config)
    }

    /// Run the server on its own thread; returns once it is accepting.
    pub fn spawn(self) -> ServerHandle {
        let addr = self.addr;
        // lint: allow(no-raw-sync): hands the reactor its own thread; the handle's join() is the only coupling
        let join = thread::spawn(move || self.run());
        ServerHandle { addr, join }
    }
}

/// Shape a successful single-`Add` apply into the `Admitted` response.
pub(crate) fn admitted_response(ids: Vec<PathId>) -> Response {
    match ids.first() {
        Some(id) => Response::Admitted { id: id.0 },
        None => error_response(ServeError::Core(CoreError::InvalidPath(
            "admit produced no id".into(),
        ))),
    }
}

/// Shape a snapshot into the full-solution wire response.
pub(crate) fn solution_response(snap: &Snapshot) -> Response {
    let s = &snap.solution;
    Response::Solution(WireSolution {
        num_colors: s.num_colors as u32,
        load: s.load as u32,
        optimal: s.optimal,
        shard_count: s
            .decomposition
            .as_ref()
            .map_or(1, |d| d.shard_count() as u32),
        strategy: s.strategy.to_string(),
        colors: snap
            .ids
            .iter()
            .zip(s.assignment.colors())
            .map(|(id, &c)| (id.0, c as u32))
            .collect(),
    })
}

/// Shape a workspace delta into the delta-sync wire response.
pub(crate) fn delta_response(d: &SolutionDelta) -> Response {
    Response::Delta(WireDelta {
        epoch: d.epoch.0,
        span: d.span as u32,
        full_resync: d.full_resync,
        changes: d.changes.iter().map(|&(id, c)| (id.0, c)).collect(),
        removed: d.removed.iter().map(|id| id.0).collect(),
    })
}

/// Merge workspace, actor, and transport counters into the stats wire
/// response.
pub(crate) fn stats_response(
    ws: &WorkspaceStats,
    actor: &ActorStats,
    transport: &Transport,
) -> Response {
    Response::Stats(WireStats {
        live_paths: ws.live_paths as u64,
        shard_count: ws.shard_count as u64,
        max_load: ws.max_load as u64,
        recomputes: ws.recomputes as u64,
        shards_reused: ws.shards_reused as u64,
        shards_resolved: ws.shards_resolved as u64,
        batches: actor.batches,
        applies: actor.applies,
        queries: actor.queries,
        interned_arc_lists: ws.interned_arc_lists as u64,
        intern_hits: ws.intern_hits,
        intern_misses: ws.intern_misses,
        epoch: ws.epoch,
        delta_queries: ws.delta_queries,
        delta_resyncs: ws.delta_resyncs,
        bytes_in: transport.bytes_in,
        bytes_out: transport.bytes_out,
        // Tenant queues hold one round's commands, so nothing is refused
        // as busy; the field stays so the stats reply keeps its layout.
        busy_rejections: 0,
        max_write_queue: transport.max_write_queue,
    })
}

pub(crate) fn to_arc_ids(arcs: Vec<u32>) -> Vec<ArcId> {
    arcs.into_iter().map(ArcId).collect()
}

/// Convert wire batch ops into actor ops.
pub(crate) fn to_actor_ops(ops: Vec<WireOp>) -> Vec<ActorOp> {
    ops.into_iter()
        .map(|op| match op {
            WireOp::Add(arcs) => ActorOp::Add(to_arc_ids(arcs)),
            WireOp::Remove(id) => ActorOp::Remove(PathId(id)),
        })
        .collect()
}

pub(crate) fn wire_error_code(e: &WireError) -> ErrorCode {
    match e {
        WireError::UnknownVersion(_) => ErrorCode::UnknownVersion,
        WireError::UnknownOpcode(_) => ErrorCode::UnknownOpcode,
        WireError::Oversized(_) => ErrorCode::Oversized,
        _ => ErrorCode::Malformed,
    }
}

pub(crate) fn error_response(e: ServeError) -> Response {
    let code = match &e {
        ServeError::SpanBudgetExceeded { .. } => ErrorCode::SpanBudgetExceeded,
        ServeError::Core(CoreError::UnknownPath(_)) => ErrorCode::UnknownPath,
        ServeError::Core(CoreError::InvalidPath(_)) => ErrorCode::InvalidPath,
        ServeError::Core(_) => ErrorCode::Solver,
    };
    Response::Error {
        code,
        message: e.to_string(),
    }
}
