//! # dagwave-serve
//!
//! The service layer over the incremental [`Workspace`]: a versioned
//! binary wire protocol on TCP, a server whose one thread runs a `poll(2)`
//! reactor over every connection and every tenant, and a single-writer
//! actor per tenant that coalesces a round's mutations into shared
//! recomputations.
//!
//! The crate is unix-only (the reactor declares `poll(2)` itself); Linux
//! is the only target it is built and tested on.
//!
//! The `Workspace` (dagwave-core) already makes re-solves O(dirty): only
//! conflict components touched by a mutation are recomputed, the rest are
//! served from shard caches. This crate turns that engine into a
//! long-lived network service without giving up its single-writer design:
//!
//! * [`protocol`] — the frame format: 8-byte header (magic `0xDA`,
//!   version, opcode, u32 length), hand-rolled encode/decode, total
//!   (panic-free) parsing with typed [`protocol::WireError`]s.
//! * [`actor`] — one tenant: its workspace, counters and a command
//!   queue, drained inline on the reactor thread; the mutation batches
//!   queued in one round coalesce into a single `Workspace::apply`, so N
//!   writers racing each other share one recomputation instead of paying
//!   N. Admission control (span budget) rejects mutations that
//!   would push any arc's load past a ceiling — load is the paper's lower
//!   bound `π(G, P)`, so on internal-cycle-free DAGs the budget *is* a
//!   wavelength-count guarantee (`w = π`, Theorem 1). An over-budget
//!   batch is rejected at once with [`ServeError::SpanBudgetExceeded`].
//! * [`server`] — `std::net` listener, config, and reply shaping; the
//!   server is one thread plus the rayon pool its shard solves use.
//! * `reactor` — the one connection model, run on the [`Server::run`]
//!   caller's thread: nonblocking sockets, incremental frame decode,
//!   pooled buffers, bounded write queues, and every tenant
//!   (multi-tenant: independent workspaces keyed by a `u64` tenant id,
//!   built by the factory on first use). OS thread count is independent
//!   of connection and tenant count.
//! * [`client`] — a blocking request/response client used by the tests,
//!   the demo binary, and the bench harness.
//!
//! ```no_run
//! use dagwave_core::{SolveSession, Workspace};
//! use dagwave_graph::builder::from_edges;
//! use dagwave_paths::DipathFamily;
//! use dagwave_serve::{Client, Server, ServerConfig};
//!
//! let factory = Box::new(|_tenant: u64| {
//!     let g = from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
//!     Workspace::new(SolveSession::auto(), g, DipathFamily::new())
//! });
//! let handle = Server::bind("127.0.0.1:0", factory, ServerConfig::default())?
//!     .spawn();
//!
//! let mut client = Client::connect(handle.addr())?;
//! let id = client.admit(0, vec![0, 1])?; // dipath over arcs 0→1
//! let solution = client.query(0)?;
//! assert_eq!(solution.num_colors, 1);
//! client.retire(0, id)?;
//! client.shutdown()?;
//! handle.join()?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! [`Workspace`]: dagwave_core::Workspace

// `deny` rather than `forbid`: the reactor's `sys` module carries the
// crate's only `#[allow(unsafe_code)]`, confining FFI to one reviewed spot.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod actor;
pub mod client;
pub mod protocol;
mod reactor;
pub mod server;

pub use actor::{ActorOp, ActorStats, ServeError, Snapshot};
pub use client::{Client, ClientError};
pub use protocol::{
    ErrorCode, Request, Response, WireDelta, WireError, WireOp, WireSolution, WireStats,
};
pub use server::{FrontEnd, Server, ServerConfig, ServerHandle, WorkspaceFactory};
