//! The connection model: a single-threaded `poll(2)` reactor driving
//! every connection through nonblocking sockets, and every tenant's steps
//! inline.
//!
//! # Ownership model
//!
//! The reactor runs on the thread that called [`Server::run`] — it spawns
//! nothing. It owns the listener, every connection (socket, incremental
//! [`FrameDecoder`], write queue), every tenant (workspace, counters,
//! command queue), the buffer pool, and the transport counters outright,
//! so a request is decoded, applied, solved, encoded and written without
//! leaving the thread. Total OS threads for N connections and T tenants:
//! the reactor plus the rayon pool that shard solves fan out on —
//! independent of N and T. `poll` is the only foreign function.
//!
//! # Rounds
//!
//! After `poll` returns, the reactor accepts, reads whatever arrived on
//! each readable connection into its decoder, and flushes each writable
//! one. Then it runs rounds. A round flushes the replies of the round
//! before, takes at most one complete frame from each connection, queues
//! each tenant request on its tenant (an unseen tenant id runs the
//! factory here), and drains every tenant that got a command: a run of
//! queued mutation batches shares one `Workspace::apply`, and each reply
//! is encoded onto its connection's write queue. Rounds repeat while one
//! makes progress, then the reactor polls again.
//!
//! One tenant's long step holds up every connection until it ends; the
//! `report` binary's D7 row measures that stall.
//!
//! # Per-connection state machine
//!
//! Reads are incremental: whatever bytes arrive are appended to the
//! connection's [`FrameDecoder`], and complete frames are peeled off as
//! they form — byte-at-a-time delivery and frames split across reads are
//! the normal case, not an error. Writes are queued: responses encode
//! into pooled buffers and drain as `POLLOUT` allows, so a slow client
//! never blocks the loop.
//!
//! # Backpressure
//!
//! Two bounds compose, end to end:
//!
//! 1. At most **one frame per connection per round**. Further complete
//!    frames stay buffered (undecoded) until a later round, and a round
//!    answers every frame it took — this both preserves response ordering
//!    without a reorder buffer and bounds tenant work per client per
//!    round.
//! 2. A connection whose write queue exceeds
//!    [`ServerConfig::max_write_buffer`] is neither *read* (its `POLLIN`
//!    interest is dropped) nor decoded until the client drains responses
//!    — TCP flow control then pushes back on the client.
//!
//! [`Server::run`]: crate::server::Server::run

use std::collections::{hash_map, HashMap, VecDeque};
use std::io::{self, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;

use dagwave_paths::PathId;

use crate::actor::{ActorOp, ActorReply, Command, Read, ServeError, Tenant};
use crate::protocol::{FrameDecoder, Request, Response, WireError};
use crate::server::{
    self, stats_response, wire_error_code, ServerConfig, Transport, WorkspaceFactory,
};

/// The raw `poll(2)` surface, confined here so everything else stays
/// under `deny(unsafe_code)`. A hand-rolled declaration instead of a libc
/// dependency, per the offline-shim policy.
#[allow(unsafe_code)]
mod sys {
    use std::io;
    use std::os::fd::RawFd;
    use std::os::raw::{c_int, c_ulong};

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;
    pub const POLLNVAL: i16 = 0x020;

    /// One entry in the `poll(2)` set; layout fixed by POSIX.
    #[repr(C)]
    #[derive(Clone, Copy, Debug)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: i16,
        pub revents: i16,
    }

    impl PollFd {
        pub fn new(fd: RawFd, events: i16) -> Self {
            PollFd {
                fd,
                events,
                revents: 0,
            }
        }
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    }

    /// Block until some fd is ready or `timeout_ms` passes (negative =
    /// forever), retrying `EINTR` internally. Returns the ready count.
    pub fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
        loop {
            // SAFETY: `fds` is a live, exclusively borrowed slice of
            // `repr(C)` PollFd; the kernel writes only `revents`.
            let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout_ms) };
            if rc >= 0 {
                return Ok(rc as usize);
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}

/// Recycles read/write buffers across frames and connections so
/// steady-state framing does zero allocations.
struct BufferPool {
    free: Vec<Vec<u8>>,
    max: usize,
}

/// Most idle buffers the pool retains; beyond this they drop (a burst's
/// memory is returned to the allocator once it passes).
const POOL_RETAIN: usize = 64;

impl BufferPool {
    fn new() -> Self {
        BufferPool {
            free: Vec::new(),
            max: POOL_RETAIN,
        }
    }

    fn get(&mut self) -> Vec<u8> {
        self.free
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(crate::protocol::READ_CHUNK))
    }

    fn put(&mut self, mut buf: Vec<u8>) {
        buf.clear();
        if self.free.len() < self.max {
            self.free.push(buf);
        }
    }
}

/// Identifies one connection slot across its lifetime: the generation
/// guards against a reply addressed to a connection that died and whose
/// slot was reused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct ConnToken {
    slot: usize,
    gen: u64,
}

struct Entry {
    gen: u64,
    conn: Option<Conn>,
}

/// Connection storage with stable tokens and O(1) insert/remove.
struct Slab {
    entries: Vec<Entry>,
    free: Vec<usize>,
}

impl Slab {
    fn new() -> Self {
        Slab {
            entries: Vec::new(),
            free: Vec::new(),
        }
    }

    fn insert(&mut self, conn: Conn) -> ConnToken {
        match self.free.pop() {
            Some(slot) => {
                let e = &mut self.entries[slot];
                e.conn = Some(conn);
                ConnToken { slot, gen: e.gen }
            }
            None => {
                self.entries.push(Entry {
                    gen: 0,
                    conn: Some(conn),
                });
                ConnToken {
                    slot: self.entries.len() - 1,
                    gen: 0,
                }
            }
        }
    }

    fn get_mut(&mut self, token: ConnToken) -> Option<&mut Conn> {
        let e = self.entries.get_mut(token.slot)?;
        if e.gen != token.gen {
            return None;
        }
        e.conn.as_mut()
    }

    fn remove(&mut self, token: ConnToken) -> Option<Conn> {
        let e = self.entries.get_mut(token.slot)?;
        if e.gen != token.gen {
            return None;
        }
        let conn = e.conn.take()?;
        e.gen += 1;
        self.free.push(token.slot);
        Some(conn)
    }

    fn iter(&self) -> impl Iterator<Item = (ConnToken, &Conn)> + '_ {
        self.entries.iter().enumerate().filter_map(|(slot, e)| {
            let conn = e.conn.as_ref()?;
            Some((ConnToken { slot, gen: e.gen }, conn))
        })
    }
}

/// Encoded responses waiting for the socket to accept them. `head` is the
/// partial-write offset into the front buffer; `bytes` the queued total.
struct WriteQueue {
    bufs: VecDeque<Vec<u8>>,
    head: usize,
    bytes: usize,
}

impl WriteQueue {
    fn new() -> Self {
        WriteQueue {
            bufs: VecDeque::new(),
            head: 0,
            bytes: 0,
        }
    }

    fn is_empty(&self) -> bool {
        self.bufs.is_empty()
    }

    fn push(&mut self, buf: Vec<u8>, pool: &mut BufferPool) {
        if buf.is_empty() {
            pool.put(buf);
            return;
        }
        self.bytes += buf.len();
        self.bufs.push_back(buf);
    }

    /// Write as much as the socket accepts right now; fully written
    /// buffers return to the pool. `WouldBlock` just stops the drain.
    /// Returns the bytes written.
    fn flush(&mut self, stream: &mut TcpStream, pool: &mut BufferPool) -> io::Result<usize> {
        let mut written = 0usize;
        while let Some(front_len) = self.bufs.front().map(Vec::len) {
            let res = stream.write(&self.bufs[0][self.head..]);
            match res {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    written += n;
                    self.head += n;
                    self.bytes -= n;
                    if self.head == front_len {
                        self.head = 0;
                        if let Some(done) = self.bufs.pop_front() {
                            pool.put(done);
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(written)
    }
}

/// Which request a tenant reply answers: an applied batch answers in the
/// shape of the request that sent it, and a read's reply has one shape.
#[derive(Clone, Copy, Debug)]
enum ReplyKind {
    Admit,
    Retire,
    Batch,
    Read,
}

/// Where a tenant reply goes: the connection that asked, and what it
/// asked for.
type Tag = (ConnToken, ReplyKind);

struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    write: WriteQueue,
    /// Close once the write queue drains (fatal wire error, `Shutdown`,
    /// or the peer's EOF after its buffered requests were served).
    draining: bool,
    /// Peer half-closed its side; serve what is buffered, then drain.
    eof: bool,
}

impl Conn {
    fn new(stream: TcpStream, read_buf: Vec<u8>) -> Self {
        Conn {
            stream,
            decoder: FrameDecoder::with_buffer(read_buf),
            write: WriteQueue::new(),
            draining: false,
            eof: false,
        }
    }
}

struct Reactor {
    listener: TcpListener,
    factory: WorkspaceFactory,
    conns: Slab,
    pool: BufferPool,
    tenants: HashMap<u64, Tenant<Tag>>,
    /// Tenants with queued commands, in the order they got their first.
    ready: Vec<u64>,
    transport: Transport,
    config: ServerConfig,
    /// A `Shutdown` frame arrived: finish the round, then stop.
    shutdown: bool,
    /// Scratch: the connections a round visits.
    tokens: Vec<ConnToken>,
}

/// Drive every connection and tenant until a `Shutdown` request. Runs on
/// the calling thread; the tenants drop with the reactor.
pub(crate) fn run(
    listener: TcpListener,
    factory: WorkspaceFactory,
    config: ServerConfig,
) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    let mut r = Reactor {
        listener,
        factory,
        conns: Slab::new(),
        pool: BufferPool::new(),
        tenants: HashMap::new(),
        ready: Vec::new(),
        transport: Transport::default(),
        config,
        shutdown: false,
        tokens: Vec::new(),
    };
    r.run()?;
    r.final_drain();
    Ok(())
}

impl Reactor {
    fn run(&mut self) -> io::Result<()> {
        let mut pollfds: Vec<sys::PollFd> = Vec::new();
        let mut polled: Vec<ConnToken> = Vec::new();
        while !self.shutdown {
            pollfds.clear();
            polled.clear();
            pollfds.push(sys::PollFd::new(self.listener.as_raw_fd(), sys::POLLIN));
            for (token, conn) in self.conns.iter() {
                let mut events = 0i16;
                if !conn.eof && !conn.draining && conn.write.bytes <= self.config.max_write_buffer {
                    events |= sys::POLLIN;
                }
                if !conn.write.is_empty() {
                    events |= sys::POLLOUT;
                }
                if events != 0 {
                    pollfds.push(sys::PollFd::new(conn.stream.as_raw_fd(), events));
                    polled.push(token);
                }
            }

            sys::poll_fds(&mut pollfds, -1)?;

            if pollfds[0].revents != 0 {
                self.accept_all();
            }
            for (pfd, &token) in pollfds[1..].iter().zip(&polled) {
                if pfd.revents != 0 {
                    self.handle_conn_event(token, pfd.revents);
                }
            }
            while self.round() && !self.shutdown {}
        }
        Ok(())
    }

    fn accept_all(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue; // drop the connection, keep serving
                    }
                    let read_buf = self.pool.get();
                    self.conns.insert(Conn::new(stream, read_buf));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // Transient per-connection accept failures (e.g. the peer
                // already reset) must not kill the loop.
                Err(_) => break,
            }
        }
    }

    fn handle_conn_event(&mut self, token: ConnToken, revents: i16) {
        if revents & (sys::POLLERR | sys::POLLNVAL) != 0 {
            self.close(token);
            return;
        }
        if revents & (sys::POLLIN | sys::POLLHUP) != 0 && !self.read_conn(token) {
            return; // closed
        }
        if revents & sys::POLLOUT != 0 {
            self.flush_conn(token);
        }
        self.maybe_close(token);
    }

    /// One nonblocking read into the decoder; the rounds decode it.
    /// Returns false if the connection closed.
    fn read_conn(&mut self, token: ConnToken) -> bool {
        let Some(conn) = self.conns.get_mut(token) else {
            return false;
        };
        match conn.decoder.fill_from(&mut conn.stream) {
            Ok(0) => conn.eof = true,
            Ok(n) => self.transport.bytes_in += n as u64,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                self.close(token);
                return false;
            }
        }
        true
    }

    /// One round: flush the previous round's replies, take at most one
    /// frame from each connection, then drain every tenant that got a
    /// command. Returns whether any connection made progress, i.e.
    /// whether another round may find work.
    fn round(&mut self) -> bool {
        let mut tokens = std::mem::take(&mut self.tokens);
        tokens.clear();
        tokens.extend(self.conns.iter().map(|(token, _)| token));
        for &token in &tokens {
            if self.flush_conn(token) {
                self.maybe_close(token);
            }
        }
        let mut progress = false;
        for &token in &tokens {
            progress |= self.decode_one(token);
        }
        self.tokens = tokens;
        self.drain_tenants();
        progress
    }

    /// Take at most one frame from a connection that is not draining and
    /// is under its write cap, and act on it: queue a tenant request on
    /// its tenant, or answer a malformed frame or `Shutdown` on the spot.
    /// Returns whether the connection made progress (took a frame, or
    /// reached its end of stream), so the next round flushes or closes it.
    fn decode_one(&mut self, token: ConnToken) -> bool {
        let Reactor {
            factory,
            conns,
            pool,
            tenants,
            ready,
            transport,
            config,
            shutdown,
            ..
        } = self;
        let Some(conn) = conns.get_mut(token) else {
            return false;
        };
        if conn.draining || conn.write.bytes > config.max_write_buffer {
            return false;
        }
        let req = match conn.decoder.next_frame() {
            Ok(Some((op, payload))) => Request::decode(op, payload),
            Ok(None) => {
                // Every buffered frame is served; at EOF no more bytes can
                // arrive: flush and close.
                conn.draining = conn.eof;
                return conn.eof;
            }
            Err(e) => {
                // Header-level error: the stream is unsynchronized. Answer
                // once, then drain and close.
                enqueue(conn, &wire_error_response(&e), pool, transport);
                conn.draining = true;
                return true;
            }
        };
        let req = match req {
            Ok(req) => req,
            Err(e) => {
                // Payload-level error: the frame was fully consumed, so the
                // stream is still synchronized — report and keep serving.
                enqueue(conn, &wire_error_response(&e), pool, transport);
                return true;
            }
        };
        let Some((tenant, kind, cmd)) = tenant_command(req) else {
            // `Shutdown`: answer it; the loop ends after this round.
            enqueue(conn, &Response::ShuttingDown, pool, transport);
            conn.draining = true;
            *shutdown = true;
            return true;
        };
        let entry = match tenants.entry(tenant) {
            hash_map::Entry::Occupied(e) => e.into_mut(),
            hash_map::Entry::Vacant(v) => match factory(tenant) {
                Ok(ws) => v.insert(Tenant::new(ws)),
                Err(e) => {
                    // Not cached: the next request for this id tries again.
                    let resp = server::error_response(ServeError::Core(e));
                    enqueue(conn, &resp, pool, transport);
                    return true;
                }
            },
        };
        if entry.push((token, kind), cmd) {
            ready.push(tenant);
        }
        true
    }

    /// Drain every tenant with queued commands, encoding each reply onto
    /// its connection's write queue.
    fn drain_tenants(&mut self) {
        let Reactor {
            conns,
            pool,
            tenants,
            ready,
            transport,
            config,
            ..
        } = self;
        for tenant in ready.drain(..) {
            let Some(tenant) = tenants.get_mut(&tenant) else {
                continue;
            };
            tenant.drain(config, &mut |(token, kind), reply| {
                let Some(conn) = conns.get_mut(token) else {
                    return; // unreachable within a round; drop the reply
                };
                let resp = reply_response(kind, reply, transport);
                enqueue(conn, &resp, pool, transport);
            });
        }
    }

    /// Drain the write queue as far as the socket allows. Returns false
    /// if the connection closed.
    fn flush_conn(&mut self, token: ConnToken) -> bool {
        let Reactor {
            conns,
            pool,
            transport,
            ..
        } = self;
        let Some(conn) = conns.get_mut(token) else {
            return false;
        };
        match conn.write.flush(&mut conn.stream, pool) {
            Ok(n) => {
                transport.bytes_out += n as u64;
                true
            }
            Err(_) => {
                self.close(token);
                false
            }
        }
    }

    /// Close the connection once it is fully served: draining (or EOF)
    /// with an empty write queue.
    fn maybe_close(&mut self, token: ConnToken) {
        let done = self
            .conns
            .get_mut(token)
            .is_some_and(|c| c.draining && c.write.is_empty());
        if done {
            self.close(token);
        }
    }

    fn close(&mut self, token: ConnToken) {
        if let Some(conn) = self.conns.remove(token) {
            self.pool.put(conn.decoder.into_buffer());
            for buf in conn.write.bufs {
                self.pool.put(buf);
            }
            // `conn.stream` drops here, closing the socket.
        }
    }

    /// Best-effort post-shutdown flush: give connections with queued
    /// responses a short bounded window to drain, then drop everything.
    fn final_drain(&mut self) {
        /// Per-round poll timeout during the shutdown drain.
        const DRAIN_POLL_MS: i32 = 50;
        /// Rounds before giving up on slow readers (bounds shutdown at
        /// `DRAIN_ROUNDS * DRAIN_POLL_MS` ≈ 1s).
        const DRAIN_ROUNDS: usize = 20;
        for _ in 0..DRAIN_ROUNDS {
            let pending: Vec<ConnToken> = self
                .conns
                .iter()
                .filter(|(_, c)| !c.write.is_empty())
                .map(|(token, _)| token)
                .collect();
            if pending.is_empty() {
                break;
            }
            let mut fds: Vec<sys::PollFd> = Vec::new();
            for &t in &pending {
                if let Some(conn) = self.conns.get_mut(t) {
                    fds.push(sys::PollFd::new(conn.stream.as_raw_fd(), sys::POLLOUT));
                }
            }
            if sys::poll_fds(&mut fds, DRAIN_POLL_MS).is_err() {
                break;
            }
            for &t in &pending {
                self.flush_conn(t);
            }
        }
    }
}

/// Encode `resp` into a pooled buffer onto the connection's write queue,
/// tracking the global high-water mark.
fn enqueue(conn: &mut Conn, resp: &Response, pool: &mut BufferPool, transport: &mut Transport) {
    let mut buf = pool.get();
    resp.encode_frame_into(&mut buf);
    conn.write.push(buf, pool);
    transport.max_write_queue = transport.max_write_queue.max(conn.write.bytes as u64);
}

/// A tenant request as its tenant id, the shape of its reply, and the
/// command its tenant runs; `None` for `Shutdown`, which names no tenant.
fn tenant_command(req: Request) -> Option<(u64, ReplyKind, Command)> {
    let apply = |ops| Command::Apply { ops };
    Some(match req {
        Request::Admit { tenant, arcs } => (
            tenant,
            ReplyKind::Admit,
            apply(vec![ActorOp::Add(server::to_arc_ids(arcs))]),
        ),
        Request::Retire { tenant, id } => (
            tenant,
            ReplyKind::Retire,
            apply(vec![ActorOp::Remove(PathId(id))]),
        ),
        Request::Batch { tenant, ops } => {
            (tenant, ReplyKind::Batch, apply(server::to_actor_ops(ops)))
        }
        Request::Query { tenant } => (tenant, ReplyKind::Read, Command::Read(Read::Query)),
        Request::QueryDelta { tenant, since } => (
            tenant,
            ReplyKind::Read,
            Command::Read(Read::QueryDelta { since }),
        ),
        Request::Stats { tenant } => (tenant, ReplyKind::Read, Command::Read(Read::Stats)),
        Request::Shutdown => return None,
    })
}

/// The typed answer to a frame that did not decode.
fn wire_error_response(e: &WireError) -> Response {
    Response::Error {
        code: wire_error_code(e),
        message: e.to_string(),
    }
}

/// Map a tenant reply to the wire response for the request it answers.
fn reply_response(kind: ReplyKind, reply: ActorReply, transport: &Transport) -> Response {
    match reply {
        ActorReply::Applied(Ok(ids)) => match kind {
            ReplyKind::Admit => server::admitted_response(ids),
            ReplyKind::Retire => Response::Retired,
            ReplyKind::Batch | ReplyKind::Read => Response::Applied {
                added: ids.into_iter().map(|id| id.0).collect(),
            },
        },
        ActorReply::Snapshot(Ok(snap)) => server::solution_response(&snap),
        ActorReply::Delta(Ok(d)) => server::delta_response(&d),
        ActorReply::Stats(pair) => stats_response(&pair.0, &pair.1, transport),
        ActorReply::Applied(Err(e)) | ActorReply::Snapshot(Err(e)) | ActorReply::Delta(Err(e)) => {
            server::error_response(e)
        }
    }
}
