//! The `dagwave-serve` wire protocol: versioned, length-prefixed binary
//! frames, hand-rolled encode/decode (no serde — the registry is
//! unreachable offline, so this module *is* the project's binary
//! serialization story).
//!
//! # Frame layout
//!
//! Every message — request or response — travels as one frame:
//!
//! ```text
//! offset  size  field
//! 0       1     magic      0xDA
//! 1       1     version    0x02 (the only version; see "Versioning" below)
//! 2       1     opcode     (see the opcode table below)
//! 3       1     flags      0x00 (reserved; nonzero is rejected)
//! 4       4     length     payload byte count, u32 little-endian
//! 8       n     payload    opcode-specific body
//! ```
//!
//! Integers are little-endian throughout. Strings are a `u32` byte count
//! followed by UTF-8 bytes. Vectors are a `u32` element count followed by
//! the elements. Payloads longer than [`MAX_PAYLOAD`] are rejected at the
//! header ([`WireError::Oversized`]) *before* any allocation, so a
//! malicious length prefix cannot balloon memory.
//!
//! # Opcode table
//!
//! | opcode | direction | message |
//! |--------|-----------|---------|
//! | `0x01` | request   | [`Request::Admit`] — tenant `u64`, arc ids `vec<u32>` |
//! | `0x02` | request   | [`Request::Retire`] — tenant `u64`, path id `u32` |
//! | `0x03` | request   | [`Request::Batch`] — tenant `u64`, ops `vec<op>` |
//! | `0x04` | request   | [`Request::Query`] — tenant `u64` |
//! | `0x05` | request   | [`Request::Stats`] — tenant `u64` |
//! | `0x06` | request   | [`Request::Shutdown`] — empty |
//! | `0x07` | request   | [`Request::QueryDelta`] — tenant `u64`, since-epoch `u64` |
//! | `0x81` | response  | [`Response::Admitted`] — path id `u32` |
//! | `0x82` | response  | [`Response::Retired`] — empty |
//! | `0x83` | response  | [`Response::Applied`] — added ids `vec<u32>` |
//! | `0x84` | response  | [`Response::Solution`] — see [`WireSolution`] |
//! | `0x85` | response  | [`Response::Stats`] — see [`WireStats`] |
//! | `0x86` | response  | [`Response::ShuttingDown`] — empty |
//! | `0x87` | response  | [`Response::Delta`] — see [`WireDelta`] |
//! | `0xEE` | response  | [`Response::Error`] — code `u16`, message `string` |
//!
//! A batch op is a `u8` tag: `0x00` add (followed by arc ids `vec<u32>`),
//! `0x01` remove (followed by a path id `u32`).
//!
//! # Versioning
//!
//! There is one protocol version, [`VERSION`] (`0x02`): this side emits
//! it and accepts nothing else — any other version byte is
//! [`WireError::UnknownVersion`]. Each message has exactly one layout (a
//! `Stats` payload is always 19 counters; a shorter one is
//! [`WireError::Truncated`]). Changing any layout means bumping
//! [`VERSION`], and a bump breaks every peer built against the old one.
//!
//! Unknown versions, unknown opcodes, truncated payloads, trailing bytes,
//! and oversized lengths all decode to typed [`WireError`]s — never a
//! panic — which the server answers with a typed [`Response::Error`]
//! frame (see [`ErrorCode`]) before closing the now-unsynchronized
//! connection.

use std::io::{self, Read, Write};

/// First byte of every frame.
pub const MAGIC: u8 = 0xDA;
/// The protocol version: the only one this module emits or accepts.
pub const VERSION: u8 = 0x02;
/// Hard ceiling on a frame's payload length (16 MiB): anything larger is
/// rejected at the header, before allocation.
pub const MAX_PAYLOAD: u32 = 1 << 24;
/// Frame header size in bytes.
pub const HEADER_LEN: usize = 8;

/// Everything that can go wrong turning bytes into a message. Decoding is
/// total: any input produces either a message or one of these — never a
/// panic.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireError {
    /// First byte was not [`MAGIC`].
    BadMagic(u8),
    /// Version byte this implementation does not speak.
    UnknownVersion(u8),
    /// Opcode outside the table (or a response opcode where a request was
    /// required, and vice versa).
    UnknownOpcode(u8),
    /// Reserved flags byte was nonzero.
    NonZeroFlags(u8),
    /// Declared payload length exceeds [`MAX_PAYLOAD`].
    Oversized(u32),
    /// Input ended before the declared frame did.
    Truncated,
    /// Payload decoded cleanly but left unconsumed bytes.
    Trailing(usize),
    /// Payload structure was invalid (bad tag, bad UTF-8, …).
    Malformed(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadMagic(b) => write!(f, "bad magic byte {b:#04x} (want {MAGIC:#04x})"),
            WireError::UnknownVersion(v) => {
                write!(
                    f,
                    "unknown protocol version {v} (this side speaks {VERSION})"
                )
            }
            WireError::UnknownOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            WireError::NonZeroFlags(b) => write!(f, "reserved flags byte is {b:#04x}, want 0"),
            WireError::Oversized(n) => {
                write!(f, "payload length {n} exceeds the {MAX_PAYLOAD}-byte cap")
            }
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::Trailing(n) => write!(f, "{n} trailing bytes after payload"),
            WireError::Malformed(what) => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Typed error codes carried by [`Response::Error`] frames.
///
/// `u16` on the wire; codes unknown to this build round-trip through
/// [`ErrorCode::Other`] so newer servers can extend the table without
/// breaking older clients.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// Request frame carried a version this server does not speak.
    UnknownVersion,
    /// Request frame carried an opcode outside the table.
    UnknownOpcode,
    /// Request frame's payload did not decode.
    Malformed,
    /// Request frame's declared length exceeded [`MAX_PAYLOAD`].
    Oversized,
    /// A retire/batch named a path id that is not live.
    UnknownPath,
    /// An admit/batch carried a dipath invalid on the tenant's graph.
    InvalidPath,
    /// Admission control rejected the mutation: the projected load would
    /// exceed the server's span budget.
    SpanBudgetExceeded,
    /// The solve itself failed (any other solver-side error).
    Solver,
    /// The server is shutting down and no longer accepts work. This
    /// server closes its connections when it stops instead of sending it;
    /// the code stays in the table so peers keep decoding it.
    ShuttingDown,
    /// The server is at capacity right now. Transient: the request was
    /// not applied and may be retried. The code stays in the table so
    /// peers keep decoding it; this server does not send it.
    Busy,
    /// A code this build does not know (forward compatibility).
    Other(u16),
}

impl ErrorCode {
    /// Wire representation.
    pub fn to_u16(self) -> u16 {
        match self {
            ErrorCode::UnknownVersion => 1,
            ErrorCode::UnknownOpcode => 2,
            ErrorCode::Malformed => 3,
            ErrorCode::Oversized => 4,
            ErrorCode::UnknownPath => 5,
            ErrorCode::InvalidPath => 6,
            ErrorCode::SpanBudgetExceeded => 7,
            ErrorCode::Solver => 8,
            ErrorCode::ShuttingDown => 9,
            ErrorCode::Busy => 10,
            ErrorCode::Other(raw) => raw,
        }
    }

    /// Inverse of [`ErrorCode::to_u16`]; unknown codes land in
    /// [`ErrorCode::Other`].
    pub fn from_u16(raw: u16) -> Self {
        match raw {
            1 => ErrorCode::UnknownVersion,
            2 => ErrorCode::UnknownOpcode,
            3 => ErrorCode::Malformed,
            4 => ErrorCode::Oversized,
            5 => ErrorCode::UnknownPath,
            6 => ErrorCode::InvalidPath,
            7 => ErrorCode::SpanBudgetExceeded,
            8 => ErrorCode::Solver,
            9 => ErrorCode::ShuttingDown,
            10 => ErrorCode::Busy,
            other => ErrorCode::Other(other),
        }
    }
}

/// One mutation inside a [`Request::Batch`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireOp {
    /// Admit a dipath given as its arc-id sequence on the tenant's graph.
    Add(Vec<u32>),
    /// Retire the live dipath with this stable id.
    Remove(u32),
}

/// Client → server messages.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Admit one dipath (arc-id sequence) into `tenant`'s workspace.
    Admit {
        /// Tenant whose workspace is addressed.
        tenant: u64,
        /// The dipath as its arc ids, in path order.
        arcs: Vec<u32>,
    },
    /// Retire the live dipath with stable id `id` from `tenant`.
    Retire {
        /// Tenant whose workspace is addressed.
        tenant: u64,
        /// Stable path id to retire.
        id: u32,
    },
    /// Apply a mutation batch atomically (all-or-nothing, exactly the
    /// semantics of `Workspace::apply`).
    Batch {
        /// Tenant whose workspace is addressed.
        tenant: u64,
        /// Mutations, in application order.
        ops: Vec<WireOp>,
    },
    /// Fetch the current wavelength solution for `tenant`.
    Query {
        /// Tenant whose workspace is addressed.
        tenant: u64,
    },
    /// Fetch service/workspace counters for `tenant`.
    Stats {
        /// Tenant whose workspace is addressed.
        tenant: u64,
    },
    /// Stop the server: it acknowledges with [`Response::ShuttingDown`],
    /// finishes the requests it already took, flushes, and closes the
    /// listener; every tenant drops with it.
    Shutdown,
    /// Fetch everything that changed in `tenant`'s solution since the
    /// client's last synced epoch. Answered with
    /// [`Response::Delta`] — O(changed) bytes, never a full solution.
    QueryDelta {
        /// Tenant whose workspace is addressed.
        tenant: u64,
        /// The epoch the client last synced at (`0` = never synced).
        since: u64,
    },
}

/// The solution summary carried by [`Response::Solution`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WireSolution {
    /// Wavelengths used (the span `w`).
    pub num_colors: u32,
    /// `π(G, P)` — the load lower bound.
    pub load: u32,
    /// Whether `num_colors` is provably minimum.
    pub optimal: bool,
    /// Conflict components in the solved decomposition (1 for monolithic).
    pub shard_count: u32,
    /// Winning backend name (kebab-case `BackendKind` rendering).
    pub strategy: String,
    /// `(stable path id, wavelength)` per live dipath, ascending by id.
    pub colors: Vec<(u32, u32)>,
}

/// The delta summary carried by [`Response::Delta`]: the changes
/// between the client's last synced epoch and the server's current one.
///
/// Payload layout: epoch `u64`, span `u32`, full-resync flag `u8` (0/1),
/// changes `vec<(u32, u32)>` (stable path id, wavelength), removed
/// `vec<u32>` (stable path ids). Replay in epoch order — clear everything
/// first when `full_resync` is set, then drop `removed`, then apply
/// `changes` — and the client's table equals the server's full solution.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WireDelta {
    /// The server's current epoch; pass it back as `since` next time.
    pub epoch: u64,
    /// The current span (number of wavelengths in use).
    pub span: u32,
    /// When set, the client's state is too old (or unknown) to patch:
    /// `changes` carries the *entire* live assignment and the client must
    /// replace, not merge.
    pub full_resync: bool,
    /// `(stable path id, wavelength)` per member whose color changed
    /// since `since` (or every live member under `full_resync`).
    pub changes: Vec<(u32, u32)>,
    /// Stable ids retired since `since` (empty under `full_resync`).
    pub removed: Vec<u32>,
}

/// The counters carried by [`Response::Stats`] — the tenant's cumulative
/// `WorkspaceStats`, the actor's service-side tallies, and the reactor's
/// transport counters.
///
/// On the wire: exactly 19 `u64`s in field order; a shorter payload is
/// [`WireError::Truncated`], so adding a counter is a version bump.
///
/// The four transport counters are process-wide: the reactor counts
/// every connection into one instance.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Live dipaths in the tenant's family.
    pub live_paths: u64,
    /// Conflict components currently tracked.
    pub shard_count: u64,
    /// Current `π(G, P)`.
    pub max_load: u64,
    /// Full recomputations the workspace has run.
    pub recomputes: u64,
    /// Cumulative shards served from cache.
    pub shards_reused: u64,
    /// Cumulative shards actually re-solved.
    pub shards_resolved: u64,
    /// Client mutation batches accepted by the actor.
    pub batches: u64,
    /// `Workspace::apply` calls those batches coalesced into
    /// (`batches / applies` > 1 means coalescing amortized recomputes).
    pub applies: u64,
    /// Solution queries served.
    pub queries: u64,
    /// Distinct arc lists in the tenant's interner arena.
    pub interned_arc_lists: u64,
    /// Arena intern hits — arc lists deduplicated to an existing
    /// allocation.
    pub intern_hits: u64,
    /// Arena intern misses — arc lists stored fresh.
    pub intern_misses: u64,
    /// The workspace's current refresh epoch.
    pub epoch: u64,
    /// Delta queries the workspace answered.
    pub delta_queries: u64,
    /// Delta queries answered with a full resync.
    pub delta_resyncs: u64,
    /// Request bytes read off the wire, across every connection.
    pub bytes_in: u64,
    /// Response bytes written to the wire, across every connection.
    pub bytes_out: u64,
    /// Requests refused with [`ErrorCode::Busy`]. Nothing refuses a
    /// request as busy, so this server reports 0; the field keeps the
    /// payload's layout.
    pub busy_rejections: u64,
    /// High-water mark of any connection's pending write queue, in bytes
    /// (how far a slow reader ever got behind before backpressure held).
    pub max_write_queue: u64,
}

/// Server → client messages.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// Admit succeeded; the new dipath's stable id.
    Admitted {
        /// Stable id assigned to the admitted dipath.
        id: u32,
    },
    /// Retire succeeded.
    Retired,
    /// Batch succeeded; stable ids of its additions, in batch order.
    Applied {
        /// Ids assigned to the batch's `Add` ops, in op order.
        added: Vec<u32>,
    },
    /// Current solution snapshot.
    Solution(WireSolution),
    /// Current counters.
    Stats(WireStats),
    /// Changes since the client's last synced epoch.
    Delta(WireDelta),
    /// Shutdown acknowledged; the connection closes after this frame.
    ShuttingDown,
    /// The request failed; typed code plus a human-readable message.
    Error {
        /// Machine-readable failure class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

// ---------------------------------------------------------------------------
// Encoding primitives
// ---------------------------------------------------------------------------

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

fn put_u32_slice(buf: &mut Vec<u8>, xs: &[u32]) {
    put_u32(buf, xs.len() as u32);
    for &x in xs {
        put_u32(buf, x);
    }
}

/// Bounded, panic-free reader over a payload slice.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        if end > self.buf.len() {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// An element count that still has to fit in the remaining bytes at
    /// `min_size` each — so a forged count cannot trigger a huge
    /// allocation before [`WireError::Truncated`] would fire anyway.
    fn count(&mut self, min_size: usize) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        let remaining = self.buf.len() - self.pos;
        if n.saturating_mul(min_size.max(1)) > remaining {
            return Err(WireError::Truncated);
        }
        Ok(n)
    }

    fn u32_vec(&mut self) -> Result<Vec<u32>, WireError> {
        let n = self.count(4)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.u32()?);
        }
        Ok(out)
    }

    fn str(&mut self) -> Result<String, WireError> {
        let n = self.count(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Malformed("non-UTF-8 string"))
    }

    fn finish(self) -> Result<(), WireError> {
        let left = self.buf.len() - self.pos;
        if left != 0 {
            return Err(WireError::Trailing(left));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Opcodes
// ---------------------------------------------------------------------------

mod opcode {
    pub const ADMIT: u8 = 0x01;
    pub const RETIRE: u8 = 0x02;
    pub const BATCH: u8 = 0x03;
    pub const QUERY: u8 = 0x04;
    pub const STATS: u8 = 0x05;
    pub const SHUTDOWN: u8 = 0x06;
    pub const QUERY_DELTA: u8 = 0x07;

    pub const ADMITTED: u8 = 0x81;
    pub const RETIRED: u8 = 0x82;
    pub const APPLIED: u8 = 0x83;
    pub const SOLUTION: u8 = 0x84;
    pub const STATS_OK: u8 = 0x85;
    pub const SHUTTING_DOWN: u8 = 0x86;
    pub const DELTA: u8 = 0x87;
    pub const ERROR: u8 = 0xEE;

    pub const OP_ADD: u8 = 0x00;
    pub const OP_REMOVE: u8 = 0x01;
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Build the full frame bytes (header + payload) for an opcode/payload
/// pair.
pub fn encode_frame(op: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.push(MAGIC);
    out.push(VERSION);
    out.push(op);
    out.push(0); // flags, reserved
    put_u32(&mut out, payload.len() as u32);
    out.extend_from_slice(payload);
    out
}

/// Parse a frame header; returns `(opcode, payload_len)`.
pub fn decode_header(header: &[u8]) -> Result<(u8, u32), WireError> {
    if header.len() < HEADER_LEN {
        return Err(WireError::Truncated);
    }
    if header[0] != MAGIC {
        return Err(WireError::BadMagic(header[0]));
    }
    if header[1] != VERSION {
        return Err(WireError::UnknownVersion(header[1]));
    }
    if header[3] != 0 {
        return Err(WireError::NonZeroFlags(header[3]));
    }
    let len = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
    if len > MAX_PAYLOAD {
        return Err(WireError::Oversized(len));
    }
    Ok((header[2], len))
}

/// Write one whole frame to a blocking stream.
pub fn write_frame(w: &mut impl Write, op: u8, payload: &[u8]) -> io::Result<()> {
    w.write_all(&encode_frame(op, payload))?;
    w.flush()
}

/// How many bytes one [`FrameDecoder::fill_from`] call asks the transport
/// for. Large enough that a burst of small frames lands in one syscall.
pub const READ_CHUNK: usize = 64 * 1024;

/// Once this many consumed bytes sit in front of the unread region, the
/// decoder memmoves the tail down instead of growing forever.
const COMPACT_THRESHOLD: usize = READ_CHUNK;

/// An incremental frame decoder: feed it bytes in arbitrary slices
/// (single bytes, half frames, three frames at once) and pull complete
/// frames out as they form. Both ends of a connection read through it:
/// the reactor feeds it from nonblocking sockets, and the blocking
/// [`crate::Client`] reads each reply with it, so one decode path serves
/// both.
///
/// Properties:
///
/// * **Total.** Header errors (bad magic, unknown version, oversized
///   length) surface as typed [`WireError`]s the moment the 8 header
///   bytes are present — never a panic, and never after buffering the
///   bogus payload. After an error the stream is unsynchronized and the
///   caller must close it; the decoder keeps returning the error.
/// * **Bounded.** [`MAX_PAYLOAD`] is enforced at the header, so the
///   internal buffer never grows past one maximum frame plus one read
///   chunk, no matter what a peer sends.
/// * **Allocation-free in steady state.** The buffer is retained across
///   frames (and can be handed in from / returned to a pool via
///   [`FrameDecoder::with_buffer`] / [`FrameDecoder::into_buffer`]);
///   consumed bytes are reclaimed by resetting the read/fill indices or
///   an occasional compact, not by reallocating.
/// * **No re-zeroing.** The buffer's length is its initialised space, and
///   a filled-end index marks where received bytes stop. A read lands in
///   the initialised space past that index; zero-filling happens only
///   when the buffer grows.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    /// Initialised space; `buf[start..end]` holds the unread bytes.
    buf: Vec<u8>,
    /// Start of the unread region in `buf`.
    start: usize,
    /// End of the received bytes in `buf`.
    end: usize,
}

impl FrameDecoder {
    /// A decoder with a fresh (empty) buffer.
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// A decoder reusing `buf`'s allocation (contents are discarded).
    pub fn with_buffer(mut buf: Vec<u8>) -> Self {
        buf.clear();
        FrameDecoder {
            buf,
            start: 0,
            end: 0,
        }
    }

    /// Dismantle the decoder, handing its buffer back (for a pool).
    pub fn into_buffer(mut self) -> Vec<u8> {
        self.buf.clear();
        self.buf
    }

    /// Bytes buffered but not yet consumed by [`FrameDecoder::next_frame`].
    pub fn buffered(&self) -> usize {
        self.end - self.start
    }

    /// Reclaim consumed bytes: reset the indices when fully drained,
    /// memmove when the dead prefix got large, nothing otherwise.
    fn compact(&mut self) {
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        } else if self.start >= COMPACT_THRESHOLD {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
    }

    /// Append raw bytes (a test/adversarial entry point; the transport
    /// path uses [`FrameDecoder::fill_from`]).
    pub fn push(&mut self, bytes: &[u8]) {
        self.compact();
        self.buf.truncate(self.end);
        self.buf.extend_from_slice(bytes);
        self.end = self.buf.len();
    }

    /// Issue one `read` against `r` for up to [`READ_CHUNK`] bytes,
    /// appending whatever arrives. `Ok(0)` is end-of-stream;
    /// `WouldBlock`/`Interrupted` errors pass through untranslated (the
    /// reactor treats them as "try again on readiness").
    pub fn fill_from(&mut self, r: &mut impl Read) -> io::Result<usize> {
        self.compact();
        if self.buf.len() < self.end + READ_CHUNK {
            self.buf.resize(self.end + READ_CHUNK, 0);
        }
        let n = r.read(&mut self.buf[self.end..self.end + READ_CHUNK])?;
        self.end += n;
        Ok(n)
    }

    /// Pull the next complete frame, if one has fully arrived. Returns
    /// `Ok(None)` when more bytes are needed, `Ok(Some((opcode,
    /// payload)))` for a complete frame (the borrow ends before the next
    /// call — decode the payload immediately), or a typed [`WireError`]
    /// if the buffered bytes cannot be a frame.
    pub fn next_frame(&mut self) -> Result<Option<(u8, &[u8])>, WireError> {
        let avail = self.end - self.start;
        if avail < HEADER_LEN {
            return Ok(None);
        }
        let (op, len) = decode_header(&self.buf[self.start..self.start + HEADER_LEN])?;
        let total = HEADER_LEN + len as usize;
        if avail < total {
            return Ok(None);
        }
        let begin = self.start + HEADER_LEN;
        let end = self.start + total;
        self.start = end;
        Ok(Some((op, &self.buf[begin..end])))
    }
}

// ---------------------------------------------------------------------------
// Request encode/decode
// ---------------------------------------------------------------------------

impl Request {
    /// This request's opcode.
    pub fn opcode(&self) -> u8 {
        match self {
            Request::Admit { .. } => opcode::ADMIT,
            Request::Retire { .. } => opcode::RETIRE,
            Request::Batch { .. } => opcode::BATCH,
            Request::Query { .. } => opcode::QUERY,
            Request::Stats { .. } => opcode::STATS,
            Request::Shutdown => opcode::SHUTDOWN,
            Request::QueryDelta { .. } => opcode::QUERY_DELTA,
        }
    }

    /// Encode the payload body (no header).
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            Request::Admit { tenant, arcs } => {
                put_u64(&mut buf, *tenant);
                put_u32_slice(&mut buf, arcs);
            }
            Request::Retire { tenant, id } => {
                put_u64(&mut buf, *tenant);
                put_u32(&mut buf, *id);
            }
            Request::Batch { tenant, ops } => {
                put_u64(&mut buf, *tenant);
                put_u32(&mut buf, ops.len() as u32);
                for op in ops {
                    match op {
                        WireOp::Add(arcs) => {
                            buf.push(opcode::OP_ADD);
                            put_u32_slice(&mut buf, arcs);
                        }
                        WireOp::Remove(id) => {
                            buf.push(opcode::OP_REMOVE);
                            put_u32(&mut buf, *id);
                        }
                    }
                }
            }
            Request::Query { tenant } | Request::Stats { tenant } => {
                put_u64(&mut buf, *tenant);
            }
            Request::Shutdown => {}
            Request::QueryDelta { tenant, since } => {
                put_u64(&mut buf, *tenant);
                put_u64(&mut buf, *since);
            }
        }
        buf
    }

    /// Full framed bytes (header + payload).
    pub fn to_frame(&self) -> Vec<u8> {
        encode_frame(self.opcode(), &self.encode_payload())
    }

    /// Decode a request from an opcode/payload pair (the output of
    /// [`FrameDecoder::next_frame`]). Response opcodes are
    /// [`WireError::UnknownOpcode`] here.
    pub fn decode(op: u8, payload: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(payload);
        let req = match op {
            opcode::ADMIT => Request::Admit {
                tenant: r.u64()?,
                arcs: r.u32_vec()?,
            },
            opcode::RETIRE => Request::Retire {
                tenant: r.u64()?,
                id: r.u32()?,
            },
            opcode::BATCH => {
                let tenant = r.u64()?;
                // Each op is at least 1 tag byte + 4 payload bytes.
                let n = r.count(5)?;
                let mut ops = Vec::with_capacity(n);
                for _ in 0..n {
                    ops.push(match r.u8()? {
                        opcode::OP_ADD => WireOp::Add(r.u32_vec()?),
                        opcode::OP_REMOVE => WireOp::Remove(r.u32()?),
                        _ => return Err(WireError::Malformed("unknown batch-op tag")),
                    });
                }
                Request::Batch { tenant, ops }
            }
            opcode::QUERY => Request::Query { tenant: r.u64()? },
            opcode::STATS => Request::Stats { tenant: r.u64()? },
            opcode::SHUTDOWN => Request::Shutdown,
            opcode::QUERY_DELTA => Request::QueryDelta {
                tenant: r.u64()?,
                since: r.u64()?,
            },
            other => return Err(WireError::UnknownOpcode(other)),
        };
        r.finish()?;
        Ok(req)
    }

    /// Decode a request from full frame bytes; returns the message and the
    /// bytes consumed. The exact inverse of [`Request::to_frame`].
    pub fn from_frame(bytes: &[u8]) -> Result<(Self, usize), WireError> {
        let (op, len) = decode_header(bytes)?;
        let end = HEADER_LEN + len as usize;
        if bytes.len() < end {
            return Err(WireError::Truncated);
        }
        let req = Self::decode(op, &bytes[HEADER_LEN..end])?;
        Ok((req, end))
    }
}

// ---------------------------------------------------------------------------
// Response encode/decode
// ---------------------------------------------------------------------------

impl Response {
    /// This response's opcode.
    pub fn opcode(&self) -> u8 {
        match self {
            Response::Admitted { .. } => opcode::ADMITTED,
            Response::Retired => opcode::RETIRED,
            Response::Applied { .. } => opcode::APPLIED,
            Response::Solution(_) => opcode::SOLUTION,
            Response::Stats(_) => opcode::STATS_OK,
            Response::Delta(_) => opcode::DELTA,
            Response::ShuttingDown => opcode::SHUTTING_DOWN,
            Response::Error { .. } => opcode::ERROR,
        }
    }

    /// Encode the payload body (no header).
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode_payload_into(&mut buf);
        buf
    }

    /// Encode the payload body (no header) by appending to `buf` — the
    /// allocation-free path: a pooled buffer encodes frame after frame
    /// without ever reallocating in steady state.
    pub fn encode_payload_into(&self, buf: &mut Vec<u8>) {
        match self {
            Response::Admitted { id } => put_u32(buf, *id),
            Response::Retired | Response::ShuttingDown => {}
            Response::Applied { added } => put_u32_slice(buf, added),
            Response::Solution(s) => {
                put_u32(buf, s.num_colors);
                put_u32(buf, s.load);
                buf.push(u8::from(s.optimal));
                put_u32(buf, s.shard_count);
                put_str(buf, &s.strategy);
                put_u32(buf, s.colors.len() as u32);
                for &(id, color) in &s.colors {
                    put_u32(buf, id);
                    put_u32(buf, color);
                }
            }
            Response::Stats(s) => {
                for v in [
                    s.live_paths,
                    s.shard_count,
                    s.max_load,
                    s.recomputes,
                    s.shards_reused,
                    s.shards_resolved,
                    s.batches,
                    s.applies,
                    s.queries,
                    s.interned_arc_lists,
                    s.intern_hits,
                    s.intern_misses,
                    s.epoch,
                    s.delta_queries,
                    s.delta_resyncs,
                    s.bytes_in,
                    s.bytes_out,
                    s.busy_rejections,
                    s.max_write_queue,
                ] {
                    put_u64(buf, v);
                }
            }
            Response::Delta(d) => {
                put_u64(buf, d.epoch);
                put_u32(buf, d.span);
                buf.push(u8::from(d.full_resync));
                put_u32(buf, d.changes.len() as u32);
                for &(id, color) in &d.changes {
                    put_u32(buf, id);
                    put_u32(buf, color);
                }
                put_u32_slice(buf, &d.removed);
            }
            Response::Error { code, message } => {
                put_u16(buf, code.to_u16());
                put_str(buf, message);
            }
        }
    }

    /// Full framed bytes (header + payload).
    pub fn to_frame(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_frame_into(&mut out);
        out
    }

    /// Encode the full frame (header + payload) into `out`, clearing it
    /// first. The header's length field is back-patched after the payload
    /// is written, so the body is encoded exactly once, straight into the
    /// (typically pooled) output buffer.
    pub fn encode_frame_into(&self, out: &mut Vec<u8>) {
        out.clear();
        out.push(MAGIC);
        out.push(VERSION);
        out.push(self.opcode());
        out.push(0); // flags, reserved
        out.extend_from_slice(&[0u8; 4]); // length, patched below
        self.encode_payload_into(out);
        let len = (out.len() - HEADER_LEN) as u32;
        out[4..HEADER_LEN].copy_from_slice(&len.to_le_bytes());
    }

    /// Decode a response from an opcode/payload pair. Request opcodes are
    /// [`WireError::UnknownOpcode`] here.
    pub fn decode(op: u8, payload: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(payload);
        let resp = match op {
            opcode::ADMITTED => Response::Admitted { id: r.u32()? },
            opcode::RETIRED => Response::Retired,
            opcode::APPLIED => Response::Applied {
                added: r.u32_vec()?,
            },
            opcode::SOLUTION => {
                let num_colors = r.u32()?;
                let load = r.u32()?;
                let optimal = match r.u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(WireError::Malformed("optimal flag not 0/1")),
                };
                let shard_count = r.u32()?;
                let strategy = r.str()?;
                let n = r.count(8)?;
                let mut colors = Vec::with_capacity(n);
                for _ in 0..n {
                    let id = r.u32()?;
                    let color = r.u32()?;
                    colors.push((id, color));
                }
                Response::Solution(WireSolution {
                    num_colors,
                    load,
                    optimal,
                    shard_count,
                    strategy,
                    colors,
                })
            }
            opcode::STATS_OK => Response::Stats(WireStats {
                live_paths: r.u64()?,
                shard_count: r.u64()?,
                max_load: r.u64()?,
                recomputes: r.u64()?,
                shards_reused: r.u64()?,
                shards_resolved: r.u64()?,
                batches: r.u64()?,
                applies: r.u64()?,
                queries: r.u64()?,
                interned_arc_lists: r.u64()?,
                intern_hits: r.u64()?,
                intern_misses: r.u64()?,
                epoch: r.u64()?,
                delta_queries: r.u64()?,
                delta_resyncs: r.u64()?,
                bytes_in: r.u64()?,
                bytes_out: r.u64()?,
                busy_rejections: r.u64()?,
                max_write_queue: r.u64()?,
            }),
            opcode::DELTA => {
                let epoch = r.u64()?;
                let span = r.u32()?;
                let full_resync = match r.u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(WireError::Malformed("full-resync flag not 0/1")),
                };
                let n = r.count(8)?;
                let mut changes = Vec::with_capacity(n);
                for _ in 0..n {
                    let id = r.u32()?;
                    let color = r.u32()?;
                    changes.push((id, color));
                }
                let removed = r.u32_vec()?;
                Response::Delta(WireDelta {
                    epoch,
                    span,
                    full_resync,
                    changes,
                    removed,
                })
            }
            opcode::SHUTTING_DOWN => Response::ShuttingDown,
            opcode::ERROR => Response::Error {
                code: ErrorCode::from_u16(r.u16()?),
                message: r.str()?,
            },
            other => return Err(WireError::UnknownOpcode(other)),
        };
        r.finish()?;
        Ok(resp)
    }

    /// Decode a response from full frame bytes; returns the message and
    /// the bytes consumed. The exact inverse of [`Response::to_frame`].
    pub fn from_frame(bytes: &[u8]) -> Result<(Self, usize), WireError> {
        let (op, len) = decode_header(bytes)?;
        let end = HEADER_LEN + len as usize;
        if bytes.len() < end {
            return Err(WireError::Truncated);
        }
        let resp = Self::decode(op, &bytes[HEADER_LEN..end])?;
        Ok((resp, end))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_pin_admit_frame_bytes() {
        // The byte layout documented in the module header, pinned exactly:
        // Admit { tenant: 2, arcs: [7, 300] }.
        let req = Request::Admit {
            tenant: 2,
            arcs: vec![7, 300],
        };
        let bytes = req.to_frame();
        #[rustfmt::skip]
        let expected: Vec<u8> = vec![
            0xDA, 0x02, 0x01, 0x00,     // magic, version, opcode, flags
            20, 0, 0, 0,                // payload length
            2, 0, 0, 0, 0, 0, 0, 0,     // tenant u64
            2, 0, 0, 0,                 // arc count
            7, 0, 0, 0,                 // arc 7
            44, 1, 0, 0,                // arc 300
        ];
        assert_eq!(bytes, expected);
        let (back, used) = Request::from_frame(&bytes).unwrap();
        assert_eq!(back, req);
        assert_eq!(used, bytes.len());
    }

    #[test]
    fn spec_pin_query_delta_frame_bytes() {
        // The delta request, pinned exactly:
        // QueryDelta { tenant: 3, since: 9 }.
        let req = Request::QueryDelta {
            tenant: 3,
            since: 9,
        };
        let bytes = req.to_frame();
        #[rustfmt::skip]
        let expected: Vec<u8> = vec![
            0xDA, 0x02, 0x07, 0x00,     // magic, version, opcode, flags
            16, 0, 0, 0,                // payload length
            3, 0, 0, 0, 0, 0, 0, 0,     // tenant u64
            9, 0, 0, 0, 0, 0, 0, 0,     // since-epoch u64
        ];
        assert_eq!(bytes, expected);
        let (back, used) = Request::from_frame(&bytes).unwrap();
        assert_eq!(back, req);
        assert_eq!(used, bytes.len());
    }

    #[test]
    fn delta_response_round_trips() {
        let resp = Response::Delta(WireDelta {
            epoch: 12,
            span: 4,
            full_resync: false,
            changes: vec![(0, 2), (5, 0)],
            removed: vec![3],
        });
        let bytes = resp.to_frame();
        let (back, used) = Response::from_frame(&bytes).unwrap();
        assert_eq!(back, resp);
        assert_eq!(used, bytes.len());
        // A bad resync flag is a typed error, not a panic.
        let mut payload = Vec::new();
        put_u64(&mut payload, 1);
        put_u32(&mut payload, 1);
        payload.push(7); // flag must be 0/1
        put_u32(&mut payload, 0);
        put_u32(&mut payload, 0);
        let bytes = encode_frame(0x87, &payload);
        assert_eq!(
            Response::from_frame(&bytes),
            Err(WireError::Malformed("full-resync flag not 0/1"))
        );
    }

    #[test]
    fn v1_frames_are_rejected() {
        // A v1 peer's frame (version byte 0x01) is an unknown version.
        let mut bytes = Request::Query { tenant: 5 }.to_frame();
        bytes[1] = 0x01;
        assert_eq!(
            Request::from_frame(&bytes),
            Err(WireError::UnknownVersion(1))
        );
        // The v1 (9-counter) and early-v2 (15-counter) stats payloads are
        // short of the one 19-counter layout, even in a current header.
        for counters in [9u64, 15] {
            let mut payload = Vec::new();
            for v in 1..=counters {
                put_u64(&mut payload, v);
            }
            let bytes = encode_frame(0x85, &payload);
            assert_eq!(
                Response::from_frame(&bytes),
                Err(WireError::Truncated),
                "{counters} counters"
            );
        }
        // Every other version byte on either side of VERSION is rejected.
        let good = Request::Shutdown.to_frame();
        for v in [0u8, 1, 3, 9] {
            let mut bad = good.clone();
            bad[1] = v;
            assert_eq!(Request::from_frame(&bad), Err(WireError::UnknownVersion(v)));
        }
    }

    #[test]
    fn header_rejections_are_typed() {
        let good = Request::Shutdown.to_frame();
        let mut bad = good.clone();
        bad[0] = 0x00;
        assert_eq!(Request::from_frame(&bad), Err(WireError::BadMagic(0)));
        let mut bad = good.clone();
        bad[1] = 9;
        assert_eq!(Request::from_frame(&bad), Err(WireError::UnknownVersion(9)));
        let mut bad = good.clone();
        bad[2] = 0x7F;
        assert_eq!(
            Request::from_frame(&bad),
            Err(WireError::UnknownOpcode(0x7F))
        );
        let mut bad = good.clone();
        bad[3] = 1;
        assert_eq!(Request::from_frame(&bad), Err(WireError::NonZeroFlags(1)));
        let mut bad = good;
        bad[4..8].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        assert_eq!(
            Request::from_frame(&bad),
            Err(WireError::Oversized(MAX_PAYLOAD + 1))
        );
    }

    #[test]
    fn forged_count_cannot_allocate_past_payload() {
        // A Batch frame claiming u32::MAX ops in a 12-byte payload must
        // fail with Truncated before any element is allocated.
        let mut payload = Vec::new();
        put_u64(&mut payload, 0);
        put_u32(&mut payload, u32::MAX);
        let bytes = encode_frame(0x03, &payload);
        assert_eq!(Request::from_frame(&bytes), Err(WireError::Truncated));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut payload = Request::Query { tenant: 1 }.encode_payload();
        payload.push(0xAB);
        let bytes = encode_frame(0x04, &payload);
        assert_eq!(Request::from_frame(&bytes), Err(WireError::Trailing(1)));
    }

    #[test]
    fn error_codes_round_trip() {
        for code in [
            ErrorCode::UnknownVersion,
            ErrorCode::UnknownOpcode,
            ErrorCode::Malformed,
            ErrorCode::Oversized,
            ErrorCode::UnknownPath,
            ErrorCode::InvalidPath,
            ErrorCode::SpanBudgetExceeded,
            ErrorCode::Solver,
            ErrorCode::ShuttingDown,
            ErrorCode::Busy,
            ErrorCode::Other(700),
        ] {
            assert_eq!(ErrorCode::from_u16(code.to_u16()), code);
        }
        // Busy's octet is pinned: changing it is a wire break.
        assert_eq!(ErrorCode::Busy.to_u16(), 10);
    }

    #[test]
    fn early_v2_stats_payloads_still_decode() {
        // Only the full layout decodes: a 15-counter stats payload (the
        // pre-transport-counter v2 stage) is Truncated, and a full
        // 19-counter payload round-trips every field.
        let mut payload = Vec::new();
        for v in 1..=15u64 {
            put_u64(&mut payload, v);
        }
        let bytes = encode_frame(0x85, &payload);
        assert_eq!(Response::from_frame(&bytes), Err(WireError::Truncated));

        let full = Response::Stats(WireStats {
            bytes_in: 101,
            bytes_out: 102,
            busy_rejections: 103,
            max_write_queue: 104,
            ..WireStats::default()
        });
        let (back, _) = Response::from_frame(&full.to_frame()).unwrap();
        assert_eq!(back, full);
    }

    #[test]
    fn streaming_decoder_matches_whole_frame_reads() {
        // Three frames delivered one byte at a time come out identical to
        // what from_frame sees, in order, with nothing left over.
        let frames = [
            Request::Admit {
                tenant: 1,
                arcs: vec![3, 4, 5],
            },
            Request::Query { tenant: 2 },
            Request::Shutdown,
        ];
        let bytes: Vec<u8> = frames.iter().flat_map(|f| f.to_frame()).collect();
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for b in &bytes {
            dec.push(std::slice::from_ref(b));
            while let Some((op, payload)) = dec.next_frame().unwrap() {
                got.push(Request::decode(op, payload).unwrap());
            }
        }
        assert_eq!(got, frames);
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn streaming_decoder_header_errors_are_typed_and_early() {
        // An oversized length is rejected as soon as the header is
        // complete — no payload ever buffers.
        let mut dec = FrameDecoder::new();
        let mut header = vec![MAGIC, VERSION, 0x04, 0x00];
        header.extend_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        dec.push(&header[..7]);
        assert_eq!(dec.next_frame(), Ok(None), "incomplete header waits");
        dec.push(&header[7..]);
        assert_eq!(dec.next_frame(), Err(WireError::Oversized(MAX_PAYLOAD + 1)));
        // Bad magic surfaces the same way.
        let mut dec = FrameDecoder::new();
        dec.push(&[0x00; HEADER_LEN]);
        assert_eq!(dec.next_frame(), Err(WireError::BadMagic(0)));
    }

    #[test]
    fn streaming_decoder_reuses_pooled_buffers() {
        let frame = Request::Stats { tenant: 7 }.to_frame();
        let mut dec = FrameDecoder::with_buffer(Vec::with_capacity(READ_CHUNK));
        dec.push(&frame);
        let (op, payload) = dec.next_frame().unwrap().expect("one frame");
        assert_eq!(
            Request::decode(op, payload),
            Ok(Request::Stats { tenant: 7 })
        );
        let buf = dec.into_buffer();
        assert!(buf.is_empty());
        assert!(buf.capacity() >= READ_CHUNK, "pooled capacity survives");
    }

    #[test]
    fn encode_frame_into_matches_to_frame() {
        let resp = Response::Stats(WireStats {
            live_paths: 3,
            bytes_in: 9,
            ..WireStats::default()
        });
        let mut pooled = vec![0xFF; 64]; // stale pooled contents
        resp.encode_frame_into(&mut pooled);
        assert_eq!(pooled, resp.to_frame());
    }
}
