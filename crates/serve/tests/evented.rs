//! Adversarial-framing and backpressure tests for the `poll(2)` reactor:
//! raw sockets delivering bytes one at a time, frames split across reads,
//! pipelined requests, slow readers with full write queues, and the
//! thread count as connections and tenants grow. Everything here talks
//! to a real server over loopback TCP — no mocking.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use dagwave_core::Workspace;
use dagwave_gen::compose::federated;
use dagwave_graph::builder::from_edges;
use dagwave_paths::DipathFamily;
use dagwave_serve::protocol::{FrameDecoder, HEADER_LEN};
use dagwave_serve::{Client, FrontEnd, Request, Response, Server, ServerConfig, ServerHandle};

/// Every server test here takes this lock first. The thread-count tests
/// read the whole process's `Threads:`, which a server started or stopped
/// by a test running beside them would move.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// This process's OS thread count (`/proc/self/status`).
fn os_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("proc status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("Threads: line")
}

fn line_server(n: usize, config: ServerConfig) -> ServerHandle {
    let factory = Box::new(move |_tenant: u64| {
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        Workspace::new(
            dagwave_core::SolveSession::auto(),
            from_edges(n, &edges),
            DipathFamily::new(),
        )
    });
    Server::bind("127.0.0.1:0", factory, config)
        .expect("bind loopback")
        .spawn()
}

fn federated_server(k: usize, config: ServerConfig) -> ServerHandle {
    let inst = federated(k);
    let factory = Box::new(move |_tenant: u64| {
        Workspace::new(
            dagwave_core::SolveSession::auto(),
            inst.graph.clone(),
            inst.family.clone(),
        )
    });
    Server::bind("127.0.0.1:0", factory, config)
        .expect("bind loopback")
        .spawn()
}

/// Read exactly one response frame off a raw stream.
fn read_response(stream: &mut TcpStream) -> Response {
    let mut dec = FrameDecoder::new();
    loop {
        if let Some((op, payload)) = dec.next_frame().expect("well-formed response") {
            return Response::decode(op, payload).expect("decodable response");
        }
        let mut byte = [0u8; 1];
        assert_ne!(
            stream.read(&mut byte).expect("read"),
            0,
            "server closed before responding"
        );
        dec.push(&byte);
    }
}

/// Byte-at-a-time delivery: the reactor's incremental decoder must
/// assemble frames no matter how pathologically the kernel fragments
/// them, and every response must still arrive in order.
#[test]
fn byte_at_a_time_delivery_still_serves() {
    let _serial = serial();
    let handle = line_server(4, ServerConfig::default());
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");

    for (i, req) in [
        Request::Admit {
            tenant: 0,
            arcs: vec![0, 1],
        },
        Request::Admit {
            tenant: 0,
            arcs: vec![1, 2],
        },
        Request::Query { tenant: 0 },
    ]
    .iter()
    .enumerate()
    {
        for byte in req.to_frame() {
            stream.write_all(&[byte]).expect("write one byte");
            stream.flush().expect("flush");
        }
        match (i, read_response(&mut stream)) {
            (0, Response::Admitted { id }) => assert_eq!(id, 0),
            (1, Response::Admitted { id }) => assert_eq!(id, 1),
            (2, Response::Solution(s)) => assert_eq!(s.num_colors, 2),
            (_, other) => panic!("unexpected response {other:?}"),
        }
    }

    let mut client = Client::connect(handle.addr()).expect("connect");
    client.shutdown().expect("shutdown");
    handle.join().expect("clean exit");
}

/// Frames split across arbitrary write boundaries — including a split
/// mid-header and a split mid-payload — decode identically.
#[test]
fn frames_split_across_reads_decode_identically() {
    let _serial = serial();
    let handle = line_server(4, ServerConfig::default());
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");

    let frame = Request::Admit {
        tenant: 0,
        arcs: vec![0, 1, 2],
    }
    .to_frame();
    // Split points chosen to land inside the header (3), exactly at the
    // header boundary (HEADER_LEN), and inside the payload.
    let cuts = [3, HEADER_LEN, HEADER_LEN + 5];
    let mut start = 0;
    for &cut in &cuts {
        stream.write_all(&frame[start..cut]).expect("partial write");
        stream.flush().expect("flush");
        // Give the reactor a readiness cycle on the partial frame.
        std::thread::sleep(Duration::from_millis(5));
        start = cut;
    }
    stream.write_all(&frame[start..]).expect("final piece");
    stream.flush().expect("flush");
    match read_response(&mut stream) {
        Response::Admitted { id } => assert_eq!(id, 0),
        other => panic!("unexpected response {other:?}"),
    }

    let mut client = Client::connect(handle.addr()).expect("connect");
    client.shutdown().expect("shutdown");
    handle.join().expect("clean exit");
}

/// Two frames written back-to-back in one TCP segment: the decoder must
/// find both, and the one-frame-per-round rule must answer them in order.
#[test]
fn pipelined_frames_answer_in_order() {
    let _serial = serial();
    let handle = line_server(5, ServerConfig::default());
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");

    let mut bytes = Vec::new();
    bytes.extend_from_slice(
        &Request::Admit {
            tenant: 0,
            arcs: vec![0],
        }
        .to_frame(),
    );
    bytes.extend_from_slice(
        &Request::Admit {
            tenant: 0,
            arcs: vec![1],
        }
        .to_frame(),
    );
    bytes.extend_from_slice(&Request::Query { tenant: 0 }.to_frame());
    stream.write_all(&bytes).expect("write all three at once");
    stream.flush().expect("flush");

    match read_response(&mut stream) {
        Response::Admitted { id } => assert_eq!(id, 0),
        other => panic!("first response: {other:?}"),
    }
    match read_response(&mut stream) {
        Response::Admitted { id } => assert_eq!(id, 1),
        other => panic!("second response: {other:?}"),
    }
    match read_response(&mut stream) {
        Response::Solution(s) => assert_eq!(s.num_colors, 1, "disjoint arcs share a color"),
        other => panic!("third response: {other:?}"),
    }

    let mut client = Client::connect(handle.addr()).expect("connect");
    client.shutdown().expect("shutdown");
    handle.join().expect("clean exit");
}

/// A slow reader whose write queue fills must not wedge the reactor:
/// while the slow client refuses to read its (large) query responses, a
/// second client on the same server keeps getting served. The slow
/// client's responses all arrive intact once it finally drains.
#[test]
fn slow_reader_backpressure_keeps_the_loop_live() {
    let _serial = serial();
    // Tiny write buffer so backpressure engages after one queued response.
    let config = ServerConfig {
        max_write_buffer: 1024,
        ..ServerConfig::default()
    };
    let handle = federated_server(3, config);

    let mut slow = TcpStream::connect(handle.addr()).expect("connect slow");
    // Many pipelined queries; the federated(3) solution payload is big
    // enough that a handful of responses exceed max_write_buffer.
    const QUERIES: usize = 64;
    let mut bytes = Vec::new();
    for _ in 0..QUERIES {
        bytes.extend_from_slice(&Request::Query { tenant: 0 }.to_frame());
    }
    slow.write_all(&bytes).expect("pipeline queries");
    slow.flush().expect("flush");
    // Do NOT read yet: let the write queue fill and reading pause.
    std::thread::sleep(Duration::from_millis(50));

    // The loop must still serve others while the slow client is parked.
    let mut live = Client::connect(handle.addr()).expect("connect live");
    for _ in 0..5 {
        let s = live
            .query(1)
            .expect("live client served during backpressure");
        assert!(s.num_colors > 0);
    }

    // Now drain the slow connection: every response arrives, in order.
    slow.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let mut first: Option<Vec<(u32, u32)>> = None;
    let mut dec = FrameDecoder::new();
    let mut buf = [0u8; 4096];
    let mut seen = 0;
    while seen < QUERIES {
        if let Some((op, payload)) = dec.next_frame().expect("valid response stream") {
            match Response::decode(op, payload).expect("decodable") {
                Response::Solution(s) => {
                    let colors = s.colors;
                    match &first {
                        None => first = Some(colors),
                        Some(f) => assert_eq!(f, &colors, "responses diverged mid-stream"),
                    }
                    seen += 1;
                }
                other => panic!("unexpected response {other:?}"),
            }
            continue;
        }
        let n = slow.read(&mut buf).expect("drain");
        assert_ne!(n, 0, "server closed with {seen}/{QUERIES} responses served");
        dec.push(&buf[..n]);
    }

    let mut client = Client::connect(handle.addr()).expect("connect");
    client.shutdown().expect("shutdown");
    handle.join().expect("clean exit");
}

/// Eight writers racing on one tenant are all served: no request hangs,
/// fails or is refused as busy, and the tenant's counters account for
/// every batch.
#[test]
fn concurrent_writers_are_all_served() {
    let _serial = serial();
    let handle = line_server(4, ServerConfig::default());
    let addr = handle.addr();
    let writers: Vec<_> = (0..8)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for _ in 0..50 {
                    let id = client.admit(0, vec![0, 1]).expect("admit under load");
                    client.retire(0, id).expect("retire under load");
                }
            })
        })
        .collect();
    for writer in writers {
        writer.join().expect("writer");
    }
    let mut client = Client::connect(addr).expect("connect");
    let stats = client.stats(0).expect("stats");
    assert_eq!(stats.live_paths, 0, "every writer retired what it admitted");
    assert_eq!(stats.batches, 8 * 50 * 2);
    assert!(stats.applies <= stats.batches);
    assert_eq!(stats.busy_rejections, 0);
    client.shutdown().expect("shutdown");
    handle.join().expect("clean exit");
}

/// The reactor's whole point: OS thread count stays flat as
/// connections scale. 128 concurrent connections may add at most 4
/// threads over the 8-connection baseline (in practice: zero — the
/// reactor is one thread regardless).
#[test]
fn thread_count_is_flat_in_connection_count() {
    let _serial = serial();
    let handle = line_server(4, ServerConfig::default());
    let addr = handle.addr();

    let mut base_conns: Vec<Client> = (0..8)
        .map(|_| Client::connect(addr).expect("connect"))
        .collect();
    for c in &mut base_conns {
        c.query(0).expect("serve baseline");
    }
    let baseline = os_threads();

    let mut many: Vec<Client> = (0..120)
        .map(|_| Client::connect(addr).expect("connect"))
        .collect();
    for c in &mut many {
        c.query(0).expect("every connection is served");
    }
    let loaded = os_threads();
    assert!(
        loaded <= baseline + 4,
        "reactor grew {baseline} -> {loaded} threads under 128 connections"
    );

    drop(many);
    let mut client = Client::connect(addr).expect("connect");
    client.shutdown().expect("shutdown");
    handle.join().expect("clean exit");
    drop(base_conns);
}

/// Tenants cost no threads: the reactor runs every tenant's steps
/// itself. After one served query (so any pool workers the solves use
/// exist by then), opening 32 more tenant ids from one connection leaves
/// the process's thread count unchanged.
#[test]
fn tenant_count_costs_no_threads() {
    let _serial = serial();
    let handle = federated_server(2, ServerConfig::default());
    let mut client = Client::connect(handle.addr()).expect("connect");
    client.query(0).expect("first tenant served");
    let before = os_threads();
    for tenant in 1..=32 {
        let s = client.query(tenant).expect("every tenant is served");
        assert!(s.num_colors > 0);
    }
    let after = os_threads();
    assert_eq!(after, before, "32 more tenants moved the thread count");
    client.shutdown().expect("shutdown");
    handle.join().expect("clean exit");
}

/// ServerConfig::default matches the documented knob values (the
/// reactor's backpressure story depends on the write cap existing), and
/// the default connection model is the reactor.
#[test]
fn bounded_defaults_are_in_force() {
    let sc = ServerConfig::default();
    assert!(sc.max_write_buffer > 0);
    assert_eq!(sc.front_end, FrontEnd::Evented);
}
