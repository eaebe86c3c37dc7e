//! Load harness for the dagwave-serve service layer: a loopback server,
//! N concurrent writer connections, one reader connection, and the two
//! quantities the D4 report row gates on —
//!
//! 1. **correctness under concurrency**: every writer retires exactly
//!    what it admitted, so the final family equals the initial one and
//!    the served solution must be bit-identical to a from-scratch
//!    `SolveSession` solve of the initial instance (order-independent by
//!    construction);
//! 2. **coalescing**: with writers racing each other while the reader
//!    forces re-solves, the tenant actor must absorb more client mutation
//!    batches than it issues `Workspace::apply` calls
//!    (`batches / applies > 1`).

use std::sync::mpsc;
use std::thread;
use std::time::Instant;

use dagwave_core::{DecomposePolicy, SolverBuilder, Workspace};
use dagwave_gen::compose::federated;
use dagwave_serve::{Client, Server, ServerConfig};

/// What one [`service_load`] run measured.
#[derive(Clone, Debug)]
pub struct ServiceLoadReport {
    /// Total requests served (writer mutations + reader queries).
    pub requests: u64,
    /// Wall-clock of the loaded phase, milliseconds.
    pub elapsed_ms: f64,
    /// Median writer request latency, microseconds.
    pub p50_us: f64,
    /// 99th-percentile writer request latency, microseconds.
    pub p99_us: f64,
    /// Mutation batches the tenant actor accepted.
    pub batches: u64,
    /// `Workspace::apply` calls they coalesced into.
    pub applies: u64,
    /// Whether the final served solution was bit-identical to the
    /// from-scratch reference.
    pub identical: bool,
}

impl ServiceLoadReport {
    /// Requests per second over the loaded phase.
    pub fn requests_per_sec(&self) -> f64 {
        self.requests as f64 / (self.elapsed_ms / 1000.0).max(1e-9)
    }

    /// Client batches absorbed per `Workspace::apply` call.
    pub fn coalesce_ratio(&self) -> f64 {
        self.batches as f64 / self.applies.max(1) as f64
    }
}

/// Run the loopback load: `writers` connections each perform
/// `ops_per_writer` admissions (duplicates of a donor lightpath from the
/// initial family) interleaved with retirements of their own earlier
/// admissions, retiring everything they admitted before disconnecting. A
/// reader connection queries continuously, which keeps the actor busy
/// re-solving and lets writer batches queue up behind it — the condition
/// coalescing exists for.
pub fn service_load(k: usize, writers: usize, ops_per_writer: usize) -> ServiceLoadReport {
    let inst = federated(k);
    let session = || {
        SolverBuilder::new()
            .decompose(DecomposePolicy::Always)
            .build()
    };
    let factory_inst = inst.clone();
    let factory = Box::new(move |_tenant: u64| {
        Workspace::new(
            session(),
            factory_inst.graph.clone(),
            factory_inst.family.clone(),
        )
    });
    let handle = Server::bind("127.0.0.1:0", factory, ServerConfig::default())
        .expect("bind loopback")
        .spawn();
    let addr = handle.addr();

    // Warm the workspace (first solve) outside the timed region, like a
    // steady-state service.
    let mut control = Client::connect(addr).expect("connect control");
    control.query(0).expect("warm-up solve");

    let started = Instant::now();
    let (stop_tx, stop_rx) = mpsc::channel::<()>();
    let reader = thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connect reader");
        let mut queries = 0u64;
        while stop_rx.try_recv().is_err() {
            client.query(0).expect("reader query");
            queries += 1;
        }
        queries
    });

    let writer_joins: Vec<thread::JoinHandle<Vec<f64>>> = (0..writers)
        .map(|w| {
            let donor: Vec<u32> = inst
                .family
                .path(dagwave_paths::PathId((w % inst.family.len()) as u32))
                .arcs()
                .iter()
                .map(|a| a.0)
                .collect();
            thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect writer");
                let mut latencies = Vec::with_capacity(ops_per_writer * 2);
                let mut owned: Vec<u32> = Vec::new();
                for _ in 0..ops_per_writer {
                    let t0 = Instant::now();
                    let id = client.admit(0, donor.clone()).expect("writer admit");
                    latencies.push(t0.elapsed().as_secs_f64() * 1e6);
                    owned.push(id);
                    // Keep at most two of this writer's duplicates live:
                    // adds and removes interleave across writers, and the
                    // donor's conflict component stays about the size of
                    // the other components, so D4 measures the service
                    // step, not one ever-growing shard.
                    if owned.len() >= 2 {
                        let victim = owned.remove(0);
                        let t0 = Instant::now();
                        client.retire(0, victim).expect("writer retire");
                        latencies.push(t0.elapsed().as_secs_f64() * 1e6);
                    }
                }
                for victim in owned {
                    let t0 = Instant::now();
                    client.retire(0, victim).expect("writer drain");
                    latencies.push(t0.elapsed().as_secs_f64() * 1e6);
                }
                latencies
            })
        })
        .collect();

    let mut latencies: Vec<f64> = Vec::new();
    for join in writer_joins {
        latencies.extend(join.join().expect("writer thread"));
    }
    let _ = stop_tx.send(());
    let reader_queries = reader.join().expect("reader thread");
    let elapsed_ms = started.elapsed().as_secs_f64() * 1000.0;

    // Every writer retired everything it admitted, so the family is back
    // to the initial instance — compare against from-scratch, which no
    // interleaving can perturb.
    let served = control.query(0).expect("final query");
    let scratch = session()
        .solve(&inst.graph, &inst.family)
        .expect("reference solve");
    let expected: Vec<(u32, u32)> = (0..inst.family.len() as u32)
        .zip(scratch.assignment.colors().iter().map(|&c| c as u32))
        .collect();
    let identical = served.num_colors as usize == scratch.num_colors
        && served.load as usize == scratch.load
        && served.optimal == scratch.optimal
        && served.strategy == scratch.strategy.to_string()
        && served.colors == expected;

    let stats = control.stats(0).expect("final stats");
    control.shutdown().expect("shutdown");
    handle.join().expect("server exits");

    latencies.sort_by(|a, b| a.total_cmp(b));
    let pct = |p: f64| -> f64 {
        if latencies.is_empty() {
            return 0.0;
        }
        let idx = ((latencies.len() - 1) as f64 * p).round() as usize;
        latencies[idx]
    };
    ServiceLoadReport {
        requests: latencies.len() as u64 + reader_queries,
        elapsed_ms,
        p50_us: pct(0.50),
        p99_us: pct(0.99),
        batches: stats.batches,
        applies: stats.applies,
        identical,
    }
}

/// What one [`connection_scaling`] run measured (the D6 report row).
#[derive(Clone, Debug)]
pub struct ConnScalingReport {
    /// Concurrent client connections driven.
    pub connections: usize,
    /// Total requests served across all connections.
    pub requests: u64,
    /// Wall-clock of the loaded phase, milliseconds.
    pub elapsed_ms: f64,
    /// Median request latency, microseconds.
    pub p50_us: f64,
    /// 99th-percentile request latency, microseconds.
    pub p99_us: f64,
    /// OS threads in this process while every connection was live, minus
    /// the pre-serve baseline: what connection count actually costs.
    pub thread_delta: usize,
    /// Whether the final served solution was bit-identical to the
    /// from-scratch reference.
    pub identical: bool,
}

impl ConnScalingReport {
    /// Requests per second over the loaded phase.
    pub fn requests_per_sec(&self) -> f64 {
        self.requests as f64 / (self.elapsed_ms / 1000.0).max(1e-9)
    }
}

/// Current OS thread count of this process (`/proc/self/status`), or 0
/// where procfs is unavailable — the D6 gate only runs on Linux CI.
pub fn os_threads() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Threads:"))
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Connection-scaling load: `conns` concurrent connections each admit a
/// donor duplicate, query, and retire it, `ops_per_conn` times. All
/// connections hold open for the whole run (the barrier makes the thread
/// count peak measurable), every connection retires what it admitted, and
/// the final solution is checked bit-identical to a from-scratch solve.
pub fn connection_scaling(k: usize, conns: usize, ops_per_conn: usize) -> ConnScalingReport {
    let inst = federated(k);
    let session = || {
        SolverBuilder::new()
            .decompose(DecomposePolicy::Always)
            .build()
    };
    let factory_inst = inst.clone();
    let factory = Box::new(move |_tenant: u64| {
        Workspace::new(
            session(),
            factory_inst.graph.clone(),
            factory_inst.family.clone(),
        )
    });
    let baseline_threads = os_threads();
    let handle = Server::bind("127.0.0.1:0", factory, ServerConfig::default())
        .expect("bind loopback")
        .spawn();
    let addr = handle.addr();

    let mut control = Client::connect(addr).expect("connect control");
    control.query(0).expect("warm-up solve");

    // Connect everyone before the timed phase; a start gate (one channel
    // per worker, blocking recv) parks the workers until the peak-thread
    // measurement is taken.
    let (ready_tx, ready_rx) = mpsc::channel::<()>();
    let mut gates: Vec<mpsc::Sender<()>> = Vec::with_capacity(conns);
    let joins: Vec<thread::JoinHandle<Vec<f64>>> = (0..conns)
        .map(|w| {
            let donor: Vec<u32> = inst
                .family
                .path(dagwave_paths::PathId((w % inst.family.len()) as u32))
                .arcs()
                .iter()
                .map(|a| a.0)
                .collect();
            let ready = ready_tx.clone();
            let (gate_tx, gate_rx) = mpsc::channel::<()>();
            gates.push(gate_tx);
            thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect conn");
                // First round-trip proves the connection is being served
                // (the reactor has registered it), then park at the gate.
                client.query(0).expect("connection live");
                ready.send(()).expect("report ready");
                gate_rx.recv().expect("start signal");
                let mut latencies = Vec::with_capacity(ops_per_conn * 3);
                for _ in 0..ops_per_conn {
                    let t0 = Instant::now();
                    let id = client.admit(0, donor.clone()).expect("admit");
                    latencies.push(t0.elapsed().as_secs_f64() * 1e6);
                    let t0 = Instant::now();
                    client.query(0).expect("query");
                    latencies.push(t0.elapsed().as_secs_f64() * 1e6);
                    let t0 = Instant::now();
                    client.retire(0, id).expect("retire");
                    latencies.push(t0.elapsed().as_secs_f64() * 1e6);
                }
                latencies
            })
        })
        .collect();
    drop(ready_tx);
    for _ in 0..conns {
        ready_rx.recv().expect("worker ready");
    }
    // Every connection is live and served: this is the peak the thread
    // count gate cares about. The client threads themselves are part of
    // the process, so subtract them along with the pre-serve baseline —
    // what remains is what the *server* spent on `conns` connections.
    let peak_threads = os_threads();
    let thread_delta = peak_threads
        .saturating_sub(baseline_threads)
        .saturating_sub(conns);

    let started = Instant::now();
    for gate in &gates {
        gate.send(()).expect("release worker");
    }
    let mut latencies: Vec<f64> = Vec::new();
    for join in joins {
        latencies.extend(join.join().expect("conn thread"));
    }
    let elapsed_ms = started.elapsed().as_secs_f64() * 1000.0;

    let served = control.query(0).expect("final query");
    let scratch = session()
        .solve(&inst.graph, &inst.family)
        .expect("reference solve");
    let expected: Vec<(u32, u32)> = (0..inst.family.len() as u32)
        .zip(scratch.assignment.colors().iter().map(|&c| c as u32))
        .collect();
    let identical = served.num_colors as usize == scratch.num_colors
        && served.load as usize == scratch.load
        && served.optimal == scratch.optimal
        && served.strategy == scratch.strategy.to_string()
        && served.colors == expected;
    control.shutdown().expect("shutdown");
    handle.join().expect("server exits");

    latencies.sort_by(|a, b| a.total_cmp(b));
    let pct = |p: f64| -> f64 {
        if latencies.is_empty() {
            return 0.0;
        }
        let idx = ((latencies.len() - 1) as f64 * p).round() as usize;
        latencies[idx]
    };
    ConnScalingReport {
        connections: conns,
        requests: latencies.len() as u64,
        elapsed_ms,
        p50_us: pct(0.50),
        p99_us: pct(0.99),
        thread_delta,
        identical,
    }
}
