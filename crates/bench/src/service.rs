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
//!
//! It also holds the D6 connection-scaling load and the D7 cross-tenant
//! stall probe.

use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use dagwave_core::{DecomposePolicy, Solution, SolveSession, SolverBuilder, Workspace};
use dagwave_gen::compose::federated;
use dagwave_gen::figures::figure3;
use dagwave_paths::{Dipath, DipathFamily};
use dagwave_serve::{Client, Server, ServerConfig, WireOp, WireSolution};

/// The session every served tenant here solves with, and its from-scratch
/// reference: decomposed, as `dagwave-serve` builds tenants.
fn session() -> SolveSession {
    SolverBuilder::new()
        .decompose(DecomposePolicy::Always)
        .build()
}

/// Whether a served solution is bit-identical to a from-scratch solve
/// whose family holds stable id `i` at dense rank `i`.
fn same_as_scratch(served: &WireSolution, scratch: &Solution) -> bool {
    let expected: Vec<(u32, u32)> = (0u32..)
        .zip(scratch.assignment.colors().iter().map(|&c| c as u32))
        .collect();
    served.num_colors as usize == scratch.num_colors
        && served.load as usize == scratch.load
        && served.optimal == scratch.optimal
        && served.strategy == scratch.strategy.to_string()
        && served.colors == expected
}

/// Sample at quantile `p` of ascending `sorted` (0 when empty).
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[((sorted.len() - 1) as f64 * p).round() as usize]
}

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
    let identical = same_as_scratch(&served, &scratch);

    let stats = control.stats(0).expect("final stats");
    control.shutdown().expect("shutdown");
    handle.join().expect("server exits");

    latencies.sort_by(|a, b| a.total_cmp(b));
    ServiceLoadReport {
        requests: latencies.len() as u64 + reader_queries,
        elapsed_ms,
        p50_us: percentile(&latencies, 0.50),
        p99_us: percentile(&latencies, 0.99),
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
    let identical = same_as_scratch(&served, &scratch);
    control.shutdown().expect("shutdown");
    handle.join().expect("server exits");

    latencies.sort_by(|a, b| a.total_cmp(b));
    ConnScalingReport {
        connections: conns,
        requests: latencies.len() as u64,
        elapsed_ms,
        p50_us: percentile(&latencies, 0.50),
        p99_us: percentile(&latencies, 0.99),
        thread_delta,
        identical,
    }
}

/// What one [`cross_tenant_stall`] run measured (the D7 report row).
#[derive(Clone, Debug)]
pub struct StallReport {
    /// Copies of Figure 3's five dipaths tenant 0 admitted in one batch.
    pub copies: usize,
    /// Tenant 0's `Batch` of every copy plus the `QueryDelta` after it,
    /// milliseconds.
    pub batch_refresh_ms: f64,
    /// Tenant 1's median step before the batch was sent, microseconds.
    pub p50_before_us: f64,
    /// Tenant 1's slowest step among those that overlapped the batch,
    /// microseconds.
    pub worst_during_us: f64,
    /// Whether both tenants' final `Query` was bit-identical to a
    /// from-scratch solve.
    pub identical: bool,
}

/// Tenant 1's steps before tenant 0's batch goes out.
const STALL_WARMUP_STEPS: usize = 200;

/// Cross-tenant stall: tenant 0 sits on Figure 3's host with no dipaths
/// and receives `copies` copies of its five dipaths (a C5 conflict graph
/// each) as one `Batch`, then a `QueryDelta`. Meanwhile tenant 1, on
/// `federated(8)`, loops admit / delta / retire / delta on another
/// connection. A server that runs both tenants on one thread makes every
/// tenant-1 step that meets the batch wait for it. Both tenants' final
/// `Query` is checked against a from-scratch solve; nothing is gated on
/// time.
pub fn cross_tenant_stall(copies: usize) -> StallReport {
    let fig = figure3();
    let fed = federated(8);
    let (host, steady) = (fig.graph.clone(), fed.clone());
    let factory = Box::new(move |tenant: u64| match tenant {
        0 => Workspace::new(session(), host.clone(), DipathFamily::new()),
        _ => Workspace::new(session(), steady.graph.clone(), steady.family.clone()),
    });
    let handle = Server::bind("127.0.0.1:0", factory, ServerConfig::default())
        .expect("bind loopback")
        .spawn();
    let addr = handle.addr();

    let donor: Vec<u32> = fed
        .family
        .path(dagwave_paths::PathId(0))
        .arcs()
        .iter()
        .map(|a| a.0)
        .collect();
    let (warm_tx, warm_rx) = mpsc::channel::<()>();
    let (stop_tx, stop_rx) = mpsc::channel::<()>();
    let stepper = thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connect tenant 1");
        let mut epoch = client.query_delta(1, 0).expect("first sync").epoch;
        let mut steps: Vec<(Instant, Duration)> = Vec::new();
        while stop_rx.try_recv().is_err() {
            let t0 = Instant::now();
            let id = client.admit(1, donor.clone()).expect("tenant 1 admit");
            epoch = client.query_delta(1, epoch).expect("tenant 1 delta").epoch;
            client.retire(1, id).expect("tenant 1 retire");
            epoch = client.query_delta(1, epoch).expect("tenant 1 delta").epoch;
            steps.push((t0, t0.elapsed()));
            if steps.len() == STALL_WARMUP_STEPS {
                let _ = warm_tx.send(());
            }
        }
        steps
    });

    let mut client = Client::connect(addr).expect("connect tenant 0");
    let epoch = client.query_delta(0, 0).expect("tenant 0 opens").epoch;
    let paths: Vec<Dipath> = (0..copies)
        .flat_map(|_| fig.family.iter().map(|(_, p)| p.clone()))
        .collect();
    let ops: Vec<WireOp> = paths
        .iter()
        .map(|p| WireOp::Add(p.arcs().iter().map(|a| a.0).collect()))
        .collect();
    warm_rx.recv().expect("tenant 1 warmed up");
    let start = Instant::now();
    client.batch(0, ops).expect("tenant 0 batch");
    client.query_delta(0, epoch).expect("tenant 0 refresh");
    let end = Instant::now();
    // Tenant 1 checks for the stop only between steps, so the step the
    // batch held up still completes and is recorded.
    let _ = stop_tx.send(());
    let steps = stepper.join().expect("tenant 1 thread");

    let mut before: Vec<f64> = steps
        .iter()
        .filter(|&&(t0, d)| t0 + d <= start)
        .map(|&(_, d)| d.as_secs_f64() * 1e6)
        .collect();
    before.sort_by(|a, b| a.total_cmp(b));
    let worst_during_us = steps
        .iter()
        .filter(|&&(t0, d)| t0 < end && t0 + d > start)
        .map(|&(_, d)| d.as_secs_f64() * 1e6)
        .fold(0.0, f64::max);

    let family = DipathFamily::from_paths(paths);
    let scratch = session()
        .solve(&fig.graph, &family)
        .expect("tenant 0 reference solve");
    let identical_0 = same_as_scratch(&client.query(0).expect("tenant 0 query"), &scratch);
    let scratch = session()
        .solve(&fed.graph, &fed.family)
        .expect("tenant 1 reference solve");
    let identical_1 = same_as_scratch(&client.query(1).expect("tenant 1 query"), &scratch);
    client.shutdown().expect("shutdown");
    handle.join().expect("server exits");

    StallReport {
        copies,
        batch_refresh_ms: (end - start).as_secs_f64() * 1e3,
        p50_before_us: percentile(&before, 0.50),
        worst_during_us,
        identical: identical_0 && identical_1,
    }
}
