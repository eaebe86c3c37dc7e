//! Regenerates every paper-vs-measured number (the EXPERIMENTS.md data)
//! in one run and maintains the persistent benchmark record in
//! `EXPERIMENTS.md`. It is the workspace's one measurement harness: every
//! row asserts the claim it prints while the table is generated.
//!
//! Modes:
//!
//! * (no args) — print the paper-vs-measured table;
//! * `--speedup` — run the comparison suite (each engine path against
//!   its reference: decomposed against monolithic solving on the federated
//!   multi-component family, and the incremental workspace against
//!   from-scratch re-solves on two churn workloads) and print the ratio
//!   table;
//! * `--experiments [path]` — regenerate the paper table and the
//!   comparison table, rewrite the corresponding sections of
//!   `EXPERIMENTS.md` (default path), and append a line to its run history;
//! * `--baseline [path]` — measure the timing suite and (re)write the
//!   committed wall-clock baseline section;
//! * `--check [path]` — re-measure and compare against the committed
//!   baseline; exits non-zero if any op regressed by more than 20 %
//!   (override with `DAGWAVE_BENCH_TOLERANCE`, a fraction). Timings are
//!   normalized by a fixed arithmetic calibration loop measured on both
//!   sides, which absorbs most machine-speed differences between the
//!   committing host and CI, and each op is also held to the rest of the
//!   suite's speed. Both sides time each op as the median of every sample
//!   from several processes;
//! * `--timings` — one process's samples, as `key = ms` lines (what
//!   `--baseline` and `--check` run).
//!
//! Run with: `cargo run -p dagwave-bench --bin report --release [-- MODE]`

use dagwave_bench::peak_rss_cell;
use dagwave_core::theorem1;
use dagwave_core::{
    bounds, internal, theorem6, witness, BackendKind, DecomposePolicy, Epoch, Mutation, Solution,
    SolveSession, SolverBuilder, Workspace,
};
use dagwave_gen::{compose, figures, havet, random, theorem2};
use dagwave_graph::Digraph;
use dagwave_paths::{
    conflict_components, load, Dipath, DipathFamily, PathFamily, PathId, SubInstance,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// D3's shape gate: the O(dirty) service step may grow at most this much
/// while `|P|` grows 16×.
const D3_MAX_GROWTH: f64 = 2.0;

/// Captures every table row so `--experiments` can persist what was printed.
static SINK: Mutex<Vec<String>> = Mutex::new(Vec::new());

fn row(exp: &str, param: &str, claimed: &str, measured: &str) {
    let line = format!("| {exp} | {param} | {claimed} | {measured} |");
    println!("{line}");
    SINK.lock().unwrap().push(line);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let path = |i: usize| {
        args.get(i)
            .cloned()
            .unwrap_or_else(|| "EXPERIMENTS.md".to_string())
    };
    match args.first().map(|s| s.as_str()) {
        None => paper_report(),
        Some("--speedup") => {
            let comps = speedup_suite();
            print!("{}", speedup_table(&comps));
        }
        Some("--service") => service_row(),
        Some("--connections") => connections_row(),
        Some("--stall") => stall_row(),
        Some("--experiments") => write_experiments(&path(1)),
        Some("--baseline") => write_baseline(&path(1)),
        Some("--timings") => print!("{}", timings_text(TIMING_PASSES)),
        Some("--check") => {
            if !check_regression(&path(1)) {
                std::process::exit(1);
            }
        }
        Some(other) => {
            eprintln!(
                "unknown mode {other:?}; expected --speedup, --service, \
                 --connections, --stall, --experiments, --baseline, --check, or --timings"
            );
            std::process::exit(2);
        }
    }
}

/// The paper-vs-measured table (also fills [`SINK`]).
fn paper_report() {
    println!("# dagwave experiment report\n");
    println!("| experiment | parameters | paper claim | measured |");
    println!("|------------|------------|-------------|----------|");

    // F1 — Figure 1 staircase.
    for k in [2usize, 4, 8, 12, 16, 24] {
        let inst = figures::staircase(k);
        let sol = SolveSession::auto()
            .solve(&inst.graph, &inst.family)
            .unwrap();
        assert!(sol.assignment.is_valid(&inst.graph, &inst.family));
        assert_eq!(sol.load, 2, "staircase k={k}: π = 2 at any k");
        assert_eq!(sol.num_colors, k, "staircase k={k}: conflict graph K_k");
        row(
            "F1 staircase",
            &format!("k={k}"),
            "π=2, w=k (unbounded ratio)",
            &format!("π={}, w={}", sol.load, sol.num_colors),
        );
    }

    // F2 — Figure 2 cycle taxonomy. The detector also reports zero
    // internal cycles on every generated internal-cycle-free DAG.
    for n in [100usize, 400, 1600] {
        let mut rng = ChaCha8Rng::seed_from_u64(n as u64);
        let clean = random::random_internal_cycle_free(&mut rng, n, n / 3);
        assert!(internal::is_internal_cycle_free(&clean), "n={n}");
    }
    row(
        "F2 oriented cycle (2a)",
        "diamond",
        "not internal (source+sink on cycle)",
        &format!(
            "internal cycles = {}",
            internal::internal_cycle_count(&figures::oriented_cycle_demo())
        ),
    );
    row(
        "F2 internal cycle (2b)",
        "guarded diamond",
        "internal (all vertices interior)",
        &format!(
            "internal cycles = {}",
            internal::internal_cycle_count(&figures::internal_cycle_demo())
        ),
    );

    // F3 — Figure 3.
    {
        let inst = figures::figure3();
        let sol = SolveSession::auto()
            .solve(&inst.graph, &inst.family)
            .unwrap();
        assert_eq!((sol.load, sol.num_colors), (2, 3), "figure 3: π=2, w=3");
        row(
            "F3 C5 instance",
            "5 dipaths",
            "π=2, w=3 (conflict graph C5)",
            &format!("π={}, w={}", sol.load, sol.num_colors),
        );
        // The replicated family needs ⌈5h/2⌉ wavelengths. The copies are
        // true twins, so exact colors the weighted C5 quotient and proves
        // every count; h = 16 is 80 dipaths, the exact_limit. Up to 9
        // copies a solve (best of 3) stays under 1 ms.
        let mut widths = Vec::new();
        let mut slowest_ms = 0.0f64;
        for h in (1usize..=9).chain([16]) {
            let family = inst.family.replicate(h);
            let (ms, rep) = time_ms_with(3, || {
                SolveSession::auto().solve(&inst.graph, &family).unwrap()
            });
            assert!(rep.assignment.is_valid(&inst.graph, &family));
            assert_eq!(rep.num_colors, bounds::c5_wavelengths(h), "C5 × {h}");
            assert!(rep.optimal, "C5 × {h}: not proven optimal");
            assert_eq!(rep.strategy, BackendKind::Exact, "C5 × {h}");
            if h <= 9 {
                assert!(ms < 1.0, "C5 × {h}: {ms:.3} ms per solve");
                slowest_ms = slowest_ms.max(ms);
            }
            widths.push(rep.num_colors.to_string());
        }
        row(
            "F3 C5 × h",
            "h=1…9, 16",
            "w=⌈5h/2⌉",
            &format!(
                "w={}, each proven by exact; ≤{slowest_ms:.2} ms per solve up to h=9",
                widths.join(",")
            ),
        );
    }

    // F4 — obstruction walk on Figure 3 (the proof's case C): the blocked
    // chain itself yields the internal cycle (Figure 4's extraction).
    {
        let inst = figures::figure3();
        let Err(dagwave_core::CoreError::InternalCycleObstruction { chain }) =
            theorem1::color_optimal(&inst.graph, &inst.family)
        else {
            panic!("figure 3's family must block Theorem 1's replay");
        };
        let cycle = witness::internal_cycle_from_chain(&inst.graph, &inst.family, &chain)
            .expect("the blocked chain witnesses an internal cycle");
        assert!(internal::is_internal_cycle(&inst.graph, &cycle));
        assert!(
            cycle.steps.iter().all(|step| chain
                .iter()
                .any(|&p| inst.family.path(p).contains_arc(step.arc))),
            "the witness lies inside the chain's support"
        );
        row(
            "F4 recoloring walk",
            "figure-3 family",
            "cascade blocked ⇒ internal cycle",
            &format!(
                "chain of {} dipaths; its witness: internal cycle of {} arcs on the chain",
                chain.len(),
                cycle.len()
            ),
        );
    }

    // F5 — Figure 5 / Theorem 2 generalized.
    for k in [2usize, 4, 8, 16] {
        let inst = figures::theorem2_family(k);
        let sol = SolveSession::auto()
            .solve(&inst.graph, &inst.family)
            .unwrap();
        assert_eq!((sol.load, sol.num_colors), (2, 3), "odd-cycle k={k}");
        row(
            "F5 odd-cycle family",
            &format!("k={k}, 2k+1={} dipaths", 2 * k + 1),
            "π=2, w=3",
            &format!("π={}, w={}", sol.load, sol.num_colors),
        );
    }

    // Theorem 2 witness on arbitrary internal cycles.
    for (name, g) in [
        ("figure-3 graph", figures::figure3().graph),
        ("havet graph", havet::havet_graph()),
        ("fig-5 k=5 graph", figures::theorem2_family(5).graph),
    ] {
        let fam = theorem2::witness_family(&g).unwrap();
        let sol = SolveSession::auto().solve(&g, &fam).unwrap();
        row(
            "T2 generic witness",
            name,
            "π=2, w=3 on any internal cycle",
            &format!("π={}, w={}", load::max_load(&g, &fam), sol.num_colors),
        );
    }

    // F8 — crossing lemma C4.
    {
        let inst = figures::crossing_c4();
        let cg = dagwave_paths::ConflictGraph::build(&inst.graph, &inst.family);
        row(
            "F8 crossing pattern",
            "4 dipaths",
            "conflict graph C4, UPP legal",
            &format!(
                "edges={}, UPP={}",
                cg.edge_count(),
                dagwave_graph::pathcount::is_upp(&inst.graph)
            ),
        );
    }

    // F9 / Theorem 7 — Havet series. From h = 2 on the copies are twins and
    // the weighted rescue proves ⌈8h/3⌉; h = 1 has no twins, so it declines
    // there and Theorem 6's count stands unproven. Each solve is the best
    // of 3.
    for h in 1..=8usize {
        let inst = havet::havet(h);
        let (ms, sol) = time_ms_with(3, || {
            SolveSession::auto()
                .solve(&inst.graph, &inst.family)
                .unwrap()
        });
        assert!(sol.assignment.is_valid(&inst.graph, &inst.family));
        assert_eq!(sol.load, 2 * h, "havet h={h}");
        assert_eq!(sol.num_colors, bounds::havet_wavelengths(h), "havet h={h}");
        assert!(sol.optimal || h == 1, "havet h={h}: not proven optimal");
        row(
            "F9/T7 Havet",
            &format!("h={h}"),
            &format!("π=2h={}, w=⌈8h/3⌉={}", 2 * h, bounds::havet_wavelengths(h)),
            &format!(
                "π={}, w={} (ratio {:.3}; ⌈4π/3⌉={}), {}, {ms:.3} ms",
                sol.load,
                sol.num_colors,
                sol.num_colors as f64 / sol.load as f64,
                bounds::theorem6_bound(sol.load),
                if sol.optimal { "proven" } else { "unproven" },
            ),
        );
    }

    // T7 — Havet's dipaths with unequal copy counts, the adversarial
    // fixtures of the covering search: each is proven within 50,000 nodes.
    for copies in &havet::REPLICATED_FIXTURES {
        let inst = havet::havet_copies(copies);
        let session = SolverBuilder::new().exact_budget(50_000).build();
        let (ms, sol) = time_ms_with(3, || session.solve(&inst.graph, &inst.family).unwrap());
        assert!(sol.assignment.is_valid(&inst.graph, &inst.family));
        assert!(sol.optimal, "{copies:?}: not proven within 50,000 nodes");
        row(
            "T7 replicated Havet",
            &format!("copies {copies:?}, |P|={}", inst.family.len()),
            "w proven within 50,000 nodes",
            &format!(
                "π={}, w={} proven by {}, {ms:.3} ms",
                sol.load,
                sol.num_colors,
                sol.strategy.name()
            ),
        );
    }

    // T1 — Theorem 1 scaling.
    for &(n, paths) in &[(100usize, 400usize), (400, 3000), (800, 8000)] {
        let mut rng = ChaCha8Rng::seed_from_u64(n as u64);
        let g = random::random_internal_cycle_free(&mut rng, n, n / 4);
        let family = random::random_family(&mut rng, &g, paths, 6);
        let pi = load::max_load(&g, &family);
        let t0 = Instant::now();
        let res = theorem1::color_optimal(&g, &family).unwrap();
        let dt = t0.elapsed();
        assert!(res.assignment.is_valid(&g, &family));
        assert_eq!(res.assignment.num_colors(), pi, "T1 n={n}: w = π");
        row(
            "T1 scaling",
            &format!("n={n}, |P|={paths}"),
            "w=π, polynomial",
            &format!(
                "w={}=π={pi}, {} swaps, {:.1} ms",
                res.assignment.num_colors(),
                res.kempe_swaps,
                dt.as_secs_f64() * 1e3
            ),
        );
    }

    // T1 on k copies of one dipath over a 3-arc chain: every arc's load is
    // k, so a conflict graph would hold 3k² entries. The replay reads
    // conflicts from its peel log instead, and the Auto solve stays linear.
    for k in [1_000usize, 4_000, 16_000] {
        let g = dagwave_graph::builder::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let p = Dipath::from_arcs(&g, g.arc_ids().collect()).unwrap();
        let family = DipathFamily::from_paths(vec![p]).replicate(k);
        let session = SolveSession::auto();
        let (ms, sol) = time_ms_with(3, || session.solve(&g, &family).unwrap());
        assert_eq!((sol.load, sol.num_colors), (k, k), "T1 chain k={k}: w = π");
        assert!(k < 16_000 || ms < 50.0, "T1 chain k={k}: {ms:.1} ms");
        row(
            "T1 replicated chain",
            &format!("k={k} copies of one dipath, 3-arc chain"),
            "w=π; < 50 ms at k=16,000",
            &format!("w={}=π, {ms:.2} ms", sol.num_colors),
        );
    }

    // T1 on long dipaths that share long segments and need many Kempe
    // swaps. A search reads the dipaths listed at the walked dipaths' live
    // arcs where they part ways; these rows time that case (EXPERIMENTS.md
    // compares them with a replay that wires the conflict graph).
    for &(spine, paths, lens) in &[
        (2_000usize, 500usize, (200usize, 600usize)),
        (20_000, 1_000, (100, 300)),
    ] {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let (g, family) = random::random_spine_family(&mut rng, spine, paths, lens);
        let pi = load::max_load(&g, &family);
        let (ms, res) = time_ms_with(3, || theorem1::color_optimal(&g, &family).unwrap());
        assert!(res.assignment.is_valid(&g, &family));
        assert_eq!(res.assignment.num_colors(), pi, "T1 spine {spine}: w = π");
        assert!(res.kempe_swaps >= paths / 2, "T1 spine {spine}: few swaps");
        row(
            "T1 long shared segments",
            &format!(
                "spine of {spine}, |P|={paths} intervals of {}–{} arcs",
                lens.0, lens.1
            ),
            "w=π",
            &format!(
                "w={}=π, {} swaps, {ms:.1} ms",
                res.assignment.num_colors(),
                res.kempe_swaps
            ),
        );
    }

    // Nested chains: a staircase of intervals C_j = [100j, 100j + 150] with
    // a short interval nested in each C_j's stretch that no other C_j
    // covers. Each nested interval forces a swap whose α/β component is the
    // rest of the staircase, so the searches walk ~k²/2 long dipaths.
    for k in [250usize, 1_000] {
        let intervals: Vec<(usize, usize)> = (0..k)
            .flat_map(|j| [(100 * j, 100 * j + 150), (100 * j + 60, 100 * j + 90)])
            .collect();
        let (g, family) = random::spine_family(100 * k + 52, &intervals);
        let (ms, res) = time_ms_with(3, || theorem1::color_optimal(&g, &family).unwrap());
        assert!(res.assignment.is_valid(&g, &family));
        assert_eq!(
            res.assignment.num_colors(),
            res.load,
            "T1 nested k={k}: w = π"
        );
        assert_eq!(
            res.kempe_swaps, k,
            "T1 nested k={k}: one swap per nested dipath"
        );
        row(
            "T1 nested chains",
            &format!("k={k} staircase intervals of 150 arcs, each with one nested"),
            "w=π",
            &format!(
                "w={}=π, {} swaps, {ms:.1} ms",
                res.assignment.num_colors(),
                res.kempe_swaps
            ),
        );
    }

    // T6 — Theorem 6 on random duplicate-free single-cycle UPP instances.
    for &(k, count) in &[(2usize, 12usize), (4, 30), (8, 80), (16, 200)] {
        let mut rng = ChaCha8Rng::seed_from_u64(k as u64);
        let g = random::single_cycle_upp(k);
        let raw = random::random_family(&mut rng, &g, count, 4);
        let mut seen = std::collections::HashSet::new();
        let family: dagwave_paths::DipathFamily = raw
            .iter()
            .filter(|(_, p)| seen.insert(p.arcs().to_vec()))
            .map(|(_, p)| p.clone())
            .collect();
        let res = theorem6::color_single_cycle_upp(&g, &family).unwrap();
        assert!(res.assignment.is_valid(&g, &family));
        assert!(res.within_bound, "T6 k={k}: distinct family past ⌈4π/3⌉");
        row(
            "T6 split/merge",
            &format!("k={k}, |P|={}", family.len()),
            "w ≤ ⌈4π/3⌉",
            &format!(
                "π={}, w={}, bound={}, within={}",
                res.load,
                res.assignment.num_colors(),
                res.bound,
                res.within_bound
            ),
        );
    }

    // B1 — baselines.
    {
        let mut rng = ChaCha8Rng::seed_from_u64(80);
        let g = random::random_internal_cycle_free(&mut rng, 80, 20);
        let family = random::random_family(&mut rng, &g, 200, 5);
        let pi = load::max_load(&g, &family);
        let cg = dagwave_paths::ConflictGraph::build(&g, &family);
        let ug = dagwave_core::solver::conflict_to_ugraph(&cg);
        use dagwave_color::{dsatur, exact, greedy};
        let t1 = theorem1::color_optimal(&g, &family)
            .unwrap()
            .assignment
            .num_colors();
        let ds = dsatur::dsatur_color_count(&ug);
        let nat = greedy::greedy_color_count(&ug, greedy::Order::Natural);
        let sl = greedy::greedy_color_count(&ug, greedy::Order::SmallestLast);
        assert_eq!(t1, pi, "Theorem 1 is optimal");
        assert!(ds >= pi && nat >= pi && sl >= pi, "no heuristic beats π");
        // Exact branch-and-bound confirms χ = π where it is cheap.
        let mut rng = ChaCha8Rng::seed_from_u64(40);
        let small_g = random::random_internal_cycle_free(&mut rng, 40, 10);
        let small = random::random_family(&mut rng, &small_g, 60, 5);
        let small_cg = dagwave_paths::ConflictGraph::build(&small_g, &small);
        let chi = exact::chromatic_number(&dagwave_core::solver::conflict_to_ugraph(&small_cg))
            .chromatic()
            .expect("small graph closes");
        assert_eq!(
            chi,
            load::max_load(&small_g, &small),
            "exact confirms Theorem 1"
        );
        row(
            "B1 baselines",
            "n=80, |P|=200",
            "theorem1 = π ≤ heuristics",
            &format!("π={pi}, t1={t1}, dsatur={ds}, greedy-nat={nat}, greedy-sl={sl}"),
        );
    }

    // B2 — solver portfolio over every applicable backend.
    {
        let mut rng = ChaCha8Rng::seed_from_u64(82);
        let g = random::random_internal_cycle_free(&mut rng, 60, 15);
        let family = random::random_family(&mut rng, &g, 150, 5);
        let session = SolverBuilder::new().portfolio(vec![]).build();
        let sol = session.solve(&g, &family).unwrap();
        assert!(sol.assignment.is_valid(&g, &family));
        let attempts: Vec<String> = sol
            .attempts
            .iter()
            .map(|a| {
                let colors = a.upper_bound.map_or("—".to_string(), |c| c.to_string());
                format!("{}={colors}", a.backend)
            })
            .collect();
        row(
            "B2 portfolio",
            &format!("class {}, |P|={}", sol.class, family.len()),
            "winner = min over backends",
            &format!(
                "winner {} w={} [{}]",
                sol.strategy,
                sol.num_colors,
                attempts.join(", ")
            ),
        );
    }

    // D1 — decompose-solve-merge on the federated (multi-component) family.
    for k in [4usize, 16, 48] {
        let inst = compose::federated(k);
        let sol = SolverBuilder::new()
            .decompose(DecomposePolicy::Always)
            .build()
            .solve(&inst.graph, &inst.family)
            .unwrap();
        assert!(sol.assignment.is_valid(&inst.graph, &inst.family));
        let d = sol.decomposition.as_ref().expect("federated solve shards");
        assert_eq!(d.shard_count(), k, "one shard per glued figure");
        let max_shard = d.shards.iter().map(|s| s.num_colors).max().unwrap();
        assert_eq!(sol.num_colors, max_shard, "merged span = max over shards");
        let classes: Vec<String> = d
            .class_histogram()
            .iter()
            .map(|(c, n)| format!("{c}×{n}"))
            .collect();
        row(
            "D1 federated decomposition",
            &format!("k={k}, |P|={}", inst.family.len()),
            "shards=k, span=max shard",
            &format!(
                "shards={}, largest={}, w={}, optimal={}, classes[{}], peakRSS={} MiB",
                d.shard_count(),
                d.largest_shard(),
                sol.num_colors,
                sol.optimal,
                classes.join(", "),
                peak_rss_cell()
            ),
        );
    }

    // D1 distinct-shard solves: the federated shards are six distinct
    // sub-instances however many copies are glued.
    d1_distinct_shard_row();

    // D2 — incremental re-solve on the churn workload: a persistent
    // Workspace applies the mutation script one step at a time, and only
    // the shards each mutation touches are recomputed.
    {
        let work = compose::churn(7, 16, 12);
        let session = SolverBuilder::new()
            .decompose(DecomposePolicy::Always)
            .build();
        let mut ws = Workspace::new(
            session.clone(),
            work.instance.graph.clone(),
            work.instance.family.clone(),
        )
        .expect("churn instance is a DAG");
        ws.solution().unwrap();
        let (mut reused, mut resolved) = (0usize, 0usize);
        let mut final_w = 0usize;
        for op in &work.script {
            ws.apply([op.clone()]).unwrap();
            let sol = ws.solution().unwrap();
            let r = sol.resolve.expect("workspace stamps resolve");
            reused += r.shards_reused;
            resolved += r.shards_resolved;
            final_w = sol.num_colors;
        }
        // The headline invariant, asserted while the row is generated.
        let (dense, _) = ws.family().to_dense();
        let scratch = session.solve(ws.graph(), &dense).unwrap();
        assert_eq!(
            ws.solution().unwrap().assignment.colors(),
            scratch.assignment.colors(),
            "workspace must be bit-identical to from-scratch"
        );
        row(
            "D2 incremental churn",
            &format!("churn(16), {} steps", work.script.len()),
            "mutations recolor only touched shards",
            &format!(
                "shards reused Σ={reused}, resolved Σ={resolved}, w={final_w}, \
                 = from-scratch, peakRSS={} MiB",
                peak_rss_cell()
            ),
        );
    }

    // D3 — million-path throughput: the steady-state service step —
    // `apply` + `span` + `delta_since`, one op per step, on a pre-solved
    // workspace — is O(dirty), so its per-step median may grow at most 2×
    // while |P| grows 16× (churn(256) → churn(4096)). At the large tier it
    // must also stay ≥10× cheaper than a from-scratch solve per step, the
    // dirty re-solve count must stay flat, and a remove + re-add must
    // adopt its old shard from the fingerprint reuse pool.
    // Materializing the full `Solution` is O(|P|) by nature: it gets its
    // own row, with no growth gate.
    {
        const STEPS: usize = 256;
        const SCRATCH_STEPS: usize = 8;
        const PASSES: usize = 5;
        let session = SolverBuilder::new()
            .decompose(DecomposePolicy::Always)
            .build();
        let tiers: Vec<(usize, compose::ChurnWorkload)> = [256usize, 4096]
            .into_iter()
            .map(|k| (k, compose::churn(13, k, STEPS)))
            .collect();
        let open = |work: &compose::ChurnWorkload| {
            Workspace::new(
                session.clone(),
                work.instance.graph.clone(),
                work.instance.family.clone(),
            )
            .expect("churn instance is a DAG")
        };
        // One timed pass: the whole script on a fresh pre-solved
        // workspace (construction and the initial full solve stay outside
        // the timed region). Returns the per-step median, the dirty
        // re-solves, and the per-step spans.
        let step_pass = |work: &compose::ChurnWorkload| {
            let mut ws = open(work);
            let mut synced = ws.delta_since(Epoch::default()).unwrap().epoch;
            let resolved_before = ws.stats().shards_resolved;
            let mut samples = Vec::with_capacity(STEPS);
            let mut spans = Vec::with_capacity(STEPS);
            for op in &work.script {
                let t0 = Instant::now();
                ws.apply([op.clone()]).unwrap();
                let span = ws.span().unwrap();
                let delta = black_box(ws.delta_since(synced).unwrap());
                samples.push(t0.elapsed().as_secs_f64() * 1e6);
                synced = delta.epoch;
                spans.push(span);
            }
            samples.sort_by(f64::total_cmp);
            let resolved = ws.stats().shards_resolved - resolved_before;
            (samples[STEPS / 2], resolved, spans)
        };
        // Passes alternate between the tiers, so drift in host speed
        // lands on both alike; each tier keeps its best per-pass median.
        let mut best: Vec<(f64, usize, Vec<usize>)> =
            tiers.iter().map(|(_, work)| step_pass(work)).collect();
        for _ in 1..PASSES {
            for (kept, (_, work)) in best.iter_mut().zip(&tiers) {
                let pass = step_pass(work);
                if pass.0 < kept.0 {
                    *kept = pass;
                }
            }
        }

        let mut rows = Vec::new();
        for (&(k, ref work), (step_us, resolved, spans)) in tiers.iter().zip(best) {
            let prefix = &work.script[..SCRATCH_STEPS];
            let (scratch_ms, scratch_spans) = time_ms_with(3, || {
                let mut mirror = PathFamily::from_family(&work.instance.family);
                let mut spans = Vec::with_capacity(SCRATCH_STEPS);
                for op in prefix {
                    match op {
                        Mutation::Remove(id) => {
                            mirror.remove(*id).expect("script ids are live");
                        }
                        Mutation::Add(p) => {
                            mirror.insert(p.clone());
                        }
                    }
                    let (dense, _) = mirror.to_dense();
                    spans.push(
                        session
                            .solve(&work.instance.graph, &dense)
                            .unwrap()
                            .num_colors,
                    );
                }
                spans
            });
            let scratch_us = scratch_ms * 1e3 / SCRATCH_STEPS as f64;
            assert_eq!(
                spans[..SCRATCH_STEPS],
                scratch_spans[..],
                "per-step spans agree (k={k})"
            );
            // The truly flat quantity: how many shards actually re-solve
            // per step is bounded by what the mutation touched, at every
            // scale.
            assert!(
                resolved <= 2 * STEPS,
                "O(dirty) solve work per step (k={k}): {resolved} re-solves over {STEPS} steps"
            );

            // `solution()` after each step of the prefix: a fresh merge of
            // every shard, timed on its own (the next `apply` drops the
            // snapshot, untimed).
            let mut ws = open(work);
            ws.solution().unwrap();
            let mut materialize_us = Vec::with_capacity(SCRATCH_STEPS);
            for (op, &span) in prefix.iter().zip(&scratch_spans) {
                ws.apply([op.clone()]).unwrap();
                ws.span().unwrap();
                let t0 = Instant::now();
                let sol = black_box(ws.solution().unwrap());
                materialize_us.push(t0.elapsed().as_secs_f64() * 1e6);
                assert_eq!(sol.num_colors, span, "materialized span (k={k})");
            }
            materialize_us.sort_by(f64::total_cmp);

            // The remove+re-add scenario: identical content reconstitutes
            // the shard, so the fingerprint pool adopts its solve and
            // nothing recomputes.
            let mut ws = open(work);
            ws.solution().unwrap();
            let victim = ws.family().ids().next().expect("family is non-empty");
            let copy = ws.family().get(victim).expect("victim is live").clone();
            ws.apply([Mutation::Remove(victim), Mutation::Add(copy)])
                .unwrap();
            let readd = ws.solution().unwrap().resolve.expect("workspace resolve");
            assert_eq!(
                readd.shards_resolved, 0,
                "remove+re-add must adopt the cached shard (k={k})"
            );
            assert!(readd.shards_reused > 0, "k={k}");

            let ratio = scratch_us / step_us.max(1e-9);
            if k == 4096 {
                assert!(
                    ratio >= 10.0,
                    "incremental must be ≥10× cheaper per step at k=4096, got {ratio:.1}×"
                );
            }
            rows.push((
                k,
                work.instance.family.len(),
                step_us,
                scratch_us,
                ratio,
                resolved,
                readd.shards_reused,
                materialize_us[SCRATCH_STEPS / 2],
            ));
        }
        // The absolute shape gate: the step itself, not a comparison with
        // from-scratch, must stay (nearly) flat in |P|.
        let growth = rows[1].2 / rows[0].2.max(1e-9);
        assert!(
            growth <= D3_MAX_GROWTH,
            "apply + span + delta step must grow ≤{D3_MAX_GROWTH}× when |P| grows 16×: \
             {:.1} µs at k=256 vs {:.1} µs at k=4096 ({growth:.2}×)",
            rows[0].2,
            rows[1].2
        );
        for &(k, paths, step_us, scratch_us, ratio, resolved, reused, _) in &rows {
            row(
                "D3 million-path churn",
                &format!("churn({k}), |P|={paths}, {STEPS} steps"),
                &format!("step O(dirty): ≤{D3_MAX_GROWTH}× growth over 16× |P|, ≥10× vs scratch"),
                &format!(
                    "step p50 {step_us:.1} µs (apply+span+delta) vs scratch \
                     {:.3} ms/step ({ratio:.0}×), growth {growth:.2}×, \
                     dirty re-solves Σ={resolved}, re-add reused={reused}, \
                     peakRSS={} MiB",
                    scratch_us / 1e3,
                    peak_rss_cell()
                ),
            );
        }
        for &(k, paths, .., materialize_us) in &rows {
            row(
                "D3 solution() materialization",
                &format!("churn({k}), |P|={paths}, {SCRATCH_STEPS} steps"),
                "O(|P|) by design, no growth gate",
                &format!(
                    "{:.3} ms/call (median), peakRSS={} MiB",
                    materialize_us / 1e3,
                    peak_rss_cell()
                ),
            );
        }
    }

    d3_internal_cycle_free_row();

    // D4 — the service layer under concurrent writers: a loopback TCP
    // server over the same incremental engine, 8 writer connections
    // mutating tenant 0 while a reader forces re-solves. Gated in-row:
    // the final served solution must be bit-identical to from-scratch
    // (every writer retires exactly what it admitted, so the check is
    // order-independent), and the single-writer actor must coalesce —
    // absorb more client batches than it issues `Workspace::apply` calls.
    service_row();

    // D6 — connection scaling: 8 vs 128 concurrent connections through
    // the reactor, gated on bit-identity and a flat server thread count.
    connections_row();

    // D7 — cross-tenant stall: one tenant's large batch against another
    // tenant's steady steps on the same server, gated on bit-identity
    // only.
    stall_row();

    // D5 — the O(dirty) query side: after each churn step, a delta query
    // (`Workspace::delta_since`) must stay flat as the instance grows —
    // within 1.5× of the k=256 tier at k=4096 — and at the large tier it
    // must be ≥5× cheaper than materializing the full `Solution` the same
    // step. Gated in-row on both ratios plus bit-identity: the mirror
    // built ONLY from replayed deltas equals the full solution's color
    // table at every step, and the from-scratch solve at the end.
    d5_delta_query_row();

    println!("\nAll rows verified by assertions during generation.");
}

// ---------------------------------------------------------------------------
// Engine-vs-reference comparison suite
// ---------------------------------------------------------------------------

/// One engine path measured against its reference on the same work.
/// Construction goes through [`Comparison::invariant_checked`], so a row
/// existing implies its stated invariant (span-and-certification for the
/// decomposition row, bit-identity for the incremental rows) was verified
/// during measurement.
struct Comparison {
    op: &'static str,
    size: String,
    /// Every rep's wall-clock, in milliseconds; the table shows the best.
    reference_ms: Vec<f64>,
    engine_ms: Vec<f64>,
    invariant: &'static str,
    /// A further part of the engine side's work, timed on its own clock
    /// and gated under its own key: `(name, every rep's ms)`. The table's
    /// engine column and the ratio add it back rep by rep, so both sides
    /// count the same work.
    extra: Option<(&'static str, Vec<f64>)>,
}

impl Comparison {
    /// Build a row, asserting the invariant the table reports.
    fn invariant_checked(
        op: &'static str,
        size: String,
        reference_ms: Vec<f64>,
        engine_ms: Vec<f64>,
        holds: bool,
        invariant: &'static str,
    ) -> Self {
        assert!(holds, "{op}: invariant `{invariant}` violated");
        Comparison {
            op,
            size,
            reference_ms,
            engine_ms,
            invariant,
            extra: None,
        }
    }

    fn with_extra(mut self, name: &'static str, ms: Vec<f64>) -> Self {
        self.size = format!("{}; engine incl. {name} {:.2} ms", self.size, best(&ms));
        self.extra = Some((name, ms));
        self
    }

    /// The engine side's rep times with the extra part added back.
    fn engine_total(&self) -> Vec<f64> {
        let mut total = self.engine_ms.clone();
        if let Some((_, extra)) = &self.extra {
            for (t, e) in total.iter_mut().zip(extra) {
                *t += e;
            }
        }
        total
    }

    fn ratio(&self) -> f64 {
        best(&self.reference_ms) / best(&self.engine_total()).max(1e-9)
    }
}

/// D1's distinct-shard rows: `federated(k)` glues copies of six distinct
/// figure shards, and the one-shot `Always` solve solves each distinct
/// shard once. Gated on bit-identity with solving every component on its
/// own ([`independent_shard_solves`]), on the row's own count of distinct
/// shard contents (6 at every k), and on the one-shot solve being ≥ 2×
/// cheaper than that reference at k = 1024. The two are timed
/// interleaved, best of 5.
fn d1_distinct_shard_row() {
    let session = SolverBuilder::new()
        .decompose(DecomposePolicy::Always)
        .build();
    let whole = SolverBuilder::new().decompose(DecomposePolicy::Off).build();
    for k in [64usize, 256, 1024] {
        let inst = compose::federated(k);
        let (g, family) = (&inst.graph, &inst.family);
        let (mut one_shot_ms, mut per_shard_ms) = (f64::INFINITY, f64::INFINITY);
        let mut last = None;
        for _ in 0..5 {
            let (t, sol) = time_ms_with(1, || session.solve(g, family).unwrap());
            one_shot_ms = one_shot_ms.min(t);
            let (t, reference) = time_ms_with(1, || independent_shard_solves(&whole, g, family));
            per_shard_ms = per_shard_ms.min(t);
            last = Some((sol, reference));
        }
        let (sol, (colors, shards)) = last.expect("five reps ran");
        assert_eq!(sol.assignment.colors(), colors.as_slice(), "k={k}");
        let d = sol.decomposition.as_ref().expect("Always shards");
        assert_eq!(d.shard_count(), shards.len(), "k={k}");
        let span = shards.iter().map(|s| s.num_colors).max().unwrap_or(0);
        let first_at_span = shards.iter().find(|s| s.num_colors == span);
        assert_eq!(sol.num_colors, span, "k={k}");
        assert_eq!(Some(sol.strategy), first_at_span.map(|s| s.strategy));
        let attempts = shards.iter().flat_map(|s| s.attempts.iter());
        assert!(sol.attempts.iter().eq(attempts), "k={k}: attempts diverged");
        for (s, r) in d.shards.iter().zip(&shards) {
            assert!(
                s.class == r.class
                    && s.strategy == r.strategy
                    && s.num_colors == r.num_colors
                    && s.load == r.load
                    && s.optimal == r.optimal
                    && s.attempts == r.attempts,
                "k={k}: a shard outcome diverged from its own solve"
            );
        }
        let distinct: BTreeSet<ShardContent> = conflict_components(g, family)
            .iter()
            .map(|members| shard_content(&SubInstance::extract(g, family, members)))
            .collect();
        assert_eq!(distinct.len(), 6, "k={k}: federated shards are six forms");
        let ratio = per_shard_ms / one_shot_ms;
        if k == 1024 {
            assert!(
                ratio >= 2.0,
                "one-shot solve must be ≥2× cheaper than per-shard solves at \
                 k=1024: {one_shot_ms:.2} ms vs {per_shard_ms:.2} ms"
            );
        }
        row(
            "D1 distinct-shard solves",
            &format!("k={k}, |P|={}, shards={}", family.len(), d.shard_count()),
            "each distinct shard solved once, = per-shard solves",
            &format!(
                "distinct={}, one-shot {one_shot_ms:.2} ms vs per-shard \
                 {per_shard_ms:.2} ms ({ratio:.1}×), bit-identical, peakRSS={} MiB",
                distinct.len(),
                peak_rss_cell()
            ),
        );
    }
}

/// A decomposed solve rebuilt without the shared shard path: every
/// component extracted on its own and solved whole by `whole`, an
/// undecomposed session, its colors merged in component order through
/// `WavelengthAssignment::normalized`. Returns the merged colors and the
/// shard solutions in component order.
fn independent_shard_solves(
    whole: &SolveSession,
    g: &Digraph,
    family: &DipathFamily,
) -> (Vec<usize>, Vec<Solution>) {
    let mut colors = vec![usize::MAX; family.len()];
    let shards = conflict_components(g, family)
        .iter()
        .map(|members| {
            let sub = SubInstance::extract(g, family, members);
            let sol = whole.solve(&sub.graph, &sub.family).unwrap();
            for (local, &c) in sol.assignment.normalized().colors().iter().enumerate() {
                colors[sub.original_id(PathId::from_index(local)).index()] = c;
            }
            sol
        })
        .collect();
    (colors, shards)
}

/// Everything a shard solve reads, as an owned key: the vertex count, the
/// arc endpoints in arc order, and the members' arc lists in local order.
type ShardContent = (usize, Vec<(u32, u32)>, Vec<Vec<u32>>);

fn shard_content(sub: &SubInstance) -> ShardContent {
    (
        sub.graph.vertex_count(),
        sub.graph
            .arcs()
            .map(|(_, a)| (a.tail.0, a.head.0))
            .collect(),
        sub.family
            .iter()
            .map(|(_, p)| p.arcs().iter().map(|a| a.0).collect())
            .collect(),
    )
}

/// D5: the delta query behind each churn step, at churn(256) and
/// churn(4096). Both tiers' workspaces are opened first; each script step
/// then advances and times the two tiers back to back, alternating which
/// goes first, so a slow phase of the host hits both tiers alike.
fn d5_delta_query_row() {
    // One query takes 0.1–0.2 µs, so in a short batch one interrupt
    // reads as a 1.6× growth: each step times batches of ≥ ~100 µs and
    // keeps the fastest.
    const DELTA_REPS: u32 = 1024;
    const DELTA_BATCHES: usize = 5;
    type Mirror = BTreeMap<PathId, u32>;
    /// One tier: its workspace, the client mirror rebuilt from deltas
    /// only, and the time summed over the steps.
    struct Tier {
        k: usize,
        paths: usize,
        script: Vec<Mutation>,
        session: SolveSession,
        ws: Workspace,
        mirror: Mirror,
        synced: Epoch,
        delta_us: f64,
        full_us: f64,
        identical: bool,
    }
    fn replay(mirror: &mut Mirror, d: &dagwave_core::SolutionDelta) {
        if d.full_resync {
            mirror.clear();
        }
        for id in &d.removed {
            mirror.remove(id);
        }
        for &(id, c) in &d.changes {
            mirror.insert(id, c);
        }
    }
    fn color_map(ws: &Workspace, colors: &[usize]) -> Mirror {
        ws.family()
            .dense_ids()
            .iter()
            .zip(colors)
            .map(|(&id, &c)| (id, c as u32))
            .collect()
    }
    impl Tier {
        fn open(k: usize, steps: usize) -> Tier {
            let work = compose::churn(13, k, steps);
            let session = SolverBuilder::new()
                .decompose(DecomposePolicy::Always)
                .build();
            let mut ws = Workspace::new(
                session.clone(),
                work.instance.graph.clone(),
                work.instance.family.clone(),
            )
            .expect("churn instance is a DAG");
            // Initial sync: epoch 0 is covered from the first refresh, so
            // the mirror bootstraps through the same API clients use.
            let mut mirror = Mirror::new();
            let first = ws.delta_since(Epoch::default()).expect("initial sync");
            replay(&mut mirror, &first);
            Tier {
                k,
                paths: work.instance.family.len(),
                script: work.script,
                session,
                ws,
                mirror,
                synced: first.epoch,
                delta_us: 0.0,
                full_us: 0.0,
                identical: true,
            }
        }

        fn step(&mut self, i: usize) {
            self.ws.apply([self.script[i].clone()]).unwrap();
            // The O(dirty) re-solve itself is paid once here, untimed: D3
            // gates it. D5 times only the query side behind it.
            self.ws.span().unwrap();
            let mut d = None;
            let mut best = f64::INFINITY;
            for _ in 0..DELTA_BATCHES {
                let t0 = Instant::now();
                for _ in 0..DELTA_REPS {
                    d = Some(black_box(self.ws.delta_since(self.synced).unwrap()));
                }
                best = best.min(t0.elapsed().as_secs_f64() * 1e6 / DELTA_REPS as f64);
            }
            self.delta_us += best;
            let d = d.expect("at least one rep");
            replay(&mut self.mirror, &d);
            self.synced = d.epoch;

            let t0 = Instant::now();
            let sol = self.ws.solution().unwrap();
            self.full_us += t0.elapsed().as_secs_f64() * 1e6;
            let expected = color_map(&self.ws, sol.assignment.colors());
            self.identical &= self.mirror == expected && d.span == sol.num_colors;
        }
    }

    let steps = 8usize;
    let mut tiers = [Tier::open(256, steps), Tier::open(4096, steps)];
    for i in 0..steps {
        if i % 2 == 0 {
            tiers[0].step(i);
            tiers[1].step(i);
        } else {
            tiers[1].step(i);
            tiers[0].step(i);
        }
    }
    for t in &tiers {
        let k = t.k;
        assert!(
            t.identical,
            "delta-replayed mirror diverged from the full solution (k={k})"
        );
        // End-of-script anchor: the mirror equals a from-scratch solve of
        // the mutated instance, not just the workspace's view.
        let (dense, _) = t.ws.family().to_dense();
        let scratch = t.session.solve(t.ws.graph(), &dense).unwrap();
        assert_eq!(
            t.mirror,
            color_map(&t.ws, scratch.assignment.colors()),
            "delta-replayed mirror diverged from from-scratch (k={k})"
        );
    }
    let avg = |t: &Tier| (t.delta_us / steps as f64, t.full_us / steps as f64);
    let (small, large) = (avg(&tiers[0]), avg(&tiers[1]));
    assert!(
        large.1 / large.0.max(1e-9) >= 5.0,
        "delta query must be ≥5× cheaper than full materialization at \
         k=4096: {:.1} µs vs {:.1} µs",
        large.0,
        large.1
    );
    let growth = large.0 / small.0.max(1e-9);
    assert!(
        growth <= 1.5,
        "per-query delta latency must stay flat in |P|: \
         {:.2} µs at k=256 vs {:.2} µs at k=4096 ({growth:.2}×)",
        small.0,
        large.0
    );
    for (t, (delta_avg, full_avg)) in tiers.iter().zip([small, large]) {
        row(
            "D5 delta query path",
            &format!("churn({}), |P|={}, {steps} steps", t.k, t.paths),
            "flat in |P| (≤1.5×), ≥5× vs full, bit-identical",
            &format!(
                "delta {delta_avg:.2} µs/query vs full {full_avg:.1} µs \
                 ({:.0}×), growth {growth:.2}×, mirror = solution = scratch, \
                 peakRSS={} MiB",
                full_avg / delta_avg.max(1e-9),
                peak_rss_cell()
            ),
        );
    }
}

/// D3 on the paper's own class: k = 1, 4, 16 disjoint copies of one
/// internal-cycle-free instance (as the T1 row builds it: 100 vertices,
/// 400 walks of at most 6 arcs, seed 7), opened with the *default*
/// session, whose one-shot solve does not shard this class. Component size
/// stays fixed while `|P|` grows 16×, so the workspace step must hold D3's
/// growth bound here too, and stay ≥10× cheaper than a from-scratch solve
/// at k = 16. A step removes a random dipath, refreshes and syncs a
/// delta, then re-adds it, refreshes and syncs again; the step's median
/// is the best of five passes with the tiers interleaved, as in D3.
fn d3_internal_cycle_free_row() {
    const STEPS: usize = 256;
    const SCRATCH_STEPS: usize = 8;
    const PASSES: usize = 5;
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let graph = random::random_internal_cycle_free(&mut rng, 100, 25);
    let family = random::random_family(&mut rng, &graph, 400, 6);
    let copy = dagwave_gen::Instance {
        graph,
        family,
        name: "icf".to_string(),
    };
    let session = SolveSession::auto();
    let tiers: Vec<(usize, dagwave_gen::Instance)> = [1usize, 4, 16]
        .into_iter()
        .map(|k| (k, compose::disjoint_union(&vec![copy.clone(); k])))
        .collect();
    // The victims, one per step, drawn once per tier.
    let victims = |inst: &dagwave_gen::Instance| -> Vec<PathId> {
        let mut rng = ChaCha8Rng::seed_from_u64(inst.family.len() as u64);
        (0..STEPS)
            .map(|_| PathId::from_index(rng.random_range(0..inst.family.len())))
            .collect()
    };
    let step = |ws: &mut Workspace, victim: PathId, synced: &mut Epoch| {
        let p = ws.family().get(victim).expect("victim is live").clone();
        ws.remove_path(victim).unwrap();
        ws.span().unwrap();
        *synced = black_box(ws.delta_since(*synced).unwrap()).epoch;
        let back = ws.add_path(p).unwrap();
        let span = ws.span().unwrap();
        *synced = black_box(ws.delta_since(*synced).unwrap()).epoch;
        assert_eq!(back, victim, "the freed slot comes back");
        span
    };
    // One timed pass on a fresh, pre-solved workspace: the per-step median.
    let step_pass = |inst: &dagwave_gen::Instance, victims: &[PathId]| {
        let mut ws = Workspace::new(session.clone(), inst.graph.clone(), inst.family.clone())
            .expect("internal-cycle-free host is a DAG");
        let mut synced = ws.delta_since(Epoch::default()).unwrap().epoch;
        let mut samples = Vec::with_capacity(STEPS);
        for &victim in victims {
            let t0 = Instant::now();
            let span = step(&mut ws, victim, &mut synced);
            samples.push(t0.elapsed().as_secs_f64() * 1e6);
            assert_eq!(span, ws.max_load(), "Theorem 1 shards meet π");
        }
        samples.sort_by(f64::total_cmp);
        // Bit-identical to the kept session's from-scratch solve.
        let (dense, _) = ws.family().to_dense();
        let scratch = ws.session().solve(ws.graph(), &dense).unwrap();
        assert_eq!(
            ws.solution().unwrap().assignment.colors(),
            scratch.assignment.colors(),
            "workspace must be bit-identical to from-scratch"
        );
        (samples[STEPS / 2], ws.shard_count())
    };
    let drawn: Vec<Vec<PathId>> = tiers.iter().map(|(_, inst)| victims(inst)).collect();
    let mut best: Vec<(f64, usize)> = tiers
        .iter()
        .zip(&drawn)
        .map(|((_, inst), v)| step_pass(inst, v))
        .collect();
    for _ in 1..PASSES {
        for (kept, ((_, inst), v)) in best.iter_mut().zip(tiers.iter().zip(&drawn)) {
            let pass = step_pass(inst, v);
            if pass.0 < kept.0 {
                *kept = pass;
            }
        }
    }
    let mut rows = Vec::new();
    for (((k, inst), victims), (step_us, shards)) in tiers.iter().zip(&drawn).zip(best) {
        // From scratch, a step is two one-shot solves of the default
        // session (after the removal and after the re-add); the one-shot
        // path solves this class whole, with Theorem 1.
        let (scratch_ms, _) = time_ms_with(3, || {
            let mut mirror = PathFamily::from_family(&inst.family);
            for &victim in &victims[..SCRATCH_STEPS] {
                let p = mirror.remove(victim).expect("victim is live");
                let (dense, _) = mirror.to_dense();
                black_box(session.solve(&inst.graph, &dense).unwrap());
                mirror.insert(Dipath::clone(&p));
                let (dense, _) = mirror.to_dense();
                black_box(session.solve(&inst.graph, &dense).unwrap());
            }
        });
        let scratch_us = scratch_ms * 1e3 / SCRATCH_STEPS as f64;
        rows.push((*k, inst.family.len(), shards, step_us, scratch_us));
    }
    let (first, last) = (&rows[0], &rows[rows.len() - 1]);
    let growth = last.3 / first.3.max(1e-9);
    assert!(
        growth <= D3_MAX_GROWTH,
        "internal-cycle-free step must grow ≤{D3_MAX_GROWTH}× when |P| grows 16×: \
         {:.1} µs at k=1 vs {:.1} µs at k=16 ({growth:.2}×)",
        first.3,
        last.3
    );
    let ratio = last.4 / last.3.max(1e-9);
    assert!(
        ratio >= 10.0,
        "the step must be ≥10× cheaper than from scratch at k=16, got {ratio:.1}×"
    );
    for &(k, paths, shards, step_us, scratch_us) in &rows {
        row(
            "D3 internal-cycle-free host",
            &format!("{k}× T1(100, 400), |P|={paths}, default session, {STEPS} steps"),
            &format!("step O(dirty): ≤{D3_MAX_GROWTH}× growth over 16× |P|, ≥10× vs scratch"),
            &format!(
                "step p50 {step_us:.1} µs = {:.1} µs/mutation (remove, re-add; each \
                 refresh+delta) vs scratch {:.3} ms/step ({:.0}×), growth {growth:.2}×, \
                 {shards} shards, peakRSS={} MiB",
                step_us / 2.0,
                scratch_us / 1e3,
                scratch_us / step_us.max(1e-9),
                peak_rss_cell()
            ),
        );
    }
}

/// D4 — the service layer under concurrent writers: a loopback TCP
/// server over the same incremental engine, 8 writer connections
/// mutating tenant 0 while a reader forces re-solves. Gated in-row: the
/// final served solution must be bit-identical to from-scratch (every
/// writer retires exactly what it admitted, so the check is
/// order-independent), and the single-writer actor must coalesce —
/// absorb more client batches than it issues `Workspace::apply` calls.
/// Also runnable alone as `report --service`.
fn service_row() {
    let report = dagwave_bench::service::service_load(8, 8, 40);
    assert!(
        report.identical,
        "served solution diverged from from-scratch after concurrent churn"
    );
    assert!(
        report.coalesce_ratio() > 1.0,
        "actor never coalesced queued batches: {} batches / {} applies",
        report.batches,
        report.applies
    );
    row(
        "D4 service layer load",
        "federated(8), 8 writers × 40 ops + reader",
        "bit-identical to scratch, coalesce >1",
        &format!(
            "identical={}, {:.0} req/s, p50={:.0} µs, p99={:.0} µs, \
             coalesce {:.2}× ({} batches/{} applies), peakRSS={} MiB",
            report.identical,
            report.requests_per_sec(),
            report.p50_us,
            report.p99_us,
            report.coalesce_ratio(),
            report.batches,
            report.applies,
            peak_rss_cell()
        ),
    );
}

/// D6 — connection scaling: the same admit/query/retire workload driven
/// over 8 vs 128 concurrent connections through the `poll(2)` reactor.
/// Gated in-row: every run must be bit-identical to a from-scratch solve,
/// and the server-side OS-thread delta must stay within the reactor plus
/// the rayon pool's workers even at 128 connections (connection count
/// costs no threads).
/// Also runnable alone as `report --connections`.
fn connections_row() {
    use dagwave_bench::service::connection_scaling;
    // federated(32): enough disjoint components that 128 connections'
    // duplicate admissions land on distinct donors instead of stacking
    // into one exponentially-colorable clique.
    for &(conns, ops) in &[(8usize, 24usize), (128usize, 3usize)] {
        let r = connection_scaling(32, conns, ops);
        assert!(
            r.identical,
            "served solution diverged from from-scratch at {conns} connections"
        );
        // The reactor plus at most the pool's workers (one fewer than
        // its threads: the caller is the last).
        let max_threads = rayon::current_num_threads();
        assert!(
            r.thread_delta <= max_threads,
            "the server spent {} threads on {conns} connections (at most {max_threads})",
            r.thread_delta
        );
        row(
            "D6 connection scaling",
            &format!("federated(32), {conns} conns × {ops} ops, Evented"),
            &format!("bit-identical, ≤{max_threads} srv threads (reactor + pool)"),
            &format!(
                "identical={}, {:.0} req/s, p50={:.0} µs, p99={:.0} µs, \
                 +{} srv threads",
                r.identical,
                r.requests_per_sec(),
                r.p50_us,
                r.p99_us,
                r.thread_delta
            ),
        );
    }
}

/// D7 — cross-tenant stall: tenant 0 receives Figure 3's C5 family × 400
/// (2,000 `Add`s) as one `Batch` while tenant 1, on `federated(8)`, steps
/// on another connection. The server runs every tenant on its one
/// thread, so tenant 1's steps that meet the batch wait for it; the row
/// records that stall until a per-shard work budget bounds it. Gated on
/// bit-identity only (both tenants' final `Query` against from-scratch
/// solves): wall-clock time on a shared host is too noisy to gate on.
/// Also runnable alone as `report --stall`.
fn stall_row() {
    const COPIES: usize = 400;
    let r = dagwave_bench::service::cross_tenant_stall(COPIES);
    assert!(
        r.identical,
        "a tenant's served solution diverged from from-scratch after the stall"
    );
    row(
        "D7 cross-tenant stall",
        &format!(
            "fig3 C5 × {} batch (tenant 0) vs federated(8) steps (tenant 1)",
            r.copies
        ),
        "bit-identical to scratch; stall recorded, not gated",
        &format!(
            "identical={}, tenant 0 batch+refresh {:.1} ms, tenant 1 step p50 {:.0} µs \
             before, worst {:.1} ms during",
            r.identical,
            r.batch_refresh_ms,
            r.p50_before_us,
            r.worst_during_us / 1e3
        ),
    );
}

/// Wall-clock of each of `reps` runs of `f`, in milliseconds, plus the
/// last run's result (so callers can verify outputs without recomputing
/// them). Only `f` is timed: each rep's result is dropped outside the
/// clock.
fn time_samples<R>(reps: usize, mut f: impl FnMut() -> R) -> (Vec<f64>, R) {
    let mut samples = Vec::with_capacity(reps.max(1));
    let mut out = None;
    for _ in 0..reps.max(1) {
        drop(out.take());
        let t0 = Instant::now();
        let r = black_box(f());
        samples.push(ms(t0.elapsed()));
        out = Some(r);
    }
    (samples, out.expect("at least one rep"))
}

/// Best-of-`reps` wall-clock for `f`, in milliseconds, plus the last run's
/// result.
fn time_ms_with<R>(reps: usize, f: impl FnMut() -> R) -> (f64, R) {
    let (samples, out) = time_samples(reps, f);
    (best(&samples), out)
}

fn best(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Fixed arithmetic loop used to normalize machine speed between the
/// baseline host and the checking host.
fn calibration_ms() -> Vec<f64> {
    time_samples(3, || {
        let mut x = 0x9e3779b97f4a7c15u64;
        let mut acc = 0u64;
        for _ in 0..20_000_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            acc = acc.wrapping_add(x);
        }
        acc
    })
    .0
}

/// Measure each engine path against its reference on fixed seeded
/// workloads: the decompose-solve-merge path against the monolithic solve
/// (asserting its span/certification invariant), and the incremental
/// workspace against from-scratch re-solves of the same churn script
/// (asserting bit-identity).
fn speedup_suite() -> Vec<Comparison> {
    const REPS: usize = 5;
    let mut comps = Vec::new();

    // 1. Decompose-solve-merge vs monolithic on the federated family:
    //    the intra-instance sharding hot path. The reference is the
    //    monolithic Auto solve, the engine the decomposed solve, so the
    //    ratio is the decomposition speedup on one giant multi-component
    //    instance.
    {
        let inst = compose::federated(256);
        let mono_session = SolverBuilder::new().decompose(DecomposePolicy::Off).build();
        let dec_session = SolverBuilder::new()
            .decompose(DecomposePolicy::Always)
            .build();
        let (reference_ms, mono) = time_samples(REPS, || {
            mono_session.solve(&inst.graph, &inst.family).unwrap()
        });
        let (engine_ms, dec) = time_samples(REPS, || {
            dec_session.solve(&inst.graph, &inst.family).unwrap()
        });
        let holds = dec.num_colors <= mono.num_colors
            && dec.num_colors
                == dec
                    .decomposition
                    .as_ref()
                    .map(|d| d.shards.iter().map(|s| s.num_colors).max().unwrap_or(0))
                    .unwrap_or(usize::MAX)
            && dec.assignment.is_valid(&inst.graph, &inst.family);
        comps.push(Comparison::invariant_checked(
            "decompose_solve",
            format!(
                "federated k=256, |P|={}, shards={}",
                inst.family.len(),
                dec.decomposition.as_ref().map_or(0, |d| d.shard_count())
            ),
            reference_ms,
            engine_ms,
            holds,
            "span ≤ monolithic, = max shard, certified",
        ));
    }

    // 2. Incremental re-solve on the churn workload: the reference
    //    re-solves the mutated instance from scratch after every step, the
    //    engine drives one
    //    persistent Workspace through the same script (including its
    //    initial full solve), so the ratio is the steady-state win of
    //    shard-level caching under single-lightpath churn.
    {
        let work = compose::churn(11, 256, 32);
        let session = SolverBuilder::new()
            .decompose(DecomposePolicy::Always)
            .build();

        // Verify the invariant once, untimed: per-step bit-identity plus
        // actual shard reuse.
        let mut ws = Workspace::new(
            session.clone(),
            work.instance.graph.clone(),
            work.instance.family.clone(),
        )
        .expect("churn instance is a DAG");
        ws.solution().unwrap();
        let (mut reused, mut identical) = (0usize, true);
        for op in &work.script {
            ws.apply([op.clone()]).unwrap();
            let inc = ws.solution().unwrap();
            reused += inc.resolve.expect("workspace stamps resolve").shards_reused;
            let (dense, _) = ws.family().to_dense();
            let scratch = session.solve(&work.instance.graph, &dense).unwrap();
            identical &= inc.assignment.colors() == scratch.assignment.colors()
                && inc.num_colors == scratch.num_colors;
        }

        let (reference_ms, _) = time_samples(3, || {
            let mut mirror = PathFamily::from_family(&work.instance.family);
            let mut spans = Vec::with_capacity(work.script.len());
            for op in &work.script {
                match op {
                    Mutation::Remove(id) => {
                        mirror.remove(*id).expect("script ids are live");
                    }
                    Mutation::Add(p) => {
                        mirror.insert(p.clone());
                    }
                }
                let (dense, _) = mirror.to_dense();
                spans.push(
                    session
                        .solve(&work.instance.graph, &dense)
                        .unwrap()
                        .num_colors,
                );
            }
            (spans, mirror) // dropped outside the clock
        });
        let (engine_ms, _) = time_samples(3, || {
            let mut ws = Workspace::new(
                session.clone(),
                work.instance.graph.clone(),
                work.instance.family.clone(),
            )
            .expect("churn instance is a DAG");
            ws.solution().unwrap();
            let mut spans = Vec::with_capacity(work.script.len());
            for op in &work.script {
                ws.apply([op.clone()]).unwrap();
                spans.push(ws.solution().unwrap().num_colors);
            }
            (spans, ws) // dropped outside the clock
        });
        comps.push(Comparison::invariant_checked(
            "incremental_resolve",
            format!(
                "churn(federated 256), {} steps, reused Σ={reused}",
                work.script.len()
            ),
            reference_ms,
            engine_ms,
            identical && reused > 0,
            "per-step bit-identical, shards_reused > 0",
        ));
    }

    // 3. The million-path tier: same churn comparison at federated-4096
    //    scale (~24k dipaths). The incremental side's per-step cost is
    //    O(dirty) + trivial O(live) gathers, so the ratio must widen with
    //    the instance; the remove+re-add fingerprint adoption is asserted
    //    as part of the invariant.
    {
        let work = compose::churn(13, 4096, 8);
        let session = SolverBuilder::new()
            .decompose(DecomposePolicy::Always)
            .build();

        // Verify once, untimed: final-state bit-identity plus fingerprint
        // adoption on remove+re-add of an identical dipath.
        let mut ws = Workspace::new(
            session.clone(),
            work.instance.graph.clone(),
            work.instance.family.clone(),
        )
        .expect("churn instance is a DAG");
        ws.apply(work.script.iter().cloned()).unwrap();
        let inc = ws.solution().unwrap();
        let (dense, _) = ws.family().to_dense();
        let scratch = session.solve(&work.instance.graph, &dense).unwrap();
        let identical = inc.assignment.colors() == scratch.assignment.colors()
            && inc.num_colors == scratch.num_colors;
        let victim = ws.family().ids().next().expect("family is non-empty");
        let copy = ws.family().get(victim).expect("victim is live").clone();
        ws.apply([Mutation::Remove(victim), Mutation::Add(copy)])
            .unwrap();
        let readd = ws.solution().unwrap().resolve.expect("workspace resolve");
        let adopted = readd.shards_resolved == 0 && readd.shards_reused > 0;

        // Steady state, as in the D3 row: each rep prepares its state
        // untimed, times only the steps, and drops what a step leaves
        // outside the clock. The reference mutates a mirror family and
        // re-solves it from scratch into a full `Solution`; the engine steps
        // one pre-solved
        // workspace (apply + span, the step a service runs), then
        // materializes its `Solution`, an O(|P|) gather timed on its own
        // clock so the gate sees each part. The table counts both.
        let mut reference_ms = Vec::new();
        for _ in 0..2 {
            let mut mirror = PathFamily::from_family(&work.instance.family);
            let mut step = Duration::ZERO;
            for op in &work.script {
                let t0 = Instant::now();
                match op {
                    Mutation::Remove(id) => {
                        mirror.remove(*id).expect("script ids are live");
                    }
                    Mutation::Add(p) => {
                        mirror.insert(p.clone());
                    }
                }
                let (dense, _) = mirror.to_dense();
                let sol = black_box(session.solve(&work.instance.graph, &dense).unwrap());
                step += t0.elapsed();
                drop((sol, dense));
            }
            reference_ms.push(ms(step));
        }
        let (mut engine_ms, mut materialize_ms) = (Vec::new(), Vec::new());
        for _ in 0..2 {
            let mut ws = Workspace::new(
                session.clone(),
                work.instance.graph.clone(),
                work.instance.family.clone(),
            )
            .expect("churn instance is a DAG");
            ws.solution().unwrap();
            let (mut step, mut materialize) = (Duration::ZERO, Duration::ZERO);
            let mut snapshot = None;
            for op in &work.script {
                let t0 = Instant::now();
                ws.apply([op.clone()]).unwrap();
                black_box(ws.span().unwrap());
                step += t0.elapsed();
                let t0 = Instant::now();
                let sol = black_box(ws.solution().unwrap());
                materialize += t0.elapsed();
                snapshot = Some(sol);
            }
            drop((snapshot, ws));
            engine_ms.push(ms(step));
            materialize_ms.push(ms(materialize));
        }
        comps.push(
            Comparison::invariant_checked(
                "incremental_resolve_4096",
                format!(
                    "churn(federated 4096), |P|={}, {} steps",
                    work.instance.family.len(),
                    work.script.len()
                ),
                reference_ms,
                engine_ms,
                identical && adopted,
                "final state bit-identical, re-add adopted from pool",
            )
            .with_extra("materialize", materialize_ms),
        );
    }

    comps
}

fn speedup_table(comps: &[Comparison]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "threads = {} (RAYON_NUM_THREADS or available_parallelism), \
         physical cores visible = {}\n\n",
        rayon::current_num_threads(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    ));
    out.push_str("| op | workload | reference ms | engine ms | ratio | verified invariant |\n");
    out.push_str("|----|----------|---------------|-------------|-------|--------------------|\n");
    for c in comps {
        // The invariant column is structurally truthful: Comparison rows
        // can only be constructed through the invariant assertion.
        out.push_str(&format!(
            "| `{}` | {} | {:.2} | {:.2} | {:.2}x | {} |\n",
            c.op,
            c.size,
            best(&c.reference_ms),
            best(&c.engine_total()),
            c.ratio(),
            c.invariant,
        ));
    }
    out
}

// ---------------------------------------------------------------------------
// EXPERIMENTS.md persistence
// ---------------------------------------------------------------------------

const EXPERIMENTS_PREAMBLE: &str = "\
# EXPERIMENTS

Persistent benchmark record for the dagwave workspace, maintained by the
`report` binary (`crates/bench/src/bin/report.rs`):

* `cargo run --release -p dagwave-bench --bin report -- --experiments`
  regenerates the paper table and the engine-vs-reference table below and
  appends to the run history;
* `-- --baseline` rewrites the committed wall-clock baseline;
* `-- --check` compares a fresh measurement against the baseline and fails
  on >20 % regression (CI runs this on every push).
";

/// Replace (or append) the body of `## {header}` in `text`.
fn replace_section(text: &str, header: &str, body: &str) -> String {
    let needle = format!("## {header}");
    let mut out = String::new();
    let mut lines = text.lines().peekable();
    let mut replaced = false;
    while let Some(line) = lines.next() {
        if line.trim_end() == needle {
            out.push_str(&needle);
            out.push_str("\n\n");
            out.push_str(body.trim_end());
            out.push('\n');
            replaced = true;
            // Skip the old body up to (not including) the next section.
            while let Some(next) = lines.peek() {
                if next.starts_with("## ") {
                    out.push('\n');
                    break;
                }
                lines.next();
            }
        } else {
            out.push_str(line);
            out.push('\n');
        }
    }
    if !replaced {
        if !out.ends_with("\n\n") {
            out.push('\n');
        }
        out.push_str(&needle);
        out.push_str("\n\n");
        out.push_str(body.trim_end());
        out.push('\n');
    }
    out
}

/// Body of the named section, if present.
fn section_body(text: &str, header: &str) -> Option<String> {
    let needle = format!("## {header}");
    let mut body = String::new();
    let mut inside = false;
    for line in text.lines() {
        if line.trim_end() == needle {
            inside = true;
            continue;
        }
        if inside {
            if line.starts_with("## ") {
                break;
            }
            body.push_str(line);
            body.push('\n');
        }
    }
    inside.then_some(body)
}

fn read_or_init(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|_| EXPERIMENTS_PREAMBLE.to_string())
}

fn write_experiments(path: &str) {
    paper_report();
    let paper_lines = SINK.lock().unwrap().join("\n");
    let paper_body = format!(
        "| experiment | parameters | paper claim | measured |\n\
         |------------|------------|-------------|----------|\n{paper_lines}\n\n\
         All rows are verified by assertions while the table is generated."
    );
    let comps = speedup_suite();
    let speedup_body = speedup_table(&comps);
    println!("\n{speedup_body}");

    let mut text = read_or_init(path);
    text = replace_section(&text, "Paper-vs-measured", &paper_body);
    text = replace_section(&text, "Engine vs reference", &speedup_body);
    let ts = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let mut history = section_body(&text, "Run history")
        .unwrap_or_default()
        .trim_end()
        .to_string();
    let ratios = comps
        .iter()
        .map(|c| format!("{} {:.2}x", c.op, c.ratio()))
        .collect::<Vec<_>>()
        .join(", ");
    history.push_str(&format!(
        "\n- unix {ts}: threads={}, {ratios}",
        rayon::current_num_threads()
    ));
    text = replace_section(&text, "Run history", history.trim_start());
    std::fs::write(path, text).expect("write EXPERIMENTS.md");
    println!("updated {path}");
}

// ---------------------------------------------------------------------------
// Wall-clock baseline / regression gate
// ---------------------------------------------------------------------------

/// Every sample of the timing suite, by key: calibration plus both sides of
/// every comparison.
type Timings = Vec<(String, Vec<f64>)>;

/// One pass of the timing suite. The reference and engine sides keep their
/// historical `_seq_ms` and `_par_ms` keys, so a committed baseline reads
/// across the rename.
fn timing_suite() -> Timings {
    let mut vals = vec![("calibration_ms".to_string(), calibration_ms())];
    for c in speedup_suite() {
        vals.push((format!("{}_seq_ms", c.op), c.reference_ms));
        vals.push((format!("{}_par_ms", c.op), c.engine_ms));
        if let Some((name, ms)) = c.extra {
            vals.push((format!("{}_{name}_ms", c.op), ms));
        }
    }
    vals
}

/// Passes of the timing suite per process, and processes behind one
/// baseline or one check.
const TIMING_PASSES: usize = 3;
const TIMING_PROCESSES: usize = 5;

/// `key = ms` lines, one per sample: the output of `--timings`, which runs
/// [`TIMING_PASSES`] passes of the suite in one process.
fn timings_text(passes: usize) -> String {
    let mut text = String::new();
    for _ in 0..passes {
        for (key, samples) in timing_suite() {
            for ms in samples {
                text.push_str(&format!("{key} = {ms:.4}\n"));
            }
        }
    }
    text
}

/// `key = ms` lines grouped by key, in first-seen order.
fn parse_timings(text: &str) -> Timings {
    let mut vals: Timings = Vec::new();
    for (key, ms) in text.lines().filter_map(|line| {
        let (k, v) = line.split_once('=')?;
        Some((k.trim(), v.trim().parse::<f64>().ok()?))
    }) {
        match vals.iter_mut().find(|(k, _)| k == key) {
            Some((_, samples)) => samples.push(ms),
            None => vals.push((key.to_string(), vec![ms])),
        }
    }
    vals
}

fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[sorted.len() / 2]
}

/// Each op's median over every sample of [`TIMING_PROCESSES`] fresh runs
/// of this binary's `--timings` mode. On a shared host a memory-bound op
/// flips between a fast and a slow speed from rep to rep, in proportions
/// that drift over minutes; one process's best-of-reps samples that
/// luck, and the arithmetic calibration loop sees none of it. The median
/// of many samples from several processes is the typical speed.
fn timing_medians() -> Vec<(String, f64)> {
    let exe = std::env::current_exe().expect("the report binary can find itself");
    let mut text = String::new();
    for _ in 0..TIMING_PROCESSES {
        let out = std::process::Command::new(&exe)
            .arg("--timings")
            .stderr(std::process::Stdio::inherit())
            .output()
            .expect("spawn report --timings");
        assert!(out.status.success(), "report --timings failed");
        text.push_str(&String::from_utf8_lossy(&out.stdout));
    }
    parse_timings(&text)
        .into_iter()
        .map(|(key, samples)| (key, median(&samples)))
        .collect()
}

fn timing(vals: &[(String, f64)], key: &str) -> Option<f64> {
    vals.iter().find(|(k, _)| k == key).map(|&(_, ms)| ms)
}

fn baseline_body(vals: &[(String, f64)]) -> String {
    let lines: String = vals
        .iter()
        .map(|(k, v)| format!("{k} = {v:.3}\n"))
        .collect();
    format!(
        "Machine-generated by `report --baseline`; wall-clock milliseconds on\n\
         the committing host, each op's median over every rep of \
         {TIMING_PASSES} passes in\n{TIMING_PROCESSES} processes. `report --check` \
         measures the same way.\n\n```text\n{lines}```"
    )
}

fn write_baseline(path: &str) {
    let vals = timing_medians();
    let mut text = read_or_init(path);
    text = replace_section(&text, "Benchmark baseline", &baseline_body(&vals));
    std::fs::write(path, text).expect("write baseline");
    for (k, v) in &vals {
        println!("{k} = {v:.3}");
    }
    println!("baseline written to {path}");
}

/// Compare fresh timings against the committed baseline. Returns `false`
/// (and prints the offending rows) when any op regressed beyond tolerance
/// against the faster of two speeds: the machine's, as the calibration
/// loop measures it, and the suite's, the geometric mean of every op's
/// fresh/baseline ratio. The memory-bound ops drift with the host by tens
/// of percent over minutes, largely together, while the arithmetic loop
/// barely moves; when they run fast, an op slowed 1.5× can stay under the
/// calibration-scaled bound but stands out against the suite.
fn check_regression(path: &str) -> bool {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return false;
        }
    };
    let Some(body) = section_body(&text, "Benchmark baseline") else {
        eprintln!("{path} has no `## Benchmark baseline` section; run --baseline first");
        return false;
    };
    let baseline: Vec<(String, f64)> = parse_timings(&body)
        .into_iter()
        .map(|(key, ms)| (key, median(&ms)))
        .collect();
    let Some(cal_base) = timing(&baseline, "calibration_ms") else {
        eprintln!("baseline lacks calibration_ms; run --baseline first");
        return false;
    };
    let tolerance = std::env::var("DAGWAVE_BENCH_TOLERANCE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.20);
    let fresh = timing_medians();
    let cal_now = timing(&fresh, "calibration_ms").expect("timing suite includes calibration");
    let scale = cal_now / cal_base.max(1e-9);
    let mut ops = Vec::new();
    for (key, now_ms) in fresh.iter().filter(|(k, _)| k != "calibration_ms") {
        match timing(&baseline, key) {
            Some(base_ms) => ops.push((key, *now_ms, base_ms)),
            None => println!("  {key}: no baseline entry (new op) — {now_ms:.2} ms"),
        }
    }
    let suite = (ops
        .iter()
        .map(|&(_, now_ms, base_ms)| (now_ms / base_ms.max(1e-9)).ln())
        .sum::<f64>()
        / ops.len().max(1) as f64)
        .exp();
    println!(
        "regression check: tolerance {:.0}%, machine scale {scale:.3} \
         (calibration {cal_base:.1} ms -> {cal_now:.1} ms), suite scale {suite:.3}",
        tolerance * 100.0
    );
    let mut ok = true;
    for &(key, now_ms, base_ms) in &ops {
        let allowed = base_ms * scale.min(suite) * (1.0 + tolerance);
        let verdict = if now_ms <= allowed { "ok" } else { "REGRESSED" };
        println!(
            "  {key}: {now_ms:.2} ms vs baseline {base_ms:.2} ms \
             (allowed {allowed:.2} ms) {verdict}"
        );
        ok &= now_ms <= allowed;
    }
    if !ok {
        eprintln!("wall-clock regression beyond {:.0}%", tolerance * 100.0);
    }
    ok
}
