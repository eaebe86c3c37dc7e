//! Decompose-solve-merge acceptance: on federated (multi-component)
//! instances, `DecomposePolicy::Always` must produce a certified coloring
//! whose span equals the max over per-shard spans, bit-identical across
//! thread budgets 1/2/4, never worse than the monolithic Auto solve, and
//! equal field for field to solving every component on its own, with one
//! sub-instance built and one attempt list held per distinct shard
//! content.

use dagwave::gen::compose::{disjoint_union, federated};
use dagwave::gen::{figures, Instance};
use dagwave::graph::builder::from_edges;
use dagwave::graph::{Digraph, VertexId};
use dagwave::paths::{
    conflict_components, Dipath, DipathFamily, ExtractScratch, PathId, ShardGroups, SubInstance,
};
use dagwave::{
    BackendAttempt, BackendKind, DecomposePolicy, Solution, SolveSession, SolverBuilder, Workspace,
};
use std::sync::Arc;

/// The thread budgets every check runs under (no-op on the sequential
/// `--no-default-features` build).
const BUDGETS: [usize; 3] = [1, 2, 4];

fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("shim pools are infallible")
        .install(f)
}

fn sharded() -> SolveSession {
    SolverBuilder::new()
        .decompose(DecomposePolicy::Always)
        .build()
}

#[test]
fn federated_span_is_max_over_shards_and_certified() {
    for k in [1usize, 3, 6, 10] {
        let inst = federated(k);
        let sol = sharded().solve(&inst.graph, &inst.family).unwrap();
        let d = sol.decomposition.as_ref().expect("federated solve shards");
        assert_eq!(d.shard_count(), k, "one shard per glued figure, k={k}");
        let max_shard = d.shards.iter().map(|s| s.num_colors).max().unwrap_or(0);
        assert_eq!(sol.num_colors, max_shard, "merged span = max over shards");
        assert_eq!(sol.num_colors, sol.assignment.num_colors());
        // Certified, not just structurally merged.
        assert!(sol.assignment.is_valid(&inst.graph, &inst.family));
        // The shard partition matches the conflict components.
        let sizes: Vec<usize> = conflict_components(&inst.graph, &inst.family)
            .iter()
            .map(|c| c.len())
            .collect();
        assert_eq!(d.shards.iter().map(|s| s.paths).collect::<Vec<_>>(), sizes);
    }
}

#[test]
fn federated_decomposed_never_uses_more_colors_than_monolithic_auto() {
    for k in [2usize, 4, 8, 12] {
        let inst = federated(k);
        let mono = SolveSession::auto()
            .solve(&inst.graph, &inst.family)
            .unwrap();
        let dec = sharded().solve(&inst.graph, &inst.family).unwrap();
        assert!(
            dec.num_colors <= mono.num_colors,
            "k={k}: decomposed used {} colors, monolithic Auto {}",
            dec.num_colors,
            mono.num_colors
        );
        // Per-shard exact/theorem solvers certify every figure shard, so
        // the merged federated solve is provably optimal.
        assert!(dec.optimal, "k={k}");
    }
}

#[test]
fn federated_bit_identical_across_thread_budgets() {
    let inst = federated(9);
    let session = sharded();
    let reference = session.solve(&inst.graph, &inst.family).unwrap();
    for threads in BUDGETS {
        let sol = with_threads(threads, || {
            session.solve(&inst.graph, &inst.family).unwrap()
        });
        assert_eq!(
            sol.assignment.colors(),
            reference.assignment.colors(),
            "{threads} threads"
        );
        assert_eq!(sol.num_colors, reference.num_colors);
        assert_eq!(sol.strategy, reference.strategy);
        let (d, rd) = (
            sol.decomposition.as_ref().unwrap(),
            reference.decomposition.as_ref().unwrap(),
        );
        assert_eq!(d.shard_count(), rd.shard_count());
        for (s, r) in d.shards.iter().zip(&rd.shards) {
            assert_eq!(s.strategy, r.strategy, "{threads} threads");
            assert_eq!(s.num_colors, r.num_colors);
            assert_eq!(s.class, r.class);
        }
    }
}

#[test]
fn decomposition_reclassifies_shards() {
    // The federated family mixes classes: the whole union is general, but
    // the crossing-C4 shard classifies as UPP single-cycle and gets the
    // theorem-backed treatment its class deserves.
    let inst = federated(8);
    let sol = sharded().solve(&inst.graph, &inst.family).unwrap();
    let d = sol.decomposition.unwrap();
    let hist = d.class_histogram();
    assert!(
        hist.len() >= 2,
        "multiple classes in the histogram: {hist:?}"
    );
    assert!(
        d.shards
            .iter()
            .any(|s| s.class == dagwave::core::internal::DagClass::UppSingleCycle),
        "crossing-C4 shards reclassify as UPP single-cycle"
    );
}

#[test]
fn auto_threshold_shards_large_federated_instances() {
    // Enough copies to cross the default Auto threshold: the default
    // session decomposes without being asked.
    let copies = DecomposePolicy::DEFAULT_MIN_PATHS / 5 + 1; // figure3 = 5 paths
    let inst = disjoint_union(&vec![dagwave::gen::figures::figure3(); copies]);
    assert!(inst.family.len() >= DecomposePolicy::DEFAULT_MIN_PATHS);
    let sol = SolveSession::auto()
        .solve(&inst.graph, &inst.family)
        .unwrap();
    let d = sol
        .decomposition
        .expect("default Auto shards big instances");
    assert_eq!(d.shard_count(), copies);
    assert_eq!(sol.num_colors, 3, "every C5 shard colors with 3");
    assert!(sol.optimal, "per-shard exact certifies the merged optimum");
}

#[test]
fn decomposition_composes_with_stream() {
    let instances: Vec<_> = (1..=4usize).map(federated).collect();
    let session = sharded();
    let solved: Vec<_> = instances
        .iter()
        .map(|i| session.solve(&i.graph, &i.family))
        .collect();
    let streamed: Vec<_> = session
        .solve_stream(
            instances
                .iter()
                .map(|i| dagwave::Instance::new(i.graph.clone(), i.family.clone())),
        )
        .collect();
    assert_eq!(streamed.len(), instances.len());
    for (k, (b, s)) in solved.iter().zip(&streamed).enumerate() {
        let (b, s) = (b.as_ref().unwrap(), s.as_ref().unwrap());
        assert_eq!(b.assignment.colors(), s.assignment.colors(), "instance {k}");
        assert_eq!(
            b.decomposition.as_ref().unwrap().shard_count(),
            k + 1,
            "federated(k) has k shards"
        );
        assert_eq!(s.decomposition.as_ref().unwrap().shard_count(), k + 1);
    }
}

/// `inst` with its dipaths listed in reverse order.
fn members_reversed(inst: &Instance) -> Instance {
    let mut paths: Vec<Dipath> = inst.family.iter().map(|(_, p)| p.clone()).collect();
    paths.reverse();
    Instance {
        graph: inst.graph.clone(),
        family: DipathFamily::from_paths(paths),
        name: format!("{} members reversed", inst.name),
    }
}

/// `inst` with vertex `v` renumbered `n - 1 - v`, arcs in the same order:
/// the same local arc lists over different local endpoints.
fn vertices_reversed(inst: &Instance) -> Instance {
    let n = inst.graph.vertex_count() as u32;
    let mut graph = Digraph::with_vertices(n as usize);
    for (_, arc) in inst.graph.arcs() {
        graph.add_arc(VertexId(n - 1 - arc.tail.0), VertexId(n - 1 - arc.head.0));
    }
    let paths = inst
        .family
        .iter()
        .map(|(_, p)| Dipath::from_arcs(&graph, p.arcs().to_vec()).unwrap())
        .collect();
    Instance {
        graph,
        family: DipathFamily::from_paths(paths),
        name: format!("{} vertices reversed", inst.name),
    }
}

/// The chain `0 → 1 → 2 → 3` under `[0,1,2]`, `[1,2,3]` and `[2,3]`, or,
/// with `moved`, `[1,2]` in place of the last: one arc apart, same sizes,
/// and the load rises from 2 to 3.
fn chain(moved: bool) -> Instance {
    let graph = from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
    let last: &[usize] = if moved { &[1, 2] } else { &[2, 3] };
    let paths = [&[0, 1, 2][..], &[1, 2, 3], last]
        .iter()
        .map(|route| {
            let route: Vec<VertexId> = route.iter().map(|&v| VertexId::from_index(v)).collect();
            Dipath::from_vertices(&graph, &route).unwrap()
        })
        .collect();
    Instance {
        graph,
        family: DipathFamily::from_paths(paths),
        name: format!("chain moved={moved}"),
    }
}

/// Arcs `a`, `b` (parallel copies of `0 → 1`) and `c` (`1 → 2`) under
/// `[a, c]`, `[b, c]` and `[a]`, or, with `swap`, `[b]`: a repeat that
/// differs only in which parallel copy its last member takes.
fn parallel_copies(swap: bool) -> Instance {
    let mut graph = Digraph::with_vertices(3);
    let a = graph.add_arc(VertexId(0), VertexId(1));
    let b = graph.add_arc(VertexId(0), VertexId(1));
    let c = graph.add_arc(VertexId(1), VertexId(2));
    let paths = [vec![a, c], vec![b, c], vec![if swap { b } else { a }]]
        .into_iter()
        .map(|arcs| Dipath::from_arcs(&graph, arcs).unwrap())
        .collect();
    Instance {
        graph,
        family: DipathFamily::from_paths(paths),
        name: format!("parallel copies swap={swap}"),
    }
}

/// The decomposed solve rebuilt without the shared shard path: every
/// component extracted on its own, solved whole by an undecomposed
/// session, and merged in component order through
/// `WavelengthAssignment::normalized`.
struct Reference {
    colors: Vec<usize>,
    span: usize,
    strategy: BackendKind,
    attempts: Vec<BackendAttempt>,
    shards: Vec<(Vec<PathId>, Solution)>,
}

fn independent_shard_solves(inst: &Instance) -> Reference {
    let whole = SolverBuilder::new().decompose(DecomposePolicy::Off).build();
    let mut colors = vec![usize::MAX; inst.family.len()];
    let (mut span, mut strategy, mut attempts, mut shards) = (0, None, Vec::new(), Vec::new());
    for members in conflict_components(&inst.graph, &inst.family) {
        let sub = SubInstance::extract(&inst.graph, &inst.family, &members);
        let sol = whole.solve(&sub.graph, &sub.family).unwrap();
        for (local, &c) in sol.assignment.normalized().colors().iter().enumerate() {
            colors[sub.original_id(PathId::from_index(local)).index()] = c;
        }
        if strategy.is_none() || sol.num_colors > span {
            strategy = Some(sol.strategy);
        }
        span = span.max(sol.num_colors);
        attempts.extend(sol.attempts.iter().cloned());
        shards.push((members, sol));
    }
    Reference {
        colors,
        span,
        strategy: strategy.expect("every fixture has a component"),
        attempts,
        shards,
    }
}

#[test]
fn decomposed_solve_matches_independent_shard_solves() {
    let t2 = figures::theorem2_family(3);
    let fixtures = [
        // Exact repeats, and a repeat listing its members in reverse.
        disjoint_union(&[
            t2.clone(),
            figures::figure3(),
            t2.clone(),
            figures::crossing_c4(),
            members_reversed(&t2),
            figures::figure3(),
            figures::crossing_c4(),
            t2.clone(),
        ]),
        // Near-repeats: equal sizes, one arc apart.
        disjoint_union(&[chain(false), chain(true), chain(false), chain(true)]),
        // Repeats numbered in reverse: equal local arc lists, different
        // local endpoints (Theorem 6 colors these two differently).
        disjoint_union(&[
            t2.clone(),
            vertices_reversed(&t2),
            vertices_reversed(&figures::theorem2_family(2)),
            figures::theorem2_family(2),
            t2,
        ]),
        // Repeats that differ only in which parallel copy a member takes.
        disjoint_union(&[
            parallel_copies(false),
            parallel_copies(true),
            parallel_copies(false),
            parallel_copies(true),
            parallel_copies(true),
        ]),
    ];
    let session = sharded();
    for inst in &fixtures {
        let reference = independent_shard_solves(inst);
        for threads in BUDGETS {
            let sol = with_threads(threads, || {
                session.solve(&inst.graph, &inst.family).unwrap()
            });
            let at = format!("{} at {threads} threads", inst.name);
            assert_eq!(sol.assignment.colors(), reference.colors, "{at}");
            assert_eq!(sol.num_colors, reference.span, "{at}");
            assert_eq!(sol.strategy, reference.strategy, "{at}");
            assert_eq!(*sol.attempts, reference.attempts, "{at}");
            let d = sol.decomposition.as_ref().expect("Always shards");
            assert_eq!(d.shard_count(), reference.shards.len(), "{at}");
            for (i, (s, (members, r))) in d.shards.iter().zip(&reference.shards).enumerate() {
                let at = format!("{at}, shard {i}");
                assert_eq!(&s.members, members, "{at}");
                assert_eq!(s.paths, members.len(), "{at}");
                assert_eq!(s.class, r.class, "{at}");
                assert_eq!(s.strategy, r.strategy, "{at}");
                assert_eq!(s.num_colors, r.num_colors, "{at}");
                assert_eq!(s.load, r.load, "{at}");
                assert_eq!(s.optimal, r.optimal, "{at}");
                assert_eq!(s.attempts, r.attempts, "{at}");
            }
            // A workspace opened on the fixture answers bit-identically.
            let opened = with_threads(threads, || {
                let graph = inst.graph.clone();
                let mut ws = Workspace::new(session.clone(), graph, inst.family.clone()).unwrap();
                ws.solution().unwrap()
            });
            assert_eq!(opened.assignment.colors(), sol.assignment.colors(), "{at}");
            assert_eq!(opened.num_colors, sol.num_colors, "{at}");
            assert_eq!(opened.load, sol.load, "{at}");
            assert_eq!(opened.optimal, sol.optimal, "{at}");
            assert_eq!(opened.class, sol.class, "{at}");
            assert_eq!(opened.strategy, sol.strategy, "{at}");
            assert_eq!(opened.attempts, sol.attempts, "{at}");
            let od = opened.decomposition.as_ref().expect("workspaces shard");
            assert_eq!(od.shard_count(), d.shard_count(), "{at}");
            for (o, s) in od.shards.iter().zip(&d.shards) {
                assert_eq!(o.members, s.members, "{at}");
                assert_eq!(o.class, s.class, "{at}");
                assert_eq!(o.strategy, s.strategy, "{at}");
                assert_eq!(o.num_colors, s.num_colors, "{at}");
                assert_eq!(o.load, s.load, "{at}");
                assert_eq!(o.optimal, s.optimal, "{at}");
                assert_eq!(o.attempts, s.attempts, "{at}");
            }
        }
    }
}

/// `federated(k)` glues copies of six distinct shards, so grouping its
/// shards by content key yields six groups at every k: on the components
/// the one-shot path hands to the shard engine, and in a workspace's first
/// refresh, which builds and solves one sub-instance per group.
#[test]
fn federated_builds_one_sub_instance_per_distinct_shard() {
    for k in [64usize, 256, 1024] {
        let inst = federated(k);
        let (g, family) = (&inst.graph, &inst.family);
        let components = conflict_components(g, family);
        let groups = ShardGroups::new(
            g,
            components
                .iter()
                .map(|members| members.iter().map(|&id| family.path(id))),
            &mut ExtractScratch::new(),
        );
        assert_eq!(groups.group_of().len(), k, "k={k}");
        assert_eq!(groups.firsts().len(), 6, "k={k}: one-shot groups");
        let mut ws = Workspace::new(sharded(), g.clone(), family.clone()).unwrap();
        let resolve = ws.solution().unwrap().resolve.expect("workspace resolve");
        assert_eq!(resolve.shards_resolved, k, "k={k}");
        assert_eq!(resolve.solves, 6, "k={k}: sub-instances built at open");
    }
}

/// The shards of one content group share one solve, and with it one
/// attempt list: a one-shot solve of `federated(k)` holds six attempt
/// lists however many shards it reports, and the merged list is still the
/// shard lists concatenated in shard order.
#[test]
fn identical_shards_share_one_attempt_list() {
    for k in [64usize, 256] {
        let inst = federated(k);
        let (g, family) = (&inst.graph, &inst.family);
        let sol = sharded().solve(g, family).unwrap();
        let d = sol.decomposition.as_ref().expect("Always shards");
        let components = conflict_components(g, family);
        let groups = ShardGroups::new(
            g,
            components
                .iter()
                .map(|members| members.iter().map(|&id| family.path(id))),
            &mut ExtractScratch::new(),
        );
        assert_eq!(d.shard_count(), groups.group_of().len(), "k={k}");
        for (i, (shard, &group)) in d.shards.iter().zip(groups.group_of()).enumerate() {
            let first = &d.shards[groups.firsts()[group]];
            assert!(
                Arc::ptr_eq(&shard.attempts, &first.attempts),
                "k={k}: shard {i} copied its group's attempt list"
            );
        }
        let mut lists: Vec<*const BackendAttempt> =
            d.shards.iter().map(|s| s.attempts.as_ptr()).collect();
        lists.sort_unstable();
        lists.dedup();
        assert_eq!(lists.len(), 6, "k={k}: one attempt list per distinct shard");
        let concatenated = d.shards.iter().flat_map(|s| s.attempts.iter());
        assert!(sol.attempts.iter().eq(concatenated), "k={k}");
    }
}
