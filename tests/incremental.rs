//! Incremental re-solve acceptance: after ANY mutation sequence, a
//! `Workspace`'s solution must be bit-identical to a from-scratch
//! `SolveSession::solve` on the mutated instance (live members in
//! ascending stable-id order), across thread budgets 1/2/4 — with
//! `Resolve` provenance showing that untouched shards were actually served
//! from cache, not recomputed.

use dagwave::gen::compose::churn;
use dagwave::paths::{Dipath, DipathFamily};
use dagwave::{BackendKind, DecomposePolicy, Solution, SolveSession, SolverBuilder, Workspace};
use dagwave_graph::builder::from_edges;
use dagwave_graph::{Digraph, VertexId};
use proptest::prelude::*;

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

fn v(i: usize) -> VertexId {
    VertexId::from_index(i)
}

fn path(g: &Digraph, route: &[usize]) -> Dipath {
    let route: Vec<VertexId> = route.iter().map(|&i| v(i)).collect();
    Dipath::from_vertices(g, &route).unwrap()
}

fn sharded() -> SolveSession {
    SolverBuilder::new()
        .decompose(DecomposePolicy::Always)
        .build()
}

/// From-scratch reference on the workspace's current live members.
fn from_scratch(ws: &Workspace) -> Solution {
    let (dense, _) = ws.family().to_dense();
    ws.session()
        .solve(ws.graph(), &dense)
        .expect("reference solve succeeds")
}

/// Bit-identity: assignment, span, strategy, provenance, and (when
/// decomposed) the per-shard records — everything except the
/// workspace-only `resolve` field.
fn assert_identical(incremental: &Solution, scratch: &Solution) {
    assert_eq!(incremental.assignment.colors(), scratch.assignment.colors());
    assert_eq!(incremental.num_colors, scratch.num_colors);
    assert_eq!(incremental.load, scratch.load);
    assert_eq!(incremental.optimal, scratch.optimal);
    assert_eq!(incremental.class, scratch.class);
    assert_eq!(incremental.strategy, scratch.strategy);
    assert_eq!(incremental.attempts, scratch.attempts);
    match (&incremental.decomposition, &scratch.decomposition) {
        (Some(a), Some(b)) => {
            assert_eq!(a.shard_count(), b.shard_count());
            for (x, y) in a.shards.iter().zip(&b.shards) {
                assert_eq!(x.members, y.members);
                assert_eq!(x.paths, y.paths);
                assert_eq!(x.class, y.class);
                assert_eq!(x.strategy, y.strategy);
                assert_eq!(x.num_colors, y.num_colors);
                assert_eq!(x.optimal, y.optimal);
                assert_eq!(x.attempts, y.attempts);
            }
        }
        (None, None) => {}
        other => panic!("decomposition presence diverged: {other:?}"),
    }
    assert!(
        scratch.resolve.is_none(),
        "one-shot solves carry no resolve"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random churn scripts keep the workspace bit-identical to the
    /// from-scratch solve after every step, and the final state matches at
    /// every thread budget.
    #[test]
    fn random_mutation_sequences_match_from_scratch(
        seed in 0u64..10_000,
        k in 2usize..5,
        steps in 1usize..12,
    ) {
        let work = churn(seed, k, steps);
        let mut ws = Workspace::new(
            sharded(),
            work.instance.graph.clone(),
            work.instance.family.clone(),
        ).unwrap();
        let mut saw_reuse = false;
        for (i, op) in work.script.iter().enumerate() {
            ws.apply([op.clone()]).unwrap();
            let incremental = ws.solution().unwrap();
            let scratch = from_scratch(&ws);
            assert_identical(&incremental, &scratch);
            prop_assert!(incremental.assignment.is_valid(
                ws.graph(),
                &ws.family().to_dense().0,
            ), "step {i} not certified");
            let r = incremental.resolve.expect("workspace stamps resolve");
            saw_reuse |= r.shards_reused > 0;
        }
        // Multi-component instances must actually reuse shards under
        // single-lightpath churn.
        if k >= 2 && !work.script.is_empty() {
            prop_assert!(saw_reuse, "no step reused a shard on {k} components");
        }

        // The final state is bit-identical across thread budgets: replay
        // the whole script under each pool size.
        let reference = ws.solution().unwrap();
        for threads in BUDGETS {
            let colors = with_threads(threads, || {
                let mut ws = Workspace::new(
                    sharded(),
                    work.instance.graph.clone(),
                    work.instance.family.clone(),
                ).unwrap();
                ws.apply(work.script.iter().cloned()).unwrap();
                ws.solution().unwrap().assignment.colors().to_vec()
            });
            prop_assert_eq!(
                colors,
                reference.assignment.colors().to_vec(),
                "{} threads", threads
            );
        }
    }

    /// The delta surface is exact: replaying `delta_since` over any churn
    /// script — syncing after every step — reconstructs precisely the
    /// color table `solution()` reports, at every thread budget, with the
    /// span riding along. The mirror never sees a full solution.
    #[test]
    fn delta_replay_reconstructs_solution_at_every_budget(
        seed in 0u64..10_000,
        k in 2usize..5,
        steps in 1usize..12,
    ) {
        use std::collections::BTreeMap;
        let work = churn(seed, k, steps);
        for threads in BUDGETS {
            with_threads(threads, || {
                let mut ws = Workspace::new(
                    sharded(),
                    work.instance.graph.clone(),
                    work.instance.family.clone(),
                ).unwrap();
                let mut mirror: BTreeMap<dagwave::paths::PathId, u32> = BTreeMap::new();
                let mut synced = dagwave::Epoch::default();
                let sync = |ws: &mut Workspace,
                                mirror: &mut BTreeMap<dagwave::paths::PathId, u32>,
                                synced: &mut dagwave::Epoch| {
                    let d = ws.delta_since(*synced).unwrap();
                    if d.full_resync {
                        mirror.clear();
                    }
                    for id in &d.removed {
                        mirror.remove(id);
                    }
                    for &(id, c) in &d.changes {
                        mirror.insert(id, c);
                    }
                    *synced = d.epoch;
                    d.span
                };
                sync(&mut ws, &mut mirror, &mut synced);
                for op in &work.script {
                    ws.apply([op.clone()]).unwrap();
                    let span = sync(&mut ws, &mut mirror, &mut synced);
                    let sol = ws.solution().unwrap();
                    let expected: BTreeMap<_, _> = ws
                        .family()
                        .dense_ids()
                        .iter()
                        .enumerate()
                        .map(|(rank, &id)| {
                            let c = sol.assignment.colors()[rank] as u32;
                            (id, c)
                        })
                        .collect();
                    prop_assert_eq!(&mirror, &expected, "{} threads", threads);
                    prop_assert_eq!(span, sol.num_colors, "{} threads", threads);
                }
            });
        }
    }

    /// A workspace opened with the *default* session (decompose policy
    /// Auto, threshold 512, Theorem 1 fast-path skip) keeps it with
    /// `Always` pinned and everything else as given, always shards, and
    /// agrees bit-for-bit with that kept session's from-scratch solve.
    #[test]
    fn default_session_keeps_its_pinned_oracle(seed in 0u64..1_000, steps in 1usize..8) {
        let work = churn(seed, 3, steps);
        let mut ws = Workspace::new(
            SolveSession::auto(),
            work.instance.graph.clone(),
            work.instance.family.clone(),
        ).unwrap();
        let kept = ws.session().request();
        prop_assert_eq!(kept.decompose, DecomposePolicy::Always);
        prop_assert_eq!(&kept.policy, &SolveSession::auto().request().policy);
        ws.apply(work.script.iter().cloned()).unwrap();
        let incremental = ws.solution().unwrap();
        prop_assert!(incremental.decomposition.is_some(), "the workspace always shards");
        let scratch = from_scratch(&ws);
        assert_identical(&incremental, &scratch);
    }
}

/// Chain 0→1→2→3→4 with two arc-disjoint paths; the bridge [1,2,3] merges
/// them into one component, and removing it splits them again.
fn bridge_instance() -> (Digraph, DipathFamily) {
    let g = from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
    let f = DipathFamily::from_paths(vec![path(&g, &[0, 1, 2]), path(&g, &[2, 3, 4])]);
    (g, f)
}

#[test]
fn mutation_that_merges_two_shards() {
    let (g, f) = bridge_instance();
    let mut ws = Workspace::new(sharded(), g.clone(), f).unwrap();
    assert_eq!(ws.shard_count(), 2);
    ws.solution().unwrap();

    let bridge = ws.add_path(path(&g, &[1, 2, 3])).unwrap();
    assert_eq!(ws.shard_count(), 1, "bridge merged both components");
    let merged = ws.solution().unwrap();
    let r = merged.resolve.unwrap();
    assert_eq!(r.shards_resolved, 1);
    assert_eq!(r.shards_reused, 0, "both old shards were consumed");
    assert_identical(&merged, &from_scratch(&ws));
    assert_eq!(merged.num_colors, 2, "bridge conflicts with both chains");

    // And the inverse mutation splits the shard again.
    ws.remove_path(bridge).unwrap();
    assert_eq!(ws.shard_count(), 2);
    let split = ws.solution().unwrap();
    assert_identical(&split, &from_scratch(&ws));
    assert_eq!(split.num_colors, 1, "disjoint chains need one wavelength");
}

#[test]
fn mutation_that_splits_a_shard_keeps_others_cached() {
    // Two regions: the bridge-chain (vertices 0..5) and a disjoint chain
    // 5→6→7 whose shard must stay cached through the split.
    let g = from_edges(8, &[(0, 1), (1, 2), (2, 3), (3, 4), (5, 6), (6, 7)]);
    let f = DipathFamily::from_paths(vec![
        path(&g, &[0, 1, 2]),
        path(&g, &[2, 3, 4]),
        path(&g, &[1, 2, 3]), // the bridge: one merged component
        path(&g, &[5, 6, 7]),
        path(&g, &[6, 7]),
    ]);
    let mut ws = Workspace::new(sharded(), g, f).unwrap();
    assert_eq!(ws.shard_count(), 2);
    ws.solution().unwrap();

    ws.remove_path(dagwave::paths::PathId(2)).unwrap();
    assert_eq!(ws.shard_count(), 3, "bridge removal splits the region");
    let sol = ws.solution().unwrap();
    let r = sol.resolve.unwrap();
    assert_eq!(r.shards_resolved, 2, "both split halves recompute");
    assert_eq!(
        r.shards_reused, 1,
        "the disjoint chain is served from cache"
    );
    assert_identical(&sol, &from_scratch(&ws));
}

#[test]
fn remove_to_empty_shard_and_to_empty_family() {
    let (g, f) = bridge_instance();
    let mut ws = Workspace::new(sharded(), g, f).unwrap();
    ws.solution().unwrap();

    // Empty out the second component entirely: its shard disappears.
    ws.remove_path(dagwave::paths::PathId(1)).unwrap();
    assert_eq!(ws.shard_count(), 1);
    let sol = ws.solution().unwrap();
    let r = sol.resolve.unwrap();
    assert_eq!(
        (r.shards_reused, r.shards_resolved),
        (1, 0),
        "survivor cached"
    );
    assert_identical(&sol, &from_scratch(&ws));

    // Empty family: no shard is left, and the workspace dispatches the
    // empty family whole, exactly as from-scratch does.
    ws.remove_path(dagwave::paths::PathId(0)).unwrap();
    assert_eq!(ws.shard_count(), 0);
    let empty = ws.solution().unwrap();
    assert_eq!(empty.num_colors, 0);
    assert!(empty.decomposition.is_none());
    assert_identical(&empty, &from_scratch(&ws));

    // And the instance can repopulate afterwards.
    let g = ws.graph().clone();
    ws.add_path(path(&g, &[0, 1, 2])).unwrap();
    assert_identical(&ws.solution().unwrap(), &from_scratch(&ws));
}

/// The empty family — opened empty, or emptied by churn — answers exactly
/// as the kept session's from-scratch solve does, success or error, at
/// every thread budget: the workspace dispatches it whole, as the one-shot
/// path does. A pinned `weighted` session declines every family without
/// duplicates, the empty one included, so its error must come back too,
/// from `span()` as well as `solution()`.
#[test]
fn empty_family_answers_as_from_scratch_at_every_budget() {
    let (g, _) = bridge_instance();
    let sessions = [
        SolveSession::auto(),
        SolverBuilder::new().pinned(BackendKind::Weighted).build(),
    ];
    let check = |ws: &mut Workspace| {
        let (dense, _) = ws.family().to_dense();
        let scratch = ws.session().solve(ws.graph(), &dense);
        assert_eq!(ws.span().is_ok(), scratch.is_ok());
        match (ws.solution(), scratch) {
            (Ok(a), Ok(b)) => assert_identical(&a, &b),
            (Err(a), Err(b)) => assert_eq!(a, b),
            other => panic!("workspace and from-scratch disagree: {other:?}"),
        }
    };
    for threads in BUDGETS {
        with_threads(threads, || {
            for session in &sessions {
                let mut ws =
                    Workspace::new(session.clone(), g.clone(), DipathFamily::new()).unwrap();
                check(&mut ws);
                let id = ws.add_path(path(&g, &[0, 1, 2])).unwrap();
                check(&mut ws);
                ws.remove_path(id).unwrap();
                check(&mut ws);
            }
        });
    }
}

#[test]
fn arena_reuse_survives_remove_and_readd() {
    // Arena edge case: retiring a dipath and re-admitting the identical
    // arc sequence must hit the interner (the retired dipath's sequence is
    // still held by its dropped shard, banked for reuse, so no sweep can
    // forget it), keep the distinct-list count flat, and leave the delta
    // surface consistent — the re-added path reports the same color a
    // from-scratch solve gives it.
    let (g, f) = bridge_instance();
    let mut ws = Workspace::new(sharded(), g.clone(), f).unwrap();
    ws.solution().unwrap();
    let lists_before = ws.stats().interned_arc_lists;
    let hits_before = ws.stats().intern_hits;
    let epoch_before = ws.epoch();
    let color_before = ws.color_of(dagwave::paths::PathId(1)).unwrap();

    ws.remove_path(dagwave::paths::PathId(1)).unwrap();
    let readded = ws.add_path(path(&g, &[2, 3, 4])).unwrap();
    let stats = ws.stats();
    assert_eq!(
        stats.interned_arc_lists, lists_before,
        "identical arc sequence must not grow the arena"
    );
    assert!(
        stats.intern_hits > hits_before,
        "re-admission is an interner hit"
    );

    let sol = ws.solution().unwrap();
    assert_identical(&sol, &from_scratch(&ws));
    assert_eq!(readded, dagwave::paths::PathId(1), "freed slot is reused");
    assert_eq!(
        ws.color_of(readded).unwrap(),
        color_before,
        "identical path in the identical slot keeps its color"
    );
    // ... which means the delta is silent about it: the remove+re-add
    // round trip cancels out instead of churning downstream mirrors.
    let delta = ws.delta_since(epoch_before).unwrap();
    assert!(!delta.full_resync, "one step back is covered by the log");
    assert!(
        !delta.removed.contains(&readded) && !delta.changes.iter().any(|&(id, _)| id == readded),
        "no-op round trip must not appear in the delta"
    );
}

#[test]
fn shard_members_attribute_paths_without_union_find() {
    // The small-fix satellite: Solution::decomposition now carries the
    // shard→PathId membership, consistent with conflict_components.
    let inst = dagwave::gen::compose::federated(5);
    let sol = sharded().solve(&inst.graph, &inst.family).unwrap();
    let d = sol.decomposition.as_ref().unwrap();
    let comps = dagwave::paths::conflict_components(&inst.graph, &inst.family);
    assert_eq!(d.shard_count(), comps.len());
    for (s, c) in d.shards.iter().zip(&comps) {
        assert_eq!(&s.members, c);
        assert_eq!(s.paths, c.len());
    }
    // shard_of agrees with the recorded membership.
    for (i, c) in comps.iter().enumerate() {
        for &p in c {
            assert_eq!(d.shard_of(p), Some(i));
        }
    }
}

/// The family crosses sizes both ways mid-churn: on a host that is not
/// internal-cycle-free, under a session whose `Auto { min_paths }` sits
/// just above the start, the live count crosses `min_paths` up and down.
/// The workspace keeps that session with `Always` pinned, so it shards at
/// every size; a client syncing `delta_since` after every step must still
/// hold exactly `solution()`'s table, which must equal the kept session's
/// from-scratch solve — at every thread budget. This guards the stale-set
/// and table bookkeeping across growth and shrinkage of the family.
#[test]
fn size_crossings_keep_delta_replay_exact() {
    use dagwave::core::internal::{classify, DagClass};
    use dagwave::paths::{PathFamily, PathId};
    use dagwave::Mutation;
    use std::collections::BTreeMap;

    let inst = dagwave::gen::compose::federated(4);
    assert_ne!(classify(&inst.graph), DagClass::InternalCycleFree);
    let n = inst.family.len();
    let session = SolverBuilder::new()
        .decompose(DecomposePolicy::Auto { min_paths: n + 2 })
        .build();
    // Net size changes per step: up across the threshold, down below the
    // start, and up across it again; a PathFamily mirror picks live ids.
    let moves = [1, 1, 1, -1, -1, -1, -1, 1, 1, 1, 1, -1, -1, 1];
    let mut mirror = PathFamily::from_family(&inst.family);
    let mut script = Vec::new();
    for (step, &m) in moves.iter().enumerate() {
        let live: Vec<PathId> = mirror.ids().collect();
        let pick = live[(step * 7) % live.len()];
        if m > 0 {
            let copy = mirror.get(pick).unwrap().clone();
            mirror.insert(copy.clone());
            script.push(Mutation::Add(copy));
        } else {
            mirror.remove(pick).unwrap();
            script.push(Mutation::Remove(pick));
        }
    }

    let table_of = |ws: &Workspace, sol: &Solution| -> BTreeMap<PathId, u32> {
        ws.family()
            .dense_ids()
            .iter()
            .zip(sol.assignment.colors())
            .map(|(&id, &c)| (id, c as u32))
            .collect()
    };
    for threads in BUDGETS {
        with_threads(threads, || {
            let mut ws =
                Workspace::new(session.clone(), inst.graph.clone(), inst.family.clone()).unwrap();
            let mut replayed: BTreeMap<PathId, u32> = BTreeMap::new();
            let mut synced = dagwave::Epoch::default();
            let mut sizes = Vec::new();
            for op in std::iter::once(None).chain(script.iter().cloned().map(Some)) {
                if let Some(op) = op {
                    ws.apply([op]).unwrap();
                }
                let d = ws.delta_since(synced).unwrap();
                if d.full_resync {
                    replayed.clear();
                }
                for id in &d.removed {
                    replayed.remove(id);
                }
                for &(id, c) in &d.changes {
                    replayed.insert(id, c);
                }
                synced = d.epoch;
                let sol = ws.solution().unwrap();
                let scratch = from_scratch(&ws);
                assert_identical(&sol, &scratch);
                assert_eq!(replayed, table_of(&ws, &sol), "{threads} threads");
                assert_eq!(replayed, table_of(&ws, &scratch), "{threads} threads");
                assert_eq!(d.span, sol.num_colors, "{threads} threads");
                sizes.push(ws.family().len());
                assert!(sol.decomposition.is_some(), "the workspace always shards");
            }
            // The script really crossed `min_paths` both ways, twice over.
            let crossings = sizes
                .windows(2)
                .filter(|w| (w[0] < n + 2) != (w[1] < n + 2))
                .count();
            assert!(crossings >= 3, "sizes never crossed both ways: {sizes:?}");
        });
    }
}
