//! Parallel determinism: everything that runs on the rayon pool — stream
//! windows, portfolio races, shard solves, UPP detection and the transitive
//! closure's fallback for cyclic input — must produce output bit-identical
//! to its single-threaded reference, at every thread budget.
//!
//! The rayon shim guarantees order-preserving chunk reassembly, so these
//! properties hold exactly — not just up to reordering. Each property runs
//! the pooled path under thread budgets 1, 2, and 4 (via
//! `ThreadPoolBuilder::install`; on the sequential `--no-default-features`
//! build the override is a no-op and everything degenerates to
//! sequential-vs-sequential, which must still pass).

use dagwave::core::CoreError;
use dagwave::graph::reach;
use dagwave::paths::DipathFamily;
use dagwave::{BackendKind, DecomposePolicy, Instance, SolveSession, SolverBuilder};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The thread budgets every property is checked under.
const BUDGETS: [usize; 3] = [1, 2, 4];

fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("shim pools are infallible")
        .install(f)
}

fn random_instance(seed: u64, n: usize, paths: usize) -> (dagwave::graph::Digraph, DipathFamily) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let g = dagwave::gen::random::random_internal_cycle_free(&mut rng, n, n / 3);
    let family = dagwave::gen::random::random_family(&mut rng, &g, paths, 6);
    (g, family)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `transitive_closure` — per-vertex searches on the pool for cyclic
    /// input, one sequential sweep for DAGs — equals sequential per-vertex
    /// reachability row for row.
    #[test]
    fn closure_parallel_matches_sequential(seed in 0u64..10_000, n in 2usize..40) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let edges: Vec<(usize, usize)> = (0..2 * n)
            .map(|_| (rng.random_range(0..n), rng.random_range(0..n)))
            .filter(|(a, b)| a != b)
            .collect();
        let g = dagwave::graph::builder::from_edges(n, &edges);
        let rows: Vec<Vec<usize>> = g
            .vertices()
            .map(|v| reach::reachable_from(&g, v).iter().collect())
            .collect();
        for threads in BUDGETS {
            let closure = with_threads(threads, || reach::transitive_closure(&g));
            prop_assert_eq!(closure.len(), n);
            for (i, (row, want)) in closure.iter().zip(&rows).enumerate() {
                prop_assert_eq!(
                    &row.iter().collect::<Vec<_>>(),
                    want,
                    "row {} at {} threads", i, threads
                );
            }
        }
    }

    /// A batch of instances solved through `solve_stream` equals
    /// instance-by-instance `solve` — same color count, load, optimality,
    /// strategy and assignment vector, in input order, with error parity —
    /// at every thread budget.
    #[test]
    fn solve_batch_matches_individual_solves(seed in 0u64..10_000, count in 1usize..10) {
        let instances: Vec<_> = (0..count)
            .map(|i| random_instance(seed.wrapping_add(i as u64), 14, 10))
            .collect();
        let solver = SolveSession::auto();
        let seq: Vec<Result<_, CoreError>> =
            instances.iter().map(|(g, f)| solver.solve(g, f)).collect();
        for threads in BUDGETS {
            let streamed: Vec<_> = with_threads(threads, || {
                solver
                    .solve_stream(instances.iter().map(|(g, f)| Instance::new(g.clone(), f.clone())))
                    .collect()
            });
            prop_assert_eq!(seq.len(), streamed.len(), "{} threads", threads);
            for (i, (s, p)) in seq.iter().zip(&streamed).enumerate() {
                match (s, p) {
                    (Ok(s), Ok(p)) => {
                        prop_assert_eq!(s.num_colors, p.num_colors, "instance {}", i);
                        prop_assert_eq!(s.load, p.load);
                        prop_assert_eq!(s.optimal, p.optimal);
                        prop_assert_eq!(s.strategy, p.strategy);
                        prop_assert_eq!(s.assignment.colors(), p.assignment.colors());
                    }
                    (Err(se), Err(pe)) => prop_assert_eq!(se, pe),
                    _ => prop_assert!(false, "Ok/Err mismatch at instance {}", i),
                }
            }
        }
    }

    /// `solve_stream` yields the same batch, in order, at every thread
    /// budget: the window grows with the pool, so a batch that spans
    /// several windows on one thread fits in one on four, and the window
    /// boundaries must not change a single result.
    #[test]
    fn stream_identical_to_batch_across_budgets(seed in 0u64..10_000, count in 1usize..12) {
        let instances: Vec<_> = (0..count)
            .map(|i| random_instance(seed.wrapping_add(i as u64), 12, 8))
            .collect();
        let session = SolveSession::auto();
        let stream = || -> Vec<Result<_, CoreError>> {
            session
                .solve_stream(instances.iter().map(|(g, f)| Instance::new(g.clone(), f.clone())))
                .collect()
        };
        let batch = with_threads(1, stream);
        for threads in BUDGETS {
            let streamed = with_threads(threads, stream);
            prop_assert_eq!(streamed.len(), batch.len(), "{} threads", threads);
            for (i, (s, b)) in streamed.iter().zip(&batch).enumerate() {
                match (s, b) {
                    (Ok(s), Ok(b)) => {
                        prop_assert_eq!(s.num_colors, b.num_colors, "instance {}", i);
                        prop_assert_eq!(s.strategy, b.strategy);
                        prop_assert_eq!(s.assignment.colors(), b.assignment.colors());
                    }
                    (Err(se), Err(be)) => prop_assert_eq!(se, be),
                    _ => prop_assert!(false, "Ok/Err mismatch at instance {}", i),
                }
            }
        }
    }

    /// `Policy::Portfolio` (raced on the pool) picks the same winner and
    /// the same assignment vector at every thread budget.
    #[test]
    fn portfolio_identical_across_budgets(seed in 0u64..10_000, paths in 1usize..40) {
        let (g, family) = random_instance(seed, 20, paths);
        let session = SolverBuilder::new()
            .portfolio(vec![
                BackendKind::Dsatur,
                BackendKind::GreedyNatural,
                BackendKind::GreedySmallestLast,
                BackendKind::KempeGreedy,
            ])
            .build();
        let reference = session.solve(&g, &family).unwrap();
        for threads in BUDGETS {
            let par = with_threads(threads, || session.solve(&g, &family)).unwrap();
            prop_assert_eq!(par.strategy, reference.strategy, "{} threads", threads);
            prop_assert_eq!(par.num_colors, reference.num_colors);
            prop_assert_eq!(par.assignment.colors(), reference.assignment.colors());
            prop_assert_eq!(par.attempts.len(), reference.attempts.len());
        }
    }

    /// Decompose-solve-merge is deterministic and lossless: on a known
    /// multi-component instance (a disjoint union of random
    /// internal-cycle-free parts) the decomposed solve is bit-identical
    /// across thread budgets, equals the whole-instance solve's span
    /// (both hit the lower bound `π` on this class), and never uses more
    /// colors than monolithic Auto.
    #[test]
    fn decomposed_solve_identical_across_budgets(seed in 0u64..10_000, parts in 2usize..5) {
        let parts: Vec<dagwave::gen::Instance> = (0..parts)
            .map(|i| {
                let (graph, family) = random_instance(seed.wrapping_add(i as u64), 12, 8);
                dagwave::gen::Instance { graph, family, name: format!("part{i}") }
            })
            .collect();
        let union = dagwave::gen::compose::disjoint_union(&parts);
        let session = SolverBuilder::new()
            .decompose(DecomposePolicy::Always)
            .build();
        let reference = session.solve(&union.graph, &union.family).unwrap();
        let mono = SolveSession::builder()
            .decompose(DecomposePolicy::Off)
            .build()
            .solve(&union.graph, &union.family)
            .unwrap();
        prop_assert!(reference.num_colors <= mono.num_colors);
        prop_assert_eq!(
            reference.num_colors, mono.num_colors,
            "internal-cycle-free: both sides must hit π"
        );
        prop_assert!(reference.decomposition.is_some());
        for threads in BUDGETS {
            let par = with_threads(threads, || session.solve(&union.graph, &union.family)).unwrap();
            prop_assert_eq!(par.num_colors, reference.num_colors, "{} threads", threads);
            prop_assert_eq!(par.strategy, reference.strategy);
            prop_assert_eq!(par.assignment.colors(), reference.assignment.colors());
            let (d, rd) = (
                par.decomposition.as_ref().unwrap(),
                reference.decomposition.as_ref().unwrap(),
            );
            prop_assert_eq!(d.shard_count(), rd.shard_count(), "{} threads", threads);
            for (s, r) in d.shards.iter().zip(&rd.shards) {
                prop_assert_eq!(s.num_colors, r.num_colors);
                prop_assert_eq!(s.strategy, r.strategy);
            }
        }
    }

    /// `Policy::Auto` never uses more colors than the best pinned backend:
    /// on internal-cycle-free instances Auto runs Theorem 1 (provably `π`
    /// colors, the universal lower bound), so every pinned backend must use
    /// at least as many.
    #[test]
    fn auto_never_beaten_by_any_pinned_backend(seed in 0u64..10_000, paths in 1usize..30) {
        let (g, family) = random_instance(seed, 16, paths);
        let auto = SolveSession::auto().solve(&g, &family).unwrap();
        for kind in BackendKind::ALL {
            let session = SolverBuilder::new().pinned(kind).build();
            match session.solve(&g, &family) {
                Ok(pinned) => prop_assert!(
                    auto.num_colors <= pinned.num_colors,
                    "auto used {} colors but pinned {} used {}",
                    auto.num_colors, kind, pinned.num_colors
                ),
                Err(CoreError::BackendUnsupported { .. }) => {} // fine: not applicable
                Err(other) => prop_assert!(false, "pinned {} failed: {}", kind, other),
            }
        }
    }
}

/// UPP detection (rayon `all`/`filter_map` consumers) agrees across budgets.
#[test]
fn upp_detection_identical_across_budgets() {
    for seed in 0..20u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = dagwave::gen::random::random_internal_cycle_free(&mut rng, 24, 12);
        let reference = dagwave::graph::pathcount::is_upp(&g);
        let witness = dagwave::graph::pathcount::upp_violation(&g);
        for threads in BUDGETS {
            assert_eq!(
                with_threads(threads, || dagwave::graph::pathcount::is_upp(&g)),
                reference,
                "seed {seed}, {threads} threads"
            );
            assert_eq!(
                with_threads(threads, || dagwave::graph::pathcount::upp_violation(&g)),
                witness,
                "seed {seed}, {threads} threads"
            );
        }
    }
}
