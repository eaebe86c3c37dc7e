//! End-to-end RWA pipeline tests across crates: requests → routing →
//! wavelength assignment, plus the grooming extension.

use dagwave_core::BackendKind;
use dagwave_gen::random;
use dagwave_route::grooming;
use dagwave_route::request::{self, Request};
use dagwave_route::routing::RoutingStrategy;
use dagwave_route::rwa::RwaPipeline;
use proptest::prelude::*;
use rand::prelude::IndexedRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random traffic on internal-cycle-free backbones always solves at
    /// w = π, with either routing strategy.
    #[test]
    fn backbone_rwa_is_tight(seed in 0u64..5_000, n in 8usize..50, reqs in 1usize..40) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = random::random_internal_cycle_free(&mut rng, n, 10);
        let closure = dagwave_graph::reach::transitive_closure(&g);
        let pairs: Vec<Request> = g
            .vertices()
            .flat_map(|u| {
                closure[u.index()]
                    .iter()
                    .map(dagwave_graph::VertexId::from_index)
                    .filter(move |&v| v != u)
                    .map(move |v| Request::new(u, v))
                    .collect::<Vec<_>>()
            })
            .collect();
        prop_assume!(!pairs.is_empty());
        let chosen: Vec<Request> =
            (0..reqs).map(|_| *pairs.choose(&mut rng).unwrap()).collect();
        for strat in [RoutingStrategy::Shortest, RoutingStrategy::LoadAware] {
            let report = RwaPipeline::new(strat).run(&g, &chosen).unwrap();
            prop_assert!(report.solution.assignment.is_valid(&g, &report.family));
            prop_assert_eq!(report.solution.strategy, BackendKind::Theorem1);
            prop_assert_eq!(report.solution.num_colors, report.solution.load);
        }
    }

    /// Load-aware routing never yields a higher load than its own
    /// shortest-path run on the same requests… (not true in general for
    /// heuristics, so assert the weaker invariant: both are ≥ 1 and the
    /// pipelines agree on validity).
    #[test]
    fn pipelines_are_valid(seed in 0u64..3_000, n in 6usize..30) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = random::random_out_tree(&mut rng, n);
        let reqs = request::multicast(&g, dagwave_graph::VertexId(0));
        prop_assume!(!reqs.is_empty());
        let report = RwaPipeline::new(RoutingStrategy::LoadAware).run(&g, &reqs).unwrap();
        prop_assert!(report.solution.assignment.is_valid(&g, &report.family));
        prop_assert!(report.solution.optimal, "multicast on digraphs: w = π (cited [2])");
    }
}

/// Grooming: selection under budget w is servable with w wavelengths on
/// internal-cycle-free DAGs (the certificate is a real coloring).
#[test]
fn grooming_certificates() {
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    for _ in 0..10 {
        let g = random::random_internal_cycle_free(&mut rng, 30, 10);
        let family = random::random_family(&mut rng, &g, 40, 5);
        for w in 1..4 {
            let sel = grooming::select_max_load_bounded(&g, &family, w);
            assert!(sel.load <= w, "selection respects the budget");
            let cert = sel.certificate.expect("theorem 1 applies");
            assert!(cert.num_colors() <= w, "w wavelengths suffice");
        }
    }
}

/// Grooming on the path network: greedy equals brute force on small cases.
#[test]
fn grooming_path_greedy_is_optimal_small() {
    // All intervals over 5 arcs with length ≤ 3, capacity 2: compare the
    // greedy count to exhaustive search.
    let intervals: Vec<(usize, usize)> = (0..5)
        .flat_map(|s| (s + 1..=5.min(s + 3)).map(move |e| (s, e)))
        .collect();
    let w = 2;
    let greedy = grooming::max_dipaths_on_path(&intervals, w).len();
    // Brute force over subsets.
    let n = intervals.len();
    let mut best = 0usize;
    for mask in 0u32..(1 << n) {
        let chosen: Vec<(usize, usize)> = (0..n)
            .filter(|&i| mask & (1 << i) != 0)
            .map(|i| intervals[i])
            .collect();
        let mut usage = [0usize; 5];
        let ok = chosen.iter().all(|&(s, e)| {
            (s..e).all(|a| {
                usage[a] += 1;
                usage[a] <= w
            })
        });
        if ok {
            best = best.max(chosen.len());
        }
    }
    assert_eq!(greedy, best, "greedy by right endpoint is exact on paths");
}

/// Multicast on an arbitrary DAG (not just trees): the paper cites [2]
/// that w = π always; our solver should reach it on small cases.
#[test]
fn multicast_equality_on_small_dags() {
    let mut rng = ChaCha8Rng::seed_from_u64(21);
    for _ in 0..10 {
        let g = random::random_layered(&mut rng, 3, 4, 0.5);
        let origin = dagwave_graph::VertexId(0);
        let reqs = request::multicast(&g, origin);
        if reqs.is_empty() {
            continue;
        }
        let report = RwaPipeline::new(RoutingStrategy::LoadAware)
            .run(&g, &reqs)
            .unwrap();
        assert!(report.solution.assignment.is_valid(&g, &report.family));
        // Multicast dipaths from one origin: any two sharing an arc means
        // nested/crossing from the same source; the solver must reach π.
        assert_eq!(
            report.solution.num_colors, report.solution.load,
            "multicast instances satisfy w = π (Beauquier–Hell–Pérennes)"
        );
    }
}
