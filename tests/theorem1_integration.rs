//! Integration + property tests for Theorem 1: on random
//! internal-cycle-free DAGs, the constructive coloring is always valid and
//! uses exactly `π(G, P)` wavelengths, for every peel order and Kempe
//! strategy.

use dagwave_core::theorem1::{self, KempeStrategy, PeelOrder};
use dagwave_gen::random;
use dagwave_paths::load;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// w = π on random internal-cycle-free DAGs with random families.
    #[test]
    fn w_equals_pi_on_internal_cycle_free(
        seed in 0u64..10_000,
        n in 6usize..60,
        extra in 0usize..20,
        count in 1usize..40,
        max_len in 1usize..6,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = random::random_internal_cycle_free(&mut rng, n, extra);
        prop_assume!(g.arc_count() > 0);
        let family = random::random_family(&mut rng, &g, count, max_len);
        let pi = load::max_load(&g, &family);
        let res = theorem1::color_optimal(&g, &family).expect("theorem 1 applies");
        prop_assert!(res.assignment.is_valid(&g, &family));
        prop_assert_eq!(res.load, pi);
        prop_assert_eq!(res.assignment.num_colors(), pi, "w = π");
    }

    /// All ablation variants agree on the color count and stay valid.
    #[test]
    fn ablation_variants_agree(
        seed in 0u64..5_000,
        n in 6usize..40,
        count in 1usize..25,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = random::random_internal_cycle_free(&mut rng, n, 8);
        prop_assume!(g.arc_count() > 0);
        let family = random::random_family(&mut rng, &g, count, 4);
        let pi = load::max_load(&g, &family);
        for order in [PeelOrder::Fifo, PeelOrder::Lifo, PeelOrder::MinId] {
            for strat in [KempeStrategy::ComponentSwap, KempeStrategy::Cascade] {
                let res = theorem1::color_optimal_with(&g, &family, order, strat)
                    .expect("theorem 1 applies");
                prop_assert!(res.assignment.is_valid(&g, &family), "{:?}/{:?}", order, strat);
                prop_assert_eq!(res.assignment.num_colors(), pi, "{:?}/{:?}", order, strat);
            }
        }
    }

    /// Rooted trees (the paper's first special case): root-to-all families.
    #[test]
    fn rooted_tree_families(seed in 0u64..10_000, n in 2usize..80) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = random::random_out_tree(&mut rng, n);
        let family = random::root_to_all_family(&g);
        let pi = load::max_load(&g, &family);
        let res = theorem1::color_optimal(&g, &family).expect("trees qualify");
        prop_assert!(res.assignment.is_valid(&g, &family));
        prop_assert_eq!(res.assignment.num_colors(), pi);
        // On an out-tree, the root's heaviest subtree arc carries the load:
        // π equals the largest subtree size among the root's children only
        // when the root has the bottleneck; in general π ≥ 1.
        prop_assert!(pi >= 1);
    }
}

/// The peel log is a permutation of the arcs, regardless of order.
#[test]
fn peel_log_is_arc_permutation() {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let g = random::random_internal_cycle_free(&mut rng, 30, 10);
    let family = random::random_family(&mut rng, &g, 12, 4);
    for order in [PeelOrder::Fifo, PeelOrder::Lifo, PeelOrder::MinId] {
        let log = theorem1::peel(&g, &family, order).unwrap();
        let mut arcs: Vec<_> = log.steps().map(|s| s.arc).collect();
        arcs.sort_unstable();
        arcs.dedup();
        assert_eq!(arcs.len(), g.arc_count(), "{order:?}");
    }
}

/// Larger deterministic smoke test: a few thousand dipaths.
#[test]
fn large_instance_smoke() {
    let mut rng = ChaCha8Rng::seed_from_u64(99);
    let g = random::random_internal_cycle_free(&mut rng, 300, 80);
    let family = random::random_family(&mut rng, &g, 2_000, 8);
    let pi = load::max_load(&g, &family);
    let res = theorem1::color_optimal(&g, &family).unwrap();
    assert!(res.assignment.is_valid(&g, &family));
    assert_eq!(res.assignment.num_colors(), pi);
}
