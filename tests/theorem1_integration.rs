//! Integration + property tests for Theorem 1: on random
//! internal-cycle-free DAGs, the constructive coloring is always valid and
//! uses exactly `π(G, P)` wavelengths; where the replay blocks, its chain
//! witnesses an internal cycle (Figure 4).

use dagwave_core::theorem1;
use dagwave_core::{internal, witness, CoreError};
use dagwave_gen::{compose, figures, havet, random, Instance};
use dagwave_paths::{load, DipathFamily};
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

/// The peel log is a permutation of the arcs.
#[test]
fn peel_log_is_arc_permutation() {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let g = random::random_internal_cycle_free(&mut rng, 30, 10);
    let family = random::random_family(&mut rng, &g, 12, 4);
    let log = theorem1::peel(&g, &family).unwrap();
    let mut arcs: Vec<_> = log.steps().map(|s| s.arc).collect();
    arcs.sort_unstable();
    arcs.dedup();
    assert_eq!(arcs.len(), g.arc_count());
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

/// Figure 4 (case C of Theorem 1's proof): a blocked replay's chain
/// witnesses an internal cycle by itself. On every fixture the cycle
/// extracted from the chain is internal and lies inside the chain's
/// support, including a union whose first part is a bare copy of Figure 3's
/// host: that copy has an internal cycle no dipath uses.
#[test]
fn blocked_chains_witness_their_own_internal_cycle() {
    let fig3 = figures::figure3();
    let bare = Instance {
        graph: fig3.graph.clone(),
        family: DipathFamily::new(),
        name: "figure 3 host, no dipaths".to_string(),
    };
    let mut fixtures = vec![fig3.clone()];
    fixtures.extend((1..=3).map(havet::havet));
    fixtures.extend([2, 3, 4, 8].map(figures::theorem2_family));
    fixtures.push(compose::disjoint_union(&[bare, fig3]));
    for inst in &fixtures {
        let Err(CoreError::InternalCycleObstruction { chain }) =
            theorem1::color_optimal(&inst.graph, &inst.family)
        else {
            panic!("{}: Theorem 1's replay must block", inst.name);
        };
        let cycle = witness::internal_cycle_from_chain(&inst.graph, &inst.family, &chain)
            .unwrap_or_else(|| panic!("{}: the chain witnesses no cycle", inst.name));
        assert!(
            internal::is_internal_cycle(&inst.graph, &cycle),
            "{}",
            inst.name
        );
        for step in &cycle.steps {
            assert!(
                chain
                    .iter()
                    .any(|&p| inst.family.path(p).contains_arc(step.arc)),
                "{}: witness arc {:?} lies on no dipath of the chain",
                inst.name,
                step.arc
            );
        }
    }
}
