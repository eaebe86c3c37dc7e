//! Integration tests for Theorem 6/7: the split/merge solver on
//! single-internal-cycle UPP-DAGs, bound behavior on distinct vs
//! replicated families, and the exact Theorem-7 series via the solver.

use dagwave_color::exact;
use dagwave_core::solver::conflict_to_ugraph;
use dagwave_core::{bounds, theorem6, BackendKind, SolveSession};
use dagwave_gen::{havet, random};
use dagwave_paths::{load, ConflictGraph};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Distinct (duplicate-free) families on single-cycle UPP-DAGs respect
    /// the ⌈4π/3⌉ bound.
    #[test]
    fn distinct_families_within_bound(seed in 0u64..5_000, k in 2usize..6, count in 1usize..25) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = random::single_cycle_upp(k);
        let raw = random::random_family(&mut rng, &g, count, 4);
        // Deduplicate to stay in the Facts 1–2 regime.
        let mut seen = std::collections::HashSet::new();
        let family: dagwave_paths::DipathFamily = raw
            .iter()
            .filter(|(_, p)| seen.insert(p.arcs().to_vec()))
            .map(|(_, p)| p.clone())
            .collect();
        let res = theorem6::color_single_cycle_upp(&g, &family).expect("preconditions");
        prop_assert!(res.assignment.is_valid(&g, &family));
        prop_assert!(res.within_bound, "distinct family exceeded ⌈4π/3⌉: {} > {}",
            res.assignment.num_colors(), res.bound);
        prop_assert!(res.assignment.num_colors() >= res.load.min(1));
    }

    /// Replicated families stay valid; the solver (weighted path) stays
    /// within the bound even when the constructive merge overshoots.
    #[test]
    fn replicated_families_solver_within_bound(seed in 0u64..2_000, k in 2usize..5, h in 1usize..4) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = random::single_cycle_upp(k);
        let base = random::random_family(&mut rng, &g, 6, 4);
        let mut seen = std::collections::HashSet::new();
        let dedup: dagwave_paths::DipathFamily = base
            .iter()
            .filter(|(_, p)| seen.insert(p.arcs().to_vec()))
            .map(|(_, p)| p.clone())
            .collect();
        prop_assume!(!dedup.is_empty());
        let family = dedup.replicate(h);
        let pi = load::max_load(&g, &family);
        let sol = SolveSession::auto().solve(&g, &family).unwrap();
        prop_assert!(sol.assignment.is_valid(&g, &family));
        prop_assert!(
            sol.num_colors <= bounds::theorem6_bound(pi),
            "{} > ⌈4π/3⌉ = {}", sol.num_colors, bounds::theorem6_bound(pi)
        );
    }

    /// The class profile always satisfies π = Σ p·|C_p|.
    #[test]
    fn class_profile_sums_to_pi(seed in 0u64..3_000, k in 2usize..6, count in 1usize..20) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = random::single_cycle_upp(k);
        let family = random::random_family(&mut rng, &g, count, 4);
        let res = theorem6::color_single_cycle_upp(&g, &family).expect("preconditions");
        let total: usize = res
            .class_profile
            .iter()
            .enumerate()
            .map(|(p, &c)| p * c)
            .sum();
        prop_assert_eq!(total, res.load);
    }
}

/// Theorem 7 exact series through the solver: w(havet(h)) = ⌈8h/3⌉. From
/// h = 2 on the family has duplicates, and the weighted backend's exact
/// multicoloring proves the count optimal. Theorem 6 misses `π = 2h` on
/// every h, so the weighted rescue is consulted on every h.
#[test]
fn theorem7_series() {
    for h in 1..=6 {
        let inst = havet::havet(h);
        let sol = SolveSession::auto()
            .solve(&inst.graph, &inst.family)
            .unwrap();
        assert!(sol.assignment.is_valid(&inst.graph, &inst.family));
        assert_eq!(sol.num_colors, bounds::havet_wavelengths(h), "h = {h}");
        assert_eq!(sol.load, 2 * h);
        assert!(sol.optimal || h == 1, "h = {h}: not proven optimal");
        let consulted: Vec<BackendKind> = sol.attempts.iter().map(|a| a.backend).collect();
        assert_eq!(
            consulted,
            [BackendKind::Theorem6, BackendKind::Weighted],
            "h = {h}"
        );
    }
}

/// Havet's eight dipaths with unequal copy counts, the covering search's
/// adversarial fixtures. Theorem 6 misses the optimum by 4 to 7 colours,
/// and the weighted rescue's covering search proves it within 50,000
/// nodes; a search that tried every ordering of the same colour classes
/// spent the whole 20M-node default on each and proved none.
#[test]
fn replicated_havet_fixtures_close_within_50k_nodes() {
    let expected = [(55, 19, 20), (57, 19, 21), (47, 17, 18), (53, 19, 20)];
    for (copies, (paths, load, colors)) in havet::REPLICATED_FIXTURES.iter().zip(expected) {
        let inst = havet::havet_copies(copies);
        assert_eq!(inst.family.len(), paths, "{copies:?}");
        let sol = SolveSession::builder()
            .exact_budget(50_000)
            .build()
            .solve(&inst.graph, &inst.family)
            .unwrap();
        assert!(sol.assignment.is_valid(&inst.graph, &inst.family));
        assert_eq!((sol.load, sol.num_colors), (load, colors), "{copies:?}");
        assert!(sol.optimal, "{copies:?}: not proven optimal");
        assert_eq!(sol.strategy, BackendKind::Weighted, "{copies:?}");
        let theorem6 = sol.attempts[0].upper_bound;
        assert_eq!(sol.attempts[0].backend, BackendKind::Theorem6);
        assert!(
            matches!(theorem6, Some(25..=27)),
            "{copies:?}: {theorem6:?}"
        );
    }
}

/// The C5 family replicated gives ⌈5h/2⌉ (the paper's pre-Theorem-7
/// remark: ratio 5/4 does not reach the bound). The copies are true twins
/// of the conflict graph, so the exact solver colors the weighted C5
/// quotient instead of branching over every ordering of the copies, and
/// every factor up to 9 is solved and proven optimal by it.
#[test]
fn c5_replication_series() {
    let inst = dagwave_gen::figures::figure3();
    for h in 1..=9 {
        let family = inst.family.replicate(h);
        let sol = SolveSession::auto().solve(&inst.graph, &family).unwrap();
        assert!(sol.assignment.is_valid(&inst.graph, &family));
        assert_eq!(sol.num_colors, bounds::c5_wavelengths(h), "h = {h}");
        assert!(sol.optimal, "h = {h}: not proven optimal");
        assert_eq!(sol.strategy, BackendKind::Exact, "h = {h}");
    }
}

/// The other side of the twin step: random families on layered DAGs, where
/// a few duplicated lightpaths sit among many distinct ones. Their twin
/// quotients have dozens to thousands of maximal independent sets, and the
/// covering search alone proves none of them within 100k nodes; the branch
/// and bound, taking turns with it, proves χ within 1,000 (it needs under
/// 100 without the twin step).
#[test]
fn few_twins_among_many_paths_stay_cheap() {
    for seed in [19u64, 178, 238, 248, 278] {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = random::random_layered(&mut rng, 3 + (seed % 5) as usize, 4, 0.5);
        let family = random::random_family(&mut rng, &g, 10 + (seed % 70) as usize, 4);
        let ug = conflict_to_ugraph(&ConflictGraph::build(&g, &family));
        let result = exact::chromatic_number_budgeted(&ug, 0, 1_000);
        assert!(result.chromatic().is_some(), "seed {seed}: {result:?}");
    }
}

/// Theorem 6's result structure is coherent on the base Havet instance.
#[test]
fn theorem6_structure_on_havet() {
    let g = havet::havet_graph();
    let family = havet::havet_base_family(&g);
    let res = theorem6::color_single_cycle_upp(&g, &family).unwrap();
    assert_eq!(res.load, 2);
    assert_eq!(res.bound, 3);
    assert!(res.within_bound);
    assert!(res.assignment.is_valid(&g, &family));
    assert_eq!(res.assignment.num_colors(), 3, "χ(V8) = 3 forces the bound");
}
