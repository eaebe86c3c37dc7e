//! The pluggable solving surface, end to end through the facade crate:
//! every named backend is reachable via `Policy::Pinned` and produces a
//! certify-validated coloring, portfolios race deterministically, and
//! `solve_stream` over a large generated instance family matches
//! instance-by-instance `solve` exactly.

use dagwave::core::certify::certify;
use dagwave::core::CoreError;
use dagwave::graph::builder::from_edges;
use dagwave::graph::{Digraph, VertexId};
use dagwave::paths::{Dipath, DipathFamily};
use dagwave::{BackendKind, Instance, Policy, SolveSession, SolverBuilder};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn v(i: usize) -> VertexId {
    VertexId::from_index(i)
}

fn path(g: &Digraph, route: &[usize]) -> Dipath {
    let route: Vec<VertexId> = route.iter().map(|&i| v(i)).collect();
    Dipath::from_vertices(g, &route).unwrap()
}

/// Internal-cycle-free instance (Theorem 1 territory).
fn tree_instance() -> (Digraph, DipathFamily) {
    let g = from_edges(4, &[(0, 1), (1, 2), (1, 3)]);
    let f = DipathFamily::from_paths(vec![
        path(&g, &[0, 1, 2]),
        path(&g, &[0, 1, 3]),
        path(&g, &[1, 2]),
    ]);
    (g, f)
}

/// Single-internal-cycle UPP instance (Theorem 6 territory).
fn crossing_instance() -> (Digraph, DipathFamily) {
    let g = from_edges(
        8,
        &[
            (0, 2),
            (1, 3),
            (2, 4),
            (2, 5),
            (3, 4),
            (3, 5),
            (4, 6),
            (5, 7),
        ],
    );
    let f = DipathFamily::from_paths(vec![
        path(&g, &[0, 2, 4, 6]),
        path(&g, &[1, 3, 5, 7]),
        path(&g, &[2, 5]),
        path(&g, &[3, 4]),
    ]);
    (g, f)
}

/// General instance (internal cycle, not UPP).
fn diamond_instance() -> (Digraph, DipathFamily) {
    let g = from_edges(6, &[(0, 1), (1, 2), (2, 4), (1, 3), (3, 4), (4, 5)]);
    let f = DipathFamily::from_paths(vec![
        path(&g, &[0, 1, 2]),
        path(&g, &[1, 2, 4]),
        path(&g, &[1, 3, 4]),
        path(&g, &[3, 4, 5]),
    ]);
    (g, f)
}

/// An instance each backend supports.
fn supporting_instance(kind: BackendKind) -> (Digraph, DipathFamily) {
    match kind {
        BackendKind::Theorem1 => tree_instance(),
        BackendKind::Theorem6 => crossing_instance(),
        BackendKind::Weighted => {
            let (g, f) = tree_instance();
            (g, f.replicate(3)) // duplicates unlock the weighted backend
        }
        _ => diamond_instance(),
    }
}

/// Acceptance: every backend reachable through the public API reports a
/// proper, certify-validated coloring when pinned on an instance it
/// supports.
#[test]
fn every_backend_produces_a_certified_coloring() {
    for kind in BackendKind::ALL {
        let (g, f) = supporting_instance(kind);
        let sol = SolverBuilder::new()
            .pinned(kind)
            .build()
            .solve(&g, &f)
            .unwrap_or_else(|e| panic!("pinned {kind} failed: {e}"));
        assert_eq!(sol.strategy, kind);
        let cert = certify(&g, &f, &sol);
        assert!(cert.conflict_free, "{kind} produced a conflicting coloring");
        assert!(
            cert.colors_used >= cert.load,
            "{kind} beat the load bound?!"
        );
        assert_eq!(cert.colors_used, sol.num_colors, "{kind}");
        // Provenance mirrors the certificate.
        assert_eq!(sol.attempts.len(), 1);
        assert!(sol.attempts[0].valid, "{kind}");
        assert_eq!(sol.attempts[0].upper_bound, Some(sol.num_colors));
        assert!(sol.attempts[0].lower_bound >= sol.load, "{kind}");
    }
}

/// A full portfolio on each instance class: the winner's color count is
/// the minimum over everything that ran, and declined members carry a
/// reason instead of a result.
#[test]
fn full_portfolio_wins_with_the_minimum_on_every_class() {
    for (g, f) in [tree_instance(), crossing_instance(), diamond_instance(), {
        let (g, f) = tree_instance();
        (g, f.replicate(4))
    }] {
        let session = SolverBuilder::new()
            .policy(Policy::Portfolio(vec![]))
            .build();
        let sol = session.solve(&g, &f).unwrap();
        assert!(sol.assignment.is_valid(&g, &f));
        let min = sol
            .attempts
            .iter()
            .filter(|a| a.valid)
            .filter_map(|a| a.upper_bound)
            .min()
            .unwrap();
        assert_eq!(sol.num_colors, min);
        for a in sol.attempts.iter() {
            assert!(
                a.upper_bound.is_some() || a.note.is_some(),
                "{} neither ran nor explained itself",
                a.backend
            );
        }
    }
}

/// Pinning a backend against an explicit portfolio of the same backend
/// must agree — the two policies share the execution path.
#[test]
fn pinned_agrees_with_singleton_portfolio() {
    let (g, f) = diamond_instance();
    for kind in [
        BackendKind::Dsatur,
        BackendKind::KempeGreedy,
        BackendKind::Exact,
    ] {
        let pinned = SolverBuilder::new()
            .pinned(kind)
            .build()
            .solve(&g, &f)
            .unwrap();
        let solo = SolverBuilder::new()
            .portfolio(vec![kind])
            .build()
            .solve(&g, &f)
            .unwrap();
        assert_eq!(pinned.num_colors, solo.num_colors, "{kind}");
        assert_eq!(pinned.assignment.colors(), solo.assignment.colors());
    }
}

/// Acceptance: streaming ≥1000 generated instances matches solving them
/// one by one exactly — same values, same order, same per-instance errors.
#[test]
fn stream_of_1000_instances_matches_solve_exactly() {
    let mut instances: Vec<Instance> = Vec::new();
    for i in 0..1000u64 {
        if i % 97 == 0 {
            // Sprinkle in invalid (cyclic) instances: error parity matters.
            let g = from_edges(2, &[(0, 1), (1, 0)]);
            instances.push(Instance::new(g, DipathFamily::new()));
        } else {
            let mut rng = ChaCha8Rng::seed_from_u64(0x5eed + i);
            let g = dagwave::gen::random::random_internal_cycle_free(&mut rng, 8, 3);
            let f = dagwave::gen::random::random_family(&mut rng, &g, 5, 4);
            instances.push(Instance::new(g, f));
        }
    }
    let session = SolveSession::auto();
    let solved: Vec<_> = instances
        .iter()
        .map(|i| session.solve(&i.graph, &i.family))
        .collect();
    let streamed: Vec<_> = session.solve_stream(instances.iter().cloned()).collect();
    assert_eq!(streamed.len(), 1000);
    assert_eq!(solved.len(), 1000);
    for (i, (s, b)) in streamed.iter().zip(&solved).enumerate() {
        match (s, b) {
            (Ok(s), Ok(b)) => {
                assert_eq!(s.num_colors, b.num_colors, "instance {i}");
                assert_eq!(s.load, b.load, "instance {i}");
                assert_eq!(s.strategy, b.strategy, "instance {i}");
                assert_eq!(s.assignment.colors(), b.assignment.colors(), "instance {i}");
            }
            (Err(se), Err(be)) => assert_eq!(se, be, "instance {i}"),
            _ => panic!("Ok/Err mismatch at instance {i}"),
        }
    }
    // The sprinkled cyclic instances really exercised the error path.
    assert!(streamed
        .iter()
        .step_by(97)
        .all(|r| matches!(r, Err(CoreError::NotADag(_)))));
}

/// Budgets on the builder are live: dropping the exact limit reroutes the
/// general-class Auto dispatch to DSATUR.
#[test]
fn builder_budgets_change_dispatch() {
    let (g, f) = diamond_instance();
    let default_route = SolveSession::auto().solve(&g, &f).unwrap();
    assert_eq!(default_route.strategy, BackendKind::Exact);
    let rerouted = SolverBuilder::new()
        .exact_limit(0)
        .build()
        .solve(&g, &f)
        .unwrap();
    assert_eq!(rerouted.strategy, BackendKind::Dsatur);
    assert!(rerouted.assignment.is_valid(&g, &f));
}
