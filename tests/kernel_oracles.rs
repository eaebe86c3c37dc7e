//! Oracles for the allocation-light kernels every solve crosses: the
//! certification checks of [`WavelengthAssignment`], dipath validation,
//! and the workspace's incremental component re-derivation. Each kernel is
//! compared, on seeded random inputs, with the plain implementation it must
//! agree with, and each loop checks that its inputs reached every outcome
//! it is meant to cover.

use dagwave_core::{Mutation, SolveSession, WavelengthAssignment, Workspace};
use dagwave_gen::{compose, random};
use dagwave_graph::builder::from_edges;
use dagwave_graph::{ArcId, Digraph, VertexId};
use dagwave_paths::dipath::SHORT_PATH;
use dagwave_paths::{conflict_components, Dipath, DipathFamily, PathError, PathId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Valid iff no two conflicting dipaths share a color.
fn pairwise_valid(family: &DipathFamily, colors: &[usize]) -> bool {
    family.iter().all(|(p, pp)| {
        family
            .iter()
            .filter(|&(q, _)| q > p)
            .all(|(q, qp)| !pp.conflicts_with(qp) || colors[p.index()] != colors[q.index()])
    })
}

/// The clash `first_violation` must name: arcs in id order, and on each
/// arc its members in family order, compared pairwise.
fn first_clash_per_arc(
    g: &Digraph,
    family: &DipathFamily,
    colors: &[usize],
) -> Option<(PathId, PathId)> {
    for a in g.arc_ids() {
        let members: Vec<PathId> = family
            .iter()
            .filter(|(_, p)| p.contains_arc(a))
            .map(|(id, _)| id)
            .collect();
        for (i, &p) in members.iter().enumerate() {
            for &q in &members[i + 1..] {
                if colors[p.index()] == colors[q.index()] {
                    return Some((p, q));
                }
            }
        }
    }
    None
}

/// First-fit coloring in family order: valid by construction.
fn greedy(family: &DipathFamily) -> Vec<usize> {
    let mut colors: Vec<usize> = Vec::with_capacity(family.len());
    for (p, pp) in family.iter() {
        let taken: Vec<usize> = family
            .iter()
            .take(p.index())
            .filter(|(_, qp)| qp.conflicts_with(pp))
            .map(|(q, _)| colors[q.index()])
            .collect();
        colors.push((0..).find(|c| !taken.contains(c)).unwrap());
    }
    colors
}

/// A random DAG family: layered or internal-cycle-free host, random walks.
fn random_instance(rng: &mut ChaCha8Rng) -> (Digraph, DipathFamily) {
    let g = if rng.random_bool(0.5) {
        random::random_layered(rng, 5, 5, 0.4)
    } else {
        let n = rng.random_range(6..30usize);
        random::random_internal_cycle_free(rng, n, n / 3)
    };
    let count = rng.random_range(0..25usize);
    let family = random::random_family(rng, &g, count, 6);
    (g, family)
}

#[test]
fn certification_matches_pairwise_oracle() {
    let (mut valid, mut invalid) = (0, 0);
    for seed in 0..400u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let (g, family) = random_instance(&mut rng);
        let n = family.len();
        let dense = greedy(&family);
        // Sparse palettes: the same partition spread up to usize::MAX.
        let sparse: Vec<usize> = dense.iter().map(|&c| usize::MAX - 3 * c).collect();
        let palette = [0, 1, usize::MAX, usize::MAX - 1, 1 << 40];
        let colorings = [
            dense,
            sparse,
            (0..n).map(|_| rng.random_range(0..3usize)).collect(),
            (0..n).map(|_| rng.random_range(0..n.max(1))).collect(),
            (0..n)
                .map(|_| palette[rng.random_range(0..palette.len())])
                .collect(),
        ];
        for colors in colorings {
            let w = WavelengthAssignment::new(colors.clone());
            let expected = pairwise_valid(&family, &colors);
            assert_eq!(w.is_valid(&g, &family), expected, "seed {seed}: {colors:?}");
            let clash = first_clash_per_arc(&g, &family, &colors);
            assert_eq!(
                w.first_violation(&g, &family),
                clash,
                "seed {seed}: {colors:?}"
            );
            assert_eq!(clash.is_none(), expected, "seed {seed}");
            if expected {
                valid += 1;
            } else {
                invalid += 1;
            }
        }
    }
    assert!(
        valid > 500 && invalid > 500,
        "{valid} valid, {invalid} invalid"
    );
}

/// Dipath validation with a `HashSet` for simplicity at every length.
fn hashset_reference(g: &Digraph, arcs: &[ArcId]) -> Result<(), PathError> {
    if arcs.is_empty() {
        return Err(PathError::Empty);
    }
    for w in arcs.windows(2) {
        if g.head(w[0]) != g.tail(w[1]) {
            return Err(PathError::NotContiguous {
                prev: w[0],
                next: w[1],
            });
        }
    }
    let mut seen = std::collections::HashSet::new();
    seen.insert(g.tail(arcs[0]));
    for &a in arcs {
        let h = g.head(a);
        if !seen.insert(h) {
            return Err(PathError::RepeatedVertex(h));
        }
    }
    Ok(())
}

/// A directed ring over `n` vertices plus random chords (parallel arcs
/// allowed): directed cycles everywhere, and every vertex has an out-arc.
fn cyclic_digraph(rng: &mut ChaCha8Rng, n: usize) -> Digraph {
    let mut g = Digraph::with_vertices(n);
    let v = VertexId::from_index;
    for i in 0..n {
        g.add_arc(v(i), v((i + 1) % n));
    }
    for _ in 0..rng.random_range(0..2 * n) {
        let (a, b) = (rng.random_range(0..n), rng.random_range(0..n));
        if a != b {
            g.add_arc(v(a), v(b));
        }
    }
    g
}

/// A walk that mostly follows the ring (so long walks can stay simple),
/// sometimes takes a chord, and now and then jumps to a random arc.
fn random_arc_sequence(rng: &mut ChaCha8Rng, g: &Digraph, len: usize) -> Vec<ArcId> {
    let mut arcs = Vec::with_capacity(len);
    let mut cur = VertexId::from_index(rng.random_range(0..g.vertex_count()));
    for _ in 0..len {
        let outs = g.out_arcs(cur);
        let a = if rng.random_bool(0.03) {
            ArcId::from_index(rng.random_range(0..g.arc_count()))
        } else if rng.random_bool(0.9) {
            outs[0] // the ring arc: added first
        } else {
            outs[rng.random_range(0..outs.len())]
        };
        arcs.push(a);
        cur = g.head(a);
    }
    arcs
}

#[test]
fn dipath_validation_matches_hashset_reference() {
    // [short, long] × [ok, not contiguous, repeated vertex, empty]
    let mut seen = [[0usize; 4]; 2];
    for seed in 0..3000u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let n = rng.random_range(3..80usize);
        let g = cyclic_digraph(&mut rng, n);
        let len = rng.random_range(0..=2 * SHORT_PATH + 8);
        let arcs = random_arc_sequence(&mut rng, &g, len);
        let expected = hashset_reference(&g, &arcs);
        assert_eq!(Dipath::validate(&g, &arcs), expected, "seed {seed}");
        assert_eq!(
            Dipath::from_arcs(&g, arcs.clone()).map(|p| p.arcs().to_vec()),
            expected.clone().map(|()| arcs.clone()),
            "seed {seed}"
        );
        let outcome = match expected {
            Ok(()) => 0,
            Err(PathError::NotContiguous { .. }) => 1,
            Err(PathError::RepeatedVertex(_)) => 2,
            Err(_) => 3,
        };
        seen[usize::from(len > SHORT_PATH)][outcome] += 1;
    }
    for (side, counts) in ["short", "long"].iter().zip(seen) {
        assert!(
            counts[..3].iter().all(|&c| c > 0),
            "{side} sequences missed an outcome: {counts:?}"
        );
    }
    assert!(seen[0][3] > 0, "the empty sequence was never drawn");
}

/// The workspace's partition, checked against `conflict_components` of the
/// dense family mapped back to stable ids. Returns the component count.
fn assert_partition(ws: &Workspace, what: &str) -> usize {
    let (dense, ids) = ws.family().to_dense();
    let expected: Vec<Vec<PathId>> = conflict_components(ws.graph(), &dense)
        .into_iter()
        .map(|c| c.into_iter().map(|rank| ids[rank.index()]).collect())
        .collect();
    assert_eq!(ws.components(), expected, "{what}");
    expected.len()
}

#[test]
fn workspace_partition_matches_conflict_components() {
    // `federated(k)` under its churn script.
    for seed in 0..8u64 {
        let work = compose::churn(seed, 2 + seed as usize % 4, 40);
        let inst = &work.instance;
        let mut ws = Workspace::new(
            SolveSession::auto(),
            inst.graph.clone(),
            inst.family.clone(),
        )
        .unwrap();
        assert_partition(&ws, "federated open");
        for (step, op) in work.script.iter().enumerate() {
            ws.apply([op.clone()]).unwrap();
            assert_partition(&ws, &format!("federated seed {seed} step {step}"));
            if step % 4 == 0 {
                ws.span().unwrap();
            }
        }
    }
    // Internal-cycle-free hosts and chains under random walks admitted and
    // retired, one at a time and in mixed batches: single additions that
    // bridge shards and single removals that split one must both occur.
    let (mut bridges, mut splits) = (0, 0);
    for seed in 0..24u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = if seed % 2 == 0 {
            random::random_internal_cycle_free(&mut rng, 30, 8)
        } else {
            from_edges(31, &(0..30).map(|i| (i, i + 1)).collect::<Vec<_>>())
        };
        let walks = random::random_family(&mut rng, &g, 40, 4);
        let walk = |rng: &mut ChaCha8Rng| {
            walks
                .path(PathId::from_index(rng.random_range(0..40)))
                .clone()
        };
        let start = DipathFamily::from_paths((0..12).map(|_| walk(&mut rng)).collect());
        let mut ws = Workspace::new(SolveSession::auto(), g.clone(), start).unwrap();
        let mut count = assert_partition(&ws, "open");
        for step in 0..60 {
            let live: Vec<PathId> = ws.family().ids().collect();
            let pick = |rng: &mut ChaCha8Rng| live[rng.random_range(0..live.len())];
            let kind = if live.is_empty() {
                0
            } else {
                rng.random_range(0..4)
            };
            let batch = match kind {
                0 | 1 => vec![Mutation::Add(walk(&mut rng))],
                2 => vec![Mutation::Remove(pick(&mut rng))],
                _ => vec![
                    Mutation::Remove(pick(&mut rng)),
                    Mutation::Add(walk(&mut rng)),
                    Mutation::Add(walk(&mut rng)),
                ],
            };
            ws.apply(batch).unwrap();
            let now = assert_partition(&ws, &format!("seed {seed} step {step}"));
            match kind {
                0 | 1 if now < count => bridges += 1,
                2 if now > count => splits += 1,
                _ => {}
            }
            count = now;
            if step % 3 == 0 {
                ws.span().unwrap();
            }
        }
    }
    assert!(
        bridges >= 10 && splits >= 10,
        "{bridges} bridging additions, {splits} splitting removals"
    );
}
