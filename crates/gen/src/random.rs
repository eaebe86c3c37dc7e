//! Seeded random instances for scaling benchmarks and property tests.
//!
//! All generators take a [`rand::Rng`] (benches use `ChaCha8Rng` with fixed
//! seeds for reproducibility). The internal-cycle-free generators back the
//! Theorem-1 scaling experiments (the T1 rows of EXPERIMENTS.md); the
//! single-cycle UPP generator backs T6.

use crate::Instance;
use dagwave_graph::{ArcId, Digraph, VertexId};
use dagwave_paths::{Dipath, DipathFamily};
use rand::seq::{IndexedRandom, SliceRandom};
use rand::Rng;

/// A uniformly random out-tree on `n` vertices (vertex 0 is the root; each
/// other vertex picks a uniform parent among lower ids). Rooted trees have
/// no underlying cycle at all, hence no internal cycle — the paper's
/// motivating special case.
pub fn random_out_tree<R: Rng>(rng: &mut R, n: usize) -> Digraph {
    let mut g = Digraph::with_vertices(n);
    for i in 1..n {
        let parent = rng.random_range(0..i);
        g.add_arc(VertexId::from_index(parent), VertexId::from_index(i));
    }
    g
}

/// A random layered DAG: `layers` layers of `width` vertices, each arc
/// from layer `l` to `l + 1` kept with probability `density`. May contain
/// internal cycles (it usually does once `density · width > 1`).
pub fn random_layered<R: Rng>(rng: &mut R, layers: usize, width: usize, density: f64) -> Digraph {
    let n = layers * width;
    let mut g = Digraph::with_vertices(n);
    let vid = |l: usize, i: usize| VertexId::from_index(l * width + i);
    for l in 0..layers.saturating_sub(1) {
        for i in 0..width {
            let mut any = false;
            for j in 0..width {
                if rng.random_bool(density) {
                    g.add_arc(vid(l, i), vid(l + 1, j));
                    any = true;
                }
            }
            if !any {
                // Keep the DAG connected layer to layer.
                let j = rng.random_range(0..width);
                g.add_arc(vid(l, i), vid(l + 1, j));
            }
        }
    }
    g
}

/// A random internal-cycle-free DAG: an out-tree on `n` vertices plus up to
/// `extra` additional random arcs, each accepted only if the digraph stays
/// acyclic *and* internal-cycle-free. The rejection check is exact, so the
/// returned digraph always satisfies Theorem 1's hypothesis.
pub fn random_internal_cycle_free<R: Rng>(rng: &mut R, n: usize, extra: usize) -> Digraph {
    let mut edges: Vec<(usize, usize)> = (1..n).map(|i| (rng.random_range(0..i), i)).collect();
    let mut accepted = 0usize;
    let mut attempts = 0usize;
    while accepted < extra && attempts < extra * 8 {
        attempts += 1;
        let a = rng.random_range(0..n);
        let b = rng.random_range(0..n);
        if a == b {
            continue;
        }
        let (lo, hi) = (a.min(b), a.max(b));
        let mut candidate = edges.clone();
        candidate.push((lo, hi)); // lower id → higher id keeps it acyclic
        let g = dagwave_graph::builder::from_edges(n, &candidate);
        if dagwave_core::internal::is_internal_cycle_free(&g) {
            edges = candidate;
            accepted += 1;
        }
    }
    dagwave_graph::builder::from_edges(n, &edges)
}

/// The generalized single-internal-cycle UPP-DAG behind Figure 5: vertices
/// `a_i → b_i → {c_i, c_{i-1}} → d_i` around a cycle of size `k` (`2k`
/// internal-cycle arcs). All `4k` canonical dipaths `a ⇝ d` exist.
pub fn single_cycle_upp(k: usize) -> Digraph {
    assert!(k >= 2);
    crate::figures::theorem2_family(k).graph
}

/// A random dipath family on `g`: `count` random-walk dipaths, each walking
/// up to `max_len` arcs from a random start vertex with out-arcs.
pub fn random_family<R: Rng>(
    rng: &mut R,
    g: &Digraph,
    count: usize,
    max_len: usize,
) -> DipathFamily {
    let starts: Vec<VertexId> = g.vertices().filter(|&v| g.outdegree(v) > 0).collect();
    let mut family = DipathFamily::new();
    if starts.is_empty() {
        return family;
    }
    while family.len() < count {
        let start = *starts.choose(rng).expect("non-empty starts"); // lint: allow(no-panic): starts was checked non-empty before the loop
        let mut arcs: Vec<ArcId> = Vec::new();
        let mut cur = start;
        let len = rng.random_range(1..=max_len);
        for _ in 0..len {
            let outs = g.out_arcs(cur);
            if outs.is_empty() {
                break;
            }
            let a = *outs.choose(rng).expect("non-empty outs"); // lint: allow(no-panic): outs emptiness is handled by the break above
            arcs.push(a);
            cur = g.head(a);
        }
        if arcs.is_empty() {
            continue;
        }
        family.push(Dipath::from_arcs(g, arcs).expect("walk is contiguous")); // lint: allow(no-panic): a random walk emits consecutive arcs
    }
    family
}

/// A spine `v0 → … → v(len−1)` whose every vertex `vi` also has an entry
/// leaf `si → vi` and an exit leaf `vi → ti`, with one dipath
/// `si, vi, …, vj, tj` per spine interval `(i, j)`, `i < j < len`. The
/// leaves are sources and sinks, so the internal vertices form a path and
/// the graph is internal-cycle-free; long intervals share long segments.
pub fn spine_family(len: usize, intervals: &[(usize, usize)]) -> (Digraph, DipathFamily) {
    let v = VertexId::from_index;
    let mut g = Digraph::with_vertices(3 * len);
    for i in 0..len {
        g.add_arc(v(len + i), v(i));
        g.add_arc(v(i), v(2 * len + i));
        if i + 1 < len {
            g.add_arc(v(i), v(i + 1));
        }
    }
    let family = intervals
        .iter()
        .map(|&(i, j)| {
            let route: Vec<VertexId> = std::iter::once(v(len + i))
                .chain((i..=j).map(v))
                .chain(std::iter::once(v(2 * len + j)))
                .collect();
            let path = Dipath::from_vertices(&g, &route);
            path.expect("an interval walks the spine") // lint: allow(no-panic): consecutive spine vertices and their leaves are joined by arcs
        })
        .collect();
    (g, family)
}

/// [`spine_family`] over `paths` random intervals of `lens.0..=lens.1`
/// arcs (`lens.1 < len`).
pub fn random_spine_family<R: Rng>(
    rng: &mut R,
    len: usize,
    paths: usize,
    lens: (usize, usize),
) -> (Digraph, DipathFamily) {
    let intervals: Vec<(usize, usize)> = (0..paths)
        .map(|_| {
            let span = rng.random_range(lens.0..=lens.1);
            let i = rng.random_range(0..len - span);
            (i, i + span)
        })
        .collect();
    spine_family(len, &intervals)
}

/// All root-to-vertex dipaths of an out-tree (the paper's rooted-tree
/// "all from root" instance, where `w = π` was first proved).
pub fn root_to_all_family(g: &Digraph) -> DipathFamily {
    let root = g
        .vertices()
        .find(|&v| g.is_source(v) && g.outdegree(v) > 0)
        .expect("tree has a root"); // lint: allow(no-panic): a generated tree always has a source with out-arcs
    let mut family = DipathFamily::new();
    // DFS accumulating arc stacks.
    let mut stack: Vec<(VertexId, Vec<ArcId>)> = vec![(root, Vec::new())];
    while let Some((v, arcs)) = stack.pop() {
        if !arcs.is_empty() {
            // lint: allow(no-panic): DFS stack paths follow tree arcs, so they are contiguous
            family.push(Dipath::from_arcs(g, arcs.clone()).expect("tree path"));
        }
        for &a in g.out_arcs(v) {
            let mut next = arcs.clone();
            next.push(a);
            stack.push((g.head(a), next));
        }
    }
    family
}

/// A random sub-family of the `4k` canonical `a ⇝ d` dipaths of
/// [`single_cycle_upp`], each independently replicated `1..=max_mult`
/// times. Exercises Theorem 6 across class profiles.
pub fn random_cycle_family<R: Rng>(rng: &mut R, k: usize, max_mult: usize) -> Instance {
    let base = crate::figures::theorem2_family(k);
    let g = base.graph;
    // Canonical dipaths: a_i b_i c_i d_i and a_i b_i c_{i-1} d_{i-1}.
    let mut paths = Vec::new();
    for (_, p) in base.family.iter() {
        // theorem2_family already enumerates representative dipaths; reuse
        // them plus their reversals of multiplicity.
        let mult = rng.random_range(1..=max_mult.max(1));
        for _ in 0..mult {
            paths.push(p.clone());
        }
    }
    paths.shuffle(rng);
    Instance {
        graph: g,
        family: DipathFamily::from_paths(paths),
        name: format!("random-cycle-k{k}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn out_tree_shape() {
        let g = random_out_tree(&mut rng(1), 50);
        assert_eq!(g.vertex_count(), 50);
        assert_eq!(g.arc_count(), 49);
        assert!(dagwave_graph::topo::is_dag(&g));
        assert!(dagwave_core::internal::is_internal_cycle_free(&g));
        assert!(dagwave_graph::pathcount::is_upp(&g));
        assert_eq!(g.sources().len(), 1, "single root");
    }

    #[test]
    fn layered_is_dag() {
        let g = random_layered(&mut rng(2), 5, 6, 0.3);
        assert!(dagwave_graph::topo::is_dag(&g));
        assert_eq!(g.vertex_count(), 30);
        assert!(g.arc_count() >= 4 * 6, "connectivity arcs guaranteed");
    }

    #[test]
    fn internal_cycle_free_generator_honors_contract() {
        for seed in 0..5 {
            let g = random_internal_cycle_free(&mut rng(seed), 40, 15);
            assert!(dagwave_graph::topo::is_dag(&g), "seed {seed}");
            assert!(
                dagwave_core::internal::is_internal_cycle_free(&g),
                "seed {seed}"
            );
            assert!(g.arc_count() >= 39, "tree backbone present");
        }
    }

    #[test]
    fn random_family_is_valid_and_sized() {
        let g = random_layered(&mut rng(3), 4, 5, 0.4);
        let f = random_family(&mut rng(4), &g, 25, 3);
        assert_eq!(f.len(), 25);
        for (_, p) in f.iter() {
            assert!(!p.is_empty() && p.len() <= 3);
        }
    }

    #[test]
    fn root_to_all_covers_tree() {
        let g = random_out_tree(&mut rng(5), 20);
        let f = root_to_all_family(&g);
        assert_eq!(f.len(), 19, "one dipath per non-root vertex");
        // Load of the root's out-arcs equals subtree sizes; the instance is
        // Theorem-1 solvable at w = π.
        let sol = dagwave_core::SolveSession::auto().solve(&g, &f).unwrap();
        assert!(sol.optimal);
        assert_eq!(sol.num_colors, sol.load);
    }

    #[test]
    fn single_cycle_upp_classifies() {
        for k in [2usize, 4] {
            let g = single_cycle_upp(k);
            assert!(dagwave_graph::pathcount::is_upp(&g));
            assert_eq!(dagwave_core::internal::internal_cycle_count(&g), 1);
        }
    }

    #[test]
    fn random_cycle_family_valid() {
        let inst = random_cycle_family(&mut rng(6), 3, 3);
        assert!(inst.family.len() >= 7, "at least the base family");
        assert!(inst.load() >= 1);
        let sol = dagwave_core::SolveSession::auto()
            .solve(&inst.graph, &inst.family)
            .unwrap();
        assert!(sol.assignment.is_valid(&inst.graph, &inst.family));
    }

    #[test]
    fn determinism_under_fixed_seed() {
        let a = random_internal_cycle_free(&mut rng(42), 30, 10);
        let b = random_internal_cycle_free(&mut rng(42), 30, 10);
        assert_eq!(a.arc_count(), b.arc_count());
        let fa = random_family(&mut rng(7), &a, 10, 4);
        let fb = random_family(&mut rng(7), &b, 10, 4);
        for (pa, pb) in fa.iter().zip(fb.iter()) {
            assert_eq!(pa.1.arcs(), pb.1.arcs());
        }
    }
}
