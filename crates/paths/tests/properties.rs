//! Property tests for dipaths, loads and conflict graphs.

use dagwave_graph::builder::from_edges;
use dagwave_graph::{ArcId, Digraph, VertexId};
use dagwave_paths::{
    conflict, load, ConflictGraph, Dipath, DipathFamily, ExtractScratch, PathFamily, PathId,
    ShardGroups, SubInstance,
};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A chain digraph of `n` arcs plus a family of random sub-intervals.
fn interval_family() -> impl Strategy<Value = (usize, Vec<(usize, usize)>)> {
    (2usize..30).prop_flat_map(|n| {
        let ivs = proptest::collection::vec((0usize..n, 1usize..=n), 1..40).prop_map(move |raw| {
            raw.into_iter()
                .map(|(s, e)| {
                    let s = s.min(n - 1);
                    let e = e.clamp(s + 1, n);
                    (s, e)
                })
                .collect::<Vec<_>>()
        });
        (Just(n), ivs)
    })
}

fn build(n: usize, ivs: &[(usize, usize)]) -> (dagwave_graph::Digraph, DipathFamily) {
    let edges: Vec<(usize, usize)> = (0..n).map(|i| (i, i + 1)).collect();
    let g = from_edges(n + 1, &edges);
    let family: DipathFamily = ivs
        .iter()
        .map(|&(s, e)| {
            let route: Vec<VertexId> = (s..=e).map(VertexId::from_index).collect();
            Dipath::from_vertices(&g, &route).unwrap()
        })
        .collect();
    (g, family)
}

/// The live members a [`PathFamily`] must report, by stable id.
type Reference = BTreeMap<PathId, Dipath>;

/// The accessors that read the slot table: never build the dense view.
fn check_slots(f: &PathFamily, reference: &Reference) {
    assert_eq!(f.len(), reference.len());
    assert_eq!(f.is_empty(), reference.is_empty());
    let ids: Vec<PathId> = reference.keys().copied().collect();
    assert_eq!(f.ids().collect::<Vec<_>>(), ids);
    let members: Vec<(PathId, &Dipath)> = reference.iter().map(|(&id, p)| (id, p)).collect();
    assert_eq!(f.iter().collect::<Vec<_>>(), members);
}

/// Every dense query against the reference, plus the sharing contract: the
/// view and `to_dense` hold each slot's own `Arc`, not a copy.
fn check_dense(f: &PathFamily, reference: &Reference) {
    check_slots(f, reference);
    let ids: Vec<PathId> = reference.keys().copied().collect();
    assert_eq!(f.dense_ids(), &ids[..]);
    let view = f.dense_view();
    assert_eq!(view.len(), ids.len());
    let (dense, map) = f.to_dense();
    assert_eq!(map, ids);
    for (rank, (&id, p)) in reference.iter().enumerate() {
        let r = PathId::from_index(rank);
        assert_eq!(f.dense_rank(id), Some(rank));
        assert_eq!(view.path(r), p);
        let slot = f.get_shared(id).expect("reference ids are live");
        assert!(Arc::ptr_eq(view.shared(r), slot), "view copied slot {id}");
        assert!(
            Arc::ptr_eq(dense.shared(r), slot),
            "to_dense copied slot {id}"
        );
    }
    for id in (0..f.slot_count() + 2).map(PathId::from_index) {
        if !reference.contains_key(&id) {
            assert_eq!(f.dense_rank(id), None, "{id} is not live");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The lazily built dense view of a [`PathFamily`] agrees with a
    /// `BTreeMap` reference through random insert/remove scripts with dense
    /// queries in the middle — so later mutations patch a built view — and
    /// clones of a family whose view is built keep their own answers while
    /// the source mutates on.
    #[test]
    fn lazy_dense_view_matches_btreemap_reference(
        (n, ivs) in interval_family(),
        script in proptest::collection::vec((0u8..10, 0usize..64), 1..80),
    ) {
        let (_, base) = build(n, &ivs);
        let mut f = PathFamily::from_family(&base);
        let mut reference: Reference = base.iter().map(|(id, p)| (id, p.clone())).collect();
        let mut clones: Vec<(PathFamily, Reference)> = Vec::new();
        for &(op, x) in &script {
            match op {
                // Insert a base dipath: the smallest id not live.
                0..=2 => {
                    let p = base.path(PathId::from_index(x % base.len())).clone();
                    let expected = (0u32..).map(PathId).find(|id| !reference.contains_key(id));
                    let id = f.insert(p.clone());
                    prop_assert_eq!(Some(id), expected);
                    reference.insert(id, p);
                }
                // Remove a live id, or fail to remove a dead one.
                3..=5 => {
                    if reference.is_empty() || op == 5 {
                        let dead = PathId::from_index(f.slot_count() + x);
                        prop_assert!(f.remove(dead).is_none());
                    } else {
                        let id = *reference.keys().nth(x % reference.len()).unwrap();
                        let gone = f.remove(id).expect("live id");
                        prop_assert_eq!(&*gone, &reference.remove(&id).unwrap());
                        prop_assert!(f.remove(id).is_none(), "removed twice");
                    }
                }
                6..=7 => check_dense(&f, &reference),
                // Clone a family whose view is built; mutate the source on.
                _ => {
                    let _ = f.dense_ids();
                    clones.push((f.clone(), reference.clone()));
                }
            }
            check_slots(&f, &reference);
        }
        check_dense(&f, &reference);
        for (clone, reference) in &clones {
            check_dense(clone, reference);
        }
    }
}

/// A small gadget: a DAG on `n` vertices whose arcs run `t → h` with
/// `t < h` (repeated pairs are parallel arcs), and its members as arc
/// indices into `arcs`.
#[derive(Clone)]
struct Gadget {
    n: usize,
    arcs: Vec<(usize, usize)>,
    members: Vec<Vec<usize>>,
}

impl Gadget {
    /// Decode raw draws: arc draw `(t, d)` runs from `t mod (n - 1)` to a
    /// later vertex picked by `d`, and each walk starts on an arc and
    /// follows the chosen out-arcs until it runs out of turns or arcs.
    fn decode(n: usize, raw_arcs: &[(usize, usize)], walks: &[(usize, Vec<usize>)]) -> Gadget {
        let arcs: Vec<(usize, usize)> = raw_arcs
            .iter()
            .map(|&(t, d)| {
                let t = t % (n - 1);
                (t, t + 1 + d % (n - 1 - t))
            })
            .collect();
        let members = walks
            .iter()
            .map(|(start, turns)| {
                let mut walk = vec![start % arcs.len()];
                for turn in turns {
                    let head = arcs[*walk.last().unwrap()].1;
                    let outs: Vec<usize> = (0..arcs.len()).filter(|&a| arcs[a].0 == head).collect();
                    if outs.is_empty() {
                        break;
                    }
                    walk.push(outs[turn % outs.len()]);
                }
                walk
            })
            .collect();
        Gadget { n, arcs, members }
    }

    /// Vertex `v` renumbered `n - 1 - v`, arcs and members unchanged.
    fn vertices_reversed(&self) -> Gadget {
        let flip = |v: usize| self.n - 1 - v;
        let mut g = self.clone();
        g.arcs = self.arcs.iter().map(|&(t, h)| (flip(t), flip(h))).collect();
        g
    }

    fn members_reversed(&self) -> Gadget {
        let mut g = self.clone();
        g.members.reverse();
        g
    }

    /// One member one arc apart: its first arc that has a parallel copy
    /// takes that copy instead; failing that, it drops its last arc or
    /// takes one more.
    fn one_arc_apart(&self, pick: usize) -> Gadget {
        let mut g = self.clone();
        let m = &mut g.members[pick % self.members.len()];
        let twin =
            |a: usize| (0..self.arcs.len()).find(|&b| b != a && self.arcs[b] == self.arcs[a]);
        if let Some((i, b)) = m
            .iter()
            .enumerate()
            .find_map(|(i, &a)| twin(a).map(|b| (i, b)))
        {
            m[i] = b;
        } else if m.len() > 1 {
            m.pop();
        } else if let Some(next) =
            (0..self.arcs.len()).find(|&b| self.arcs[b].0 == self.arcs[m[0]].1)
        {
            m.push(next);
        }
        g
    }
}

/// What a shard solve reads: the vertex count, the arc endpoints in arc
/// order, and the members' arc lists in local order.
type Content = (usize, Vec<(u32, u32)>, Vec<Vec<u32>>);

fn content(sub: &SubInstance) -> Content {
    (
        sub.graph.vertex_count(),
        sub.graph
            .arcs()
            .map(|(_, a)| (a.tail.0, a.head.0))
            .collect(),
        sub.family
            .iter()
            .map(|(_, p)| p.arcs().iter().map(|a| a.0).collect())
            .collect(),
    )
}

/// The renumbering of `SubInstance::extract`, done by sorting and binary
/// search: used arcs and their vertices, each in ascending host order.
fn reference_content(g: &Digraph, members: &[&Dipath]) -> Content {
    let mut arcs: Vec<ArcId> = members
        .iter()
        .flat_map(|p| p.arcs().iter().copied())
        .collect();
    arcs.sort_unstable();
    arcs.dedup();
    let mut vertices: Vec<VertexId> = arcs.iter().flat_map(|&a| [g.tail(a), g.head(a)]).collect();
    vertices.sort_unstable();
    vertices.dedup();
    let local = |v: VertexId| vertices.binary_search(&v).unwrap() as u32;
    let ends = arcs
        .iter()
        .map(|&a| (local(g.tail(a)), local(g.head(a))))
        .collect();
    let lists = members
        .iter()
        .map(|p| {
            p.arcs()
                .iter()
                .map(|a| arcs.binary_search(a).unwrap() as u32)
                .collect()
        })
        .collect();
    (vertices.len(), ends, lists)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Content keys against a reference renumbering. A host glues copies of
    /// a random gadget with parallel arcs, each copy one of five forms: the
    /// gadget, its vertices numbered in reverse, its members listed in
    /// reverse, or one member one arc apart (another parallel copy, one arc
    /// fewer, or one more). Two shards' keys are equal exactly when their
    /// reference contents are, shards group exactly by that, and a shard
    /// built from its key equals `SubInstance::extract` field for field.
    #[test]
    fn content_keys_match_reference_extraction(
        n in 2usize..6,
        raw_arcs in proptest::collection::vec((0usize..100, 0usize..100), 1..9),
        walks in proptest::collection::vec((0usize..100, proptest::collection::vec(0usize..100, 0..4)), 1..6),
        forms in proptest::collection::vec(0usize..5, 2..10),
        pick in 0usize..100,
    ) {
        let base = Gadget::decode(n, &raw_arcs, &walks);
        let gadgets = [
            base.clone(),
            base.vertices_reversed(),
            base.members_reversed(),
            base.one_arc_apart(pick),
            base.vertices_reversed().one_arc_apart(pick + 1),
        ];
        let mut g = Digraph::new();
        let mut family = DipathFamily::new();
        let mut shards: Vec<Vec<PathId>> = Vec::new();
        for &form in &forms {
            let gadget = &gadgets[form];
            let (v0, a0) = (g.vertex_count(), g.arc_count());
            g.add_vertices(gadget.n);
            for &(t, h) in &gadget.arcs {
                g.add_arc(VertexId::from_index(v0 + t), VertexId::from_index(v0 + h));
            }
            let ids = gadget
                .members
                .iter()
                .map(|m| {
                    let arcs = m.iter().map(|&a| ArcId::from_index(a0 + a)).collect();
                    family.push(Dipath::from_arcs(&g, arcs).unwrap())
                })
                .collect();
            shards.push(ids);
        }
        let paths = |ids: &[PathId]| ids.iter().map(|&id| family.path(id)).collect::<Vec<_>>();
        let reference: Vec<Content> = shards.iter().map(|ids| reference_content(&g, &paths(ids))).collect();
        let mut scratch = ExtractScratch::new();
        let groups = ShardGroups::new(&g, shards.iter().map(|ids| paths(ids)), &mut scratch);
        prop_assert_eq!(groups.group_of().len(), shards.len());
        for i in 0..shards.len() {
            for j in 0..shards.len() {
                let same = reference[i] == reference[j];
                prop_assert_eq!(groups.key(i) == groups.key(j), same, "shards {} and {}", i, j);
                prop_assert_eq!(groups.group_of()[i] == groups.group_of()[j], same);
            }
        }
        for (d, &first) in groups.firsts().iter().enumerate() {
            prop_assert_eq!(groups.group_of().iter().position(|&x| x == d), Some(first));
        }
        for (i, ids) in shards.iter().enumerate() {
            let built = groups.extract(i, ids.iter().copied(), &mut scratch);
            let extracted = SubInstance::extract(&g, &family, ids);
            prop_assert_eq!(&content(&built), &reference[i]);
            prop_assert_eq!(&content(&extracted), &reference[i]);
            prop_assert_eq!(built.original_ids(), &ids[..]);
            prop_assert_eq!(extracted.original_ids(), &ids[..]);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Load table equals brute-force membership counting.
    #[test]
    fn load_tables_agree((n, ivs) in interval_family()) {
        let (g, family) = build(n, &ivs);
        let table = load::load_table(&g, &family);
        for a in g.arc_ids() {
            prop_assert_eq!(table[a.index()], load::arc_load(&family, a));
        }
        let pi = load::max_load(&g, &family);
        prop_assert_eq!(pi, table.iter().copied().max().unwrap_or(0));
        if pi > 0 {
            let (arc, l) = load::max_load_arc(&g, &family).unwrap();
            prop_assert_eq!(l, pi);
            prop_assert_eq!(table[arc.index()], pi);
        }
    }

    /// On a chain, dipaths conflict iff their intervals overlap; the
    /// conflict graph is exactly the interval-overlap graph.
    #[test]
    fn conflict_graph_is_interval_graph((n, ivs) in interval_family()) {
        let (g, family) = build(n, &ivs);
        let cg = ConflictGraph::build(&g, &family);
        for (i, &(s1, e1)) in ivs.iter().enumerate() {
            for (j, &(s2, e2)) in ivs.iter().enumerate() {
                if i < j {
                    let overlap = s1.max(s2) < e1.min(e2);
                    prop_assert_eq!(
                        cg.are_adjacent(PathId::from_index(i), PathId::from_index(j)),
                        overlap,
                        "intervals ({},{}) vs ({},{})", s1, e1, s2, e2
                    );
                }
            }
        }
    }

    /// Intersections on a chain are single intervals of the right size.
    #[test]
    fn chain_intersections_are_intervals((n, ivs) in interval_family()) {
        let (g, family) = build(n, &ivs);
        let _ = g;
        for (i, p) in family.iter() {
            for (j, q) in family.iter() {
                if i >= j { continue; }
                let ix = conflict::Intersection::of(p, q);
                let (s1, e1) = ivs[i.index()];
                let (s2, e2) = ivs[j.index()];
                let expected = e1.min(e2).saturating_sub(s1.max(s2));
                prop_assert_eq!(ix.shared_arc_count(), expected);
                prop_assert!(ix.is_empty() || ix.is_single_interval());
            }
        }
    }

    /// The chain's conflict graph is an interval graph, so the classic
    /// left-endpoint greedy colors it with exactly π colors — a
    /// self-contained confirmation that π = w on paths (the paper's [4]
    /// setting), independent of dagwave-core.
    #[test]
    fn chain_chromatic_equals_load((n, ivs) in interval_family()) {
        let (g, family) = build(n, &ivs);
        let pi = load::max_load(&g, &family);
        // Greedy sweep by left endpoint.
        let mut order: Vec<usize> = (0..ivs.len()).collect();
        order.sort_by_key(|&i| ivs[i]);
        let mut colors = vec![usize::MAX; ivs.len()];
        let mut used = 0usize;
        for &i in &order {
            let (s1, e1) = ivs[i];
            let mut taken: Vec<usize> = (0..ivs.len())
                .filter(|&j| colors[j] != usize::MAX)
                .filter(|&j| {
                    let (s2, e2) = ivs[j];
                    s1.max(s2) < e1.min(e2)
                })
                .map(|j| colors[j])
                .collect();
            taken.sort_unstable();
            taken.dedup();
            let mut c = 0;
            while taken.binary_search(&c).is_ok() { c += 1; }
            colors[i] = c;
            used = used.max(c + 1);
        }
        prop_assert_eq!(used, pi, "interval greedy achieves the load");
        // And it is a proper coloring w.r.t. the conflict graph.
        let cg = ConflictGraph::build(&g, &family);
        for (a, b) in cg.edges() {
            prop_assert_ne!(colors[a.index()], colors[b.index()]);
        }
    }

    /// Replication scales loads linearly and preserves conflicts.
    #[test]
    fn replication_scales((n, ivs) in interval_family(), h in 1usize..4) {
        let (g, family) = build(n, &ivs);
        let big = family.replicate(h);
        prop_assert_eq!(big.len(), family.len() * h);
        prop_assert_eq!(load::max_load(&g, &big), load::max_load(&g, &family) * h);
    }

    /// Stats are internally consistent.
    #[test]
    fn stats_consistency((n, ivs) in interval_family()) {
        let (g, family) = build(n, &ivs);
        let s = dagwave_paths::stats::InstanceStats::compute(&g, &family);
        prop_assert_eq!(s.paths, family.len());
        prop_assert_eq!(s.total_traversals, family.total_arcs());
        let hist_sum: usize = s.load_histogram.iter().sum();
        prop_assert_eq!(hist_sum, g.arc_count());
        let weighted: usize = s
            .load_histogram
            .iter()
            .enumerate()
            .map(|(l, &cnt)| l * cnt)
            .sum();
        prop_assert_eq!(weighted, s.total_traversals);
    }
}
