//! The conflict graph of a dipath family.
//!
//! Vertices are the dipaths of `P`; two vertices are joined when their
//! dipaths share an arc (paper, Section 2). `w(G, P)` is the chromatic
//! number of this graph, and for UPP-DAGs `π(G, P)` is exactly its clique
//! number (Property 3).
//!
//! Construction uses the arc-bucket algorithm: group dipaths by the arcs
//! they use, then every bucket contributes a clique. Cost is
//! `O(Σ_P Σ_{a∈P} load(a))`, output-sensitive and sequential.

use crate::dipath::Dipath;
use crate::family::{DipathFamily, PathId};
use dagwave_graph::{ArcId, Digraph, UnionFind};

/// A CSR arc→paths index: for every host arc, the ids of the family
/// members traversing it, ascending. Two flat allocations (offsets +
/// entries) instead of one `Vec` per arc, built in two counting passes —
/// the prebuilt index behind the conflict-graph bucket pass and the
/// shard-extraction surface.
#[derive(Clone, Debug, Default)]
pub struct ArcIndex {
    /// `offsets[a]..offsets[a + 1]` delimits arc `a`'s slice of `ids`.
    offsets: Vec<u32>,
    /// Concatenated member ids, ascending within each arc's slice.
    ids: Vec<u32>,
}

impl ArcIndex {
    /// Build the index of `family` over `g` (counting sort: one pass to
    /// size the rows, one to fill them — `O(arcs + Σ|P|)`).
    pub fn build(g: &Digraph, family: &DipathFamily) -> Self {
        let arcs = g.arc_count();
        let mut offsets = vec![0u32; arcs + 1];
        for (_, p) in family.iter() {
            for &a in p.arcs() {
                offsets[a.index() + 1] += 1;
            }
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let mut ids = vec![0u32; *offsets.last().unwrap_or(&0) as usize];
        let mut cursor = offsets.clone();
        // Family iteration is ascending by id, so each row fills ascending.
        for (id, p) in family.iter() {
            for &a in p.arcs() {
                ids[cursor[a.index()] as usize] = id.0;
                cursor[a.index()] += 1;
            }
        }
        ArcIndex { offsets, ids }
    }

    /// Number of arcs the index covers.
    pub fn arc_count(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// The ids of the members traversing arc `a`, ascending.
    pub fn paths_through(&self, a: ArcId) -> &[u32] {
        let lo = self.offsets[a.index()] as usize;
        let hi = self.offsets[a.index() + 1] as usize;
        &self.ids[lo..hi]
    }

    /// Total entries (`Σ|P|`).
    pub fn entry_count(&self) -> usize {
        self.ids.len()
    }
}

/// The conflict graph: a simple undirected graph over [`PathId`]s.
#[derive(Clone, Debug)]
pub struct ConflictGraph {
    /// Sorted, deduplicated neighbor lists.
    adj: Vec<Vec<u32>>,
    edges: usize,
}

impl ConflictGraph {
    /// Build the conflict graph of `family` over `g`.
    pub fn build(g: &Digraph, family: &DipathFamily) -> Self {
        // Bucket pass, served by the CSR index: which dipaths use each arc.
        let index = ArcIndex::build(g, family);
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); family.len()];
        for a in 0..index.arc_count() {
            let bucket = index.paths_through(ArcId::from_index(a));
            for (k, &i) in bucket.iter().enumerate() {
                for &j in &bucket[k + 1..] {
                    adj[i as usize].push(j);
                    adj[j as usize].push(i);
                }
            }
        }
        let mut edges = 0;
        for ns in &mut adj {
            ns.sort_unstable();
            ns.dedup();
            edges += ns.len();
        }
        ConflictGraph {
            adj,
            edges: edges / 2,
        }
    }

    /// Number of vertices (= dipaths).
    pub fn vertex_count(&self) -> usize {
        self.adj.len()
    }

    /// Number of edges (= conflicting pairs).
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// Sorted neighbor ids of `p`.
    pub fn neighbors(&self, p: PathId) -> &[u32] {
        &self.adj[p.index()]
    }

    /// Degree of `p`.
    pub fn degree(&self, p: PathId) -> usize {
        self.adj[p.index()].len()
    }

    /// `true` if `p` and `q` conflict.
    pub fn are_adjacent(&self, p: PathId, q: PathId) -> bool {
        self.adj[p.index()].binary_search(&q.0).is_ok()
    }

    /// Maximum degree.
    pub fn max_degree(&self) -> usize {
        self.adj.iter().map(|ns| ns.len()).max().unwrap_or(0)
    }

    /// Iterate over the edges `(i, j)` with `i < j`, in canonical order
    /// (lexicographic by endpoints), without allocating an edge vector.
    pub fn edges(&self) -> impl Iterator<Item = (PathId, PathId)> + '_ {
        self.adj.iter().enumerate().flat_map(|(i, ns)| {
            ns.iter()
                .copied()
                .filter(move |&j| (i as u32) < j)
                .map(move |j| (PathId::from_index(i), PathId(j)))
        })
    }

    /// Edge list `(i, j)` with `i < j` — the allocated form of
    /// [`ConflictGraph::edges`], kept for callers that need a materialized
    /// `Vec`.
    pub fn edge_list(&self) -> Vec<(PathId, PathId)> {
        self.edges().collect()
    }

    /// Connected components of the conflict graph, via union-find over the
    /// adjacency lists: the members of one component are exactly the dipaths
    /// that must share a coloring sub-problem (no edge crosses components,
    /// so disjoint components can be colored with a shared palette).
    ///
    /// Canonical order: members ascend within a component and components
    /// are ordered by their smallest member — the deterministic shard order
    /// the decompose-solve-merge pipeline relies on.
    pub fn components(&self) -> Vec<Vec<PathId>> {
        let mut uf = UnionFind::new(self.adj.len());
        for (a, b) in self.edges() {
            uf.union(a.index(), b.index());
        }
        uf.components(PathId::from_index)
    }
}

/// Connected components of the conflict graph of `family` over `g`,
/// **without building the conflict graph**: dipaths sharing an arc are
/// unioned directly through the arc buckets, so the cost is
/// `O(Σ|P| · α)` instead of the output-sensitive adjacency cost. This is
/// what makes the decompose stage affordable on instances whose conflict
/// graph would be enormous.
///
/// Output is identical to
/// [`ConflictGraph::components`]` of ConflictGraph::build(g, family)`:
/// members ascend within a component, components are ordered by smallest
/// member.
pub fn conflict_components(g: &Digraph, family: &DipathFamily) -> Vec<Vec<PathId>> {
    let mut uf = UnionFind::new(family.len());
    // last_user[a] = most recent dipath seen using arc a; union chains the
    // users of each arc together without materializing the buckets.
    let mut last_user: Vec<u32> = vec![u32::MAX; g.arc_count()];
    for (id, p) in family.iter() {
        for &a in p.arcs() {
            let prev = last_user[a.index()];
            if prev != u32::MAX {
                uf.union(prev as usize, id.index());
            }
            last_user[a.index()] = id.0;
        }
    }
    uf.components(PathId::from_index)
}

/// Connected components among only the given `(id, dipath)` members — the
/// delta half of the decompose stage.
///
/// After a mutation batch, components untouched by any added or removed
/// dipath cannot have changed (conflicts depend only on member arcs), so an
/// incremental engine re-derives components **only over the dirty member
/// pool**, scoped to the arc buckets those members actually use: arcs are
/// tracked in a hash map keyed by [`ArcId`] (never a host-graph-sized
/// table), and the union-find is sized by the pool, so the cost is
/// `O(Σ|P_dirty| · α)` however large the instance around it is.
///
/// Members may arrive in any order and with duplicates (deduplicated by
/// id). The output follows the same canonical order as
/// [`conflict_components`] — members ascend within a component, components
/// are ordered by their smallest member — and, when the pool is a union of
/// whole components of a larger family, it equals the corresponding subset
/// of `conflict_components` on that family.
pub fn conflict_components_among<'a, I>(members: I) -> Vec<Vec<PathId>>
where
    I: IntoIterator<Item = (PathId, &'a Dipath)>,
{
    let mut members: Vec<(PathId, &Dipath)> = members.into_iter().collect();
    members.sort_unstable_by_key(|&(id, _)| id);
    members.dedup_by_key(|&mut (id, _)| id);
    let mut uf = UnionFind::new(members.len());
    // last_user[a] = most recent pool member seen using arc a, as in
    // `conflict_components` — but sparse, touching only dirty buckets.
    let mut last_user: std::collections::HashMap<ArcId, usize> = std::collections::HashMap::new();
    for (k, &(_, p)) in members.iter().enumerate() {
        for &a in p.arcs() {
            if let Some(&prev) = last_user.get(&a) {
                uf.union(prev, k);
            }
            last_user.insert(a, k);
        }
    }
    // The universe *is* the pool (members were renumbered densely above),
    // so the unrestricted canonical grouping applies directly.
    uf.components(|k| members[k].0)
}

/// The shared-arc structure of two conflicting dipaths.
///
/// For UPP-DAGs the intersection of two conflicting dipaths is a single
/// sub-dipath (Property 3's first step); in general it can be several
/// intervals.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Intersection {
    /// Maximal runs of consecutive shared arcs, as `(start, end)` positions
    /// (inclusive, exclusive) in the *first* dipath's arc sequence.
    pub intervals: Vec<(usize, usize)>,
}

impl Intersection {
    /// Compute the intersection structure of `p` with `q`.
    pub fn of(p: &Dipath, q: &Dipath) -> Self {
        let shared: std::collections::HashSet<ArcId> = q.arcs().iter().copied().collect();
        let mut intervals = Vec::new();
        let mut run_start: Option<usize> = None;
        for (i, a) in p.arcs().iter().enumerate() {
            if shared.contains(a) {
                if run_start.is_none() {
                    run_start = Some(i);
                }
            } else if let Some(s) = run_start.take() {
                intervals.push((s, i));
            }
        }
        if let Some(s) = run_start {
            intervals.push((s, p.len()));
        }
        Intersection { intervals }
    }

    /// `true` if the dipaths share no arc.
    pub fn is_empty(&self) -> bool {
        self.intervals.is_empty()
    }

    /// `true` if the shared arcs form one contiguous run — guaranteed for
    /// UPP-DAGs by Property 3.
    pub fn is_single_interval(&self) -> bool {
        self.intervals.len() == 1
    }

    /// Total number of shared arcs.
    pub fn shared_arc_count(&self) -> usize {
        self.intervals.iter().map(|&(s, e)| e - s).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dipath::Dipath;
    use dagwave_graph::builder::from_edges;
    use dagwave_graph::VertexId;

    fn v(i: usize) -> VertexId {
        VertexId::from_index(i)
    }

    fn chain_family() -> (Digraph, DipathFamily) {
        let g = from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let mut f = DipathFamily::new();
        f.push(Dipath::from_vertices(&g, &[v(0), v(1), v(2)]).unwrap()); // p0
        f.push(Dipath::from_vertices(&g, &[v(1), v(2), v(3)]).unwrap()); // p1
        f.push(Dipath::from_vertices(&g, &[v(3), v(4)]).unwrap()); // p2
        (g, f)
    }

    #[test]
    fn build_matches_pairwise_conflicts() {
        let (g, f) = chain_family();
        let cg = ConflictGraph::build(&g, &f);
        assert_eq!(cg.vertex_count(), 3);
        // Ground truth from pairwise dipath conflicts.
        let mut expected = 0;
        for (i, p) in f.iter() {
            for (j, q) in f.iter() {
                if i < j && p.conflicts_with(q) {
                    expected += 1;
                    assert!(cg.are_adjacent(i, j));
                }
            }
        }
        assert_eq!(cg.edge_count(), expected);
    }

    #[test]
    fn adjacency_details() {
        let (g, f) = chain_family();
        let cg = ConflictGraph::build(&g, &f);
        assert!(cg.are_adjacent(PathId(0), PathId(1)));
        assert!(!cg.are_adjacent(PathId(0), PathId(2)));
        assert!(
            !cg.are_adjacent(PathId(1), PathId(2)),
            "vertex-meet is no conflict"
        );
        assert_eq!(cg.degree(PathId(0)), 1);
        assert_eq!(cg.neighbors(PathId(1)), &[0]);
        assert_eq!(cg.max_degree(), 1);
    }

    #[test]
    fn replicated_identical_dipaths_form_cliques() {
        let (g, f) = chain_family();
        let big = f.replicate(3);
        let cg = ConflictGraph::build(&g, &big);
        // The three copies of p0 (ids 0, 3, 6) are pairwise in conflict.
        for &i in &[0u32, 3, 6] {
            for &j in &[0u32, 3, 6] {
                if i != j {
                    assert!(cg.are_adjacent(PathId(i), PathId(j)));
                }
            }
        }
    }

    #[test]
    fn edge_list_is_canonical() {
        let (g, f) = chain_family();
        let cg = ConflictGraph::build(&g, &f);
        let edges = cg.edge_list();
        assert_eq!(edges.len(), cg.edge_count());
        for (a, b) in &edges {
            assert!(a < b);
            assert!(cg.are_adjacent(*a, *b));
        }
        // The non-allocating iterator yields exactly the allocated list.
        assert_eq!(cg.edges().collect::<Vec<_>>(), edges);
        assert_eq!(cg.edges().count(), cg.edge_count());
    }

    #[test]
    fn empty_family() {
        let g = from_edges(2, &[(0, 1)]);
        let cg = ConflictGraph::build(&g, &DipathFamily::new());
        assert_eq!(cg.vertex_count(), 0);
        assert_eq!(cg.edge_count(), 0);
        assert_eq!(cg.max_degree(), 0);
        assert!(cg.edges().next().is_none());
        assert!(cg.components().is_empty());
        assert!(conflict_components(&g, &DipathFamily::new()).is_empty());
    }

    #[test]
    fn components_of_chain_family() {
        // p0–p1 conflict (share 1→2); p2 is isolated.
        let (g, f) = chain_family();
        let cg = ConflictGraph::build(&g, &f);
        let comps = cg.components();
        assert_eq!(comps, vec![vec![PathId(0), PathId(1)], vec![PathId(2)]]);
        assert_eq!(comps, conflict_components(&g, &f));
    }

    #[test]
    fn components_single_path() {
        let g = from_edges(2, &[(0, 1)]);
        let f = DipathFamily::from_paths(vec![Dipath::from_vertices(&g, &[v(0), v(1)]).unwrap()]);
        let cg = ConflictGraph::build(&g, &f);
        assert_eq!(cg.components(), vec![vec![PathId(0)]]);
        assert_eq!(conflict_components(&g, &f), vec![vec![PathId(0)]]);
    }

    #[test]
    fn components_all_isolated_paths() {
        // Three arc-disjoint dipaths: every path is its own component.
        let g = from_edges(6, &[(0, 1), (2, 3), (4, 5)]);
        let f = DipathFamily::from_paths(vec![
            Dipath::from_vertices(&g, &[v(0), v(1)]).unwrap(),
            Dipath::from_vertices(&g, &[v(2), v(3)]).unwrap(),
            Dipath::from_vertices(&g, &[v(4), v(5)]).unwrap(),
        ]);
        let cg = ConflictGraph::build(&g, &f);
        let comps = cg.components();
        assert_eq!(
            comps,
            vec![vec![PathId(0)], vec![PathId(1)], vec![PathId(2)]]
        );
        assert_eq!(comps, conflict_components(&g, &f));
    }

    #[test]
    fn fast_components_match_graph_components_on_replicated_family() {
        let (g, f) = chain_family();
        let big = f.replicate(7);
        let cg = ConflictGraph::build(&g, &big);
        assert_eq!(cg.components(), conflict_components(&g, &big));
        // Replication keeps every copy in the original's component: copies
        // of p0/p1 share arcs with their originals, copies of p2 with p2.
        assert_eq!(cg.components().len(), 2);
    }

    #[test]
    fn components_among_matches_full_on_whole_components() {
        let (g, f) = chain_family();
        let full = conflict_components(&g, &f);
        // The whole family as a pool reproduces the full decomposition.
        assert_eq!(conflict_components_among(f.iter()), full);
        // A pool made of one whole component yields exactly that component.
        for comp in &full {
            let pool = comp.iter().map(|&id| (id, f.path(id)));
            assert_eq!(conflict_components_among(pool), vec![comp.clone()]);
        }
        // Order-insensitive and duplicate-tolerant.
        let reversed: Vec<_> = f.iter().collect();
        let mut shuffled = reversed.clone();
        shuffled.reverse();
        shuffled.extend(reversed);
        assert_eq!(conflict_components_among(shuffled), full);
        // Empty pool: no components.
        assert!(conflict_components_among(std::iter::empty()).is_empty());
    }

    #[test]
    fn components_among_sees_merges_inside_the_pool() {
        // p0 (0→1→2) and p2 (2→3→4) are disjoint; p1 (1→2→3) bridges them.
        let g = from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let p0 = Dipath::from_vertices(&g, &[v(0), v(1), v(2)]).unwrap();
        let p1 = Dipath::from_vertices(&g, &[v(1), v(2), v(3)]).unwrap();
        let p2 = Dipath::from_vertices(&g, &[v(2), v(3), v(4)]).unwrap();
        let without = conflict_components_among(vec![(PathId(0), &p0), (PathId(2), &p2)]);
        assert_eq!(without, vec![vec![PathId(0)], vec![PathId(2)]]);
        let with =
            conflict_components_among(vec![(PathId(0), &p0), (PathId(1), &p1), (PathId(2), &p2)]);
        assert_eq!(with, vec![vec![PathId(0), PathId(1), PathId(2)]]);
    }

    #[test]
    fn intersection_single_interval() {
        let g = from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let p = Dipath::from_vertices(&g, &[v(0), v(1), v(2), v(3)]).unwrap();
        let q = Dipath::from_vertices(&g, &[v(1), v(2), v(3), v(4)]).unwrap();
        let ix = Intersection::of(&p, &q);
        assert!(ix.is_single_interval());
        assert_eq!(ix.intervals, vec![(1, 3)]);
        assert_eq!(ix.shared_arc_count(), 2);
    }

    #[test]
    fn intersection_empty() {
        let g = from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let p = Dipath::from_vertices(&g, &[v(0), v(1)]).unwrap();
        let q = Dipath::from_vertices(&g, &[v(2), v(3)]).unwrap();
        let ix = Intersection::of(&p, &q);
        assert!(ix.is_empty());
        assert_eq!(ix.shared_arc_count(), 0);
    }

    #[test]
    fn intersection_two_intervals_in_non_upp_graph() {
        // p and q share arcs 0→1 and 2→3 but not the middle: q detours.
        let g = from_edges(6, &[(0, 1), (1, 2), (2, 3), (1, 4), (4, 2), (3, 5)]);
        let p = Dipath::from_vertices(&g, &[v(0), v(1), v(2), v(3)]).unwrap();
        let q = Dipath::from_vertices(&g, &[v(0), v(1), v(4), v(2), v(3), v(5)]).unwrap();
        let ix = Intersection::of(&p, &q);
        assert!(!ix.is_single_interval());
        assert_eq!(ix.intervals.len(), 2);
        assert_eq!(ix.shared_arc_count(), 2);
        // And this graph indeed violates UPP (two dipaths 1 → 2).
        assert!(!dagwave_graph::pathcount::is_upp(&g));
    }
}
