//! Shard-local sub-instances for decompose-solve-merge.
//!
//! Wavelength assignment on a disjoint conflict graph decomposes exactly:
//! two dipaths in different connected components share no arc, so coloring
//! each component independently with a shared palette is a proper coloring
//! of the whole family, and the merged span is the maximum over components.
//!
//! A [`SubInstance`] materializes one component as a standalone instance:
//! the member dipaths are remapped into a dense shard-local
//! [`DipathFamily`] (local ids `0..members.len()`), the host digraph is
//! restricted to the vertices and arcs the members actually traverse, and
//! the inverse id map is recorded so shard-local colors can be written back
//! to original [`PathId`]s. Restricting the graph matters beyond size: a
//! shard frequently lands in a friendlier class than the whole instance
//! (e.g. the component never touches the internal cycle that forced the
//! whole DAG into the general class), unlocking the stronger theorem-backed
//! solvers per shard. The shard graph is a subgraph of the host, so a shard
//! of a DAG is a DAG: the solving surface classifies each shard without
//! sorting it topologically again. It is cheap to build and drop, too: its
//! arcs are one `Vec`, and its adjacency one flat table built on the
//! shard's first query, not a pair of `Vec`s per vertex.
//!
//! Extraction is two steps, and the first one is the renumbering. It writes
//! the shard's *content key* from host ids into a flat `u32` buffer: the
//! vertex count, the arc count, each used arc's endpoints in local vertex
//! ids, then each member's length and arc list in local arc ids. The key is
//! exactly what a shard solve reads, so two shards with equal keys are the
//! same instance. The second step builds the [`SubInstance`] from the key.
//! [`SubInstance::extract_with`] runs both on one shard, taking the members
//! as `(original id, dipath)` pairs: a component of a dense
//! [`DipathFamily`], or a workspace's cached shard under its stable ids.
//! [`ShardGroups`] runs the first step on a batch of shards and groups them
//! by exact key equality; building only each group's first shard, a family
//! glued from copies of a few gadgets pays one flat key per shard and one
//! build per distinct gadget.
//!
//! The renumbering reads flat host-indexed tables kept in an
//! [`ExtractScratch`] (one `u32` per host arc/vertex, stamped per shard), so
//! it is an O(1) table read instead of a per-shard binary search, and the
//! member arc sequences are read straight out of the (Arc-shared) dipaths.
//! A long-lived caller (the incremental `Workspace`) keeps one scratch
//! across re-solves: the tables are sized to the host once, so a later
//! extraction costs what the shards contain, not what the host does. The
//! scratch's interner forgets the shard-local sequences no built shard
//! still holds (see [`ArcListArena`]), so a scratch kept for the life of a
//! service stays bounded by what it builds at once.

use crate::dipath::Dipath;
use crate::family::{DipathFamily, PathId};
use crate::intern::{ArcListArena, ArenaStats};
use dagwave_graph::{ArcId, Digraph, VertexId};
use std::collections::BTreeMap;

/// Reusable renumbering tables for [`SubInstance::extract_with`] and
/// [`ShardGroups::new`].
///
/// Holds one `u32` per host arc and per host vertex (grown lazily to the
/// host size on first use, then reused), plus a stamp that invalidates all
/// entries at once — clearing between shards costs O(1), not O(host).
/// The `used_*` buffers keep their capacity across shards, so a warm
/// scratch renumbers without allocating.
#[derive(Clone, Debug, Default)]
pub struct ExtractScratch {
    /// Host arc → shard-local arc id, valid only when the stamp matches.
    arc_new: Vec<u32>,
    arc_stamp: Vec<u32>,
    /// Host vertex → shard-local vertex id, valid only when the stamp matches.
    vert_new: Vec<u32>,
    vert_stamp: Vec<u32>,
    stamp: u32,
    used_arcs: Vec<ArcId>,
    used_vertices: Vec<VertexId>,
    /// Interner for the built members' sequences: duplicated members
    /// (within one shard or across shards built through the same scratch)
    /// share one shard-local arc list instead of re-allocating it per
    /// build. Entries no shard holds any more are swept.
    arena: ArcListArena,
    remap_buf: Vec<ArcId>,
    /// The key [`SubInstance::extract_with`] writes and builds from.
    key: Vec<u32>,
}

impl ExtractScratch {
    /// A fresh scratch; tables grow to the host size on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counters of the scratch's interner of shard-local arc sequences.
    pub fn arena_stats(&self) -> ArenaStats {
        self.arena.stats()
    }

    /// Size the tables for `g` and open a new stamp epoch.
    fn begin(&mut self, g: &Digraph) {
        if self.arc_stamp.len() < g.arc_count() {
            self.arc_stamp.resize(g.arc_count(), 0);
            self.arc_new.resize(g.arc_count(), 0);
        }
        if self.vert_stamp.len() < g.vertex_count() {
            self.vert_stamp.resize(g.vertex_count(), 0);
            self.vert_new.resize(g.vertex_count(), 0);
        }
        // One epoch per shard; on (astronomically rare) wraparound, reset
        // the tables so stale epochs can never alias the new one.
        if self.stamp == u32::MAX {
            self.arc_stamp.fill(0);
            self.vert_stamp.fill(0);
            self.stamp = 0;
        }
        self.stamp += 1;
        self.used_arcs.clear();
        self.used_vertices.clear();
    }

    /// Append the content key of the shard whose members are `paths`, in
    /// local-id order, to `key` — the one place shards are renumbered.
    ///
    /// The used arcs are numbered in ascending host order, and so are the
    /// vertices they touch. The key is `[vertices, arcs]`, then each arc's
    /// `tail, head` in local vertex ids, then each member's length followed
    /// by its arcs in local ids. The counts and lengths delimit every part,
    /// so equal keys mean equal vertex counts, arc endpoints and member arc
    /// lists, and the other way round.
    fn write_key<'a, I>(&mut self, g: &Digraph, paths: I, key: &mut Vec<u32>)
    where
        I: Iterator<Item = &'a Dipath> + Clone,
    {
        self.begin(g);
        let stamp = self.stamp;
        // Gather the shard's arcs, stamp-deduplicated (each arc is listed
        // once no matter how loaded), then sort the *unique* list.
        for p in paths.clone() {
            for &a in p.arcs() {
                if self.arc_stamp[a.index()] != stamp {
                    self.arc_stamp[a.index()] = stamp;
                    self.used_arcs.push(a);
                }
            }
        }
        self.used_arcs.sort_unstable();
        for (new, &a) in self.used_arcs.iter().enumerate() {
            self.arc_new[a.index()] = new as u32;
        }
        for &a in &self.used_arcs {
            for v in [g.tail(a), g.head(a)] {
                if self.vert_stamp[v.index()] != stamp {
                    self.vert_stamp[v.index()] = stamp;
                    self.used_vertices.push(v);
                }
            }
        }
        self.used_vertices.sort_unstable();
        for (new, &v) in self.used_vertices.iter().enumerate() {
            self.vert_new[v.index()] = new as u32;
        }
        key.push(self.used_vertices.len() as u32);
        key.push(self.used_arcs.len() as u32);
        for &a in &self.used_arcs {
            key.push(self.vert_new[g.tail(a).index()]);
            key.push(self.vert_new[g.head(a).index()]);
        }
        for p in paths {
            key.push(p.len() as u32);
            key.extend(p.arcs().iter().map(|a| self.arc_new[a.index()]));
        }
    }
}

/// A batch of shards grouped by exact content.
///
/// Every shard's content key (see the [module docs](self)) is written back
/// to back into one flat buffer, and shards with equal keys form one
/// group, through an ordered map over the key slices: no hashing, so no
/// collision can merge two different shards. Groups are numbered in order
/// of their first shard, and [`ShardGroups::extract`] builds any shard's
/// sub-instance from its key without renumbering again.
#[derive(Clone, Debug)]
pub struct ShardGroups {
    /// Every shard's key, back to back: shard `i`'s is
    /// `keys[bounds[i]..bounds[i + 1]]`.
    keys: Vec<u32>,
    bounds: Vec<usize>,
    /// `group_of[i]` = shard `i`'s group.
    group_of: Vec<usize>,
    /// `firsts[d]` = the first shard of group `d`.
    firsts: Vec<usize>,
}

impl ShardGroups {
    /// Key and group `shards`, each given as its member dipaths in
    /// local-id order (walked twice, hence `Clone`), renumbering through
    /// `scratch`.
    pub fn new<'a, S, P>(g: &Digraph, shards: S, scratch: &mut ExtractScratch) -> ShardGroups
    where
        S: IntoIterator<Item = P>,
        P: IntoIterator<Item = &'a Dipath>,
        P::IntoIter: Clone,
    {
        let (mut keys, mut bounds) = (Vec::new(), vec![0]);
        for paths in shards {
            scratch.write_key(g, paths.into_iter(), &mut keys);
            bounds.push(keys.len());
        }
        let mut firsts = Vec::new();
        let mut groups: BTreeMap<&[u32], usize> = BTreeMap::new();
        let group_of = bounds
            .windows(2)
            .enumerate()
            .map(|(i, b)| {
                *groups.entry(&keys[b[0]..b[1]]).or_insert_with(|| {
                    firsts.push(i);
                    firsts.len() - 1
                })
            })
            .collect();
        ShardGroups {
            keys,
            bounds,
            group_of,
            firsts,
        }
    }

    /// Each shard's group, in shard order.
    pub fn group_of(&self) -> &[usize] {
        &self.group_of
    }

    /// The first shard of each group, in group order (ascending): one per
    /// distinct shard content.
    pub fn firsts(&self) -> &[usize] {
        &self.firsts
    }

    /// The content key of shard `shard`.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn key(&self, shard: usize) -> &[u32] {
        &self.keys[self.bounds[shard]..self.bounds[shard + 1]]
    }

    /// Build shard `shard`'s sub-instance from its key, recording
    /// `original` (its members' ids, in local-id order) as the inverse id
    /// map. Equal to [`SubInstance::extract_with`] on the same members.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn extract(
        &self,
        shard: usize,
        original: impl IntoIterator<Item = PathId>,
        scratch: &mut ExtractScratch,
    ) -> SubInstance {
        SubInstance::from_key(self.key(shard), original.into_iter().collect(), scratch)
    }
}

/// One shard of an instance: a dense local family over a restricted graph,
/// plus the map back to the original ids.
///
/// Built by [`SubInstance::extract_with`] or [`ShardGroups::extract`];
/// local ids follow the order of the members handed in (ascending original
/// id when the members come from
/// [`crate::conflict::ConflictGraph::components`] /
/// [`crate::conflict::conflict_components`], which keeps the whole
/// decomposition deterministic).
#[derive(Clone, Debug)]
pub struct SubInstance {
    /// The host graph restricted to the vertices/arcs the members use.
    pub graph: Digraph,
    /// The members as a dense shard-local family (`PathId(0)..`).
    pub family: DipathFamily,
    /// `original[local.index()]` = the member's id in the source family.
    original: Vec<PathId>,
}

impl SubInstance {
    /// Extract the sub-instance induced by `members` of `family` over `g`.
    ///
    /// The restricted graph keeps exactly the vertices and arcs traversed
    /// by some member, renumbered densely in ascending original-id order
    /// (so extraction is deterministic). Parallel arcs survive: arcs are
    /// remapped individually by [`ArcId`], not by endpoint pair.
    ///
    /// # Panics
    ///
    /// Panics if a member id is out of bounds for `family`.
    pub fn extract(g: &Digraph, family: &DipathFamily, members: &[PathId]) -> SubInstance {
        Self::extract_with(
            g,
            members.iter().map(|&id| (id, family.path(id))),
            &mut ExtractScratch::new(),
        )
    }

    /// Extract the sub-instance of `members` — `(original id, dipath)`
    /// pairs in local-id order, walked twice (hence `Clone`) — through
    /// caller-owned renumbering tables, reused across shards: write the
    /// shard's content key, then build from it. Output depends only on the
    /// members: used arcs and vertices are numbered in ascending host
    /// order, whichever scratch (or how warm) is used.
    pub fn extract_with<'a, I>(g: &Digraph, members: I, scratch: &mut ExtractScratch) -> SubInstance
    where
        I: IntoIterator<Item = (PathId, &'a Dipath)>,
        I::IntoIter: Clone,
    {
        let members = members.into_iter();
        let mut key = std::mem::take(&mut scratch.key);
        key.clear();
        scratch.write_key(g, members.clone().map(|(_, p)| p), &mut key);
        let sub = Self::from_key(&key, members.map(|(id, _)| id).collect(), scratch);
        scratch.key = key;
        sub
    }

    /// Build a sub-instance from a key `ExtractScratch::write_key` wrote.
    fn from_key(key: &[u32], original: Vec<PathId>, scratch: &mut ExtractScratch) -> SubInstance {
        let (vertices, arcs) = (key[0] as usize, key[1] as usize);
        let (ends, mut lists) = key[2..].split_at(2 * arcs);
        let mut graph = Digraph::with_capacity(vertices, arcs);
        for end in ends.chunks_exact(2) {
            graph.add_arc(VertexId(end[0]), VertexId(end[1]));
        }
        // One member per original id: its length, then its arcs.
        let family = original
            .iter()
            .map(|_| {
                let (arcs, rest) = lists[1..].split_at(lists[0] as usize);
                lists = rest;
                scratch.remap_buf.clear();
                scratch.remap_buf.extend(arcs.iter().map(|&a| ArcId(a)));
                // Resolve the sequence through the scratch's arena: a
                // duplicated member costs a lookup, not an allocation.
                let arcs = scratch.arena.intern_slice(&scratch.remap_buf);
                // The remap is monotone on a validated dipath, so contiguity
                // and simplicity carry over; debug builds re-validate inside.
                Dipath::from_list_trusted(&graph, arcs)
            })
            .collect();
        debug_assert!(lists.is_empty(), "one original id per member");
        SubInstance {
            graph,
            family,
            original,
        }
    }

    /// Number of member dipaths.
    pub fn len(&self) -> usize {
        self.original.len()
    }

    /// `true` when the shard holds no dipaths.
    pub fn is_empty(&self) -> bool {
        self.original.is_empty()
    }

    /// The original id of shard-local path `local`.
    pub fn original_id(&self, local: PathId) -> PathId {
        self.original[local.index()]
    }

    /// The inverse map: original ids in shard-local order.
    pub fn original_ids(&self) -> &[PathId] {
        &self.original
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conflict::{conflict_components, ConflictGraph};
    use crate::load;
    use dagwave_graph::builder::from_edges;

    fn v(i: usize) -> VertexId {
        VertexId::from_index(i)
    }

    /// Two arc-disjoint chains: paths 0/1 on the first, path 2 on the second.
    fn two_component_instance() -> (Digraph, DipathFamily) {
        let g = from_edges(7, &[(0, 1), (1, 2), (2, 3), (4, 5), (5, 6)]);
        let f = DipathFamily::from_paths(vec![
            Dipath::from_vertices(&g, &[v(0), v(1), v(2)]).unwrap(),
            Dipath::from_vertices(&g, &[v(1), v(2), v(3)]).unwrap(),
            Dipath::from_vertices(&g, &[v(4), v(5), v(6)]).unwrap(),
        ]);
        (g, f)
    }

    #[test]
    fn extract_restricts_graph_and_remaps_ids() {
        let (g, f) = two_component_instance();
        let comps = conflict_components(&g, &f);
        assert_eq!(comps.len(), 2);

        let first = SubInstance::extract(&g, &f, &comps[0]);
        assert_eq!(first.len(), 2);
        assert!(!first.is_empty());
        assert_eq!(first.graph.vertex_count(), 4); // vertices 0..=3
        assert_eq!(first.graph.arc_count(), 3);
        assert_eq!(first.original_ids(), &[PathId(0), PathId(1)]);
        assert_eq!(first.original_id(PathId(1)), PathId(1));

        let second = SubInstance::extract(&g, &f, &comps[1]);
        assert_eq!(second.len(), 1);
        assert_eq!(second.graph.vertex_count(), 3); // vertices 4..=6
        assert_eq!(second.graph.arc_count(), 2);
        assert_eq!(second.original_id(PathId(0)), PathId(2));
    }

    #[test]
    fn extraction_preserves_loads_and_conflicts() {
        let (g, f) = two_component_instance();
        for members in conflict_components(&g, &f) {
            let sub = SubInstance::extract(&g, &f, &members);
            // Per-path arc counts survive the remap.
            for (local, p) in sub.family.iter() {
                assert_eq!(p.len(), f.path(sub.original_id(local)).len());
            }
            // Conflict structure inside the shard is untouched.
            let whole = ConflictGraph::build(&g, &f);
            let shard = ConflictGraph::build(&sub.graph, &sub.family);
            for (a, b) in shard.edges() {
                assert!(whole.are_adjacent(sub.original_id(a), sub.original_id(b)));
            }
            // Shard load equals the max load over the shard's own arcs.
            assert!(load::max_load(&sub.graph, &sub.family) <= load::max_load(&g, &f));
        }
    }

    #[test]
    fn parallel_arcs_survive_extraction() {
        // Two parallel arcs 0→1; each path takes a different copy.
        let mut g = Digraph::with_vertices(2);
        let a0 = g.add_arc(v(0), v(1));
        let a1 = g.add_arc(v(0), v(1));
        let f = DipathFamily::from_paths(vec![Dipath::single(a0), Dipath::single(a1)]);
        let sub = SubInstance::extract(&g, &f, &[PathId(0), PathId(1)]);
        assert_eq!(sub.graph.arc_count(), 2, "both parallel copies kept");
        assert_ne!(
            sub.family.path(PathId(0)).arcs(),
            sub.family.path(PathId(1)).arcs(),
            "paths still take distinct copies"
        );
    }

    #[test]
    fn duplicated_members_share_one_arc_list() {
        let g = from_edges(3, &[(0, 1), (1, 2)]);
        let p = Dipath::from_vertices(&g, &[v(0), v(1), v(2)]).unwrap();
        let f = DipathFamily::from_paths(vec![p.clone(), p]);
        let sub = SubInstance::extract(&g, &f, &[PathId(0), PathId(1)]);
        assert!(
            sub.family
                .shared(PathId(0))
                .arc_list()
                .ptr_eq(sub.family.shared(PathId(1)).arc_list()),
            "identical members resolve to one interned allocation"
        );
    }

    #[test]
    fn empty_member_list_yields_empty_shard() {
        let (g, f) = two_component_instance();
        let sub = SubInstance::extract(&g, &f, &[]);
        assert!(sub.is_empty());
        assert_eq!(sub.graph.vertex_count(), 0);
        assert_eq!(sub.family.len(), 0);
    }
}
