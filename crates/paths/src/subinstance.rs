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
//! The one extraction entry, [`SubInstance::extract_with`], takes the
//! members as `(original id, dipath)` pairs: a component of a dense
//! [`DipathFamily`], or a workspace's cached shard under its stable ids.
//!
//! Extraction renumbers through an [`ExtractScratch`]: flat host-indexed
//! arc/vertex tables (CSR-style, one `u32` per host arc/vertex) built once
//! and stamped per shard, so renumbering is an O(1) table read instead of a
//! per-shard binary search, and the member arc sequences are read straight
//! out of the (Arc-shared) dipaths without an intermediate all-occurrences
//! buffer. A long-lived caller (the incremental `Workspace`) keeps one
//! scratch across re-solves: the tables are sized to the host once, so a
//! later extraction allocates only its output and costs what the shards
//! actually extracted contain, not what the host does. The scratch's
//! interner forgets the shard-local sequences no extracted shard still
//! holds (see [`ArcListArena`]), so a scratch kept for the life of a
//! service stays bounded by what it extracts at once.

use crate::dipath::Dipath;
use crate::family::{DipathFamily, PathId};
use crate::intern::{ArcListArena, ArenaStats};
use dagwave_graph::{ArcId, Digraph, VertexId};

/// Reusable renumbering tables for [`SubInstance::extract_with`].
///
/// Holds one `u32` per host arc and per host vertex (grown lazily to the
/// host size on first use, then reused), plus a stamp that invalidates all
/// entries at once — clearing between shards costs O(1), not O(host).
/// The `used_*` buffers keep their capacity across shards, so a warm
/// scratch extracts without allocating anything but the output itself.
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
    /// Interner for the remapped member sequences: duplicated members
    /// (within one shard or across shards extracted through the same
    /// scratch) share one shard-local arc list instead of re-allocating
    /// it per extraction. Entries no shard holds any more are swept.
    arena: ArcListArena,
    remap_buf: Vec<ArcId>,
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
}

/// One shard of an instance: a dense local family over a restricted graph,
/// plus the map back to the original ids.
///
/// Built by [`SubInstance::extract_with`]; local ids follow the order of
/// the members handed in (ascending original id when the members come from
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
    /// caller-owned renumbering tables, reused across shards. Output
    /// depends only on the members: used arcs and vertices are emitted in
    /// ascending host order, whichever scratch (or how warm) is used.
    pub fn extract_with<'a, I>(g: &Digraph, members: I, scratch: &mut ExtractScratch) -> SubInstance
    where
        I: IntoIterator<Item = (PathId, &'a Dipath)>,
        I::IntoIter: Clone,
    {
        let members = members.into_iter();
        scratch.begin(g);
        let stamp = scratch.stamp;
        // Gather the shard's arcs, stamp-deduplicated (each arc is listed
        // once no matter how loaded), then sort the *unique* list — the
        // only per-shard ordering work left.
        for (_, p) in members.clone() {
            for &a in p.arcs() {
                if scratch.arc_stamp[a.index()] != stamp {
                    scratch.arc_stamp[a.index()] = stamp;
                    scratch.used_arcs.push(a);
                }
            }
        }
        scratch.used_arcs.sort_unstable();
        for (new, &a) in scratch.used_arcs.iter().enumerate() {
            scratch.arc_new[a.index()] = new as u32;
        }
        for &a in &scratch.used_arcs {
            for v in [g.tail(a), g.head(a)] {
                if scratch.vert_stamp[v.index()] != stamp {
                    scratch.vert_stamp[v.index()] = stamp;
                    scratch.used_vertices.push(v);
                }
            }
        }
        scratch.used_vertices.sort_unstable();
        for (new, &v) in scratch.used_vertices.iter().enumerate() {
            scratch.vert_new[v.index()] = new as u32;
        }

        let mut graph =
            Digraph::with_capacity(scratch.used_vertices.len(), scratch.used_arcs.len());
        for (new, &old) in scratch.used_arcs.iter().enumerate() {
            let added = graph.add_arc(
                VertexId(scratch.vert_new[g.tail(old).index()]),
                VertexId(scratch.vert_new[g.head(old).index()]),
            );
            debug_assert_eq!(added.index(), new);
        }

        let mut original = Vec::with_capacity(members.size_hint().0);
        let family = members
            .map(|(id, p)| {
                original.push(id);
                scratch.remap_buf.clear();
                scratch
                    .remap_buf
                    .extend(p.arcs().iter().map(|&a| ArcId(scratch.arc_new[a.index()])));
                // Resolve the remapped sequence through the scratch's arena:
                // a duplicated member costs a lookup, not an allocation.
                let arcs = scratch.arena.intern_slice(&scratch.remap_buf);
                // The remap is monotone on a validated dipath, so contiguity
                // and simplicity carry over; debug builds re-validate inside.
                Dipath::from_list_trusted(&graph, arcs)
            })
            .collect();
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
