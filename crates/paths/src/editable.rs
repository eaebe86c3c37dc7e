//! An editable dipath family with stable ids — the substrate of
//! incremental re-solving.
//!
//! [`DipathFamily`] is a dense, append-only family: removing a member would
//! shift every later [`PathId`], invalidating cached per-shard state. A
//! [`PathFamily`] instead keeps one *slot* per id: removal tombstones the
//! slot (the id is never reinterpreted as a different dipath while live
//! references exist), and insertion reuses the **smallest** free slot
//! before growing — a deterministic contract that mutation-script
//! generators (e.g. `dagwave-gen`'s churn workload) can mirror exactly.
//!
//! Mutations touch only the slot table, the free set and a live count.
//! The dense view the one-shot solving surface needs — the live members
//! as a [`DipathFamily`] of shared `Arc<Dipath>` handles in ascending
//! stable-id order, plus the stable↔dense id maps — is built on the first
//! dense query ([`PathFamily::dense_view`], [`PathFamily::dense_ids`],
//! [`PathFamily::dense_rank`], [`PathFamily::to_dense`]) and kept from then
//! on: every later insert or remove patches it in place, a pointer-sized
//! `memmove`, and nothing ever drops it. A family that is never asked for
//! its dense view (the incremental workspace extracts shards from stable
//! ids) never pays for one, and a caller that does ask once per mutation
//! pays the patch, not a rebuild. Because the view is kept in ascending
//! id order, the dense ranks of the live paths are *monotone* in their
//! stable ids — the property that keeps component orderings (and therefore
//! merged colorings) identical between the incremental and from-scratch
//! solve paths.

use crate::dipath::Dipath;
use crate::family::{DipathFamily, PathId};
use crate::intern::{ArcListArena, ArenaStats};
use std::collections::BTreeSet;
use std::sync::{Arc, OnceLock};

/// A mutable dipath family with stable [`PathId`]s.
///
/// Removals tombstone their slot; insertions reuse the smallest free slot
/// first ([`PathFamily::insert`]). `len()` counts live members only.
///
/// ```
/// use dagwave_graph::builder::from_edges;
/// use dagwave_graph::VertexId;
/// use dagwave_paths::{Dipath, PathFamily, PathId};
///
/// let g = from_edges(3, &[(0, 1), (1, 2)]);
/// let v = |i| VertexId::from_index(i);
/// let p = Dipath::from_vertices(&g, &[v(0), v(1), v(2)]).unwrap();
///
/// let mut family = PathFamily::new();
/// let a = family.insert(p.clone());
/// let b = family.insert(p.clone());
/// family.remove(a).unwrap();
/// assert_eq!(family.len(), 1);
/// // The freed slot is reused, smallest first — `b` keeps its id.
/// assert_eq!(family.insert(p), a);
/// assert_eq!(b, PathId(1));
/// ```
#[derive(Clone, Debug, Default)]
pub struct PathFamily {
    slots: Vec<Option<Arc<Dipath>>>,
    /// Tombstoned slot indices, ordered so the smallest is reused first
    /// and validators can read the smallest few without copying the rest.
    free: BTreeSet<u32>,
    /// Number of live slots.
    live: usize,
    /// The dense view, built on the first dense query and patched by every
    /// mutation after it.
    dense: OnceLock<DenseView>,
    /// Arc-list interner: [`PathFamily::insert`] routes every dipath
    /// through it, so content seen before (replication, remove + re-add
    /// churn) reuses one allocation and compares by pointer.
    arena: ArcListArena,
}

/// The live members in ascending stable-id order, sharing their
/// `Arc<Dipath>`s with the slot table.
#[derive(Clone, Debug, Default)]
struct DenseView {
    family: DipathFamily,
    /// `ids[rank]` = the stable id at that dense rank (sorted ascending,
    /// so stable→dense is a binary search).
    ids: Vec<PathId>,
}

impl PathFamily {
    /// An empty editable family.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adopt a dense family: member `i` becomes slot `i`, all live. Every
    /// member's arc list is interned; first occurrences keep the input's
    /// dipath handle (a refcount bump, no deep clone), while content
    /// duplicates are rebound to share the first occurrence's allocation —
    /// a replicated family costs one arc list per *distinct* sequence.
    pub fn from_family(family: &DipathFamily) -> Self {
        let mut arena = ArcListArena::new();
        let shared: Vec<Arc<Dipath>> = family
            .iter_shared()
            .map(|(_, p)| {
                let interned = arena.intern(p.arc_list().clone());
                if interned.ptr_eq(p.arc_list()) {
                    Arc::clone(p)
                } else {
                    Arc::new(p.with_list(interned))
                }
            })
            .collect();
        PathFamily {
            live: shared.len(),
            slots: shared.into_iter().map(Some).collect(),
            free: BTreeSet::new(),
            dense: OnceLock::new(),
            arena,
        }
    }

    /// Number of live members.
    #[inline]
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` when no member is live.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Number of slots ever allocated (live + tombstoned); stable ids are
    /// always below this bound.
    #[inline]
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// The tombstoned slot ids, ascending — the slots the next inserts
    /// will fill (smallest first) before the family grows. Lazy: a batch
    /// validator simulating `n` insertions reads only the `n` smallest
    /// (`free_slots().take(n)`), never the whole tombstone set, and never
    /// the O(live) member set.
    pub fn free_slots(&self) -> impl Iterator<Item = u32> + '_ {
        self.free.iter().copied()
    }

    /// The id the next [`PathFamily::insert`] will assign: the smallest
    /// tombstoned slot, or a fresh slot past the end. Mutation-script
    /// generators use this to mirror id assignment without inserting.
    pub fn next_id(&self) -> PathId {
        match self.free.first() {
            Some(&slot) => PathId(slot),
            None => PathId::from_index(self.slots.len()),
        }
    }

    /// Insert a dipath, reusing the smallest free slot (tombstone first,
    /// growth second), and return its stable id. The dipath's arc list is
    /// interned first: re-adding previously-seen content (the remove +
    /// re-add churn pattern) adopts the original allocation, so downstream
    /// caches can match it by pointer instead of content.
    pub fn insert(&mut self, mut p: Dipath) -> PathId {
        p.intern_into(&mut self.arena);
        let p = Arc::new(p);
        let id = match self.free.pop_first() {
            Some(slot) => PathId(slot),
            None => {
                self.slots.push(None);
                PathId::from_index(self.slots.len() - 1)
            }
        };
        debug_assert!(self.slots[id.index()].is_none(), "slot was free");
        if let Some(view) = self.dense.get_mut() {
            // The new member's rank is the number of live ids below it.
            let rank = view.ids.partition_point(|&other| other < id);
            view.ids.insert(rank, id);
            view.family.insert_shared_at(rank, Arc::clone(&p));
        }
        self.slots[id.index()] = Some(p);
        self.live += 1;
        self.debug_validate();
        id
    }

    /// Remove a live member, tombstoning its slot. Returns the (shared)
    /// dipath, or `None` when the id is unknown or already removed.
    pub fn remove(&mut self, id: PathId) -> Option<Arc<Dipath>> {
        let p = self.slots.get_mut(id.index())?.take()?;
        self.free.insert(id.0);
        self.live -= 1;
        if let Some(view) = self.dense.get_mut() {
            // Drop the member's rank, shifting later ranks down.
            match view.ids.binary_search(&id) {
                Ok(rank) => {
                    view.ids.remove(rank);
                    view.family.remove_at(rank);
                }
                Err(_) => debug_assert!(false, "live slot missing from the dense view"),
            }
        }
        self.debug_validate();
        Some(p)
    }

    /// The dense view, built from the slot table on first use.
    fn view(&self) -> &DenseView {
        self.dense.get_or_init(|| {
            let (ids, paths) = self
                .slots
                .iter()
                .enumerate()
                .filter_map(|(i, s)| Some((PathId::from_index(i), Arc::clone(s.as_ref()?))))
                .unzip();
            DenseView {
                family: DipathFamily::from_shared(paths),
                ids,
            }
        })
    }

    /// Shadow validation of the tombstone/free-list bijection **and** the
    /// dense view, when built (debug builds only; release builds compile
    /// this to nothing). The free set must hold exactly the tombstoned slot
    /// indices — a phantom entry would hand out an id that is live or was
    /// never allocated, a missing one would leak the slot forever — and
    /// the live count must complement it. A built view must list exactly
    /// the live slots in ascending id order, each entry sharing its slot's
    /// dipath (pointer equality, so a patch that cloned or swapped a member
    /// dies here too). Run after every mutation, where the O(slots) sweep
    /// is dwarfed by the re-solve the mutation triggers anyway.
    fn debug_validate(&self) {
        if !cfg!(debug_assertions) {
            return;
        }
        let tombstoned: BTreeSet<u32> = self
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_none())
            .map(|(i, _)| i as u32)
            .collect();
        debug_assert_eq!(
            self.free, tombstoned,
            "free list and tombstoned slots diverged"
        );
        debug_assert_eq!(
            self.live + self.free.len(),
            self.slots.len(),
            "live count diverged from slots minus tombstones"
        );
        let Some(view) = self.dense.get() else {
            return;
        };
        debug_assert_eq!(
            view.ids,
            self.ids().collect::<Vec<_>>(),
            "dense id map diverged from the live slots"
        );
        debug_assert_eq!(
            view.family.len(),
            view.ids.len(),
            "dense view length diverged from its id map"
        );
        for (rank, &id) in view.ids.iter().enumerate() {
            let slot = self.slots[id.index()]
                .as_ref()
                .expect("dense id map points at a live slot"); // lint: allow(no-panic): debug-only shadow check
            debug_assert!(
                Arc::ptr_eq(slot, view.family.shared(PathId::from_index(rank))),
                "dense view stopped sharing slot {id}'s dipath"
            );
        }
    }

    /// The live dipath at `id`, if any.
    pub fn get(&self, id: PathId) -> Option<&Dipath> {
        self.slots.get(id.index())?.as_deref()
    }

    /// The shared handle of the live dipath at `id`, if any.
    pub fn get_shared(&self, id: PathId) -> Option<&Arc<Dipath>> {
        self.slots.get(id.index())?.as_ref()
    }

    /// `true` when `id` names a live member.
    pub fn contains(&self, id: PathId) -> bool {
        self.get(id).is_some()
    }

    /// Iterate over the live members as `(stable id, dipath)`, in ascending
    /// id order. Reads the slot table, so it never builds the dense view.
    pub fn iter(&self) -> impl Iterator<Item = (PathId, &Dipath)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| Some((PathId::from_index(i), s.as_deref()?)))
    }

    /// Live ids, ascending.
    pub fn ids(&self) -> impl Iterator<Item = PathId> + '_ {
        self.iter().map(|(id, _)| id)
    }

    /// The dense view: the live members as a [`DipathFamily`] in ascending
    /// stable-id order, borrowed without copying anything.
    /// `dense_view().path(PathId(r))` is the member at dense rank `r`;
    /// [`PathFamily::dense_ids`] maps ranks back to stable ids. Built on
    /// the first dense query (O(slots)), then patched by every mutation.
    pub fn dense_view(&self) -> &DipathFamily {
        &self.view().family
    }

    /// The dense→stable id map: `dense_ids()[rank]` is the stable id of the
    /// member at that dense rank (ascending, so it doubles as a sorted
    /// array for stable→dense binary search). Builds the dense view on
    /// first use.
    pub fn dense_ids(&self) -> &[PathId] {
        &self.view().ids
    }

    /// The stable→dense map: the dense rank of live member `id`, or `None`
    /// when `id` is not live. `O(log n)` (binary search of the sorted
    /// dense→stable map) once the dense view is built.
    pub fn dense_rank(&self, id: PathId) -> Option<usize> {
        self.view().ids.binary_search(&id).ok()
    }

    /// Materialize the live members as a dense [`DipathFamily`] plus the
    /// dense→stable id map (`map[dense.index()]` is the stable id). Live
    /// members are emitted in ascending stable-id order, so dense ranks are
    /// monotone in stable ids. Served from the dense view: the cost is one
    /// handle clone per member (refcount bumps), never a per-arc copy.
    /// Callers that can hold a borrow should prefer
    /// [`PathFamily::dense_view`] / [`PathFamily::dense_ids`], which copy
    /// nothing at all.
    pub fn to_dense(&self) -> (DipathFamily, Vec<PathId>) {
        let view = self.view();
        (view.family.clone(), view.ids.clone())
    }

    /// Counters of the family's arc-list interner: distinct sequences
    /// stored now (a sweep drops those no dipath holds any more; see
    /// [`ArcListArena`]) plus cumulative intern hits/misses.
    pub fn arena_stats(&self) -> ArenaStats {
        self.arena.stats()
    }
}

impl From<DipathFamily> for PathFamily {
    fn from(family: DipathFamily) -> Self {
        PathFamily::from_family(&family)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagwave_graph::builder::from_edges;
    use dagwave_graph::{Digraph, VertexId};

    fn v(i: usize) -> VertexId {
        VertexId::from_index(i)
    }

    fn chain() -> (Digraph, Vec<Dipath>) {
        let g = from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let paths = vec![
            Dipath::from_vertices(&g, &[v(0), v(1), v(2)]).unwrap(),
            Dipath::from_vertices(&g, &[v(1), v(2), v(3)]).unwrap(),
            Dipath::from_vertices(&g, &[v(2), v(3)]).unwrap(),
        ];
        (g, paths)
    }

    #[test]
    fn insert_assigns_dense_then_reuses_smallest_free() {
        let (_, paths) = chain();
        let mut f = PathFamily::new();
        assert!(f.is_empty());
        let ids: Vec<PathId> = paths.iter().cloned().map(|p| f.insert(p)).collect();
        assert_eq!(ids, vec![PathId(0), PathId(1), PathId(2)]);
        assert_eq!(f.len(), 3);
        assert_eq!(f.slot_count(), 3);

        // Free two slots out of order; the smallest comes back first.
        f.remove(PathId(2)).unwrap();
        f.remove(PathId(0)).unwrap();
        assert_eq!(f.len(), 1);
        assert_eq!(f.next_id(), PathId(0));
        assert_eq!(f.insert(paths[0].clone()), PathId(0));
        assert_eq!(f.next_id(), PathId(2));
        assert_eq!(f.insert(paths[2].clone()), PathId(2));
        // Free list drained: growth resumes past the end.
        assert_eq!(f.next_id(), PathId(3));
        assert_eq!(f.insert(paths[1].clone()), PathId(3));
        assert_eq!(f.slot_count(), 4);
    }

    #[test]
    fn remove_tombstones_and_rejects_double_removal() {
        let (_, paths) = chain();
        let mut f = PathFamily::from_family(&DipathFamily::from_paths(paths.clone()));
        assert_eq!(f.len(), 3);
        assert!(f.contains(PathId(1)));
        let removed = f.remove(PathId(1)).unwrap();
        assert_eq!(&*removed, &paths[1]);
        assert!(!f.contains(PathId(1)));
        assert!(f.get(PathId(1)).is_none());
        assert!(f.remove(PathId(1)).is_none(), "already tombstoned");
        assert!(f.remove(PathId(9)).is_none(), "never allocated");
        // Stable ids: the other members are untouched.
        assert_eq!(f.get(PathId(0)), Some(&paths[0]));
        assert_eq!(f.get(PathId(2)), Some(&paths[2]));
        assert_eq!(f.ids().collect::<Vec<_>>(), vec![PathId(0), PathId(2)]);
    }

    #[test]
    fn to_dense_skips_tombstones_and_maps_back() {
        let (_, paths) = chain();
        let mut f = PathFamily::from_family(&DipathFamily::from_paths(paths.clone()));
        f.remove(PathId(0)).unwrap();
        let (dense, map) = f.to_dense();
        assert_eq!(dense.len(), 2);
        assert_eq!(map, vec![PathId(1), PathId(2)]);
        assert_eq!(dense.path(PathId(0)), &paths[1]);
        assert_eq!(dense.path(PathId(1)), &paths[2]);
        // Dense ranks are monotone in stable ids by construction.
        assert!(map.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn dense_view_shares_and_maps_both_ways() {
        let (_, paths) = chain();
        let mut f = PathFamily::from_family(&DipathFamily::from_paths(paths.clone()));
        f.remove(PathId(1)).unwrap();
        let id3 = f.insert(paths[1].clone());
        assert_eq!(id3, PathId(1), "smallest tombstone reused");
        // Borrowed view: no copies at all, shared with the slot table.
        let view = f.dense_view();
        assert_eq!(view.len(), 3);
        assert!(Arc::ptr_eq(
            view.shared(PathId(0)),
            f.get_shared(PathId(0)).unwrap()
        ));
        // Stable↔dense maps agree in both directions.
        assert_eq!(f.dense_ids(), &[PathId(0), PathId(1), PathId(2)]);
        for (rank, &id) in f.dense_ids().iter().enumerate() {
            assert_eq!(f.dense_rank(id), Some(rank));
        }
        assert_eq!(f.dense_rank(PathId(9)), None);
        f.remove(PathId(0)).unwrap();
        assert_eq!(f.dense_rank(PathId(0)), None);
        assert_eq!(f.dense_rank(PathId(2)), Some(1));
    }

    #[test]
    fn to_dense_shares_instead_of_cloning() {
        let (_, paths) = chain();
        let f = PathFamily::from_family(&DipathFamily::from_paths(paths));
        let (dense, _) = f.to_dense();
        for (rank, p) in dense.iter_shared() {
            let id = f.dense_ids()[rank.index()];
            assert!(
                Arc::ptr_eq(p, f.get_shared(id).unwrap()),
                "dense conversion must share, not deep-clone"
            );
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "live count diverged")]
    fn shadow_validation_catches_corrupted_live_count() {
        let (_, paths) = chain();
        let mut f = PathFamily::from_family(&DipathFamily::from_paths(paths));
        f.live -= 1; // corrupt the live count
        let _ = f.remove(PathId(0)); // the post-mutation sweep fires
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "free list and tombstoned slots diverged")]
    fn shadow_validation_catches_phantom_free_slot() {
        let (_, paths) = chain();
        let mut f = PathFamily::from_family(&DipathFamily::from_paths(paths));
        f.free.insert(7); // a slot that was never allocated
        f.live -= 1; // keep the count check from firing first
        let _ = f.remove(PathId(0));
    }

    #[test]
    fn insert_interns_and_readd_shares_allocation() {
        let (_, paths) = chain();
        let mut f = PathFamily::new();
        let a = f.insert(paths[0].clone());
        let b = f.insert(paths[0].clone());
        assert!(
            f.get(a)
                .unwrap()
                .arc_list()
                .ptr_eq(f.get(b).unwrap().arc_list()),
            "duplicate insert shares one arc list"
        );
        // Remove + re-add resolves through the arena, which still holds the
        // sequence (member `b` shares it): the reconstituted member adopts
        // the original allocation.
        f.remove(a).unwrap();
        let c = f.insert(paths[0].clone());
        assert_eq!(c, a, "smallest tombstone reused");
        assert!(
            f.get(c)
                .unwrap()
                .arc_list()
                .ptr_eq(f.get(b).unwrap().arc_list()),
            "re-added content shares the original allocation"
        );
        let stats = f.arena_stats();
        assert_eq!(stats.lists, 1, "one distinct sequence");
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn from_family_dedups_replicated_members() {
        let (_, paths) = chain();
        let dense =
            DipathFamily::from_paths(vec![paths[0].clone(), paths[0].clone(), paths[1].clone()]);
        let f = PathFamily::from_family(&dense);
        assert!(
            f.get(PathId(0))
                .unwrap()
                .arc_list()
                .ptr_eq(f.get(PathId(1)).unwrap().arc_list()),
            "replicated members share the first occurrence's allocation"
        );
        assert_eq!(f.arena_stats().lists, 2);
        // The slot/dense sharing invariant survives the rebind.
        for (rank, &id) in f.dense_ids().iter().enumerate() {
            assert!(Arc::ptr_eq(
                f.get_shared(id).unwrap(),
                f.dense_view().shared(PathId::from_index(rank))
            ));
        }
    }

    #[test]
    fn from_conversion_matches_from_family() {
        let (_, paths) = chain();
        let dense = DipathFamily::from_paths(paths);
        let a = PathFamily::from_family(&dense);
        let b: PathFamily = dense.clone().into();
        assert_eq!(a.len(), b.len());
        let (ra, ma) = a.to_dense();
        assert_eq!(ra.len(), dense.len());
        assert_eq!(ma, dense.ids().collect::<Vec<_>>());
    }
}
