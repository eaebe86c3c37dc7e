//! Arc-list interning: shared, content-addressed arc sequences.
//!
//! Every [`crate::Dipath`] stores its arc sequence as an [`ArcList`] — an
//! immutable, cheaply-cloneable handle (`Arc<[ArcId]>` plus a cached
//! content fingerprint). An [`ArcListArena`] deduplicates lists by
//! content: interning a sequence the arena has seen before returns the
//! *original* allocation (a refcount bump), so replicated families,
//! remove + re-add churn, and shard extraction of duplicated members all
//! share one allocation per distinct sequence instead of one per dipath.
//!
//! Deduplication is what makes the identity test cheap, not just the
//! memory small: two interned lists from the same arena are
//! content-equal iff they are pointer-equal, so the incremental engine's
//! reuse pool can match a reconstituted shard in O(members) pointer
//! compares instead of O(shard content). `ArcList::eq` keeps the
//! pointer-first discipline even across arenas (pointer check, then
//! fingerprint gate, then exact content — a hash collision can never
//! alias two different sequences).
//!
//! The arena forgets what nobody else holds. Whenever it has doubled since
//! its last sweep (and holds at least 64 entries), it drops every entry
//! whose only handle is its own (`Arc::strong_count == 1`). A handle still
//! held elsewhere — by a live dipath, or by a solved shard a workspace
//! banks for reuse — survives every sweep, so re-interning its content
//! still returns the original allocation, and two live handles of equal
//! content from one arena still share it. A sweep costs one pass over the
//! entries and runs after at least half as many insertions, so it is
//! amortized O(1) per intern, and the arena never holds more than twice
//! what survived its last sweep, or the floor, however many distinct
//! sequences a long-running client names.

use dagwave_graph::ArcId;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Deterministic content fingerprint of an arc sequence (`DefaultHasher`
/// with default keys — reproducible across runs, like the workspace's
/// shard fingerprints, which are built on top of these).
fn fingerprint_of(arcs: &[ArcId]) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    arcs.len().hash(&mut h);
    for a in arcs {
        a.index().hash(&mut h);
    }
    h.finish()
}

/// An immutable arc sequence behind a shared allocation, with its content
/// fingerprint computed once at construction.
///
/// Equality and hashing are by content (pointer equality short-circuits,
/// the fingerprint gates the slow path), so an `ArcList` drops into any
/// context a `Vec<ArcId>` used to occupy.
#[derive(Clone, Debug)]
pub struct ArcList {
    arcs: Arc<[ArcId]>,
    fingerprint: u64,
}

impl ArcList {
    /// Build from an owned vector (one allocation move, no copy).
    pub fn from_vec(arcs: Vec<ArcId>) -> Self {
        let fingerprint = fingerprint_of(&arcs);
        ArcList {
            arcs: arcs.into(),
            fingerprint,
        }
    }

    /// Build from a borrowed slice (copies the slice once).
    pub fn from_slice(arcs: &[ArcId]) -> Self {
        ArcList {
            fingerprint: fingerprint_of(arcs),
            arcs: arcs.into(),
        }
    }

    /// The arc sequence.
    #[inline]
    pub fn as_slice(&self) -> &[ArcId] {
        &self.arcs
    }

    /// Number of arcs.
    #[inline]
    pub fn len(&self) -> usize {
        self.arcs.len()
    }

    /// `true` when the sequence is empty (never, for a list inside a
    /// validated dipath).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.arcs.is_empty()
    }

    /// The cached content fingerprint.
    #[inline]
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// `true` when both handles share one allocation. Within one arena
    /// this is equivalent to content equality; across arenas it may
    /// report `false` for equal content (fall back to `==`).
    #[inline]
    pub fn ptr_eq(&self, other: &ArcList) -> bool {
        Arc::ptr_eq(&self.arcs, &other.arcs)
    }
}

impl PartialEq for ArcList {
    fn eq(&self, other: &Self) -> bool {
        self.ptr_eq(other)
            || (self.fingerprint == other.fingerprint && self.as_slice() == other.as_slice())
    }
}

impl Eq for ArcList {}

impl Hash for ArcList {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Hash the content exactly as the `Vec<ArcId>` it replaced would
        // have, so `Dipath`'s derived `Hash` is unchanged by interning.
        self.as_slice().hash(state);
    }
}

impl std::ops::Deref for ArcList {
    type Target = [ArcId];

    fn deref(&self) -> &[ArcId] {
        &self.arcs
    }
}

#[cfg(feature = "serde")]
impl serde::Serialize for ArcList {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        self.as_slice().serialize(serializer)
    }
}

#[cfg(feature = "serde")]
impl<'de> serde::Deserialize<'de> for ArcList {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        Ok(ArcList::from_vec(Vec::<ArcId>::deserialize(deserializer)?))
    }
}

/// Counters of one [`ArcListArena`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Distinct arc sequences stored now (sweeps drop the unheld ones).
    pub lists: usize,
    /// Interning calls answered from an existing entry.
    pub hits: u64,
    /// Interning calls that stored a new entry.
    pub misses: u64,
}

impl ArenaStats {
    /// Hits over total interning calls, in `[0, 1]` (0 when untouched).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Fewest entries at which an [`ArcListArena`] sweeps: below it, the
/// arena keeps everything it has seen.
const SWEEP_FLOOR: usize = 64;

/// A deduplicating store of [`ArcList`]s that forgets entries only it
/// holds (see the [module docs](self)).
///
/// Buckets by fingerprint with exact content confirmation, so a 64-bit
/// collision can never alias two different sequences — it only costs one
/// extra slot in a bucket.
#[derive(Clone, Debug, Default)]
pub struct ArcListArena {
    buckets: HashMap<u64, Vec<ArcList>>,
    lists: usize,
    /// Entries left by the last sweep (0 before the first).
    swept: usize,
    hits: u64,
    misses: u64,
}

impl ArcListArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern an already-built list: returns the arena's existing handle
    /// for equal content (refcount bump), or registers `list` itself —
    /// the no-copy path for callers that already hold an `ArcList`.
    pub fn intern(&mut self, list: ArcList) -> ArcList {
        let bucket = self.buckets.entry(list.fingerprint).or_default();
        for held in bucket.iter() {
            if held.ptr_eq(&list) || held.as_slice() == list.as_slice() {
                self.hits += 1;
                return held.clone();
            }
        }
        bucket.push(list.clone());
        self.stored();
        list
    }

    /// Intern a borrowed sequence: the slice is copied only when the
    /// arena has never seen this content.
    pub fn intern_slice(&mut self, arcs: &[ArcId]) -> ArcList {
        let fingerprint = fingerprint_of(arcs);
        let bucket = self.buckets.entry(fingerprint).or_default();
        for held in bucket.iter() {
            if held.as_slice() == arcs {
                self.hits += 1;
                return held.clone();
            }
        }
        let list = ArcList {
            fingerprint,
            arcs: arcs.into(),
        };
        bucket.push(list.clone());
        self.stored();
        list
    }

    /// Count a new entry, and sweep once the arena has doubled since the
    /// last sweep. The entry just stored is held by the caller's handle
    /// too, so the sweep never drops it.
    fn stored(&mut self) {
        self.misses += 1;
        self.lists += 1;
        if self.lists >= (2 * self.swept).max(SWEEP_FLOOR) {
            self.buckets.retain(|_, bucket| {
                bucket.retain(|held| Arc::strong_count(&held.arcs) > 1);
                !bucket.is_empty()
            });
            self.lists = self.buckets.values().map(Vec::len).sum();
            self.swept = self.lists;
            // Keep the next sweep's pass proportional to what survived.
            self.buckets.shrink_to(2 * self.swept);
        }
    }

    /// Distinct sequences stored (held elsewhere, or not yet swept).
    #[inline]
    pub fn len(&self) -> usize {
        self.lists
    }

    /// `true` when nothing has been interned.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.lists == 0
    }

    /// The counters: current size, cumulative hits and misses.
    pub fn stats(&self) -> ArenaStats {
        ArenaStats {
            lists: self.lists,
            hits: self.hits,
            misses: self.misses,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arcs(ids: &[u32]) -> Vec<ArcId> {
        ids.iter().map(|&i| ArcId(i)).collect()
    }

    #[test]
    fn interning_dedups_by_content() {
        let mut arena = ArcListArena::new();
        let a = arena.intern_slice(&arcs(&[0, 1, 2]));
        let b = arena.intern_slice(&arcs(&[0, 1, 2]));
        assert!(a.ptr_eq(&b), "same content shares one allocation");
        let c = arena.intern_slice(&arcs(&[0, 1]));
        assert!(!a.ptr_eq(&c));
        let stats = arena.stats();
        assert_eq!(stats.lists, 2);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 2);
        assert!((stats.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn intern_owned_registers_the_given_handle() {
        let mut arena = ArcListArena::new();
        let fresh = ArcList::from_vec(arcs(&[3, 4]));
        let held = arena.intern(fresh.clone());
        assert!(held.ptr_eq(&fresh), "miss keeps the caller's allocation");
        let again = arena.intern(ArcList::from_vec(arcs(&[3, 4])));
        assert!(again.ptr_eq(&fresh), "hit returns the first allocation");
    }

    #[test]
    fn equality_and_hash_are_by_content() {
        use std::collections::hash_map::DefaultHasher;
        let a = ArcList::from_vec(arcs(&[5, 6, 7]));
        let b = ArcList::from_slice(&arcs(&[5, 6, 7]));
        assert_eq!(a, b, "distinct allocations, equal content");
        assert!(!a.ptr_eq(&b));
        assert_eq!(a.fingerprint(), b.fingerprint());
        let hash = |l: &ArcList| {
            let mut h = DefaultHasher::new();
            l.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&a), hash(&b));
        assert_ne!(a, ArcList::from_vec(arcs(&[5, 6])));
    }

    #[test]
    fn sweep_drops_only_unheld_entries() {
        let mut arena = ArcListArena::new();
        // Keep every fourth handle; drop the rest as soon as interned.
        let held: Vec<ArcList> = (0..1000u32)
            .filter_map(|i| {
                let list = arena.intern_slice(&arcs(&[i, i + 1]));
                (i % 4 == 0).then_some(list)
            })
            .collect();
        // Never more than twice what survived the last sweep, or the floor.
        assert!(
            arena.len() <= 2 * held.len().max(SWEEP_FLOOR),
            "{} entries for {} held handles",
            arena.len(),
            held.len()
        );
        // Held handles keep their identity through every sweep...
        for (k, list) in held.iter().enumerate() {
            let i = 4 * k as u32;
            assert!(arena.intern_slice(&arcs(&[i, i + 1])).ptr_eq(list));
        }
        // ...and a forgotten sequence is simply stored again.
        let again = arena.intern_slice(&arcs(&[1, 2]));
        assert_eq!(again.as_slice(), &arcs(&[1, 2])[..]);
        assert_eq!(arena.stats().misses, 1001);
    }

    #[test]
    fn small_arenas_never_sweep() {
        let mut arena = ArcListArena::new();
        let first = arena.intern_slice(&arcs(&[0]));
        let ptr = std::sync::Arc::as_ptr(&first.arcs);
        drop(first);
        for i in 1..SWEEP_FLOOR as u32 - 1 {
            arena.intern_slice(&arcs(&[i]));
        }
        assert_eq!(arena.len(), SWEEP_FLOOR - 1, "below the floor nothing goes");
        let again = arena.intern_slice(&arcs(&[0]));
        assert_eq!(std::sync::Arc::as_ptr(&again.arcs), ptr, "kept while small");
    }

    #[test]
    fn empty_arena_reports_empty() {
        let arena = ArcListArena::new();
        assert!(arena.is_empty());
        assert_eq!(arena.len(), 0);
        assert_eq!(arena.stats(), ArenaStats::default());
        assert_eq!(ArenaStats::default().hit_rate(), 0.0);
    }
}
