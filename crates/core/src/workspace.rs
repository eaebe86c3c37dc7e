//! Incremental re-solve: a persistent [`Workspace`] with shard-level
//! caching and a mutation API.
//!
//! The one-shot entry points rebuild everything per call, but a production
//! RWA service sees *churn*: lightpaths arrive and depart while most of
//! the instance is unchanged. Because wavelength assignment decomposes
//! exactly over conflict-graph components (the decompose-solve-merge
//! invariant), a mutation can only affect the components it touches — a
//! removed dipath dirties its own component (which may split), an added
//! dipath dirties every component it shares an arc with (which it may
//! bridge) — and every other shard's cached coloring stays valid verbatim.
//!
//! A [`Workspace`] owns the instance (graph + an editable
//! [`PathFamily`] with stable ids), tracks the component partition
//! incrementally, and caches one solved [`Solution`] per shard. It always
//! shards, whatever the session's [`DecomposePolicy`]: an unsplit family
//! is one shard, and only the empty family is dispatched whole, as the
//! one-shot path does. The mutation API ([`Workspace::add_path`],
//! [`Workspace::remove_path`], [`Workspace::apply`] with [`Mutation`]
//! batches) re-derives components only over the dirty member pool, and
//! not at all after a batch of one addition, whose pool is one component;
//! [`Workspace::solution`] then re-solves only the unsolved shards and
//! re-merges with the shared normalized palette. Unsolved shards go through
//! the one-shot path's shard engine: each writes its content key, equal
//! keys form one group, and only the first shard of a group is built into
//! a sub-instance and solved. The first refresh of a family glued from
//! copies of a few gadgets builds and solves one sub-instance per distinct
//! gadget, and every shard of a group caches the same shared result.
//!
//! The mutate → refresh step is O(dirty): every structure it touches is
//! patched for just the shards a mutation dirties, never rescanned.
//! Shards sit in an ordered map keyed by their smallest member (canonical
//! order without sorting), with a slot-indexed id → shard index for the
//! lookups `apply` makes; a stale set names the shards the next refresh
//! solves and writes to the color table; the span is the top of a
//! histogram of shard spans, the twin of the `π(G, P)` load histogram
//! patched at each arc-user edit; the first errored shard is the first
//! key of an ordered set. Components are re-derived by union through the
//! arc → users index and a slot-indexed scratch, with no hashing. Each
//! dirty shard is keyed from its own cached dipaths under their stable
//! ids, through one [`ExtractScratch`] kept across refreshes, so the step
//! never reads the family's dense view; with one dirty shard, writing its
//! key is the renumbering its extraction needs anyway. Batch validation
//! reads only as many tombstones as the batch adds. The instance class is
//! computed once (the graph is immutable), and each shard carries a
//! content fingerprint so a shard dropped and reconstituted with identical
//! dipaths (e.g. remove + re-add) adopts its old solve from a reuse pool
//! instead of recomputing — [`Resolve::shards_reused`] counts adoptions.
//!
//! What stays O(live) is what asks for the whole instance:
//! [`Workspace::solution`] materializes an instance-sized snapshot, and it
//! and [`Workspace::dense_index_of`] build the family's dense view on
//! first use, which every later mutation then patches
//! ([`PathFamily::dense_view`]).
//!
//! The *query* side is O(dirty) too. Every refresh patches a persistent
//! [`ColorTable`] (structurally-shared `Arc` pages keyed by stable id)
//! with only the re-solved shards' colors, so [`Workspace::span`],
//! [`Workspace::color_of`], and [`Workspace::delta_since`] answer without
//! merging — the last returns exactly the `(PathId, color)` pairs that
//! changed since a client's [`Epoch`], the surface `dagwave-serve`'s
//! `QueryDelta` frames ride on. [`Workspace::solution`] remains the
//! bit-identity oracle, but now hands out `Arc<Solution>` snapshots: a
//! cache hit is a refcount bump, and the full merge runs only when a
//! snapshot is actually demanded.
//!
//! **Invariant:** after any mutation sequence, [`Workspace::solution`] is
//! bit-identical to a from-scratch `ws.session().solve(graph, dense)` on
//! the mutated instance (the live members in ascending stable-id order),
//! at every thread budget; [`Workspace::new`] pins
//! [`DecomposePolicy::Always`] on the session it keeps. This holds by
//! construction: the workspace hands its shards to the same shard solver
//! and merge as the one-shot decomposed path — only the component scan
//! and the already-solved shards are served from cache. The [`Resolve`]
//! record on the returned solution says how much was reused.
//!
//! ```
//! use dagwave_core::{DecomposePolicy, Mutation, SolveSession, Workspace};
//! use dagwave_graph::builder::from_edges;
//! use dagwave_graph::VertexId;
//! use dagwave_paths::{Dipath, DipathFamily};
//!
//! // Two arc-disjoint chains — two conflict components.
//! let g = from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]);
//! let v = |i| VertexId::from_index(i);
//! let p = |route: &[usize]| {
//!     let r: Vec<VertexId> = route.iter().map(|&i| v(i)).collect();
//!     Dipath::from_vertices(&g, &r).unwrap()
//! };
//! let family = DipathFamily::from_paths(vec![
//!     p(&[0, 1, 2]),
//!     p(&[1, 2]),
//!     p(&[3, 4, 5]),
//!     p(&[4, 5]),
//! ]);
//! // Any session works; the workspace keeps it with `Always` pinned.
//! let mut ws = Workspace::new(SolveSession::auto(), g.clone(), family.clone()).unwrap();
//! assert_eq!(ws.session().request().decompose, DecomposePolicy::Always);
//! let first = ws.solution().unwrap();
//! assert_eq!(first.num_colors, 2);
//!
//! // Admit one more dipath on the second chain: only that shard recolors.
//! ws.apply([Mutation::Add(p(&[3, 4, 5]))]).unwrap();
//! let second = ws.solution().unwrap();
//! let resolve = second.resolve.unwrap();
//! assert_eq!(resolve.shards_reused, 1);
//! assert_eq!(resolve.shards_resolved, 1);
//! assert_eq!(second.num_colors, 3, "arc 4→5 now carries load 3");
//! ```

use crate::backend::{InstanceContext, SolveRequest};
use crate::colortable::ColorTable;
use crate::decompose::DecomposePolicy;
use crate::error::CoreError;
use crate::internal::DagClass;
use crate::solver::{merge_shards, Solution, SolveSession};
use dagwave_graph::{ArcId, Digraph, UnionFind};
use dagwave_paths::{Dipath, DipathFamily, ExtractScratch, PathFamily, PathId};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Refresh generations retained for [`Workspace::delta_since`]: a client
/// further behind than this gets a full resync instead of a delta. Bounds
/// the delta log at ~64 × O(dirty) entries regardless of uptime.
const DELTA_RETAIN: usize = 64;

/// One instance mutation: admit or retire a dipath.
///
/// Batched through [`Workspace::apply`]; a batch is invalidation-minimal —
/// components are re-derived once for the whole batch, not per op.
#[derive(Clone, Debug)]
pub enum Mutation {
    /// Add this dipath to the family (it gets the smallest free stable id;
    /// see [`PathFamily::insert`]).
    Add(Dipath),
    /// Remove the live dipath with this stable id.
    Remove(PathId),
}

/// How an incremental re-solve was obtained: shards served from cache vs.
/// actually recomputed. Attached to [`Solution::resolve`] by
/// [`Workspace::solution`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Resolve {
    /// Shards whose cached coloring was reused verbatim.
    pub shards_reused: usize,
    /// Shards whose cached coloring was refilled this call. Identical
    /// shards share one solve, so this counts shards refilled, not
    /// solves run.
    pub shards_resolved: usize,
    /// Sub-instances built and solved this call: one per distinct content
    /// among the refilled shards, so at most `shards_resolved`.
    pub solves: usize,
}

/// A refresh generation of a [`Workspace`]: advances by one every time the
/// workspace folds pending mutations into its persistent color table.
/// Clients remember the epoch of their last sync and pass it to
/// [`Workspace::delta_since`] to receive only what changed since.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Epoch(pub u64);

/// The answer to a [`Workspace::delta_since`] query: the current epoch and
/// span, plus the changed colors since the client's epoch — O(changed),
/// never O(instance), unless a resync is needed.
///
/// When `full_resync` is true the client's epoch was unknown or too far
/// behind the retained delta log: `changes` then lists **every** live
/// `(id, color)` pair, `removed` is empty, and the client must drop any
/// state not re-listed. Replaying deltas in order reconstructs exactly the
/// color table of [`Workspace::solution`] — the bit-identity oracle.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SolutionDelta {
    /// The workspace epoch this delta brings the client up to.
    pub epoch: Epoch,
    /// The merged span (number of wavelengths) at that epoch.
    pub span: usize,
    /// `true` when `changes` is a complete snapshot, not a delta.
    pub full_resync: bool,
    /// Members whose color changed (or appeared) since the client's epoch,
    /// with their new colors; ascending stable id.
    pub changes: Vec<(PathId, u32)>,
    /// Members removed since the client's epoch; ascending stable id.
    pub removed: Vec<PathId>,
}

/// One retained refresh generation: what the refresh changed, for
/// [`Workspace::delta_since`] to replay.
#[derive(Clone, Debug)]
struct DeltaRecord {
    epoch: u64,
    changes: Vec<(PathId, u32)>,
    removed: Vec<PathId>,
}

/// Cumulative workspace counters since [`Workspace::new`], exposed by
/// [`Workspace::stats`] — the aggregate twin of the per-solve
/// [`Resolve`] record, so a service `Stats` endpoint (or a report row)
/// reads the totals directly instead of re-deriving them by summing
/// every [`Solution::resolve`] it ever saw.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkspaceStats {
    /// Live dipaths in the current family.
    pub live_paths: usize,
    /// Conflict components tracked in the current state.
    pub shard_count: usize,
    /// `π(G, P)` of the current family (maintained per mutation, O(1)).
    pub max_load: usize,
    /// [`Workspace::solution`] cache misses — full recomputations run.
    pub recomputes: usize,
    /// Shards served from cache, summed over every recomputation
    /// (fingerprint-pool adoptions count here, exactly as they do in
    /// [`Resolve::shards_reused`]).
    pub shards_reused: usize,
    /// Shards refilled, summed over every recomputation (as
    /// [`Resolve::shards_resolved`] counts them: shards, not solves).
    pub shards_resolved: usize,
    /// Distinct arc sequences held by the family's interner (it forgets
    /// sequences no dipath holds any more; see
    /// [`dagwave_paths::ArcListArena`]).
    pub interned_arc_lists: usize,
    /// Interner lookups answered by an existing allocation.
    pub intern_hits: u64,
    /// Interner lookups that stored a new allocation.
    pub intern_misses: u64,
    /// Current refresh generation ([`Workspace::epoch`]).
    pub epoch: u64,
    /// [`Workspace::delta_since`] queries served.
    pub delta_queries: u64,
    /// Delta queries that fell back to a full resync (client epoch unknown
    /// or older than the retained log).
    pub delta_resyncs: u64,
}

/// A cached shard solve. Shards with identical content share one `Arc`.
type Solved = Result<Arc<Solution>, CoreError>;

/// One tracked component: its live members (stable ids, ascending), the
/// shared handles of their dipaths, a content fingerprint, and, once
/// solved, the cached shard-local solution. Stored in
/// `Workspace::shards` under its smallest member.
#[derive(Clone, Debug)]
struct CachedShard {
    /// Stable member ids, ascending.
    members: Vec<PathId>,
    /// The members' dipaths (shared handles, parallel to `members`) — kept
    /// so a dropped shard's content outlives the family mutation that
    /// dropped it, which is what lets the fingerprint reuse pool verify an
    /// exact content match instead of trusting a 64-bit hash.
    paths: Vec<Arc<Dipath>>,
    /// Hash of the member dipaths' arc sequences in canonical (ascending
    /// member id) order. Deliberately content-only — ids are excluded — so
    /// a shard whose membership came back under different stable ids but
    /// identical dipaths still matches: the shard-local solve depends only
    /// on content and order, never on the ids themselves.
    fingerprint: u64,
    /// The shard-local solve result; `None` while dirty. Colors are indexed
    /// by the member's *rank* within the shard, which removals elsewhere in
    /// the family never change — that is what makes the cache survive id
    /// compaction in the dense view.
    solved: Option<Solved>,
}

/// A solved shard banked when a mutation dropped it: if a freshly derived
/// component has the same fingerprint *and* identical dipath contents, the
/// solve is adopted instead of redone (e.g. remove + re-add of the same
/// dipath reconstitutes its old shard verbatim).
#[derive(Clone, Debug)]
struct ReuseEntry {
    fingerprint: u64,
    paths: Vec<Arc<Dipath>>,
    solved: Solved,
}

/// Aggregates over the shards' cached solves, patched whenever a solve is
/// cached or dropped so a refresh never rescans the shards: the merged
/// span is the top of `span_hist` (the twin of the workspace's load
/// histogram), and the first errored key is the canonical first error.
#[derive(Clone, Debug, Default, PartialEq)]
struct SolveTally {
    /// `span_hist[s]` = number of shards solved with span `s`. Trailing
    /// zero buckets are trimmed, so the top index is the maximum span.
    span_hist: Vec<u32>,
    /// Shards whose solve failed, by key (ascending = canonical order).
    errored: BTreeMap<PathId, CoreError>,
}

impl SolveTally {
    /// Count the cached solve of the shard under `key`.
    fn add(&mut self, key: PathId, solved: &Solved) {
        match solved {
            Ok(sol) => {
                if sol.num_colors >= self.span_hist.len() {
                    self.span_hist.resize(sol.num_colors + 1, 0);
                }
                self.span_hist[sol.num_colors] += 1;
            }
            Err(e) => {
                self.errored.insert(key, e.clone());
            }
        }
    }

    /// Uncount a solve that [`SolveTally::add`] counted.
    fn remove(&mut self, key: PathId, solved: &Solved) {
        match solved {
            Ok(sol) => {
                self.span_hist[sol.num_colors] -= 1;
                while self.span_hist.last() == Some(&0) {
                    self.span_hist.pop();
                }
            }
            Err(_) => {
                self.errored.remove(&key);
            }
        }
    }

    /// The largest span among the counted solves (0 when none).
    fn span(&self) -> usize {
        self.span_hist.len().saturating_sub(1)
    }
}

/// Hash of a shard's member dipath contents in canonical order — see
/// [`CachedShard::fingerprint`]. `DefaultHasher` with default keys is
/// deterministic, which keeps workspaces reproducible across runs.
fn shard_fingerprint(paths: &[Arc<Dipath>]) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    paths.len().hash(&mut h);
    for p in paths {
        // Every dipath caches its own content fingerprint (computed once at
        // interning), so a shard fingerprint is O(members), not O(content).
        p.fingerprint().hash(&mut h);
    }
    h.finish()
}

/// Exact content equality between two shards' dipath lists. Pointer
/// equality short-circuits the shared-handle case, and because the family
/// interns every arc list through one arena, a remove + re-add
/// reconstitution hits the `ArcList` pointer check — O(members), no
/// content walk. The exact comparison underneath is what makes fingerprint
/// adoption safe against hash collisions.
fn same_paths(a: &[Arc<Dipath>], b: &[Arc<Dipath>]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| Arc::ptr_eq(x, y) || x.same_arcs(y))
}

/// A persistent solving surface over one mutable instance.
///
/// See the [module docs](self) for the caching model and the bit-identity
/// invariant. The workspace is deliberately *not* `Sync`-shared — it is the
/// single writer a service front-end funnels admissions/retirements
/// through; concurrency lives inside each re-solve (dirty shards still fan
/// out onto the rayon pool).
#[derive(Clone, Debug)]
pub struct Workspace {
    session: SolveSession,
    graph: Digraph,
    family: PathFamily,
    /// arc index → live stable path ids using that arc, ascending — the
    /// mutable arc→paths index (the editable twin of
    /// [`dagwave_paths::ArcIndex`]); `arc_users[a].len()` is arc `a`'s
    /// load, which is what lets the load be patched per mutation below.
    arc_users: Vec<Vec<u32>>,
    /// The component partition, keyed by each shard's smallest member, so
    /// iterating it is canonical order without any sort.
    shards: BTreeMap<PathId, CachedShard>,
    /// Slot-indexed: `shard_of[id]` is the key of the shard holding live
    /// member `id`, `None` for a tombstone (and, until `apply` re-derives
    /// components, for an addition of the batch in progress).
    shard_of: Vec<Option<PathId>>,
    /// Keys of the shards that are unsolved or not yet written to the
    /// color table — exactly the set the next refresh solves and patches.
    stale: BTreeSet<PathId>,
    /// Span histogram and errored shards over the cached solves.
    tally: SolveTally,
    /// Renumbering tables for shard extraction, kept across refreshes so
    /// re-extraction is proportional to the dirty shards, not the host.
    extract: ExtractScratch,
    /// Slot-indexed scratch for component re-derivation: `pool_pos[id]` is
    /// live member `id`'s position in the pool being re-derived. Entries
    /// outside the current pool are stale and never read.
    pool_pos: Vec<u32>,
    /// Cached merged snapshot of the current state (dropped on any
    /// mutation). Queries hand out clones of the `Arc` — a cache hit is a
    /// refcount bump, never an instance-sized copy.
    merged: Option<Arc<Solution>>,
    /// The [`Resolve`] of the last refresh; stamped onto the snapshot when
    /// it is materialized.
    last_resolve: Resolve,
    /// The persistent merged color table, keyed by stable id and patched
    /// per refresh — the O(dirty) query substrate behind
    /// [`Workspace::span`] / [`Workspace::color_of`] /
    /// [`Workspace::delta_since`].
    table: ColorTable,
    /// The merged span at the current epoch (max over shard spans,
    /// maintained per refresh).
    current_span: usize,
    /// Refresh generation: bumped once per refresh that folded mutations
    /// into the table.
    epoch: u64,
    /// The last [`DELTA_RETAIN`] refresh generations, oldest first.
    deltas: VecDeque<DeltaRecord>,
    /// Stable ids removed since the last refresh and not re-occupied by a
    /// later addition — the next refresh clears their table slots.
    pending_removed: BTreeSet<PathId>,
    /// `true` once the table/span/epoch reflect every mutation applied so
    /// far (cleared by [`Workspace::apply`], set by the refresh).
    refreshed: bool,
    /// The error the last refresh surfaced, if any — replayed to every
    /// query until a mutation invalidates it, exactly as the merged cache
    /// used to replay cached errors.
    refresh_error: Option<CoreError>,
    /// The instance class, computed once at open: mutations never touch the
    /// graph, and the class depends on the graph alone.
    class: DagClass,
    /// `load_hist[l]` = number of arcs currently carrying load `l` (`l ≥
    /// 1`) — patched on every arc-user insert/remove so `π(G, P)` is
    /// maintained, never rescanned.
    load_hist: Vec<u32>,
    /// `π(G, P)` of the current family (the top of `load_hist`).
    max_load: usize,
    /// Solved shards dropped by mutations since the last recompute, keyed
    /// by content fingerprint — drained on adoption, cleared per recompute.
    reuse_pool: Vec<ReuseEntry>,
    /// Cumulative counters behind [`Workspace::stats`]: recomputations run
    /// and reused/resolved shard totals (accumulated only on cache misses,
    /// so repeated queries of an unchanged workspace add nothing).
    recomputes: usize,
    total_reused: usize,
    total_resolved: usize,
    delta_queries: u64,
    delta_resyncs: u64,
}

impl Workspace {
    /// Open a workspace over an instance, validating the DAG precondition
    /// once (mutations never touch the graph, so it never re-fails).
    ///
    /// The workspace keeps `session` with [`DecomposePolicy::Always`]
    /// pinned (policy and budgets as given): it always shards, and
    /// [`Workspace::session`]'s from-scratch solve of the live members is
    /// its bit-identity oracle.
    ///
    /// The initial family is adopted as slots `0..len` of the editable
    /// [`PathFamily`]; nothing is solved until the first
    /// [`Workspace::solution`] call.
    pub fn new(
        session: SolveSession,
        graph: Digraph,
        family: DipathFamily,
    ) -> Result<Self, CoreError> {
        let session = SolveSession::new(SolveRequest {
            decompose: DecomposePolicy::Always,
            ..session.request().clone()
        });
        // Same rejection the one-shot path performs, hoisted to open time;
        // the class and load it computes seed the patched caches below.
        let ctx = InstanceContext::new(&graph, &family, session.request())?;
        let class = ctx.class;
        let max_load = ctx.load;
        drop(ctx);
        let editable = PathFamily::from_family(&family);
        let mut arc_users: Vec<Vec<u32>> = vec![Vec::new(); graph.arc_count()];
        for (id, p) in editable.iter() {
            for &a in p.arcs() {
                arc_users[a.index()].push(id.0);
            }
        }
        let mut load_hist = vec![0u32; max_load + 1];
        for users in &arc_users {
            if !users.is_empty() {
                load_hist[users.len()] += 1;
            }
        }
        let live: Vec<PathId> = editable.ids().collect();
        let mut ws = Workspace {
            session,
            graph,
            shard_of: vec![None; editable.slot_count()],
            family: editable,
            arc_users,
            shards: BTreeMap::new(),
            stale: BTreeSet::new(),
            tally: SolveTally::default(),
            extract: ExtractScratch::new(),
            pool_pos: Vec::new(),
            merged: None,
            last_resolve: Resolve::default(),
            class,
            load_hist,
            max_load,
            table: ColorTable::new(),
            current_span: 0,
            epoch: 0,
            deltas: VecDeque::new(),
            pending_removed: BTreeSet::new(),
            refreshed: false,
            refresh_error: None,
            reuse_pool: Vec::new(),
            recomputes: 0,
            total_reused: 0,
            total_resolved: 0,
            delta_queries: 0,
            delta_resyncs: 0,
        };
        for members in ws.components_of(&live) {
            ws.track_shard(members);
        }
        ws.debug_validate();
        Ok(ws)
    }

    /// The session this workspace solves under: the one it was opened
    /// with, with [`DecomposePolicy::Always`] pinned.
    pub fn session(&self) -> &SolveSession {
        &self.session
    }

    /// The (immutable) host graph.
    pub fn graph(&self) -> &Digraph {
        &self.graph
    }

    /// The editable family: live members under their stable ids.
    pub fn family(&self) -> &PathFamily {
        &self.family
    }

    /// Number of tracked conflict components in the current state.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The current component partition: stable member ids per shard, in
    /// canonical order (ascending within a shard, shards by smallest
    /// member) — without solving anything.
    pub fn components(&self) -> Vec<Vec<PathId>> {
        self.shards.values().map(|s| s.members.clone()).collect()
    }

    /// `π(G, P)` of the current family — the universal lower bound on the
    /// span, maintained per mutation through the load histogram (O(1), no
    /// rescan).
    pub fn max_load(&self) -> usize {
        self.max_load
    }

    /// Number of live dipaths currently using arc `a` (its load). Admission
    /// policies project the post-admit load from this: adding a dipath
    /// raises every one of its arcs' loads by one.
    pub fn arc_load(&self, a: ArcId) -> usize {
        self.arc_users.get(a.index()).map_or(0, |users| users.len())
    }

    /// Cumulative counters since [`Workspace::new`]: live paths, shard
    /// count, current load, and the reused/resolved shard totals summed
    /// over every recomputation — see [`WorkspaceStats`].
    pub fn stats(&self) -> WorkspaceStats {
        let arena = self.family.arena_stats();
        WorkspaceStats {
            live_paths: self.family.len(),
            shard_count: self.shards.len(),
            max_load: self.max_load,
            recomputes: self.recomputes,
            shards_reused: self.total_reused,
            shards_resolved: self.total_resolved,
            interned_arc_lists: arena.lists,
            intern_hits: arena.hits,
            intern_misses: arena.misses,
            epoch: self.epoch,
            delta_queries: self.delta_queries,
            delta_resyncs: self.delta_resyncs,
        }
    }

    /// The index [`Workspace::solution`]'s assignment uses for the live
    /// member `id` in the current state: its rank among the live stable
    /// ids (the dense view skips tombstones). `None` when `id` is not
    /// live. Builds the family's dense view on first use; see
    /// [`PathFamily::dense_rank`].
    pub fn dense_index_of(&self, id: PathId) -> Option<usize> {
        self.family.dense_rank(id)
    }

    /// Admit one dipath. Returns its stable id.
    pub fn add_path(&mut self, p: Dipath) -> Result<PathId, CoreError> {
        let mut added = self.apply([Mutation::Add(p)])?;
        Ok(added.pop().expect("one add yields one id")) // lint: allow(no-panic): apply() of one Add returns exactly one id
    }

    /// Retire the dipath with this stable id.
    pub fn remove_path(&mut self, id: PathId) -> Result<(), CoreError> {
        self.apply([Mutation::Remove(id)]).map(|_| ())
    }

    /// Apply a mutation batch atomically with one invalidation pass:
    /// the components touched by any removal or addition are re-derived
    /// over the dirty member pool only, every other shard keeps its cached
    /// solution. A batch of one addition re-derives nothing: an addition
    /// can only merge components, so its pool (the new dipath and every
    /// shard it shares an arc with) is one shard. Returns the stable ids
    /// assigned to the batch's additions, in batch order (an addition the
    /// same batch later removes still reports its id).
    ///
    /// A removal may name an id assigned by an earlier addition *in the
    /// same batch* — id assignment is deterministic (smallest free slot),
    /// so script generators can predict it (see
    /// [`PathFamily::next_id`]).
    ///
    /// On error (unknown id, dipath invalid on this graph) the workspace is
    /// left exactly as before the batch — validation happens up front,
    /// before any state changes.
    pub fn apply(
        &mut self,
        batch: impl IntoIterator<Item = Mutation>,
    ) -> Result<Vec<PathId>, CoreError> {
        let batch: Vec<Mutation> = batch.into_iter().collect();
        // ---- Validate the whole batch against a simulated id state (the
        // exact free-list discipline of `PathFamily`), so a failing batch
        // mutates nothing. The simulation is delta-based — the family's
        // tombstones plus this batch's own removals/additions — so a batch
        // never reads the O(live) member set: an id is live iff it was
        // added by an earlier op in the batch, or is live in the family and
        // not removed by an earlier op. `n` additions can only ever take
        // the `n` smallest tombstones, so only those are read, whatever the
        // tombstone count.
        let additions = batch
            .iter()
            .filter(|m| matches!(m, Mutation::Add(_)))
            .count();
        let one_addition = batch.len() == 1 && additions == 1;
        let mut free: BTreeSet<u32> = self.family.free_slots().take(additions).collect();
        let mut slots = self.family.slot_count() as u32;
        let mut removed_sim: BTreeSet<PathId> = BTreeSet::new();
        let mut added_sim: BTreeSet<PathId> = BTreeSet::new();
        for m in &batch {
            match m {
                Mutation::Remove(id) => {
                    if added_sim.remove(id) {
                        // Un-adds a batch addition; its slot frees again.
                    } else if !(self.family.contains(*id) && removed_sim.insert(*id)) {
                        // Not family-live, or already removed this batch.
                        return Err(CoreError::UnknownPath(*id));
                    }
                    free.insert(id.0);
                }
                Mutation::Add(p) => {
                    // Re-validate the dipath against *this* graph: catches
                    // out-of-range arcs and non-contiguous sequences from
                    // paths built elsewhere. (Bounds first — the contiguity
                    // check indexes the graph's arc tables.)
                    if let Some(&a) = p
                        .arcs()
                        .iter()
                        .find(|a| a.index() >= self.graph.arc_count())
                    {
                        return Err(CoreError::InvalidPath(format!(
                            "arc {a} out of range for this graph ({} arcs)",
                            self.graph.arc_count()
                        )));
                    }
                    Dipath::validate(&self.graph, p.arcs())
                        .map_err(|e| CoreError::InvalidPath(e.to_string()))?;
                    // Mirror the insert: smallest free slot, else growth.
                    let id = match free.pop_first() {
                        Some(slot) => PathId(slot),
                        None => {
                            slots += 1;
                            PathId(slots - 1)
                        }
                    };
                    added_sim.insert(id);
                }
            }
        }

        // ---- Execute, accumulating the dirtied shards' keys and the added
        // ids. Every lookup goes through the slot-indexed `shard_of`.
        let mut dirty: BTreeSet<PathId> = BTreeSet::new();
        let mut added: Vec<PathId> = Vec::new();
        for m in batch {
            match m {
                Mutation::Remove(id) => {
                    let p = self.family.remove(id).expect("validated live"); // lint: allow(no-panic): the validation pass above confirmed the id is live
                    self.pending_removed.insert(id);
                    // An addition of this batch has no shard yet.
                    if let Some(key) = self.shard_of[id.index()].take() {
                        dirty.insert(key);
                    }
                    for &a in p.arcs() {
                        let users = &mut self.arc_users[a.index()];
                        if let Ok(pos) = users.binary_search(&id.0) {
                            users.remove(pos);
                            let new_load = users.len();
                            self.note_load_dec(new_load + 1);
                        }
                    }
                }
                Mutation::Add(p) => {
                    // Every component sharing an arc with the new dipath is
                    // dirtied — the addition may bridge several. Dipaths on
                    // one arc share one component, so one lookup per arc
                    // suffices: the first user with a shard. (Users added
                    // earlier in this batch have none yet; they dirtied the
                    // shard of the arc's older users when they were added.)
                    for &a in p.arcs() {
                        if let Some(key) = self.arc_users[a.index()]
                            .iter()
                            .find_map(|&user| self.shard_of[user as usize])
                        {
                            dirty.insert(key);
                        }
                    }
                    let id = self.family.insert(p);
                    if id.index() >= self.shard_of.len() {
                        self.shard_of.resize(id.index() + 1, None);
                    }
                    // A reused slot is live again: its pending removal (from
                    // this batch or an earlier one) is superseded — the next
                    // refresh reports a color change, not a removal.
                    self.pending_removed.remove(&id);
                    let p = self
                        .family
                        .get_shared(id)
                        .expect("just inserted") // lint: allow(no-panic): the id was inserted on the previous line
                        .clone();
                    for &a in p.arcs() {
                        let users = &mut self.arc_users[a.index()];
                        if let Err(pos) = users.binary_search(&id.0) {
                            users.insert(pos, id.0);
                            let new_load = users.len();
                            self.note_load_inc(new_load);
                        }
                    }
                    added.push(id);
                }
            }
        }

        // ---- Re-derive components over the dirty pool only: members of
        // dirtied shards that are still live, plus the additions (some of
        // which may already be counted via a dirtied shard, or removed
        // again by the same batch — the dedup drops repeats). Dropping a
        // dirty shard banks its solve in the reuse pool: a later batch (or
        // this one) may reconstitute a shard with identical content, and
        // its solve is then adopted instead of redone. A lone addition
        // shares an arc with every shard it dirtied, so its pool is one
        // component and is tracked as it stands.
        let mut pool: Vec<PathId> = added
            .iter()
            .copied()
            .filter(|&id| self.family.contains(id))
            .collect();
        for key in dirty {
            let members = self.untrack_shard(key);
            pool.extend(members.into_iter().filter(|&id| self.family.contains(id)));
        }
        pool.sort_unstable();
        pool.dedup();
        if one_addition {
            self.track_shard(pool);
        } else {
            for members in self.components_of(&pool) {
                self.track_shard(members);
            }
        }
        self.merged = None;
        self.refreshed = false;
        self.refresh_error = None;
        self.debug_validate();
        Ok(added)
    }

    /// The current solution, recomputing only what the mutations since the
    /// last call dirtied. Bit-identical to
    /// `self.session().solve(graph, dense_family)` on the current live
    /// members (ascending stable-id order), with [`Solution::resolve`]
    /// additionally recording the cache split of the refresh that produced
    /// it.
    ///
    /// Returns a shared snapshot: repeated calls without intervening
    /// mutations hand out the *same* `Arc` (a refcount bump — the
    /// instance-sized clone per cache hit is gone). The delta surface
    /// ([`Workspace::span`] / [`Workspace::color_of`] /
    /// [`Workspace::delta_since`]) answers without materializing a
    /// snapshot at all; this method stays the bit-identity oracle.
    pub fn solution(&mut self) -> Result<Arc<Solution>, CoreError> {
        self.refresh()?;
        if self.merged.is_none() {
            let sol = self.materialize();
            self.merged = Some(Arc::new(sol));
        }
        // lint: allow(no-panic): the branch above just populated self.merged
        Ok(Arc::clone(self.merged.as_ref().expect("just materialized")))
    }

    /// The merged span (number of wavelengths) of the current state —
    /// O(dirty): refreshes the per-shard caches if mutations are pending,
    /// then reads the maintained maximum without merging anything.
    pub fn span(&mut self) -> Result<usize, CoreError> {
        self.refresh()?;
        Ok(self.current_span)
    }

    /// The merged color of live member `id` — O(dirty) for the refresh,
    /// then O(1) from the persistent table. `None` when `id` is not live.
    /// Agrees exactly with [`Workspace::solution`]'s assignment at the
    /// member's dense rank.
    pub fn color_of(&mut self, id: PathId) -> Result<Option<u32>, CoreError> {
        self.refresh()?;
        if !self.family.contains(id) {
            return Ok(None);
        }
        Ok(self.table.get(id.index()))
    }

    /// The current refresh generation, without refreshing — advances once
    /// per refresh that folded mutations into the color table, so a just-
    /// mutated workspace still reports the epoch of its last refresh.
    pub fn epoch(&self) -> Epoch {
        Epoch(self.epoch)
    }

    /// Everything that changed since the client's `since` epoch — the
    /// O(changed) query the serve layer's `QueryDelta` frames ride on.
    ///
    /// Replaying the returned [`SolutionDelta`]s in epoch order (apply
    /// `changes`, drop `removed`, replace wholesale on `full_resync`)
    /// reconstructs exactly the color table of [`Workspace::solution`].
    /// The log retains `DELTA_RETAIN` (64) generations; older (or
    /// unknown, including future) epochs get a full resync.
    pub fn delta_since(&mut self, since: Epoch) -> Result<SolutionDelta, CoreError> {
        self.refresh()?;
        self.delta_queries += 1;
        let epoch = Epoch(self.epoch);
        let span = self.current_span;
        if since.0 == self.epoch {
            return Ok(SolutionDelta {
                epoch,
                span,
                full_resync: false,
                changes: Vec::new(),
                removed: Vec::new(),
            });
        }
        let covered = since.0 < self.epoch
            && self
                .deltas
                .front()
                .is_some_and(|oldest| oldest.epoch <= since.0 + 1);
        if !covered {
            self.delta_resyncs += 1;
            let changes = self
                .family
                .ids()
                .map(|id| {
                    let color = self
                        .table
                        .get(id.index())
                        .expect("refreshed table covers every live member"); // lint: allow(no-panic): refresh() patched every live member above
                    (id, color)
                })
                .collect();
            return Ok(SolutionDelta {
                epoch,
                span,
                full_resync: true,
                changes,
                removed: Vec::new(),
            });
        }
        // Coalesce the covered generations, newest writer wins per id: a
        // member changed then removed reports only the removal, a removal
        // whose slot was re-added reports only the new color.
        let mut merged: BTreeMap<PathId, Option<u32>> = BTreeMap::new();
        for rec in self.deltas.iter().filter(|r| r.epoch > since.0) {
            for &(id, color) in &rec.changes {
                merged.insert(id, Some(color));
            }
            for &id in &rec.removed {
                merged.insert(id, None);
            }
        }
        let mut changes = Vec::new();
        let mut removed = Vec::new();
        for (id, color) in merged {
            match color {
                Some(c) => changes.push((id, c)),
                None => removed.push(id),
            }
        }
        Ok(SolutionDelta {
            epoch,
            span,
            full_resync: false,
            changes,
            removed,
        })
    }

    /// A snapshot of the persistent merged color table at the current
    /// epoch (refreshing first). O(pages) pointer copies; consecutive
    /// snapshots share every page no refresh in between touched.
    pub fn color_table(&mut self) -> Result<ColorTable, CoreError> {
        self.refresh()?;
        Ok(self.table.clone())
    }

    /// Fold every pending mutation into the per-shard caches, the
    /// persistent color table, the span, and the delta log — O(dirty).
    /// Idempotent until the next mutation; every query path calls it
    /// first.
    fn refresh(&mut self) -> Result<(), CoreError> {
        if self.refreshed {
            return match &self.refresh_error {
                Some(e) => Err(e.clone()),
                None => Ok(()),
            };
        }
        self.refreshed = true;
        self.recomputes += 1;
        // Whatever the pool still holds was not reconstituted by the
        // mutations since the last refresh — drop it so the pool's size
        // stays bounded by the shards dropped between consecutive solves.
        self.reuse_pool.clear();

        // Solve only the unsolved stale shards, each keyed from its own
        // cached dipaths under their stable ids, through the same shard
        // engine as the one-shot decomposed path (identical shards share
        // one solve).
        let dirty: Vec<PathId> = self
            .stale
            .iter()
            .copied()
            .filter(|key| self.shards[key].solved.is_none())
            .collect();
        let solves = self.session.solve_shards(
            &self.graph,
            dirty.iter().map(|key| {
                let shard = &self.shards[key];
                let members = shard.members.iter().copied();
                members.zip(shard.paths.iter().map(|p| &**p))
            }),
            &mut self.extract,
        );
        for (key, solved) in dirty.iter().zip(solves.per_shard()) {
            // Cache the shard-local solution only: its colors are indexed
            // by rank within the shard, which removals elsewhere in the
            // family never change. A group's shards share its result.
            self.tally.add(*key, solved);
            if let Some(shard) = self.shards.get_mut(key) {
                shard.solved = Some(solved.clone());
            }
        }
        let reused = self.shards.len() - dirty.len();
        self.last_resolve = Resolve {
            shards_reused: reused,
            shards_resolved: dirty.len(),
            solves: solves.solves(),
        };
        self.total_reused += reused;
        self.total_resolved += dirty.len();

        let result = if self.shards.is_empty() {
            self.solve_empty()
        } else {
            Ok(())
        };
        let result = result.and_then(|()| self.patch_from_shards());
        self.debug_validate();
        result
    }

    /// The empty family has no shard; like the one-shot path, dispatch it
    /// whole, and keep the answer (or error) as the snapshot.
    fn solve_empty(&mut self) -> Result<(), CoreError> {
        let empty = DipathFamily::new();
        let ctx = InstanceContext::from_parts(
            &self.graph,
            &empty,
            self.class,
            self.max_load,
            self.session.request(),
        );
        match self.session.dispatch(&ctx) {
            Ok(mut sol) => {
                sol.resolve = Some(self.last_resolve);
                self.merged = Some(Arc::new(sol));
                Ok(())
            }
            Err(e) => {
                self.refresh_error = Some(e.clone());
                Err(e)
            }
        }
    }

    /// Patch the persistent table from the stale shards, normalizing each
    /// shard's palette by first appearance — byte-for-byte the rule
    /// [`merge_shards`] applies, and because that normalization is *per
    /// shard* (it never looks across shards), a clean shard's table
    /// entries stay valid verbatim.
    fn patch_from_shards(&mut self) -> Result<(), CoreError> {
        // First error in canonical shard order wins — same rule as the
        // merge. The table, span, epoch, and delta log stay untouched (and
        // the stale set with them); the error replays to every query until
        // a mutation clears it.
        if let Some((_, e)) = self.tally.errored.first_key_value() {
            let e = e.clone();
            self.refresh_error = Some(e.clone());
            return Err(e);
        }
        let mut changes: Vec<(PathId, u32)> = Vec::new();
        let mut palette = Vec::new();
        for key in std::mem::take(&mut self.stale) {
            let Some(CachedShard {
                members,
                solved: Some(Ok(sol)),
                ..
            }) = self.shards.get(&key)
            else {
                // lint: allow(no-panic): refresh() solved every stale shard, and the error check above returned on failures
                unreachable!("refresh solved every stale shard");
            };
            let table = &mut self.table;
            sol.assignment
                .for_each_normalized(&mut palette, |local, color| {
                    let orig = members[local];
                    if table.get(orig.index()) != Some(color) {
                        table.set(orig.index(), color);
                        changes.push((orig, color));
                    }
                });
        }
        let removed = self.drain_removed();
        self.current_span = self.tally.span();
        self.record_delta(changes, removed);
        Ok(())
    }

    /// Clear the table slots of members removed since the last refresh
    /// (skipping slots a later addition re-occupied — those surface as
    /// changes instead) and report which ids actually left the table.
    fn drain_removed(&mut self) -> Vec<PathId> {
        let pending = std::mem::take(&mut self.pending_removed);
        let mut removed = Vec::new();
        for id in pending {
            if !self.family.contains(id) && self.table.get(id.index()).is_some() {
                self.table.clear(id.index());
                removed.push(id);
            }
        }
        removed
    }

    /// Advance the epoch and append its delta record, trimming the log to
    /// [`DELTA_RETAIN`] generations.
    fn record_delta(&mut self, changes: Vec<(PathId, u32)>, removed: Vec<PathId>) {
        self.epoch += 1;
        self.deltas.push_back(DeltaRecord {
            epoch: self.epoch,
            changes,
            removed,
        });
        while self.deltas.len() > DELTA_RETAIN {
            self.deltas.pop_front();
        }
    }

    /// Merge the (refreshed, all-solved) shard caches into a full
    /// [`Solution`] — the lazy half behind a [`Workspace::solution`] cache
    /// miss; the delta surface never runs this. The empty family never
    /// lands here: its refresh caches its snapshot directly.
    fn materialize(&mut self) -> Solution {
        let dense = self.family.dense_view();
        let ctx = InstanceContext::from_parts(
            &self.graph,
            dense,
            self.class,
            self.max_load,
            self.session.request(),
        );
        let mut rank_of: Vec<u32> = vec![u32::MAX; self.family.slot_count()];
        for (rank, id) in self.family.ids().enumerate() {
            rank_of[id.index()] = rank as u32;
        }
        // Merge every shard (cached + fresh) in canonical order — the same
        // merge as the one-shot path, by reference: a re-merge never deep-
        // clones the clean shards' solutions.
        let shards: Vec<(Vec<PathId>, &Solution)> = self
            .shards
            .values()
            .map(|shard| {
                let members = shard
                    .members
                    .iter()
                    .map(|&id| PathId(rank_of[id.index()]))
                    .collect();
                match shard.solved.as_ref() {
                    Some(Ok(sol)) => (members, &**sol),
                    // lint: allow(no-panic): refresh() solved every shard and surfaced any error before this runs
                    _ => unreachable!("refresh solved every shard"),
                }
            })
            .collect();
        let mut sol = merge_shards(&ctx, shards);
        sol.resolve = Some(self.last_resolve);
        sol
    }

    /// An arc's load just rose to `new_load`: move it between histogram
    /// buckets and raise `max_load` if it set a new top. O(1).
    fn note_load_inc(&mut self, new_load: usize) {
        if new_load > 1 {
            self.load_hist[new_load - 1] -= 1;
        }
        if new_load >= self.load_hist.len() {
            self.load_hist.resize(new_load + 1, 0);
        }
        self.load_hist[new_load] += 1;
        self.max_load = self.max_load.max(new_load);
    }

    /// An arc's load just fell from `old_load`: move it between histogram
    /// buckets and walk `max_load` down past emptied buckets. Amortized
    /// O(1) — the walk only retraces ground previous increments covered.
    fn note_load_dec(&mut self, old_load: usize) {
        self.load_hist[old_load] -= 1;
        if old_load > 1 {
            self.load_hist[old_load - 1] += 1;
        }
        while self.max_load > 0 && self.load_hist[self.max_load] == 0 {
            self.max_load -= 1;
        }
    }

    /// The conflict components of `pool` (live ids, ascending, no repeats)
    /// in canonical order. The pool must be closed under sharing an arc,
    /// as the whole family and whole dirtied shards plus their additions
    /// are, so each member is unioned, on every arc, with that arc's first
    /// user, located in the pool through `pool_pos`: `O(Σ|P_pool| · α)`.
    fn components_of(&mut self, pool: &[PathId]) -> Vec<Vec<PathId>> {
        if self.pool_pos.len() < self.family.slot_count() {
            self.pool_pos.resize(self.family.slot_count(), u32::MAX);
        }
        for (k, &id) in pool.iter().enumerate() {
            self.pool_pos[id.index()] = k as u32;
        }
        let mut uf = UnionFind::new(pool.len());
        for (k, &id) in pool.iter().enumerate() {
            let p = self.family.get(id).expect("pool members are live"); // lint: allow(no-panic): apply and new pool only live ids
            for &a in p.arcs() {
                let first = self.arc_users[a.index()][0];
                let at = self.pool_pos[first as usize] as usize;
                debug_assert_eq!(pool.get(at), Some(&PathId(first)), "pool not arc-closed");
                uf.union(k, at);
            }
        }
        uf.components(|k| pool[k])
    }

    /// Start tracking a freshly derived component (members ascending):
    /// index its members under its key (the smallest member), adopt a
    /// banked solve with identical content if the reuse pool holds one
    /// (fingerprint gate, then exact content equality — a hash collision
    /// can never adopt a wrong solve), and mark it stale. An adopted solve
    /// is content-identical but may sit under different stable ids than
    /// when it was banked, so its table entries must be rewritten too.
    fn track_shard(&mut self, members: Vec<PathId>) {
        let paths: Vec<Arc<Dipath>> = members
            .iter()
            .map(|&id| {
                self.family
                    .get_shared(id)
                    .expect("component members are live") // lint: allow(no-panic): components are derived from live members only
                    .clone()
            })
            .collect();
        let fingerprint = shard_fingerprint(&paths);
        let solved = self
            .reuse_pool
            .iter()
            .position(|e| e.fingerprint == fingerprint && same_paths(&paths, &e.paths))
            .map(|i| self.reuse_pool.swap_remove(i).solved);
        let key = members[0];
        for &id in &members {
            self.shard_of[id.index()] = Some(key);
        }
        if let Some(solved) = &solved {
            self.tally.add(key, solved);
        }
        self.stale.insert(key);
        self.shards.insert(
            key,
            CachedShard {
                members,
                paths,
                fingerprint,
                solved,
            },
        );
    }

    /// Stop tracking the shard under `key`, banking its solve (if any) in
    /// the reuse pool, and return its members. Their `shard_of` entries
    /// are left for the caller to rewrite when it re-derives them.
    fn untrack_shard(&mut self, key: PathId) -> Vec<PathId> {
        let shard = self
            .shards
            .remove(&key)
            .expect("dirty keys name tracked shards"); // lint: allow(no-panic): dirty keys are read from shard_of, which names tracked shards only
        self.stale.remove(&key);
        if let Some(solved) = shard.solved {
            self.tally.remove(key, &solved);
            self.reuse_pool.push(ReuseEntry {
                fingerprint: shard.fingerprint,
                paths: shard.paths,
                solved,
            });
        }
        shard.members
    }

    /// Shadow check of the shard state `apply` and refresh maintain
    /// incrementally (debug builds only; release builds compile this to
    /// nothing), against a recount from the shards themselves: `shard_of`
    /// names, for every live id and no other, the shard that holds it;
    /// each shard is keyed by its smallest member and holds its members
    /// ascending; every unsolved shard is stale; and the span histogram
    /// and errored set equal a recount of the cached solves. Runs after
    /// every `apply` and refresh, where its O(live) sweep is dwarfed by
    /// `PathFamily`'s own debug sweep.
    fn debug_validate(&self) {
        if !cfg!(debug_assertions) {
            return;
        }
        let mut index: Vec<Option<PathId>> = vec![None; self.family.slot_count()];
        let mut recount = SolveTally::default();
        let mut tracked = 0usize;
        for (&key, shard) in &self.shards {
            debug_assert_eq!(
                shard.members.first(),
                Some(&key),
                "shard key is not its smallest member"
            );
            debug_assert!(
                shard.members.windows(2).all(|w| w[0] < w[1]),
                "shard {key} members are not strictly ascending"
            );
            for &id in &shard.members {
                debug_assert!(self.family.contains(id), "shard {key} holds dead id {id}");
                index[id.index()] = Some(key);
            }
            tracked += shard.members.len();
            match &shard.solved {
                Some(solved) => recount.add(key, solved),
                None => debug_assert!(
                    self.stale.contains(&key),
                    "unsolved shard {key} is missing from the stale set"
                ),
            }
        }
        debug_assert_eq!(tracked, self.family.len(), "shards do not cover the family");
        debug_assert_eq!(index, self.shard_of, "shard index diverged from the shards");
        debug_assert!(
            self.stale.iter().all(|key| self.shards.contains_key(key)),
            "stale set names an untracked shard"
        );
        debug_assert_eq!(recount, self.tally, "solve tally diverged from a recount");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::DecomposePolicy;
    use crate::solver::SolverBuilder;
    use dagwave_graph::builder::from_edges;
    use dagwave_graph::VertexId;

    fn v(i: usize) -> VertexId {
        VertexId::from_index(i)
    }

    fn path(g: &Digraph, route: &[usize]) -> Dipath {
        let route: Vec<VertexId> = route.iter().map(|&i| v(i)).collect();
        Dipath::from_vertices(g, &route).unwrap()
    }

    /// Two arc-disjoint chains (0→1→2 and 3→4→5), two paths each.
    fn two_chain_instance() -> (Digraph, DipathFamily) {
        let g = from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]);
        let f = DipathFamily::from_paths(vec![
            path(&g, &[0, 1, 2]),
            path(&g, &[1, 2]),
            path(&g, &[3, 4, 5]),
            path(&g, &[4, 5]),
        ]);
        (g, f)
    }

    fn sharded_session() -> SolveSession {
        SolverBuilder::new()
            .decompose(DecomposePolicy::Always)
            .build()
    }

    /// From-scratch reference on the workspace's current live members.
    fn from_scratch(ws: &Workspace) -> Result<Solution, CoreError> {
        let (dense, _) = ws.family().to_dense();
        ws.session().solve(ws.graph(), &dense)
    }

    fn assert_matches_scratch(ws: &mut Workspace) {
        let incremental = ws.solution();
        let scratch = from_scratch(ws);
        match (incremental, scratch) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.assignment.colors(), b.assignment.colors());
                assert_eq!(a.num_colors, b.num_colors);
                assert_eq!(a.strategy, b.strategy);
                assert_eq!(a.optimal, b.optimal);
                assert_eq!(a.attempts, b.attempts);
                match (&a.decomposition, &b.decomposition) {
                    (Some(da), Some(db)) => {
                        assert_eq!(da.shard_count(), db.shard_count());
                        for (sa, sb) in da.shards.iter().zip(&db.shards) {
                            assert_eq!(sa.members, sb.members);
                            assert_eq!(sa.num_colors, sb.num_colors);
                            assert_eq!(sa.strategy, sb.strategy);
                        }
                    }
                    (None, None) => {}
                    other => panic!("decomposition presence diverged: {other:?}"),
                }
            }
            (Err(a), Err(b)) => assert_eq!(a, b),
            other => panic!("incremental vs from-scratch diverged: {other:?}"),
        }
    }

    #[test]
    fn fresh_workspace_matches_from_scratch() {
        let (g, f) = two_chain_instance();
        let mut ws = Workspace::new(sharded_session(), g, f).unwrap();
        assert_eq!(ws.shard_count(), 2);
        let sol = ws.solution().unwrap();
        let r = sol.resolve.unwrap();
        assert_eq!(r.shards_resolved, 2, "first solve computes everything");
        assert_eq!(r.shards_reused, 0);
        assert_matches_scratch(&mut ws);
    }

    #[test]
    fn cache_hit_returns_the_same_snapshot() {
        let (g, f) = two_chain_instance();
        let mut ws = Workspace::new(sharded_session(), g, f).unwrap();
        let first = ws.solution().unwrap();
        let again = ws.solution().unwrap();
        assert!(
            Arc::ptr_eq(&first, &again),
            "a cache hit is a refcount bump, not a clone"
        );
        let r = again.resolve.unwrap();
        assert_eq!(r.shards_resolved, 2, "snapshot keeps its refresh's split");
        assert_eq!(r.shards_reused, 0);
    }

    #[test]
    fn add_touches_only_its_shard() {
        let (g, f) = two_chain_instance();
        let mut ws = Workspace::new(sharded_session(), g.clone(), f).unwrap();
        ws.solution().unwrap();
        ws.add_path(path(&g, &[3, 4])).unwrap();
        let sol = ws.solution().unwrap();
        let r = sol.resolve.unwrap();
        assert_eq!(r.shards_reused, 1, "first chain untouched");
        assert_eq!(r.shards_resolved, 1);
        assert_matches_scratch(&mut ws);
    }

    /// The workspace's shards, against the conflict components of its
    /// live members computed from scratch, in stable ids.
    fn assert_components_from_scratch(ws: &Workspace) {
        let (dense, ids) = ws.family().to_dense();
        let scratch: Vec<Vec<PathId>> = dagwave_paths::conflict_components(ws.graph(), &dense)
            .into_iter()
            .map(|c| c.into_iter().map(|rank| ids[rank.index()]).collect())
            .collect();
        assert_eq!(ws.components(), scratch);
    }

    /// A spine 0→…→6 carrying three arc-disjoint shards, and a chain 7→8
    /// carrying a fourth.
    fn spine_instance() -> (Digraph, DipathFamily) {
        let g = from_edges(9, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (7, 8)]);
        let f = DipathFamily::from_paths(vec![
            path(&g, &[0, 1]),
            path(&g, &[7, 8]),
            path(&g, &[2, 3]),
            path(&g, &[4, 5, 6]),
            path(&g, &[0, 1]),
            path(&g, &[5, 6]),
            path(&g, &[2, 3]),
        ]);
        (g, f)
    }

    #[test]
    fn one_addition_bridging_three_shards_is_one_shard() {
        let (g, f) = spine_instance();
        let mut ws = Workspace::new(sharded_session(), g.clone(), f).unwrap();
        assert_eq!(ws.shard_count(), 4);
        ws.solution().unwrap();
        // Free slot 0, so the bridge takes the smallest id and keys its
        // shard.
        ws.remove_path(PathId(0)).unwrap();
        ws.solution().unwrap();
        let bridge = ws.add_path(path(&g, &[0, 1, 2, 3, 4, 5])).unwrap();
        assert_eq!(bridge, PathId(0));
        assert_eq!(ws.shard_count(), 2);
        let ids = |xs: &[u32]| xs.iter().map(|&x| PathId(x)).collect::<Vec<_>>();
        assert_eq!(ws.components(), [ids(&[0, 2, 3, 4, 5, 6]), ids(&[1])]);
        assert_components_from_scratch(&ws);
        let r = ws.solution().unwrap().resolve.unwrap();
        assert_eq!((r.shards_reused, r.shards_resolved), (1, 1));
        assert_matches_scratch(&mut ws);
    }

    #[test]
    fn one_addition_on_unused_arcs_is_a_shard_of_its_own() {
        let g = from_edges(7, &[(0, 1), (1, 2), (3, 4), (4, 5), (5, 6)]);
        let f = DipathFamily::from_paths(vec![path(&g, &[0, 1, 2]), path(&g, &[3, 4])]);
        let mut ws = Workspace::new(sharded_session(), g.clone(), f).unwrap();
        ws.solution().unwrap();
        let id = ws.add_path(path(&g, &[5, 6])).unwrap();
        assert_eq!(ws.shard_count(), 3);
        assert_eq!(ws.components()[2], vec![id]);
        assert_components_from_scratch(&ws);
        let r = ws.solution().unwrap().resolve.unwrap();
        assert_eq!((r.shards_reused, r.shards_resolved), (2, 1));
        assert_matches_scratch(&mut ws);
    }

    #[test]
    fn remove_unknown_id_is_an_error_and_mutates_nothing() {
        let (g, f) = two_chain_instance();
        let mut ws = Workspace::new(sharded_session(), g.clone(), f).unwrap();
        let before = ws.components();
        let err = ws.remove_path(PathId(9)).unwrap_err();
        assert_eq!(err, CoreError::UnknownPath(PathId(9)));
        // A failing batch leaves the workspace untouched, even when a valid
        // op precedes the invalid one.
        let err = ws
            .apply([
                Mutation::Remove(PathId(0)),
                Mutation::Remove(PathId(0)), // second removal of the same id
            ])
            .unwrap_err();
        assert_eq!(err, CoreError::UnknownPath(PathId(0)));
        assert_eq!(ws.components(), before);
        assert_eq!(ws.family().len(), 4);

        // Many tombstones: 600 single-arc dipaths on an 8-arc chain with
        // 400 of them retired, so the batch's ids are picked out of a
        // large free set — of which validation reads only the smallest.
        let g = from_edges(9, &(0..8).map(|i| (i, i + 1)).collect::<Vec<_>>());
        let hop = |i: usize| path(&g, &[i % 8, i % 8 + 1]);
        let f = DipathFamily::from_paths((0..600).map(hop).collect());
        let mut ws = Workspace::new(sharded_session(), g.clone(), f).unwrap();
        ws.apply(
            (0..600u32)
                .filter(|i| i % 3 != 0)
                .map(|i| Mutation::Remove(PathId(i))),
        )
        .unwrap();
        assert_eq!(ws.family().free_slots().count(), 400);
        // Removals of family ids, additions, and the removal of an
        // addition made earlier in the same batch.
        let batch = |extra: Option<Mutation>| {
            let mut ops = vec![
                Mutation::Remove(PathId(0)),
                Mutation::Add(hop(1)),
                Mutation::Add(hop(2)),
                Mutation::Remove(PathId(1)),
                Mutation::Add(hop(3)),
                Mutation::Remove(PathId(3)),
                Mutation::Add(hop(4)),
                Mutation::Add(hop(5)),
            ];
            ops.extend(extra);
            ops
        };
        // A failing batch mutates nothing: not the family, its free set,
        // the shards, the counters, nor the cached snapshot.
        let solved = ws.solution().unwrap();
        let ids: Vec<PathId> = ws.family().ids().collect();
        let free: Vec<u32> = ws.family().free_slots().collect();
        let (components, stats) = (ws.components(), ws.stats());
        let err = ws
            .apply(batch(Some(Mutation::Remove(PathId(9999)))))
            .unwrap_err();
        assert_eq!(err, CoreError::UnknownPath(PathId(9999)));
        assert_eq!(ws.family().ids().collect::<Vec<_>>(), ids);
        assert_eq!(ws.family().free_slots().collect::<Vec<_>>(), free);
        assert_eq!(ws.components(), components);
        assert_eq!(ws.stats(), stats);
        assert!(Arc::ptr_eq(&solved, &ws.solution().unwrap()));
        // The valid batch gets exactly the ids a `PathFamily` mirror
        // predicts: smallest free slot first, freed slots reused in-batch.
        let mut mirror = ws.family().clone();
        let predicted: Vec<PathId> = batch(None)
            .into_iter()
            .filter_map(|m| match m {
                Mutation::Add(p) => Some(mirror.insert(p)),
                Mutation::Remove(id) => {
                    mirror.remove(id).unwrap();
                    None
                }
            })
            .collect();
        assert_eq!(predicted, [0, 1, 1, 2, 3].map(PathId));
        assert_eq!(ws.apply(batch(None)).unwrap(), predicted);
        assert_eq!(
            ws.family().ids().collect::<Vec<_>>(),
            mirror.ids().collect::<Vec<_>>()
        );
        assert_matches_scratch(&mut ws);
    }

    #[test]
    fn foreign_path_is_rejected() {
        let (g, f) = two_chain_instance();
        // A dipath whose arc ids exceed the workspace graph's arc count —
        // the revalidation must catch it (arc ids are dense indices, so
        // only out-of-range or non-contiguous foreign paths can fail).
        let other = from_edges(
            9,
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 7),
                (7, 8),
            ],
        );
        let foreign = path(&other, &[6, 7, 8]);
        let mut ws = Workspace::new(sharded_session(), g, f).unwrap();
        match ws.add_path(foreign) {
            Err(CoreError::InvalidPath(_)) => {}
            other => panic!("expected InvalidPath, got {other:?}"),
        }
    }

    #[test]
    fn stats_accumulate_across_mutations_and_queries() {
        let (g, f) = two_chain_instance();
        let mut ws = Workspace::new(sharded_session(), g.clone(), f).unwrap();
        let s0 = ws.stats();
        assert_eq!(s0.live_paths, 4);
        assert_eq!(s0.shard_count, 2);
        assert_eq!(s0.max_load, 2);
        assert_eq!(s0.recomputes, 0, "nothing solved yet");
        ws.solution().unwrap();
        let s1 = ws.stats();
        assert_eq!(s1.recomputes, 1);
        assert_eq!(s1.shards_resolved, 2, "first solve computes both shards");
        assert_eq!(s1.shards_reused, 0);
        // A cache hit adds nothing to the cumulative counters.
        ws.solution().unwrap();
        assert_eq!(ws.stats(), s1);
        // One mutation dirties one shard: totals grow by one reuse and one
        // re-solve, and the maintained load reflects the new path.
        ws.add_path(path(&g, &[4, 5])).unwrap();
        ws.solution().unwrap();
        let s2 = ws.stats();
        assert_eq!(s2.live_paths, 5);
        assert_eq!(s2.recomputes, 2);
        assert_eq!(s2.shards_reused, 1);
        assert_eq!(s2.shards_resolved, 3);
        assert_eq!(s2.max_load, 3, "arc 4→5 now carries load 3");
        assert_eq!(s2.max_load, ws.max_load());
    }

    #[test]
    fn arc_load_tracks_mutations() {
        let (g, f) = two_chain_instance();
        let mut ws = Workspace::new(sharded_session(), g.clone(), f).unwrap();
        // Arc ids follow from_edges order: 0→1, 1→2, 3→4, 4→5.
        assert_eq!(ws.arc_load(ArcId(0)), 1);
        assert_eq!(ws.arc_load(ArcId(1)), 2);
        let id = ws.add_path(path(&g, &[0, 1, 2])).unwrap();
        assert_eq!(ws.arc_load(ArcId(0)), 2);
        assert_eq!(ws.arc_load(ArcId(1)), 3);
        ws.remove_path(id).unwrap();
        assert_eq!(ws.arc_load(ArcId(1)), 2);
        // Out-of-range arcs report zero load rather than panicking.
        assert_eq!(ws.arc_load(ArcId(99)), 0);
    }

    #[test]
    fn stable_ids_survive_removal_and_slots_are_reused() {
        let (g, f) = two_chain_instance();
        let mut ws = Workspace::new(sharded_session(), g.clone(), f).unwrap();
        ws.remove_path(PathId(1)).unwrap();
        assert!(ws.family().contains(PathId(0)));
        assert!(!ws.family().contains(PathId(1)));
        assert!(ws.family().contains(PathId(3)));
        let id = ws.add_path(path(&g, &[0, 1])).unwrap();
        assert_eq!(id, PathId(1), "smallest tombstone reused");
        assert_matches_scratch(&mut ws);
    }

    /// The oracle's color of each live member, keyed by stable id.
    fn solution_colors(ws: &mut Workspace) -> BTreeMap<PathId, u32> {
        let sol = ws.solution().unwrap();
        ws.family()
            .dense_ids()
            .iter()
            .enumerate()
            .map(|(rank, &id)| (id, sol.assignment.color(PathId::from_index(rank)) as u32))
            .collect()
    }

    /// Apply one delta to a client-side mirror of the color table.
    fn replay(mirror: &mut BTreeMap<PathId, u32>, delta: &SolutionDelta) {
        if delta.full_resync {
            mirror.clear();
        }
        for &id in &delta.removed {
            mirror.remove(&id);
        }
        for &(id, c) in &delta.changes {
            mirror.insert(id, c);
        }
    }

    #[test]
    fn span_and_color_of_agree_with_solution() {
        let (g, f) = two_chain_instance();
        let mut ws = Workspace::new(sharded_session(), g.clone(), f).unwrap();
        let expected = solution_colors(&mut ws);
        assert_eq!(ws.span().unwrap(), ws.solution().unwrap().num_colors);
        for (&id, &c) in &expected {
            assert_eq!(ws.color_of(id).unwrap(), Some(c));
        }
        assert_eq!(ws.color_of(PathId(99)).unwrap(), None, "not live");
        ws.add_path(path(&g, &[4, 5])).unwrap();
        let expected = solution_colors(&mut ws);
        assert_eq!(ws.span().unwrap(), 3, "arc 4→5 carries load 3");
        for (&id, &c) in &expected {
            assert_eq!(ws.color_of(id).unwrap(), Some(c));
        }
    }

    #[test]
    fn delta_replay_reconstructs_the_solution_table() {
        let (g, f) = two_chain_instance();
        let mut ws = Workspace::new(sharded_session(), g.clone(), f).unwrap();
        let mut mirror = BTreeMap::new();
        let mut synced = Epoch::default();
        // Initial sync from epoch 0 delivers the whole table as changes.
        let d0 = ws.delta_since(synced).unwrap();
        assert!(!d0.full_resync);
        replay(&mut mirror, &d0);
        synced = d0.epoch;
        assert_eq!(mirror, solution_colors(&mut ws));

        // Churn: add to one chain, remove from the other, then replay.
        let added = ws.add_path(path(&g, &[4, 5])).unwrap();
        ws.remove_path(PathId(1)).unwrap();
        let d1 = ws.delta_since(synced).unwrap();
        assert!(!d1.full_resync);
        assert!(d1.epoch > synced);
        assert!(d1.removed.contains(&PathId(1)));
        replay(&mut mirror, &d1);
        synced = d1.epoch;
        assert_eq!(mirror, solution_colors(&mut ws));
        assert_eq!(d1.span, ws.span().unwrap());
        assert!(mirror.contains_key(&added));

        // Already synced: the delta is empty and the epoch stands still.
        let d2 = ws.delta_since(synced).unwrap();
        assert_eq!(d2.epoch, synced);
        assert!(d2.changes.is_empty() && d2.removed.is_empty() && !d2.full_resync);
    }

    #[test]
    fn unknown_epoch_gets_a_full_resync() {
        let (g, f) = two_chain_instance();
        let mut ws = Workspace::new(sharded_session(), g, f).unwrap();
        ws.solution().unwrap();
        // A client claiming an epoch from the future is beyond the log.
        let d = ws.delta_since(Epoch(999)).unwrap();
        assert!(d.full_resync);
        assert!(d.removed.is_empty());
        let mut mirror = BTreeMap::new();
        replay(&mut mirror, &d);
        assert_eq!(mirror, solution_colors(&mut ws));
        let s = ws.stats();
        assert_eq!(s.delta_queries, 1);
        assert_eq!(s.delta_resyncs, 1);
    }

    #[test]
    fn epoch_older_than_the_log_gets_a_full_resync() {
        let (g, f) = two_chain_instance();
        let mut ws = Workspace::new(sharded_session(), g.clone(), f).unwrap();
        let first = ws.delta_since(Epoch::default()).unwrap();
        // Push the log past DELTA_RETAIN generations.
        for _ in 0..DELTA_RETAIN + 1 {
            let id = ws.add_path(path(&g, &[0, 1])).unwrap();
            ws.span().unwrap();
            ws.remove_path(id).unwrap();
            ws.span().unwrap();
        }
        let d = ws.delta_since(first.epoch).unwrap();
        assert!(d.full_resync, "epoch fell off the retained log");
        let mut mirror = BTreeMap::new();
        replay(&mut mirror, &d);
        assert_eq!(mirror, solution_colors(&mut ws));
    }

    #[test]
    fn remove_and_readd_of_identical_path_changes_nothing() {
        let (g, f) = two_chain_instance();
        let mut ws = Workspace::new(sharded_session(), g.clone(), f).unwrap();
        let synced = ws.delta_since(Epoch::default()).unwrap().epoch;
        // Retire and re-admit the same dipath in one batch: the slot is
        // re-occupied, the shard adopts its pooled solve, and the delta
        // carries neither a change nor a removal.
        ws.apply([
            Mutation::Remove(PathId(1)),
            Mutation::Add(path(&g, &[1, 2])),
        ])
        .unwrap();
        let d = ws.delta_since(synced).unwrap();
        assert!(d.epoch > synced, "the refresh still advances the epoch");
        assert!(!d.full_resync);
        assert!(
            d.changes.is_empty(),
            "same path, same color: {:?}",
            d.changes
        );
        assert!(
            d.removed.is_empty(),
            "slot was re-occupied: {:?}",
            d.removed
        );
        assert_matches_scratch(&mut ws);
    }

    #[test]
    fn color_table_snapshots_share_pages_across_cache_hits() {
        let (g, f) = two_chain_instance();
        let mut ws = Workspace::new(sharded_session(), g.clone(), f).unwrap();
        let t1 = ws.color_table().unwrap();
        let t2 = ws.color_table().unwrap();
        assert_eq!(t1.shared_pages_with(&t2), t1.page_count());
        assert!(t1.page_count() > 0);
        // The old snapshot keeps its colors after further churn.
        ws.add_path(path(&g, &[4, 5])).unwrap();
        ws.span().unwrap();
        assert_eq!(t1.get(0), ws.color_of(PathId(0)).unwrap());
    }

    /// A client that keeps naming new dipaths must not grow a tenant's
    /// memory: both interners the workspace keeps — the family's, and the
    /// one inside its shard-extraction scratch — forget what no live
    /// dipath or extracted shard holds. On a 2,000-vertex line, ten anchor
    /// dipaths cover ten disjoint runs of 70 arcs, and 20,000 distinct
    /// sub-intervals of them are admitted and retired 20 at a time: each
    /// batch retires the previous one and admits the next, and a refresh
    /// follows, extracting an anchor plus a batch. Without the sweep the
    /// family's interner ends with all 20,010 sequences, and the
    /// extraction interner with the 2,485 distinct shard-local ones (one
    /// run's shape); both must stay within twice what is held, or 128.
    #[test]
    fn interners_stay_bounded_under_distinct_churn() {
        const RUN: usize = 70;
        const STEPS: usize = 20_000;
        const BATCH: usize = 20;
        let g = from_edges(2_000, &(0..1_999).map(|i| (i, i + 1)).collect::<Vec<_>>());
        // Arc `i` of the line is `i → i+1`.
        let interval =
            |(a, b): (usize, usize)| Dipath::from_arcs(&g, (a..b).map(ArcId::from_index).collect());
        let mut ws = Workspace::new(SolveSession::auto(), g.clone(), DipathFamily::new()).unwrap();
        let runs: Vec<usize> = (0..10).map(|r| r * (RUN + 1)).collect();
        let anchors = ws
            .apply(
                runs.iter()
                    .map(|&a| Mutation::Add(interval((a, a + RUN)).unwrap())),
            )
            .unwrap();
        let within = |lists: usize, live: usize| lists <= 2 * live.max(64);
        let intervals: Vec<(usize, usize)> = runs
            .iter()
            .flat_map(|&r| (r..r + RUN).flat_map(move |a| (a + 1..=r + RUN).map(move |b| (a, b))))
            .filter(|&(a, b)| b - a < RUN)
            .take(STEPS)
            .collect();
        assert_eq!(intervals.len(), STEPS);
        let mut live: Vec<PathId> = Vec::new();
        for batch in intervals.chunks(BATCH) {
            let retire = live.drain(..).map(Mutation::Remove);
            let admit = batch.iter().map(|&ab| Mutation::Add(interval(ab).unwrap()));
            live = ws.apply(retire.chain(admit)).unwrap();
            ws.span().unwrap();
            assert!(within(ws.stats().interned_arc_lists, ws.family().len()));
            assert!(within(ws.extract.arena_stats().lists, 2 * BATCH));
        }
        ws.apply(live.into_iter().chain(anchors).map(Mutation::Remove))
            .unwrap();
        ws.span().unwrap();
        let stats = ws.stats();
        assert_eq!(stats.live_paths, 0);
        assert_eq!(stats.intern_misses, STEPS as u64 + 10, "all distinct");
        assert!(
            within(stats.interned_arc_lists, 0),
            "family interner holds {} lists for 0 live dipaths",
            stats.interned_arc_lists
        );
        let extract = ws.extract.arena_stats().lists;
        assert!(within(extract, 0), "extraction interner holds {extract}");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "shard index diverged")]
    fn shadow_check_catches_a_corrupted_shard_index() {
        let (g, f) = two_chain_instance();
        let mut ws = Workspace::new(sharded_session(), g.clone(), f).unwrap();
        // Point member 1 (first chain, shard key 0) at the second chain's
        // shard. A mutation on the second chain leaves the entry as it is,
        // and the sweep after `apply` fires.
        ws.shard_of[1] = Some(PathId(2));
        ws.add_path(path(&g, &[4, 5])).unwrap();
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "solve tally diverged")]
    fn shadow_check_catches_a_corrupted_span_histogram() {
        let (g, f) = two_chain_instance();
        let mut ws = Workspace::new(sharded_session(), g.clone(), f).unwrap();
        ws.span().unwrap();
        // A phantom shard of span 7, then any mutation.
        ws.tally.span_hist.resize(8, 0);
        ws.tally.span_hist[7] = 1;
        ws.add_path(path(&g, &[4, 5])).unwrap();
    }
}
