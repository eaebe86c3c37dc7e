//! Theorem 1 — the constructive `w = π` wavelength assignment.
//!
//! **Theorem 1 (paper).** If `G` is a DAG without internal cycle then for
//! every family of dipaths `P`, `w(G, P) = π(G, P)`.
//!
//! The proof is an induction on arcs: remove an arc `(x0, y0)` whose tail is
//! a source, shrink the dipaths through it, color the smaller instance, then
//! re-extend — after recoloring so that the shrunk dipaths all carry distinct
//! colors. The recoloring is an alternating cascade (paper Figure 4) which is
//! precisely a Kempe-chain component swap on the conflict graph; it can only
//! fail by reaching the protected dipath, which the proof shows forces an
//! internal cycle. The replay runs the swap; `tests/kernel_oracles.rs` keeps
//! the literal cascade as a reference and checks that both agree, and a unit
//! test checks it by brute force on a small fan.
//!
//! This module implements the induction iteratively:
//!
//! 1. **Peel** ([`peel`]): repeatedly delete an arc out of a current source,
//!    logging for each deletion the dipaths whose front arc it was (the
//!    source condition guarantees dipaths are consumed strictly front-first).
//!    Each dipath waits in the bucket of its current front arc, an intrusive
//!    FIFO list with one link per dipath, and the log is one flat array of
//!    steps ([`PeelLog`]); the largest step is `π(G, P)`. Buckets must stay
//!    FIFO: the replay's duplicate detection reads each step in bucket
//!    order, so that order decides the coloring.
//! 2. **Replay** ([`color_optimal`]): process the log in reverse.
//!    Adding arc `e` back extends the logged dipaths at the front; before
//!    extension, Kempe swaps make their colors pairwise distinct; dipaths
//!    born as the single arc `e` take fresh palette colors. The palette has
//!    exactly `π(G, P)` colors and never runs out (the proof's counting
//!    argument), so the final assignment uses at most — hence exactly —
//!    `π` wavelengths whenever any arc is loaded.
//!
//! The replay builds no conflict graph. A Kempe search reads a live
//! dipath's neighbours from the log: its live arcs, those peeled after the
//! step being replayed (a suffix of its arc list, since the peel consumes
//! it front-first), then the affected lists of the steps among them where
//! the listed dipaths part ways (some end there, or they do not all go on
//! to one next arc); at any other step every listed dipath is listed again
//! at the next arc. A dipath's first visit finds its parting arcs; each
//! visit then costs the loads of its parting live arcs, and a neighbour is
//! read once per parting arc it shares. A conflict graph would list each
//! neighbour once, but costs Σ_a load(a)² entries to build. The solve
//! holds O(m + Σ|p|) memory and takes O(n + m + Σ|p|) time plus the Kempe
//! searches.

use crate::assignment::WavelengthAssignment;
use crate::error::CoreError;
use dagwave_graph::{topo, ArcId, BitSet, Digraph, VertexId};
use dagwave_paths::{load, DipathFamily, PathId};

/// One peel step, borrowed from a [`PeelLog`]: the removed arc and the
/// dipaths whose front arc it was.
#[derive(Clone, Copy, Debug)]
pub struct PeelStep<'a> {
    /// The removed arc (its tail was a source at removal time).
    pub arc: ArcId,
    /// Dipaths that contained the arc; at removal time it was their front
    /// arc. `was_last` marks dipaths for which it was also their final
    /// remaining arc (they vanish — the paper's "`Q` reduced to `(x0,y0)`").
    /// In the order the dipaths reached the arc's bucket (see [`PeelLog`]).
    pub affected: &'a [(PathId, bool)],
}

/// The full peel log, stored flat: step `i` removed `arcs[i]` and affected
/// `affected[offsets[i]..offsets[i + 1]]`, so the whole log is three
/// allocations however many arcs and dipaths it records.
///
/// Each step lists its dipaths in FIFO order: the order in which they
/// reached the arc's bucket, which is the order their previous front arcs
/// were peeled (family order for first arcs). The replay's duplicate
/// detection scans a step in this order and keeps the first dipath of each
/// color, so the order decides which dipath a Kempe swap flips — and with
/// it the coloring, the swap count and any obstruction chain.
#[derive(Clone, Debug)]
pub struct PeelLog {
    arcs: Vec<ArcId>,
    offsets: Vec<usize>,
    affected: Vec<(PathId, bool)>,
    /// Whether step `i`'s dipaths part ways: some end there, or they do not
    /// all go on to one next arc. At a step that does not part, every
    /// dipath listed is listed again at the step of their common next arc.
    parts: Vec<bool>,
    /// The largest step: every dipath through an arc is affected at its
    /// step, so this is `π(G, P)`.
    load: usize,
}

impl PeelLog {
    /// Number of steps (the arc count of the peeled DAG).
    pub fn len(&self) -> usize {
        self.arcs.len()
    }

    /// `true` when the peeled graph has no arc.
    pub fn is_empty(&self) -> bool {
        self.arcs.is_empty()
    }

    /// Steps in removal order (replay walks them in reverse).
    pub fn steps(&self) -> impl DoubleEndedIterator<Item = PeelStep<'_>> + ExactSizeIterator {
        self.arcs.iter().enumerate().map(|(t, &arc)| PeelStep {
            arc,
            affected: self.affected(t),
        })
    }

    /// Step `t`'s affected list.
    fn affected(&self, t: usize) -> &[(PathId, bool)] {
        &self.affected[self.offsets[t]..self.offsets[t + 1]]
    }
}

/// End of an intrusive list.
const NIL: u32 = u32::MAX;

/// Per-arc FIFO lists of dipaths: the bucket of arc `a` holds the dipaths
/// whose current front arc is `a`, from `head[a]` to `tail[a]`, linked
/// through `next[p]`. A dipath sits in exactly one bucket at a time, so one
/// link per dipath suffices.
struct Buckets {
    head: Vec<u32>,
    tail: Vec<u32>,
    next: Vec<u32>,
}

impl Buckets {
    fn new(arcs: usize, paths: usize) -> Self {
        Buckets {
            head: vec![NIL; arcs],
            tail: vec![NIL; arcs],
            next: vec![NIL; paths],
        }
    }

    /// Append dipath `id` to the back of `a`'s bucket.
    fn push(&mut self, a: ArcId, id: u32) {
        self.next[id as usize] = NIL;
        match self.head[a.index()] {
            NIL => self.head[a.index()] = id,
            _ => self.next[self.tail[a.index()] as usize] = id,
        }
        self.tail[a.index()] = id;
    }

    /// Empty `a`'s bucket, returning its first dipath (walk on through
    /// `next`; read each link before pushing that dipath elsewhere).
    fn take(&mut self, a: ArcId) -> u32 {
        std::mem::replace(&mut self.head[a.index()], NIL)
    }
}

/// Peel all arcs of `g`, front-consuming `family` (paper's induction order).
/// Sources are taken FIFO (Kahn-style breadth-first), and each source gives
/// up its out-arcs in adjacency order.
///
/// Requires a DAG; errors with the directed-cycle witness otherwise.
pub fn peel(g: &Digraph, family: &DipathFamily) -> Result<PeelLog, CoreError> {
    let m = g.arc_count();
    let adjacency = g.adjacency();

    let mut indeg: Vec<usize> = g.vertices().map(|v| adjacency.indegree(v)).collect();
    let mut removed = vec![false; m];
    let mut out_cursor = vec![0usize; g.vertex_count()]; // next out-arc to try per vertex

    // front_of[p]: index into the dipath's arc list of its current front.
    let mut front_of: Vec<usize> = vec![0; family.len()];
    let mut buckets = Buckets::new(m, family.len());
    for (id, p) in family.iter() {
        buckets.push(p.first_arc(), id.0);
    }

    // Ready pool: sources with remaining out-arcs.
    let mut ready: std::collections::VecDeque<VertexId> = g
        .vertices()
        .filter(|&v| indeg[v.index()] == 0 && adjacency.outdegree(v) > 0)
        .collect();
    let mut log = PeelLog {
        arcs: Vec::with_capacity(m),
        offsets: Vec::with_capacity(m + 1),
        affected: Vec::with_capacity(family.total_arcs()),
        parts: Vec::with_capacity(m),
        load: 0,
    };
    log.offsets.push(0);

    while let Some(&x0) = ready.front() {
        // Take one remaining out-arc of x0.
        let arc = loop {
            let outs = adjacency.out_arcs(x0);
            let cur = out_cursor[x0.index()];
            if cur >= outs.len() {
                break None;
            }
            let a = outs[cur];
            out_cursor[x0.index()] += 1;
            if !removed[a.index()] {
                break Some(a);
            }
        };
        let Some(arc) = arc else {
            // x0 exhausted: drop it from the pool.
            ready.pop_front();
            continue;
        };
        removed[arc.index()] = true;
        let y0 = g.head(arc);
        indeg[y0.index()] -= 1;
        if indeg[y0.index()] == 0 && adjacency.out_arcs(y0).iter().any(|&a| !removed[a.index()]) {
            ready.push_back(y0);
        }

        // Advance the dipaths whose front is `arc`, in bucket order.
        let mut cur = buckets.take(arc);
        let (mut ahead, mut parts) = (None, false);
        while cur != NIL {
            let id = cur;
            cur = buckets.next[id as usize];
            let path = family.path(PathId(id));
            let front = &mut front_of[id as usize];
            *front += 1;
            let was_last = *front == path.len();
            if was_last {
                parts = true;
            } else {
                let next = path.arcs()[*front];
                parts |= ahead.is_some_and(|a| a != next);
                ahead = Some(next);
                buckets.push(next, id);
            }
            log.affected.push((PathId(id), was_last));
        }
        let step_len = log.affected.len() - log.offsets[log.arcs.len()];
        log.load = log.load.max(step_len);
        log.arcs.push(arc);
        log.offsets.push(log.affected.len());
        log.parts.push(parts);
    }

    if log.len() < m {
        // Arcs on a directed cycle never get a source tail.
        let cycle = topo::find_directed_cycle(g);
        debug_assert!(cycle.is_some(), "a DAG peels completely");
        if let Some(c) = cycle {
            return Err(CoreError::NotADag(c));
        }
    }
    debug_assert!(front_of
        .iter()
        .enumerate()
        .all(|(i, &f)| f == family.path(PathId::from_index(i)).len()));
    Ok(log)
}

/// Outcome of the Theorem-1 coloring, including the quantities the theorem
/// equates.
#[derive(Clone, Debug)]
pub struct Theorem1Result {
    /// The wavelength assignment (uses colors `0..load`).
    pub assignment: WavelengthAssignment,
    /// `π(G, P)` — also the number of wavelengths used when non-zero.
    pub load: usize,
    /// Number of Kempe swaps performed during the replay.
    pub kempe_swaps: usize,
}

/// Color `family` on `g` with exactly `π(G, P)` wavelengths (Theorem 1):
/// [`peel`], then replay the log, making colors distinct with Kempe
/// component swaps.
pub fn color_optimal(g: &Digraph, family: &DipathFamily) -> Result<Theorem1Result, CoreError> {
    let log = peel(g, family)?;
    replay(g, family, &log)
}

const UNCOLORED: usize = usize::MAX;

/// The replay phase: rebuild the graph arc by arc (reverse peel order),
/// keeping an always-valid partial coloring. The Kempe searches read
/// conflicts from the log ([`Live`]).
fn replay(g: &Digraph, family: &DipathFamily, log: &PeelLog) -> Result<Theorem1Result, CoreError> {
    let pi = log.load;
    debug_assert_eq!(pi, load::max_load(g, family));
    let np = family.len();
    let mut colors = vec![UNCOLORED; np];
    let mut step_of = vec![0u32; g.arc_count()];
    for (t, &a) in log.arcs.iter().enumerate() {
        step_of[a.index()] = t as u32;
    }
    let mut walks = None;
    let mut kempe_swaps = 0usize;

    // Scratch reused by every step: the palette bitset, P0, the first P0
    // member seen per color, and the Kempe searches' marks.
    let mut used = BitSet::new(pi.max(1));
    let mut p0: Vec<PathId> = Vec::with_capacity(pi);
    let mut keeper_of: Vec<Option<PathId>> = vec![None; pi.max(1)];
    let mut scratch = KempeScratch::new(np);

    for (now, step) in log.steps().enumerate().rev() {
        if step.affected.is_empty() {
            continue;
        }
        // P0 = already-live dipaths being extended; newborns take fresh colors.
        p0.clear();
        p0.extend(
            step.affected
                .iter()
                .filter(|&&(_, was_last)| !was_last)
                .map(|&(id, _)| id),
        );

        // Make P0's colors pairwise distinct via Kempe swaps.
        loop {
            used.clear();
            let mut dup: Option<(PathId, PathId)> = None; // (keeper, to-flip)
            for &p in &p0 {
                let c = colors[p.index()];
                debug_assert_ne!(c, UNCOLORED, "live dipath must be colored");
                if let Some(k) = keeper_of[c] {
                    // Record the first duplicate but keep scanning: β must
                    // avoid the colors of *every* P0 member.
                    dup.get_or_insert((k, p));
                } else {
                    keeper_of[c] = Some(p);
                }
                used.insert(c);
            }
            for &p in &p0 {
                keeper_of[colors[p.index()]] = None;
            }
            let Some((keeper, flip)) = dup else { break };
            // β: a palette color unused by P0. Exists because P0 shows at
            // most |P0| − 1 < π distinct colors (the duplication).
            let beta = used.first_absent().expect("palette has a free color"); // lint: allow(no-panic): P0 shows at most π − 1 distinct colors, so one is absent
            let alpha = colors[flip.index()];
            let live = Live {
                family,
                log,
                step_of: &step_of,
                walks: walks.get_or_insert_with(|| Walks::new(family)),
                live_from: log.offsets[now + 1],
            };
            match scratch.component_swap(live, &mut colors, flip, alpha, beta, keeper) {
                Ok(()) => kempe_swaps += 1,
                Err(chain) => return Err(CoreError::InternalCycleObstruction { chain }),
            }
        }

        // Extend: every affected dipath now (re)contains `step.arc`, so the
        // newborns take colors no P0 member shows.
        used.clear();
        for &p in &p0 {
            used.insert(colors[p.index()]);
        }
        for &(id, was_last) in step.affected {
            if was_last {
                let c = used.first_absent().expect("π bounds the arc's clique"); // lint: allow(no-panic): π bounds the clique at this arc, so a color is free
                used.insert(c);
                colors[id.index()] = c;
            }
        }
    }

    debug_assert!(colors.iter().all(|&c| c != UNCOLORED || family.is_empty()));
    let assignment = WavelengthAssignment::new(colors);
    debug_assert!(assignment.is_valid(g, family));
    Ok(Theorem1Result {
        assignment,
        load: pi,
        kempe_swaps,
    })
}

/// The conflict graph of the live instance while step `now` is replayed,
/// read from the log. Dipaths conflict when they share an arc peeled after
/// `now`, and every dipath through such an arc is in that step's affected
/// list. A dipath is consumed front-first, so its arcs peeled after `now`
/// are a suffix of its arc list: [`Live::neighbors`] reads its parting
/// arcs from the back and stops at the first one peeled at or before
/// `now`.
struct Live<'a> {
    family: &'a DipathFamily,
    log: &'a PeelLog,
    /// The step each arc was peeled at.
    step_of: &'a [u32],
    walks: &'a mut Walks,
    /// Where the steps after `now` start in the log's affected array.
    live_from: usize,
}

impl Live<'_> {
    /// The live neighbours of `p`, once per shared live arc whose step
    /// parts: a walk from the back has met every dipath of any other step
    /// at the next arc. The first occurrences come in the order the replay
    /// announced the conflicts: latest step first, and within a step in
    /// the step's list order.
    fn neighbors(&mut self, p: PathId) -> impl Iterator<Item = PathId> + '_ {
        let (log, live_from) = (self.log, self.live_from);
        let slots = &mut self.walks.lists[self.walks.off[p.index()]..self.walks.off[p.index() + 1]];
        if slots.first().is_some_and(|&(start, _)| start == UNSEEN) {
            let parting = self.family.path(p).arcs().iter().rev().filter_map(|a| {
                let t = self.step_of[a.index()] as usize;
                log.parts[t].then(|| (log.offsets[t], log.offsets[t + 1]))
            });
            // An empty range ends a list shorter than the dipath: it starts
            // before any live step's list.
            for (slot, list) in slots.iter_mut().zip(parting.chain([(0, 0)])) {
                *slot = list;
            }
        }
        slots
            .iter()
            .take_while(move |&&(start, _)| start >= live_from)
            .flat_map(move |&(start, end)| &log.affected[start..end])
            .filter_map(move |&(q, _)| (q != p).then_some(q))
    }
}

/// An unvisited dipath's first slot in [`Walks`].
const UNSEEN: usize = usize::MAX;

/// The affected lists the Kempe searches read along each dipath, filled in
/// on its first visit: `lists[off[p]..off[p + 1]]` holds the log ranges of
/// dipath `p`'s parting steps, latest first, so a walk from the back reads
/// them in order without touching the dipath's arcs again.
struct Walks {
    off: Vec<usize>,
    lists: Vec<(usize, usize)>,
}

impl Walks {
    fn new(family: &DipathFamily) -> Self {
        let mut off = vec![0];
        off.extend(family.iter().scan(0, |end, (_, p)| {
            *end += p.len();
            Some(*end)
        }));
        let lists = vec![(UNSEEN, 0); off[family.len()]];
        Walks { off, lists }
    }
}

/// The Kempe searches' working set, sized once per replay. `mark[p] ==
/// stamp` means `p` was reached by the current swap (with `parent[p]` its
/// discoverer, [`NIL`] for the start), so starting a swap is one stamp
/// bump instead of clearing |P|-sized vectors.
struct KempeScratch {
    mark: Vec<u32>,
    stamp: u32,
    parent: Vec<u32>,
    /// Every dipath reached, in discovery order: the component to flip.
    reached: Vec<PathId>,
    /// The search's stack.
    frontier: Vec<PathId>,
}

impl KempeScratch {
    fn new(np: usize) -> Self {
        KempeScratch {
            mark: vec![0; np],
            stamp: 0,
            parent: vec![NIL; np],
            reached: Vec::new(),
            frontier: Vec::new(),
        }
    }

    /// Start a new swap from `start`.
    fn begin(&mut self, start: PathId) {
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.mark.fill(0);
            self.stamp = 1;
        }
        self.reached.clear();
        self.frontier.clear();
        self.reach(start, NIL);
    }

    fn reached(&self, p: PathId) -> bool {
        self.mark[p.index()] == self.stamp
    }

    fn reach(&mut self, p: PathId, parent: u32) {
        self.mark[p.index()] = self.stamp;
        self.parent[p.index()] = parent;
        self.reached.push(p);
    }

    /// The discovery chain `start → … → p → protected`.
    fn chain(&self, p: PathId, protected: PathId) -> Vec<PathId> {
        let mut chain = vec![protected, p];
        let mut cur = p;
        while self.parent[cur.index()] != NIL {
            cur = PathId(self.parent[cur.index()]);
            chain.push(cur);
        }
        chain.reverse();
        chain
    }

    /// Flip α↔β on the conflict component of `start`, refusing to touch
    /// `protected`. `Err` carries the discovery chain from `start` towards
    /// `protected` — the paper's Figure 4 sequence `P1, …, Pp = P0`.
    fn component_swap(
        &mut self,
        mut live: Live<'_>,
        colors: &mut [usize],
        start: PathId,
        alpha: usize,
        beta: usize,
        protected: PathId,
    ) -> Result<(), Vec<PathId>> {
        self.begin(start);
        self.frontier.push(start);
        while let Some(p) = self.frontier.pop() {
            for q in live.neighbors(p) {
                if self.reached(q) {
                    continue;
                }
                let c = colors[q.index()];
                if c != alpha && c != beta {
                    continue;
                }
                if q == protected {
                    return Err(self.chain(p, q));
                }
                self.reach(q, p.0);
                self.frontier.push(q);
            }
        }
        for &p in &self.reached {
            let c = &mut colors[p.index()];
            *c = if *c == alpha { beta } else { alpha };
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagwave_graph::builder::from_edges;
    use dagwave_paths::Dipath;

    fn v(i: usize) -> VertexId {
        VertexId::from_index(i)
    }

    fn path(g: &Digraph, route: &[usize]) -> Dipath {
        let route: Vec<VertexId> = route.iter().map(|&i| v(i)).collect();
        Dipath::from_vertices(g, &route).unwrap()
    }

    /// Chain instance: w = π = 2.
    fn chain_instance() -> (Digraph, DipathFamily) {
        let g = from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let f = DipathFamily::from_paths(vec![
            path(&g, &[0, 1, 2]),
            path(&g, &[1, 2, 3]),
            path(&g, &[2, 3, 4]),
        ]);
        (g, f)
    }

    #[test]
    fn peel_consumes_every_arc() {
        let (g, f) = chain_instance();
        let log = peel(&g, &f).unwrap();
        assert_eq!(log.len(), g.arc_count());
        let mut seen = std::collections::HashSet::new();
        for s in log.steps() {
            assert!(seen.insert(s.arc), "arc peeled twice");
        }
    }

    #[test]
    fn peel_affects_paths_front_first() {
        let (g, f) = chain_instance();
        let log = peel(&g, &f).unwrap();
        // Track fronts: a path must be affected exactly len times, in
        // increasing arc positions.
        let mut hits: Vec<Vec<ArcId>> = vec![Vec::new(); f.len()];
        for s in log.steps() {
            for &(id, _) in s.affected {
                hits[id.index()].push(s.arc);
            }
        }
        for (i, h) in hits.iter().enumerate() {
            let p = f.path(PathId::from_index(i));
            assert_eq!(h, p.arcs(), "path consumed front-first in arc order");
        }
    }

    #[test]
    fn peel_rejects_cyclic() {
        let g = from_edges(2, &[(0, 1), (1, 0)]);
        let f = DipathFamily::new();
        assert!(matches!(peel(&g, &f), Err(CoreError::NotADag(_))));
    }

    #[test]
    fn chain_colored_with_exactly_pi() {
        let (g, f) = chain_instance();
        let res = color_optimal(&g, &f).unwrap();
        assert_eq!(res.load, 2);
        assert!(res.assignment.is_valid(&g, &f));
        assert_eq!(res.assignment.num_colors(), 2, "w == π");
    }

    #[test]
    fn rooted_tree_all_to_all_is_optimal() {
        // Out-tree: root 0, dipaths from root to every leaf plus subtree
        // paths — the paper's rooted-tree special case.
        let g = from_edges(7, &[(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)]);
        let f = DipathFamily::from_paths(vec![
            path(&g, &[0, 1, 3]),
            path(&g, &[0, 1, 4]),
            path(&g, &[0, 2, 5]),
            path(&g, &[0, 2, 6]),
            path(&g, &[1, 3]),
            path(&g, &[2, 6]),
            path(&g, &[0, 1]),
        ]);
        let pi = load::max_load(&g, &f);
        let res = color_optimal(&g, &f).unwrap();
        assert!(res.assignment.is_valid(&g, &f));
        assert_eq!(res.assignment.num_colors(), pi);
        assert_eq!(res.load, pi);
    }

    #[test]
    fn empty_family() {
        let g = from_edges(3, &[(0, 1), (1, 2)]);
        let f = DipathFamily::new();
        let res = color_optimal(&g, &f).unwrap();
        assert_eq!(res.load, 0);
        assert_eq!(res.assignment.num_colors(), 0);
        assert!(res.assignment.is_valid(&g, &f));
    }

    #[test]
    fn single_dipath() {
        let g = from_edges(3, &[(0, 1), (1, 2)]);
        let f = DipathFamily::from_paths(vec![path(&g, &[0, 1, 2])]);
        let res = color_optimal(&g, &f).unwrap();
        assert_eq!(res.load, 1);
        assert_eq!(res.assignment.num_colors(), 1);
    }

    #[test]
    fn identical_replicated_dipaths_need_pi_colors() {
        let g = from_edges(3, &[(0, 1), (1, 2)]);
        let f = DipathFamily::from_paths(vec![path(&g, &[0, 1, 2])]).replicate(5);
        let res = color_optimal(&g, &f).unwrap();
        assert_eq!(res.load, 5);
        assert_eq!(res.assignment.num_colors(), 5);
        assert!(res.assignment.is_valid(&g, &f));
    }

    #[test]
    fn fan_dag_forces_recoloring() {
        // Two levels of sharing that force the replay to actually recolor:
        // dipaths overlap pairwise on different arcs with load 2 everywhere,
        // while a greedy front-assignment would clash.
        let g = from_edges(7, &[(0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 6), (5, 6)]);
        // Not internal-cycle-free? 4,5 produce a diamond 3→4→6, 3→5→6 whose
        // vertices: 3 (pred 2 ✓), 4, 5, 6 — 6 is a sink ⇒ not internal. OK.
        assert!(crate::internal::is_internal_cycle_free(&g));
        let f = DipathFamily::from_paths(vec![
            path(&g, &[0, 2, 3, 4]),
            path(&g, &[1, 2, 3, 5]),
            path(&g, &[3, 4, 6]),
            path(&g, &[3, 5, 6]),
        ]);
        let pi = load::max_load(&g, &f);
        assert_eq!(pi, 2);
        let res = color_optimal(&g, &f).unwrap();
        assert!(res.assignment.is_valid(&g, &f));
        assert_eq!(res.assignment.num_colors(), 2);
    }

    /// The paper's literal replay on a small family: the same peel log, but
    /// conflicts are read by brute force from the arcs added back so far,
    /// and duplicate colors are resolved by the alternating cascade of
    /// Figure 4 instead of a component swap. Returns the colors and the
    /// number of cascades.
    fn cascade_replay(g: &Digraph, family: &DipathFamily) -> (Vec<usize>, usize) {
        let log = peel(g, family).unwrap();
        let mut added = vec![false; g.arc_count()];
        let mut colors = vec![UNCOLORED; family.len()];
        let mut cascades = 0;
        for step in log.steps().rev() {
            let conflict = |p: PathId, q: PathId| {
                p != q
                    && family
                        .path(p)
                        .arcs()
                        .iter()
                        .any(|&a| added[a.index()] && family.path(q).contains_arc(a))
            };
            let p0: Vec<PathId> = step
                .affected
                .iter()
                .filter(|&&(_, was_last)| !was_last)
                .map(|&(p, _)| p)
                .collect();
            // The first P0 member whose color an earlier one holds flips;
            // the earliest holder is protected.
            while let Some((keeper, start)) = p0.iter().enumerate().find_map(|(i, &q)| {
                let c = colors[q.index()];
                p0[..i]
                    .iter()
                    .find(|k| colors[k.index()] == c)
                    .map(|&k| (k, q))
            }) {
                let alpha = colors[start.index()];
                let beta = (0..)
                    .find(|&c| p0.iter().all(|p| colors[p.index()] != c))
                    .unwrap();
                let flip = |c: usize| if c == alpha { beta } else { alpha };
                let mut flipped = vec![start];
                let mut wave = vec![start];
                colors[start.index()] = beta;
                while !wave.is_empty() {
                    let mut next = Vec::new();
                    for p in wave {
                        for q in family.ids() {
                            if colors[q.index()] != colors[p.index()] || !conflict(p, q) {
                                continue;
                            }
                            assert_ne!(q, keeper, "case C: the cascade reached P0");
                            assert!(!flipped.contains(&q), "case B: dipath reflipped");
                            colors[q.index()] = flip(colors[q.index()]);
                            flipped.push(q);
                            next.push(q);
                        }
                    }
                    wave = next;
                }
                cascades += 1;
            }
            added[step.arc.index()] = true;
            for &(p, was_last) in step.affected {
                if was_last {
                    colors[p.index()] = (0..)
                        .find(|&c| step.affected.iter().all(|&(q, _)| colors[q.index()] != c))
                        .unwrap();
                }
            }
        }
        (colors, cascades)
    }

    #[test]
    fn cascade_matches_component_swap_counts() {
        let g = from_edges(7, &[(0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 6), (5, 6)]);
        let f = DipathFamily::from_paths(vec![
            path(&g, &[0, 2, 3, 4]),
            path(&g, &[1, 2, 3, 5]),
            path(&g, &[3, 4, 6]),
            path(&g, &[3, 5, 6]),
        ]);
        let swapped = color_optimal(&g, &f).unwrap();
        let (colors, cascades) = cascade_replay(&g, &f);
        assert_eq!(swapped.assignment.colors(), &colors[..]);
        assert_eq!(swapped.kempe_swaps, cascades);
        assert!(swapped.kempe_swaps > 0, "the fan forces a recoloring");
        assert!(swapped.assignment.is_valid(&g, &f));
    }

    #[test]
    fn parallel_arcs_are_independent_channels() {
        // Two parallel fibers 0→1: two dipaths, one per fiber — no conflict,
        // π = 1, one wavelength suffices.
        let mut g = from_edges(2, &[(0, 1)]);
        let second = g.add_arc(v(0), v(1));
        let f = DipathFamily::from_paths(vec![
            Dipath::single(g.find_arc(v(0), v(1)).unwrap()),
            Dipath::single(second),
        ]);
        let res = color_optimal(&g, &f).unwrap();
        assert_eq!(res.load, 1);
        assert_eq!(res.assignment.num_colors(), 1);
        assert!(res.assignment.is_valid(&g, &f));
    }
}
