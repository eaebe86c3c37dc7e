//! Oracles for the allocation-light kernels every solve crosses: the
//! certification checks of [`WavelengthAssignment`], dipath validation,
//! the workspace's incremental component re-derivation, Theorem 1's
//! replay, which reads conflicts from its peel log, and the facts a
//! context proves about its graph. Each kernel is
//! compared, on seeded random inputs, with the plain implementation it must
//! agree with, and each loop checks that its inputs reached every outcome
//! it is meant to cover.

use dagwave_core::theorem1::{self, PeelLog};
use dagwave_core::{
    internal, witness, CoreError, InstanceContext, Mutation, SolveRequest, SolveSession,
    WavelengthAssignment, Workspace,
};
use dagwave_gen::{compose, figures, havet, random};
use dagwave_graph::builder::from_edges;
use dagwave_graph::{pathcount, topo, undirected, ArcId, BitSet, Digraph, GraphError, VertexId};
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

/// What a Theorem 1 replay yields: the colors and the Kempe swap count, or
/// the chain that blocked it.
type Replayed = Result<(Vec<usize>, usize), Vec<PathId>>;

const UNCOLORED: usize = usize::MAX;

/// How the reference replay makes two colors distinct.
#[derive(Clone, Copy, Debug)]
enum Kempe {
    /// Flip the connected α/β component of the dipath in one pass, as the
    /// library does.
    ComponentSwap,
    /// The paper's literal cascade: recolor `P1`, then everything of the
    /// other color it now clashes with, and so on (Figure 4).
    Cascade,
}

/// Theorem 1's replay over a materialised conflict adjacency, grown by one
/// clique per replayed arc: the reference the library's log-read replay
/// must match color for color, swap for swap and, with the component swap,
/// chain for chain. It holds Σ_a load(a)² adjacency entries, so it only
/// runs on small inputs.
fn adjacency_replay(family: &DipathFamily, log: &PeelLog, kempe: Kempe) -> Replayed {
    let pi = log.steps().map(|s| s.affected.len()).max().unwrap_or(0);
    let np = family.len();
    let mut colors = vec![UNCOLORED; np];

    // Dynamic conflict adjacency: grows by one clique per replayed arc
    // (before a step, no live dipath contains the step's arc, so all new
    // conflicts are within the step's affected set).
    let mut adj = Adjacency::new(log, np);
    let mut kempe_swaps = 0usize;

    // Scratch reused by every step: the palette bitset, P0, the first P0
    // member seen per color, the neighbour stamps of the clique wiring, and
    // the Kempe searches' marks.
    let mut used = BitSet::new(pi.max(1));
    let mut p0: Vec<PathId> = Vec::with_capacity(pi);
    let mut keeper_of: Vec<Option<PathId>> = vec![None; pi.max(1)];
    let mut wired = vec![NIL; np];
    let mut scratch = KempeScratch::new(np);

    for step in log.steps().rev() {
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
            let beta = used.first_absent().expect("palette has a free color");
            let alpha = colors[flip.index()];
            let swapped = match kempe {
                Kempe::ComponentSwap => {
                    scratch.component_swap(&adj, &mut colors, flip, alpha, beta, keeper)
                }
                Kempe::Cascade => scratch.cascade(&adj, &mut colors, flip, alpha, beta, keeper),
            };
            match swapped {
                Ok(()) => kempe_swaps += 1,
                Err(chain) => return Err(chain),
            }
        }

        // Extend: every affected dipath now (re)contains `step.arc`; they are
        // pairwise in conflict, so wire the clique and color the newborns.
        used.clear();
        for &p in &p0 {
            used.insert(colors[p.index()]);
        }
        for &(id, was_last) in step.affected {
            if was_last {
                let c = used.first_absent().expect("π bounds the arc's clique");
                used.insert(c);
                colors[id.index()] = c;
            }
        }
        for (i, &(p, _)) in step.affected.iter().enumerate() {
            let later = &step.affected[i + 1..];
            if later.is_empty() {
                break;
            }
            // Parallel growth can re-announce a pair: stamp p's neighbours
            // and wire only the new ones.
            for &q in adj.neighbors(p) {
                wired[q as usize] = p.0;
            }
            for &(q, _) in later {
                if wired[q.index()] != p.0 {
                    adj.push(p, q);
                    adj.push(q, p);
                }
            }
        }
    }

    debug_assert!(colors.iter().all(|&c| c != UNCOLORED || family.is_empty()));
    Ok((colors, kempe_swaps))
}

/// End of an intrusive list.
const NIL: u32 = u32::MAX;

/// The replay's conflict adjacency, grown one clique per step in flat
/// storage: dipath `p`'s neighbours are `data[start[p]..start[p] +
/// len[p]]`, in wiring order. Each dipath's room is the number of times its
/// pairs get announced — once per shared arc, `|step| − 1` per step it is
/// in — which bounds its degree, so wiring never reallocates.
struct Adjacency {
    start: Vec<usize>,
    len: Vec<u32>,
    data: Vec<u32>,
}

impl Adjacency {
    fn new(log: &PeelLog, np: usize) -> Self {
        let mut start = vec![0usize; np + 1];
        for step in log.steps() {
            for &(p, _) in step.affected {
                start[p.index() + 1] += step.affected.len() - 1;
            }
        }
        for i in 0..np {
            start[i + 1] += start[i];
        }
        Adjacency {
            data: vec![0; start[np]],
            start,
            len: vec![0; np],
        }
    }

    fn neighbors(&self, p: PathId) -> &[u32] {
        let from = self.start[p.index()];
        &self.data[from..from + self.len[p.index()] as usize]
    }

    fn push(&mut self, p: PathId, q: PathId) {
        let len = &mut self.len[p.index()];
        self.data[self.start[p.index()] + *len as usize] = q.0;
        *len += 1;
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
    /// Every dipath reached, in discovery order: the component to flip, or
    /// the dipaths to flip back when a cascade fails.
    reached: Vec<PathId>,
    /// The search frontier: the component swap's stack, the cascade's
    /// current wave.
    frontier: Vec<PathId>,
    /// The cascade's next wave.
    next_wave: Vec<PathId>,
}

impl KempeScratch {
    fn new(np: usize) -> Self {
        KempeScratch {
            mark: vec![0; np],
            stamp: 0,
            parent: vec![NIL; np],
            reached: Vec::new(),
            frontier: Vec::new(),
            next_wave: Vec::new(),
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
        adj: &Adjacency,
        colors: &mut [usize],
        start: PathId,
        alpha: usize,
        beta: usize,
        protected: PathId,
    ) -> Result<(), Vec<PathId>> {
        self.begin(start);
        self.frontier.push(start);
        while let Some(p) = self.frontier.pop() {
            for &qn in adj.neighbors(p) {
                let q = PathId(qn);
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

    /// The paper's literal cascade: flip `start` to β; then the family `P2`
    /// of β-colored dipaths clashing with it flips to α; then the α-colored
    /// dipaths clashing with `P2` flip to β; and so on until no clash
    /// remains (case A) or `protected` must flip (case C). Case B
    /// (re-flipping) cannot occur — asserted.
    fn cascade(
        &mut self,
        adj: &Adjacency,
        colors: &mut [usize],
        start: PathId,
        alpha: usize,
        beta: usize,
        protected: PathId,
    ) -> Result<(), Vec<PathId>> {
        let flip = |c: &mut usize| *c = if *c == alpha { beta } else { alpha };
        self.begin(start);
        flip(&mut colors[start.index()]);
        self.frontier.push(start);
        // The wave alternates: after flipping to γ′, clashes are with old-γ′.
        loop {
            self.next_wave.clear();
            for i in 0..self.frontier.len() {
                let p = self.frontier[i];
                let pc = colors[p.index()];
                for &qn in adj.neighbors(p) {
                    let q = PathId(qn);
                    if colors[q.index()] != pc {
                        continue; // no clash
                    }
                    if q == protected {
                        let chain = self.chain(p, q);
                        // Restore: the cascade failed (case C). Every
                        // flipped dipath went α↔β exactly once.
                        for &r in &self.reached {
                            flip(&mut colors[r.index()]);
                        }
                        return Err(chain);
                    }
                    // Case B impossible: a dipath never flips twice.
                    assert!(!self.reached(q), "case B: dipath reflipped");
                    self.reach(q, p.0);
                    flip(&mut colors[q.index()]);
                    self.next_wave.push(q);
                }
            }
            if self.next_wave.is_empty() {
                return Ok(()); // case A
            }
            std::mem::swap(&mut self.frontier, &mut self.next_wave);
        }
    }
}

/// The library's replay, as a [`Replayed`].
fn library_replay(g: &Digraph, family: &DipathFamily) -> Replayed {
    match theorem1::color_optimal(g, family) {
        Ok(res) => Ok((res.assignment.colors().to_vec(), res.kempe_swaps)),
        Err(CoreError::InternalCycleObstruction { chain }) => Err(chain),
        Err(e) => panic!("unexpected Theorem 1 error: {e}"),
    }
}

/// Replay `family` with the library and with both reference strategies on
/// the library's peel. The library must match the component swap exactly.
/// The cascade must match it in colors and swaps where the replay goes
/// through and block where it blocks, and each blocked replay's chain must
/// witness an internal cycle by itself. Returns the library's replay.
fn replay_against_references(g: &Digraph, family: &DipathFamily, what: &str) -> Replayed {
    let log = theorem1::peel(g, family).unwrap();
    let got = library_replay(g, family);
    assert_eq!(
        got,
        adjacency_replay(family, &log, Kempe::ComponentSwap),
        "{what}: component swap"
    );
    match (&got, adjacency_replay(family, &log, Kempe::Cascade)) {
        (Ok(swapped), Ok(cascaded)) => assert_eq!(swapped, &cascaded, "{what}: cascade"),
        (Err(swapped), Err(cascaded)) => {
            for (chain, kind) in [(swapped, "swap"), (&cascaded, "cascade")] {
                let cycle = witness::internal_cycle_from_chain(g, family, chain)
                    .unwrap_or_else(|| panic!("{what}: the {kind}'s chain witnesses no cycle"));
                assert!(internal::is_internal_cycle(g, &cycle), "{what}: {kind}");
            }
        }
        (_, cascaded) => panic!(
            "{what}: the swap blocks: {}, the cascade blocks: {}",
            got.is_err(),
            cascaded.is_err()
        ),
    }
    got
}

#[test]
fn replay_matches_materialised_adjacency_oracle() {
    let mut swaps = 0;
    for seed in 0..400u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let n = rng.random_range(6..40usize);
        let g = random::random_internal_cycle_free(&mut rng, n, n / 3);
        let count = rng.random_range(0..60usize);
        let family = random::random_family(&mut rng, &g, count, 6);
        let got = replay_against_references(&g, &family, &format!("seed {seed}"));
        swaps += got.expect("an internal-cycle-free replay never blocks").1;
    }
    assert!(swaps > 200, "only {swaps} Kempe swaps exercised");

    // Long dipaths sharing long segments, where most arcs' dipaths all go
    // on to one next arc and the library skips them: random spine
    // intervals, and nested chains whose swaps walk the whole staircase.
    let mut spine_swaps = 0;
    for seed in 0..60u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let (g, family) = if seed % 2 == 0 {
            let len = rng.random_range(20..60usize);
            let paths = rng.random_range(5..40usize);
            random::random_spine_family(&mut rng, len, paths, (2, 15))
        } else {
            let k = 2 + seed as usize / 4;
            let nested: Vec<(usize, usize)> = (0..k)
                .flat_map(|j| [(10 * j, 10 * j + 15), (10 * j + 6, 10 * j + 9)])
                .collect();
            random::spine_family(10 * k + 7, &nested)
        };
        let got = replay_against_references(&g, &family, &format!("spine seed {seed}"));
        spine_swaps += got.expect("a spine replay never blocks").1;
    }
    assert!(
        spine_swaps > 500,
        "only {spine_swaps} spine swaps exercised"
    );

    // Blocked replays: Figure 3's family (the F4 row), Havet's and the
    // odd-cycle families, and random single-cycle families, some of which
    // replay through.
    let mut fixtures = vec![figures::figure3()];
    fixtures.extend((1..=3).map(havet::havet));
    fixtures.extend([2, 3, 5].map(figures::theorem2_family));
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    fixtures
        .extend((0..32).map(|i| random::random_cycle_family(&mut rng, 2 + i % 4, 1 + (i / 4) % 2)));
    let (mut blocked, mut through) = (0, 0);
    for inst in &fixtures {
        match replay_against_references(&inst.graph, &inst.family, &inst.name) {
            Ok(_) => through += 1,
            Err(_) => blocked += 1,
        }
    }
    assert!(
        blocked >= 30 && through >= 4,
        "{blocked} blocked, {through} replayed through"
    );
}

/// A random digraph: arcs mostly from lower to higher ids, so many draws
/// are DAGs, some without and some with internal cycles; now and then an
/// arc points back (a directed cycle) or comes with its reverse (an
/// antiparallel 2-cycle).
fn mostly_acyclic_digraph(rng: &mut ChaCha8Rng) -> Digraph {
    let n = rng.random_range(2..14usize);
    let mut g = Digraph::with_vertices(n);
    let mut percent = || f64::from(rng.random_range(0..10u32)) / 100.0;
    let (back, antiparallel) = (percent(), percent());
    for _ in 0..rng.random_range(0..3 * n) {
        let (a, b) = (rng.random_range(0..n), rng.random_range(0..n));
        if a == b {
            continue;
        }
        let (lo, hi) = (
            VertexId::from_index(a.min(b)),
            VertexId::from_index(a.max(b)),
        );
        if rng.random_bool(back) {
            g.add_arc(hi, lo);
        } else {
            g.add_arc(lo, hi);
            if rng.random_bool(antiparallel) {
                g.add_arc(hi, lo);
            }
        }
    }
    g
}

/// A context proves acyclicity by classifying first: it must reject
/// exactly the graphs a topological sort rejects, with the sort's cycle,
/// and a graph classified internal-cycle-free must be a DAG.
#[test]
fn context_acyclicity_matches_topological_sort() {
    let request = SolveRequest::default();
    let family = DipathFamily::new();
    // [2-cycle witness, longer cycle, internal-cycle-free, DAG with
    // internal cycles]
    let mut seen = [0usize; 4];
    for seed in 0..2000u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = mostly_acyclic_digraph(&mut rng);
        let class = internal::classify(&g);
        if class == internal::DagClass::InternalCycleFree {
            assert!(
                topo::is_dag(&g),
                "seed {seed}: an internal-cycle-free class on a cycle"
            );
        }
        match (
            InstanceContext::new(&g, &family, &request),
            topo::topological_order(&g),
        ) {
            (Err(CoreError::NotADag(got)), Err(GraphError::NotADag(want))) => {
                assert_eq!(got, want, "seed {seed}: a different cycle witness");
                seen[usize::from(got.len() > 3)] += 1;
            }
            (Ok(ctx), Ok(_)) => {
                assert_eq!(ctx.class, class, "seed {seed}");
                seen[2 + usize::from(class != internal::DagClass::InternalCycleFree)] += 1;
            }
            (ctx, sorted) => panic!(
                "seed {seed}: context {:?} vs sort {:?}",
                ctx.map(|c| c.class),
                sorted
            ),
        }
    }
    assert!(seen.iter().all(|&k| k >= 100), "{seen:?}");
}

/// The class a context must prove, rebuilt from independent facts: the
/// internal-cycle count, and a brute-force UPP test that enumerates up to
/// two dipaths between every ordered vertex pair. The saturating DP and
/// the topological sort take no part in it.
fn reference_class(g: &Digraph, cycles: usize) -> internal::DagClass {
    if cycles == 0 {
        return internal::DagClass::InternalCycleFree;
    }
    let upp = g.vertices().all(|u| {
        g.vertices()
            .all(|v| pathcount::enumerate_dipaths(g, u, v, 2).len() <= 1)
    });
    match (upp, cycles) {
        (false, _) => internal::DagClass::General { cycles },
        (true, 1) => internal::DagClass::UppSingleCycle,
        (true, _) => internal::DagClass::UppMultiCycle { cycles },
    }
}

/// A context's facts about its graph against references that share no
/// code with it: the one-pass internal-cycle count against the
/// cyclomatic number of the internal subgraph view, and on a DAG the
/// class against [`reference_class`]. A graph with a directed cycle must
/// classify as `General`.
#[test]
fn context_facts_match_subgraph_reference() {
    let mut hosts: Vec<(String, Digraph)> = (0..1500u64)
        .map(|seed| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            (
                format!("mostly acyclic {seed}"),
                mostly_acyclic_digraph(&mut rng),
            )
        })
        .collect();
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    for i in 0..60 {
        let width = 2 + i % 4;
        let layered = random::random_layered(&mut rng, 4, width, 0.3 + 0.1 * (i % 4) as f64);
        hosts.push((format!("layered {i}"), layered));
        let n = rng.random_range(6..24usize);
        let free = random::random_internal_cycle_free(&mut rng, n, n / 3);
        hosts.push((format!("internal-cycle-free {i}"), free));
    }
    let mut fixtures = vec![figures::figure3()];
    fixtures.extend((1..=3).map(havet::havet));
    for i in 0..40 {
        let a = random::random_cycle_family(&mut rng, 2 + i % 4, 1);
        if i % 2 == 0 {
            fixtures.push(a);
        } else {
            // Two single-cycle UPP hosts side by side: UPP, two cycles.
            let b = random::random_cycle_family(&mut rng, 2 + (i / 2) % 3, 1);
            fixtures.push(compose::disjoint_union(&[a, b]));
        }
    }
    hosts.extend(fixtures.into_iter().map(|inst| (inst.name, inst.graph)));

    // [internal-cycle-free, UPP single cycle, UPP multi-cycle, general
    // DAG, cyclic]
    let mut seen = [0usize; 5];
    for (name, g) in &hosts {
        let cycles = internal::internal_cycle_count(g);
        let reference = undirected::cyclomatic_number(&internal::internal_subgraph(g));
        assert_eq!(cycles, reference, "{name}: internal cycle count");
        let class = internal::classify(g);
        let slot = if topo::is_dag(g) {
            assert_eq!(class, reference_class(g, cycles), "{name}: class");
            match class {
                internal::DagClass::InternalCycleFree => 0,
                internal::DagClass::UppSingleCycle => 1,
                internal::DagClass::UppMultiCycle { .. } => 2,
                internal::DagClass::General { .. } => 3,
            }
        } else {
            assert_eq!(
                class,
                internal::DagClass::General { cycles },
                "{name}: cyclic"
            );
            4
        };
        seen[slot] += 1;
    }
    assert!(seen.iter().all(|&k| k >= 10), "{seen:?}");
}
