//! Golden colorings: the exact assignments Auto hands out on fixed
//! instances, folded into one hash per group, and Theorem 6's own merges,
//! which Auto can replace by a rescue backend's answer. Also home to the
//! slow exact seeds, whose golden colorings and root closure at `π` share
//! one fixture.
//!
//! Validity alone does not pin a coloring, yet Theorem 6's merge — and
//! with it every span it reports — depends on the particular coloring
//! Theorem 1 returns for the split instance. A refactor that keeps every
//! coloring valid but changes one fails here. Each constant was computed
//! once from the implementation these tests guard; a deliberate change of
//! coloring updates it and says so.

use dagwave_color::exact;
use dagwave_core::solver::conflict_to_ugraph;
use dagwave_core::theorem1;
use dagwave_core::theorem6;
use dagwave_core::{BackendAttempt, CoreError, DecomposePolicy, SolveSession};
use dagwave_gen::{compose, figures, havet, random, Instance};
use dagwave_paths::{load, ConflictGraph};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// FNV-1a, 64-bit, over little-endian `u64` words. Written out rather than
/// taken from `std`, whose hasher may change between Rust releases.
struct Fold(u64);

impl Fold {
    fn new() -> Self {
        Fold(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: usize) {
        for byte in (x as u64).to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The length first, so adjacent colorings cannot run together.
    fn colors(&mut self, colors: &[usize]) {
        self.word(colors.len());
        for &c in colors {
            self.word(c);
        }
    }

    /// The length first, then one word per byte.
    fn text(&mut self, s: &str) {
        self.word(s.len());
        for b in s.bytes() {
            self.word(usize::from(b));
        }
    }

    /// Backend, both bounds, the `certify` verdict and the note of every
    /// attempt; a missing upper bound or note folds as a sentinel.
    fn attempts(&mut self, attempts: &[BackendAttempt]) {
        self.word(attempts.len());
        for a in attempts {
            self.text(a.backend.name());
            self.word(a.lower_bound);
            self.word(a.upper_bound.unwrap_or(usize::MAX));
            self.word(usize::from(a.valid));
            self.text(a.note.as_deref().unwrap_or("<none>"));
        }
    }
}

/// Fold Auto's coloring of every instance into one hash.
fn auto_hash<'a>(instances: impl IntoIterator<Item = &'a Instance>) -> u64 {
    let session = SolveSession::auto();
    let mut h = Fold::new();
    for inst in instances {
        let sol = session
            .solve(&inst.graph, &inst.family)
            .unwrap_or_else(|e| panic!("{}: {e}", inst.name));
        assert!(sol.assignment.is_valid(&inst.graph, &inst.family));
        h.colors(sol.assignment.colors());
    }
    h.0
}

/// Fold the provenance of every instance's Auto solve, once monolithic
/// (the default session) and once sharded (`DecomposePolicy::Always`):
/// class, winner, span and `optimal`, every attempt with its bounds,
/// verdict and note, and every shard outcome.
fn provenance_hash<'a>(instances: impl IntoIterator<Item = &'a Instance>) -> u64 {
    let sessions = [
        SolveSession::auto(),
        SolveSession::builder()
            .decompose(DecomposePolicy::Always)
            .build(),
    ];
    let mut h = Fold::new();
    for inst in instances {
        for session in &sessions {
            let sol = session
                .solve(&inst.graph, &inst.family)
                .unwrap_or_else(|e| panic!("{}: {e}", inst.name));
            h.text(&sol.class.to_string());
            h.text(sol.strategy.name());
            h.word(sol.num_colors);
            h.word(usize::from(sol.optimal));
            h.attempts(&sol.attempts);
            let shards = sol.decomposition.as_ref().map_or(&[][..], |d| &d.shards);
            h.word(shards.len());
            for s in shards {
                let members: Vec<usize> = s.members.iter().map(|p| p.index()).collect();
                h.colors(&members);
                h.text(&s.class.to_string());
                h.text(s.strategy.name());
                h.word(s.num_colors);
                h.word(s.load);
                h.word(usize::from(s.optimal));
                h.attempts(&s.attempts);
            }
        }
    }
    h.0
}

/// Internal-cycle-free draws as the benchmark corpus makes them.
fn icf_draws() -> Vec<Instance> {
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    (0..24)
        .map(|i| {
            let n = rng.random_range(60..=120usize);
            let graph = random::random_internal_cycle_free(&mut rng, n, n / 4);
            let count = rng.random_range(n..=2 * n);
            let family = random::random_family(&mut rng, &graph, count, 8);
            Instance {
                graph,
                family,
                name: format!("icf-{i}"),
            }
        })
        .collect()
}

/// Single-cycle UPP draws as the benchmark corpus makes them.
fn upp1_draws() -> Vec<Instance> {
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    (0..32)
        .map(|i| random::random_cycle_family(&mut rng, 2 + i % 4, 1 + (i / 4) % 2))
        .collect()
}

/// Fold Theorem 6's own answer on every instance: the merged coloring, its
/// extra colors and the palette permutation's class profile. Auto's
/// coloring can hide it behind a rescue backend; this cannot.
fn theorem6_hash<'a>(instances: impl IntoIterator<Item = &'a Instance>) -> u64 {
    let mut h = Fold::new();
    for inst in instances {
        let res = theorem6::color_single_cycle_upp(&inst.graph, &inst.family)
            .unwrap_or_else(|e| panic!("{}: {e}", inst.name));
        h.colors(res.assignment.colors());
        h.word(res.extra_colors);
        h.colors(&res.class_profile);
    }
    h.0
}

/// General families on layered DAGs whose greedy clique is smaller than
/// `π`: without `π` as its root bound the exact search spends seconds on
/// each of them ([`SLOW_EXACT_SEEDS`]).
fn slow_exact_seed(seed: u64) -> Instance {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let graph = random::random_layered(&mut rng, 8, 6, 0.35);
    let count = rng.random_range(40..80usize);
    let family = random::random_family(&mut rng, &graph, count, 5);
    Instance {
        graph,
        family,
        name: format!("layered-seed{seed}"),
    }
}

const SLOW_EXACT_SEEDS: [u64; 11] = [12, 13, 22, 27, 43, 48, 52, 78, 80, 92, 93];

#[test]
fn icf_auto_colorings_are_golden() {
    assert_eq!(auto_hash(&icf_draws()), 0x739281543a69b0c5);
}

/// Theorem 1 run directly, with its Kempe swap count.
#[test]
fn icf_ablation_colorings_are_golden() {
    let mut h = Fold::new();
    for inst in icf_draws() {
        let res = theorem1::color_optimal(&inst.graph, &inst.family)
            .unwrap_or_else(|e| panic!("{}: {e}", inst.name));
        h.colors(res.assignment.colors());
        h.word(res.kempe_swaps);
    }
    assert_eq!(h.0, 0x3ebe2764afddebaf);
}

/// Theorem 1 run directly on single-cycle UPP draws, whose internal cycle
/// may stop the replay: the coloring and swap count, or the obstruction
/// chain it stopped at.
#[test]
fn upp1_obstruction_chains_are_golden() {
    let (mut h, mut obstructed) = (Fold::new(), 0);
    for inst in upp1_draws() {
        match theorem1::color_optimal(&inst.graph, &inst.family) {
            Ok(res) => {
                h.colors(res.assignment.colors());
                h.word(res.kempe_swaps);
            }
            Err(CoreError::InternalCycleObstruction { chain }) => {
                obstructed += 1;
                let chain: Vec<usize> = chain.iter().map(|p| p.index()).collect();
                h.colors(&chain);
            }
            Err(e) => panic!("{}: {e}", inst.name),
        }
    }
    assert_eq!(obstructed, 27, "obstructed draws");
    assert_eq!(h.0, 0x7ce0d0c83223f927);
}

#[test]
fn upp1_auto_colorings_are_golden() {
    assert_eq!(auto_hash(&upp1_draws()), 0x635a0d61e6f9976a);
}

#[test]
fn havet_auto_colorings_are_golden() {
    let instances: Vec<Instance> = (1..=6).map(havet::havet).collect();
    assert_eq!(auto_hash(&instances), 0xad2a5dcefb334433);
}

/// The merge's patch pass keeps each clashing dipath on its class's `γ`
/// where that is safe; several upp1 draws take that branch.
#[test]
fn upp1_theorem6_merges_are_golden() {
    assert_eq!(theorem6_hash(&upp1_draws()), 0x7c98f207bdb178cc);
}

/// Replicated Havet families reach every rescue branch of the patch pass:
/// `γ` safe (h = 2…6), `γ` forbidden with a free palette color (h = 4…6),
/// and `γ` forbidden with a fresh color (h = 2…6).
#[test]
fn havet_theorem6_merges_are_golden() {
    let instances: Vec<Instance> = (1..=6).map(havet::havet).collect();
    assert_eq!(theorem6_hash(&instances), 0x61cd1b2ddfb83770);
}

#[test]
fn staircase_auto_colorings_are_golden() {
    let instances: Vec<Instance> = (4..=12).map(figures::staircase).collect();
    assert_eq!(auto_hash(&instances), 0x9afa5996b997b809);
}

#[test]
fn c5_replica_auto_colorings_are_golden() {
    let instances: Vec<Instance> = (2..=9)
        .map(|h| {
            let mut inst = figures::figure3();
            inst.family = inst.family.replicate(h);
            inst
        })
        .collect();
    assert_eq!(auto_hash(&instances), 0x312006ad95c795f9);
}

#[test]
fn federated_auto_coloring_is_golden() {
    assert_eq!(auto_hash(&[compose::federated(64)]), 0x5c80dc70c37a57ba);
}

/// Provenance, not only colorings: shard contexts, the Theorem 6 entry
/// and the weighted decline all sit on the paths these solves take.
#[test]
fn federated_provenance_is_golden() {
    assert_eq!(
        provenance_hash(&[compose::federated(64)]),
        0x6e73b1dcb8d09234
    );
}

#[test]
fn upp1_provenance_is_golden() {
    assert_eq!(provenance_hash(&upp1_draws()), 0xafea82ec037e29fc);
}

#[test]
fn havet_provenance_is_golden() {
    let instances: Vec<Instance> = (1..=6).map(havet::havet).collect();
    assert_eq!(provenance_hash(&instances), 0x556802fe18745553);
}

#[test]
fn slow_exact_seed_auto_colorings_are_golden() {
    let instances: Vec<Instance> = SLOW_EXACT_SEEDS.map(slow_exact_seed).into();
    assert_eq!(auto_hash(&instances), 0x61a701ea6413b9ba);
}

/// The exact search spent seconds on each slow seed proving a bound the
/// load already gives (22.9 s on the slowest). Seeded with `π`, DSATUR's
/// coloring meets it at the root.
#[test]
fn exact_search_closes_at_pi() {
    for seed in SLOW_EXACT_SEEDS {
        let inst = slow_exact_seed(seed);
        let pi = load::max_load(&inst.graph, &inst.family);
        let ug = conflict_to_ugraph(&ConflictGraph::build(&inst.graph, &inst.family));
        let seeded = exact::chromatic_number_budgeted(&ug, pi, 1_000);
        assert_eq!(seeded.chromatic(), Some(pi), "seed {seed}: {seeded:?}");
        let unseeded = exact::chromatic_number_budgeted(&ug, 0, 1_000);
        assert!(
            matches!(unseeded, exact::ExactResult::BudgetExceeded { .. }),
            "seed {seed}: closed without π: {unseeded:?}"
        );
    }
}
