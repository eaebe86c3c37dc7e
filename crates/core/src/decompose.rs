//! Decompose-solve-merge: intra-instance sharding by conflict-graph
//! connected components.
//!
//! Two dipaths in different connected components of the conflict graph
//! share no arc, so the chromatic number of the whole conflict graph is the
//! **maximum** over its components — per-component coloring with a shared
//! palette is exact, not a heuristic. The solving surface exploits this:
//! under a [`DecomposePolicy`] the instance is cut into shards (one per
//! component), grouped by exact content, and each group's
//! [`dagwave_paths::SubInstance`] is classified and solved independently
//! on the rayon pool under the session's [`crate::Policy`]; the shard
//! colorings are merged back with a shared palette.
//! Shards frequently land in a friendlier [`DagClass`] than the whole
//! instance — a component that never touches the internal cycle is solved
//! by Theorem 1 exactly even when the host DAG is general — and a shard
//! small enough for the exact solver gets a certified optimum the
//! monolithic solve could not afford.
//!
//! The merged [`crate::Solution`] carries a [`Decomposition`] record with
//! one [`ShardOutcome`] per shard (size, class, winning backend, span, and
//! the full per-backend attempt provenance), in deterministic shard order
//! (components ordered by smallest original path id).

use crate::backend::{BackendAttempt, BackendKind};
use crate::internal::DagClass;
use dagwave_paths::PathId;
use std::sync::Arc;

/// When the solving surface shards an instance by conflict-graph
/// components before solving.
///
/// Decomposition is correctness-preserving (disjoint components never
/// conflict), deterministic (shards are ordered by smallest original path
/// id and each shard solve is deterministic), and composes with every
/// [`crate::Policy`] and with `solve_stream`. The policy steers one-shot
/// solves only: a [`crate::Workspace`] always shards, and keeps its session
/// with `Always` pinned.
///
/// ```
/// use dagwave_core::{DecomposePolicy, SolverBuilder};
///
/// // Shard unconditionally: every connected component becomes its own
/// // sub-solve, and the merged span is the max over shards.
/// let session = SolverBuilder::new()
///     .decompose(DecomposePolicy::Always)
///     .build();
/// # let _ = session;
///
/// // The default only pays the component scan on large instances:
/// assert_eq!(
///     DecomposePolicy::default(),
///     DecomposePolicy::Auto { min_paths: DecomposePolicy::DEFAULT_MIN_PATHS },
/// );
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecomposePolicy {
    /// Never decompose: always one monolithic solve (the pre-decomposition
    /// behavior).
    Off,
    /// Decompose only when it can plausibly pay off: the family has at
    /// least `min_paths` dipaths, the conflict graph actually splits into
    /// ≥ 2 components, and — under the Auto backend policy — the host is
    /// *not* internal-cycle-free (there the monolithic Theorem 1 solve is
    /// already optimal in O(m + Σ|p|) memory and O(n + m + Σ|p|) time plus
    /// its Kempe searches, each costing the loads on the live arcs of the
    /// dipaths it walks where the dipaths through an arc part ways, so
    /// sharding could only add overhead). Below the size threshold the
    /// component scan is skipped entirely, so small instances pay nothing.
    Auto {
        /// Smallest family size worth scanning for components.
        min_paths: usize,
    },
    /// Decompose every non-empty instance, even single-component ones
    /// (the shard still benefits from graph restriction: arcs no dipath
    /// uses are dropped, which can land the shard in a friendlier class).
    Always,
}

impl DecomposePolicy {
    /// Default [`DecomposePolicy::Auto`] threshold: instances below this
    /// size solve monolithically without even scanning for components.
    pub const DEFAULT_MIN_PATHS: usize = 512;
}

impl Default for DecomposePolicy {
    fn default() -> Self {
        DecomposePolicy::Auto {
            min_paths: Self::DEFAULT_MIN_PATHS,
        }
    }
}

/// What one shard of a decomposed solve produced.
#[derive(Clone, Debug)]
pub struct ShardOutcome {
    /// Number of dipaths in the shard.
    pub paths: usize,
    /// The shard's members — the [`PathId`]s (in the solved instance's id
    /// space) this shard colored, in ascending order. This is the
    /// shard→path attribution callers (and the incremental engine) need
    /// without re-running the component union-find.
    pub members: Vec<PathId>,
    /// The shard's own class (often friendlier than the whole instance's).
    pub class: DagClass,
    /// The backend that produced the kept shard coloring.
    pub strategy: BackendKind,
    /// Wavelengths the shard uses (the merged span is the max of these).
    pub num_colors: usize,
    /// The shard's own load `π`.
    pub load: usize,
    /// `true` when the shard coloring is provably minimum for the shard.
    pub optimal: bool,
    /// Per-backend provenance of the shard solve, as
    /// [`crate::Solution::attempts`] would carry for a standalone solve.
    /// Shared with that solve, so the shards of one content group, which
    /// share one solve, share one list.
    pub attempts: Arc<[BackendAttempt]>,
}

/// Provenance of a decomposed solve: one [`ShardOutcome`] per
/// conflict-graph component, in deterministic shard order (smallest
/// original path id first).
#[derive(Clone, Debug, Default)]
pub struct Decomposition {
    /// The shards, in solve order.
    pub shards: Vec<ShardOutcome>,
}

impl Decomposition {
    /// Number of shards the instance split into.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Size (dipath count) of the largest shard — the critical path of the
    /// parallel solve.
    pub fn largest_shard(&self) -> usize {
        self.shards.iter().map(|s| s.paths).max().unwrap_or(0)
    }

    /// The shard containing dipath `p`, if any — a linear scan over the
    /// recorded memberships (shards partition the family, so the first hit
    /// is the only hit).
    pub fn shard_of(&self, p: PathId) -> Option<usize> {
        self.shards
            .iter()
            .position(|s| s.members.binary_search(&p).is_ok())
    }

    /// Histogram of shard classes, ordered by first appearance: how many
    /// shards landed in each [`DagClass`].
    pub fn class_histogram(&self) -> Vec<(DagClass, usize)> {
        let mut hist: Vec<(DagClass, usize)> = Vec::new();
        for s in &self.shards {
            match hist.iter_mut().find(|(c, _)| *c == s.class) {
                Some((_, n)) => *n += 1,
                None => hist.push((s.class, 1)),
            }
        }
        hist
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard(paths: usize, class: DagClass, num_colors: usize) -> ShardOutcome {
        ShardOutcome {
            paths,
            members: (0..paths).map(PathId::from_index).collect(),
            class,
            strategy: BackendKind::Dsatur,
            num_colors,
            load: num_colors,
            optimal: true,
            attempts: Arc::new([]),
        }
    }

    #[test]
    fn default_policy_is_auto_with_threshold() {
        assert_eq!(
            DecomposePolicy::default(),
            DecomposePolicy::Auto {
                min_paths: DecomposePolicy::DEFAULT_MIN_PATHS
            }
        );
    }

    #[test]
    fn empty_decomposition_stats() {
        let d = Decomposition::default();
        assert_eq!(d.shard_count(), 0);
        assert_eq!(d.largest_shard(), 0);
        assert!(d.class_histogram().is_empty());
    }

    #[test]
    fn shard_of_attributes_paths_to_shards() {
        let mut a = shard(2, DagClass::InternalCycleFree, 1);
        a.members = vec![PathId(0), PathId(3)];
        let mut b = shard(2, DagClass::InternalCycleFree, 1);
        b.members = vec![PathId(1), PathId(2)];
        let d = Decomposition { shards: vec![a, b] };
        assert_eq!(d.shard_of(PathId(3)), Some(0));
        assert_eq!(d.shard_of(PathId(1)), Some(1));
        assert_eq!(d.shard_of(PathId(7)), None);
    }

    #[test]
    fn stats_over_mixed_shards() {
        let d = Decomposition {
            shards: vec![
                shard(5, DagClass::InternalCycleFree, 2),
                shard(12, DagClass::General { cycles: 1 }, 3),
                shard(3, DagClass::InternalCycleFree, 1),
            ],
        };
        assert_eq!(d.shard_count(), 3);
        assert_eq!(d.largest_shard(), 12);
        assert_eq!(
            d.class_histogram(),
            vec![
                (DagClass::InternalCycleFree, 2),
                (DagClass::General { cycles: 1 }, 1),
            ]
        );
    }
}
