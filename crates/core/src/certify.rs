//! Instance certification: one call that checks everything the theorems
//! promise about a solved instance.
//!
//! Downstream users (and our own report binary) want a single auditable
//! object: is the assignment conflict-free, does it meet the class's
//! guaranteed bound, is it provably optimal, and which theorem vouches for
//! it. [`certify`] recomputes all of it from scratch — independent of the
//! solver's internal bookkeeping — so it doubles as an oracle in tests.

use crate::bounds;
use crate::internal::{self, DagClass};
use crate::solver::Solution;
use dagwave_graph::Digraph;
use dagwave_paths::{load, DipathFamily};

/// The outcome of auditing a [`Solution`] against its instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Certificate {
    /// The assignment respects every arc conflict.
    pub conflict_free: bool,
    /// Recomputed `π(G, P)`.
    pub load: usize,
    /// Wavelengths used by the assignment.
    pub colors_used: usize,
    /// The instance class (recomputed).
    pub class: DagClass,
    /// The a-priori bound for the class, if one exists.
    pub guaranteed_bound: Option<usize>,
    /// `colors_used` is within the guaranteed bound (vacuously true when
    /// no bound exists).
    pub within_bound: bool,
    /// `colors_used == π`: the assignment is optimal by the universal
    /// lower bound.
    pub tight: bool,
}

impl Certificate {
    /// `true` when everything a downstream consumer needs holds:
    /// conflict-free and within the class bound.
    pub fn is_sound(&self) -> bool {
        self.conflict_free && self.within_bound
    }
}

/// Audit `solution` against the instance it claims to solve.
pub fn certify(g: &Digraph, family: &DipathFamily, solution: &Solution) -> Certificate {
    certify_assignment(g, family, &solution.assignment)
}

/// Audit a bare assignment against an instance — the same recomputed
/// checks as [`certify`], usable before a [`Solution`] exists. This is the
/// validity oracle the solving surface runs on every backend attempt.
pub fn certify_assignment(
    g: &Digraph,
    family: &DipathFamily,
    assignment: &crate::WavelengthAssignment,
) -> Certificate {
    let conflict_free = assignment.is_valid(g, family);
    let pi = load::max_load(g, family);
    let colors_used = assignment.num_colors();
    let class = internal::classify(g);
    let guaranteed_bound = bounds::class_bound(class, pi);
    let within_bound = guaranteed_bound.is_none_or(|b| colors_used <= b);
    Certificate {
        conflict_free,
        load: pi,
        colors_used,
        class,
        guaranteed_bound,
        within_bound,
        tight: colors_used == pi,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::SolveSession;
    use dagwave_graph::builder::from_edges;
    use dagwave_graph::VertexId;
    use dagwave_paths::Dipath;

    fn v(i: usize) -> VertexId {
        VertexId::from_index(i)
    }

    #[test]
    fn certifies_theorem1_solution() {
        let g = from_edges(4, &[(0, 1), (1, 2), (1, 3)]);
        let family = DipathFamily::from_paths(vec![
            Dipath::from_vertices(&g, &[v(0), v(1), v(2)]).unwrap(),
            Dipath::from_vertices(&g, &[v(0), v(1), v(3)]).unwrap(),
        ]);
        let sol = SolveSession::auto().solve(&g, &family).unwrap();
        let cert = certify(&g, &family, &sol);
        assert!(cert.is_sound());
        assert!(cert.tight);
        assert_eq!(cert.class, DagClass::InternalCycleFree);
        assert_eq!(cert.guaranteed_bound, Some(cert.load));
        assert_eq!(cert.colors_used, 2);
    }

    #[test]
    fn detects_corrupted_assignment() {
        let g = from_edges(3, &[(0, 1), (1, 2)]);
        let family = DipathFamily::from_paths(vec![
            Dipath::from_vertices(&g, &[v(0), v(1), v(2)]).unwrap(),
            Dipath::from_vertices(&g, &[v(1), v(2)]).unwrap(),
        ]);
        let mut sol = SolveSession::auto().solve(&g, &family).unwrap();
        // Corrupt: force both dipaths to the same wavelength.
        sol.assignment = crate::WavelengthAssignment::new(vec![0, 0]);
        let cert = certify(&g, &family, &sol);
        assert!(!cert.conflict_free);
        assert!(!cert.is_sound());
    }

    #[test]
    fn general_class_has_no_bound() {
        let inst = {
            // Guarded diamond (internal cycle, not UPP).
            let g = from_edges(6, &[(0, 1), (1, 2), (2, 4), (1, 3), (3, 4), (4, 5)]);
            let family = DipathFamily::from_paths(vec![
                Dipath::from_vertices(&g, &[v(1), v(2), v(4)]).unwrap(),
                Dipath::from_vertices(&g, &[v(1), v(3), v(4)]).unwrap(),
            ]);
            (g, family)
        };
        let sol = SolveSession::auto().solve(&inst.0, &inst.1).unwrap();
        let cert = certify(&inst.0, &inst.1, &sol);
        assert_eq!(cert.guaranteed_bound, None);
        assert!(cert.within_bound, "vacuous without a bound");
        assert!(cert.is_sound());
    }

    #[test]
    fn havet_certificate_hits_the_bound() {
        use dagwave_paths::PathId;
        let g = from_edges(
            12,
            &[
                (0, 2),
                (1, 3),
                (8, 2),
                (9, 3),
                (2, 4),
                (2, 5),
                (3, 4),
                (3, 5),
                (4, 6),
                (5, 7),
                (4, 10),
                (5, 11),
            ],
        );
        let route = |r: &[usize]| {
            let rr: Vec<VertexId> = r.iter().map(|&i| v(i)).collect();
            Dipath::from_vertices(&g, &rr).unwrap()
        };
        let family = DipathFamily::from_paths(vec![
            route(&[0, 2, 4, 10]),
            route(&[0, 2, 5, 7]),
            route(&[1, 3, 5, 7]),
            route(&[1, 3, 4, 6]),
            route(&[8, 2, 4, 6]),
            route(&[8, 2, 5, 11]),
            route(&[9, 3, 5, 11]),
            route(&[9, 3, 4, 10]),
        ]);
        let sol = SolveSession::auto().solve(&g, &family).unwrap();
        let cert = certify(&g, &family, &sol);
        assert!(cert.is_sound());
        assert_eq!(cert.class, DagClass::UppSingleCycle);
        assert_eq!(cert.guaranteed_bound, Some(3));
        assert_eq!(cert.colors_used, 3, "bound attained (Theorem 7)");
        assert!(!cert.tight, "w = 3 > 2 = π here");
        let _ = PathId(0);
    }
}
