//! # dagwave-color
//!
//! Undirected graph coloring and clique toolkit — the baseline machinery the
//! paper's results are compared against.
//!
//! `w(G, P)` is the chromatic number of the conflict graph; computing it is
//! NP-hard in general (the paper cites the coloring reduction explicitly).
//! This crate provides:
//!
//! * [`UGraph`] — a simple undirected graph (the conflict graph's shape).
//! * [`greedy`] — greedy coloring with several vertex orders (natural,
//!   largest-first, smallest-last/degeneracy).
//! * [`dsatur`] — the DSATUR heuristic.
//! * [`exact`] — exact chromatic number by DSATUR-style branch and bound
//!   with clique lower bounds (used to *verify* `w` on paper instances).
//! * [`clique`] — Bron–Kerbosch maximum clique (verifies Property 3).
//! * [`kempe`] — Kempe-chain component swaps (shared with the Theorem-1
//!   solver) and [`kempe::kempe_reduce`], the palette-reduction refinement
//!   behind the `KempeGreedy` solver backend.
//! * [`forbidden`] — `K_{2,3}` detection (Corollary 5 checks).
//! * [`verify`] — proper-coloring validation.
//!
//! ## Quick example
//!
//! The 5-cycle: clique number 2, chromatic number 3 — the gap the paper's
//! `w = π` theorem closes for internal-cycle-free instances.
//!
//! ```
//! use dagwave_color::{clique, dsatur, exact, verify, UGraph};
//!
//! let c5 = UGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
//! assert_eq!(clique::clique_number(&c5), 2);
//! assert_eq!(exact::chromatic_number(&c5).chromatic(), Some(3));
//! let coloring = dsatur::dsatur_coloring(&c5);
//! assert!(verify::is_proper(&c5, &coloring));
//! assert_eq!(dagwave_color::color_count(&coloring), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clique;
pub mod dsatur;
pub mod exact;
pub mod forbidden;
pub mod greedy;
pub mod kempe;
pub mod multicolor;
pub mod ugraph;
pub mod verify;

pub use ugraph::UGraph;

/// A vertex coloring: `colors[v]` is the color of vertex `v`.
pub type Coloring = Vec<usize>;

/// Number of distinct colors used by a coloring.
pub fn color_count(coloring: &Coloring) -> usize {
    let mut seen = std::collections::HashSet::new();
    for &c in coloring {
        seen.insert(c);
    }
    seen.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn color_count_distinct() {
        assert_eq!(color_count(&vec![0, 1, 0, 2]), 3);
        assert_eq!(color_count(&vec![]), 0);
        assert_eq!(color_count(&vec![5, 5, 5]), 1);
    }
}
