//! # dagwave-core
//!
//! The algorithms of Bermond & Cosnard, *"Minimum number of wavelengths
//! equals load in a DAG without internal cycle"* (IPDPS 2007).
//!
//! Given a DAG `G` and a family of dipaths `P`, the **load** `π(G, P)` is
//! the maximum number of dipaths through any arc and the **wavelength
//! number** `w(G, P)` is the chromatic number of the conflict graph. Always
//! `π ≤ w`. The paper proves:
//!
//! * **Theorem 1** — if `G` has no *internal cycle* then `w = π` for every
//!   family, constructively: [`theorem1::color_optimal`] produces an optimal
//!   assignment in polynomial time.
//! * **Theorem 2 / Main Theorem** — with an internal cycle there is always a
//!   family with `π = 2 < 3 = w`, so the absence of internal cycles exactly
//!   characterizes `w = π` universality ([`internal`] detects and counts
//!   them, and `dagwave-gen` builds the witness families).
//! * **Property 3 / Corollary 5** — on UPP-DAGs (unique dipath between any
//!   pair) the load equals the clique number of the conflict graph
//!   ([`upp`]).
//! * **Theorem 6 / 7** — on an UPP-DAG with exactly one internal cycle,
//!   `w ≤ ⌈4π/3⌉`, and the bound is tight ([`theorem6`]).
//!
//! The solving surface is pluggable: every method above (plus the
//! exact/heuristic fallbacks from `dagwave-color`) is a named
//! [`backend::ColoringBackend`], and a [`solver::SolveSession`] — built
//! with [`solver::SolverBuilder`] — dispatches to them under a
//! [`backend::Policy`]: `Auto` (classify and pick the strongest method),
//! `Pinned` (one named backend), or `Portfolio` (race several on the rayon
//! pool, keep the fewest colors deterministically).
//!
//! ```
//! use dagwave_graph::builder::from_edges;
//! use dagwave_graph::VertexId;
//! use dagwave_paths::{Dipath, DipathFamily};
//! use dagwave_core::SolveSession;
//!
//! // A rooted tree (no internal cycle): w must equal π.
//! let g = from_edges(5, &[(0, 1), (0, 2), (1, 3), (1, 4)]);
//! let v = |i| VertexId::from_index(i);
//! let mut family = DipathFamily::new();
//! family.push(Dipath::from_vertices(&g, &[v(0), v(1), v(3)]).unwrap());
//! family.push(Dipath::from_vertices(&g, &[v(0), v(1), v(4)]).unwrap());
//! family.push(Dipath::from_vertices(&g, &[v(0), v(2)]).unwrap());
//!
//! let solution = SolveSession::auto().solve(&g, &family).unwrap();
//! assert_eq!(solution.num_colors, solution.load); // w == π
//! ```
//!
//! A portfolio session races named backends and records per-backend
//! provenance on the [`Solution`]:
//!
//! ```
//! # use dagwave_graph::builder::from_edges;
//! # use dagwave_graph::VertexId;
//! # use dagwave_paths::{Dipath, DipathFamily};
//! use dagwave_core::{BackendKind, SolverBuilder};
//!
//! # let g = from_edges(3, &[(0, 1), (1, 2)]);
//! # let v = |i| VertexId::from_index(i);
//! # let family = DipathFamily::from_paths(vec![
//! #     Dipath::from_vertices(&g, &[v(0), v(1), v(2)]).unwrap(),
//! # ]);
//! let session = SolverBuilder::new()
//!     .portfolio(vec![BackendKind::Dsatur, BackendKind::KempeGreedy])
//!     .build();
//! let solution = session.solve(&g, &family).unwrap();
//! assert_eq!(solution.attempts.len(), 2);
//! assert!(solution.attempts.iter().all(|a| a.valid));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assignment;
pub mod backend;
pub mod bounds;
pub mod certify;
pub mod colortable;
pub mod decompose;
pub mod error;
pub mod internal;
pub mod solver;
pub mod theorem1;
pub mod theorem6;
pub mod upp;
pub mod witness;
pub mod workspace;

pub use assignment::WavelengthAssignment;
pub use backend::{
    BackendAttempt, BackendKind, BackendOutcome, ColoringBackend, InstanceContext, Policy,
    SolveRequest,
};
pub use colortable::ColorTable;
pub use decompose::{DecomposePolicy, Decomposition, ShardOutcome};
pub use error::CoreError;
pub use solver::{Instance, Solution, SolveSession, SolverBuilder};
pub use workspace::{Epoch, Mutation, Resolve, SolutionDelta, Workspace, WorkspaceStats};
