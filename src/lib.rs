//! # dagwave
//!
//! Facade crate re-exporting the whole dagwave workspace — a Rust
//! reproduction of Bermond & Cosnard, *"Minimum number of wavelengths
//! equals load in a DAG without internal cycle"* (IPDPS 2007).
//!
//! Layer map (each module is a workspace crate):
//!
//! * [`graph`] — directed multigraph substrate (topological orders,
//!   reachability, underlying cycles, UPP counting).
//! * [`paths`] — dipath families, arc loads, conflict graphs.
//! * [`color`] — coloring toolbox (greedy, DSATUR, Kempe, exact).
//! * [`core`] — the paper's theorems and the pluggable solving surface
//!   ([`SolveSession`], [`SolverBuilder`], [`BackendKind`]).
//! * [`gen`] — figure/witness/random instance generators.
//! * [`route`] — the end-to-end routing-and-wavelength-assignment pipeline.
//! * [`serve`] — the TCP service layer: versioned binary wire protocol,
//!   single-writer coalescing actor per tenant, and one `poll(2)` reactor
//!   driving every connection, over the incremental [`Workspace`].
//!
//! ```
//! use dagwave::{graph::Digraph, paths::{Dipath, DipathFamily}, SolveSession};
//!
//! let mut g = Digraph::new();
//! let (a, b, c) = (g.add_vertex(), g.add_vertex(), g.add_vertex());
//! let ab = g.add_arc(a, b);
//! let bc = g.add_arc(b, c);
//! let mut family = DipathFamily::new();
//! family.push(Dipath::from_arcs(&g, vec![ab, bc]).unwrap());
//! let solution = SolveSession::auto().solve(&g, &family).unwrap();
//! assert_eq!(solution.num_colors, solution.load);
//! ```
//!
//! Beyond `Auto`, a session can pin one backend or race a portfolio of
//! them on the rayon pool, keeping the fewest-colors result:
//!
//! ```
//! use dagwave::{BackendKind, Policy, SolverBuilder};
//! # use dagwave::{graph::Digraph, paths::{Dipath, DipathFamily}};
//! # let mut g = Digraph::new();
//! # let (a, b, c) = (g.add_vertex(), g.add_vertex(), g.add_vertex());
//! # let ab = g.add_arc(a, b);
//! # let bc = g.add_arc(b, c);
//! # let mut family = DipathFamily::new();
//! # family.push(Dipath::from_arcs(&g, vec![ab, bc]).unwrap());
//! let portfolio = SolverBuilder::new()
//!     .portfolio(vec![BackendKind::Dsatur, BackendKind::KempeGreedy])
//!     .build();
//! let solution = portfolio.solve(&g, &family).unwrap();
//! assert!(solution.attempts.iter().all(|a| a.valid));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use dagwave_color as color;
pub use dagwave_core as core;
pub use dagwave_gen as gen;
pub use dagwave_graph as graph;
pub use dagwave_paths as paths;
pub use dagwave_route as route;
pub use dagwave_serve as serve;

pub use dagwave_core::{
    BackendAttempt, BackendKind, ColorTable, DecomposePolicy, Decomposition, Epoch, Instance,
    Mutation, Policy, Resolve, ShardOutcome, Solution, SolutionDelta, SolveRequest, SolveSession,
    SolverBuilder, Workspace,
};
