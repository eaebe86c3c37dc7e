//! # dagwave-graph
//!
//! Directed multigraph substrate for the `dagwave` workspace — the graph
//! layer underneath the RWA (routing and wavelength assignment) algorithms of
//! Bermond & Cosnard, *"Minimum number of wavelengths equals load in a DAG
//! without internal cycle"*, IPDPS 2007.
//!
//! The crate is self-contained (no external graph dependency) and provides:
//!
//! * [`Digraph`] — an arena-style directed multigraph with stable
//!   [`VertexId`]/[`ArcId`] handles, one flat adjacency table built lazily
//!   after the last mutation (O(1) degree queries from then on) and
//!   parallel-arc support (optical fibers between the same pair of nodes
//!   are parallel arcs, and the paper's internal-cycle semantics treat them
//!   as a 2-cycle of the underlying multigraph).
//! * [`topo`] — topological orderings and DAG validation with cycle
//!   witnesses.
//! * [`undirected`] — the *underlying undirected multigraph* view used to
//!   define oriented/internal cycles: explicit cycle extraction and the
//!   cyclomatic number.
//! * [`reach`] — reachability, BFS shortest dipaths, and a bitset
//!   transitive closure.
//! * [`pathcount`] — saturating dipath counting (the Unique-diPath-Property
//!   test primitive).
//! * [`bitset`], [`dsu`] — dense bitsets and union-find used across the
//!   workspace.
//!
//! ## Quick example
//!
//! ```
//! use dagwave_graph::{Digraph, topo};
//!
//! let mut g = Digraph::new();
//! let a = g.add_vertex();
//! let b = g.add_vertex();
//! let c = g.add_vertex();
//! g.add_arc(a, b);
//! g.add_arc(b, c);
//! assert!(topo::is_dag(&g));
//! let order = topo::topological_order(&g).unwrap();
//! assert_eq!(order, vec![a, b, c]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitset;
pub mod builder;
pub mod digraph;
pub mod dsu;
pub mod error;
pub mod ids;
pub mod pathcount;
pub mod reach;
pub mod topo;
pub mod undirected;
pub mod view;

pub use bitset::BitSet;
pub use builder::DigraphBuilder;
pub use digraph::{Adjacency, Arc, Digraph};
pub use dsu::UnionFind;
pub use error::GraphError;
pub use ids::{ArcId, VertexId};
pub use view::SubgraphView;
