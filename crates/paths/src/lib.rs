//! # dagwave-paths
//!
//! Dipaths, dipath families, arc loads, and conflict graphs — the objects
//! the paper's statements quantify over.
//!
//! * [`Dipath`] — a validated, contiguous arc sequence in a digraph.
//! * [`DipathFamily`] — an indexed family `P` with front-shrink/extend
//!   operations (the Theorem-1 peel/replay needs them).
//! * [`load`] — per-arc load table, `π(G, P)` and its argmax.
//! * [`conflict`] — the conflict graph (vertices = dipaths, edges = pairs
//!   sharing an arc), built over the CSR arc→paths [`ArcIndex`], plus
//!   intersection intervals for the UPP Helly structure and connected
//!   components ([`ConflictGraph::components`], [`conflict_components`]).
//! * [`editable`] — [`PathFamily`], the mutable family with *stable* ids
//!   (removals tombstone their slot, insertions reuse the smallest free
//!   slot) that the incremental re-solve engine edits in place. Mutations
//!   touch only the slot table; the dense view and the stable↔dense id
//!   maps are built on the first dense query and patched from then on, so
//!   dense conversion never deep-clones — plus [`conflict_components_among`]
//!   for recomputing components over only a member pool.
//! * [`intern`] — [`ArcList`] / [`ArcListArena`]: shared, content-addressed
//!   arc sequences. Every [`Dipath`] stores an `ArcList`; families intern on
//!   insert, so replicated or churned dipaths share one allocation per
//!   distinct sequence and compare by pointer. The arena sweeps the
//!   sequences only it still holds, so it stays bounded under churn.
//! * [`subinstance`] — [`SubInstance`] extraction: one conflict-graph
//!   component as a standalone instance with a dense local family, a
//!   restricted host graph, and the inverse id map (the decompose half of
//!   decompose-solve-merge), taking its members as `(id, dipath)` pairs so
//!   the same entry serves a dense family and a workspace's cached shards.
//!   Extraction writes a flat content key through reusable host-indexed
//!   tables ([`ExtractScratch`]) and builds from it; [`ShardGroups`] keys
//!   a batch of shards, groups equal keys, and builds one sub-instance per
//!   group.
//!
//! ```
//! use dagwave_graph::builder::from_edges;
//! use dagwave_graph::VertexId;
//! use dagwave_paths::{Dipath, DipathFamily, load};
//!
//! let g = from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
//! let v = |i| VertexId::from_index(i);
//! let mut family = DipathFamily::new();
//! family.push(Dipath::from_vertices(&g, &[v(0), v(1), v(2)]).unwrap());
//! family.push(Dipath::from_vertices(&g, &[v(1), v(2), v(3)]).unwrap());
//! let pi = load::max_load(&g, &family);
//! assert_eq!(pi, 2); // both dipaths use arc 1→2
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod conflict;
pub mod dipath;
pub mod editable;
pub mod error;
pub mod family;
pub mod intern;
pub mod load;
pub mod stats;
pub mod subinstance;

pub use conflict::{conflict_components, conflict_components_among, ArcIndex, ConflictGraph};
pub use dipath::Dipath;
pub use editable::PathFamily;
pub use error::PathError;
pub use family::{DipathFamily, PathId};
pub use intern::{ArcList, ArcListArena, ArenaStats};
pub use subinstance::{ExtractScratch, ShardGroups, SubInstance};
