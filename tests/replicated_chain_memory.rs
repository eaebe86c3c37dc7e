//! Theorem 1 on k copies of one dipath: the bytes one Auto solve
//! allocates, and the bytes a workspace step admitting the k-th copy
//! allocates, grow linearly in k. Every dipath crosses every arc, so each
//! arc's load is k and a conflict graph would hold k² entries.
//!
//! The counting allocator sees every allocation of the process, so this
//! binary holds this one test and nothing runs beside it.

use dagwave_core::{SolveSession, Workspace};
use dagwave_graph::builder::from_edges;
use dagwave_graph::Digraph;
use dagwave_paths::{Dipath, DipathFamily};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Bytes requested from the allocator so far (a reallocation counts its
/// new size).
static ALLOCATED: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call forwards to `System` with the caller's arguments.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bytes allocated while `f` runs.
fn allocated_by<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = ALLOCATED.load(Ordering::Relaxed);
    let out = f();
    (ALLOCATED.load(Ordering::Relaxed) - before, out)
}

/// The 3-arc chain and its one full-length dipath.
fn chain() -> (Digraph, Dipath) {
    let g = from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
    let p = Dipath::from_arcs(&g, g.arc_ids().collect()).unwrap();
    (g, p)
}

/// Bytes one Auto solve of `k` copies allocates.
fn solve_bytes(k: usize) -> usize {
    let (g, p) = chain();
    let family = DipathFamily::from_paths(vec![p]).replicate(k);
    let session = SolveSession::auto();
    let (bytes, sol) = allocated_by(|| session.solve(&g, &family).unwrap());
    assert_eq!((sol.load, sol.num_colors), (k, k), "w = π = k");
    bytes
}

/// Bytes a workspace holding `k − 1` refreshed copies allocates to admit
/// the k-th and refresh.
fn step_bytes(k: usize) -> usize {
    let (g, p) = chain();
    let family = DipathFamily::from_paths(vec![p.clone()]).replicate(k - 1);
    let mut ws = Workspace::new(SolveSession::auto(), g, family).unwrap();
    assert_eq!(ws.span().unwrap(), k - 1);
    let (bytes, span) = allocated_by(|| {
        ws.add_path(p).unwrap();
        ws.span().unwrap()
    });
    assert_eq!(span, k, "w = π = k");
    bytes
}

#[test]
fn replicated_chain_allocates_linearly() {
    // Warm-up: the first solve and step start the pool and its threads.
    solve_bytes(10);
    step_bytes(10);
    const MIB: usize = 1 << 20;
    let (solve_small, solve_large) = (solve_bytes(1_000), solve_bytes(4_000));
    let (step_small, step_large) = (step_bytes(1_000), step_bytes(4_000));
    println!(
        "solve: {solve_small} → {solve_large} B; step: {step_small} → {step_large} B (k = 1,000 → 4,000)"
    );
    // k grows 4×: linear memory grows about as much, quadratic 16×.
    assert!(
        solve_large <= 6 * solve_small,
        "solve bytes grew {solve_small} → {solve_large}"
    );
    assert!(
        step_large <= 6 * step_small,
        "step bytes grew {step_small} → {step_large}"
    );
    assert!(solve_large < 2 * MIB, "solve allocated {solve_large} B");
    assert!(step_large < 4 * MIB, "step allocated {step_large} B");
}
