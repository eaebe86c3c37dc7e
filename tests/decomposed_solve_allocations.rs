//! The allocations one decomposed solve makes per shard. `federated(1,024)`
//! glues 1,024 shards of six distinct contents: the component scan writes
//! one member list per shard, and everything else a shard costs (its
//! content key, its report, its share of the merged attempt list) must
//! reuse buffers or share the one solve of its content group.
//!
//! The counting allocator sees every allocation of the process, so this
//! binary holds this one test and nothing runs beside it. The solve runs
//! on a one-thread budget, so the count is the library's alone and
//! repeats exactly whatever the pool size.

use dagwave_core::{DecomposePolicy, SolverBuilder};
use dagwave_gen::compose::federated;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Allocation calls so far (a reallocation counts as one).
static CALLS: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call forwards to `System` with the caller's arguments.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn decomposed_solve_allocates_at_most_three_times_per_shard() {
    const SHARDS: usize = 1_024;
    let inst = federated(SHARDS);
    let (g, family) = (&inst.graph, &inst.family);
    let session = SolverBuilder::new()
        .decompose(DecomposePolicy::Always)
        .build();
    let one_thread = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("shim pools are infallible");
    let (calls, sol) = one_thread.install(|| {
        // Warm-up: the first solve builds the graph's adjacency.
        session.solve(g, family).unwrap();
        let before = CALLS.load(Ordering::Relaxed);
        let sol = session.solve(g, family).unwrap();
        (CALLS.load(Ordering::Relaxed) - before, sol)
    });
    let shards = sol.decomposition.as_ref().map_or(0, |d| d.shard_count());
    assert_eq!(shards, SHARDS);
    println!(
        "{calls} allocations for {shards} shards ({:.2} per shard)",
        calls as f64 / shards as f64
    );
    assert!(
        calls <= 3 * shards,
        "{calls} allocations for {shards} shards"
    );
}
