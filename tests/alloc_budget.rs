//! Heap allocations per play of the distributed authority, against a
//! budget.
//!
//! A timer drifts with the host; an allocation count does not. This test
//! binary installs a counting global allocator that delegates to
//! [`System`], runs warm all-honest plays at `(4, 1)` and `(10, 3)` on a
//! complete graph, and fails when a play makes more allocations than its
//! budget: the count measured when the budget was set, plus 10 %. A
//! change that puts a per-message or per-part allocation back on the
//! agreement path fails here by name.
//!
//! The `unsafe impl GlobalAlloc` below is the allocator interface itself.
//! It lives in this test crate, not in any library under `crates/*/src`,
//! so the library crates keep `#![forbid(unsafe_code)]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use game_authority_suite::authority::distributed::AuthorityCluster;
use game_authority_suite::games::congestion;
use game_authority_suite::simnet::prelude::*;

/// Counts every allocation and reallocation, then lets [`System`] do it.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a relaxed atomic add.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations per play of a warm all-honest `(n, f)` cluster: the mean
/// over `plays` plays after two warm-up plays.
fn allocations_per_play(n: usize, f: usize, plays: u64) -> u64 {
    let cluster = AuthorityCluster::new(congestion(n), f);
    let play_len = cluster.play_len();
    let mut sim = Simulation::builder(Topology::complete(n))
        .seed(1)
        .build_with(|id| cluster.process(id.index(), 1));
    sim.run(2 * play_len);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    sim.run(plays * play_len);
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    (after - before) / plays
}

/// One test, so no other test thread allocates while a count is taken.
#[test]
fn a_play_stays_within_its_allocation_budget() {
    // Measured when an honest agreement round became one short frame,
    // whose receipt builds no list of parts (249 and 1642 before).
    for (n, f, measured) in [(4, 1, 225), (10, 3, 1502)] {
        let per_play = allocations_per_play(n, f, 4);
        eprintln!("(n={n}, f={f}): {per_play} allocations per play");
        let budget = measured + measured / 10;
        assert!(
            per_play <= budget,
            "(n={n}, f={f}): {per_play} allocations per play, budget {budget} \
             ({measured} measured + 10 %)"
        );
    }
}
