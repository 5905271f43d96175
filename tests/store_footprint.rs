//! Memory budget of the analysis store.
//!
//! The store is the server state that grows with use, up to `STORE_CAPACITY`
//! (256) analyses, past which it evicts by CLOCK. An entry holds
//! the analysis in its replay form (the flat BTU encoding, whose trace
//! records also carry the Table 1 sizes, plus the program name and
//! timing), not the full Algorithm 2 output, so its size is bounded by the
//! compressed traces rather than by the vanilla traces. This test
//! counts live heap bytes with a wrapping global allocator, analyzes a
//! fixed sample of kernels through one store, and holds the mean bytes the
//! store keeps per entry under a budget.
//!
//! The binary holds exactly one `#[test]` so no concurrent test pollutes
//! the global counter.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use cassandra::core::eval::AnalysisStore;

/// Tracks live heap bytes without changing behavior.
struct CountingAlloc;

static LIVE: AtomicIsize = AtomicIsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Mean bytes one stored analysis may keep. The flat replay form measures
/// 579 bytes per entry on this sample (x86-64 Linux). The same encoding
/// held in per-branch tree maps took 1,765, and keeping every branch's
/// vanilla and k-mers traces as well took 7,652.
const BUDGET_BYTES_PER_ENTRY: usize = 800;

fn live_bytes() -> isize {
    LIVE.load(Ordering::Relaxed)
}

#[test]
fn stored_analyses_stay_within_the_per_entry_budget() {
    let sample = common::submit_sample();
    // A throwaway analysis absorbs one-time lazy initialization.
    let warm = &sample[0].kernel;
    AnalysisStore::new()
        .entry(&warm.program, warm.step_limit)
        .expect("warm-up analysis");

    let before = live_bytes();
    let store = AnalysisStore::new();
    for workload in &sample {
        let kernel = &workload.kernel;
        store
            .entry(&kernel.program, kernel.step_limit)
            .expect("sample kernels analyze");
    }
    let retained = usize::try_from(live_bytes() - before).unwrap_or(0);
    assert_eq!(
        store.len(),
        sample.len(),
        "every sample program is distinct"
    );
    let per_entry = retained / store.len();
    assert!(
        per_entry <= BUDGET_BYTES_PER_ENTRY,
        "the store keeps {per_entry} bytes per analysis ({retained} bytes for {} entries), \
         over the budget of {BUDGET_BYTES_PER_ENTRY}",
        store.len()
    );
    drop(store);
}
