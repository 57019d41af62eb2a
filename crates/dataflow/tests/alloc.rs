//! Heap allocations of a steady-state `reduce` step.
//!
//! A counting global allocator measures one `advance()` that replaces one
//! value at each of 1 000 keys of a top-level reduce, after warm-up
//! epochs have brought every trace to its steady shape. What may remain
//! per touched key is the user closure's result `Vec`; the rest is per
//! step (batches, staging), amortized over all keys. A trace that
//! allocated its fold buffers, or accumulations that returned fresh
//! `Vec`s, costs several allocations per key and fails the bound: the
//! engine before in-place folds and caller buffers made 10.3 per key
//! here, the engine with them 1.2.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use rc_dataflow::Dataflow;

struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Counts only on the thread that asked, so the test harness's own
    /// threads do not show up.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.with(|c| c.get()) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.with(|c| c.get()) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (and reallocations) made by `f` on this thread.
fn count_allocs<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = ALLOCS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    let r = f();
    COUNTING.with(|c| c.set(false));
    (r, ALLOCS.load(Ordering::Relaxed) - before)
}

const KEYS: u32 = 1_000;

/// Allocations per touched key allowed in the measured epoch: the
/// closure's result, with room for per-step buffers.
const PER_KEY_BOUND: f64 = 2.0;

#[test]
fn steady_reduce_epoch_allocates_little_per_key() {
    let mut df = Dataflow::new();
    let (input, values) = df.input::<(u32, u32)>();
    // Two smallest values per key: multi-valued output, so the output
    // trace folds more than one record per key.
    let mut out = values
        .reduce_named("two-smallest", |_, vals| vals.iter().take(2).map(|(v, _)| (*v, 1)).collect())
        .output();
    for k in 0..KEYS {
        input.insert((k, 0));
        input.insert((k, 1_000));
    }
    df.advance().unwrap();
    out.drain();
    // Warm-up: every key's traces fold and settle into their steady size.
    let value = |round: u32, k: u32| 1 + (round + k) % 500;
    for round in 0..6 {
        for k in 0..KEYS {
            if round > 0 {
                input.remove((k, value(round - 1, k)));
            }
            input.insert((k, value(round, k)));
        }
        df.advance().unwrap();
        out.drain();
    }
    for k in 0..KEYS {
        input.remove((k, value(5, k)));
        input.insert((k, value(6, k)));
    }
    let (stats, allocs) = count_allocs(|| df.advance().unwrap());
    let changes = out.drain();
    assert_eq!(changes.len(), 2 * KEYS as usize, "each key swaps its second-smallest value");
    let per_key = allocs as f64 / KEYS as f64;
    let records = stats.records;
    println!("{allocs} allocations for {KEYS} keys ({per_key:.2} per key), {records} records");
    assert!(
        per_key <= PER_KEY_BOUND,
        "{allocs} allocations in one epoch over {KEYS} keys: {per_key:.2} per key > {PER_KEY_BOUND}"
    );
}
