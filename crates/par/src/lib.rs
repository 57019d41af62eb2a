//! A dependency-free scoped fan-out.
//!
//! Built on [`std::thread::scope`], so parallel closures may borrow
//! from the caller's stack: the policy checker fans read-only per-EC
//! walks over an `EcView` snapshot, with no `'static` bound, reference
//! counting or `unsafe`.
//!
//! One primitive, [`par_map`]:
//!
//! * **Chunks in ascending order.** The input is cut with
//!   [`slice::chunks`] into about `CHUNKS_PER_WORKER` (8) chunks per
//!   worker; one mutex-guarded iterator hands them out in ascending
//!   order to the workers, the caller's thread among them.
//! * **Order-preserving results.** Results are reassembled by chunk
//!   index: callers observe exactly the serial output.
//! * **Deterministic panics.** Each chunk runs under one `catch_unwind`.
//!   A panic stops the handing out, but a chunk that has started runs
//!   to its end or its own panic, so every chunk below a panicking one
//!   has run: the payload re-thrown on the caller's thread is always
//!   the lowest-index one, the one a serial loop raises. To a
//!   `catch_unwind`-ing caller (the verifier's transactional apply) a
//!   worker panic looks exactly like a panic in serial code.
//! * **Thread-count knob.** [`threads`] resolves [`set_threads`], else
//!   `RC_THREADS`, else [`std::thread::available_parallelism`]. `1` is
//!   the exact serial path: `f` runs on the caller's thread, in input
//!   order, with no threads, locks or `catch_unwind`.

#![forbid(unsafe_code)]

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Aim for this many chunks per worker, so a worker that finishes early
/// has chunks left to take without making chunks so small that the
/// shared iterator's lock dominates.
const CHUNKS_PER_WORKER: usize = 8;

/// Process-global thread-count override; 0 means "not set".
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);
/// `RC_THREADS`, parsed once on first use.
static ENV_THREADS: OnceLock<Option<usize>> = OnceLock::new();

/// Set the process-global worker count. `n = 1` forces the exact serial
/// path everywhere; `n = 0` clears the override, reverting to
/// `RC_THREADS` / available parallelism.
pub fn set_threads(n: usize) {
    OVERRIDE.store(n, Ordering::Relaxed);
}

/// The resolved worker count: [`set_threads`] override, else the
/// `RC_THREADS` environment variable (read once per process), else
/// [`std::thread::available_parallelism`], else 1.
pub fn threads() -> usize {
    let o = OVERRIDE.load(Ordering::Relaxed);
    if o > 0 {
        return o;
    }
    let env = ENV_THREADS.get_or_init(|| {
        std::env::var("RC_THREADS").ok().and_then(|v| v.parse().ok()).filter(|&n: &usize| n > 0)
    });
    if let Some(n) = *env {
        return n;
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// How one map ran — telemetry material only (results never depend on
/// it).
#[derive(Clone, Debug, Default)]
pub struct PoolStats {
    /// Workers that ran (1 on the serial path).
    pub workers: usize,
    /// Chunks run (items, on the serial path).
    pub tasks: u64,
}

/// Map `f` over `items` on `nthreads` workers, returning results in
/// input order plus the run's [`PoolStats`].
///
/// `nthreads <= 1` (or fewer than two items) is the exact serial path:
/// `f(0, ..), f(1, ..), …` on the caller's thread. Otherwise
/// `min(nthreads, items.len())` workers — the caller's thread and
/// scoped threads spawned for the duration of the call — take chunks
/// in ascending order.
///
/// If any invocation of `f` panics, the panic with the lowest item
/// index is re-thrown on the caller's thread after all workers have
/// stopped: the same payload the serial path raises.
pub fn par_map<T, R, F>(nthreads: usize, items: &[T], f: F) -> (Vec<R>, PoolStats)
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    if nthreads <= 1 || n < 2 {
        let out = items.iter().enumerate().map(|(i, item)| f(i, item)).collect();
        return (out, PoolStats { workers: 1, tasks: n as u64 });
    }

    let workers = nthreads.min(n);
    let chunk = n.div_ceil(workers * CHUNKS_PER_WORKER);
    let queue = Mutex::new(items.chunks(chunk).enumerate());
    let stop = AtomicBool::new(false);
    let worker = || {
        let mut done = Vec::new();
        while !stop.load(Ordering::Relaxed) {
            // Only `next()` runs under the lock and it cannot panic, so
            // a poisoned lock still holds a whole iterator.
            let next = queue.lock().unwrap_or_else(|e| e.into_inner()).next();
            let Some((c, part)) = next else { break };
            let ran = catch_unwind(AssertUnwindSafe(|| {
                let base = c * chunk;
                part.iter().enumerate().map(|(j, item)| f(base + j, item)).collect::<Vec<R>>()
            }));
            stop.fetch_or(ran.is_err(), Ordering::Relaxed);
            done.push((c, ran));
        }
        done
    };

    let mut chunks = std::thread::scope(|s| {
        let spawned: Vec<_> = (1..workers).map(|_| s.spawn(worker)).collect();
        let mut all = worker();
        for handle in spawned {
            all.extend(handle.join().unwrap_or_else(|payload| resume_unwind(payload)));
        }
        all
    });

    // Reassemble in chunk order: scheduling order never leaks out, and
    // the first failed chunk holds the lowest panicking index.
    chunks.sort_unstable_by_key(|&(c, _)| c);
    let stats = PoolStats { workers, tasks: chunks.len() as u64 };
    let mut out = Vec::with_capacity(n);
    for (_, ran) in chunks {
        out.extend(ran.unwrap_or_else(|payload| resume_unwind(payload)));
    }
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    /// Expected `PoolStats::tasks` of a completed map.
    fn expected_tasks(nthreads: usize, n: usize) -> u64 {
        if nthreads <= 1 || n < 2 {
            return n as u64;
        }
        let chunk = n.div_ceil(nthreads.min(n) * CHUNKS_PER_WORKER);
        n.div_ceil(chunk) as u64
    }

    fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
        payload.downcast_ref::<String>().cloned().unwrap_or_default()
    }

    #[test]
    fn sweep_order_exactly_once_and_task_count() {
        for n in 0..=70usize {
            for nthreads in 1..=6 {
                let workers = if nthreads <= 1 || n < 2 { 1 } else { nthreads.min(n) };

                let hits: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
                let items: Vec<usize> = (0..n).map(|i| i * 3).collect();
                let (out, stats) = par_map(nthreads, &items, |i, &x| {
                    assert_eq!(x, i * 3);
                    hits[i].fetch_add(1, Ordering::Relaxed);
                    x + 1
                });
                assert_eq!(out, items.iter().map(|x| x + 1).collect::<Vec<_>>(), "n={n}");
                assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1), "n={n} t={nthreads}");
                assert_eq!(stats.workers, workers, "n={n} t={nthreads}");
                assert_eq!(stats.tasks, expected_tasks(nthreads, n), "n={n} t={nthreads}");
            }
        }
    }

    #[test]
    fn parallel_matches_serial_oracle() {
        let items: Vec<u32> = (0..513).rev().collect();
        let f = |i: usize, &x: &u32| (i as u32).wrapping_mul(31).wrapping_add(x);
        let serial: Vec<u32> = items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
        let (par, _) = par_map(4, &items, f);
        assert_eq!(par, serial);
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        let items: Vec<u32> = (0..100).collect();
        let err = catch_unwind(AssertUnwindSafe(|| {
            par_map(4, &items, |_, &x| {
                if x == 57 {
                    panic!("boom at {x}");
                }
                x
            })
        }))
        .expect_err("panic must cross the pool");
        assert!(panic_message(err).contains("boom at 57"));
    }

    #[test]
    fn serial_path_panics_at_lowest_index() {
        let items: Vec<u32> = (0..100).collect();
        let err = catch_unwind(AssertUnwindSafe(|| {
            par_map(1, &items, |_, &x| {
                if x >= 30 {
                    panic!("first hit {x}");
                }
                x
            })
        }))
        .expect_err("panics");
        assert!(panic_message(err).contains("first hit 30"));
    }

    /// Items 1 and `n − 1` sit in different chunks. Item 0 is slow, so
    /// item `n − 1` usually panics first in wall-clock time; item 1's
    /// payload must be the one re-thrown every time.
    #[test]
    fn lowest_index_panic_wins_every_time() {
        let n = 64;
        let items: Vec<usize> = (0..n).collect();
        for nthreads in [2, 4] {
            for rep in 0..200 {
                let err = catch_unwind(AssertUnwindSafe(|| {
                    par_map(nthreads, &items, |i, _| {
                        if i == 0 {
                            std::thread::sleep(std::time::Duration::from_millis(1));
                        }
                        if i == 1 || i == n - 1 {
                            panic!("boom at {i}");
                        }
                        i
                    })
                }))
                .expect_err("panics");
                let msg = panic_message(err);
                assert_eq!(msg, "boom at 1", "t={nthreads} rep={rep}");
            }
        }
    }

    #[test]
    fn knob_resolution_override_wins() {
        // Serial in tests by default (cargo test parallelism): only the
        // override branch is exercised deterministically.
        set_threads(3);
        assert_eq!(threads(), 3);
        set_threads(1);
        assert_eq!(threads(), 1);
        set_threads(0); // clear: falls back to env / hardware
        assert!(threads() >= 1);
    }
}
