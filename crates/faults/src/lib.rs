//! Deterministic fault injection for the RealConfig pipeline.
//!
//! The verifier's recovery machinery (transactional apply, poisoning,
//! the full-rebuild fallback — see `realconfig::RealConfig`) is only
//! trustworthy if every failure path can be exercised on demand. This
//! crate provides the substrate: a thread-local [`FaultPlan`] naming
//! *where* (a [`FaultPoint`] — one per pipeline stage boundary), *when*
//! (the Nth time that point is reached) and *how* (return an error, or
//! panic) a fault fires.
//!
//! The hooks are `#[cfg]`-free runtime checks compiled into the
//! production binaries: with no plan installed, [`fire`] is a
//! thread-local load and an `Option` test — far below the noise floor
//! of the stages it guards. Tests install a plan (ideally through the
//! RAII [`FaultGuard`]), drive the verifier, and get byte-for-byte
//! reproducible failures.
//!
//! Fault plans are strictly thread-local: concurrent verifiers on other
//! threads are never affected, and `cargo test`'s default parallelism
//! is safe.
//!
//! # Example
//!
//! ```
//! use rc_faults::{FaultPlan, FaultPoint};
//!
//! // Fail the second engine apply with an error, panic in the first
//! // policy check.
//! let _guard = FaultPlan::new()
//!     .error_on(FaultPoint::EngineApply, 2)
//!     .panic_on(FaultPoint::PolicyCheck, 1)
//!     .install();
//! assert!(!rc_faults::fire(FaultPoint::EngineApply)); // 1st: passes
//! assert!(rc_faults::fire(FaultPoint::EngineApply)); // 2nd: fires
//! assert!(!rc_faults::fire(FaultPoint::EngineApply)); // one-shot
//! ```

#![forbid(unsafe_code)]

use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// An instrumented point in the verification pipeline: one per stage
/// boundary of the paper's three-stage pipeline, the persistence I/O
/// points, and one inside stage 1's epoch.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum FaultPoint {
    /// Entry of `RoutingEngine::apply` (stage 1, incremental data plane
    /// generation). Fires *before* the engine ingests the fact delta,
    /// so an injected error models a divergence detected with the
    /// engine's own state still untouched.
    EngineApply,
    /// Before each operator step of the dataflow engine (stage 1,
    /// inside an epoch). Unlike [`FaultPoint::EngineApply`] it can fire
    /// after earlier steps have written their traces, so the engine is
    /// left half-way through an epoch. It has no error channel: an
    /// error-mode fault here escalates to a panic.
    DataflowStep,
    /// Entry of `ApkModel::apply_batch` (stage 2, incremental data
    /// plane model update). Stage 1 has already committed its delta
    /// when this fires.
    ApkBatch,
    /// Entry of `PolicyChecker::check_incremental` (stage 3,
    /// incremental policy checking). Stages 1 and 2 have committed.
    PolicyCheck,
    /// End of a policy checking pass (full or incremental), after it
    /// has overwritten the verdicts of the policies it re-evaluated —
    /// the one fault after which the verifier must put verdicts back.
    PolicyVerdicts,
    /// Inside `rc_store::atomic_write`: the destination is clobbered
    /// with a prefix of the new bytes and the write errors — the torn
    /// file a crashed *naive* writer would leave behind, which
    /// recovery must detect by checksum and survive.
    StoreTornWrite,
    /// Inside `rc_store::Journal::append`: only a prefix of the record
    /// reaches the file before the append errors, leaving a torn
    /// journal tail (the expected artifact of a crash mid-append).
    StorePartialAppend,
    /// Inside `rc_store::read_file`: one bit of the buffer is flipped
    /// after a successful read, modeling silent media corruption that
    /// only a checksum can catch.
    StoreBitFlipRead,
    /// Inside the `rc_store` write paths: the fsync fails (full disk,
    /// dying device) after the data was handed to the OS — the caller
    /// must treat the write as not durable.
    StoreFsyncFail,
}

impl FaultPoint {
    /// All instrumented points: the three pipeline stage boundaries in
    /// pipeline order, the end of stage 3, the persistence I/O points,
    /// then the dataflow engine's per-step point.
    pub const ALL: [FaultPoint; 9] = [
        FaultPoint::EngineApply,
        FaultPoint::ApkBatch,
        FaultPoint::PolicyCheck,
        FaultPoint::PolicyVerdicts,
        FaultPoint::StoreTornWrite,
        FaultPoint::StorePartialAppend,
        FaultPoint::StoreBitFlipRead,
        FaultPoint::StoreFsyncFail,
        FaultPoint::DataflowStep,
    ];

    /// The pipeline stage boundaries only (the points the in-memory
    /// chaos suites rotate through).
    pub const PIPELINE: [FaultPoint; 3] =
        [FaultPoint::EngineApply, FaultPoint::ApkBatch, FaultPoint::PolicyCheck];

    /// The persistence I/O points only (the points the crash-recovery
    /// chaos suites rotate through).
    pub const STORE: [FaultPoint; 4] = [
        FaultPoint::StoreTornWrite,
        FaultPoint::StorePartialAppend,
        FaultPoint::StoreBitFlipRead,
        FaultPoint::StoreFsyncFail,
    ];

    fn index(self) -> usize {
        match self {
            FaultPoint::EngineApply => 0,
            FaultPoint::ApkBatch => 1,
            FaultPoint::PolicyCheck => 2,
            FaultPoint::PolicyVerdicts => 3,
            FaultPoint::StoreTornWrite => 4,
            FaultPoint::StorePartialAppend => 5,
            FaultPoint::StoreBitFlipRead => 6,
            FaultPoint::StoreFsyncFail => 7,
            FaultPoint::DataflowStep => 8,
        }
    }
}

impl fmt::Display for FaultPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultPoint::EngineApply => write!(f, "engine apply (stage 1)"),
            FaultPoint::DataflowStep => write!(f, "dataflow operator step (stage 1)"),
            FaultPoint::ApkBatch => write!(f, "apkeep batch (stage 2)"),
            FaultPoint::PolicyCheck => write!(f, "policy check (stage 3)"),
            FaultPoint::PolicyVerdicts => write!(f, "policy verdicts written (stage 3)"),
            FaultPoint::StoreTornWrite => write!(f, "store torn write"),
            FaultPoint::StorePartialAppend => write!(f, "store partial journal append"),
            FaultPoint::StoreBitFlipRead => write!(f, "store bit flip on read"),
            FaultPoint::StoreFsyncFail => write!(f, "store fsync failure"),
        }
    }
}

/// How an injected fault manifests.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultMode {
    /// [`fire`] returns `true`; the instrumented stage surfaces its
    /// error-channel failure (the routing engine returns a divergence
    /// error). At points with no error channel (stages 2 and 3 return
    /// plain reports), the stage escalates to a panic — the verifier's
    /// panic containment must handle it either way.
    Error,
    /// [`fire`] panics with a recognizable `"injected fault: …"`
    /// message.
    Panic,
}

/// Marker prefix of every injected panic message, so test panic hooks
/// can tell injected faults from genuine bugs.
pub const INJECTED_PANIC_PREFIX: &str = "injected fault:";

#[derive(Clone, Debug)]
struct Spec {
    point: FaultPoint,
    nth: u64,
    mode: FaultMode,
    fired: bool,
}

/// A deterministic schedule of faults: each entry fires exactly once,
/// the Nth time its point is reached after [`FaultPlan::install`] (or
/// [`install`]). Counts are per-point and 1-based.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    specs: Vec<Spec>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Fire an error-mode fault the `nth` time `point` is reached.
    pub fn error_on(mut self, point: FaultPoint, nth: u64) -> Self {
        self.specs.push(Spec { point, nth, mode: FaultMode::Error, fired: false });
        self
    }

    /// Fire a panic the `nth` time `point` is reached.
    pub fn panic_on(mut self, point: FaultPoint, nth: u64) -> Self {
        self.specs.push(Spec { point, nth, mode: FaultMode::Panic, fired: false });
        self
    }

    /// Fire a fault of `mode` the `nth` time `point` is reached.
    pub fn fault_on(mut self, point: FaultPoint, nth: u64, mode: FaultMode) -> Self {
        self.specs.push(Spec { point, nth, mode, fired: false });
        self
    }

    /// Install this plan on the current thread, replacing any previous
    /// plan and resetting all hit counters. Returns an RAII guard that
    /// clears the plan when dropped.
    pub fn install(self) -> FaultGuard {
        install(self);
        FaultGuard { _private: () }
    }
}

/// Clears the thread's fault plan on drop.
#[must_use = "dropping the guard immediately clears the plan"]
pub struct FaultGuard {
    _private: (),
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        clear();
    }
}

struct Active {
    plan: FaultPlan,
    hits: [u64; FaultPoint::ALL.len()],
    injected: u64,
}

thread_local! {
    static ACTIVE: RefCell<Option<Active>> = const { RefCell::new(None) };
}

/// Install `plan` on the current thread (see [`FaultPlan::install`] for
/// the RAII variant). Resets hit and injection counters.
pub fn install(plan: FaultPlan) {
    ACTIVE.with(|a| {
        *a.borrow_mut() =
            Some(Active { plan, hits: [0; FaultPoint::ALL.len()], injected: 0 })
    });
}

/// Remove the current thread's fault plan, if any.
pub fn clear() {
    ACTIVE.with(|a| *a.borrow_mut() = None);
}

/// Whether a plan is installed on this thread.
pub fn is_active() -> bool {
    ACTIVE.with(|a| a.borrow().is_some())
}

/// Faults injected (fired) since the plan was installed.
pub fn injected_count() -> u64 {
    ACTIVE.with(|a| a.borrow().as_ref().map_or(0, |act| act.injected))
}

/// Times `point` has been reached since the plan was installed.
pub fn hit_count(point: FaultPoint) -> u64 {
    ACTIVE.with(|a| a.borrow().as_ref().map_or(0, |act| act.hits[point.index()]))
}

/// The pipeline hook. Instrumented stages call this at their entry:
/// returns `true` when an error-mode fault fires (the stage must
/// surface an error), panics for panic-mode faults, and returns `false`
/// — at the cost of one thread-local read — otherwise.
pub fn fire(point: FaultPoint) -> bool {
    ACTIVE.with(|a| {
        let mut borrow = a.borrow_mut();
        let Some(act) = borrow.as_mut() else { return false };
        let idx = point.index();
        act.hits[idx] += 1;
        let n = act.hits[idx];
        for spec in &mut act.plan.specs {
            if !spec.fired && spec.point == point && spec.nth == n {
                spec.fired = true;
                act.injected += 1;
                match spec.mode {
                    FaultMode::Error => return true,
                    FaultMode::Panic => {
                        // Release the borrow before unwinding so a
                        // catch_unwind-ed caller can keep using the
                        // thread-local.
                        drop(borrow);
                        panic!("{INJECTED_PANIC_PREFIX} panic at {point} (occurrence {n})");
                    }
                }
            }
        }
        false
    })
}

/// Process-global one-shot walk-panic point.
///
/// [`FaultPlan`]s are strictly thread-local, which is exactly wrong for
/// the one place the pipeline fans work out to pool workers: the policy
/// checker's per-EC forwarding walks. To prove a panic on a *non-main*
/// worker still poisons the verifier (instead of deadlocking or being
/// swallowed), tests arm this global point with a target EC id; the
/// first walk of that EC — on whichever thread the pool scheduled it —
/// panics with the [`INJECTED_PANIC_PREFIX`] marker, and the point
/// disarms itself atomically so the post-recovery rebuild walks clean.
///
/// `u64::MAX` means disarmed; EC ids are `u32`, so every real id fits,
/// and [`WALK_WILDCARD`] ("the next walk of *any* EC") fits in between.
static WALK_PANIC_TARGET: AtomicU64 = AtomicU64::new(u64::MAX);

const WALK_WILDCARD: u64 = u64::MAX - 1;

/// Arm the global walk-panic point for EC `ec` (one-shot; replaces any
/// previously armed target).
pub fn arm_walk_panic(ec: u32) {
    WALK_PANIC_TARGET.store(ec as u64, Ordering::SeqCst);
}

/// Arm the global walk-panic point for the next walk of *any* EC — for
/// callers that cannot predict which EC ids a change will touch.
pub fn arm_walk_panic_any() {
    WALK_PANIC_TARGET.store(WALK_WILDCARD, Ordering::SeqCst);
}

/// Disarm the global walk-panic point (idempotent; for test cleanup
/// when the armed EC was never walked).
pub fn disarm_walk_panic() {
    WALK_PANIC_TARGET.store(u64::MAX, Ordering::SeqCst);
}

/// The walk hook. The policy checker calls this at the top of every
/// per-EC forwarding walk, on whatever worker thread runs it. Disarmed
/// (the overwhelmingly common case) it is a single relaxed atomic load.
/// If armed for `ec`, exactly one caller wins the disarming
/// compare-exchange and panics with the injected-fault marker.
pub fn fire_walk(ec: u32) {
    let armed = WALK_PANIC_TARGET.load(Ordering::Relaxed);
    if armed != ec as u64 && armed != WALK_WILDCARD {
        return;
    }
    if WALK_PANIC_TARGET
        .compare_exchange(armed, u64::MAX, Ordering::SeqCst, Ordering::SeqCst)
        .is_ok()
    {
        panic!("{INJECTED_PANIC_PREFIX} panic in forwarding walk of EC {ec}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_plan_never_fires() {
        clear();
        assert!(!fire(FaultPoint::EngineApply));
        assert!(!is_active());
        assert_eq!(injected_count(), 0);
    }

    #[test]
    fn error_fault_fires_once_on_the_nth_hit() {
        let _g = FaultPlan::new().error_on(FaultPoint::ApkBatch, 3).install();
        assert!(!fire(FaultPoint::ApkBatch));
        assert!(!fire(FaultPoint::ApkBatch));
        assert!(fire(FaultPoint::ApkBatch));
        assert!(!fire(FaultPoint::ApkBatch), "one-shot");
        assert_eq!(hit_count(FaultPoint::ApkBatch), 4);
        assert_eq!(injected_count(), 1);
    }

    #[test]
    fn points_count_independently() {
        let _g = FaultPlan::new()
            .error_on(FaultPoint::EngineApply, 1)
            .error_on(FaultPoint::PolicyCheck, 2)
            .install();
        assert!(fire(FaultPoint::EngineApply));
        assert!(!fire(FaultPoint::PolicyCheck));
        assert!(fire(FaultPoint::PolicyCheck));
    }

    #[test]
    fn panic_fault_panics_with_marker() {
        let _g = FaultPlan::new().panic_on(FaultPoint::PolicyCheck, 1).install();
        let err = std::panic::catch_unwind(|| fire(FaultPoint::PolicyCheck))
            .expect_err("must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.starts_with(INJECTED_PANIC_PREFIX), "got: {msg}");
        // The thread-local stays usable after the unwind.
        assert!(!fire(FaultPoint::PolicyCheck));
        assert_eq!(injected_count(), 1);
    }

    #[test]
    fn guard_clears_on_drop() {
        {
            let _g = FaultPlan::new().error_on(FaultPoint::EngineApply, 1).install();
            assert!(is_active());
        }
        assert!(!is_active());
        assert!(!fire(FaultPoint::EngineApply));
    }

    /// The walk point is process-global; serialize the tests that use
    /// it (the harness runs tests on parallel threads).
    static WALK_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn walk_panic_is_targeted_and_one_shot() {
        let _l = WALK_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        disarm_walk_panic();
        fire_walk(7); // disarmed: no-op
        arm_walk_panic(7);
        fire_walk(3); // wrong EC: no-op
        let err = std::panic::catch_unwind(|| fire_walk(7)).expect_err("must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.starts_with(INJECTED_PANIC_PREFIX), "got: {msg}");
        fire_walk(7); // self-disarmed: no-op
    }

    #[test]
    fn walk_panic_wildcard_hits_the_next_walk() {
        let _l = WALK_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        disarm_walk_panic();
        arm_walk_panic_any();
        let err = std::panic::catch_unwind(|| fire_walk(42)).expect_err("must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.starts_with(INJECTED_PANIC_PREFIX), "got: {msg}");
        fire_walk(42); // one-shot
    }

    #[test]
    fn reinstall_resets_counters() {
        let _g = FaultPlan::new().error_on(FaultPoint::EngineApply, 2).install();
        assert!(!fire(FaultPoint::EngineApply));
        let _g = FaultPlan::new().error_on(FaultPoint::EngineApply, 2).install();
        assert!(!fire(FaultPoint::EngineApply), "counter restarted");
        assert!(fire(FaultPoint::EngineApply));
    }
}
