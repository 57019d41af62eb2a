//! Verifier-level contract of the parallel phases: a panic on a pool
//! worker mid-change — in a policy walk or a dataflow operator shard —
//! is contained exactly like any other pipeline panic (rolled back +
//! poisoned, never a deadlocked barrier), and a serial and a parallel
//! verifier driven through the same change stream report identical
//! non-timing results.

use std::sync::{Mutex, Once};

use rc_netcfg::gen::{build_configs, ProtocolChoice};
use rc_netcfg::topology::{fat_tree, host_prefix};
use realconfig::{
    ChangeOp, ChangeReport, ChangeSet, Error, PolicyId, RealConfig, VerifierOptions,
};

/// The fault points are process-global one-shots, and every test here
/// drives changes through the stages that fire them — serialize so an
/// armed point cannot trip inside a concurrently running test.
static FAULT_LOCK: Mutex<()> = Mutex::new(());

/// Silence the default panic hook for injected-fault panics only.
fn quiet_injected_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|s| s.starts_with(rc_faults::INJECTED_PANIC_PREFIX));
            if !injected {
                default(info);
            }
        }));
    });
}

fn build(threads: Option<usize>) -> (RealConfig, PolicyId) {
    let opts = VerifierOptions { threads, ..Default::default() };
    let configs = build_configs(&fat_tree(4), ProtocolChoice::Bgp);
    let (mut rc, _) = RealConfig::with_options(configs, opts).expect("fat tree verifies");
    let id = rc
        .require_reachability("pod00-edge00", "pod01-edge00", host_prefix(2))
        .expect("devices exist");
    rc.recheck_policies();
    (rc, id)
}

fn link_restore(device: &str, iface: &str) -> ChangeSet {
    ChangeSet {
        ops: vec![ChangeOp::EnableInterface { device: device.into(), iface: iface.into() }],
    }
}

/// Everything in a [`ChangeReport`] except wall-clock timings and the
/// metrics snapshot (which contains latency histograms).
fn shape(r: &ChangeReport) -> impl PartialEq + std::fmt::Debug {
    (
        (r.lines_inserted, r.lines_deleted, r.fact_changes, r.dp_records),
        (r.rules_inserted, r.rules_removed, r.ec_moves, r.ec_splits, r.affected_ecs),
        (r.affected_pairs, r.changed_pairs, r.total_pairs, r.policies_checked),
        (r.newly_violated.clone(), r.newly_satisfied.clone(), r.recovered),
    )
}

#[test]
fn serial_and_parallel_verifiers_agree() {
    let _serial_tests = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (mut serial, sid) = build(Some(1));
    let (mut par, pid) = build(Some(4));

    let changes = [
        ChangeSet::link_failure("pod00-edge00", "eth0"),
        link_restore("pod00-edge00", "eth0"),
        ChangeSet::link_failure("pod00-aggr00", "eth0"),
        ChangeSet::link_failure("pod01-aggr00", "eth0"),
        link_restore("pod00-aggr00", "eth0"),
        link_restore("pod01-aggr00", "eth0"),
    ];
    for (i, cs) in changes.iter().enumerate() {
        let rs = serial.apply_change(cs).expect("serial change verifies");
        let rp = par.apply_change(cs).expect("parallel change verifies");
        assert_eq!(shape(&rs), shape(&rp), "change {i}: report shape");
        assert_eq!(serial.is_satisfied(sid), par.is_satisfied(pid), "change {i}: verdict");
        assert_eq!(serial.fib(), par.fib(), "change {i}: FIB");
        assert_eq!(serial.num_pairs(), par.num_pairs(), "change {i}: pairs");
    }
}

#[test]
fn worker_panic_poisons_and_rebuild_recovers() {
    let _serial_tests = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    quiet_injected_panics();

    let (mut rc, id) = build(Some(4));
    let (mut twin, tid) = build(Some(4));

    // Arm for whatever EC the change walks first — on whichever pool
    // worker the scheduler picks.
    rc_faults::arm_walk_panic_any();
    let change = ChangeSet::link_failure("pod00-edge00", "eth0");
    let msg = match rc.apply_change(&change) {
        Err(Error::Internal(msg)) => msg,
        other => panic!("expected Internal from worker panic, got: {other:?}"),
    };
    assert!(msg.starts_with(rc_faults::INJECTED_PANIC_PREFIX), "got: {msg:?}");
    rc_faults::disarm_walk_panic();

    // Contained like any stage panic: observables rolled back, verifier
    // poisoned; a rebuild (whose walks run on the pool again) recovers.
    assert_eq!(rc.configs(), twin.configs(), "configs rolled back");
    assert_eq!(rc.is_satisfied(id), twin.is_satisfied(tid), "verdict rolled back");
    assert!(rc.needs_rebuild(), "worker panic must poison");
    rc.rebuild().expect("rebuild succeeds");

    rc.apply_change(&change).expect("change verifies after rebuild");
    twin.apply_change(&change).expect("change verifies on twin");
    assert_eq!(rc.fib(), twin.fib(), "after post-rebuild change: FIB");
    assert_eq!(rc.is_satisfied(id), twin.is_satisfied(tid), "after post-rebuild change");
}

/// Drive `rc` into the armed one-shot shard panic at `site` and assert
/// the containment contract end to end: the panic surfaces as
/// [`Error::Internal`] carrying the injected marker (so the test fails
/// loudly if the parallel path never engaged), observables roll back to
/// the `twin`'s, the verifier is poisoned rather than deadlocked on a
/// barrier, and a rebuild — whose shards run on the pool again —
/// recovers to full agreement with the twin.
fn assert_shard_panic_contained(
    site: rc_faults::ShardSite,
    (mut rc, id): (RealConfig, PolicyId),
    (mut twin, tid): (RealConfig, PolicyId),
) {
    quiet_injected_panics();

    rc_faults::arm_shard_panic(site);
    let change = ChangeSet::link_failure("pod00-edge00", "eth0");
    let result = rc.apply_change(&change);
    // The point disarms itself when it fires; disarm defensively so a
    // failing assertion below cannot leave it armed for other tests.
    rc_faults::disarm_shard_panic(site);
    let msg = match result {
        Err(Error::Internal(msg)) => msg,
        other => panic!("expected Internal from {site:?} shard panic, got: {other:?}"),
    };
    assert!(msg.starts_with(rc_faults::INJECTED_PANIC_PREFIX), "got: {msg:?}");

    // Contained like any stage panic: observables rolled back, verifier
    // poisoned, and the pool barrier was released (we got here at all).
    assert_eq!(rc.configs(), twin.configs(), "configs rolled back");
    assert_eq!(rc.is_satisfied(id), twin.is_satisfied(tid), "verdict rolled back");
    assert!(rc.needs_rebuild(), "{site:?} shard panic must poison");
    rc.rebuild().expect("rebuild succeeds");

    rc.apply_change(&change).expect("change verifies after rebuild");
    twin.apply_change(&change).expect("change verifies on twin");
    assert_eq!(rc.fib(), twin.fib(), "after post-rebuild change: FIB");
    assert_eq!(rc.is_satisfied(id), twin.is_satisfied(tid), "after post-rebuild change");
}

/// The adaptive serial fallback must actually fire on small work items:
/// a single-link change on a k=4 fat tree routes far fewer than the
/// dispatch threshold's records per operator step and touches only a
/// handful of ECs, so a 4-worker verifier must inline that work (and
/// count it) rather than pay pool setup.
#[test]
fn small_work_items_are_inlined_not_dispatched() {
    let _serial_tests = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (mut rc, _) = build(Some(4));

    let change = ChangeSet::link_failure("pod00-edge00", "eth0");
    rc.apply_change(&change).expect("change verifies");

    let m = rc.metrics_snapshot();
    let inlined = m.counters.get("par.small_tasks_inlined").copied().unwrap_or(0);
    assert!(inlined > 0, "small change at 4 workers must take the inline fallback");
}

#[test]
fn dataflow_shard_panic_poisons_and_rebuild_recovers() {
    let _serial_tests = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // The dataflow shard hook fires in every dispatch mode (serial,
    // inlined, pool), so the stock harness reaches it on the first
    // operator step of the change.
    assert_shard_panic_contained(rc_faults::ShardSite::Dataflow, build(Some(4)), build(Some(4)));
}
