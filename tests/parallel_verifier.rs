//! Verifier-level contract of the parallel phase, the policy checker's
//! walks: a panic on a pool worker mid-change is contained exactly like
//! any other pipeline panic (rolled back + poisoned, never a deadlocked
//! barrier), and a serial and a parallel verifier driven through the
//! same change stream report identical non-timing results.

use std::sync::{Mutex, Once};

use rc_netcfg::gen::{build_configs, ProtocolChoice};
use rc_netcfg::topology::{fat_tree, host_prefix};
use rc_netcfg::DeviceConfig;
use realconfig::{
    ChangeOp, ChangeReport, ChangeSet, Error, PolicyId, RealConfig, VerifierOptions,
};

/// The walk-panic point is a process-global one-shot, and every test
/// here drives changes through the walks that fire it — serialize so an
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

fn build(k: u32, threads: Option<usize>) -> (RealConfig, PolicyId) {
    let opts = VerifierOptions { threads, ..Default::default() };
    let configs = build_configs(&fat_tree(k), ProtocolChoice::Bgp);
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

/// A device with no interfaces and no routes joins. No rule moves, but
/// every EC must be re-analyzed (its packets drop at the new device):
/// on a k=8 fat tree that is 289 ECs, a pass large enough for the pool.
/// (Every pass on a k=4 tree walks on the caller's thread.)
fn add_spare_device(rc: &mut RealConfig) -> Result<ChangeReport, Error> {
    let mut configs = rc.configs().clone();
    configs.insert("spare".into(), DeviceConfig::new("spare"));
    rc.apply_configs(configs)
}

/// Policy walks dispatched to the pool so far.
fn pool_tasks(rc: &RealConfig) -> u64 {
    rc.metrics_snapshot().counters.get("pool.tasks").copied().unwrap_or(0)
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
    let (mut serial, sid) = build(8, Some(1));
    let (mut par, pid) = build(8, Some(4));
    let agree = |serial: &RealConfig,
                 par: &RealConfig,
                 rs: &ChangeReport,
                 rp: &ChangeReport,
                 what: &str| {
        assert_eq!(shape(rs), shape(rp), "{what}: report shape");
        assert_eq!(serial.is_satisfied(sid), par.is_satisfied(pid), "{what}: verdict");
        assert_eq!(serial.fib(), par.fib(), "{what}: FIB");
        assert_eq!(serial.num_pairs(), par.num_pairs(), "{what}: pairs");
    };

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
        agree(&serial, &par, &rs, &rp, &format!("change {i}"));
    }

    // A pass over every EC, which the 4-worker verifier must walk on the
    // pool — or this test compares the serial path with itself.
    let tasks = pool_tasks(&par);
    let rs = add_spare_device(&mut serial).expect("serial device change verifies");
    let rp = add_spare_device(&mut par).expect("parallel device change verifies");
    assert!(pool_tasks(&par) > tasks, "a pass over every EC must reach the pool");
    assert_eq!(pool_tasks(&serial), 0, "one worker never dispatches");
    agree(&serial, &par, &rs, &rp, "device change");
}

#[test]
fn worker_panic_poisons_and_rebuild_recovers() {
    let _serial_tests = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    quiet_injected_panics();

    let (mut rc, id) = build(8, Some(4));
    let (mut twin, tid) = build(8, Some(4));

    // Arm for whatever EC the change walks first — on whichever pool
    // worker the scheduler picks.
    rc_faults::arm_walk_panic_any();
    let result = add_spare_device(&mut rc);
    rc_faults::disarm_walk_panic();
    let msg = match result {
        Err(Error::Internal(msg)) => msg,
        other => panic!("expected Internal from worker panic, got: {other:?}"),
    };
    assert!(msg.starts_with(rc_faults::INJECTED_PANIC_PREFIX), "got: {msg:?}");

    // Contained like any stage panic: observables rolled back, verifier
    // poisoned; a rebuild (whose walks run on the pool again) recovers.
    assert_eq!(rc.configs(), twin.configs(), "configs rolled back");
    assert_eq!(rc.is_satisfied(id), twin.is_satisfied(tid), "verdict rolled back");
    assert!(rc.needs_rebuild(), "worker panic must poison");
    rc.rebuild().expect("rebuild succeeds");

    // The same change, now going through, is walked on the pool: so was
    // the one that panicked.
    let tasks = pool_tasks(&rc);
    add_spare_device(&mut rc).expect("change verifies after rebuild");
    assert!(pool_tasks(&rc) > tasks, "the panicking pass must have been on the pool");
    add_spare_device(&mut twin).expect("change verifies on twin");
    assert_eq!(rc.fib(), twin.fib(), "after post-rebuild change: FIB");
    assert_eq!(rc.is_satisfied(id), twin.is_satisfied(tid), "after post-rebuild change");
}

/// The adaptive serial fallback must actually fire on small work items:
/// a single-link change on a k=4 fat tree touches only a handful of
/// ECs, so a 4-worker verifier must walk them inline (and count it)
/// rather than pay pool setup.
#[test]
fn small_work_items_are_inlined_not_dispatched() {
    let _serial_tests = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (mut rc, _) = build(4, Some(4));

    let change = ChangeSet::link_failure("pod00-edge00", "eth0");
    rc.apply_change(&change).expect("change verifies");

    let m = rc.metrics_snapshot();
    let inlined = m.counters.get("par.small_tasks_inlined").copied().unwrap_or(0);
    assert!(inlined > 0, "small change at 4 workers must take the inline fallback");
}
