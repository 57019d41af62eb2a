//! Satellite contract: every [`realconfig::Error`] variant leaves
//! configs, facts, warnings and policy verdicts at the last good set. A
//! never-failed twin verifier is the oracle: after each rejected change
//! the failed verifier must look exactly like the twin — for
//! pre-pipeline failures down to the FIB; for mid-pipeline faults in
//! those four, with the pipeline accessors following once the poisoned
//! verifier is rebuilt (a rebuild is the only rollback of stage state).

use std::collections::BTreeMap;

use rc_netcfg::gen::{build_configs, ProtocolChoice};
use rc_netcfg::topology::{host_prefix, ring};
use rc_netcfg::DeviceConfig;
use realconfig::{
    ChangeReport, ChangeSet, Error, OnFailure, PolicyId, RealConfig, VerifierOptions,
};

fn net() -> BTreeMap<String, DeviceConfig> {
    build_configs(&ring(4), ProtocolChoice::Ospf)
}

/// Build a verifier with one standing reachability policy.
fn build() -> (RealConfig, PolicyId) {
    build_with(OnFailure::Poison)
}

fn build_with(on_failure: OnFailure) -> (RealConfig, PolicyId) {
    let opts = VerifierOptions { on_failure, ..Default::default() };
    let (mut rc, _) = RealConfig::with_options(net(), opts).expect("ring verifies");
    let id = rc.require_reachability("r000", "r002", host_prefix(2)).expect("devices exist");
    rc.recheck_policies();
    (rc, id)
}

/// Suppress the default panic hook's noise for injected-fault panics
/// (they are expected and contained); everything else still prints.
fn quiet_injected_panics() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|s| s.starts_with(rc_faults::INJECTED_PANIC_PREFIX))
            || info
                .payload()
                .downcast_ref::<&str>()
                .is_some_and(|s| s.starts_with(rc_faults::INJECTED_PANIC_PREFIX));
        if !injected {
            default(info);
        }
    }));
}

/// Observable state must match the twin byte-for-byte.
fn assert_observables_equal(rc: &RealConfig, twin: &RealConfig, ctx: &str) {
    assert_eq!(rc.configs(), twin.configs(), "{ctx}: configs");
    assert_eq!(rc.facts(), twin.facts(), "{ctx}: facts");
    assert_eq!(rc.warnings(), twin.warnings(), "{ctx}: warnings");
}

/// Pipeline state (FIB, pairs, verdict) must match the twin too — only
/// guaranteed for pre-pipeline failures or after a rebuild.
fn assert_pipeline_equal(
    rc: &RealConfig,
    twin: &RealConfig,
    id: PolicyId,
    tid: PolicyId,
    ctx: &str,
) {
    assert_eq!(rc.fib(), twin.fib(), "{ctx}: FIB");
    assert_eq!(rc.num_pairs(), twin.num_pairs(), "{ctx}: pair count");
    assert_eq!(rc.is_satisfied(id), twin.is_satisfied(tid), "{ctx}: verdict");
}

#[test]
fn change_error_leaves_everything_untouched() {
    let (mut rc, id) = build();
    let (twin, tid) = build();

    let bad = ChangeSet::link_failure("no-such-device", "eth0");
    match rc.apply_change(&bad) {
        Err(Error::Change(_)) => {}
        other => panic!("expected Change error, got: {other:?}"),
    }
    assert!(!rc.needs_rebuild(), "a change error must not poison");
    assert_observables_equal(&rc, &twin, "after change error");
    assert_pipeline_equal(&rc, &twin, id, tid, "after change error");
    assert_eq!(rc.num_ecs(), twin.num_ecs(), "after change error: ECs");

    // Still fully operational.
    rc.apply_change(&ChangeSet::link_failure("r001", "eth1")).expect("good change verifies");
}

#[test]
fn injected_engine_fault_rolls_back_byte_identically() {
    let (mut rc, id) = build();
    let (mut twin, tid) = build();

    // Fault at the stage 1 boundary: fires before the engine ingests
    // the delta, so observable state must be *byte-identical* to the
    // twin — including the FIB and EC partition.
    let guard = rc_faults::FaultPlan::new()
        .error_on(rc_faults::FaultPoint::EngineApply, 1)
        .install();
    let change = ChangeSet::link_failure("r001", "eth1");
    match rc.apply_change(&change) {
        Err(Error::Divergence(rc_dataflow::EvalError::InjectedFault)) => {}
        other => panic!("expected injected Divergence, got: {other:?}"),
    }
    drop(guard);

    assert_observables_equal(&rc, &twin, "after injected engine fault");
    assert_pipeline_equal(&rc, &twin, id, tid, "after injected engine fault");
    assert_eq!(rc.num_ecs(), twin.num_ecs(), "after injected engine fault: ECs");

    // The verifier conservatively poisons on any Divergence; rebuild
    // and continue — it must track the twin through further changes.
    assert!(rc.needs_rebuild());
    rc.rebuild().expect("rebuild succeeds");
    rc.apply_change(&change).expect("change verifies after rebuild");
    twin.apply_change(&change).expect("change verifies on twin");
    assert_observables_equal(&rc, &twin, "after post-rebuild change");
    assert_pipeline_equal(&rc, &twin, id, tid, "after post-rebuild change");
}

#[test]
fn injected_model_panic_rolls_back_observables_and_poisons() {
    quiet_injected_panics();
    let (mut rc, id) = build();
    let (mut twin, tid) = build();

    let guard = rc_faults::FaultPlan::new()
        .panic_on(rc_faults::FaultPoint::ApkBatch, 1)
        .install();
    let change = ChangeSet::link_failure("r001", "eth1");
    let msg = match rc.apply_change(&change) {
        Err(Error::Internal(msg)) => msg,
        other => panic!("expected Internal, got: {other:?}"),
    };
    drop(guard);
    assert!(
        msg.starts_with(rc_faults::INJECTED_PANIC_PREFIX),
        "panic payload surfaces in the error: {msg:?}"
    );

    // Configs, facts, warnings and verdicts roll back even though the
    // panic hit mid-pipeline (stage 1 had already run).
    assert_observables_equal(&rc, &twin, "after injected model panic");
    assert_eq!(rc.is_satisfied(id), twin.is_satisfied(tid), "verdict rolls back");

    // Mid-pipeline fault ⇒ poisoned; applies are refused until rebuilt.
    assert!(rc.needs_rebuild());
    match rc.apply_change(&change) {
        Err(Error::Poisoned) => {}
        other => panic!("expected Poisoned, got: {other:?}"),
    }
    rc.rebuild().expect("rebuild succeeds");
    assert_pipeline_equal(&rc, &twin, id, tid, "after rebuild");

    rc.apply_change(&change).expect("change verifies after rebuild");
    twin.apply_change(&change).expect("change verifies on twin");
    assert_observables_equal(&rc, &twin, "after post-rebuild change");
    assert_pipeline_equal(&rc, &twin, id, tid, "after post-rebuild change");
}

/// The fault fires after stage 3 has overwritten the verdicts of the
/// policies it re-evaluated, so only the verifier's own restore puts
/// the last good value back.
#[test]
fn injected_policy_panic_restores_verdicts() {
    quiet_injected_panics();
    let (mut rc, id) = build();
    let (mut twin, tid) = build();

    let guard = rc_faults::FaultPlan::new()
        .panic_on(rc_faults::FaultPoint::PolicyVerdicts, 1)
        .install();
    // This change cuts both of r000's paths to r002, so it flips the
    // verdict when committed; the injected panic must leave it at the
    // last good value instead.
    let mut change = ChangeSet::link_failure("r001", "eth1");
    change.ops.extend(ChangeSet::link_failure("r003", "eth0").ops);
    match rc.apply_change(&change) {
        Err(Error::Internal(_)) => {}
        other => panic!("expected Internal, got: {other:?}"),
    }
    drop(guard);

    assert_observables_equal(&rc, &twin, "after injected policy panic");
    assert_eq!(
        rc.is_satisfied(id),
        twin.is_satisfied(tid),
        "verdict restored to pre-change value"
    );
    assert!(rc.needs_rebuild());

    rc.rebuild().expect("rebuild succeeds");
    rc.apply_change(&change).expect("change verifies after rebuild");
    twin.apply_change(&change).expect("change verifies on twin");
    assert!(!twin.is_satisfied(tid), "the change breaks reachability");
    assert_pipeline_equal(&rc, &twin, id, tid, "after post-rebuild change");
}

#[test]
fn poisoned_error_is_itself_stateless() {
    quiet_injected_panics();
    let (mut rc, id) = build();
    let (twin, tid) = build();

    let guard = rc_faults::FaultPlan::new()
        .panic_on(rc_faults::FaultPoint::ApkBatch, 1)
        .install();
    let change = ChangeSet::link_failure("r001", "eth1");
    let _ = rc.apply_change(&change);
    drop(guard);
    assert!(rc.needs_rebuild());

    // Repeated refusals don't change anything either.
    for _ in 0..3 {
        match rc.apply_change(&change) {
            Err(Error::Poisoned) => {}
            other => panic!("expected Poisoned, got: {other:?}"),
        }
        assert_observables_equal(&rc, &twin, "while poisoned");
        assert_eq!(rc.is_satisfied(id), twin.is_satisfied(tid), "verdict while poisoned");
    }
}

/// Every accessor must match the twin — only guaranteed when no apply
/// has failed since the last (re)build.
fn assert_every_accessor_equal(rc: &RealConfig, twin: &RealConfig, ctx: &str) {
    assert_observables_equal(rc, twin, ctx);
    assert_eq!(rc.fib(), twin.fib(), "{ctx}: FIB");
    assert_eq!(rc.num_fib_rules(), twin.num_fib_rules(), "{ctx}: grouped FIB rules");
    assert_eq!(rc.num_rules(), twin.num_rules(), "{ctx}: model rules");
    assert_eq!(rc.num_ecs(), twin.num_ecs(), "{ctx}: ECs");
    assert_eq!(rc.num_pairs(), twin.num_pairs(), "{ctx}: pairs");
    assert_eq!(rc.policy_specs(), twin.policy_specs(), "{ctx}: verdicts");
}

/// A [`ChangeReport`] minus wall-clock timings, the metrics snapshot
/// and the dataflow record count (work, not result: an engine rebuilt
/// over newer configurations has a shorter history than its twin's).
fn shape(r: &ChangeReport) -> impl PartialEq + std::fmt::Debug {
    (
        (r.lines_inserted, r.lines_deleted, r.fact_changes),
        (r.rules_inserted, r.rules_removed, r.ec_moves, r.ec_splits, r.affected_ecs),
        (r.affected_pairs, r.changed_pairs, r.total_pairs, r.policies_checked),
        (r.newly_violated.clone(), r.newly_satisfied.clone(), r.warnings.clone(), r.recovered),
    )
}

/// A rebuild is the only rollback of stage state. Whichever stage a
/// change dies in, by error or by panic, once the verifier is rebuilt —
/// by the caller under [`OnFailure::Poison`], by the failed apply
/// itself under [`OnFailure::Rebuild`] — every accessor equals a
/// never-failed twin's and the next changes track the twin report for
/// report. Those changes take one of r000's two ECMP legs towards r002
/// away, give it back and take it away again, so a FIB grouper (or
/// device set, or verdict) left over from the failed attempt would show.
#[test]
fn rebuild_after_any_pipeline_fault_tracks_the_never_failed_twin() {
    quiet_injected_panics();
    // Reroutes r002 only: r000 keeps both legs whether or not it commits.
    let failing = ChangeSet::link_cost("r002", "eth0", 9);
    let next_three = [
        ChangeSet::link_cost("r000", "eth0", 5),
        ChangeSet::link_cost("r000", "eth0", 1),
        ChangeSet::link_failure("r001", "eth1"),
    ];
    for on_failure in [OnFailure::Poison, OnFailure::Rebuild] {
        for point in rc_faults::FaultPoint::PIPELINE {
            for mode in [rc_faults::FaultMode::Error, rc_faults::FaultMode::Panic] {
                let ctx = format!("{on_failure:?}, {mode:?} at {point}");
                let (mut rc, _) = build_with(on_failure);
                let (mut twin, _) = build();

                let guard = rc_faults::FaultPlan::new().fault_on(point, 1, mode).install();
                let result = rc.apply_change(&failing);
                drop(guard);
                match on_failure {
                    OnFailure::Poison => {
                        assert!(
                            matches!(result, Err(Error::Divergence(_) | Error::Internal(_))),
                            "{ctx}: {result:?}"
                        );
                        assert!(rc.needs_rebuild(), "{ctx}: must poison");
                        assert_observables_equal(&rc, &twin, &format!("{ctx}, poisoned"));
                        assert_eq!(rc.policy_specs(), twin.policy_specs(), "{ctx}: verdicts");
                        rc.rebuild().expect("rebuild succeeds");
                    }
                    OnFailure::Rebuild => {
                        let report = result.unwrap_or_else(|e| panic!("{ctx}: must self-heal: {e}"));
                        assert!(report.recovered, "{ctx}: verified by the rebuild fallback");
                        twin.apply_change(&failing).expect("change verifies on twin");
                    }
                }
                assert!(!rc.needs_rebuild(), "{ctx}: still poisoned");
                assert_every_accessor_equal(&rc, &twin, &format!("{ctx}, rebuilt"));

                for (i, change) in next_three.iter().enumerate() {
                    let got = rc.apply_change(change).expect("change verifies after rebuild");
                    let want = twin.apply_change(change).expect("change verifies on twin");
                    assert_eq!(shape(&got), shape(&want), "{ctx}: report of change {i}");
                    assert_every_accessor_equal(&rc, &twin, &format!("{ctx}, change {i}"));
                }
            }
        }
    }
}
