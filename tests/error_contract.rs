//! Satellite contract: every [`realconfig::Error`] variant leaves
//! configs, facts, warnings and policy verdicts at the last good set. A
//! never-failed twin verifier is the oracle: after each rejected change
//! the failed verifier must look exactly like the twin — for
//! pre-pipeline failures down to the FIB; for mid-pipeline faults in
//! those four, with the pipeline accessors following once the poisoned
//! verifier is rebuilt (a rebuild is the only rollback of stage state).

mod common;

use std::collections::BTreeMap;

use common::{assert_same_state, quiet_injected_panics};
use rc_netcfg::gen::{build_configs, ProtocolChoice};
use rc_netcfg::topology::{host_prefix, ring};
use rc_netcfg::ast::{Acl, AclAction, AclEntry};
use rc_netcfg::DeviceConfig;
use realconfig::{
    AclDir, ChangeOp, ChangeReport, ChangeSet, Error, OnFailure, PolicyId, Prefix, RealConfig,
    VerifierOptions,
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

/// A bound ACL entry with an empty port range is a change error, like
/// every edit the parser would refuse — not an internal error from the
/// predicate compiler that poisons the verifier.
#[test]
fn an_empty_port_range_is_a_change_error_not_a_poison() {
    let (mut rc, _) = build();
    let (twin, _) = build();

    let entry = AclEntry {
        seq: 10,
        action: AclAction::Deny,
        proto: Some(6),
        src: Prefix::DEFAULT,
        dst: host_prefix(2),
        dst_ports: Some((90, 80)),
    };
    let mut bad = ChangeSet::new();
    bad.push(ChangeOp::AddAclEntry { device: "r000".into(), acl: "WEB".into(), entry });
    bad.push(ChangeOp::BindAcl {
        device: "r000".into(),
        iface: "eth0".into(),
        dir: AclDir::In,
        acl: "WEB".into(),
    });
    match rc.apply_change(&bad) {
        Err(Error::Change(e)) => assert!(e.msg.contains("empty port range"), "{e}"),
        other => panic!("expected Change error, got: {other:?}"),
    }
    assert!(!rc.needs_rebuild(), "a change error must not poison");
    assert_same_state(&rc, &twin, &[], "after the refused ACL entry");
}

/// The same rule holds for a whole configuration set handed over with
/// `apply_configs`: an empty port range on a bound ACL is a change
/// error, not a poison, and a port match without TCP or UDP is refused
/// rather than committed into a snapshot the parser cannot read back.
#[test]
fn an_unreadable_acl_entry_through_apply_configs_is_a_change_error() {
    let (mut rc, _) = build();
    let (twin, _) = build();

    let base = rc.configs().clone();
    let with_entry = |proto, dst_ports| {
        let mut configs = base.clone();
        let cfg = configs.get_mut("r000").expect("device exists");
        let entry = AclEntry {
            seq: 10,
            action: AclAction::Deny,
            proto,
            src: Prefix::DEFAULT,
            dst: host_prefix(2),
            dst_ports,
        };
        cfg.acls.push(Acl { name: "WEB".into(), entries: vec![entry] });
        cfg.interfaces[0].acl_in = Some("WEB".into());
        configs
    };
    let cases = [
        (with_entry(Some(6), Some((90, 80))), "empty port range"),
        (with_entry(None, Some((80, 90))), "port match requires tcp or udp"),
    ];
    for (configs, msg) in cases {
        match rc.apply_configs(configs) {
            Err(Error::Change(e)) => assert!(e.msg.contains(msg), "{e}"),
            other => panic!("expected Change error, got: {other:?}"),
        }
        assert!(!rc.needs_rebuild(), "a change error must not poison");
        assert_same_state(&rc, &twin, &[], &format!("after the refused {msg:?} entry"));
    }
    rc.apply_configs(with_entry(Some(6), Some((80, 90)))).expect("a valid entry verifies");
}

/// The initial build meets the same rule: a configuration set holding
/// an empty port range on a bound ACL is refused with a change error
/// naming the range, before any stage runs.
#[test]
fn an_empty_port_range_in_the_initial_configs_is_a_change_error() {
    let mut configs = net();
    let cfg = configs.get_mut("r000").expect("device exists");
    let entry = AclEntry {
        seq: 10,
        action: AclAction::Deny,
        proto: Some(6),
        src: Prefix::DEFAULT,
        dst: host_prefix(2),
        dst_ports: Some((90, 80)),
    };
    cfg.acls.push(Acl { name: "WEB".into(), entries: vec![entry] });
    cfg.interfaces[0].acl_in = Some("WEB".into());
    match RealConfig::new(configs) {
        Err(Error::Change(e)) => {
            assert!(e.msg.contains("empty port range"), "{e}");
            assert!(e.to_string().contains("90"), "the refusal names the range: {e}");
        }
        Err(other) => panic!("expected Change error, got: {other:?}"),
        Ok(_) => panic!("expected Change error, got a verifier"),
    }
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

/// A panic part-way through the engine's epoch, after earlier operator
/// steps have written their traces, is contained like any stage panic:
/// [`Error::Internal`] with the injected marker, configs and verdict
/// rolled back, the verifier poisoned. Only a rebuild replaces the
/// half-stepped engine, and after it the change agrees with a
/// never-failed twin.
#[test]
fn dataflow_step_panic_poisons_and_rebuild_recovers() {
    use rc_faults::FaultPoint;
    quiet_injected_panics();
    let (mut rc, id) = build();
    let (mut twin, tid) = build();
    let change = ChangeSet::link_failure("r001", "eth1");

    // Count the operator steps the change takes on a third verifier and
    // fail the one half-way through: by then the change has been
    // through joins and reduces inside the IGP fixpoint.
    let (mut probe, _) = build();
    let steps = {
        let _count = rc_faults::FaultPlan::new().install();
        probe.apply_change(&change).expect("change verifies on the probe");
        rc_faults::hit_count(FaultPoint::DataflowStep)
    };
    assert!(steps >= 20, "the change steps the engine {steps} times");

    let guard =
        rc_faults::FaultPlan::new().panic_on(FaultPoint::DataflowStep, steps / 2).install();
    let result = rc.apply_change(&change);
    drop(guard);
    let msg = match result {
        Err(Error::Internal(msg)) => msg,
        other => panic!("expected Internal from a dataflow step panic, got: {other:?}"),
    };
    assert!(msg.starts_with(rc_faults::INJECTED_PANIC_PREFIX), "got: {msg:?}");

    assert_observables_equal(&rc, &twin, "after dataflow step panic");
    assert_eq!(rc.is_satisfied(id), twin.is_satisfied(tid), "verdict rolled back");
    assert!(rc.needs_rebuild(), "a dataflow step panic must poison");
    rc.rebuild().expect("rebuild succeeds");

    rc.apply_change(&change).expect("change verifies after rebuild");
    twin.apply_change(&change).expect("change verifies on twin");
    assert_observables_equal(&rc, &twin, "after post-rebuild change");
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

/// A [`ChangeReport`] minus wall-clock timings and the dataflow record
/// count (work, not result: an engine rebuilt
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
                assert_same_state(&rc, &twin, &[], &format!("{ctx}, rebuilt"));

                for (i, change) in next_three.iter().enumerate() {
                    let got = rc.apply_change(change).expect("change verifies after rebuild");
                    let want = twin.apply_change(change).expect("change verifies on twin");
                    assert_eq!(shape(&got), shape(&want), "{ctx}: report of change {i}");
                    assert_same_state(&rc, &twin, &[], &format!("{ctx}, change {i}"));
                }
            }
        }
    }
}

/// `net()` with a `deny tcp any 10.0.0.0/8 eq 80` ACL on r000's first
/// interface: a match on the protocol and port fields as well as the
/// destination.
fn net_with_port_acl() -> BTreeMap<String, DeviceConfig> {
    use rc_netcfg::ast::{Acl, AclAction, AclEntry};
    let mut configs = net();
    let r0 = configs.get_mut("r000").expect("ring has r000");
    r0.acls.push(Acl {
        name: "WEB".into(),
        entries: vec![AclEntry {
            seq: 10,
            action: AclAction::Deny,
            proto: Some(6),
            src: "0.0.0.0/0".parse().unwrap(),
            dst: "10.0.0.0/8".parse().unwrap(),
            dst_ports: Some((80, 80)),
        }],
    });
    r0.interfaces[0].acl_in = Some("WEB".into());
    configs
}

/// A panic while building — here one injected into the model's first
/// batch — is an internal error, both from a constructor and from the
/// restore ladder's bottom rung, which runs the same build.
#[test]
fn construction_panic_is_an_internal_error() {
    quiet_injected_panics();
    let expect_internal = |result: Result<RealConfig, Error>, ctx: &str| match result {
        Err(Error::Internal(msg)) => {
            assert!(msg.contains(rc_faults::INJECTED_PANIC_PREFIX), "{ctx}: {msg}")
        }
        Err(e) => panic!("{ctx}: expected Error::Internal, got {e:?}"),
        Ok(_) => panic!("{ctx}: the injected panic must fail the build"),
    };
    let panic_in_build =
        || rc_faults::FaultPlan::new().panic_on(rc_faults::FaultPoint::ApkBatch, 1).install();

    let guard = panic_in_build();
    let built = RealConfig::new(net_with_port_acl()).map(|(rc, _)| rc);
    drop(guard);
    expect_internal(built, "new");

    let dir = std::env::temp_dir().join(format!("rc-error-contract-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let guard = panic_in_build();
    let opened = RealConfig::open(&dir, net_with_port_acl()).map(|(rc, _)| rc);
    drop(guard);
    let _ = std::fs::remove_dir_all(&dir);
    expect_internal(opened, "open");

    // Without the fault the same network, port match included, builds.
    RealConfig::new(net_with_port_acl()).expect("BDDs encode port matches");
}
