//! Chaos suite for the self-healing verifier: drive a k=4 fat-tree
//! through a long interface-churn stream while a deterministic
//! [`rc_faults::FaultPlan`] kills every Nth change at a rotating
//! pipeline stage. The verifier must recover each time
//! ([`OnFailure::Rebuild`]), never stay poisoned, and remain equivalent
//! to a fault-free from-scratch oracle.

mod common;

use common::{assert_same_state, fresh_twin_with, quiet_injected_panics, to_changeset, Cmd};
use proptest::prelude::*;
use rc_faults::{FaultGuard, FaultPlan, FaultPoint};
use rc_netcfg::gen::{build_configs, ProtocolChoice};
use rc_netcfg::topology::{fat_tree, host_prefix, ring};
use realconfig::{ChangeSet, OnFailure, Policy, RealConfig, VerifierOptions};

/// One-shot fault plan for chaos round `round`, rotating through the
/// three stage boundaries and both failure modes.
fn rotating_fault(round: usize) -> FaultGuard {
    let point = FaultPoint::PIPELINE[round % FaultPoint::PIPELINE.len()];
    let plan = FaultPlan::new();
    // Stage 1 has an error channel; stages 2 and 3 only fail by panic.
    let plan = if point == FaultPoint::EngineApply && round.is_multiple_of(2) {
        plan.error_on(point, 1)
    } else {
        plan.panic_on(point, 1)
    };
    plan.install()
}

/// A verifier whose applies self-heal through the rebuild fallback.
fn self_healing(configs: std::collections::BTreeMap<String, rc_netcfg::DeviceConfig>) -> RealConfig {
    let opts = VerifierOptions { on_failure: OnFailure::Rebuild, ..Default::default() };
    RealConfig::with_options(configs, opts).expect("network verifies").0
}

/// Register the standing policies used for verdict tracking and return
/// them: the oracle checks this list, not the policies a recovery left
/// on the verifier, so a recovery that drops or alters one fails.
fn standing_policies(rc: &mut RealConfig) -> Vec<Policy> {
    let names: Vec<String> = rc.configs().keys().cloned().collect();
    for (i, s) in names.iter().take(3).enumerate() {
        let di = names.len() - 1 - i;
        rc.require_reachability(s, &names[di], host_prefix(di as u32));
    }
    rc.recheck_policies();
    rc.policy_specs().into_iter().map(|(p, _)| p).collect()
}

#[test]
fn fat_tree_churn_with_rotating_faults_self_heals() {
    quiet_injected_panics();
    let mut rc = self_healing(build_configs(&fat_tree(4), ProtocolChoice::Ospf));
    let policies = standing_policies(&mut rc);
    assert!(!policies.is_empty(), "fat-tree has standing policies");

    const CHANGES: usize = 24;
    const FAULT_EVERY: usize = 3;
    let mut faults_fired = 0usize;
    let mut recovered = 0usize;
    for i in 0..CHANGES {
        // Deterministic interface churn (toggle shutdown back and
        // forth across the topology).
        let cmd = Cmd::ToggleIface { dev: i * 7 + 3, iface: i * 5 + 1 };
        let Some(cs) = to_changeset(&cmd, &rc) else { continue };

        let guard = (i % FAULT_EVERY == 0).then(|| rotating_fault(i / FAULT_EVERY));
        let report = rc
            .apply_change(&cs)
            .unwrap_or_else(|e| panic!("change {i} must self-heal, got: {e}"));
        if let Some(g) = guard {
            faults_fired += rc_faults::injected_count() as usize;
            drop(g);
        }
        if report.recovered {
            recovered += 1;
        }
        assert!(!rc.needs_rebuild(), "change {i} left the verifier poisoned");
        let twin = fresh_twin_with(&rc, &policies);
        assert_same_state(&rc, &twin, &[], &format!("after change {i}"));
    }
    assert!(faults_fired > 0, "the chaos plan never fired");
    assert_eq!(recovered, faults_fired, "every fault went through the rebuild fallback");

    // Recovery telemetry adds up.
    let snap = rc.metrics_snapshot();
    assert_eq!(snap.counters.get("verifier.rebuilds").copied(), Some(recovered as u64));
    assert_eq!(snap.counters.get("verifier.rollbacks").copied(), Some(recovered as u64));
    let h = snap.histograms.get("verifier.rebuild_us").expect("rebuild latency histogram");
    assert_eq!(h.count, recovered as u64);
}

fn arb_cmds() -> impl Strategy<Value = Vec<Cmd>> {
    prop::collection::vec(
        prop_oneof![
            3 => (0usize..16, 0usize..4).prop_map(|(dev, iface)| Cmd::ToggleIface { dev, iface }),
            2 => (0usize..16, 0usize..4, prop_oneof![Just(1u32), Just(100)])
                .prop_map(|(dev, iface, cost)| Cmd::SetCost { dev, iface, cost }),
            1 => (0usize..16, 0u32..6).prop_map(|(dev, pfx)| Cmd::StaticDrop { dev, pfx }),
            1 => (0usize..16, 0u32..6).prop_map(|(dev, pfx)| Cmd::UnStatic { dev, pfx }),
        ],
        1..6,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// For ANY (fault point, fault mode, single or double fault,
    /// burst size, change stream): an apply under
    /// [`OnFailure::Rebuild`] — one change at a time (`burst == 1`) or
    /// coalesced bursts — never returns with the verifier still
    /// poisoned, and the committed state always matches a fault-free
    /// from-scratch oracle. The double-fault case kills the rebuild
    /// fallback too — the verifier must then heal back to the last
    /// good configurations and surface the original error, still
    /// un-poisoned.
    #[test]
    fn recovery_never_leaves_a_poisoned_verifier(
        point in 0usize..3,
        panic_mode in 0usize..2,
        double in 0usize..2,
        burst in 1usize..4,
        cmds in arb_cmds(),
    ) {
        quiet_injected_panics();
        let mut rc = self_healing(build_configs(&ring(5), ProtocolChoice::Ospf));
        let policies = standing_policies(&mut rc);
        let point = FaultPoint::PIPELINE[point];

        for (i, chunk) in cmds.chunks(burst).enumerate() {
            let sets: Vec<ChangeSet> = chunk.iter().filter_map(|c| to_changeset(c, &rc)).collect();
            if sets.is_empty() {
                continue;
            }
            // Fresh one-shot plan per apply: fault the incremental
            // path, and in the double case the rebuild fallback too.
            let plan = if panic_mode == 1 || point != FaultPoint::EngineApply {
                FaultPlan::new().panic_on(point, 1)
            } else {
                FaultPlan::new().error_on(point, 1)
            };
            let plan = if double == 1 { plan.panic_on(point, 2) } else { plan };
            let guard = plan.install();
            let applied =
                if burst == 1 { rc.apply_change(&sets[0]) } else { rc.apply_coalesced(&sets) };
            match applied {
                // Single fault: recovered via rebuild. Double fault:
                // healed back to last-good and the original error
                // surfaced. Both end un-poisoned.
                Ok(_) => {}
                Err(realconfig::Error::Change(_)) => {}
                Err(realconfig::Error::Divergence(_) | realconfig::Error::Internal(_)) => {
                    prop_assert!(double == 1, "single fault must self-heal, not surface");
                }
                Err(e) => panic!("unexpected failure after {chunk:?}: {e}"),
            }
            drop(guard);
            prop_assert!(!rc.needs_rebuild(), "poisoned after change {i}: {chunk:?}");
            let twin = fresh_twin_with(&rc, &policies);
        assert_same_state(&rc, &twin, &[], &format!("after change {i}"));
        }
    }
}
