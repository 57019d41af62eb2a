//! End-to-end pipeline tests on the paper's evaluation workloads
//! (scaled-down fat trees): the incremental verifier must stay
//! consistent with a from-scratch rebuild after every change, and its
//! reports must show the incrementality the paper claims.

mod common;

use common::{assert_same_state, fresh_twin};
use rc_netcfg::gen::{build_configs, ProtocolChoice};
use rc_netcfg::topology::{fat_tree, host_prefix};
use realconfig::{ChangeReport, ChangeSet, PacketClass, Policy, RealConfig};

/// `(lines_inserted, lines_deleted)` of a report. Every change below
/// pins it: the line diff prints only the devices a change touched, and
/// must count exactly what diffing every device counted.
fn lines(r: &ChangeReport) -> (usize, usize) {
    (r.lines_inserted, r.lines_deleted)
}

#[test]
fn fat_tree_ospf_change_sequence() {
    let configs = build_configs(&fat_tree(4), ProtocolChoice::Ospf);
    let (mut rc, full) = RealConfig::new(configs).unwrap();
    assert!(full.warnings.is_empty(), "{:?}", full.warnings);
    assert!(full.fib_entries > 0);
    assert!(full.pairs > 0);

    // The paper's LinkFailure: deactivate an edge uplink.
    let report = rc.apply_change(&ChangeSet::link_failure("pod00-edge00", "eth0")).unwrap();
    assert!(report.fact_changes > 0);
    assert!(report.rules_inserted + report.rules_removed > 0);
    assert_eq!(lines(&report), (1, 0), "one `shutdown` line added");
    assert_same_state(&rc, &fresh_twin(&rc), &[], "after the link failure");

    // The paper's LC: cost 1 → 100.
    let report = rc.apply_change(&ChangeSet::link_cost("pod01-edge00", "eth0", 100)).unwrap();
    assert_eq!(lines(&report), (1, 1), "one line modified");
    assert_same_state(&rc, &fresh_twin(&rc), &[], "after the cost change");

    // Restore both.
    let report = rc
        .apply_change(&ChangeSet {
            ops: vec![realconfig::ChangeOp::EnableInterface {
                device: "pod00-edge00".into(),
                iface: "eth0".into(),
            }],
        })
        .unwrap();
    assert_eq!(lines(&report), (0, 1));
    let report = rc.apply_change(&ChangeSet::link_cost("pod01-edge00", "eth0", 1)).unwrap();
    assert_eq!(lines(&report), (1, 1));
    assert_same_state(&rc, &fresh_twin(&rc), &[], "after both are restored");
}

#[test]
fn fat_tree_bgp_change_sequence() {
    let configs = build_configs(&fat_tree(4), ProtocolChoice::Bgp);
    let (mut rc, full) = RealConfig::new(configs).unwrap();
    assert!(full.warnings.is_empty(), "{:?}", full.warnings);

    // LinkFailure.
    let report = rc.apply_change(&ChangeSet::link_failure("pod00-edge00", "eth0")).unwrap();
    assert!(report.rules_inserted + report.rules_removed > 0);
    assert_eq!(lines(&report), (1, 0));
    assert_same_state(&rc, &fresh_twin(&rc), &[], "after the link failure");

    // LP: 100 → 150 on one interface's imports.
    let report = rc.apply_change(&ChangeSet::local_pref("pod02-edge01", "eth1", 150)).unwrap();
    assert_eq!(lines(&report), (1, 1));
    assert!(report.affected_ecs > 0 || report.rules_inserted + report.rules_removed == 0);
    assert_same_state(&rc, &fresh_twin(&rc), &[], "after the local-pref change");

    // Only a small fraction of rules is affected (paper: < 1%).
    let total = rc.num_rules();
    assert!(
        (report.rules_inserted + report.rules_removed) * 10 < total,
        "change touched {}+{} of {} rules",
        report.rules_inserted,
        report.rules_removed,
        total
    );
}

#[test]
fn policies_track_changes_incrementally() {
    let configs = build_configs(&fat_tree(4), ProtocolChoice::Ospf);
    let (mut rc, _) = RealConfig::new(configs).unwrap();

    // All-pairs-style policies over edge switches of two pods.
    let mut policies = Vec::new();
    for (si, s) in ["pod00-edge00", "pod00-edge01"].iter().enumerate() {
        for (di, d) in ["pod01-edge00", "pod01-edge01"].iter().enumerate() {
            let prefix = host_prefix((2 + di) as u32); // pod01 edge prefixes
            let id = rc.require_reachability(s, d, prefix).unwrap();
            policies.push(((si, di), id));
        }
    }
    rc.recheck_policies();
    for (_, id) in &policies {
        assert!(rc.is_satisfied(*id));
    }

    // Cut pod00-edge00 off entirely (both uplinks): its policies break,
    // the other source's survive.
    let report = rc.apply_change(&ChangeSet::link_failure("pod00-edge00", "eth0")).unwrap();
    assert_eq!(lines(&report), (1, 0));
    let report = rc.apply_change(&ChangeSet::link_failure("pod00-edge00", "eth1")).unwrap();
    assert_eq!(lines(&report), (1, 0));
    assert!(!report.newly_violated.is_empty());
    for ((si, _), id) in &policies {
        assert_eq!(rc.is_satisfied(*id), *si != 0, "policy {id:?}");
    }

    // Repair: newly_satisfied must fire.
    let report = rc
        .apply_change(&ChangeSet {
            ops: vec![realconfig::ChangeOp::EnableInterface {
                device: "pod00-edge00".into(),
                iface: "eth0".into(),
            }],
        })
        .unwrap();
    assert_eq!(lines(&report), (0, 1));
    let report = rc
        .apply_change(&ChangeSet {
            ops: vec![realconfig::ChangeOp::EnableInterface {
                device: "pod00-edge00".into(),
                iface: "eth1".into(),
            }],
        })
        .unwrap();
    assert_eq!(lines(&report), (0, 1));
    for (_, id) in &policies {
        assert!(rc.is_satisfied(*id), "all policies restored");
    }
    assert_same_state(&rc, &fresh_twin(&rc), &[], "after the repair");
}

#[test]
fn acl_changes_flow_through_to_policies() {
    let configs = build_configs(&fat_tree(4), ProtocolChoice::Ospf);
    let (mut rc, _) = RealConfig::new(configs).unwrap();
    let src = rc.node("pod00-edge00").unwrap();
    let dst = rc.node("pod03-edge01").unwrap();
    let prefix = host_prefix(7);
    let http_blocked = rc.add_policy(Policy::Isolation {
        src,
        dst,
        class: PacketClass::DstPrefix(prefix),
    });
    rc.recheck_policies();
    assert!(!rc.is_satisfied(http_blocked), "traffic flows, isolation violated");

    // Deny everything to that prefix at the destination edge's ingress
    // interfaces.
    let mut cs = ChangeSet::new();
    cs.push(realconfig::ChangeOp::AddAclEntry {
        device: "pod03-edge01".into(),
        acl: "BLOCK".into(),
        entry: rc_netcfg::ast::AclEntry {
            seq: 10,
            action: rc_netcfg::ast::AclAction::Deny,
            proto: None,
            src: realconfig::Prefix::DEFAULT,
            dst: prefix,
            dst_ports: None,
        },
    });
    for iface in ["eth0", "eth1"] {
        cs.push(realconfig::ChangeOp::BindAcl {
            device: "pod03-edge01".into(),
            iface: iface.into(),
            dir: realconfig::AclDir::In,
            acl: "BLOCK".into(),
        });
    }
    let report = rc.apply_change(&cs).unwrap();
    assert_eq!(lines(&report), (4, 0), "ACL header, entry, and one binding per interface");
    assert!(report.newly_satisfied.contains(&http_blocked.0));
    assert!(rc.is_satisfied(http_blocked));
    assert_same_state(&rc, &fresh_twin(&rc), &[], "after the ACL change");
}

/// A policy registered between passes gets its verdict from the next
/// apply, even one whose moves are disjoint from the policy's packets.
#[test]
fn a_policy_registered_between_passes_is_evaluated_by_the_next_apply() {
    let configs = build_configs(&fat_tree(4), ProtocolChoice::Ospf);
    let (mut rc, _) = RealConfig::new(configs).unwrap();
    let permit = |seq, dst| realconfig::ChangeOp::AddAclEntry {
        device: "pod01-edge00".into(),
        acl: "EDGE".into(),
        entry: rc_netcfg::ast::AclEntry {
            seq,
            action: rc_netcfg::ast::AclAction::Permit,
            proto: None,
            src: realconfig::Prefix::DEFAULT,
            dst,
            dst_ports: None,
        },
    };
    let mut cs = ChangeSet::new();
    cs.push(permit(10, host_prefix(0)));
    cs.push(realconfig::ChangeOp::BindAcl {
        device: "pod01-edge00".into(),
        iface: "eth0".into(),
        dir: realconfig::AclDir::In,
        acl: "EDGE".into(),
    });
    rc.apply_change(&cs).unwrap();

    let src = rc.node("pod00-edge00").unwrap();
    let dst = rc.node("pod03-edge01").unwrap();
    let class = PacketClass::DstPrefix(host_prefix(7));
    let isolated = rc.add_policy(Policy::Isolation { src, dst, class });
    // The entry moves host_prefix(1)'s packets only.
    let mut cs = ChangeSet::new();
    cs.push(permit(20, host_prefix(1)));
    let report = rc.apply_change(&cs).unwrap();
    assert!(report.newly_violated.contains(&isolated.0), "traffic flows, isolation violated");
    assert!(!rc.is_satisfied(isolated));
    assert!(rc.recheck_policies().newly_violated.is_empty(), "a full pass agrees");
    assert_same_state(&rc, &fresh_twin(&rc), &[], "after the disjoint entry");
}

#[test]
fn incremental_is_faster_than_full_on_repeat_changes() {
    // Not a benchmark — a sanity bound: incremental work (dataflow
    // records) across a change must be well under the initial full
    // computation.
    let configs = build_configs(&fat_tree(4), ProtocolChoice::Bgp);
    let (mut rc, full) = RealConfig::new(configs).unwrap();
    let report = rc.apply_change(&ChangeSet::local_pref("pod00-edge00", "eth0", 150)).unwrap();
    assert_eq!(lines(&report), (1, 1));
    assert!(
        report.dp_records * 5 < full.dp_records,
        "incremental {} vs full {} records",
        report.dp_records,
        full.dp_records
    );
}

#[test]
fn divergence_is_reported_not_hung() {
    let mut configs = build_configs(&rc_netcfg::topology::ring(3), ProtocolChoice::Bgp);
    for n in 0..3 {
        ChangeSet::local_pref(&format!("r{n:03}"), "eth1", 200).apply(&mut configs).unwrap();
    }
    match RealConfig::new(configs) {
        Err(realconfig::Error::Divergence(_)) => {}
        Ok(_) => {} // the gadget may be stable depending on tiebreaks
        Err(e) => panic!("unexpected error {e}"),
    }
}

#[test]
fn bad_change_leaves_verifier_untouched() {
    let configs = build_configs(&fat_tree(4), ProtocolChoice::Ospf);
    let (mut rc, _) = RealConfig::new(configs).unwrap();
    let fib_before = rc.fib();
    let err = rc.apply_change(&ChangeSet::link_failure("no-such-device", "eth0"));
    assert!(matches!(err, Err(realconfig::Error::Change(_))));
    assert_eq!(rc.fib(), fib_before);
    // Still usable afterwards.
    let report = rc.apply_change(&ChangeSet::link_failure("pod00-edge00", "eth0")).unwrap();
    assert_eq!(lines(&report), (1, 0));
    assert_same_state(&rc, &fresh_twin(&rc), &[], "after the good change");
}
