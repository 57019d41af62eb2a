//! End-to-end tests of the incremental policy checker against a
//! hand-built data plane model.

use std::collections::BTreeSet;

use rc_apkeep::*;
use rc_netcfg::facts::Dir;
use rc_netcfg::types::{IfaceId, NodeId, Port, Prefix};
use rc_policy::{PacketClass, Policy, PolicyChecker};

fn n(i: u32) -> NodeId {
    NodeId(i)
}

fn port(node: u32, iface: u32) -> Port {
    Port { node: n(node), iface: IfaceId(iface) }
}

fn fwd(node: u32, prefix: &str, iface: u32) -> ModelRule {
    let p: Prefix = prefix.parse().unwrap();
    ModelRule {
        element: ElementKey::Forward(n(node)),
        priority: p.len() as u32,
        rule_match: RuleMatch::DstPrefix(p),
        action: PortAction::forward(vec![IfaceId(iface)]),
    }
}

/// A 3-node chain 0 –(eth1/eth0)– 1 –(eth1/eth0)– 2, with node 2
/// owning 172.16.0.0/24 behind its host interface (iface 9).
struct Chain {
    model: ApkModel,
    checker: PolicyChecker,
}

const PFX: &str = "172.16.0.0/24";

fn chain() -> Chain {
    let mut model = ApkModel::new();
    model.apply_batch(
        vec![
            RuleUpdate::Insert(fwd(0, PFX, 1)),
            RuleUpdate::Insert(fwd(1, PFX, 1)),
            RuleUpdate::Insert(fwd(2, PFX, 9)), // host-facing: no link
        ],
        UpdateOrder::InsertFirst,
    );
    let mut checker = PolicyChecker::new();
    checker.set_nodes([n(0), n(1), n(2)]);
    checker.apply_link_delta(&[
        (port(0, 1), port(1, 0), 1),
        (port(1, 0), port(0, 1), 1),
        (port(1, 1), port(2, 0), 1),
        (port(2, 0), port(1, 1), 1),
    ]);
    Chain { model, checker }
}

#[test]
fn full_check_reachability() {
    let Chain { mut model, mut checker } = chain();
    let reach = checker.add_policy(
        &mut model,
        Policy::Reachability {
            src: n(0),
            dst: n(2),
            class: PacketClass::DstPrefix(PFX.parse().unwrap()),
        },
    );
    let report = checker.check_full(&mut model);
    assert!(checker.is_satisfied(reach));
    assert!(report.newly_violated.is_empty());
    // Pairs: every node delivers the prefix EC at node 2.
    assert!(checker.reachable(n(0), n(2)));
    assert!(checker.reachable(n(1), n(2)));
    assert_eq!(checker.num_pairs(), 3); // (0,2), (1,2), (2,2)
}

#[test]
fn rule_removal_breaks_reachability_incrementally() {
    let Chain { mut model, mut checker } = chain();
    let reach = checker.add_policy(
        &mut model,
        Policy::Reachability {
            src: n(0),
            dst: n(2),
            class: PacketClass::DstPrefix(PFX.parse().unwrap()),
        },
    );
    checker.check_full(&mut model);
    assert!(checker.is_satisfied(reach));

    // Remove node 1's route: the prefix EC now blackholes at 1.
    let summary =
        model.apply_batch(vec![RuleUpdate::Remove(fwd(1, PFX, 1))], UpdateOrder::InsertFirst);
    let report = checker.check_incremental(&mut model, &summary, BTreeSet::new());
    assert_eq!(report.newly_violated, vec![reach]);
    assert!(!checker.is_satisfied(reach));
    assert!(report.affected_ecs >= 1);
    assert!(report.affected_pairs >= 2, "(0,2) and (1,2) lost the EC");

    // Repair it: the checker reports the policy as newly satisfied.
    let summary =
        model.apply_batch(vec![RuleUpdate::Insert(fwd(1, PFX, 1))], UpdateOrder::InsertFirst);
    let report = checker.check_incremental(&mut model, &summary, BTreeSet::new());
    assert_eq!(report.newly_satisfied, vec![reach]);
    assert!(checker.is_satisfied(reach));
}

#[test]
fn unrelated_policies_are_not_rechecked() {
    let Chain { mut model, mut checker } = chain();
    // Install a second, disjoint prefix at node 0 only.
    model.apply_batch(
        vec![RuleUpdate::Insert(fwd(0, "192.168.0.0/24", 9))],
        UpdateOrder::InsertFirst,
    );
    let other = checker.add_policy(
        &mut model,
        Policy::Reachability {
            src: n(0),
            dst: n(0),
            class: PacketClass::DstPrefix("192.168.0.0/24".parse().unwrap()),
        },
    );
    let _ = other;
    checker.check_full(&mut model);

    // Change only the 172.16/24 forwarding.
    let summary =
        model.apply_batch(vec![RuleUpdate::Remove(fwd(1, PFX, 1))], UpdateOrder::InsertFirst);
    let report = checker.check_incremental(&mut model, &summary, BTreeSet::new());
    // Only the affected packet space's policies get re-evaluated: the
    // 192.168 policy must be skipped.
    assert_eq!(report.policies_checked, 0, "no policy registered on 172.16/24 here");
}

#[test]
fn isolation_policy() {
    let Chain { mut model, mut checker } = chain();
    let iso = checker.add_policy(
        &mut model,
        Policy::Isolation {
            src: n(0),
            dst: n(2),
            class: PacketClass::DstPrefix(PFX.parse().unwrap()),
        },
    );
    let report = checker.check_full(&mut model);
    assert_eq!(report.newly_violated, vec![iso], "traffic flows, isolation violated");

    // Deny the prefix at node 1's ingress: isolation becomes satisfied.
    let acl = ModelRule {
        element: ElementKey::Filter(n(1), IfaceId(0), Dir::In),
        priority: u32::MAX - 10,
        rule_match: RuleMatch::Acl {
            proto: None,
            src: Prefix::DEFAULT,
            dst: PFX.parse().unwrap(),
            dst_ports: None,
        },
        action: PortAction::Deny,
    };
    let summary = model.apply_batch(vec![RuleUpdate::Insert(acl)], UpdateOrder::InsertFirst);
    let report = checker.check_incremental(&mut model, &summary, BTreeSet::new());
    assert_eq!(report.newly_satisfied, vec![iso]);
}

#[test]
fn loop_detection() {
    let Chain { mut model, mut checker } = chain();
    let loopfree = checker.add_policy(&mut model, Policy::LoopFree { class: PacketClass::All });
    checker.check_full(&mut model);
    assert!(checker.is_satisfied(loopfree));

    // Point node 1's route back at node 0: 0 → 1 → 0 loop.
    let summary = model.apply_batch(
        vec![
            RuleUpdate::Remove(fwd(1, PFX, 1)),
            RuleUpdate::Insert(fwd(1, PFX, 0)),
        ],
        UpdateOrder::InsertFirst,
    );
    let report = checker.check_incremental(&mut model, &summary, BTreeSet::new());
    assert_eq!(report.newly_violated, vec![loopfree]);
}

#[test]
fn blackhole_detection() {
    let Chain { mut model, mut checker } = chain();
    let bh = checker.add_policy(
        &mut model,
        Policy::BlackholeFree {
            src: n(0),
            class: PacketClass::DstPrefix(PFX.parse().unwrap()),
        },
    );
    checker.check_full(&mut model);
    assert!(checker.is_satisfied(bh));

    let summary =
        model.apply_batch(vec![RuleUpdate::Remove(fwd(2, PFX, 9))], UpdateOrder::InsertFirst);
    let report = checker.check_incremental(&mut model, &summary, BTreeSet::new());
    assert_eq!(report.newly_violated, vec![bh], "packets now die at node 2");
}

#[test]
fn waypoint_policy() {
    // Diamond: 0 → {1, 2} → 3; waypoint via 1.
    let mut model = ApkModel::new();
    model.apply_batch(
        vec![
            RuleUpdate::Insert(ModelRule {
                element: ElementKey::Forward(n(0)),
                priority: 24,
                rule_match: RuleMatch::DstPrefix(PFX.parse().unwrap()),
                action: PortAction::forward(vec![IfaceId(1)]),
            }),
            RuleUpdate::Insert(fwd(1, PFX, 1)),
            RuleUpdate::Insert(fwd(2, PFX, 1)),
            RuleUpdate::Insert(fwd(3, PFX, 9)),
        ],
        UpdateOrder::InsertFirst,
    );
    let mut checker = PolicyChecker::new();
    checker.set_nodes([n(0), n(1), n(2), n(3)]);
    checker.apply_link_delta(&[
        (port(0, 1), port(1, 0), 1), // 0→1
        (port(0, 2), port(2, 0), 1), // 0→2 (unused until ECMP)
        (port(1, 1), port(3, 0), 1), // 1→3
        (port(2, 1), port(3, 1), 1), // 2→3
    ]);
    let wp = checker.add_policy(
        &mut model,
        Policy::Waypoint {
            src: n(0),
            dst: n(3),
            via: n(1),
            class: PacketClass::DstPrefix(PFX.parse().unwrap()),
        },
    );
    checker.check_full(&mut model);
    assert!(checker.is_satisfied(wp), "all traffic goes 0→1→3");

    // ECMP at node 0 over both branches: some packets dodge node 1.
    let summary = model.apply_batch(
        vec![
            RuleUpdate::Remove(ModelRule {
                element: ElementKey::Forward(n(0)),
                priority: 24,
                rule_match: RuleMatch::DstPrefix(PFX.parse().unwrap()),
                action: PortAction::forward(vec![IfaceId(1)]),
            }),
            RuleUpdate::Insert(ModelRule {
                element: ElementKey::Forward(n(0)),
                priority: 24,
                rule_match: RuleMatch::DstPrefix(PFX.parse().unwrap()),
                action: PortAction::forward(vec![IfaceId(1), IfaceId(2)]),
            }),
        ],
        UpdateOrder::InsertFirst,
    );
    let report = checker.check_incremental(&mut model, &summary, BTreeSet::new());
    assert_eq!(report.newly_violated, vec![wp]);
}

#[test]
fn link_failure_invalidates_ecs_without_rule_changes() {
    let Chain { mut model, mut checker } = chain();
    let reach = checker.add_policy(
        &mut model,
        Policy::Reachability {
            src: n(0),
            dst: n(2),
            class: PacketClass::DstPrefix(PFX.parse().unwrap()),
        },
    );
    checker.check_full(&mut model);

    // Take the 1–2 link down without touching any rule (e.g., a static
    // route keeps pointing at a dead interface).
    let touched = checker.apply_link_delta(&[
        (port(1, 1), port(2, 0), -1),
        (port(2, 0), port(1, 1), -1),
    ]);
    assert!(!touched.is_empty(), "the prefix EC used that link");
    let empty = BatchSummary::default();
    let report = checker.check_incremental(&mut model, &empty, touched);
    // Node 1 now forwards out a link-less interface: that counts as
    // delivery off-network at 1, so reachability to 2 is violated.
    assert_eq!(report.newly_violated, vec![reach]);
}

#[test]
fn split_children_inherit_state() {
    let Chain { mut model, mut checker } = chain();
    checker.check_full(&mut model);
    let pairs_before = checker.num_pairs();

    // An ACL on a sub-range splits the prefix EC; the non-denied half
    // keeps flowing, so (0,2) must still have a deliverable EC.
    let acl = ModelRule {
        element: ElementKey::Filter(n(1), IfaceId(0), Dir::In),
        priority: u32::MAX - 10,
        rule_match: RuleMatch::Acl {
            proto: Some(6),
            src: Prefix::DEFAULT,
            dst: "172.16.0.0/25".parse().unwrap(),
            dst_ports: Some((80, 80)),
        },
        action: PortAction::Deny,
    };
    let summary = model.apply_batch(vec![RuleUpdate::Insert(acl)], UpdateOrder::InsertFirst);
    assert_eq!(summary.ec_splits, 1);
    checker.check_incremental(&mut model, &summary, BTreeSet::new());
    assert!(checker.reachable(n(0), n(2)), "non-HTTP half still delivers");
    assert!(checker.num_pairs() >= pairs_before);
    checker.check_invariants().expect("the child counts the pairs it inherited");
}

#[test]
fn repeated_full_check_changes_nothing() {
    let Chain { mut model, mut checker } = chain();
    let reach = checker.add_policy(
        &mut model,
        Policy::Reachability {
            src: n(0),
            dst: n(2),
            class: PacketClass::DstPrefix(PFX.parse().unwrap()),
        },
    );

    // The first pass merges against empty state: every pair it finds is
    // a changed pair.
    let first = checker.check_full(&mut model);
    assert!(checker.is_satisfied(reach));
    assert_eq!(checker.num_pairs(), 3);
    assert_eq!(first.changed_pairs, 3);

    // The second merges against identical state: no pair changes.
    let second = checker.check_full(&mut model);
    checker.check_invariants().expect("derived indexes match the analyses");
    assert_eq!(second.total_pairs, first.total_pairs);
    assert_eq!(second.changed_pairs, 0);
    assert!(second.newly_violated.is_empty() && second.newly_satisfied.is_empty());
}

#[test]
fn only_net_affected_drives_recheck() {
    // Split-vs-affected: `BatchSummary.affected` (the net set) is what
    // drives incremental policy work. A batch that splits an EC but
    // leaves every child on its pre-split action must re-check nothing
    // — splits only register the child ids, they trigger no policy
    // re-evaluation on their own.
    let Chain { mut model, mut checker } = chain();
    let reach = checker.add_policy(
        &mut model,
        Policy::Reachability {
            src: n(0),
            dst: n(2),
            class: PacketClass::DstPrefix(PFX.parse().unwrap()),
        },
    );
    checker.check_full(&mut model);
    assert!(checker.is_satisfied(reach));

    // Insert and remove the same ACL slice in one batch: churn (a
    // split, moves) with no net behaviour change.
    let acl = ModelRule {
        element: ElementKey::Filter(n(1), IfaceId(0), Dir::In),
        priority: u32::MAX - 10,
        rule_match: RuleMatch::Acl {
            proto: Some(6),
            src: Prefix::DEFAULT,
            dst: "172.16.0.0/25".parse().unwrap(),
            dst_ports: Some((80, 80)),
        },
        action: PortAction::Deny,
    };
    let summary = model.apply_batch(
        vec![RuleUpdate::Insert(acl.clone()), RuleUpdate::Remove(acl)],
        UpdateOrder::InsertFirst,
    );
    assert!(summary.ec_splits >= 1, "churn happened");
    assert!(summary.ec_moves >= 1);
    assert!(summary.affected.is_empty(), "but the net set is empty");

    let report = checker.check_incremental(&mut model, &summary, BTreeSet::new());
    assert_eq!(report.affected_ecs, 0, "no net change, no ECs re-analyzed");
    assert_eq!(report.policies_checked, 0, "no policy re-evaluated");
    assert_eq!(report.affected_pairs, 0);
    assert!(report.newly_violated.is_empty() && report.newly_satisfied.is_empty());
    assert!(checker.is_satisfied(reach));
}

/// `set_nodes` names what a device change invalidates, as
/// `apply_link_delta` does: every EC when the set changed, nothing when
/// it did not.
#[test]
fn a_device_change_invalidates_every_ec() {
    let Chain { mut model, mut checker } = chain();
    checker.check_full(&mut model);
    let all: BTreeSet<EcId> = model.ecs().collect();
    assert!(all.len() > 1, "the prefix splits the header space");
    assert!(checker.set_nodes([n(0), n(1), n(2)]).is_empty(), "same devices");
    assert_eq!(checker.set_nodes([n(0), n(1), n(2), n(3)]), all, "a device added");
    assert_eq!(checker.set_nodes([n(0), n(1), n(2)]), all, "a device removed");
}

/// The dense tables grow with the square of the largest node id; an id
/// past their bound is refused before anything is sized by it.
#[test]
#[should_panic(expected = "past the dense tables' bound")]
fn a_node_id_past_the_dense_bound_is_refused() {
    PolicyChecker::new().set_nodes([n(rc_policy::walk::MAX_NODES as u32)]);
}
