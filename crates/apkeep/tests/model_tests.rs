//! Behavioural tests of the EC data plane model, including the paper's
//! update-order effect (Table 3).

use rc_apkeep::*;
use rc_netcfg::facts::Dir;
use rc_netcfg::types::{IfaceId, NodeId, Prefix};

fn fwd(node: u32, prefix: &str, iface: u32) -> ModelRule {
    let p: Prefix = prefix.parse().unwrap();
    ModelRule {
        element: ElementKey::Forward(NodeId(node)),
        priority: p.len() as u32,
        rule_match: RuleMatch::DstPrefix(p),
        action: PortAction::forward(vec![IfaceId(iface)]),
    }
}

#[test]
fn insert_then_remove_returns_to_drop() {
    let mut m = ApkModel::new();
    let r = fwd(0, "10.0.0.0/8", 1);
    m.apply_batch(vec![RuleUpdate::Insert(r.clone())], UpdateOrder::AsGiven);
    m.check_invariants();
    assert_eq!(m.num_ecs(), 2);

    let s = m.apply_batch(vec![RuleUpdate::Remove(r)], UpdateOrder::AsGiven);
    m.check_invariants();
    assert_eq!(s.affected.len(), 1);
    assert_eq!(s.affected[0].old, PortAction::forward(vec![IfaceId(1)]));
    assert_eq!(s.affected[0].new, PortAction::Drop);
    // The /8's EC drops like the rest again: the batch merges it back.
    assert_eq!(s.merges, vec![(EcId(0), EcId(1))]);
    assert_eq!(s.affected[0].ec, EcId(0));
    assert_eq!(m.num_ecs(), 1);
}

#[test]
fn longest_prefix_match_wins() {
    let mut m = ApkModel::new();
    m.apply_batch(
        vec![
            RuleUpdate::Insert(fwd(0, "10.0.0.0/8", 1)),
            RuleUpdate::Insert(fwd(0, "10.1.0.0/16", 2)),
        ],
        UpdateOrder::AsGiven,
    );
    m.check_invariants();
    // Three ECs: inside /16, /8 minus /16, everything else.
    assert_eq!(m.num_ecs(), 3);
    let pkt_16 = rc_bdd::pkt::Packet { dst_ip: 0x0A010203, ..Default::default() };
    let pkt_8 = rc_bdd::pkt::Packet { dst_ip: 0x0A800001, ..Default::default() };
    let pkt_out = rc_bdd::pkt::Packet { dst_ip: 0x0B000001, ..Default::default() };
    let k = ElementKey::Forward(NodeId(0));
    assert_eq!(
        m.action(k, m.ec_of_packet(&pkt_16)),
        Some(&PortAction::forward(vec![IfaceId(2)]))
    );
    assert_eq!(
        m.action(k, m.ec_of_packet(&pkt_8)),
        Some(&PortAction::forward(vec![IfaceId(1)]))
    );
    assert_eq!(m.action(k, m.ec_of_packet(&pkt_out)), Some(&PortAction::Drop));
}

#[test]
fn update_order_changes_churn_but_not_result() {
    // The paper's Table 3 mechanism: replacing a rule insert-first
    // moves affected ECs once (old → new port); delete-first moves
    // them twice (old → drop → new).
    let build = || {
        let mut m = ApkModel::new();
        m.apply_batch(vec![RuleUpdate::Insert(fwd(0, "10.1.0.0/16", 1))], UpdateOrder::AsGiven);
        m
    };
    let batch = vec![
        RuleUpdate::Remove(fwd(0, "10.1.0.0/16", 1)),
        RuleUpdate::Insert(fwd(0, "10.1.0.0/16", 2)),
    ];

    let mut m_ins = build();
    let s_ins = m_ins.apply_batch(batch.clone(), UpdateOrder::InsertFirst);
    m_ins.check_invariants();

    let mut m_del = build();
    let s_del = m_del.apply_batch(batch, UpdateOrder::DeleteFirst);
    m_del.check_invariants();

    // Same net effect...
    assert_eq!(s_ins.affected, s_del.affected);
    assert_eq!(s_ins.affected.len(), 1);
    assert_eq!(s_ins.affected[0].new, PortAction::forward(vec![IfaceId(2)]));
    // ...but deletion-first does twice the EC moves.
    assert_eq!(s_ins.ec_moves, 1);
    assert_eq!(s_del.ec_moves, 2);
}

#[test]
fn acl_element_splits_ecs() {
    let mut m = ApkModel::new();
    // Forwarding carves out a /24.
    m.apply_batch(vec![RuleUpdate::Insert(fwd(0, "10.1.1.0/24", 1))], UpdateOrder::AsGiven);
    assert_eq!(m.num_ecs(), 2);
    // An ACL denying HTTP to half of that /24 splits the EC.
    let acl = ModelRule {
        element: ElementKey::Filter(NodeId(0), IfaceId(1), Dir::Out),
        priority: u32::MAX - 10,
        rule_match: RuleMatch::Acl {
            proto: Some(6),
            src: Prefix::DEFAULT,
            dst: "10.1.1.0/25".parse().unwrap(),
            dst_ports: Some((80, 80)),
        },
        action: PortAction::Deny,
    };
    let s = m.apply_batch(vec![RuleUpdate::Insert(acl)], UpdateOrder::AsGiven);
    m.check_invariants();
    assert_eq!(s.ec_splits, 1, "the HTTP/10.1.1.0/25 slice must split off");
    assert_eq!(m.num_ecs(), 3);
    // The new EC is denied at the filter but still forwards at the FIB.
    let denied = s
        .affected
        .iter()
        .find(|a| a.new == PortAction::Deny)
        .expect("a denied EC");
    assert_eq!(
        m.action(ElementKey::Forward(NodeId(0)), denied.ec),
        Some(&PortAction::forward(vec![IfaceId(1)]))
    );
}

#[test]
fn acl_first_match_by_seq() {
    let mut m = ApkModel::new();
    let key = ElementKey::Filter(NodeId(0), IfaceId(0), Dir::In);
    let entry = |seq: u32, permit: bool, dst: &str| ModelRule {
        element: key,
        priority: u32::MAX - seq,
        rule_match: RuleMatch::Acl {
            proto: None,
            src: Prefix::DEFAULT,
            dst: dst.parse().unwrap(),
            dst_ports: None,
        },
        action: if permit { PortAction::Permit } else { PortAction::Deny },
    };
    // seq 10: deny 10.0.0.0/8; seq 20: permit 10.1.0.0/16 (shadowed);
    // implicit deny-all at the lowest priority.
    m.apply_batch(
        vec![
            RuleUpdate::Insert(entry(10, false, "10.0.0.0/8")),
            RuleUpdate::Insert(entry(20, true, "10.1.0.0/16")),
            RuleUpdate::Insert(entry(u32::MAX, false, "0.0.0.0/0")),
        ],
        UpdateOrder::AsGiven,
    );
    m.check_invariants();
    let pkt = rc_bdd::pkt::Packet { dst_ip: 0x0A010001, ..Default::default() };
    // Shadowed permit: the seq-10 deny wins.
    assert_eq!(m.action(key, m.ec_of_packet(&pkt)), Some(&PortAction::Deny));
}

#[test]
fn ecmp_groups_are_single_ports() {
    let mut m = ApkModel::new();
    let p: Prefix = "10.2.0.0/16".parse().unwrap();
    let rule = ModelRule {
        element: ElementKey::Forward(NodeId(0)),
        priority: 16,
        rule_match: RuleMatch::DstPrefix(p),
        action: PortAction::forward(vec![IfaceId(5), IfaceId(3), IfaceId(5)]),
    };
    let s = m.apply_batch(vec![RuleUpdate::Insert(rule)], UpdateOrder::AsGiven);
    // Canonicalized: sorted, deduped.
    assert_eq!(s.affected[0].new, PortAction::Forward(vec![IfaceId(3), IfaceId(5)]));
}

#[test]
fn insert_and_remove_in_one_batch_leaves_one_ec() {
    // The insert splits the full-space EC; the remove moves the child
    // back, and the same batch merges it into its parent.
    let mut m = ApkModel::new();
    let r = fwd(0, "10.0.0.0/8", 1);
    let s = m.apply_batch(
        vec![RuleUpdate::Insert(r.clone()), RuleUpdate::Remove(r)],
        UpdateOrder::InsertFirst,
    );
    m.check_invariants();
    assert_eq!(s.ec_splits, 1);
    assert_eq!(s.merges, vec![(EcId(0), EcId(1))]);
    assert!(s.affected.is_empty());
    assert_eq!(m.num_ecs(), 1);
}

#[test]
fn duplicate_insert_is_idempotent() {
    // Regression: inserting a rule identical to a stored one used to
    // double-store it, so one Remove left a phantom copy behind.
    let mut m = ApkModel::new();
    let r = fwd(0, "10.3.0.0/16", 1);
    m.apply_batch(vec![RuleUpdate::Insert(r.clone())], UpdateOrder::AsGiven);
    assert_eq!(m.num_rules(), 1);
    m.apply_batch(vec![RuleUpdate::Insert(r.clone())], UpdateOrder::AsGiven);
    m.check_invariants();
    assert_eq!(m.num_rules(), 1, "identical re-insert must not double-store");

    let s = m.apply_batch(vec![RuleUpdate::Remove(r)], UpdateOrder::AsGiven);
    m.check_invariants();
    assert_eq!(m.num_rules(), 0, "one remove must clear the rule");
    // And the packets actually fall back to the default action.
    assert_eq!(s.affected.len(), 1);
    assert_eq!(s.affected[0].new, PortAction::Drop);
    let pkt = rc_bdd::pkt::Packet { dst_ip: 0x0A030001, ..Default::default() };
    let k = ElementKey::Forward(NodeId(0));
    assert_eq!(m.action(k, m.ec_of_packet(&pkt)), Some(&PortAction::Drop));
}

#[test]
fn merge_renumbers_by_swap_remove() {
    // Five ECs: everything else, the /8, 11/8, the /16 (carved out of
    // the /8) and 12/8.
    let mut m = ApkModel::new();
    for r in [
        fwd(0, "10.0.0.0/8", 1),
        fwd(0, "11.0.0.0/8", 3),
        fwd(0, "10.1.0.0/16", 2),
        fwd(0, "12.0.0.0/8", 4),
    ] {
        m.apply_batch(vec![RuleUpdate::Insert(r)], UpdateOrder::AsGiven);
    }
    assert_eq!(m.num_ecs(), 5);
    let pkt_in_16 = rc_bdd::pkt::Packet { dst_ip: 0x0A010203, ..Default::default() };
    let pkt_in_12 = rc_bdd::pkt::Packet { dst_ip: 0x0C000001, ..Default::default() };
    assert_eq!(m.ec_of_packet(&pkt_in_16), EcId(3));
    assert_eq!(m.ec_of_packet(&pkt_in_12), EcId(4));

    // Dropping the /16 rule returns its EC to the /8's port: EC 3 is
    // absorbed by EC 1, and the last EC, 4, takes id 3.
    let s = m.apply_batch(vec![RuleUpdate::Remove(fwd(0, "10.1.0.0/16", 2))], UpdateOrder::AsGiven);
    m.check_invariants();
    assert_eq!(s.merges, vec![(EcId(1), EcId(3))]);
    assert_eq!(m.num_ecs(), 4);
    assert_eq!(m.ec_of_packet(&pkt_in_16), EcId(1));
    assert_eq!(m.ec_of_packet(&pkt_in_12), EcId(3));
    // The absorbed EC's change names its survivor.
    assert_eq!(s.affected.len(), 1);
    assert_eq!(s.affected[0].ec, EcId(1));
    assert_eq!(s.affected[0].old, PortAction::forward(vec![IfaceId(2)]));
    assert_eq!(s.affected[0].new, PortAction::forward(vec![IfaceId(1)]));
    let k = ElementKey::Forward(NodeId(0));
    assert_eq!(m.action(k, EcId(3)), Some(&PortAction::forward(vec![IfaceId(4)])));
}

#[test]
fn a_survivor_moved_by_a_later_merge_keeps_its_entries() {
    // Four ECs: everything else, 10/8, 11/8, and 11.1/16 carved out of
    // 11/8. One batch removes the 11.1/16 and the 10/8 rules: EC 3
    // folds into EC 2 (3 is the last id, so nothing moves), then EC 1
    // into EC 0, and the last EC — survivor 2 — takes id 1.
    let mut m = ApkModel::new();
    let rules = [fwd(0, "10.0.0.0/8", 1), fwd(0, "11.0.0.0/8", 3), fwd(0, "11.1.0.0/16", 5)];
    for r in &rules {
        m.apply_batch(vec![RuleUpdate::Insert(r.clone())], UpdateOrder::AsGiven);
    }
    let s = m.apply_batch(
        vec![RuleUpdate::Remove(rules[2].clone()), RuleUpdate::Remove(rules[0].clone())],
        UpdateOrder::InsertFirst,
    );
    m.check_invariants();
    assert_eq!(s.merges, vec![(EcId(2), EcId(3)), (EcId(0), EcId(1))]);
    assert_eq!(m.num_ecs(), 2);
    let in_11_1 = rc_bdd::pkt::Packet { dst_ip: 0x0B010001, ..Default::default() };
    assert_eq!(m.ec_of_packet(&in_11_1), EcId(1));
    let k = ElementKey::Forward(NodeId(0));
    let entry = |ec: u32, old: PortAction, new: PortAction| AffectedEc {
        ec: EcId(ec),
        element: k,
        old,
        new,
    };
    let fwd_on = |iface: u32| PortAction::forward(vec![IfaceId(iface)]);
    assert_eq!(
        s.affected,
        vec![entry(0, fwd_on(1), PortAction::Drop), entry(1, fwd_on(5), fwd_on(3))]
    );
}

#[test]
fn acl_unbind_moves_each_packet_once() {
    // An ACL over nested routes with an implicit priority-0 deny, bound
    // and then unbound, one batch each. Removals run in ascending
    // priority, so the unbind never parks every packet on the implicit
    // deny; and each batch merges what it made equal, so the partition
    // returns to its start.
    let acl = |seq: u32, dst: &str, port: Option<u16>, action: PortAction| ModelRule {
        element: ElementKey::Filter(NodeId(0), IfaceId(1), Dir::In),
        priority: u32::MAX - seq,
        rule_match: RuleMatch::Acl {
            proto: port.map(|_| 6),
            src: Prefix::DEFAULT,
            dst: dst.parse().unwrap(),
            dst_ports: port.map(|p| (p, p)),
        },
        action,
    };
    let rules = [
        acl(10, "10.1.1.0/24", Some(80), PortAction::Deny),
        acl(20, "10.1.0.0/16", Some(443), PortAction::Deny),
        acl(30, "0.0.0.0/0", None, PortAction::Permit),
        acl(u32::MAX, "0.0.0.0/0", None, PortAction::Deny),
    ];
    for order in [UpdateOrder::InsertFirst, UpdateOrder::DeleteFirst] {
        let mut m = ApkModel::new();
        let routes = ["10.0.0.0/8", "10.1.0.0/16", "10.1.1.0/24"].iter().enumerate();
        let routes = routes.map(|(i, p)| RuleUpdate::Insert(fwd(0, p, i as u32)));
        m.apply_batch(routes.collect(), order);
        let start = m.num_ecs();
        assert_eq!(start, 4);
        for bind in [true, false] {
            let update = |r: &ModelRule| match bind {
                true => RuleUpdate::Insert(r.clone()),
                false => RuleUpdate::Remove(r.clone()),
            };
            let batch = rules.iter().map(update).collect();
            let s = m.apply_batch(batch, order);
            m.check_invariants();
            assert_eq!(s.ec_moves, s.affected.len(), "{order:?}, bind {bind}: {s:?}");
        }
        assert_eq!(m.num_ecs(), start, "{order:?}");
    }
}

#[test]
fn split_without_net_change_reports_no_affected() {
    // A batch that inserts and removes an ACL slice splits an EC, but
    // the child ends the batch on its pre-split action: ec_splits
    // counts churn, affected (the net set driving policy re-checks)
    // stays empty.
    let mut m = ApkModel::new();
    m.apply_batch(vec![RuleUpdate::Insert(fwd(0, "10.1.1.0/24", 1))], UpdateOrder::AsGiven);
    let acl = ModelRule {
        element: ElementKey::Filter(NodeId(0), IfaceId(1), Dir::Out),
        priority: u32::MAX - 10,
        rule_match: RuleMatch::Acl {
            proto: Some(6),
            src: Prefix::DEFAULT,
            dst: "10.1.1.0/25".parse().unwrap(),
            dst_ports: Some((80, 80)),
        },
        action: PortAction::Deny,
    };
    let s = m.apply_batch(
        vec![RuleUpdate::Insert(acl.clone()), RuleUpdate::Remove(acl)],
        UpdateOrder::InsertFirst,
    );
    m.check_invariants();
    assert!(s.ec_splits >= 1, "the ACL slice must split an EC");
    assert!(!s.splits.is_empty());
    assert!(
        s.affected.is_empty(),
        "no net behaviour change, nothing to re-check: {:?}",
        s.affected
    );
}

#[test]
fn multi_device_split_is_global() {
    let mut m = ApkModel::new();
    m.apply_batch(
        vec![
            RuleUpdate::Insert(fwd(0, "10.0.0.0/8", 1)),
            RuleUpdate::Insert(fwd(1, "10.1.0.0/16", 2)),
        ],
        UpdateOrder::AsGiven,
    );
    m.check_invariants();
    // The /16 split on device 1 must also be reflected at device 0:
    // both slices of the /8 still forward to iface 1 there.
    assert_eq!(m.num_ecs(), 3);
    let pkt = rc_bdd::pkt::Packet { dst_ip: 0x0A010001, ..Default::default() };
    let ec = m.ec_of_packet(&pkt);
    assert_eq!(
        m.action(ElementKey::Forward(NodeId(0)), ec),
        Some(&PortAction::forward(vec![IfaceId(1)]))
    );
    assert_eq!(
        m.action(ElementKey::Forward(NodeId(1)), ec),
        Some(&PortAction::forward(vec![IfaceId(2)]))
    );
}

#[test]
fn transient_move_that_returns_is_not_affected() {
    // Remove and re-insert the identical rule in one delete-first
    // batch: the EC moves to drop and back, so net affected is empty
    // but churn is visible.
    let mut m = ApkModel::new();
    let r = fwd(0, "10.0.0.0/8", 1);
    m.apply_batch(vec![RuleUpdate::Insert(r.clone())], UpdateOrder::AsGiven);
    let s = m.apply_batch(
        vec![RuleUpdate::Remove(r.clone()), RuleUpdate::Insert(r)],
        UpdateOrder::DeleteFirst,
    );
    m.check_invariants();
    assert!(s.affected.is_empty(), "net behaviour unchanged: {:?}", s.affected);
    assert_eq!(s.ec_moves, 2, "but the EC transited through the drop port");
}

#[test]
#[should_panic(expected = "not in the model")]
fn removing_unknown_rule_panics() {
    let mut m = ApkModel::new();
    m.apply_batch(vec![RuleUpdate::Remove(fwd(0, "10.0.0.0/8", 1))], UpdateOrder::AsGiven);
}
