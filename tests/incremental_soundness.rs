//! Whole-verifier incrementality soundness: for random change
//! sequences, the incrementally maintained verifier must agree with a
//! from-scratch rebuild after every change — FIB, pair counts, and
//! policy verdicts alike.
//!
//! The command language and oracle loop live in `common/mod.rs`,
//! shared with `regression_counterexamples.rs` which pins the shrunk
//! inputs recorded in `incremental_soundness.proptest-regressions`.

mod common;

use common::{run, Cmd};
use proptest::prelude::*;
use rc_netcfg::ast::NextHop;
use rc_netcfg::gen::ProtocolChoice;
use rc_netcfg::topology::{grid, ring};
use realconfig::{ChangeOp, ChangeReport, ChangeSet, PacketClass, Policy, Prefix, RealConfig};

fn arb_cmds() -> impl Strategy<Value = Vec<Cmd>> {
    prop::collection::vec(
        prop_oneof![
            3 => (0usize..16, 0usize..4).prop_map(|(dev, iface)| Cmd::ToggleIface { dev, iface }),
            2 => (0usize..16, 0usize..4, prop_oneof![Just(1u32), Just(100)])
                .prop_map(|(dev, iface, cost)| Cmd::SetCost { dev, iface, cost }),
            2 => (0usize..16, 0usize..4, prop_oneof![Just(50u32), Just(150)])
                .prop_map(|(dev, iface, pref)| Cmd::SetLp { dev, iface, pref }),
            1 => (0usize..16, 0u32..6).prop_map(|(dev, pfx)| Cmd::StaticDrop { dev, pfx }),
            1 => (0usize..16, 0u32..6).prop_map(|(dev, pfx)| Cmd::UnStatic { dev, pfx }),
            1 => (0usize..16, 0usize..4, 0u32..6, 1u32..3, prop_oneof![Just(29u8), Just(30)])
                .prop_map(|(dev, iface, subnet, host, len)| {
                    Cmd::Readdress { dev, iface, subnet, host, len }
                }),
            1 => (0usize..16).prop_map(|dev| Cmd::ToggleDevice { dev }),
            1 => (0usize..16, 0usize..4).prop_map(|(dev, nb)| Cmd::ToggleRemoteAs { dev, nb }),
        ],
        1..8,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn ospf_ring(cmds in arb_cmds()) {
        run(ProtocolChoice::Ospf, ring(5), cmds);
    }

    #[test]
    fn bgp_ring(cmds in arb_cmds()) {
        run(ProtocolChoice::Bgp, ring(5), cmds);
    }

    #[test]
    fn ospf_grid(cmds in arb_cmds()) {
        run(ProtocolChoice::Ospf, grid(3, 3), cmds);
    }

    #[test]
    fn bgp_grid(cmds in arb_cmds()) {
        run(ProtocolChoice::Bgp, grid(3, 3), cmds);
    }

    #[test]
    fn rip_ring(cmds in arb_cmds()) {
        run(ProtocolChoice::Rip, ring(5), cmds);
    }
}

/// Regression: r003's eth0 takes r001's address, so the subnet of the
/// r001–r002 link gets a third port, then eth0 goes down. The checker
/// kept one peer per port, so removing r002's link to r003 dropped its
/// link to r001 as well, and the pair count fell short of a fresh
/// build's.
#[test]
fn a_port_leaving_a_multi_access_subnet_keeps_the_other_links() {
    let cmds = vec![
        Cmd::Readdress { dev: 3, iface: 0, subnet: 1, host: 1, len: 30 },
        Cmd::ToggleIface { dev: 3, iface: 0 },
    ];
    run(ProtocolChoice::Bgp, ring(5), cmds.clone());
    run(ProtocolChoice::Ospf, ring(5), cmds);
}

/// ring(4) OSPF with a static route on r000 for 10.99.0.0/16 out eth0
/// towards r001, whose end of that link is shut: the prefix leaves the
/// network at r000. Registers `BlackholeFree { r000, class }`, which
/// holds then, brings r001's end back up in one change with `more`, and
/// returns that change's report, the incremental verdict and a
/// from-scratch build's (violated: r001 has no route for the prefix).
fn link_up_past_a_static_route(class: &str, more: Vec<ChangeOp>) -> (ChangeReport, bool, bool) {
    let pfx = |s: &str| -> Prefix { s.parse().expect("prefix parses") };
    let configs = rc_netcfg::gen::build_configs(&ring(4), ProtocolChoice::Ospf);
    let (mut rc, _) = RealConfig::new(configs).expect("ring verifies");
    let setup = ChangeSet {
        ops: vec![
            ChangeOp::AddStaticRoute {
                device: "r000".into(),
                prefix: pfx("10.99.0.0/16"),
                next_hop: NextHop::Interface("eth0".into()),
            },
            ChangeOp::DisableInterface { device: "r001".into(), iface: "eth0".into() },
        ],
    };
    rc.apply_change(&setup).expect("setup verifies");
    let policy = Policy::BlackholeFree {
        src: rc.node("r000").expect("r000 exists"),
        class: PacketClass::DstPrefix(pfx(class)),
    };
    let id = rc.add_policy(policy.clone());
    rc.recheck_policies();
    assert!(rc.is_satisfied(id), "the route leaves the network at r000 while the link is down");

    let mut ops = vec![ChangeOp::EnableInterface { device: "r001".into(), iface: "eth0".into() }];
    ops.extend(more);
    let report = rc.apply_change(&ChangeSet { ops }).expect("change verifies");

    let (mut fresh, _) = RealConfig::new(rc.configs().clone()).expect("fresh build");
    let fid = fresh.add_policy(policy);
    fresh.recheck_policies();
    (report, rc.is_satisfied(id), fresh.is_satisfied(fid))
}

/// Regression: an EC whose packets leave the network through a port
/// with no link uses that port, so the link coming up under it must
/// re-check the EC. The checker once left such ports out of its port
/// index, and the verdict stayed at "satisfied" with no policy
/// re-evaluated.
#[test]
fn link_up_under_a_forwarded_host_facing_port_rechecks_the_ec() {
    let (report, incremental, fresh) = link_up_past_a_static_route("10.99.0.0/16", vec![]);
    assert!(!fresh, "packets drop at r001");
    assert_eq!(incremental, fresh, "incremental verdict is stale");
    assert_eq!(report.newly_violated.len(), 1);
}

/// Regression: a link change invalidates ECs by their pre-batch ids,
/// and an EC the same batch splits hands its analysis to the split-off
/// part. Here r003 routes the /24 away and the /25 inside it back to
/// null, where it was before: the /25 is split off twice and ends
/// where it started, so no move marks it, yet its analysis predates
/// the link coming up. It must be re-checked with its ancestor.
#[test]
fn split_child_of_a_link_invalidated_ec_is_rechecked() {
    let route = |prefix: &str, next_hop| ChangeOp::AddStaticRoute {
        device: "r003".into(),
        prefix: prefix.parse().expect("prefix parses"),
        next_hop,
    };
    let more = vec![
        route("10.99.1.0/24", NextHop::Interface("eth0".into())),
        route("10.99.1.0/25", NextHop::Drop),
    ];
    let (report, incremental, fresh) = link_up_past_a_static_route("10.99.1.0/25", more);
    assert!(report.ec_splits >= 2, "the /24 and then the /25 are split off");
    assert!(!fresh, "packets drop at r001");
    assert_eq!(incremental, fresh, "incremental verdict is stale");
}

/// Device-set changes, at the checker: a changed device set must
/// re-analyze every EC, even when no rule and no used port changed.
mod device_change {
    use std::collections::BTreeSet;

    use rc_apkeep::{
        ApkModel, BatchSummary, ElementKey, ModelRule, PortAction, RuleMatch, RuleUpdate,
        UpdateOrder,
    };
    use rc_netcfg::types::{IfaceId, NodeId, Port, Prefix};
    use rc_policy::{PacketClass, Policy, PolicyChecker, PolicyId};

    fn port(node: u32, iface: u32) -> Port {
        Port { node: NodeId(node), iface: IfaceId(iface) }
    }

    fn prefix() -> Prefix {
        "10.0.1.0/24".parse().expect("prefix parses")
    }

    /// Both directions of each chain link, and of the link to node 3.
    fn links(with_spare: bool, diff: isize) -> Vec<(Port, Port, isize)> {
        let mut pairs = vec![(port(0, 1), port(1, 0)), (port(1, 1), port(2, 0))];
        if with_spare {
            pairs.push((port(2, 2), port(3, 0)));
        }
        pairs.into_iter().flat_map(|(a, b)| [(a, b, diff), (b, a, diff)]).collect()
    }

    fn nodes(with_spare: bool) -> BTreeSet<NodeId> {
        (0..3 + u32::from(with_spare)).map(NodeId).collect()
    }

    /// A checker over the chain's devices and links after a full pass,
    /// with `BlackholeFree { src: 3, class: 10.0.1.0/24 }` registered.
    fn checked(model: &mut ApkModel, with_spare: bool) -> (PolicyChecker, PolicyId) {
        let mut checker = PolicyChecker::new();
        checker.set_nodes(nodes(with_spare));
        checker.apply_link_delta(&links(with_spare, 1));
        let policy =
            Policy::BlackholeFree { src: NodeId(3), class: PacketClass::DstPrefix(prefix()) };
        let id = checker.add_policy(model, policy);
        checker.check_full(model);
        (checker, id)
    }

    /// A chain 0 → 1 → 2 where node 2 delivers 10.0.1.0/24, plus node 3
    /// linked to node 2 under its eth2 with no route of its own —
    /// present when `with_spare` — and its checker.
    fn chain(with_spare: bool) -> (ApkModel, PolicyChecker, PolicyId) {
        let rule = |node, action| {
            RuleUpdate::Insert(ModelRule {
                element: ElementKey::Forward(NodeId(node)),
                priority: 24,
                rule_match: RuleMatch::DstPrefix(prefix()),
                action,
            })
        };
        let mut model = ApkModel::new();
        model.apply_batch(
            vec![
                rule(0, PortAction::forward(vec![IfaceId(1)])),
                rule(1, PortAction::forward(vec![IfaceId(1)])),
                rule(2, PortAction::deliver(vec![IfaceId(9)])),
            ],
            UpdateOrder::InsertFirst,
        );
        let (checker, id) = checked(&mut model, with_spare);
        (model, checker, id)
    }

    /// Regression: node 3 comes up with no route, so its packets for
    /// the prefix drop. No rule moved and no port any EC used changed,
    /// and the checker once re-analyzed nothing: the policy stayed
    /// "satisfied".
    #[test]
    fn added_device_without_a_route_violates_blackhole_freedom() {
        let (mut model, mut checker, id) = chain(false);
        assert!(checker.is_satisfied(id), "node 3 is not a device yet");
        let mut touched = checker.set_nodes(nodes(true));
        touched.extend(checker.apply_link_delta(&links(true, 1)[4..]));
        checker.check_incremental(&mut model, &BatchSummary::default(), touched);

        let (fresh, fid) = checked(&mut model, true);
        assert!(!fresh.is_satisfied(fid), "node 3 drops the prefix");
        let (incremental, fresh_verdict) = (checker.is_satisfied(id), fresh.is_satisfied(fid));
        assert_eq!(incremental, fresh_verdict, "incremental verdict is stale");
        assert!(checker == fresh, "state differs from a fresh check");
    }

    /// Regression: removing node 3 must take it out of the `dropped`
    /// rows of the ECs it dropped by default.
    #[test]
    fn removed_device_leaves_no_analysis_behind() {
        let (mut model, mut checker, id) = chain(true);
        assert!(!checker.is_satisfied(id), "node 3 drops the prefix");
        let mut touched = checker.set_nodes(nodes(false));
        touched.extend(checker.apply_link_delta(&links(true, -1)[4..]));
        checker.check_incremental(&mut model, &BatchSummary::default(), touched);

        let (fresh, fid) = checked(&mut model, false);
        assert!(fresh.is_satisfied(fid), "node 3 is gone");
        let (incremental, fresh_verdict) = (checker.is_satisfied(id), fresh.is_satisfied(fid));
        assert_eq!(incremental, fresh_verdict, "incremental verdict is stale");
        assert!(checker == fresh, "state differs from a fresh check");
    }
}
