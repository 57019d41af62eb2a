//! Scenario tests: the paper's three change types (LinkFailure, LC,
//! LP) plus statics, ACLs and redistribution, on small topologies where
//! the expected forwarding behaviour can be stated by hand.

use std::collections::BTreeMap;

use rc_netcfg::ast::{
    BgpConfig, BgpNeighbor, RedistSource, Redistribution, RouteMap, RouteMapAction, RouteMapEntry,
};
use rc_netcfg::change::{ChangeOp, ChangeSet};
use rc_netcfg::facts::{fact_delta, lower, Registry};
use rc_netcfg::gen::{build_configs, ProtocolChoice};
use rc_netcfg::topology::{fat_tree, host_prefix, ring};
use rc_netcfg::types::{Ip, Prefix};
use rc_netcfg::DeviceConfig;
use rc_routing::baseline;
use rc_routing::engine::RoutingEngine;
use rc_routing::route::{FibAction, FibEntry};

struct Harness {
    engine: RoutingEngine,
    reg: Registry,
    configs: BTreeMap<String, DeviceConfig>,
    facts: std::collections::BTreeSet<rc_netcfg::Fact>,
}

impl Harness {
    fn new(configs: BTreeMap<String, DeviceConfig>) -> Self {
        let mut reg = Registry::new();
        let lowered = lower(&configs, &mut reg);
        assert!(lowered.warnings.is_empty(), "unexpected warnings: {:?}", lowered.warnings);
        let mut engine = RoutingEngine::new();
        engine.apply(lowered.facts.iter().map(|f| (f.clone(), 1))).unwrap();
        Harness { engine, reg, configs, facts: lowered.facts }
    }

    /// Apply a change set incrementally; returns the number of FIB
    /// changes.
    fn change(&mut self, cs: &ChangeSet) -> usize {
        self.edit(|configs| cs.apply(configs).unwrap())
    }

    /// Edit the configs directly and apply the resulting fact delta
    /// incrementally; returns the number of FIB changes.
    fn edit(&mut self, f: impl FnOnce(&mut BTreeMap<String, DeviceConfig>)) -> usize {
        f(&mut self.configs);
        let lowered = lower(&self.configs, &mut self.reg);
        let delta = fact_delta(&self.facts, &lowered.facts);
        self.facts = lowered.facts;
        let stats = self.engine.apply(delta).unwrap();
        stats.fib_changes
    }

    /// Assert the incremental FIB equals the from-scratch baseline.
    fn check_against_baseline(&self) {
        let oracle = baseline::compute(&self.facts).unwrap();
        assert_eq!(self.engine.fib(), oracle.fib, "incremental FIB diverged from baseline");
        assert_eq!(self.engine.filters(), oracle.filters);
    }

    /// FIB next hops at `node` for `prefix`, as interface names.
    fn nexthops(&self, node: &str, prefix: Prefix) -> Vec<String> {
        let n = self.reg.try_node(node).unwrap();
        let mut out: Vec<String> = self
            .engine
            .fib()
            .iter()
            .filter(|e| e.node == n && e.prefix == prefix)
            .map(|e| match e.action {
                FibAction::Forward(i) => self.reg.iface_name(i).to_string(),
                FibAction::Local(i) => format!("local:{}", self.reg.iface_name(i)),
                FibAction::Drop => "drop".to_string(),
            })
            .collect();
        out.sort();
        out
    }
}

/// The interface of `dev` on its link to `peer`.
fn facing(configs: &BTreeMap<String, DeviceConfig>, dev: &str, peer: &str) -> String {
    let subnets: Vec<Prefix> =
        configs[peer].interfaces.iter().filter_map(|f| f.prefix()).collect();
    let mut ifaces = configs[dev].interfaces.iter();
    let iface = ifaces.find(|f| f.prefix().is_some_and(|p| subnets.contains(&p)));
    iface.unwrap_or_else(|| panic!("{dev} has no link to {peer}")).name.clone()
}

/// Replace the route-map of `dev`'s session with `peer` in one direction
/// (`out` for export) with `entries`.
fn set_route_map(
    configs: &mut BTreeMap<String, DeviceConfig>,
    dev: &str,
    peer: &str,
    out: bool,
    entries: Vec<RouteMapEntry>,
) {
    let iface = facing(configs, dev, peer);
    let cfg = configs.get_mut(dev).unwrap();
    let subnet = cfg.interface(&iface).unwrap().prefix().unwrap();
    let nbs = &mut cfg.bgp.as_mut().unwrap().neighbors;
    let nb = nbs.iter_mut().find(|n| subnet.contains_ip(n.addr)).unwrap();
    let slot = if out { &mut nb.route_map_out } else { &mut nb.route_map_in };
    let name = slot.get_or_insert_with(|| format!("SCN-{dev}-{peer}-{out}")).clone();
    cfg.route_maps.retain(|m| m.name != name);
    cfg.route_maps.push(RouteMap { name, entries });
}

/// One route-map entry; `mtch: None` matches every prefix.
fn entry(
    seq: u32,
    permit: bool,
    mtch: Option<Prefix>,
    lp: Option<u32>,
    med: Option<u32>,
) -> RouteMapEntry {
    let action = if permit { RouteMapAction::Permit } else { RouteMapAction::Deny };
    RouteMapEntry { seq, action, match_prefix: mtch, set_local_pref: lp, set_metric: med }
}

/// `172.16.0.0/16`, around every generated host prefix.
fn hosts16() -> Option<Prefix> {
    Some(Prefix::new(host_prefix(0).addr(), 16))
}

#[test]
fn ospf_ring_link_failure_reroutes() {
    // 4-ring r000–r001–r002–r003; host prefix of r002 seen from r000
    // via either neighbor (equal cost both ways? 2 hops vs 2 hops — ECMP).
    let mut h = Harness::new(build_configs(&ring(4), ProtocolChoice::Ospf));
    let p2 = host_prefix(2); // r002's prefix
    let nh0 = h.nexthops("r000", p2);
    assert_eq!(nh0.len(), 2, "equal-cost paths both ways around the ring: {nh0:?}");
    h.check_against_baseline();

    // Fail r000's link toward r001 (eth0 connects r000-r001 by
    // construction order). Traffic must take the other direction only.
    let changed = h.change(&ChangeSet::link_failure("r000", "eth0"));
    assert!(changed > 0);
    let nh = h.nexthops("r000", p2);
    assert_eq!(nh.len(), 1);
    h.check_against_baseline();

    // Re-enable: ECMP returns.
    let mut cs = ChangeSet::new();
    cs.push(ChangeOp::EnableInterface { device: "r000".into(), iface: "eth0".into() });
    h.change(&cs);
    assert_eq!(h.nexthops("r000", p2), nh0);
    h.check_against_baseline();
}

#[test]
fn ospf_link_cost_change_shifts_paths() {
    // Ring of 5: r000 reaches r002's prefix via r001 (2 hops) rather
    // than the 3-hop way around.
    let mut h = Harness::new(build_configs(&ring(5), ProtocolChoice::Ospf));
    let p2 = host_prefix(2);
    let before = h.nexthops("r000", p2);
    assert_eq!(before.len(), 1);

    // Paper's LC change: cost 1 → 100 on the shortest-path interface.
    let iface = before[0].clone();
    let changed = h.change(&ChangeSet::link_cost("r000", &iface, 100));
    assert!(changed > 0);
    let after = h.nexthops("r000", p2);
    assert_ne!(after, before, "traffic must shift to the long way around");
    h.check_against_baseline();

    // Restore.
    h.change(&ChangeSet::link_cost("r000", &iface, 1));
    assert_eq!(h.nexthops("r000", p2), before);
    h.check_against_baseline();
}

#[test]
fn bgp_ring_converges_and_matches_baseline() {
    let h = Harness::new(build_configs(&ring(5), ProtocolChoice::Bgp));
    h.check_against_baseline();
    // Every node has a route to every host prefix.
    for n in 0..5 {
        for p in 0..5 {
            if n == p {
                continue;
            }
            let nh = h.nexthops(&format!("r{n:03}"), host_prefix(p));
            assert!(!nh.is_empty(), "r{n:03} missing route to prefix {p}");
        }
    }
}

#[test]
fn bgp_local_pref_change_attracts_traffic() {
    // Ring of 4: r000's routes to r002's prefix — both directions are 2
    // AS hops, tiebreak picks one. Raising LP on the other session must
    // flip the choice (the paper's LP change).
    let mut h = Harness::new(build_configs(&ring(4), ProtocolChoice::Bgp));
    let p2 = host_prefix(2);
    let before = h.nexthops("r000", p2);
    assert_eq!(before.len(), 1, "path-vector tiebreak yields a single best: {before:?}");
    let other: String =
        if before[0] == "eth0" { "eth1".into() } else { "eth0".into() };

    let changed = h.change(&ChangeSet::local_pref("r000", &other, 150));
    assert!(changed > 0);
    let after = h.nexthops("r000", p2);
    assert_eq!(after, vec![other.clone()], "higher local-pref must win");
    h.check_against_baseline();

    // Lower it below default: traffic returns to the original side.
    h.change(&ChangeSet::local_pref("r000", &other, 50));
    assert_eq!(h.nexthops("r000", p2), before);
    h.check_against_baseline();
}

#[test]
fn static_route_overrides_ospf_and_null0_drops() {
    let mut h = Harness::new(build_configs(&ring(4), ProtocolChoice::Ospf));
    let victim: Prefix = host_prefix(2);

    // A null0 static for r002's prefix at r000: admin distance 1 beats
    // OSPF's 110, so the packet is dropped at r000.
    let mut cs = ChangeSet::new();
    cs.push(ChangeOp::AddStaticRoute {
        device: "r000".into(),
        prefix: victim,
        next_hop: rc_netcfg::ast::NextHop::Drop,
    });
    h.change(&cs);
    assert_eq!(h.nexthops("r000", victim), vec!["drop".to_string()]);
    h.check_against_baseline();

    // Remove it: OSPF routes come back.
    let mut cs = ChangeSet::new();
    cs.push(ChangeOp::RemoveStaticRoute { device: "r000".into(), prefix: victim });
    h.change(&cs);
    assert_ne!(h.nexthops("r000", victim), vec!["drop".to_string()]);
    h.check_against_baseline();
}

#[test]
fn acl_rules_pass_through_as_filter_deltas() {
    let mut h = Harness::new(build_configs(&ring(3), ProtocolChoice::Ospf));
    assert!(h.engine.filters().is_empty());

    let mut cs = ChangeSet::new();
    cs.push(ChangeOp::AddAclEntry {
        device: "r000".into(),
        acl: "BLOCK".into(),
        entry: rc_netcfg::ast::AclEntry {
            seq: 10,
            action: rc_netcfg::ast::AclAction::Deny,
            proto: Some(6),
            src: Prefix::DEFAULT,
            dst: host_prefix(1),
            dst_ports: Some((80, 80)),
        },
    });
    cs.push(ChangeOp::BindAcl {
        device: "r000".into(),
        iface: "eth0".into(),
        dir: rc_netcfg::change::AclDir::In,
        acl: "BLOCK".into(),
    });
    h.change(&cs);
    // The explicit entry plus the implicit trailing deny.
    assert_eq!(h.engine.filters().len(), 2);
    let (ins, rem) = h.engine.filter_delta();
    assert_eq!(ins.len(), 2);
    assert!(rem.is_empty());
    h.check_against_baseline();

    // Unbinding removes both.
    let mut cs = ChangeSet::new();
    cs.push(ChangeOp::UnbindAcl {
        device: "r000".into(),
        iface: "eth0".into(),
        dir: rc_netcfg::change::AclDir::In,
    });
    h.change(&cs);
    assert!(h.engine.filters().is_empty());
    h.check_against_baseline();
}

#[test]
fn redistribution_static_into_ospf() {
    // r000 holds a static route for an external prefix and
    // redistributes it into OSPF; everyone learns it.
    let external: Prefix = "192.168.77.0/24".parse().unwrap();
    let mut configs = build_configs(&ring(4), ProtocolChoice::Ospf);
    // Static must resolve: point it at r000's eth0 neighbor address.
    let mut h = {
        let mut cs = ChangeSet::new();
        cs.push(ChangeOp::AddStaticRoute {
            device: "r000".into(),
            prefix: external,
            next_hop: rc_netcfg::ast::NextHop::Interface("host0".into()),
        });
        cs.push(ChangeOp::AddRedistribution {
            device: "r000".into(),
            into: rc_netcfg::change::RedistTarget::Ospf,
            source: rc_netcfg::ast::RedistSource::Static,
            metric: 20,
        });
        cs.apply(&mut configs).unwrap();
        Harness::new(configs)
    };
    for n in 1..4 {
        let nh = h.nexthops(&format!("r{n:03}"), external);
        assert!(!nh.is_empty(), "r{n:03} did not learn the redistributed prefix");
    }
    h.check_against_baseline();

    // Withdrawing the static withdraws it everywhere.
    let mut cs = ChangeSet::new();
    cs.push(ChangeOp::RemoveStaticRoute { device: "r000".into(), prefix: external });
    h.change(&cs);
    for n in 1..4 {
        assert!(h.nexthops(&format!("r{n:03}"), external).is_empty());
    }
    h.check_against_baseline();
}

#[test]
fn fat_tree_ospf_full_fib_shape() {
    let topo = fat_tree(4);
    let h = Harness::new(build_configs(&topo, ProtocolChoice::Ospf));
    h.check_against_baseline();
    let fib = h.engine.fib();
    // Every device must reach every host prefix (8 edge switches).
    let mut reach: BTreeMap<rc_netcfg::NodeId, usize> = BTreeMap::new();
    for e in &fib {
        if e.prefix.len() == 24 {
            *reach.entry(e.node).or_default() += 1;
        }
    }
    assert_eq!(reach.len(), 20);
    for (n, count) in reach {
        assert!(count >= 8, "node {n:?} has only {count} /24 routes");
    }
    // Edge switches have ECMP over both uplinks for remote-pod
    // prefixes.
    let e00 = h.reg.try_node("pod00-edge00").unwrap();
    let remote = host_prefix(7); // a pod-3 prefix
    let ups: Vec<&FibEntry> =
        fib.iter().filter(|e| e.node == e00 && e.prefix == remote).collect();
    assert_eq!(ups.len(), 2, "expected 2-way ECMP at the edge: {ups:?}");
}

#[test]
fn fat_tree_bgp_matches_baseline() {
    let topo = fat_tree(4);
    let h = Harness::new(build_configs(&topo, ProtocolChoice::Bgp));
    h.check_against_baseline();
}

#[test]
fn incremental_change_work_is_small_on_fat_tree() {
    let topo = fat_tree(4);
    let mut h = Harness::new(build_configs(&topo, ProtocolChoice::Bgp));
    let full_work = h.engine.total_work();

    let changed = h.change(&ChangeSet::local_pref("pod00-edge00", "eth0", 150));
    let inc_work = h.engine.total_work() - full_work;
    assert!(
        inc_work * 5 < full_work,
        "incremental work {inc_work} not ≪ full work {full_work} (changed {changed} rules)"
    );
    h.check_against_baseline();
}

#[test]
fn bgp_policy_state_and_work_are_small_on_fat_tree() {
    // Route-maps are compiled once per session end, outside the
    // path-vector loop. With an export join, an import join and two
    // first-match reduces per advertisement inside the loop, the engine
    // held FIRST_MATCH_RECORDS trace records after this build and spent
    // FIRST_MATCH_WORK records on the local-pref change; now it holds
    // 2 136 and spends 327. Both must stay at most 0.6 of the old counts.
    const FIRST_MATCH_RECORDS: usize = 4272;
    const FIRST_MATCH_WORK: u64 = 699;
    let mut h = Harness::new(build_configs(&fat_tree(4), ProtocolChoice::Bgp));
    let records = h.engine.trace_records();
    let before = h.engine.total_work();
    assert!(h.change(&ChangeSet::local_pref("pod00-edge00", "eth1", 150)) > 0);
    let work = h.engine.total_work() - before;
    h.check_against_baseline();
    assert!(
        records * 5 <= FIRST_MATCH_RECORDS * 3,
        "{records} trace records exceed 0.6 of {FIRST_MATCH_RECORDS}"
    );
    assert!(work * 5 <= FIRST_MATCH_WORK * 3, "work {work} exceeds 0.6 of {FIRST_MATCH_WORK}");
}

#[test]
fn incremental_ospf_change_work_is_small_on_fat_tree() {
    // A cost flip and a link flip on a k=4 OSPF fat tree. SPF runs over
    // routers, so the four changes cost at most half the join work of
    // the per-prefix fixpoint with its next-hop join, which spent
    // PER_PREFIX_JOIN_WORK join records on them. Next hops are picked
    // per (router, originating router) and prefixes attached once: when
    // the `next-hops` reduce picked them per (router, prefix), it spent
    // PER_PREFIX_NEXT_HOP_WORK records on the four changes (now 554) and
    // the build held PER_PREFIX_TRACE_RECORDS trace records (now 11 464).
    const PER_PREFIX_JOIN_WORK: u64 = 7764;
    const PER_PREFIX_NEXT_HOP_WORK: u64 = 1444;
    const PER_PREFIX_TRACE_RECORDS: usize = 12436;
    let mut h = Harness::new(build_configs(&fat_tree(4), ProtocolChoice::Ospf));
    let records = h.engine.trace_records();
    let work = |h: &Harness, op: &str| h.engine.op_stats()[op].work;
    let (join_before, nh_before) = (work(&h, "join"), work(&h, "next-hops"));
    let mut link_up = ChangeSet::new();
    link_up.push(ChangeOp::EnableInterface { device: "pod01-edge00".into(), iface: "eth0".into() });
    for cs in [
        ChangeSet::link_cost("pod00-aggr00", "eth0", 10),
        ChangeSet::link_cost("pod00-aggr00", "eth0", 1),
        ChangeSet::link_failure("pod01-edge00", "eth0"),
        link_up,
    ] {
        assert!(h.change(&cs) > 0, "{cs:?} moved no FIB entry");
        h.check_against_baseline();
    }
    let join = work(&h, "join") - join_before;
    let next_hops = work(&h, "next-hops") - nh_before;
    assert!(
        join * 2 <= PER_PREFIX_JOIN_WORK,
        "join work {join} over the two flips exceeds half of {PER_PREFIX_JOIN_WORK}"
    );
    assert!(
        next_hops * 2 <= PER_PREFIX_NEXT_HOP_WORK,
        "next-hops work {next_hops} exceeds half of {PER_PREFIX_NEXT_HOP_WORK}"
    );
    assert!(
        records * 20 <= PER_PREFIX_TRACE_RECORDS * 19,
        "{records} trace records after the build exceed 0.95 of {PER_PREFIX_TRACE_RECORDS}"
    );
}

#[test]
fn redistribution_through_the_igp_into_bgp() {
    // ring(4) r000–r001–r002–r003–r000 runs OSPF everywhere except on
    // link 0 (r000 eth0 – r001 eth0), readdressed outside the OSPF
    // networks: r000 and r001 peer in eBGP over it instead, and r001
    // redistributes its OSPF routes and its connected subnets into BGP.
    // BGP's admin distance loses to OSPF's, so r000 forwards by OSPF
    // while it has OSPF routes and by what r001's IGP reaches once it
    // has not.
    let mut configs = build_configs(&ring(4), ProtocolChoice::Ospf);
    let (a0, a1): (Ip, Ip) = ("192.168.0.1".parse().unwrap(), "192.168.0.2".parse().unwrap());
    for (dev, addr) in [("r000", a0), ("r001", a1)] {
        configs.get_mut(dev).unwrap().interface_mut("eth0").unwrap().address = Some((addr, 30));
    }
    let bgp = |asn, addr, remote_as, redistribute| {
        let peer = BgpNeighbor { addr, remote_as, route_map_in: None, route_map_out: None };
        BgpConfig { asn, networks: Vec::new(), neighbors: vec![peer], redistribute }
    };
    configs.get_mut("r000").unwrap().bgp = Some(bgp(65000, a1, 65001, Vec::new()));
    let redistribute = vec![
        Redistribution { source: RedistSource::Ospf, metric: 20 },
        Redistribution { source: RedistSource::Connected, metric: 0 },
    ];
    configs.get_mut("r001").unwrap().bgp = Some(bgp(65001, a0, 65000, redistribute));
    let mut h = Harness::new(configs);
    let (p1, p2, p3) = (host_prefix(1), host_prefix(2), host_prefix(3));
    assert_eq!(h.nexthops("r000", p2), vec!["eth1".to_string()], "OSPF, via r003");
    h.check_against_baseline();

    // A cost change moves the IGP distances the redistribution reads.
    h.change(&ChangeSet::link_cost("r001", "eth1", 50));
    h.check_against_baseline();

    // Cut r000 off from OSPF: every remote route is now the BGP one,
    // r001's OSPF routes and its connected subnets.
    h.change(&ChangeSet::link_failure("r000", "eth1"));
    for p in [p1, p2, p3] {
        assert_eq!(h.nexthops("r000", p), vec!["eth0".to_string()], "{p} via BGP");
    }
    h.check_against_baseline();

    // r001's IGP loses r003: the redistributed route is withdrawn.
    h.change(&ChangeSet::link_failure("r002", "eth1"));
    assert!(h.nexthops("r000", p3).is_empty());
    assert_eq!(h.nexthops("r000", p2), vec!["eth0".to_string()]);
    h.check_against_baseline();
}

#[test]
fn divergent_bgp_is_detected() {
    // A classic "bad gadget"-style preference cycle on a 3-ring: every
    // node prefers the route through its clockwise neighbor over its
    // own direct route, which never converges.
    let mut configs = build_configs(&ring(3), ProtocolChoice::Bgp);
    for n in 0..3 {
        // On each node, prefer routes learned on eth1 (counterclockwise
        // side) with a higher LP the longer they are — engineered by
        // raising LP on exactly one side everywhere.
        ChangeSet::local_pref(&format!("r{n:03}"), "eth1", 200)
            .apply(&mut configs)
            .unwrap();
    }
    let mut reg = Registry::new();
    let lowered = lower(&configs, &mut reg);
    let mut engine = RoutingEngine::new();
    let result = engine.apply(lowered.facts.iter().map(|f| (f.clone(), 1)));
    let oracle = baseline::compute(&lowered.facts);
    match (result, oracle) {
        // Either both diverge (true bad gadget) or both converge to the
        // same answer (if the gadget is actually stable).
        (Err(_), Err(_)) => {}
        (Ok(_), Ok(dp)) => assert_eq!(engine.fib(), dp.fib),
        (a, b) => panic!("engine and baseline disagree on convergence: {a:?} vs {b:?}"),
    }
}

#[test]
fn rip_ring_matches_baseline_and_reroutes() {
    let mut h = Harness::new(build_configs(&ring(5), ProtocolChoice::Rip));
    h.check_against_baseline();
    let p2 = host_prefix(2);
    let before = h.nexthops("r000", p2);
    assert_eq!(before.len(), 1, "2 hops beats 3 hops: {before:?}");

    // Fail the short side: RIP falls back to the long way around.
    let iface = before[0].clone();
    h.change(&ChangeSet::link_failure("r000", &iface));
    let after = h.nexthops("r000", p2);
    assert_eq!(after.len(), 1);
    assert_ne!(after, before);
    h.check_against_baseline();
}

#[test]
fn rip_hop_limit_makes_far_prefixes_unreachable() {
    // Ring of 40: the farthest prefix is 20 hops away, beyond RIP's
    // 15-hop horizon, while nearby prefixes stay reachable.
    let h = Harness::new(build_configs(&ring(40), ProtocolChoice::Rip));
    h.check_against_baseline();
    // r000 → prefix of r020: 20 hops either way: unreachable.
    assert!(
        h.nexthops("r000", host_prefix(20)).is_empty(),
        "20 hops exceeds RIP's metric horizon"
    );
    // r000 → prefix of r010: 10 hops: reachable.
    assert!(!h.nexthops("r000", host_prefix(10)).is_empty());
    // The boundary: 15 hops reachable (metric 15), 16 not.
    assert!(!h.nexthops("r000", host_prefix(14)).is_empty(), "14 hops + origin metric 1 = 15");
    assert!(h.nexthops("r000", host_prefix(15)).is_empty(), "15 hops + origin metric 1 = 16");
}

#[test]
fn rip_redistribution_of_statics() {
    let external: Prefix = "192.168.99.0/24".parse().unwrap();
    let mut configs = build_configs(&ring(4), ProtocolChoice::Rip);
    let mut cs = ChangeSet::new();
    cs.push(ChangeOp::AddStaticRoute {
        device: "r000".into(),
        prefix: external,
        next_hop: rc_netcfg::ast::NextHop::Interface("host0".into()),
    });
    cs.apply(&mut configs).unwrap();
    // Redistribution must be configured at the AST level (no ChangeOp
    // for RIP targets — edit directly).
    configs.get_mut("r000").unwrap().rip.as_mut().unwrap().redistribute.push(
        rc_netcfg::ast::Redistribution {
            source: rc_netcfg::ast::RedistSource::Static,
            metric: 5,
        },
    );
    let h = Harness::new(configs);
    for n in 1..4 {
        assert!(
            !h.nexthops(&format!("r{n:03}"), external).is_empty(),
            "r{n:03} did not learn the redistributed prefix"
        );
    }
    h.check_against_baseline();
}

#[test]
fn bgp_med_steers_peer_choice() {
    // Ring of 4: r000 reaches r002's prefix via either neighbor at
    // equal LP and path length; neighbor-id tiebreak picks one.
    // Advertising a LOWER Med on the other side must attract the
    // traffic (lower MED wins), without touching r000's own config.
    let mut h = Harness::new(build_configs(&ring(4), ProtocolChoice::Bgp));
    let p2 = host_prefix(2);
    let before = h.nexthops("r000", p2);
    assert_eq!(before.len(), 1);
    // The neighbor on the *other* side of r000: r001 faces r000 via its
    // eth0, r003 faces r000 via its eth1 (generator link order).
    let (steer_dev, steer_iface) =
        if before[0] == "eth0" { ("r003", "eth1") } else { ("r001", "eth0") };

    // First set a WORSE (higher) MED on the currently-unused side:
    // nothing should change (default MED 0 on the used side wins).
    let mut cs = ChangeSet::new();
    cs.push(ChangeOp::SetMed { device: steer_dev.into(), iface: steer_iface.into(), med: 50 });
    h.change(&cs);
    assert_eq!(h.nexthops("r000", p2), before);
    h.check_against_baseline();

    // Now set a worse MED on the USED side: traffic flips.
    let (used_dev, used_iface) =
        if before[0] == "eth0" { ("r001", "eth0") } else { ("r003", "eth1") };
    let mut cs = ChangeSet::new();
    cs.push(ChangeOp::SetMed { device: used_dev.into(), iface: used_iface.into(), med: 90 });
    h.change(&cs);
    let after = h.nexthops("r000", p2);
    assert_ne!(after, before, "higher MED on the used entry must repel traffic");
    h.check_against_baseline();
}

#[test]
fn import_route_map_with_nested_match_prefixes_matches_baseline() {
    // Ring of 4: r000 hears every host prefix from r001 and from r003.
    // Its import map from r001 permits r002's /24 at local-pref 200,
    // denies the rest of 172.16.0.0/16 and so shadows the permit of
    // r003's /24 at local-pref 300 below it: the first match decides.
    let mut configs = build_configs(&ring(4), ProtocolChoice::Bgp);
    let (p1, p2, p3) = (host_prefix(1), host_prefix(2), host_prefix(3));
    set_route_map(&mut configs, "r000", "r001", false, vec![
        entry(10, true, Some(p2), Some(200), None),
        entry(20, false, hosts16(), None, None),
        entry(30, true, Some(p3), Some(300), None),
    ]);
    let (to_r001, to_r003) = (facing(&configs, "r000", "r001"), facing(&configs, "r000", "r003"));
    let mut h = Harness::new(configs);
    h.check_against_baseline();
    assert_eq!(h.nexthops("r000", p2), [to_r001.as_str()], "local-pref 200 wins");
    assert_eq!(h.nexthops("r000", p1), [to_r003.as_str()], "the /16 deny");
    assert_eq!(h.nexthops("r000", p3), [to_r003.as_str()], "the /16 deny shadows the /24 permit");

    // Local-pref 50 on every permit entry: r002's /24 moves to r003.
    assert!(h.change(&ChangeSet::local_pref("r000", &to_r001, 50)) > 0);
    h.check_against_baseline();
    assert_eq!(h.nexthops("r000", p2), [to_r003.as_str()]);

    // Cut r000 off r003: only the /24 permit is left.
    h.change(&ChangeSet::link_failure("r000", &to_r003));
    h.check_against_baseline();
    assert_eq!(h.nexthops("r000", p2), [to_r001.as_str()]);
    assert!(h.nexthops("r000", p1).is_empty() && h.nexthops("r000", p3).is_empty());
}

#[test]
fn export_route_map_with_nested_match_prefixes_matches_baseline() {
    // Ring of 4: r001's export map toward r000 advertises r002's /24 at
    // MED 50, denies the rest of 172.16.0.0/16 and so shadows the permit
    // of its own /24 below it.
    let mut configs = build_configs(&ring(4), ProtocolChoice::Bgp);
    let (p1, p2) = (host_prefix(1), host_prefix(2));
    set_route_map(&mut configs, "r001", "r000", true, vec![
        entry(10, true, Some(p2), None, Some(50)),
        entry(20, false, hosts16(), None, None),
        entry(30, true, Some(p1), None, None),
    ]);
    let (to_r001, to_r003) = (facing(&configs, "r000", "r001"), facing(&configs, "r000", "r003"));
    let mut h = Harness::new(configs);
    h.check_against_baseline();
    assert_eq!(h.nexthops("r000", p2), [to_r003.as_str()], "MED 0 through r003 beats 50");
    assert_eq!(h.nexthops("r000", p1), [to_r003.as_str()], "r001's own /24 goes the long way");

    // An import MED of 0 at r000 overrides the exporter's 50: the tie
    // goes to the lower neighbor id, r001.
    assert!(h.edit(|c| {
        set_route_map(c, "r000", "r001", false, vec![entry(10, true, None, None, Some(0))])
    }) > 0);
    h.check_against_baseline();
    assert_eq!(h.nexthops("r000", p2), [to_r001.as_str()]);

    // A new export MED changes nothing while the import MED overrides it.
    let fib = h.engine.fib();
    let to_r000 = facing(&h.configs, "r001", "r000");
    let mut cs = ChangeSet::new();
    cs.push(ChangeOp::SetMed { device: "r001".into(), iface: to_r000, med: 70 });
    h.change(&cs);
    h.check_against_baseline();
    assert_eq!(h.engine.fib(), fib);

    // Cut r000 off r001: everything comes through r003.
    h.change(&ChangeSet::link_failure("r000", &to_r001));
    h.check_against_baseline();
    assert_eq!(h.nexthops("r000", p2), [to_r003.as_str()]);
    assert_eq!(h.nexthops("r000", p1), [to_r003.as_str()]);
}

#[test]
fn route_map_entries_sharing_a_seq_match_baseline() {
    // Two permits with one seq both match r002's /24. Like the baseline,
    // the engine orders entries as whole tuples, so the one matching
    // 172.16.0.0/16 (the lower match prefix) decides: local-pref 200.
    let mut configs = build_configs(&ring(4), ProtocolChoice::Bgp);
    let p2 = host_prefix(2);
    set_route_map(&mut configs, "r000", "r001", false, vec![
        entry(10, true, Some(p2), Some(50), None),
        entry(10, true, hosts16(), Some(200), None),
    ]);
    let to_r001 = facing(&configs, "r000", "r001");
    let h = Harness::new(configs);
    h.check_against_baseline();
    assert_eq!(h.nexthops("r000", p2), [to_r001.as_str()]);
}
