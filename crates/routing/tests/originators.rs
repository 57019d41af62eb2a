//! Prefixes with several originating routers. The engine picks OSPF and
//! RIP next hops per (router, originating router) and attaches each
//! prefix to the originators that attain its distance, so a prefix
//! several routers originate is where that union shows: anycast ties,
//! unequal stub costs, an originator tied with a remote one, tied
//! prefixes redistributed into BGP, and random stub networks on random
//! graphs. Every state is checked against the from-scratch baseline,
//! which runs one Dijkstra per prefix from all its originators at once.
//!
//! Origins are added as facts (`OspfOrigin` / `RipOrigin`) with no
//! interface behind them, so no connected or static route at the
//! originator hides what the IGP chose there.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use rc_netcfg::ast::{BgpConfig, BgpNeighbor, RedistSource, Redistribution};
use rc_netcfg::change::{ChangeOp, ChangeSet};
use rc_netcfg::facts::{fact_delta, lower, Registry};
use rc_netcfg::gen::{build_configs, ProtocolChoice};
use rc_netcfg::topology::{random_connected, ring};
use rc_netcfg::types::{Ip, Prefix};
use rc_netcfg::{DeviceConfig, Fact};
use rc_routing::baseline;
use rc_routing::engine::RoutingEngine;
use rc_routing::route::FibAction;

/// A network whose facts are its lowered configurations plus origin
/// facts added directly.
struct Net {
    engine: RoutingEngine,
    reg: Registry,
    proto: ProtocolChoice,
    configs: BTreeMap<String, DeviceConfig>,
    lowered: BTreeSet<Fact>,
    extra: BTreeSet<Fact>,
    facts: BTreeSet<Fact>,
}

impl Net {
    fn new(configs: BTreeMap<String, DeviceConfig>, proto: ProtocolChoice) -> Self {
        let mut reg = Registry::new();
        let lowered = lower(&configs, &mut reg);
        assert!(lowered.warnings.is_empty(), "unexpected warnings: {:?}", lowered.warnings);
        let mut engine = RoutingEngine::new();
        engine.apply(lowered.facts.iter().map(|f| (f.clone(), 1))).unwrap();
        let facts = lowered.facts.clone();
        Net { engine, reg, proto, configs, lowered: lowered.facts, extra: BTreeSet::new(), facts }
    }

    /// The origin fact of `prefix` at `dev` at stub cost (RIP: metric)
    /// `cost`, in the network's IGP.
    fn origin(&self, dev: &str, prefix: Prefix, cost: u32) -> Fact {
        let node = self.reg.try_node(dev).unwrap();
        match self.proto {
            ProtocolChoice::Ospf => Fact::OspfOrigin { node, prefix, cost },
            ProtocolChoice::Rip => Fact::RipOrigin { node, prefix, metric: cost },
            ProtocolChoice::Bgp => unreachable!("origins are IGP facts"),
        }
    }

    /// Replace the directly added origins and apply the difference as
    /// one epoch, then check it against the baseline.
    fn set_origins(&mut self, origins: &[(&str, Prefix, u32)]) {
        self.extra = origins.iter().map(|&(d, p, c)| self.origin(d, p, c)).collect();
        self.sync();
    }

    /// Change a configuration, apply the difference as one epoch, then
    /// check it against the baseline.
    fn change(&mut self, cs: &ChangeSet) {
        cs.apply(&mut self.configs).unwrap();
        self.lowered = lower(&self.configs, &mut self.reg).facts;
        self.sync();
    }

    fn sync(&mut self) {
        let facts: BTreeSet<Fact> = self.lowered.union(&self.extra).cloned().collect();
        self.engine.apply(fact_delta(&self.facts, &facts)).unwrap();
        self.facts = facts;
        let oracle = baseline::compute(&self.facts).unwrap();
        assert_eq!(self.engine.fib(), oracle.fib, "incremental FIB diverged from baseline");
    }

    /// FIB next hops at `dev` for `prefix`, as interface names.
    fn nexthops(&self, dev: &str, prefix: Prefix) -> Vec<String> {
        let n = self.reg.try_node(dev).unwrap();
        let mut out: Vec<String> = self
            .engine
            .fib()
            .iter()
            .filter(|e| e.node == n && e.prefix == prefix)
            .map(|e| match e.action {
                FibAction::Forward(i) => self.reg.iface_name(i).to_string(),
                other => format!("{other:?}"),
            })
            .collect();
        out.sort();
        out
    }

    /// The interfaces of `dev` facing each of `peers`, sorted.
    fn toward(&self, dev: &str, peers: &[&str]) -> Vec<String> {
        let mut out: Vec<String> = peers.iter().map(|p| facing(&self.configs, dev, p)).collect();
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

/// A stub prefix outside every address the generators hand out.
fn stub(i: u8) -> Prefix {
    Prefix::new(Ip(u32::from_be_bytes([192, 0, i, 0])), 24)
}

const IGPS: [ProtocolChoice; 2] = [ProtocolChoice::Ospf, ProtocolChoice::Rip];

#[test]
fn anycast_prefix_forwards_toward_both_originators() {
    // ring(4): r000–r001–r002–r003–r000. r000 and r002 originate Q at
    // cost 5, so r001 and r003, one hop from each, reach Q at 6 both
    // ways. An originator's own cost 5 beats 6 through any neighbour,
    // and it has no route to a prefix it reaches only through itself.
    for proto in IGPS {
        let mut net = Net::new(build_configs(&ring(4), proto), proto);
        let q = stub(1);
        net.set_origins(&[("r000", q, 5), ("r002", q, 5)]);
        for (dev, peers) in [("r001", ["r000", "r002"]), ("r003", ["r000", "r002"])] {
            assert_eq!(net.nexthops(dev, q), net.toward(dev, &peers), "{proto:?} {dev}");
        }
        assert!(net.nexthops("r000", q).is_empty(), "{proto:?}: r000 originates Q itself");

        // Break the tie, then restore it.
        net.set_origins(&[("r000", q, 7), ("r002", q, 5)]);
        assert_eq!(net.nexthops("r001", q), net.toward("r001", &["r002"]), "{proto:?}");
        net.set_origins(&[("r000", q, 5), ("r002", q, 5)]);
        assert_eq!(net.nexthops("r001", q), net.toward("r001", &["r000", "r002"]), "{proto:?}");
    }
}

#[test]
fn farther_originator_wins_at_a_lower_stub_cost() {
    // ring(6): r000 originates Q at cost 10 and r003, three hops away,
    // at cost 1. r001 is next to r000 but reaches Q at 3 through r002;
    // r000 itself reaches it at 4 both ways round the ring.
    for proto in IGPS {
        let mut net = Net::new(build_configs(&ring(6), proto), proto);
        let q = stub(2);
        net.set_origins(&[("r000", q, 10), ("r003", q, 1)]);
        assert_eq!(net.nexthops("r001", q), net.toward("r001", &["r002"]), "{proto:?}");
        assert_eq!(net.nexthops("r000", q), net.toward("r000", &["r001", "r005"]), "{proto:?}");
        assert!(net.nexthops("r003", q).is_empty(), "{proto:?}");

        // Cut r003 off from r002: r001 now goes r000's way at 11 (r000
        // by itself) against 5 round the far side (r000–r005–r004–r003).
        net.change(&ChangeSet::link_failure("r002", &facing(&net.configs, "r002", "r003")));
        assert_eq!(net.nexthops("r001", q), net.toward("r001", &["r000"]), "{proto:?}");
        assert_eq!(net.nexthops("r000", q), net.toward("r000", &["r005"]), "{proto:?}");
    }
}

#[test]
fn originator_tied_with_a_remote_originator_forwards_to_the_neighbour() {
    // ring(4): r000 originates Q at cost 2 and its neighbour r001 at
    // cost 1. r000 reaches Q at 2 by itself and at 2 through r001, so it
    // forwards to r001 only — not to r003, which reaches Q at 3 through
    // either neighbour.
    for proto in IGPS {
        let mut net = Net::new(build_configs(&ring(4), proto), proto);
        let q = stub(3);
        net.set_origins(&[("r000", q, 2), ("r001", q, 1)]);
        assert_eq!(net.nexthops("r000", q), net.toward("r000", &["r001"]), "{proto:?}");
        assert_eq!(net.nexthops("r003", q), net.toward("r003", &["r000", "r002"]), "{proto:?}");
        assert_eq!(net.nexthops("r002", q), net.toward("r002", &["r001"]), "{proto:?}");

        // At cost 1 r000 wins outright and drops its route.
        net.set_origins(&[("r000", q, 1), ("r001", q, 1)]);
        assert!(net.nexthops("r000", q).is_empty(), "{proto:?}");
        assert_eq!(net.nexthops("r003", q), net.toward("r003", &["r000"]), "{proto:?}");
        assert_eq!(net.nexthops("r002", q), net.toward("r002", &["r001"]), "{proto:?}");
    }
}

#[test]
fn tied_originators_redistribute_into_bgp_once() {
    // ring(4) r000–r001–r002–r003–r000 runs the IGP everywhere except on
    // link 0 (r000 eth0 – r001 eth0), readdressed outside the IGP
    // networks: r000 and r001 peer in eBGP over it, and r001
    // redistributes its IGP routes into BGP. r000 is cut off from the
    // IGP, so every route it has comes from r001 over BGP.
    for proto in IGPS {
        let source = match proto {
            ProtocolChoice::Ospf => RedistSource::Ospf,
            _ => RedistSource::Rip,
        };
        let mut configs = build_configs(&ring(4), proto);
        let (a0, a1): (Ip, Ip) =
            ("192.168.0.1".parse().unwrap(), "192.168.0.2".parse().unwrap());
        for (dev, addr) in [("r000", a0), ("r001", a1)] {
            configs.get_mut(dev).unwrap().interface_mut("eth0").unwrap().address = Some((addr, 30));
        }
        let bgp = |asn, addr, remote_as, redistribute| {
            let peer = BgpNeighbor { addr, remote_as, route_map_in: None, route_map_out: None };
            BgpConfig { asn, networks: Vec::new(), neighbors: vec![peer], redistribute }
        };
        configs.get_mut("r000").unwrap().bgp = Some(bgp(65000, a1, 65001, Vec::new()));
        let redistribute = vec![Redistribution { source, metric: 20 }];
        configs.get_mut("r001").unwrap().bgp = Some(bgp(65001, a0, 65000, redistribute));
        let mut net = Net::new(configs, proto);
        net.change(&ChangeSet::link_failure("r000", "eth1"));

        // Q: r002 (one hop from r001) at 2 and r003 (two hops) at 1 tie
        // at 3. H: r003 at 13 is 15 from r001, RIP's last reachable
        // metric; F: r003 at 14 is 16, past RIP's horizon.
        let (q, h, f) = (stub(4), stub(5), stub(6));
        net.set_origins(&[("r002", q, 2), ("r003", q, 1), ("r003", h, 13), ("r003", f, 14)]);
        assert_eq!(net.nexthops("r001", q), net.toward("r001", &["r002"]), "{proto:?}");
        assert_eq!(net.nexthops("r000", q), vec!["eth0".to_string()], "{proto:?}: one BGP route");
        assert_eq!(net.nexthops("r000", h), vec!["eth0".to_string()], "{proto:?}");
        let past_horizon = proto == ProtocolChoice::Rip;
        assert_eq!(net.nexthops("r000", f).is_empty(), past_horizon, "{proto:?}");

        // Withdrawing one tied originator keeps the BGP route; the
        // other withdraws it.
        net.set_origins(&[("r003", q, 1), ("r003", h, 13), ("r003", f, 14)]);
        assert_eq!(net.nexthops("r000", q), vec!["eth0".to_string()], "{proto:?}");
        net.set_origins(&[("r003", h, 13), ("r003", f, 14)]);
        assert!(net.nexthops("r000", q).is_empty(), "{proto:?}");

        // r001 loses r002 and r003: nothing is redistributed.
        net.change(&ChangeSet::link_failure("r001", "eth1"));
        assert!(net.nexthops("r000", h).is_empty(), "{proto:?}");
    }
}

/// One random change to a network with extra stub networks.
#[derive(Clone, Debug)]
enum Op {
    /// Shut or re-enable a device's `iface`-th link interface.
    Toggle { dev: usize, iface: usize },
    /// Set a link interface's OSPF cost (a no-op under RIP).
    Cost { dev: usize, iface: usize, cost: u32 },
    /// Re-cost one origin of a stub network.
    Recost { stub: usize, at: usize, cost: u32 },
    /// Withdraw one origin of a stub network.
    Withdraw { stub: usize, at: usize },
    /// Originate a stub network at one more device.
    Originate { stub: usize, dev: usize, cost: u32 },
}

/// Stub networks as `(device index, cost)` origins, 2–3 per network
/// (two picks of one device merge into one origin).
type Stubs = Vec<Vec<(usize, u32)>>;

fn arb_stubs(costs: std::ops::RangeInclusive<u32>) -> impl Strategy<Value = Stubs> {
    let origin = (0usize..16, costs);
    prop::collection::vec(prop::collection::vec(origin, 2..=3), 1..=3)
}

fn arb_ops(costs: std::ops::RangeInclusive<u32>) -> impl Strategy<Value = Vec<Op>> {
    let op = prop_oneof![
        2 => (0usize..16, 0usize..4).prop_map(|(dev, iface)| Op::Toggle { dev, iface }),
        1 => (0usize..16, 0usize..4, 1u32..=5)
            .prop_map(|(dev, iface, cost)| Op::Cost { dev, iface, cost }),
        2 => (0usize..3, 0usize..3, costs.clone())
            .prop_map(|(stub, at, cost)| Op::Recost { stub, at, cost }),
        1 => (0usize..3, 0usize..3).prop_map(|(stub, at)| Op::Withdraw { stub, at }),
        1 => (0usize..3, 0usize..16, costs)
            .prop_map(|(stub, dev, cost)| Op::Originate { stub, dev, cost }),
    ];
    prop::collection::vec(op, 1..=6)
}

/// Build a random connected graph running `proto`, add the stub
/// networks as one epoch, then apply `ops` one epoch each; the FIB must
/// equal the baseline's after every epoch.
fn run_stubs(proto: ProtocolChoice, n: u32, seed: u64, stubs: Stubs, ops: Vec<Op>) {
    let mut net = Net::new(build_configs(&random_connected(n, 0.3, seed), proto), proto);
    let devices: Vec<String> = net.configs.keys().cloned().collect();
    let dev = |i: usize| devices[i % devices.len()].as_str();
    let mut origins: Vec<BTreeMap<&str, u32>> = stubs
        .iter()
        .map(|s| s.iter().map(|&(d, c)| (dev(d), c)).collect())
        .collect();
    let apply = |net: &mut Net, origins: &[BTreeMap<&str, u32>]| {
        let all: Vec<(&str, Prefix, u32)> = (0u8..)
            .zip(origins)
            .flat_map(|(i, o)| o.iter().map(move |(&d, &c)| (d, stub(i), c)))
            .collect();
        net.set_origins(&all);
    };
    let link = |net: &Net, d: usize, i: usize| {
        let eths: Vec<String> = net.configs[dev(d)]
            .interfaces
            .iter()
            .filter(|f| f.name.starts_with("eth"))
            .map(|f| f.name.clone())
            .collect();
        (dev(d).to_string(), eths[i % eths.len()].clone())
    };
    apply(&mut net, &origins);
    for op in ops {
        match op {
            Op::Toggle { dev: d, iface } => {
                let (device, iface) = link(&net, d, iface);
                let shut = net.configs[&device].interface(&iface).unwrap().shutdown;
                let mut cs = ChangeSet::new();
                cs.push(if shut {
                    ChangeOp::EnableInterface { device, iface }
                } else {
                    ChangeOp::DisableInterface { device, iface }
                });
                net.change(&cs);
            }
            Op::Cost { dev: d, iface, cost } => {
                if proto == ProtocolChoice::Ospf {
                    let (device, iface) = link(&net, d, iface);
                    net.change(&ChangeSet::link_cost(&device, &iface, cost));
                }
            }
            Op::Recost { stub, at, cost } => {
                let o = &mut origins[stub % stubs.len()];
                let d = *o.keys().nth(at % o.len()).unwrap();
                o.insert(d, cost);
                apply(&mut net, &origins);
            }
            Op::Withdraw { stub, at } => {
                // The last origin of a network comes back at cost 1.
                let k = stub % stubs.len();
                let d = *origins[k].keys().nth(at % origins[k].len()).unwrap();
                origins[k].remove(d);
                apply(&mut net, &origins);
                if origins[k].is_empty() {
                    origins[k].insert(d, 1);
                    apply(&mut net, &origins);
                }
            }
            Op::Originate { stub, dev: d, cost } => {
                origins[stub % stubs.len()].insert(dev(d), cost);
                apply(&mut net, &origins);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ospf_stub_networks_on_random_graphs_equal_baseline(
        n in 4u32..=10,
        seed in 0u64..1000,
        stubs in arb_stubs(1..=12),
        ops in arb_ops(1..=12),
    ) {
        run_stubs(ProtocolChoice::Ospf, n, seed, stubs, ops);
    }

    /// Metrics of 8–15 put most distances near RIP's horizon: a metric
    /// of 15 is reachable, 16 is not.
    #[test]
    fn rip_stub_networks_on_random_graphs_equal_baseline(
        n in 4u32..=10,
        seed in 0u64..1000,
        stubs in arb_stubs(8..=15),
        ops in arb_ops(8..=15),
    ) {
        run_stubs(ProtocolChoice::Rip, n, seed, stubs, ops);
    }
}
