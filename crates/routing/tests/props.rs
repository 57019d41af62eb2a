//! Differential testing: for random topologies and random configuration
//! change sequences, the incrementally-maintained FIB must equal the
//! from-scratch baseline after every single change.

use std::collections::BTreeMap;

use proptest::prelude::*;
use rc_netcfg::ast::{
    AclAction, AclEntry, NextHop, RedistSource, RouteMap, RouteMapAction, RouteMapEntry,
};
use rc_netcfg::change::{AclDir, ChangeOp, ChangeSet, RedistTarget};
use rc_netcfg::facts::{fact_delta, lower, Registry};
use rc_netcfg::gen::{build_configs, ProtocolChoice};
use rc_netcfg::topology::{fat_tree, grid, host_prefix, random_connected, ring};
use rc_netcfg::types::Prefix;
use rc_netcfg::DeviceConfig;
use rc_routing::baseline;
use rc_routing::engine::RoutingEngine;

/// Abstract change commands, instantiated against a topology's actual
/// device/interface space by index arithmetic.
#[derive(Clone, Debug)]
enum Cmd {
    ToggleIface { dev: usize, iface: usize },
    SetCost { dev: usize, iface: usize, cost: u32 },
    SetLocalPref { dev: usize, iface: usize, pref: u32 },
    AddStaticDrop { dev: usize, pfx: u32 },
    RemoveStatic { dev: usize, pfx: u32 },
    AddAclDeny { dev: usize, iface: usize, pfx: u32 },
    RedistStatic { dev: usize },
}

fn arb_cmd() -> impl Strategy<Value = Cmd> {
    prop_oneof![
        3 => (0usize..20, 0usize..4).prop_map(|(dev, iface)| Cmd::ToggleIface { dev, iface }),
        2 => (0usize..20, 0usize..4, prop_oneof![Just(1u32), Just(10), Just(100)])
            .prop_map(|(dev, iface, cost)| Cmd::SetCost { dev, iface, cost }),
        2 => (0usize..20, 0usize..4, prop_oneof![Just(50u32), Just(100), Just(150)])
            .prop_map(|(dev, iface, pref)| Cmd::SetLocalPref { dev, iface, pref }),
        1 => (0usize..20, 0u32..8).prop_map(|(dev, pfx)| Cmd::AddStaticDrop { dev, pfx }),
        1 => (0usize..20, 0u32..8).prop_map(|(dev, pfx)| Cmd::RemoveStatic { dev, pfx }),
        1 => (0usize..20, 0usize..4, 0u32..8)
            .prop_map(|(dev, iface, pfx)| Cmd::AddAclDeny { dev, iface, pfx }),
        1 => (0usize..20).prop_map(|dev| Cmd::RedistStatic { dev }),
    ]
}

fn arb_cmds() -> impl Strategy<Value = Vec<Cmd>> {
    prop::collection::vec(arb_cmd(), 1..12)
}

/// One to three batches of 2..=6 commands each.
fn arb_batches() -> impl Strategy<Value = Vec<Vec<Cmd>>> {
    prop::collection::vec(prop::collection::vec(arb_cmd(), 2..=6), 1..4)
}

/// A generated route-map entry: `(permit, origin, widen to /16,
/// local-pref, MED)`.
type EntrySpec = (bool, usize, bool, Option<u32>, Option<u32>);

/// A generated route-map on one BGP session end: the device, its
/// neighbor, the direction (`out` for export) and 1–4 entries.
#[derive(Clone, Debug)]
struct MapSpec {
    dev: usize,
    nb: usize,
    out: bool,
    entries: Vec<EntrySpec>,
}

fn arb_maps() -> impl Strategy<Value = Vec<MapSpec>> {
    let lp = prop::option::of(prop_oneof![Just(50u32), Just(150), Just(200)]);
    let med = prop::option::of(prop_oneof![Just(0u32), Just(20), Just(50)]);
    let entry = (any::<bool>(), 0usize..16, any::<bool>(), lp, med);
    let spec = (0usize..20, 0usize..4, any::<bool>(), prop::collection::vec(entry, 1..=4))
        .prop_map(|(dev, nb, out, entries)| MapSpec { dev, nb, out, entries });
    prop::collection::vec(spec, 1..6)
}

/// Point the chosen session ends at the generated route-maps. Each entry
/// matches one of the network's originated prefixes or the /16 around
/// it; entries are numbered 10, 20, … in generation order.
fn with_route_maps(
    mut configs: BTreeMap<String, DeviceConfig>,
    maps: &[MapSpec],
) -> BTreeMap<String, DeviceConfig> {
    let origins: Vec<Prefix> =
        configs.values().filter_map(|c| c.bgp.as_ref()).flat_map(|b| b.networks.clone()).collect();
    let devices: Vec<String> = configs.keys().cloned().collect();
    for (k, m) in maps.iter().enumerate() {
        let cfg = configs.get_mut(&devices[m.dev % devices.len()]).unwrap();
        let Some(bgp) = cfg.bgp.as_mut().filter(|b| !b.neighbors.is_empty()) else { continue };
        let n = bgp.neighbors.len();
        let nb = &mut bgp.neighbors[m.nb % n];
        let name = format!("GEN-{k}");
        *if m.out { &mut nb.route_map_out } else { &mut nb.route_map_in } = Some(name.clone());
        let entries = (10..).step_by(10).zip(&m.entries).map(|(seq, &(permit, o, wide, lp, med))| {
            let p = origins[o % origins.len()];
            RouteMapEntry {
                seq,
                action: if permit { RouteMapAction::Permit } else { RouteMapAction::Deny },
                match_prefix: Some(if wide { Prefix::new(p.addr(), 16) } else { p }),
                set_local_pref: lp,
                set_metric: med,
            }
        });
        cfg.route_maps.push(RouteMap { name, entries: entries.collect() });
    }
    configs
}

/// Translate an abstract command into concrete change ops; returns None
/// when the command does not apply (unknown iface, nothing to remove…).
fn concretize(cmd: &Cmd, configs: &BTreeMap<String, DeviceConfig>) -> Option<ChangeSet> {
    let devices: Vec<&String> = configs.keys().collect();
    let pick_dev = |i: usize| devices[i % devices.len()].clone();
    let pick_iface = |cfg: &DeviceConfig, i: usize| -> Option<String> {
        let eths: Vec<_> =
            cfg.interfaces.iter().filter(|f| f.name.starts_with("eth")).collect();
        if eths.is_empty() {
            None
        } else {
            Some(eths[i % eths.len()].name.clone())
        }
    };
    let mut cs = ChangeSet::new();
    match cmd {
        Cmd::ToggleIface { dev, iface } => {
            let d = pick_dev(*dev);
            let i = pick_iface(&configs[&d], *iface)?;
            let shut = configs[&d].interface(&i).unwrap().shutdown;
            if shut {
                cs.push(ChangeOp::EnableInterface { device: d, iface: i });
            } else {
                cs.push(ChangeOp::DisableInterface { device: d, iface: i });
            }
        }
        Cmd::SetCost { dev, iface, cost } => {
            let d = pick_dev(*dev);
            configs[&d].ospf.as_ref()?;
            let i = pick_iface(&configs[&d], *iface)?;
            cs.push(ChangeOp::SetOspfCost { device: d, iface: i, cost: *cost });
        }
        Cmd::SetLocalPref { dev, iface, pref } => {
            let d = pick_dev(*dev);
            configs[&d].bgp.as_ref()?;
            let i = pick_iface(&configs[&d], *iface)?;
            // The interface may be shut (no session): still legal as a
            // config change.
            cs.push(ChangeOp::SetLocalPref { device: d, iface: i, pref: *pref });
        }
        Cmd::AddStaticDrop { dev, pfx } => {
            let d = pick_dev(*dev);
            cs.push(ChangeOp::AddStaticRoute {
                device: d,
                prefix: host_prefix(*pfx),
                next_hop: NextHop::Drop,
            });
        }
        Cmd::RemoveStatic { dev, pfx } => {
            let d = pick_dev(*dev);
            if !configs[&d].static_routes.iter().any(|r| r.prefix == host_prefix(*pfx)) {
                return None;
            }
            cs.push(ChangeOp::RemoveStaticRoute { device: d, prefix: host_prefix(*pfx) });
        }
        Cmd::AddAclDeny { dev, iface, pfx } => {
            let d = pick_dev(*dev);
            let i = pick_iface(&configs[&d], *iface)?;
            let seq = 10 + configs[&d].acl("T").map_or(0, |a| a.entries.len() as u32) * 10;
            if configs[&d].acl("T").is_some_and(|a| a.entries.iter().any(|e| e.seq == seq)) {
                return None;
            }
            cs.push(ChangeOp::AddAclEntry {
                device: d.clone(),
                acl: "T".into(),
                entry: AclEntry {
                    seq,
                    action: AclAction::Deny,
                    proto: None,
                    src: Prefix::DEFAULT,
                    dst: host_prefix(*pfx),
                    dst_ports: None,
                },
            });
            cs.push(ChangeOp::BindAcl { device: d, iface: i, dir: AclDir::In, acl: "T".into() });
        }
        Cmd::RedistStatic { dev } => {
            let d = pick_dev(*dev);
            let cfg = &configs[&d];
            let target = if cfg.ospf.is_some() {
                RedistTarget::Ospf
            } else if cfg.bgp.is_some() {
                RedistTarget::Bgp
            } else {
                return None;
            };
            // Only add once.
            let already = match target {
                RedistTarget::Ospf => cfg
                    .ospf
                    .as_ref()
                    .unwrap()
                    .redistribute
                    .iter()
                    .any(|r| r.source == RedistSource::Static),
                RedistTarget::Bgp => cfg
                    .bgp
                    .as_ref()
                    .unwrap()
                    .redistribute
                    .iter()
                    .any(|r| r.source == RedistSource::Static),
            };
            if already {
                return None;
            }
            cs.push(ChangeOp::AddRedistribution {
                device: d,
                into: target,
                source: RedistSource::Static,
                metric: 20,
            });
        }
    }
    Some(cs)
}

fn run_sequence(mut configs: BTreeMap<String, DeviceConfig>, cmds: Vec<Cmd>) {
    let mut reg = Registry::new();
    let lowered = lower(&configs, &mut reg);
    let mut facts = lowered.facts;
    let mut engine = RoutingEngine::new();
    engine.apply(facts.iter().map(|f| (f.clone(), 1))).unwrap();
    let oracle = baseline::compute(&facts).unwrap();
    assert_eq!(engine.fib(), oracle.fib, "initial FIB mismatch");

    for (step, cmd) in cmds.iter().enumerate() {
        let Some(cs) = concretize(cmd, &configs) else { continue };
        if cs.apply(&mut configs).is_err() {
            continue;
        }
        let lowered = lower(&configs, &mut reg);
        let delta = fact_delta(&facts, &lowered.facts);
        facts = lowered.facts;
        if engine.apply(delta).is_err() {
            // Random local-pref settings can build genuine preference
            // cycles. A divergent control plane poisons the epoch, so
            // stop here — the scenario suite covers divergence
            // reporting explicitly.
            return;
        }
        let oracle = baseline::compute(&facts).unwrap();
        assert_eq!(
            engine.fib(),
            oracle.fib,
            "FIB mismatch after step {step} ({cmd:?})"
        );
        assert_eq!(engine.filters(), oracle.filters, "filter mismatch after step {step}");
        if step % 5 == 4 {
            engine.compact();
        }
    }
}

/// Like [`run_sequence`], but each batch of commands is applied to the
/// configs one after the other and reaches the engine as ONE epoch, the
/// way a coalesced maintenance window does.
fn run_batches(mut configs: BTreeMap<String, DeviceConfig>, batches: Vec<Vec<Cmd>>) {
    let mut reg = Registry::new();
    let mut facts = lower(&configs, &mut reg).facts;
    let mut engine = RoutingEngine::new();
    engine.apply(facts.iter().map(|f| (f.clone(), 1))).unwrap();
    for (step, batch) in batches.iter().enumerate() {
        for cmd in batch {
            if let Some(cs) = concretize(cmd, &configs) {
                // A command that does not apply leaves the configs as
                // they were; the rest of the batch still goes in.
                let _ = cs.apply(&mut configs);
            }
        }
        let lowered = lower(&configs, &mut reg);
        let delta = fact_delta(&facts, &lowered.facts);
        facts = lowered.facts;
        if engine.apply(delta).is_err() {
            return;
        }
        let oracle = baseline::compute(&facts).unwrap();
        assert_eq!(engine.fib(), oracle.fib, "FIB mismatch after batch {step} ({batch:?})");
        assert_eq!(engine.filters(), oracle.filters, "filter mismatch after batch {step}");
    }
}

/// A link prefix is originated by both ends of the link, each at its
/// own interface cost. Raising one end's cost must leave the prefix
/// reachable through the other end only, where both were equal before.
#[test]
fn ospf_link_prefix_with_unequal_stub_costs_matches_baseline() {
    // ring(5): link 0 joins r000 (eth0) and r001 (eth0); r003 is two
    // hops from either end.
    let mut configs = build_configs(&ring(5), ProtocolChoice::Ospf);
    let link0 = configs["r000"].interface("eth0").unwrap().prefix().unwrap();
    let mut reg = Registry::new();
    let mut facts = lower(&configs, &mut reg).facts;
    let mut engine = RoutingEngine::new();
    engine.apply(facts.iter().map(|f| (f.clone(), 1))).unwrap();
    let r003 = reg.try_node("r003").unwrap();
    let hops = |engine: &RoutingEngine| {
        engine.fib().iter().filter(|e| e.node == r003 && e.prefix == link0).count()
    };
    assert_eq!(hops(&engine), 2, "equal stub costs: ECMP toward both originators");

    ChangeSet::link_cost("r000", "eth0", 7).apply(&mut configs).unwrap();
    let lowered = lower(&configs, &mut reg);
    engine.apply(fact_delta(&facts, &lowered.facts)).unwrap();
    facts = lowered.facts;
    assert_eq!(hops(&engine), 1, "r000's stub cost 7 loses to r001's 1");
    assert_eq!(engine.fib(), baseline::compute(&facts).unwrap().fib);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn ospf_ring_incremental_equals_baseline(cmds in arb_cmds()) {
        run_sequence(build_configs(&ring(5), ProtocolChoice::Ospf), cmds);
    }

    #[test]
    fn ospf_random_incremental_equals_baseline(cmds in arb_cmds(), seed in 0u64..50) {
        run_sequence(
            build_configs(&random_connected(8, 0.3, seed), ProtocolChoice::Ospf),
            cmds,
        );
    }

    #[test]
    fn ospf_fat_tree_multi_change_epochs_equal_baseline(batches in arb_batches()) {
        run_batches(build_configs(&fat_tree(4), ProtocolChoice::Ospf), batches);
    }

    #[test]
    fn rip_fat_tree_multi_change_epochs_equal_baseline(batches in arb_batches()) {
        run_batches(build_configs(&fat_tree(4), ProtocolChoice::Rip), batches);
    }

    #[test]
    fn bgp_fat_tree_multi_change_epochs_equal_baseline(batches in arb_batches()) {
        run_batches(build_configs(&fat_tree(4), ProtocolChoice::Bgp), batches);
    }

    #[test]
    fn bgp_route_maps_with_match_prefixes_equal_baseline(
        maps in arb_maps(),
        cmds in arb_cmds(),
        seed in 0u64..50,
    ) {
        let topo = random_connected(8, 0.3, seed);
        let configs = with_route_maps(build_configs(&topo, ProtocolChoice::Bgp), &maps);
        // Random local-prefs can build a preference cycle that no model
        // converges on; such starts are skipped.
        if baseline::compute(&lower(&configs, &mut Registry::new()).facts).is_ok() {
            run_sequence(configs, cmds);
        }
    }

    #[test]
    fn bgp_ring_incremental_equals_baseline(cmds in arb_cmds()) {
        run_sequence(build_configs(&ring(5), ProtocolChoice::Bgp), cmds);
    }

    #[test]
    fn ospf_grid_incremental_equals_baseline(cmds in arb_cmds()) {
        run_sequence(build_configs(&grid(3, 3), ProtocolChoice::Ospf), cmds);
    }

    #[test]
    fn bgp_random_incremental_equals_baseline(cmds in arb_cmds(), seed in 0u64..50) {
        run_sequence(
            build_configs(&random_connected(8, 0.3, seed), ProtocolChoice::Bgp),
            cmds,
        );
    }

    #[test]
    fn rip_ring_incremental_equals_baseline(cmds in arb_cmds()) {
        run_sequence(build_configs(&ring(5), ProtocolChoice::Rip), cmds);
    }

    #[test]
    fn rip_random_incremental_equals_baseline(cmds in arb_cmds(), seed in 0u64..50) {
        run_sequence(
            build_configs(&random_connected(8, 0.3, seed), ProtocolChoice::Rip),
            cmds,
        );
    }
}
