//! Shared harness for the whole-verifier soundness tests: the abstract
//! change-command language, its lowering to `ChangeSet`s (or, for
//! edits no `ChangeOp` expresses, to whole configuration sets) against
//! a live verifier, the incremental-vs-fresh oracle loop, and the one
//! "equals a fresh build" comparison ([`assert_same_state`]) every
//! suite checks a verifier against its twin with. The loop is used by
//! `incremental_soundness.rs` (random command sequences) and
//! `regression_counterexamples.rs` (pinned inputs from
//! `incremental_soundness.proptest-regressions`).
#![allow(dead_code)]

use std::collections::{BTreeMap, BTreeSet};

use rc_netcfg::ast::DeviceConfig;
use rc_netcfg::gen::{build_configs, link_subnet, ProtocolChoice};
use rc_netcfg::topology::host_prefix;
use rc_netcfg::types::Prefix;
use rc_routing::route::FibAction;
use realconfig::{ChangeOp, ChangeReport, ChangeSet, Error, Policy, RealConfig};

/// Suppress the default panic hook's noise for injected-fault panics
/// (they are expected and contained); everything else still prints.
pub fn quiet_injected_panics() {
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

#[derive(Clone, Debug)]
pub enum Cmd {
    ToggleIface { dev: usize, iface: usize },
    SetCost { dev: usize, iface: usize, cost: u32 },
    SetLp { dev: usize, iface: usize, pref: u32 },
    StaticDrop { dev: usize, pfx: u32 },
    UnStatic { dev: usize, pfx: u32 },
    /// Move an interface into link subnet `subnet` as host `host`, with
    /// prefix length `len` (a /29 beside a /30 peer mismatches; a taken
    /// host duplicates an address). Applied with `apply_configs`, as
    /// are the two below.
    Readdress { dev: usize, iface: usize, subnet: u32, host: u32, len: u8 },
    /// Remove a device of the original set, or put it back.
    ToggleDevice { dev: usize },
    /// Break a BGP neighbor's `remote-as`, or restore it.
    ToggleRemoteAs { dev: usize, nb: usize },
}

pub fn to_changeset(cmd: &Cmd, rc: &RealConfig) -> Option<ChangeSet> {
    let devices: Vec<String> = rc.configs().keys().cloned().collect();
    let dev = |i: usize| devices[i % devices.len()].clone();
    let iface = |d: &str, i: usize| -> Option<String> {
        let cfg = &rc.configs()[d];
        let eths: Vec<_> = cfg.interfaces.iter().filter(|f| f.name.starts_with("eth")).collect();
        if eths.is_empty() {
            None
        } else {
            Some(eths[i % eths.len()].name.clone())
        }
    };
    let mut cs = ChangeSet::new();
    match cmd {
        Cmd::ToggleIface { dev: d, iface: i } => {
            let d = dev(*d);
            let i = iface(&d, *i)?;
            if rc.configs()[&d].interface(&i).unwrap().shutdown {
                cs.push(ChangeOp::EnableInterface { device: d, iface: i });
            } else {
                cs.push(ChangeOp::DisableInterface { device: d, iface: i });
            }
        }
        Cmd::SetCost { dev: d, iface: i, cost } => {
            let d = dev(*d);
            rc.configs()[&d].ospf.as_ref()?;
            let i = iface(&d, *i)?;
            cs.push(ChangeOp::SetOspfCost { device: d, iface: i, cost: *cost });
        }
        Cmd::SetLp { dev: d, iface: i, pref } => {
            let d = dev(*d);
            rc.configs()[&d].bgp.as_ref()?;
            let i = iface(&d, *i)?;
            cs.push(ChangeOp::SetLocalPref { device: d, iface: i, pref: *pref });
        }
        Cmd::StaticDrop { dev: d, pfx } => {
            let d = dev(*d);
            if rc.configs()[&d].static_routes.iter().any(|r| r.prefix == host_prefix(*pfx)) {
                return None;
            }
            cs.push(ChangeOp::AddStaticRoute {
                device: d,
                prefix: host_prefix(*pfx),
                next_hop: rc_netcfg::ast::NextHop::Drop,
            });
        }
        Cmd::UnStatic { dev: d, pfx } => {
            let d = dev(*d);
            if !rc.configs()[&d].static_routes.iter().any(|r| r.prefix == host_prefix(*pfx)) {
                return None;
            }
            cs.push(ChangeOp::RemoveStaticRoute { device: d, prefix: host_prefix(*pfx) });
        }
        Cmd::Readdress { .. } | Cmd::ToggleDevice { .. } | Cmd::ToggleRemoteAs { .. } => {
            return None
        }
    }
    Some(cs)
}

/// The configuration set a whole-set command leads to (`None` for the
/// `ChangeSet` commands, or when it does not apply). `base` is the
/// original set.
pub fn to_configs(
    cmd: &Cmd,
    rc: &RealConfig,
    base: &BTreeMap<String, DeviceConfig>,
) -> Option<BTreeMap<String, DeviceConfig>> {
    let mut configs = rc.configs().clone();
    let dev = |i: usize| base.keys().nth(i % base.len()).expect("non-empty").clone();
    match *cmd {
        Cmd::Readdress { dev: d, iface, subnet, host, len } => {
            let cfg = configs.get_mut(&dev(d))?;
            let mut eths: Vec<_> =
                cfg.interfaces.iter_mut().filter(|f| f.name.starts_with("eth")).collect();
            let n = eths.len().max(1);
            eths.get_mut(iface % n)?.address = Some((link_subnet(subnet).host(host), len));
        }
        Cmd::ToggleDevice { dev: d } => {
            let name = dev(d);
            if configs.remove(&name).is_none() {
                configs.insert(name.clone(), base[&name].clone());
            }
        }
        Cmd::ToggleRemoteAs { dev: d, nb } => {
            let name = dev(d);
            let original = base[&name].bgp.as_ref()?.neighbors.get(nb)?;
            let neighbor = configs.get_mut(&name)?.bgp.as_mut()?.neighbors.get_mut(nb)?;
            neighbor.remote_as =
                if neighbor.remote_as == original.remote_as { 1 } else { original.remote_as };
        }
        _ => return None,
    }
    Some(configs)
}

/// Apply `cmd` to `rc` through the front-end it belongs to; `None` when
/// it does not apply to the current configurations.
pub fn apply(
    cmd: &Cmd,
    rc: &mut RealConfig,
    base: &BTreeMap<String, DeviceConfig>,
) -> Option<Result<ChangeReport, Error>> {
    match to_changeset(cmd, rc) {
        Some(cs) => Some(rc.apply_change(&cs)),
        None => to_configs(cmd, rc, base).map(|configs| rc.apply_configs(configs)),
    }
}

/// A field a call site of [`assert_same_state`] cannot compare; the
/// call site says why.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Skip {
    /// The `persistence: ` warnings of the first verifier: store faults
    /// leave them on it until the next snapshot, and a twin with no
    /// state directory never has any. Its other warnings still compare.
    PersistenceWarnings,
}

/// The one "equals a fresh build" oracle: configurations, facts,
/// warnings, FIB, grouped FIB and model rule counts, ECs, pairs and
/// policy verdicts of `rc` must equal `twin`'s, except the fields in
/// `skip`.
pub fn assert_same_state(rc: &RealConfig, twin: &RealConfig, skip: &[Skip], ctx: &str) {
    assert_eq!(rc.configs(), twin.configs(), "{ctx}: configs");
    assert_eq!(rc.facts(), twin.facts(), "{ctx}: facts");
    let skipped =
        |w: &&String| skip.contains(&Skip::PersistenceWarnings) && w.starts_with("persistence: ");
    let warnings: BTreeSet<&String> = rc.warnings().iter().filter(|w| !skipped(w)).collect();
    assert_eq!(warnings, twin.warnings().iter().collect(), "{ctx}: warnings");
    assert_eq!(rc.fib(), twin.fib(), "{ctx}: FIB");
    assert_eq!(rc.num_fib_rules(), twin.num_fib_rules(), "{ctx}: grouped FIB rules");
    assert_eq!(rc.num_rules(), twin.num_rules(), "{ctx}: model rules");
    assert_eq!(rc.num_ecs(), twin.num_ecs(), "{ctx}: ECs");
    assert_eq!(rc.num_pairs(), twin.num_pairs(), "{ctx}: pairs");
    assert_eq!(rc.policy_specs(), twin.policy_specs(), "{ctx}: verdicts");
}

/// A never-failed twin of `rc`: a fresh build over its configurations,
/// with its options and its policies checked from scratch. It copies
/// the policies of `rc`, so use it only where nothing can drop or alter
/// one; a recovery path takes [`fresh_twin_with`] and a list of its own.
pub fn fresh_twin(rc: &RealConfig) -> RealConfig {
    let policies: Vec<Policy> = rc.policy_specs().into_iter().map(|(p, _)| p).collect();
    fresh_twin_with(rc, &policies)
}

/// A fresh build over the configurations and options of `rc` that checks
/// `policies`, kept apart from `rc`: [`assert_same_state`] then catches
/// a policy that `rc` lost or changed.
pub fn fresh_twin_with(rc: &RealConfig, policies: &[Policy]) -> RealConfig {
    let (mut twin, _) = RealConfig::with_options(rc.configs().clone(), *rc.options())
        .expect("fresh build from committed configs");
    for policy in policies {
        twin.add_policy(policy.clone());
    }
    twin.recheck_policies();
    twin
}

/// The FIB with ids replaced by names: verifiers whose registries
/// interned different histories (a removed device keeps its id) compare
/// equal when they forward alike.
pub fn named_fib(rc: &RealConfig) -> BTreeSet<(String, Prefix, String)> {
    let action = |a: FibAction| match a {
        FibAction::Forward(i) => format!("forward {}", rc.iface_name(i)),
        FibAction::Local(i) => format!("local {}", rc.iface_name(i)),
        FibAction::Drop => "drop".to_string(),
    };
    let named = |e: realconfig::FibEntry| {
        (rc.node_name(e.node).to_string(), e.prefix, action(e.action))
    };
    rc.fib().into_iter().map(named).collect()
}

pub fn run(proto: ProtocolChoice, topo: rc_netcfg::topology::Topology, cmds: Vec<Cmd>) {
    let base = build_configs(&topo, proto);
    let Ok((mut rc, _)) = RealConfig::new(base.clone()) else { return };

    // A few standing policies so verdict tracking is exercised.
    let mut policies = Vec::new();
    let names: Vec<String> = rc.configs().keys().cloned().collect();
    for (i, s) in names.iter().take(3).enumerate() {
        let d = &names[names.len() - 1 - i];
        if let Some(id) = rc.require_reachability(s, d, host_prefix((names.len() - 1 - i) as u32))
        {
            policies.push((s.clone(), d.clone(), names.len() - 1 - i, id));
        }
    }
    rc.recheck_policies();

    for cmd in &cmds {
        match apply(cmd, &mut rc, &base) {
            None | Some(Ok(_)) | Some(Err(Error::Change(_))) => {}
            Some(Err(Error::Divergence(_))) => return, // covered elsewhere
            Some(Err(e)) => panic!("{cmd:?} failed: {e}"),
        }

        // Oracle: fresh verifier from the same configurations.
        let (mut fresh, _) = RealConfig::new(rc.configs().clone()).expect("fresh build");
        assert_eq!(named_fib(&rc), named_fib(&fresh), "FIB mismatch after {cmd:?}");
        assert_eq!(rc.num_pairs(), fresh.num_pairs(), "pair count mismatch after {cmd:?}");
        for (s, d, pi, id) in &policies {
            // A policy on a removed device has no fresh counterpart.
            let Some(fid) = fresh.require_reachability(s, d, host_prefix(*pi as u32)) else {
                continue;
            };
            fresh.recheck_policies();
            assert_eq!(
                rc.is_satisfied(*id),
                fresh.is_satisfied(fid),
                "policy {s}→{d} verdict mismatch after {cmd:?}"
            );
        }
    }
}
