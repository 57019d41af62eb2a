//! The five workloads: which network each one verifies, which policies
//! it registers, and the seeded stream of operations it submits.
//!
//! The generators live here and nowhere else (they deliberately do not
//! reuse `realconfig_bench::stream` or the vendored `rand`), so an edit
//! to either cannot silently change the load this benchmark offers. The
//! program under test sees only what they produce: generated
//! configurations and [`ChangeSet`]s.

use std::collections::BTreeMap;

use rc_netcfg::ast::{AclAction, AclEntry};
use rc_netcfg::change::AclDir;
use rc_netcfg::gen::{build_configs, ProtocolChoice};
use rc_netcfg::topology::{fat_tree, Topology};
use rc_netcfg::types::{Ip, NodeId, Prefix};
use rc_netcfg::{ChangeOp, ChangeSet, DeviceConfig};
use rc_policy::{PacketClass, Policy};

/// SplitMix64: a few lines, seed-deterministic on every machine, and
/// owned by the harness.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (the modulo bias is below 2⁻⁵⁰ for the small
    /// `n` used here).
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "empty range");
        (self.next_u64() % n as u64) as usize
    }

    pub fn coin(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}

/// The shape of a workload's operation stream.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// Stateful uniform link fail/restore, at most five links down.
    LinkChurn,
    /// Import local-pref 100 ↔ 150 on a seeded port, at most five raised.
    LocalPref,
    /// [`Kind::LinkChurn`] with a state directory attached: every apply
    /// is journaled, with periodic snapshots and restores at the end.
    Durable,
    /// Maintenance windows of about 18 raw changes through
    /// `apply_coalesced`.
    Windows,
    /// Alternately add-and-bind / unbind-and-remove a 4-entry ACL.
    Acl,
}

/// One workload of the benchmark.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub k: u32,
    pub proto: ProtocolChoice,
    pub kind: Kind,
    /// Untimed operations before the timed section (caches, lazy trace
    /// bases, allocator).
    pub warmup: usize,
}

pub const WORKLOADS: [Spec; 5] = [
    Spec {
        name: "ospf8_linkchurn",
        why: "Wide OSPF rule tables: EC-model update and policy walk dominate an apply, dataflow is small, store is absent.",
        k: 8,
        proto: ProtocolChoice::Ospf,
        kind: Kind::LinkChurn,
        warmup: 32,
    },
    Spec {
        name: "bgp12_localpref",
        why: "The paper's k=12 BGP exhibit: path-vector reselection and the O(network) lowering glue are the majority.",
        k: 12,
        proto: ProtocolChoice::Bgp,
        kind: Kind::LocalPref,
        warmup: 32,
    },
    Spec {
        name: "bgp8_durable",
        why: "Cheapest pipeline with a state dir attached: journal fsync, snapshots and the netcfg/core glue are the largest shares.",
        k: 8,
        proto: ProtocolChoice::Bgp,
        kind: Kind::Durable,
        warmup: 32,
    },
    Spec {
        name: "ospf6_windows",
        why: "Same layers as ospf8_linkchurn but fed folded 18-change maintenance windows through ChangeSet::coalesce.",
        k: 6,
        proto: ProtocolChoice::Ospf,
        kind: Kind::Windows,
        warmup: 16,
    },
    Spec {
        name: "bgp8_acl",
        why: "Filter elements and multi-field predicates: the only workload where the EC leak or a predicate backend can move a number.",
        k: 8,
        proto: ProtocolChoice::Bgp,
        kind: Kind::Acl,
        warmup: 32,
    },
];

pub fn find(name: &str) -> Option<Spec> {
    WORKLOADS.iter().copied().find(|s| s.name == name)
}

impl Spec {
    /// The same workload on a k=4 network with a short warm-up (smoke
    /// runs and tests).
    pub fn smoke(self) -> Spec {
        Spec { k: 4, warmup: 4, ..self }
    }

    pub fn network(&self) -> Network {
        let topo = fat_tree(self.k);
        let configs = build_configs(&topo, self.proto);
        Network { topo, configs }
    }
}

/// A generated network: its topology and one configuration per device.
pub struct Network {
    pub topo: Topology,
    pub configs: BTreeMap<String, DeviceConfig>,
}

/// A policy by device name, resolvable against any verifier's registry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PolicySpec {
    LoopFree,
    BlackholeFree { src: String },
    Reach { src: String, dst: String, prefix: Prefix },
}

impl PolicySpec {
    pub fn resolve(&self, node: impl Fn(&str) -> NodeId) -> Policy {
        match self {
            PolicySpec::LoopFree => Policy::LoopFree { class: PacketClass::All },
            PolicySpec::BlackholeFree { src } => {
                Policy::BlackholeFree { src: node(src), class: PacketClass::All }
            }
            PolicySpec::Reach { src, dst, prefix } => Policy::Reachability {
                src: node(src),
                dst: node(dst),
                class: PacketClass::DstPrefix(*prefix),
            },
        }
    }
}

/// Reachability policies registered per workload (fewer when the
/// network has fewer ordered edge pairs).
const REACH_POLICIES: usize = 64;

/// The fixed policy set: loop freedom, blackhole freedom from every edge
/// switch, and seeded edge→edge reachability to the destination's host
/// prefix. Every committed bench before this one ran with no policy
/// registered, so its policy stage evaluated nothing.
pub fn policy_set(topo: &Topology, seed: u64) -> Vec<PolicySpec> {
    let edges: Vec<(&String, Prefix)> =
        topo.host_prefixes.iter().map(|(d, ps)| (d, ps[0])).collect();
    let mut out = vec![PolicySpec::LoopFree];
    out.extend(edges.iter().map(|(d, _)| PolicySpec::BlackholeFree { src: (*d).clone() }));

    let mut pairs: Vec<(usize, usize)> = (0..edges.len())
        .flat_map(|s| (0..edges.len()).filter(move |d| *d != s).map(move |d| (s, d)))
        .collect();
    let mut rng = Rng::new(seed ^ 0x504F_4C49_4359);
    for _ in 0..REACH_POLICIES.min(pairs.len()) {
        let (s, d) = pairs.swap_remove(rng.below(pairs.len()));
        out.push(PolicySpec::Reach {
            src: edges[s].0.clone(),
            dst: edges[d].0.clone(),
            prefix: edges[d].1,
        });
    }
    out
}

/// One operation of a stream: what a single verdict is asked for.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// One `apply_change`.
    Change(ChangeSet),
    /// One `apply_coalesced` over a maintenance window.
    Window(Vec<ChangeSet>),
}

impl Op {
    /// Raw changes submitted by this operation (the numerator of
    /// `changes_per_s`).
    pub fn raw_changes(&self) -> usize {
        match self {
            Op::Change(_) => 1,
            Op::Window(w) => w.len(),
        }
    }
}

/// At most this many links are down (or local-prefs raised) at once, so
/// the network a stream runs on stays statistically the same from the
/// first operation to the last.
const MAX_OUTSTANDING: usize = 5;

const ACL_NAME: &str = "PERF-ACL";

type PortName = (String, String);

enum State {
    /// Link churn and local-pref toggling share one shape: perturb a
    /// random idle port, or put a perturbed one back.
    Toggle {
        ports: Vec<PortName>,
        active: Vec<usize>,
        local_pref: bool,
    },
    Windows {
        /// Per aggregation switch, (up to) three edge-facing interfaces.
        groups: Vec<(String, Vec<String>)>,
        drained: Option<usize>,
        /// Devices whose link costs currently sit at 100 instead of 1.
        raised: Vec<bool>,
    },
    Acl {
        ports: Vec<PortName>,
        hosts: Vec<Prefix>,
        bound: Option<PortName>,
    },
}

/// A seeded, endless operation stream. Two streams built from the same
/// arguments yield the same operations.
pub struct Stream {
    rng: Rng,
    state: State,
}

impl Stream {
    pub fn new(spec: &Spec, topo: &Topology, seed: u64) -> Stream {
        // One end of every physical link, in topology order.
        let ports: Vec<PortName> =
            topo.links.iter().map(|l| (l.a.device.clone(), l.a.iface.clone())).collect();
        let state = match spec.kind {
            Kind::LinkChurn | Kind::Durable => {
                State::Toggle { ports, active: Vec::new(), local_pref: false }
            }
            Kind::LocalPref => State::Toggle { ports, active: Vec::new(), local_pref: true },
            Kind::Windows => {
                // Windows touch only the switches one hop above the edge
                // (a fat tree's aggregation layer), through their
                // edge-facing links: those switches are symmetric, so
                // every window costs statistically the same whichever
                // the seed picks, and "drain its downlinks" is what
                // taking such a switch out of service looks like.
                let is_edge = |d: &str| topo.host_prefixes.contains_key(d);
                let mut by_dev: BTreeMap<&str, Vec<String>> = BTreeMap::new();
                for l in &topo.links {
                    for (end, peer) in [(&l.a, &l.b), (&l.b, &l.a)] {
                        if !is_edge(&end.device) && is_edge(&peer.device) {
                            by_dev.entry(&end.device).or_default().push(end.iface.clone());
                        }
                    }
                }
                let groups: Vec<(String, Vec<String>)> = by_dev
                    .into_iter()
                    .map(|(d, mut ifaces)| {
                        ifaces.sort();
                        ifaces.truncate(3);
                        (d.to_string(), ifaces)
                    })
                    .collect();
                assert!(groups.len() >= 3, "windows need three distinct devices");
                let raised = vec![false; groups.len()];
                State::Windows { groups, drained: None, raised }
            }
            Kind::Acl => State::Acl {
                ports,
                hosts: topo.host_prefixes.values().map(|ps| ps[0]).collect(),
                bound: None,
            },
        };
        Stream { rng: Rng::new(seed ^ 0x5354_5245_414D), state }
    }

    pub fn next_op(&mut self) -> Op {
        let rng = &mut self.rng;
        match &mut self.state {
            State::Toggle { ports, active, local_pref } => {
                let put_back =
                    !active.is_empty() && (active.len() >= MAX_OUTSTANDING || rng.coin());
                let idx = if put_back {
                    active.swap_remove(rng.below(active.len()))
                } else {
                    let idx = loop {
                        let i = rng.below(ports.len());
                        if !active.contains(&i) {
                            break i;
                        }
                    };
                    active.push(idx);
                    idx
                };
                let (device, iface) = ports[idx].clone();
                let op = match (*local_pref, put_back) {
                    (false, false) => ChangeOp::DisableInterface { device, iface },
                    (false, true) => ChangeOp::EnableInterface { device, iface },
                    (true, false) => ChangeOp::SetLocalPref { device, iface, pref: 150 },
                    (true, true) => ChangeOp::SetLocalPref { device, iface, pref: 100 },
                };
                Op::Change(ChangeSet { ops: vec![op] })
            }
            State::Windows { groups, drained, raised } => {
                let mut window = Vec::new();
                let mut push = |op: ChangeOp| window.push(ChangeSet { ops: vec![op] });
                // Restore the group the previous window drained.
                if let Some(prev) = *drained {
                    let (device, ifaces) = &groups[prev];
                    for iface in ifaces {
                        push(ChangeOp::EnableInterface {
                            device: device.clone(),
                            iface: iface.clone(),
                        });
                    }
                }
                // Drain another device's group: never the one restored
                // above, or last-writer-wins would fold the pair away.
                let drain = loop {
                    let i = rng.below(groups.len());
                    if Some(i) != *drained {
                        break i;
                    }
                };
                let (device, ifaces) = &groups[drain];
                for iface in ifaces {
                    push(ChangeOp::DisableInterface {
                        device: device.clone(),
                        iface: iface.clone(),
                    });
                }
                // A cost storm on a third device, 3–5 flips per interface,
                // ending on the value it did not start from: the folded
                // window is never a no-op, so latency stays unimodal.
                let storm = loop {
                    let i = rng.below(groups.len());
                    if i != drain && Some(i) != *drained {
                        break i;
                    }
                };
                let flips = 3 + rng.below(3);
                let (start, target) = if raised[storm] { (100, 1) } else { (1, 100) };
                let (device, ifaces) = &groups[storm];
                for flip in 0..flips {
                    let cost = if (flips - 1 - flip).is_multiple_of(2) { target } else { start };
                    for iface in ifaces {
                        push(ChangeOp::SetOspfCost {
                            device: device.clone(),
                            iface: iface.clone(),
                            cost,
                        });
                    }
                }
                raised[storm] = !raised[storm];
                *drained = Some(drain);
                Op::Window(window)
            }
            State::Acl { ports, hosts, bound } => {
                let acl = ACL_NAME.to_string();
                let seqs = [10u32, 20, 30, 40];
                if let Some((device, iface)) = bound.take() {
                    let mut ops = vec![ChangeOp::UnbindAcl {
                        device: device.clone(),
                        iface,
                        dir: AclDir::In,
                    }];
                    ops.extend(seqs.iter().map(|&seq| ChangeOp::RemoveAclEntry {
                        device: device.clone(),
                        acl: acl.clone(),
                        seq,
                    }));
                    return Op::Change(ChangeSet { ops });
                }
                let (device, iface) = ports[rng.below(ports.len())].clone();
                let dst = hosts[rng.below(hosts.len())];
                let any = Prefix::new(Ip(0), 0);
                let mut ops: Vec<ChangeOp> = seqs[..3]
                    .iter()
                    .map(|&seq| {
                        let lo = 1024 + rng.below(60_000) as u16;
                        let hi = lo + rng.below(512) as u16;
                        ChangeOp::AddAclEntry {
                            device: device.clone(),
                            acl: acl.clone(),
                            entry: AclEntry {
                                seq,
                                action: AclAction::Deny,
                                proto: Some(6),
                                src: any,
                                dst,
                                dst_ports: Some((lo, hi)),
                            },
                        }
                    })
                    .collect();
                ops.push(ChangeOp::AddAclEntry {
                    device: device.clone(),
                    acl: acl.clone(),
                    entry: AclEntry {
                        seq: seqs[3],
                        action: AclAction::Permit,
                        proto: None,
                        src: any,
                        dst: any,
                        dst_ports: None,
                    },
                });
                ops.push(ChangeOp::BindAcl {
                    device: device.clone(),
                    iface: iface.clone(),
                    dir: AclDir::In,
                    acl,
                });
                *bound = Some((device, iface));
                Op::Change(ChangeSet { ops })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops(spec: &Spec, seed: u64, n: usize) -> Vec<Op> {
        let net = spec.network();
        let mut s = Stream::new(spec, &net.topo, seed);
        (0..n).map(|_| s.next_op()).collect()
    }

    #[test]
    fn generators_are_byte_deterministic_per_seed_and_differ_across_seeds() {
        for spec in WORKLOADS.iter().map(|s| s.smoke()) {
            let a = format!("{:?}", ops(&spec, 7, 40));
            let b = format!("{:?}", ops(&spec, 7, 40));
            let c = format!("{:?}", ops(&spec, 8, 40));
            assert_eq!(a, b, "{}: same seed, different stream", spec.name);
            assert_ne!(a, c, "{}: different seeds, same stream", spec.name);

            let net = spec.network();
            assert_eq!(policy_set(&net.topo, 7), policy_set(&net.topo, 7));
            assert_ne!(policy_set(&net.topo, 7), policy_set(&net.topo, 8));
        }
    }

    #[test]
    fn every_generated_operation_applies() {
        for spec in WORKLOADS.iter().map(|s| s.smoke()) {
            let mut configs = spec.network().configs;
            for op in ops(&spec, 3, 60) {
                let sets = match op {
                    Op::Change(cs) => vec![cs],
                    Op::Window(w) => w,
                };
                for cs in sets {
                    cs.apply(&mut configs).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
                }
            }
        }
    }

    #[test]
    fn no_window_coalesces_to_a_noop() {
        let spec = find("ospf6_windows").unwrap();
        let mut configs = spec.network().configs;
        for (i, op) in ops(&spec, 11, 80).into_iter().enumerate() {
            let Op::Window(window) = op else { panic!("windows stream yields windows") };
            assert!((12..=21).contains(&window.len()), "window {i}: {} changes", window.len());
            let (folded, cancelled) = ChangeSet::coalesce(&window);
            assert!(cancelled >= 6, "window {i}: the storm must fold");
            let before = configs.clone();
            folded.apply(&mut configs).unwrap();
            assert_ne!(before, configs, "window {i} folded to a no-op");
        }
    }

    #[test]
    fn toggle_streams_bound_their_outstanding_perturbations() {
        let spec = find("ospf8_linkchurn").unwrap().smoke();
        let mut down = 0usize;
        for op in ops(&spec, 5, 300) {
            let Op::Change(cs) = op else { panic!("link churn yields single changes") };
            match &cs.ops[0] {
                ChangeOp::DisableInterface { .. } => down += 1,
                ChangeOp::EnableInterface { .. } => down -= 1,
                other => panic!("unexpected op {other:?}"),
            }
            assert!(down <= MAX_OUTSTANDING);
        }
    }
}
