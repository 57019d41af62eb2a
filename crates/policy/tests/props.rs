//! Property tests: the dense walk's analysis must agree with a naive
//! per-source BFS over the same forwarding spec, on networks whose node
//! ids span one, two and three bitset words.
//!
//! A spec is a data plane for one prefix: per device a FIB action (no
//! route, drop, deliver, or ECMP forward), directed links, and ACLs
//! denying the prefix on some ports. It is installed into a real
//! `ApkModel` and walked through `Topology` + `Walker`; the oracle reads
//! the spec with ordered maps and BFS. Compared per start node: delivery
//! set, drop, loop, and path signature (FNV over the out-ports the BFS
//! reaches), plus the EC's `ports_used` — with and without a waypoint
//! `exclude`.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use rc_apkeep::{ApkModel, ElementKey, ModelRule, PortAction, RuleMatch, RuleUpdate, UpdateOrder};
use rc_bdd::pkt::Packet;
use rc_netcfg::facts::Dir;
use rc_netcfg::types::{IfaceId, NodeId, Port, Prefix};
use rc_policy::{Topology, Walker};

/// Interfaces 0..LINKED may carry links; HOST never does.
const LINKED: u32 = 3;
const HOST: u32 = 7;

#[derive(Clone, Debug)]
enum Action {
    NoRoute,
    Drop,
    Deliver(u32),
    Forward(Vec<u32>),
}

#[derive(Clone, Debug)]
struct Spec {
    /// Node ids `0..len`; the absent ones are no device but may still
    /// be link endpoints.
    len: usize,
    absent: BTreeSet<u32>,
    actions: Vec<Action>,
    /// `(node, iface) → peer port`, for ifaces below `LINKED`.
    links: BTreeMap<Port, Port>,
    /// Ports whose ACL denies the prefix, and in which direction.
    denies: BTreeSet<(Port, Dir)>,
    exclude: Option<NodeId>,
}

fn port(node: usize, iface: u32) -> Port {
    Port { node: NodeId(node as u32), iface: IfaceId(iface) }
}

fn arb_action() -> impl Strategy<Value = Action> {
    prop_oneof![
        1 => Just(Action::NoRoute),
        1 => Just(Action::Drop),
        1 => prop_oneof![0..LINKED, Just(HOST)].prop_map(Action::Deliver),
        6 => prop::collection::vec(prop_oneof![4 => 0..LINKED, 1 => Just(HOST)], 1..4)
            .prop_map(Action::Forward),
    ]
}

fn arb_spec() -> impl Strategy<Value = Spec> {
    prop_oneof![2usize..12, 60usize..80, 120usize..150]
        .prop_flat_map(|len| {
            let slots = len * LINKED as usize;
            (
                Just(len),
                prop::collection::vec(0..len as u32, 0..4),
                prop::collection::vec(arb_action(), len),
                // Each (node, linked iface) slot: a peer port, or none.
                prop::collection::vec(prop::option::of((0..len, 0..LINKED)), slots),
                prop::collection::vec((0..len, 0..=LINKED, any::<bool>()), 0..6),
                prop::option::of(0..len),
            )
        })
        .prop_map(|(len, absent, actions, slots, denies, exclude)| {
            let mut links = BTreeMap::new();
            for (slot, peer) in slots.into_iter().enumerate() {
                if let Some((v, j)) = peer {
                    let (u, i) = (slot / LINKED as usize, slot as u32 % LINKED);
                    links.insert(port(u, i), port(v, j));
                }
            }
            let denies = denies
                .into_iter()
                .map(|(u, i, inbound)| {
                    let iface = if i == LINKED { HOST } else { i };
                    (port(u, iface), if inbound { Dir::In } else { Dir::Out })
                })
                .collect();
            Spec {
                len,
                absent: absent.into_iter().collect(),
                actions,
                links,
                denies,
                exclude: exclude.map(|x| NodeId(x as u32)),
            }
        })
}

const PREFIX: &str = "10.0.0.0/8";

/// The spec's rules in a fresh model, and the EC of the prefix.
fn install(spec: &Spec) -> (ApkModel, rc_apkeep::EcId) {
    let prefix: Prefix = PREFIX.parse().expect("prefix parses");
    let mut rules = Vec::new();
    for (u, action) in spec.actions.iter().enumerate() {
        let action = match action {
            Action::NoRoute => continue,
            Action::Drop => PortAction::Drop,
            Action::Deliver(i) => PortAction::deliver(vec![IfaceId(*i)]),
            Action::Forward(ifaces) => {
                PortAction::forward(ifaces.iter().map(|&i| IfaceId(i)).collect())
            }
        };
        rules.push(RuleUpdate::Insert(ModelRule {
            element: ElementKey::Forward(NodeId(u as u32)),
            priority: 8,
            rule_match: RuleMatch::DstPrefix(prefix),
            action,
        }));
    }
    for &(p, dir) in &spec.denies {
        rules.push(RuleUpdate::Insert(ModelRule {
            element: ElementKey::Filter(p.node, p.iface, dir),
            priority: u32::MAX,
            rule_match: RuleMatch::Acl {
                proto: None,
                src: Prefix::DEFAULT,
                dst: prefix,
                dst_ports: None,
            },
            action: PortAction::Deny,
        }));
    }
    let mut model = ApkModel::new();
    model.apply_batch(rules, UpdateOrder::InsertFirst);
    let pkt = Packet { dst_ip: 0x0a00_0001, src_ip: 0, proto: 6, src_port: 0, dst_port: 80 };
    let ec = model.ec_of_packet(&pkt);
    (model, ec)
}

/// What the oracle knows of one start node.
#[derive(Debug, PartialEq)]
struct Fate {
    delivered: Vec<u32>,
    dropped: bool,
    loops: bool,
    sig: Option<u64>,
}

/// The naive reading of a spec: edges, terminals and out-ports per
/// node, then BFS per start.
struct Oracle {
    succ: BTreeMap<u32, BTreeSet<u32>>,
    delivers: BTreeSet<u32>,
    drops: BTreeSet<u32>,
    out_ports: BTreeMap<u32, BTreeSet<Port>>,
    ports_used: BTreeSet<Port>,
    on_cycle: BTreeSet<u32>,
}

impl Oracle {
    fn new(spec: &Spec) -> Self {
        let mut o = Oracle {
            succ: BTreeMap::new(),
            delivers: BTreeSet::new(),
            drops: BTreeSet::new(),
            out_ports: BTreeMap::new(),
            ports_used: BTreeSet::new(),
            on_cycle: BTreeSet::new(),
        };
        let denied = |p: Port, dir| spec.denies.contains(&(p, dir));
        for (u, action) in spec.actions.iter().enumerate() {
            let node = u as u32;
            if spec.absent.contains(&node) || spec.exclude == Some(NodeId(node)) {
                continue;
            }
            match action {
                Action::NoRoute | Action::Drop => {
                    o.drops.insert(node);
                }
                Action::Deliver(i) => {
                    let p = port(u, *i);
                    if !denied(p, Dir::Out) {
                        o.delivers.insert(node);
                        o.out_ports.entry(node).or_default().insert(p);
                    }
                }
                Action::Forward(ifaces) => {
                    for &i in ifaces {
                        let p = port(u, i);
                        if denied(p, Dir::Out) {
                            continue;
                        }
                        o.out_ports.entry(node).or_default().insert(p);
                        o.ports_used.insert(p);
                        match spec.links.get(&p) {
                            None => {
                                o.delivers.insert(node);
                            }
                            Some(&peer) => {
                                o.ports_used.insert(peer);
                                if !denied(peer, Dir::In) && Some(peer.node) != spec.exclude {
                                    o.succ.entry(node).or_default().insert(peer.node.0);
                                }
                            }
                        }
                    }
                }
            }
        }
        for v in 0..spec.len as u32 {
            let from_succ = o.succ.get(&v).into_iter().flatten().copied();
            if o.reach(from_succ).contains(&v) {
                o.on_cycle.insert(v);
            }
        }
        o
    }

    fn reach(&self, starts: impl IntoIterator<Item = u32>) -> BTreeSet<u32> {
        let mut seen = BTreeSet::new();
        let mut queue: Vec<u32> = starts.into_iter().collect();
        while let Some(v) = queue.pop() {
            if seen.insert(v) {
                queue.extend(self.succ.get(&v).into_iter().flatten().copied());
            }
        }
        seen
    }

    fn fate(&self, start: u32) -> Fate {
        let reach = self.reach([start]);
        let ports: BTreeSet<Port> = reach
            .iter()
            .flat_map(|v| self.out_ports.get(v).into_iter().flatten())
            .copied()
            .collect();
        let sig = (!ports.is_empty()).then(|| {
            let mut h: u64 = 0xcbf29ce484222325;
            for p in &ports {
                for word in [p.node.0 as u64, p.iface.0 as u64] {
                    h = (h ^ word).wrapping_mul(0x100000001b3);
                }
            }
            h
        });
        Fate {
            delivered: reach.iter().copied().filter(|v| self.delivers.contains(v)).collect(),
            dropped: reach.iter().any(|v| self.drops.contains(v)),
            loops: reach.iter().any(|v| self.on_cycle.contains(v)),
            sig,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn analysis_matches_naive_bfs(spec in arb_spec()) {
        let (model, ec) = install(&spec);
        let nodes: BTreeSet<NodeId> =
            (0..spec.len as u32).filter(|v| !spec.absent.contains(v)).map(NodeId).collect();
        let topo = Topology::new(&nodes, &spec.links);
        let view = model.ec_view();
        let walker = Walker::new(&view, &topo);
        let oracle = Oracle::new(&spec);
        let a = walker.analyze(ec, spec.exclude);

        let used: Vec<Port> = oracle.ports_used.iter().copied().collect();
        prop_assert_eq!(a.ports_used(), &used[..], "ports used");
        for start in 0..spec.len as u32 + 2 {
            let s = NodeId(start);
            let got = Fate {
                delivered: a.delivered(s).map(|d| d.0).collect(),
                dropped: a.drops(s),
                loops: a.loops(s),
                sig: a.path_sig(s),
            };
            prop_assert_eq!(got, oracle.fate(start), "from {}", start);
        }
    }
}
