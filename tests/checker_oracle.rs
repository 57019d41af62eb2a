//! Checker oracle, off the fat tree: the incremental policy checker must
//! hold exactly the state a fresh checker computes from scratch over the
//! same model. A proptest drives an `ApkModel` and a `PolicyChecker`
//! through forwarding-rule, link, static-route, ACL and device churn on a
//! ring and a grid; after every `check_incremental`, the checker's encoded
//! state — per-EC analyses and policy verdicts — must equal that of a
//! fresh checker (same devices, links and policies) after `check_full`
//! on the same model, and `check_invariants()` must hold. The model
//! merges ECs within a batch, and the churn must reach the checker's
//! replay of those merges: each suite counts them and asserts some ran.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;
use rc_apkeep::{ApkModel, ElementKey, ModelRule, PortAction, RuleMatch, RuleUpdate, UpdateOrder};
use rc_bdd::PredKind;
use rc_netcfg::facts::Dir;
use rc_netcfg::topology::{grid, ring, Topology};
use rc_netcfg::types::{IfaceId, NodeId, Port, Prefix};
use rc_policy::{PacketClass, Policy, PolicyChecker};

/// The interface every device uses towards hosts: never linked.
const HOST: IfaceId = IfaceId(99);
/// The interface a device links the spare device under.
const SPARE: IfaceId = IfaceId(50);
/// Route prefixes, nested so that rules on them split each other's ECs.
const ROUTES: [&str; 4] = ["10.0.0.0/16", "10.0.1.0/24", "10.0.2.0/24", "10.0.1.128/25"];

fn pfx(s: &str) -> Prefix {
    s.parse().expect("prefix parses")
}

/// Devices as dense ids, links as port pairs (`ethN` is `IfaceId(N)`),
/// and each device's linked interfaces.
struct Net {
    nodes: usize,
    links: Vec<(Port, Port)>,
    ifaces: Vec<Vec<IfaceId>>,
}

fn net(topo: &Topology) -> Net {
    let id: BTreeMap<&str, u32> =
        topo.devices.iter().enumerate().map(|(i, d)| (d.as_str(), i as u32)).collect();
    let port = |device: &str, iface: &str| Port {
        node: NodeId(id[device]),
        iface: IfaceId(iface.trim_start_matches("eth").parse().expect("ethN interface")),
    };
    let links: Vec<(Port, Port)> = topo
        .links
        .iter()
        .map(|l| (port(&l.a.device, &l.a.iface), port(&l.b.device, &l.b.iface)))
        .collect();
    let mut ifaces = vec![Vec::new(); topo.devices.len()];
    for &(a, b) in &links {
        ifaces[a.node.0 as usize].push(a.iface);
        ifaces[b.node.0 as usize].push(b.iface);
    }
    Net { nodes: topo.devices.len(), links, ifaces }
}

/// One generated change. Indices are reduced modulo what they index.
#[derive(Clone, Debug)]
enum Op {
    /// Set (or, if already set, withdraw) the route for a prefix at a
    /// device: out a linked interface, out the host port, delivered on
    /// the host port, or dropped.
    Route { node: usize, route: usize, action: usize },
    /// Add or withdraw a static /32 inside `10.0.1.0/24`, out a linked
    /// interface or to null.
    Static { node: usize, host: u8, action: usize },
    /// Take both directions of a link down, or bring them back up.
    Link { idx: usize },
    /// Bind or unbind an ACL entry denying tcp/80 to a route prefix, on
    /// a linked interface in either direction.
    Acl { node: usize, iface: usize, inbound: bool, route: usize },
    /// Add the spare device (id past the network's) with its link to
    /// `attach` and its routes, or remove it with them.
    Device { attach: usize },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0usize..16, 0..ROUTES.len(), 0usize..6)
            .prop_map(|(node, route, action)| Op::Route { node, route, action }),
        2 => (0usize..16, 0u8..4, 0usize..4)
            .prop_map(|(node, host, action)| Op::Static { node, host, action }),
        2 => (0usize..16).prop_map(|idx| Op::Link { idx }),
        1 => (0usize..16, 0usize..4, any::<bool>(), 0..ROUTES.len())
            .prop_map(|(node, iface, inbound, route)| Op::Acl { node, iface, inbound, route }),
        1 => (0usize..16).prop_map(|attach| Op::Device { attach }),
    ]
}

/// The model-side state the ops edit: the rule installed per FIB key,
/// the ACL entries bound, the links that are down, and where the spare
/// device is attached, if it is present.
#[derive(Default)]
struct World {
    fib: BTreeMap<(u32, Prefix), ModelRule>,
    acls: BTreeSet<ModelRule>,
    down: BTreeSet<usize>,
    spare: Option<usize>,
}

impl World {
    /// Install `rule` as the one FIB rule for its (device, prefix), or
    /// withdraw it if it is already the one installed.
    fn set_route(
        &mut self,
        node: u32,
        prefix: Prefix,
        action: PortAction,
        out: &mut Vec<RuleUpdate>,
    ) {
        let rule = ModelRule {
            element: ElementKey::Forward(NodeId(node)),
            priority: prefix.len() as u32,
            rule_match: RuleMatch::DstPrefix(prefix),
            action,
        };
        match self.fib.remove(&(node, prefix)) {
            Some(old) if old == rule => {
                out.push(RuleUpdate::Remove(old));
                return;
            }
            Some(old) => out.push(RuleUpdate::Remove(old)),
            None => {}
        }
        out.push(RuleUpdate::Insert(rule.clone()));
        self.fib.insert((node, prefix), rule);
    }

    /// Apply one op: rule updates for the model, link changes for the
    /// checker.
    fn apply(
        &mut self,
        net: &Net,
        op: &Op,
        rules: &mut Vec<RuleUpdate>,
        links: &mut Vec<(Port, Port, isize)>,
    ) {
        match *op {
            Op::Route { node, route, action } => {
                let node = node % net.nodes;
                let ifaces = &net.ifaces[node];
                let action = match action {
                    0..=2 => PortAction::forward(vec![ifaces[action % ifaces.len()]]),
                    3 => PortAction::forward(vec![HOST]),
                    4 => PortAction::deliver(vec![HOST]),
                    _ => PortAction::Drop,
                };
                self.set_route(node as u32, pfx(ROUTES[route]), action, rules);
            }
            Op::Static { node, host, action } => {
                let node = node % net.nodes;
                let ifaces = &net.ifaces[node];
                let action = match action {
                    0..=2 => PortAction::forward(vec![ifaces[action % ifaces.len()]]),
                    _ => PortAction::Drop,
                };
                let prefix = pfx(&format!("10.0.1.{}/32", 130 + host));
                self.set_route(node as u32, prefix, action, rules);
            }
            Op::Link { idx } => {
                let idx = idx % net.links.len();
                let diff = if self.down.insert(idx) {
                    -1
                } else {
                    self.down.remove(&idx);
                    1
                };
                let (a, b) = net.links[idx];
                links.extend([(a, b, diff), (b, a, diff)]);
            }
            Op::Device { attach } => {
                // The spare device forwards the covering /16 back over its
                // link and delivers the /25; its neighbour sends it
                // `10.0.3.0/24`, which therefore loops.
                let spare = net.nodes as u32;
                let (attach, diff) = match self.spare.take() {
                    Some(attach) => (attach, -1),
                    None => {
                        self.spare = Some(attach % net.nodes);
                        (attach % net.nodes, 1)
                    }
                };
                let out = PortAction::forward(vec![IfaceId(0)]);
                self.set_route(spare, pfx(ROUTES[0]), out, rules);
                self.set_route(spare, pfx(ROUTES[3]), PortAction::deliver(vec![HOST]), rules);
                let towards = PortAction::forward(vec![SPARE]);
                self.set_route(attach as u32, pfx("10.0.3.0/24"), towards, rules);
                let (a, b) = Self::spare_link(net, attach);
                links.extend([(a, b, diff), (b, a, diff)]);
            }
            Op::Acl { node, iface, inbound, route } => {
                let node = node % net.nodes;
                let iface = net.ifaces[node][iface % net.ifaces[node].len()];
                let dir = if inbound { Dir::In } else { Dir::Out };
                let rule = ModelRule {
                    element: ElementKey::Filter(NodeId(node as u32), iface, dir),
                    priority: u32::MAX - route as u32,
                    rule_match: RuleMatch::Acl {
                        proto: Some(6),
                        src: Prefix::DEFAULT,
                        dst: pfx(ROUTES[route]),
                        dst_ports: Some((80, 80)),
                    },
                    action: PortAction::Deny,
                };
                if self.acls.remove(&rule) {
                    rules.push(RuleUpdate::Remove(rule));
                } else {
                    self.acls.insert(rule.clone());
                    rules.push(RuleUpdate::Insert(rule));
                }
            }
        }
    }

    /// The link between `attach` and the spare device.
    fn spare_link(net: &Net, attach: usize) -> (Port, Port) {
        let spare = Port { node: NodeId(net.nodes as u32), iface: IfaceId(0) };
        (Port { node: NodeId(attach as u32), iface: SPARE }, spare)
    }

    /// Both directions of every link that is up.
    fn links_up(&self, net: &Net) -> Vec<(Port, Port, isize)> {
        let spare = self.spare.map(|attach| Self::spare_link(net, attach));
        (0..net.links.len())
            .filter(|i| !self.down.contains(i))
            .map(|i| net.links[i])
            .chain(spare)
            .flat_map(|(a, b)| [(a, b, 1), (b, a, 1)])
            .collect()
    }

    /// The devices present: the network's, and the spare one if added.
    fn nodes(&self, net: &Net) -> Vec<NodeId> {
        let count = net.nodes + usize::from(self.spare.is_some());
        (0..count as u32).map(NodeId).collect()
    }
}

/// The standing policies: one of each kind, over the route prefixes.
fn policies(net: &Net) -> Vec<Policy> {
    let (first, last, mid) =
        (NodeId(0), NodeId(net.nodes as u32 - 1), NodeId(net.nodes as u32 / 2));
    let class = |i: usize| PacketClass::DstPrefix(pfx(ROUTES[i]));
    vec![
        Policy::Reachability { src: first, dst: last, class: class(1) },
        Policy::Reachability {
            src: mid,
            dst: last,
            class: PacketClass::Flow {
                proto: Some(6),
                dst_prefix: Some(pfx(ROUTES[1])),
                dst_port: Some(80),
            },
        },
        Policy::Isolation { src: NodeId(1), dst: last, class: class(2) },
        Policy::Waypoint { src: first, dst: last, via: mid, class: class(0) },
        Policy::LoopFree { class: PacketClass::All },
        Policy::BlackholeFree { src: first, class: class(1) },
        Policy::BlackholeFree { src: NodeId(net.nodes as u32), class: class(3) },
    ]
}

/// A checker over `world`'s devices and links and the standing
/// policies, after a full pass over `model`.
fn checked_from_scratch(model: &mut ApkModel, net: &Net, world: &World) -> PolicyChecker {
    let mut checker = PolicyChecker::new();
    checker.set_nodes(world.nodes(net));
    checker.apply_link_delta(&world.links_up(net));
    for policy in policies(net) {
        checker.add_policy(model, policy);
    }
    checker.check_full(model);
    checker
}

fn encoded(checker: &PolicyChecker) -> Vec<u8> {
    let mut w = rc_store::Writer::new();
    checker.encode_state(&mut w);
    w.finish()
}

/// Drive `steps` and compare with a fresh checker after each; returns
/// how many EC merges the model reported.
fn run(topo: Topology, steps: Vec<Vec<Op>>) -> usize {
    let net = net(&topo);
    let mut world = World::default();
    let mut model = ApkModel::with_backend(PredKind::Bdd);
    // Start with every device forwarding the covering /16 out its first
    // link and the last one delivering `10.0.1.0/24`.
    let mut rules = Vec::new();
    for node in 0..net.nodes {
        let op = Op::Route { node, route: 0, action: 0 };
        world.apply(&net, &op, &mut rules, &mut Vec::new());
    }
    let op = Op::Route { node: net.nodes - 1, route: 1, action: 4 };
    world.apply(&net, &op, &mut rules, &mut Vec::new());
    model.apply_batch(rules, UpdateOrder::InsertFirst);
    let mut checker = checked_from_scratch(&mut model, &net, &world);

    let mut merges = 0;
    for (i, step) in steps.iter().enumerate() {
        let (mut rules, mut links) = (Vec::new(), Vec::new());
        for op in step {
            world.apply(&net, op, &mut rules, &mut links);
        }
        let mut touched = checker.set_nodes(world.nodes(&net));
        touched.extend(checker.apply_link_delta(&links));
        let summary = model.apply_batch(rules, UpdateOrder::InsertFirst);
        merges += summary.merges.len();
        let report = checker.check_incremental(&mut model, &summary, touched);

        let fresh = checked_from_scratch(&mut model, &net, &world);
        prop_assert_eq!(checker.check_invariants(), Ok(()), "step {}: {:?}", i, step);
        prop_assert_eq!(report.total_pairs, fresh.num_pairs(), "step {}: {:?}", i, step);
        prop_assert_eq!(checker.verdicts(), fresh.verdicts(), "step {}: {:?}", i, step);
        prop_assert!(
            encoded(&checker) == encoded(&fresh),
            "step {}: state differs after {:?}",
            i,
            step
        );
    }
    merges
}

fn arb_steps() -> impl Strategy<Value = Vec<Vec<Op>>> {
    prop::collection::vec(prop::collection::vec(arb_op(), 1..4), 1..10)
}

#[test]
fn incremental_checker_equals_a_fresh_one_on_a_ring() {
    static MERGES: AtomicUsize = AtomicUsize::new(0);
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        // Named as the test, so it draws the cases the test always has.
        fn incremental_checker_equals_a_fresh_one_on_a_ring(steps in arb_steps()) {
            MERGES.fetch_add(run(ring(5), steps), Ordering::Relaxed);
        }
    }
    incremental_checker_equals_a_fresh_one_on_a_ring();
    assert!(MERGES.load(Ordering::Relaxed) > 0, "no case merged ECs");
}

#[test]
fn incremental_checker_equals_a_fresh_one_on_a_grid() {
    static MERGES: AtomicUsize = AtomicUsize::new(0);
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        // Named as the test, so it draws the cases the test always has.
        fn incremental_checker_equals_a_fresh_one_on_a_grid(steps in arb_steps()) {
            MERGES.fetch_add(run(grid(3, 3), steps), Ordering::Relaxed);
        }
    }
    incremental_checker_equals_a_fresh_one_on_a_grid();
    assert!(MERGES.load(Ordering::Relaxed) > 0, "no case merged ECs");
}
