//! Per-EC forwarding analysis.
//!
//! For one equivalence class, the network's forwarding behaviour is a
//! small graph over devices: each node either delivers (forwards out a
//! host-facing interface), drops (FIB drop or no route), is filtered
//! (an ACL denies the EC), or forwards to successor devices (several,
//! under ECMP). [`analyze`] condenses that graph (Tarjan SCC) and
//! propagates outcomes so that every device's fate — which delivery
//! points it can reach, whether its packets can be dropped, whether
//! they can loop — comes out of one linear-time pass, shared by all
//! sources.

use std::collections::BTreeMap;
use std::collections::BTreeSet;

use rc_apkeep::{EcId, EcView, ElementKey, PortAction};
use rc_netcfg::facts::Dir;
use rc_netcfg::types::{NodeId, Port};

/// The forwarding graph of one EC.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EcGraph {
    pub succ: BTreeMap<NodeId, BTreeSet<NodeId>>,
    /// Nodes that deliver the EC to an attached host network.
    pub delivers: BTreeSet<NodeId>,
    /// Nodes where the EC is dropped (FIB drop action or no route).
    pub drops: BTreeSet<NodeId>,
    /// Link endpoints this EC's forwarding uses (for invalidation when
    /// links change).
    pub ports_used: BTreeSet<Port>,
    /// Out-ports each node sends this EC through (link-facing and
    /// host-facing alike) — the raw material for path signatures.
    pub node_ports: BTreeMap<NodeId, BTreeSet<Port>>,
    /// Edges removed by ACLs: `(sender, out port, filtering port,
    /// direction)` — `Out` blocked leaving the sender, `In` blocked
    /// entering the filtering port's device. Used by packet tracing to
    /// show *where* a packet was denied.
    pub blocked_edges: Vec<(NodeId, Port, Port, Dir)>,
}

/// Build the forwarding graph of `ec` over the given nodes and links
/// (`topo` maps each link's source port to its destination port).
/// `exclude` removes one node (used for waypoint checks).
///
/// Takes an [`EcView`] — the model's read-only EC→port snapshot — not
/// the model itself, so any number of per-EC walks can run concurrently
/// over one borrowed view (see the checker's parallel recheck).
pub fn build_ec_graph(
    model: &EcView<'_>,
    ec: EcId,
    nodes: &BTreeSet<NodeId>,
    topo: &BTreeMap<Port, Port>,
    exclude: Option<NodeId>,
) -> EcGraph {
    let mut g = EcGraph::default();
    for &n in nodes {
        if Some(n) == exclude {
            continue;
        }
        let action = model.action(ElementKey::Forward(n), ec);
        let ifaces = match action {
            None | Some(PortAction::Drop) => {
                g.drops.insert(n);
                continue;
            }
            Some(PortAction::Deliver(ifaces)) => {
                // Connected routes: the packet terminates here (subject
                // to the egress ACL of the delivering interface).
                for i in ifaces.clone() {
                    let port = Port { node: n, iface: i };
                    if model.action(ElementKey::Filter(n, i, Dir::Out), ec)
                        == Some(&PortAction::Deny)
                    {
                        g.blocked_edges.push((n, port, port, Dir::Out));
                    } else {
                        g.delivers.insert(n);
                        g.node_ports.entry(n).or_default().insert(port);
                    }
                }
                continue;
            }
            Some(PortAction::Forward(ifaces)) => ifaces.clone(),
            Some(other) => unreachable!("filter action {other:?} on a forwarding element"),
        };
        for i in ifaces {
            let port = Port { node: n, iface: i };
            // Egress ACL at the sending interface.
            if model.action(ElementKey::Filter(n, i, Dir::Out), ec) == Some(&PortAction::Deny) {
                g.blocked_edges.push((n, port, port, Dir::Out));
                continue;
            }
            match topo.get(&port) {
                None => {
                    // Host-facing interface: the packet leaves the
                    // modeled network here — until a link comes up
                    // under the port, so the port is still a use.
                    g.delivers.insert(n);
                    g.ports_used.insert(port);
                    g.node_ports.entry(n).or_default().insert(port);
                }
                Some(dst) => {
                    g.ports_used.insert(port);
                    g.ports_used.insert(*dst);
                    g.node_ports.entry(n).or_default().insert(port);
                    // Ingress ACL at the receiving interface.
                    if model.action(ElementKey::Filter(dst.node, dst.iface, Dir::In), ec)
                        == Some(&PortAction::Deny)
                    {
                        g.blocked_edges.push((n, port, *dst, Dir::In));
                    } else if Some(dst.node) != exclude {
                        g.succ.entry(n).or_default().insert(dst.node);
                    }
                }
            }
        }
    }
    g
}

/// Per-source outcome of one EC's forwarding graph — what policies
/// read, and the ports link changes invalidate it through. Because
/// forwarding is source-independent, a "source" is just a starting
/// node, and the answer for each start is the answer for its SCC.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EcAnalysis {
    /// start node → delivery nodes its packets can reach.
    pub delivered: BTreeMap<NodeId, BTreeSet<NodeId>>,
    /// Start nodes whose packets can be dropped (FIB drop or no route).
    pub dropped: BTreeSet<NodeId>,
    /// Start nodes whose packets can enter a forwarding loop.
    pub looping: BTreeSet<NodeId>,
    pub ports_used: BTreeSet<Port>,
    /// Per start node, a hash of the set of out-ports its packets can
    /// traverse — a cheap "which paths does this source use" signature.
    /// A changed signature means the source's paths were modified even
    /// if delivery outcomes did not change (the paper counts such pairs
    /// as affected).
    pub path_sig: BTreeMap<NodeId, u64>,
}

impl EcAnalysis {
    /// Whether packets injected at `src` can be delivered at `dst`.
    pub fn delivers(&self, src: NodeId, dst: NodeId) -> bool {
        self.delivered.get(&src).is_some_and(|d| d.contains(&dst))
    }

    /// Every (src, dst) pair this EC delivers between.
    pub fn pairs(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.delivered.iter().flat_map(|(&s, dsts)| dsts.iter().map(move |&d| (s, d)))
    }
}

/// Condense the graph and propagate outcomes to every start node.
pub fn analyze(graph: &EcGraph) -> EcAnalysis {
    // Collect every node that appears anywhere.
    let mut nodes: BTreeSet<NodeId> = BTreeSet::new();
    nodes.extend(graph.succ.keys().copied());
    nodes.extend(graph.succ.values().flatten().copied());
    nodes.extend(graph.delivers.iter().copied());
    nodes.extend(graph.drops.iter().copied());
    nodes.extend(graph.node_ports.keys().copied());

    // Iterative Tarjan SCC.
    let index_of: BTreeMap<NodeId, usize> =
        nodes.iter().enumerate().map(|(i, &n)| (n, i)).collect();
    let node_list: Vec<NodeId> = nodes.iter().copied().collect();
    let n = node_list.len();
    let succ_idx: Vec<Vec<usize>> = node_list
        .iter()
        .map(|u| {
            graph
                .succ
                .get(u)
                .map(|s| s.iter().map(|v| index_of[v]).collect())
                .unwrap_or_default()
        })
        .collect();

    let mut comp_of = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut disc = vec![usize::MAX; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_disc = 0usize;
    let mut num_comps = 0usize;

    #[derive(Clone, Copy)]
    struct Frame {
        v: usize,
        child: usize,
    }
    for root in 0..n {
        if disc[root] != usize::MAX {
            continue;
        }
        let mut call: Vec<Frame> = vec![Frame { v: root, child: 0 }];
        disc[root] = next_disc;
        low[root] = next_disc;
        next_disc += 1;
        stack.push(root);
        on_stack[root] = true;
        while let Some(frame) = call.last_mut() {
            let v = frame.v;
            if frame.child < succ_idx[v].len() {
                let w = succ_idx[v][frame.child];
                frame.child += 1;
                if disc[w] == usize::MAX {
                    disc[w] = next_disc;
                    low[w] = next_disc;
                    next_disc += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    call.push(Frame { v: w, child: 0 });
                } else if on_stack[w] {
                    low[v] = low[v].min(disc[w]);
                }
            } else {
                if low[v] == disc[v] {
                    loop {
                        let w = stack.pop().expect("tarjan stack");
                        on_stack[w] = false;
                        comp_of[w] = num_comps;
                        if w == v {
                            break;
                        }
                    }
                    num_comps += 1;
                }
                call.pop();
                if let Some(parent) = call.last() {
                    let pv = parent.v;
                    low[pv] = low[pv].min(low[v]);
                }
            }
        }
    }

    // Component data. Tarjan numbers components in reverse topological
    // order (a component is finished only after everything it reaches),
    // so iterating comp 0..num_comps processes successors first.
    let mut comp_nodes: Vec<Vec<usize>> = vec![Vec::new(); num_comps];
    for v in 0..n {
        comp_nodes[comp_of[v]].push(v);
    }
    #[derive(Clone, Default)]
    struct CompData {
        delivered: BTreeSet<NodeId>,
        dropped: bool,
        looping: bool,
        ports: BTreeSet<Port>,
    }
    let mut data: Vec<CompData> = vec![CompData::default(); num_comps];
    for c in 0..num_comps {
        let mut d = CompData::default();
        // Cyclic component: more than one node, or a self-loop.
        let cyclic = comp_nodes[c].len() > 1
            || comp_nodes[c].iter().any(|&v| succ_idx[v].contains(&v));
        d.looping = cyclic;
        for &v in &comp_nodes[c] {
            let node = node_list[v];
            if graph.delivers.contains(&node) {
                d.delivered.insert(node);
            }
            d.dropped |= graph.drops.contains(&node);
            if let Some(ports) = graph.node_ports.get(&node) {
                d.ports.extend(ports.iter().copied());
            }
            for &w in &succ_idx[v] {
                let cw = comp_of[w];
                if cw != c {
                    debug_assert!(cw < c, "condensation order violated");
                    d.delivered.extend(data[cw].delivered.iter().copied());
                    d.dropped |= data[cw].dropped;
                    d.looping |= data[cw].looping;
                    let other = data[cw].ports.clone();
                    d.ports.extend(other);
                }
            }
        }
        data[c] = d;
    }

    let mut out = EcAnalysis { ports_used: graph.ports_used.clone(), ..Default::default() };
    for v in 0..n {
        let node = node_list[v];
        let d = &data[comp_of[v]];
        if !d.delivered.is_empty() {
            out.delivered.insert(node, d.delivered.clone());
        }
        if d.dropped {
            out.dropped.insert(node);
        }
        if d.looping {
            out.looping.insert(node);
        }
        if !d.ports.is_empty() {
            // FNV-1a over the sorted port set.
            let mut h: u64 = 0xcbf29ce484222325;
            for p in &d.ports {
                for word in [p.node.0 as u64, p.iface.0 as u64] {
                    h = (h ^ word).wrapping_mul(0x100000001b3);
                }
            }
            out.path_sig.insert(node, h);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn graph(edges: &[(u32, u32)], delivers: &[u32], drops: &[u32]) -> EcGraph {
        let mut g = EcGraph::default();
        for &(a, b) in edges {
            g.succ.entry(n(a)).or_default().insert(n(b));
        }
        g.delivers.extend(delivers.iter().map(|&i| n(i)));
        g.drops.extend(drops.iter().map(|&i| n(i)));
        g
    }

    #[test]
    fn chain_delivers() {
        let g = graph(&[(0, 1), (1, 2)], &[2], &[]);
        let a = analyze(&g);
        assert_eq!(a.delivered[&n(0)], BTreeSet::from([n(2)]));
        assert_eq!(a.delivered[&n(1)], BTreeSet::from([n(2)]));
        assert!(a.looping.is_empty());
        assert!(a.dropped.is_empty());
    }

    #[test]
    fn ecmp_reaches_both_outcomes() {
        // 0 → {1, 2}; 1 delivers, 2 drops.
        let g = graph(&[(0, 1), (0, 2)], &[1], &[2]);
        let a = analyze(&g);
        assert_eq!(a.delivered[&n(0)], BTreeSet::from([n(1)]));
        assert_eq!(a.dropped, BTreeSet::from([n(0), n(2)]));
    }

    #[test]
    fn cycle_is_detected() {
        let g = graph(&[(0, 1), (1, 2), (2, 0)], &[], &[]);
        let a = analyze(&g);
        assert_eq!(a.looping, BTreeSet::from([n(0), n(1), n(2)]));
        // A node feeding the cycle also loops.
        let g = graph(&[(9, 0), (0, 1), (1, 0)], &[], &[]);
        let a = analyze(&g);
        assert!(a.looping.contains(&n(9)));
    }

    #[test]
    fn self_loop_is_a_loop() {
        let g = graph(&[(0, 0)], &[], &[]);
        let a = analyze(&g);
        assert_eq!(a.looping, BTreeSet::from([n(0)]));
    }

    #[test]
    fn cycle_with_exit_both_loops_and_delivers() {
        // 0 ↔ 1, and 1 → 2 which delivers: packets may loop or exit.
        let g = graph(&[(0, 1), (1, 0), (1, 2)], &[2], &[]);
        let a = analyze(&g);
        assert!(a.looping.contains(&n(0)));
        assert_eq!(a.delivered[&n(0)], BTreeSet::from([n(2)]));
    }

    #[test]
    fn diamond_no_false_loop() {
        let g = graph(&[(0, 1), (0, 2), (1, 3), (2, 3)], &[3], &[]);
        let a = analyze(&g);
        assert!(a.looping.is_empty(), "a diamond is not a loop");
        assert_eq!(a.delivered[&n(0)], BTreeSet::from([n(3)]));
    }
}
