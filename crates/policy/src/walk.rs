//! Per-EC forwarding analysis over dense tables.
//!
//! For one equivalence class, the network's forwarding behaviour is a
//! small graph over devices: each node either delivers (forwards out a
//! host-facing interface), drops (FIB drop or no route), is filtered
//! (an ACL denies the EC), or forwards to successor devices (several,
//! under ECMP). [`Walker::analyze`] writes that graph as CSR successor
//! lists (one flat array of successors plus one start offset per node),
//! condenses it (Tarjan SCC) and propagates outcomes as word bitsets in
//! condensation order, so that every device's fate — which delivery
//! points it can reach, whether its packets can be dropped, whether
//! they can loop — comes out of one linear-time pass, shared by all
//! sources.
//!
//! Every table is indexed by `NodeId.0`. Registry ids are dense and
//! never reused, so a row computed before a device was added still
//! names the same nodes after.

use std::collections::{BTreeMap, BTreeSet};

use rc_apkeep::{EcId, EcView, ElementKey, PortAction};
use rc_netcfg::facts::Dir;
use rc_netcfg::types::{IfaceId, NodeId, Port};

/// Node ids the dense tables accept. The tables are sized by the largest
/// id, not by the device count (ids are never reused): an analysis holds
/// n² bits and the checker's pair counts 4·n² bytes, so this bound caps
/// them at 2 MiB and 64 MiB. A larger id is refused — by a panic where
/// the checker is told about devices or links, by an error on decode.
pub const MAX_NODES: usize = 1 << 12;

/// Words of a bitset over `n` indices.
pub(crate) fn words(n: usize) -> usize {
    n.div_ceil(64)
}

pub(crate) fn set(bits: &mut [u64], i: usize) {
    bits[i / 64] |= 1 << (i % 64);
}

/// Bit `i`; bits past the end of the slice are clear.
pub(crate) fn test(bits: &[u64], i: usize) -> bool {
    bits.get(i / 64).is_some_and(|w| w >> (i % 64) & 1 == 1)
}

/// Indices of the set bits, ascending.
pub(crate) fn ones(bits: &[u64]) -> impl Iterator<Item = usize> + '_ {
    bits.iter().enumerate().flat_map(|(j, &w)| {
        let mut w = w;
        std::iter::from_fn(move || {
            (w != 0).then(|| {
                let b = w.trailing_zeros() as usize;
                w &= w - 1;
                j * 64 + b
            })
        })
    })
}

fn or_into(dst: &mut [u64], src: &[u64]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d |= s;
    }
}

/// Sort and deduplicate `v[from..]` in place.
fn sort_dedup_from<T: Ord + Copy>(v: &mut Vec<T>, from: usize) {
    v[from..].sort_unstable();
    let mut keep = from;
    for i in from..v.len() {
        if keep == from || v[keep - 1] != v[i] {
            v[keep] = v[i];
            keep += 1;
        }
    }
    v.truncate(keep);
}

/// The checker's devices and links as tables indexed by `NodeId.0`:
/// derived from its node set and link map, never persisted.
#[derive(Debug, Default)]
pub struct Topology {
    /// Devices, ascending.
    nodes: Vec<u32>,
    /// `links[link_start[i]..link_start[i + 1]]`: node `i`'s linked
    /// interfaces with the port at the other end, ascending by
    /// interface. Covers every link endpoint, device or not.
    link_start: Vec<u32>,
    links: Vec<(IfaceId, Port)>,
}

impl Topology {
    /// Tables over `nodes` and the directed `links` (source port →
    /// destination port).
    ///
    /// # Panics
    /// If a node id is at least [`MAX_NODES`].
    pub fn new(nodes: &BTreeSet<NodeId>, links: &BTreeMap<Port, Port>) -> Self {
        let ids = nodes.iter().chain(links.iter().flat_map(|(a, b)| [&a.node, &b.node]));
        let len = ids.map(|n| n.0 as usize + 1).max().unwrap_or(0);
        assert!(len <= MAX_NODES, "node id {} past the dense tables' bound", len - 1);
        let mut link_start = vec![0u32; len + 1];
        for src in links.keys() {
            link_start[src.node.0 as usize + 1] += 1;
        }
        for i in 0..len {
            link_start[i + 1] += link_start[i];
        }
        // A `BTreeMap<Port, _>` iterates by (node, iface): already grouped
        // by node and sorted within each group.
        Topology {
            nodes: nodes.iter().map(|n| n.0).collect(),
            link_start,
            links: links.iter().map(|(src, dst)| (src.iface, *dst)).collect(),
        }
    }

    /// Rows of every table: one past the largest node id named.
    pub(crate) fn len(&self) -> usize {
        self.link_start.len().saturating_sub(1)
    }

    fn links_of(&self, node: usize) -> std::ops::Range<usize> {
        self.link_start[node] as usize..self.link_start[node + 1] as usize
    }

    /// The link under `(node, iface)`, as an index into `links`.
    fn link(&self, node: usize, iface: IfaceId) -> Option<usize> {
        self.links_of(node).find(|&l| self.links[l].0 == iface)
    }
}

/// A [`Topology`] bound to one model snapshot. The element ids of every
/// FIB and of the filters on every linked port are resolved once, so a
/// walk indexes tables instead of hashing a key per node and port.
/// `Sync`: one walker serves every worker of a parallel pass.
pub struct Walker<'a> {
    view: &'a EcView<'a>,
    topo: &'a Topology,
    /// Per node id: its FIB element.
    fwd: Vec<Option<usize>>,
    /// Parallel to `topo.links`: the egress filter of the local port and
    /// the ingress filter of the peer port.
    filters: Vec<(Option<usize>, Option<usize>)>,
}

impl<'a> Walker<'a> {
    pub fn new(view: &'a EcView<'a>, topo: &'a Topology) -> Self {
        let mut fwd = vec![None; topo.len()];
        for &n in &topo.nodes {
            fwd[n as usize] = view.element(ElementKey::Forward(NodeId(n)));
        }
        let mut filters = Vec::with_capacity(topo.links.len());
        for node in 0..topo.len() {
            for &(iface, peer) in &topo.links[topo.links_of(node)] {
                filters.push((
                    view.element(ElementKey::Filter(NodeId(node as u32), iface, Dir::Out)),
                    view.element(ElementKey::Filter(peer.node, peer.iface, Dir::In)),
                ));
            }
        }
        Walker { view, topo, fwd, filters }
    }

    fn denies(&self, filter: Option<usize>, ec: EcId) -> bool {
        filter.is_some_and(|f| *self.view.action_at(f, ec) == PortAction::Deny)
    }

    /// The egress filter of `port`, resolved through its link when it has
    /// one (host-facing ports are few: looked up by key).
    fn egress(&self, port: Port, link: Option<usize>) -> Option<usize> {
        match link {
            Some(l) => self.filters[l].0,
            None => self.view.element(ElementKey::Filter(port.node, port.iface, Dir::Out)),
        }
    }

    /// The forwarding graph of `ec`. `exclude` removes one node (used
    /// for waypoint checks).
    pub fn forwarding(&self, ec: EcId, exclude: Option<NodeId>) -> Forwarding {
        let n = self.topo.len();
        let mut f = Forwarding {
            succ_start: vec![0; n + 1],
            succ: Vec::new(),
            delivers: vec![0; words(n)],
            drops: vec![0; words(n)],
            port_start: vec![0; n + 1],
            ports: Vec::new(),
            ports_used: Vec::new(),
            blocked_edges: Vec::new(),
        };
        for &u in &self.topo.nodes {
            let (u, node) = (u as usize, NodeId(u));
            let (first_succ, first_port) = (f.succ.len(), f.ports.len());
            let action = self.fwd[u].map(|e| self.view.action_at(e, ec));
            match action {
                _ if Some(node) == exclude => {}
                None | Some(PortAction::Drop) => set(&mut f.drops, u),
                Some(PortAction::Deliver(ifaces)) => {
                    // Connected routes: the packet terminates here (subject
                    // to the egress ACL of the delivering interface).
                    for &iface in ifaces {
                        let port = Port { node, iface };
                        if self.denies(self.egress(port, self.topo.link(u, iface)), ec) {
                            f.blocked_edges.push((node, port, port, Dir::Out));
                        } else {
                            set(&mut f.delivers, u);
                            f.ports.push(port);
                        }
                    }
                }
                Some(PortAction::Forward(ifaces)) => {
                    for &iface in ifaces {
                        let port = Port { node, iface };
                        let link = self.topo.link(u, iface);
                        // Egress ACL at the sending interface.
                        if self.denies(self.egress(port, link), ec) {
                            f.blocked_edges.push((node, port, port, Dir::Out));
                            continue;
                        }
                        f.ports.push(port);
                        f.ports_used.push(port);
                        let Some(l) = link else {
                            // Host-facing interface: the packet leaves the
                            // modeled network here — until a link comes up
                            // under the port, so the port is still a use.
                            set(&mut f.delivers, u);
                            continue;
                        };
                        let peer = self.topo.links[l].1;
                        f.ports_used.push(peer);
                        // Ingress ACL at the receiving interface. An edge
                        // into `exclude` stays: that node does nothing.
                        if self.denies(self.filters[l].1, ec) {
                            f.blocked_edges.push((node, port, peer, Dir::In));
                        } else {
                            f.succ.push(peer.node.0);
                        }
                    }
                }
                Some(other) => unreachable!("filter action {other:?} on a forwarding element"),
            }
            sort_dedup_from(&mut f.succ, first_succ);
            sort_dedup_from(&mut f.ports, first_port);
            f.succ_start[u + 1] = f.succ.len() as u32;
            f.port_start[u + 1] = f.ports.len() as u32;
        }
        // Rows of non-devices are empty: carry each offset forward.
        for i in 1..=n {
            f.succ_start[i] = f.succ_start[i].max(f.succ_start[i - 1]);
            f.port_start[i] = f.port_start[i].max(f.port_start[i - 1]);
        }
        f.ports_used.sort_unstable();
        f.ports_used.dedup();
        f
    }

    /// The analysis of `ec`'s forwarding graph, `exclude` removed.
    pub fn analyze(&self, ec: EcId, exclude: Option<NodeId>) -> EcAnalysis {
        self.forwarding(ec, exclude).analyze()
    }
}

/// One EC's forwarding graph over a [`Topology`], as a walk writes it:
/// CSR successor lists, terminal bits, and the out-ports each node sends
/// the EC through. Packet tracing reads it directly.
#[derive(Debug)]
pub struct Forwarding {
    /// `succ[succ_start[i]..succ_start[i + 1]]`: node `i`'s successors,
    /// ascending.
    succ_start: Vec<u32>,
    succ: Vec<u32>,
    /// Nodes that deliver the EC to an attached host network.
    delivers: Vec<u64>,
    /// Nodes where the EC is dropped (FIB drop action or no route).
    drops: Vec<u64>,
    /// `ports[port_start[i]..port_start[i + 1]]`: the out-ports node `i`
    /// sends the EC through, link-facing and host-facing alike. `ports`
    /// is sorted, so a port's index numbers it in `Port` order — the
    /// order path signatures hash in.
    port_start: Vec<u32>,
    ports: Vec<Port>,
    /// Link endpoints the forwarding uses, sorted (for invalidation when
    /// links change).
    ports_used: Vec<Port>,
    /// Edges removed by ACLs: `(sender, out port, filtering port,
    /// direction)` — `Out` blocked leaving the sender, `In` blocked
    /// entering the filtering port's device.
    blocked_edges: Vec<(NodeId, Port, Port, Dir)>,
}

impl Forwarding {
    fn len(&self) -> usize {
        self.succ_start.len() - 1
    }

    fn succ(&self, v: usize) -> &[u32] {
        &self.succ[self.succ_start[v] as usize..self.succ_start[v + 1] as usize]
    }

    /// The devices `node` forwards the EC to, ascending.
    pub fn successors(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let v = node.0 as usize;
        let succ = if v < self.len() { self.succ(v) } else { &[] };
        succ.iter().map(|&w| NodeId(w))
    }

    /// Whether `node` delivers the EC off the modeled network.
    pub fn delivers(&self, node: NodeId) -> bool {
        test(&self.delivers, node.0 as usize)
    }

    /// Edges the ACLs removed, in node order (see the field docs).
    pub fn blocked_edges(&self) -> &[(NodeId, Port, Port, Dir)] {
        &self.blocked_edges
    }

    /// Condense the graph and propagate outcomes to every start node.
    pub fn analyze(&self) -> EcAnalysis {
        let n = self.len();
        let (comp_of, num_comps) = self.components();
        // Members of each component, by counting sort.
        let mut comp_start = vec![0u32; num_comps + 1];
        for &c in &comp_of {
            comp_start[c as usize + 1] += 1;
        }
        for c in 0..num_comps {
            comp_start[c + 1] += comp_start[c];
        }
        let mut fill = comp_start.clone();
        let mut members = vec![0u32; n];
        for (v, &c) in comp_of.iter().enumerate() {
            members[fill[c as usize] as usize] = v as u32;
            fill[c as usize] += 1;
        }

        // Per component: the delivery nodes and out-ports it reaches, as
        // bitset rows, and whether it can drop or loop. Components come
        // in reverse topological order, so every successor's row is
        // final before it is read.
        let (w, pw) = (words(n), words(self.ports.len()));
        let mut reach = vec![0u64; num_comps * w];
        let mut used = vec![0u64; num_comps * pw];
        let mut dropped = vec![false; num_comps];
        let mut looping = vec![false; num_comps];
        for c in 0..num_comps {
            let (done, rest) = reach.split_at_mut(c * w);
            let row = &mut rest[..w];
            let (pdone, prest) = used.split_at_mut(c * pw);
            let prow = &mut prest[..pw];
            let vs = &members[comp_start[c] as usize..comp_start[c + 1] as usize];
            // Cyclic component: more than one node, or a self-loop.
            let mut cyclic = vs.len() > 1;
            for &v in vs {
                let v = v as usize;
                if test(&self.delivers, v) {
                    set(row, v);
                }
                dropped[c] |= test(&self.drops, v);
                for p in self.port_start[v]..self.port_start[v + 1] {
                    set(prow, p as usize);
                }
                for &x in self.succ(v) {
                    let cx = comp_of[x as usize] as usize;
                    if cx == c {
                        cyclic |= x as usize == v;
                        continue;
                    }
                    debug_assert!(cx < c, "condensation order violated");
                    or_into(row, &done[cx * w..][..w]);
                    or_into(prow, &pdone[cx * pw..][..pw]);
                    dropped[c] |= dropped[cx];
                    looping[c] |= looping[cx];
                }
            }
            looping[c] |= cyclic;
        }

        // FNV-1a over each component's out-ports, in `Port` order.
        let sig: Vec<Option<u64>> = (0..num_comps)
            .map(|c| {
                let mut ports = ones(&used[c * pw..][..pw]).map(|p| self.ports[p]).peekable();
                ports.peek()?;
                Some(ports.fold(0xcbf29ce484222325, |h, p| {
                    [p.node.0 as u64, p.iface.0 as u64]
                        .into_iter()
                        .fold(h, |h, word| (h ^ word).wrapping_mul(0x100000001b3))
                }))
            })
            .collect();

        let mut out = EcAnalysis::new(n);
        out.ports_used = self.ports_used.clone();
        for (v, &c) in comp_of.iter().enumerate() {
            let c = c as usize;
            out.delivered[v * w..][..w].copy_from_slice(&reach[c * w..][..w]);
            if dropped[c] {
                set(&mut out.dropped, v);
            }
            if looping[c] {
                set(&mut out.looping, v);
            }
            if let Some(s) = sig[c] {
                set(&mut out.routed, v);
                out.path_sig[v] = s;
            }
        }
        out
    }

    /// Strongly connected components (iterative Tarjan): each node's
    /// component id, and the count. Components are numbered in reverse
    /// topological order — one is finished only after everything it
    /// reaches — so ascending ids visit successors first.
    fn components(&self) -> (Vec<u32>, usize) {
        const NONE: u32 = u32::MAX;
        let n = self.len();
        let mut comp = vec![NONE; n];
        let mut disc = vec![NONE; n];
        let mut low = vec![0u32; n];
        // A discovered node without a component is on the Tarjan stack.
        let mut stack: Vec<u32> = Vec::new();
        // DFS frames: (node, offset of its next successor in `succ`).
        let mut call: Vec<(u32, u32)> = Vec::new();
        let (mut next, mut comps) = (0u32, 0u32);
        for root in 0..n as u32 {
            if disc[root as usize] != NONE {
                continue;
            }
            disc[root as usize] = next;
            low[root as usize] = next;
            next += 1;
            stack.push(root);
            call.push((root, self.succ_start[root as usize]));
            while let Some(&(v, child)) = call.last() {
                let vi = v as usize;
                if child < self.succ_start[vi + 1] {
                    call.last_mut().expect("frame").1 += 1;
                    let w = self.succ[child as usize];
                    let wi = w as usize;
                    if disc[wi] == NONE {
                        disc[wi] = next;
                        low[wi] = next;
                        next += 1;
                        stack.push(w);
                        call.push((w, self.succ_start[wi]));
                    } else if comp[wi] == NONE {
                        low[vi] = low[vi].min(disc[wi]);
                    }
                    continue;
                }
                if low[vi] == disc[vi] {
                    loop {
                        let w = stack.pop().expect("tarjan stack");
                        comp[w as usize] = comps;
                        if w == v {
                            break;
                        }
                    }
                    comps += 1;
                }
                call.pop();
                if let Some(&(p, _)) = call.last() {
                    low[p as usize] = low[p as usize].min(low[vi]);
                }
            }
        }
        (comp, comps as usize)
    }
}

/// Per-source outcome of one EC's forwarding graph — what policies
/// read, and the ports link changes invalidate it through. Because
/// forwarding is source-independent, a "source" is just a starting
/// node, and the answer for each start is the answer for its SCC.
///
/// Rows are indexed by `NodeId.0` below `n`; past it every row is empty.
#[derive(Clone, Debug, Default)]
pub struct EcAnalysis {
    pub(crate) n: usize,
    /// `delivered[s * words(n)..][..words(n)]`: the delivery nodes start
    /// node `s`'s packets can reach.
    pub(crate) delivered: Vec<u64>,
    /// Start nodes whose packets can be dropped (FIB drop or no route).
    pub(crate) dropped: Vec<u64>,
    /// Start nodes whose packets can enter a forwarding loop.
    pub(crate) looping: Vec<u64>,
    /// Start nodes whose packets traverse an out-port: those with a path
    /// signature.
    pub(crate) routed: Vec<u64>,
    /// Per start node in `routed`, a hash of the out-ports its packets
    /// can traverse — a cheap "which paths does this source use"
    /// signature. A changed signature means the source's paths were
    /// modified even if delivery outcomes did not change (the paper
    /// counts such pairs as affected). Zero elsewhere.
    pub(crate) path_sig: Vec<u64>,
    /// Link endpoints this EC's forwarding uses, sorted.
    pub(crate) ports_used: Vec<Port>,
}

impl EcAnalysis {
    /// Empty rows over node ids below `n`.
    pub(crate) fn new(n: usize) -> Self {
        let w = words(n);
        EcAnalysis {
            n,
            delivered: vec![0; n * w],
            dropped: vec![0; w],
            looping: vec![0; w],
            routed: vec![0; w],
            path_sig: vec![0; n],
            ports_used: Vec::new(),
        }
    }

    /// Start node `s`'s delivery bitset (empty past `n`).
    pub(crate) fn row(&self, s: usize) -> &[u64] {
        let w = words(self.n);
        if s < self.n {
            &self.delivered[s * w..][..w]
        } else {
            &[]
        }
    }

    /// Whether packets injected at `src` can be delivered at `dst`.
    pub fn delivers(&self, src: NodeId, dst: NodeId) -> bool {
        test(self.row(src.0 as usize), dst.0 as usize)
    }

    /// The delivery nodes packets injected at `src` can reach, ascending.
    pub fn delivered(&self, src: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        ones(self.row(src.0 as usize)).map(|d| NodeId(d as u32))
    }

    /// Whether packets injected at `src` can be dropped.
    pub fn drops(&self, src: NodeId) -> bool {
        test(&self.dropped, src.0 as usize)
    }

    /// Whether packets injected at `src` can enter a forwarding loop.
    pub fn loops(&self, src: NodeId) -> bool {
        test(&self.looping, src.0 as usize)
    }

    /// Whether packets of this EC can loop from any start.
    pub fn loops_anywhere(&self) -> bool {
        self.looping.iter().any(|&w| w != 0)
    }

    /// The path signature of `src` (`None`: its packets leave through no
    /// port).
    pub fn path_sig(&self, src: NodeId) -> Option<u64> {
        let s = src.0 as usize;
        test(&self.routed, s).then(|| self.path_sig[s])
    }

    /// Link endpoints this EC's forwarding uses, sorted.
    pub fn ports_used(&self) -> &[Port] {
        &self.ports_used
    }
}

/// Analyses are equal when they say the same thing: each bitset
/// compares as the set of ids it holds, whatever width `n` it was sized
/// for, and path signatures compare where a source is routed.
impl PartialEq for EcAnalysis {
    fn eq(&self, other: &Self) -> bool {
        let same = |a: &[u64], b: &[u64]| ones(a).eq(ones(b));
        same(&self.dropped, &other.dropped)
            && same(&self.looping, &other.looping)
            && same(&self.routed, &other.routed)
            && (0..self.n.max(other.n)).all(|s| same(self.row(s), other.row(s)))
            && ones(&self.routed).all(|s| self.path_sig[s] == other.path_sig[s])
            && self.ports_used == other.ports_used
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    /// A graph over nodes `0..len`: `edges` as successor lists, the
    /// rest as terminal bits, no ports.
    fn graph(len: usize, edges: &[(u32, u32)], delivers: &[u32], drops: &[u32]) -> Forwarding {
        let mut f = Forwarding {
            succ_start: vec![0; len + 1],
            succ: Vec::new(),
            delivers: vec![0; words(len)],
            drops: vec![0; words(len)],
            port_start: vec![0; len + 1],
            ports: Vec::new(),
            ports_used: Vec::new(),
            blocked_edges: Vec::new(),
        };
        for u in 0..len as u32 {
            f.succ.extend(edges.iter().filter(|e| e.0 == u).map(|e| e.1));
            f.succ_start[u as usize + 1] = f.succ.len() as u32;
        }
        for &d in delivers {
            set(&mut f.delivers, d as usize);
        }
        for &d in drops {
            set(&mut f.drops, d as usize);
        }
        f
    }

    fn delivered(a: &EcAnalysis, src: u32) -> Vec<u32> {
        a.delivered(n(src)).map(|d| d.0).collect()
    }

    #[test]
    fn chain_delivers() {
        let a = graph(3, &[(0, 1), (1, 2)], &[2], &[]).analyze();
        assert_eq!(delivered(&a, 0), [2]);
        assert_eq!(delivered(&a, 1), [2]);
        assert!(!a.loops_anywhere());
        assert!((0..3).all(|i| !a.drops(n(i))));
    }

    #[test]
    fn ecmp_reaches_both_outcomes() {
        // 0 → {1, 2}; 1 delivers, 2 drops.
        let a = graph(3, &[(0, 1), (0, 2)], &[1], &[2]).analyze();
        assert_eq!(delivered(&a, 0), [1]);
        assert!(a.drops(n(0)) && !a.drops(n(1)) && a.drops(n(2)));
    }

    #[test]
    fn cycle_is_detected() {
        let a = graph(3, &[(0, 1), (1, 2), (2, 0)], &[], &[]).analyze();
        assert!((0..3).all(|i| a.loops(n(i))));
        // A node feeding the cycle also loops.
        let a = graph(10, &[(9, 0), (0, 1), (1, 0)], &[], &[]).analyze();
        assert!(a.loops(n(9)));
        assert!(!a.loops(n(5)));
    }

    #[test]
    fn self_loop_is_a_loop() {
        let a = graph(2, &[(0, 0)], &[], &[]).analyze();
        assert!(a.loops(n(0)) && !a.loops(n(1)));
    }

    #[test]
    fn cycle_with_exit_both_loops_and_delivers() {
        // 0 ↔ 1, and 1 → 2 which delivers: packets may loop or exit.
        let a = graph(3, &[(0, 1), (1, 0), (1, 2)], &[2], &[]).analyze();
        assert!(a.loops(n(0)));
        assert_eq!(delivered(&a, 0), [2]);
    }

    #[test]
    fn diamond_no_false_loop() {
        let a = graph(4, &[(0, 1), (0, 2), (1, 3), (2, 3)], &[3], &[]).analyze();
        assert!(!a.loops_anywhere(), "a diamond is not a loop");
        assert_eq!(delivered(&a, 0), [3]);
    }

    #[test]
    fn sort_dedup_from_leaves_the_prefix() {
        let mut v = vec![9, 1, 5, 3, 5, 1];
        sort_dedup_from(&mut v, 2);
        assert_eq!(v, [9, 1, 1, 3, 5]);
    }
}
