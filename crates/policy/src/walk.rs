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

/// Set bit `i` to `on`.
fn put(bits: &mut [u64], i: usize, on: bool) {
    if on {
        set(bits, i);
    } else {
        bits[i / 64] &= !(1 << (i % 64));
    }
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
    /// Devices, ascending, and the same set as a bitset.
    nodes: Vec<u32>,
    is_node: Vec<u64>,
    /// `links[link_start[i]..link_start[i + 1]]`: node `i`'s linked
    /// interfaces with the port at the other end, ascending by
    /// interface. Covers every link endpoint, device or not.
    link_start: Vec<u32>,
    links: Vec<(IfaceId, Port)>,
    /// `rev[rev_start[i]..rev_start[i + 1]]`: the links into node `i`,
    /// as (sender, index into `links`), ascending — the reverse CSR a
    /// cone search walks back over.
    rev_start: Vec<u32>,
    rev: Vec<(u32, u32)>,
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
        let offsets = |ends: &mut dyn Iterator<Item = usize>| {
            let mut start = vec![0u32; len + 1];
            for i in ends {
                start[i + 1] += 1;
            }
            for i in 0..len {
                start[i + 1] += start[i];
            }
            start
        };
        // A `BTreeMap<Port, _>` iterates by (node, iface): already grouped
        // by node and sorted within each group, and so by sender below.
        let link_start = offsets(&mut links.keys().map(|src| src.node.0 as usize));
        let rev_start = offsets(&mut links.values().map(|dst| dst.node.0 as usize));
        let mut fill = rev_start.clone();
        let mut rev = vec![(0, 0); links.len()];
        for (l, (src, dst)) in links.iter().enumerate() {
            let slot = &mut fill[dst.node.0 as usize];
            rev[*slot as usize] = (src.node.0, l as u32);
            *slot += 1;
        }
        let mut is_node = vec![0; words(len)];
        nodes.iter().for_each(|n| set(&mut is_node, n.0 as usize));
        Topology {
            nodes: nodes.iter().map(|n| n.0).collect(),
            is_node,
            link_start,
            links: links.iter().map(|(src, dst)| (src.iface, *dst)).collect(),
            rev_start,
            rev,
        }
    }

    /// Rows of every table: one past the largest node id named.
    pub(crate) fn len(&self) -> usize {
        self.link_start.len().saturating_sub(1)
    }

    fn links_of(&self, node: usize) -> std::ops::Range<usize> {
        self.link_start[node] as usize..self.link_start[node + 1] as usize
    }

    /// The links into `node`: (sender, link index).
    fn links_into(&self, node: usize) -> &[(u32, u32)] {
        match self.rev_start.get(node + 1) {
            Some(&end) => &self.rev[self.rev_start[node] as usize..end as usize],
            None => &[],
        }
    }

    /// The link under `(node, iface)`, as an index into `links`.
    fn link(&self, node: usize, iface: IfaceId) -> Option<usize> {
        self.links_of(node).find(|&l| self.links[l].0 == iface)
    }

    /// Push the devices whose out-edges a move of `key` can change: a
    /// FIB or an egress filter changes its own device's, an ingress
    /// filter those of the devices linked into its port.
    pub fn moved_by(&self, key: ElementKey, out: &mut Vec<u32>) {
        match key {
            ElementKey::Forward(n) | ElementKey::Filter(n, _, Dir::Out) => out.push(n.0),
            ElementKey::Filter(n, iface, Dir::In) => out.extend(
                self.links_into(n.0 as usize)
                    .iter()
                    .filter(|&&(_, l)| self.links[l as usize].1.iface == iface)
                    .map(|&(u, _)| u),
            ),
        }
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

    /// Whether device `u` sends `ec` out of `iface`, whose link is
    /// `link`: its FIB forwards there and the egress filter passes.
    fn sends(&self, u: usize, iface: IfaceId, link: Option<usize>, ec: EcId) -> bool {
        let port = Port { node: NodeId(u as u32), iface };
        matches!(
            self.fwd[u].map(|e| self.view.action_at(e, ec)),
            Some(PortAction::Forward(ifaces)) if ifaces.binary_search(&iface).is_ok()
        ) && !self.denies(self.egress(port, link), ec)
    }

    /// Whether `u` forwards `ec` over its link `l` into the peer device.
    fn crosses(&self, u: usize, l: usize, ec: EcId) -> bool {
        self.sends(u, self.topo.links[l].0, Some(l), ec) && !self.denies(self.filters[l].1, ec)
    }

    /// Append device `u`'s row of `ec`'s graph to `f`: its successors
    /// and out-ports (each sorted), the ports it uses, its ACL-blocked
    /// edges and terminal bits. The caller records the row's end.
    fn push_row(&self, f: &mut Forwarding, u: usize, ec: EcId, exclude: Option<NodeId>) {
        let node = NodeId(u as u32);
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
    }

    /// The forwarding graph of `ec`. `exclude` removes one node (used
    /// for waypoint checks).
    pub fn forwarding(&self, ec: EcId, exclude: Option<NodeId>) -> Forwarding {
        let n = self.topo.len();
        let mut f = Forwarding::empty(n);
        for &u in &self.topo.nodes {
            let u = u as usize;
            self.push_row(&mut f, u, ec, exclude);
            f.succ_start[u + 1] = f.succ.len() as u32;
            f.port_start[u + 1] = f.ports.len() as u32;
        }
        f.close_rows();
        f.ports_used.sort_unstable();
        f.ports_used.dedup();
        f
    }

    /// The analysis of `ec`'s forwarding graph, `exclude` removed.
    pub fn analyze(&self, ec: EcId, exclude: Option<NodeId>) -> EcAnalysis {
        self.forwarding(ec, exclude).analyze()
    }

    /// The patch to `old` — the analysis of `ec` over the same node range
    /// before the devices in `moved` (and only they) changed their
    /// out-edges — that makes it `ec`'s analysis now. `None` when it
    /// takes the whole walk: `old` is sized for another node range, or
    /// the cone passes half the devices.
    ///
    /// Only a device that can reach a moved one — its cone — can change
    /// its row: every other device reaches the same unchanged edges
    /// before and after. The cone and everything it reaches are walked
    /// and condensed, so each cone row — path signature included — is
    /// exactly what the whole walk computes; rows outside the cone are
    /// kept. `ports_used` is re-derived only at ports a moved device
    /// can add or drop.
    pub fn analyze_cone(&self, ec: EcId, old: &EcAnalysis, moved: &[u32]) -> Option<Cone> {
        let n = self.topo.len();
        let mut moved: Vec<u32> = moved.iter().copied().filter(|&m| (m as usize) < n).collect();
        moved.sort_unstable();
        moved.dedup();
        if old.n != n {
            return None;
        }
        let (rows, in_cone) = self.cone(ec, &moved)?;
        let (f, reached) = self.reached(ec, &rows);
        let w = words(n);
        let mut patch = Cone {
            words: w,
            delivered: vec![0; rows.len() * w],
            fates: vec![(false, false, None); rows.len()],
            rows,
            ports_gone: Vec::new(),
            ports_added: Vec::new(),
        };
        f.propagate(reached, Some(&in_cone), |v, reach, dropped, looping, sig| {
            let i = patch.rows.binary_search(&(v as u32)).expect("a cone row");
            patch.delivered[i * w..][..w].copy_from_slice(reach);
            patch.fates[i] = (dropped, looping, sig);
        });
        (patch.ports_gone, patch.ports_added) = self.port_moves(ec, &old.ports_used, &moved);
        debug_assert!(
            {
                let mut patched = old.clone();
                patch.apply(&mut patched);
                patched == self.analyze(ec, None)
            },
            "the cone patch of EC {} differs from the whole walk",
            ec.0
        );
        Some(patch)
    }

    /// The devices that can reach one of `moved` now, ascending, and the
    /// same set as a bitset: found backwards over the links into each,
    /// admitting a sender only if it forwards `ec` over the link. `None`
    /// as soon as they pass half the devices.
    fn cone(&self, ec: EcId, moved: &[u32]) -> Option<(Vec<u32>, Vec<u64>)> {
        let limit = self.topo.nodes.len() / 2;
        let mut in_cone = vec![0u64; words(self.topo.len())];
        moved.iter().for_each(|&m| set(&mut in_cone, m as usize));
        let mut cone = moved.to_vec();
        let mut next = 0;
        while next < cone.len() {
            if cone.len() > limit {
                return None;
            }
            let x = cone[next] as usize;
            next += 1;
            for &(u, l) in self.topo.links_into(x) {
                if !test(&in_cone, u as usize) && self.crosses(u as usize, l as usize, ec) {
                    set(&mut in_cone, u as usize);
                    cone.push(u);
                }
            }
        }
        cone.sort_unstable();
        Some((cone, in_cone))
    }

    /// The forwarding graph of `ec` with rows for `from` and everything
    /// it reaches only, and those nodes, ascending.
    fn reached(&self, ec: EcId, from: &[u32]) -> (Forwarding, Vec<u32>) {
        let n = self.topo.len();
        // Rows in discovery order first; `ends[k]` closes `order[k]`'s.
        let mut order = from.to_vec();
        let mut seen = vec![0u64; words(n)];
        from.iter().for_each(|&v| set(&mut seen, v as usize));
        let mut rows = Forwarding::empty(n);
        let mut ends: Vec<(u32, u32)> = Vec::with_capacity(from.len());
        let mut next = 0;
        while next < order.len() {
            let v = order[next] as usize;
            next += 1;
            let first = rows.succ.len();
            // A node that is no device has an empty row, as in a whole walk.
            if test(&self.topo.is_node, v) {
                self.push_row(&mut rows, v, ec, None);
            }
            for i in first..rows.succ.len() {
                let w = rows.succ[i];
                if !test(&seen, w as usize) {
                    set(&mut seen, w as usize);
                    order.push(w);
                }
            }
            ends.push((rows.succ.len() as u32, rows.ports.len() as u32));
        }
        // Then laid out again in node order, so ports number in `Port`
        // order.
        let mut by_node: Vec<usize> = (0..order.len()).collect();
        by_node.sort_unstable_by_key(|&k| order[k]);
        let mut f = Forwarding::empty(n);
        f.delivers = rows.delivers;
        f.drops = rows.drops;
        for &k in &by_node {
            let (v, (s1, p1)) = (order[k] as usize, ends[k]);
            let (s0, p0) = if k == 0 { (0, 0) } else { ends[k - 1] };
            f.succ.extend_from_slice(&rows.succ[s0 as usize..s1 as usize]);
            f.ports.extend_from_slice(&rows.ports[p0 as usize..p1 as usize]);
            f.succ_start[v + 1] = f.succ.len() as u32;
            f.port_start[v + 1] = f.ports.len() as u32;
        }
        f.close_rows();
        (f, by_node.into_iter().map(|k| order[k]).collect())
    }

    /// The ports `ec`'s forwarding stopped and started using, each
    /// sorted, where `old` is what it used before the `moved` devices
    /// (ascending) moved. Only a moved device's own ports and the peers
    /// of its links can change: every other port is used by a sender
    /// that did not move.
    fn port_moves(&self, ec: EcId, old: &[Port], moved: &[u32]) -> (Vec<Port>, Vec<Port>) {
        // What the moved devices use now: their out-ports and the peers
        // behind them.
        let mut now = Vec::new();
        for &u in moved {
            let u = u as usize;
            let Some(PortAction::Forward(ifaces)) = self.fwd[u].map(|e| self.view.action_at(e, ec))
            else {
                continue;
            };
            for &iface in ifaces {
                let link = self.topo.link(u, iface);
                if self.sends(u, iface, link, ec) {
                    now.push(Port { node: NodeId(u as u32), iface });
                    now.extend(link.map(|l| self.topo.links[l].1));
                }
            }
        }
        now.sort_unstable();
        now.dedup();
        // What they may have used before and do not now, unless a device
        // that did not move still does: their own ports (`old` is sorted
        // by node, so those are one run of it) and their links' peers.
        // `old` is probed last: it is long, and cold.
        let mut gone = Vec::new();
        for &u in moved {
            let first = old.partition_point(|p| p.node.0 < u);
            let run = old[first..].partition_point(|p| p.node.0 == u);
            gone.extend_from_slice(&old[first..first + run]);
            gone.extend(self.topo.links_of(u as usize).map(|l| self.topo.links[l].1));
        }
        gone.sort_unstable();
        gone.dedup();
        gone.retain(|&p| {
            now.binary_search(&p).is_err() && !self.uses(ec, p) && old.binary_search(&p).is_ok()
        });
        now.retain(|p| old.binary_search(p).is_err());
        (gone, now)
    }

    /// Whether some device sends `ec` out of `port`, or over a link into
    /// it.
    fn uses(&self, ec: EcId, port: Port) -> bool {
        let u = port.node.0 as usize;
        (u < self.topo.len() && self.sends(u, port.iface, self.topo.link(u, port.iface), ec))
            || self.topo.links_into(u).iter().any(|&(w, l)| {
                let (iface, peer) = self.topo.links[l as usize];
                peer == port && self.sends(w as usize, iface, Some(l as usize), ec)
            })
    }
}

/// What a cone walk ([`Walker::analyze_cone`]) changes in an EC's
/// analysis: the rows of the devices that can reach a moved one, and the
/// ports its forwarding stopped and started using. Every other row and
/// port stays as it was.
#[derive(Debug)]
pub struct Cone {
    /// The devices whose rows are rewritten, ascending.
    pub(crate) rows: Vec<u32>,
    /// Their delivery bitsets, `words` words each, in `rows` order.
    words: usize,
    delivered: Vec<u64>,
    /// Their drop and loop flags and path signatures, in `rows` order.
    fates: Vec<(bool, bool, Option<u64>)>,
    /// Ports the EC's forwarding stopped using, and started using; each
    /// sorted.
    pub(crate) ports_gone: Vec<Port>,
    pub(crate) ports_added: Vec<Port>,
}

impl Cone {
    /// Row `i` (of `rows`): the delivery bitset, whether packets can be
    /// dropped or loop, and the path signature.
    pub(crate) fn row(&self, i: usize) -> (&[u64], bool, bool, Option<u64>) {
        let (dropped, looping, sig) = self.fates[i];
        (&self.delivered[i * self.words..][..self.words], dropped, looping, sig)
    }

    /// Write the patch into `a`, the analysis the cone walk started from.
    pub fn apply(&self, a: &mut EcAnalysis) {
        for (i, &v) in self.rows.iter().enumerate() {
            let (delivered, dropped, looping, sig) = self.row(i);
            a.set_row(v as usize, delivered, dropped, looping, sig);
        }
        for p in &self.ports_gone {
            let at = a.ports_used.binary_search(p).expect("a dropped port was used");
            a.ports_used.remove(at);
        }
        for p in &self.ports_added {
            let at = a.ports_used.binary_search(p).expect_err("an added port was not used");
            a.ports_used.insert(at, *p);
        }
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
    /// A graph over node ids below `n` with no rows yet.
    fn empty(n: usize) -> Self {
        Forwarding {
            succ_start: vec![0; n + 1],
            succ: Vec::new(),
            delivers: vec![0; words(n)],
            drops: vec![0; words(n)],
            port_start: vec![0; n + 1],
            ports: Vec::new(),
            ports_used: Vec::new(),
            blocked_edges: Vec::new(),
        }
    }

    /// Rows never written are empty: carry each offset forward.
    fn close_rows(&mut self) {
        for i in 1..self.succ_start.len() {
            self.succ_start[i] = self.succ_start[i].max(self.succ_start[i - 1]);
            self.port_start[i] = self.port_start[i].max(self.port_start[i - 1]);
        }
    }

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
        let mut out = EcAnalysis::new(self.len());
        self.propagate(0..self.len() as u32, None, |v, reach, dropped, looping, sig| {
            out.set_row(v, reach, dropped, looping, sig)
        });
        out.ports_used = self.ports_used.clone();
        out
    }

    /// Condense the part of the graph reachable from `roots` and hand
    /// `write` the fate of each of its nodes — only of the nodes in
    /// `only`, when given: the node, the delivery nodes it reaches,
    /// whether its packets can be dropped or loop, and its path
    /// signature.
    fn propagate(
        &self,
        roots: impl IntoIterator<Item = u32>,
        only: Option<&[u64]>,
        mut write: impl FnMut(usize, &[u64], bool, bool, Option<u64>),
    ) {
        let n = self.len();
        let (comp_of, members, comp_start) = self.components(roots);
        let num_comps = comp_start.len() - 1;

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

        for c in 0..num_comps {
            let vs = &members[comp_start[c] as usize..comp_start[c + 1] as usize];
            let mut written =
                vs.iter().map(|&v| v as usize).filter(|&v| only.is_none_or(|m| test(m, v)));
            let Some(first) = written.next() else { continue };
            // FNV-1a over the component's out-ports, in `Port` order.
            let mut ports = ones(&used[c * pw..][..pw]).map(|p| self.ports[p]).peekable();
            let sig = ports.peek().is_some().then(|| {
                ports.fold(0xcbf29ce484222325, |h, p| {
                    [p.node.0 as u64, p.iface.0 as u64]
                        .into_iter()
                        .fold(h, |h, word| (h ^ word).wrapping_mul(0x100000001b3))
                })
            });
            for v in std::iter::once(first).chain(written) {
                write(v, &reach[c * w..][..w], dropped[c], looping[c], sig);
            }
        }
    }

    /// Strongly connected components of what `roots` reach (iterative
    /// Tarjan): each node's component id (`u32::MAX` where unreached),
    /// the members of each component, and where each one's members
    /// start. Components are numbered in reverse topological order — one
    /// is finished only after everything it reaches — so ascending ids
    /// visit successors first.
    fn components(&self, roots: impl IntoIterator<Item = u32>) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
        const NONE: u32 = u32::MAX;
        let n = self.len();
        let mut comp = vec![NONE; n];
        let mut disc = vec![NONE; n];
        let mut low = vec![0u32; n];
        // A discovered node without a component is on the Tarjan stack.
        let mut stack: Vec<u32> = Vec::new();
        // DFS frames: (node, offset of its next successor in `succ`).
        let mut call: Vec<(u32, u32)> = Vec::new();
        // A component's members leave the stack together.
        let (mut members, mut comp_start) = (Vec::new(), vec![0u32]);
        let mut next = 0u32;
        for root in roots {
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
                    let id = comp_start.len() as u32 - 1;
                    loop {
                        let w = stack.pop().expect("tarjan stack");
                        comp[w as usize] = id;
                        members.push(w);
                        if w == v {
                            break;
                        }
                    }
                    comp_start.push(members.len() as u32);
                }
                call.pop();
                if let Some(&(p, _)) = call.last() {
                    low[p as usize] = low[p as usize].min(low[vi]);
                }
            }
        }
        (comp, members, comp_start)
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
    /// Overwrite start node `v`'s row (`v` below `n`).
    fn set_row(
        &mut self,
        v: usize,
        delivered: &[u64],
        dropped: bool,
        looping: bool,
        sig: Option<u64>,
    ) {
        let w = words(self.n);
        self.delivered[v * w..][..w].copy_from_slice(delivered);
        put(&mut self.dropped, v, dropped);
        put(&mut self.looping, v, looping);
        put(&mut self.routed, v, sig.is_some());
        self.path_sig[v] = sig.unwrap_or(0);
    }

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
    use rc_apkeep::{ApkModel, ModelRule, RuleMatch, RuleUpdate, UpdateOrder};
    use rc_netcfg::types::Prefix;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    /// A graph over nodes `0..len`: `edges` as successor lists, the
    /// rest as terminal bits, no ports.
    fn graph(len: usize, edges: &[(u32, u32)], delivers: &[u32], drops: &[u32]) -> Forwarding {
        let mut f = Forwarding::empty(len);
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

    // Cone patches: a one-prefix data plane over `devices` devices, where
    // every device delivers unless told otherwise. A link between `u` and
    // `v` is `u`'s interface `v + 1` facing `v`'s interface `u + 1`;
    // interface 0 faces hosts.

    const PREFIX: &str = "10.0.0.0/8";

    fn to(v: u32) -> PortAction {
        PortAction::forward(vec![IfaceId(v + 1)])
    }

    fn deliver() -> PortAction {
        PortAction::deliver(vec![IfaceId(0)])
    }

    fn rule(element: ElementKey, action: PortAction) -> ModelRule {
        let prefix: Prefix = PREFIX.parse().expect("prefix");
        let rule_match = match element {
            ElementKey::Forward(_) => RuleMatch::DstPrefix(prefix),
            ElementKey::Filter(..) => {
                RuleMatch::Acl { proto: None, src: Prefix::DEFAULT, dst: prefix, dst_ports: None }
            }
        };
        ModelRule { element, priority: 8, rule_match, action }
    }

    fn fib(u: u32, action: PortAction) -> ModelRule {
        rule(ElementKey::Forward(n(u)), action)
    }

    struct Plane {
        model: ApkModel,
        topo: Topology,
        ec: EcId,
        old: EcAnalysis,
    }

    fn plane(devices: u32, edges: &[(u32, u32)], fibs: &[(u32, PortAction)]) -> Plane {
        let port = |u: u32, iface: u32| Port { node: n(u), iface: IfaceId(iface) };
        let links = edges
            .iter()
            .flat_map(|&(u, v)| {
                let (a, b) = (port(u, v + 1), port(v, u + 1));
                [(a, b), (b, a)]
            })
            .collect();
        let topo = Topology::new(&(0..devices).map(n).collect(), &links);
        let rules = (0..devices)
            .map(|u| fibs.iter().find(|f| f.0 == u).map_or_else(deliver, |f| f.1.clone()))
            .enumerate()
            .map(|(u, action)| RuleUpdate::Insert(fib(u as u32, action)))
            .collect();
        let mut model = ApkModel::new();
        model.apply_batch(rules, UpdateOrder::InsertFirst);
        let ec = model.ec_of_packet(&rc_bdd::pkt::Packet {
            dst_ip: 0x0a00_0001,
            src_ip: 0,
            proto: 6,
            src_port: 0,
            dst_port: 80,
        });
        let old = Walker::new(&model.ec_view(), &topo).analyze(ec, None);
        Plane { model, topo, ec, old }
    }

    impl Plane {
        /// Apply `updates` and patch the old analysis from the devices
        /// the batch's moves name; a patch must equal the whole walk.
        fn patch(&mut self, updates: Vec<RuleUpdate>) -> Option<(EcAnalysis, Vec<u32>)> {
            let summary = self.model.apply_batch(updates, UpdateOrder::InsertFirst);
            let mut moved = Vec::new();
            for a in summary.affected.iter().filter(|a| a.ec == self.ec) {
                self.topo.moved_by(a.element, &mut moved);
            }
            let view = self.model.ec_view();
            let walker = Walker::new(&view, &self.topo);
            let cone = walker.analyze_cone(self.ec, &self.old, &moved)?;
            let mut a = self.old.clone();
            cone.apply(&mut a);
            assert_eq!(a, walker.analyze(self.ec, None), "cone patch vs whole walk");
            Some((a, cone.rows))
        }
    }

    fn reroute(u: u32, from: PortAction, to: PortAction) -> Vec<RuleUpdate> {
        vec![RuleUpdate::Remove(fib(u, from)), RuleUpdate::Insert(fib(u, to))]
    }

    #[test]
    fn cone_of_a_moved_chain_middle_is_its_upstream() {
        // 0 → 1 → 2 → 3 delivers; 4..8 deliver alone. 1 starts dropping.
        let chain = [(0, 1), (1, 2), (2, 3)];
        let mut net = plane(8, &chain, &[(0, to(1)), (1, to(2)), (2, to(3))]);
        assert_eq!(net.old.delivered(n(0)).collect::<Vec<_>>(), [n(3)]);
        let (a, cone) = net.patch(reroute(1, to(2), PortAction::Drop)).expect("a small cone");
        assert_eq!(cone, [0, 1]);
        assert!(a.drops(n(0)) && a.drops(n(1)) && !a.drops(n(2)));
        assert_eq!(a.delivered(n(0)).count(), 0);
        let gone = [Port { node: n(1), iface: IfaceId(3) }, Port { node: n(2), iface: IfaceId(2) }];
        let kept: Vec<Port> =
            net.old.ports_used().iter().copied().filter(|p| !gone.contains(p)).collect();
        assert_eq!(a.ports_used(), kept, "1's out-port and its peer are gone");
    }

    #[test]
    fn cone_of_an_ecmp_diamond_branch() {
        // 0 → {1, 2} → 3 delivers; 4..8 deliver alone. 2 starts dropping.
        let edges = [(0, 1), (0, 2), (1, 3), (2, 3)];
        let ecmp = PortAction::forward(vec![IfaceId(2), IfaceId(3)]);
        let mut net = plane(8, &edges, &[(0, ecmp), (1, to(3)), (2, to(3))]);
        let (a, cone) = net.patch(reroute(2, to(3), PortAction::Drop)).expect("a small cone");
        assert_eq!(cone, [0, 2]);
        assert!(a.drops(n(0)) && !a.drops(n(1)));
        assert_eq!(a.delivered(n(0)).collect::<Vec<_>>(), [n(3)], "the other branch delivers");
        assert_ne!(a.path_sig(n(0)), net.old.path_sig(n(0)));
        assert_eq!(a.path_sig(n(1)), net.old.path_sig(n(1)));
    }

    #[test]
    fn a_move_that_closes_a_loop_flags_the_cone() {
        // 5 → 0 → 1 → 2 → 3 delivers; 2 turns back to 1.
        let edges = [(5, 0), (0, 1), (1, 2), (2, 3)];
        let mut net = plane(10, &edges, &[(5, to(0)), (0, to(1)), (1, to(2)), (2, to(3))]);
        assert!(!net.old.loops_anywhere());
        let (a, cone) = net.patch(reroute(2, to(3), to(1))).expect("a small cone");
        assert_eq!(cone, [0, 1, 2, 5]);
        assert!([5, 0, 1, 2].iter().all(|&v| a.loops(n(v))), "every predecessor loops");
        assert!(!a.loops(n(3)));
    }

    #[test]
    fn an_ingress_filter_move_belongs_to_the_sender() {
        // 0 → 1 → 2 delivers; 2's interface facing 1 starts denying.
        let edges = [(0, 1), (1, 2)];
        let mut net = plane(8, &edges, &[(0, to(1)), (1, to(2))]);
        let filter = ElementKey::Filter(n(2), IfaceId(2), Dir::In);
        let mut moved = Vec::new();
        net.topo.moved_by(filter, &mut moved);
        assert_eq!(moved, [1], "the device linked into the port");
        let deny = vec![RuleUpdate::Insert(rule(filter, PortAction::Deny))];
        let (a, cone) = net.patch(deny).expect("a small cone");
        assert_eq!(cone, [0, 1]);
        assert_eq!(a.delivered(n(0)).count(), 0);
        assert_eq!(a.delivered(n(2)).collect::<Vec<_>>(), [n(2)]);
    }

    #[test]
    fn a_cone_past_half_the_devices_takes_the_whole_walk() {
        // 0 → 1 → … → 7 delivers over eight devices; 7 starts dropping,
        // so all eight can reach the move.
        let edges: Vec<(u32, u32)> = (0..7).map(|u| (u, u + 1)).collect();
        let fibs: Vec<(u32, PortAction)> = (0..7).map(|u| (u, to(u + 1))).collect();
        let mut net = plane(8, &edges, &fibs);
        assert!(net.patch(reroute(7, deliver(), PortAction::Drop)).is_none());
        // Within half it patches: 4 → 5 → 6 → 7, four devices.
        let mut net = plane(8, &edges[4..], &fibs[4..]);
        assert!(net.patch(reroute(7, deliver(), PortAction::Drop)).is_some());
    }

    #[test]
    fn sort_dedup_from_leaves_the_prefix() {
        let mut v = vec![9, 1, 5, 3, 5, 1];
        sort_dedup_from(&mut v, 2);
        assert_eq!(v, [9, 1, 1, 3, 5]);
    }
}
