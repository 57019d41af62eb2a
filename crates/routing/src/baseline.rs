//! The from-scratch baseline simulator ("batfish-like" in the paper's
//! Table 2): custom, non-incremental algorithms — for OSPF and RIP a
//! multi-source Dijkstra per prefix, from all of its originators at
//! once; for BGP synchronous path-vector iteration — over the same fact
//! relations and with identical semantics to the dataflow engine. The
//! engine runs SPF over routers instead; the two formulations agreeing
//! is what the differential tests check.
//!
//! It serves two purposes: the full-recomputation baseline for the
//! benchmarks, and a differential-testing oracle for the incremental
//! engine (their FIBs must match on every input).

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, HashMap};

use rc_netcfg::facts::{Action, Fact};
use rc_netcfg::types::{IfaceId, NodeId, Prefix, Proto};

use crate::route::{BgpRoute, FibAction, FibEntry, FilterRule, RibValue};

/// Baseline failure: the synchronous BGP iteration did not converge.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BaselineDivergence {
    pub iterations: u32,
}

impl std::fmt::Display for BaselineDivergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BGP did not converge within {} synchronous rounds", self.iterations)
    }
}

impl std::error::Error for BaselineDivergence {}

const MAX_ROUNDS: u32 = 200;

/// The complete data plane computed from scratch.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DataPlane {
    pub fib: BTreeSet<FibEntry>,
    pub filters: BTreeSet<FilterRule>,
}

/// Compute the converged data plane for a fact set, from scratch.
pub fn compute(facts: &BTreeSet<Fact>) -> Result<DataPlane, BaselineDivergence> {
    // ---------- Collect relations ----------
    let mut links: Vec<((NodeId, IfaceId), (NodeId, IfaceId))> = Vec::new();
    let mut iface_prefix: Vec<(NodeId, IfaceId, Prefix)> = Vec::new();
    let mut ospf_iface: BTreeMap<(NodeId, IfaceId), u32> = BTreeMap::new();
    let mut ospf_origin: Vec<(NodeId, Prefix, u32)> = Vec::new();
    let mut rip_iface: BTreeSet<(NodeId, IfaceId)> = BTreeSet::new();
    let mut rip_origin: Vec<(NodeId, Prefix, u32)> = Vec::new();
    let mut sessions: Vec<(NodeId, IfaceId, NodeId, IfaceId)> = Vec::new();
    type ImportEntry = (u32, bool, Option<Prefix>, Option<u32>, Option<u32>);
    type ExportEntry = (u32, bool, Option<Prefix>, Option<u32>);
    let mut import_pol: BTreeMap<(NodeId, IfaceId), Vec<ImportEntry>> = BTreeMap::new();
    let mut export_pol: BTreeMap<(NodeId, IfaceId), Vec<ExportEntry>> = BTreeMap::new();
    let mut bgp_origin: Vec<(NodeId, Prefix)> = Vec::new();
    let mut statics: Vec<(NodeId, Prefix, Option<IfaceId>)> = Vec::new();
    let mut filters: BTreeSet<FilterRule> = BTreeSet::new();
    let mut redist: Vec<(NodeId, Proto, Proto, u32)> = Vec::new();

    for f in facts {
        match f.clone() {
            Fact::Device(_) => {}
            Fact::Link { src, dst } => links.push(((src.node, src.iface), (dst.node, dst.iface))),
            Fact::IfacePrefix { node, iface, prefix } => iface_prefix.push((node, iface, prefix)),
            Fact::OspfIface { node, iface, cost } => {
                ospf_iface.insert((node, iface), cost);
            }
            Fact::OspfOrigin { node, prefix, cost } => ospf_origin.push((node, prefix, cost)),
            Fact::RipIface { node, iface } => {
                rip_iface.insert((node, iface));
            }
            Fact::RipOrigin { node, prefix, metric } => rip_origin.push((node, prefix, metric)),
            Fact::BgpSession { node, iface, peer, peer_iface } => {
                sessions.push((node, iface, peer, peer_iface))
            }
            Fact::BgpImportPolicy { node, iface, seq, action, match_prefix, set_lp, set_med } => {
                import_pol
                    .entry((node, iface))
                    .or_default()
                    .push((seq, action == Action::Permit, match_prefix, set_lp, set_med))
            }
            Fact::BgpExportPolicy { node, iface, seq, action, match_prefix, set_med } => export_pol
                .entry((node, iface))
                .or_default()
                .push((seq, action == Action::Permit, match_prefix, set_med)),
            Fact::BgpOrigin { node, prefix } => bgp_origin.push((node, prefix)),
            Fact::StaticRoute { node, prefix, out } => statics.push((node, prefix, out)),
            Fact::AclRule { node, iface, dir, seq, action, proto, src, dst, dst_ports } => {
                filters.insert(FilterRule {
                    node,
                    iface,
                    dir,
                    seq,
                    permit: action == Action::Permit,
                    proto,
                    src,
                    dst,
                    dst_ports,
                });
            }
            Fact::Redistribute { node, from, into, metric } => {
                redist.push((node, from, into, metric))
            }
        }
    }
    for entries in import_pol.values_mut() {
        entries.sort();
    }
    for entries in export_pol.values_mut() {
        entries.sort();
    }

    let has_redist = |n: NodeId, from: Proto, into: Proto| {
        redist.iter().find(|&&(rn, rf, rt, _)| rn == n && rf == from && rt == into).map(|r| r.3)
    };

    // ---------- RIB: connected & static ----------
    let mut rib: BTreeMap<(NodeId, Prefix), Vec<RibValue>> = BTreeMap::new();
    for &(n, i, p) in &iface_prefix {
        rib.entry((n, p))
            .or_default()
            .push(RibValue { admin: Proto::Connected.admin_distance(), action: FibAction::Local(i) });
    }
    for &(n, p, out) in &statics {
        let action = out.map(FibAction::Forward).unwrap_or(FibAction::Drop);
        rib.entry((n, p))
            .or_default()
            .push(RibValue { admin: Proto::Static.admin_distance(), action });
    }

    // ---------- OSPF: multi-source Dijkstra per prefix ----------
    // Edges where both interfaces run OSPF; weight is the source
    // interface's cost.
    let mut ospf_edges: Vec<(NodeId, IfaceId, NodeId, u32)> = Vec::new();
    for &((un, ui), (vn, vi)) in &links {
        if let Some(&w) = ospf_iface.get(&(un, ui)) {
            if ospf_iface.contains_key(&(vn, vi)) {
                ospf_edges.push((un, ui, vn, w));
            }
        }
    }
    // Reverse adjacency: for Dijkstra from destinations.
    let mut radj: HashMap<NodeId, Vec<(NodeId, IfaceId, u32)>> = HashMap::new();
    for &(u, i, v, w) in &ospf_edges {
        radj.entry(v).or_default().push((u, i, w));
    }

    // Origins per prefix (configured plus redistributed).
    let mut origins_per_prefix: BTreeMap<Prefix, Vec<(NodeId, u32)>> = BTreeMap::new();
    for &(n, p, c) in &ospf_origin {
        origins_per_prefix.entry(p).or_default().push((n, c));
    }
    for &(n, _i, p) in &iface_prefix {
        if let Some(m) = has_redist(n, Proto::Connected, Proto::Ospf) {
            origins_per_prefix.entry(p).or_default().push((n, m));
        }
    }
    for &(n, p, _out) in &statics {
        if let Some(m) = has_redist(n, Proto::Static, Proto::Ospf) {
            origins_per_prefix.entry(p).or_default().push((n, m));
        }
    }

    let mut ospf_dist: BTreeMap<(NodeId, Prefix), u32> = BTreeMap::new();
    for (&p, origins) in &origins_per_prefix {
        let mut dist: HashMap<NodeId, u32> = HashMap::new();
        let mut heap: BinaryHeap<Reverse<(u32, NodeId)>> = BinaryHeap::new();
        for &(n, c) in origins {
            // Multiple origins at the same node: keep the cheapest.
            let slot = dist.entry(n).or_insert(u32::MAX);
            if c < *slot {
                *slot = c;
                heap.push(Reverse((c, n)));
            }
        }
        let mut done: BTreeSet<NodeId> = BTreeSet::new();
        while let Some(Reverse((d, v))) = heap.pop() {
            if !done.insert(v) {
                continue;
            }
            ospf_dist.insert((v, p), d);
            for &(u, _i, w) in radj.get(&v).map(Vec::as_slice).unwrap_or(&[]) {
                let nd = d + w;
                let slot = dist.entry(u).or_insert(u32::MAX);
                if nd < *slot {
                    *slot = nd;
                    heap.push(Reverse((nd, u)));
                }
            }
        }
    }
    // Next hops: edges on shortest paths.
    for (&(u, p), &du) in &ospf_dist {
        for &(eu, i, v, w) in &ospf_edges {
            if eu != u {
                continue;
            }
            if let Some(&dv) = ospf_dist.get(&(v, p)) {
                if w + dv == du {
                    rib.entry((u, p)).or_default().push(RibValue {
                        admin: Proto::Ospf.admin_distance(),
                        action: FibAction::Forward(i),
                    });
                }
            }
        }
    }

    // ---------- RIP: hop-count distance vector, infinity at 16 ----------
    let mut rip_edges: Vec<(NodeId, IfaceId, NodeId)> = Vec::new();
    for &((un, ui), (vn, vi)) in &links {
        if rip_iface.contains(&(un, ui)) && rip_iface.contains(&(vn, vi)) {
            rip_edges.push((un, ui, vn));
        }
    }
    let mut rip_radj: HashMap<NodeId, Vec<(NodeId, IfaceId)>> = HashMap::new();
    for &(u, i, v) in &rip_edges {
        rip_radj.entry(v).or_default().push((u, i));
    }
    let mut rip_origins_per_prefix: BTreeMap<Prefix, Vec<(NodeId, u32)>> = BTreeMap::new();
    for &(n, p, m) in &rip_origin {
        rip_origins_per_prefix.entry(p).or_default().push((n, m.clamp(1, 15)));
    }
    for &(n, _i, p) in &iface_prefix {
        if let Some(m) = has_redist(n, Proto::Connected, Proto::Rip) {
            rip_origins_per_prefix.entry(p).or_default().push((n, m.clamp(1, 15)));
        }
    }
    for &(n, p, _out) in &statics {
        if let Some(m) = has_redist(n, Proto::Static, Proto::Rip) {
            rip_origins_per_prefix.entry(p).or_default().push((n, m.clamp(1, 15)));
        }
    }
    let mut rip_dist: BTreeMap<(NodeId, Prefix), u32> = BTreeMap::new();
    for (&p, origins) in &rip_origins_per_prefix {
        let mut dist: HashMap<NodeId, u32> = HashMap::new();
        let mut heap: BinaryHeap<Reverse<(u32, NodeId)>> = BinaryHeap::new();
        for &(n, c) in origins {
            let slot = dist.entry(n).or_insert(u32::MAX);
            if c < *slot {
                *slot = c;
                heap.push(Reverse((c, n)));
            }
        }
        let mut done: BTreeSet<NodeId> = BTreeSet::new();
        while let Some(Reverse((d, v))) = heap.pop() {
            if !done.insert(v) {
                continue;
            }
            rip_dist.insert((v, p), d);
            if d + 1 > 15 {
                continue; // further hops would be infinity
            }
            for &(u, _i) in rip_radj.get(&v).map(Vec::as_slice).unwrap_or(&[]) {
                let nd = d + 1;
                let slot = dist.entry(u).or_insert(u32::MAX);
                if nd < *slot {
                    *slot = nd;
                    heap.push(Reverse((nd, u)));
                }
            }
        }
    }
    for (&(u, p), &du) in &rip_dist {
        for &(eu, i, v) in &rip_edges {
            if eu != u {
                continue;
            }
            if let Some(&dv) = rip_dist.get(&(v, p)) {
                if 1 + dv == du {
                    rib.entry((u, p)).or_default().push(RibValue {
                        admin: Proto::Rip.admin_distance(),
                        action: FibAction::Forward(i),
                    });
                }
            }
        }
    }

    // ---------- BGP: synchronous path-vector ----------
    let mut origins: BTreeSet<(NodeId, Prefix)> = bgp_origin.iter().copied().collect();
    for &(n, _i, p) in &iface_prefix {
        if has_redist(n, Proto::Connected, Proto::Bgp).is_some() {
            origins.insert((n, p));
        }
    }
    for &(n, p, _out) in &statics {
        if has_redist(n, Proto::Static, Proto::Bgp).is_some() {
            origins.insert((n, p));
        }
    }
    for &(n, p) in ospf_dist.keys() {
        if has_redist(n, Proto::Ospf, Proto::Bgp).is_some() {
            origins.insert((n, p));
        }
    }
    for &(n, p) in rip_dist.keys() {
        if has_redist(n, Proto::Rip, Proto::Bgp).is_some() {
            origins.insert((n, p));
        }
    }

    let first_match_export =
        |pols: &BTreeMap<(NodeId, IfaceId), Vec<ExportEntry>>,
         key: (NodeId, IfaceId),
         p: Prefix| {
            pols.get(&key)
                .and_then(|entries| {
                    entries.iter().find(|(_, _, m, _)| m.is_none_or(|mp| mp.contains(p)))
                })
                .map(|&(_, permit, _, med)| (permit, med))
                .unwrap_or((false, None))
        };
    let first_match_import = |key: (NodeId, IfaceId), p: Prefix| {
        import_pol
            .get(&key)
            .and_then(|entries| {
                entries.iter().find(|(_, _, m, _, _)| m.is_none_or(|mp| mp.contains(p)))
            })
            .map(|&(_, permit, _, lp, med)| (permit, lp, med))
            .unwrap_or((false, None, None))
    };

    let mut best: BTreeMap<(NodeId, Prefix), BgpRoute> = BTreeMap::new();
    for &(n, p) in &origins {
        best.insert((n, p), BgpRoute::originate(n));
    }
    let mut rounds = 0u32;
    loop {
        rounds += 1;
        if rounds > MAX_ROUNDS {
            return Err(BaselineDivergence { iterations: MAX_ROUNDS });
        }
        let mut next: BTreeMap<(NodeId, Prefix), BgpRoute> = BTreeMap::new();
        for &(n, p) in &origins {
            next.insert((n, p), BgpRoute::originate(n));
        }
        for &(n, i, m, j) in &sessions {
            // Everything m currently holds, offered to n.
            for ((bn, p), r) in best.range((m, Prefix::DEFAULT)..) {
                if *bn != m {
                    break;
                }
                if r.path.contains(&n) {
                    continue;
                }
                let (epermit, emed) = first_match_export(&export_pol, (m, j), *p);
                if !epermit {
                    continue;
                }
                let (permit, lp, imed) = first_match_import((n, i), *p);
                if !permit {
                    continue;
                }
                let med = imed.or(emed).unwrap_or(BgpRoute::DEFAULT_MED);
                let cand =
                    r.import(n, m, i, lp.unwrap_or(BgpRoute::DEFAULT_LOCAL_PREF), med);
                match next.get(&(n, *p)) {
                    Some(cur) if *cur <= cand => {}
                    _ => {
                        next.insert((n, *p), cand);
                    }
                }
            }
        }
        if next == best {
            break;
        }
        best = next;
    }
    for ((n, p), r) in &best {
        if let Some(out) = r.out {
            rib.entry((*n, *p))
                .or_default()
                .push(RibValue { admin: Proto::Bgp.admin_distance(), action: FibAction::Forward(out) });
        }
    }

    // ---------- FIB: admin-distance selection ----------
    let mut fib = BTreeSet::new();
    for ((n, p), mut vals) in rib {
        vals.sort();
        vals.dedup();
        let min_admin = vals[0].admin;
        for v in vals.into_iter().take_while(|v| v.admin == min_admin) {
            fib.insert(FibEntry { node: n, prefix: p, action: v.action });
        }
    }

    Ok(DataPlane { fib, filters })
}
