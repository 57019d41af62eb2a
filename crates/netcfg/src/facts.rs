//! Lowering: configurations → input facts for the routing engine.
//!
//! The paper's incremental data plane generator consumes configuration
//! changes as *relation deltas*. This module defines those relations
//! ([`Fact`]) and the lowering pass that derives them from a set of
//! parsed device configurations. Incremental verification then reduces
//! to: re-lower the devices a change can affect ([`Lowering::relower`]),
//! take the difference of their old and new facts, and feed that delta
//! to the dataflow — the engine works out everything downstream,
//! whatever kind of change it was. [`lower`] and [`fact_delta`] are the
//! same computation over whole sets.
//!
//! Identifiers are interned in an append-only [`Registry`] owned by the
//! caller, so facts from successive configuration versions share an id
//! space and diff cleanly.

use std::collections::{BTreeMap, BTreeSet};

use crate::ast::*;
use crate::types::{IfaceId, Ip, NodeId, Port, Prefix, Proto};

/// ACL / policy action.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Action {
    Permit,
    Deny,
}

/// Direction of an ACL binding.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Dir {
    In,
    Out,
}

/// An input relation tuple for the routing engine.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Fact {
    /// A device exists.
    Device(NodeId),
    /// A usable layer-3 adjacency, directed (each physical link lowers
    /// to two of these). Present only when both interfaces are up and
    /// addressed in the same subnet.
    Link { src: Port, dst: Port },
    /// An up, addressed interface and its connected subnet.
    IfacePrefix { node: NodeId, iface: IfaceId, prefix: Prefix },
    /// OSPF runs on this interface with this cost.
    OspfIface { node: NodeId, iface: IfaceId, cost: u32 },
    /// This node advertises `prefix` into OSPF (stub network) at the
    /// advertising interface's cost.
    OspfOrigin { node: NodeId, prefix: Prefix, cost: u32 },
    /// RIP runs on this interface.
    RipIface { node: NodeId, iface: IfaceId },
    /// This node advertises `prefix` into RIP at `metric` hops
    /// (connected networks start at 1; 16 is infinity).
    RipOrigin { node: NodeId, prefix: Prefix, metric: u32 },
    /// An established (two-way compatible) eBGP session, directed:
    /// routes flow from `peer` to `node` through `iface`.
    BgpSession { node: NodeId, iface: IfaceId, peer: NodeId, peer_iface: IfaceId },
    /// One entry of the import policy applied to routes received on
    /// `iface`. Entries apply lowest-`seq` first; a session with no
    /// route-map lowers to a single permit-everything entry.
    BgpImportPolicy {
        node: NodeId,
        iface: IfaceId,
        seq: u32,
        action: Action,
        match_prefix: Option<Prefix>,
        set_lp: Option<u32>,
        set_med: Option<u32>,
    },
    /// One entry of the export policy applied to routes sent to the
    /// peer of `iface`.
    BgpExportPolicy {
        node: NodeId,
        iface: IfaceId,
        seq: u32,
        action: Action,
        match_prefix: Option<Prefix>,
        set_med: Option<u32>,
    },
    /// This node originates `prefix` into BGP.
    BgpOrigin { node: NodeId, prefix: Prefix },
    /// A static route; `out == None` discards (null0).
    StaticRoute { node: NodeId, prefix: Prefix, out: Option<IfaceId> },
    /// One ACL entry bound to an interface/direction. `proto == None`
    /// matches any IP protocol.
    AclRule {
        node: NodeId,
        iface: IfaceId,
        dir: Dir,
        seq: u32,
        action: Action,
        proto: Option<u8>,
        src: Prefix,
        dst: Prefix,
        dst_ports: Option<(u16, u16)>,
    },
    /// Route redistribution from one protocol into another.
    Redistribute { node: NodeId, from: Proto, into: Proto, metric: u32 },
}

/// A lowering diagnostic: configuration constructs that are accepted
/// but do not produce the facts the operator probably expected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Warning {
    /// `ip access-group` names an ACL that is not defined (treated as
    /// permit-all, the vendor behaviour).
    UnknownAcl { device: String, acl: String },
    /// A neighbor's route-map is not defined (treated as permit-all).
    UnknownRouteMap { device: String, map: String },
    /// A static route whose next hop resolves to no connected subnet.
    UnresolvedNextHop { device: String, prefix: Prefix },
    /// A BGP neighbor statement with no usable session behind it
    /// (address not on a connected subnet, peer missing or down, AS
    /// mismatch, or no reciprocal configuration).
    DeadBgpNeighbor { device: String, addr: Ip, reason: String },
    /// Both session ends are in the same AS — iBGP is not modeled.
    IbgpUnsupported { device: String, addr: Ip },
}

impl std::fmt::Display for Warning {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Warning::UnknownAcl { device, acl } => {
                write!(f, "{device}: access-group {acl} references an undefined ACL")
            }
            Warning::UnknownRouteMap { device, map } => {
                write!(f, "{device}: route-map {map} is not defined")
            }
            Warning::UnresolvedNextHop { device, prefix } => {
                write!(f, "{device}: static route {prefix} has an unresolvable next hop")
            }
            Warning::DeadBgpNeighbor { device, addr, reason } => {
                write!(f, "{device}: neighbor {addr} cannot establish: {reason}")
            }
            Warning::IbgpUnsupported { device, addr } => {
                write!(f, "{device}: neighbor {addr} is iBGP, which is not modeled")
            }
        }
    }
}

/// Append-only interner for device and interface identifiers. Owned by
/// the verifier across configuration versions so ids are stable.
#[derive(Default, Debug, Clone)]
pub struct Registry {
    nodes: BTreeMap<String, NodeId>,
    node_names: Vec<String>,
    ifaces: BTreeMap<String, IfaceId>,
    iface_names: Vec<String>,
}

impl Registry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a device name.
    pub fn node_id(&mut self, name: &str) -> NodeId {
        if let Some(&id) = self.nodes.get(name) {
            return id;
        }
        let id = NodeId(self.node_names.len() as u32);
        self.nodes.insert(name.to_string(), id);
        self.node_names.push(name.to_string());
        id
    }

    /// Intern an interface name.
    pub fn iface_id(&mut self, name: &str) -> IfaceId {
        if let Some(&id) = self.ifaces.get(name) {
            return id;
        }
        let id = IfaceId(self.iface_names.len() as u32);
        self.ifaces.insert(name.to_string(), id);
        self.iface_names.push(name.to_string());
        id
    }

    /// Look up a device id without interning.
    pub fn try_node(&self, name: &str) -> Option<NodeId> {
        self.nodes.get(name).copied()
    }

    pub fn node_name(&self, id: NodeId) -> &str {
        &self.node_names[id.0 as usize]
    }

    pub fn iface_name(&self, id: IfaceId) -> &str {
        &self.iface_names[id.0 as usize]
    }

    /// Export the interning history — every device and interface name
    /// in id order. Interning is append-only and history-dependent, so
    /// a durable snapshot must carry these lists verbatim: every
    /// `NodeId`/`IfaceId` embedded in serialized model and checker
    /// state indexes into exactly this assignment.
    pub fn export_names(&self) -> (Vec<String>, Vec<String>) {
        (self.node_names.clone(), self.iface_names.clone())
    }

    /// Rebuild a registry from [`Registry::export_names`] output,
    /// reproducing the identical name→id assignment. Duplicate names
    /// in either list are rejected (they cannot arise from a real
    /// interning history and would silently alias ids).
    pub fn from_names(
        node_names: Vec<String>,
        iface_names: Vec<String>,
    ) -> Result<Self, String> {
        let mut reg = Registry::new();
        for name in &node_names {
            reg.nodes.insert(name.clone(), NodeId(reg.node_names.len() as u32));
            reg.node_names.push(name.clone());
        }
        for name in &iface_names {
            reg.ifaces.insert(name.clone(), IfaceId(reg.iface_names.len() as u32));
            reg.iface_names.push(name.clone());
        }
        if reg.nodes.len() != reg.node_names.len() {
            return Err("duplicate device name in registry snapshot".into());
        }
        if reg.ifaces.len() != reg.iface_names.len() {
            return Err("duplicate interface name in registry snapshot".into());
        }
        Ok(reg)
    }
}

/// The result of lowering a configuration set.
#[derive(Debug, Default)]
pub struct Lowered {
    pub facts: BTreeSet<Fact>,
    pub warnings: Vec<Warning>,
}

fn redist_proto(s: RedistSource) -> Proto {
    match s {
        RedistSource::Connected => Proto::Connected,
        RedistSource::Static => Proto::Static,
        RedistSource::Ospf => Proto::Ospf,
        RedistSource::Rip => Proto::Rip,
        RedistSource::Bgp => Proto::Bgp,
    }
}

/// Lower a full configuration set to input facts: every device through
/// [`Lowering`]'s per-device pass, warnings in hostname order.
pub fn lower(configs: &BTreeMap<String, DeviceConfig>, reg: &mut Registry) -> Lowered {
    let index = Lowering::new(configs, reg);
    let warnings = index.devices.values().flat_map(|d| d.warnings.iter().cloned()).collect();
    Lowered { facts: index.facts, warnings }
}

/// One device's share of a lowering.
#[derive(Debug)]
struct DeviceLowering {
    node: NodeId,
    /// The facts this device owns.
    facts: BTreeSet<Fact>,
    /// Its warnings, in lowering order.
    warnings: Vec<Warning>,
}

/// What one [`Lowering::relower`] changes.
#[derive(Debug, Default)]
pub struct LowerDelta {
    /// Signed fact changes: removals, then additions, each in fact
    /// order — [`fact_delta`]'s order.
    pub facts: Vec<(Fact, isize)>,
    /// Formatted warnings that appear, sorted.
    pub warnings_added: Vec<String>,
    /// Formatted warnings that disappear, sorted.
    pub warnings_removed: Vec<String>,
    /// Devices lowered again (removed devices are not counted).
    pub relowered: usize,
}

/// The lowering of a configuration set, kept per device so that a
/// change re-lowers only the devices it can affect.
///
/// Every [`Fact`] names its owning device first (a `Link` belongs to
/// `src.node`), so the per-device fact sets partition the whole set,
/// and every warning names its device. A device's facts read, besides
/// its own configuration, only two things about other devices: the
/// ports on its connected subnets (its `Link`s) and, for each BGP
/// neighbor statement, the device owning the neighbor address and the
/// owner of its own address (session resolution, reciprocity, AS
/// checks). The index keeps those relations, so when some devices
/// change, the dirty set is: those devices; every device with a port
/// on a subnet of their old or new up interfaces; and every device
/// that owns, or names as a BGP neighbor, one of their old or new
/// addresses.
#[derive(Debug, Default)]
pub struct Lowering {
    devices: BTreeMap<String, DeviceLowering>,
    /// Up interface address → its owners, `(device, interface index)`.
    /// The greatest owns it — what a pass in hostname and interface
    /// order that overwrites would leave.
    addr_owner: BTreeMap<Ip, BTreeSet<(String, usize)>>,
    /// Connected subnet → the up ports on it.
    subnet_ports: BTreeMap<Prefix, BTreeSet<Port>>,
    /// BGP neighbor address → the devices naming it.
    neighbor_of: BTreeMap<Ip, BTreeSet<String>>,
    /// The union of every device's facts.
    facts: BTreeSet<Fact>,
    /// Every device's warnings, formatted, plus the notes.
    warnings: BTreeSet<String>,
    /// Warnings no device owns (see [`Lowering::note`]).
    notes: BTreeSet<String>,
}

impl Lowering {
    /// Lower every device of `configs`.
    pub fn new(configs: &BTreeMap<String, DeviceConfig>, reg: &mut Registry) -> Self {
        let mut index = Lowering::default();
        let names: Vec<&str> = configs.keys().map(String::as_str).collect();
        let delta = index.update(&names, |_| None, |name| configs.get(name), reg);
        index.commit(delta);
        index
    }

    /// Re-lower the devices a change can affect. The index must hold
    /// the lowering of `configs`; the new set is `configs` with
    /// `upserts` added or replaced and `removes` taken out. Names are
    /// interned in hostname order, device then interfaces, as a
    /// whole-set [`lower`] of the new set would intern them.
    ///
    /// The per-device state moves to the new set at once; the whole-set
    /// views ([`Lowering::facts`], [`Lowering::warnings`]) only at
    /// [`Lowering::commit`].
    pub fn relower(
        &mut self,
        configs: &BTreeMap<String, DeviceConfig>,
        upserts: &[(String, DeviceConfig)],
        removes: &[String],
        reg: &mut Registry,
    ) -> LowerDelta {
        let mut next: BTreeMap<&str, Option<&DeviceConfig>> =
            upserts.iter().map(|(name, cfg)| (name.as_str(), Some(cfg))).collect();
        next.extend(removes.iter().map(|name| (name.as_str(), None)));
        let changed: Vec<&str> = next.keys().copied().collect();
        let new = |name: &str| next.get(name).copied().unwrap_or_else(|| configs.get(name));
        let mut delta = self.update(&changed, |name| configs.get(name), new, reg);
        delta.facts.sort_by(|(a, ra), (b, rb)| ra.cmp(rb).then_with(|| a.cmp(b)));
        delta.warnings_added.sort();
        delta.warnings_removed.sort();
        delta
    }

    /// Fold a [`Lowering::relower`] delta into the whole-set views.
    pub fn commit(&mut self, delta: LowerDelta) {
        for (fact, diff) in delta.facts {
            if diff > 0 {
                self.facts.insert(fact);
            } else {
                self.facts.remove(&fact);
            }
        }
        for w in &delta.warnings_removed {
            self.warnings.remove(w);
        }
        self.warnings.extend(delta.warnings_added);
    }

    /// The whole fact set.
    pub fn facts(&self) -> &BTreeSet<Fact> {
        &self.facts
    }

    /// Every device's warnings, formatted, and the notes.
    pub fn warnings(&self) -> &BTreeSet<String> {
        &self.warnings
    }

    /// Whether the index equals a whole-set [`lower`] of `configs` —
    /// facts, warnings (notes aside) and interned names alike: the
    /// oracle for a caller that keeps the index up to date with
    /// [`Lowering::relower`].
    pub fn agrees_with(&self, configs: &BTreeMap<String, DeviceConfig>, reg: &Registry) -> bool {
        let mut whole_reg = reg.clone();
        let whole = lower(configs, &mut whole_reg);
        let mut warnings = self.notes.clone();
        warnings.extend(whole.warnings.iter().map(ToString::to_string));
        let names = whole_reg.export_names() == reg.export_names();
        whole.facts == self.facts && warnings == self.warnings && names
    }

    /// The lowered devices.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.devices.values().map(|d| d.node)
    }

    /// Add a warning no device owns (a caller's own diagnostic). It
    /// stays in [`Lowering::warnings`] across re-lowerings until
    /// [`Lowering::clear_notes`].
    pub fn note(&mut self, warning: String) {
        self.warnings.insert(warning.clone());
        self.notes.insert(warning);
    }

    /// The warnings added by [`Lowering::note`].
    pub fn notes(&self) -> &BTreeSet<String> {
        &self.notes
    }

    /// Drop every note.
    pub fn clear_notes(&mut self) {
        for w in std::mem::take(&mut self.notes) {
            self.warnings.remove(&w);
        }
    }

    /// Move the devices in `changed` (hostname order) from their `old`
    /// to their `new` configuration, and re-lower the dirty set against
    /// `new`. The delta comes back unsorted.
    fn update<'c>(
        &mut self,
        changed: &[&str],
        old: impl Fn(&str) -> Option<&'c DeviceConfig>,
        new: impl Fn(&str) -> Option<&'c DeviceConfig>,
        reg: &mut Registry,
    ) -> LowerDelta {
        // Shut interfaces included, so that ids are a function of the
        // configuration history, whatever state the interfaces are in.
        for &name in changed {
            let Some(cfg) = new(name) else { continue };
            reg.node_id(name);
            for iface in &cfg.interfaces {
                reg.iface_id(&iface.name);
            }
        }

        let (mut addrs, mut subnets) = (BTreeSet::new(), BTreeSet::new());
        for &name in changed {
            for (cfg, add) in [(old(name), false), (new(name), true)] {
                let Some(cfg) = cfg else { continue };
                let node = reg.node_id(name);
                for (idx, ip, prefix) in up_addresses(cfg) {
                    let port = Port { node, iface: reg.iface_id(&cfg.interfaces[idx].name) };
                    toggle(&mut self.addr_owner, ip, (name.to_string(), idx), add);
                    toggle(&mut self.subnet_ports, prefix, port, add);
                    addrs.insert(ip);
                    subnets.insert(prefix);
                }
                for nb in cfg.bgp.iter().flat_map(|b| &b.neighbors) {
                    toggle(&mut self.neighbor_of, nb.addr, name.to_string(), add);
                }
            }
        }

        let mut dirty: BTreeSet<String> = changed.iter().map(|name| name.to_string()).collect();
        for prefix in &subnets {
            let ports = self.subnet_ports.get(prefix).into_iter().flatten();
            dirty.extend(ports.map(|port| reg.node_name(port.node).to_string()));
        }
        for ip in &addrs {
            dirty.extend(self.addr_owner.get(ip).into_iter().flatten().map(|(d, _)| d.clone()));
            dirty.extend(self.neighbor_of.get(ip).into_iter().flatten().cloned());
        }

        let mut delta = LowerDelta::default();
        let empty = DeviceLowering { node: NodeId(0), facts: BTreeSet::new(), warnings: vec![] };
        for name in dirty {
            let fresh = new(&name).map(|cfg| self.lower_device(&name, cfg, &new, reg));
            delta.relowered += usize::from(fresh.is_some());
            let stale = match fresh {
                Some(d) => self.devices.insert(name.clone(), d),
                None => self.devices.remove(&name),
            };
            let (was, now) = (stale.as_ref().unwrap_or(&empty), self.devices.get(&name));
            let now = now.unwrap_or(&empty);
            delta.facts.extend(was.facts.difference(&now.facts).map(|f| (f.clone(), -1)));
            delta.facts.extend(now.facts.difference(&was.facts).map(|f| (f.clone(), 1)));
            let text = |d: &DeviceLowering| -> BTreeSet<String> {
                d.warnings.iter().map(ToString::to_string).collect()
            };
            let (was, now) = (text(was), text(now));
            delta.warnings_removed.extend(was.difference(&now).cloned());
            delta.warnings_added.extend(now.difference(&was).cloned());
        }
        delta
    }

    /// Lower one device of the configuration set `new` against the
    /// index's (already updated) subnet and address maps.
    fn lower_device<'c>(
        &self,
        name: &str,
        cfg: &DeviceConfig,
        new: &impl Fn(&str) -> Option<&'c DeviceConfig>,
        reg: &mut Registry,
    ) -> DeviceLowering {
        let node = reg.node_id(name);
        let mut out = DeviceLowering { node, facts: BTreeSet::new(), warnings: Vec::new() };
        out.facts.insert(Fact::Device(node));

        // Up interfaces and their connected subnets, and a link from
        // each to every other device's port on the same subnet.
        for (idx, _, prefix) in up_addresses(cfg) {
            let src = Port { node, iface: reg.iface_id(&cfg.interfaces[idx].name) };
            out.facts.insert(Fact::IfacePrefix { node, iface: src.iface, prefix });
            for &dst in self.subnet_ports.get(&prefix).into_iter().flatten() {
                if dst.node != node {
                    out.facts.insert(Fact::Link { src, dst });
                }
            }
        }

        if let Some(ospf) = &cfg.ospf {
            for iface in &cfg.interfaces {
                if iface.shutdown {
                    continue;
                }
                let Some(prefix) = iface.prefix() else { continue };
                if !ospf.networks.iter().any(|n| n.contains(prefix)) {
                    continue;
                }
                let ifid = reg.iface_id(&iface.name);
                let cost = iface.ospf_cost.unwrap_or(1);
                out.facts.insert(Fact::OspfIface { node, iface: ifid, cost });
                out.facts.insert(Fact::OspfOrigin { node, prefix, cost });
            }
            for r in &ospf.redistribute {
                out.facts.insert(Fact::Redistribute {
                    node,
                    from: redist_proto(r.source),
                    into: Proto::Ospf,
                    metric: r.metric,
                });
            }
        }

        if let Some(rip) = &cfg.rip {
            for iface in &cfg.interfaces {
                if iface.shutdown {
                    continue;
                }
                let Some(prefix) = iface.prefix() else { continue };
                if !rip.networks.iter().any(|n| n.contains(prefix)) {
                    continue;
                }
                let ifid = reg.iface_id(&iface.name);
                out.facts.insert(Fact::RipIface { node, iface: ifid });
                out.facts.insert(Fact::RipOrigin { node, prefix, metric: 1 });
            }
            for r in &rip.redistribute {
                out.facts.insert(Fact::Redistribute {
                    node,
                    from: redist_proto(r.source),
                    into: Proto::Rip,
                    metric: r.metric,
                });
            }
        }

        if let Some(bgp) = &cfg.bgp {
            for p in &bgp.networks {
                out.facts.insert(Fact::BgpOrigin { node, prefix: *p });
            }
            for r in &bgp.redistribute {
                out.facts.insert(Fact::Redistribute {
                    node,
                    from: redist_proto(r.source),
                    into: Proto::Bgp,
                    metric: r.metric,
                });
            }
            let owner = |ip: Ip| {
                let (device, idx) = self.addr_owner.get(&ip)?.last()?;
                let owner_cfg = new(device)?;
                Some((device.as_str(), owner_cfg, &owner_cfg.interfaces[*idx]))
            };
            for nb in &bgp.neighbors {
                match resolve_session(name, cfg, nb, owner) {
                    Ok((local_iface, peer_name, peer_iface)) => {
                        let iface = reg.iface_id(local_iface);
                        let peer = reg.node_id(peer_name);
                        let peer_if = reg.iface_id(peer_iface);
                        out.facts.insert(Fact::BgpSession {
                            node,
                            iface,
                            peer,
                            peer_iface: peer_if,
                        });
                        lower_import_policy(&mut out, cfg, name, nb, node, iface);
                        lower_export_policy(&mut out, cfg, name, nb, node, iface);
                    }
                    Err(w) => out.warnings.push(w),
                }
            }
        }

        for sr in &cfg.static_routes {
            let resolved = match &sr.next_hop {
                NextHop::Drop => Some(None),
                NextHop::Interface(ifname) => cfg
                    .interfaces
                    .iter()
                    .find(|i| &i.name == ifname && !i.shutdown)
                    .map(|i| Some(reg.iface_id(&i.name))),
                NextHop::Address(ip) => cfg
                    .interfaces
                    .iter()
                    .find(|i| {
                        !i.shutdown && i.prefix().is_some_and(|p| p.contains_ip(*ip)) && i.ip() != Some(*ip)
                    })
                    .map(|i| Some(reg.iface_id(&i.name))),
            };
            match resolved {
                Some(out_iface) => {
                    out.facts.insert(Fact::StaticRoute { node, prefix: sr.prefix, out: out_iface });
                }
                None => out.warnings.push(Warning::UnresolvedNextHop {
                    device: name.to_string(),
                    prefix: sr.prefix,
                }),
            }
        }

        for iface in &cfg.interfaces {
            if iface.shutdown {
                continue;
            }
            for (dir, aclname) in
                [(Dir::In, &iface.acl_in), (Dir::Out, &iface.acl_out)]
            {
                let Some(aclname) = aclname else { continue };
                let Some(acl) = cfg.acl(aclname) else {
                    out.warnings.push(Warning::UnknownAcl {
                        device: name.to_string(),
                        acl: aclname.clone(),
                    });
                    continue;
                };
                let ifid = reg.iface_id(&iface.name);
                for e in &acl.entries {
                    out.facts.insert(Fact::AclRule {
                        node,
                        iface: ifid,
                        dir,
                        seq: e.seq,
                        action: match e.action {
                            AclAction::Permit => Action::Permit,
                            AclAction::Deny => Action::Deny,
                        },
                        proto: e.proto,
                        src: e.src,
                        dst: e.dst,
                        dst_ports: e.dst_ports,
                    });
                }
                // The vendor-implicit final deny.
                out.facts.insert(Fact::AclRule {
                    node,
                    iface: ifid,
                    dir,
                    seq: u32::MAX,
                    action: Action::Deny,
                    proto: None,
                    src: Prefix::DEFAULT,
                    dst: Prefix::DEFAULT,
                    dst_ports: None,
                });
            }
        }

        out
    }
}

/// The up, addressed interfaces of `cfg`: (index, address, connected
/// subnet).
fn up_addresses(cfg: &DeviceConfig) -> impl Iterator<Item = (usize, Ip, Prefix)> + '_ {
    let up = cfg.interfaces.iter().enumerate().filter(|(_, i)| !i.shutdown);
    up.filter_map(|(idx, i)| Some((idx, i.ip()?, i.prefix()?)))
}

/// Add `v` to the set under `k`, or take it out (dropping the set once
/// empty).
fn toggle<K: Ord, V: Ord>(map: &mut BTreeMap<K, BTreeSet<V>>, k: K, v: V, add: bool) {
    if add {
        map.entry(k).or_default().insert(v);
    } else if let Some(set) = map.get_mut(&k) {
        set.remove(&v);
        if set.is_empty() {
            map.remove(&k);
        }
    }
}

/// Resolve a neighbor statement to an established session: returns
/// (local interface, peer device, peer interface). `owner` maps an
/// address to the device, configuration and interface owning it.
fn resolve_session<'a>(
    device: &str,
    cfg: &DeviceConfig,
    nb: &BgpNeighbor,
    owner: impl Fn(Ip) -> Option<(&'a str, &'a DeviceConfig, &'a InterfaceConfig)>,
) -> Result<(&'a str, &'a str, &'a str), Warning> {
    let dead = |reason: &str| Warning::DeadBgpNeighbor {
        device: device.to_string(),
        addr: nb.addr,
        reason: reason.to_string(),
    };
    // Local interface whose connected subnet contains the peer address.
    let local = cfg
        .interfaces
        .iter()
        .find(|i| {
            !i.shutdown && i.prefix().is_some_and(|p| p.contains_ip(nb.addr)) && i.ip() != Some(nb.addr)
        })
        .ok_or_else(|| dead("peer address not on a connected subnet"))?;
    let local_ip = local.ip().expect("addressed");
    // The peer device actually owning that address.
    let (peer, peer_cfg, peer_iface) =
        owner(nb.addr).ok_or_else(|| dead("no device owns the peer address"))?;
    let peer_bgp = peer_cfg.bgp.as_ref().ok_or_else(|| dead("peer does not run BGP"))?;
    if peer_bgp.asn != nb.remote_as {
        return Err(dead(&format!(
            "remote-as {} does not match peer AS {}",
            nb.remote_as, peer_bgp.asn
        )));
    }
    let local_asn = cfg.bgp.as_ref().expect("caller checked").asn;
    if peer_bgp.asn == local_asn {
        return Err(Warning::IbgpUnsupported { device: device.to_string(), addr: nb.addr });
    }
    // Reciprocal neighbor statement on the peer.
    let reciprocal = peer_bgp
        .neighbors
        .iter()
        .any(|pnb| pnb.addr == local_ip && pnb.remote_as == local_asn);
    if !reciprocal {
        return Err(dead("peer has no matching reciprocal neighbor statement"));
    }
    // The local interface name, from the owner of our own address.
    let (_, _, own_iface) = owner(local_ip).ok_or_else(|| dead("local address not registered"))?;
    Ok((&own_iface.name, peer, &peer_iface.name))
}

fn lower_import_policy(
    out: &mut DeviceLowering,
    cfg: &DeviceConfig,
    device: &str,
    nb: &BgpNeighbor,
    node: NodeId,
    iface: IfaceId,
) {
    match &nb.route_map_in {
        None => {
            out.facts.insert(Fact::BgpImportPolicy {
                node,
                iface,
                seq: u32::MAX,
                action: Action::Permit,
                match_prefix: None,
                set_lp: None,
                set_med: None,
            });
        }
        Some(name) => match cfg.route_map(name) {
            None => {
                out.warnings
                    .push(Warning::UnknownRouteMap { device: device.to_string(), map: name.clone() });
                // Vendor behaviour: an undefined route-map permits all.
                out.facts.insert(Fact::BgpImportPolicy {
                    node,
                    iface,
                    seq: u32::MAX,
                    action: Action::Permit,
                    match_prefix: None,
                    set_lp: None,
                    set_med: None,
                });
            }
            Some(rm) => {
                for e in &rm.entries {
                    out.facts.insert(Fact::BgpImportPolicy {
                        node,
                        iface,
                        seq: e.seq,
                        action: match e.action {
                            RouteMapAction::Permit => Action::Permit,
                            RouteMapAction::Deny => Action::Deny,
                        },
                        match_prefix: e.match_prefix,
                        set_lp: e.set_local_pref,
                        set_med: e.set_metric,
                    });
                }
                // Implicit deny at the end of a route-map.
                out.facts.insert(Fact::BgpImportPolicy {
                    node,
                    iface,
                    seq: u32::MAX,
                    action: Action::Deny,
                    match_prefix: None,
                    set_lp: None,
                    set_med: None,
                });
            }
        },
    }
}

fn lower_export_policy(
    out: &mut DeviceLowering,
    cfg: &DeviceConfig,
    device: &str,
    nb: &BgpNeighbor,
    node: NodeId,
    iface: IfaceId,
) {
    match &nb.route_map_out {
        None => {
            out.facts.insert(Fact::BgpExportPolicy {
                node,
                iface,
                seq: u32::MAX,
                action: Action::Permit,
                match_prefix: None,
                set_med: None,
            });
        }
        Some(name) => match cfg.route_map(name) {
            None => {
                out.warnings
                    .push(Warning::UnknownRouteMap { device: device.to_string(), map: name.clone() });
                out.facts.insert(Fact::BgpExportPolicy {
                    node,
                    iface,
                    seq: u32::MAX,
                    action: Action::Permit,
                    match_prefix: None,
                    set_med: None,
                });
            }
            Some(rm) => {
                for e in &rm.entries {
                    out.facts.insert(Fact::BgpExportPolicy {
                        node,
                        iface,
                        seq: e.seq,
                        action: match e.action {
                            RouteMapAction::Permit => Action::Permit,
                            RouteMapAction::Deny => Action::Deny,
                        },
                        match_prefix: e.match_prefix,
                        set_med: e.set_metric,
                    });
                }
                out.facts.insert(Fact::BgpExportPolicy {
                    node,
                    iface,
                    seq: u32::MAX,
                    action: Action::Deny,
                    match_prefix: None,
                    set_med: None,
                });
            }
        },
    }
}

/// Set difference of two fact sets as signed deltas: `+1` for facts
/// only in `new`, `-1` for facts only in `old`.
pub fn fact_delta(old: &BTreeSet<Fact>, new: &BTreeSet<Fact>) -> Vec<(Fact, isize)> {
    let mut delta = Vec::new();
    for f in old.difference(new) {
        delta.push((f.clone(), -1));
    }
    for f in new.difference(old) {
        delta.push((f.clone(), 1));
    }
    delta
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{build_configs, ProtocolChoice};
    use crate::topology::ring;

    fn lower_ring(proto: ProtocolChoice) -> (Lowered, Registry) {
        let topo = ring(3);
        let cfgs = build_configs(&topo, proto);
        let mut reg = Registry::new();
        let lowered = lower(&cfgs, &mut reg);
        (lowered, reg)
    }

    fn count<F: Fn(&Fact) -> bool>(l: &Lowered, f: F) -> usize {
        l.facts.iter().filter(|x| f(x)).count()
    }

    #[test]
    fn ospf_ring_facts() {
        let (l, _) = lower_ring(ProtocolChoice::Ospf);
        assert!(l.warnings.is_empty(), "{:?}", l.warnings);
        assert_eq!(count(&l, |f| matches!(f, Fact::Device(_))), 3);
        // 3 physical links → 6 directed links.
        assert_eq!(count(&l, |f| matches!(f, Fact::Link { .. })), 6);
        // 2 link ifaces + 1 host iface per device.
        assert_eq!(count(&l, |f| matches!(f, Fact::IfacePrefix { .. })), 9);
        assert_eq!(count(&l, |f| matches!(f, Fact::OspfIface { .. })), 9);
        assert_eq!(count(&l, |f| matches!(f, Fact::OspfOrigin { .. })), 9);
        assert_eq!(count(&l, |f| matches!(f, Fact::BgpSession { .. })), 0);
    }

    #[test]
    fn bgp_ring_facts() {
        let (l, _) = lower_ring(ProtocolChoice::Bgp);
        assert!(l.warnings.is_empty(), "{:?}", l.warnings);
        // 2 sessions per device, directed.
        assert_eq!(count(&l, |f| matches!(f, Fact::BgpSession { .. })), 6);
        // Per session: route-map entry + implicit deny (import), and an
        // implicit permit (export).
        assert_eq!(count(&l, |f| matches!(f, Fact::BgpImportPolicy { .. })), 12);
        assert_eq!(count(&l, |f| matches!(f, Fact::BgpExportPolicy { .. })), 6);
        assert_eq!(count(&l, |f| matches!(f, Fact::BgpOrigin { .. })), 3);
    }

    #[test]
    fn shutdown_interface_removes_link_and_session() {
        let topo = ring(3);
        let mut cfgs = build_configs(&topo, ProtocolChoice::Bgp);
        let mut reg = Registry::new();
        let before = lower(&cfgs, &mut reg);

        let dev = cfgs.keys().next().unwrap().clone();
        cfgs.get_mut(&dev).unwrap().interface_mut("eth0").unwrap().shutdown = true;
        let after = lower(&cfgs, &mut reg);

        let delta = fact_delta(&before.facts, &after.facts);
        assert!(!delta.is_empty());
        // Both link directions disappear, plus the session both ways,
        // plus the iface prefix, plus policies; nothing is added.
        assert!(delta.iter().all(|(_, r)| *r == -1), "{delta:?}");
        assert_eq!(
            delta.iter().filter(|(f, _)| matches!(f, Fact::Link { .. })).count(),
            2
        );
        assert_eq!(
            delta.iter().filter(|(f, _)| matches!(f, Fact::BgpSession { .. })).count(),
            2
        );
        // The peer also notices its session died.
        let down_sessions: Vec<_> = delta
            .iter()
            .filter_map(|(f, _)| match f {
                Fact::BgpSession { node, peer, .. } => Some((*node, *peer)),
                _ => None,
            })
            .collect();
        assert_eq!(down_sessions.len(), 2);
        assert_eq!(down_sessions[0].0, down_sessions[1].1);
    }

    #[test]
    fn as_mismatch_warns_and_skips_session() {
        let topo = ring(3);
        let mut cfgs = build_configs(&topo, ProtocolChoice::Bgp);
        let dev = cfgs.keys().next().unwrap().clone();
        cfgs.get_mut(&dev).unwrap().bgp.as_mut().unwrap().neighbors[0].remote_as = 99;
        let mut reg = Registry::new();
        let l = lower(&cfgs, &mut reg);
        assert!(l
            .warnings
            .iter()
            .any(|w| matches!(w, Warning::DeadBgpNeighbor { .. })), "{:?}", l.warnings);
        // Our direction dies on the AS mismatch, and the peer's
        // direction dies on the reciprocity check (our statement no
        // longer names its real AS): 6 − 2 = 4 sessions remain.
        assert_eq!(count(&l, |f| matches!(f, Fact::BgpSession { .. })), 4);
        assert_eq!(l.warnings.len(), 2);
    }

    #[test]
    fn unknown_acl_warns_permit_all() {
        let mut cfgs = BTreeMap::new();
        let mut c = DeviceConfig::new("r1");
        c.interfaces.push(InterfaceConfig {
            name: "eth0".into(),
            address: Some((Ip::new(10, 0, 0, 1), 30)),
            acl_in: Some("NOPE".into()),
            ..Default::default()
        });
        cfgs.insert("r1".to_string(), c);
        let mut reg = Registry::new();
        let l = lower(&cfgs, &mut reg);
        assert!(matches!(l.warnings[0], Warning::UnknownAcl { .. }));
        assert_eq!(count(&l, |f| matches!(f, Fact::AclRule { .. })), 0);
    }

    #[test]
    fn static_route_resolution() {
        let mut cfgs = BTreeMap::new();
        let mut c = DeviceConfig::new("r1");
        c.interfaces.push(InterfaceConfig {
            name: "eth0".into(),
            address: Some((Ip::new(10, 0, 0, 1), 30)),
            ..Default::default()
        });
        c.static_routes.push(StaticRoute {
            prefix: "1.0.0.0/8".parse().unwrap(),
            next_hop: NextHop::Address(Ip::new(10, 0, 0, 2)),
        });
        c.static_routes.push(StaticRoute {
            prefix: "2.0.0.0/8".parse().unwrap(),
            next_hop: NextHop::Drop,
        });
        c.static_routes.push(StaticRoute {
            prefix: "3.0.0.0/8".parse().unwrap(),
            next_hop: NextHop::Address(Ip::new(99, 0, 0, 1)),
        });
        cfgs.insert("r1".to_string(), c);
        let mut reg = Registry::new();
        let l = lower(&cfgs, &mut reg);
        assert_eq!(count(&l, |f| matches!(f, Fact::StaticRoute { out: Some(_), .. })), 1);
        assert_eq!(count(&l, |f| matches!(f, Fact::StaticRoute { out: None, .. })), 1);
        assert!(matches!(l.warnings[0], Warning::UnresolvedNextHop { .. }));
    }

    #[test]
    fn registry_ids_stable_across_versions() {
        let topo = ring(3);
        let cfgs = build_configs(&topo, ProtocolChoice::Ospf);
        let mut reg = Registry::new();
        let a = lower(&cfgs, &mut reg);
        let b = lower(&cfgs, &mut reg);
        assert_eq!(a.facts, b.facts);
        assert!(fact_delta(&a.facts, &b.facts).is_empty());
    }
}
