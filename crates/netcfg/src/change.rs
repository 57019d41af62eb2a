//! High-level configuration change operations.
//!
//! A [`ChangeSet`] is an ordered list of edits applied to a
//! configuration set at the AST level. The verifier derives the
//! semantic (fact) delta and the textual (line) delta from the before
//! and after configurations — change operations themselves never touch
//! the routing engine.
//!
//! The three operations of the paper's evaluation are
//! [`ChangeOp::DisableInterface`] (LinkFailure),
//! [`ChangeOp::SetOspfCost`] (LC) and [`ChangeOp::SetLocalPref`] (LP).

use std::collections::BTreeMap;

use crate::ast::*;
use crate::types::{Ip, Prefix};

/// One configuration edit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChangeOp {
    /// Administratively shut an interface (the paper's LinkFailure).
    DisableInterface { device: String, iface: String },
    /// Re-enable a shut interface.
    EnableInterface { device: String, iface: String },
    /// Change an interface's OSPF cost (the paper's LC).
    SetOspfCost { device: String, iface: String, cost: u32 },
    /// Set the local preference applied to routes imported from the
    /// neighbor reached through `iface` (the paper's LP). Edits every
    /// permit entry of that session's import route-map, creating map
    /// and binding if absent.
    SetLocalPref { device: String, iface: String, pref: u32 },
    /// Set the MED advertised to the neighbor reached through `iface`
    /// (telling the peer how much this entry point should be avoided).
    /// Edits every permit entry of that session's export route-map,
    /// creating map and binding if absent.
    SetMed { device: String, iface: String, med: u32 },
    /// Add a static route.
    AddStaticRoute { device: String, prefix: Prefix, next_hop: NextHop },
    /// Remove all static routes for a prefix.
    RemoveStaticRoute { device: String, prefix: Prefix },
    /// Add an entry to an ACL (creating the ACL if needed).
    AddAclEntry { device: String, acl: String, entry: AclEntry },
    /// Remove an ACL entry by sequence number.
    RemoveAclEntry { device: String, acl: String, seq: u32 },
    /// Bind an ACL to an interface direction.
    BindAcl { device: String, iface: String, dir: AclDir, acl: String },
    /// Remove an ACL binding.
    UnbindAcl { device: String, iface: String, dir: AclDir },
    /// Originate an additional prefix in BGP.
    AddBgpNetwork { device: String, prefix: Prefix },
    /// Stop originating a prefix in BGP.
    RemoveBgpNetwork { device: String, prefix: Prefix },
    /// Enable route redistribution on a device.
    AddRedistribution { device: String, into: RedistTarget, source: RedistSource, metric: u32 },
}

/// ACL binding direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AclDir {
    In,
    Out,
}

/// The protocol receiving redistributed routes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RedistTarget {
    Ospf,
    Bgp,
}

/// An ordered list of configuration edits.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChangeSet {
    pub ops: Vec<ChangeOp>,
}

/// An edit that could not be applied.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChangeError {
    pub op: ChangeOp,
    pub msg: String,
}

impl ChangeOp {
    /// The one device this operation edits.
    pub fn device(&self) -> &str {
        match self {
            ChangeOp::DisableInterface { device, .. }
            | ChangeOp::EnableInterface { device, .. }
            | ChangeOp::SetOspfCost { device, .. }
            | ChangeOp::SetLocalPref { device, .. }
            | ChangeOp::SetMed { device, .. }
            | ChangeOp::AddStaticRoute { device, .. }
            | ChangeOp::RemoveStaticRoute { device, .. }
            | ChangeOp::AddAclEntry { device, .. }
            | ChangeOp::RemoveAclEntry { device, .. }
            | ChangeOp::BindAcl { device, .. }
            | ChangeOp::UnbindAcl { device, .. }
            | ChangeOp::AddBgpNetwork { device, .. }
            | ChangeOp::RemoveBgpNetwork { device, .. }
            | ChangeOp::AddRedistribution { device, .. } => device,
        }
    }
}

impl std::fmt::Display for ChangeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cannot apply {:?}: {}", self.op, self.msg)
    }
}

impl std::error::Error for ChangeError {}

impl ChangeSet {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push(&mut self, op: ChangeOp) -> &mut Self {
        self.ops.push(op);
        self
    }

    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Shorthand constructors for the paper's three change types.
    pub fn link_failure(device: &str, iface: &str) -> Self {
        ChangeSet {
            ops: vec![ChangeOp::DisableInterface {
                device: device.to_string(),
                iface: iface.to_string(),
            }],
        }
    }

    pub fn link_cost(device: &str, iface: &str, cost: u32) -> Self {
        ChangeSet {
            ops: vec![ChangeOp::SetOspfCost {
                device: device.to_string(),
                iface: iface.to_string(),
                cost,
            }],
        }
    }

    pub fn local_pref(device: &str, iface: &str, pref: u32) -> Self {
        ChangeSet {
            ops: vec![ChangeOp::SetLocalPref {
                device: device.to_string(),
                iface: iface.to_string(),
                pref,
            }],
        }
    }

    /// Apply all edits to `configs` in order. On error, `configs` is
    /// left partially modified — apply to a clone when transactional
    /// behaviour is needed (the verifier does).
    pub fn apply(&self, configs: &mut BTreeMap<String, DeviceConfig>) -> Result<(), ChangeError> {
        for op in &self.ops {
            apply_op(op, configs).map_err(|msg| ChangeError { op: op.clone(), msg })?;
        }
        Ok(())
    }

    /// Fold a burst of change sets into one, cancelling superseded
    /// writes: for *set-type* operations (interface admin state, OSPF
    /// cost, local-pref, MED, ACL bindings) only the last write to a
    /// target survives, in the position of the first. Add/remove
    /// operations (static routes, ACL entries, BGP networks,
    /// redistribution) are never folded — dropping an add that a later
    /// remove undoes would change which sequences error — so they keep
    /// their relative order. Returns the folded set and the number of
    /// cancelled (superseded) operations.
    ///
    /// Folding is behaviour-preserving: same-key set-type operations
    /// have identical error conditions, and no retained operation reads
    /// state that a cancelled one writes, so applying the folded set
    /// yields exactly the configurations — and exactly the success or
    /// failure — of applying the originals in sequence. An OSPF cost out
    /// of range and an ACL name that is not one word are the two
    /// value-dependent errors, so such an operation is kept in place and
    /// never folded.
    pub fn coalesce(sets: &[ChangeSet]) -> (ChangeSet, usize) {
        // Key: (op discriminant, device, iface, ACL direction).
        let mut slot: BTreeMap<(u8, String, String, u8), usize> = BTreeMap::new();
        let mut ops: Vec<ChangeOp> = Vec::new();
        let mut cancelled = 0usize;
        for op in sets.iter().flat_map(|s| s.ops.iter()) {
            let key = match op {
                ChangeOp::DisableInterface { device, iface }
                | ChangeOp::EnableInterface { device, iface } => {
                    Some((0, device.clone(), iface.clone(), 0))
                }
                ChangeOp::SetOspfCost { device, iface, cost } if check_ospf_cost(*cost).is_ok() => {
                    Some((1, device.clone(), iface.clone(), 0))
                }
                ChangeOp::SetLocalPref { device, iface, .. } => {
                    Some((2, device.clone(), iface.clone(), 0))
                }
                ChangeOp::SetMed { device, iface, .. } => {
                    Some((3, device.clone(), iface.clone(), 0))
                }
                ChangeOp::BindAcl { device, iface, dir, acl }
                    if check_word("ACL name", acl).is_ok() =>
                {
                    Some((4, device.clone(), iface.clone(), *dir as u8))
                }
                ChangeOp::UnbindAcl { device, iface, dir } => {
                    Some((4, device.clone(), iface.clone(), *dir as u8))
                }
                _ => None,
            };
            match key {
                Some(k) => match slot.get(&k) {
                    Some(&i) => {
                        ops[i] = op.clone();
                        cancelled += 1;
                    }
                    None => {
                        slot.insert(k, ops.len());
                        ops.push(op.clone());
                    }
                },
                None => ops.push(op.clone()),
            }
        }
        (ChangeSet { ops }, cancelled)
    }
}

fn device<'a>(
    configs: &'a mut BTreeMap<String, DeviceConfig>,
    name: &str,
) -> Result<&'a mut DeviceConfig, String> {
    configs.get_mut(name).ok_or_else(|| format!("unknown device {name:?}"))
}

fn iface<'a>(cfg: &'a mut DeviceConfig, name: &str) -> Result<&'a mut InterfaceConfig, String> {
    let host = cfg.hostname.clone();
    cfg.interface_mut(name).ok_or_else(|| format!("unknown interface {name:?} on {host:?}"))
}

fn apply_op(op: &ChangeOp, configs: &mut BTreeMap<String, DeviceConfig>) -> Result<(), String> {
    match op {
        ChangeOp::DisableInterface { device: d, iface: i } => {
            iface(device(configs, d)?, i)?.shutdown = true;
        }
        ChangeOp::EnableInterface { device: d, iface: i } => {
            iface(device(configs, d)?, i)?.shutdown = false;
        }
        ChangeOp::SetOspfCost { device: d, iface: i, cost } => {
            let cfg = device(configs, d)?;
            if cfg.ospf.is_none() {
                return Err(format!("{d:?} does not run OSPF"));
            }
            check_ospf_cost(*cost)?;
            iface(cfg, i)?.ospf_cost = Some(*cost);
        }
        ChangeOp::SetLocalPref { device: d, iface: i, pref } => {
            let cfg = device(configs, d)?;
            let peer_subnet = iface(cfg, i)?
                .prefix()
                .ok_or_else(|| format!("interface {i:?} has no address"))?;
            let bgp = cfg.bgp.as_mut().ok_or_else(|| format!("{d:?} does not run BGP"))?;
            // The session on this interface: the neighbor whose address
            // lies in the interface subnet.
            let nb = bgp
                .neighbors
                .iter_mut()
                .find(|n| peer_subnet.contains_ip(n.addr))
                .ok_or_else(|| format!("no BGP neighbor on interface {i:?}"))?;
            let map_name = match &nb.route_map_in {
                Some(m) => m.clone(),
                None => {
                    let m = crate::gen::import_map_name(i);
                    nb.route_map_in = Some(m.clone());
                    m
                }
            };
            match cfg.route_maps.iter_mut().find(|m| m.name == map_name) {
                Some(rm) => {
                    for e in &mut rm.entries {
                        if e.action == RouteMapAction::Permit {
                            e.set_local_pref = Some(*pref);
                        }
                    }
                }
                None => cfg.route_maps.push(RouteMap {
                    name: map_name,
                    entries: vec![RouteMapEntry {
                        seq: 10,
                        action: RouteMapAction::Permit,
                        match_prefix: None,
                        set_local_pref: Some(*pref),
                        set_metric: None,
                    }],
                }),
            }
        }
        ChangeOp::SetMed { device: d, iface: i, med } => {
            let cfg = device(configs, d)?;
            let peer_subnet = iface(cfg, i)?
                .prefix()
                .ok_or_else(|| format!("interface {i:?} has no address"))?;
            let bgp = cfg.bgp.as_mut().ok_or_else(|| format!("{d:?} does not run BGP"))?;
            let nb = bgp
                .neighbors
                .iter_mut()
                .find(|n| peer_subnet.contains_ip(n.addr))
                .ok_or_else(|| format!("no BGP neighbor on interface {i:?}"))?;
            let map_name = match &nb.route_map_out {
                Some(m) => m.clone(),
                None => {
                    let m = format!("RM-OUT-{i}");
                    nb.route_map_out = Some(m.clone());
                    m
                }
            };
            match cfg.route_maps.iter_mut().find(|m| m.name == map_name) {
                Some(rm) => {
                    for e in &mut rm.entries {
                        if e.action == RouteMapAction::Permit {
                            e.set_metric = Some(*med);
                        }
                    }
                }
                None => cfg.route_maps.push(RouteMap {
                    name: map_name,
                    entries: vec![RouteMapEntry {
                        seq: 10,
                        action: RouteMapAction::Permit,
                        match_prefix: None,
                        set_local_pref: None,
                        set_metric: Some(*med),
                    }],
                }),
            }
        }
        ChangeOp::AddStaticRoute { device: d, prefix, next_hop } => {
            check_next_hop(next_hop)?;
            device(configs, d)?
                .static_routes
                .push(StaticRoute { prefix: *prefix, next_hop: next_hop.clone() });
        }
        ChangeOp::RemoveStaticRoute { device: d, prefix } => {
            let cfg = device(configs, d)?;
            let before = cfg.static_routes.len();
            cfg.static_routes.retain(|r| r.prefix != *prefix);
            if cfg.static_routes.len() == before {
                return Err(format!("no static route for {prefix}"));
            }
        }
        ChangeOp::AddAclEntry { device: d, acl, entry } => {
            check_word("ACL name", acl)?;
            check_acl_entry(entry)?;
            let cfg = device(configs, d)?;
            match cfg.acls.iter_mut().find(|a| a.name == *acl) {
                Some(a) => {
                    if a.entries.iter().any(|e| e.seq == entry.seq) {
                        return Err(format!("ACL {acl:?} already has seq {}", entry.seq));
                    }
                    a.entries.push(entry.clone());
                    a.entries.sort_by_key(|e| e.seq);
                }
                None => cfg.acls.push(Acl { name: acl.clone(), entries: vec![entry.clone()] }),
            }
        }
        ChangeOp::RemoveAclEntry { device: d, acl, seq } => {
            let cfg = device(configs, d)?;
            let a = cfg
                .acls
                .iter_mut()
                .find(|a| a.name == *acl)
                .ok_or_else(|| format!("unknown ACL {acl:?}"))?;
            let before = a.entries.len();
            a.entries.retain(|e| e.seq != *seq);
            if a.entries.len() == before {
                return Err(format!("ACL {acl:?} has no seq {seq}"));
            }
        }
        ChangeOp::BindAcl { device: d, iface: i, dir, acl } => {
            check_word("ACL name", acl)?;
            let f = iface(device(configs, d)?, i)?;
            match dir {
                AclDir::In => f.acl_in = Some(acl.clone()),
                AclDir::Out => f.acl_out = Some(acl.clone()),
            }
        }
        ChangeOp::UnbindAcl { device: d, iface: i, dir } => {
            let f = iface(device(configs, d)?, i)?;
            match dir {
                AclDir::In => f.acl_in = None,
                AclDir::Out => f.acl_out = None,
            }
        }
        ChangeOp::AddBgpNetwork { device: d, prefix } => {
            let bgp = device(configs, d)?
                .bgp
                .as_mut()
                .ok_or_else(|| format!("{d:?} does not run BGP"))?;
            if !bgp.networks.contains(prefix) {
                bgp.networks.push(*prefix);
            }
        }
        ChangeOp::RemoveBgpNetwork { device: d, prefix } => {
            let bgp = device(configs, d)?
                .bgp
                .as_mut()
                .ok_or_else(|| format!("{d:?} does not run BGP"))?;
            let before = bgp.networks.len();
            bgp.networks.retain(|p| p != prefix);
            if bgp.networks.len() == before {
                return Err(format!("{d:?} does not originate {prefix}"));
            }
        }
        ChangeOp::AddRedistribution { device: d, into, source, metric } => {
            let cfg = device(configs, d)?;
            let r = Redistribution { source: *source, metric: *metric };
            match into {
                RedistTarget::Ospf => {
                    let ospf =
                        cfg.ospf.as_mut().ok_or_else(|| format!("{d:?} does not run OSPF"))?;
                    check_ospf_metric(*metric)?;
                    ospf.redistribute.push(r)
                }
                RedistTarget::Bgp => cfg
                    .bgp
                    .as_mut()
                    .ok_or_else(|| format!("{d:?} does not run BGP"))?
                    .redistribute
                    .push(r),
            }
        }
    }
    Ok(())
}

/// Check a whole device the way [`ChangeSet::apply`] checks each edit,
/// so a configuration set handed over whole meets the rules of one
/// built edit by edit. The first value an edit would be refused for
/// comes back as the error of the edit that writes it.
pub fn check_device(name: &str, cfg: &DeviceConfig) -> Result<(), ChangeError> {
    let refuse = |op: ChangeOp, check: Result<(), String>| {
        check.map_err(|msg| ChangeError { op, msg })
    };
    let device = || name.to_string();
    for f in &cfg.interfaces {
        if let Some(cost) = f.ospf_cost {
            let op = ChangeOp::SetOspfCost { device: device(), iface: f.name.clone(), cost };
            refuse(op, check_ospf_cost(cost))?;
        }
        for (dir, acl) in [(AclDir::In, &f.acl_in), (AclDir::Out, &f.acl_out)] {
            let Some(acl) = acl else { continue };
            let iface = f.name.clone();
            let op = ChangeOp::BindAcl { device: device(), iface, dir, acl: acl.clone() };
            refuse(op, check_word("ACL name", acl))?;
        }
    }
    for r in &cfg.static_routes {
        let op = ChangeOp::AddStaticRoute {
            device: device(),
            prefix: r.prefix,
            next_hop: r.next_hop.clone(),
        };
        refuse(op, check_next_hop(&r.next_hop))?;
    }
    for a in &cfg.acls {
        for e in &a.entries {
            let (acl, entry) = (a.name.clone(), e.clone());
            let op = ChangeOp::AddAclEntry { device: device(), acl, entry };
            refuse(op, check_word("ACL name", &a.name).and_then(|()| check_acl_entry(e)))?;
        }
    }
    for r in cfg.ospf.iter().flat_map(|o| &o.redistribute) {
        let op = ChangeOp::AddRedistribution {
            device: device(),
            into: RedistTarget::Ospf,
            source: r.source,
            metric: r.metric,
        };
        refuse(op, check_ospf_metric(r.metric))?;
    }
    Ok(())
}

/// Helper: an address-based static next hop.
pub fn via(ip: Ip) -> NextHop {
    NextHop::Address(ip)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{build_configs, ProtocolChoice};
    use crate::topology::ring;

    #[test]
    fn link_failure_sets_shutdown() {
        let mut cfgs = build_configs(&ring(3), ProtocolChoice::Ospf);
        ChangeSet::link_failure("r000", "eth0").apply(&mut cfgs).unwrap();
        assert!(cfgs["r000"].interface("eth0").unwrap().shutdown);
    }

    #[test]
    fn link_cost_change() {
        let mut cfgs = build_configs(&ring(3), ProtocolChoice::Ospf);
        ChangeSet::link_cost("r000", "eth0", 100).apply(&mut cfgs).unwrap();
        assert_eq!(cfgs["r000"].interface("eth0").unwrap().ospf_cost, Some(100));
    }

    #[test]
    fn out_of_range_ospf_cost_and_metric_are_refused() {
        let mut cfgs = build_configs(&ring(3), ProtocolChoice::Ospf);
        let before = cfgs.clone();
        for cost in [0, 70_000] {
            let e = ChangeSet::link_cost("r000", "eth0", cost).apply(&mut cfgs).unwrap_err();
            assert!(e.msg.contains("outside 1..=65535"), "{e}");
        }
        let mut cs = ChangeSet::new();
        cs.push(ChangeOp::AddRedistribution {
            device: "r000".into(),
            into: RedistTarget::Ospf,
            source: RedistSource::Static,
            metric: 16_777_216,
        });
        assert!(cs.apply(&mut cfgs).unwrap_err().msg.contains("above 16777215"));
        assert_eq!(cfgs, before);
        ChangeSet::link_cost("r000", "eth0", 65_535).apply(&mut cfgs).unwrap();
    }

    #[test]
    fn local_pref_change_edits_route_map() {
        let mut cfgs = build_configs(&ring(3), ProtocolChoice::Bgp);
        ChangeSet::local_pref("r000", "eth0", 150).apply(&mut cfgs).unwrap();
        let cfg = &cfgs["r000"];
        let map = cfg.route_map(&crate::gen::import_map_name("eth0")).unwrap();
        assert_eq!(map.entries[0].set_local_pref, Some(150));
        // Other sessions untouched.
        let other = cfg.route_map(&crate::gen::import_map_name("eth1")).unwrap();
        assert_eq!(other.entries[0].set_local_pref, Some(100));
    }

    #[test]
    fn unknown_targets_error() {
        let mut cfgs = build_configs(&ring(3), ProtocolChoice::Ospf);
        assert!(ChangeSet::link_failure("nope", "eth0").apply(&mut cfgs).is_err());
        assert!(ChangeSet::link_failure("r000", "eth9").apply(&mut cfgs).is_err());
        assert!(ChangeSet::local_pref("r000", "eth0", 1).apply(&mut cfgs).is_err(),
            "LP change on an OSPF-only network must fail");
    }

    #[test]
    fn acl_edit_cycle() {
        let mut cfgs = build_configs(&ring(3), ProtocolChoice::Ospf);
        let entry = AclEntry {
            seq: 10,
            action: AclAction::Deny,
            proto: Some(6),
            src: Prefix::DEFAULT,
            dst: "172.16.0.0/24".parse().unwrap(),
            dst_ports: Some((80, 80)),
        };
        let mut cs = ChangeSet::new();
        cs.push(ChangeOp::AddAclEntry {
            device: "r000".into(),
            acl: "BLOCK".into(),
            entry: entry.clone(),
        });
        cs.push(ChangeOp::BindAcl {
            device: "r000".into(),
            iface: "eth0".into(),
            dir: AclDir::In,
            acl: "BLOCK".into(),
        });
        cs.apply(&mut cfgs).unwrap();
        assert_eq!(cfgs["r000"].acl("BLOCK").unwrap().entries, vec![entry]);
        assert_eq!(cfgs["r000"].interface("eth0").unwrap().acl_in.as_deref(), Some("BLOCK"));

        // Duplicate seq is rejected.
        let dup = ChangeSet {
            ops: vec![ChangeOp::AddAclEntry {
                device: "r000".into(),
                acl: "BLOCK".into(),
                entry: AclEntry { action: AclAction::Permit, ..cfgs["r000"].acl("BLOCK").unwrap().entries[0].clone() },
            }],
        };
        assert!(dup.apply(&mut cfgs).is_err());

        let mut cs = ChangeSet::new();
        cs.push(ChangeOp::RemoveAclEntry { device: "r000".into(), acl: "BLOCK".into(), seq: 10 });
        cs.push(ChangeOp::UnbindAcl { device: "r000".into(), iface: "eth0".into(), dir: AclDir::In });
        cs.apply(&mut cfgs).unwrap();
        assert!(cfgs["r000"].acl("BLOCK").unwrap().entries.is_empty());
        assert!(cfgs["r000"].interface("eth0").unwrap().acl_in.is_none());
    }

    #[test]
    fn coalesce_folds_set_type_ops_last_writer_wins() {
        let sets = vec![
            ChangeSet::link_failure("r000", "eth0"),
            ChangeSet::link_cost("r001", "eth0", 10),
            ChangeSet { ops: vec![ChangeOp::EnableInterface { device: "r000".into(), iface: "eth0".into() }] },
            ChangeSet::link_cost("r001", "eth0", 20),
            ChangeSet::link_failure("r000", "eth1"),
        ];
        let (folded, cancelled) = ChangeSet::coalesce(&sets);
        assert_eq!(cancelled, 2);
        assert_eq!(
            folded.ops,
            vec![
                ChangeOp::EnableInterface { device: "r000".into(), iface: "eth0".into() },
                ChangeOp::SetOspfCost { device: "r001".into(), iface: "eth0".into(), cost: 20 },
                ChangeOp::DisableInterface { device: "r000".into(), iface: "eth1".into() },
            ]
        );

        // Applying the folded set equals applying the originals in turn.
        let mut serial = build_configs(&ring(3), ProtocolChoice::Ospf);
        for s in &sets {
            s.apply(&mut serial).unwrap();
        }
        let mut coalesced = build_configs(&ring(3), ProtocolChoice::Ospf);
        folded.apply(&mut coalesced).unwrap();
        assert_eq!(serial, coalesced);
    }

    #[test]
    fn coalesce_leaves_add_remove_ops_in_order() {
        let p: Prefix = "172.20.0.0/24".parse().unwrap();
        let sets = vec![ChangeSet {
            ops: vec![
                ChangeOp::AddStaticRoute { device: "r000".into(), prefix: p, next_hop: NextHop::Drop },
                ChangeOp::RemoveStaticRoute { device: "r000".into(), prefix: p },
            ],
        }];
        let (folded, cancelled) = ChangeSet::coalesce(&sets);
        assert_eq!(cancelled, 0, "add/remove pairs must not be folded");
        assert_eq!(folded.ops, sets[0].ops);
    }

    #[test]
    fn coalesce_keeps_an_out_of_range_cost_failing() {
        let sets: Vec<ChangeSet> =
            [5, 70_000, 7].iter().map(|&c| ChangeSet::link_cost("r000", "eth0", c)).collect();
        let (folded, cancelled) = ChangeSet::coalesce(&sets);
        assert_eq!(cancelled, 1, "the two valid costs fold, the invalid one stays");
        let mut cfgs = build_configs(&ring(3), ProtocolChoice::Ospf);
        assert!(folded.apply(&mut cfgs).is_err(), "the sequence fails, so must its fold");
    }

    #[test]
    fn coalesce_keeps_a_bad_acl_name_failing() {
        let bind = |acl: &str| ChangeSet {
            ops: vec![ChangeOp::BindAcl {
                device: "r000".into(),
                iface: "eth0".into(),
                dir: AclDir::In,
                acl: acl.into(),
            }],
        };
        let (folded, cancelled) = ChangeSet::coalesce(&[bind("A"), bind("NO GOOD"), bind("B")]);
        assert_eq!(cancelled, 1, "the two valid bindings fold, the invalid one stays");
        let mut cfgs = build_configs(&ring(3), ProtocolChoice::Ospf);
        assert!(folded.apply(&mut cfgs).is_err(), "the sequence fails, so must its fold");
    }

    /// Every edit the parser could not read back is refused, with the
    /// parser's own message where it has one, and leaves the
    /// configurations as they were.
    #[test]
    fn edits_the_parser_refuses_are_refused() {
        let entry = |proto, dst_ports| AclEntry {
            seq: 10,
            action: AclAction::Deny,
            proto,
            src: Prefix::DEFAULT,
            dst: Prefix::DEFAULT,
            dst_ports,
        };
        let add = |acl: &str, entry| ChangeOp::AddAclEntry {
            device: "r000".into(),
            acl: acl.into(),
            entry,
        };
        let route = |name: &str| ChangeOp::AddStaticRoute {
            device: "r000".into(),
            prefix: Prefix::DEFAULT,
            next_hop: NextHop::Interface(name.into()),
        };
        let bind = |acl: &str| ChangeOp::BindAcl {
            device: "r000".into(),
            iface: "eth0".into(),
            dir: AclDir::Out,
            acl: acl.into(),
        };
        let cases = [
            (add("A", entry(Some(6), Some((90, 80)))), "empty port range"),
            (add("A", entry(None, Some((80, 90)))), "port match requires tcp or udp"),
            (add("A", entry(Some(1), Some((80, 80)))), "port match requires tcp or udp"),
            (add("", entry(None, None)), "not one word"),
            (add("MY ACL", entry(None, None)), "not one word"),
            (bind("MY ACL"), "not one word"),
            (route("null0"), "reads back as"),
            (route("10.0.0.1"), "reads back as"),
            (route("eth 0"), "not one word"),
        ];
        let mut cfgs = build_configs(&ring(3), ProtocolChoice::Ospf);
        let before = cfgs.clone();
        for (op, msg) in cases {
            let e = ChangeSet { ops: vec![op] }.apply(&mut cfgs).unwrap_err();
            assert!(e.msg.contains(msg), "{e}");
            assert_eq!(cfgs, before, "{e}");
        }
        let ok = [add("A", entry(Some(17), Some((80, 90)))), bind("A"), route("eth1")];
        ChangeSet { ops: ok.to_vec() }.apply(&mut cfgs).unwrap();
    }

    /// A whole device is refused for what an edit would be refused for,
    /// and the error names the edit that would have written it.
    #[test]
    fn check_device_refuses_what_an_edit_would() {
        let cfgs = build_configs(&ring(3), ProtocolChoice::Ospf);
        for (name, cfg) in &cfgs {
            check_device(name, cfg).unwrap();
        }
        let acl = |c: &mut DeviceConfig| {
            let entry = AclEntry {
                seq: 10,
                action: AclAction::Deny,
                proto: None,
                src: Prefix::DEFAULT,
                dst: Prefix::DEFAULT,
                dst_ports: Some((80, 80)),
            };
            c.acls.push(Acl { name: "A".into(), entries: vec![entry] })
        };
        let route = |c: &mut DeviceConfig| {
            let next_hop = NextHop::Interface("null0".into());
            c.static_routes.push(StaticRoute { prefix: Prefix::DEFAULT, next_hop })
        };
        let redist = |c: &mut DeviceConfig| {
            let r = Redistribution { source: RedistSource::Static, metric: 1 << 24 };
            c.ospf.as_mut().unwrap().redistribute.push(r)
        };
        let edits: [(fn(&mut DeviceConfig), _); 5] = [
            (|c| c.interfaces[0].ospf_cost = Some(0), "outside 1..=65535"),
            (|c| c.interfaces[0].acl_out = Some("MY ACL".into()), "not one word"),
            (route, "reads back as"),
            (acl, "port match requires tcp or udp"),
            (redist, "above 16777215"),
        ];
        for (edit, msg) in edits {
            let mut cfg = cfgs["r000"].clone();
            edit(&mut cfg);
            let e = check_device("r000", &cfg).unwrap_err();
            assert!(e.msg.contains(msg), "{e}");
            let mut edited = BTreeMap::from([("r000".to_string(), cfgs["r000"].clone())]);
            let refused = ChangeSet { ops: vec![e.op.clone()] }.apply(&mut edited);
            assert_eq!(refused.unwrap_err().msg, e.msg, "the named edit is refused alike");
        }
    }

    #[test]
    fn bgp_network_add_remove() {
        let mut cfgs = build_configs(&ring(3), ProtocolChoice::Bgp);
        let p: Prefix = "172.20.0.0/24".parse().unwrap();
        let mut cs = ChangeSet::new();
        cs.push(ChangeOp::AddBgpNetwork { device: "r000".into(), prefix: p });
        cs.apply(&mut cfgs).unwrap();
        assert!(cfgs["r000"].bgp.as_ref().unwrap().networks.contains(&p));
        let mut cs = ChangeSet::new();
        cs.push(ChangeOp::RemoveBgpNetwork { device: "r000".into(), prefix: p });
        cs.apply(&mut cfgs).unwrap();
        assert!(!cfgs["r000"].bgp.as_ref().unwrap().networks.contains(&p));
    }
}
