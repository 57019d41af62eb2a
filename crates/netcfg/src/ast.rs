//! The configuration AST: a structured, vendor-neutral (Cisco-IOS
//! flavoured) model of one device's configuration.
//!
//! The AST is produced by the parser, printed back by the printer
//! (round-trip canonical), edited by [`crate::change::ChangeSet`], and
//! lowered to input facts by [`crate::facts`].

use crate::types::{Ip, Prefix};

/// One device's full configuration.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct DeviceConfig {
    pub hostname: String,
    pub interfaces: Vec<InterfaceConfig>,
    pub ospf: Option<OspfConfig>,
    pub rip: Option<RipConfig>,
    pub bgp: Option<BgpConfig>,
    pub static_routes: Vec<StaticRoute>,
    pub route_maps: Vec<RouteMap>,
    pub acls: Vec<Acl>,
}

impl DeviceConfig {
    pub fn new(hostname: impl Into<String>) -> Self {
        DeviceConfig { hostname: hostname.into(), ..Default::default() }
    }

    pub fn interface(&self, name: &str) -> Option<&InterfaceConfig> {
        self.interfaces.iter().find(|i| i.name == name)
    }

    pub fn interface_mut(&mut self, name: &str) -> Option<&mut InterfaceConfig> {
        self.interfaces.iter_mut().find(|i| i.name == name)
    }

    pub fn route_map(&self, name: &str) -> Option<&RouteMap> {
        self.route_maps.iter().find(|m| m.name == name)
    }

    pub fn acl(&self, name: &str) -> Option<&Acl> {
        self.acls.iter().find(|a| a.name == name)
    }
}

/// An interface stanza.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct InterfaceConfig {
    pub name: String,
    /// `ip address A.B.C.D M.M.M.M`.
    pub address: Option<(Ip, u8)>,
    /// `shutdown` — administratively down.
    pub shutdown: bool,
    /// `ip ospf cost N` (defaults to 1 when OSPF covers the interface).
    pub ospf_cost: Option<u32>,
    /// `ip access-group NAME in`.
    pub acl_in: Option<String>,
    /// `ip access-group NAME out`.
    pub acl_out: Option<String>,
}

/// Check an `ip ospf cost`: RFC 2328 interface costs are 16-bit and
/// positive. This bound and [`check_ospf_metric`]'s keep every OSPF
/// distance sum far inside `u32`.
pub(crate) fn check_ospf_cost(cost: u32) -> Result<(), String> {
    if (1..=65_535).contains(&cost) {
        Ok(())
    } else {
        Err(format!("ospf cost {cost} outside 1..=65535"))
    }
}

/// Check a `redistribute … metric` under `router ospf`: OSPF external
/// metrics are 24-bit.
pub(crate) fn check_ospf_metric(metric: u32) -> Result<(), String> {
    if metric <= 16_777_215 {
        Ok(())
    } else {
        Err(format!("ospf metric {metric} above 16777215"))
    }
}

impl InterfaceConfig {
    pub fn new(name: impl Into<String>) -> Self {
        InterfaceConfig { name: name.into(), ..Default::default() }
    }

    /// The interface's connected subnet, if addressed.
    pub fn prefix(&self) -> Option<Prefix> {
        self.address.map(|(ip, len)| Prefix::new(ip, len))
    }

    /// The interface's own address.
    pub fn ip(&self) -> Option<Ip> {
        self.address.map(|(ip, _)| ip)
    }
}

/// `router ospf N` stanza.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct OspfConfig {
    pub process_id: u32,
    /// `network P/L area 0` statements: interfaces whose address falls
    /// inside one of these run OSPF.
    pub networks: Vec<Prefix>,
    /// `redistribute <proto> metric N`.
    pub redistribute: Vec<Redistribution>,
}

/// `router rip` stanza. RIP is modeled as classic hop-count distance
/// vector: metric 16 is infinity, so prefixes more than 15 hops away
/// are unreachable.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct RipConfig {
    /// `network P/L` statements: interfaces inside run RIP.
    pub networks: Vec<Prefix>,
    pub redistribute: Vec<Redistribution>,
}

/// `router bgp ASN` stanza.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct BgpConfig {
    pub asn: u32,
    /// `network P/L` — prefixes this AS originates.
    pub networks: Vec<Prefix>,
    pub neighbors: Vec<BgpNeighbor>,
    pub redistribute: Vec<Redistribution>,
}

/// `neighbor A.B.C.D ...` lines of a BGP stanza.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BgpNeighbor {
    pub addr: Ip,
    pub remote_as: u32,
    /// `neighbor X route-map NAME in`.
    pub route_map_in: Option<String>,
    /// `neighbor X route-map NAME out`.
    pub route_map_out: Option<String>,
}

/// The protocol a redistribution statement pulls routes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RedistSource {
    Connected,
    Static,
    Ospf,
    Rip,
    Bgp,
}

/// `redistribute <source> metric N`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Redistribution {
    pub source: RedistSource,
    pub metric: u32,
}

/// `ip route P/L <next-hop>`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StaticRoute {
    pub prefix: Prefix,
    pub next_hop: NextHop,
}

/// Next hop of a static route.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NextHop {
    /// Forward out of a named interface.
    Interface(String),
    /// Forward toward an address (resolved to an interface by the
    /// lowering pass via connected subnets).
    Address(Ip),
    /// Discard (`null0`).
    Drop,
}

/// `route-map NAME <permit|deny> SEQ` stanza with match/set lines.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RouteMap {
    pub name: String,
    pub entries: Vec<RouteMapEntry>,
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RouteMapEntry {
    pub seq: u32,
    pub action: RouteMapAction,
    /// `match ip address prefix P/L` — entry applies only to routes
    /// inside `P/L`. `None` matches everything.
    pub match_prefix: Option<Prefix>,
    /// `set local-preference N`.
    pub set_local_pref: Option<u32>,
    /// `set metric N`.
    pub set_metric: Option<u32>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RouteMapAction {
    Permit,
    Deny,
}

/// `ip access-list extended NAME` stanza.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Acl {
    pub name: String,
    pub entries: Vec<AclEntry>,
}

/// One `permit|deny` line of an ACL. Priority is list order (first
/// match wins); `seq` makes that explicit and editable.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AclEntry {
    pub seq: u32,
    pub action: AclAction,
    /// IP protocol number (`ip` = any).
    pub proto: Option<u8>,
    pub src: Prefix,
    pub dst: Prefix,
    /// Destination port range, for TCP/UDP matches.
    pub dst_ports: Option<(u16, u16)>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AclAction {
    Permit,
    Deny,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookups() {
        let mut cfg = DeviceConfig::new("r1");
        cfg.interfaces.push(InterfaceConfig {
            name: "eth0".into(),
            address: Some((Ip::new(10, 0, 0, 1), 30)),
            ..Default::default()
        });
        assert!(cfg.interface("eth0").is_some());
        assert!(cfg.interface("eth1").is_none());
        assert_eq!(cfg.interface("eth0").unwrap().prefix().unwrap().to_string(), "10.0.0.0/30");
        cfg.interface_mut("eth0").unwrap().shutdown = true;
        assert!(cfg.interface("eth0").unwrap().shutdown);
    }
}
