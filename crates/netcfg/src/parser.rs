//! Parser for the Cisco-IOS-flavoured configuration language.
//!
//! The format is line-oriented: top-level stanza headers (`interface`,
//! `router ospf`, `router bgp`, `route-map`, `ip access-list`) are
//! followed by body lines indented with one space, Cisco style; `!`
//! lines are separators. The parser is strict — unknown statements are
//! errors, not silently skipped — because a verifier that drops config
//! lines verifies a different network than the one deployed.

use crate::ast::*;
use crate::types::{mask_to_len, Ip, Prefix};

/// A parse failure with position information.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    pub line_no: usize,
    pub line: String,
    pub msg: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {} (in {:?})", self.line_no, self.msg, self.line)
    }
}

impl std::error::Error for ParseError {}

struct Lines<'a> {
    lines: Vec<(usize, &'a str)>,
    pos: usize,
}

impl<'a> Lines<'a> {
    fn new(text: &'a str) -> Self {
        let lines = text
            .lines()
            .enumerate()
            .map(|(i, l)| (i + 1, l.trim_end()))
            .filter(|(_, l)| !l.trim().is_empty() && l.trim() != "!")
            .collect();
        Lines { lines, pos: 0 }
    }

    fn peek(&self) -> Option<(usize, &'a str)> {
        self.lines.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<(usize, &'a str)> {
        let l = self.peek();
        if l.is_some() {
            self.pos += 1;
        }
        l
    }

    /// Consume the indented body lines following a stanza header.
    fn body(&mut self) -> Vec<(usize, &'a str)> {
        let mut out = Vec::new();
        while let Some((n, l)) = self.peek() {
            if l.starts_with(' ') {
                out.push((n, l.trim()));
                self.pos += 1;
            } else {
                break;
            }
        }
        out
    }
}

fn err(line_no: usize, line: &str, msg: impl Into<String>) -> ParseError {
    ParseError { line_no, line: line.to_string(), msg: msg.into() }
}

fn parse_prefix(s: &str, n: usize, line: &str) -> Result<Prefix, ParseError> {
    if s == "any" {
        return Ok(Prefix::DEFAULT);
    }
    s.parse().map_err(|_| err(n, line, format!("invalid prefix {s:?}")))
}

fn parse_ip(s: &str, n: usize, line: &str) -> Result<Ip, ParseError> {
    s.parse().map_err(|_| err(n, line, format!("invalid address {s:?}")))
}

fn parse_u32(s: &str, n: usize, line: &str) -> Result<u32, ParseError> {
    s.parse().map_err(|_| err(n, line, format!("invalid number {s:?}")))
}

fn parse_redist_source(s: &str, n: usize, line: &str) -> Result<RedistSource, ParseError> {
    match s {
        "connected" => Ok(RedistSource::Connected),
        "static" => Ok(RedistSource::Static),
        "ospf" => Ok(RedistSource::Ospf),
        "rip" => Ok(RedistSource::Rip),
        "bgp" => Ok(RedistSource::Bgp),
        _ => Err(err(n, line, format!("unknown redistribution source {s:?}"))),
    }
}

/// Parse one device configuration.
pub fn parse_config(text: &str) -> Result<DeviceConfig, ParseError> {
    let mut lines = Lines::new(text);
    let mut cfg = DeviceConfig::default();

    while let Some((n, raw)) = lines.next() {
        let line = raw.trim();
        let words: Vec<&str> = line.split_whitespace().collect();
        match words.as_slice() {
            ["hostname", name] => cfg.hostname = name.to_string(),

            ["interface", name] => {
                let mut iface = InterfaceConfig::new(*name);
                for (bn, bl) in lines.body() {
                    let w: Vec<&str> = bl.split_whitespace().collect();
                    match w.as_slice() {
                        ["ip", "address", addr, mask] => {
                            let ip = parse_ip(addr, bn, bl)?;
                            let len = mask_to_len(parse_ip(mask, bn, bl)?)
                                .ok_or_else(|| err(bn, bl, "non-contiguous netmask"))?;
                            iface.address = Some((ip, len));
                        }
                        ["ip", "ospf", "cost", c] => {
                            let cost = parse_u32(c, bn, bl)?;
                            check_ospf_cost(cost).map_err(|msg| err(bn, bl, msg))?;
                            iface.ospf_cost = Some(cost);
                        }
                        ["ip", "access-group", name, "in"] => {
                            iface.acl_in = Some(name.to_string());
                        }
                        ["ip", "access-group", name, "out"] => {
                            iface.acl_out = Some(name.to_string());
                        }
                        ["shutdown"] => iface.shutdown = true,
                        ["no", "shutdown"] => iface.shutdown = false,
                        _ => return Err(err(bn, bl, "unknown interface statement")),
                    }
                }
                cfg.interfaces.push(iface);
            }

            ["router", "ospf", pid] => {
                let mut ospf =
                    OspfConfig { process_id: parse_u32(pid, n, line)?, ..Default::default() };
                for (bn, bl) in lines.body() {
                    let w: Vec<&str> = bl.split_whitespace().collect();
                    match w.as_slice() {
                        ["network", p, "area", _area] => {
                            ospf.networks.push(parse_prefix(p, bn, bl)?);
                        }
                        ["redistribute", src, "metric", m] => {
                            let metric = parse_u32(m, bn, bl)?;
                            check_ospf_metric(metric).map_err(|msg| err(bn, bl, msg))?;
                            ospf.redistribute.push(Redistribution {
                                source: parse_redist_source(src, bn, bl)?,
                                metric,
                            });
                        }
                        _ => return Err(err(bn, bl, "unknown ospf statement")),
                    }
                }
                cfg.ospf = Some(ospf);
            }

            ["router", "rip"] => {
                let mut rip = RipConfig::default();
                for (bn, bl) in lines.body() {
                    let w: Vec<&str> = bl.split_whitespace().collect();
                    match w.as_slice() {
                        ["network", p] => rip.networks.push(parse_prefix(p, bn, bl)?),
                        ["redistribute", src, "metric", m] => {
                            rip.redistribute.push(Redistribution {
                                source: parse_redist_source(src, bn, bl)?,
                                metric: parse_u32(m, bn, bl)?,
                            });
                        }
                        _ => return Err(err(bn, bl, "unknown rip statement")),
                    }
                }
                cfg.rip = Some(rip);
            }

            ["router", "bgp", asn] => {
                let mut bgp = BgpConfig { asn: parse_u32(asn, n, line)?, ..Default::default() };
                for (bn, bl) in lines.body() {
                    let w: Vec<&str> = bl.split_whitespace().collect();
                    match w.as_slice() {
                        ["network", p] => bgp.networks.push(parse_prefix(p, bn, bl)?),
                        ["neighbor", addr, "remote-as", ras] => {
                            bgp.neighbors.push(BgpNeighbor {
                                addr: parse_ip(addr, bn, bl)?,
                                remote_as: parse_u32(ras, bn, bl)?,
                                route_map_in: None,
                                route_map_out: None,
                            });
                        }
                        ["neighbor", addr, "route-map", rm, dir @ ("in" | "out")] => {
                            let a = parse_ip(addr, bn, bl)?;
                            let nb = bgp
                                .neighbors
                                .iter_mut()
                                .find(|x| x.addr == a)
                                .ok_or_else(|| err(bn, bl, "route-map before remote-as"))?;
                            if *dir == "in" {
                                nb.route_map_in = Some(rm.to_string());
                            } else {
                                nb.route_map_out = Some(rm.to_string());
                            }
                        }
                        ["redistribute", src, "metric", m] => {
                            bgp.redistribute.push(Redistribution {
                                source: parse_redist_source(src, bn, bl)?,
                                metric: parse_u32(m, bn, bl)?,
                            });
                        }
                        _ => return Err(err(bn, bl, "unknown bgp statement")),
                    }
                }
                cfg.bgp = Some(bgp);
            }

            ["ip", "route", p, nh] => {
                let prefix = parse_prefix(p, n, line)?;
                let next_hop = if *nh == "null0" {
                    NextHop::Drop
                } else if nh.chars().next().is_some_and(|c| c.is_ascii_digit()) {
                    NextHop::Address(parse_ip(nh, n, line)?)
                } else {
                    NextHop::Interface(nh.to_string())
                };
                cfg.static_routes.push(StaticRoute { prefix, next_hop });
            }

            ["route-map", name, action @ ("permit" | "deny"), seq] => {
                let mut entry = RouteMapEntry {
                    seq: parse_u32(seq, n, line)?,
                    action: if *action == "permit" {
                        RouteMapAction::Permit
                    } else {
                        RouteMapAction::Deny
                    },
                    match_prefix: None,
                    set_local_pref: None,
                    set_metric: None,
                };
                for (bn, bl) in lines.body() {
                    let w: Vec<&str> = bl.split_whitespace().collect();
                    match w.as_slice() {
                        ["match", "ip", "address", "prefix", p] => {
                            entry.match_prefix = Some(parse_prefix(p, bn, bl)?);
                        }
                        ["set", "local-preference", lp] => {
                            entry.set_local_pref = Some(parse_u32(lp, bn, bl)?);
                        }
                        ["set", "metric", m] => {
                            entry.set_metric = Some(parse_u32(m, bn, bl)?);
                        }
                        _ => return Err(err(bn, bl, "unknown route-map statement")),
                    }
                }
                match cfg.route_maps.iter_mut().find(|m| m.name == *name) {
                    Some(m) => m.entries.push(entry),
                    None => cfg
                        .route_maps
                        .push(RouteMap { name: name.to_string(), entries: vec![entry] }),
                }
            }

            ["ip", "access-list", "extended", name] => {
                let mut acl = Acl { name: name.to_string(), entries: Vec::new() };
                for (bn, bl) in lines.body() {
                    acl.entries.push(parse_acl_entry(bn, bl)?);
                }
                cfg.acls.push(acl);
            }

            _ => return Err(err(n, line, "unknown statement")),
        }
    }

    // Route-map entries parse in file order; normalize by sequence.
    for m in &mut cfg.route_maps {
        m.entries.sort_by_key(|e| e.seq);
    }
    for a in &mut cfg.acls {
        a.entries.sort_by_key(|e| e.seq);
    }
    Ok(cfg)
}

fn parse_acl_entry(n: usize, line: &str) -> Result<AclEntry, ParseError> {
    let w: Vec<&str> = line.split_whitespace().collect();
    if w.len() < 5 {
        return Err(err(n, line, "truncated access-list entry"));
    }
    let seq = parse_u32(w[0], n, line)?;
    let action = match w[1] {
        "permit" => AclAction::Permit,
        "deny" => AclAction::Deny,
        other => return Err(err(n, line, format!("unknown acl action {other:?}"))),
    };
    let proto = match w[2] {
        "ip" => None,
        "icmp" => Some(1),
        "tcp" => Some(6),
        "udp" => Some(17),
        num => Some(
            num.parse::<u8>().map_err(|_| err(n, line, format!("unknown protocol {num:?}")))?,
        ),
    };
    let src = parse_prefix(w[3], n, line)?;
    let dst = parse_prefix(w[4], n, line)?;
    let dst_ports = match w.get(5..) {
        None | Some([]) => None,
        Some(["eq", p]) => {
            let p: u16 = p.parse().map_err(|_| err(n, line, "invalid port"))?;
            Some((p, p))
        }
        Some(["range", lo, hi]) => {
            let lo: u16 = lo.parse().map_err(|_| err(n, line, "invalid port"))?;
            let hi: u16 = hi.parse().map_err(|_| err(n, line, "invalid port"))?;
            if lo > hi {
                return Err(err(n, line, "empty port range"));
            }
            Some((lo, hi))
        }
        _ => return Err(err(n, line, "unknown acl qualifier")),
    };
    if dst_ports.is_some() && !matches!(proto, Some(6) | Some(17)) {
        return Err(err(n, line, "port match requires tcp or udp"));
    }
    Ok(AclEntry { seq, action, proto, src, dst, dst_ports })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
hostname r1
!
interface eth0
 ip address 10.0.0.1 255.255.255.252
 ip ospf cost 10
 ip access-group BLOCK in
!
interface eth1
 ip address 172.16.1.1 255.255.255.0
 shutdown
!
router ospf 1
 network 10.0.0.0/8 area 0
 redistribute static metric 20
!
router bgp 65001
 network 172.16.1.0/24
 neighbor 10.0.0.2 remote-as 65002
 neighbor 10.0.0.2 route-map LP_IN in
!
ip route 192.168.0.0/24 10.0.0.2
ip route 192.168.1.0/24 null0
!
route-map LP_IN permit 10
 match ip address prefix 172.16.0.0/12
 set local-preference 150
route-map LP_IN permit 20
!
ip access-list extended BLOCK
 10 deny tcp 10.0.0.0/8 172.16.1.0/24 eq 80
 20 permit ip any any
";

    #[test]
    fn parses_full_sample() {
        let cfg = parse_config(SAMPLE).unwrap();
        assert_eq!(cfg.hostname, "r1");
        assert_eq!(cfg.interfaces.len(), 2);
        let e0 = cfg.interface("eth0").unwrap();
        assert_eq!(e0.prefix().unwrap().to_string(), "10.0.0.0/30");
        assert_eq!(e0.ospf_cost, Some(10));
        assert_eq!(e0.acl_in.as_deref(), Some("BLOCK"));
        assert!(cfg.interface("eth1").unwrap().shutdown);

        let ospf = cfg.ospf.as_ref().unwrap();
        assert_eq!(ospf.networks, vec!["10.0.0.0/8".parse().unwrap()]);
        assert_eq!(ospf.redistribute[0].source, RedistSource::Static);

        let bgp = cfg.bgp.as_ref().unwrap();
        assert_eq!(bgp.asn, 65001);
        assert_eq!(bgp.neighbors[0].route_map_in.as_deref(), Some("LP_IN"));

        assert_eq!(cfg.static_routes.len(), 2);
        assert_eq!(cfg.static_routes[1].next_hop, NextHop::Drop);

        let rm = cfg.route_map("LP_IN").unwrap();
        assert_eq!(rm.entries.len(), 2);
        assert_eq!(rm.entries[0].set_local_pref, Some(150));
        assert_eq!(rm.entries[1].match_prefix, None);

        let acl = cfg.acl("BLOCK").unwrap();
        assert_eq!(acl.entries[0].dst_ports, Some((80, 80)));
        assert_eq!(acl.entries[1].action, AclAction::Permit);
    }

    #[test]
    fn unknown_statement_is_an_error() {
        let e = parse_config("frobnicate everything\n").unwrap_err();
        assert_eq!(e.line_no, 1);
        assert!(e.msg.contains("unknown"));
    }

    #[test]
    fn unknown_interface_statement_is_an_error() {
        let e = parse_config("interface eth0\n speed 1000\n").unwrap_err();
        assert_eq!(e.line_no, 2);
    }

    #[test]
    fn out_of_range_ospf_cost_and_metric_rejected() {
        let e = parse_config("interface eth0\n ip ospf cost 4294967295\n").unwrap_err();
        assert_eq!(e.line_no, 2);
        assert!(e.msg.contains("outside 1..=65535"), "{e}");
        assert!(parse_config("interface eth0\n ip ospf cost 0\n").is_err());
        assert!(parse_config("interface eth0\n ip ospf cost 65535\n").is_ok());
        let text = "router ospf 1\n redistribute static metric 16777216\n";
        let e = parse_config(text).unwrap_err();
        assert_eq!(e.line_no, 2);
        assert!(e.msg.contains("above 16777215"), "{e}");
        assert!(parse_config("router ospf 1\n redistribute static metric 16777215\n").is_ok());
    }

    #[test]
    fn bad_mask_rejected() {
        let e = parse_config("interface eth0\n ip address 10.0.0.1 255.0.255.0\n").unwrap_err();
        assert!(e.msg.contains("netmask"));
    }

    #[test]
    fn route_map_before_remote_as_rejected() {
        let text = "router bgp 1\n neighbor 10.0.0.2 route-map X in\n";
        assert!(parse_config(text).is_err());
    }

    #[test]
    fn acl_port_on_non_tcp_rejected() {
        let text = "ip access-list extended A\n 10 permit ip any any eq 80\n";
        assert!(parse_config(text).is_err());
    }

    #[test]
    fn empty_config_parses() {
        let cfg = parse_config("!\n\n!\n").unwrap();
        assert_eq!(cfg, DeviceConfig::default());
    }

    #[test]
    fn route_map_entries_sorted_by_seq() {
        let text = "route-map M permit 20\nroute-map M deny 10\n";
        let cfg = parse_config(text).unwrap();
        let rm = cfg.route_map("M").unwrap();
        assert_eq!(rm.entries[0].seq, 10);
        assert_eq!(rm.entries[0].action, RouteMapAction::Deny);
    }
}
