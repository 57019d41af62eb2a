//! Property tests for the configuration substrate: parser/printer
//! round trips on arbitrary configurations, line-diff laws, lowering
//! determinism, and incremental re-lowering against whole lowering.

use proptest::prelude::*;
use rc_netcfg::ast::*;
use rc_netcfg::facts::{fact_delta, lower, Lowering, Registry};
use rc_netcfg::gen::{build_configs, ProtocolChoice};
use rc_netcfg::linediff::diff_lines;
use rc_netcfg::parser::parse_config;
use rc_netcfg::printer::print_config;
use rc_netcfg::topology::{grid, ring};
use rc_netcfg::types::{Ip, Prefix};
use std::collections::{BTreeMap, BTreeSet};

fn arb_prefix() -> impl Strategy<Value = Prefix> {
    (any::<u32>(), 0u8..=32).prop_map(|(a, l)| Prefix::new(Ip(a), l))
}

fn arb_iface() -> impl Strategy<Value = InterfaceConfig> {
    (
        0u32..4,
        prop::option::of((any::<u32>(), 1u8..=30)),
        prop::option::of(1u32..200),
        any::<bool>(),
        prop::option::of(Just("ACL-A".to_string())),
        prop::option::of(Just("ACL-B".to_string())),
    )
        .prop_map(|(n, addr, cost, shutdown, acl_in, acl_out)| InterfaceConfig {
            name: format!("eth{n}"),
            // Interface addresses must be a *host* inside the prefix:
            // the printer emits the address as-is, so ensure nonzero
            // host bits survive canonicalization by just storing what
            // we generate.
            address: addr.map(|(a, l)| (Ip(a), l)),
            ospf_cost: cost,
            shutdown,
            acl_in,
            acl_out,
        })
}

fn arb_route_map_entry() -> impl Strategy<Value = RouteMapEntry> {
    (
        1u32..100,
        any::<bool>(),
        prop::option::of(arb_prefix()),
        prop::option::of(0u32..500),
        prop::option::of(0u32..500),
    )
        .prop_map(|(seq, permit, match_prefix, lp, metric)| RouteMapEntry {
            seq,
            action: if permit { RouteMapAction::Permit } else { RouteMapAction::Deny },
            match_prefix,
            set_local_pref: lp,
            set_metric: metric,
        })
}

fn arb_acl_entry() -> impl Strategy<Value = AclEntry> {
    (
        1u32..100,
        any::<bool>(),
        prop::option::of(prop_oneof![Just(1u8), Just(6), Just(17), Just(89)]),
        arb_prefix(),
        arb_prefix(),
        prop::option::of((any::<u16>(), any::<u16>())),
    )
        .prop_map(|(seq, permit, proto, src, dst, ports)| AclEntry {
            seq,
            action: if permit { AclAction::Permit } else { AclAction::Deny },
            // Port matches require TCP/UDP.
            proto: if ports.is_some() { Some(6) } else { proto },
            src,
            dst,
            dst_ports: ports.map(|(a, b)| (a.min(b), a.max(b))),
        })
}

prop_compose! {
    fn arb_config()(
        ifaces in prop::collection::vec(arb_iface(), 0..4),
        ospf in prop::option::of((1u32..10, prop::collection::vec(arb_prefix(), 0..3))),
        rip in prop::option::of(prop::collection::vec(arb_prefix(), 0..3)),
        bgp in prop::option::of((1u32..70000, prop::collection::vec(arb_prefix(), 0..3))),
        statics in prop::collection::vec((arb_prefix(), prop_oneof![
            Just(NextHop::Drop),
            any::<u32>().prop_map(|a| NextHop::Address(Ip(a))),
            (0u32..4).prop_map(|i| NextHop::Interface(format!("eth{i}"))),
        ]), 0..3),
        rm_entries in prop::collection::vec(arb_route_map_entry(), 0..4),
        acl_entries in prop::collection::vec(arb_acl_entry(), 0..4),
    ) -> DeviceConfig {
        let mut cfg = DeviceConfig::new("dev1");
        // Unique interface names.
        let mut seen = std::collections::BTreeSet::new();
        for i in ifaces {
            if seen.insert(i.name.clone()) {
                cfg.interfaces.push(i);
            }
        }
        if let Some((pid, networks)) = ospf {
            cfg.ospf = Some(OspfConfig { process_id: pid, networks, redistribute: vec![] });
        }
        if let Some(networks) = rip {
            cfg.rip = Some(RipConfig { networks, redistribute: vec![] });
        }
        if let Some((asn, networks)) = bgp {
            cfg.bgp = Some(BgpConfig { asn, networks, neighbors: vec![], redistribute: vec![] });
        }
        cfg.static_routes =
            statics.into_iter().map(|(prefix, next_hop)| StaticRoute { prefix, next_hop }).collect();
        let mut seen = std::collections::BTreeSet::new();
        let mut entries: Vec<RouteMapEntry> = Vec::new();
        for e in rm_entries {
            if seen.insert(e.seq) {
                entries.push(e);
            }
        }
        entries.sort_by_key(|e| e.seq);
        if !entries.is_empty() {
            cfg.route_maps.push(RouteMap { name: "RM".into(), entries });
        }
        let mut seen = std::collections::BTreeSet::new();
        let mut entries: Vec<AclEntry> = Vec::new();
        for e in acl_entries {
            if seen.insert(e.seq) {
                entries.push(e);
            }
        }
        entries.sort_by_key(|e| e.seq);
        if !entries.is_empty() {
            cfg.acls.push(Acl { name: "ACL-A".into(), entries });
        }
        cfg
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// print → parse is the identity on ASTs.
    #[test]
    fn round_trip(cfg in arb_config()) {
        let text = print_config(&cfg);
        let reparsed = parse_config(&text)
            .unwrap_or_else(|e| panic!("reparse failed: {e}\n--- text ---\n{text}"));
        prop_assert_eq!(reparsed, cfg);
    }

    /// The diff of a config against itself is empty; against a changed
    /// config it is non-empty and bounded by the total line count.
    #[test]
    fn diff_laws(a in arb_config(), b in arb_config()) {
        let ta = print_config(&a);
        let tb = print_config(&b);
        prop_assert!(diff_lines(&ta, &ta).is_empty());
        let d = diff_lines(&ta, &tb);
        let meaningful = |s: &str| s.lines().filter(|l| !l.trim().is_empty() && l.trim() != "!").count();
        prop_assert!(d.len() <= meaningful(&ta) + meaningful(&tb));
        if ta != tb {
            // Different canonical texts must show up in the diff.
            prop_assert!(!d.is_empty() || meaningful(&ta) == meaningful(&tb));
        }
    }

    /// Lowering is deterministic and registry interning is stable.
    #[test]
    fn lowering_deterministic(cfg in arb_config()) {
        let mut configs = BTreeMap::new();
        configs.insert(cfg.hostname.clone(), cfg);
        let mut reg1 = Registry::new();
        let a = lower(&configs, &mut reg1);
        let mut reg2 = Registry::new();
        let b = lower(&configs, &mut reg2);
        prop_assert_eq!(&a.facts, &b.facts);
        prop_assert!(fact_delta(&a.facts, &b.facts).is_empty());
        // Lowering twice through the same registry is also stable.
        let c = lower(&configs, &mut reg1);
        prop_assert_eq!(&a.facts, &c.facts);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The parser never panics — any input yields Ok or a positioned
    /// error.
    #[test]
    fn parser_never_panics_on_noise(text in "\\PC{0,200}") {
        let _ = parse_config(&text);
    }

    /// Config-shaped line soup: fragments of real statements glued in
    /// random order must also parse or fail cleanly, and any
    /// successfully parsed config must round-trip.
    #[test]
    fn parser_never_panics_on_config_soup(
        lines in prop::collection::vec(prop_oneof![
            Just("hostname r1".to_string()),
            Just("interface eth0".to_string()),
            Just(" ip address 10.0.0.1 255.255.255.252".to_string()),
            Just(" ip address 10.0.0.1".to_string()),
            Just(" ip ospf cost 5".to_string()),
            Just(" shutdown".to_string()),
            Just("router ospf 1".to_string()),
            Just("router rip".to_string()),
            Just("router bgp 65000".to_string()),
            Just(" network 10.0.0.0/8 area 0".to_string()),
            Just(" network 10.0.0.0/8".to_string()),
            Just(" network 10.0.0.0/40".to_string()),
            Just(" neighbor 10.0.0.2 remote-as 65001".to_string()),
            Just(" neighbor 10.0.0.2 route-map X in".to_string()),
            Just("ip route 1.0.0.0/8 null0".to_string()),
            Just("route-map X permit 10".to_string()),
            Just(" set local-preference 150".to_string()),
            Just(" match ip address prefix 10.0.0.0/8".to_string()),
            Just("ip access-list extended A".to_string()),
            Just(" 10 permit tcp any any eq 80".to_string()),
            Just(" 10 permit tcp any any eq 99999".to_string()),
            Just("!".to_string()),
        ], 0..20),
    ) {
        let text = lines.join("\n");
        if let Ok(cfg) = parse_config(&text) {
            let printed = print_config(&cfg);
            let reparsed = parse_config(&printed)
                .unwrap_or_else(|e| panic!("canonical text must reparse: {e}\n{printed}"));
            prop_assert_eq!(reparsed, cfg);
        }
    }
}

/// One per-device edit for the incremental-lowering property. Indices
/// are taken modulo what exists.
#[derive(Clone, Debug)]
enum Edit {
    /// Flip an interface's shutdown flag.
    Shutdown { dev: usize, iface: usize },
    /// Move an interface into link subnet `subnet`, as host `host`,
    /// with prefix length `len` (29 or 30: may mismatch its peer's).
    Readdress { dev: usize, iface: usize, subnet: u32, host: u32, len: u8 },
    /// Give an interface another device's interface address, with a
    /// prefix length one shorter when `widen`.
    CopyAddress { from: usize, from_iface: usize, dev: usize, iface: usize, widen: bool },
    /// Set a neighbor's `remote-as` to the AS of device `asn_of` (wrong,
    /// right, or the local AS).
    RemoteAs { dev: usize, nb: usize, asn_of: u32 },
    /// Delete a neighbor statement on one side.
    RemoveNeighbor { dev: usize, nb: usize },
    /// Remove a device, or put its original configuration back.
    ToggleDevice { dev: usize },
    /// Add a copy of a device under a new name (its addresses become
    /// duplicates).
    AddCopy { dev: usize, tag: u8 },
}

fn arb_edit() -> impl Strategy<Value = Edit> {
    let ix = || 0usize..16;
    prop_oneof![
        (ix(), ix()).prop_map(|(dev, iface)| Edit::Shutdown { dev, iface }),
        (ix(), ix(), 0u32..8, 1u32..4, prop_oneof![Just(29u8), Just(30)]).prop_map(
            |(dev, iface, subnet, host, len)| Edit::Readdress { dev, iface, subnet, host, len }
        ),
        (ix(), ix(), ix(), ix(), any::<bool>()).prop_map(|(from, from_iface, dev, iface, widen)| {
            Edit::CopyAddress { from, from_iface, dev, iface, widen }
        }),
        (ix(), ix(), 0u32..6).prop_map(|(dev, nb, asn_of)| Edit::RemoteAs { dev, nb, asn_of }),
        (ix(), ix()).prop_map(|(dev, nb)| Edit::RemoveNeighbor { dev, nb }),
        ix().prop_map(|dev| Edit::ToggleDevice { dev }),
        (ix(), 0u8..3).prop_map(|(dev, tag)| Edit::AddCopy { dev, tag }),
    ]
}

/// The edit as a device-granularity delta against `configs`: upserted
/// devices and removed names. `base` holds the original devices.
fn edit_delta(
    edit: &Edit,
    configs: &BTreeMap<String, DeviceConfig>,
    base: &BTreeMap<String, DeviceConfig>,
) -> (Vec<(String, DeviceConfig)>, Vec<String>) {
    let names: Vec<&String> = configs.keys().collect();
    if names.is_empty() {
        return (base.clone().into_iter().collect(), vec![]);
    }
    let pick = |i: usize| names[i % names.len()].clone();
    let edited = |i: usize, f: &dyn Fn(&mut DeviceConfig)| {
        let name = pick(i);
        let mut cfg = configs[&name].clone();
        f(&mut cfg);
        (vec![(name, cfg)], vec![])
    };
    let iface = |cfg: &mut DeviceConfig, i: usize| -> Option<usize> {
        (!cfg.interfaces.is_empty()).then(|| i % cfg.interfaces.len())
    };
    match edit.clone() {
        Edit::Shutdown { dev, iface: i } => edited(dev, &|c| {
            if let Some(i) = iface(c, i) {
                c.interfaces[i].shutdown = !c.interfaces[i].shutdown;
            }
        }),
        Edit::Readdress { dev, iface: i, subnet, host, len } => edited(dev, &|c| {
            if let Some(i) = iface(c, i) {
                let ip = rc_netcfg::gen::link_subnet(subnet).host(host);
                c.interfaces[i].address = Some((ip, len));
            }
        }),
        Edit::CopyAddress { from, from_iface, dev, iface: i, widen } => {
            let src = &configs[&pick(from)];
            let addr = (!src.interfaces.is_empty())
                .then(|| src.interfaces[from_iface % src.interfaces.len()].address)
                .flatten()
                .map(|(ip, len)| (ip, len - u8::from(widen && len > 0)));
            edited(dev, &|c| {
                if let Some(i) = iface(c, i) {
                    c.interfaces[i].address = addr;
                }
            })
        }
        Edit::RemoteAs { dev, nb, asn_of } => edited(dev, &|c| {
            if let Some(bgp) = c.bgp.as_mut().filter(|b| !b.neighbors.is_empty()) {
                let n = nb % bgp.neighbors.len();
                bgp.neighbors[n].remote_as = rc_netcfg::gen::device_asn(asn_of);
            }
        }),
        Edit::RemoveNeighbor { dev, nb } => edited(dev, &|c| {
            if let Some(bgp) = c.bgp.as_mut().filter(|b| !b.neighbors.is_empty()) {
                let n = nb % bgp.neighbors.len();
                bgp.neighbors.remove(n);
            }
        }),
        Edit::ToggleDevice { dev } => {
            let (name, cfg) = base.iter().nth(dev % base.len()).expect("non-empty");
            if configs.contains_key(name) {
                (vec![], vec![name.clone()])
            } else {
                (vec![(name.clone(), cfg.clone())], vec![])
            }
        }
        Edit::AddCopy { dev, tag } => {
            let mut cfg = configs[&pick(dev)].clone();
            cfg.hostname = format!("x{tag}-{}", cfg.hostname);
            (vec![(cfg.hostname.clone(), cfg)], vec![])
        }
    }
}

/// Drive `Lowering::relower` through `edits` and compare every step
/// with a whole-set `lower` over a copy of the registry as it was.
fn relower_matches_whole(
    base: BTreeMap<String, DeviceConfig>,
    edits: &[Edit],
) {
    let mut configs = base.clone();
    let mut reg = Registry::new();
    let mut index = Lowering::new(&configs, &mut reg);
    for edit in edits {
        let (upserts, removes) = edit_delta(edit, &configs, &base);
        let mut whole_reg = reg.clone();
        let old_facts = index.facts().clone();
        let old_warnings = index.warnings().clone();
        let delta = index.relower(&configs, &upserts, &removes, &mut reg);
        configs.extend(upserts);
        for name in &removes {
            configs.remove(name);
        }
        let whole = lower(&configs, &mut whole_reg);
        let warnings: BTreeSet<String> = whole.warnings.iter().map(|w| w.to_string()).collect();
        prop_assert_eq!(&delta.facts, &fact_delta(&old_facts, &whole.facts), "after {:?}", edit);
        let added: Vec<String> = warnings.difference(&old_warnings).cloned().collect();
        prop_assert_eq!(&delta.warnings_added, &added, "after {:?}", edit);
        index.commit(delta);
        prop_assert_eq!(index.facts(), &whole.facts, "after {:?}", edit);
        prop_assert_eq!(index.warnings(), &warnings, "after {:?}", edit);
        prop_assert_eq!(reg.export_names(), whole_reg.export_names(), "after {:?}", edit);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Re-lowering only the dirty devices after random per-device edits
    /// gives exactly what lowering the whole new set gives: the same
    /// fact delta, facts, warnings and interned names.
    #[test]
    fn relowering_equals_whole_lower_bgp(edits in prop::collection::vec(arb_edit(), 1..8)) {
        relower_matches_whole(build_configs(&grid(2, 3), ProtocolChoice::Bgp), &edits);
    }

    #[test]
    fn relowering_equals_whole_lower_ospf(edits in prop::collection::vec(arb_edit(), 1..8)) {
        relower_matches_whole(build_configs(&ring(4), ProtocolChoice::Ospf), &edits);
    }
}
