//! Shared harness for the apkeep property tests and their pinned
//! regression counterexamples: abstract rule encoding, the naive
//! first-match oracle, and the two checkable properties as plain
//! functions so `props.rs` (random inputs) and `regressions.rs`
//! (counterexamples from props.proptest-regressions) exercise the
//! exact same code path.
#![allow(dead_code)]

use rc_apkeep::*;
use rc_bdd::pkt::Packet;
use rc_netcfg::facts::Dir;
use rc_netcfg::types::{IfaceId, Ip, NodeId, Prefix};
use std::collections::{BTreeMap, BTreeSet};

#[derive(Clone, Debug)]
pub struct AbstractRule {
    pub device: u32,
    /// Prefix built from a small alphabet so overlaps actually happen.
    pub base: u8,
    pub len: u8,
    pub iface: u32,
    pub acl: bool,
}

pub fn rule_of(a: &AbstractRule) -> ModelRule {
    // Prefixes like 10.B.0.0/len with len in 8..=16 out of two base
    // octets — guarantees nesting and disjointness cases.
    //
    // The action is a function of the match: devices never hold two
    // same-priority rules with identical matches and different actions
    // (a FIB has one route per prefix, an ACL unique sequence numbers),
    // and the model's semantics are only defined without such
    // ambiguity.
    let prefix = Prefix::new(Ip::new(10, a.base, 0, 0), a.len);
    // Derive from the *canonical* prefix: short masks strip the base
    // octet, and the action must be a function of what the rule
    // actually matches.
    let iface = (a.device + (prefix.addr().0 >> 16) + a.len as u32) % 4;
    let a = AbstractRule { iface, ..a.clone() };
    if a.acl {
        ModelRule {
            element: ElementKey::Filter(NodeId(a.device), IfaceId(0), Dir::In),
            priority: u32::MAX - (a.len as u32 * 10 + a.iface),
            rule_match: RuleMatch::Acl {
                proto: if a.iface.is_multiple_of(2) { Some(6) } else { None },
                src: Prefix::DEFAULT,
                dst: prefix,
                dst_ports: None,
            },
            action: if a.iface.is_multiple_of(3) { PortAction::Deny } else { PortAction::Permit },
        }
    } else {
        ModelRule {
            element: ElementKey::Forward(NodeId(a.device)),
            priority: a.len as u32,
            rule_match: RuleMatch::DstPrefix(prefix),
            action: PortAction::forward(vec![IfaceId(a.iface)]),
        }
    }
}

/// Naive oracle: evaluate a packet against the live rule set of one
/// element (highest priority first; deterministic tie-break mirrors the
/// model's table order).
pub fn naive_action(rules: &BTreeSet<ModelRule>, key: ElementKey, pkt: &Packet) -> PortAction {
    let mut bdd = rc_bdd::Bdd::new();
    let mut matching: Vec<&ModelRule> = rules.iter().filter(|r| r.element == key).collect();
    // Model table order: priority desc, then match, then action.
    matching.sort_by(|a, b| {
        (std::cmp::Reverse(a.priority), a.rule_match, &a.action)
            .cmp(&(std::cmp::Reverse(b.priority), b.rule_match, &b.action))
    });
    for r in matching {
        let pred = match r.rule_match {
            RuleMatch::DstPrefix(p) => {
                bdd.pkt_prefix(rc_bdd::pkt::Field::DstIp, p.addr().0, p.len() as u32)
            }
            RuleMatch::Acl { proto, src, dst, dst_ports } => {
                let mut acc = bdd.pkt_prefix(rc_bdd::pkt::Field::SrcIp, src.addr().0, src.len() as u32);
                let d = bdd.pkt_prefix(rc_bdd::pkt::Field::DstIp, dst.addr().0, dst.len() as u32);
                acc = bdd.and(acc, d);
                if let Some(pr) = proto {
                    let p = bdd.pkt_value(rc_bdd::pkt::Field::Proto, pr as u32);
                    acc = bdd.and(acc, p);
                }
                if let Some((lo, hi)) = dst_ports {
                    let rng = bdd.pkt_range(rc_bdd::pkt::Field::DstPort, lo as u32, hi as u32);
                    acc = bdd.and(acc, rng);
                }
                acc
            }
        };
        if bdd.pkt_eval(pred, pkt) {
            return r.action.clone();
        }
    }
    match key {
        ElementKey::Forward(_) => PortAction::Drop,
        ElementKey::Filter(..) => PortAction::Permit,
    }
}

/// Property body: apply `seq` in batches of up to 3 (insert/remove
/// toggling, order selected by `order_bits`), then check the model's
/// packet-level behaviour against the naive oracle on `probes`.
pub fn check_model_matches_naive(seq: &[AbstractRule], order_bits: u64, probes: &[(u8, u8, bool)]) {
    let mut model = ApkModel::new();
    let mut live: BTreeSet<ModelRule> = BTreeSet::new();

    // Apply rules in batches of up to 3, toggling insert/remove and
    // alternating update order.
    for (i, chunk) in seq.chunks(3).enumerate() {
        let mut batch = Vec::new();
        let mut touched: BTreeSet<ModelRule> = BTreeSet::new();
        for a in chunk {
            let r = rule_of(a);
            // Batches derive from set deltas: the same rule never
            // appears as both insert and remove in one batch.
            if !touched.insert(r.clone()) {
                continue;
            }
            if live.contains(&r) {
                live.remove(&r);
                batch.push(RuleUpdate::Remove(r));
            } else {
                live.insert(r.clone());
                batch.push(RuleUpdate::Insert(r));
            }
        }
        let order = match (order_bits >> (2 * i)) & 3 {
            0 => UpdateOrder::InsertFirst,
            1 => UpdateOrder::DeleteFirst,
            _ => UpdateOrder::AsGiven,
        };
        model.apply_batch(batch, order);
        model.check_invariants();
    }

    // Probe packets across the interesting space.
    let elements: BTreeSet<ElementKey> = live.iter().map(|r| r.element).collect();
    for &(b, low, tcp) in probes {
        let pkt = Packet {
            dst_ip: u32::from_be_bytes([10, b, low, 1]),
            proto: if tcp { 6 } else { 17 },
            ..Default::default()
        };
        let ec = model.ec_of_packet(&pkt);
        for &key in &elements {
            let got = model.action(key, ec).cloned().unwrap_or(match key {
                ElementKey::Forward(_) => PortAction::Drop,
                ElementKey::Filter(..) => PortAction::Permit,
            });
            let want = naive_action(&live, key, &pkt);
            assert_eq!(got, want, "mismatch at {:?} for {:?}", key, pkt);
        }
    }
}

/// Property body: the indexed model must be observationally identical
/// to a full-scan oracle — byte-identical `BatchSummary` per batch,
/// in-batch merges included, identical `ecs_intersecting` answers, and
/// invariants (including dst-index / inverted-index sync and
/// minimality) holding throughout.
///
/// EC ids line up because both models probe candidates in ascending id
/// order, so splits allocate identical child ids.
pub fn check_indexed_matches_full_scan(seq: &[AbstractRule], order_bits: u64) {
    let mut indexed = ApkModel::new();
    let mut oracle = ApkModel::new();
    oracle.set_full_scan(true);
    let mut live: BTreeSet<ModelRule> = BTreeSet::new();

    for (i, chunk) in seq.chunks(3).enumerate() {
        let mut batch = Vec::new();
        let mut touched: BTreeSet<ModelRule> = BTreeSet::new();
        for a in chunk {
            let r = rule_of(a);
            if !touched.insert(r.clone()) {
                continue;
            }
            if live.contains(&r) {
                live.remove(&r);
                batch.push(RuleUpdate::Remove(r));
            } else {
                live.insert(r.clone());
                batch.push(RuleUpdate::Insert(r));
            }
        }
        let order = match (order_bits >> (2 * i)) & 3 {
            0 => UpdateOrder::InsertFirst,
            1 => UpdateOrder::DeleteFirst,
            _ => UpdateOrder::AsGiven,
        };
        let s_indexed = indexed.apply_batch(batch.clone(), order);
        let s_oracle = oracle.apply_batch(batch, order);
        assert_eq!(s_indexed, s_oracle, "indexed and full-scan summaries diverge at batch {i}");
        assert_eq!(indexed.num_ecs(), oracle.num_ecs());
        indexed.check_invariants();
    }
    indexed.check_invariants();
    oracle.check_invariants();

    // The candidate-narrowed intersection query agrees with the full
    // scan on prefixes across the generated space (nested, disjoint,
    // and absent ones).
    for base in 0u8..4 {
        for len in [8u32, 12, 16, 24] {
            let p = Prefix::new(Ip::new(10, base, 0, 0), len as u8);
            let pi = indexed.preds().pkt_prefix(rc_bdd::pkt::Field::DstIp, p.addr().0, len);
            let po = oracle.preds().pkt_prefix(rc_bdd::pkt::Field::DstIp, p.addr().0, len);
            assert_eq!(
                indexed.ecs_intersecting(pi),
                oracle.ecs_intersecting(po),
                "ecs_intersecting diverges on {p:?}"
            );
        }
    }
}

/// One step of a replacement-shaped rule stream. The rule named by
/// `(device, dst, acl)` is inserted when absent; when present it is
/// removed or, with `replace`, removed and re-inserted with another
/// action in the same batch — the Remove + Insert pair with equal
/// element, priority and match that `FibGrouper` emits whenever an ECMP
/// group changes.
#[derive(Clone, Copy, Debug)]
pub struct RuleOp {
    pub device: u32,
    /// Dst prefix `10.hi.lo.0/len`: the octets nest /8 ⊃ /16 ⊃ /24, and
    /// `len == 0` is the `0.0.0.0/0` default.
    pub hi: u8,
    pub lo: u8,
    pub len: u8,
    /// `Some((src, ports))` makes it an ACL entry that differs from its
    /// dst-overlapping neighbours in source prefix or port range.
    pub acl: Option<(u8, u8)>,
    pub action: u8,
    pub replace: bool,
}

impl RuleOp {
    /// The rule with action number `action`. Priorities are a function
    /// of the match (prefix length for FIB rules, a sequence number
    /// derived from every match field for ACL entries), so no table
    /// persistently holds two overlapping matches of equal priority.
    pub fn rule(&self, action: u8) -> ModelRule {
        let dst = Prefix::new(Ip::new(10, self.hi, self.lo, 0), self.len);
        let Some((src, ports)) = self.acl else {
            return ModelRule {
                element: ElementKey::Forward(NodeId(self.device)),
                priority: dst.len() as u32,
                rule_match: RuleMatch::DstPrefix(dst),
                action: match action % 4 {
                    0 => PortAction::forward(vec![IfaceId(1)]),
                    1 => PortAction::forward(vec![IfaceId(1), IfaceId(2)]),
                    2 => PortAction::forward(vec![IfaceId(3)]),
                    _ => PortAction::Drop,
                },
            };
        };
        let (src, ports) = (src % 3, ports % 3);
        // Canonical octets: a short mask strips them.
        let [_, hi, lo, _] = dst.addr().0.to_be_bytes();
        let seq = dst.len() as u32 * 100
            + hi as u32 * 50
            + lo as u32 * 25
            + src as u32 * 3
            + ports as u32;
        ModelRule {
            element: ElementKey::Filter(NodeId(self.device), IfaceId(0), Dir::In),
            priority: u32::MAX - seq,
            rule_match: RuleMatch::Acl {
                proto: if ports == 0 { None } else { Some(6) },
                src: match src {
                    0 => Prefix::DEFAULT,
                    1 => Prefix::new(Ip::new(192, 168, 0, 0), 16),
                    _ => Prefix::new(Ip::new(192, 168, 1, 0), 24),
                },
                dst,
                dst_ports: match ports {
                    0 => None,
                    1 => Some((80, 80)),
                    _ => Some((0, 1023)),
                },
            },
            action: if action.is_multiple_of(2) { PortAction::Permit } else { PortAction::Deny },
        }
    }
}

/// Probe packets for [`check_replacements`]: inside each /24, inside
/// each /16 but outside its /24s, inside the /8 only, and outside it
/// (the default route's share), each with sources and ports that the
/// ACL entries tell apart.
fn replacement_probes() -> Vec<Packet> {
    let dsts = [
        [10, 0, 0, 7],
        [10, 0, 1, 7],
        [10, 1, 0, 7],
        [10, 1, 1, 7],
        [10, 0, 200, 1],
        [10, 1, 200, 1],
        [10, 200, 0, 1],
        [11, 0, 0, 1],
    ];
    let flows = [([1, 2, 3, 4], 17, 5000), ([192, 168, 1, 5], 6, 80), ([192, 168, 2, 5], 6, 443)];
    dsts.iter()
        .flat_map(|&dst| {
            flows.iter().map(move |&(src, proto, dst_port)| Packet {
                dst_ip: u32::from_be_bytes(dst),
                src_ip: u32::from_be_bytes(src),
                proto,
                dst_port,
                ..Default::default()
            })
        })
        .collect()
}

/// Property body: drive `batches` of [`RuleOp`]s through an indexed
/// model and a full-scan oracle under each of the three update orders.
/// After every batch the two summaries agree, `check_invariants` (the
/// unpruned first-match evaluation of every table) holds, and every
/// probe packet gets the naive oracle's action at every element.
pub fn check_replacements(batches: &[Vec<RuleOp>]) {
    let elements: Vec<ElementKey> = (0..2)
        .flat_map(|d| [ElementKey::Forward(NodeId(d)), ElementKey::Filter(NodeId(d), IfaceId(0), Dir::In)])
        .collect();
    let probes = replacement_probes();
    for order in [UpdateOrder::InsertFirst, UpdateOrder::DeleteFirst, UpdateOrder::AsGiven] {
        let mut indexed = ApkModel::new();
        let mut oracle = ApkModel::new();
        oracle.set_full_scan(true);
        // Rule identity → its current action.
        let mut live: BTreeMap<(ElementKey, u32, RuleMatch), PortAction> = BTreeMap::new();
        for (i, ops) in batches.iter().enumerate() {
            let mut batch = Vec::new();
            let mut touched = BTreeSet::new();
            for op in ops {
                let fresh = op.rule(op.action);
                let id = (fresh.element, fresh.priority, fresh.rule_match);
                // Batches derive from set deltas: one update pair per
                // rule identity.
                if !touched.insert(id) {
                    continue;
                }
                let Some(old) = live.remove(&id) else {
                    live.insert(id, fresh.action.clone());
                    batch.push(RuleUpdate::Insert(fresh));
                    continue;
                };
                batch.push(RuleUpdate::Remove(ModelRule { action: old.clone(), ..fresh.clone() }));
                if op.replace {
                    let new = if fresh.action != old { fresh } else { op.rule(op.action.wrapping_add(1)) };
                    live.insert(id, new.action.clone());
                    batch.push(RuleUpdate::Insert(new));
                }
            }
            let s_indexed = indexed.apply_batch(batch.clone(), order);
            let s_oracle = oracle.apply_batch(batch, order);
            assert_eq!(s_indexed, s_oracle, "{order:?}: summaries diverge at batch {i}");
            indexed.check_invariants();

            let rules: BTreeSet<ModelRule> = live
                .iter()
                .map(|(&(element, priority, rule_match), action)| ModelRule {
                    element,
                    priority,
                    rule_match,
                    action: action.clone(),
                })
                .collect();
            for pkt in &probes {
                let ec = indexed.ec_of_packet(pkt);
                for &key in &elements {
                    let got = indexed.action(key, ec).cloned().unwrap_or(match key {
                        ElementKey::Forward(_) => PortAction::Drop,
                        ElementKey::Filter(..) => PortAction::Permit,
                    });
                    let want = naive_action(&rules, key, pkt);
                    assert_eq!(got, want, "{order:?}, batch {i}: {key:?} on {pkt:?}");
                }
            }
        }
        oracle.check_invariants();
    }
}

/// Coalesce sorted disjoint intervals that touch, so covers extracted
/// from the two predicate backends compare canonically (the BDD walk
/// may legally report `[a,b],[b+1,c]` where the atom store keeps one
/// merged interval).
pub fn coalesce(mut v: Vec<(u32, u32)>) -> Vec<(u32, u32)> {
    v.sort_unstable();
    let mut out: Vec<(u32, u32)> = Vec::with_capacity(v.len());
    for (lo, hi) in v {
        match out.last_mut() {
            Some(last) if lo <= last.1.saturating_add(1) => last.1 = last.1.max(hi),
            _ => out.push((lo, hi)),
        }
    }
    out
}

/// Property body: the Delta-net interval-atom backend must be
/// observationally identical to the BDD backend on a dst-prefix-only
/// workload — byte-identical `BatchSummary` per batch, in-batch merges
/// included, identical EC partitions
/// (compared as canonical dst-interval covers), identical per-EC
/// actions, and identical `ecs_intersecting` answers — with invariants
/// holding throughout on both sides.
///
/// EC ids line up for the same reason as in
/// [`check_indexed_matches_full_scan`]: split/merge decisions depend
/// only on predicate *semantics*, which the backends share on this
/// workload, and candidates are probed in ascending id order.
pub fn check_backends_agree(seq: &[AbstractRule], order_bits: u64) {
    let mut with_bdd = ApkModel::with_backend(rc_bdd::PredKind::Bdd);
    let mut with_atoms = ApkModel::with_backend(rc_bdd::PredKind::Atoms);
    assert_eq!(with_atoms.backend(), rc_bdd::PredKind::Atoms);
    let mut live: BTreeSet<ModelRule> = BTreeSet::new();

    for (i, chunk) in seq.chunks(3).enumerate() {
        let mut batch = Vec::new();
        let mut touched: BTreeSet<ModelRule> = BTreeSet::new();
        for a in chunk {
            // The atoms backend encodes destination-IP matches only:
            // force the FIB (non-ACL) shape of every abstract rule.
            let r = rule_of(&AbstractRule { acl: false, ..a.clone() });
            if !touched.insert(r.clone()) {
                continue;
            }
            if live.contains(&r) {
                live.remove(&r);
                batch.push(RuleUpdate::Remove(r));
            } else {
                live.insert(r.clone());
                batch.push(RuleUpdate::Insert(r));
            }
        }
        let order = match (order_bits >> (2 * i)) & 3 {
            0 => UpdateOrder::InsertFirst,
            1 => UpdateOrder::DeleteFirst,
            _ => UpdateOrder::AsGiven,
        };
        let s_bdd = with_bdd.apply_batch(batch.clone(), order);
        let s_atoms = with_atoms.apply_batch(batch, order);
        assert_eq!(s_bdd, s_atoms, "backend summaries diverge at batch {i}");
        assert_eq!(with_bdd.num_ecs(), with_atoms.num_ecs());
        with_bdd.check_invariants();
        with_atoms.check_invariants();
    }

    // Identical EC partitions: same ids, and per id the same packet
    // set, compared as canonical dst-interval covers (a cap of
    // usize::MAX makes the BDD cover exact too).
    let ecs: Vec<EcId> = with_bdd.ecs().collect();
    assert_eq!(ecs, with_atoms.ecs().collect::<Vec<_>>());
    for &ec in &ecs {
        let p_bdd = with_bdd.ec_pred(ec);
        let p_atoms = with_atoms.ec_pred(ec);
        let c_bdd =
            coalesce(with_bdd.preds().pkt_dst_cover(p_bdd, usize::MAX).into_intervals());
        let c_atoms =
            coalesce(with_atoms.preds().pkt_dst_cover(p_atoms, usize::MAX).into_intervals());
        assert_eq!(c_bdd, c_atoms, "EC {ec:?} covers diverge");
    }

    // Identical actions per (element, EC).
    let elements: BTreeSet<ElementKey> = live.iter().map(|r| r.element).collect();
    for &key in &elements {
        for &ec in &ecs {
            assert_eq!(with_bdd.action(key, ec), with_atoms.action(key, ec));
        }
    }

    // Identical candidate-narrowed intersection answers across the
    // generated prefix space.
    for base in 0u8..4 {
        for len in [8u32, 12, 16, 24] {
            let p = Prefix::new(Ip::new(10, base, 0, 0), len as u8);
            let q_bdd = with_bdd.preds().pkt_prefix(rc_bdd::pkt::Field::DstIp, p.addr().0, len);
            let q_atoms =
                with_atoms.preds().pkt_prefix(rc_bdd::pkt::Field::DstIp, p.addr().0, len);
            assert_eq!(
                with_bdd.ecs_intersecting(q_bdd),
                with_atoms.ecs_intersecting(q_atoms),
                "ecs_intersecting diverges on {p:?}"
            );
        }
    }
}

/// Property body: inserting the deduplicated `seq` under each of the
/// three update orders must yield identical observable behaviour.
pub fn check_order_independent(seq: &[AbstractRule]) {
    let batch: Vec<RuleUpdate> =
        seq.iter().map(|a| RuleUpdate::Insert(rule_of(a))).collect::<BTreeSet<_>>()
            .into_iter().collect();
    let probe_pkts: Vec<Packet> = (0..6)
        .map(|i| Packet { dst_ip: u32::from_be_bytes([10, i, 128, 1]), proto: 6, ..Default::default() })
        .collect();
    let elements: BTreeSet<ElementKey> = batch.iter().map(|u| u.rule().element).collect();

    let mut results = Vec::new();
    for order in [UpdateOrder::InsertFirst, UpdateOrder::DeleteFirst, UpdateOrder::AsGiven] {
        let mut m = ApkModel::new();
        m.apply_batch(batch.clone(), order);
        m.check_invariants();
        let obs: Vec<PortAction> = probe_pkts
            .iter()
            .flat_map(|pkt| {
                let ec = m.ec_of_packet(pkt);
                elements.iter().map(move |&k| (k, ec)).collect::<Vec<_>>()
            })
            .map(|(k, ec)| m.action(k, ec).cloned().unwrap())
            .collect();
        results.push(obs);
    }
    assert_eq!(&results[0], &results[1]);
    assert_eq!(&results[0], &results[2]);
}
