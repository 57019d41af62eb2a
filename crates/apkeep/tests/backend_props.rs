//! Differential property tests between the two predicate backends:
//! on dst-prefix-only workloads, the Delta-net interval-atom store and
//! the BDD manager must be observationally indistinguishable — same
//! batch summaries (merges included), EC partitions, actions and
//! intersection answers over random rule/link churn.
//!
//! Alongside the random suite, this file pins the two interval-algebra
//! shapes most likely to diverge (split exactly at an interval
//! boundary, adjacent intervals the atom store coalesces but a BDD
//! keeps apart) and the >`INTERVAL_CAP` hull-fallback path of the dst
//! index.

mod common;

use common::{check_backends_agree, coalesce, AbstractRule};
use proptest::prelude::*;
use rc_apkeep::*;
use rc_bdd::PredKind;
use rc_netcfg::types::{IfaceId, Ip, NodeId, Prefix};

fn arb_dst_rules() -> impl Strategy<Value = Vec<AbstractRule>> {
    prop::collection::vec(
        (0u32..3, 0u8..3, 8u8..=16, 0u32..4).prop_map(|(device, base, len, iface)| {
            AbstractRule { device, base, len, iface, acl: false }
        }),
        1..20,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random dst-prefix churn: atoms and BDD backends agree on every
    /// observable, batch by batch.
    #[test]
    fn backends_agree_on_dst_prefix_churn(
        seq in arb_dst_rules(),
        order_bits in any::<u64>(),
    ) {
        check_backends_agree(&seq, order_bits);
    }
}

/// Pinned: a more-specific insert whose interval ends exactly at the
/// boundary of the covering prefix's interval. 10.1.0.0/16 splits
/// 10.0.0.0/8 at [10.1.0.0, 10.1.255.255] — the split's upper edge is
/// an interval endpoint in the atom store; removing the /8 afterwards
/// merges across that same boundary.
#[test]
fn pinned_split_at_interval_boundary() {
    let seq = [
        AbstractRule { device: 0, base: 1, len: 8, iface: 0, acl: false },
        AbstractRule { device: 0, base: 1, len: 16, iface: 1, acl: false },
        AbstractRule { device: 1, base: 1, len: 16, iface: 2, acl: false },
        // Toggle semantics of check_backends_agree: repeating the /8
        // rule removes it, forcing the merge back across the boundary.
        AbstractRule { device: 0, base: 1, len: 8, iface: 0, acl: false },
    ];
    for order_bits in [0u64, 0b01_01_01, 0b10_10_10] {
        check_backends_agree(&seq, order_bits);
    }
}

/// Pinned: two prefixes whose intervals are adjacent (10.0.0.0/16 ends
/// at 10.0.255.255; 10.1.0.0/16 starts at 10.1.0.0). When one EC comes
/// to cover both, the atom store canonicalizes them into a single
/// interval while the BDD keeps two subtrees — covers must still
/// compare equal, and subsequent splits must land identically.
#[test]
fn pinned_adjacent_interval_merge() {
    let seq = [
        AbstractRule { device: 0, base: 0, len: 16, iface: 1, acl: false },
        AbstractRule { device: 0, base: 1, len: 16, iface: 1, acl: false },
        // A second device splits the merged region from outside.
        AbstractRule { device: 1, base: 0, len: 15, iface: 2, acl: false },
        AbstractRule { device: 1, base: 1, len: 16, iface: 3, acl: false },
    ];
    for order_bits in [0u64, 0b01_01_01, 0b10_10_10] {
        check_backends_agree(&seq, order_bits);
    }
}

fn wide_rule(octet: u8, iface: u32) -> ModelRule {
    ModelRule {
        element: ElementKey::Forward(NodeId(0)),
        priority: 16,
        rule_match: RuleMatch::DstPrefix(Prefix::new(Ip::new(10, octet, 0, 0), 16)),
        action: PortAction::forward(vec![IfaceId(iface)]),
    }
}

/// Regression for the dst-index hull fallback: an EC whose predicate
/// spans more than `INTERVAL_CAP` (16) disjoint, non-adjacent
/// intervals. Extraction bails past the cap and the index stores the
/// [min, max] hull instead — a sound over-approximation (candidates
/// are exactly filtered afterwards), never a pruning basis. The
/// indexed model must stay byte-identical to the full-scan oracle
/// through the hull regime, including on probes that fall in the
/// hull's gaps.
#[test]
fn hull_fallback_past_interval_cap() {
    let mut indexed = ApkModel::new();
    let mut oracle = ApkModel::new();
    oracle.set_full_scan(true);

    // 17 disjoint non-adjacent /16s (even second octets), same action:
    // the batch's merge step folds them into one EC with 17 intervals.
    let batch: Vec<RuleUpdate> =
        (0u8..17).map(|i| RuleUpdate::Insert(wide_rule(2 * i, 1))).collect();
    let s_i = indexed.apply_batch(batch.clone(), UpdateOrder::InsertFirst);
    let s_o = oracle.apply_batch(batch, UpdateOrder::InsertFirst);
    assert_eq!(s_i, s_o);
    assert_eq!(s_i.merges.len(), 16);
    assert_eq!(indexed.num_ecs(), 2, "17 same-action prefixes + the default EC");
    indexed.check_invariants();
    oracle.check_invariants();

    // The merged EC really is past the cap: its exact cover has 17
    // intervals (the complement EC has 18 — both exceed the cap).
    let ec_preds: Vec<rc_bdd::Ref> = {
        let ecs: Vec<EcId> = indexed.ecs().collect();
        ecs.iter().map(|&ec| indexed.ec_pred(ec)).collect()
    };
    let pred = *ec_preds
        .iter()
        .find(|&&p| {
            coalesce(indexed.preds().pkt_dst_cover(p, usize::MAX).into_intervals()).len() == 17
        })
        .expect("one EC covers the 17 disjoint prefixes");
    let exact = coalesce(indexed.preds().pkt_dst_cover(pred, usize::MAX).into_intervals());
    assert_eq!(exact.len(), 17);
    match indexed.preds().pkt_dst_cover(pred, 16) {
        rc_bdd::Cover::Hull(lo, hi) => {
            // The hull encloses every exact interval.
            assert!(exact.iter().all(|&(a, b)| lo <= a && b <= hi));
        }
        rc_bdd::Cover::Exact(v) => panic!("expected hull past the cap, got exact {v:?}"),
    }

    // Churn through the hull regime: split inside one of the covered
    // /16s, insert into a gap, then remove — summaries stay identical.
    let churn: Vec<(Vec<RuleUpdate>, UpdateOrder)> = vec![
        (
            vec![RuleUpdate::Insert(ModelRule {
                element: ElementKey::Forward(NodeId(0)),
                priority: 24,
                rule_match: RuleMatch::DstPrefix(Prefix::new(Ip::new(10, 4, 128, 0), 24)),
                action: PortAction::forward(vec![IfaceId(2)]),
            })],
            UpdateOrder::InsertFirst,
        ),
        // A gap octet (odd): candidates from the hull must be exactly
        // filtered, not split.
        (
            vec![RuleUpdate::Insert(wide_rule(5, 3))],
            UpdateOrder::DeleteFirst,
        ),
        (
            vec![RuleUpdate::Remove(wide_rule(8, 1))],
            UpdateOrder::InsertFirst,
        ),
    ];
    for (batch, order) in churn {
        let s_i = indexed.apply_batch(batch.clone(), order);
        let s_o = oracle.apply_batch(batch, order);
        assert_eq!(s_i, s_o, "indexed and full-scan diverge in the hull regime");
        indexed.check_invariants();
        oracle.check_invariants();
    }

    // Intersection answers agree on in-gap, in-cover and out-of-hull
    // probes.
    for octet in [0u8, 1, 4, 5, 8, 31, 40, 200] {
        let q_i = indexed.preds().pkt_prefix(rc_bdd::pkt::Field::DstIp, u32::from_be_bytes([10, octet, 0, 0]), 16);
        let q_o = oracle.preds().pkt_prefix(rc_bdd::pkt::Field::DstIp, u32::from_be_bytes([10, octet, 0, 0]), 16);
        assert_eq!(indexed.ecs_intersecting(q_i), oracle.ecs_intersecting(q_o), "octet {octet}");
    }
}

/// The hull regime behaves identically under the atoms backend (whose
/// covers are always exact, so it never takes the hull path): both
/// backends, both index modes, one truth.
#[test]
fn hull_workload_agrees_across_backends() {
    let mut with_bdd = ApkModel::with_backend(PredKind::Bdd);
    let mut with_atoms = ApkModel::with_backend(PredKind::Atoms);
    let batch: Vec<RuleUpdate> =
        (0u8..17).map(|i| RuleUpdate::Insert(wide_rule(2 * i, 1))).collect();
    let s_b = with_bdd.apply_batch(batch.clone(), UpdateOrder::InsertFirst);
    let s_a = with_atoms.apply_batch(batch, UpdateOrder::InsertFirst);
    assert_eq!(s_b, s_a);
    with_bdd.check_invariants();
    with_atoms.check_invariants();
    let ecs: Vec<EcId> = with_bdd.ecs().collect();
    assert_eq!(ecs, with_atoms.ecs().collect::<Vec<_>>());
    for &ec in &ecs {
        let p_b = with_bdd.ec_pred(ec);
        let p_a = with_atoms.ec_pred(ec);
        assert_eq!(
            coalesce(with_bdd.preds().pkt_dst_cover(p_b, usize::MAX).into_intervals()),
            coalesce(with_atoms.preds().pkt_dst_cover(p_a, usize::MAX).into_intervals()),
        );
    }
}
