//! Property tests of the dst-interval EC index: across random rule
//! batches (with the splits and merges they make), the indexed model
//! must produce byte-identical `BatchSummary` output to a full-scan
//! oracle model, agree on
//! `ecs_intersecting`, and keep `check_invariants` green — which
//! verifies the interval map and the per-element inverted port index
//! against the ground-truth EC table.
//!
//! The shared body lives in `common/mod.rs` next to the behavioural
//! oracle used by `props.rs`.
//!
//! Alongside the random suite, this file pins the two interval shapes
//! where a cover is most likely to go wrong (a split exactly at an
//! interval boundary, adjacent intervals) and the >`INTERVAL_CAP`
//! hull-fallback path of the dst index.

mod common;

use common::{check_indexed_matches_full_scan, coalesce, AbstractRule};
use proptest::prelude::*;
use rc_apkeep::*;
use rc_netcfg::types::{IfaceId, Ip, NodeId, Prefix};

fn arb_rules() -> impl Strategy<Value = Vec<AbstractRule>> {
    prop::collection::vec(
        (0u32..3, 0u8..3, 8u8..=16, 0u32..4, any::<bool>()).prop_map(
            |(device, base, len, iface, acl)| AbstractRule { device, base, len, iface, acl },
        ),
        1..20,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn indexed_model_matches_full_scan_oracle(
        seq in arb_rules(),
        order_bits in any::<u64>(),
    ) {
        check_indexed_matches_full_scan(&seq, order_bits);
    }
}

/// The EC partition as sorted canonical dst-interval covers (a cap of
/// `usize::MAX` makes every cover exact).
fn covers(model: &mut ApkModel) -> Vec<Vec<(u32, u32)>> {
    let preds: Vec<rc_bdd::Ref> = model.ecs().map(|ec| model.ec_pred(ec)).collect();
    let mut out: Vec<_> = preds
        .into_iter()
        .map(|p| coalesce(model.preds().pkt_dst_cover(p, usize::MAX).into_intervals()))
        .collect();
    out.sort();
    out
}

/// Pinned: a more-specific insert whose interval ends exactly at the
/// boundary of the covering prefix's interval. 10.1.0.0/16 splits
/// 10.0.0.0/8 at [10.1.0.0, 10.1.255.255]; removing the /8 afterwards
/// merges across that same boundary, leaving the /16 and its
/// complement.
#[test]
fn pinned_split_at_interval_boundary() {
    let seq = [
        AbstractRule { device: 0, base: 1, len: 8, iface: 0, acl: false },
        AbstractRule { device: 0, base: 1, len: 16, iface: 1, acl: false },
        AbstractRule { device: 1, base: 1, len: 16, iface: 2, acl: false },
        // Toggle semantics of check_indexed_matches_full_scan:
        // repeating the /8 rule removes it, forcing the merge back
        // across the boundary.
        AbstractRule { device: 0, base: 1, len: 8, iface: 0, acl: false },
    ];
    for order_bits in [0u64, 0b01_01_01, 0b10_10_10] {
        let mut model = check_indexed_matches_full_scan(&seq, order_bits);
        assert_eq!(
            covers(&mut model),
            vec![
                vec![(0, 0x0A00_FFFF), (0x0A02_0000, u32::MAX)],
                vec![(0x0A01_0000, 0x0A01_FFFF)],
            ],
            "order bits {order_bits:#b}"
        );
    }
}

/// Pinned: two prefixes whose intervals are adjacent (10.0.0.0/16 ends
/// at 10.0.255.255; 10.1.0.0/16 starts at 10.1.0.0), split again from
/// a second device by the /15 that covers both. The covers stay apart
/// at the shared edge, and the complement is one EC of two intervals.
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
        let mut model = check_indexed_matches_full_scan(&seq, order_bits);
        assert_eq!(
            covers(&mut model),
            vec![
                vec![(0, 0x09FF_FFFF), (0x0A02_0000, u32::MAX)],
                vec![(0x0A00_0000, 0x0A00_FFFF)],
                vec![(0x0A01_0000, 0x0A01_FFFF)],
            ],
            "order bits {order_bits:#b}"
        );
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
        (vec![RuleUpdate::Insert(wide_rule(5, 3))], UpdateOrder::DeleteFirst),
        (vec![RuleUpdate::Remove(wide_rule(8, 1))], UpdateOrder::InsertFirst),
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
        let addr = u32::from_be_bytes([10, octet, 0, 0]);
        let q_i = indexed.preds().pkt_prefix(rc_bdd::pkt::Field::DstIp, addr, 16);
        let q_o = oracle.preds().pkt_prefix(rc_bdd::pkt::Field::DstIp, addr, 16);
        assert_eq!(indexed.ecs_intersecting(q_i), oracle.ecs_intersecting(q_o), "octet {octet}");
    }
}
