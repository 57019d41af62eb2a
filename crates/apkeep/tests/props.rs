//! Property tests: after any sequence of random rule batches, the EC
//! model's invariants hold and its packet-level behaviour matches a
//! naive first-match evaluation of the rule tables.
//!
//! The checkable bodies live in `common/mod.rs`, shared with
//! `regressions.rs` which pins the counterexamples recorded in
//! `props.proptest-regressions`.

mod common;

use common::{
    check_model_matches_naive, check_order_independent, check_replacements, AbstractRule, RuleOp,
};
use proptest::prelude::*;

fn arb_rules() -> impl Strategy<Value = Vec<AbstractRule>> {
    prop::collection::vec(
        (0u32..3, 0u8..3, 8u8..=16, 0u32..4, any::<bool>()).prop_map(
            |(device, base, len, iface, acl)| AbstractRule { device, base, len, iface, acl },
        ),
        1..20,
    )
}

/// Batches of 1–3 ops over two devices: the default route and nested
/// /8–/24 prefixes, FIB rules and ACL entries, with replacements.
fn arb_replacement_batches() -> impl Strategy<Value = Vec<Vec<RuleOp>>> {
    let op = (
        0u32..2,
        0u8..2,
        0u8..2,
        0usize..5,
        prop::option::of((0u8..3, 0u8..3)),
        any::<u8>(),
        any::<bool>(),
    )
        .prop_map(|(device, hi, lo, len, acl, action, replace)| RuleOp {
            device,
            hi,
            lo,
            len: [0, 8, 16, 20, 24][len],
            acl,
            action,
            replace,
        });
    prop::collection::vec(prop::collection::vec(op, 1..=3), 1..12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn model_matches_naive_evaluation(
        seq in arb_rules(),
        order_bits in any::<u64>(),
        probes in prop::collection::vec((0u8..4, any::<u8>(), any::<bool>()), 8),
    ) {
        check_model_matches_naive(&seq, order_bits, &probes);
    }

    /// Update order never changes the final model, only churn.
    #[test]
    fn final_state_is_order_independent(seq in arb_rules()) {
        check_order_independent(&seq);
    }
}

proptest! {
    // Each case runs three update orders and probes the naive oracle
    // after every batch.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Action swaps of a live rule (Remove + Insert of the same match),
    /// removals and insertions under every update order: the packet
    /// behaviour matches the naive oracle and the full-scan model.
    #[test]
    fn replacements_match_naive_and_full_scan(batches in arb_replacement_batches()) {
        check_replacements(&batches);
    }
}
