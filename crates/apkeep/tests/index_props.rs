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

mod common;

use common::{check_indexed_matches_full_scan, AbstractRule};
use proptest::prelude::*;

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
