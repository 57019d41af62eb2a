//! Pinned counterexamples from `props.proptest-regressions`.
//!
//! The `cc <seed>` lines in that file encode upstream-proptest RNG
//! seeds which only replay under the original generator; the
//! "shrinks to" comments, however, give the exact shrunk inputs. Each
//! test here replays one of those inputs through the same property
//! body as `props.rs`, so the historical failure modes stay covered
//! deterministically regardless of the RNG backing the random suite.

mod common;

use common::{
    check_model_matches_naive, check_order_independent, check_replacements, AbstractRule, RuleOp,
};

/// A FIB rule on device 0 for `10.hi.lo.0/len`.
fn fib(hi: u8, lo: u8, len: u8, action: u8, replace: bool) -> RuleOp {
    RuleOp { device: 0, hi, lo, len, acl: None, action, replace }
}

/// An ACL entry on device 0's filter for `10.1.lo.0/len`.
fn acl(lo: u8, len: u8, src: u8, ports: u8, action: u8, replace: bool) -> RuleOp {
    RuleOp { acl: Some((src, ports)), ..fib(1, lo, len, action, replace) }
}

/// The `FibGrouper` shape: `10.1.0.0/16` swaps its action (Remove +
/// Insert of the same match) under a live /24 and a /0; then the /24
/// goes, and its packets must fall through to the /16's *new* port —
/// under every update order. Under insert-first the two /16 rules
/// coexist mid-batch and the new one must reuse its twin's predicate,
/// not that of `10.0.0.0/16`, which has the same priority and sits
/// right before it in table order (the new action sorts first).
#[test]
fn replaced_rule_catches_what_a_removed_more_specific_drops() {
    check_replacements(&[
        vec![
            fib(0, 0, 0, 0, false),
            fib(0, 0, 16, 1, false),
            fib(1, 0, 16, 2, false),
            fib(1, 1, 24, 1, false),
        ],
        vec![fib(1, 0, 16, 0, true)],
        vec![fib(1, 1, 24, 1, false)],
    ]);
}

/// The ACL analogue: entries whose dst prefixes overlap but whose
/// source prefixes and port ranges differ — a dst-prefix test alone
/// cannot tell them apart, so none of them may be pruned from the
/// other's chains.
#[test]
fn replaced_acl_entry_catches_what_a_removed_overlapping_entry_drops() {
    check_replacements(&[
        vec![acl(0, 0, 2, 2, 0, false), acl(0, 16, 1, 0, 1, false), acl(1, 24, 0, 1, 1, false)],
        vec![acl(0, 16, 1, 0, 0, true)],
        vec![acl(1, 24, 0, 1, 1, false)],
    ]);
}

/// `cc 384f6ea2…`: a single ACL rule. Historically the filter element
/// was created with an EC table that disagreed with the naive oracle's
/// default-permit behaviour under the three update orders.
#[test]
fn single_acl_rule_is_order_independent() {
    let seq = [AbstractRule { device: 0, base: 0, len: 8, iface: 1, acl: true }];
    check_order_independent(&seq);
}

/// `cc 0042fba4…`: two same-length forwarding prefixes on one device
/// whose canonical prefixes collide (base 0 vs base 1 under /12).
/// Exercises same-priority tie-breaking in the rule table.
#[test]
fn colliding_canonical_prefixes_are_order_independent() {
    let seq = [
        AbstractRule { device: 1, base: 0, len: 12, iface: 0, acl: false },
        AbstractRule { device: 1, base: 1, len: 12, iface: 0, acl: false },
    ];
    check_order_independent(&seq);
}

/// `cc cdf4a204…`: a rule re-inserted after removal across batches with
/// a mixed insert/delete order schedule. Exercises EC split/merge when
/// the same rule toggles in and out of the live set.
#[test]
fn rule_reinsertion_across_batches_matches_naive() {
    let seq = [
        AbstractRule { device: 0, base: 0, len: 8, iface: 0, acl: false },
        AbstractRule { device: 0, base: 0, len: 11, iface: 0, acl: false },
        AbstractRule { device: 0, base: 0, len: 8, iface: 0, acl: false },
        AbstractRule { device: 0, base: 0, len: 8, iface: 0, acl: false },
        AbstractRule { device: 0, base: 0, len: 8, iface: 0, acl: false },
    ];
    let order_bits = 14005871327503184529u64;
    let probes = [(0u8, 0u8, false); 8];
    check_model_matches_naive(&seq, order_bits, &probes);
}
