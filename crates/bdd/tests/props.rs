//! Property-based tests: BDD operations must agree with a naive
//! truth-table model over a small variable universe, and the packet
//! encoders must agree with direct arithmetic on sampled packets.

use proptest::prelude::*;
use rc_bdd::pkt::{Field, Packet};
use rc_bdd::{Bdd, Ref};

/// A tiny boolean-expression AST we can evaluate both ways.
#[derive(Clone, Debug)]
enum Expr {
    Var(u32),
    Not(Box<Expr>),
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
    Diff(Box<Expr>, Box<Expr>),
}

const NVARS: u32 = 6;

fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = (0..NVARS).prop_map(Expr::Var);
    leaf.prop_recursive(5, 64, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(|e| Expr::Not(Box::new(e))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Or(Box::new(a), Box::new(b))),
            (inner.clone(), inner).prop_map(|(a, b)| Expr::Diff(Box::new(a), Box::new(b))),
        ]
    })
}

fn eval_expr(e: &Expr, assignment: u32) -> bool {
    match e {
        Expr::Var(v) => (assignment >> v) & 1 == 1,
        Expr::Not(a) => !eval_expr(a, assignment),
        Expr::And(a, b) => eval_expr(a, assignment) && eval_expr(b, assignment),
        Expr::Or(a, b) => eval_expr(a, assignment) || eval_expr(b, assignment),
        Expr::Diff(a, b) => eval_expr(a, assignment) && !eval_expr(b, assignment),
    }
}

fn build_bdd(b: &mut Bdd, e: &Expr) -> Ref {
    match e {
        Expr::Var(v) => b.var(*v),
        Expr::Not(a) => {
            let x = build_bdd(b, a);
            b.diff(Ref::TRUE, x)
        }
        Expr::And(x, y) => {
            let (x, y) = (build_bdd(b, x), build_bdd(b, y));
            b.and(x, y)
        }
        Expr::Or(x, y) => {
            let (x, y) = (build_bdd(b, x), build_bdd(b, y));
            b.or(x, y)
        }
        Expr::Diff(x, y) => {
            let (x, y) = (build_bdd(b, x), build_bdd(b, y));
            b.diff(x, y)
        }
    }
}

proptest! {
    /// BDD evaluation agrees with the AST on every assignment.
    #[test]
    fn bdd_matches_truth_table(e in arb_expr()) {
        let mut b = Bdd::new();
        let f = build_bdd(&mut b, &e);
        for assignment in 0..(1u32 << NVARS) {
            let expect = eval_expr(&e, assignment);
            let got = b.eval(f, |v| (assignment >> v) & 1 == 1);
            prop_assert_eq!(got, expect);
        }
    }

    /// Two semantically equal expressions hash-cons to the same Ref.
    #[test]
    fn canonicity(e in arb_expr()) {
        let mut b = Bdd::new();
        let f = build_bdd(&mut b, &e);
        // ¬¬e and e ∨ e and e ∧ true must all be the identical node.
        let nf = b.diff(Ref::TRUE, f);
        prop_assert_eq!(b.diff(Ref::TRUE, nf), f);
        prop_assert_eq!(b.or(f, f), f);
        prop_assert_eq!(b.and(f, Ref::TRUE), f);
        // Rebuilding e gives the same node, and e splits into e ∧ x and
        // e ∖ x for any variable x.
        let g = build_bdd(&mut b, &e);
        prop_assert_eq!(g, f);
        let x = b.var(0);
        let (fx, f_x) = (b.and(f, x), b.diff(f, x));
        prop_assert_eq!(b.or(fx, f_x), f);
    }

    /// Prefix encoding agrees with integer arithmetic.
    #[test]
    fn prefix_encoding(value: u32, len in 0u32..=32, dst: u32) {
        let mut b = Bdd::new();
        let p = b.pkt_prefix(Field::DstIp, value, len);
        let mask = if len == 0 { 0 } else { u32::MAX << (32 - len) };
        let expect = (dst & mask) == (value & mask);
        let pkt = Packet { dst_ip: dst, ..Default::default() };
        prop_assert_eq!(b.pkt_eval(p, &pkt), expect);
    }

    /// Range encoding agrees with integer comparison at and around both
    /// bounds, whatever the other header fields carry.
    #[test]
    fn range_encoding(a: u16, c: u16, sample: u16, dst: u32, src: u32, proto: u8, sport: u16) {
        let (lo, hi) = (a.min(c), a.max(c));
        let mut b = Bdd::new();
        let p = b.pkt_range(Field::DstPort, lo as u32, hi as u32);
        let probe =
            |port: u16| Packet { dst_ip: dst, src_ip: src, proto, src_port: sport, dst_port: port };
        prop_assert_eq!(b.pkt_eval(p, &probe(sample)), sample >= lo && sample <= hi);
        prop_assert!(b.pkt_eval(p, &probe(lo)));
        prop_assert!(b.pkt_eval(p, &probe(hi)));
        if let Some(below) = lo.checked_sub(1) {
            prop_assert!(!b.pkt_eval(p, &probe(below)));
        }
        if let Some(above) = hi.checked_add(1) {
            prop_assert!(!b.pkt_eval(p, &probe(above)));
        }
    }
}
