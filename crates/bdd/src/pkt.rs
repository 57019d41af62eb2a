//! Packet-header variable layout and encoders.
//!
//! RealConfig reasons about packets with five header fields. Each field
//! occupies a contiguous block of BDD variables, most significant bit
//! first. The destination IP gets the lowest variable indices because
//! forwarding state (FIBs) branches almost exclusively on it — keeping it
//! near the root keeps FIB predicates small.

use crate::manager::Bdd;
use crate::node::{Ref, Var};

/// A packet header field.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Field {
    DstIp,
    SrcIp,
    Proto,
    SrcPort,
    DstPort,
}

impl Field {
    /// Width of the field in bits.
    pub fn width(self) -> u32 {
        match self {
            Field::DstIp | Field::SrcIp => 32,
            Field::Proto => 8,
            Field::SrcPort | Field::DstPort => 16,
        }
    }

    /// First BDD variable of the field's block.
    pub fn offset(self) -> Var {
        match self {
            Field::DstIp => 0,
            Field::SrcIp => 32,
            Field::Proto => 64,
            Field::SrcPort => 72,
            Field::DstPort => 88,
        }
    }
}

/// The destination-IP projection of a predicate.
///
/// An address is *covered* when some satisfying packet carries it. The
/// two variants make the exact/approximate distinction explicit at the
/// type level: an [`Exact`](Cover::Exact) cover may be used both to find
/// candidates and to prune, while a [`Hull`](Cover::Hull) is an
/// over-approximation and is sound **only** for candidate generation —
/// an address inside the hull may still be uncovered, so a hull must
/// never be used to rule anything out.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Cover {
    /// The exact projection: sorted, disjoint, non-adjacent inclusive
    /// intervals. Empty iff the predicate is unsatisfiable.
    Exact(Vec<(u32, u32)>),
    /// The `[min, max]` hull of the projection, emitted when the exact
    /// cover would exceed the caller's interval cap.
    Hull(u32, u32),
}

impl Cover {
    /// The cover as an interval list. For a hull this is the single
    /// `[min, max]` interval — an over-approximation of the projection.
    pub fn into_intervals(self) -> Vec<(u32, u32)> {
        match self {
            Cover::Exact(iv) => iv,
            Cover::Hull(lo, hi) => vec![(lo, hi)],
        }
    }
}

/// A concrete packet, used to evaluate predicates.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Packet {
    pub dst_ip: u32,
    pub src_ip: u32,
    pub proto: u8,
    pub src_port: u16,
    pub dst_port: u16,
}

impl Packet {
    /// Value of BDD variable `v` for this packet.
    pub fn bit(&self, v: Var) -> bool {
        let field_bit = |value: u64, width: u32, idx: u32| -> bool {
            // idx 0 is the MSB.
            (value >> (width - 1 - idx)) & 1 == 1
        };
        match v {
            0..=31 => field_bit(self.dst_ip as u64, 32, v),
            32..=63 => field_bit(self.src_ip as u64, 32, v - 32),
            64..=71 => field_bit(self.proto as u64, 8, v - 64),
            72..=87 => field_bit(self.src_port as u64, 16, v - 72),
            88..=103 => field_bit(self.dst_port as u64, 16, v - 88),
            _ => panic!("packet bit {v} out of range"),
        }
    }
}

impl Bdd {
    /// Predicate matching packets whose `field` equals `value` on its top
    /// `len` bits (an IP-prefix-style match). `len == 0` matches all.
    pub fn pkt_prefix(&mut self, field: Field, value: u32, len: u32) -> Ref {
        assert!(len <= field.width(), "prefix length {len} exceeds field width");
        let off = field.offset();
        let width = field.width();
        // Build bottom-up so variable order is respected cheaply.
        let mut acc = Ref::TRUE;
        for i in (0..len).rev() {
            let bit = (value >> (width - 1 - i)) & 1 == 1;
            let v = off + i;
            let lit = if bit { self.var(v) } else { self.nvar(v) };
            acc = self.and(lit, acc);
        }
        acc
    }

    /// Predicate matching packets whose `field` equals `value` exactly.
    pub fn pkt_value(&mut self, field: Field, value: u32) -> Ref {
        self.pkt_prefix(field, value, field.width())
    }

    /// Predicate matching packets with `lo <= field <= hi` (inclusive).
    pub fn pkt_range(&mut self, field: Field, lo: u32, hi: u32) -> Ref {
        assert!(lo <= hi, "empty range {lo}..={hi}");
        let width = field.width();
        if width < 32 {
            assert!(hi < (1 << width), "range bound exceeds field width");
        }
        let geq = self.bound(field, lo, true);
        let leq = self.bound(field, hi, false);
        self.and(geq, leq)
    }

    /// `x >= value` when `lower`, else `x <= value`, over the field bits.
    fn bound(&mut self, field: Field, value: u32, lower: bool) -> Ref {
        let off = field.offset();
        let width = field.width();
        // Walk from LSB to MSB building the comparison bottom-up.
        let mut acc = Ref::TRUE;
        for i in (0..width).rev() {
            let bit = (value >> (width - 1 - i)) & 1 == 1;
            let v = off + i;
            // For `x >= value` the literal is "x-bit 1": where the value
            // bit is 1 it is required (and), where it is 0 it wins
            // outright (or). `x <= value` mirrors this on "x-bit 0".
            let lit = if lower { self.var(v) } else { self.nvar(v) };
            acc = if bit == lower { self.and(lit, acc) } else { self.or(lit, acc) };
        }
        acc
    }

    /// The header match `proto ∧ src ∧ dst ∧ dst_ports` that ACL rules
    /// and flow policy classes compile to. `src` and `dst` are
    /// `(address, length)` prefixes (length 0 matches all); a single
    /// port is the range `(p, p)`.
    pub fn pkt_match(
        &mut self,
        proto: Option<u8>,
        src: (u32, u32),
        dst: (u32, u32),
        dst_ports: Option<(u16, u16)>,
    ) -> Ref {
        let mut acc = self.pkt_prefix(Field::SrcIp, src.0, src.1);
        let d = self.pkt_prefix(Field::DstIp, dst.0, dst.1);
        acc = self.and(acc, d);
        if let Some(pr) = proto {
            let p = self.pkt_value(Field::Proto, pr as u32);
            acc = self.and(acc, p);
        }
        if let Some((lo, hi)) = dst_ports {
            let r = self.pkt_range(Field::DstPort, lo as u32, hi as u32);
            acc = self.and(acc, r);
        }
        acc
    }

    /// Evaluate `a` under a total assignment: `assignment(v)` gives the
    /// value of variable `v`.
    pub fn eval<F: Fn(Var) -> bool>(&self, a: Ref, assignment: F) -> bool {
        let mut r = a;
        while !r.is_terminal() {
            let n = self.node(r);
            r = if assignment(n.var) { n.hi } else { n.lo };
        }
        r.is_true()
    }

    /// Evaluate a predicate on a concrete packet.
    pub fn pkt_eval(&self, pred: Ref, pkt: &Packet) -> bool {
        self.eval(pred, |v| pkt.bit(v))
    }

    /// Bounds `(min, max)` of the destination-IP projection of `pred` —
    /// the smallest and largest dst addresses carried by some satisfying
    /// packet. `None` iff `pred` is unsatisfiable.
    ///
    /// Exact, in one walk per bound: the dst-ip block occupies the
    /// topmost BDD variables, so below the first non-dst variable every
    /// non-FALSE subtree accepts *some* completion, and within the dst
    /// block the extreme is found greedily (prefer the hi/lo branch, fall
    /// back to the sibling when it is FALSE; skipped variables are free
    /// and take the extreme value).
    fn pkt_dst_bounds(&self, pred: Ref) -> Option<(u32, u32)> {
        if pred.is_false() {
            return None;
        }
        let dst_width = Field::DstIp.width();
        let extreme = |prefer_hi: bool| -> u32 {
            // Free (untested) bits default to the extreme value.
            let mut value = if prefer_hi { u32::MAX } else { 0 };
            let mut r = pred;
            while !r.is_true() && self.var_of(r) < dst_width {
                let n = self.node(r);
                let v = self.var_of(r);
                let bit = 1u32 << (31 - v);
                let (preferred, fallback) = if prefer_hi { (n.hi, n.lo) } else { (n.lo, n.hi) };
                if !preferred.is_false() {
                    r = preferred;
                } else {
                    // Forced onto the non-preferred branch: flip the bit.
                    if prefer_hi {
                        value &= !bit;
                    } else {
                        value |= bit;
                    }
                    r = fallback;
                }
            }
            value
        };
        Some((extreme(false), extreme(true)))
    }

    /// The destination-IP projection of `pred` as a sorted list of
    /// disjoint, non-adjacent inclusive intervals `[lo, hi]`: a dst
    /// address is covered iff some packet carrying it satisfies `pred`.
    /// Returns `None` (caller falls back to [`Self::pkt_dst_bounds`])
    /// when the exact cover needs more than `cap` intervals — bounded
    /// work: the walk aborts after `cap + 1` emissions.
    fn pkt_dst_intervals(&self, pred: Ref, cap: usize) -> Option<Vec<(u32, u32)>> {
        let mut out = Vec::new();
        if self.dst_intervals_rec(pred, 0, 0, cap, &mut out) {
            Some(out)
        } else {
            None
        }
    }

    /// Emit the dst intervals of `r` restricted to the `2^(32-depth)`
    /// block of addresses starting at `base`. Returns false once `out`
    /// would exceed `cap`.
    fn dst_intervals_rec(
        &self,
        r: Ref,
        depth: u32,
        base: u32,
        cap: usize,
        out: &mut Vec<(u32, u32)>,
    ) -> bool {
        if r.is_false() {
            return true;
        }
        // TRUE, a non-dst subtree, or an exhausted dst block: the whole
        // address block projects true (any non-FALSE subtree is
        // satisfiable in a reduced BDD).
        if depth >= 32 || r.is_true() || self.var_of(r) >= Field::DstIp.width() {
            let hi = if depth >= 32 { base } else { base | (u32::MAX >> depth) };
            return Self::push_interval(out, base, hi, cap);
        }
        let bit = 1u32 << (31 - depth);
        if self.var_of(r) == depth {
            let n = self.node(r);
            self.dst_intervals_rec(n.lo, depth + 1, base, cap, out)
                && self.dst_intervals_rec(n.hi, depth + 1, base | bit, cap, out)
        } else {
            // Bit `depth` is free here: the projection repeats in both
            // halves of the block.
            self.dst_intervals_rec(r, depth + 1, base, cap, out)
                && self.dst_intervals_rec(r, depth + 1, base | bit, cap, out)
        }
    }

    /// Append `[lo, hi]`, merging with the previous interval when
    /// adjacent (emission order is strictly ascending). False when the
    /// result would exceed `cap` intervals.
    fn push_interval(out: &mut Vec<(u32, u32)>, lo: u32, hi: u32, cap: usize) -> bool {
        if let Some(last) = out.last_mut() {
            debug_assert!(last.1 < lo);
            if last.1 == lo - 1 {
                last.1 = hi;
                return true;
            }
        }
        out.push((lo, hi));
        out.len() <= cap
    }

    /// The destination-IP projection of `pred` as a [`Cover`]: the exact
    /// interval list when it fits in `cap` intervals, otherwise the
    /// `[min, max]` hull. The approximation is explicit in the return
    /// type, so callers cannot mistake a hull for an exact cover.
    pub fn pkt_dst_cover(&self, pred: Ref, cap: usize) -> Cover {
        if pred.is_false() {
            return Cover::Exact(Vec::new());
        }
        match self.pkt_dst_intervals(pred, cap) {
            Some(iv) => Cover::Exact(iv),
            None => {
                // pred is satisfiable, so bounds exist.
                let (lo, hi) = match self.pkt_dst_bounds(pred) {
                    Some(b) => b,
                    None => unreachable!("satisfiable predicate has dst bounds"),
                };
                Cover::Hull(lo, hi)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_matches_expected_packets() {
        let mut b = Bdd::new();
        // 10.0.0.0/8
        let p = b.pkt_prefix(Field::DstIp, 0x0A000000, 8);
        assert!(b.pkt_eval(p, &Packet { dst_ip: 0x0A123456, ..Default::default() }));
        assert!(!b.pkt_eval(p, &Packet { dst_ip: 0x0B000000, ..Default::default() }));
        // The other fields are free.
        let other = Packet { dst_ip: 0x0A000001, src_ip: 7, proto: 17, src_port: 9, dst_port: 443 };
        assert!(b.pkt_eval(p, &other));
    }

    #[test]
    fn zero_length_prefix_is_true() {
        let mut b = Bdd::new();
        assert_eq!(b.pkt_prefix(Field::DstIp, 0, 0), Ref::TRUE);
    }

    #[test]
    fn exact_value() {
        let mut b = Bdd::new();
        let p = b.pkt_value(Field::Proto, 6);
        assert!(b.pkt_eval(p, &Packet { proto: 6, ..Default::default() }));
        assert!(!b.pkt_eval(p, &Packet { proto: 17, ..Default::default() }));
    }

    #[test]
    fn range_bounds_are_inclusive() {
        let mut b = Bdd::new();
        let p = b.pkt_range(Field::DstPort, 1000, 1099);
        assert!(b.pkt_eval(p, &Packet { dst_port: 1000, ..Default::default() }));
        assert!(b.pkt_eval(p, &Packet { dst_port: 1099, ..Default::default() }));
        assert!(b.pkt_eval(p, &Packet { dst_port: 1050, ..Default::default() }));
        assert!(!b.pkt_eval(p, &Packet { dst_port: 1100, ..Default::default() }));
        assert!(!b.pkt_eval(p, &Packet { dst_port: 999, ..Default::default() }));
    }

    #[test]
    fn full_range_is_true() {
        let mut b = Bdd::new();
        assert_eq!(b.pkt_range(Field::SrcPort, 0, 65535), Ref::TRUE);
    }

    #[test]
    fn single_value_range_equals_value() {
        let mut b = Bdd::new();
        let r = b.pkt_range(Field::DstPort, 80, 80);
        let v = b.pkt_value(Field::DstPort, 80);
        assert_eq!(r, v);
    }

    #[test]
    fn header_match_conjoins_its_fields() {
        let mut b = Bdd::new();
        // tcp 10/8 -> 192.168/16 ports 80..=88
        let m = b.pkt_match(Some(6), (0x0A000000, 8), (0xC0A80000, 16), Some((80, 88)));
        let hit =
            Packet { dst_ip: 0xC0A80101, src_ip: 0x0A010101, proto: 6, src_port: 5, dst_port: 88 };
        assert!(b.pkt_eval(m, &hit));
        assert!(!b.pkt_eval(m, &Packet { proto: 17, ..hit }));
        assert!(!b.pkt_eval(m, &Packet { dst_port: 89, ..hit }));
        assert!(!b.pkt_eval(m, &Packet { src_ip: 0x0B000000, ..hit }));
        assert!(!b.pkt_eval(m, &Packet { dst_ip: 0xC0A90000, ..hit }));
        // No field constrained: every packet.
        assert_eq!(b.pkt_match(None, (0, 0), (0, 0), None), Ref::TRUE);
        // A single port is the range (p, p).
        let one = b.pkt_match(Some(17), (0, 0), (0, 0), Some((53, 53)));
        let p = b.pkt_value(Field::Proto, 17);
        let v = b.pkt_value(Field::DstPort, 53);
        assert_eq!(one, b.and(p, v));
    }

    #[test]
    fn eval_follows_assignment() {
        let mut b = Bdd::new();
        let x = b.var(0);
        let y = b.var(1);
        let f = b.and(x, y);
        assert!(b.eval(f, |_| true));
        assert!(!b.eval(f, |v| v == 0));
    }

    #[test]
    fn dst_bounds_of_prefix() {
        let mut b = Bdd::new();
        let p = b.pkt_prefix(Field::DstIp, 0x0A000000, 8); // 10/8
        assert_eq!(b.pkt_dst_bounds(p), Some((0x0A000000, 0x0AFFFFFF)));
        assert_eq!(b.pkt_dst_bounds(Ref::TRUE), Some((0, u32::MAX)));
        assert_eq!(b.pkt_dst_bounds(Ref::FALSE), None);
        // Non-dst constraints leave the dst projection full.
        let tcp = b.pkt_value(Field::Proto, 6);
        assert_eq!(b.pkt_dst_bounds(tcp), Some((0, u32::MAX)));
    }

    #[test]
    fn dst_bounds_of_union_and_complement() {
        let mut b = Bdd::new();
        let p1 = b.pkt_prefix(Field::DstIp, 0x0A000000, 8); // 10/8
        let p2 = b.pkt_prefix(Field::DstIp, 0xC0A80000, 16); // 192.168/16
        let u = b.or(p1, p2);
        assert_eq!(b.pkt_dst_bounds(u), Some((0x0A000000, 0xC0A8FFFF)));
        // Complement of 10/8 still spans the full address range.
        let n = b.diff(Ref::TRUE, p1);
        assert_eq!(b.pkt_dst_bounds(n), Some((0, u32::MAX)));
    }

    #[test]
    fn dst_intervals_exact_covers() {
        let mut b = Bdd::new();
        let p = b.pkt_prefix(Field::DstIp, 0x0A000000, 8);
        assert_eq!(b.pkt_dst_intervals(p, 4), Some(vec![(0x0A000000, 0x0AFFFFFF)]));
        // The complement is exactly two intervals (below and above 10/8)
        // even though its hull is the whole space.
        let n = b.diff(Ref::TRUE, p);
        assert_eq!(
            b.pkt_dst_intervals(n, 4),
            Some(vec![(0, 0x09FFFFFF), (0x0B000000, u32::MAX)])
        );
        // A union of two disjoint prefixes gives two intervals.
        let p2 = b.pkt_prefix(Field::DstIp, 0xC0A80000, 16);
        let u = b.or(p, p2);
        assert_eq!(
            b.pkt_dst_intervals(u, 4),
            Some(vec![(0x0A000000, 0x0AFFFFFF), (0xC0A80000, 0xC0A8FFFF)])
        );
        assert_eq!(b.pkt_dst_intervals(Ref::FALSE, 4), Some(vec![]));
        assert_eq!(b.pkt_dst_intervals(Ref::TRUE, 4), Some(vec![(0, u32::MAX)]));
    }

    #[test]
    fn dst_intervals_merge_adjacent() {
        let mut b = Bdd::new();
        // Two adjacent /9s reassemble into the /8.
        let lo = b.pkt_prefix(Field::DstIp, 0x0A000000, 9);
        let hi = b.pkt_prefix(Field::DstIp, 0x0A800000, 9);
        let u = b.or(lo, hi);
        assert_eq!(b.pkt_dst_intervals(u, 4), Some(vec![(0x0A000000, 0x0AFFFFFF)]));
    }

    #[test]
    fn dst_intervals_cap_falls_back() {
        let mut b = Bdd::new();
        // dst odd (last bit set): 2^31 singleton intervals — must bail
        // at the cap instead of materialising them.
        let odd = b.var(31);
        assert_eq!(b.pkt_dst_intervals(odd, 16), None);
        assert_eq!(b.pkt_dst_bounds(odd), Some((1, u32::MAX)));
    }

    #[test]
    fn dst_intervals_ignore_non_dst_constraints() {
        let mut b = Bdd::new();
        let pfx = b.pkt_prefix(Field::DstIp, 0xC0A80000, 16);
        let tcp = b.pkt_value(Field::Proto, 6);
        let both = b.and(pfx, tcp);
        assert_eq!(b.pkt_dst_intervals(both, 4), Some(vec![(0xC0A80000, 0xC0A8FFFF)]));
        // A range straddling octets stays one interval.
        let r = b.pkt_range(Field::DstIp, 5000, 123456);
        assert_eq!(b.pkt_dst_intervals(r, 8), Some(vec![(5000, 123456)]));
        assert_eq!(b.pkt_dst_bounds(r), Some((5000, 123456)));
    }

    #[test]
    fn dst_cover_exact_within_cap() {
        let mut b = Bdd::new();
        let p = b.pkt_prefix(Field::DstIp, 0x0A000000, 8);
        assert_eq!(b.pkt_dst_cover(p, 4), Cover::Exact(vec![(0x0A000000, 0x0AFFFFFF)]));
        assert_eq!(b.pkt_dst_cover(Ref::FALSE, 4), Cover::Exact(vec![]));
        assert_eq!(b.pkt_dst_cover(Ref::TRUE, 4), Cover::Exact(vec![(0, u32::MAX)]));
    }

    #[test]
    fn dst_cover_hull_past_cap() {
        let mut b = Bdd::new();
        // dst odd: 2^31 singleton intervals — cover degrades to a hull,
        // and the type says so.
        let odd = b.var(31);
        let c = b.pkt_dst_cover(odd, 16);
        assert_eq!(c, Cover::Hull(1, u32::MAX));
        assert_eq!(c.into_intervals(), vec![(1, u32::MAX)]);
    }

    #[test]
    fn dst_cover_hull_contains_every_exact_interval() {
        let mut b = Bdd::new();
        // 20 disjoint, non-adjacent /24s: exact cover needs 20 intervals.
        let preds: Vec<Ref> =
            (0u32..20).map(|i| b.pkt_prefix(Field::DstIp, 0x0A000000 + ((i * 2) << 8), 24)).collect();
        let u = preds.into_iter().fold(Ref::FALSE, |acc, p| b.or(acc, p));
        let exact = b.pkt_dst_intervals(u, 64).expect("20 intervals fit in 64");
        assert_eq!(exact.len(), 20);
        // With the production cap the cover is a hull, and the hull
        // encloses every exact interval (over-approximation, sound for
        // candidate generation only).
        match b.pkt_dst_cover(u, 16) {
            Cover::Hull(lo, hi) => {
                for &(ilo, ihi) in &exact {
                    assert!(lo <= ilo && ihi <= hi);
                }
            }
            Cover::Exact(_) => panic!("20 intervals must not fit a cap of 16"),
        }
    }

    #[test]
    fn prefixes_partition() {
        let mut b = Bdd::new();
        let p0 = b.pkt_prefix(Field::DstIp, 0x00000000, 1);
        let p1 = b.pkt_prefix(Field::DstIp, 0x80000000, 1);
        assert!(!b.intersects(p0, p1));
        assert_eq!(b.or(p0, p1), Ref::TRUE);
    }
}
