//! Delta-net-style interval-atom predicate store.
//!
//! The fat-tree benchmarks that dominate RealConfig's evaluation branch
//! exclusively on the destination IP: every FIB rule is a dst prefix,
//! and every equivalence class is a union of dst-address ranges. For
//! those workloads a BDD is overkill — Delta-net (see PAPERS.md) showed
//! that representing packet space as disjoint `(lo, hi)` address
//! intervals makes EC transfer cost proportional to the intervals
//! touched, with no graph algebra at all.
//!
//! [`Atoms`] is that representation behind the same [`Ref`] handle
//! discipline as the BDD manager: predicates are canonical interval
//! sets (sorted, disjoint, non-adjacent, inclusive) interned in a
//! hash-consing table, so semantic equality is `Ref` equality and
//! `Ref::FALSE`/`Ref::TRUE` keep their fixed slots (the empty set and
//! the full address space). Set algebra is linear merge walks over the
//! interval lists.
//!
//! The store is **dst-only by design**: encoding a constraint on any
//! other header field panics with a pointer at the BDD backend, rather
//! than silently widening the predicate. Workloads with 5-tuple ACLs
//! must select `--backend bdd`.

use std::collections::HashMap;

use crate::node::Ref;
use crate::pkt::{Cover, Field, Packet};

/// A canonical interval set: sorted ascending, pairwise disjoint and
/// non-adjacent, every `lo <= hi`, bounds inclusive.
type IntervalSet = Vec<(u32, u32)>;

fn is_canonical(set: &[(u32, u32)]) -> bool {
    set.iter().all(|&(lo, hi)| lo <= hi)
        && set.windows(2).all(|w| (w[0].1 as u64) + 1 < w[1].0 as u64)
}

/// Union of two canonical sets, coalescing overlapping and adjacent
/// intervals.
fn union(a: &[(u32, u32)], b: &[(u32, u32)]) -> IntervalSet {
    let mut out: IntervalSet = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        let next = if j >= b.len() || (i < a.len() && a[i].0 <= b[j].0) {
            let x = a[i];
            i += 1;
            x
        } else {
            let x = b[j];
            j += 1;
            x
        };
        match out.last_mut() {
            // `saturating_add` keeps an interval ending at u32::MAX
            // absorbing everything after it.
            Some(last) if next.0 <= last.1.saturating_add(1) => last.1 = last.1.max(next.1),
            _ => out.push(next),
        }
    }
    out
}

/// Intersection of two canonical sets. Canonical inputs yield a
/// canonical output (sub-intervals of non-adjacent intervals cannot
/// become adjacent without an input boundary being adjacent).
fn intersect(a: &[(u32, u32)], b: &[(u32, u32)]) -> IntervalSet {
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let lo = a[i].0.max(b[j].0);
        let hi = a[i].1.min(b[j].1);
        if lo <= hi {
            out.push((lo, hi));
        }
        if a[i].1 < b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    out
}

/// Complement of a canonical set over the full address space.
fn complement(a: &[(u32, u32)]) -> IntervalSet {
    let mut out = Vec::new();
    let mut next = 0u32;
    for &(lo, hi) in a {
        if lo > next {
            out.push((next, lo - 1));
        }
        if hi == u32::MAX {
            return out;
        }
        next = hi + 1;
    }
    out.push((next, u32::MAX));
    out
}

/// Whether two canonical sets share any address.
fn overlaps(a: &[(u32, u32)], b: &[(u32, u32)]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i].0.max(b[j].0) <= a[i].1.min(b[j].1) {
            return true;
        }
        if a[i].1 < b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    false
}

#[cold]
fn unsupported(field: Field) -> ! {
    panic!(
        "atoms backend supports destination-IP matches only; cannot encode a {field:?} \
         constraint — select the BDD backend (--backend bdd / RC_BACKEND=bdd) for \
         5-tuple ACL semantics"
    )
}

/// A hash-consed store of dst-IP interval-set predicates.
///
/// Handles are [`Ref`]s with the same terminal convention as the BDD
/// manager — slot 0 is the empty set, slot 1 the full address space —
/// so `Ref::is_false`/`is_true` and `Ref`-keyed maps work unchanged.
/// Like BDD `Ref`s, handles from different stores must not be mixed.
pub struct Atoms {
    /// Interval set of each interned predicate, indexed by `Ref`.
    sets: Vec<IntervalSet>,
    /// Hash-consing table: canonical set -> existing handle.
    unique: HashMap<IntervalSet, Ref>,
}

impl Default for Atoms {
    fn default() -> Self {
        Self::new()
    }
}

impl Atoms {
    /// Create a store containing only the two terminals.
    pub fn new() -> Self {
        Atoms { sets: vec![Vec::new(), vec![(0, u32::MAX)]], unique: HashMap::new() }
    }

    /// The canonical interval set denoted by `r`.
    pub fn set(&self, r: Ref) -> &[(u32, u32)] {
        &self.sets[r.index() as usize]
    }

    /// Number of interned predicates (including the two terminals) —
    /// the store-size analogue of the BDD node count.
    pub fn node_count(&self) -> usize {
        self.sets.len()
    }

    /// Atoms has no op cache: algebra is a single merge walk, so there
    /// is nothing to hit or miss. Always `(0, 0)`.
    pub fn apply_cache_stats(&self) -> (u64, u64) {
        (0, 0)
    }

    fn intern(&mut self, set: IntervalSet) -> Ref {
        debug_assert!(is_canonical(&set), "non-canonical interval set {set:?}");
        if set.is_empty() {
            return Ref::FALSE;
        }
        if set.len() == 1 && set[0] == (0, u32::MAX) {
            return Ref::TRUE;
        }
        if let Some(&r) = self.unique.get(&set) {
            return r;
        }
        let r = Ref(self.sets.len() as u32);
        self.unique.insert(set.clone(), r);
        self.sets.push(set);
        r
    }

    /// Conjunction (address-set intersection).
    pub fn and(&mut self, a: Ref, b: Ref) -> Ref {
        if a.is_false() || b.is_false() {
            return Ref::FALSE;
        }
        if a.is_true() {
            return b;
        }
        if b.is_true() || a == b {
            return a;
        }
        let s = intersect(self.set(a), self.set(b));
        self.intern(s)
    }

    /// Disjunction (address-set union).
    pub fn or(&mut self, a: Ref, b: Ref) -> Ref {
        if a.is_true() || b.is_true() {
            return Ref::TRUE;
        }
        if a.is_false() || a == b {
            return b;
        }
        if b.is_false() {
            return a;
        }
        let s = union(self.set(a), self.set(b));
        self.intern(s)
    }

    /// Negation (address-space complement).
    pub fn not(&mut self, a: Ref) -> Ref {
        if a.is_false() {
            return Ref::TRUE;
        }
        if a.is_true() {
            return Ref::FALSE;
        }
        let s = complement(self.set(a));
        self.intern(s)
    }

    /// Set difference `a ∧ ¬b`.
    pub fn diff(&mut self, a: Ref, b: Ref) -> Ref {
        if a.is_false() || b.is_true() || a == b {
            return Ref::FALSE;
        }
        if b.is_false() {
            return a;
        }
        let s = intersect(self.set(a), &complement(self.set(b)));
        self.intern(s)
    }

    /// Whether `a ∧ b` is satisfiable, without interning anything.
    pub fn intersects(&self, a: Ref, b: Ref) -> bool {
        if a.is_false() || b.is_false() {
            return false;
        }
        if a.is_true() || b.is_true() || a == b {
            return true;
        }
        overlaps(self.set(a), self.set(b))
    }

    /// Prefix match on `field`. `len == 0` matches all (any field);
    /// otherwise only [`Field::DstIp`] is encodable.
    pub fn pkt_prefix(&mut self, field: Field, value: u32, len: u32) -> Ref {
        assert!(len <= field.width(), "prefix length {len} exceeds field width");
        if len == 0 {
            return Ref::TRUE;
        }
        if field != Field::DstIp {
            unsupported(field);
        }
        let lo = value & (u32::MAX << (32 - len));
        let hi = if len == 32 { lo } else { lo | (u32::MAX >> len) };
        self.intern(vec![(lo, hi)])
    }

    /// Exact-value match on `field` (dst-only).
    pub fn pkt_value(&mut self, field: Field, value: u32) -> Ref {
        if field != Field::DstIp {
            unsupported(field);
        }
        self.intern(vec![(value, value)])
    }

    /// Inclusive range match on `field`. A full-width range is `TRUE`
    /// for any field; a proper range is dst-only.
    pub fn pkt_range(&mut self, field: Field, lo: u32, hi: u32) -> Ref {
        assert!(lo <= hi, "empty range {lo}..={hi}");
        let width = field.width();
        let field_max = if width == 32 { u32::MAX } else { (1 << width) - 1 };
        assert!(hi <= field_max, "range bound exceeds field width");
        if lo == 0 && hi == field_max {
            return Ref::TRUE;
        }
        if field != Field::DstIp {
            unsupported(field);
        }
        self.intern(vec![(lo, hi)])
    }

    /// Evaluate a predicate on a concrete packet. Atoms predicates only
    /// constrain the destination IP, so only `pkt.dst_ip` is read.
    pub fn pkt_eval(&self, pred: Ref, pkt: &Packet) -> bool {
        let set = self.set(pred);
        let idx = set.partition_point(|&(lo, _)| lo <= pkt.dst_ip);
        idx > 0 && pkt.dst_ip <= set[idx - 1].1
    }

    /// One packet satisfying `pred`, if any: the lowest covered dst
    /// address, all other fields zero.
    pub fn pkt_witness(&self, pred: Ref) -> Option<Packet> {
        let &(lo, _) = self.set(pred).first()?;
        Some(Packet { dst_ip: lo, ..Packet::default() })
    }

    /// Bounds `(min, max)` of the dst projection; `None` iff empty.
    pub fn pkt_dst_bounds(&self, pred: Ref) -> Option<(u32, u32)> {
        let set = self.set(pred);
        Some((set.first()?.0, set.last()?.1))
    }

    /// The dst projection of `pred`. Atoms *is* the interval
    /// representation, so the cover is always exact regardless of `cap`
    /// — there is no materialisation cost to bound.
    pub fn pkt_dst_cover(&self, pred: Ref, _cap: usize) -> Cover {
        Cover::Exact(self.set(pred).to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Membership oracle: is `addr` covered by `r`?
    fn covers(a: &Atoms, r: Ref, addr: u32) -> bool {
        a.pkt_eval(r, &Packet { dst_ip: addr, ..Packet::default() })
    }

    #[test]
    fn terminals_keep_their_slots() {
        let a = Atoms::new();
        assert_eq!(a.set(Ref::FALSE), &[] as &[(u32, u32)]);
        assert_eq!(a.set(Ref::TRUE), &[(0, u32::MAX)]);
        assert_eq!(a.node_count(), 2);
    }

    #[test]
    fn hash_consing_gives_semantic_equality() {
        let mut a = Atoms::new();
        // Two adjacent /9s reassemble into exactly the /8.
        let lo = a.pkt_prefix(Field::DstIp, 0x0A000000, 9);
        let hi = a.pkt_prefix(Field::DstIp, 0x0A800000, 9);
        let u = a.or(lo, hi);
        let p8 = a.pkt_prefix(Field::DstIp, 0x0A000000, 8);
        assert_eq!(u, p8);
        assert_eq!(a.set(u), &[(0x0A000000, 0x0AFFFFFF)]);
    }

    #[test]
    fn boolean_laws_hold() {
        let mut a = Atoms::new();
        let x = a.pkt_prefix(Field::DstIp, 0x0A000000, 8);
        let y = a.pkt_prefix(Field::DstIp, 0x0A400000, 10);
        let nx = a.not(x);
        assert_eq!(a.and(x, nx), Ref::FALSE);
        assert_eq!(a.or(x, nx), Ref::TRUE);
        assert_eq!(a.not(nx), x);
        // y ⊂ x: absorption and difference.
        assert_eq!(a.or(x, y), x);
        assert_eq!(a.and(x, y), y);
        let d = a.diff(x, y);
        let re = a.or(d, y);
        assert_eq!(re, x);
        assert_eq!(a.diff(y, x), Ref::FALSE);
    }

    #[test]
    fn ops_match_membership_oracle() {
        let mut a = Atoms::new();
        let p = a.pkt_prefix(Field::DstIp, 0x0A000000, 8);
        let q = a.pkt_range(Field::DstIp, 0x09FFFFF0, 0x0A00000F);
        let and = a.and(p, q);
        let or = a.or(p, q);
        let diff = a.diff(p, q);
        let not_p = a.not(p);
        let probes = [
            0u32,
            0x09FFFFEF,
            0x09FFFFF0,
            0x09FFFFFF,
            0x0A000000,
            0x0A00000F,
            0x0A000010,
            0x0AFFFFFF,
            0x0B000000,
            u32::MAX,
        ];
        for addr in probes {
            let (inp, inq) = (covers(&a, p, addr), covers(&a, q, addr));
            assert_eq!(covers(&a, and, addr), inp && inq, "and at {addr:#x}");
            assert_eq!(covers(&a, or, addr), inp || inq, "or at {addr:#x}");
            assert_eq!(covers(&a, diff, addr), inp && !inq, "diff at {addr:#x}");
            assert_eq!(covers(&a, not_p, addr), !inp, "not at {addr:#x}");
        }
        assert!(a.intersects(p, q));
    }

    #[test]
    fn complement_handles_space_edges() {
        let mut a = Atoms::new();
        let low = a.pkt_range(Field::DstIp, 0, 9);
        let high = a.pkt_range(Field::DstIp, u32::MAX - 9, u32::MAX);
        let nl = a.not(low);
        let nh = a.not(high);
        assert_eq!(a.set(nl), &[(10, u32::MAX)]);
        assert_eq!(a.set(nh), &[(0, u32::MAX - 10)]);
        let both = a.or(low, high);
        let middle = a.not(both);
        assert_eq!(a.set(middle), &[(10, u32::MAX - 10)]);
        assert_eq!(a.not(middle), both);
    }

    #[test]
    fn intersects_matches_and_and_interns_nothing() {
        let mut a = Atoms::new();
        let p = a.pkt_prefix(Field::DstIp, 0x0A000000, 8);
        let q = a.pkt_prefix(Field::DstIp, 0x0B000000, 8);
        let r = a.pkt_range(Field::DstIp, 0x0AFFFFFF, 0x0B000000);
        let before = a.node_count();
        assert!(!a.intersects(p, q));
        assert!(a.intersects(p, r));
        assert!(a.intersects(q, r));
        assert!(a.intersects(p, Ref::TRUE));
        assert!(!a.intersects(p, Ref::FALSE));
        assert_eq!(a.node_count(), before);
    }

    #[test]
    fn witness_and_bounds_and_cover() {
        let mut a = Atoms::new();
        let p1 = a.pkt_prefix(Field::DstIp, 0x0A000000, 8);
        let p2 = a.pkt_prefix(Field::DstIp, 0xC0A80000, 16);
        let u = a.or(p1, p2);
        let w = a.pkt_witness(u).expect("satisfiable");
        assert!(a.pkt_eval(u, &w));
        assert_eq!(w.dst_ip, 0x0A000000);
        assert!(a.pkt_witness(Ref::FALSE).is_none());
        assert_eq!(a.pkt_dst_bounds(u), Some((0x0A000000, 0xC0A8FFFF)));
        assert_eq!(
            a.pkt_dst_cover(u, 1),
            Cover::Exact(vec![(0x0A000000, 0x0AFFFFFF), (0xC0A80000, 0xC0A8FFFF)])
        );
    }

    #[test]
    fn full_width_ranges_and_zero_prefixes_are_true_for_any_field() {
        let mut a = Atoms::new();
        assert_eq!(a.pkt_prefix(Field::SrcIp, 0x0A000000, 0), Ref::TRUE);
        assert_eq!(a.pkt_range(Field::SrcPort, 0, 65535), Ref::TRUE);
        assert_eq!(a.pkt_range(Field::Proto, 0, 255), Ref::TRUE);
        assert_eq!(a.pkt_prefix(Field::DstIp, 0xFFFFFFFF, 32), a.pkt_value(Field::DstIp, u32::MAX));
    }

    #[test]
    #[should_panic(expected = "atoms backend supports destination-IP matches only")]
    fn src_prefix_panics() {
        let mut a = Atoms::new();
        let _ = a.pkt_prefix(Field::SrcIp, 0x0A000000, 8);
    }

    #[test]
    #[should_panic(expected = "atoms backend supports destination-IP matches only")]
    fn proto_value_panics() {
        let mut a = Atoms::new();
        let _ = a.pkt_value(Field::Proto, 6);
    }

    #[test]
    #[should_panic(expected = "atoms backend supports destination-IP matches only")]
    fn dst_port_range_panics() {
        let mut a = Atoms::new();
        let _ = a.pkt_range(Field::DstPort, 1000, 1099);
    }
}
