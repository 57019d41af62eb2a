//! The hash-consing BDD manager and its core operations.

use std::collections::HashMap;

use crate::node::{Node, Ref, Var, TERMINAL_VAR};

/// Binary boolean operations routed through the memoized `apply`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Op {
    And,
    Or,
    Xor,
    /// Set difference, `a ∧ ¬b`.
    Diff,
}

impl Op {
    /// Evaluate the operation on terminals, or short-circuit when one
    /// operand alone determines the result. Returns `None` when
    /// recursion is required.
    #[inline]
    fn shortcut(self, a: Ref, b: Ref) -> Option<Ref> {
        match self {
            Op::And => {
                if a.is_false() || b.is_false() {
                    Some(Ref::FALSE)
                } else if a.is_true() {
                    Some(b)
                } else if b.is_true() || a == b {
                    Some(a)
                } else {
                    None
                }
            }
            Op::Or => {
                if a.is_true() || b.is_true() {
                    Some(Ref::TRUE)
                } else if a.is_false() {
                    Some(b)
                } else if b.is_false() || a == b {
                    Some(a)
                } else {
                    None
                }
            }
            Op::Xor => {
                if a == b {
                    Some(Ref::FALSE)
                } else if a.is_false() {
                    Some(b)
                } else if b.is_false() {
                    Some(a)
                } else {
                    None
                }
            }
            Op::Diff => {
                if a.is_false() || b.is_true() || a == b {
                    Some(Ref::FALSE)
                } else if b.is_false() {
                    Some(a)
                } else {
                    None
                }
            }
        }
    }

    /// Whether the operation is commutative, letting the cache normalize
    /// operand order.
    #[inline]
    fn commutative(self) -> bool {
        !matches!(self, Op::Diff)
    }
}

/// A hash-consed ROBDD manager.
///
/// All predicates created by one manager share its arena; `Ref`s from
/// different managers must never be mixed (this is not statically
/// checked — the manager is always owned by a single model).
pub struct Bdd {
    nodes: Vec<Node>,
    /// Hash-consing table: (var, lo, hi) -> existing node.
    unique: HashMap<Node, Ref>,
    apply_cache: HashMap<(Op, Ref, Ref), Ref>,
    not_cache: HashMap<Ref, Ref>,
    ite_cache: HashMap<(Ref, Ref, Ref), Ref>,
    /// Op-cache lookups that found a memoized result.
    apply_hits: u64,
    /// Op-cache lookups that missed and recursed (terminal shortcuts
    /// are counted in neither bucket — they never consult the cache).
    apply_misses: u64,
}

impl Default for Bdd {
    fn default() -> Self {
        Self::new()
    }
}

impl Bdd {
    /// Create an empty manager containing only the two terminals.
    pub fn new() -> Self {
        let terminal = |v| Node { var: TERMINAL_VAR, lo: Ref(v), hi: Ref(v) };
        Bdd {
            nodes: vec![terminal(0), terminal(1)],
            unique: HashMap::new(),
            apply_cache: HashMap::new(),
            not_cache: HashMap::new(),
            ite_cache: HashMap::new(),
            apply_hits: 0,
            apply_misses: 0,
        }
    }

    /// Cumulative `(hits, misses)` of the binary-op memo cache — the
    /// baseline signal for BDD performance work. A hit returns without
    /// touching nodes; a miss pays the Shannon-expansion recursion.
    pub fn apply_cache_stats(&self) -> (u64, u64) {
        (self.apply_hits, self.apply_misses)
    }

    /// Number of live nodes (including the two terminals).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    #[inline]
    pub(crate) fn node(&self, r: Ref) -> Node {
        self.nodes[r.0 as usize]
    }

    /// Variable tested at the root of `r`, `TERMINAL_VAR` for terminals.
    #[inline]
    pub(crate) fn var_of(&self, r: Ref) -> Var {
        self.nodes[r.0 as usize].var
    }

    /// Make (or find) the node `(var, lo, hi)`, applying the reduction
    /// rule `lo == hi ⇒ lo`.
    fn mk(&mut self, var: Var, lo: Ref, hi: Ref) -> Ref {
        if lo == hi {
            return lo;
        }
        debug_assert!(var < self.var_of(lo) && var < self.var_of(hi), "variable order violated");
        let node = Node { var, lo, hi };
        if let Some(&r) = self.unique.get(&node) {
            return r;
        }
        let r = Ref(self.nodes.len() as u32);
        self.nodes.push(node);
        self.unique.insert(node, r);
        r
    }

    /// The predicate "variable `v` is 1".
    pub fn var(&mut self, v: Var) -> Ref {
        self.mk(v, Ref::FALSE, Ref::TRUE)
    }

    /// The predicate "variable `v` is 0".
    pub fn nvar(&mut self, v: Var) -> Ref {
        self.mk(v, Ref::TRUE, Ref::FALSE)
    }

    /// Constant predicate for a boolean.
    pub fn constant(&mut self, b: bool) -> Ref {
        if b {
            Ref::TRUE
        } else {
            Ref::FALSE
        }
    }

    fn apply(&mut self, op: Op, a: Ref, b: Ref) -> Ref {
        if let Some(r) = op.shortcut(a, b) {
            return r;
        }
        let key = if op.commutative() && b < a { (op, b, a) } else { (op, a, b) };
        if let Some(&r) = self.apply_cache.get(&key) {
            self.apply_hits += 1;
            return r;
        }
        self.apply_misses += 1;
        let (va, vb) = (self.var_of(a), self.var_of(b));
        let v = va.min(vb);
        let (a_lo, a_hi) = if va == v {
            let n = self.node(a);
            (n.lo, n.hi)
        } else {
            (a, a)
        };
        let (b_lo, b_hi) = if vb == v {
            let n = self.node(b);
            (n.lo, n.hi)
        } else {
            (b, b)
        };
        let lo = self.apply(op, a_lo, b_lo);
        let hi = self.apply(op, a_hi, b_hi);
        let r = self.mk(v, lo, hi);
        self.apply_cache.insert(key, r);
        r
    }

    /// Conjunction (packet-set intersection).
    pub fn and(&mut self, a: Ref, b: Ref) -> Ref {
        self.apply(Op::And, a, b)
    }

    /// Whether `a ∧ b` is satisfiable — i.e. the packet sets overlap.
    ///
    /// Unlike `and(a, b).is_false()`, this never allocates nodes or
    /// touches the op caches, so it works from `&self` and is usable in
    /// shared read paths. It short-circuits on the first satisfying
    /// branch and memoizes only *disjoint* pairs (a satisfying branch
    /// ends the walk, so positive results never need the memo).
    pub fn intersects(&self, a: Ref, b: Ref) -> bool {
        let mut disjoint = std::collections::HashSet::new();
        self.intersects_rec(a, b, &mut disjoint)
    }

    fn intersects_rec(
        &self,
        a: Ref,
        b: Ref,
        disjoint: &mut std::collections::HashSet<(Ref, Ref)>,
    ) -> bool {
        if a.is_false() || b.is_false() {
            return false;
        }
        if a.is_true() || b.is_true() || a == b {
            return true;
        }
        // Conjunction is commutative: normalize the memo key.
        let key = if b < a { (b, a) } else { (a, b) };
        if disjoint.contains(&key) {
            return false;
        }
        let (va, vb) = (self.var_of(a), self.var_of(b));
        let v = va.min(vb);
        let (a_lo, a_hi) = if va == v {
            let n = self.node(a);
            (n.lo, n.hi)
        } else {
            (a, a)
        };
        let (b_lo, b_hi) = if vb == v {
            let n = self.node(b);
            (n.lo, n.hi)
        } else {
            (b, b)
        };
        if self.intersects_rec(a_lo, b_lo, disjoint) || self.intersects_rec(a_hi, b_hi, disjoint) {
            return true;
        }
        disjoint.insert(key);
        false
    }

    /// Disjunction (packet-set union).
    pub fn or(&mut self, a: Ref, b: Ref) -> Ref {
        self.apply(Op::Or, a, b)
    }

    /// Exclusive or (symmetric difference).
    pub fn xor(&mut self, a: Ref, b: Ref) -> Ref {
        self.apply(Op::Xor, a, b)
    }

    /// Set difference `a ∧ ¬b`.
    pub fn diff(&mut self, a: Ref, b: Ref) -> Ref {
        self.apply(Op::Diff, a, b)
    }

    /// Negation (header-space complement).
    pub fn not(&mut self, a: Ref) -> Ref {
        if a.is_false() {
            return Ref::TRUE;
        }
        if a.is_true() {
            return Ref::FALSE;
        }
        if let Some(&r) = self.not_cache.get(&a) {
            return r;
        }
        let n = self.node(a);
        let lo = self.not(n.lo);
        let hi = self.not(n.hi);
        let r = self.mk(n.var, lo, hi);
        self.not_cache.insert(a, r);
        self.not_cache.insert(r, a);
        r
    }

    /// If-then-else: `(f ∧ g) ∨ (¬f ∧ h)`.
    pub fn ite(&mut self, f: Ref, g: Ref, h: Ref) -> Ref {
        if f.is_true() {
            return g;
        }
        if f.is_false() {
            return h;
        }
        if g == h {
            return g;
        }
        if g.is_true() && h.is_false() {
            return f;
        }
        if let Some(&r) = self.ite_cache.get(&(f, g, h)) {
            return r;
        }
        let v = self.var_of(f).min(self.var_of(g)).min(self.var_of(h));
        let split = |bdd: &Bdd, x: Ref| -> (Ref, Ref) {
            if bdd.var_of(x) == v {
                let n = bdd.node(x);
                (n.lo, n.hi)
            } else {
                (x, x)
            }
        };
        let (f_lo, f_hi) = split(self, f);
        let (g_lo, g_hi) = split(self, g);
        let (h_lo, h_hi) = split(self, h);
        let lo = self.ite(f_lo, g_lo, h_lo);
        let hi = self.ite(f_hi, g_hi, h_hi);
        let r = self.mk(v, lo, hi);
        self.ite_cache.insert((f, g, h), r);
        r
    }

    /// Existential quantification over the (sorted or unsorted) set of
    /// variables `vars`.
    pub fn exists(&mut self, a: Ref, vars: &[Var]) -> Ref {
        if vars.is_empty() || a.is_terminal() {
            return a;
        }
        let mut memo = HashMap::new();
        self.exists_rec(a, vars, &mut memo)
    }

    fn exists_rec(&mut self, a: Ref, vars: &[Var], memo: &mut HashMap<Ref, Ref>) -> Ref {
        if a.is_terminal() {
            return a;
        }
        if let Some(&r) = memo.get(&a) {
            return r;
        }
        let n = self.node(a);
        let lo = self.exists_rec(n.lo, vars, memo);
        let hi = self.exists_rec(n.hi, vars, memo);
        let r = if vars.contains(&n.var) { self.or(lo, hi) } else { self.mk(n.var, lo, hi) };
        memo.insert(a, r);
        r
    }

    /// Universal quantification over `vars`.
    pub fn forall(&mut self, a: Ref, vars: &[Var]) -> Ref {
        let na = self.not(a);
        let e = self.exists(na, vars);
        self.not(e)
    }

    /// Restrict: substitute constant `value` for variable `v`.
    pub fn restrict(&mut self, a: Ref, v: Var, value: bool) -> Ref {
        let mut memo = HashMap::new();
        self.restrict_rec(a, v, value, &mut memo)
    }

    fn restrict_rec(&mut self, a: Ref, v: Var, value: bool, memo: &mut HashMap<Ref, Ref>) -> Ref {
        if a.is_terminal() || self.var_of(a) > v {
            return a;
        }
        if let Some(&r) = memo.get(&a) {
            return r;
        }
        let n = self.node(a);
        let r = if n.var == v {
            if value {
                n.hi
            } else {
                n.lo
            }
        } else {
            let lo = self.restrict_rec(n.lo, v, value, memo);
            let hi = self.restrict_rec(n.hi, v, value, memo);
            self.mk(n.var, lo, hi)
        };
        memo.insert(a, r);
        r
    }

    /// Conjunction of a sequence of predicates (true for the empty
    /// sequence).
    pub fn and_all<I: IntoIterator<Item = Ref>>(&mut self, items: I) -> Ref {
        items.into_iter().fold(Ref::TRUE, |acc, x| self.and(acc, x))
    }

    /// Disjunction of a sequence of predicates (false for the empty
    /// sequence).
    pub fn or_all<I: IntoIterator<Item = Ref>>(&mut self, items: I) -> Ref {
        items.into_iter().fold(Ref::FALSE, |acc, x| self.or(acc, x))
    }

    /// Serialize the node arena for a durable snapshot. Arena indices
    /// are preserved exactly, so [`Ref`]s held by other serialized
    /// state (EC predicates, rule predicates, policy predicates)
    /// remain valid against the decoded manager. Op caches and their
    /// hit counters are transient and not serialized.
    pub fn encode_state(&self, w: &mut rc_store::Writer) {
        w.len_prefix(self.nodes.len() - 2);
        for n in &self.nodes[2..] {
            w.u32(n.var);
            w.u32(n.lo.index());
            w.u32(n.hi.index());
        }
    }

    /// Rebuild a manager from [`Bdd::encode_state`] bytes, re-deriving
    /// the hash-consing table and validating every structural
    /// invariant (children precede parents, reduction `lo != hi`,
    /// variable order strictly increasing toward the terminals, no
    /// duplicate nodes) so corrupt input is an error, never a manager
    /// that miscomputes.
    pub fn decode_state(r: &mut rc_store::Reader<'_>) -> Result<Bdd, rc_store::WireError> {
        let count = r.len_prefix()?;
        let mut bdd = Bdd::new();
        bdd.nodes.reserve(count);
        bdd.unique.reserve(count);
        for i in 0..count {
            let var = r.u32()?;
            let (lo, hi) = (r.u32()?, r.u32()?);
            let idx = (i + 2) as u32;
            let ordered = |child: u32| var < bdd.nodes[child as usize].var;
            if var == TERMINAL_VAR || lo >= idx || hi >= idx || lo == hi {
                return Err(rc_store::WireError(format!("invalid BDD node at slot {idx}")));
            }
            if !ordered(lo) || !ordered(hi) {
                return Err(rc_store::WireError(format!(
                    "variable order violated at BDD slot {idx}"
                )));
            }
            let node = Node { var, lo: Ref::from_index(lo), hi: Ref::from_index(hi) };
            if bdd.unique.insert(node, Ref::from_index(idx)).is_some() {
                return Err(rc_store::WireError(format!("duplicate BDD node at slot {idx}")));
            }
            bdd.nodes.push(node);
        }
        Ok(bdd)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminals() {
        let mut b = Bdd::new();
        assert!(Ref::TRUE.is_true());
        assert!(Ref::FALSE.is_false());
        assert_eq!(b.constant(true), Ref::TRUE);
        assert_eq!(b.constant(false), Ref::FALSE);
        assert_eq!(b.node_count(), 2);
    }

    #[test]
    fn hash_consing_dedupes() {
        let mut b = Bdd::new();
        let x = b.var(3);
        let y = b.var(3);
        assert_eq!(x, y);
        assert_eq!(b.node_count(), 3);
    }

    #[test]
    fn basic_laws() {
        let mut b = Bdd::new();
        let x = b.var(0);
        let y = b.var(1);
        let nx = b.not(x);
        assert_eq!(b.and(x, nx), Ref::FALSE);
        assert_eq!(b.or(x, nx), Ref::TRUE);
        assert_eq!(b.not(nx), x);
        let xy = b.and(x, y);
        let yx = b.and(y, x);
        assert_eq!(xy, yx);
        // Absorption.
        let o = b.or(x, xy);
        assert_eq!(o, x);
    }

    #[test]
    fn xor_and_diff() {
        let mut b = Bdd::new();
        let x = b.var(0);
        let y = b.var(1);
        let lhs = b.xor(x, y);
        let d1 = b.diff(x, y);
        let d2 = b.diff(y, x);
        let rhs = b.or(d1, d2);
        assert_eq!(lhs, rhs);
        assert_eq!(b.xor(x, x), Ref::FALSE);
        assert_eq!(b.diff(x, Ref::FALSE), x);
    }

    #[test]
    fn ite_matches_expansion() {
        let mut b = Bdd::new();
        let f = b.var(0);
        let g = b.var(1);
        let h = b.var(2);
        let ite = b.ite(f, g, h);
        let fg = b.and(f, g);
        let nf = b.not(f);
        let nfh = b.and(nf, h);
        let expect = b.or(fg, nfh);
        assert_eq!(ite, expect);
    }

    #[test]
    fn quantification() {
        let mut b = Bdd::new();
        let x = b.var(0);
        let y = b.var(1);
        let xy = b.and(x, y);
        // ∃x. x∧y == y
        assert_eq!(b.exists(xy, &[0]), y);
        // ∀x. x∧y == false
        assert_eq!(b.forall(xy, &[0]), Ref::FALSE);
        let xoy = b.or(x, y);
        // ∀x. x∨y == y
        assert_eq!(b.forall(xoy, &[0]), y);
    }

    #[test]
    fn restrict_substitutes() {
        let mut b = Bdd::new();
        let x = b.var(0);
        let y = b.var(1);
        let xy = b.and(x, y);
        assert_eq!(b.restrict(xy, 0, true), y);
        assert_eq!(b.restrict(xy, 0, false), Ref::FALSE);
        assert_eq!(b.restrict(xy, 5, true), xy);
    }

    #[test]
    fn variable_order_is_respected() {
        let mut b = Bdd::new();
        // Build with vars out of creation order; root must be var 1.
        let hi = b.var(7);
        let lo = b.var(1);
        let f = b.or(lo, hi);
        assert_eq!(b.var_of(f), 1);
    }

    #[test]
    fn intersects_agrees_with_and_without_mutating() {
        let mut b = Bdd::new();
        let mut preds = vec![Ref::FALSE, Ref::TRUE];
        for v in 0..6 {
            let x = b.var(v);
            let nx = b.not(x);
            preds.push(x);
            preds.push(nx);
        }
        for i in 0..4 {
            let x = b.var(i);
            let y = b.var(i + 2);
            let a = b.and(x, y);
            let o = b.or(x, y);
            let d = b.diff(x, y);
            preds.extend([a, o, d]);
        }
        let nodes_before = b.node_count();
        let stats_before = b.apply_cache_stats();
        let mut expected = Vec::new();
        for &p in &preds {
            for &q in &preds {
                expected.push(b.intersects(p, q));
            }
        }
        // Read-only: no nodes allocated, no cache traffic.
        assert_eq!(b.node_count(), nodes_before);
        assert_eq!(b.apply_cache_stats(), stats_before);
        // Agrees with the mutating conjunction test on every pair.
        let n = preds.len();
        for i in 0..n {
            for j in 0..n {
                let (p, q) = (preds[i], preds[j]);
                assert_eq!(expected[i * n + j], !b.and(p, q).is_false(), "pair {p:?} ∧ {q:?}");
            }
        }
    }

    #[test]
    fn apply_cache_stats_count_hits_and_misses() {
        let mut b = Bdd::new();
        let x = b.var(0);
        let y = b.var(1);
        assert_eq!(b.apply_cache_stats(), (0, 0), "fresh manager");
        // Terminal shortcuts never consult the cache.
        let _ = b.and(x, Ref::TRUE);
        assert_eq!(b.apply_cache_stats(), (0, 0));
        // First non-trivial op: misses only.
        let _ = b.and(x, y);
        let (h1, m1) = b.apply_cache_stats();
        assert_eq!(h1, 0);
        assert!(m1 > 0);
        // Same op again: one top-level hit, no new misses.
        let _ = b.and(x, y);
        assert_eq!(b.apply_cache_stats(), (1, m1));
        // Commutative normalization: the swapped operands hit too.
        let _ = b.and(y, x);
        assert_eq!(b.apply_cache_stats(), (2, m1));
    }
}
