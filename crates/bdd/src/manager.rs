//! The hash-consing BDD manager and its core operations.

use std::collections::HashMap;

use crate::node::{Node, Ref, Var, TERMINAL_VAR};

/// Binary boolean operations routed through the memoized `apply`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Op {
    And,
    Or,
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
    /// The one op memo: (op, a, b) -> result.
    apply_cache: HashMap<(Op, Ref, Ref), Ref>,
    /// Op-cache lookups that found a memoized result.
    apply_hits: u64,
    /// Op-cache lookups that missed and recursed (terminal shortcuts
    /// are counted in neither bucket — they never consult the cache).
    apply_misses: u64,
}

/// The policy walk shares `&ApkModel`, and with it this manager, across
/// pool workers, which call the non-interning read methods
/// ([`Bdd::intersects`], [`Bdd::pkt_eval`]). The manager has no
/// interior mutability, so it is `Sync` automatically — this pins that
/// property at compile time so a future `Cell`/`RefCell` cache is
/// caught here, not as a heisenbug in the pool.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Bdd>();
    assert_send_sync::<Ref>();
};

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

    /// Set difference `a ∧ ¬b`.
    pub fn diff(&mut self, a: Ref, b: Ref) -> Ref {
        self.apply(Op::Diff, a, b)
    }

    /// Whether `a ⊆ b` as packet sets.
    pub fn subset(&mut self, a: Ref, b: Ref) -> bool {
        self.diff(a, b).is_false()
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
        assert_eq!(b.node_count(), 2);
        let x = b.var(0);
        assert_eq!(b.and(x, Ref::FALSE), Ref::FALSE);
        assert_eq!(b.or(x, Ref::TRUE), Ref::TRUE);
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
        let nx = b.nvar(0);
        assert_eq!(b.and(x, nx), Ref::FALSE);
        assert_eq!(b.or(x, nx), Ref::TRUE);
        assert_eq!(b.diff(Ref::TRUE, nx), x);
        let xy = b.and(x, y);
        let yx = b.and(y, x);
        assert_eq!(xy, yx);
        // Absorption.
        let o = b.or(x, xy);
        assert_eq!(o, x);
    }

    #[test]
    fn diff_and_subset() {
        let mut b = Bdd::new();
        let x = b.var(0);
        let y = b.var(1);
        let d1 = b.diff(x, y);
        let d2 = b.diff(y, x);
        let sym = b.or(d1, d2);
        let (o, a) = (b.or(x, y), b.and(x, y));
        assert_eq!(sym, b.diff(o, a));
        assert_eq!(b.diff(x, x), Ref::FALSE);
        assert_eq!(b.diff(x, Ref::FALSE), x);
        assert!(b.subset(a, x));
        assert!(!b.subset(x, a));
        assert!(b.subset(Ref::FALSE, a));
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
            let nx = b.nvar(v);
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
