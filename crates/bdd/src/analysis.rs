//! Analysis operations on BDDs: satisfying-assignment counting,
//! evaluation, and witness extraction.

use std::collections::HashMap;

use crate::manager::Bdd;
use crate::node::{Ref, Var};

/// `c * 2^by`, saturating at `u128::MAX`. The 104-variable packet space
/// fits a `u128` exactly, so saturation only triggers past 128 variables.
#[inline]
fn shl_sat(c: u128, by: u32) -> u128 {
    if c == 0 {
        0
    } else if by > c.leading_zeros() {
        u128::MAX
    } else {
        c << by
    }
}

impl Bdd {
    /// Number of satisfying assignments over a space of `num_vars`
    /// variables (variables `0..num_vars`), as `f64` for callers that
    /// want a ratio or a log. The count is computed exactly in `u128`
    /// ([`Self::sat_count_u128`]) and converted at the end, so the only
    /// imprecision is the final rounding to 53 bits of mantissa — counts
    /// near `2^104` no longer drift per-node and equality comparisons on
    /// exactly representable counts are stable.
    ///
    /// Every variable appearing in `a` must be `< num_vars`.
    pub fn sat_count(&self, a: Ref, num_vars: u32) -> f64 {
        self.sat_count_u128(a, num_vars) as f64
    }

    /// Exact number of satisfying assignments over `num_vars` variables,
    /// saturating at `u128::MAX`. The full 5-tuple packet space has
    /// `2^104` assignments, well inside `u128`, so every packet-space
    /// count is exact; saturation only applies to `num_vars > 128`.
    ///
    /// Every variable appearing in `a` must be `< num_vars`.
    pub fn sat_count_u128(&self, a: Ref, num_vars: u32) -> u128 {
        let mut memo: HashMap<Ref, u128> = HashMap::new();
        // count(r) = satisfying assignments over vars var_of(r)..num_vars,
        // then scale by the gap above the root.
        let c = self.sat_count_rec(a, num_vars, &mut memo);
        let root_var = if a.is_terminal() { num_vars } else { self.var_of(a) };
        shl_sat(c, root_var)
    }

    fn sat_count_rec(&self, a: Ref, num_vars: u32, memo: &mut HashMap<Ref, u128>) -> u128 {
        if a.is_false() {
            return 0;
        }
        if a.is_true() {
            return 1;
        }
        if let Some(&c) = memo.get(&a) {
            return c;
        }
        let n = self.node(a);
        debug_assert!(n.var < num_vars, "sat_count: variable {} out of range {num_vars}", n.var);
        let gap = |child: Ref| -> u32 {
            let cv = if child.is_terminal() { num_vars } else { self.var_of(child) };
            cv - n.var - 1
        };
        let lo = shl_sat(self.sat_count_rec(n.lo, num_vars, memo), gap(n.lo));
        let hi = shl_sat(self.sat_count_rec(n.hi, num_vars, memo), gap(n.hi));
        let c = lo.saturating_add(hi);
        memo.insert(a, c);
        c
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

    /// Extract one satisfying assignment as `(var, value)` pairs for the
    /// variables along the chosen path (unmentioned variables are free).
    /// Returns `None` iff `a` is unsatisfiable.
    pub fn pick_cube(&self, a: Ref) -> Option<Vec<(Var, bool)>> {
        if a.is_false() {
            return None;
        }
        let mut cube = Vec::new();
        let mut r = a;
        while !r.is_terminal() {
            let n = self.node(r);
            // Prefer the hi branch when it is satisfiable, else take lo.
            if !n.hi.is_false() {
                cube.push((n.var, true));
                r = n.hi;
            } else {
                cube.push((n.var, false));
                r = n.lo;
            }
        }
        debug_assert!(r.is_true());
        Some(cube)
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
    fn sat_count_simple() {
        let mut b = Bdd::new();
        let x = b.var(0);
        assert_eq!(b.sat_count(x, 1), 1.0);
        assert_eq!(b.sat_count(x, 4), 8.0);
        assert_eq!(b.sat_count(Ref::TRUE, 10), 1024.0);
        assert_eq!(b.sat_count(Ref::FALSE, 10), 0.0);
        let y = b.var(3);
        let xy = b.and(x, y);
        assert_eq!(b.sat_count(xy, 4), 4.0);
        let xoy = b.or(x, y);
        assert_eq!(b.sat_count(xoy, 4), 12.0);
    }

    #[test]
    fn sat_count_exact_at_high_var_counts() {
        let mut b = Bdd::new();
        // The predicate excluding exactly one fully specified 104-bit
        // packet: count is 2^104 - 1, which f64 cannot represent (the
        // old f64 accumulation silently rounded node-by-node).
        let lits: Vec<Ref> = (0..104).map(|v| b.var(v)).collect();
        let cube = b.and_all(lits);
        let almost_full = b.not(cube);
        assert_eq!(b.sat_count_u128(cube, 104), 1);
        assert_eq!(b.sat_count_u128(almost_full, 104), (1u128 << 104) - 1);
        assert_eq!(b.sat_count_u128(Ref::TRUE, 104), 1u128 << 104);
        // The f64 view rounds 2^104 - 1 up to 2^104 — documented, stable
        // rounding at the boundary rather than drift inside the sum.
        assert_eq!(b.sat_count(almost_full, 104), 2f64.powi(104));
        assert_eq!(b.sat_count(cube, 104), 1.0);
    }

    #[test]
    fn sat_count_saturates_past_u128() {
        let mut b = Bdd::new();
        // 2^128 does not fit: saturates instead of wrapping to zero.
        assert_eq!(b.sat_count_u128(Ref::TRUE, 128), u128::MAX);
        let x = b.var(0);
        assert_eq!(b.sat_count_u128(x, 129), u128::MAX);
        assert_eq!(b.sat_count_u128(Ref::FALSE, 200), 0);
        // Just inside the representable range: exact.
        assert_eq!(b.sat_count_u128(x, 128), 1u128 << 127);
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
    fn pick_cube_satisfies() {
        let mut b = Bdd::new();
        let x = b.var(0);
        let ny = b.nvar(1);
        let f = b.and(x, ny);
        let cube = b.pick_cube(f).unwrap();
        let assignment: std::collections::HashMap<_, _> = cube.into_iter().collect();
        assert!(b.eval(f, |v| *assignment.get(&v).unwrap_or(&false)));
        assert!(b.pick_cube(Ref::FALSE).is_none());
    }

    #[test]
    fn subset_and_intersects() {
        let mut b = Bdd::new();
        let x = b.var(0);
        let y = b.var(1);
        let xy = b.and(x, y);
        assert!(b.subset(xy, x));
        assert!(!b.subset(x, xy));
        let nx = b.not(x);
        assert!(!b.intersects(x, nx));
        assert!(b.intersects(x, y));
    }
}
