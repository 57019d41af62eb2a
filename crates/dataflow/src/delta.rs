//! Difference (multiset-change) utilities.
//!
//! Every record flowing through the engine is a `(data, time, diff)`
//! triple; `diff` is a signed multiplicity change. Collections are the
//! accumulation of their difference history.

use crate::time::Time;

/// Signed multiplicity change.
pub type Diff = isize;

/// A timestamped difference record.
pub type Delta<D> = (D, Time, Diff);

/// The `Data` bound required of everything flowing through a dataflow:
/// cheap to clone, totally ordered (for consolidation), hashable (for
/// keyed state) and owned.
pub trait Data: Clone + Ord + std::hash::Hash + std::fmt::Debug + 'static {}
impl<T: Clone + Ord + std::hash::Hash + std::fmt::Debug + 'static> Data for T {}

/// Sum the diffs of equal `(data, time)` pairs and drop zeros, in place.
/// The sort is the stable one: a batch often arrives as a few sorted
/// runs (a `concat` of sorted inputs), which it merges in linear time.
pub fn consolidate<D: Data>(deltas: &mut Vec<Delta<D>>) {
    deltas.sort_by(|a, b| (&a.0, a.1).cmp(&(&b.0, b.1)));
    let n = sum_runs(deltas, |a, b| a.0 == b.0 && a.1 == b.1, |d| &mut d.2);
    deltas.truncate(n);
}

/// Sum the diffs of equal values (ignoring time) and drop zeros, in
/// place. Used for accumulated views.
pub fn consolidate_values<D: Data>(values: &mut Vec<(D, Diff)>) {
    values.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    let n = sum_runs(values, |a, b| a.0 == b.0, |v| &mut v.1);
    values.truncate(n);
}

/// Sum the diffs of each run of adjacent `same` items into its first
/// item, move the items whose sum is nonzero to the front, and return
/// how many there are.
pub(crate) fn sum_runs<T>(
    items: &mut [T],
    same: impl Fn(&T, &T) -> bool,
    diff: impl Fn(&mut T) -> &mut Diff,
) -> usize {
    let mut write = 0;
    let mut read = 0;
    while read < items.len() {
        let mut sum = *diff(&mut items[read]);
        let mut end = read + 1;
        while end < items.len() && same(&items[end], &items[read]) {
            sum += *diff(&mut items[end]);
            end += 1;
        }
        if sum != 0 {
            items.swap(write, read);
            *diff(&mut items[write]) = sum;
            write += 1;
        }
        read = end;
    }
    write
}

/// Multiset difference of two consolidated, sorted `(value, count)`
/// lists, `a ⊖ b`, written into `out` (its previous contents
/// discarded). Both inputs must be sorted by value with no duplicates;
/// the output is likewise.
pub(crate) fn value_delta<D: Data>(a: &[(D, Diff)], b: &[(D, Diff)], out: &mut Vec<(D, Diff)>) {
    out.clear();
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        match (a.get(i), b.get(j)) {
            (Some(x), Some(y)) => match x.0.cmp(&y.0) {
                std::cmp::Ordering::Less => {
                    out.push(x.clone());
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push((y.0.clone(), -y.1));
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    if x.1 != y.1 {
                        out.push((x.0.clone(), x.1 - y.1));
                    }
                    i += 1;
                    j += 1;
                }
            },
            (Some(x), None) => {
                out.push(x.clone());
                i += 1;
            }
            (None, Some(y)) => {
                out.push((y.0.clone(), -y.1));
                j += 1;
            }
            (None, None) => unreachable!(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(e: u64) -> Time {
        Time::new(e, 0)
    }

    #[test]
    fn consolidate_merges_and_drops_zeros() {
        let mut v = vec![("a", t(1), 2), ("b", t(1), 1), ("a", t(1), -2), ("b", t(2), 1)];
        consolidate(&mut v);
        assert_eq!(v, vec![("b", t(1), 1), ("b", t(2), 1)]);
    }

    #[test]
    fn consolidate_keeps_distinct_times() {
        let mut v = vec![("a", t(1), 1), ("a", t(2), -1)];
        consolidate(&mut v);
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn consolidate_values_ignores_time() {
        let mut v = vec![("a", 1), ("a", -1), ("b", 3)];
        consolidate_values(&mut v);
        assert_eq!(v, vec![("b", 3)]);
    }

    #[test]
    fn value_delta_subtracts() {
        let a = vec![("a", 1), ("b", 2)];
        let b = vec![("b", 1), ("c", 1)];
        // One buffer throughout: each call must discard what the last left.
        let mut out = vec![("stale", 9)];
        value_delta(&a, &b, &mut out);
        assert_eq!(out, vec![("a", 1), ("b", 1), ("c", -1)]);
        value_delta(&a, &a, &mut out);
        assert_eq!(out, vec![]);
        value_delta(&[], &b, &mut out);
        assert_eq!(out, vec![("b", -1), ("c", -1)]);
    }
}
