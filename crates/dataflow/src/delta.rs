//! Difference (multiset-change) utilities.
//!
//! Every record flowing through the engine is a `(data, time, diff)`
//! triple; `diff` is a signed multiplicity change. Collections are the
//! accumulation of their difference history.

use std::cmp::Ordering;

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

/// Drain `batch`, sorted by key (as [`consolidate`] leaves it), one key
/// at a time: `each` gets the key and its run of `(value, time, diff)`
/// records, in order. What `each` leaves of a run is dropped.
pub(crate) fn drain_key_runs<K: Data, V: Data>(
    batch: &mut Vec<Delta<(K, V)>>,
    mut each: impl FnMut(&K, &mut dyn Iterator<Item = (V, Time, Diff)>),
) {
    let mut batch = batch.drain(..).peekable();
    while let Some(((k, v), t, r)) = batch.next() {
        let mut run = std::iter::once((v, t, r)).chain(std::iter::from_fn(|| {
            batch.next_if(|((next, _), _, _)| *next == k).map(|((_, v), t, r)| (v, t, r))
        }));
        each(&k, &mut run);
        run.for_each(drop);
    }
}

/// Merge `items[old..]` into `items[..old]`, both sorted by `cmp` and
/// sharing no item `cmp` calls equal, in place. A short tail is merged
/// in from the back: each step takes the largest unplaced new item,
/// finds the older items above it and rotates them past the unplaced
/// new ones, so every older item moves once. The rotations move the
/// unplaced new items once per step, so a tail with more items than the
/// square root of the merged length is sorted in instead.
pub(crate) fn merge_tail<T>(items: &mut [T], old: usize, cmp: impl Fn(&T, &T) -> Ordering) {
    let fresh = items.len() - old;
    if fresh * fresh > items.len() {
        return items.sort_unstable_by(cmp);
    }
    let (mut older, mut end) = (old, items.len());
    while older > 0 && end > older {
        let p = items[..older].partition_point(|b| cmp(b, &items[end - 1]).is_lt());
        let unplaced = end - older;
        items[p..end].rotate_left(older - p);
        older = p;
        end = p + unplaced - 1;
    }
}

/// Add `run` — values ascending, none twice, no zero diff — into `acc`,
/// a consolidated accumulation sorted by value, in place: a value `acc`
/// holds is summed into (and dropped if it cancels), the others are
/// appended and merged in. Returns `acc`'s new length minus its old.
pub(crate) fn add_values<V: Data>(
    acc: &mut Vec<(V, Diff)>,
    run: impl IntoIterator<Item = (V, Diff)>,
) -> isize {
    let before = acc.len();
    let (mut fresh, mut cancelled) = (0, false);
    for (v, r) in run {
        debug_assert!(acc[before..].last().is_none_or(|l| l.0 < v), "run not ascending");
        match acc[..before].binary_search_by(|a| a.0.cmp(&v)) {
            Ok(i) => {
                acc[i].1 += r;
                cancelled |= acc[i].1 == 0;
            }
            Err(_) => {
                acc.push((v, r));
                fresh += 1;
            }
        }
    }
    if cancelled {
        acc.retain(|a| a.1 != 0);
    }
    let old = acc.len() - fresh;
    merge_tail(acc, old, |a, b| a.0.cmp(&b.0));
    // A buffer many times larger than what it still holds was sized by
    // a bulk load or a key that has since shrunk.
    if acc.capacity() > 4 * (acc.len() + 2) {
        acc.shrink_to_fit();
    }
    acc.len() as isize - before as isize
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
    fn add_values_sums_drops_and_merges_in_place() {
        let mut acc = vec![("a", 1), ("c", 2), ("e", 1)];
        assert_eq!(add_values(&mut acc, [("b", 1), ("c", -2), ("f", 3)]), 1);
        assert_eq!(acc, vec![("a", 1), ("b", 1), ("e", 1), ("f", 3)]);
        assert_eq!(add_values(&mut acc, [("a", -1), ("b", -1), ("e", -1), ("f", -3)]), -4);
        assert!(acc.is_empty());
        // A bulk run into an empty accumulation is sorted in.
        assert_eq!(add_values(&mut acc, [("x", 1), ("y", -1)]), 2);
        assert_eq!(acc, vec![("x", 1), ("y", -1)]);
    }

    #[test]
    fn merge_tail_rotates_short_tails_and_sorts_long_ones() {
        let mut short: Vec<u32> = (0..20).map(|i| 2 * i).collect();
        short.extend([7, 33]);
        merge_tail(&mut short, 20, |a, b| a.cmp(b));
        let mut long = vec![1, 4, 9, 2, 3, 5, 8];
        merge_tail(&mut long, 3, |a, b| a.cmp(b));
        for merged in [short, long] {
            assert!(merged.windows(2).all(|w| w[0] < w[1]), "{merged:?}");
        }
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
