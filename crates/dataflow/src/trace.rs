//! Keyed difference traces — the state behind `join` and `reduce`
//! inside `iterate`.
//!
//! A trace stores, per key, the full timestamped difference history of a
//! collection. Operators accumulate a key's state *as of* a timestamp by
//! summing all differences at times `≤ t` in the product partial order;
//! this is what makes corrections at time joins possible. Only operators
//! built inside `iterate` keep one: at top level every record's time is
//! `(epoch, 0)` and a key's history is only ever read whole, so a
//! top-level `join` or `reduce` keeps each key's accumulation instead
//! (see the `operators` module).
//!
//! # Two-layer spine
//!
//! Each key's history is split into two layers:
//!
//! * a **base** layer holding records folded to epoch 0, kept
//!   consolidated and sorted by `(value, iter)` — every base record's
//!   time is `(0, iter)`, which is `≤` any accumulation time in every
//!   *epoch*, so only the iteration component can affect comparisons;
//! * a small **recent** layer holding the records of the last epoch
//!   that touched the key, in arrival order.
//!
//! # Fold on touch
//!
//! Compaction is a property of the trace, not a schedule: the first
//! [`KeyTrace::extend_key`] to a key in epoch `e` folds that key's
//! recent records — all from one earlier epoch — into its base. Sound
//! because every time the engine will ever compare against has epoch
//! `≥ e`, so only the iteration component of older records can matter.
//! A key nobody touches costs nothing, and every read walks at most the
//! consolidated base plus one epoch of changes. [`KeyTrace::compact`] is
//! the same fold applied to every key at once; it changes no answer.
//!
//! A fold works in place. The folded run is sorted and consolidated
//! where it lies in the recent layer; its records whose `(value, iter)`
//! the base already holds are summed into it, and the rest are appended
//! after an exact reserve and merged in from the back (a bulk fold sorts
//! them in instead). No buffer is allocated and the base keeps no growth
//! slack: a fold leaves its capacity at most twice its length.
//!
//! # Reads into caller buffers
//!
//! [`KeyTrace::accumulate`] writes into a buffer the caller keeps and
//! reuses, and the recent layer's contribution goes through a scratch
//! buffer the trace keeps, so a steady read allocates nothing. The base
//! is value-sorted, so its contribution at any iteration falls out of one
//! pass over its value runs. [`KeyTrace::later_iters`] answers the
//! question `reduce` asks about a key's history — which iterations above
//! `t` does it hold? — without a scan when the key's largest iteration
//! is at most `t`'s.
//!
//! # Keys that never come back
//!
//! Fold on touch reclaims a key's history when the key recurs. A key
//! whose last change was its removal is never touched again and would
//! keep its base `+1` and its recent `-1` for good. So a trace also
//! folds itself whole when, at the first push of a new epoch, it holds
//! more than twice what it held after its last whole fold (or after
//! the bulk load of its first epoch). The whole fold costs O(records)
//! and more than half of those records were pushed since the last one:
//! amortized O(1) per push, and the trace stays within twice its folded
//! size plus one epoch of pushes whatever the keys do.

use std::collections::HashMap;

use crate::delta::{consolidate_values, drain_key_runs, merge_tail, sum_runs, Data, Delta, Diff};
use crate::time::Time;
use crate::util::FxHashMap;

/// One key's two-layer difference history.
struct KeySpine<V: Data> {
    /// Records folded to epoch 0: consolidated (no duplicate
    /// `(value, iter)` pairs, no zero diffs), sorted by `(value, iter)`.
    base: Vec<(V, u32, Diff)>,
    /// Records of the last epoch that pushed to this key, in arrival
    /// order.
    recent: Vec<(V, Time, Diff)>,
    /// Largest iteration present in either layer (0 when empty): no
    /// recorded time lies above an iteration `≥` this.
    max_iter: u32,
}

impl<V: Data> Default for KeySpine<V> {
    fn default() -> Self {
        KeySpine { base: Vec::new(), recent: Vec::new(), max_iter: 0 }
    }
}

/// Accumulate a base layer as of iteration `iter` (base records all
/// live at epoch 0, so only the iteration matters), sum-merged with
/// `rec`, an already-consolidated value-sorted recent contribution, into
/// `out`. The base is sorted by `(value, iter)`, so one pass over the
/// value runs produces sorted output — no sorting, and no intermediate
/// base-only accumulation.
fn scan_base_merged<V: Data>(
    base: &[(V, u32, Diff)],
    iter: u32,
    rec: &[(V, Diff)],
    out: &mut Vec<(V, Diff)>,
) {
    out.clear();
    let mut j = 0;
    let mut i = 0;
    while i < base.len() {
        let run = i;
        let mut sum = 0;
        while i < base.len() && base[i].0 == base[run].0 {
            if base[i].1 <= iter {
                sum += base[i].2;
            }
            i += 1;
        }
        let v = &base[run].0;
        while j < rec.len() && rec[j].0 < *v {
            out.push(rec[j].clone());
            j += 1;
        }
        if j < rec.len() && rec[j].0 == *v {
            sum += rec[j].1;
            j += 1;
        }
        if sum != 0 {
            out.push((v.clone(), sum));
        }
    }
    out.extend_from_slice(&rec[j..]);
}

impl<V: Data> KeySpine<V> {
    /// Fold recent records at epochs `≤ frontier` down to `(0, iter)`
    /// and merge them into the sorted base, in place: the folded run is
    /// sorted and consolidated where it lies in `recent`, its records
    /// whose `(value, iter)` the base already holds are summed into it,
    /// and the rest are appended after an exact reserve and merged in
    /// from the back (or, for a bulk fold, sorted in). Returns how many
    /// records were folded.
    fn compact(&mut self, frontier: u64) -> usize {
        // Epochs never decrease from push to push, so what folds is a
        // prefix.
        let n = self.recent.partition_point(|(_, t, _)| t.epoch <= frontier);
        if n == 0 {
            return 0;
        }
        let run = &mut self.recent[..n];
        run.sort_unstable_by(|a, b| (&a.0, a.1.iter).cmp(&(&b.0, b.1.iter)));
        let m = sum_runs(run, |a, b| a.0 == b.0 && a.1.iter == b.1.iter, |r| &mut r.2);
        // Sum into the base's equal records; what cancels is dropped
        // before the new records need room.
        let mut cancelled = false;
        let mut fresh = 0;
        for (v, t, r) in &mut run[..m] {
            match self.base.binary_search_by(|b| (&b.0, b.1).cmp(&(&*v, t.iter))) {
                Ok(at) => {
                    self.base[at].2 += *r;
                    cancelled |= self.base[at].2 == 0;
                    *r = 0;
                }
                Err(_) => fresh += 1,
            }
        }
        if cancelled {
            self.base.retain(|b| b.2 != 0);
        }
        let old = self.base.len();
        self.base.reserve_exact(fresh);
        self.base.extend(
            self.recent.drain(..n).take(m).filter(|r| r.2 != 0).map(|(v, t, r)| (v, t.iter, r)),
        );
        merge_tail(&mut self.base, old, |a, b| (&a.0, a.1).cmp(&(&b.0, b.1)));
        // A buffer many times larger than the epoch it just gave up was
        // sized by a bulk load; a key's steady per-epoch volume keeps
        // its buffer. The base keeps no growth slack.
        if self.recent.capacity() > 4 * (n + 2) {
            self.recent.shrink_to(n);
        }
        if self.base.capacity() > 2 * self.base.len() {
            self.base.shrink_to_fit();
        }
        let base_max = self.base.iter().map(|&(_, i, _)| i).max().unwrap_or(0);
        let recent_max = self.recent.iter().map(|(_, t, _)| t.iter).max().unwrap_or(0);
        self.max_iter = base_max.max(recent_max);
        n
    }
}

/// Per-key timestamped difference history, stored as a two-layer spine.
pub struct KeyTrace<K: Data, V: Data> {
    entries: FxHashMap<K, KeySpine<V>>,
    /// Total records in the base layers.
    base_len: usize,
    /// Total records in the recent layers.
    recent_len: usize,
    /// Keys folded, and the recent records those folds moved into a
    /// base (cumulative).
    folded: (u64, u64),
    /// Epoch of the latest push.
    epoch: u64,
    /// `len()` after the last whole fold, or after the trace's first
    /// epoch: the size the next whole fold is measured against.
    settled: usize,
    /// Scratch for the recent layer's contribution to an accumulation,
    /// reused from call to call.
    rec: Vec<(V, Diff)>,
}

impl<K: Data, V: Data> Default for KeyTrace<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Data, V: Data> KeyTrace<K, V> {
    pub fn new() -> Self {
        KeyTrace {
            entries: HashMap::default(),
            base_len: 0,
            recent_len: 0,
            folded: (0, 0),
            epoch: 0,
            settled: 0,
            rec: Vec::new(),
        }
    }

    /// Append one difference (into the recent layer). See
    /// [`KeyTrace::extend_key`].
    pub fn push(&mut self, k: K, v: V, t: Time, r: Diff) {
        self.extend_key(&k, [(v, t, r)]);
    }

    /// Append differences for one key, all of one epoch, with one hash
    /// lookup. The first push to a key in a new epoch first folds what
    /// the key's recent layer still holds from an earlier one, so the
    /// layer never spans two epochs; the first push to the trace in a
    /// new epoch folds every key if the trace has doubled since it was
    /// last folded whole, so keys that never recur are reclaimed too.
    /// Epochs must not decrease from one push to the next.
    pub fn extend_key(&mut self, k: &K, recs: impl IntoIterator<Item = (V, Time, Diff)>) {
        let mut recs = recs.into_iter().filter(|r| r.2 != 0).peekable();
        let Some(&(_, Time { epoch: first, .. }, _)) = recs.peek() else {
            return;
        };
        debug_assert!(self.epoch <= first, "push at epoch {first} after {}", self.epoch);
        if self.epoch < first {
            self.epoch = first;
            if self.settled == 0 {
                self.settled = self.len();
            } else if self.len() > 2 * self.settled {
                self.compact(first - 1);
            }
        }
        let spine = self.entries.entry(k.clone()).or_default();
        for (v, t, r) in recs {
            debug_assert_eq!(t.epoch, first, "one key's pushes span epochs");
            if spine.recent.last().is_some_and(|(_, u, _)| u.epoch < t.epoch) {
                let base = spine.base.len();
                let folded = spine.compact(t.epoch - 1);
                self.base_len = self.base_len - base + spine.base.len();
                self.recent_len -= folded;
                self.folded.0 += 1;
                self.folded.1 += folded as u64;
            }
            spine.max_iter = spine.max_iter.max(t.iter);
            spine.recent.push((v, t, r));
            self.recent_len += 1;
        }
    }

    /// Drain `batch`, sorted by key, into the trace with one
    /// [`KeyTrace::extend_key`] per key; `each` sees every record's key
    /// and time.
    pub fn extend_sorted(
        &mut self,
        batch: &mut Vec<Delta<(K, V)>>,
        mut each: impl FnMut(&K, Time),
    ) {
        drain_key_runs(batch, |k, run| self.extend_key(k, run.inspect(|(_, t, _)| each(k, *t))));
    }

    /// Cumulative `(keys, records)` folded.
    pub(crate) fn folded(&self) -> (u64, u64) {
        self.folded
    }

    /// Iterate all differences recorded for `k`, base layer first.
    /// Neither layer is materialized.
    pub fn history<'a>(&'a self, k: &K) -> impl Iterator<Item = (&'a V, Time, Diff)> + 'a {
        let spine = self.entries.get(k);
        let base = spine.map(|s| s.base.as_slice()).unwrap_or(&[]);
        let recent = spine.map(|s| s.recent.as_slice()).unwrap_or(&[]);
        base.iter()
            .map(|(v, i, r)| (v, Time::new(0, *i), *r))
            .chain(recent.iter().map(|(v, t, r)| (v, *t, *r)))
    }

    /// Accumulate `k`'s state as of `t` (product order) into `out`,
    /// consolidated and sorted by value; `out`'s previous contents are
    /// discarded, its memory reused. The base contribution needs no
    /// sorting: one pass over the value-sorted base suffices, with the
    /// (small) recent layer merged on top.
    pub fn accumulate(&mut self, k: &K, t: Time, out: &mut Vec<(V, Diff)>) {
        out.clear();
        let Some(spine) = self.entries.get_mut(k) else {
            return;
        };
        let rec = &mut self.rec;
        rec.clear();
        let recent = spine.recent.iter().filter(|(_, u, _)| u.leq(t));
        rec.extend(recent.map(|(v, _, r)| (v.clone(), *r)));
        consolidate_values(rec);
        scan_base_merged(&spine.base, t.iter, rec, out);
    }

    /// Visit every difference recorded for `k`, base layer first. Two
    /// tight slice loops — the hot path under `join`, where each input
    /// difference walks the other side's whole history.
    pub fn for_each(&self, k: &K, mut f: impl FnMut(&V, Time, Diff)) {
        if let Some(spine) = self.entries.get(k) {
            for (v, i, r) in &spine.base {
                f(v, Time::new(0, *i), *r);
            }
            for (v, t, r) in &spine.recent {
                f(v, *t, *r);
            }
        }
    }

    /// The distinct iterations above `iter` at which `k` has recorded
    /// differences, written into `out` (sorted). Answered without a
    /// scan when the key's largest iteration is at most `iter`.
    pub fn later_iters(&self, k: &K, iter: u32, out: &mut Vec<u32>) {
        out.clear();
        let Some(spine) = self.entries.get(k) else {
            return;
        };
        if spine.max_iter <= iter {
            return;
        }
        out.extend(spine.base.iter().map(|&(_, i, _)| i).filter(|&i| i > iter));
        out.extend(spine.recent.iter().map(|(_, t, _)| t.iter).filter(|&i| i > iter));
        out.sort_unstable();
        out.dedup();
    }

    /// How many records the buffer holding `k`'s base layer has room
    /// for: the memory a fold leaves behind.
    pub fn base_capacity(&self, k: &K) -> usize {
        self.entries.get(k).map_or(0, |s| s.base.capacity())
    }

    /// Number of stored difference records (both layers).
    pub fn len(&self) -> usize {
        self.base_len + self.recent_len
    }

    /// Records in the consolidated base layer.
    pub fn base_len(&self) -> usize {
        self.base_len
    }

    /// Records in the recent delta layer.
    pub fn recent_len(&self) -> usize {
        self.recent_len
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterate over keys (arbitrary order).
    #[allow(dead_code)] // part of the trace API; exercised by tests
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.entries.keys()
    }

    /// Fold every key below an epoch frontier: every record with
    /// `epoch ≤ frontier` is retimed to epoch 0 (keeping its iteration)
    /// and merged into the key's sorted base layer, and keys whose
    /// history cancels are dropped. Sound because any future
    /// accumulation time has epoch `> frontier`. What
    /// [`KeyTrace::extend_key`] does for one key, done for all: no
    /// `accumulate` or `later_iters` answer at a later epoch changes.
    pub fn compact(&mut self, frontier: u64) {
        let mut base_len = 0;
        let mut recent_len = 0;
        let folded = &mut self.folded;
        self.entries.retain(|_, spine| {
            let n = spine.compact(frontier);
            folded.0 += (n > 0) as u64;
            folded.1 += n as u64;
            base_len += spine.base.len();
            recent_len += spine.recent.len();
            !spine.base.is_empty() || !spine.recent.is_empty()
        });
        self.base_len = base_len;
        self.recent_len = recent_len;
        self.settled = self.len();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acc<K: Data, V: Data>(tr: &mut KeyTrace<K, V>, k: K, t: Time) -> Vec<(V, Diff)> {
        let mut out = Vec::new();
        tr.accumulate(&k, t, &mut out);
        out
    }

    /// The distinct times of `k`'s history, sorted.
    fn times<K: Data, V: Data>(tr: &KeyTrace<K, V>, k: K) -> Vec<Time> {
        let mut ts: Vec<Time> = tr.history(&k).map(|(_, t, _)| t).collect();
        ts.sort_unstable();
        ts.dedup();
        ts
    }

    #[test]
    fn accumulate_respects_partial_order() {
        let mut tr: KeyTrace<&str, u32> = KeyTrace::new();
        tr.push("k", 1, Time::new(1, 0), 1);
        tr.push("k", 2, Time::new(1, 3), 1);
        tr.push("k", 3, Time::new(2, 1), 1);
        // As of (2, 0): only the (1,0) record is ≤.
        assert_eq!(acc(&mut tr, "k", Time::new(2, 0)), vec![(1, 1)]);
        // As of (2, 3): everything.
        assert_eq!(acc(&mut tr, "k", Time::new(2, 3)), vec![(1, 1), (2, 1), (3, 1)]);
        // As of (1, 3): first two.
        assert_eq!(acc(&mut tr, "k", Time::new(1, 3)), vec![(1, 1), (2, 1)]);
    }

    #[test]
    fn accumulate_consolidates() {
        let mut tr: KeyTrace<&str, u32> = KeyTrace::new();
        tr.push("k", 7, Time::new(1, 0), 1);
        tr.push("k", 7, Time::new(2, 0), -1);
        assert_eq!(acc(&mut tr, "k", Time::new(2, 0)), vec![]);
        assert_eq!(acc(&mut tr, "k", Time::new(1, 0)), vec![(7, 1)]);
    }

    #[test]
    fn times_dedup_sorted() {
        let mut tr: KeyTrace<&str, u32> = KeyTrace::new();
        tr.push("k", 1, Time::new(2, 1), 1);
        tr.push("k", 2, Time::new(2, 0), 1);
        tr.push("k", 3, Time::new(2, 1), 1);
        assert_eq!(times(&tr, "k"), vec![Time::new(2, 0), Time::new(2, 1)]);
    }

    #[test]
    fn push_folds_only_the_key_it_touches() {
        let mut tr: KeyTrace<&str, u32> = KeyTrace::new();
        tr.push("a", 1, Time::new(1, 0), 1);
        tr.push("b", 1, Time::new(1, 0), 1);
        tr.push("a", 1, Time::new(2, 0), -1);
        // "a" folded its epoch-1 record; nobody touched "b".
        assert_eq!((tr.base_len(), tr.recent_len()), (1, 2));
        assert_eq!(tr.folded(), (1, 1));
        // The next touch cancels the pair out of the base.
        tr.push("a", 2, Time::new(3, 1), 1);
        assert_eq!((tr.base_len(), tr.recent_len()), (0, 2));
        assert_eq!(tr.folded(), (2, 2));
        assert_eq!(times(&tr, "a"), vec![Time::new(3, 1)]);
        assert_eq!(times(&tr, "b"), vec![Time::new(1, 0)]);
    }

    #[test]
    fn keys_that_never_recur_are_reclaimed() {
        let mut tr: KeyTrace<u32, u32> = KeyTrace::new();
        for k in 0..100 {
            tr.push(k, 0, Time::new(1, 0), 1);
        }
        // Each epoch adds a fresh key and retires the previous one; no
        // key is pushed to again after its removal.
        let mut peak = 0;
        for e in 2..2_000u64 {
            tr.push(1_000 + e as u32, 0, Time::new(e, 0), 1);
            if e > 2 {
                tr.push(999 + e as u32, 0, Time::new(e, 0), -1);
            }
            peak = peak.max(tr.len());
        }
        // Live state is 101 records; dead keys hold two each until a
        // whole fold drops them.
        assert!(peak <= 2 * 101 + 2, "trace peaked at {peak} records");
        assert!(tr.keys().count() <= 2 * 101, "dead keys kept their hash entries");
        let before = acc(&mut tr, 5, Time::new(2_000, 0));
        tr.compact(1_999);
        assert_eq!(tr.len(), 101);
        assert_eq!(acc(&mut tr, 5, Time::new(2_000, 0)), before);
    }

    #[test]
    fn compact_preserves_future_accumulations() {
        let mut tr: KeyTrace<&str, u32> = KeyTrace::new();
        tr.push("k", 1, Time::new(1, 0), 1);
        tr.push("k", 1, Time::new(2, 0), -1);
        tr.push("k", 2, Time::new(3, 2), 1);
        let before = acc(&mut tr, "k", Time::new(9, 5));
        let before_low_iter = acc(&mut tr, "k", Time::new(9, 0));
        tr.compact(3);
        assert_eq!(acc(&mut tr, "k", Time::new(9, 5)), before);
        assert_eq!(acc(&mut tr, "k", Time::new(9, 0)), before_low_iter);
        // The cancelling pair was merged away; the survivor sits in the
        // base layer.
        assert_eq!(tr.len(), 1);
        assert_eq!(tr.base_len(), 1);
        assert_eq!(tr.recent_len(), 0);
    }

    #[test]
    fn compact_drops_empty_keys() {
        let mut tr: KeyTrace<&str, u32> = KeyTrace::new();
        tr.push("k", 1, Time::new(1, 0), 1);
        tr.push("k", 1, Time::new(2, 0), -1);
        tr.compact(2);
        assert!(tr.is_empty());
        assert_eq!(tr.keys().count(), 0);
    }

    #[test]
    fn compact_leaves_future_records_in_recent_layer() {
        let mut tr: KeyTrace<&str, u32> = KeyTrace::new();
        tr.push("k", 1, Time::new(1, 0), 1);
        tr.push("k", 2, Time::new(3, 0), 1);
        tr.compact(2);
        assert_eq!(tr.base_len(), 1);
        assert_eq!(tr.recent_len(), 1);
        assert_eq!(acc(&mut tr, "k", Time::new(3, 0)), vec![(1, 1), (2, 1)]);
        assert_eq!(times(&tr, "k"), vec![Time::new(0, 0), Time::new(3, 0)]);
    }

    #[test]
    fn history_iterates_both_layers() {
        let mut tr: KeyTrace<&str, u32> = KeyTrace::new();
        tr.push("k", 1, Time::new(1, 0), 1);
        tr.compact(1);
        tr.push("k", 2, Time::new(2, 0), 1);
        let hist: Vec<(u32, Time, Diff)> =
            tr.history(&"k").map(|(v, t, r)| (*v, t, r)).collect();
        assert_eq!(hist, vec![(1, Time::new(0, 0), 1), (2, Time::new(2, 0), 1)]);
    }
}
