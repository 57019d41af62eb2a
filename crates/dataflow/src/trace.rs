//! Keyed difference traces — the persistent state behind `join` and
//! `reduce`.
//!
//! A trace stores, per key, the full timestamped difference history of a
//! collection. Operators accumulate a key's state *as of* a timestamp by
//! summing all differences at times `≤ t` in the product partial order;
//! this is what makes corrections at time joins possible.
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
//! [`KeyTrace::push`] to a key in epoch `e` folds that key's recent
//! records — all from one earlier epoch — into its base. Sound because
//! every time the engine will ever compare against has epoch `≥ e`, so
//! only the iteration component of older records can matter. A key
//! nobody touches costs nothing, a touched key pays one linear merge of
//! its own history, and every read walks at most the consolidated base
//! plus one epoch of changes. [`KeyTrace::compact`] is the same fold
//! applied to every key at once; it changes no answer.
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

use crate::delta::{consolidate_values, Data, Diff};
use crate::time::Time;
use crate::util::FxHashMap;

/// A cached full-base accumulation. Boxed so an uncached spine — the
/// overwhelmingly common case, since only deep bases are cached — stays
/// one pointer wide, keeping the per-key entries small in the trace's
/// hash table.
type BaseAccCache<V> = Option<Box<Vec<(V, Diff)>>>;

/// One key's two-layer difference history.
struct KeySpine<V: Data> {
    /// Records folded to epoch 0: consolidated (no duplicate
    /// `(value, iter)` pairs, no zero diffs), sorted by `(value, iter)`.
    base: Vec<(V, u32, Diff)>,
    /// Records of the last epoch that pushed to this key, in arrival
    /// order.
    recent: Vec<(V, Time, Diff)>,
    /// Largest iteration present in `base` (0 when empty). Base
    /// accumulations at any iteration `≥` this are identical, so they
    /// can all be served from one cached entry.
    max_base_iter: u32,
    /// Cached accumulation of the *whole* base layer (the answer for
    /// any iteration `≥ max_base_iter` — in particular for every
    /// top-level, iteration-0 trace). Pushes land in the recent layer
    /// and never invalidate it; only a fold does. Lookups below
    /// `max_base_iter` scan the base directly instead of thrashing this
    /// entry.
    cache: BaseAccCache<V>,
}

impl<V: Data> Default for KeySpine<V> {
    fn default() -> Self {
        KeySpine { base: Vec::new(), recent: Vec::new(), max_base_iter: 0, cache: None }
    }
}

/// Base size below which accumulations scan directly instead of going
/// through the per-key cache. For short histories the scan is a handful
/// of comparisons, and skipping the cache avoids materializing (and
/// cloning out of) a second copy of essentially the whole base.
const CACHE_MIN_BASE: usize = 64;

impl<V: Data> KeySpine<V> {
    /// Accumulate the base layer as of iteration `iter` (base records
    /// all live at epoch 0, so only the iteration matters), sum-merged
    /// with `rec`, an already-consolidated value-sorted recent
    /// contribution. The base is sorted by `(value, iter)`, so one pass
    /// over the value runs produces sorted output — no sorting, and no
    /// intermediate base-only accumulation.
    fn scan_base_merged(&self, iter: u32, rec: &[(V, Diff)]) -> Vec<(V, Diff)> {
        let mut acc: Vec<(V, Diff)> = Vec::new();
        let mut j = 0;
        let mut i = 0;
        while i < self.base.len() {
            let run = i;
            let mut sum = 0;
            while i < self.base.len() && self.base[i].0 == self.base[run].0 {
                if self.base[i].1 <= iter {
                    sum += self.base[i].2;
                }
                i += 1;
            }
            let v = &self.base[run].0;
            while j < rec.len() && rec[j].0 < *v {
                acc.push(rec[j].clone());
                j += 1;
            }
            if j < rec.len() && rec[j].0 == *v {
                sum += rec[j].1;
                j += 1;
            }
            if sum != 0 {
                acc.push((v.clone(), sum));
            }
        }
        acc.extend_from_slice(&rec[j..]);
        acc
    }

    /// Fold recent records at epochs `≤ frontier` down to `(0, iter)`
    /// and merge them into the sorted base in one linear pass. Returns
    /// how many records were folded.
    fn compact(&mut self, frontier: u64) -> usize {
        // Epochs never decrease from push to push, so what folds is a
        // prefix; it is drained by value.
        let n = self.recent.partition_point(|(_, t, _)| t.epoch <= frontier);
        if n == 0 {
            return 0;
        }
        let mut fold: Vec<(V, u32, Diff)> =
            self.recent.drain(..n).map(|(v, t, r)| (v, t.iter, r)).collect();
        // A buffer many times larger than the epoch it just gave up was
        // sized by a bulk load; a key's steady per-epoch volume keeps
        // its buffer.
        if self.recent.capacity() > 4 * (n + 2) {
            self.recent.shrink_to(n);
        }
        self.cache = None;
        fold.sort_unstable_by(|a, b| (&a.0, a.1).cmp(&(&b.0, b.1)));
        fold.dedup_by(|later, first| {
            let same = first.0 == later.0 && first.1 == later.1;
            if same {
                first.2 += later.2;
            }
            same
        });
        // Merge the two consolidated runs, summing equal (value, iter)
        // pairs and dropping zeros. The base is never re-sorted.
        let mut merged = Vec::with_capacity(self.base.len() + fold.len());
        let mut base = std::mem::take(&mut self.base).into_iter().peekable();
        for rec in fold {
            while let Some(older) = base.next_if(|b| (&b.0, b.1) < (&rec.0, rec.1)) {
                merged.push(older);
            }
            let sum = rec.2 + base.next_if(|b| b.0 == rec.0 && b.1 == rec.1).map_or(0, |b| b.2);
            if sum != 0 {
                merged.push((rec.0, rec.1, sum));
            }
        }
        merged.extend(base);
        self.base = merged;
        self.max_base_iter = self.base.iter().map(|&(_, i, _)| i).max().unwrap_or(0);
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
    /// base (cumulative; a plain tally, traces live inside operator
    /// shards).
    folded: (u64, u64),
    /// Epoch of the latest push.
    epoch: u64,
    /// `len()` after the last whole fold, or after the trace's first
    /// epoch: the size the next whole fold is measured against.
    settled: usize,
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
        }
    }

    /// Append one difference (into the recent layer). The first push to
    /// a key in a new epoch first folds what the key's recent layer
    /// still holds from an earlier one, so the layer never spans two
    /// epochs; the first push to the trace in a new epoch folds every
    /// key if the trace has doubled since it was last folded whole, so
    /// keys that never recur are reclaimed too. Epochs must not
    /// decrease from one push to the next.
    pub fn push(&mut self, k: K, v: V, t: Time, r: Diff) {
        if r == 0 {
            return;
        }
        debug_assert!(self.epoch <= t.epoch, "push at epoch {} after {}", t.epoch, self.epoch);
        if self.epoch < t.epoch {
            self.epoch = t.epoch;
            if self.settled == 0 {
                self.settled = self.len();
            } else if self.len() > 2 * self.settled {
                self.compact(t.epoch - 1);
            }
        }
        let spine = self.entries.entry(k).or_default();
        if spine.recent.last().is_some_and(|(_, u, _)| u.epoch < t.epoch) {
            let base = spine.base.len();
            let folded = spine.compact(t.epoch - 1);
            self.base_len = self.base_len - base + spine.base.len();
            self.recent_len -= folded;
            self.folded.0 += 1;
            self.folded.1 += folded as u64;
        }
        spine.recent.push((v, t, r));
        self.recent_len += 1;
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

    /// Accumulate `k`'s state as of `t` (product order), consolidated
    /// and sorted by value. The base contribution needs no sorting: at
    /// or above `max_base_iter` it is served from a per-key cache
    /// (valid across pushes, dropped when the key folds), and below it
    /// a single pass over the value-sorted base suffices. The (small)
    /// recent layer is merged on top.
    pub fn accumulate(&mut self, k: &K, t: Time) -> Vec<(V, Diff)> {
        let Some(spine) = self.entries.get_mut(k) else {
            return Vec::new();
        };
        let mut rec: Vec<(V, Diff)> = spine
            .recent
            .iter()
            .filter(|(_, u, _)| u.leq(t))
            .map(|(v, _, r)| (v.clone(), *r))
            .collect();
        consolidate_values(&mut rec);
        if t.iter < spine.max_base_iter || spine.base.len() < CACHE_MIN_BASE {
            return spine.scan_base_merged(t.iter, &rec);
        }
        if spine.cache.is_none() {
            spine.cache = Some(Box::new(spine.scan_base_merged(spine.max_base_iter, &[])));
        }
        let base_acc: &[(V, Diff)] = spine.cache.as_deref().map_or(&[], |c| c.as_slice());
        if rec.is_empty() {
            return base_acc.to_vec();
        }
        merge_accumulations(base_acc, &rec)
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

    /// The distinct timestamps at which `k` has recorded differences,
    /// written into `out` (sorted, deduplicated). Reusing a caller-side
    /// scratch buffer avoids a fresh allocation per lookup.
    pub fn times_into(&self, k: &K, out: &mut Vec<Time>) {
        out.clear();
        if let Some(spine) = self.entries.get(k) {
            out.extend(spine.base.iter().map(|&(_, i, _)| Time::new(0, i)));
            out.extend(spine.recent.iter().map(|&(_, t, _)| t));
        }
        out.sort_unstable();
        out.dedup();
    }

    /// [`KeyTrace::times_into`] returning a fresh `Vec`.
    pub fn times(&self, k: &K) -> Vec<Time> {
        let mut ts = Vec::new();
        self.times_into(k, &mut ts);
        ts
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
    /// accumulation time has epoch `> frontier`. What [`KeyTrace::push`]
    /// does for one key, done for all: no `accumulate` or `times`
    /// answer at a later epoch changes.
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

/// Sum-merge two consolidated, value-sorted accumulations, dropping
/// zeros. Both inputs must be sorted by value with no duplicates.
fn merge_accumulations<V: Data>(a: &[(V, Diff)], b: &[(V, Diff)]) -> Vec<(V, Diff)> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => {
                out.push(a[i].clone());
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j].clone());
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                let sum = a[i].1 + b[j].1;
                if sum != 0 {
                    out.push((a[i].0.clone(), sum));
                }
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulate_respects_partial_order() {
        let mut tr: KeyTrace<&str, u32> = KeyTrace::new();
        tr.push("k", 1, Time::new(1, 0), 1);
        tr.push("k", 2, Time::new(1, 3), 1);
        tr.push("k", 3, Time::new(2, 1), 1);
        // As of (2, 0): only the (1,0) record is ≤.
        assert_eq!(tr.accumulate(&"k", Time::new(2, 0)), vec![(1, 1)]);
        // As of (2, 3): everything.
        assert_eq!(tr.accumulate(&"k", Time::new(2, 3)), vec![(1, 1), (2, 1), (3, 1)]);
        // As of (1, 3): first two.
        assert_eq!(tr.accumulate(&"k", Time::new(1, 3)), vec![(1, 1), (2, 1)]);
    }

    #[test]
    fn accumulate_consolidates() {
        let mut tr: KeyTrace<&str, u32> = KeyTrace::new();
        tr.push("k", 7, Time::new(1, 0), 1);
        tr.push("k", 7, Time::new(2, 0), -1);
        assert_eq!(tr.accumulate(&"k", Time::new(2, 0)), vec![]);
        assert_eq!(tr.accumulate(&"k", Time::new(1, 0)), vec![(7, 1)]);
    }

    #[test]
    fn times_dedup_sorted() {
        let mut tr: KeyTrace<&str, u32> = KeyTrace::new();
        tr.push("k", 1, Time::new(2, 1), 1);
        tr.push("k", 2, Time::new(2, 0), 1);
        tr.push("k", 3, Time::new(2, 1), 1);
        assert_eq!(tr.times(&"k"), vec![Time::new(2, 0), Time::new(2, 1)]);
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
        assert_eq!(tr.times(&"a"), vec![Time::new(3, 1)]);
        assert_eq!(tr.times(&"b"), vec![Time::new(1, 0)]);
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
        let before = tr.accumulate(&5, Time::new(2_000, 0));
        tr.compact(1_999);
        assert_eq!(tr.len(), 101);
        assert_eq!(tr.accumulate(&5, Time::new(2_000, 0)), before);
    }

    #[test]
    fn compact_preserves_future_accumulations() {
        let mut tr: KeyTrace<&str, u32> = KeyTrace::new();
        tr.push("k", 1, Time::new(1, 0), 1);
        tr.push("k", 1, Time::new(2, 0), -1);
        tr.push("k", 2, Time::new(3, 2), 1);
        let before = tr.accumulate(&"k", Time::new(9, 5));
        let before_low_iter = tr.accumulate(&"k", Time::new(9, 0));
        tr.compact(3);
        assert_eq!(tr.accumulate(&"k", Time::new(9, 5)), before);
        assert_eq!(tr.accumulate(&"k", Time::new(9, 0)), before_low_iter);
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
        assert_eq!(tr.accumulate(&"k", Time::new(3, 0)), vec![(1, 1), (2, 1)]);
        assert_eq!(tr.times(&"k"), vec![Time::new(0, 0), Time::new(3, 0)]);
    }

    #[test]
    fn accumulation_cache_survives_pushes() {
        let mut tr: KeyTrace<&str, u32> = KeyTrace::new();
        for e in 1..=4 {
            tr.push("k", e as u32, Time::new(e, 0), 1);
        }
        tr.compact(4);
        let base = tr.accumulate(&"k", Time::new(5, 0));
        // A push after compaction must show up even though the base
        // accumulation is cached.
        tr.push("k", 99, Time::new(5, 0), 1);
        let mut expect = base.clone();
        expect.push((99, 1));
        assert_eq!(tr.accumulate(&"k", Time::new(5, 0)), expect);
        // At a later epoch the cached base is reused again.
        assert_eq!(tr.accumulate(&"k", Time::new(6, 0)), expect);
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
