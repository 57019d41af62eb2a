//! Two-layer spine soundness: for random interleavings of push,
//! accumulate, times and compact — following the engine contract that
//! epochs advance monotonically and pushes after `compact(f)` carry
//! epochs `> f` — the spine trace must be observationally equal to a
//! naive flat reference trace that folds by the same rules: the first
//! push to a key in epoch `e` retimes that key's records from epochs
//! `< e` to epoch 0, and the first push of an epoch folds every key if
//! the trace has doubled since its last whole fold. A twin spine that
//! is explicitly compacted after every step must agree too —
//! fold-on-touch ≡ fold-everything.
//!
//! Counterexamples found by the random suite are pinned as named
//! regression tests at the bottom of this file.

use proptest::prelude::*;
use rc_dataflow::trace::KeyTrace;
use rc_dataflow::{consolidate_values, Diff, Time};

type K = u8;
type V = u8;

#[derive(Clone, Debug)]
enum Op {
    Push { key: K, value: V, iter: u32, diff: Diff },
    /// A new epoch that replaces one of the key's values — the shape of
    /// a steady-state change, and what makes sequences run long.
    Replace { key: K, from: V, to: V },
    Accumulate { key: K, iter: u32 },
    Times { key: K },
    AdvanceEpoch,
    Compact,
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            4 => (0..4u8, 0..6u8, 0..4u32, -2isize..3).prop_map(|(key, value, iter, diff)| {
                Op::Push { key, value, iter, diff }
            }),
            4 => (0..4u8, 0..6u8, 0..6u8).prop_map(|(key, from, to)| Op::Replace { key, from, to }),
            3 => (0..4u8, 0..5u32).prop_map(|(key, iter)| Op::Accumulate { key, iter }),
            2 => (0..4u8).prop_map(|key| Op::Times { key }),
            2 => Just(Op::AdvanceEpoch),
            1 => Just(Op::Compact),
        ],
        1..120,
    )
}

/// Flat reference trace: an unordered list of `(value, time, diff)`
/// records per key, with every operation implemented by brute force.
#[derive(Default)]
struct NaiveTrace {
    records: Vec<(K, V, Time, Diff)>,
    /// Epoch of the latest push.
    epoch: u64,
    /// Record count after the last whole fold (or the first epoch).
    settled: usize,
}

impl NaiveTrace {
    /// Fold on touch: if the key still holds live records from an
    /// earlier epoch, they are folded before the new one lands — after
    /// a whole fold, if this push opens an epoch and the trace has
    /// doubled since the last one.
    fn push(&mut self, k: K, v: V, t: Time, r: Diff) {
        if r != 0 {
            if self.epoch < t.epoch {
                self.epoch = t.epoch;
                if self.settled == 0 {
                    self.settled = self.records.len();
                } else if self.records.len() > 2 * self.settled {
                    self.fold(None, t.epoch - 1);
                }
            }
            let stale = |&(key, _, u, _): &(K, V, Time, Diff)| {
                key == k && u.epoch > 0 && u.epoch < t.epoch
            };
            if self.records.iter().any(stale) {
                self.fold(Some(k), t.epoch - 1);
            }
            self.records.push((k, v, t, r));
        }
    }

    fn accumulate(&self, k: K, t: Time) -> Vec<(V, Diff)> {
        let mut acc: Vec<(V, Diff)> = self
            .records
            .iter()
            .filter(|(key, _, u, _)| *key == k && u.leq(t))
            .map(|(_, v, _, r)| (*v, *r))
            .collect();
        consolidate_values(&mut acc);
        acc
    }

    fn times(&self, k: K) -> Vec<Time> {
        let mut ts: Vec<Time> =
            self.records.iter().filter(|(key, ..)| *key == k).map(|(_, _, t, _)| *t).collect();
        ts.sort_unstable();
        ts.dedup();
        ts
    }

    fn compact(&mut self, frontier: u64) {
        self.fold(None, frontier);
    }

    /// Mirror of the spine's fold, for one key or for all: records at
    /// epochs `≤ frontier` are retimed to `(0, iter)` and consolidated
    /// per `(key, value, iter)` (previously folded records are at epoch
    /// 0 and re-enter the fold).
    fn fold(&mut self, only: Option<K>, frontier: u64) {
        let mut folded: Vec<(K, V, u32, Diff)> = Vec::new();
        let mut kept: Vec<(K, V, Time, Diff)> = Vec::new();
        for (k, v, t, r) in self.records.drain(..) {
            if t.epoch <= frontier && only.is_none_or(|key| key == k) {
                folded.push((k, v, t.iter, r));
            } else {
                kept.push((k, v, t, r));
            }
        }
        folded.sort_unstable();
        let mut consolidated: Vec<(K, V, u32, Diff)> = Vec::new();
        for (k, v, i, r) in folded {
            match consolidated.last_mut() {
                Some(last) if last.0 == k && last.1 == v && last.2 == i => {
                    last.3 += r;
                    if last.3 == 0 {
                        consolidated.pop();
                    }
                }
                _ => consolidated.push((k, v, i, r)),
            }
        }
        self.records =
            consolidated.into_iter().map(|(k, v, i, r)| (k, v, Time::new(0, i), r)).collect();
        self.records.extend(kept);
        if only.is_none() {
            self.settled = self.records.len();
        }
    }
}

/// The iterations at which a key has history — all of `times` that a
/// later epoch can observe (a join with a later time keeps only the
/// iteration). An explicit fold may only drop iterations, namely those
/// where the history it merged cancels.
fn iters(times: Vec<Time>) -> Vec<u32> {
    let mut its: Vec<u32> = times.into_iter().map(|t| t.iter).collect();
    its.sort_unstable();
    its.dedup();
    its
}

/// A shallow, a deep and a next-epoch accumulation time.
fn probes(epoch: u64) -> [Time; 3] {
    [Time::new(epoch, 0), Time::new(epoch, 8), Time::new(epoch + 1, 2)]
}

/// Structural invariants of the spine, checked after every step.
fn check_structure(spine: &KeyTrace<K, V>, step: usize) {
    let (mut base, mut recent) = (0, 0);
    for key in 0..4u8 {
        // Live pushes start at epoch 1, so epoch 0 is the base layer.
        let live: Vec<u64> =
            spine.history(&key).map(|(_, t, _)| t.epoch).filter(|&e| e > 0).collect();
        base += spine.history(&key).count() - live.len();
        recent += live.len();
        assert!(
            live.windows(2).all(|w| w[0] == w[1]),
            "key {key}: recent layer spans epochs {live:?} at step {step}"
        );
    }
    assert_eq!((spine.base_len(), spine.recent_len()), (base, recent), "recount at step {step}");
    assert_eq!(spine.len(), base + recent);
}

/// Drive the traces through the op sequence, checking every
/// observation; panics (via assert) on the first divergence so the same
/// body serves proptest and the pinned regressions. Returns the last
/// epoch reached.
fn check_spine_matches_naive(ops: &[Op]) -> u64 {
    let mut spine: KeyTrace<K, V> = KeyTrace::new();
    // The same pushes, plus an explicit full fold after every step.
    let mut swept: KeyTrace<K, V> = KeyTrace::new();
    let mut naive = NaiveTrace::default();
    // Epoch 0 is reserved for the folded base; live pushes start at 1.
    let mut epoch = 1u64;
    for (step, op) in ops.iter().enumerate() {
        let mut push = |key, value, t, diff| {
            spine.push(key, value, t, diff);
            swept.push(key, value, t, diff);
            naive.push(key, value, t, diff);
        };
        match *op {
            Op::Push { key, value, iter, diff } => push(key, value, Time::new(epoch, iter), diff),
            Op::Replace { key, from, to } => {
                epoch += 1;
                push(key, from, Time::new(epoch, 0), -1);
                push(key, to, Time::new(epoch, 0), 1);
            }
            Op::Accumulate { key, iter } => {
                let t = Time::new(epoch, iter);
                assert_eq!(
                    spine.accumulate(&key, t),
                    naive.accumulate(key, t),
                    "accumulate({key}, {t:?}) diverged at step {step}"
                );
            }
            Op::Times { key } => {
                assert_eq!(
                    spine.times(&key),
                    naive.times(key),
                    "times({key}) diverged at step {step}"
                );
            }
            Op::AdvanceEpoch => epoch += 1,
            Op::Compact => {
                spine.compact(epoch);
                naive.compact(epoch);
                // Contract: pushes after compact(f) have epoch > f.
                epoch += 1;
                assert_eq!(
                    spine.len(),
                    naive.records.len(),
                    "record count diverged after compact at step {step}"
                );
                assert_eq!(spine.recent_len(), 0, "recent layer nonempty after full compaction");
            }
        }
        check_structure(&spine, step);
        assert_eq!(spine.len(), naive.records.len(), "record count diverged at step {step}");
        // An explicit full fold changes no answer a later time can see.
        swept.compact(epoch);
        for key in 0..4u8 {
            for t in probes(epoch) {
                assert_eq!(
                    swept.accumulate(&key, t),
                    spine.accumulate(&key, t),
                    "compact changed accumulate({key}, {t:?}) at step {step}"
                );
            }
            let unswept = iters(spine.times(&key));
            assert!(
                iters(swept.times(&key)).iter().all(|i| unswept.contains(i)),
                "compact added an iteration to times({key}) at step {step}"
            );
        }
    }
    // Final sweep: every key, a deep and a shallow accumulation time.
    for key in 0..4u8 {
        for t in probes(epoch) {
            assert_eq!(spine.accumulate(&key, t), naive.accumulate(key, t));
        }
        assert_eq!(spine.times(&key), naive.times(key));
    }
    epoch
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn spine_trace_matches_naive_reference(ops in arb_ops()) {
        check_spine_matches_naive(&ops);
    }
}

// ---------------------------------------------------------------------
// Pinned regressions: shrunk inputs from development runs of the suite,
// replayed deterministically through the same property body.
// ---------------------------------------------------------------------

/// A cancelling pair straddling a compaction: the fold must drop the
/// zero-sum `(value, iter)` run from the base so `times` agrees.
#[test]
fn cancelling_pair_folds_to_empty_base() {
    check_spine_matches_naive(&[
        Op::Push { key: 0, value: 3, iter: 1, diff: 1 },
        Op::AdvanceEpoch,
        Op::Push { key: 0, value: 3, iter: 1, diff: -1 },
        Op::Compact,
        Op::Times { key: 0 },
        Op::Accumulate { key: 0, iter: 2 },
    ]);
}

/// A push after compaction must be visible through the per-key
/// accumulation cache (cache primed by the first accumulate).
#[test]
fn push_after_compaction_invalidates_nothing_it_should_not() {
    check_spine_matches_naive(&[
        Op::Push { key: 1, value: 2, iter: 0, diff: 2 },
        Op::Compact,
        Op::Accumulate { key: 1, iter: 0 },
        Op::Push { key: 1, value: 5, iter: 0, diff: 1 },
        Op::Accumulate { key: 1, iter: 0 },
    ]);
}

/// Accumulating below the base's maximum iteration must not reuse the
/// cache entry primed at a higher effective iteration.
#[test]
fn low_iter_accumulation_after_high_iter_cache_fill() {
    check_spine_matches_naive(&[
        Op::Push { key: 2, value: 1, iter: 0, diff: 1 },
        Op::Push { key: 2, value: 4, iter: 3, diff: 1 },
        Op::Compact,
        Op::Accumulate { key: 2, iter: 4 },
        Op::Accumulate { key: 2, iter: 0 },
    ]);
}

/// Two compactions in a row: already-folded base records re-enter the
/// second fold at epoch 0 and must merge, not duplicate.
#[test]
fn repeated_compaction_is_idempotent_on_the_base() {
    check_spine_matches_naive(&[
        Op::Push { key: 3, value: 0, iter: 2, diff: 1 },
        Op::Compact,
        Op::Push { key: 3, value: 0, iter: 2, diff: 1 },
        Op::Compact,
        Op::Accumulate { key: 3, iter: 2 },
        Op::Times { key: 3 },
    ]);
}

/// Twenty-four one-change epochs over two keys, no explicit compact:
/// each touch folds the key's previous epoch, so the trace ends as
/// small as it started and every observation matches the reference.
#[test]
fn long_replace_stream_stays_folded() {
    let mut ops = vec![
        Op::Push { key: 0, value: 0, iter: 0, diff: 1 },
        Op::Push { key: 1, value: 0, iter: 2, diff: 1 },
    ];
    for round in 0..24u8 {
        let key = round % 2;
        ops.push(Op::Replace { key, from: round / 2 % 6, to: (round / 2 + 1) % 6 });
        ops.push(Op::Accumulate { key, iter: 3 });
        ops.push(Op::Times { key: 1 - key });
    }
    assert!(check_spine_matches_naive(&ops) >= 20);
}
