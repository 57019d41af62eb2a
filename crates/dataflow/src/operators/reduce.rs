//! The differential grouping operator, in two forms fixed by where the
//! reduce is built.
//!
//! `reduce` applies a function to the accumulated multiset of values for
//! each key and maintains the function's output incrementally: whenever
//! a key's input changes at time `t`, the operator recomputes the
//! correct output *as of* `t` and emits the difference against what its
//! output already accumulates to at `t`.
//!
//! # At top level
//!
//! Every record's time is the current epoch's `(epoch, 0)` and the node
//! is stepped once per epoch, so a key's input and output are only ever
//! read as the sum of everything so far. [`TopReduceNode`] keeps exactly
//! that: per key, one map entry holding the input accumulation and the
//! output accumulation, each consolidated and sorted by value. A key
//! touched by a batch costs one hash lookup — add its run of records to
//! the input, run the logic, diff the result against the stored output,
//! store the result — and a key whose input empties is dropped. The
//! closure's result becomes the stored output, so a steady step
//! allocates only that result per key.
//!
//! # Inside `iterate`
//!
//! [`LoopReduceNode`] keeps input and output traces. With partially
//! ordered times a change at `t1` can also invalidate the output at
//! `t1 ∨ t2` for every other time `t2` in the key's history (the classic
//! differential-dataflow "interesting times" rule). In the
//! two-dimensional `(epoch, iteration)` lattice the join-closure of a
//! set of times equals its set of pairwise joins, so it suffices to
//! enqueue `t ∨ u` for every recorded `u` whenever a new input time `t`
//! arrives. Pending times are processed in lexicographic order (a
//! linear extension of the partial order) once the scheduler reaches
//! them.
//!
//! A step does no per-key heap allocation beyond the user closure's
//! result. A key's input records reach its trace with one hash lookup
//! ([`KeyTrace::extend_sorted`]), its accumulations land in buffers the
//! node reuses, and its output difference goes to the output trace with
//! one more lookup. Interesting times need no sort of the key's history:
//! [`KeyTrace::later_iters`] answers from the spine's largest iteration
//! when nothing lies above `t`. A step that enqueues nothing beyond its
//! new times, with nothing pending from earlier, processes its sorted
//! `(t, k)` list directly instead of going through the pending set.
//!
//! Both forms emit in `(t, k, w)` order, with at most one record per
//! `(t, k, w)`: keys are processed in `(t, k)` order and `value_delta`
//! yields values in ascending order. Every consumer consolidates its
//! input, so no sort is paid here.

use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use crate::delta::{
    add_values, consolidate, consolidate_values, drain_key_runs, value_delta, Data, Delta, Diff,
};
use crate::error::EvalError;
use crate::graph::{Fanout, OpNode, OpStats, Queue, Scheduler, UNBOUND};
use crate::time::Time;
use crate::trace::KeyTrace;
use crate::util::FxHashMap;

/// The user reduction: receives the key and its consolidated, sorted,
/// positive-multiplicity input values, returns output values with
/// multiplicities.
pub(crate) type ReduceFn<K, V, W> = dyn Fn(&K, &[(V, Diff)]) -> Vec<(W, Diff)>;

/// The node's handle to its [`ReduceFn`].
pub(crate) type ReduceLogic<K, V, W> = Rc<ReduceFn<K, V, W>>;

/// A reduce built inside `iterate`: input and output traces, pending
/// interesting times.
pub(crate) struct LoopReduceNode<K: Data, V: Data, W: Data> {
    name: &'static str,
    slot: usize,
    input: Queue<(K, V)>,
    in_trace: KeyTrace<K, V>,
    out_trace: KeyTrace<K, W>,
    /// Times (per key) at which the output may need correction, not yet
    /// processed. Lexicographic order on `Time` linearizes the partial
    /// order, so iterating the set front-to-back is causally safe.
    pending: BTreeSet<(Time, K)>,
    /// A key's iterations above a new time.
    later: Vec<u32>,
    in_acc: Vec<(V, Diff)>,
    out_acc: Vec<(W, Diff)>,
    delta: Vec<(W, Diff)>,
    logic: ReduceLogic<K, V, W>,
    output: Fanout<(K, W)>,
    work: u64,
}

impl<K: Data, V: Data, W: Data> LoopReduceNode<K, V, W> {
    pub fn new(
        name: &'static str,
        input: Queue<(K, V)>,
        output: Fanout<(K, W)>,
        logic: ReduceLogic<K, V, W>,
    ) -> Self {
        LoopReduceNode {
            name,
            slot: UNBOUND,
            input,
            in_trace: KeyTrace::new(),
            out_trace: KeyTrace::new(),
            pending: BTreeSet::new(),
            later: Vec::new(),
            in_acc: Vec::new(),
            out_acc: Vec::new(),
            delta: Vec::new(),
            logic,
            output,
            work: 0,
        }
    }

    /// Recompute `k`'s output as of `t` and stage the difference against
    /// what its output history accumulates to there.
    fn settle(&mut self, k: &K, t: Time, staging: &mut Vec<Delta<(K, W)>>) {
        self.in_trace.accumulate(k, t, &mut self.in_acc);
        debug_assert!(
            self.in_acc.iter().all(|(_, r)| *r > 0),
            "{}: negative input multiplicity for {k:?} at {t:?}: {:?}",
            self.name,
            self.in_acc
        );
        let mut correct =
            if self.in_acc.is_empty() { Vec::new() } else { (self.logic)(k, &self.in_acc) };
        consolidate_values(&mut correct);
        self.out_trace.accumulate(k, t, &mut self.out_acc);
        value_delta(&correct, &self.out_acc, &mut self.delta);
        self.out_trace.extend_key(k, self.delta.iter().map(|(w, r)| (w.clone(), t, *r)));
        staging.extend(self.delta.drain(..).map(|(w, r)| ((k.clone(), w), t, r)));
    }
}

impl<K: Data, V: Data, W: Data> OpNode for LoopReduceNode<K, V, W> {
    fn bind(&mut self, slot: usize, sched: &Rc<Scheduler>) {
        self.slot = slot;
        self.input.bind(slot, sched);
    }

    fn slot(&self) -> usize {
        self.slot
    }

    /// Work counts the input records and the pending times processed.
    fn step(&mut self, now: Time) -> Result<(), EvalError> {
        let mut batch = self.input.take_batch();
        if batch.is_empty() && !self.has_internal_work() {
            return Ok(());
        }
        consolidate(&mut batch);
        self.work += batch.len() as u64;

        // Record the new differences and collect their `(t, k)` pairs.
        let name = self.name;
        let mut new_times: Vec<(Time, K)> = Vec::new();
        self.in_trace.extend_sorted(&mut batch, |k, t| {
            debug_assert!(t.leq(now), "{name}: record at {t:?} arrived after {now:?}");
            if new_times.last().is_none_or(|(lt, lk)| *lt != t || lk != k) {
                new_times.push((t, k.clone()));
            }
        });
        new_times.sort_unstable();
        new_times.dedup();

        // Enqueue interesting times: every new time `t`, plus its join
        // with every time already in the key's history. All of those
        // lie in `t`'s epoch, so the joins above `t` are `t`'s epoch at
        // each distinct recorded iteration above `t.iter` — none when
        // the key's largest iteration is at most `t.iter`.
        for (t, k) in &new_times {
            self.in_trace.later_iters(k, t.iter, &mut self.later);
            for &i in &self.later {
                self.pending.insert((Time::new(t.epoch, i), k.clone()));
            }
        }

        // Process every interesting time that is now complete, in
        // `(t, k)` order. Pending times always lie in the current epoch
        // (joins cannot exceed the max epoch of their arguments), so
        // the lexicographic minimum is processable iff its iteration
        // component has been reached. With nothing pending, the new
        // times are the whole set, already sorted and all `≤ now`.
        let mut staging: Vec<Delta<(K, W)>> = Vec::new();
        if self.pending.is_empty() {
            self.work += new_times.len() as u64;
            for (t, k) in new_times {
                self.settle(&k, t, &mut staging);
            }
        } else {
            self.pending.extend(new_times);
            while self.pending.first().is_some_and(|(t, _)| t.leq(now)) {
                let (t, k) = self.pending.pop_first().expect("nonempty");
                self.work += 1;
                self.settle(&k, t, &mut staging);
            }
        }
        self.output.emit(staging);
        Ok(())
    }

    fn has_queued(&self) -> bool {
        !self.input.is_empty()
    }

    fn has_internal_work(&self) -> bool {
        !self.pending.is_empty()
    }

    fn pending_iter(&self, epoch: u64) -> Option<u32> {
        // `pending` is ordered by time, so the earliest entry of `epoch`
        // is the first entry not before it.
        self.pending
            .iter()
            .find(|(t, _)| t.epoch >= epoch)
            .filter(|(t, _)| t.epoch == epoch)
            .map(|(t, _)| t.iter)
    }

    fn end_epoch(&mut self, epoch: u64) {
        debug_assert!(
            self.pending.iter().all(|(t, _)| t.epoch > epoch),
            "{}: unprocessed interesting times at epoch {epoch} end",
            self.name
        );
        debug_assert!(!self.has_queued(), "{}: input left queued at epoch end", self.name);
    }

    fn compact(&mut self, frontier: u64) {
        debug_assert!(self.pending.is_empty(), "{}: compacting with pending times", self.name);
        self.in_trace.compact(frontier);
        self.out_trace.compact(frontier);
    }

    fn work(&self) -> u64 {
        self.work
    }

    fn collect_stats(&self, acc: &mut BTreeMap<&'static str, OpStats>) {
        let e = acc.entry(self.name()).or_default();
        e.work += self.work;
        e.queued += self.input.len();
        e.trace_records += self.in_trace.len() + self.out_trace.len();
        e.trace_base_records += self.in_trace.base_len() + self.out_trace.base_len();
        e.trace_recent_records += self.in_trace.recent_len() + self.out_trace.recent_len();
        e.pending += self.pending.len();
        for (keys, folded) in [self.in_trace.folded(), self.out_trace.folded()] {
            e.folded_keys += keys;
            e.folded_records += folded;
        }
    }

    fn name(&self) -> &'static str {
        self.name
    }
}

/// A top-level reduce key's input and output accumulations, each
/// consolidated and sorted by value.
struct KeyAcc<V, W> {
    input: Vec<(V, Diff)>,
    output: Vec<(W, Diff)>,
}

impl<V, W> Default for KeyAcc<V, W> {
    fn default() -> Self {
        KeyAcc { input: Vec::new(), output: Vec::new() }
    }
}

/// A reduce built at top level: one accumulation pair per live key.
pub(crate) struct TopReduceNode<K: Data, V: Data, W: Data> {
    name: &'static str,
    slot: usize,
    input: Queue<(K, V)>,
    keys: FxHashMap<K, KeyAcc<V, W>>,
    /// Records held in the input and output accumulations.
    records: usize,
    delta: Vec<(W, Diff)>,
    logic: ReduceLogic<K, V, W>,
    output: Fanout<(K, W)>,
    work: u64,
}

impl<K: Data, V: Data, W: Data> TopReduceNode<K, V, W> {
    pub fn new(
        name: &'static str,
        input: Queue<(K, V)>,
        output: Fanout<(K, W)>,
        logic: ReduceLogic<K, V, W>,
    ) -> Self {
        TopReduceNode {
            name,
            slot: UNBOUND,
            input,
            keys: FxHashMap::default(),
            records: 0,
            delta: Vec::new(),
            logic,
            output,
            work: 0,
        }
    }
}

impl<K: Data, V: Data, W: Data> OpNode for TopReduceNode<K, V, W> {
    fn bind(&mut self, slot: usize, sched: &Rc<Scheduler>) {
        self.slot = slot;
        self.input.bind(slot, sched);
    }

    fn slot(&self) -> usize {
        self.slot
    }

    /// Work counts the input records and the keys processed.
    fn step(&mut self, now: Time) -> Result<(), EvalError> {
        let mut batch = self.input.take_batch();
        if batch.is_empty() {
            return Ok(());
        }
        consolidate(&mut batch);
        self.work += batch.len() as u64;
        let name = self.name;
        let mut staging: Vec<Delta<(K, W)>> = Vec::new();
        let mut records = self.records as isize;
        drain_key_runs(&mut batch, |k, run| {
            let acc = self.keys.entry(k.clone()).or_default();
            records += add_values(&mut acc.input, run.map(|(v, t, r)| {
                debug_assert_eq!(t, now, "{name}: a top-level record not at the current time");
                (v, r)
            }));
            debug_assert!(
                acc.input.iter().all(|(_, r)| *r > 0),
                "{name}: negative input multiplicity for {k:?}: {:?}",
                acc.input
            );
            let mut correct =
                if acc.input.is_empty() { Vec::new() } else { (self.logic)(k, &acc.input) };
            consolidate_values(&mut correct);
            value_delta(&correct, &acc.output, &mut self.delta);
            records += correct.len() as isize - acc.output.len() as isize;
            acc.output = correct;
            if acc.input.is_empty() {
                self.keys.remove(k);
            }
            self.work += 1;
            staging.extend(self.delta.drain(..).map(|(w, r)| ((k.clone(), w), now, r)));
        });
        self.records = records as usize;
        self.output.emit(staging);
        Ok(())
    }

    fn has_queued(&self) -> bool {
        !self.input.is_empty()
    }

    fn pending_iter(&self, _epoch: u64) -> Option<u32> {
        None
    }

    fn end_epoch(&mut self, _epoch: u64) {
        debug_assert!(!self.has_queued(), "{}: input left queued at epoch end", self.name);
    }

    /// Nothing to fold: the accumulations are the live input and output.
    fn compact(&mut self, _frontier: u64) {}

    fn work(&self) -> u64 {
        self.work
    }

    fn collect_stats(&self, acc: &mut BTreeMap<&'static str, OpStats>) {
        let e = acc.entry(self.name()).or_default();
        e.work += self.work;
        e.queued += self.input.len();
        e.trace_records += self.records;
    }

    fn name(&self) -> &'static str {
        self.name
    }
}
