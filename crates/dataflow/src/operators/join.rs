//! The differential binary equi-join.
//!
//! `join` maintains a full keyed trace of both inputs. A new difference
//! on either side is matched against the *entire history* of the other
//! side; each match `(dA at t1) × (B at t2)` contributes output at
//! `t1 ∨ t2`. The join of an in-loop time with a historical time can lie
//! at a *future* iteration of the current epoch — those contributions
//! are deferred and surfaced through `pending_iter`, which forces the
//! enclosing loop to revisit exactly the affected iterations. A step
//! consolidates its ready output, which sorts it by `(data, time)`.

use std::rc::Rc;

use crate::delta::{consolidate, Data, Delta};
use crate::error::EvalError;
use crate::graph::{Fanout, OpNode, Queue, Scheduler, UNBOUND};
use crate::time::Time;
use crate::trace::KeyTrace;

/// An output difference of the join: `(k, (v, w))` with time and diff.
type JoinDelta<K, V, W> = Delta<(K, (V, W))>;

pub(crate) struct JoinNode<K: Data, V: Data, W: Data> {
    slot: usize,
    in_a: Queue<(K, V)>,
    in_b: Queue<(K, W)>,
    trace_a: KeyTrace<K, V>,
    trace_b: KeyTrace<K, W>,
    /// Outputs at future iterations of the current epoch.
    deferred: Vec<JoinDelta<K, V, W>>,
    output: Fanout<(K, (V, W))>,
    work: u64,
}

impl<K: Data, V: Data, W: Data> JoinNode<K, V, W> {
    pub fn new(in_a: Queue<(K, V)>, in_b: Queue<(K, W)>, output: Fanout<(K, (V, W))>) -> Self {
        JoinNode {
            slot: UNBOUND,
            in_a,
            in_b,
            trace_a: KeyTrace::new(),
            trace_b: KeyTrace::new(),
            deferred: Vec::new(),
            output,
            work: 0,
        }
    }
}

impl<K: Data, V: Data, W: Data> OpNode for JoinNode<K, V, W> {
    fn bind(&mut self, slot: usize, sched: &Rc<Scheduler>) {
        self.slot = slot;
        self.in_a.bind(slot, sched);
        self.in_b.bind(slot, sched);
    }

    fn slot(&self) -> usize {
        self.slot
    }

    /// Outputs due at or before `now` go to the ready list as they are
    /// produced; the rest join the deferred list, whose due records
    /// move out in place first. Work counts the input records and the
    /// matched pairs.
    fn step(&mut self, now: Time) -> Result<(), EvalError> {
        let mut batch_a = self.in_a.take_batch();
        let mut batch_b = self.in_b.take_batch();
        if batch_a.is_empty() && batch_b.is_empty() && !self.has_internal_work() {
            return Ok(());
        }
        consolidate(&mut batch_a);
        consolidate(&mut batch_b);
        self.work += (batch_a.len() + batch_b.len()) as u64;

        let mut ready: Vec<JoinDelta<K, V, W>> =
            self.deferred.extract_if(.., |(_, t, _)| t.leq(now)).collect();
        let deferred = &mut self.deferred;
        let mut emit = |d: JoinDelta<K, V, W>| {
            if d.1.leq(now) {
                ready.push(d);
            } else {
                deferred.push(d);
            }
        };
        let mut pairs = 0u64;
        // New A-differences against B's existing history (both spine
        // layers, iterated in place). B's history does not yet contain
        // this step's B-batch, so each (dA, dB) pair of this step is
        // produced exactly once (below).
        for ((k, v), t1, r1) in &batch_a {
            self.trace_b.for_each(k, |w, t2, r2| {
                pairs += 1;
                emit(((k.clone(), (v.clone(), w.clone())), t1.join(t2), r1 * r2));
            });
        }
        self.trace_a.extend_sorted(&mut batch_a, |_, _| {});
        // New B-differences against A's history *including* this step's
        // A-batch.
        for ((k, w), t2, r2) in &batch_b {
            self.trace_a.for_each(k, |v, t1, r1| {
                pairs += 1;
                emit(((k.clone(), (v.clone(), w.clone())), t1.join(*t2), r1 * r2));
            });
        }
        self.trace_b.extend_sorted(&mut batch_b, |_, _| {});
        self.work += pairs;
        // A list many times longer than what it still holds was sized by
        // a bulk load.
        if self.deferred.capacity() > 4 * (self.deferred.len() + 16) {
            self.deferred.shrink_to(self.deferred.len());
        }
        consolidate(&mut ready);
        self.output.emit(ready);
        Ok(())
    }

    fn has_queued(&self) -> bool {
        !self.in_a.is_empty() || !self.in_b.is_empty()
    }

    fn has_internal_work(&self) -> bool {
        !self.deferred.is_empty()
    }

    fn pending_iter(&self, epoch: u64) -> Option<u32> {
        self.deferred.iter().filter(|(_, t, _)| t.epoch == epoch).map(|(_, t, _)| t.iter).min()
    }

    fn end_epoch(&mut self, epoch: u64) {
        debug_assert!(
            self.deferred.iter().all(|(_, t, _)| t.epoch > epoch),
            "join: deferred output for a completed epoch"
        );
        debug_assert!(!self.has_queued(), "join: input left queued at epoch end");
    }

    fn compact(&mut self, frontier: u64) {
        self.trace_a.compact(frontier);
        self.trace_b.compact(frontier);
    }

    fn work(&self) -> u64 {
        self.work
    }

    fn collect_stats(&self, acc: &mut std::collections::BTreeMap<&'static str, crate::graph::OpStats>) {
        let e = acc.entry(self.name()).or_default();
        e.work += self.work;
        e.queued += self.in_a.len() + self.in_b.len();
        e.trace_records += self.trace_a.len() + self.trace_b.len();
        e.trace_base_records += self.trace_a.base_len() + self.trace_b.base_len();
        e.trace_recent_records += self.trace_a.recent_len() + self.trace_b.recent_len();
        e.pending += self.deferred.len();
        for (keys, folded) in [self.trace_a.folded(), self.trace_b.folded()] {
            e.folded_keys += keys;
            e.folded_records += folded;
        }
    }

    fn name(&self) -> &'static str {
        "join"
    }
}
