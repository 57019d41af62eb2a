//! The differential binary equi-join, sharded by key.
//!
//! `join` maintains a full keyed trace of both inputs. A new difference
//! on either side is matched against the *entire history* of the other
//! side; each match `(dA at t1) × (B at t2)` contributes output at
//! `t1 ∨ t2`. The join of an in-loop time with a historical time can lie
//! at a *future* iteration of the current epoch — those contributions
//! are deferred and surfaced through `pending_iter`, which forces the
//! enclosing loop to revisit exactly the affected iterations.
//!
//! State is partitioned into [`NUM_SHARDS`] key shards: every trace
//! entry, deferred output and routed batch record for key `k` lives in
//! shard `shard_of(k)`. Matches only ever form within a key — hence
//! within a shard — so the shards are independent and a step can run
//! them as pool tasks (see `graph::run_shards`). Each shard consolidates
//! its own ready output, which sorts it by `(data, time)`, and the step
//! concatenates the shards in shard order. No two shards share a key, so
//! nothing is left to sum across them, and the emitted batch is
//! byte-identical at any worker count.

use std::rc::Rc;

use crate::delta::{consolidate, Data, Delta};
use crate::error::EvalError;
use crate::graph::{run_shards, Fanout, OpNode, Queue, Scheduler, ShardMode, UNBOUND};
use crate::time::Time;
use crate::trace::KeyTrace;
use crate::util::{shard_of, NUM_SHARDS};

/// One key shard: the slice of both traces and the deferred outputs
/// whose keys hash here, plus the exchange inboxes the routing phase
/// fills each step.
struct JoinShard<K: Data, V: Data, W: Data> {
    trace_a: KeyTrace<K, V>,
    trace_b: KeyTrace<K, W>,
    deferred: Vec<JoinDelta<K, V, W>>,
    batch_a: Vec<Delta<(K, V)>>,
    batch_b: Vec<Delta<(K, W)>>,
}

/// An output difference of the join: `(k, (v, w))` with time and diff.
type JoinDelta<K, V, W> = Delta<(K, (V, W))>;

impl<K: Data, V: Data, W: Data> JoinShard<K, V, W> {
    fn new() -> Self {
        JoinShard {
            trace_a: KeyTrace::new(),
            trace_b: KeyTrace::new(),
            deferred: Vec::new(),
            batch_a: Vec::new(),
            batch_b: Vec::new(),
        }
    }

    /// The serial join algorithm, restricted to this shard's keys.
    /// Returns the consolidated ready outputs and the number of
    /// matched pairs (work measure). Outputs due at or before `now` go
    /// to the ready list as they are produced; the rest join the
    /// deferred list, whose due records move out in place first.
    fn step(&mut self, now: Time) -> (Vec<JoinDelta<K, V, W>>, u64) {
        let mut batch_a = std::mem::take(&mut self.batch_a);
        let mut batch_b = std::mem::take(&mut self.batch_b);
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
        // A list many times longer than what it still holds was sized by
        // a bulk load.
        if self.deferred.capacity() > 4 * (self.deferred.len() + 16) {
            self.deferred.shrink_to(self.deferred.len());
        }
        consolidate(&mut ready);
        (ready, pairs)
    }
}

pub(crate) struct JoinNode<K: Data, V: Data, W: Data> {
    slot: usize,
    sched: Option<Rc<Scheduler>>,
    in_a: Queue<(K, V)>,
    in_b: Queue<(K, W)>,
    shards: Vec<JoinShard<K, V, W>>,
    output: Fanout<(K, (V, W))>,
    work: u64,
    shard_dispatched: u64,
    shard_inlined: u64,
}

impl<K: Data, V: Data, W: Data> JoinNode<K, V, W> {
    pub fn new(in_a: Queue<(K, V)>, in_b: Queue<(K, W)>, output: Fanout<(K, (V, W))>) -> Self {
        JoinNode {
            slot: UNBOUND,
            sched: None,
            in_a,
            in_b,
            shards: (0..NUM_SHARDS).map(|_| JoinShard::new()).collect(),
            output,
            work: 0,
            shard_dispatched: 0,
            shard_inlined: 0,
        }
    }
}

impl<K: Data, V: Data, W: Data> OpNode for JoinNode<K, V, W> {
    fn bind(&mut self, slot: usize, sched: &Rc<Scheduler>) {
        self.slot = slot;
        self.sched = Some(Rc::clone(sched));
        self.in_a.bind(slot, sched);
        self.in_b.bind(slot, sched);
    }

    fn slot(&self) -> usize {
        self.slot
    }

    fn step(&mut self, now: Time) -> Result<(), EvalError> {
        let mut batch_a = self.in_a.take_batch();
        let mut batch_b = self.in_b.take_batch();
        if batch_a.is_empty() && batch_b.is_empty() && !self.has_internal_work() {
            return Ok(());
        }
        consolidate(&mut batch_a);
        consolidate(&mut batch_b);
        let records = batch_a.len() + batch_b.len();
        self.work += records as u64;

        // Exchange: route each delta to the shard owning its key.
        for d in batch_a {
            let s = shard_of(&d.0 .0);
            self.shards[s].batch_a.push(d);
        }
        for d in batch_b {
            let s = shard_of(&d.0 .0);
            self.shards[s].batch_b.push(d);
        }

        let (results, mode) = run_shards(self.sched.as_ref(), records, &mut self.shards, |i, sh| {
            rc_faults::fire_shard(i);
            sh.step(now)
        });
        match mode {
            ShardMode::Dispatched => self.shard_dispatched += 1,
            ShardMode::Inlined => self.shard_inlined += 1,
            ShardMode::Serial => {}
        }

        let mut ready: Vec<Delta<(K, (V, W))>> = Vec::new();
        for (shard_ready, pairs) in results {
            self.work += pairs;
            ready.extend(shard_ready);
        }
        self.output.emit(ready);
        Ok(())
    }

    fn has_queued(&self) -> bool {
        !self.in_a.is_empty() || !self.in_b.is_empty()
    }

    fn has_internal_work(&self) -> bool {
        self.shards.iter().any(|s| !s.deferred.is_empty())
    }

    fn pending_iter(&self, epoch: u64) -> Option<u32> {
        self.shards
            .iter()
            .flat_map(|s| s.deferred.iter())
            .filter(|(_, t, _)| t.epoch == epoch)
            .map(|(_, t, _)| t.iter)
            .min()
    }

    fn end_epoch(&mut self, epoch: u64) {
        debug_assert!(
            self.shards.iter().all(|s| s.deferred.iter().all(|(_, t, _)| t.epoch > epoch)),
            "join: deferred output for a completed epoch"
        );
        debug_assert!(!self.has_queued(), "join: input left queued at epoch end");
    }

    fn compact(&mut self, frontier: u64) {
        for s in &mut self.shards {
            s.trace_a.compact(frontier);
            s.trace_b.compact(frontier);
        }
    }

    fn work(&self) -> u64 {
        self.work
    }

    fn collect_stats(&self, acc: &mut std::collections::BTreeMap<&'static str, crate::graph::OpStats>) {
        let e = acc.entry(self.name()).or_default();
        e.work += self.work;
        e.queued += self.in_a.len() + self.in_b.len();
        for (i, s) in self.shards.iter().enumerate() {
            let records = s.trace_a.len() + s.trace_b.len();
            e.trace_records += records;
            e.trace_base_records += s.trace_a.base_len() + s.trace_b.base_len();
            e.trace_recent_records += s.trace_a.recent_len() + s.trace_b.recent_len();
            e.pending += s.deferred.len();
            e.shard_records[i] += records;
            for (keys, folded) in [s.trace_a.folded(), s.trace_b.folded()] {
                e.folded_keys += keys;
                e.folded_records += folded;
            }
        }
        e.shard_dispatched += self.shard_dispatched;
        e.shard_inlined += self.shard_inlined;
    }

    fn name(&self) -> &'static str {
        "join"
    }
}
