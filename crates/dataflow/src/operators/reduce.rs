//! The differential grouping operator, sharded by key.
//!
//! `reduce` applies a function to the accumulated multiset of values for
//! each key and maintains the function's output incrementally: whenever
//! a key's input changes at time `t`, the operator recomputes the
//! correct output *as of* `t` and emits the difference against what its
//! output history already accumulates to at `t`.
//!
//! With partially ordered times the subtlety is that a change at `t1`
//! can also invalidate the output at `t1 ∨ t2` for every other time `t2`
//! in the key's history (the classic differential-dataflow "interesting
//! times" rule). In the two-dimensional `(epoch, iteration)` lattice the
//! join-closure of a set of times equals its set of pairwise joins, so
//! it suffices to enqueue `t ∨ u` for every recorded `u` whenever a new
//! input time `t` arrives. Pending times are processed in lexicographic
//! order (a linear extension of the partial order) once the scheduler
//! reaches them.
//!
//! All per-key state — both traces and the pending-times set — is
//! partitioned into [`NUM_SHARDS`] key shards, so a step can run the
//! shards as independent pool tasks (see `graph::run_shards`). A shard
//! emits in `(t, k, w)` order (times are processed in `(t, k)` order and
//! `value_delta` yields values in ascending order, with at most one
//! record per `(t, k, w)`), and the step concatenates the shards in
//! shard order. A key lives in one shard, fixed by its hash, so the
//! batch is byte-identical at any worker count; every consumer
//! consolidates its input, so no global sort is paid here.
//!
//! # Per-key cost
//!
//! A step does no per-key heap allocation beyond the user closure's
//! result. A key's input records reach its trace with one hash lookup
//! ([`KeyTrace::extend_sorted`]), its accumulations land in buffers the
//! shard reuses, and its output difference goes to the output trace with
//! one more lookup. Interesting times need no sort of the key's history:
//! [`KeyTrace::later_iters`] answers from the spine's largest iteration
//! when nothing lies above `t` — always outside `iterate`, so the
//! top-level reduces (`next-hops`, `best-origins`, `fib-select`,
//! `distinct`) enqueue exactly their new times. A step that enqueues
//! nothing beyond its new times, with nothing pending from earlier,
//! processes its sorted `(t, k)` list directly instead of going through
//! the pending set.

use std::collections::BTreeSet;
use std::rc::Rc;
use std::sync::Arc;

use crate::delta::{consolidate, consolidate_values, value_delta, Data, Delta, Diff};
use crate::error::EvalError;
use crate::graph::{run_shards, Fanout, OpNode, Queue, Scheduler, ShardMode, UNBOUND};
use crate::time::Time;
use crate::trace::KeyTrace;
use crate::util::{shard_of, NUM_SHARDS};

/// The user reduction: receives the key and its consolidated, sorted,
/// positive-multiplicity input values, returns output values with
/// multiplicities. `Fn + Send + Sync` because shards evaluate it
/// concurrently from pool workers.
pub(crate) type ReduceFn<K, V, W> = dyn Fn(&K, &[(V, Diff)]) -> Vec<(W, Diff)> + Send + Sync;

/// Shared handle to a [`ReduceFn`], cloned into each shard dispatch.
pub(crate) type ReduceLogic<K, V, W> = Arc<ReduceFn<K, V, W>>;

/// One key shard: input/output traces and pending interesting times for
/// the keys that hash here, the exchange inbox the routing phase fills
/// each step, and the scratch buffers a step reuses.
struct ReduceShard<K: Data, V: Data, W: Data> {
    in_trace: KeyTrace<K, V>,
    out_trace: KeyTrace<K, W>,
    /// Times (per key) at which the output may need correction, not yet
    /// processed. Lexicographic order on `Time` linearizes the partial
    /// order, so iterating the set front-to-back is causally safe.
    pending: BTreeSet<(Time, K)>,
    batch: Vec<Delta<(K, V)>>,
    /// A key's iterations above a new time.
    later: Vec<u32>,
    in_acc: Vec<(V, Diff)>,
    out_acc: Vec<(W, Diff)>,
    delta: Vec<(W, Diff)>,
}

impl<K: Data, V: Data, W: Data> ReduceShard<K, V, W> {
    fn new() -> Self {
        ReduceShard {
            in_trace: KeyTrace::new(),
            out_trace: KeyTrace::new(),
            pending: BTreeSet::new(),
            batch: Vec::new(),
            later: Vec::new(),
            in_acc: Vec::new(),
            out_acc: Vec::new(),
            delta: Vec::new(),
        }
    }

    /// The serial reduce algorithm, restricted to this shard's keys.
    /// Returns the staged output (in `(t, k, w)` order) and the number
    /// of pending times processed (work measure).
    fn step(
        &mut self,
        name: &'static str,
        now: Time,
        logic: &ReduceFn<K, V, W>,
    ) -> (Vec<Delta<(K, W)>>, u64) {
        // Record the new differences and collect their `(t, k)` pairs.
        let mut batch = std::mem::take(&mut self.batch);
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
        // the key's largest iteration is at most `t.iter`, as at top
        // level.
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
        let mut processed = 0u64;
        if self.pending.is_empty() {
            for (t, k) in new_times {
                processed += 1;
                self.settle(name, &k, t, logic, &mut staging);
            }
        } else {
            self.pending.extend(new_times);
            while self.pending.first().is_some_and(|(t, _)| t.leq(now)) {
                let (t, k) = self.pending.pop_first().expect("nonempty");
                processed += 1;
                self.settle(name, &k, t, logic, &mut staging);
            }
        }
        (staging, processed)
    }

    /// Recompute `k`'s output as of `t` and stage the difference against
    /// what its output history accumulates to there.
    fn settle(
        &mut self,
        name: &'static str,
        k: &K,
        t: Time,
        logic: &ReduceFn<K, V, W>,
        staging: &mut Vec<Delta<(K, W)>>,
    ) {
        self.in_trace.accumulate(k, t, &mut self.in_acc);
        debug_assert!(
            self.in_acc.iter().all(|(_, r)| *r > 0),
            "{name}: negative input multiplicity for {k:?} at {t:?}: {:?}",
            self.in_acc
        );
        let mut correct = if self.in_acc.is_empty() { Vec::new() } else { logic(k, &self.in_acc) };
        consolidate_values(&mut correct);
        self.out_trace.accumulate(k, t, &mut self.out_acc);
        value_delta(&correct, &self.out_acc, &mut self.delta);
        self.out_trace.extend_key(k, self.delta.iter().map(|(w, r)| (w.clone(), t, *r)));
        staging.extend(self.delta.drain(..).map(|(w, r)| ((k.clone(), w), t, r)));
    }
}

pub(crate) struct ReduceNode<K: Data, V: Data, W: Data> {
    name: &'static str,
    slot: usize,
    sched: Option<Rc<Scheduler>>,
    input: Queue<(K, V)>,
    shards: Vec<ReduceShard<K, V, W>>,
    logic: ReduceLogic<K, V, W>,
    output: Fanout<(K, W)>,
    work: u64,
    shard_dispatched: u64,
    shard_inlined: u64,
}

impl<K: Data, V: Data, W: Data> ReduceNode<K, V, W> {
    pub fn new(
        name: &'static str,
        input: Queue<(K, V)>,
        output: Fanout<(K, W)>,
        logic: ReduceLogic<K, V, W>,
    ) -> Self {
        ReduceNode {
            name,
            slot: UNBOUND,
            sched: None,
            input,
            shards: (0..NUM_SHARDS).map(|_| ReduceShard::new()).collect(),
            logic,
            output,
            work: 0,
            shard_dispatched: 0,
            shard_inlined: 0,
        }
    }
}

impl<K: Data, V: Data, W: Data> OpNode for ReduceNode<K, V, W> {
    fn bind(&mut self, slot: usize, sched: &Rc<Scheduler>) {
        self.slot = slot;
        self.sched = Some(Rc::clone(sched));
        self.input.bind(slot, sched);
    }

    fn slot(&self) -> usize {
        self.slot
    }

    fn step(&mut self, now: Time) -> Result<(), EvalError> {
        let mut batch = self.input.take_batch();
        if batch.is_empty() && !self.has_internal_work() {
            return Ok(());
        }
        consolidate(&mut batch);
        let records = batch.len() + self.shards.iter().map(|s| s.pending.len()).sum::<usize>();
        self.work += batch.len() as u64;

        // Exchange: route each delta to the shard owning its key.
        for d in batch {
            let s = shard_of(&d.0 .0);
            self.shards[s].batch.push(d);
        }

        let name = self.name;
        let logic = Arc::clone(&self.logic);
        let (results, mode) = run_shards(self.sched.as_ref(), records, &mut self.shards, |i, sh| {
            rc_faults::fire_shard(i);
            sh.step(name, now, &*logic)
        });
        match mode {
            ShardMode::Dispatched => self.shard_dispatched += 1,
            ShardMode::Inlined => self.shard_inlined += 1,
            ShardMode::Serial => {}
        }

        // Concatenate in shard order: a key's records come from its own
        // shard only, so the batch depends on the keys, not on which
        // worker ran which shard.
        let mut staging: Vec<Delta<(K, W)>> = Vec::new();
        for (shard_staging, processed) in results {
            self.work += processed;
            staging.extend(shard_staging);
        }
        self.output.emit(staging);
        Ok(())
    }

    fn has_queued(&self) -> bool {
        !self.input.is_empty()
    }

    fn has_internal_work(&self) -> bool {
        self.shards.iter().any(|s| !s.pending.is_empty())
    }

    fn pending_iter(&self, epoch: u64) -> Option<u32> {
        // `pending` is ordered by time, so a shard's earliest entry of
        // `epoch` is its first entry not before it.
        self.shards
            .iter()
            .filter_map(|s| s.pending.iter().find(|(t, _)| t.epoch >= epoch))
            .filter(|(t, _)| t.epoch == epoch)
            .map(|(t, _)| t.iter)
            .min()
    }

    fn end_epoch(&mut self, epoch: u64) {
        debug_assert!(
            self.shards.iter().all(|s| s.pending.iter().all(|(t, _)| t.epoch > epoch)),
            "{}: unprocessed interesting times at epoch {epoch} end",
            self.name
        );
        debug_assert!(!self.has_queued(), "{}: input left queued at epoch end", self.name);
    }

    fn compact(&mut self, frontier: u64) {
        for s in &mut self.shards {
            debug_assert!(s.pending.is_empty(), "{}: compacting with pending times", self.name);
            s.in_trace.compact(frontier);
            s.out_trace.compact(frontier);
        }
    }

    fn work(&self) -> u64 {
        self.work
    }

    fn collect_stats(&self, acc: &mut std::collections::BTreeMap<&'static str, crate::graph::OpStats>) {
        let e = acc.entry(self.name()).or_default();
        e.work += self.work;
        e.queued += self.input.len();
        for (i, s) in self.shards.iter().enumerate() {
            let records = s.in_trace.len() + s.out_trace.len();
            e.trace_records += records;
            e.trace_base_records += s.in_trace.base_len() + s.out_trace.base_len();
            e.trace_recent_records += s.in_trace.recent_len() + s.out_trace.recent_len();
            e.pending += s.pending.len();
            e.shard_records[i] += records;
            for (keys, folded) in [s.in_trace.folded(), s.out_trace.folded()] {
                e.folded_keys += keys;
                e.folded_records += folded;
            }
        }
        e.shard_dispatched += self.shard_dispatched;
        e.shard_inlined += self.shard_inlined;
    }

    fn name(&self) -> &'static str {
        self.name
    }
}
