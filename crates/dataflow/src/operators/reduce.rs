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
//! shards as independent pool tasks (see `graph::run_shards`). Shard
//! stagings are merged by sorting on `(time, data)`: the serial operator
//! emits in exactly that order (pending times drain in `(t, k)` order
//! and `value_delta` yields values in ascending order, with at most one
//! record per `(t, k, w)`), so the merged batch is byte-identical to the
//! single-shard result at any worker count.

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
/// the keys that hash here, plus the exchange inbox the routing phase
/// fills each step.
struct ReduceShard<K: Data, V: Data, W: Data> {
    in_trace: KeyTrace<K, V>,
    out_trace: KeyTrace<K, W>,
    /// Times (per key) at which the output may need correction, not yet
    /// processed. Lexicographic order on `Time` linearizes the partial
    /// order, so iterating the set front-to-back is causally safe.
    pending: BTreeSet<(Time, K)>,
    /// Scratch buffer for per-key recorded-times lookups, reused across
    /// keys and steps to avoid an allocation per batch record.
    times_scratch: Vec<Time>,
    batch: Vec<Delta<(K, V)>>,
}

impl<K: Data, V: Data, W: Data> ReduceShard<K, V, W> {
    fn new() -> Self {
        ReduceShard {
            in_trace: KeyTrace::new(),
            out_trace: KeyTrace::new(),
            pending: BTreeSet::new(),
            times_scratch: Vec::new(),
            batch: Vec::new(),
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
        let batch = std::mem::take(&mut self.batch);

        // Record the new differences and enqueue interesting times:
        // every new time, plus its join with every time already in the
        // key's history. The routed batch preserves the globally
        // consolidated `((k, v), t)` order, so adjacent dedup is valid.
        let mut new_times: Vec<(K, Time)> = Vec::new();
        for ((k, _), t, _) in &batch {
            debug_assert!(t.leq(now), "{name}: record at {t:?} arrived after {now:?}");
            if new_times.last().map(|(lk, lt)| lk != k || lt != t).unwrap_or(true) {
                new_times.push((k.clone(), *t));
            }
        }
        for ((k, v), t, r) in batch {
            self.in_trace.push(k, v, t, r);
        }
        new_times.sort();
        new_times.dedup();
        let mut times_scratch = std::mem::take(&mut self.times_scratch);
        for (k, t) in new_times {
            self.in_trace.times_into(&k, &mut times_scratch);
            for &u in &times_scratch {
                let j = t.join(u);
                self.pending.insert((j, k.clone()));
            }
            self.pending.insert((t, k));
        }
        self.times_scratch = times_scratch;

        // Process every pending time that is now complete. Pending times
        // always lie in the current epoch (joins cannot exceed the max
        // epoch of their arguments), so the lexicographic minimum is
        // processable iff its iteration component has been reached.
        let mut staging: Vec<Delta<(K, W)>> = Vec::new();
        let mut processed = 0u64;
        while let Some((t, k)) = self.pending.iter().next().cloned() {
            if !t.leq(now) {
                break;
            }
            self.pending.remove(&(t, k.clone()));
            processed += 1;
            let in_acc = self.in_trace.accumulate(&k, t);
            debug_assert!(
                in_acc.iter().all(|(_, r)| *r > 0),
                "{name}: negative input multiplicity for {k:?} at {t:?}: {in_acc:?}"
            );
            let mut correct = if in_acc.is_empty() { Vec::new() } else { logic(&k, &in_acc) };
            consolidate_values(&mut correct);
            let out_acc = self.out_trace.accumulate(&k, t);
            let delta = value_delta(&correct, &out_acc);
            for (w, r) in delta {
                self.out_trace.push(k.clone(), w.clone(), t, r);
                staging.push(((k.clone(), w), t, r));
            }
        }
        (staging, processed)
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

        // Merge by sorting on (time, data): exactly the serial emission
        // order, and unique per (t, k, w), so the result is independent
        // of sharding.
        let mut staging: Vec<Delta<(K, W)>> = Vec::new();
        for (shard_staging, processed) in results {
            self.work += processed;
            staging.extend(shard_staging);
        }
        staging.sort_unstable_by(|a, b| (a.1, &a.0).cmp(&(b.1, &b.0)));
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
        self.shards
            .iter()
            .flat_map(|s| s.pending.iter())
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
