//! Dataflow graph plumbing: edges, node registry, the dirty-set
//! scheduler and the epoch driver.
//!
//! The engine is single-threaded and epoch-synchronous. Nodes are stored
//! in creation order, which is a topological order of the (acyclic,
//! feedback-excepted) graph, so one pass per logical time suffices:
//! every producer runs before its consumers.
//!
//! Scheduling is *dirty-set driven*: every registered node owns a slot
//! in a shared [`Scheduler`], and [`Fanout::emit`] marks the consuming
//! node's slot when it delivers a non-empty batch. The epoch driver and
//! the `iterate` fixpoint loop step only nodes that are dirty or hold
//! internal pending work (deferred emissions, unprocessed interesting
//! times), so an incremental update pays for the operators it actually
//! touches — not for the whole graph. Epoch-end invariant checks
//! (`end_epoch`, `flush_scope`) still sweep every node.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use rc_telemetry::Telemetry;

use crate::delta::{Data, Delta};
use crate::error::EvalError;
use crate::time::Time;

/// Scheduler slot of a queue whose consumer has not been registered yet
/// (or never will be, e.g. an [`crate::OutputHandle`]'s queue).
pub(crate) const UNBOUND: usize = usize::MAX;

/// Shared dirty-set state. One instance per [`Dataflow`], covering the
/// top level and every `iterate` scope (slots are allocated globally at
/// registration time).
pub(crate) struct Scheduler {
    dirty: RefCell<Vec<bool>>,
    steps_run: Cell<u64>,
    steps_skipped: Cell<u64>,
    /// Worker count for shard dispatch; 0 means "unset" — resolve via
    /// the process-wide [`rc_par::threads`] knob at dispatch time.
    threads: Cell<usize>,
}

impl Scheduler {
    fn new() -> Rc<Self> {
        Rc::new(Scheduler {
            dirty: RefCell::new(Vec::new()),
            steps_run: Cell::new(0),
            steps_skipped: Cell::new(0),
            threads: Cell::new(0),
        })
    }

    /// Pin (or with `None` unpin) the worker count used when stateful
    /// operators dispatch their shards.
    pub fn set_threads(&self, threads: Option<usize>) {
        self.threads.set(threads.unwrap_or(0));
    }

    /// The worker count shard dispatch runs at: the pinned count, else
    /// the process-wide [`rc_par::threads`] resolution.
    pub fn worker_threads(&self) -> usize {
        match self.threads.get() {
            0 => rc_par::threads(),
            n => n,
        }
    }

    /// Allocate a slot for a newly registered node.
    fn alloc(&self) -> usize {
        let mut d = self.dirty.borrow_mut();
        d.push(false);
        d.len() - 1
    }

    /// Mark a node dirty: it has fresh queued input.
    pub fn mark(&self, slot: usize) {
        if slot != UNBOUND {
            self.dirty.borrow_mut()[slot] = true;
        }
    }

    /// Read a node's dirty flag without clearing it.
    pub fn is_dirty(&self, slot: usize) -> bool {
        slot != UNBOUND && self.dirty.borrow()[slot]
    }

    /// Consume a node's dirty flag.
    pub fn take(&self, slot: usize) -> bool {
        if slot == UNBOUND {
            return false;
        }
        std::mem::replace(&mut self.dirty.borrow_mut()[slot], false)
    }

    /// Count one scheduling decision (for telemetry).
    pub fn count(&self, ran: bool) {
        if ran {
            self.steps_run.set(self.steps_run.get() + 1);
        } else {
            self.steps_skipped.set(self.steps_skipped.get() + 1);
        }
    }

    /// Cumulative `(steps_run, steps_skipped)` counters.
    pub fn step_counts(&self) -> (u64, u64) {
        (self.steps_run.get(), self.steps_skipped.get())
    }
}

/// Minimum freshly routed records in one operator step before its
/// shards go to the pool; smaller steps run inline on the caller's
/// thread. A dispatched step waits for its slowest shard task, and a
/// task whose CPU is taken away mid-shard is waited for a scheduler
/// quantum, so a step goes to the pool only when its own inline cost
/// (0.3–1 µs per record with histories folded on touch) is several
/// quanta. Between 1 k and 16 k records the pool is 15–30 % faster on
/// an idle host and slower on a busy one; the spread is not worth it.
pub(crate) const SHARD_DISPATCH_MIN: usize = 16_384;

/// How one [`run_shards`] call was executed (telemetry material).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum ShardMode {
    /// Shards ran as pool tasks.
    Dispatched,
    /// Multiple workers were available but the step was below
    /// [`SHARD_DISPATCH_MIN`]; shards ran inline (adaptive fallback).
    Inlined,
    /// Single-worker configuration: the exact serial path.
    Serial,
}

/// Step every shard of a stateful operator, fanning the shards out
/// over scoped workers when `records` (the step's freshly routed input)
/// crosses [`SHARD_DISPATCH_MIN`] and more than one worker is
/// configured. Results always come back in shard order — merge order,
/// and therefore operator output, is identical in all three modes.
pub(crate) fn run_shards<S, R, F>(
    sched: Option<&Rc<Scheduler>>,
    records: usize,
    shards: &mut [S],
    f: F,
) -> (Vec<R>, ShardMode)
where
    S: Send,
    R: Send,
    F: Fn(usize, &mut S) -> R + Sync,
{
    let nthreads = sched.map_or(1, |s| s.worker_threads());
    if nthreads <= 1 {
        return (shards.iter_mut().enumerate().map(|(i, s)| f(i, s)).collect(), ShardMode::Serial);
    }
    if records < SHARD_DISPATCH_MIN {
        return (shards.iter_mut().enumerate().map(|(i, s)| f(i, s)).collect(), ShardMode::Inlined);
    }
    let (out, _stats) = rc_par::par_map_mut_in(nthreads.min(shards.len()), shards, f);
    (out, ShardMode::Dispatched)
}

/// A typed edge: producers push difference records, the (single)
/// consumer drains them on its step. The edge knows its consumer's
/// scheduler slot so a delivery can mark the consumer dirty.
pub(crate) struct QueueInner<D: Data> {
    data: RefCell<Vec<Delta<D>>>,
    consumer: Cell<usize>,
    sched: RefCell<Option<Rc<Scheduler>>>,
}

pub(crate) type Queue<D> = Rc<QueueInner<D>>;

pub(crate) fn new_queue<D: Data>() -> Queue<D> {
    Rc::new(QueueInner {
        data: RefCell::new(Vec::new()),
        consumer: Cell::new(UNBOUND),
        sched: RefCell::new(None),
    })
}

impl<D: Data> QueueInner<D> {
    /// Point this edge at its consumer's scheduler slot. Called from the
    /// consumer's [`OpNode::bind`].
    pub fn bind(&self, slot: usize, sched: &Rc<Scheduler>) {
        self.consumer.set(slot);
        *self.sched.borrow_mut() = Some(Rc::clone(sched));
    }

    /// Drain all queued records.
    pub fn take_batch(&self) -> Vec<Delta<D>> {
        std::mem::take(&mut *self.data.borrow_mut())
    }

    pub fn is_empty(&self) -> bool {
        self.data.borrow().is_empty()
    }

    pub fn len(&self) -> usize {
        self.data.borrow().len()
    }

    fn mark_dirty(&self) {
        if let Some(sched) = &*self.sched.borrow() {
            sched.mark(self.consumer.get());
        }
    }

    fn append_slice(&self, batch: &[Delta<D>]) {
        self.data.borrow_mut().extend_from_slice(batch);
        self.mark_dirty();
    }

    fn append_owned(&self, batch: Vec<Delta<D>>) {
        let mut data = self.data.borrow_mut();
        if data.is_empty() {
            // Adopt the batch's storage outright — the common
            // single-subscriber, empty-queue case moves, never copies.
            *data = batch;
        } else {
            data.extend(batch);
        }
        drop(data);
        self.mark_dirty();
    }
}

/// The produce side of a collection: a list of subscriber queues.
/// Subscribing after creation is allowed (used to close feedback loops).
pub(crate) struct Fanout<D: Data> {
    subscribers: Rc<RefCell<Vec<Queue<D>>>>,
}

impl<D: Data> Clone for Fanout<D> {
    fn clone(&self) -> Self {
        Fanout { subscribers: Rc::clone(&self.subscribers) }
    }
}

impl<D: Data> Fanout<D> {
    pub fn new() -> Self {
        Fanout { subscribers: Rc::new(RefCell::new(Vec::new())) }
    }

    /// Add a subscriber and return its queue.
    pub fn subscribe(&self) -> Queue<D> {
        let q = new_queue();
        self.subscribers.borrow_mut().push(Rc::clone(&q));
        q
    }

    /// Attach an existing queue (used to wire a loop variable's feedback
    /// edge after the loop body has been built).
    pub fn attach(&self, q: &Queue<D>) {
        self.subscribers.borrow_mut().push(Rc::clone(q));
    }

    /// Push a batch to every subscriber and mark each one dirty. The
    /// batch is *moved* into the last subscriber's queue; only the
    /// n-1 preceding subscribers (rare: most collections have exactly
    /// one consumer) pay a copy.
    pub fn emit(&self, batch: Vec<Delta<D>>) {
        if batch.is_empty() {
            return;
        }
        let subs = self.subscribers.borrow();
        let Some((last, rest)) = subs.split_last() else {
            return;
        };
        for q in rest {
            q.append_slice(&batch);
        }
        last.append_owned(batch);
    }
}

/// The behaviour every operator implements. `step` is called once per
/// logical time; between steps, upstream operators have already pushed
/// everything at times `≤ now` into this operator's input queues.
pub(crate) trait OpNode {
    /// Record the node's scheduler slot and wire its input queues to it.
    /// Called exactly once, at registration.
    fn bind(&mut self, slot: usize, sched: &Rc<Scheduler>);

    /// The scheduler slot assigned by [`OpNode::bind`].
    fn slot(&self) -> usize;

    /// Process queued input at logical time `now`, emitting outputs.
    fn step(&mut self, now: Time) -> Result<(), EvalError>;

    /// Whether any input queue holds unprocessed records.
    fn has_queued(&self) -> bool;

    /// Whether the node holds internal state that obliges a step even
    /// without fresh input: deferred emissions (join, delay),
    /// unprocessed interesting times (reduce), or — for a scope —
    /// any dirty or pending child. Drives dirty-set scheduling.
    fn has_internal_work(&self) -> bool {
        false
    }

    /// The smallest iteration of `epoch` at which this operator holds
    /// internal pending work (deferred emissions or unprocessed
    /// interesting times), if any. Drives loop scheduling: a fixpoint
    /// scope may not terminate while some operator still owes
    /// corrections at a future iteration.
    fn pending_iter(&self, epoch: u64) -> Option<u32>;

    /// Called by an enclosing scope after its fixpoint loop completes
    /// for `epoch`. Used by egress nodes to release consolidated output.
    fn flush_scope(&mut self, _epoch: u64) {}

    /// Called once per epoch after all processing; checks invariants.
    fn end_epoch(&mut self, epoch: u64);

    /// Fold every key's history at epochs `≤ frontier` down to epoch 0
    /// (the explicit full fold; pushes fold the keys they touch).
    fn compact(&mut self, frontier: u64);

    /// Cumulative count of records processed (a machine-independent
    /// work measure reported by the benchmarks).
    fn work(&self) -> u64;

    /// An order-insensitive digest of the differences this operator
    /// emitted during its most recent `step`, or `None` when it emitted
    /// nothing. Only the feedback (`delay`) operator implements this —
    /// the loop variable's delta stream determines the loop state, so
    /// recurring digests reveal oscillation.
    fn step_digest(&self) -> Option<u64> {
        None
    }

    /// Accumulate this operator's statistics into `acc`, keyed by
    /// operator name. The default reports cumulative work only;
    /// stateful operators add queue depth, trace size and pending
    /// internal work, and containers (the iterate scope) recurse into
    /// their children instead of reporting an aggregate.
    fn collect_stats(&self, acc: &mut BTreeMap<&'static str, OpStats>) {
        acc.entry(self.name()).or_default().work += self.work();
    }

    /// Operator name for diagnostics.
    fn name(&self) -> &'static str;
}

/// Per-operator-name statistics aggregated over the whole graph
/// (including operators inside `iterate` scopes). See
/// [`Dataflow::op_stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpStats {
    /// Cumulative records processed.
    pub work: u64,
    /// Records currently sitting in input queues.
    pub queued: usize,
    /// Difference records held in keyed traces (both spine layers).
    pub trace_records: usize,
    /// Trace records in the consolidated base layers.
    pub trace_base_records: usize,
    /// Trace records in the recent delta layers.
    pub trace_recent_records: usize,
    /// Keys whose recent history was folded into its base (cumulative).
    pub folded_keys: u64,
    /// Recent records those folds moved into a base (cumulative).
    pub folded_records: u64,
    /// Internal pending work: a reduce's unprocessed interesting
    /// times, a join's deferred future-time outputs.
    pub pending: usize,
    /// Steps whose shards ran as pool tasks.
    pub shard_dispatched: u64,
    /// Steps that stayed inline because the batch was below the
    /// dispatch threshold while multiple workers were configured
    /// (the adaptive serial fallback firing).
    pub shard_inlined: u64,
    /// Trace records currently held per key shard (indexes
    /// `0..`[`crate::util::NUM_SHARDS`]) — the shard balance.
    pub shard_records: [usize; crate::util::NUM_SHARDS],
}

/// Shared, build-time mutable graph state. Collections hold a weak
/// reference so combinator methods can register operators.
pub(crate) struct GraphState {
    /// Stack of node lists: index 0 is the top level; an entry is pushed
    /// while an `iterate` scope is being built.
    stacks: Vec<Vec<Box<dyn OpNode>>>,
    /// Shared dirty-set scheduler; slots are allocated here as nodes
    /// register.
    sched: Rc<Scheduler>,
}

impl GraphState {
    fn new() -> Self {
        GraphState { stacks: vec![Vec::new()], sched: Scheduler::new() }
    }

    pub fn register(&mut self, mut node: Box<dyn OpNode>) {
        let slot = self.sched.alloc();
        node.bind(slot, &self.sched);
        self.stacks.last_mut().expect("graph has no scope").push(node);
    }

    pub fn push_scope(&mut self) {
        assert!(self.stacks.len() == 1, "nested iterate scopes are not supported");
        self.stacks.push(Vec::new());
    }

    pub fn pop_scope(&mut self) -> Vec<Box<dyn OpNode>> {
        assert!(self.stacks.len() > 1, "pop_scope without push_scope");
        self.stacks.pop().expect("scope stack empty")
    }

    pub fn in_scope(&self) -> bool {
        self.stacks.len() > 1
    }
}

/// Statistics for one `advance` call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EpochStats {
    /// The epoch that was just computed.
    pub epoch: u64,
    /// Records processed during this epoch (work measure).
    pub records: u64,
}

/// A single-threaded differential dataflow instance.
///
/// Build the graph with [`Dataflow::input`] and the combinators on
/// [`crate::Collection`], then feed changes through the input handles
/// and call [`Dataflow::advance`] once per batch of changes. Each
/// `advance` incrementally brings every derived collection (and
/// [`crate::OutputHandle`]) up to date.
pub struct Dataflow {
    state: Rc<RefCell<GraphState>>,
    epoch: u64,
    work_baseline: u64,
    telemetry: Option<EngineTelemetry>,
}

/// Telemetry handles plus the per-operator work baselines needed to
/// turn cumulative `work()` readings into per-epoch deltas.
struct EngineTelemetry {
    registry: Telemetry,
    queue_depth: rc_telemetry::Histogram,
    pending_times: rc_telemetry::Gauge,
    trace_records: rc_telemetry::Gauge,
    trace_base_records: rc_telemetry::Gauge,
    trace_recent_records: rc_telemetry::Gauge,
    folded_keys: rc_telemetry::Counter,
    folded_records: rc_telemetry::Counter,
    /// Last-seen cumulative `(folded_keys, folded_records)`.
    folded_seen: (u64, u64),
    compact_before: rc_telemetry::Counter,
    compact_after: rc_telemetry::Counter,
    epochs: rc_telemetry::Counter,
    records: rc_telemetry::Counter,
    steps_run: rc_telemetry::Counter,
    steps_skipped: rc_telemetry::Counter,
    work_by_op: BTreeMap<&'static str, u64>,
    /// Last-seen cumulative scheduler counters (for per-epoch deltas).
    sched_baseline: (u64, u64),
    /// Shard metrics, registered lazily on first activity so serial
    /// runs (which never dispatch or inline) carry no new keys and the
    /// committed gate baselines stay byte-identical.
    shard_dispatches: Option<rc_telemetry::Counter>,
    small_tasks_inlined: Option<rc_telemetry::Counter>,
    shard_records: Option<Vec<rc_telemetry::Gauge>>,
    shard_dispatched_seen: u64,
    shard_inlined_seen: u64,
}

impl EngineTelemetry {
    fn new(registry: Telemetry) -> Self {
        EngineTelemetry {
            queue_depth: registry.histogram("dataflow.queue_depth"),
            pending_times: registry.gauge("dataflow.reduce.pending_times"),
            trace_records: registry.gauge("dataflow.trace_records"),
            trace_base_records: registry.gauge("dataflow.trace.base_records"),
            trace_recent_records: registry.gauge("dataflow.trace.recent_records"),
            folded_keys: registry.counter("dataflow.trace.folded_keys"),
            folded_records: registry.counter("dataflow.trace.folded_records"),
            folded_seen: (0, 0),
            compact_before: registry.counter("dataflow.compact.records_before"),
            compact_after: registry.counter("dataflow.compact.records_after"),
            epochs: registry.counter("dataflow.epochs"),
            records: registry.counter("dataflow.records"),
            steps_run: registry.counter("dataflow.sched.steps_run"),
            steps_skipped: registry.counter("dataflow.sched.steps_skipped"),
            work_by_op: BTreeMap::new(),
            sched_baseline: (0, 0),
            shard_dispatches: None,
            small_tasks_inlined: None,
            shard_records: None,
            shard_dispatched_seen: 0,
            shard_inlined_seen: 0,
            registry,
        }
    }

    /// Record one completed epoch from the aggregated operator stats.
    fn record_epoch(
        &mut self,
        stats: &BTreeMap<&'static str, OpStats>,
        records: u64,
        sched: &Scheduler,
    ) {
        self.epochs.incr();
        self.records.add(records);
        for (name, s) in stats {
            let baseline = self.work_by_op.entry(name).or_insert(0);
            if s.work > *baseline {
                self.registry.counter(&format!("dataflow.work.{name}")).add(s.work - *baseline);
            }
            *baseline = s.work;
        }
        self.pending_times
            .set(stats.get("reduce").map(|s| s.pending).unwrap_or(0) as i64);
        self.trace_records.set(stats.values().map(|s| s.trace_records).sum::<usize>() as i64);
        self.trace_base_records
            .set(stats.values().map(|s| s.trace_base_records).sum::<usize>() as i64);
        self.trace_recent_records
            .set(stats.values().map(|s| s.trace_recent_records).sum::<usize>() as i64);
        let folded = stats
            .values()
            .fold((0, 0), |(k, r), s| (k + s.folded_keys, r + s.folded_records));
        self.folded_keys.add(folded.0 - self.folded_seen.0);
        self.folded_records.add(folded.1 - self.folded_seen.1);
        self.folded_seen = folded;
        let (run, skipped) = sched.step_counts();
        self.steps_run.add(run - self.sched_baseline.0);
        self.steps_skipped.add(skipped - self.sched_baseline.1);
        self.sched_baseline = (run, skipped);

        // Shard activity: register on first use only, so serial runs
        // leave the snapshot's key set untouched.
        let dispatched: u64 = stats.values().map(|s| s.shard_dispatched).sum();
        if dispatched > self.shard_dispatched_seen {
            self.shard_dispatches
                .get_or_insert_with(|| self.registry.counter("dataflow.shard.dispatches"))
                .add(dispatched - self.shard_dispatched_seen);
            self.shard_dispatched_seen = dispatched;
        }
        let inlined: u64 = stats.values().map(|s| s.shard_inlined).sum();
        if inlined > self.shard_inlined_seen {
            self.small_tasks_inlined
                .get_or_insert_with(|| self.registry.counter("par.small_tasks_inlined"))
                .add(inlined - self.shard_inlined_seen);
            self.shard_inlined_seen = inlined;
        }
        if dispatched > 0 {
            let mut per = [0usize; crate::util::NUM_SHARDS];
            for s in stats.values() {
                for (acc, n) in per.iter_mut().zip(s.shard_records) {
                    *acc += n;
                }
            }
            let gauges = self.shard_records.get_or_insert_with(|| {
                (0..crate::util::NUM_SHARDS)
                    .map(|i| self.registry.gauge(&format!("dataflow.shard.records.{i}")))
                    .collect()
            });
            for (g, n) in gauges.iter().zip(per) {
                g.set(n as i64);
            }
        }
    }
}

impl Default for Dataflow {
    fn default() -> Self {
        Self::new()
    }
}

impl Dataflow {
    /// Create an empty dataflow.
    pub fn new() -> Self {
        Dataflow {
            state: Rc::new(RefCell::new(GraphState::new())),
            epoch: 0,
            work_baseline: 0,
            telemetry: None,
        }
    }

    /// Attach a telemetry registry. Every subsequent [`Dataflow::advance`]
    /// records per-operator work (`dataflow.work.<op>`), queue depths,
    /// reduce pending-times sizes, trace spine sizes, the keys and
    /// records folded on touch and scheduler decisions;
    /// [`Dataflow::compact`] records trace record counts
    /// before and after compaction.
    pub fn set_telemetry(&mut self, registry: Telemetry) {
        self.telemetry = Some(EngineTelemetry::new(registry));
    }

    /// Pin (or with `None` unpin) the worker count the stateful
    /// operators dispatch their key shards at. Unpinned, dispatch
    /// follows the process-wide [`rc_par::threads`] resolution. Any
    /// worker count — including 1 — produces byte-identical batches,
    /// traces and outputs; the count changes speed only.
    pub fn set_threads(&mut self, threads: Option<usize>) {
        self.state.borrow().sched.set_threads(threads);
    }

    /// Per-operator-name statistics aggregated over the whole graph,
    /// including operators inside `iterate` scopes.
    pub fn op_stats(&self) -> BTreeMap<&'static str, OpStats> {
        let mut acc = BTreeMap::new();
        for node in self.state.borrow().stacks[0].iter() {
            node.collect_stats(&mut acc);
        }
        acc
    }

    pub(crate) fn state(&self) -> &Rc<RefCell<GraphState>> {
        &self.state
    }

    /// The last completed epoch (0 before any `advance`).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Run one epoch: all changes pushed into input handles since the
    /// previous `advance` take effect atomically, and all derived state
    /// is updated incrementally. Only nodes that are dirty (received
    /// input) or hold internal pending work are stepped.
    pub fn advance(&mut self) -> Result<EpochStats, EvalError> {
        self.epoch += 1;
        let now = Time::new(self.epoch, 0);
        let mut st = self.state.borrow_mut();
        assert!(!st.in_scope(), "advance called while an iterate scope is still being built");
        let sched = Rc::clone(&st.sched);
        let nodes = &mut st.stacks[0];
        if let Some(tel) = &self.telemetry {
            let mut stats = BTreeMap::new();
            for node in nodes.iter() {
                node.collect_stats(&mut stats);
            }
            tel.queue_depth.record(stats.values().map(|s| s.queued).sum::<usize>() as u64);
        }
        for node in nodes.iter_mut() {
            let run = sched.take(node.slot()) || node.has_internal_work();
            if run {
                node.step(now)?;
            }
            sched.count(run);
        }
        for node in nodes.iter_mut() {
            node.end_epoch(self.epoch);
        }
        let total: u64 = nodes.iter().map(|n| n.work()).sum();
        let records = total - self.work_baseline;
        self.work_baseline = total;
        if let Some(tel) = &mut self.telemetry {
            let mut stats = BTreeMap::new();
            for node in nodes.iter() {
                node.collect_stats(&mut stats);
            }
            tel.record_epoch(&stats, records, &sched);
        }
        Ok(EpochStats { epoch: self.epoch, records })
    }

    /// Cumulative records processed across all epochs.
    pub fn total_work(&self) -> u64 {
        self.state.borrow().stacks[0].iter().map(|n| n.work()).sum()
    }

    /// Fold every key of every operator below the current epoch. Pushes
    /// already fold the keys they touch, and a trace that has doubled
    /// folds itself whole, so this changes no result; it reclaims now
    /// what untouched keys still hold in their recent layers (and keys
    /// whose history cancelled). Sound only between
    /// `advance` calls (which is the only time it can be called, given
    /// `&mut self`).
    pub fn compact(&mut self) {
        let before = self.trace_records() as u64;
        for node in self.state.borrow_mut().stacks[0].iter_mut() {
            node.compact(self.epoch);
        }
        if let Some(tel) = &self.telemetry {
            let after = self.trace_records() as u64;
            tel.compact_before.add(before);
            tel.compact_after.add(after);
            tel.trace_records.set(after as i64);
        }
    }

    /// Records currently retained across all operator trace spines
    /// (base + recent layers, including operators inside scopes).
    pub fn trace_records(&self) -> usize {
        self.op_stats().values().map(|s| s.trace_records).sum()
    }
}
