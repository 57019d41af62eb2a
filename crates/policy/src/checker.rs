//! The incremental network policy checker (paper §4.2, third stage).
//!
//! The checker's state is, per EC, the analysis of its forwarding
//! graph ([`EcAnalysis`], which generalizes the paper's "set of paths"),
//! plus the registered policies with their verdicts. The paper's second
//! map, (src, dst) pair → ECs deliverable between them, is kept only as
//! a per-pair *count* of delivering ECs: every policy is evaluated from
//! the EC side, so nothing needs the sets. That count and the port →
//! ECs index link changes invalidate through are derived from the
//! analyses (`Derived`) and never persisted. After a batch of data
//! plane model changes the checker re-analyzes **only the affected
//! ECs**, patches the derived indexes for what they changed, and
//! re-evaluates **only the policies registered on affected packets** —
//! reporting both newly violated and newly satisfied policies (the
//! latter lets an operator confirm a repair worked).
//!
//! Analyses, pair counts and the per-pass pair marks are dense rows
//! indexed by `NodeId.0` (see [`crate::walk`]), so a merge diffs an
//! EC's old and new rows a word at a time.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::time::Instant;

use rc_apkeep::{ApkModel, BatchSummary, EcId};
use rc_bdd::Ref;
use rc_netcfg::types::{NodeId, Port, Prefix};

use crate::walk::{self, ones, words, EcAnalysis, Forwarding, Topology, Walker, MAX_NODES};

/// Identifier of a registered policy.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PolicyId(pub u32);

/// The packets a policy speaks about.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PacketClass {
    /// All packets.
    All,
    /// Packets destined to a prefix.
    DstPrefix(Prefix),
    /// A flow: optional protocol / destination prefix / destination
    /// port constraints, conjoined.
    Flow { proto: Option<u8>, dst_prefix: Option<Prefix>, dst_port: Option<u16> },
}

/// A forwarding policy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Policy {
    /// Every packet of `class` injected at `src` must be able to reach
    /// a delivery at `dst`.
    Reachability { src: NodeId, dst: NodeId, class: PacketClass },
    /// No packet of `class` injected at `src` may reach `dst`.
    Isolation { src: NodeId, dst: NodeId, class: PacketClass },
    /// Packets of `class` delivered from `src` to `dst` must always
    /// traverse `via`.
    Waypoint { src: NodeId, dst: NodeId, via: NodeId, class: PacketClass },
    /// No packet of `class` may enter a forwarding loop, from any
    /// source.
    LoopFree { class: PacketClass },
    /// No packet of `class` injected at `src` may be dropped in the
    /// network (ACL denies are intentional and do not count).
    BlackholeFree { src: NodeId, class: PacketClass },
}

struct Registered {
    policy: Policy,
    pred: Ref,
    satisfied: bool,
}

/// Report of one (full or incremental) checking pass.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CheckReport {
    /// ECs re-analyzed in this pass.
    pub affected_ecs: usize,
    /// (src, dst) pairs whose paths were modified (rerouted or
    /// gained/lost delivery) — the paper's "#Pairs affected", i.e. the
    /// pairs the incremental checker had to revisit.
    pub affected_pairs: usize,
    /// (src, dst) pairs whose deliverable-EC set actually changed
    /// (a subset of `affected_pairs`).
    pub changed_pairs: usize,
    /// Total pairs currently in the reachability map.
    pub total_pairs: usize,
    /// Policies re-evaluated.
    pub policies_checked: usize,
    /// Policies that switched satisfied → violated.
    pub newly_violated: Vec<PolicyId>,
    /// Policies that switched violated → satisfied.
    pub newly_satisfied: Vec<PolicyId>,
}

/// Minimum affected-EC count before the walk phase is dispatched to
/// the pool; smaller passes run inline on the caller's thread (counted
/// by `par.small_tasks_inlined`). A walk costs 5–40 µs, so this is a
/// few ms of work — several scheduler quanta, the size at which a pool
/// call stops being a bet on the second CPU (EXPERIMENTS.md, "Dispatch
/// thresholds").
const WALK_INLINE_MIN: usize = 256;

/// The incremental policy checker. Holds EC-keyed state; must be used
/// with the *same* [`ApkModel`] across its lifetime (its predicates
/// live in that model's BDD manager).
pub struct PolicyChecker {
    nodes: BTreeSet<NodeId>,
    /// Every directed link, by source port. A port on a multi-access
    /// subnet links to several; walks follow the greatest, as a
    /// whole build that inserts links in order would keep it.
    topo: BTreeMap<Port, BTreeSet<Port>>,
    /// `nodes` and `topo` as the dense tables walks read; rebuilt
    /// whenever either changes.
    table: Topology,
    /// Per-EC analysis, indexed by EC id: the model's ids are dense, a
    /// split appends its child and a merge swap-removes, so after every
    /// pass there is one entry per model EC.
    ec_state: Vec<EcAnalysis>,
    derived: Derived,
    policies: Vec<Registered>,
    /// Per-checker worker-count override for the parallel walk phase
    /// (`None`: the process-global [`rc_par::threads`] knob).
    threads: Option<usize>,
    telemetry: Option<CheckerTelemetry>,
}

/// Everything the checker knows that is a function of `ec_state`:
/// patched on every merge, rebuilt whole on decode, and compared with a
/// rebuild by [`PolicyChecker::check_invariants`]. `port_users` holds no
/// empty entry.
#[derive(Debug, Default)]
struct Derived {
    /// Side of the pair matrix: it covers node ids below `dim`, at least
    /// every analysis's rows. Only grows.
    dim: usize,
    /// `pairs[src * dim + dst]`: how many ECs deliver from `src` to `dst`.
    pairs: Vec<u32>,
    /// Nonzero entries of `pairs`.
    num_pairs: usize,
    /// port → the ECs whose forwarding uses it (what a link change
    /// under the port invalidates).
    port_users: HashMap<Port, BTreeSet<EcId>>,
}

impl Derived {
    fn of(ec_state: &[EcAnalysis]) -> Self {
        let mut d = Derived::default();
        d.grow(ec_state.iter().map(|a| a.n).max().unwrap_or(0));
        for (i, a) in ec_state.iter().enumerate() {
            d.add(EcId(i as u32), a);
        }
        d
    }

    /// Widen the pair matrix to node ids below `n`.
    fn grow(&mut self, n: usize) {
        if n <= self.dim {
            return;
        }
        let mut pairs = vec![0; n * n];
        for s in 0..self.dim {
            pairs[s * n..][..self.dim].copy_from_slice(&self.pairs[s * self.dim..][..self.dim]);
        }
        self.pairs = pairs;
        self.dim = n;
    }

    /// Count one more (`up`) or one fewer EC delivering from `s` to `d`.
    fn count(&mut self, s: usize, d: usize, up: bool) {
        let c = &mut self.pairs[s * self.dim + d];
        if up {
            self.num_pairs += usize::from(*c == 0);
            *c += 1;
        } else {
            *c -= 1;
            self.num_pairs -= usize::from(*c == 0);
        }
    }

    /// Every nonzero pair count, in (src, dst) order.
    fn counts(&self) -> Vec<(usize, usize, u32)> {
        let dim = self.dim;
        (0..dim * dim)
            .filter(|&i| self.pairs[i] > 0)
            .map(|i| (i / dim, i % dim, self.pairs[i]))
            .collect()
    }

    fn reachable(&self, src: NodeId, dst: NodeId) -> bool {
        let (s, d) = (src.0 as usize, dst.0 as usize);
        s < self.dim && d < self.dim && self.pairs[s * self.dim + d] > 0
    }

    /// Count everything `a` contributes as EC `ec`'s (`a`'s rows must
    /// fit the matrix).
    fn add(&mut self, ec: EcId, a: &EcAnalysis) {
        for s in 0..a.n {
            for d in ones(a.row(s)) {
                self.count(s, d, true);
            }
        }
        for &port in &a.ports_used {
            self.port_users.entry(port).or_default().insert(ec);
        }
    }

    /// Uncount everything `a` contributes as EC `ec`'s: the inverse of
    /// [`Derived::add`].
    fn remove(&mut self, ec: EcId, a: &EcAnalysis) {
        for s in 0..a.n {
            for d in ones(a.row(s)) {
                self.count(s, d, false);
            }
        }
        for port in &a.ports_used {
            self.unuse(port, ec);
        }
    }

    /// EC `from`, whose analysis is `a`, is renumbered `to`.
    fn rename(&mut self, from: EcId, to: EcId, a: &EcAnalysis) {
        for port in &a.ports_used {
            let users = self.port_users.get_mut(port).expect("a used port has users");
            users.remove(&from);
            users.insert(to);
        }
    }

    /// `ec` no longer uses `port`.
    fn unuse(&mut self, port: &Port, ec: EcId) {
        if let Some(users) = self.port_users.get_mut(port) {
            users.remove(&ec);
            if users.is_empty() {
                self.port_users.remove(port);
            }
        }
    }

    /// Re-count EC `ec` from its `old` analysis to its `new` one (both
    /// must fit the matrix), diffing their rows a word at a time, and
    /// mark in `marks` the pairs whose count moved and the pairs whose
    /// paths did.
    fn replace(&mut self, ec: EcId, old: &EcAnalysis, new: &EcAnalysis, marks: &mut PairMarks) {
        // One merge over both sorted port lists. An EC uses hundreds of
        // ports on a fat tree: on the k=8 OSPF link churn a binary search
        // per port made the policy pass ≈ 43 % slower, and two filtered
        // passes ≈ 10 % (EXPERIMENTS.md, "The port-index merge").
        let (mut o, mut n) = (old.ports_used.iter().peekable(), new.ports_used.iter().peekable());
        loop {
            let gone = match (o.peek(), n.peek()) {
                (None, None) => break,
                (Some(a), Some(b)) if a == b => {
                    o.next();
                    n.next();
                    continue;
                }
                (Some(a), Some(b)) => a < b,
                (Some(_), None) => true,
                (None, Some(_)) => false,
            };
            if gone {
                let port = o.next().expect("peeked");
                self.unuse(port, ec);
            } else {
                let port = n.next().expect("peeked");
                self.port_users.entry(*port).or_default().insert(ec);
            }
        }

        for s in 0..old.n.max(new.n) {
            let (before, after) = (old.row(s), new.row(s));
            // Pairs whose paths were modified: a source whose path
            // signature changed, with every delivery endpoint it had
            // before or has now.
            let rerouted = old.path_sig(NodeId(s as u32)) != new.path_sig(NodeId(s as u32));
            for j in 0..before.len().max(after.len()) {
                let b = before.get(j).copied().unwrap_or(0);
                let a = after.get(j).copied().unwrap_or(0);
                let moved = b ^ a;
                for bit in ones(std::slice::from_ref(&moved)) {
                    self.count(s, j * 64 + bit, a >> bit & 1 == 1);
                }
                let at = s * marks.words + j;
                marks.changed[at] |= moved;
                if rerouted {
                    marks.touched[at] |= b | a;
                }
            }
        }
    }
}

/// The (src, dst) pairs one pass changed, as bitset rows over the pair
/// matrix: `changed` — the pair's EC count moved; `touched` — its
/// source's paths moved while it delivered.
struct PairMarks {
    words: usize,
    changed: Vec<u64>,
    touched: Vec<u64>,
}

impl PairMarks {
    fn new(dim: usize) -> Self {
        let words = words(dim);
        PairMarks { words, changed: vec![0; dim * words], touched: vec![0; dim * words] }
    }

    /// `(affected, changed)` pair counts: every marked pair, and the
    /// pairs whose count moved.
    fn counts(&self) -> (usize, usize) {
        let affected = self.changed.iter().zip(&self.touched).map(|(c, t)| (c | t).count_ones());
        let changed = self.changed.iter().map(|c| c.count_ones());
        (affected.sum::<u32>() as usize, changed.sum::<u32>() as usize)
    }
}

/// Cached metric handles (name lookups happen once, at attach time).
/// The pool metrics register lazily, on the first pass that actually
/// ran multi-worker, so serial runs' snapshots carry no `pool.*` keys.
struct CheckerTelemetry {
    registry: rc_telemetry::Telemetry,
    affected_ecs: rc_telemetry::Counter,
    policies_checked: rc_telemetry::Counter,
    policies_registered: rc_telemetry::Gauge,
    pairs: rc_telemetry::Gauge,
    check_incremental_us: rc_telemetry::Histogram,
    check_full_us: rc_telemetry::Histogram,
    /// A pass's three phases, full and incremental alike: the walks
    /// (with the element binding), the merge, the policy evaluation.
    walk_us: rc_telemetry::Histogram,
    merge_us: rc_telemetry::Histogram,
    eval_us: rc_telemetry::Histogram,
    pool_workers: Option<rc_telemetry::Gauge>,
    pool_tasks: Option<rc_telemetry::Counter>,
    small_tasks_inlined: Option<rc_telemetry::Counter>,
}

impl CheckerTelemetry {
    fn new(registry: &rc_telemetry::Telemetry) -> Self {
        CheckerTelemetry {
            registry: registry.clone(),
            affected_ecs: registry.counter("policy.affected_ecs"),
            policies_checked: registry.counter("policy.policies_checked"),
            policies_registered: registry.gauge("policy.policies_registered"),
            pairs: registry.gauge("policy.pairs"),
            check_incremental_us: registry.histogram("policy.check_incremental_us"),
            check_full_us: registry.histogram("policy.check_full_us"),
            walk_us: registry.histogram("policy.walk_us"),
            merge_us: registry.histogram("policy.merge_us"),
            eval_us: registry.histogram("policy.eval_us"),
            pool_workers: None,
            pool_tasks: None,
            small_tasks_inlined: None,
        }
    }

    /// Count one walk phase that was inlined on the caller's thread
    /// because it was too small to be worth pool dispatch. Lazily
    /// registered so serial runs' snapshots carry no `par.*` keys.
    fn record_inlined(&mut self) {
        let reg = &self.registry;
        self.small_tasks_inlined
            .get_or_insert_with(|| reg.counter("par.small_tasks_inlined"))
            .add(1);
    }

    /// Record one parallel walk phase's pool statistics. Serial passes
    /// (one worker) record nothing, keeping their snapshots unchanged.
    fn record_pool(&mut self, stats: &rc_par::PoolStats) {
        if stats.workers <= 1 {
            return;
        }
        let reg = &self.registry;
        self.pool_workers
            .get_or_insert_with(|| reg.gauge("pool.workers"))
            .set(stats.workers as i64);
        self.pool_tasks.get_or_insert_with(|| reg.counter("pool.tasks")).add(stats.tasks);
    }
}

impl Default for PolicyChecker {
    fn default() -> Self {
        Self::new()
    }
}

impl PolicyChecker {
    pub fn new() -> Self {
        PolicyChecker {
            nodes: BTreeSet::new(),
            topo: BTreeMap::new(),
            table: Topology::default(),
            ec_state: Vec::new(),
            derived: Derived::default(),
            policies: Vec::new(),
            threads: None,
            telemetry: None,
        }
    }

    /// Override the worker count for this checker's parallel walk
    /// phase. `None` falls back to the process-global knob
    /// ([`rc_par::threads`]: `set_threads` / `RC_THREADS` / available
    /// parallelism); `Some(1)` forces the exact serial path.
    pub fn set_threads(&mut self, threads: Option<usize>) {
        self.threads = threads;
    }

    /// Attach a telemetry registry. Every checking pass records the ECs
    /// re-analyzed (`policy.affected_ecs`), policies re-evaluated vs
    /// registered (`policy.policies_checked` vs the
    /// `policy.policies_registered` gauge), and its latency — full and
    /// incremental passes into separate histograms, and each pass's
    /// walk, merge and evaluation phases into `policy.walk_us`,
    /// `policy.merge_us` and `policy.eval_us`.
    pub fn set_telemetry(&mut self, registry: &rc_telemetry::Telemetry) {
        self.telemetry = Some(CheckerTelemetry::new(registry));
    }

    /// Add or remove devices. Returns the ECs to re-check: every EC when
    /// the device set changed — a new device's fate is in no analysis
    /// yet, and a removed one's is in all of them — and none otherwise.
    ///
    /// # Panics
    /// If a node id is at least [`MAX_NODES`].
    pub fn set_nodes(&mut self, nodes: impl IntoIterator<Item = NodeId>) -> BTreeSet<EcId> {
        let nodes: BTreeSet<NodeId> = nodes.into_iter().collect();
        if nodes == self.nodes {
            return BTreeSet::new();
        }
        self.nodes = nodes;
        self.table = table(&self.nodes, &self.topo);
        (0..self.ec_state.len() as u32).map(EcId).collect()
    }

    /// Apply directed link changes (`+1` up, `-1` down). Returns the ECs
    /// whose forwarding used an affected port (they must be re-checked
    /// even if no FIB rule changed).
    ///
    /// # Panics
    /// If a node id is at least [`MAX_NODES`].
    pub fn apply_link_delta(&mut self, delta: &[(Port, Port, isize)]) -> BTreeSet<EcId> {
        let mut touched = BTreeSet::new();
        for &(src, dst, diff) in delta {
            let peers = self.topo.entry(src).or_default();
            if diff > 0 {
                peers.insert(dst);
            } else {
                peers.remove(&dst);
                if peers.is_empty() {
                    self.topo.remove(&src);
                }
            }
            for port in [src, dst] {
                if let Some(users) = self.derived.port_users.get(&port) {
                    touched.extend(users.iter().copied());
                }
            }
        }
        if !delta.is_empty() {
            self.table = table(&self.nodes, &self.topo);
        }
        touched
    }

    /// Register a policy. Its packet-class predicate is compiled into
    /// the model's BDD manager. The policy starts "satisfied" and gets
    /// its real status on the next check.
    pub fn add_policy(&mut self, model: &mut ApkModel, policy: Policy) -> PolicyId {
        let class = match &policy {
            Policy::Reachability { class, .. }
            | Policy::Isolation { class, .. }
            | Policy::Waypoint { class, .. }
            | Policy::LoopFree { class }
            | Policy::BlackholeFree { class, .. } => *class,
        };
        let pred = match class {
            PacketClass::All => Ref::TRUE,
            PacketClass::DstPrefix(p) => {
                model.preds().pkt_prefix(rc_bdd::pkt::Field::DstIp, p.addr().0, p.len() as u32)
            }
            PacketClass::Flow { proto, dst_prefix, dst_port } => {
                use rc_bdd::pkt::Field;
                let preds = model.preds();
                let mut acc = Ref::TRUE;
                if let Some(pr) = proto {
                    let p = preds.pkt_value(Field::Proto, pr as u32);
                    acc = preds.and(acc, p);
                }
                if let Some(p) = dst_prefix {
                    let d = preds.pkt_prefix(Field::DstIp, p.addr().0, p.len() as u32);
                    acc = preds.and(acc, d);
                }
                if let Some(pt) = dst_port {
                    let d = preds.pkt_value(Field::DstPort, pt as u32);
                    acc = preds.and(acc, d);
                }
                acc
            }
        };
        let id = PolicyId(self.policies.len() as u32);
        self.policies.push(Registered { policy, pred, satisfied: true });
        id
    }

    /// Current status of a policy.
    pub fn is_satisfied(&self, id: PolicyId) -> bool {
        self.policies[id.0 as usize].satisfied
    }

    /// The registered policies with their current verdicts, in
    /// registration order (index = [`PolicyId`]). Rebuild support: a
    /// fresh checker fed these through [`PolicyChecker::add_policy`] +
    /// [`PolicyChecker::restore_verdicts`] preserves both the policy ids
    /// and the satisfaction history, so newly-violated/newly-satisfied
    /// deltas stay correct across a full rebuild.
    pub fn policy_specs(&self) -> Vec<(Policy, bool)> {
        self.policies.iter().map(|r| (r.policy.clone(), r.satisfied)).collect()
    }

    /// Current verdict vector (index = [`PolicyId`]).
    pub fn verdicts(&self) -> Vec<bool> {
        self.policies.iter().map(|r| r.satisfied).collect()
    }

    /// Overwrite the stored verdicts, in id order, without re-evaluating:
    /// transaction rollback from [`PolicyChecker::verdicts`] (a failed
    /// checking pass may have flipped some flags before dying), and
    /// rebuilds carrying the last-seen verdicts over.
    pub fn restore_verdicts(&mut self, snapshot: &[bool]) {
        for (r, &s) in self.policies.iter_mut().zip(snapshot) {
            r.satisfied = s;
        }
    }

    /// Whether any EC currently delivers traffic from `src` to `dst`.
    pub fn reachable(&self, src: NodeId, dst: NodeId) -> bool {
        self.derived.reachable(src, dst)
    }

    /// Number of (src, dst) pairs with at least one deliverable EC.
    pub fn num_pairs(&self) -> usize {
        self.derived.num_pairs
    }

    /// Test hook: the pair counts and port index, as patched pass by
    /// pass, must equal what the per-EC analyses derive from scratch.
    pub fn check_invariants(&self) -> Result<(), String> {
        let rebuilt = Derived::of(&self.ec_state);
        let (kept, fresh) = (self.derived.counts(), rebuilt.counts());
        if kept != fresh || self.derived.num_pairs != kept.len() {
            return Err(format!(
                "pair counts drifted: {} pairs maintained ({} counted), {} derived",
                kept.len(),
                self.derived.num_pairs,
                fresh.len()
            ));
        }
        if rebuilt.port_users != self.derived.port_users {
            return Err(format!(
                "port index drifted: {} ports maintained, {} derived",
                self.derived.port_users.len(),
                rebuilt.port_users.len()
            ));
        }
        Ok(())
    }

    /// The forwarding graph of one EC over the checker's current
    /// topology (for packet tracing).
    pub fn forwarding(&self, model: &ApkModel, ec: EcId) -> Forwarding {
        Walker::new(&model.ec_view(), &self.table).forwarding(ec, None)
    }

    /// The analysis of `ec` as of the last checking pass.
    pub fn analysis(&self, ec: EcId) -> Option<&EcAnalysis> {
        self.ec_state.get(ec.0 as usize)
    }

    /// Check everything from scratch (initial verification).
    pub fn check_full(&mut self, model: &mut ApkModel) -> CheckReport {
        self.ec_state.resize_with(model.num_ecs(), EcAnalysis::default);
        let all: BTreeSet<EcId> = model.ecs().collect();
        self.recheck(model, all, true)
    }

    /// Incremental check after a data plane model batch: re-analyze the
    /// affected ECs (plus any invalidated by `extra`, e.g. link
    /// changes) and re-evaluate only policies registered on them.
    pub fn check_incremental(
        &mut self,
        model: &mut ApkModel,
        summary: &BatchSummary,
        extra: BTreeSet<EcId>,
    ) -> CheckReport {
        // Fault injection: no error channel here either — error-mode
        // faults escalate to a panic for the verifier's containment.
        if rc_faults::fire(rc_faults::FaultPoint::PolicyCheck) {
            panic!(
                "{} error at policy check escalated to panic (no error channel)",
                rc_faults::INJECTED_PANIC_PREFIX
            );
        }
        // Splits first. A split changes no EC's forwarding: the parent's
        // analysis stays valid for its narrower predicate, and the child
        // behaves exactly like its pre-split parent until a move says
        // otherwise, so it inherits the parent's analysis, counts the
        // parent's pairs and ports once more, and is invalidated with it
        // by `extra` (which names pre-batch ids). Children are appended
        // past the ECs the batch started with, in id order.
        let mut affected: BTreeSet<EcId> = extra;
        let before = model.num_ecs() + summary.merges.len() - summary.splits.len();
        self.ec_state.resize_with(before, EcAnalysis::default);
        for &(parent, child) in &summary.splits {
            debug_assert_eq!(child.0 as usize, self.ec_state.len(), "split children append");
            let state = self.ec_state[parent.0 as usize].clone();
            self.derived.add(child, &state);
            self.ec_state.push(state);
            if affected.contains(&parent) {
                affected.insert(child);
            }
        }
        // Then merges, in the model's order. The absorbed EC's analysis
        // is uncounted and the last EC takes its id. The survivor keeps
        // its own: the two share a port vector, so if neither changed
        // behaviour both analyses are current, and otherwise one of them
        // is affected and names the survivor.
        for &(keep, gone) in &summary.merges {
            let old = self.ec_state.swap_remove(gone.0 as usize);
            self.derived.remove(gone, &old);
            let last = EcId(self.ec_state.len() as u32);
            if gone != last {
                self.derived.rename(last, gone, &self.ec_state[gone.0 as usize]);
            }
            if affected.remove(&gone) {
                affected.insert(keep);
            }
            if gone != last && affected.remove(&last) {
                affected.insert(gone);
            }
        }
        debug_assert_eq!(self.ec_state.len(), model.num_ecs());
        affected.extend(summary.affected.iter().map(|a| a.ec));
        self.recheck(model, affected, false)
    }

    fn recheck(&mut self, model: &mut ApkModel, affected: BTreeSet<EcId>, full: bool) -> CheckReport {
        let start = Instant::now();
        let mut report = CheckReport { affected_ecs: affected.len(), ..Default::default() };

        // Phase 1: walk the affected ECs' forwarding graphs. The walks
        // only read the model — through an immutable `EcView` snapshot —
        // and the checker's topology tables, so they fan out across the
        // worker pool. Results come back in input (ascending-EC) order,
        // so the serial merge in phase 2, and with it the report and the
        // verdict history, is identical for any worker count.
        let affected_list: Vec<EcId> = affected.iter().copied().collect();
        let mut nthreads = self.threads.unwrap_or_else(rc_par::threads);
        // Adaptive fallback: a handful of walks is cheaper on the
        // caller's thread than the scoped-pool spawn it would trigger.
        // Walks are order-independent, so inlining changes nothing but
        // latency.
        let inlined = nthreads > 1 && affected_list.len() < WALK_INLINE_MIN;
        if inlined {
            nthreads = 1;
        }
        let (analyses, pool_stats) = {
            let view = model.ec_view();
            let walker = Walker::new(&view, &self.table);
            rc_par::par_map_indexed_in(nthreads, &affected_list, |_, &ec| {
                rc_faults::fire_walk(ec.0);
                walker.analyze(ec, None)
            })
        };
        let walked = start.elapsed();
        if let Some(tel) = &mut self.telemetry {
            tel.record_pool(&pool_stats);
            if inlined {
                tel.record_inlined();
            }
        }

        // Phase 2: merge each new analysis over the old one, strictly in
        // ascending EC order, patching the derived indexes by the
        // difference.
        self.derived.grow(self.table.len());
        let mut marks = PairMarks::new(self.derived.dim);
        for (&ec, new) in affected_list.iter().zip(analyses) {
            let slot = &mut self.ec_state[ec.0 as usize];
            self.derived.replace(ec, slot, &new, &mut marks);
            *slot = new;
        }
        (report.affected_pairs, report.changed_pairs) = marks.counts();
        report.total_pairs = self.derived.num_pairs;
        let merged = start.elapsed();

        // Re-evaluate policies registered on affected packets.
        let affected_pred = if full {
            Ref::TRUE
        } else {
            let ec_preds: Vec<Ref> = affected.iter().map(|&e| model.ec_pred(e)).collect();
            model.preds().or_all(ec_preds)
        };
        for idx in 0..self.policies.len() {
            let relevant = full || {
                let pred = self.policies[idx].pred;
                // Read-only satisfiability probe: no node interning, no
                // apply-cache traffic (see `Bdd::intersects`).
                model.preds().intersects(pred, affected_pred)
            };
            if !relevant {
                continue;
            }
            report.policies_checked += 1;
            let now = self.evaluate(model, idx);
            let was = self.policies[idx].satisfied;
            self.policies[idx].satisfied = now;
            match (was, now) {
                (true, false) => report.newly_violated.push(PolicyId(idx as u32)),
                (false, true) => report.newly_satisfied.push(PolicyId(idx as u32)),
                _ => {}
            }
        }
        // Fault injection with this pass's verdicts already written:
        // the caller must put them back (see `restore_verdicts`).
        if rc_faults::fire(rc_faults::FaultPoint::PolicyVerdicts) {
            panic!(
                "{} error after policy verdicts escalated to panic (no error channel)",
                rc_faults::INJECTED_PANIC_PREFIX
            );
        }
        if let Some(tel) = &self.telemetry {
            tel.affected_ecs.add(report.affected_ecs as u64);
            tel.policies_checked.add(report.policies_checked as u64);
            tel.policies_registered.set(self.policies.len() as i64);
            tel.pairs.set(self.derived.num_pairs as i64);
            let total = start.elapsed();
            tel.walk_us.record(walked.as_micros() as u64);
            tel.merge_us.record((merged - walked).as_micros() as u64);
            tel.eval_us.record((total - merged).as_micros() as u64);
            let us = total.as_micros() as u64;
            if full {
                tel.check_full_us.record(us);
            } else {
                tel.check_incremental_us.record(us);
            }
        }
        // Attribute the BDD op-cache traffic of the policy-evaluation
        // predicates above to the model's telemetry (if attached).
        model.sync_bdd_telemetry();
        report
    }

    fn evaluate(&mut self, model: &mut ApkModel, idx: usize) -> bool {
        let pred = self.policies[idx].pred;
        let policy = self.policies[idx].policy.clone();
        let ecs = model.ecs_intersecting(pred);
        match policy {
            Policy::Reachability { src, dst, .. } => {
                // Every packet of the class must have a delivering EC.
                let mut uncovered = pred;
                for &ec in &ecs {
                    if self.delivers(ec, src, dst) {
                        let ep = model.ec_pred(ec);
                        uncovered = model.preds().diff(uncovered, ep);
                        if uncovered.is_false() {
                            break;
                        }
                    }
                }
                uncovered.is_false()
            }
            Policy::Isolation { src, dst, .. } => {
                ecs.iter().all(|&ec| !self.delivers(ec, src, dst))
            }
            Policy::Waypoint { src, dst, via, .. } => {
                let view = model.ec_view();
                let walker = Walker::new(&view, &self.table);
                ecs.iter().all(|&ec| {
                    // Vacuous when nothing is delivered; deliverable while
                    // avoiding the waypoint ⇒ violated.
                    !self.delivers(ec, src, dst)
                        || !walker.analyze(ec, Some(via)).delivers(src, dst)
                })
            }
            Policy::LoopFree { .. } => {
                ecs.iter().all(|&ec| !self.ec_state[ec.0 as usize].loops_anywhere())
            }
            Policy::BlackholeFree { src, .. } => {
                ecs.iter().all(|&ec| !self.ec_state[ec.0 as usize].drops(src))
            }
        }
    }

    fn delivers(&self, ec: EcId, src: NodeId, dst: NodeId) -> bool {
        self.ec_state[ec.0 as usize].delivers(src, dst)
    }
}

// ---------------------------------------------------------------------
// Durable-state serialization.
//
// The checker's state is the per-EC analyses plus the registered
// policies; what is derived from the analyses is rebuilt on decode, not
// stored. Predicate handles point into the model's predicate store,
// which the snapshot carries wholesale with arena indices preserved —
// so handles serialize as raw indices and stay valid after restore.

fn wire_err<T>(msg: impl Into<String>) -> Result<T, rc_store::WireError> {
    Err(rc_store::WireError(msg.into()))
}

fn encode_node(w: &mut rc_store::Writer, n: NodeId) {
    w.u32(n.0);
}

/// A node id, refused at or past [`MAX_NODES`] before anything sizes a
/// table by it.
fn decode_node(r: &mut rc_store::Reader<'_>) -> Result<NodeId, rc_store::WireError> {
    let n = r.u32()?;
    if n as usize >= MAX_NODES {
        return wire_err(format!("node id {n} past the dense tables' bound"));
    }
    Ok(NodeId(n))
}

fn encode_port(w: &mut rc_store::Writer, p: Port) {
    encode_node(w, p.node);
    w.u32(p.iface.0);
}

fn decode_port(r: &mut rc_store::Reader<'_>) -> Result<Port, rc_store::WireError> {
    let node = decode_node(r)?;
    let iface = rc_netcfg::types::IfaceId(r.u32()?);
    Ok(Port { node, iface })
}

fn encode_node_set(w: &mut rc_store::Writer, s: &BTreeSet<NodeId>) {
    w.len_prefix(s.len());
    for &n in s {
        encode_node(w, n);
    }
}

fn decode_node_set(
    r: &mut rc_store::Reader<'_>,
) -> Result<BTreeSet<NodeId>, rc_store::WireError> {
    let n = r.len_prefix()?;
    let mut out = BTreeSet::new();
    for _ in 0..n {
        out.insert(decode_node(r)?);
    }
    Ok(out)
}

/// A node bitset, as the ascending set of the ids it holds.
fn encode_node_bits(w: &mut rc_store::Writer, bits: &[u64]) {
    w.len_prefix(ones(bits).count());
    for i in ones(bits) {
        encode_node(w, NodeId(i as u32));
    }
}

fn encode_prefix(w: &mut rc_store::Writer, p: Prefix) {
    w.u32(p.addr().0);
    w.u8(p.len());
}

fn decode_prefix(r: &mut rc_store::Reader<'_>) -> Result<Prefix, rc_store::WireError> {
    let addr = r.u32()?;
    let len = r.u8()?;
    if len > 32 {
        return wire_err(format!("prefix length {len} > 32"));
    }
    Ok(Prefix::new(rc_netcfg::types::Ip(addr), len))
}

fn encode_class(w: &mut rc_store::Writer, c: &PacketClass) {
    match c {
        PacketClass::All => w.u8(0),
        PacketClass::DstPrefix(p) => {
            w.u8(1);
            encode_prefix(w, *p);
        }
        PacketClass::Flow { proto, dst_prefix, dst_port } => {
            w.u8(2);
            match proto {
                Some(p) => {
                    w.u8(1);
                    w.u8(*p);
                }
                None => w.u8(0),
            }
            match dst_prefix {
                Some(p) => {
                    w.u8(1);
                    encode_prefix(w, *p);
                }
                None => w.u8(0),
            }
            match dst_port {
                Some(p) => {
                    w.u8(1);
                    w.u16(*p);
                }
                None => w.u8(0),
            }
        }
    }
}

fn decode_class(r: &mut rc_store::Reader<'_>) -> Result<PacketClass, rc_store::WireError> {
    match r.u8()? {
        0 => Ok(PacketClass::All),
        1 => Ok(PacketClass::DstPrefix(decode_prefix(r)?)),
        2 => {
            let proto = match r.u8()? {
                0 => None,
                1 => Some(r.u8()?),
                t => return wire_err(format!("bad proto option tag {t}")),
            };
            let dst_prefix = match r.u8()? {
                0 => None,
                1 => Some(decode_prefix(r)?),
                t => return wire_err(format!("bad dst_prefix option tag {t}")),
            };
            let dst_port = match r.u8()? {
                0 => None,
                1 => Some(r.u16()?),
                t => return wire_err(format!("bad dst_port option tag {t}")),
            };
            Ok(PacketClass::Flow { proto, dst_prefix, dst_port })
        }
        t => wire_err(format!("unknown packet class tag {t}")),
    }
}

fn encode_policy(w: &mut rc_store::Writer, p: &Policy) {
    match p {
        Policy::Reachability { src, dst, class } => {
            w.u8(0);
            encode_node(w, *src);
            encode_node(w, *dst);
            encode_class(w, class);
        }
        Policy::Isolation { src, dst, class } => {
            w.u8(1);
            encode_node(w, *src);
            encode_node(w, *dst);
            encode_class(w, class);
        }
        Policy::Waypoint { src, dst, via, class } => {
            w.u8(2);
            encode_node(w, *src);
            encode_node(w, *dst);
            encode_node(w, *via);
            encode_class(w, class);
        }
        Policy::LoopFree { class } => {
            w.u8(3);
            encode_class(w, class);
        }
        Policy::BlackholeFree { src, class } => {
            w.u8(4);
            encode_node(w, *src);
            encode_class(w, class);
        }
    }
}

fn decode_policy(r: &mut rc_store::Reader<'_>) -> Result<Policy, rc_store::WireError> {
    match r.u8()? {
        0 => {
            let (src, dst) = (decode_node(r)?, decode_node(r)?);
            Ok(Policy::Reachability { src, dst, class: decode_class(r)? })
        }
        1 => {
            let (src, dst) = (decode_node(r)?, decode_node(r)?);
            Ok(Policy::Isolation { src, dst, class: decode_class(r)? })
        }
        2 => {
            let (src, dst, via) = (decode_node(r)?, decode_node(r)?, decode_node(r)?);
            Ok(Policy::Waypoint { src, dst, via, class: decode_class(r)? })
        }
        3 => Ok(Policy::LoopFree { class: decode_class(r)? }),
        4 => {
            let src = decode_node(r)?;
            Ok(Policy::BlackholeFree { src, class: decode_class(r)? })
        }
        t => wire_err(format!("unknown policy tag {t}")),
    }
}

/// An analysis on the wire: the sources with a nonempty delivered row
/// and their rows, the dropping and the looping sources, the ports used,
/// and the path signatures — each a set in ascending order, rows in
/// ascending node-id order.
fn encode_analysis(w: &mut rc_store::Writer, a: &EcAnalysis) {
    let sources: Vec<usize> = (0..a.n).filter(|&s| a.row(s).iter().any(|&x| x != 0)).collect();
    w.len_prefix(sources.len());
    for s in sources {
        encode_node(w, NodeId(s as u32));
        encode_node_bits(w, a.row(s));
    }
    encode_node_bits(w, &a.dropped);
    encode_node_bits(w, &a.looping);
    w.len_prefix(a.ports_used.len());
    for &p in &a.ports_used {
        encode_port(w, p);
    }
    w.len_prefix(ones(&a.routed).count());
    for s in ones(&a.routed) {
        encode_node(w, NodeId(s as u32));
        w.u64(a.path_sig[s]);
    }
}

/// Decode one analysis. Every node id it names must be a device of
/// `nodes`, checked before the id sizes or indexes a row; the rows span
/// the largest id named.
fn decode_analysis(
    r: &mut rc_store::Reader<'_>,
    nodes: &BTreeSet<NodeId>,
) -> Result<EcAnalysis, rc_store::WireError> {
    let device = |r: &mut rc_store::Reader<'_>| -> Result<usize, rc_store::WireError> {
        let n = decode_node(r)?;
        if !nodes.contains(&n) {
            return wire_err(format!("analysis names node {}, not a device", n.0));
        }
        Ok(n.0 as usize)
    };
    let devices = |r: &mut rc_store::Reader<'_>| -> Result<Vec<usize>, rc_store::WireError> {
        (0..r.len_prefix()?).map(|_| device(r)).collect()
    };
    let mut delivered = Vec::new();
    for _ in 0..r.len_prefix()? {
        let s = device(r)?;
        delivered.push((s, devices(r)?));
    }
    let dropped = devices(r)?;
    let looping = devices(r)?;
    let mut ports_used =
        (0..r.len_prefix()?).map(|_| decode_port(r)).collect::<Result<Vec<_>, _>>()?;
    ports_used.sort_unstable();
    ports_used.dedup();
    let mut sigs = Vec::new();
    for _ in 0..r.len_prefix()? {
        let s = device(r)?;
        sigs.push((s, r.u64()?));
    }

    let named = delivered.iter().flat_map(|(s, ds)| std::iter::once(s).chain(ds));
    let named = named.chain(&dropped).chain(&looping).chain(sigs.iter().map(|(s, _)| s));
    let mut a = EcAnalysis::new(named.max().map_or(0, |&m| m + 1));
    for (s, ds) in delivered {
        for d in ds {
            walk::set(a.row_mut(s), d);
        }
    }
    for s in dropped {
        walk::set(&mut a.dropped, s);
    }
    for s in looping {
        walk::set(&mut a.looping, s);
    }
    for (s, sig) in sigs {
        walk::set(&mut a.routed, s);
        a.path_sig[s] = sig;
    }
    a.ports_used = ports_used;
    Ok(a)
}

/// The walk tables over `nodes` and each port's greatest link.
fn table(nodes: &BTreeSet<NodeId>, topo: &BTreeMap<Port, BTreeSet<Port>>) -> Topology {
    let links = topo.iter().filter_map(|(&src, peers)| Some((src, *peers.last()?))).collect();
    Topology::new(nodes, &links)
}

impl PolicyChecker {
    /// Serialize the checker's state — topology view, the per-EC
    /// analyses in EC order, and registered policies with their
    /// verdicts — for a durable snapshot.
    pub fn encode_state(&self, w: &mut rc_store::Writer) {
        encode_node_set(w, &self.nodes);
        w.len_prefix(self.topo.values().map(BTreeSet::len).sum());
        for (&a, peers) in &self.topo {
            for &b in peers {
                encode_port(w, a);
                encode_port(w, b);
            }
        }
        w.len_prefix(self.ec_state.len());
        for analysis in &self.ec_state {
            encode_analysis(w, analysis);
        }
        w.len_prefix(self.policies.len());
        for reg in &self.policies {
            encode_policy(w, &reg.policy);
            w.u32(reg.pred.index());
            w.u8(reg.satisfied as u8);
        }
    }

    /// Rebuild a checker from [`PolicyChecker::encode_state`] bytes,
    /// against the restored `model`: it must have one EC per stored
    /// analysis, and every policy handle must point into its predicate
    /// store. The derived indexes are recomputed. Telemetry and the
    /// worker-count override are not restored; the caller re-attaches
    /// them.
    pub fn decode_state(
        r: &mut rc_store::Reader<'_>,
        model: &ApkModel,
    ) -> Result<PolicyChecker, rc_store::WireError> {
        let nodes = decode_node_set(r)?;
        let mut topo: BTreeMap<Port, BTreeSet<Port>> = BTreeMap::new();
        for _ in 0..r.len_prefix()? {
            let a = decode_port(r)?;
            let b = decode_port(r)?;
            topo.entry(a).or_default().insert(b);
        }
        let num_ecs = r.len_prefix()?;
        if num_ecs != model.num_ecs() {
            return wire_err(format!(
                "checker state has {num_ecs} EC analyses, the model {} ECs",
                model.num_ecs()
            ));
        }
        let ec_state =
            (0..num_ecs).map(|_| decode_analysis(r, &nodes)).collect::<Result<Vec<_>, _>>()?;
        let mut policies = Vec::new();
        for i in 0..r.len_prefix()? {
            let policy = decode_policy(r)?;
            let pred = r.u32()?;
            if pred >= model.pred_slots() {
                return wire_err(format!("policy {i} has invalid predicate handle {pred}"));
            }
            let satisfied = match r.u8()? {
                0 => false,
                1 => true,
                t => return wire_err(format!("bad verdict tag {t}")),
            };
            policies.push(Registered { policy, pred: Ref::from_index(pred), satisfied });
        }
        Ok(PolicyChecker {
            table: table(&nodes, &topo),
            nodes,
            topo,
            derived: Derived::of(&ec_state),
            ec_state,
            policies,
            threads: None,
            telemetry: None,
        })
    }
}
