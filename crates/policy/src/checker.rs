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

use std::collections::{BTreeMap, BTreeSet, HashMap};

use rc_apkeep::{ApkModel, BatchSummary, EcId};
use rc_bdd::{Predicate, Ref};
use rc_netcfg::types::{NodeId, Port, Prefix};

use crate::walk::{analyze, build_ec_graph, EcAnalysis};

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
/// by `par.small_tasks_inlined`).
const WALK_INLINE_MIN: usize = 8;

/// The incremental policy checker. Holds EC-keyed state; must be used
/// with the *same* [`ApkModel`] across its lifetime (its predicates
/// live in that model's BDD manager).
pub struct PolicyChecker {
    nodes: BTreeSet<NodeId>,
    topo: BTreeMap<Port, Port>,
    /// Per-EC analysis, indexed by EC id: the model's ids are dense and
    /// a split appends its child, so after every pass there is one entry
    /// per model EC.
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
/// rebuild by [`PolicyChecker::check_invariants`]. Neither map holds an
/// empty entry.
#[derive(Debug, Default, PartialEq, Eq)]
struct Derived {
    /// (src, dst) → how many ECs deliver from `src` to `dst`.
    pairs: HashMap<(NodeId, NodeId), u32>,
    /// port → the ECs whose forwarding uses it (what a link change
    /// under the port invalidates).
    port_users: HashMap<Port, BTreeSet<EcId>>,
}

impl Derived {
    fn of(ec_state: &[EcAnalysis]) -> Self {
        let mut d = Derived::default();
        for (i, a) in ec_state.iter().enumerate() {
            d.add(EcId(i as u32), a);
        }
        d
    }

    /// Count everything `a` contributes as EC `ec`'s.
    fn add(&mut self, ec: EcId, a: &EcAnalysis) {
        for pair in a.pairs() {
            *self.pairs.entry(pair).or_default() += 1;
        }
        for &port in &a.ports_used {
            self.port_users.entry(port).or_default().insert(ec);
        }
    }

    /// Re-count EC `ec` from its `old` analysis to its `new` one, adding
    /// to `changed` every pair whose count moved.
    fn replace(
        &mut self,
        ec: EcId,
        old: &EcAnalysis,
        new: &EcAnalysis,
        changed: &mut BTreeSet<(NodeId, NodeId)>,
    ) {
        for port in old.ports_used.difference(&new.ports_used) {
            if let Some(users) = self.port_users.get_mut(port) {
                users.remove(&ec);
                if users.is_empty() {
                    self.port_users.remove(port);
                }
            }
        }
        for &port in new.ports_used.difference(&old.ports_used) {
            self.port_users.entry(port).or_default().insert(ec);
        }
        for pair in old.pairs().filter(|&(s, d)| !new.delivers(s, d)) {
            changed.insert(pair);
            if let Some(n) = self.pairs.get_mut(&pair) {
                *n -= 1;
                if *n == 0 {
                    self.pairs.remove(&pair);
                }
            }
        }
        for pair in new.pairs().filter(|&(s, d)| !old.delivers(s, d)) {
            changed.insert(pair);
            *self.pairs.entry(pair).or_default() += 1;
        }
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
    pool_workers: Option<rc_telemetry::Gauge>,
    pool_tasks: Option<rc_telemetry::Counter>,
    pool_steals: Option<rc_telemetry::Counter>,
    pool_busy_us: Option<rc_telemetry::Histogram>,
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
            pool_workers: None,
            pool_tasks: None,
            pool_steals: None,
            pool_busy_us: None,
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
        self.pool_steals.get_or_insert_with(|| reg.counter("pool.steals")).add(stats.steals);
        let busy = self.pool_busy_us.get_or_insert_with(|| reg.histogram("pool.busy_us"));
        for &us in &stats.busy_us {
            busy.record(us);
        }
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
    /// incremental passes into separate histograms.
    pub fn set_telemetry(&mut self, registry: &rc_telemetry::Telemetry) {
        self.telemetry = Some(CheckerTelemetry::new(registry));
    }

    /// Add or remove devices.
    pub fn set_nodes(&mut self, nodes: impl IntoIterator<Item = NodeId>) {
        self.nodes = nodes.into_iter().collect();
    }

    /// Apply directed link changes (`+1` up, `-1` down). Returns the ECs
    /// whose forwarding used an affected port (they must be re-checked
    /// even if no FIB rule changed).
    pub fn apply_link_delta(&mut self, delta: &[(Port, Port, isize)]) -> BTreeSet<EcId> {
        let mut touched = BTreeSet::new();
        for &(src, dst, diff) in delta {
            if diff > 0 {
                self.topo.insert(src, dst);
            } else {
                self.topo.remove(&src);
            }
            for port in [src, dst] {
                if let Some(users) = self.derived.port_users.get(&port) {
                    touched.extend(users.iter().copied());
                }
            }
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
        self.derived.pairs.contains_key(&(src, dst))
    }

    /// Number of (src, dst) pairs with at least one deliverable EC.
    pub fn num_pairs(&self) -> usize {
        self.derived.pairs.len()
    }

    /// Test hook: the pair counts and port index, as patched pass by
    /// pass, must equal what the per-EC analyses derive from scratch.
    pub fn check_invariants(&self) -> Result<(), String> {
        let rebuilt = Derived::of(&self.ec_state);
        if rebuilt.pairs != self.derived.pairs {
            return Err(format!(
                "pair counts drifted: {} pairs maintained, {} derived",
                self.derived.pairs.len(),
                rebuilt.pairs.len()
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

    /// Build the forwarding graph of one EC over the checker's current
    /// topology (for tracing and ad-hoc queries).
    pub fn ec_graph(&self, model: &ApkModel, ec: EcId) -> crate::walk::EcGraph {
        crate::walk::build_ec_graph(&model.ec_view(), ec, &self.nodes, &self.topo, None)
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
        self.ec_state.resize_with(model.num_ecs() - summary.splits.len(), EcAnalysis::default);
        for &(parent, child) in &summary.splits {
            debug_assert_eq!(child.0 as usize, self.ec_state.len(), "split children append");
            let state = self.ec_state[parent.0 as usize].clone();
            self.derived.add(child, &state);
            self.ec_state.push(state);
            if affected.contains(&parent) {
                affected.insert(child);
            }
        }
        affected.extend(summary.affected.iter().map(|a| a.ec));
        self.recheck(model, affected, false)
    }

    fn recheck(&mut self, model: &mut ApkModel, affected: BTreeSet<EcId>, full: bool) -> CheckReport {
        let start = std::time::Instant::now();
        let mut report = CheckReport { affected_ecs: affected.len(), ..Default::default() };
        let mut changed_pairs: BTreeSet<(NodeId, NodeId)> = BTreeSet::new();
        let mut touched_pairs: BTreeSet<(NodeId, NodeId)> = BTreeSet::new();

        // Phase 1: walk the affected ECs' forwarding graphs. The walks
        // only read the model — through an immutable `EcView` snapshot —
        // and the checker's node/topology sets, so they fan out across
        // the worker pool. Results come back in input (ascending-EC)
        // order, so the serial merge in phase 2, and with it the report
        // and the verdict history, is identical for any worker count.
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
            let nodes = &self.nodes;
            let topo = &self.topo;
            rc_par::par_map_indexed_in(nthreads, &affected_list, |_, &ec| {
                rc_faults::fire_walk(ec.0);
                analyze(&build_ec_graph(&view, ec, nodes, topo, None))
            })
        };
        if let Some(tel) = &mut self.telemetry {
            tel.record_pool(&pool_stats);
            if inlined {
                tel.record_inlined();
            }
        }

        // Phase 2: merge each new analysis over the old one, strictly in
        // ascending EC order, patching the derived indexes by the
        // difference.
        for (&ec, new) in affected_list.iter().zip(analyses) {
            let old = std::mem::take(&mut self.ec_state[ec.0 as usize]);
            self.derived.replace(ec, &old, &new, &mut changed_pairs);
            // Pairs whose paths were modified: sources whose path
            // signature changed, paired with every delivery endpoint
            // they had before or have now.
            let mut srcs: BTreeSet<NodeId> = BTreeSet::new();
            srcs.extend(old.path_sig.keys().copied());
            srcs.extend(new.path_sig.keys().copied());
            for s in srcs {
                if old.path_sig.get(&s) == new.path_sig.get(&s) {
                    continue;
                }
                for dsts in [old.delivered.get(&s), new.delivered.get(&s)].into_iter().flatten() {
                    touched_pairs.extend(dsts.iter().map(|&d| (s, d)));
                }
            }
            self.ec_state[ec.0 as usize] = new;
        }

        touched_pairs.extend(changed_pairs.iter().copied());
        report.affected_pairs = touched_pairs.len();
        report.changed_pairs = changed_pairs.len();
        report.total_pairs = self.derived.pairs.len();

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
            tel.pairs.set(self.derived.pairs.len() as i64);
            let us = start.elapsed().as_micros() as u64;
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
            Policy::Waypoint { src, dst, via, .. } => ecs.iter().all(|&ec| {
                if !self.delivers(ec, src, dst) {
                    return true; // vacuous: nothing delivered
                }
                // Deliverable while avoiding the waypoint ⇒ violated.
                let g = build_ec_graph(&model.ec_view(), ec, &self.nodes, &self.topo, Some(via));
                !analyze(&g).delivers(src, dst)
            }),
            Policy::LoopFree { .. } => {
                ecs.iter().all(|&ec| self.ec_state[ec.0 as usize].looping.is_empty())
            }
            Policy::BlackholeFree { src, .. } => {
                ecs.iter().all(|&ec| !self.ec_state[ec.0 as usize].dropped.contains(&src))
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

fn decode_node(r: &mut rc_store::Reader<'_>) -> Result<NodeId, rc_store::WireError> {
    Ok(NodeId(r.u32()?))
}

fn encode_port(w: &mut rc_store::Writer, p: Port) {
    w.u32(p.node.0);
    w.u32(p.iface.0);
}

fn decode_port(r: &mut rc_store::Reader<'_>) -> Result<Port, rc_store::WireError> {
    let node = NodeId(r.u32()?);
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

fn encode_node_set_map(w: &mut rc_store::Writer, m: &BTreeMap<NodeId, BTreeSet<NodeId>>) {
    w.len_prefix(m.len());
    for (&k, v) in m {
        encode_node(w, k);
        encode_node_set(w, v);
    }
}

fn decode_node_set_map(
    r: &mut rc_store::Reader<'_>,
) -> Result<BTreeMap<NodeId, BTreeSet<NodeId>>, rc_store::WireError> {
    let n = r.len_prefix()?;
    let mut out = BTreeMap::new();
    for _ in 0..n {
        let k = decode_node(r)?;
        out.insert(k, decode_node_set(r)?);
    }
    Ok(out)
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

fn encode_analysis(w: &mut rc_store::Writer, a: &EcAnalysis) {
    encode_node_set_map(w, &a.delivered);
    encode_node_set(w, &a.dropped);
    encode_node_set(w, &a.looping);
    w.len_prefix(a.ports_used.len());
    for &p in &a.ports_used {
        encode_port(w, p);
    }
    w.len_prefix(a.path_sig.len());
    for (&n, &sig) in &a.path_sig {
        encode_node(w, n);
        w.u64(sig);
    }
}

fn decode_analysis(r: &mut rc_store::Reader<'_>) -> Result<EcAnalysis, rc_store::WireError> {
    let delivered = decode_node_set_map(r)?;
    let dropped = decode_node_set(r)?;
    let looping = decode_node_set(r)?;
    let mut ports_used = BTreeSet::new();
    for _ in 0..r.len_prefix()? {
        ports_used.insert(decode_port(r)?);
    }
    let mut path_sig = BTreeMap::new();
    for _ in 0..r.len_prefix()? {
        let n = decode_node(r)?;
        path_sig.insert(n, r.u64()?);
    }
    Ok(EcAnalysis { delivered, dropped, looping, ports_used, path_sig })
}

impl PolicyChecker {
    /// Serialize the checker's state — topology view, the per-EC
    /// analyses in EC order, and registered policies with their
    /// verdicts — for a durable snapshot.
    pub fn encode_state(&self, w: &mut rc_store::Writer) {
        encode_node_set(w, &self.nodes);
        w.len_prefix(self.topo.len());
        for (&a, &b) in &self.topo {
            encode_port(w, a);
            encode_port(w, b);
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
        let mut topo = BTreeMap::new();
        for _ in 0..r.len_prefix()? {
            let a = decode_port(r)?;
            let b = decode_port(r)?;
            topo.insert(a, b);
        }
        let num_ecs = r.len_prefix()?;
        if num_ecs != model.num_ecs() {
            return wire_err(format!(
                "checker state has {num_ecs} EC analyses, the model {} ECs",
                model.num_ecs()
            ));
        }
        let ec_state = (0..num_ecs).map(|_| decode_analysis(r)).collect::<Result<Vec<_>, _>>()?;
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
