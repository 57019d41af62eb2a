//! The RealConfig verifier: configurations in, incremental verification
//! reports out.
//!
//! Three single-owner pieces: one full build ([`build`]) that is also
//! the only rollback, options fixed at construction
//! ([`VerifierOptions`]), and one transactional apply
//! ([`RealConfig::apply_configs`]) fed by one [`ConfigDelta`].

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use rc_apkeep::{ApkModel, RuleUpdate, UpdateOrder};
use rc_netcfg::change::{ChangeError, ChangeSet};
use rc_netcfg::facts::{fact_delta, lower, Fact, Registry};
use rc_netcfg::parser::{parse_config, ParseError};
use rc_netcfg::types::{NodeId, Prefix};
use rc_netcfg::DeviceConfig;
use rc_policy::{PacketClass, Policy, PolicyChecker, PolicyId};
use rc_routing::route::FibEntry;

use crate::convert::filter_rule;
use crate::report::{ChangeReport, FullReport};

mod build;
mod delta;
mod persist;
use build::{DataPlane, Stages};
pub use delta::ConfigDelta;
pub use persist::{RestoreReport, RestoreSource};

/// Verifier errors.
///
/// # Failure model
///
/// A failed change is never committed: after every variant
/// [`RealConfig::configs`], [`RealConfig::facts`],
/// [`RealConfig::warnings`] and the policy verdicts
/// ([`RealConfig::is_satisfied`], [`RealConfig::policy_specs`]) are the
/// last good set. The variants differ in what happened to the pipeline:
///
/// - [`Error::Parse`] and [`Error::Change`] fail before the pipeline
///   runs: nothing happened, keep applying changes.
/// - [`Error::Divergence`] and [`Error::Internal`] poison the verifier:
///   the incremental engines may hold partial results of the failed
///   change, and nothing rolls them back — the pipeline accessors
///   ([`RealConfig::fib`], [`RealConfig::num_rules`],
///   [`RealConfig::num_ecs`], [`RealConfig::num_pairs`],
///   [`RealConfig::num_fib_rules`]) reflect the failed attempt.
///   [`RealConfig::needs_rebuild`] reports this state, and
///   [`RealConfig::rebuild`] (or, automatically,
///   [`OnFailure::Rebuild`]) ends it: afterwards every accessor equals
///   a from-scratch build over the last good configurations.
#[derive(Debug)]
pub enum Error {
    /// A configuration failed to parse.
    Parse(ParseError),
    /// A change operation could not be applied (the verifier state is
    /// unchanged).
    Change(ChangeError),
    /// The control plane failed to converge. The verifier is poisoned —
    /// call [`RealConfig::rebuild`] to recover in place.
    Divergence(rc_dataflow::EvalError),
    /// A pipeline stage panicked mid-change (a bug, or an injected
    /// fault). The panic was contained; the verifier is poisoned — call
    /// [`RealConfig::rebuild`] to recover in place.
    Internal(String),
    /// The verifier is poisoned by an earlier [`Error::Divergence`] or
    /// [`Error::Internal`] and cannot verify changes until
    /// [`RealConfig::rebuild`] succeeds.
    Poisoned,
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Parse(e) => write!(f, "parse error: {e}"),
            Error::Change(e) => write!(f, "change error: {e}"),
            Error::Divergence(e) => write!(f, "control plane divergence: {e}"),
            Error::Internal(msg) => write!(f, "internal pipeline failure: {msg}"),
            Error::Poisoned => write!(
                f,
                "verifier is poisoned by an earlier failure; rebuild() it from the \
                 last good configurations"
            ),
        }
    }
}

impl std::error::Error for Error {}

impl From<ChangeError> for Error {
    fn from(e: ChangeError) -> Self {
        Error::Change(e)
    }
}

impl From<rc_dataflow::EvalError> for Error {
    fn from(e: rc_dataflow::EvalError) -> Self {
        Error::Divergence(e)
    }
}

/// The value the snapshot META section's retired auto-compaction field
/// keeps carrying (tag `1`, this count), so snapshot bytes stay what
/// they were when a sweep ran every this many changes. Nothing reads it
/// back: the engine folds a key's history when the key is next touched.
pub const DEFAULT_AUTO_COMPACT: u32 = 64;

/// What an apply does when the incremental path fails mid-change.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OnFailure {
    /// Poison the verifier and return the error; the caller decides
    /// when to [`RealConfig::rebuild`].
    Poison,
    /// Self-heal: verify the new configurations from
    /// scratch (policies and verdict history carry over; the report is
    /// flagged `recovered`). If they do not verify from scratch either,
    /// heal back to the last good configurations and return the
    /// incremental error. A verifier poisoned on entry is rebuilt
    /// first. The call ends poisoned only if recovery failed twice.
    Rebuild,
}

/// Everything configurable about a verifier, fixed at construction:
/// rebuilds and snapshot restores read the same value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct VerifierOptions {
    /// Data plane model update order (insertion-first is the fast one;
    /// Table 3 quantifies why).
    pub order: UpdateOrder,
    /// Predicate backend of the EC model. Defaults to the process
    /// default ([`rc_bdd::default_backend`]) when `default()` is called.
    pub backend: rc_bdd::PredKind,
    /// Worker count for the parallel phases (policy walks and sharded
    /// dataflow operators). `None` is the process-global knob
    /// ([`rc_par::threads`]); `Some(1)` forces the exact serial paths.
    /// Results are byte-identical for any worker count.
    pub threads: Option<usize>,
    pub on_failure: OnFailure,
}

impl Default for VerifierOptions {
    fn default() -> Self {
        VerifierOptions {
            order: UpdateOrder::InsertFirst,
            backend: rc_bdd::default_backend(),
            threads: None,
            on_failure: OnFailure::Poison,
        }
    }
}

/// The incremental network configuration verifier (the paper's
/// RealConfig): chains the incremental data plane generator, the
/// incremental EC model updater and the incremental policy checker.
pub struct RealConfig {
    configs: BTreeMap<String, DeviceConfig>,
    registry: Registry,
    stages: Stages,
    opts: VerifierOptions,
    /// Shared metric registry for all three pipeline stages.
    telemetry: rc_telemetry::Telemetry,
    /// Set when a failure may have left the incremental engines holding
    /// partial results of a rejected change (see [`Error`]).
    poisoned: bool,
    /// Durable warm state (state directory, snapshot sequence, apply
    /// journal). `None` unless a state directory is attached — the
    /// in-memory-only common case pays one `Option` check per apply.
    store: Option<persist::StoreState>,
}

/// Run a pipeline step, containing a panic as [`Error::Internal`].
fn contained<T>(step: impl FnOnce() -> Result<T, Error>) -> Result<T, Error> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(step)) {
        Ok(result) => result,
        Err(payload) => Err(Error::Internal(
            (payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "pipeline stage panicked (non-string payload)".into()),
        )),
    }
}

impl RealConfig {
    /// Build the verifier with default options and run the initial full
    /// verification.
    pub fn new(configs: BTreeMap<String, DeviceConfig>) -> Result<(Self, FullReport), Error> {
        Self::with_options(configs, VerifierOptions::default())
    }

    /// Build the verifier and run the initial full verification. A
    /// panic in any stage is contained as [`Error::Internal`].
    pub fn with_options(
        configs: BTreeMap<String, DeviceConfig>,
        opts: VerifierOptions,
    ) -> Result<(Self, FullReport), Error> {
        let telemetry = rc_telemetry::Telemetry::new();
        let mut registry = Registry::new();
        let (stages, mut report, _) =
            contained(|| Stages::build(&configs, &mut registry, &opts, &telemetry, &[]))?;
        report.metrics = telemetry.snapshot();
        let rc = RealConfig {
            configs,
            registry,
            stages,
            opts,
            telemetry,
            poisoned: false,
            store: None,
        };
        Ok((rc, report))
    }

    /// Parse configuration texts and build the verifier.
    pub fn from_texts<'a, I: IntoIterator<Item = &'a str>>(
        texts: I,
    ) -> Result<(Self, FullReport), Error> {
        let mut configs = BTreeMap::new();
        for t in texts {
            let cfg = parse_config(t).map_err(Error::Parse)?;
            configs.insert(cfg.hostname.clone(), cfg);
        }
        Self::new(configs)
    }

    /// Verify a configuration change incrementally:
    /// [`RealConfig::apply_configs`] over the current configurations
    /// with `cs` applied. A change that does not apply is
    /// [`Error::Change`] and nothing ran.
    pub fn apply_change(&mut self, cs: &ChangeSet) -> Result<ChangeReport, Error> {
        let delta = self.candidate(cs)?;
        self.apply_delta(delta)
    }

    /// Fold a burst of pending changes ([`ChangeSet::coalesce`]:
    /// last-writer-wins on set-type operations) into one
    /// [`RealConfig::apply_configs`] transaction: the burst commits or
    /// fails atomically and produces **exactly one** journal record. A
    /// burst that folds to no change at all (a link group that went
    /// down and came back up) skips the pipeline and the journal
    /// (`coalesced_noop`). `coalesce.*` telemetry is registered on
    /// first use only.
    pub fn apply_coalesced(&mut self, burst: &[ChangeSet]) -> Result<ChangeReport, Error> {
        let (folded, cancelled) = ChangeSet::coalesce(burst);
        let delta = self.candidate(&folded)?;
        self.telemetry.counter("coalesce.batches").incr();
        self.telemetry.counter("coalesce.changes").add(burst.len() as u64);
        self.telemetry.histogram("coalesce.batch_size").record(burst.len() as u64);
        if cancelled > 0 {
            self.telemetry.counter("coalesce.cancelled_ops").add(cancelled as u64);
        }
        let mut report = if delta.is_empty() {
            self.telemetry.counter("coalesce.noop_batches").incr();
            ChangeReport {
                coalesced_noop: true,
                metrics: self.telemetry.snapshot(),
                ..Default::default()
            }
        } else {
            self.apply_delta(delta)?
        };
        report.coalesced_changes = burst.len();
        report.cancelled_ops = cancelled;
        Ok(report)
    }

    /// What `cs` changes — the candidate of both change front-ends.
    /// Every operation edits one existing device, so only those are
    /// cloned and edited; the ones that end up different are upserts.
    fn candidate(&mut self, cs: &ChangeSet) -> Result<ConfigDelta, Error> {
        self.ensure_usable()?;
        let mut edited = BTreeMap::new();
        for (name, cfg) in cs.ops.iter().filter_map(|op| self.configs.get_key_value(op.device())) {
            edited.entry(name.clone()).or_insert_with(|| cfg.clone());
        }
        if let Err(e) = cs.apply(&mut edited) {
            // Nothing ran: a pure rollback (the cheapest kind).
            self.telemetry.counter("verifier.rollbacks").incr();
            return Err(Error::Change(e));
        }
        edited.retain(|name, cfg| self.configs[name] != *cfg);
        Ok(ConfigDelta { upserts: edited.into_iter().collect(), removes: vec![] })
    }

    /// Entry gate of every apply: a poisoned verifier refuses
    /// ([`OnFailure::Poison`]) or heals first ([`OnFailure::Rebuild`]).
    fn ensure_usable(&mut self) -> Result<(), Error> {
        match (self.poisoned, self.opts.on_failure) {
            (false, _) => Ok(()),
            (true, OnFailure::Poison) => Err(Error::Poisoned),
            (true, OnFailure::Rebuild) => self.rebuild().map(drop),
        }
    }

    /// Verify a transition to an arbitrary new configuration set
    /// incrementally — e.g., files an operator edited by hand. Devices
    /// may be added or removed; whatever differs is derived from the
    /// fact delta. This is the verifier's only transaction;
    /// [`RealConfig::apply_change`] and [`RealConfig::apply_coalesced`]
    /// are front-ends that compute the new configuration set.
    ///
    /// # Transaction contract
    ///
    /// Configurations, facts and warnings are committed only after all
    /// three stages succeed, and a failed apply — an `Err` from a stage
    /// or a contained panic — puts the policy verdicts back, so those
    /// four stay at the last good set. Nothing else is rolled back: the
    /// stages mutate the incremental engines as they go, so a failure
    /// poisons the verifier (see [`Error`]) and the only way out is a
    /// rebuild, which replaces every stage wholesale. What happens next
    /// is [`VerifierOptions::on_failure`].
    ///
    /// Lowering the changed devices interns names into the shared
    /// registry before anything can fail: the registry is append-only
    /// (existing ids never change meaning), so a failed change can at
    /// worst leave unused names interned — benign, and invisible
    /// through every accessor.
    pub fn apply_configs(
        &mut self,
        new_configs: BTreeMap<String, DeviceConfig>,
    ) -> Result<ChangeReport, Error> {
        self.ensure_usable()?;
        let delta = ConfigDelta::between(&self.configs, &new_configs);
        self.apply_delta(delta)
    }

    /// The transaction behind every front-end: run the stages on the
    /// delta, then commit it or apply the failure policy.
    fn apply_delta(&mut self, delta: ConfigDelta) -> Result<ChangeReport, Error> {
        // The one piece of stage state a rebuild reads back (through
        // `policy_specs`), and callers may read while poisoned.
        let verdicts = self.stages.checker.verdicts();
        let err = match contained(|| self.run_stages(&delta)) {
            Ok(mut report) => {
                // Commit point, begun by the last move of `run_stages`:
                // the changed devices move into the configurations. The
                // journal record is appended only after the in-memory
                // commit — a crash between the two loses at most the
                // change that was never reported as applied.
                let record = self.journaling().then(|| persist::encode_delta(&delta));
                delta.apply_to(&mut self.configs);
                self.journal_append(record);
                debug_assert!(
                    self.stages.lowering.agrees_with(&self.configs, &self.registry),
                    "incremental lowering diverged from a whole-set lower"
                );
                report.metrics = self.telemetry.snapshot();
                return Ok(report);
            }
            Err(e) => e,
        };

        self.stages.checker.restore_verdicts(&verdicts);
        self.poisoned = true;
        self.telemetry.counter("verifier.rollbacks").incr();
        self.telemetry.counter("verifier.poison_events").incr();
        match self.opts.on_failure {
            OnFailure::Poison => Err(err),
            OnFailure::Rebuild => self.verify_from_scratch(delta, err),
        }
    }

    /// The transaction body: all three stages over the current
    /// configurations with `delta` applied. Mutates the stage engines
    /// (the lowering index included) as it goes; once nothing can fail
    /// any more it commits the facts and warnings, and `apply_delta`
    /// commits the configurations they belong to.
    fn run_stages(&mut self, delta: &ConfigDelta) -> Result<ChangeReport, Error> {
        let mut report = ChangeReport::default();
        (report.lines_inserted, report.lines_deleted) = delta.line_counts(&self.configs);

        // Semantic view: the fact delta of the devices the change
        // can affect.
        let s = &mut self.stages;
        let lowered =
            s.lowering.relower(&self.configs, &delta.upserts, &delta.removes, &mut self.registry);
        self.telemetry.histogram("netcfg.relowered_devices").record(lowered.relowered as u64);
        report.warnings = lowered.warnings_added.clone();
        report.fact_changes = lowered.facts.len();

        // Stage 1: incremental data plane generation.
        let t = Instant::now();
        let stats = s.engine.apply(lowered.facts.iter().cloned())?;
        report.dp_gen = t.elapsed();
        report.dp_records = stats.records;

        let touched = build::sync_structure(&mut s.checker, &lowered.facts, s.lowering.nodes());

        // Stage 2: incremental model update.
        let t = Instant::now();
        let mut updates = s.grouper.convert(s.engine.fib_delta());
        let (fins, frem) = s.engine.filter_delta();
        updates.extend(frem.iter().map(|f| RuleUpdate::Remove(filter_rule(f))));
        updates.extend(fins.iter().map(|f| RuleUpdate::Insert(filter_rule(f))));
        report.rules_inserted = updates.iter().filter(|u| u.is_insert()).count();
        report.rules_removed = updates.len() - report.rules_inserted;
        let summary = s.model.apply_batch(updates, self.opts.order);
        report.model_update = t.elapsed();
        report.ec_moves = summary.ec_moves;
        report.ec_splits = summary.ec_splits;
        report.affected_ecs = summary.affected.len();

        // Stage 3: incremental policy checking.
        let t = Instant::now();
        let check = s.checker.check_incremental(&mut s.model, &summary, touched);
        report.policy_check = t.elapsed();
        report.affected_pairs = check.affected_pairs;
        report.changed_pairs = check.changed_pairs;
        report.total_pairs = check.total_pairs;
        report.policies_checked = check.policies_checked;
        report.newly_violated = check.newly_violated.iter().map(|p| p.0).collect();
        report.newly_satisfied = check.newly_satisfied.iter().map(|p| p.0).collect();

        s.lowering.commit(lowered);
        Ok(report)
    }

    /// The [`OnFailure::Rebuild`] fallback: the incremental path failed
    /// with `first`; verify `new_configs` from scratch instead.
    fn verify_from_scratch(
        &mut self,
        delta: ConfigDelta,
        first: Error,
    ) -> Result<ChangeReport, Error> {
        let mut report = ChangeReport { recovered: true, ..Default::default() };
        (report.lines_inserted, report.lines_deleted) = delta.line_counts(&self.configs);
        let old_facts = self.facts().clone();
        let old_warnings = self.warnings().clone();
        let mut new_configs = self.configs.clone();
        delta.apply_to(&mut new_configs);
        match contained(|| self.rebuild_from(new_configs)) {
            Ok((full, check)) => {
                self.telemetry.counter("verifier.recoveries").incr();
                report.fact_changes = fact_delta(&old_facts, self.facts()).len();
                report.dp_gen = full.dp_gen;
                report.dp_records = full.dp_records;
                report.model_update = full.model_update;
                report.policy_check = full.policy_check;
                report.total_pairs = check.total_pairs;
                report.policies_checked = check.policies_checked;
                report.newly_violated = check.newly_violated.iter().map(|p| p.0).collect();
                report.newly_satisfied = check.newly_satisfied.iter().map(|p| p.0).collect();
                report.warnings = self.warnings().difference(&old_warnings).cloned().collect();
                report.metrics = self.telemetry.snapshot();
                Ok(report)
            }
            // The new configurations do not verify even from scratch.
            // Heal back to the last good set and surface the
            // incremental failure.
            Err(_) => {
                let _ = self.rebuild();
                Err(first)
            }
        }
    }

    /// Whether the verifier is poisoned and must be rebuilt before it
    /// can verify further changes (see [`Error`]).
    pub fn needs_rebuild(&self) -> bool {
        self.poisoned
    }

    /// Rebuild the whole incremental pipeline from the last good
    /// configurations — the recovery path after [`Error::Divergence`]
    /// or [`Error::Internal`]. Registered policies and their
    /// satisfaction history are preserved, so verdict deltas of
    /// subsequent changes remain correct. On success the verifier is
    /// un-poisoned and exactly equivalent to a fresh
    /// [`RealConfig::with_options`] over the same configurations and
    /// options.
    pub fn rebuild(&mut self) -> Result<FullReport, Error> {
        let configs = self.configs.clone();
        contained(|| self.rebuild_from(configs)).map(|(report, _)| report)
    }

    /// Build a fresh pipeline over `configs` and commit it wholesale.
    /// Nothing is committed on failure: the verifier keeps its previous
    /// (possibly poisoned) state.
    fn rebuild_from(
        &mut self,
        configs: BTreeMap<String, DeviceConfig>,
    ) -> Result<(FullReport, rc_policy::CheckReport), Error> {
        let t0 = Instant::now();
        let policies = self.stages.checker.policy_specs();
        let (mut stages, mut report, check) =
            Stages::build(&configs, &mut self.registry, &self.opts, &self.telemetry, &policies)?;
        self.stages.lowering.notes().iter().for_each(|w| stages.lowering.note(w.clone()));

        let configs_changed = self.configs != configs;
        self.stages = stages;
        self.configs = configs;
        self.poisoned = false;
        if configs_changed {
            // These configs never went through the journaled apply
            // path; the on-disk journal no longer extends to the
            // current state. Re-base persistence on a fresh snapshot.
            self.rebase_journal_after_rebuild();
        }
        self.telemetry.counter("verifier.rebuilds").incr();
        self.telemetry
            .histogram("verifier.rebuild_us")
            .record(t0.elapsed().as_micros() as u64);
        report.metrics = self.telemetry.snapshot();
        Ok((report, check))
    }

    /// Register a policy (by device ids; see [`RealConfig::node`]).
    pub fn add_policy(&mut self, policy: Policy) -> PolicyId {
        self.stages.checker.add_policy(&mut self.stages.model, policy)
    }

    /// Registered policies with their current verdicts, in id order
    /// (`PolicyId(i)` is entry `i`). Lets callers that may hold a
    /// snapshot-restored verifier discover what is already registered
    /// instead of re-adding duplicates.
    pub fn policy_specs(&self) -> Vec<(Policy, bool)> {
        self.stages.checker.policy_specs()
    }

    /// Convenience: "packets from `src` to `dst_prefix` must reach
    /// `dst`".
    pub fn require_reachability(
        &mut self,
        src: &str,
        dst: &str,
        dst_prefix: Prefix,
    ) -> Option<PolicyId> {
        let src = self.node(src)?;
        let dst = self.node(dst)?;
        Some(self.add_policy(Policy::Reachability {
            src,
            dst,
            class: PacketClass::DstPrefix(dst_prefix),
        }))
    }

    /// Re-evaluate all policies from scratch (e.g., after registering
    /// policies post-construction).
    pub fn recheck_policies(&mut self) -> rc_policy::CheckReport {
        self.stages.checker.check_full(&mut self.stages.model)
    }

    /// Device id for a hostname.
    pub fn node(&self, name: &str) -> Option<NodeId> {
        self.registry.try_node(name)
    }

    /// Hostname for a device id.
    pub fn node_name(&self, id: NodeId) -> &str {
        self.registry.node_name(id)
    }

    /// Current configurations.
    pub fn configs(&self) -> &BTreeMap<String, DeviceConfig> {
        &self.configs
    }

    /// Current complete FIB (per-ECMP-leg entries).
    pub fn fib(&self) -> BTreeSet<FibEntry> {
        self.stages.engine.fib()
    }

    /// Current grouped FIB rule count (the "#Rules" denominator of
    /// Table 3).
    pub fn num_rules(&self) -> usize {
        self.stages.model.num_rules()
    }

    /// ECs currently in the data plane model.
    pub fn num_ecs(&self) -> usize {
        self.stages.model.num_ecs()
    }

    /// (src, dst) pairs with deliverable traffic (Table 3's "#Pairs"
    /// denominator).
    pub fn num_pairs(&self) -> usize {
        self.stages.checker.num_pairs()
    }

    /// Whether any EC currently delivers traffic from `src` to `dst`.
    pub fn pair_reachable(&self, src: NodeId, dst: NodeId) -> bool {
        self.stages.checker.reachable(src, dst)
    }

    /// Whether a policy currently holds.
    pub fn is_satisfied(&self, id: PolicyId) -> bool {
        self.stages.checker.is_satisfied(id)
    }

    /// Current input fact set (for external oracles).
    pub fn facts(&self) -> &BTreeSet<Fact> {
        self.stages.lowering.facts()
    }

    /// Current lowering warnings (formatted, deduplicated), and any
    /// persistence warning not yet cleared by a successful
    /// [`RealConfig::save_snapshot`].
    pub fn warnings(&self) -> &BTreeSet<String> {
        self.stages.lowering.warnings()
    }

    /// Interface name for an interned id.
    pub fn iface_name(&self, id: rc_netcfg::types::IfaceId) -> &str {
        self.registry.iface_name(id)
    }

    /// The verifier's shared metric registry. Counters are cumulative
    /// since construction; gauges track current state.
    pub fn telemetry(&self) -> &rc_telemetry::Telemetry {
        &self.telemetry
    }

    /// Snapshot every registered metric across all three pipeline
    /// stages.
    pub fn metrics_snapshot(&self) -> rc_telemetry::MetricsSnapshot {
        self.telemetry.snapshot()
    }

    pub(crate) fn model(&self) -> &ApkModel {
        &self.stages.model
    }

    pub(crate) fn checker(&self) -> &PolicyChecker {
        &self.stages.checker
    }

    /// Grouped FIB rules currently installed (one per (device, prefix),
    /// ECMP folded into one logical rule).
    pub fn num_fib_rules(&self) -> usize {
        self.stages.grouper.len()
    }

    /// Records currently retained in the dataflow engine's trace
    /// spines (base + recent layers).
    pub fn trace_records(&self) -> usize {
        self.stages.engine.trace_records()
    }

    /// Fold all of the incremental engine's history now. Not needed
    /// for speed, correctness or bounded memory — every apply folds the
    /// history of the keys it touches, and a trace that has doubled
    /// folds itself whole — it returns the traces to a fresh build's
    /// size without waiting for that.
    pub fn compact(&mut self) {
        self.stages.engine.compact();
    }

    /// The options this verifier was built (or restored) with.
    pub fn options(&self) -> &VerifierOptions {
        &self.opts
    }
}

/// Compute the full data plane from scratch with the custom-algorithm
/// baseline (the "Batfish" column of Table 2).
pub fn full_dataplane_baseline(
    configs: &BTreeMap<String, DeviceConfig>,
) -> Result<(std::time::Duration, usize), rc_routing::baseline::BaselineDivergence> {
    let mut reg = Registry::new();
    let lowered = lower(configs, &mut reg);
    let t = Instant::now();
    let dp = rc_routing::baseline::compute(&lowered.facts)?;
    Ok((t.elapsed(), dp.fib.len()))
}

/// Compute the full data plane from scratch with the general-purpose
/// incremental engine (the "RealConfig Full" column of Table 2).
pub fn full_dataplane_realconfig(
    configs: &BTreeMap<String, DeviceConfig>,
) -> Result<(std::time::Duration, usize), Error> {
    let dp = DataPlane::build(
        configs,
        &mut Registry::new(),
        &VerifierOptions::default(),
        &rc_telemetry::Telemetry::new(),
    )?;
    Ok((dp.dp_gen, dp.engine.fib().len()))
}
