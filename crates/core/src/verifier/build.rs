//! The one full build: configurations in, a wired three-stage pipeline
//! out ([`Stages::build`]). Construction, rebuilds and snapshot restore
//! all run the whole of it; `full_dataplane_realconfig` runs its first
//! half, [`DataPlane::build`].

use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

use rc_apkeep::{ApkModel, EcId, RuleUpdate};
use rc_netcfg::facts::{Fact, Lowering, Registry};
use rc_netcfg::types::{NodeId, Port};
use rc_netcfg::DeviceConfig;
use rc_policy::{CheckReport, Policy, PolicyChecker};
use rc_routing::engine::RoutingEngine;
use rc_telemetry::Telemetry;

use super::{Error, VerifierOptions};
use crate::convert::{filter_rule, FibGrouper};
use crate::report::FullReport;

/// Stage 1 from scratch: the lowered inputs, a routing engine that has
/// evaluated them, and the resulting data plane as grouped rules.
pub(super) struct DataPlane {
    pub engine: RoutingEngine,
    pub grouper: FibGrouper,
    pub lowering: Lowering,
    /// Every data plane rule (grouped FIB + filters), as inserts.
    pub rules: Vec<RuleUpdate>,
    pub dp_gen: Duration,
    pub dp_records: u64,
}

impl DataPlane {
    pub fn build(
        configs: &BTreeMap<String, DeviceConfig>,
        registry: &mut Registry,
        telemetry: &Telemetry,
    ) -> Result<Self, Error> {
        let lowering = Lowering::new(configs, registry);
        let mut engine = RoutingEngine::new();
        engine.set_telemetry(telemetry.clone());
        let t = Instant::now();
        let stats = engine.apply(lowering.facts().iter().map(|f| (f.clone(), 1)))?;
        let dp_gen = t.elapsed();

        let mut grouper = FibGrouper::default();
        let mut rules = grouper.convert(engine.fib_delta());
        let (filters, _) = engine.filter_delta();
        rules.extend(filters.iter().map(|f| RuleUpdate::Insert(filter_rule(f))));
        Ok(DataPlane {
            engine,
            grouper,
            lowering,
            rules,
            dp_gen,
            dp_records: stats.records,
        })
    }
}

/// The incremental pipeline's state: the lowering index and the three
/// stage engines it feeds. Replaced wholesale by a rebuild.
pub(super) struct Stages {
    pub lowering: Lowering,
    pub engine: RoutingEngine,
    pub grouper: FibGrouper,
    pub model: ApkModel,
    pub checker: PolicyChecker,
}

impl Stages {
    /// Build all three stages over `configs` and run the full
    /// verification. `prior_policies` are re-registered in id order
    /// with their last-seen verdicts, so the returned check reports
    /// newly-violated / newly-satisfied relative to what the caller
    /// last saw (empty for a first build).
    pub fn build(
        configs: &BTreeMap<String, DeviceConfig>,
        registry: &mut Registry,
        opts: &VerifierOptions,
        telemetry: &Telemetry,
        prior_policies: &[(Policy, bool)],
    ) -> Result<(Self, FullReport, CheckReport), Error> {
        let mut dp = DataPlane::build(configs, registry, telemetry)?;
        let rules = std::mem::take(&mut dp.rules);
        let mut report = FullReport {
            dp_gen: dp.dp_gen,
            dp_records: dp.dp_records,
            warnings: dp.lowering.warnings().iter().cloned().collect(),
            ..Default::default()
        };
        let mut s = Stages {
            lowering: dp.lowering,
            engine: dp.engine,
            grouper: dp.grouper,
            model: ApkModel::new(),
            checker: PolicyChecker::new(),
        };
        s.model.set_telemetry(telemetry);
        s.checker.set_telemetry(telemetry);
        s.checker.set_threads(opts.threads);
        let all_facts: Vec<(Fact, isize)> =
            s.lowering.facts().iter().map(|f| (f.clone(), 1)).collect();
        sync_structure(&mut s.checker, &all_facts, s.lowering.nodes());

        let t = Instant::now();
        s.model.apply_batch(rules, opts.order);
        report.model_update = t.elapsed();
        report.fib_entries = s.engine.fib().len();
        report.rules = s.model.num_rules();
        report.ecs = s.model.num_ecs();

        for (policy, _) in prior_policies {
            s.checker.add_policy(&mut s.model, policy.clone());
        }
        let verdicts: Vec<bool> = prior_policies.iter().map(|&(_, ok)| ok).collect();
        s.checker.restore_verdicts(&verdicts);
        let t = Instant::now();
        let check = s.checker.check_full(&mut s.model);
        report.policy_check = t.elapsed();
        report.pairs = check.total_pairs;
        report.violated = check.newly_violated.iter().map(|p| p.0).collect();
        Ok((s, report, check))
    }
}

/// Update the checker's device set and link map from a fact delta that
/// leads to the device set `nodes`; returns the ECs invalidated by
/// device and link changes.
pub(super) fn sync_structure(
    checker: &mut PolicyChecker,
    delta: &[(Fact, isize)],
    nodes: impl Iterator<Item = NodeId>,
) -> BTreeSet<EcId> {
    let mut link_delta: Vec<(Port, Port, isize)> = Vec::new();
    let mut devices_changed = false;
    for (f, r) in delta {
        match f {
            Fact::Link { src, dst } => link_delta.push((*src, *dst, *r)),
            Fact::Device(_) => devices_changed = true,
            _ => {}
        }
    }
    let mut touched = BTreeSet::new();
    if devices_changed {
        touched = checker.set_nodes(nodes);
    }
    touched.extend(checker.apply_link_delta(&link_delta));
    touched
}
