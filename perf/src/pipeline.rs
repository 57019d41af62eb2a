//! `LayerPipeline`: the verifier's apply path re-assembled on the
//! benchmark's side from each layer's public functions, in the order
//! `RealConfig`'s transaction body calls them, with a span around every
//! call. It is what the traced run drives; the untraced run drives
//! `RealConfig` itself, and the two must agree on every output.
//!
//! What it leaves out is what `core` adds on top of the raw layer
//! calls — rollback snapshots, panic containment, report building and
//! journal-record diffing — which is exactly what `core.overhead_ms`
//! (untraced wall − traced wall) measures.

use std::collections::{BTreeMap, BTreeSet};

use rc_apkeep::{ApkModel, ElementKey, ModelRule, PortAction, RuleMatch, RuleUpdate, UpdateOrder};
use rc_netcfg::facts::{fact_delta, lower, Fact, Registry};
use rc_netcfg::linediff::diff_lines;
use rc_netcfg::printer::print_config;
use rc_netcfg::types::{NodeId, Port, Prefix};
use rc_netcfg::{ChangeSet, DeviceConfig};
use rc_policy::PolicyChecker;
use rc_routing::engine::RoutingEngine;
use rc_routing::route::{FibAction, FibDelta, FibEntry, FilterRule};
use rc_store::{Journal, Writer};
use rc_telemetry::Telemetry;
use realconfig::{ChangeReport, PredKind, RealConfig, DEFAULT_AUTO_COMPACT};

use crate::spans::Tracer;
use crate::workloads::{Op, PolicySpec};

/// The per-operation outputs both paths must agree on, operation by
/// operation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpKey {
    pub rules_inserted: usize,
    pub rules_removed: usize,
    pub affected_ecs: usize,
    pub affected_pairs: usize,
    pub newly_violated: usize,
    pub newly_satisfied: usize,
}

impl OpKey {
    pub fn of(report: &ChangeReport) -> OpKey {
        OpKey {
            rules_inserted: report.rules_inserted,
            rules_removed: report.rules_removed,
            affected_ecs: report.affected_ecs,
            affected_pairs: report.affected_pairs,
            newly_violated: report.newly_violated.len(),
            newly_satisfied: report.newly_satisfied.len(),
        }
    }
}

/// FNV-1a over the per-operation key sequence.
pub fn hash_keys<'a>(keys: impl IntoIterator<Item = &'a OpKey>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for k in keys {
        for v in [
            k.rules_inserted,
            k.rules_removed,
            k.affected_ecs,
            k.affected_pairs,
            k.newly_violated,
            k.newly_satisfied,
        ] {
            for b in (v as u64).to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

/// Counts taken at the layer boundaries of one operation, from the
/// values the layers return.
#[derive(Clone, Copy, Debug, Default)]
pub struct OpCounts {
    pub key: OpKey,
    pub fact_changes: usize,
    pub dp_records: u64,
    pub fib_changes: usize,
    pub filter_changes: usize,
    pub rules_applied: usize,
    pub ec_moves: usize,
    pub ec_splits: usize,
    pub policy_affected_ecs: usize,
    pub changed_pairs: usize,
    pub policies_checked: usize,
    pub cancelled_ops: usize,
    pub noop_window: bool,
    pub compacted: bool,
}

/// The externally observable end state both paths (and a from-scratch
/// build) must agree on.
#[derive(Debug, PartialEq, Eq)]
pub struct Observed {
    pub fib: BTreeSet<FibEntry>,
    pub rules: usize,
    pub pairs: usize,
    pub verdicts: Vec<bool>,
}

impl Observed {
    pub fn of(rc: &RealConfig) -> Observed {
        Observed {
            fib: rc.fib(),
            rules: rc.num_rules(),
            pairs: rc.num_pairs(),
            verdicts: rc.policy_specs().into_iter().map(|(_, ok)| ok).collect(),
        }
    }

    /// One line per differing output, empty when equal.
    pub fn diff(&self, other: &Observed, what: &str) -> Vec<String> {
        let mut out = Vec::new();
        if self.fib != other.fib {
            out.push(format!(
                "{what}: FIB differs ({} vs {} entries)",
                self.fib.len(),
                other.fib.len()
            ));
        }
        if self.rules != other.rules {
            out.push(format!("{what}: rules {} vs {}", self.rules, other.rules));
        }
        if self.pairs != other.pairs {
            out.push(format!("{what}: pairs {} vs {}", self.pairs, other.pairs));
        }
        if self.verdicts != other.verdicts {
            out.push(format!("{what}: policy verdicts differ"));
        }
        out
    }
}

/// Bench-side copy of `realconfig::convert::FibGrouper` (`pub(crate)`
/// there): folds per-ECMP-leg FIB deltas into one logical rule per
/// `(node, prefix)`. A stated limit of the traced run — if the original
/// changes, the equivalence test against `RealConfig` fails until this
/// copy follows.
#[derive(Default)]
struct FibGrouper {
    current: BTreeMap<(NodeId, Prefix), PortAction>,
}

impl FibGrouper {
    fn convert(&mut self, delta: &FibDelta) -> Vec<RuleUpdate> {
        let mut touched: BTreeMap<(NodeId, Prefix), (Vec<FibAction>, Vec<FibAction>)> =
            BTreeMap::new();
        for e in &delta.inserted {
            touched.entry((e.node, e.prefix)).or_default().0.push(e.action);
        }
        for e in &delta.removed {
            touched.entry((e.node, e.prefix)).or_default().1.push(e.action);
        }
        let mut updates = Vec::new();
        for ((node, prefix), (ins, rem)) in touched {
            let old = self.current.get(&(node, prefix)).cloned();
            let new = Self::regroup(old.as_ref(), &ins, &rem);
            if old == new {
                continue;
            }
            let mk = |action: PortAction| ModelRule {
                element: ElementKey::Forward(node),
                priority: prefix.len() as u32,
                rule_match: RuleMatch::DstPrefix(prefix),
                action,
            };
            if let Some(o) = old {
                updates.push(RuleUpdate::Remove(mk(o)));
                self.current.remove(&(node, prefix));
            }
            if let Some(n) = new {
                updates.push(RuleUpdate::Insert(mk(n.clone())));
                self.current.insert((node, prefix), n);
            }
        }
        updates
    }

    fn regroup(
        old: Option<&PortAction>,
        ins: &[FibAction],
        rem: &[FibAction],
    ) -> Option<PortAction> {
        let (mut fwd, mut local): (Vec<_>, Vec<_>) = match old {
            Some(PortAction::Forward(v)) => (v.clone(), Vec::new()),
            Some(PortAction::Deliver(v)) => (Vec::new(), v.clone()),
            Some(PortAction::Drop) | None => (Vec::new(), Vec::new()),
            Some(other) => unreachable!("filter action {other:?} in the FIB"),
        };
        let mut drop = matches!(old, Some(PortAction::Drop));
        for a in rem {
            match a {
                FibAction::Forward(i) => fwd.retain(|x| x != i),
                FibAction::Local(i) => local.retain(|x| x != i),
                FibAction::Drop => drop = false,
            }
        }
        for a in ins {
            match a {
                FibAction::Forward(i) if !fwd.contains(i) => fwd.push(*i),
                FibAction::Local(i) if !local.contains(i) => local.push(*i),
                FibAction::Drop => drop = true,
                _ => {}
            }
        }
        if drop {
            Some(PortAction::Drop)
        } else if !local.is_empty() {
            Some(PortAction::deliver(local))
        } else if !fwd.is_empty() {
            Some(PortAction::forward(fwd))
        } else {
            None
        }
    }
}

/// Bench-side copy of `realconfig::convert::filter_rule`.
fn filter_rule(f: &FilterRule) -> ModelRule {
    ModelRule {
        element: ElementKey::Filter(f.node, f.iface, f.dir),
        priority: u32::MAX - f.seq,
        rule_match: RuleMatch::Acl {
            proto: f.proto,
            src: f.src,
            dst: f.dst,
            dst_ports: f.dst_ports,
        },
        action: if f.permit { PortAction::Permit } else { PortAction::Deny },
    }
}

pub struct LayerPipeline {
    configs: BTreeMap<String, DeviceConfig>,
    registry: Registry,
    facts: BTreeSet<Fact>,
    engine: RoutingEngine,
    model: ApkModel,
    checker: PolicyChecker,
    grouper: FibGrouper,
    devices: BTreeSet<NodeId>,
    telemetry: Telemetry,
    changes_since_compact: u32,
    pub tracer: Tracer,
}

impl LayerPipeline {
    /// Full verification of `configs`, as `RealConfig::new` does it.
    pub fn build(configs: BTreeMap<String, DeviceConfig>) -> Result<LayerPipeline, String> {
        let telemetry = Telemetry::new();
        let mut p = LayerPipeline {
            configs: BTreeMap::new(),
            registry: Registry::new(),
            facts: BTreeSet::new(),
            engine: RoutingEngine::new(),
            model: ApkModel::with_backend(PredKind::Bdd),
            checker: PolicyChecker::new(),
            grouper: FibGrouper::default(),
            devices: BTreeSet::new(),
            telemetry: telemetry.clone(),
            changes_since_compact: 0,
            tracer: Tracer::new(),
        };
        p.engine.set_telemetry(telemetry.clone());
        p.model.set_telemetry(&telemetry);
        p.checker.set_telemetry(&telemetry);

        let s = p.tracer.enter("netcfg.lower");
        let lowered = lower(&configs, &mut p.registry);
        p.tracer.exit(s);

        let s = p.tracer.enter("routing.full_build");
        let built = p.engine.apply(lowered.facts.iter().map(|f| (f.clone(), 1)));
        p.tracer.exit(s);
        built.map_err(|e| format!("full build diverged: {e}"))?;

        p.facts = lowered.facts;
        p.configs = configs;
        let all: Vec<(Fact, isize)> = p.facts.iter().cloned().map(|f| (f, 1)).collect();
        p.sync_structure(&all);

        let s = p.tracer.enter("core.fib_group");
        let updates = p.rule_updates();
        p.tracer.exit(s);

        let s = p.tracer.enter("apkeep.full_build");
        p.model.apply_batch(updates, UpdateOrder::InsertFirst);
        p.tracer.exit(s);

        p.checker.check_full(&mut p.model);
        Ok(p)
    }

    /// Register the policy set and evaluate it from scratch — twice, on
    /// one worker and then on the pinned pool, so the set-up metrics
    /// carry the serial and the parallel cost of the same call.
    pub fn register_policies(&mut self, policies: &[PolicySpec]) {
        for spec in policies {
            let registry = &self.registry;
            let policy = spec
                .resolve(|name| registry.try_node(name).expect("policy names a generated device"));
            self.checker.add_policy(&mut self.model, policy);
        }
        self.checker.set_threads(Some(1));
        let s = self.tracer.enter("policy.check_full");
        self.checker.check_full(&mut self.model);
        self.tracer.exit(s);
        self.checker.set_threads(None);
        let s = self.tracer.enter("par.check_full_t2");
        self.checker.check_full(&mut self.model);
        self.tracer.exit(s);
    }

    /// Device set and link map from a fact delta; returns the ECs the
    /// link changes invalidate.
    fn sync_structure(&mut self, delta: &[(Fact, isize)]) -> BTreeSet<rc_apkeep::EcId> {
        let mut link_delta: Vec<(Port, Port, isize)> = Vec::new();
        let mut devices_changed = false;
        for (f, r) in delta {
            match f {
                Fact::Link { src, dst } => link_delta.push((*src, *dst, *r)),
                Fact::Device(n) => {
                    devices_changed = true;
                    if *r > 0 {
                        self.devices.insert(*n);
                    } else {
                        self.devices.remove(n);
                    }
                }
                _ => {}
            }
        }
        if devices_changed {
            self.checker.set_nodes(self.devices.iter().copied());
        }
        self.checker.apply_link_delta(&link_delta)
    }

    /// Rule updates for the engine's last FIB and filter deltas (the
    /// full build removes nothing, so one shape serves both).
    fn rule_updates(&mut self) -> Vec<RuleUpdate> {
        let mut updates = self.grouper.convert(self.engine.fib_delta());
        let (fins, frem) = self.engine.filter_delta();
        updates.extend(frem.iter().map(|f| RuleUpdate::Remove(filter_rule(f))));
        updates.extend(fins.iter().map(|f| RuleUpdate::Insert(filter_rule(f))));
        updates
    }

    /// One operation, as `apply_change` / `apply_coalesced` run it.
    /// Spans of the operation nest under one `op` span carrying `op_id`.
    /// With a `journal` sink, the committed operation also appends the
    /// given record — the bytes `RealConfig` journaled for the same
    /// operation — as the durable apply path does after its commit.
    pub fn apply(
        &mut self,
        op: &Op,
        op_id: u32,
        journal: Option<(&Journal, &[u8])>,
    ) -> Result<OpCounts, String> {
        self.tracer.set_op(op_id);
        let root = self.tracer.enter("op");
        let result = self.apply_inner(op, journal);
        self.tracer.exit(root);
        result
    }

    fn apply_inner(
        &mut self,
        op: &Op,
        journal: Option<(&Journal, &[u8])>,
    ) -> Result<OpCounts, String> {
        let mut counts = OpCounts::default();
        let folded;
        let change: &ChangeSet = match op {
            Op::Change(cs) => cs,
            Op::Window(burst) => {
                let s = self.tracer.enter("netcfg.coalesce");
                let (set, cancelled) = ChangeSet::coalesce(burst);
                self.tracer.exit(s);
                counts.cancelled_ops = cancelled;
                folded = set;
                &folded
            }
        };

        let s = self.tracer.enter("core.configs_clone");
        let mut new_configs = self.configs.clone();
        self.tracer.exit(s);

        let s = self.tracer.enter("netcfg.change_apply");
        let applied = change.apply(&mut new_configs);
        self.tracer.exit(s);
        applied.map_err(|e| e.to_string())?;

        if matches!(op, Op::Window(_)) && new_configs == self.configs {
            counts.noop_window = true;
            return Ok(counts);
        }

        let s = self.tracer.enter("netcfg.print_diff");
        for (name, new_cfg) in &new_configs {
            let old_text = self.configs.get(name).map(print_config).unwrap_or_default();
            let new_text = print_config(new_cfg);
            if old_text != new_text {
                std::hint::black_box(diff_lines(&old_text, &new_text));
            }
        }
        self.tracer.exit(s);

        let s = self.tracer.enter("netcfg.lower");
        let lowered = lower(&new_configs, &mut self.registry);
        self.tracer.exit(s);

        let s = self.tracer.enter("netcfg.fact_delta");
        let delta = fact_delta(&self.facts, &lowered.facts);
        self.tracer.exit(s);
        counts.fact_changes = delta.len();

        let s = self.tracer.enter("routing.apply");
        let stats = self.engine.apply(delta.iter().cloned());
        self.tracer.exit(s);
        let stats = stats.map_err(|e| format!("control plane diverged: {e}"))?;
        counts.dp_records = stats.records;
        counts.fib_changes = stats.fib_changes;
        counts.filter_changes = stats.filter_changes;

        let s = self.tracer.enter("policy.link_delta");
        let touched = self.sync_structure(&delta);
        self.tracer.exit(s);

        let s = self.tracer.enter("core.fib_group");
        let updates = self.rule_updates();
        self.tracer.exit(s);
        counts.key.rules_inserted = updates.iter().filter(|u| u.is_insert()).count();
        counts.key.rules_removed = updates.len() - counts.key.rules_inserted;

        let s = self.tracer.enter("apkeep.batch");
        let summary = self.model.apply_batch(updates, UpdateOrder::InsertFirst);
        self.tracer.exit(s);
        counts.rules_applied = summary.rules_applied;
        counts.ec_moves = summary.ec_moves;
        counts.ec_splits = summary.ec_splits;
        counts.key.affected_ecs = summary.affected.len();

        let s = self.tracer.enter("policy.check");
        let check = self.checker.check_incremental(&mut self.model, &summary, touched);
        self.tracer.exit(s);
        counts.policy_affected_ecs = check.affected_ecs;
        counts.key.affected_pairs = check.affected_pairs;
        counts.changed_pairs = check.changed_pairs;
        counts.policies_checked = check.policies_checked;
        counts.key.newly_violated = check.newly_violated.len();
        counts.key.newly_satisfied = check.newly_satisfied.len();

        self.changes_since_compact += 1;
        if self.changes_since_compact >= DEFAULT_AUTO_COMPACT {
            let s = self.tracer.enter("dataflow.compact");
            self.engine.compact();
            self.tracer.exit(s);
            self.changes_since_compact = 0;
            counts.compacted = true;
        }

        self.configs = new_configs;
        self.facts = lowered.facts;
        if let Some((journal, record)) = journal {
            let s = self.tracer.enter("store.journal_append");
            let appended = journal.append(record);
            self.tracer.exit(s);
            appended.map_err(|e| format!("journal append: {e}"))?;
        }

        let s = self.tracer.enter("telemetry.snapshot");
        std::hint::black_box(self.telemetry.snapshot());
        self.tracer.exit(s);
        Ok(counts)
    }

    pub fn observed(&self) -> Observed {
        Observed {
            fib: self.engine.fib(),
            rules: self.model.num_rules(),
            pairs: self.checker.num_pairs(),
            verdicts: self.checker.verdicts(),
        }
    }

    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    pub fn num_ecs(&self) -> usize {
        self.model.num_ecs()
    }

    pub fn num_facts(&self) -> usize {
        self.facts.len()
    }

    pub fn trace_records(&self) -> usize {
        self.engine.trace_records()
    }

    /// The five snapshot sections `RealConfig::save_snapshot` writes,
    /// serialized from this pipeline's own state through the same public
    /// encoders.
    pub fn snapshot_sections(&self) -> Vec<(u32, Vec<u8>)> {
        let mut meta = Writer::new();
        meta.u8(0); // insert-first
        meta.u8(0); // EC index enabled
        meta.u8(1);
        meta.u32(DEFAULT_AUTO_COMPACT);

        let mut reg = Writer::new();
        let (node_names, iface_names) = self.registry.export_names();
        for names in [&node_names, &iface_names] {
            reg.len_prefix(names.len());
            for n in names {
                reg.str(n);
            }
        }

        let mut cfgs = Writer::new();
        cfgs.len_prefix(self.configs.len());
        for (name, cfg) in &self.configs {
            cfgs.str(name);
            cfgs.str(&print_config(cfg));
        }

        let mut model = Writer::new();
        self.model.encode_state(&mut model);
        let mut checker = Writer::new();
        self.checker.encode_state(&mut checker);

        vec![
            (1, meta.finish()),
            (2, reg.finish()),
            (3, cfgs.finish()),
            (4, model.finish()),
            (5, checker.finish()),
        ]
    }
}
