//! Ablations of RealConfig's design decisions (DESIGN.md):
//!
//! * **batch vs per-rule checking** — the paper's §4.2 point: realtime
//!   data plane verifiers check policies after *every* rule update; the
//!   batch-mode extension updates the model for the whole batch and
//!   checks once. Per-rule checking pays the policy-analysis cost per
//!   rule and also observes transient states nobody asked about.
//! * **incremental vs full policy checking** — re-analyze only affected
//!   ECs vs rebuild the whole pair map.
//! * **the model update** — the rule batches of one k=8 OSPF link flip
//!   through APKeep alone, where a rule pays only for the rules its dst
//!   prefix overlaps.
//! * **the policy walk** — a full check of a k=8 OSPF fat tree, and the
//!   incremental passes of one link failing and coming back, where most
//!   ECs are re-walked.
//! * **the routing engine** — one folded maintenance window on a k=6
//!   OSPF fat tree and its inverse, through the dataflow alone: SPF over
//!   routers, prefixes attached outside the fixpoint.
//!
//! Set `BENCH_SMOKE=1` to run a reduced-iteration smoke pass (used by
//! CI to keep the benches compiling and executing without paying for
//! stable numbers).

use std::collections::{BTreeMap, BTreeSet};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rc_apkeep::{ApkModel, ElementKey, ModelRule, PortAction, RuleMatch, RuleUpdate, UpdateOrder};
use rc_netcfg::facts::{fact_delta, lower, Registry};
use rc_netcfg::gen::{build_configs, ProtocolChoice};
use rc_netcfg::topology::fat_tree;
use rc_netcfg::types::{IfaceId, NodeId, Port, Prefix};
use rc_netcfg::{ChangeOp, ChangeSet, Fact};
use rc_policy::PolicyChecker;
use rc_routing::engine::RoutingEngine;

fn smoke() -> bool {
    std::env::var_os("BENCH_SMOKE").is_some()
}

fn samples(normal: usize) -> usize {
    if smoke() {
        2
    } else {
        normal
    }
}

/// The converged FIB of `facts` as grouped model rules, computed by the
/// baseline simulator (bypassing the routing engine so these benches
/// isolate stages 2–3).
fn fib_rules(facts: &BTreeSet<Fact>) -> BTreeSet<ModelRule> {
    let dp = rc_routing::baseline::compute(facts).expect("converges");
    let mut by_group: BTreeMap<(NodeId, Prefix), Vec<rc_routing::route::FibAction>> =
        BTreeMap::new();
    for e in &dp.fib {
        by_group.entry((e.node, e.prefix)).or_default().push(e.action);
    }
    let mut rules = BTreeSet::new();
    for ((node, prefix), actions) in by_group {
        let ifaces: Vec<IfaceId> = actions
            .iter()
            .filter_map(|a| match a {
                rc_routing::route::FibAction::Forward(i)
                | rc_routing::route::FibAction::Local(i) => Some(*i),
                rc_routing::route::FibAction::Drop => None,
            })
            .collect();
        if ifaces.is_empty() {
            continue;
        }
        let local = matches!(actions[0], rc_routing::route::FibAction::Local(_));
        rules.insert(ModelRule {
            element: ElementKey::Forward(node),
            priority: prefix.len() as u32,
            rule_match: RuleMatch::DstPrefix(prefix),
            action: if local {
                PortAction::deliver(ifaces)
            } else {
                PortAction::forward(ifaces)
            },
        });
    }
    rules
}

fn links(facts: &BTreeSet<Fact>) -> BTreeSet<(Port, Port)> {
    facts
        .iter()
        .filter_map(|f| match f {
            Fact::Link { src, dst } => Some((*src, *dst)),
            _ => None,
        })
        .collect()
}

/// A model and a fully checked checker over `facts`' data plane.
fn stage23(facts: &BTreeSet<Fact>) -> (ApkModel, PolicyChecker, Vec<ModelRule>) {
    let rules: Vec<ModelRule> = fib_rules(facts).into_iter().collect();
    let mut model = ApkModel::new();
    model.apply_batch(rules.iter().cloned().map(RuleUpdate::Insert).collect(), UpdateOrder::AsGiven);
    let mut checker = PolicyChecker::new();
    checker.set_nodes(facts.iter().filter_map(|f| match f {
        Fact::Device(n) => Some(*n),
        _ => None,
    }));
    let up: Vec<(Port, Port, isize)> = links(facts).into_iter().map(|(a, b)| (a, b, 1)).collect();
    checker.apply_link_delta(&up);
    checker.check_full(&mut model);
    (model, checker, rules)
}

/// Build a data plane model + checker directly from a k=4 BGP fat
/// tree's converged FIB.
fn build_stage23() -> (ApkModel, PolicyChecker, Vec<ModelRule>) {
    let configs = build_configs(&fat_tree(4), ProtocolChoice::Bgp);
    stage23(&lower(&configs, &mut Registry::new()).facts)
}

/// A realistic batch: flip `n` forwarding rules to drop and back.
fn flip_batches(rules: &[ModelRule], n: usize) -> (Vec<RuleUpdate>, Vec<RuleUpdate>) {
    let victims: Vec<_> = rules.iter().step_by(rules.len() / n.max(1)).take(n).cloned().collect();
    let to_drop = victims
        .iter()
        .flat_map(|r| {
            [
                RuleUpdate::Remove(r.clone()),
                RuleUpdate::Insert(ModelRule { action: PortAction::Drop, ..r.clone() }),
            ]
        })
        .collect();
    let back = victims
        .iter()
        .flat_map(|r| {
            [
                RuleUpdate::Remove(ModelRule { action: PortAction::Drop, ..r.clone() }),
                RuleUpdate::Insert(r.clone()),
            ]
        })
        .collect();
    (to_drop, back)
}

fn batch_vs_per_rule(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/batch-vs-per-rule");
    group.sample_size(samples(20));
    let (mut model, mut checker, rules) = build_stage23();
    let (to_drop, back) = flip_batches(&rules, 12);

    group.bench_function(BenchmarkId::new("update+check", "batch"), |b| {
        b.iter(|| {
            let mut touched = 0;
            for batch in [to_drop.clone(), back.clone()] {
                let summary = model.apply_batch(batch, UpdateOrder::InsertFirst);
                let report =
                    checker.check_incremental(&mut model, &summary, BTreeSet::new());
                touched += report.affected_pairs;
            }
            touched
        })
    });

    group.bench_function(BenchmarkId::new("update+check", "per-rule"), |b| {
        b.iter(|| {
            let mut touched = 0;
            for batch in [to_drop.clone(), back.clone()] {
                for update in batch {
                    // The realtime-verifier discipline: model update and
                    // policy check after every single rule.
                    let summary = model.apply_batch(vec![update], UpdateOrder::InsertFirst);
                    let report =
                        checker.check_incremental(&mut model, &summary, BTreeSet::new());
                    touched += report.affected_pairs;
                }
            }
            touched
        })
    });
    group.finish();
}

fn incremental_vs_full_check(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/policy-check");
    group.sample_size(samples(20));
    let (mut model, mut checker, rules) = build_stage23();
    let (to_drop, back) = flip_batches(&rules, 4);

    group.bench_function("incremental", |b| {
        b.iter(|| {
            let mut pairs = 0;
            for batch in [to_drop.clone(), back.clone()] {
                let summary = model.apply_batch(batch, UpdateOrder::InsertFirst);
                pairs += checker
                    .check_incremental(&mut model, &summary, BTreeSet::new())
                    .affected_pairs;
            }
            pairs
        })
    });

    group.bench_function("full-recheck", |b| {
        b.iter(|| {
            let mut pairs = 0;
            for batch in [to_drop.clone(), back.clone()] {
                let _ = model.apply_batch(batch, UpdateOrder::InsertFirst);
                pairs += checker.check_full(&mut model).total_pairs;
            }
            pairs
        })
    });
    group.finish();
}

/// One way of a link flip: the rule updates and link changes that take
/// the data plane from `from` to `to`.
fn flip(from: &BTreeSet<Fact>, to: &BTreeSet<Fact>) -> (Vec<RuleUpdate>, Vec<(Port, Port, isize)>) {
    let (before, after) = (fib_rules(from), fib_rules(to));
    let mut rules: Vec<RuleUpdate> =
        before.difference(&after).cloned().map(RuleUpdate::Remove).collect();
    rules.extend(after.difference(&before).cloned().map(RuleUpdate::Insert));
    let (before, after) = (links(from), links(to));
    let mut delta: Vec<(Port, Port, isize)> =
        before.difference(&after).map(|&(a, b)| (a, b, -1)).collect();
    delta.extend(after.difference(&before).map(|&(a, b)| (a, b, 1)));
    (rules, delta)
}

/// A k=8 OSPF fat tree's facts, and both ways of one of its links
/// failing and coming back.
type Flip = (Vec<RuleUpdate>, Vec<(Port, Port, isize)>);
fn k8_ospf_link_flip() -> (BTreeSet<Fact>, Flip, Flip) {
    let topo = fat_tree(8);
    let configs = build_configs(&topo, ProtocolChoice::Ospf);
    let mut registry = Registry::new();
    let base = lower(&configs, &mut registry).facts;
    let mut failed = configs.clone();
    let port = &topo.links[0].a;
    ChangeSet::link_failure(&port.device, &port.iface).apply(&mut failed).expect("the port exists");
    let down = lower(&failed, &mut registry).facts;
    let (to_down, to_up) = (flip(&base, &down), flip(&down, &base));
    (base, to_down, to_up)
}

/// The model update alone (Table 3's T1): the two rule batches of one
/// k=8 OSPF link flip, no policy checker.
fn apkeep_update(c: &mut Criterion) {
    let mut group = c.benchmark_group("apkeep/update");
    group.sample_size(samples(20));
    let (base, down, up) = k8_ospf_link_flip();
    let mut model = ApkModel::new();
    let rules = fib_rules(&base).into_iter().map(RuleUpdate::Insert).collect();
    model.apply_batch(rules, UpdateOrder::AsGiven);
    group.bench_function("link_flip/k8-ospf", |b| {
        b.iter(|| {
            [&down, &up]
                .iter()
                .map(|(rules, _)| model.apply_batch(rules.clone(), UpdateOrder::InsertFirst).ec_moves)
                .sum::<usize>()
        })
    });
    group.finish();
}

fn policy_walk(c: &mut Criterion) {
    let mut group = c.benchmark_group("policy/walk");
    group.sample_size(samples(20));
    let (base, down, up) = k8_ospf_link_flip();
    let (mut model, mut checker, _) = stage23(&base);

    group.bench_function("check_full/k8-ospf", |b| {
        b.iter(|| checker.check_full(&mut model).total_pairs)
    });
    group.bench_function("link_flip/k8-ospf", |b| {
        b.iter(|| {
            let mut ecs = 0;
            for (rules, links) in [&down, &up] {
                let touched = checker.apply_link_delta(links);
                let summary = model.apply_batch(rules.clone(), UpdateOrder::InsertFirst);
                ecs += checker.check_incremental(&mut model, &summary, touched).affected_ecs;
            }
            ecs
        })
    });
    group.finish();
}

type Delta = Vec<(Fact, isize)>;

/// A k=6 OSPF fat tree and one maintenance window of the shape the
/// `ospf6_windows` benchmark workload folds: one aggregation switch's
/// drained edge links come back, a second switch's are drained, and a
/// third's go through a storm of cost flips that ends at 100. Returns
/// the facts before the window and the fact deltas of the folded window
/// and of its inverse.
fn k6_ospf_window() -> (BTreeSet<Fact>, Delta, Delta) {
    let topo = fat_tree(6);
    let is_edge = |d: &str| topo.host_prefixes.contains_key(d);
    let mut groups: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for l in &topo.links {
        for (end, peer) in [(&l.a, &l.b), (&l.b, &l.a)] {
            if !is_edge(&end.device) && is_edge(&peer.device) {
                groups.entry(&end.device).or_default().push(&end.iface);
            }
        }
    }
    let groups: Vec<(&str, Vec<&str>)> = groups.into_iter().take(3).collect();
    let enable = |device: &str, iface: &str| ChangeSet {
        ops: vec![ChangeOp::EnableInterface { device: device.into(), iface: iface.into() }],
    };

    let mut configs = build_configs(&topo, ProtocolChoice::Ospf);
    for cs in per_iface(&groups[0], ChangeSet::link_failure) {
        cs.apply(&mut configs).expect("the port exists");
    }
    let mut registry = Registry::new();
    let before = lower(&configs, &mut registry).facts;
    let mut window = per_iface(&groups[0], enable);
    window.extend(per_iface(&groups[1], ChangeSet::link_failure));
    for cost in [100, 1, 100] {
        window.extend(per_iface(&groups[2], |dev, iface| ChangeSet::link_cost(dev, iface, cost)));
    }
    ChangeSet::coalesce(&window).0.apply(&mut configs).expect("the window applies");
    let after = lower(&configs, &mut registry).facts;
    let (forward, back) = (fact_delta(&before, &after), fact_delta(&after, &before));
    (before, forward, back)
}

/// One single-change set per interface of a `(device, interfaces)` group.
fn per_iface(group: &(&str, Vec<&str>), f: impl Fn(&str, &str) -> ChangeSet) -> Vec<ChangeSet> {
    group.1.iter().map(|iface| f(group.0, iface)).collect()
}

/// The routing engine alone: a k=6 OSPF network built once, then one
/// folded window and its inverse per iteration.
fn routing_ospf_window(c: &mut Criterion) {
    let mut group = c.benchmark_group("routing/ospf_window");
    group.sample_size(samples(20));
    let (base, window, inverse) = k6_ospf_window();
    let mut engine = RoutingEngine::new();
    engine.apply(base.into_iter().map(|f| (f, 1))).expect("converges");
    group.bench_function("drain+recost/k6-ospf", |b| {
        b.iter(|| {
            [&window, &inverse]
                .iter()
                .map(|delta| engine.apply(delta.iter().cloned()).expect("converges").fib_changes)
                .sum::<usize>()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    batch_vs_per_rule,
    incremental_vs_full_check,
    apkeep_update,
    policy_walk,
    routing_ospf_window
);
criterion_main!(benches);
