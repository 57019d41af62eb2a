//! Criterion bench for Table 3: the full incremental pipeline (data
//! plane generation + EC model update + policy checking) on the BGP
//! fat tree, under both rule-update orders. Uses k=6; the `table3`
//! binary reproduces the paper's k=12.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rc_netcfg::gen::ProtocolChoice;
use realconfig::{RealConfig, UpdateOrder, VerifierOptions};
use realconfig_bench::{PaperChange, Workload};

const K: u32 = 6;

fn pipeline_update(c: &mut Criterion) {
    let mut group = c.benchmark_group("table3/pipeline");
    group.sample_size(10);
    let w = Workload::fat_tree(K, ProtocolChoice::Bgp);
    for change in [PaperChange::LinkFailure, PaperChange::LocalPref] {
        for (olabel, order) in
            [("insert-first", UpdateOrder::InsertFirst), ("delete-first", UpdateOrder::DeleteFirst)]
        {
            let opts = VerifierOptions { order, ..Default::default() };
            let (mut rc, _) =
                RealConfig::with_options(w.configs.clone(), opts).expect("verifies");
            let port = &w.sample_ports(1, 42)[0];
            let (apply_cs, restore_cs) = w.change_at(change, port);
            group.bench_function(
                BenchmarkId::new(change.label(), olabel),
                |b| {
                    b.iter(|| {
                        let r1 = rc.apply_change(&apply_cs).expect("verifies");
                        let r2 = rc.apply_change(&restore_cs).expect("verifies");
                        rc.compact();
                        r1.affected_ecs + r2.affected_ecs
                    })
                },
            );
        }
    }
    group.finish();
}

fn stage_breakdown(c: &mut Criterion) {
    // Isolate the model-update + policy-check stages: apply a rule
    // batch directly to a prebuilt model (bypassing config lowering and
    // routing).
    use rc_apkeep::{RuleUpdate, UpdateOrder};
    let mut group = c.benchmark_group("table3/model-batch");
    group.sample_size(20);
    let w = Workload::fat_tree(K, ProtocolChoice::Bgp);
    let (mut rc, _) = RealConfig::new(w.configs.clone()).expect("verifies");
    // Derive a realistic rule batch from the LP change: capture the FIB
    // delta by applying and reverting once.
    let port = &w.sample_ports(1, 42)[0];
    let (apply_cs, restore_cs) = w.change_at(PaperChange::LocalPref, port);
    let report = rc.apply_change(&apply_cs).expect("verifies");
    rc.apply_change(&restore_cs).expect("verifies");
    let batch_size = report.rules_inserted + report.rules_removed;

    // Rebuild a standalone model mirroring the FIB for direct batching.
    let mut model = rc_apkeep::ApkModel::new();
    let mut rules = Vec::new();
    let mut by_group: std::collections::BTreeMap<_, Vec<_>> = std::collections::BTreeMap::new();
    for e in rc.fib() {
        by_group.entry((e.node, e.prefix)).or_default().push(e.action);
    }
    for ((node, prefix), actions) in by_group {
        let ifaces: Vec<_> = actions
            .iter()
            .filter_map(|a| match a {
                rc_routing::route::FibAction::Forward(i) => Some(*i),
                rc_routing::route::FibAction::Local(i) => Some(*i),
                rc_routing::route::FibAction::Drop => None,
            })
            .collect();
        if ifaces.is_empty() {
            continue;
        }
        let is_local =
            matches!(actions[0], rc_routing::route::FibAction::Local(_));
        rules.push(rc_apkeep::ModelRule {
            element: rc_apkeep::ElementKey::Forward(node),
            priority: prefix.len() as u32,
            rule_match: rc_apkeep::RuleMatch::DstPrefix(prefix),
            action: if is_local {
                rc_apkeep::PortAction::deliver(ifaces)
            } else {
                rc_apkeep::PortAction::forward(ifaces)
            },
        });
    }
    model.apply_batch(rules.iter().cloned().map(RuleUpdate::Insert).collect(), UpdateOrder::AsGiven);

    // The benchmark batch: replace `batch_size` rules with themselves
    // shifted to a different port set (remove + insert per rule).
    let victims: Vec<_> = rules.iter().take(batch_size.max(4)).cloned().collect();
    for (olabel, order) in
        [("insert-first", UpdateOrder::InsertFirst), ("delete-first", UpdateOrder::DeleteFirst)]
    {
        group.bench_function(BenchmarkId::new("replace-batch", olabel), |b| {
            b.iter(|| {
                // Swap each victim to Drop and back: two batches.
                let to_drop: Vec<_> = victims
                    .iter()
                    .flat_map(|r| {
                        [
                            RuleUpdate::Remove(r.clone()),
                            RuleUpdate::Insert(rc_apkeep::ModelRule {
                                action: rc_apkeep::PortAction::Drop,
                                ..r.clone()
                            }),
                        ]
                    })
                    .collect();
                let back: Vec<_> = victims
                    .iter()
                    .flat_map(|r| {
                        [
                            RuleUpdate::Remove(rc_apkeep::ModelRule {
                                action: rc_apkeep::PortAction::Drop,
                                ..r.clone()
                            }),
                            RuleUpdate::Insert(r.clone()),
                        ]
                    })
                    .collect();
                let s1 = model.apply_batch(to_drop, order);
                let s2 = model.apply_batch(back, order);
                s1.ec_moves + s2.ec_moves
            })
        });
    }
    group.finish();
}

criterion_group!(benches, pipeline_update, stage_breakdown);
criterion_main!(benches);
