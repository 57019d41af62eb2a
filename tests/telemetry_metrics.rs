//! End-to-end checks of the telemetry layer: every pipeline stage must
//! contribute at least one metric to `RealConfig::metrics_snapshot`, the
//! one channel for metrics (reports carry none), and the snapshot must
//! serialize to JSON (the CLI's `--metrics` dump and the bench result
//! files rely on it).

use rc_netcfg::gen::{build_configs, ProtocolChoice};
use rc_netcfg::topology::{fat_tree, ring};
use rc_netcfg::DeviceConfig;
use realconfig::{ChangeOp, ChangeSet, RealConfig};

fn build() -> (RealConfig, realconfig::FullReport) {
    let configs = build_configs(&ring(4), ProtocolChoice::Ospf);
    RealConfig::new(configs).expect("ring verifies")
}

#[test]
fn full_report_has_metrics_from_every_stage() {
    let (rc, _) = build();
    let m = &rc.metrics_snapshot();

    // Stage 1: per-operator dataflow work counters.
    assert!(
        m.counters.keys().any(|k| k.starts_with("dataflow.work.")),
        "no dataflow.work.* counters in {:?}",
        m.counters.keys().collect::<Vec<_>>()
    );
    assert!(m.counters["dataflow.records"] > 0);
    assert!(m.counters["dataflow.epochs"] >= 1);

    // Stage 2: EC model state.
    assert!(m.gauges["apkeep.ecs"] > 0);
    assert!(m.gauges["apkeep.rules"] > 0);
    assert!(m.counters["apkeep.rules_applied"] > 0);

    // Stage 3: policy checker.
    assert!(m.counters.contains_key("policy.affected_ecs"));
    assert!(m.gauges["policy.pairs"] > 0);
    assert_eq!(m.histograms["policy.check_full_us"].count, 1);
    // Its three phases, one sample each.
    for phase in ["policy.walk_us", "policy.merge_us", "policy.eval_us"] {
        assert_eq!(m.histograms[phase].count, 1, "{phase}");
    }
}

#[test]
fn change_report_metrics_accumulate() {
    let (mut rc, _) = build();
    let full = rc.metrics_snapshot();
    rc.apply_change(&ChangeSet::link_failure("r001", "eth1")).expect("verifies");
    let m = &rc.metrics_snapshot();

    // Counters are cumulative since construction: the change's work
    // lands on top of the initial build's.
    assert!(m.counters["dataflow.records"] > full.counters["dataflow.records"]);
    assert!(m.counters["dataflow.epochs"] > full.counters["dataflow.epochs"]);
    assert!(m.counters["apkeep.rules_applied"] >= full.counters["apkeep.rules_applied"]);
    // The incremental check path was timed exactly once.
    assert_eq!(m.histograms["policy.check_incremental_us"].count, 1);
    // Phases are timed on full and incremental passes alike: two each,
    // and the full pass's phases fit inside it.
    for phase in ["policy.walk_us", "policy.merge_us", "policy.eval_us"] {
        assert_eq!(m.histograms[phase].count, 2, "{phase}");
    }
    let phases: u64 = ["policy.walk_us", "policy.merge_us", "policy.eval_us"]
        .iter()
        .map(|p| full.histograms[*p].sum)
        .sum();
    assert!(phases <= full.histograms["policy.check_full_us"].sum);
}

#[test]
fn compaction_records_before_and_after_trace_sizes() {
    let (mut rc, _) = build();
    rc.apply_change(&ChangeSet::link_failure("r001", "eth1")).expect("verifies");
    rc.compact();
    let m = rc.metrics_snapshot();
    let before = m.counters["dataflow.compact.records_before"];
    let after = m.counters["dataflow.compact.records_after"];
    assert!(before > 0, "compaction saw no trace records");
    assert!(after <= before, "compaction grew the traces: {after} > {before}");
}

/// Compaction work tracks the change: the full build folds nothing
/// (both counters are registered eagerly and read 0), and an apply
/// folds only the keys it touches — a small fraction of the trace.
#[test]
fn fold_counters_track_the_change() {
    let (mut rc, _) = build();
    let full = rc.metrics_snapshot();
    assert_eq!(full.counters["dataflow.trace.folded_keys"], 0);
    assert_eq!(full.counters["dataflow.trace.folded_records"], 0);
    rc.apply_change(&ChangeSet::link_failure("r001", "eth1")).expect("verifies");
    let m = rc.metrics_snapshot();
    let (keys, records) =
        (m.counters["dataflow.trace.folded_keys"], m.counters["dataflow.trace.folded_records"]);
    assert!(keys > 0, "the change touched no key with history");
    assert!(records >= keys, "every fold moves at least one record");
    assert!(
        records < rc.trace_records() as u64,
        "one link failure folded {records} records of a {}-record trace",
        rc.trace_records()
    );
}

/// A rule update pays only for the rules its dst prefix overlaps: over
/// one link failing and coming back on a k=4 OSPF fat tree, the hit and
/// fall-through chains spend at most two predicate operations per rule
/// applied. Chains that pair every rule with every rule above or below it
/// on its device cost 91–146 per rule on a k=8 flip (EXPERIMENTS.md,
/// "Rule updates pay for their overlaps").
#[test]
fn shadow_ops_stay_within_two_per_rule_applied() {
    let topo = fat_tree(4);
    let (mut rc, _) =
        RealConfig::new(build_configs(&topo, ProtocolChoice::Ospf)).expect("fat tree verifies");
    let full = rc.metrics_snapshot();
    let port = &topo.links[0].a;
    rc.apply_change(&ChangeSet::link_failure(&port.device, &port.iface)).expect("verifies");
    let up = ChangeOp::EnableInterface { device: port.device.clone(), iface: port.iface.clone() };
    rc.apply_change(&ChangeSet { ops: vec![up] }).expect("verifies");
    let m = rc.metrics_snapshot();
    let delta = |key: &str| m.counters[key] - full.counters[key];
    let (ops, rules) = (delta("apkeep.shadow_ops"), delta("apkeep.rules_applied"));
    assert!(rules > 0, "the flip applied no rule");
    assert!(ops <= 2 * rules, "{ops} shadow ops for {rules} rules applied");
}

/// A change re-lowers only the devices it can affect: the changed
/// device, the devices with a port on one of its subnets, and the
/// devices naming one of its addresses as a BGP neighbor. On the k=4 BGP
/// fat tree that is an edge switch and its 2 aggregation switches, or
/// an aggregation or core switch and its 4 linked switches — never the
/// other 15 of the 20 devices.
#[test]
fn a_local_pref_change_relowers_the_device_and_its_peers() {
    let configs = build_configs(&fat_tree(4), ProtocolChoice::Bgp);
    let peers = |dev: &str| {
        let own = &configs[dev].interfaces;
        let subnets: Vec<_> = own.iter().filter_map(|i| i.prefix()).collect();
        let addrs: Vec<_> = own.iter().filter_map(|i| i.ip()).collect();
        let on_subnet = |c: &DeviceConfig| {
            c.interfaces.iter().any(|i| i.prefix().is_some_and(|p| subnets.contains(&p)))
        };
        let names_us = |c: &DeviceConfig| {
            c.bgp.iter().flat_map(|b| &b.neighbors).any(|n| addrs.contains(&n.addr))
        };
        let others = configs.iter().filter(|(name, _)| name.as_str() != dev);
        others.filter(|(_, c)| on_subnet(c) || names_us(c)).count()
    };
    let (mut rc, _) = RealConfig::new(configs.clone()).expect("fat tree verifies");
    let built = rc.metrics_snapshot();
    assert!(!built.histograms.contains_key("netcfg.relowered_devices"), "builds add none");
    let (mut applies, mut relowered) = (0, 0);
    for (dev, expected) in [("pod00-edge00", 3u64), ("pod01-aggr01", 5), ("core002", 5)] {
        assert_eq!(1 + peers(dev) as u64, expected, "{dev}'s subnet and session peers");
        let cs = ChangeSet::local_pref(dev, "eth0", 150);
        rc.apply_change(&cs).expect("verifies");
        let m = rc.metrics_snapshot();
        let h = &m.histograms["netcfg.relowered_devices"];
        (applies, relowered) = (applies + 1, relowered + expected);
        assert_eq!((h.count, h.sum), (applies, relowered), "{dev}: one sample, the dirty set");
    }
}

/// Telemetry keys are registered lazily inside the paths that produce
/// them: a verifier driven through plain applies and compaction — no
/// ingest queue, no coalescing — must carry none of the `queue.*` /
/// `coalesce.*` keys, keeping committed gate baselines stable for runs
/// that never batch.
#[test]
fn plain_runs_carry_no_batching_keys() {
    let (mut rc, _) = build();
    rc.apply_change(&ChangeSet::link_failure("r001", "eth1")).expect("verifies");
    rc.compact();
    let m = rc.metrics_snapshot();
    let all_keys = m
        .counters
        .keys()
        .chain(m.gauges.keys())
        .chain(m.histograms.keys());
    for key in all_keys {
        for prefix in ["queue.", "coalesce."] {
            assert!(
                !key.starts_with(prefix),
                "plain run registered batching key {key:?}"
            );
        }
    }

    // The coalescing path registers its keys on first use.
    rc.apply_coalesced(&[ChangeSet::link_failure("r002", "eth0")]).expect("verifies");
    let m = rc.metrics_snapshot();
    assert!(m.counters.contains_key("coalesce.batches"));
}

#[test]
fn snapshot_serializes_to_json_with_stage_counters() {
    let (rc, _) = build();
    let json = serde_json::to_string_pretty(&rc.metrics_snapshot()).expect("serializes");
    for needle in ["dataflow.work.", "apkeep.ecs", "policy.affected_ecs"] {
        assert!(json.contains(needle), "{needle:?} missing from JSON:\n{json}");
    }
}
