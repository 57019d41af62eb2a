//! The benchmark's contract: which metrics exist, in which unit, which
//! direction is better and — for end-to-end metrics — how far one may
//! worsen before it counts as a regression. `BENCHMARK.json` at the repo
//! root is generated from these tables (`perf schema`) and every run
//! checks what it emitted against that file, in both directions.

use std::collections::{BTreeMap, BTreeSet};

use crate::workloads::WORKLOADS;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

/// How long one run measures, in seconds.
pub const RUN_SECONDS: u64 = 15;

/// Where the benchmark lives; nothing else does.
pub const PATHS: [&str; 2] = ["perf", "bench_results/perf"];

pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "perf/Cargo.toml",
    "--",
];

/// Measured with tracing off, driving only `RealConfig`.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd { name: "setup_s", unit: "s", better: "lower", bound: 0.25 },
    EndToEnd { name: "apply_p50_ms", unit: "ms", better: "lower", bound: 0.25 },
    EndToEnd { name: "changes_per_s", unit: "1/s", better: "higher", bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.25 },
];

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, better: "lower" }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, better: "higher" }
}

/// Measured in the traced run. `_ms` are sums over the timed section
/// (set-up metrics: one call), `_p50_us` per-operation medians, counts
/// are sums over the timed section unless named `_final` or `_peak`.
pub const PER_LAYER: &[PerLayer] = &[
    // netcfg
    lower("netcfg.gen_ms", "ms"),
    lower("netcfg.parse_ms", "ms"),
    lower("netcfg.change_apply_ms", "ms"),
    lower("netcfg.coalesce_ms", "ms"),
    lower("netcfg.lower_ms", "ms"),
    lower("netcfg.lower_p50_us", "us"),
    lower("netcfg.fact_delta_ms", "ms"),
    lower("netcfg.print_diff_ms", "ms"),
    lower("netcfg.fact_changes", "count"),
    lower("netcfg.facts_final", "count"),
    // routing / dataflow
    lower("routing.full_build_ms", "ms"),
    lower("routing.apply_ms", "ms"),
    lower("routing.apply_p50_us", "us"),
    lower("routing.fib_changes", "count"),
    lower("routing.filter_changes", "count"),
    lower("dataflow.records", "count"),
    lower("dataflow.work.join", "count"),
    lower("dataflow.work.map", "count"),
    lower("dataflow.work.min", "count"),
    lower("dataflow.work.concat", "count"),
    lower("dataflow.work.filter", "count"),
    lower("dataflow.steps_run", "count"),
    higher("dataflow.steps_skipped", "count"),
    lower("dataflow.compact_ms", "ms"),
    lower("dataflow.compact_calls", "count"),
    lower("dataflow.trace_records_peak", "count"),
    lower("dataflow.trace_records_final", "count"),
    // apkeep / bdd
    lower("apkeep.full_build_ms", "ms"),
    lower("apkeep.batch_ms", "ms"),
    lower("apkeep.batch_p50_us", "us"),
    lower("apkeep.rules_applied", "count"),
    lower("apkeep.ec_moves", "count"),
    lower("apkeep.ec_splits", "count"),
    lower("apkeep.affected_ecs", "count"),
    lower("apkeep.ecs_peak", "count"),
    lower("apkeep.ecs_final", "count"),
    lower("apkeep.rules_final", "count"),
    lower("apkeep.move_waste", "ratio"),
    higher("apkeep.index_skip_ratio", "ratio"),
    higher("bdd.apply_hit_ratio", "ratio"),
    // policy / par
    lower("policy.check_full_ms", "ms"),
    lower("par.check_full_t2_ms", "ms"),
    lower("policy.check_ms", "ms"),
    lower("policy.check_p50_us", "us"),
    lower("policy.link_delta_ms", "ms"),
    lower("policy.affected_ecs", "count"),
    lower("policy.affected_pairs", "count"),
    lower("policy.changed_pairs", "count"),
    lower("policy.policies_checked", "count"),
    lower("policy.verdict_flips", "count"),
    lower("policy.pairs_final", "count"),
    lower("policy.recheck_waste", "ratio"),
    higher("par.threads", "count"),
    // core / telemetry / the harness itself
    lower("core.configs_clone_ms", "ms"),
    lower("core.fib_group_ms", "ms"),
    lower("core.fib_group_p50_us", "us"),
    lower("telemetry.snapshot_ms", "ms"),
    lower("core.overhead_ms", "ms"),
    lower("core.overhead_per_op_us", "us"),
    higher("core.coverage", "ratio"),
    lower("core.op_self_ms", "ms"),
    lower("core.traced_wall_ms", "ms"),
    lower("core.untraced_wall_ms", "ms"),
    higher("core.timed_ops", "count"),
    lower("core.cancelled_ops", "count"),
    lower("core.noop_windows", "count"),
    lower("core.apply_p90_ms", "ms"),
    lower("core.apply_p95_ms", "ms"),
    lower("core.apply_drift", "ratio"),
    lower("trace.span_cost_ns", "ns"),
    lower("trace.spans", "count"),
    // store (zero on every workload but bgp8_durable)
    lower("store.journal_append_ms", "ms"),
    lower("store.journal_append_p50_us", "us"),
    lower("store.journal_records", "count"),
    lower("store.journal_bytes", "count"),
    lower("store.snapshot_encode_ms", "ms"),
    lower("store.snapshot_write_ms", "ms"),
    lower("store.snapshot_bytes", "count"),
    lower("store.snapshots", "count"),
    lower("store.journal_read_ms", "ms"),
    lower("store.snapshot_decode_ms", "ms"),
    lower("store.snapshot_p50_ms", "ms"),
    lower("store.restore_p50_ms", "ms"),
    lower("store.restore_share", "ratio"),
    lower("store.bytes_per_config_byte", "ratio"),
    // per-stage shares of the traced wall, so a reader need not divide
    lower("share.netcfg", "%"),
    lower("share.routing", "%"),
    lower("share.apkeep", "%"),
    lower("share.policy", "%"),
    lower("share.core", "%"),
    lower("share.store", "%"),
    lower("share.dataflow_compact", "%"),
    lower("share.telemetry", "%"),
    lower("share.op_self", "%"),
];

/// The declared unit of a metric, end-to-end or per-layer.
pub fn unit_of(name: &str) -> Option<&'static str> {
    let end_to_end = END_TO_END.iter().map(|m| (m.name, m.unit));
    let per_layer = PER_LAYER.iter().map(|m| (m.name, m.unit));
    end_to_end.chain(per_layer).find(|(n, _)| *n == name).map(|(_, unit)| unit)
}

fn name_ok(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn json_str_list(items: &[&str]) -> String {
    let quoted: Vec<String> = items.iter().map(|s| format!("\"{s}\"")).collect();
    format!("[{}]", quoted.join(", "))
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": {},\n  \"paths\": {},\n  \"run_seconds\": {},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        json_str_list(&COMMAND),
        json_str_list(&PATHS),
        RUN_SECONDS,
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n"),
    )
}

fn names_in(doc: &serde_json::Value, key: &str) -> Result<BTreeMap<String, String>, String> {
    let list = doc[key].as_array().ok_or_else(|| format!("BENCHMARK.json: no {key:?} list"))?;
    list.iter()
        .map(|m| {
            let name = m["name"].as_str().ok_or_else(|| format!("{key}: entry without a name"))?;
            Ok((name.to_string(), m["unit"].as_str().unwrap_or("").to_string()))
        })
        .collect()
}

/// Check the metric names and units one run emitted for `workload`
/// against `BENCHMARK.json` (`text`): the workload must be listed, and
/// the emitted set must equal the file's `end_to_end` (untraced) or
/// `per_layer` (traced) set — nothing missing, nothing extra.
pub fn check_emitted(
    text: &str,
    workload: &str,
    traced: bool,
    emitted: &BTreeMap<String, &'static str>,
) -> Result<(), String> {
    let doc = serde_json::from_str(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    if !names_in(&doc, "workloads")?.contains_key(workload) {
        return Err(format!("workload {workload:?} is not in BENCHMARK.json"));
    }
    let section = if traced { "per_layer" } else { "end_to_end" };
    let declared = names_in(&doc, section)?;
    let mut problems = Vec::new();
    for (name, unit) in emitted {
        if !name_ok(name) {
            problems.push(format!("metric name {name:?} has a character outside [A-Za-z0-9_.-]"));
        }
        match declared.get(name) {
            None => problems.push(format!("emitted {name:?} is not in BENCHMARK.json {section}")),
            Some(u) if u != unit => {
                problems.push(format!("{name}: emitted unit {unit:?}, BENCHMARK.json says {u:?}"))
            }
            Some(_) => {}
        }
    }
    for name in declared.keys().filter(|n| !emitted.contains_key(*n)) {
        problems.push(format!("BENCHMARK.json {section} lists {name:?}, which was not emitted"));
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems.join("\n"))
    }
}

/// The workload names `BENCHMARK.json` lists must be exactly the ones
/// this binary runs.
pub fn check_workloads(text: &str) -> Result<(), String> {
    let doc = serde_json::from_str(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let declared: BTreeSet<String> = names_in(&doc, "workloads")?.into_keys().collect();
    let ours: BTreeSet<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
    if declared == ours {
        Ok(())
    } else {
        Err(format!("BENCHMARK.json workloads {declared:?} differ from the binary's {ours:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut seen = BTreeSet::new();
        let all = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
            .chain(WORKLOADS.iter().map(|w| (w.name, "count")));
        for (name, unit) in all {
            assert!(name_ok(name), "{name}");
            assert!(seen.insert(name), "{name} used twice");
            assert!(unit.len() <= 16 && !unit.is_empty(), "{name}: unit {unit:?}");
        }
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
    }

    #[test]
    fn committed_benchmark_json_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(committed, benchmark_json(), "regenerate with `perf schema > BENCHMARK.json`");
    }

    #[test]
    fn emitted_set_must_match_in_both_directions() {
        let text = benchmark_json();
        let full: BTreeMap<String, &'static str> =
            END_TO_END.iter().map(|m| (m.name.to_string(), m.unit)).collect();
        assert!(check_emitted(&text, "bgp8_acl", false, &full).is_ok());
        assert!(check_emitted(&text, "nope", false, &full).is_err());

        let mut missing = full.clone();
        missing.remove("setup_s");
        assert!(check_emitted(&text, "bgp8_acl", false, &missing).unwrap_err().contains("setup_s"));

        let mut extra = full.clone();
        extra.insert("bad name!".into(), "ms");
        let err = check_emitted(&text, "bgp8_acl", false, &extra).unwrap_err();
        assert!(err.contains("outside") && err.contains("not in BENCHMARK.json"), "{err}");

        let mut wrong_unit = full;
        wrong_unit.insert("setup_s".into(), "ms");
        assert!(check_emitted(&text, "bgp8_acl", false, &wrong_unit).is_err());
        assert!(check_workloads(&text).is_ok());
    }
}
