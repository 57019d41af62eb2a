//! Benchmark harness reproducing the paper's evaluation (§5).
//!
//! The paper's setting: a fat-tree topology with 180 nodes and 864
//! links (k = 12), running OSPF or BGP; three change types —
//! LinkFailure (deactivate an interface), LC (OSPF link cost 1 → 100),
//! LP (BGP local preference 100 → 150 on one interface's imports).
//!
//! [`run_table2`] regenerates Table 2 (data plane generation time:
//! from-scratch vs incremental) and [`run_table3`] regenerates Table 3
//! (model update and policy checking, including the insertion-first vs
//! deletion-first ordering effect). Absolute numbers differ from the
//! paper's testbed; the reproduction targets the *shape*: incremental
//! time a small percentage of full recomputation, <1% of rules
//! affected, insertion-first beating deletion-first, policy checking on
//! a few percent of pairs.

#![forbid(unsafe_code)]

pub mod stream;

use std::collections::BTreeMap;
use std::str::FromStr;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::Serialize;

use rc_netcfg::gen::{build_configs, ProtocolChoice};
use rc_netcfg::topology::{fat_tree, Topology};
use rc_netcfg::{ChangeSet, DeviceConfig};
use realconfig::{RealConfig, UpdateOrder, VerifierOptions};

/// The paper's change types.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PaperChange {
    /// Deactivate an interface.
    LinkFailure,
    /// OSPF link cost 1 → 100.
    CostChange,
    /// BGP local preference 100 → 150 on one interface's imports.
    LocalPref,
}

impl PaperChange {
    pub fn label(self) -> &'static str {
        match self {
            PaperChange::LinkFailure => "LinkFailure",
            PaperChange::CostChange => "LC",
            PaperChange::LocalPref => "LP",
        }
    }
}

/// A benchmark workload: a generated fat-tree network.
pub struct Workload {
    pub k: u32,
    pub proto: ProtocolChoice,
    pub topo: Topology,
    pub configs: BTreeMap<String, DeviceConfig>,
}

impl Workload {
    pub fn fat_tree(k: u32, proto: ProtocolChoice) -> Self {
        let topo = fat_tree(k);
        let configs = build_configs(&topo, proto);
        Workload { k, proto, topo, configs }
    }

    /// Deterministically sample `n` link endpoints (device, interface)
    /// spread over the topology.
    pub fn sample_ports(&self, n: usize, seed: u64) -> Vec<(String, String)> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ports: Vec<(String, String)> = self
            .topo
            .links
            .iter()
            .map(|l| (l.a.device.clone(), l.a.iface.clone()))
            .collect();
        ports.shuffle(&mut rng);
        ports.truncate(n);
        ports
    }

    /// The paper's change at a sampled port, plus the change that
    /// reverts it.
    pub fn change_at(&self, change: PaperChange, port: &(String, String)) -> (ChangeSet, ChangeSet) {
        let (dev, iface) = port;
        match change {
            PaperChange::LinkFailure => (
                ChangeSet::link_failure(dev, iface),
                ChangeSet {
                    ops: vec![rc_netcfg::ChangeOp::EnableInterface {
                        device: dev.clone(),
                        iface: iface.clone(),
                    }],
                },
            ),
            PaperChange::CostChange => (
                ChangeSet::link_cost(dev, iface, 100),
                ChangeSet::link_cost(dev, iface, 1),
            ),
            PaperChange::LocalPref => (
                ChangeSet::local_pref(dev, iface, 150),
                ChangeSet::local_pref(dev, iface, 100),
            ),
        }
    }

    /// The change types applicable to this workload's protocol.
    pub fn changes(&self) -> Vec<PaperChange> {
        match self.proto {
            ProtocolChoice::Ospf => vec![PaperChange::LinkFailure, PaperChange::CostChange],
            // RIP has neither link costs nor local preferences: only
            // the failure change applies.
            ProtocolChoice::Rip => vec![PaperChange::LinkFailure],
            ProtocolChoice::Bgp => vec![PaperChange::LinkFailure, PaperChange::LocalPref],
        }
    }
}

/// One protocol row of Table 2.
#[derive(Clone, Debug, Serialize)]
pub struct Table2Row {
    pub proto: String,
    pub k: u32,
    pub nodes: usize,
    pub links: usize,
    /// Custom-algorithm from-scratch (the paper's Batfish column), µs.
    pub baseline_full_us: u128,
    /// General-purpose engine from scratch (RealConfig Full), µs.
    pub rc_full_us: u128,
    /// Incremental, averaged over samples, µs: LinkFailure.
    pub link_failure_us: u128,
    /// Incremental, averaged: LC (OSPF) or LP (BGP).
    pub lc_lp_us: u128,
    pub samples: usize,
    /// Logical CPUs of the machine that produced the row (context for
    /// the timing columns; not a gate field).
    pub host_cores: usize,
    /// Process peak RSS in KiB when the row was finalized (not a gate
    /// field; cumulative across rows of one run). It covers the whole
    /// verifier — EC model and policy checker as well as the routing
    /// engine.
    pub peak_rss_kb: u64,
    /// Pipeline-wide telemetry at the end of the run (per-operator
    /// work, queue depths, compaction counters).
    pub metrics: rc_telemetry::MetricsSnapshot,
}

impl Table2Row {
    pub fn pct_link_failure(&self) -> f64 {
        100.0 * self.link_failure_us as f64 / self.rc_full_us as f64
    }

    pub fn pct_lc_lp(&self) -> f64 {
        100.0 * self.lc_lp_us as f64 / self.rc_full_us as f64
    }
}

/// Regenerate Table 2 for one protocol. Table 2 measures data plane
/// *generation*, the pipeline's first stage: the verifier's
/// `dp_gen` times the routing engine's apply alone, from scratch and
/// per change.
pub fn run_table2(k: u32, proto: ProtocolChoice, samples: usize, seed: u64) -> Table2Row {
    let w = Workload::fat_tree(k, proto);

    let (baseline_full, _) =
        realconfig::full_dataplane_baseline(&w.configs).expect("baseline converges");

    let (mut rc, full) = RealConfig::with_options(w.configs.clone(), VerifierOptions::default())
        .expect("workload verifies");

    let ports = w.sample_ports(samples, seed);
    let mut avg = BTreeMap::new();
    for change in w.changes() {
        let mut total = Duration::ZERO;
        for port in &ports {
            let (apply, restore) = w.change_at(change, port);
            total += rc.apply_change(&apply).expect("change verifies").dp_gen;
            rc.apply_change(&restore).expect("restore verifies");
        }
        avg.insert(change.label(), total / ports.len() as u32);
    }

    Table2Row {
        proto: match proto {
            ProtocolChoice::Ospf => "OSPF".into(),
            ProtocolChoice::Rip => "RIP".into(),
            ProtocolChoice::Bgp => "BGP".into(),
        },
        k,
        nodes: w.topo.num_devices(),
        links: w.topo.num_links(),
        baseline_full_us: baseline_full.as_micros(),
        rc_full_us: full.dp_gen.as_micros(),
        link_failure_us: avg["LinkFailure"].as_micros(),
        lc_lp_us: avg
            .iter()
            .find(|(l, _)| **l != "LinkFailure")
            .map(|(_, d)| d.as_micros())
            .unwrap_or_default(),
        samples: ports.len(),
        host_cores: host_cores(),
        peak_rss_kb: peak_rss_kb(),
        metrics: rc.metrics_snapshot(),
    }
}

/// One change-type row of Table 3 (per update order).
#[derive(Clone, Debug, Serialize)]
pub struct Table3Row {
    pub change: String,
    pub order: String,
    pub rules_inserted: usize,
    pub rules_removed: usize,
    pub rules_total: usize,
    /// EC move events (the order-sensitive churn the paper reports as
    /// "#ECs").
    pub ec_moves: usize,
    /// Net affected ECs.
    pub affected_ecs: usize,
    /// Model update time (T1), µs.
    pub t1_us: u128,
    pub affected_pairs: usize,
    pub total_pairs: usize,
    /// Policy checking time (T2), µs.
    pub t2_us: u128,
    /// Ablation: time of a non-incremental full policy recheck on the
    /// same state, µs (what T2 would cost without incrementality).
    pub t2_full_us: u128,
    pub samples: usize,
    /// Logical CPUs of the machine that produced the row (context for
    /// the timing columns; not a gate field).
    pub host_cores: usize,
    /// Process peak RSS in KiB when the row was finalized (not a gate
    /// field; cumulative across rows of one run).
    pub peak_rss_kb: u64,
    /// Pipeline-wide telemetry at the end of this row's run (all three
    /// stages, cumulative over the sampled changes).
    pub metrics: rc_telemetry::MetricsSnapshot,
}

/// Regenerate Table 3: model update + policy checking on the BGP fat
/// tree, for both update orders, averaged over sampled changes.
pub fn run_table3(k: u32, samples: usize, seed: u64) -> Vec<Table3Row> {
    let w = Workload::fat_tree(k, ProtocolChoice::Bgp);
    let ports = w.sample_ports(samples, seed);
    let mut rows = Vec::new();

    for change in [PaperChange::LinkFailure, PaperChange::LocalPref] {
        for order in [UpdateOrder::InsertFirst, UpdateOrder::DeleteFirst] {
            let opts = VerifierOptions { order, ..Default::default() };
            let (mut rc, _) =
                RealConfig::with_options(w.configs.clone(), opts).expect("workload verifies");
            let mut acc = Table3Row {
                change: change.label().into(),
                order: match order {
                    UpdateOrder::InsertFirst => "+,-".into(),
                    UpdateOrder::DeleteFirst => "-,+".into(),
                    UpdateOrder::AsGiven => "as-given".into(),
                },
                rules_inserted: 0,
                rules_removed: 0,
                rules_total: rc.num_rules(),
                ec_moves: 0,
                affected_ecs: 0,
                t1_us: 0,
                affected_pairs: 0,
                total_pairs: rc.num_pairs(),
                t2_us: 0,
                t2_full_us: 0,
                samples: ports.len(),
                host_cores: host_cores(),
                peak_rss_kb: 0,
                metrics: Default::default(),
            };
            for port in &ports {
                let (apply, restore) = w.change_at(change, port);
                let report = rc.apply_change(&apply).expect("verifies");
                acc.rules_inserted += report.rules_inserted;
                acc.rules_removed += report.rules_removed;
                acc.ec_moves += report.ec_moves;
                acc.affected_ecs += report.affected_ecs;
                acc.t1_us += report.model_update.as_micros();
                acc.affected_pairs += report.affected_pairs;
                acc.t2_us += report.policy_check.as_micros();
                rc.apply_change(&restore).expect("verifies");
            }
            // Ablation: what would checking cost without
            // incrementality? One full recheck on the settled state.
            let t = Instant::now();
            rc.recheck_policies();
            acc.t2_full_us = t.elapsed().as_micros();

            let n = ports.len();
            acc.rules_inserted /= n;
            acc.rules_removed /= n;
            acc.ec_moves /= n;
            acc.affected_ecs /= n;
            acc.t1_us /= n as u128;
            acc.affected_pairs /= n;
            acc.t2_us /= n as u128;
            acc.peak_rss_kb = peak_rss_kb();
            acc.metrics = rc.metrics_snapshot();
            rows.push(acc);
        }
    }
    rows
}

/// Compare a run's serialized rows against a committed baseline JSON
/// file on every field named in `fields` (the non-timing equivalence
/// gate shared by the `table2`, `table3` and `parallel` binaries: a
/// perf knob — EC index, worker count — must not change *what* is
/// computed, only how fast). Returns the number of fields compared, or
/// a description of every mismatch.
pub fn check_gate(rows_json: &str, baseline_path: &str, fields: &[&str]) -> Result<usize, String> {
    let baseline_text = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("cannot read baseline {baseline_path}: {e}"))?;
    let baseline: serde_json::Value = serde_json::from_str(&baseline_text)
        .map_err(|e| format!("cannot parse baseline {baseline_path}: {e:?}"))?;
    let current: serde_json::Value =
        serde_json::from_str(rows_json).map_err(|e| format!("own output does not parse: {e:?}"))?;
    let (base_rows, cur_rows) = match (baseline.as_array(), current.as_array()) {
        (Some(b), Some(c)) => (b, c),
        _ => return Err("baseline or current results are not a JSON array".into()),
    };
    if base_rows.len() != cur_rows.len() {
        return Err(format!(
            "row count mismatch: baseline {} vs current {}",
            base_rows.len(),
            cur_rows.len()
        ));
    }
    let mut mismatches = Vec::new();
    let mut compared = 0usize;
    for (i, (b, c)) in base_rows.iter().zip(cur_rows).enumerate() {
        for field in fields {
            let (bv, cv) = (b.get(field), c.get(field));
            if bv != cv {
                mismatches.push(format!(
                    "  row {i} field {field:?}: baseline {bv:?} vs current {cv:?}"
                ));
            }
            compared += 1;
        }
    }
    if mismatches.is_empty() {
        Ok(compared)
    } else {
        Err(mismatches.join("\n"))
    }
}

/// A bench binary's command line: `--flag value` pairs, each flag one
/// of the names the binary accepts; a repeated flag keeps its last
/// value. An unknown flag, a missing value or a value that does not
/// parse exits with status 2 and a message listing the accepted flags.
pub struct Flags {
    values: BTreeMap<String, String>,
    expected: String,
}

impl Flags {
    /// Parse this process's arguments against `accepted`.
    pub fn parse(accepted: &[&str]) -> Flags {
        Flags::from_args(accepted, std::env::args().skip(1)).unwrap_or_else(|e| usage_exit(&e))
    }

    fn from_args(
        accepted: &[&str],
        args: impl IntoIterator<Item = String>,
    ) -> Result<Flags, String> {
        let expected = format!("expected {}", accepted.join(" / "));
        let mut values = BTreeMap::new();
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            if !accepted.contains(&flag.as_str()) {
                return Err(format!("unknown argument {flag:?} ({expected})"));
            }
            let Some(value) = args.next() else {
                return Err(format!("{flag} needs a value ({expected})"));
            };
            values.insert(flag, value);
        }
        Ok(Flags { values, expected })
    }

    /// The value of `flag`, or `default` when it was not given.
    pub fn get<T: FromStr>(&self, flag: &str, default: T) -> T {
        self.opt(flag).unwrap_or(default)
    }

    /// The value of `flag`, if it was given.
    pub fn opt<T: FromStr>(&self, flag: &str) -> Option<T> {
        let value = self.values.get(flag)?;
        match value.parse() {
            Ok(v) => Some(v),
            Err(_) => {
                usage_exit(&format!("invalid value {value:?} for {flag} ({})", self.expected))
            }
        }
    }
}

fn usage_exit(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2)
}

/// Write a results file under `bench_results/` atomically (write-temp,
/// fsync, rename via [`rc_store::atomic_write`]): an interrupted or
/// panicking bench run never clobbers a previously committed baseline
/// with a half-written file. Panics on failure, like the direct writes
/// it replaces — a bench that cannot record results should fail loudly.
pub fn write_results(path: &str, contents: &str) {
    let p = std::path::Path::new(path);
    if let Some(dir) = p.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).ok();
        }
    }
    if let Err(e) = rc_store::atomic_write(p, contents.as_bytes()) {
        panic!("cannot write results to {path}: {e}");
    }
}

/// Logical CPU count of the host a bench row was produced on (`0` if
/// the platform cannot report it). Recorded in every row so numbers
/// from differently sized machines are never compared naively; not a
/// gate field.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(0)
}

/// Peak resident set size of this process so far, in KiB, read from
/// `/proc/self/status` (`VmHWM`). Returns `0` on platforms without
/// procfs. A high-water mark: it only grows over the process lifetime,
/// so per-row values in a multi-row run are cumulative, not per-row.
/// Not a gate field.
pub fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            return rest.trim().trim_end_matches("kB").trim().parse().unwrap_or(0);
        }
    }
    0
}

/// Format a duration in the paper's style.
pub fn fmt_us(us: u128) -> String {
    if us >= 1_000_000 {
        format!("{:.2}s", us as f64 / 1e6)
    } else if us >= 1_000 {
        format!("{:.1}ms", us as f64 / 1e3)
    } else {
        format!("{us}µs")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_smoke_ospf() {
        let row = run_table2(4, ProtocolChoice::Ospf, 2, 7);
        assert_eq!(row.nodes, 20);
        assert!(row.rc_full_us > 0);
        assert!(row.link_failure_us > 0);
        // Incremental must be cheaper than full even at toy scale.
        assert!(row.link_failure_us < row.rc_full_us);
    }

    #[test]
    fn flags_parse_values_and_reject_unknown_or_valueless_flags() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let accepted = ["--k", "--out"];
        let f = Flags::from_args(&accepted, args(&["--k", "4", "--k", "6"])).unwrap();
        assert_eq!(f.get("--k", 12u32), 6);
        assert_eq!(f.get("--out", String::from("default.json")), "default.json");
        assert_eq!(f.opt::<String>("--out"), None);

        let err = Flags::from_args(&accepted, args(&["--samples", "2"])).err().unwrap();
        assert_eq!(err, "unknown argument \"--samples\" (expected --k / --out)");
        let err = Flags::from_args(&accepted, args(&["--out"])).err().unwrap();
        assert_eq!(err, "--out needs a value (expected --k / --out)");
    }

    #[test]
    fn table3_smoke() {
        let rows = run_table3(4, 2, 7);
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(r.rules_total > 0);
            assert!(r.total_pairs > 0);
        }
        // Ordering effect: deletion-first does at least as many EC
        // moves as insertion-first for the same change type.
        for pair in rows.chunks(2) {
            assert!(pair[1].ec_moves >= pair[0].ec_moves, "{pair:?}");
        }
    }
}
