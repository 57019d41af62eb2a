//! Sustained-churn throughput harness: how many configuration changes
//! per second can the verifier absorb, and at what latency and memory
//! cost?
//!
//! Drives the ingest queue + adaptive batch coalescer
//! ([`stream::apply_stream`]) with two arrival profiles:
//!
//! - **burst**: maintenance windows (link-group bounces and rule-swap
//!   storms from [`stream::maintenance_bursts`]) arriving
//!   near-simultaneously inside each window — the workload coalescing
//!   exists for;
//! - **poisson**: the uniform churn stream with memoryless arrivals —
//!   the steady-state feed.
//!
//! For each profile three A/B legs run *interleaved in this one
//! binary* on identical streams: one-at-a-time application (the
//! degenerate `CoalescePolicy::one_at_a_time`, same code path),
//! coalescing under insertion-first ordering, and coalescing under
//! deletion-first ordering.
//!
//! Every leg must converge to the identical final state
//! (`ab_identical`: FIB set, rule and pair counts equal to the serial
//! leg's) — coalescing changes speed and memory, never results. `--check` gates the deterministic fields against a
//! committed baseline, like the table2/table3 bins.
//!
//! Usage: `cargo run --release -p realconfig-bench --bin throughput \
//!   [-- --k 8 --windows 24 --changes 240 --out bench_results/throughput.json \
//!       --check <baseline.json>]`

#![forbid(unsafe_code)]

use std::collections::BTreeSet;

use rc_netcfg::gen::ProtocolChoice;
use rc_netcfg::ChangeSet;
use realconfig::{RealConfig, UpdateOrder, VerifierOptions};
use realconfig_bench::stream::{self, CoalescePolicy};
use realconfig_bench::{check_gate, fmt_us, Flags, Workload};
use serde::Serialize;

/// Fields that must be byte-identical between a run and the committed
/// baseline: the stream definition and the final verified state. Batch
/// boundaries, latencies and throughput depend on the host's measured
/// apply times and are deliberately absent.
const GATE_FIELDS: &[&str] = &[
    "k",
    "profile",
    "mode",
    "arrivals",
    "final_fib",
    "final_rules",
    "final_pairs",
    "ab_identical",
];

#[derive(Serialize)]
struct ThroughputRow {
    k: u32,
    /// Arrival profile: "burst" or "poisson".
    profile: String,
    /// Apply mode: "serial", "coalesce(+,-)" or "coalesce(-,+)".
    mode: String,
    /// Changes that arrived on the stream (deterministic).
    arrivals: usize,
    /// Transactional applies actually performed.
    batches: usize,
    /// Batches that folded to a net no-op and skipped the pipeline.
    noop_batches: usize,
    /// Operations cancelled by last-writer-wins folding.
    cancelled_ops: usize,
    /// Largest number of changes folded into one apply.
    max_coalesced: usize,
    /// Deepest the ingest queue got.
    max_queue_depth: usize,
    /// Sustained throughput over the stream's span.
    changes_per_sec: f64,
    /// Per-change latency percentiles (completion of carrying batch
    /// minus arrival).
    p50_us: u64,
    p99_us: u64,
    /// Pipeline busy time vs stream span, microseconds.
    busy_us: u64,
    span_us: u64,
    /// Final verified state — identical across all legs of a profile.
    final_fib: usize,
    final_rules: usize,
    final_pairs: usize,
    /// True iff this leg's final FIB set, rule count and pair count
    /// equal the serial leg's (the equal-correctness half of the A/B).
    ab_identical: bool,
    /// Trace records retained in the dataflow spine at end of run.
    trace_records: usize,
    /// Logical CPUs of the host (context for the timing columns).
    host_cores: usize,
    /// Process peak RSS in KiB at the end of this leg (cumulative
    /// across the legs of one invocation).
    peak_rss_kb: u64,
    /// Pipeline-wide telemetry at the end of the leg.
    metrics: realconfig::MetricsSnapshot,
}

/// Final-state fingerprint of a finished leg.
struct FinalState {
    fib: BTreeSet<realconfig::FibEntry>,
    rules: usize,
    pairs: usize,
}

/// Everything that distinguishes one A/B leg: its labels, the batch
/// ordering and the coalescing policy.
struct Leg<'a> {
    profile: &'a str,
    mode: &'a str,
    order: UpdateOrder,
    policy: &'a CoalescePolicy,
}

fn run_leg(
    w: &Workload,
    arrivals: &[(u64, ChangeSet)],
    leg: &Leg<'_>,
    reference: Option<&FinalState>,
) -> (ThroughputRow, FinalState) {
    let opts = VerifierOptions { order: leg.order, ..Default::default() };
    let (mut rc, _) =
        RealConfig::with_options(w.configs.clone(), opts).expect("workload verifies");
    let report =
        stream::apply_stream(&mut rc, arrivals.to_vec(), leg.policy).expect("stream verifies");
    let state = FinalState { fib: rc.fib(), rules: rc.num_rules(), pairs: rc.num_pairs() };
    let ab_identical = reference
        .map(|r| r.fib == state.fib && r.rules == state.rules && r.pairs == state.pairs)
        .unwrap_or(true);
    let row = ThroughputRow {
        k: w.k,
        profile: leg.profile.into(),
        mode: leg.mode.into(),
        arrivals: report.arrivals,
        batches: report.batches,
        noop_batches: report.noop_batches,
        cancelled_ops: report.cancelled_ops,
        max_coalesced: report.max_coalesced,
        max_queue_depth: report.max_queue_depth,
        changes_per_sec: report.changes_per_sec(),
        p50_us: report.latency_percentile_us(50.0),
        p99_us: report.latency_percentile_us(99.0),
        busy_us: report.busy_us,
        span_us: report.span_us,
        final_fib: state.fib.len(),
        final_rules: state.rules,
        final_pairs: state.pairs,
        ab_identical,
        trace_records: rc.trace_records(),
        host_cores: realconfig_bench::host_cores(),
        peak_rss_kb: realconfig_bench::peak_rss_kb(),
        metrics: rc.metrics_snapshot(),
    };
    (row, state)
}

fn main() {
    let flags = Flags::parse(&["--k", "--windows", "--changes", "--out", "--check"]);
    let k: u32 = flags.get("--k", 8);
    let windows: usize = flags.get("--windows", 24);
    let changes: usize = flags.get("--changes", 240);
    let out: String = flags.get("--out", "bench_results/throughput.json".into());
    let check: Option<String> = flags.opt("--check");
    let w = Workload::fat_tree(k, ProtocolChoice::Ospf);
    println!(
        "Throughput harness: k={k} fat tree OSPF ({} devices), {windows} maintenance windows \
         (burst), {changes} churn events (poisson).\n",
        w.topo.num_devices(),
    );

    // Burst profile: maintenance windows, near-simultaneous arrivals
    // inside each window, 20ms quiet periods between windows.
    let bursts = stream::maintenance_bursts(&w, windows, 0xB07);
    let sizes: Vec<usize> = bursts.iter().map(|b| b.len()).collect();
    let times = stream::burst_arrivals(&sizes, 1, 20_000);
    let burst_stream: Vec<(u64, ChangeSet)> = times
        .into_iter()
        .zip(bursts.into_iter().flatten())
        .collect();

    // Poisson profile: uniform churn with a 500µs mean inter-arrival
    // gap — well below the per-change pipeline latency at k≥8, so the
    // queue deepens and coalescing has something to fold.
    let churn = stream::uniform_churn(&w, changes, 0xFEED);
    let churn_stream: Vec<(u64, ChangeSet)> = stream::poisson_arrivals(churn.len(), 500.0, 0x9015)
        .into_iter()
        .zip(churn)
        .collect();

    let coalesce = CoalescePolicy::default();
    let serial = CoalescePolicy::one_at_a_time();

    let mut rows: Vec<ThroughputRow> = Vec::new();
    for (profile, arrivals) in [("burst", &burst_stream), ("poisson", &churn_stream)] {
        // Interleaved A/B on the identical stream: serial reference
        // first, then the coalescing legs compared against it.
        let (row, reference) = run_leg(
            &w,
            arrivals,
            &Leg { profile, mode: "serial", order: UpdateOrder::InsertFirst, policy: &serial },
            None,
        );
        print_row(&row);
        let serial_cps = row.changes_per_sec;
        rows.push(row);
        for (mode, order) in [
            ("coalesce(+,-)", UpdateOrder::InsertFirst),
            ("coalesce(-,+)", UpdateOrder::DeleteFirst),
        ] {
            let (row, _) = run_leg(
                &w,
                arrivals,
                &Leg { profile, mode, order, policy: &coalesce },
                Some(&reference),
            );
            print_row(&row);
            if profile == "burst" && mode == "coalesce(+,-)" {
                println!(
                    "  → coalescing sustains {:.1}x the serial rate under bursts ({})",
                    row.changes_per_sec / serial_cps.max(f64::MIN_POSITIVE),
                    if row.changes_per_sec > serial_cps { "HOLDS" } else { "DOES NOT HOLD" },
                );
            }
            rows.push(row);
        }
    }

    let all_identical = rows.iter().all(|r| r.ab_identical);
    println!(
        "\nEqual-correctness check: every leg reached the serial leg's final state ({}).",
        if all_identical { "HOLDS" } else { "DOES NOT HOLD" },
    );

    let rows_json = serde_json::to_string_pretty(&rows).expect("serializes");
    if let Some(baseline) = &check {
        match check_gate(&rows_json, baseline, GATE_FIELDS) {
            Ok(n) => println!(
                "Equivalence gate vs {baseline}: {n} non-timing fields byte-identical — PASS"
            ),
            Err(msg) => {
                eprintln!("Equivalence gate vs {baseline} FAILED:\n{msg}");
                std::process::exit(1);
            }
        }
    }
    if !all_identical {
        eprintln!("final-state divergence between A/B legs — coalescing changed results");
        std::process::exit(1);
    }

    realconfig_bench::write_results(&out, &rows_json);
    println!("Raw results: {out}");
}

fn print_row(r: &ThroughputRow) {
    println!(
        "{:<8} {:<14} {:>7.1} ch/s  p50 {:>8} p99 {:>8}  depth {:>3}  folded≤{:<3} \
         noop {:>2}  rss {:>7} KiB",
        r.profile,
        r.mode,
        r.changes_per_sec,
        fmt_us(r.p50_us as u128),
        fmt_us(r.p99_us as u128),
        r.max_queue_depth,
        r.max_coalesced,
        r.noop_batches,
        r.peak_rss_kb,
    );
}
