//! Sustained-maintenance benchmark (paper §2, "Regular maintenance"):
//! a long-running verifier absorbing a stream of small changes, as a
//! network team would produce over weeks. Reports latency percentiles
//! over the stream and its first and last quarters — the
//! operator-facing promise is *flat* per-change latency, however long
//! the verifier has been running.
//!
//! Usage: `cargo run --release -p realconfig-bench --bin churn [-- --k 6 --changes 400]`
//!
//! `--fault-every N` additionally injects a deterministic fault
//! (rotating across the three stage boundaries) into every Nth change
//! and runs the verifier with the self-healing
//! [`OnFailure::Rebuild`] policy, recording full-rebuild latency
//! alongside the incremental percentiles.

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

use rc_netcfg::gen::ProtocolChoice;
use realconfig::{OnFailure, RealConfig, VerifierOptions};
use realconfig_bench::{stream, Flags, Workload};
use serde::Serialize;

#[derive(Serialize)]
struct ChurnResult {
    k: u32,
    changes: usize,
    p50_us: u128,
    p95_us: u128,
    max_us: u128,
    first_quarter_mean_us: u128,
    last_quarter_mean_us: u128,
    /// Fault-injection cadence (0: fault-free run).
    fault_every: usize,
    /// Self-healing full rebuilds triggered by injected faults.
    rebuilds: u64,
    /// Rebuild latency percentiles from the `verifier.rebuild_us`
    /// histogram (0 when no rebuild happened).
    rebuild_p50_us: u64,
    rebuild_max_us: u64,
    /// Logical CPUs of the host (context for the latency columns).
    host_cores: usize,
    /// Process peak RSS in KiB at the end of the stream (cumulative
    /// across the runs of one invocation).
    peak_rss_kb: u64,
    /// Pipeline-wide telemetry at the end of the stream.
    metrics: realconfig::MetricsSnapshot,
}

/// One-shot fault plan for round `round`, rotating across the stage
/// boundaries (stage 1 takes the error channel, stages 2 and 3 panic).
fn rotating_fault(round: usize) -> rc_faults::FaultGuard {
    let point = rc_faults::FaultPoint::ALL[round % rc_faults::FaultPoint::ALL.len()];
    if point == rc_faults::FaultPoint::EngineApply {
        rc_faults::FaultPlan::new().error_on(point, 1).install()
    } else {
        rc_faults::FaultPlan::new().panic_on(point, 1).install()
    }
}

/// Silence the default panic hook for injected-fault panics only.
fn quiet_injected_panics() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|s| s.starts_with(rc_faults::INJECTED_PANIC_PREFIX))
            || info
                .payload()
                .downcast_ref::<&str>()
                .is_some_and(|s| s.starts_with(rc_faults::INJECTED_PANIC_PREFIX));
        if !injected {
            default(info);
        }
    }));
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

fn run_stream(w: &Workload, changes: usize, seed: u64, fault_every: usize) -> ChurnResult {
    // Faulted runs self-heal: the rebuild fallback is the failure policy.
    let opts = VerifierOptions {
        on_failure: if fault_every > 0 { OnFailure::Rebuild } else { OnFailure::Poison },
        ..Default::default()
    };
    let (mut rc, _) = RealConfig::with_options(w.configs.clone(), opts).expect("verifies");
    let mut lat: Vec<Duration> = Vec::with_capacity(changes);
    // The shared uniform-churn generator: stateful link fail/restore
    // (fail only up links, restore only down ones), same stream the
    // `throughput` bin feeds its ingest queue.
    for (i, cs) in stream::uniform_churn(w, changes, seed).iter().enumerate() {
        let _guard =
            (fault_every > 0 && i % fault_every == 0).then(|| rotating_fault(i / fault_every));
        let t = Instant::now();
        rc.apply_change(cs).expect("verifies (self-healing under faults)");
        lat.push(t.elapsed());
    }

    let quarter = lat.len() / 4;
    let mean = |s: &[Duration]| {
        (s.iter().sum::<Duration>() / s.len().max(1) as u32).as_micros()
    };
    let (first, last) = (mean(&lat[..quarter]), mean(&lat[lat.len() - quarter..]));
    lat.sort();
    let metrics = rc.metrics_snapshot();
    let rebuild_hist = metrics.histograms.get("verifier.rebuild_us");
    ChurnResult {
        k: w.k,
        changes: lat.len(),
        p50_us: percentile(&lat, 0.5).as_micros(),
        p95_us: percentile(&lat, 0.95).as_micros(),
        max_us: percentile(&lat, 1.0).as_micros(),
        first_quarter_mean_us: first,
        last_quarter_mean_us: last,
        fault_every,
        rebuilds: metrics.counters.get("verifier.rebuilds").copied().unwrap_or(0),
        rebuild_p50_us: rebuild_hist.map_or(0, |h| h.p50),
        rebuild_max_us: rebuild_hist.map_or(0, |h| h.max),
        host_cores: realconfig_bench::host_cores(),
        peak_rss_kb: realconfig_bench::peak_rss_kb(),
        metrics,
    }
}

fn main() {
    let flags = Flags::parse(&["--k", "--changes", "--fault-every"]);
    let k: u32 = flags.get("--k", 6);
    let changes: usize = flags.get("--changes", 400);
    let fault_every: usize = flags.get("--fault-every", 0);
    let w = Workload::fat_tree(k, ProtocolChoice::Ospf);
    println!(
        "Churn stream: k={k} fat tree OSPF ({} devices), {changes} link fail/restore changes{}.\n",
        w.topo.num_devices(),
        if fault_every > 0 {
            format!(", injected fault every {fault_every} changes")
        } else {
            String::new()
        }
    );
    if fault_every > 0 {
        quiet_injected_panics();
    }

    let r = run_stream(&w, changes, 0xFEED, fault_every);
    println!(
        "p50 {:>8} p95 {:>8} max {:>8} | mean first-¼ {:>8} last-¼ {:>8}{}",
        realconfig_bench::fmt_us(r.p50_us),
        realconfig_bench::fmt_us(r.p95_us),
        realconfig_bench::fmt_us(r.max_us),
        realconfig_bench::fmt_us(r.first_quarter_mean_us),
        realconfig_bench::fmt_us(r.last_quarter_mean_us),
        if r.last_quarter_mean_us > 2 * r.first_quarter_mean_us {
            "   ← latency grows with history"
        } else {
            ""
        }
    );
    if fault_every > 0 {
        println!(
            "{} self-healing rebuilds: p50 {} max {}",
            r.rebuilds,
            realconfig_bench::fmt_us(r.rebuild_p50_us as u128),
            realconfig_bench::fmt_us(r.rebuild_max_us as u128),
        );
    }
    realconfig_bench::write_results(
        "bench_results/churn.json",
        &serde_json::to_string_pretty([r].as_slice()).expect("serializes"),
    );
    println!("Raw results: bench_results/churn.json");
}
