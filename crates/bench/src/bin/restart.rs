//! Warm-restart A/B bench: cold build vs snapshot restore vs
//! snapshot restore + journal replay.
//!
//! Usage: `cargo run --release -p realconfig-bench --bin restart \
//!   [-- --k 8 --samples 4 --reps 5 \
//!       --out bench_results/restart.json --check <baseline.json>]`
//!
//! Three ways of bringing the same verifier state up are timed against
//! each other on one BGP fat tree:
//!
//! 1. **cold build** — full pipeline bring-up from configuration
//!    files: lowering, dataflow, APKeep model, policy registration and
//!    a full policy pass.
//! 2. **snapshot restore** — `RealConfig::open` against a state
//!    directory whose newest snapshot already describes the target
//!    state (empty journal, zero records replayed). A snapshot holds
//!    the configurations and the policies with their verdicts, so this
//!    is leg 1's build run over decoded sections: it measures what
//!    reading and decoding the snapshot adds to a cold build.
//! 3. **restore + replay** — `RealConfig::open` against a state
//!    directory whose snapshot is `2 × samples` committed changes
//!    behind the target state, so the journal tail is replayed on top.
//!
//! All three legs end in the same network state; the binary asserts
//! the structural results (FIB rules, ECs, pairs, verdicts) are
//! identical before any timing is reported. Repetitions are
//! interleaved across legs so machine noise hits each equally, and
//! timings are medians. `--check` gates the non-timing fields against
//! a committed baseline.

#![forbid(unsafe_code)]

use rc_netcfg::gen::ProtocolChoice;
use rc_netcfg::topology::host_prefix;
use realconfig::{RealConfig, RestoreSource};
use realconfig_bench::{check_gate, fmt_us, Flags, PaperChange, Workload};
use serde::Serialize;
use std::path::PathBuf;
use std::time::Instant;

/// Fields that must be byte-identical across runs of the same shape.
const GATE_FIELDS: &[&str] =
    &["k", "nodes", "links", "samples", "ecs", "pairs", "fib_rules", "journal_records"];

#[derive(Serialize)]
struct RestartRow {
    k: u32,
    nodes: usize,
    links: usize,
    samples: usize,
    reps: usize,
    ecs: usize,
    pairs: usize,
    fib_rules: usize,
    /// Committed config deltas sitting in the replay leg's journal.
    journal_records: usize,
    /// Median wall time of a full cold bring-up (build + policies +
    /// full policy pass), µs.
    cold_build_us: u128,
    /// Median wall time of `RealConfig::open` against an up-to-date
    /// snapshot (no journal records to replay), µs.
    snapshot_restore_us: u128,
    /// Median wall time of `RealConfig::open` against a stale snapshot
    /// plus `journal_records` replayed deltas, µs.
    journal_replay_us: u128,
    /// On-disk size of the up-to-date snapshot, bytes.
    snapshot_size_bytes: u64,
    /// Process peak RSS in KiB when the row was finalized.
    peak_rss_kb: u64,
    note: String,
}

fn median(mut v: Vec<u128>) -> u128 {
    v.sort_unstable();
    v[v.len() / 2]
}

/// A state-dir scratch path that is cleaned up on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir()
            .join(format!("rc-bench-restart-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn main() {
    let flags = Flags::parse(&["--k", "--samples", "--reps", "--out", "--check"]);
    let k: u32 = flags.get("--k", 8);
    let samples: usize = flags.get("--samples", 4);
    let reps: usize = flags.get("--reps", 5);
    let out: String = flags.get("--out", "bench_results/restart.json".into());
    let check: Option<String> = flags.opt("--check");
    println!("Warm-restart A/B: BGP fat tree k={k}, {samples} churn changes, {reps} reps.\n");

    let w = Workload::fat_tree(k, ProtocolChoice::Bgp);
    let ports = w.sample_ports(samples, 0xC0FFEE);
    let policies = |rc: &mut RealConfig| {
        rc.require_reachability("pod00-edge00", "pod01-edge00", host_prefix(2))
            .expect("devices exist");
        rc.add_policy(realconfig::Policy::LoopFree { class: realconfig::PacketClass::All });
        rc.recheck_policies();
    };

    // Reference verifier: the target state every leg must reach. The
    // churn legs apply each sampled failure and its restore, so the
    // final configurations equal the initial ones — but each commit is
    // a journal record, which is exactly what the replay leg replays.
    eprintln!("building reference verifier…");
    let (mut reference, _) = RealConfig::new(w.configs.clone()).expect("workload verifies");
    policies(&mut reference);

    // State dir A: snapshot taken at the target state — pure restore.
    let snap_dir = ScratchDir::new("snap");
    reference.attach_state_dir(&snap_dir.0).expect("state dir creatable");
    reference.save_snapshot().expect("snapshot writes");

    // State dir B: snapshot taken at the target state, then 2×samples
    // committed churn deltas journaled on top (ending back at the
    // target configs) — restore + replay.
    let journal_dir = ScratchDir::new("journal");
    reference.attach_state_dir(&journal_dir.0).expect("state dir creatable");
    reference.save_snapshot().expect("snapshot writes");
    for port in &ports {
        let (apply, restore) = w.change_at(PaperChange::LinkFailure, port);
        reference.apply_change(&apply).expect("change verifies");
        reference.apply_change(&restore).expect("restore verifies");
    }
    let journal_records = reference.journaled_changes() as usize;
    assert_eq!(journal_records, 2 * ports.len(), "every churn commit must journal");

    let snapshot_size_bytes = std::fs::read_dir(&snap_dir.0)
        .expect("state dir readable")
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().starts_with("snap-"))
        .map(|e| e.metadata().map(|m| m.len()).unwrap_or(0))
        .max()
        .unwrap_or(0);

    // Structural determinism across all three legs, before any timing.
    let specs = reference.policy_specs();
    let check_leg = |rc: &RealConfig, leg: &str| {
        assert_eq!(rc.num_fib_rules(), reference.num_fib_rules(), "{leg}: FIB diverged");
        assert_eq!(rc.num_ecs(), reference.num_ecs(), "{leg}: EC count diverged");
        assert_eq!(rc.num_pairs(), reference.num_pairs(), "{leg}: pair count diverged");
        assert_eq!(rc.policy_specs(), specs, "{leg}: policy verdicts diverged");
    };

    // Interleave reps across legs so noise is shared.
    let mut cold_us = Vec::new();
    let mut restore_us = Vec::new();
    let mut replay_us = Vec::new();
    for rep in 0..reps {
        let start = Instant::now();
        let (mut cold, _) = RealConfig::new(w.configs.clone()).expect("cold build verifies");
        policies(&mut cold);
        cold_us.push(start.elapsed().as_micros());
        check_leg(&cold, "cold");
        drop(cold);

        let start = Instant::now();
        let (restored, report) =
            RealConfig::open(&snap_dir.0, w.configs.clone()).expect("restore succeeds");
        restore_us.push(start.elapsed().as_micros());
        assert!(
            matches!(report.source, RestoreSource::Snapshot { .. }),
            "restore leg fell off the snapshot rung: {:?}",
            report.source
        );
        assert_eq!(report.replayed, 0, "restore leg must not replay");
        check_leg(&restored, "restore");
        drop(restored);

        let start = Instant::now();
        let (replayed, report) =
            RealConfig::open(&journal_dir.0, w.configs.clone()).expect("replay succeeds");
        replay_us.push(start.elapsed().as_micros());
        assert!(
            matches!(report.source, RestoreSource::Snapshot { .. }),
            "replay leg fell off the snapshot rung: {:?}",
            report.source
        );
        assert_eq!(report.replayed, journal_records, "replay leg replays the whole journal");
        check_leg(&replayed, "replay");
        drop(replayed);

        eprintln!(
            "[rep {rep}] cold {} restore {} restore+replay {}",
            fmt_us(*cold_us.last().unwrap()),
            fmt_us(*restore_us.last().unwrap()),
            fmt_us(*replay_us.last().unwrap())
        );
    }

    let row = RestartRow {
        k,
        nodes: w.topo.num_devices(),
        links: w.topo.num_links(),
        samples: ports.len(),
        reps,
        ecs: reference.num_ecs(),
        pairs: reference.num_pairs(),
        fib_rules: reference.num_fib_rules(),
        journal_records,
        cold_build_us: median(cold_us),
        snapshot_restore_us: median(restore_us),
        journal_replay_us: median(replay_us),
        snapshot_size_bytes,
        peak_rss_kb: realconfig_bench::peak_rss_kb(),
        note: String::new(),
    };

    println!(
        "\n{:<22} {:>14}\n{:<22} {:>14}\n{:<22} {:>14}",
        "cold build",
        fmt_us(row.cold_build_us),
        "snapshot restore",
        fmt_us(row.snapshot_restore_us),
        "restore + replay",
        fmt_us(row.journal_replay_us)
    );
    println!(
        "snapshot size: {} bytes; restore speedup over cold: {:.2}x (pure), {:.2}x (+{} replays)",
        row.snapshot_size_bytes,
        row.cold_build_us as f64 / row.snapshot_restore_us.max(1) as f64,
        row.cold_build_us as f64 / row.journal_replay_us.max(1) as f64,
        row.journal_records
    );

    let rows_json = serde_json::to_string_pretty(std::slice::from_ref(&row)).expect("serializes");
    if let Some(baseline) = &check {
        match check_gate(&rows_json, baseline, GATE_FIELDS) {
            Ok(n) => println!(
                "\nEquivalence gate vs {baseline}: {n} structural fields byte-identical — PASS"
            ),
            Err(msg) => {
                eprintln!("\nEquivalence gate vs {baseline} FAILED:\n{msg}");
                std::process::exit(1);
            }
        }
    }
    realconfig_bench::write_results(&out, &rows_json);
    println!("Raw results: {out}");
}
