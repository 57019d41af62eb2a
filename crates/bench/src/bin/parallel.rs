//! Thread-scaling smoke bench for the parallel policy-checking phase.
//!
//! Usage: `cargo run --release -p realconfig-bench --bin parallel \
//!   [-- --k 6 --samples 4 --reps 3 --threads 1,2,4 \
//!       --out bench_results/parallel.json --check <baseline.json>]`
//!
//! One verifier per worker count is driven through the same workload —
//! a full policy pass, a LinkFailure churn leg, and a from-scratch
//! full build (config lowering through dataflow, model and policy
//! bring-up) — with repetitions interleaved across worker counts so
//! machine noise hits every configuration equally. Structural results
//! (ECs, pairs, verdicts) must be identical for every worker count;
//! the binary asserts that before reporting timings, and `--check`
//! additionally gates them against a committed baseline. Timings are
//! medians; `host_cores` records how much hardware parallelism was
//! actually available (on a single-core host the >1-thread legs
//! measure overhead, not speedup).

#![forbid(unsafe_code)]

use rc_netcfg::gen::ProtocolChoice;
use rc_netcfg::topology::host_prefix;
use realconfig::{RealConfig, VerifierOptions};
use realconfig_bench::{check_gate, fmt_us, Flags, PaperChange, Workload};
use serde::Serialize;
use std::time::Instant;

/// Fields that must be byte-identical across worker counts and runs.
const GATE_FIELDS: &[&str] = &["threads", "k", "nodes", "links", "samples", "ecs", "pairs"];

#[derive(Serialize)]
struct ParallelRow {
    threads: usize,
    k: u32,
    nodes: usize,
    links: usize,
    samples: usize,
    reps: usize,
    ecs: usize,
    pairs: usize,
    /// Median wall time of one full policy pass, µs.
    check_full_us: u128,
    /// Median wall time of the LinkFailure apply+restore churn leg
    /// (`samples` changes), µs.
    churn_wall_us: u128,
    /// Median wall time of one from-scratch full build of the whole
    /// pipeline at this worker count, µs.
    build_full_us: u128,
    /// Hardware threads the host actually had during the run.
    host_cores: usize,
    /// Process peak RSS in KiB when the rows were finalized (shared
    /// across all worker counts of one run; not a gate field).
    peak_rss_kb: u64,
    note: String,
}

fn median(mut v: Vec<u128>) -> u128 {
    v.sort_unstable();
    v[v.len() / 2]
}

fn main() {
    let flags = Flags::parse(&["--k", "--samples", "--reps", "--threads", "--out", "--check"]);
    let k: u32 = flags.get("--k", 6);
    let samples: usize = flags.get("--samples", 4);
    let reps: usize = flags.get("--reps", 3);
    let threads: Vec<usize> = flags
        .get("--threads", String::from("1,2,4"))
        .split(',')
        .map(|s| s.trim().parse().expect("--threads N,N,…"))
        .collect();
    let out: String = flags.get("--out", "bench_results/parallel.json".into());
    let check: Option<String> = flags.opt("--check");
    let host_cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!(
        "Parallel policy-check scaling: BGP fat tree k={k}, {samples} changes × {reps} reps, \
         worker counts {threads:?}, host cores {host_cores}.\n"
    );

    let w = Workload::fat_tree(k, ProtocolChoice::Bgp);
    let ports = w.sample_ports(samples, 0xC0FFEE);

    // One verifier per worker count, identical workload and policies.
    let mut rcs: Vec<(usize, RealConfig)> = Vec::new();
    for &t in &threads {
        eprintln!("[threads={t}] building verifier…");
        let opts = VerifierOptions { threads: Some(t), ..Default::default() };
        let (mut rc, _) =
            RealConfig::with_options(w.configs.clone(), opts).expect("workload verifies");
        rc.require_reachability("pod00-edge00", "pod01-edge00", host_prefix(2))
            .expect("devices exist");
        rc.add_policy(realconfig::Policy::LoopFree { class: realconfig::PacketClass::All });
        rc.recheck_policies();
        rcs.push((t, rc));
    }

    // Structural determinism across worker counts, before any timing.
    let (ecs0, pairs0) = (rcs[0].1.num_ecs(), rcs[0].1.num_pairs());
    for (t, rc) in &rcs {
        assert_eq!(rc.num_ecs(), ecs0, "threads={t}: EC count diverged");
        assert_eq!(rc.num_pairs(), pairs0, "threads={t}: pair count diverged");
    }

    // Interleave reps across worker counts so noise is shared.
    let mut full_us = vec![Vec::new(); rcs.len()];
    let mut churn_us = vec![Vec::new(); rcs.len()];
    let mut build_us = vec![Vec::new(); rcs.len()];
    // Fresh builds carry no policies, so their EC count is compared
    // against the first fresh build, not against the policy-bearing
    // verifiers above.
    let mut build_ecs: Option<usize> = None;
    for rep in 0..reps {
        for (i, (t, rc)) in rcs.iter_mut().enumerate() {
            let start = Instant::now();
            rc.recheck_policies();
            full_us[i].push(start.elapsed().as_micros());

            let start = Instant::now();
            for port in &ports {
                let (apply, restore) = w.change_at(PaperChange::LinkFailure, port);
                rc.apply_change(&apply).expect("change verifies");
                rc.apply_change(&restore).expect("restore verifies");
            }
            churn_us[i].push(start.elapsed().as_micros());

            // From-scratch full build A/B at the same worker count.
            let start = Instant::now();
            let (built, _) = RealConfig::with_options(w.configs.clone(), *rc.options())
                .expect("full build verifies");
            build_us[i].push(start.elapsed().as_micros());
            let ecs = *build_ecs.get_or_insert(built.num_ecs());
            assert_eq!(built.num_ecs(), ecs, "threads={t}: full-build EC count diverged");
            drop(built);

            eprintln!(
                "[rep {rep}] threads={t}: full {} churn {} build {}",
                fmt_us(*full_us[i].last().unwrap()),
                fmt_us(*churn_us[i].last().unwrap()),
                fmt_us(*build_us[i].last().unwrap())
            );
        }
    }

    let rows: Vec<ParallelRow> = rcs
        .iter()
        .enumerate()
        .map(|(i, (t, rc))| ParallelRow {
            threads: *t,
            k,
            nodes: w.topo.num_devices(),
            links: w.topo.num_links(),
            samples: ports.len(),
            reps,
            ecs: rc.num_ecs(),
            pairs: rc.num_pairs(),
            check_full_us: median(full_us[i].clone()),
            churn_wall_us: median(churn_us[i].clone()),
            build_full_us: median(build_us[i].clone()),
            host_cores,
            peak_rss_kb: realconfig_bench::peak_rss_kb(),
            note: if host_cores > 1 {
                String::new()
            } else {
                "single-core host: >1-thread legs measure pool overhead, not speedup".into()
            },
        })
        .collect();

    println!(
        "\n{:<8} {:>14} {:>14} {:>14}",
        "Threads", "check_full", "churn wall", "build_full"
    );
    for r in &rows {
        println!(
            "{:<8} {:>14} {:>14} {:>14}",
            r.threads,
            fmt_us(r.check_full_us),
            fmt_us(r.churn_wall_us),
            fmt_us(r.build_full_us)
        );
    }
    let base = rows.iter().find(|r| r.threads == 1);
    if let Some(base) = base {
        for r in rows.iter().filter(|r| r.threads > 1) {
            println!(
                "threads={} speedup over serial: check_full {:.2}x, churn {:.2}x, build {:.2}x",
                r.threads,
                base.check_full_us as f64 / r.check_full_us.max(1) as f64,
                base.churn_wall_us as f64 / r.churn_wall_us.max(1) as f64,
                base.build_full_us as f64 / r.build_full_us.max(1) as f64,
            );
        }
    }
    if host_cores == 1 {
        println!("NOTE: single-core host — scaling cannot manifest; structural gate still applies.");
    }

    let rows_json = serde_json::to_string_pretty(&rows).expect("serializes");
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
