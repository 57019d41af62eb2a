//! Interleaved A/B of the two predicate backends (BDDs vs Delta-net
//! interval atoms) on the BGP fat-tree dst-prefix workload.
//!
//! Usage: `cargo run --release -p realconfig-bench --bin backend \
//!   [-- --k 8 --samples 10 --out bench_results/backend.json]`
//!
//! One verifier per backend over the *same* sampled change sequence,
//! with per-change interleaving (bdd then atoms on even samples, atoms
//! then bdd on odd) so allocator and frequency drift hit both equally.
//! Every change's report must agree between the backends on all
//! non-timing fields — any divergence is a correctness bug and the
//! binary exits non-zero. Timings are compared as the sum over change
//! types of the per-change median T1 (model update), the robust summary
//! the acceptance gate uses: atoms is expected at parity or better on
//! this dst-prefix-only workload.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;

use realconfig::{PredKind, RealConfig, VerifierOptions};
use realconfig_bench::{fmt_us, Flags, PaperChange, Workload};
use rc_netcfg::gen::ProtocolChoice;
use serde::Serialize;

/// Per (change type, backend) summary over the sampled changes.
#[derive(Serialize)]
struct ChangeRow {
    change: String,
    backend: String,
    samples: usize,
    /// Per-change model-update times, µs (one entry per sampled port).
    t1_us: Vec<u128>,
    median_t1_us: u128,
    median_t2_us: u128,
}

#[derive(Serialize)]
struct Output {
    k: u32,
    samples: usize,
    rules_total: usize,
    total_pairs: usize,
    rows: Vec<ChangeRow>,
    /// Sum over change types of the per-change median T1, per backend.
    summed_median_t1_us: BTreeMap<String, u128>,
    /// atoms summed-median T1 relative to bdd (< 1.0: atoms faster).
    atoms_over_bdd_t1: f64,
    /// Number of per-change report comparisons that were byte-identical
    /// on non-timing fields (all of them, or the binary exited 1).
    reports_compared: usize,
}

fn median(mut v: Vec<u128>) -> u128 {
    v.sort_unstable();
    if v.is_empty() {
        0
    } else {
        v[v.len() / 2]
    }
}

fn main() {
    let flags = Flags::parse(&["--k", "--samples", "--out"]);
    let k: u32 = flags.get("--k", 8);
    let samples: usize = flags.get("--samples", 10);
    let out_path: String = flags.get("--out", "bench_results/backend.json".into());
    println!(
        "Backend A/B: BGP fat tree k={k}, {samples} sampled changes per type, \
         interleaved bdd/atoms.\n"
    );
    let w = Workload::fat_tree(k, ProtocolChoice::Bgp);
    let ports = w.sample_ports(samples, 0xC0FFEE);

    eprintln!("building one verifier per backend…");
    let build = |backend| {
        let opts = VerifierOptions { backend, ..Default::default() };
        RealConfig::with_options(w.configs.clone(), opts).expect("workload verifies").0
    };
    let (mut rc_bdd, mut rc_atoms) = (build(PredKind::Bdd), build(PredKind::Atoms));

    let mut rows = Vec::new();
    let mut reports_compared = 0usize;
    for change in [PaperChange::LinkFailure, PaperChange::LocalPref] {
        let mut t1: BTreeMap<&str, Vec<u128>> = BTreeMap::new();
        let mut t2: BTreeMap<&str, Vec<u128>> = BTreeMap::new();
        for (i, port) in ports.iter().enumerate() {
            let (apply, restore) = w.change_at(change, port);
            // Interleave: alternate which backend goes first so neither
            // consistently runs on a warmer cache / higher clock.
            let run = |rc: &mut RealConfig| {
                let report = rc.apply_change(&apply).expect("verifies");
                rc.apply_change(&restore).expect("verifies");
                rc.compact();
                report
            };
            let (rb, ra) = if i % 2 == 0 {
                let rb = run(&mut rc_bdd);
                (rb, run(&mut rc_atoms))
            } else {
                let ra = run(&mut rc_atoms);
                (run(&mut rc_bdd), ra)
            };
            let same = rb.rules_inserted == ra.rules_inserted
                && rb.rules_removed == ra.rules_removed
                && rb.ec_moves == ra.ec_moves
                && rb.affected_ecs == ra.affected_ecs
                && rb.affected_pairs == ra.affected_pairs
                && rb.newly_violated == ra.newly_violated
                && rb.newly_satisfied == ra.newly_satisfied;
            if !same {
                eprintln!(
                    "backend divergence at {} sample {i} ({port:?}):\n  bdd   {rb:?}\n  atoms {ra:?}",
                    change.label()
                );
                std::process::exit(1);
            }
            reports_compared += 1;
            t1.entry("bdd").or_default().push(rb.model_update.as_micros());
            t1.entry("atoms").or_default().push(ra.model_update.as_micros());
            t2.entry("bdd").or_default().push(rb.policy_check.as_micros());
            t2.entry("atoms").or_default().push(ra.policy_check.as_micros());
        }
        for backend in ["bdd", "atoms"] {
            let t1s = t1.remove(backend).unwrap_or_default();
            rows.push(ChangeRow {
                change: change.label().into(),
                backend: backend.into(),
                samples: ports.len(),
                median_t1_us: median(t1s.clone()),
                median_t2_us: median(t2.remove(backend).unwrap_or_default()),
                t1_us: t1s,
            });
        }
    }

    let mut summed: BTreeMap<String, u128> = BTreeMap::new();
    for r in &rows {
        *summed.entry(r.backend.clone()).or_default() += r.median_t1_us;
    }
    let ratio = summed["atoms"] as f64 / summed["bdd"].max(1) as f64;

    println!("{:<12} {:>7} {:>12} {:>12}", "Change", "Backend", "median T1", "median T2");
    for r in &rows {
        println!(
            "{:<12} {:>7} {:>12} {:>12}",
            r.change,
            r.backend,
            fmt_us(r.median_t1_us),
            fmt_us(r.median_t2_us)
        );
    }
    println!(
        "\nSummed median T1: bdd {}  atoms {}  (atoms/bdd = {ratio:.2}; {} per-change reports identical)",
        fmt_us(summed["bdd"]),
        fmt_us(summed["atoms"]),
        reports_compared,
    );

    let out = Output {
        k,
        samples: ports.len(),
        rules_total: rc_bdd.num_rules(),
        total_pairs: rc_bdd.num_pairs(),
        rows,
        summed_median_t1_us: summed,
        atoms_over_bdd_t1: ratio,
        reports_compared,
    };
    let json = serde_json::to_string_pretty(&out).expect("serializes");
    realconfig_bench::write_results(&out_path, &json);
    println!("Raw results: {out_path}");
}
