//! Regenerate the paper's Table 2: average data plane generation time
//! on the fat-tree network, from scratch vs incrementally.
//!
//! Usage: `cargo run --release -p realconfig-bench --bin table2 \
//!   [-- --k 12 --samples 10 --out bench_results/table2.json \
//!       --check <baseline.json>]`
//!
//! `--k 12` is the paper's topology (180 nodes, 864 links). `--check`
//! compares this run's structural fields (protocol, topology size,
//! sample count — everything a perf knob must not change) against a
//! committed baseline and exits non-zero on mismatch.

#![forbid(unsafe_code)]

use rc_netcfg::gen::ProtocolChoice;
use realconfig_bench::{check_gate, fmt_us, run_table2, Flags};

/// Fields of a Table2Row that must be byte-identical across perf knobs
/// (worker count, EC index): everything except timings and the
/// telemetry snapshot.
const GATE_FIELDS: &[&str] = &["proto", "k", "nodes", "links", "samples"];

fn main() {
    let flags = Flags::parse(&["--k", "--samples", "--out", "--check"]);
    let k: u32 = flags.get("--k", 12);
    let samples: usize = flags.get("--samples", 10);
    let out: String = flags.get("--out", "bench_results/table2.json".into());
    let check: Option<String> = flags.opt("--check");
    println!("Table 2 reproduction: fat tree k={k}, {samples} sampled changes per type.\n");

    let mut rows = Vec::new();
    for proto in [ProtocolChoice::Ospf, ProtocolChoice::Bgp] {
        let label = if proto == ProtocolChoice::Ospf { "OSPF" } else { "BGP" };
        eprintln!("[{label}] building and measuring…");
        let row = run_table2(k, proto, samples, 0xC0FFEE);
        eprintln!(
            "[{label}] done: full={} incremental: LinkFailure={} LC/LP={}",
            fmt_us(row.rc_full_us),
            fmt_us(row.link_failure_us),
            fmt_us(row.lc_lp_us)
        );
        rows.push(row);
    }

    println!("\n== Measured (this machine, {} nodes / {} links) ==", rows[0].nodes, rows[0].links);
    println!(
        "{:<9} {:>14} {:>14} {:>22} {:>22}",
        "Protocol", "Baseline Full", "RealConfig Full", "LinkFailure", "LC/LP"
    );
    for r in &rows {
        println!(
            "{:<9} {:>14} {:>14} {:>14} ({:>4.1}%) {:>14} ({:>4.1}%)",
            r.proto,
            fmt_us(r.baseline_full_us),
            fmt_us(r.rc_full_us),
            fmt_us(r.link_failure_us),
            r.pct_link_failure(),
            fmt_us(r.lc_lp_us),
            r.pct_lc_lp(),
        );
    }

    println!("\n== Paper (Table 2, 180 nodes / 864 links, Xeon 2.3GHz) ==");
    println!(
        "{:<9} {:>14} {:>14} {:>22} {:>22}",
        "Protocol", "Batfish Full", "RealConfig Full", "LinkFailure", "LC/LP"
    );
    println!("{:<9} {:>14} {:>14} {:>22} {:>22}", "OSPF", "7.13s", "36.11s", "0.39s (1.1%)", "0.39s (1.1%)");
    println!("{:<9} {:>14} {:>14} {:>22} {:>22}", "BGP", "3.81s", "3.92s", "0.19s (4.8%)", "0.12s (3.1%)");

    println!(
        "\nShape check: incremental ≪ full ({}), custom-algorithm from-scratch faster than the \
         general-purpose engine from scratch ({}).",
        if rows.iter().all(|r| r.pct_link_failure() < 20.0 && r.pct_lc_lp() < 20.0) {
            "HOLDS"
        } else {
            "DOES NOT HOLD"
        },
        if rows.iter().all(|r| r.baseline_full_us <= r.rc_full_us) { "HOLDS" } else { "MIXED" }
    );

    let rows_json = serde_json::to_string_pretty(&rows).expect("serializes");

    // The equivalence gate runs before the output is written, so a
    // baseline can double as the output path.
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
