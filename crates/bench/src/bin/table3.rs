//! Regenerate the paper's Table 3: incremental model update and policy
//! checking on the BGP fat tree, under both rule-update orders.
//!
//! Usage: `cargo run --release -p realconfig-bench --bin table3 \
//!   [-- --k 12 --samples 10 --out bench_results/table3.json \
//!       --check <baseline.json>]`
//!
//! `--check` compares this run's rows against a committed baseline on
//! every non-timing field (the equivalence gate: a perf knob such as
//! the worker count must not change *what* the model computes, only
//! how fast) and exits non-zero on any mismatch.

#![forbid(unsafe_code)]

use realconfig_bench::{check_gate, fmt_us, run_table3, Flags, Table3Row};

/// Fields of a Table3Row that must be byte-identical to the baseline at
/// any worker count (everything except timings and the telemetry
/// snapshot, which embeds timing histograms and index counters).
const GATE_FIELDS: &[&str] = &[
    "change",
    "order",
    "rules_inserted",
    "rules_removed",
    "rules_total",
    "ec_moves",
    "affected_ecs",
    "affected_pairs",
    "total_pairs",
    "samples",
];

fn main() {
    let flags = Flags::parse(&["--k", "--samples", "--out", "--check"]);
    let k: u32 = flags.get("--k", 12);
    let samples: usize = flags.get("--samples", 10);
    let out: String = flags.get("--out", "bench_results/table3.json".into());
    let check: Option<String> = flags.opt("--check");
    println!(
        "Table 3 reproduction: BGP fat tree k={k}, {samples} sampled changes per type.\n"
    );
    eprintln!("building two verifiers per change type (insert-first / delete-first)…");
    let rows = run_table3(k, samples, 0xC0FFEE);

    println!(
        "== Measured (this machine; #Rules total {}, #Pairs total {}) ==",
        rows[0].rules_total, rows[0].total_pairs
    );
    println!(
        "{:<12} {:>6} {:>12} {:>8} {:>10} {:>16} {:>10}",
        "Change", "Order", "#Rules", "#ECs", "T1", "#Pairs", "T2"
    );
    for r in &rows {
        println!(
            "{:<12} {:>6} {:>5}+/{:<4}- {:>8} {:>10} {:>9}/{:<7} {:>10}",
            r.change,
            r.order,
            r.rules_inserted,
            r.rules_removed,
            r.ec_moves,
            fmt_us(r.t1_us),
            r.affected_pairs,
            r.total_pairs,
            fmt_us(r.t2_us),
        );
    }
    let rule_pct = |r: &Table3Row| {
        100.0 * (r.rules_inserted + r.rules_removed) as f64 / r.rules_total as f64
    };
    let pair_pct = |r: &Table3Row| 100.0 * r.affected_pairs as f64 / r.total_pairs as f64;
    println!(
        "\nAblation — incremental vs full policy checking: T2 {} vs full recheck {} ({}x)",
        fmt_us(rows[0].t2_us),
        fmt_us(rows[0].t2_full_us),
        if rows[0].t2_us > 0 { rows[0].t2_full_us / rows[0].t2_us.max(1) } else { 0 },
    );
    println!("\nAffected fractions (measured):");
    for r in rows.iter().step_by(2) {
        println!("  {:<12} rules {:.2}%  pairs {:.2}%", r.change, rule_pct(r), pair_pct(r));
    }

    println!("\n== Paper (Table 3) ==");
    println!("Change       Order  #Rules      #ECs   T1     #Pairs          T2");
    println!("LinkFailure  +,-    +26/-28     28     3ms    286/10224       58ms");
    println!("             -,+    (0.32%)     54     10ms   (2.79%)");
    println!("LP           +,-    +54/-54     54     6ms    132/10224       61ms");
    println!("             -,+    (0.64%)     108    20ms   (1.29%)");

    let ordering_holds = rows
        .chunks(2)
        .all(|pair| pair[1].ec_moves >= pair[0].ec_moves && pair[1].t1_us >= pair[0].t1_us / 2);
    let small_fractions = rows.iter().all(|r| rule_pct(r) < 5.0 && pair_pct(r) < 20.0);
    println!(
        "\nShape check: insertion-first ≤ deletion-first churn ({}); small affected fractions ({}).",
        if ordering_holds { "HOLDS" } else { "DOES NOT HOLD" },
        if small_fractions { "HOLDS" } else { "DOES NOT HOLD" },
    );

    let rows_json = serde_json::to_string_pretty(&rows).expect("serializes");

    // The equivalence gate runs before the output is written, so a
    // baseline can double as the output path.
    if let Some(baseline) = &check {
        match check_gate(&rows_json, baseline, GATE_FIELDS) {
            Ok(n) => println!(
                "\nEquivalence gate vs {baseline}: {n} non-timing fields byte-identical — PASS"
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
