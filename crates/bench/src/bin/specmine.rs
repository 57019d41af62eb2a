//! Reproduce the paper's §2/§5 specification-mining claim: incremental
//! data plane generation across all single-link-failure scenarios is
//! ~20× faster than non-incremental generation.
//!
//! Usage: `cargo run --release -p realconfig-bench --bin specmine [-- --k 12 --scenarios 40]`
//!
//! Results are written to `bench_results/specmine.json`.

#![forbid(unsafe_code)]

use std::time::Duration;

use rc_netcfg::gen::ProtocolChoice;
use realconfig::RealConfig;
use realconfig_bench::{Flags, PaperChange, Workload};
use serde::Serialize;

#[derive(Serialize)]
struct SpecmineResult {
    k: u32,
    scenarios: usize,
    incremental_total_us: u128,
    scratch_total_us: u128,
    speedup: f64,
}

fn main() {
    let flags = Flags::parse(&["--k", "--scenarios"]);
    let k: u32 = flags.get("--k", 12);
    let max_scenarios: usize = flags.get("--scenarios", 40);
    let w = Workload::fat_tree(k, ProtocolChoice::Ospf);
    println!(
        "Spec-mining sweep: k={k} fat tree ({} devices, {} links, OSPF), single-link failures.",
        w.topo.num_devices(),
        w.topo.num_links()
    );

    // Incremental: one warm verifier; per scenario apply failure +
    // restore (two incremental epochs, both counted).
    let (mut rc, full) = RealConfig::new(w.configs.clone()).expect("verifies");
    println!("full (from-scratch) generation: {:?}", full.dp_gen);

    let scenarios: Vec<_> = w.topo.links.iter().take(max_scenarios).collect();
    let mut incremental = Duration::ZERO;
    for link in &scenarios {
        let port = (link.a.device.clone(), link.a.iface.clone());
        let (fail, restore) = w.change_at(PaperChange::LinkFailure, &port);
        incremental += rc.apply_change(&fail).expect("failure verifies").dp_gen;
        incremental += rc.apply_change(&restore).expect("restore verifies").dp_gen;
    }
    println!(
        "incremental: {} scenarios (fail + restore) in {incremental:?} \
         ({:?} per scenario)",
        scenarios.len(),
        incremental / scenarios.len() as u32
    );

    // Non-incremental: fresh engine per scenario (measure a sample,
    // extrapolate — each run costs a full build).
    let sample = scenarios.len().min(5);
    let mut scratch_sample = Duration::ZERO;
    for link in scenarios.iter().take(sample) {
        let mut failed = w.configs.clone();
        rc_netcfg::ChangeSet::link_failure(&link.a.device, &link.a.iface)
            .apply(&mut failed)
            .expect("applies");
        scratch_sample += realconfig::full_dataplane_realconfig(&failed).expect("converges").0;
    }
    let scratch = scratch_sample * scenarios.len() as u32 / sample as u32;
    println!(
        "non-incremental: ~{scratch:?} extrapolated from {sample} scenarios \
         ({:?} per scenario)",
        scratch_sample / sample as u32
    );

    let speedup = scratch.as_secs_f64() / incremental.as_secs_f64().max(1e-9);
    println!("\nspeedup: {speedup:.1}×  (paper §5 reports ~20× for this use case)");

    let result = SpecmineResult {
        k,
        scenarios: scenarios.len(),
        incremental_total_us: incremental.as_micros(),
        scratch_total_us: scratch.as_micros(),
        speedup,
    };
    realconfig_bench::write_results(
        "bench_results/specmine.json",
        &serde_json::to_string_pretty(&result).expect("serializes"),
    );
    println!("Raw results: bench_results/specmine.json");
}
