//! Reproduce the paper's §2/§5 specification-mining claim: incremental
//! data plane generation across all single-link-failure scenarios is
//! ~20× faster than non-incremental generation.
//!
//! Usage: `cargo run --release -p realconfig-bench --bin specmine [-- --k 12 --scenarios 40]`
//!
//! Results are written to `bench_results/specmine.json`.

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

use rc_netcfg::facts::{fact_delta, lower, Registry};
use rc_netcfg::gen::ProtocolChoice;
use rc_netcfg::ChangeOp;
use rc_routing::engine::RoutingEngine;
use realconfig_bench::Workload;
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
    let (k, max_scenarios) = parse_args();
    let w = Workload::fat_tree(k, ProtocolChoice::Ospf);
    println!(
        "Spec-mining sweep: k={k} fat tree ({} devices, {} links, OSPF), single-link failures.",
        w.topo.num_devices(),
        w.topo.num_links()
    );

    // Incremental: one warm engine; per scenario apply failure +
    // restore (two incremental epochs, both counted).
    let mut reg = Registry::new();
    let lowered = lower(&w.configs, &mut reg);
    let mut engine = RoutingEngine::new();
    let t = Instant::now();
    engine.apply(lowered.facts.iter().map(|f| (f.clone(), 1))).expect("converges");
    let full_build = t.elapsed();
    println!("full (from-scratch) generation: {full_build:?}");

    let scenarios: Vec<_> = w.topo.links.iter().take(max_scenarios).collect();
    let mut configs = w.configs.clone();
    let mut facts = lowered.facts.clone();
    let mut incremental = Duration::ZERO;
    for link in &scenarios {
        for shutdown in [true, false] {
            let op = if shutdown {
                ChangeOp::DisableInterface {
                    device: link.a.device.clone(),
                    iface: link.a.iface.clone(),
                }
            } else {
                ChangeOp::EnableInterface {
                    device: link.a.device.clone(),
                    iface: link.a.iface.clone(),
                }
            };
            rc_netcfg::ChangeSet { ops: vec![op] }.apply(&mut configs).expect("applies");
            let lowered = lower(&configs, &mut reg);
            let delta = fact_delta(&facts, &lowered.facts);
            facts = lowered.facts;
            let t = Instant::now();
            engine.apply(delta).expect("converges");
            incremental += t.elapsed();
        }
        engine.compact();
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
        let mut reg = Registry::new();
        let lowered = lower(&failed, &mut reg);
        let mut engine = RoutingEngine::new();
        let t = Instant::now();
        engine.apply(lowered.facts.iter().map(|f| (f.clone(), 1))).expect("converges");
        scratch_sample += t.elapsed();
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

fn parse_args() -> (u32, usize) {
    let mut k = 12;
    let mut scenarios = 40;
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--k" => {
                k = args[i + 1].parse().expect("--k N");
                i += 2;
            }
            "--scenarios" => {
                scenarios = args[i + 1].parse().expect("--scenarios N");
                i += 2;
            }
            other => panic!("unknown argument {other:?} (expected --k / --scenarios)"),
        }
    }
    (k, scenarios)
}
