//! Drives the built binary the way a person would: `perf run --smoke`
//! runs every workload on a k=4 network, untraced and traced, each in a
//! child process, with every output check and the BENCHMARK.json
//! self-check on — so the harness cannot rot unnoticed when a layer's
//! public API or the metric tables change.

use std::path::Path;
use std::process::Command;

fn perf() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perf"));
    // BENCHMARK.json sits at the repo root, one level above this package.
    cmd.current_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join(".."));
    cmd
}

#[test]
fn run_smoke_passes_on_every_workload() {
    let out = perf().args(["run", "--smoke", "--seed", "3"]).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}\n{}", String::from_utf8_lossy(&out.stderr));
    for w in ["ospf8_linkchurn", "bgp12_localpref", "bgp8_durable", "ospf6_windows", "bgp8_acl"] {
        for trace in [0, 1] {
            let head = format!("{w} seed 3 trace {trace}: correct true");
            assert!(stdout.contains(&head), "missing {head:?} in\n{stdout}");
        }
    }
    assert!(stdout.contains("apply_p50_ms") && stdout.contains("core.coverage"));
}

#[test]
fn single_run_prints_exactly_the_contract_keys_last() {
    let out = perf()
        .args(["--workload", "bgp8_acl", "--seed", "2", "--seconds", "0.1", "--trace", "0"])
        .arg("--smoke")
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap();
    assert!(last.starts_with("{\"correct\": true, \"attempted\": "), "{last}");
    assert!(last.contains("\"failed\": 0, \"metrics\": {"), "{last}");
    assert!(last.contains("\"setup_s\": {\"value\": "), "{last}");
}

#[test]
fn unknown_workload_exits_nonzero_without_a_result() {
    let out = perf().args(["--workload", "nope", "--seed", "1"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
