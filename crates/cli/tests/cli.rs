//! End-to-end tests of the `realconfig` binary: verify, diff, trace,
//! exit codes, and error reporting.

use std::path::PathBuf;
use std::process::{Command, Output};

const R1: &str = "\
hostname r1
interface eth0
 ip address 10.0.0.1 255.255.255.252
 ip ospf cost 1
interface eth1
 ip address 10.0.1.1 255.255.255.252
 ip ospf cost 1
interface host0
 ip address 172.16.1.1 255.255.255.0
router ospf 1
 network 10.0.0.0/8 area 0
 network 172.16.0.0/12 area 0
";

const R2: &str = "\
hostname r2
interface eth0
 ip address 10.0.0.2 255.255.255.252
 ip ospf cost 1
interface eth1
 ip address 10.0.2.1 255.255.255.252
 ip ospf cost 1
router ospf 1
 network 10.0.0.0/8 area 0
 network 172.16.0.0/12 area 0
";

const R3: &str = "\
hostname r3
interface eth0
 ip address 10.0.1.2 255.255.255.252
 ip ospf cost 1
interface eth1
 ip address 10.0.2.2 255.255.255.252
 ip ospf cost 1
interface host0
 ip address 172.16.3.1 255.255.255.0
router ospf 1
 network 10.0.0.0/8 area 0
 network 172.16.0.0/12 area 0
";

struct TempNet {
    dir: PathBuf,
}

impl TempNet {
    fn new(tag: &str, configs: &[(&str, &str)]) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "realconfig-cli-test-{tag}-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        for (name, text) in configs {
            std::fs::write(dir.join(format!("{name}.cfg")), text).unwrap();
        }
        TempNet { dir }
    }

    fn path(&self) -> &str {
        self.dir.to_str().unwrap()
    }
}

impl Drop for TempNet {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_realconfig")).args(args).output().expect("binary runs")
}

#[test]
fn verify_reports_and_succeeds() {
    let net = TempNet::new("verify", &[("r1", R1), ("r2", R2), ("r3", R3)]);
    let out = run(&["verify", net.path(), "--policy", "reach:r1:r3:172.16.3.0/24"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("3 devices verified"));
    assert!(stdout.contains("SATISFIED"));
}

#[test]
fn verify_violated_policy_fails_exit_code() {
    let net = TempNet::new("violated", &[("r1", R1), ("r2", R2), ("r3", R3)]);
    // Isolation r1→r3 is violated (traffic flows): exit code 1.
    let out = run(&["verify", net.path(), "--policy", "isolate:r1:r3:172.16.3.0/24"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stdout).contains("VIOLATED"));
}

#[test]
fn diff_reports_incremental_stages() {
    let old = TempNet::new("diff-old", &[("r1", R1), ("r2", R2), ("r3", R3)]);
    let shut = R1.replace(
        "interface eth1\n ip address 10.0.1.1 255.255.255.252\n ip ospf cost 1",
        "interface eth1\n ip address 10.0.1.1 255.255.255.252\n ip ospf cost 1\n shutdown",
    );
    let new = TempNet::new("diff-new", &[("r1", &shut), ("r2", R2), ("r3", R3)]);
    let out = run(&[
        "diff",
        old.path(),
        new.path(),
        "--policy",
        "reach:r1:r3:172.16.3.0/24",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("config lines +1/−0"), "{stdout}");
    assert!(stdout.contains("stage 1"), "{stdout}");
    assert!(stdout.contains("SATISFIED"), "the ring reroutes: {stdout}");
}

#[test]
fn diff_json_is_machine_readable() {
    let old = TempNet::new("json-old", &[("r1", R1), ("r2", R2), ("r3", R3)]);
    let cheap = R1.replace("ip ospf cost 1", "ip ospf cost 7");
    let new = TempNet::new("json-new", &[("r1", &cheap), ("r2", R2), ("r3", R3)]);
    let out = run(&["diff", old.path(), new.path(), "--json"]);
    assert!(out.status.success());
    let v: serde_json::Value =
        serde_json::from_slice(&out.stdout).expect("valid JSON report");
    assert!(v["fact_changes"].as_u64().unwrap() > 0);
}

#[test]
fn trace_shows_path() {
    let net = TempNet::new("trace", &[("r1", R1), ("r2", R2), ("r3", R3)]);
    let out = run(&["trace", net.path(), "--from", "r1", "--dst", "172.16.3.9"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("DELIVERED"), "{stdout}");
    assert!(stdout.contains("r3"), "{stdout}");
}

#[test]
fn trace_undelivered_fails() {
    let net = TempNet::new("trace-miss", &[("r1", R1), ("r2", R2), ("r3", R3)]);
    let out = run(&["trace", net.path(), "--from", "r1", "--dst", "8.8.8.8"]);
    assert_eq!(out.status.code(), Some(1), "undelivered packets exit 1");
    assert!(String::from_utf8_lossy(&out.stdout).contains("DROPPED"));
}

#[test]
fn bad_config_reports_file_and_line() {
    let net = TempNet::new("bad", &[("r1", "hostname r1\nfrobnicate\n")]);
    let out = run(&["verify", net.path()]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("r1.cfg"), "{stderr}");
    assert!(stderr.contains("line 2"), "{stderr}");
}

#[test]
fn empty_dir_is_an_error() {
    let net = TempNet::new("empty", &[]);
    let out = run(&["verify", net.path()]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn usage_on_no_args() {
    let out = run(&[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

/// Journal replay has one mode: the flag that used to pick another is
/// an unknown argument like any other.
#[test]
fn verify_rejects_the_removed_coalesce_flag() {
    let net = TempNet::new("coalesce", &[("r1", R1), ("r2", R2), ("r3", R3)]);
    let state = TempNet::new("coalesce-state", &[]);
    let out = run(&["verify", net.path(), "--state-dir", state.path(), "--coalesce"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--coalesce") && stderr.contains("usage"), "{stderr}");
}

/// Every subcommand rejects a flag it does not take, with the usage
/// text: a misspelt `--policy` must not verify with no policy, and
/// `--backend` (BDDs are the only predicate store) is unknown
/// everywhere.
#[test]
fn every_subcommand_rejects_unknown_flags() {
    let net = TempNet::new("unknown", &[("r1", R1), ("r2", R2), ("r3", R3)]);
    let state = TempNet::new("unknown-state", &[]);
    let (dir, sd) = (net.path(), state.path());
    let (diff, snapshot): (&[&str], &[&str]) =
        (&["diff", dir, dir], &["snapshot", dir, "--state-dir", sd]);
    let cases: [(&[&str], &str); 7] = [
        (&["verify", dir], "--backend"),
        (diff, "--backend"),
        (&["trace", dir, "--from", "r1", "--dst", "172.16.3.9"], "--backend"),
        (snapshot, "--backend"),
        (&["restore", dir, "--state-dir", sd], "--backend"),
        (diff, "--polcy"),
        (snapshot, "--polcy"),
    ];
    for (cmd, flag) in cases {
        let out = run(&[cmd, &[flag, "reach:r1:r3:172.16.3.0/24"][..]].concat());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{cmd:?} {flag}: {stderr}");
        assert!(stderr.contains(flag) && stderr.contains("usage"), "{cmd:?} {flag}: {stderr}");
    }
}

/// `--threads` travels through `VerifierOptions`: the verification
/// reported is the same under every setting (everything but wall-clock
/// timings), the `--metrics` dump shows the setting took effect, and a
/// bad value is a usage error.
#[test]
fn threads_flag_reaches_the_verifier() {
    let old = TempNet::new("flags-old", &[("r1", R1), ("r2", R2), ("r3", R3)]);
    let cheap = R1.replace("ip ospf cost 1", "ip ospf cost 7");
    let new = TempNet::new("flags-new", &[("r1", &cheap), ("r2", R2), ("r3", R3)]);
    let metrics = TempNet::new("flags-metrics", &[]);
    // (non-timing report fields, whether counter `par.small_tasks_inlined`
    // was registered)
    let report = |threads: &str| {
        let dump = format!("{}/threads-{threads}.json", metrics.path());
        let args = ["diff", old.path(), new.path(), "--json", "--threads", threads];
        let out = run(&[&args[..], &["--metrics", &dump]].concat());
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let v: serde_json::Value =
            serde_json::from_slice(&out.stdout).expect("valid JSON report");
        let m: serde_json::Value =
            serde_json::from_slice(&std::fs::read(&dump).expect("metrics dump written"))
                .expect("valid JSON metrics");
        let probed = m["counters"].get("par.small_tasks_inlined").is_some();
        let mut fields = v.as_object().expect("report object").clone();
        assert!(!fields.contains_key("metrics"), "reports carry no metrics snapshot");
        for timing in ["dp_gen", "model_update", "policy_check"] {
            assert!(fields.remove(timing).is_some(), "report lost its {timing} field");
        }
        (fields, probed)
    };
    // The pool's small-task fallback only exists with more than one
    // worker.
    let (serial, inlined) = report("1");
    assert!(!inlined, "--threads 1 must take the serial paths");
    let (pooled, inlined) = report("4");
    assert!(inlined, "--threads 4 must reach the pool dispatcher");
    assert_eq!(serial, pooled);

    for bad in ["0", "many"] {
        let out = run(&["diff", old.path(), new.path(), "--threads", bad]);
        assert_eq!(out.status.code(), Some(2), "--threads {bad}");
    }
}

/// An ACL that matches a TCP port needs the full 5-tuple predicate
/// space; it verifies like any other configuration.
#[test]
fn a_port_matching_acl_verifies() {
    let acl = R1.replace("interface eth0\n", "interface eth0\n ip access-group WEB in\n")
        + "ip access-list extended WEB\n 10 deny tcp any 10.0.0.0/8 eq 80\n";
    let net = TempNet::new("port-acl", &[("r1", &acl), ("r2", R2), ("r3", R3)]);
    let out = run(&["verify", net.path(), "--policy", "reach:r1:r3:172.16.3.0/24"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}{}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("SATISFIED"), "{stdout}");
}
