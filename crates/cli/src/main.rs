//! `realconfig` — command-line incremental network configuration
//! verifier.
//!
//! ```text
//! realconfig verify <dir> [--policy reach:SRC:DST:PREFIX]... [--threads N] [--metrics FILE] [--state-dir DIR]
//! realconfig diff <old-dir> <new-dir> [--policy ...]... [--json] [--recover] [--threads N] [--metrics FILE]
//! realconfig trace <dir> --from DEV --dst A.B.C.D [--proto N] [--dport N]
//! realconfig snapshot <dir> --state-dir DIR [--policy ...]... [--threads N]
//! realconfig restore <dir> --state-dir DIR
//! ```
//!
//! A configuration directory holds one `<hostname>.cfg` per device.
//! `verify` runs a full verification; `diff` verifies the transition
//! from the old directory's configurations to the new directory's
//! incrementally, reporting per-stage timings, affected counts, and
//! policy verdict changes; `trace` follows one packet through the
//! current data plane. `--metrics FILE` dumps the pipeline-wide
//! telemetry snapshot (per-operator dataflow work, EC model state,
//! policy checker latencies) as JSON after the run — on failure, the
//! snapshot-so-far is still written, for post-mortem inspection.
//! Every subcommand rejects a flag it does not take (exit 2 with the
//! usage text).
//!
//! `--threads N` sets the verifier's worker count for its parallel
//! phases (default: the `RC_THREADS` environment variable, then the
//! machine's available parallelism; `1` forces the serial paths).
//! Reports are byte-identical for any worker count.
//!
//! `diff --recover` verifies the change with the self-healing failure
//! policy ([`OnFailure::Rebuild`]): if the incremental pipeline fails
//! mid-change, the new configurations are verified by a full rebuild
//! instead and the report is flagged `recovered`.
//!
//! `--state-dir DIR` makes verifier state durable: `verify` restarts
//! warm from the newest checksummed snapshot when one exists (the apply
//! journal's records are folded and verified as one incremental apply),
//! and writes a fresh snapshot after a cold build;
//! `snapshot` builds from configs and persists without further checks;
//! `restore` exercises the recovery ladder alone and reports which rung
//! ran. Corrupt state never prevents startup — the ladder falls back to
//! the previous snapshot and then to a full rebuild from the configs.
//!
//! # Exit codes
//!
//! | code | meaning |
//! |------|---------|
//! | 0 | verified, all policies satisfied |
//! | 1 | verified, at least one policy violated |
//! | 2 | usage, I/O or configuration parse error |
//! | 3 | control plane divergence |
//! | 4 | internal pipeline failure (contained panic / poisoned verifier) |
//! | 5 | durable state unrecoverable; verifier rebuilt from configs (degraded, running) |

#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use rc_netcfg::parser::parse_config;
use rc_netcfg::DeviceConfig;
use realconfig::{
    OnFailure, Packet, PacketClass, Policy, Prefix, RealConfig, VerifierOptions,
};

const USAGE: &str = "usage:\n  \
    realconfig verify <dir> [--policy reach:SRC:DST:PREFIX]... [--threads N] [--metrics FILE] [--state-dir DIR]\n  \
    realconfig diff <old-dir> <new-dir> [--policy ...]... [--json] [--recover] [--threads N] [--metrics FILE]\n  \
    realconfig trace <dir> --from DEV --dst A.B.C.D [--proto N] [--dport N]\n  \
    realconfig snapshot <dir> --state-dir DIR [--policy ...]... [--threads N]\n  \
    realconfig restore <dir> --state-dir DIR";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("verify") => cmd_verify(&args[1..]),
        Some("diff") => cmd_diff(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("snapshot") => cmd_snapshot(&args[1..]),
        Some("restore") => cmd_restore(&args[1..]),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(violated) if violated => ExitCode::FAILURE,
        Ok(_) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error[{}]: {}", e.kind.label(), e.msg);
            ExitCode::from(e.kind.exit_code())
        }
    }
}

/// What went wrong, mapped to the documented exit codes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ErrorKind {
    /// Bad arguments, unreadable files, configuration parse errors.
    Parse,
    /// The control plane failed to converge on the given configurations.
    Divergence,
    /// A pipeline stage failed internally (contained panic, poisoned
    /// verifier).
    Internal,
    /// Durable state was unrecoverable; the verifier was rebuilt from
    /// configurations and is running, but warm state was lost.
    Degraded,
}

impl ErrorKind {
    fn label(self) -> &'static str {
        match self {
            ErrorKind::Parse => "parse",
            ErrorKind::Divergence => "divergence",
            ErrorKind::Internal => "internal",
            ErrorKind::Degraded => "degraded",
        }
    }

    fn exit_code(self) -> u8 {
        match self {
            ErrorKind::Parse => 2,
            ErrorKind::Divergence => 3,
            ErrorKind::Internal => 4,
            ErrorKind::Degraded => 5,
        }
    }
}

/// A CLI failure: a kind (for the exit code) plus a message for stderr.
#[derive(Debug)]
struct CliError {
    kind: ErrorKind,
    msg: String,
}

impl CliError {
    fn parse(msg: impl Into<String>) -> Self {
        CliError { kind: ErrorKind::Parse, msg: msg.into() }
    }
}

impl From<realconfig::Error> for CliError {
    fn from(e: realconfig::Error) -> Self {
        let kind = match &e {
            realconfig::Error::Parse(_) | realconfig::Error::Change(_) => ErrorKind::Parse,
            realconfig::Error::Divergence(_) => ErrorKind::Divergence,
            realconfig::Error::Internal(_) | realconfig::Error::Poisoned => ErrorKind::Internal,
        };
        CliError { kind, msg: e.to_string() }
    }
}

impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError::parse(msg)
    }
}

impl From<&str> for CliError {
    fn from(msg: &str) -> Self {
        CliError::parse(msg)
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::parse(e.to_string())
    }
}

impl From<std::num::ParseIntError> for CliError {
    fn from(e: std::num::ParseIntError) -> Self {
        CliError::parse(e.to_string())
    }
}

impl From<serde_json::Error> for CliError {
    fn from(e: serde_json::Error) -> Self {
        CliError { kind: ErrorKind::Internal, msg: format!("cannot serialize report: {e}") }
    }
}

/// Load every `*.cfg` in a directory.
fn load_dir(dir: &str) -> Result<BTreeMap<String, DeviceConfig>, CliError> {
    let mut configs = BTreeMap::new();
    let mut entries: Vec<_> = std::fs::read_dir(Path::new(dir))
        .map_err(|e| format!("cannot read {dir}: {e}"))?
        .collect::<Result<_, _>>()?;
    entries.sort_by_key(|e| e.path());
    for entry in entries {
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) != Some("cfg") {
            continue;
        }
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let cfg = parse_config(&text)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        if cfg.hostname.is_empty() {
            return Err(format!("{}: missing hostname", path.display()).into());
        }
        configs.insert(cfg.hostname.clone(), cfg);
    }
    if configs.is_empty() {
        return Err(format!("{dir}: no .cfg files found").into());
    }
    Ok(configs)
}

/// A parsed `--policy` flag: (label, src, dst, prefix, is_reach).
type PolicySpec = (String, String, String, Prefix, bool);

/// One subcommand's arguments, scanned once: its positional arguments,
/// then flags. A value flag is followed by its value (`--policy`
/// repeats); a switch stands alone. Any other argument is a usage
/// error.
struct Args {
    positional: Vec<String>,
    flags: Vec<(&'static str, String)>,
}

impl Args {
    /// Scan `args` for subcommand `cmd`: `need` names its positional
    /// arguments (one word each), `valued` and `switches` its flags.
    fn scan(
        cmd: &str,
        args: &[String],
        need: &[&str],
        valued: &[&'static str],
        switches: &[&'static str],
    ) -> Result<Self, CliError> {
        let n = need.len();
        if args.len() < n || args[..n].iter().any(|a| a.starts_with("--")) {
            return Err(format!("{cmd} needs {}\n{USAGE}", need.join(" ")).into());
        }
        let mut flags = Vec::new();
        let mut rest = args[n..].iter();
        while let Some(arg) = rest.next() {
            if let Some(&flag) = valued.iter().find(|f| **f == arg) {
                let value = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
                flags.push((flag, value.clone()));
            } else if let Some(&flag) = switches.iter().find(|f| **f == arg) {
                flags.push((flag, String::new()));
            } else {
                return Err(format!("unknown {cmd} argument {arg:?}\n{USAGE}").into());
            }
        }
        Ok(Args { positional: args[..n].to_vec(), flags })
    }

    /// Every value given for `flag`, in order.
    fn values<'a>(&'a self, flag: &'a str) -> impl Iterator<Item = &'a str> {
        self.flags.iter().filter(move |(f, _)| *f == flag).map(|(_, v)| v.as_str())
    }

    /// The first value given for `flag`.
    fn value<'a>(&'a self, flag: &'a str) -> Option<&'a str> {
        self.values(flag).next()
    }

    /// Whether switch `flag` was given.
    fn has(&self, flag: &str) -> bool {
        self.value(flag).is_some()
    }

    /// The verifier options from the optional `--threads N` flag.
    /// Without it the process default applies (`RC_THREADS`, then
    /// available parallelism).
    fn options(&self) -> Result<VerifierOptions, CliError> {
        let mut opts = VerifierOptions::default();
        if let Some(n) = self.value("--threads") {
            let n: usize = n.parse()?;
            if n == 0 {
                return Err("--threads must be at least 1".into());
            }
            opts.threads = Some(n);
        }
        Ok(opts)
    }

    /// The `--policy reach:SRC:DST:PREFIX` / `--policy
    /// isolate:SRC:DST:PREFIX` flags.
    fn policies(&self) -> Result<Vec<PolicySpec>, CliError> {
        let mut policies = Vec::new();
        for spec in self.values("--policy") {
            let parts: Vec<&str> = spec.split(':').collect();
            match parts.as_slice() {
                [kind @ ("reach" | "isolate"), src, dst, prefix] => {
                    let p: Prefix =
                        prefix.parse().map_err(|_| format!("bad prefix in {spec:?}"))?;
                    policies.push((
                        kind.to_string(),
                        src.to_string(),
                        dst.to_string(),
                        p,
                        *kind == "reach",
                    ));
                }
                _ => return Err(format!("bad policy spec {spec:?}").into()),
            }
        }
        Ok(policies)
    }
}

fn register_policies(
    rc: &mut RealConfig,
    specs: &[PolicySpec],
) -> Result<Vec<(String, realconfig::PolicyId)>, CliError> {
    let mut out = Vec::new();
    // A snapshot-restored verifier already carries its registered
    // policies; re-requesting one of those must reuse the existing
    // registration instead of duplicating it.
    let existing: Vec<Policy> =
        rc.policy_specs().into_iter().map(|(p, _)| p).collect();
    for (kind, src, dst, prefix, is_reach) in specs {
        let s = rc.node(src).ok_or_else(|| format!("unknown device {src:?}"))?;
        let d = rc.node(dst).ok_or_else(|| format!("unknown device {dst:?}"))?;
        let class = PacketClass::DstPrefix(*prefix);
        let policy = if *is_reach {
            Policy::Reachability { src: s, dst: d, class }
        } else {
            Policy::Isolation { src: s, dst: d, class }
        };
        let id = match existing.iter().position(|p| *p == policy) {
            Some(i) => realconfig::PolicyId(i as u32),
            None => rc.add_policy(policy),
        };
        out.push((format!("{kind}:{src}:{dst}:{prefix}"), id));
    }
    rc.recheck_policies();
    Ok(out)
}

/// One-line summary of a restore outcome for operators.
fn describe_restore(report: &realconfig::RestoreReport) -> String {
    let source = match report.source {
        realconfig::RestoreSource::Snapshot { seq } => format!("snapshot {seq}"),
        realconfig::RestoreSource::PreviousSnapshot { seq } => {
            format!("previous snapshot {seq} (newest was corrupt)")
        }
        realconfig::RestoreSource::Rebuilt => "full rebuild (all snapshots corrupt)".into(),
        realconfig::RestoreSource::ColdStart => "cold start (no snapshots)".into(),
    };
    format!(
        "restored from {source} in {:?}: {} journal records replayed, {} discarded",
        report.elapsed, report.replayed, report.discarded_corrupt
    )
}

/// Write the verifier's telemetry snapshot as pretty JSON. Atomic
/// (write-temp, fsync, rename): a crash or panic mid-dump never leaves
/// a truncated file where a previous good snapshot used to be.
fn dump_metrics(rc: &RealConfig, path: &str) -> Result<(), CliError> {
    let json = serde_json::to_string_pretty(&rc.metrics_snapshot())?;
    rc_store::atomic_write(Path::new(path), json.as_bytes())
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    Ok(())
}

/// Best-effort metrics dump on a failure path: never masks the original
/// error, reports its own problems to stderr only.
fn dump_metrics_on_failure(rc: &RealConfig, path: Option<&str>) {
    if let Some(path) = path {
        match dump_metrics(rc, path) {
            Ok(()) => eprintln!("metrics-so-far written to {path}"),
            Err(e) => eprintln!("warning: could not write metrics to {path}: {}", e.msg),
        }
    }
}

fn cmd_verify(args: &[String]) -> Result<bool, CliError> {
    let args = Args::scan(
        "verify",
        args,
        &["<dir>"],
        &["--policy", "--threads", "--metrics", "--state-dir"],
        &[],
    )?;
    // Drift since the snapshot is verified self-healing.
    let opts = VerifierOptions { on_failure: OnFailure::Rebuild, ..args.options()? };
    let state_dir = args.value("--state-dir");
    let configs = load_dir(&args.positional[0])?;
    let n = configs.len();
    let mut rc = match state_dir {
        Some(sd) => {
            let (mut rc, restore) = RealConfig::open_with(Path::new(sd), configs.clone(), opts)?;
            println!("{n} devices verified ({}).", describe_restore(&restore));
            for note in &restore.notes {
                println!("  restore note: {note}");
            }
            if rc.configs() != &configs {
                // The directory moved on since the snapshot: verify the
                // drift incrementally on top of the warm state.
                let report = rc.apply_configs(configs)?;
                println!(
                    "  configs drifted since snapshot: +{}/−{} lines verified in {:?}",
                    report.lines_inserted,
                    report.lines_deleted,
                    report.total()
                );
            }
            rc
        }
        None => {
            let (rc, report) = RealConfig::with_options(configs, opts)?;
            println!("{n} devices verified.");
            println!("  data plane generation : {:?} ({} FIB entries)", report.dp_gen, report.fib_entries);
            println!("  model update          : {:?} ({} ECs, {} rules)", report.model_update, report.ecs, report.rules);
            println!("  policy check          : {:?} ({} reachable pairs)", report.policy_check, report.pairs);
            for w in &report.warnings {
                println!("  warning: {w}");
            }
            rc
        }
    };
    let policies = register_policies(&mut rc, &args.policies()?)?;
    if let Some(sd) = state_dir {
        // Persist the post-policy state so the next start is warm.
        let seq = rc.save_snapshot().map_err(|e| format!("cannot save snapshot: {e}"))?;
        println!("  snapshot {seq} written to {sd}");
    }
    let mut violated = false;
    for (name, id) in &policies {
        let ok = rc.is_satisfied(*id);
        violated |= !ok;
        println!("  policy {name}: {}", if ok { "SATISFIED" } else { "VIOLATED" });
    }
    if let Some(path) = args.value("--metrics") {
        dump_metrics(&rc, path)?;
        println!("  metrics written to {path}");
    }
    Ok(violated)
}

fn cmd_diff(args: &[String]) -> Result<bool, CliError> {
    let args = Args::scan(
        "diff",
        args,
        &["<old-dir>", "<new-dir>"],
        &["--policy", "--threads", "--metrics"],
        &["--json", "--recover"],
    )?;
    let json = args.has("--json");
    let mut opts = args.options()?;
    if args.has("--recover") {
        opts.on_failure = OnFailure::Rebuild;
    }
    let metrics_path = args.value("--metrics");
    let old = load_dir(&args.positional[0])?;
    let new = load_dir(&args.positional[1])?;

    let (mut rc, _) = match RealConfig::with_options(old, opts) {
        Ok(built) => built,
        Err(e) => {
            return Err(CliError { msg: format!("old configs do not verify: {e}"), ..e.into() })
        }
    };
    let policies = register_policies(&mut rc, &args.policies()?)?;

    let report = match rc.apply_configs(new) {
        Ok(report) => report,
        Err(e) => {
            dump_metrics_on_failure(&rc, metrics_path);
            return Err(CliError { msg: format!("change verification failed: {e}"), ..e.into() });
        }
    };
    if json {
        println!("{}", serde_json::to_string_pretty(&report)?);
    } else {
        println!(
            "config lines +{}/−{}  →  {} fact changes",
            report.lines_inserted, report.lines_deleted, report.fact_changes
        );
        if report.recovered {
            println!("incremental path FAILED; verified by full rebuild (self-healing)");
        }
        println!(
            "stage 1 (dp gen)      : {:?}, rules +{}/−{}",
            report.dp_gen, report.rules_inserted, report.rules_removed
        );
        println!(
            "stage 2 (model update): {:?}, {} affected ECs ({} moves, {} splits)",
            report.model_update, report.affected_ecs, report.ec_moves, report.ec_splits
        );
        println!(
            "stage 3 (policy check): {:?}, {}/{} pairs affected",
            report.policy_check, report.affected_pairs, report.total_pairs
        );
        println!("total incremental verification: {:?}", report.total());
        for w in &report.warnings {
            println!("warning: {w}");
        }
    }
    let mut violated = false;
    for (name, id) in &policies {
        let ok = rc.is_satisfied(*id);
        violated |= !ok;
        let newly = if report.newly_violated.contains(&id.0) {
            "  (NEWLY violated by this change)"
        } else if report.newly_satisfied.contains(&id.0) {
            "  (newly satisfied by this change)"
        } else {
            ""
        };
        println!("policy {name}: {}{newly}", if ok { "SATISFIED" } else { "VIOLATED" });
    }
    if let Some(path) = metrics_path {
        dump_metrics(&rc, path)?;
        if !json {
            println!("metrics written to {path}");
        }
    }
    Ok(violated)
}

fn cmd_trace(args: &[String]) -> Result<bool, CliError> {
    let args =
        Args::scan("trace", args, &["<dir>"], &["--from", "--dst", "--proto", "--dport"], &[])?;
    let from = args.value("--from").ok_or("trace needs --from DEV")?;
    let dst: rc_netcfg::Ip = args
        .value("--dst")
        .ok_or("trace needs --dst A.B.C.D")?
        .parse()
        .map_err(|e| format!("{e}"))?;
    let proto: u8 = args.value("--proto").map_or(Ok(6), str::parse)?;
    let dport: u16 = args.value("--dport").map_or(Ok(0), str::parse)?;

    let configs = load_dir(&args.positional[0])?;
    let (rc, _) = RealConfig::new(configs)?;
    let packet = Packet { dst_ip: dst.0, proto, dst_port: dport, ..Default::default() };
    let trace =
        rc.trace_packet(from, packet).ok_or_else(|| format!("unknown device {from:?}"))?;
    print!("{trace}");
    if trace.loops {
        println!("warning: the packet can LOOP");
    }
    Ok(trace.delivered_at.is_empty())
}

/// Build from configs and persist a snapshot — the explicit way to
/// seed a state directory (e.g. from CI, before a maintenance window).
fn cmd_snapshot(args: &[String]) -> Result<bool, CliError> {
    let args = Args::scan(
        "snapshot",
        args,
        &["<dir>"],
        &["--state-dir", "--policy", "--threads"],
        &[],
    )?;
    let state_dir = args.value("--state-dir").ok_or("snapshot needs --state-dir DIR")?;
    let configs = load_dir(&args.positional[0])?;
    let n = configs.len();
    let (mut rc, _) = RealConfig::with_options(configs, args.options()?)?;
    register_policies(&mut rc, &args.policies()?)?;
    rc.attach_state_dir(Path::new(state_dir))
        .map_err(|e| format!("cannot use state dir {state_dir}: {e}"))?;
    let seq = rc.save_snapshot().map_err(|e| format!("cannot save snapshot: {e}"))?;
    println!(
        "{n} devices verified; snapshot {seq} written to {state_dir} ({} policies registered)",
        rc.policy_specs().len()
    );
    Ok(false)
}

/// Exercise the recovery ladder and report which rung ran. Exit code 5
/// signals "state was unrecoverable, verifier rebuilt from configs" —
/// running, but the warm state was lost.
fn cmd_restore(args: &[String]) -> Result<bool, CliError> {
    let args = Args::scan("restore", args, &["<dir>"], &["--state-dir"], &[])?;
    let state_dir = args.value("--state-dir").ok_or("restore needs --state-dir DIR")?;
    let configs = load_dir(&args.positional[0])?;
    let (rc, report) = RealConfig::open(Path::new(state_dir), configs)?;
    println!("{}", describe_restore(&report));
    for note in &report.notes {
        println!("  note: {note}");
    }
    println!(
        "  state: {} devices, {} FIB rules, {} ECs, {} policies",
        rc.configs().len(),
        rc.num_fib_rules(),
        rc.num_ecs(),
        rc.policy_specs().len()
    );
    if report.source == realconfig::RestoreSource::Rebuilt {
        return Err(CliError {
            kind: ErrorKind::Degraded,
            msg: "durable state unrecoverable; rebuilt from configurations".into(),
        });
    }
    Ok(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_follow_the_failure_model() {
        assert_eq!(ErrorKind::Parse.exit_code(), 2);
        assert_eq!(ErrorKind::Divergence.exit_code(), 3);
        assert_eq!(ErrorKind::Internal.exit_code(), 4);
        assert_eq!(ErrorKind::Degraded.exit_code(), 5);
    }

    #[test]
    fn verifier_errors_map_to_documented_exit_codes() {
        let e: CliError = realconfig::Error::Internal("boom".into()).into();
        assert_eq!(e.kind, ErrorKind::Internal);
        let e: CliError = realconfig::Error::Poisoned.into();
        assert_eq!(e.kind, ErrorKind::Internal);
        let e: CliError = realconfig::Error::Divergence(
            rc_dataflow::EvalError::Divergence { iterations: 1 },
        )
        .into();
        assert_eq!(e.kind, ErrorKind::Divergence);
        let e: CliError = "bad flag".into();
        assert_eq!(e.kind, ErrorKind::Parse);
    }
}
