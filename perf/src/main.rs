//! `perf` — the repo's benchmark: five seeded workloads, end-to-end
//! verdict latency and throughput, and a per-layer ledger recorded from
//! outside the layers. See README.md next to this package for the metric
//! glossary, why each workload exists and how the metrics interact.
//!
//! ```text
//! perf --workload W --seed N --seconds S --trace 0|1   one run; the last stdout line is its result
//! perf run [--all | --workload W] [--seed N] [--seconds S] [--ops N] [--repeat R] [--smoke] [--out FILE]
//! perf compare A.json B.json
//! perf schema                                           print BENCHMARK.json
//! ```

mod compare;
mod pipeline;
mod report;
mod runner;
mod schema;
mod spans;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use report::{ResultFile, RunRecord};
use runner::RunConfig;
use workloads::WORKLOADS;

/// Result files and traces land here, relative to the directory the
/// command is run from (the repo root).
const OUT_DIR: &str = "bench_results/perf";

struct Flags(BTreeMap<String, String>);

impl Flags {
    /// `--name value` pairs; `--all` and `--smoke` take no value.
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut map = BTreeMap::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let name = arg.strip_prefix("--").ok_or_else(|| format!("unexpected {arg:?}"))?;
            let value = match name {
                "all" | "smoke" => "1".to_string(),
                _ => it.next().ok_or_else(|| format!("--{name} needs a value"))?.clone(),
            };
            map.insert(name.to_string(), value);
        }
        Ok(Flags(map))
    }

    fn get<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.0
            .get(name)
            .map(|v| v.parse().map_err(|_| format!("--{name}: cannot parse {v:?}")))
            .transpose()
    }

    fn has(&self, name: &str) -> bool {
        self.0.contains_key(name)
    }
}

/// State directories live next to the built binary (`<target>/perf-state`),
/// i.e. on the repo's filesystem, never in a tmpfs `/tmp`.
fn state_root() -> PathBuf {
    let exe = std::env::current_exe().unwrap_or_else(|_| PathBuf::from("target/release/perf"));
    let target = exe.parent().and_then(Path::parent).unwrap_or_else(|| Path::new("target"));
    target.join("perf-state")
}

/// `BENCHMARK.json` in the current directory or the nearest one above.
fn benchmark_json() -> Result<String, String> {
    let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
    cwd.ancestors()
        .map(|d| d.join("BENCHMARK.json"))
        .find(|p| p.is_file())
        .ok_or_else(|| "no BENCHMARK.json here or above".to_string())
        .and_then(|p| std::fs::read_to_string(&p).map_err(|e| format!("{}: {e}", p.display())))
}

/// One run in this process. Prints the result line last on stdout;
/// everything else goes to stderr.
fn single_run(flags: &Flags) -> Result<ExitCode, String> {
    let name: String = flags.get("workload")?.ok_or("--workload is required")?;
    let mut spec = workloads::find(&name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let smoke = flags.has("smoke");
    if smoke {
        spec = spec.smoke();
    }
    let cfg = RunConfig {
        spec,
        seed: flags.get("seed")?.unwrap_or(1),
        seconds: flags.get("seconds")?.unwrap_or(schema::RUN_SECONDS as f64),
        traced: flags.get::<u8>("trace")?.unwrap_or(0) == 1,
        max_ops: flags.get("ops")?,
        state_root: state_root(),
        // Smoke traces must not replace a real run's.
        out_dir: if smoke { state_root().join("smoke") } else { PathBuf::from(OUT_DIR) },
    };
    let outcome = runner::run(&cfg)?;

    eprintln!(
        "# {} seed {} seconds {} trace {}",
        spec.name, cfg.seed, cfg.seconds, cfg.traced as u8
    );
    for (k, v) in runner::environment(&cfg.state_root) {
        eprintln!("# {k}: {v}");
    }
    for p in &outcome.problems {
        eprintln!("FAILED CHECK: {p}");
    }
    let emitted = outcome.metrics.iter().map(|(n, m)| (n.clone(), m.unit)).collect();
    schema::check_emitted(&benchmark_json()?, spec.name, cfg.traced, &emitted)?;
    println!("{}", report::result_line(&outcome));
    Ok(ExitCode::SUCCESS)
}

/// Run one workload in a child process and parse its result line.
fn child_run(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    max_ops: Option<usize>,
) -> Result<RunRecord, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", if traced { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if smoke {
        cmd.arg("--smoke");
    }
    if let Some(ops) = max_ops {
        cmd.args(["--ops", &ops.to_string()]);
    }
    let out = cmd.output().map_err(|e| format!("cannot start child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().ok_or_else(|| {
        format!("{workload} (trace {}): no result, exit {:?}", traced as u8, out.status.code())
    })?;
    RunRecord::from_result_line(workload, seed, traced, line)
}

fn print_run(r: &RunRecord) {
    println!(
        "{} seed {} trace {}: correct {} attempted {} failed {}",
        r.workload, r.seed, r.traced as u8, r.correct, r.attempted, r.failed
    );
    for (name, (value, unit)) in &r.metrics {
        println!("  {name:<32} {value:>16.4} {unit}");
    }
}

/// Every selected workload, untraced then traced, each in its own child
/// process; prints every metric by name with its unit and writes one
/// result file per workload (and `--out`, all of them together).
fn run_many(flags: &Flags) -> Result<ExitCode, String> {
    schema::check_workloads(&benchmark_json()?)?;
    let names: Vec<&str> = match flags.get::<String>("workload")? {
        Some(w) if !flags.has("all") => {
            vec![workloads::find(&w).ok_or_else(|| format!("unknown workload {w:?}"))?.name]
        }
        _ => WORKLOADS.iter().map(|w| w.name).collect(),
    };
    let smoke = flags.has("smoke");
    let seed: u64 = flags.get("seed")?.unwrap_or(1);
    let repeat: u64 = flags.get("repeat")?.unwrap_or(1);
    let max_ops: Option<usize> = flags.get("ops")?;
    let seconds: f64 =
        flags.get("seconds")?.unwrap_or(if smoke { 0.1 } else { schema::RUN_SECONDS as f64 });

    let info = runner::environment(&state_root());
    let mut all = Vec::new();
    let mut ok = true;
    for name in names {
        let mut runs = Vec::new();
        for _ in 0..repeat {
            for traced in [false, true] {
                let r = child_run(name, seed, seconds, traced, smoke, max_ops)?;
                print_run(&r);
                ok &= r.correct && r.failed == 0;
                runs.push(r);
            }
        }
        if !smoke {
            let file = ResultFile { info: info.clone(), runs: runs.clone() };
            write_file(&Path::new(OUT_DIR).join(format!("{name}.json")), &file.to_json())?;
        }
        all.extend(runs);
    }
    if let Some(out) = flags.get::<String>("out")? {
        write_file(Path::new(&out), &ResultFile { info, runs: all }.to_json())?;
    }
    Ok(if ok { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    rc_store::atomic_write(path, text.as_bytes()).map_err(|e| format!("{}: {e}", path.display()))
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("run") => run_many(&Flags::parse(&args[1..])?),
        Some("compare") => match &args[1..] {
            [a, b] => compare::run(Path::new(a), Path::new(b)),
            _ => Err("usage: perf compare A.json B.json".into()),
        },
        Some("schema") => {
            print!("{}", schema::benchmark_json());
            Ok(ExitCode::SUCCESS)
        }
        Some(flag) if flag.starts_with("--") => single_run(&Flags::parse(args)?),
        _ => Err(
            "usage: perf --workload W --seed N --seconds S --trace 0|1 | run | compare | schema"
                .into(),
        ),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perf: {e}");
            ExitCode::from(2)
        }
    }
}
