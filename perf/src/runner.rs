//! One run of one workload: set up, warm up, measure for the given
//! time, check the outputs, and turn what was measured into metrics.
//!
//! Closed loop, one client: a single thread submits the next operation
//! when the previous verdict returns — the callers are an operator or a
//! CI job waiting for it. The untraced run drives only `RealConfig` and
//! yields the end-to-end metrics; the traced run first drives
//! `RealConfig` the same way for half the time (the reference: its
//! per-operation outputs, its wall time and, on `bgp8_durable`, the
//! bytes it wrote), then replays the identical operations through the
//! bench-side [`LayerPipeline`] with a span around every layer call.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use rc_netcfg::parser::parse_config;
use rc_netcfg::printer::print_config;
use rc_netcfg::topology::Topology;
use rc_store::{
    atomic_write, decode_snapshot, encode_snapshot, journal_path, prune_snapshots, read_file,
    read_journal, snapshot_path, Journal,
};
use rc_telemetry::MetricsSnapshot;
use realconfig::{PredKind, RealConfig, RestoreSource};

use crate::pipeline::{hash_keys, LayerPipeline, Observed, OpCounts, OpKey};
use crate::schema;
use crate::spans::{by_name, self_times_ns, Span, Tracer, NO_OP, NO_PARENT};
use crate::stats::{median, tail_percentile};
use crate::workloads::{policy_set, Kind, Op, PolicySpec, Spec, Stream};

/// Workers the verifier's pool is pinned to, whatever `RC_THREADS` says.
pub const THREADS: usize = 2;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;

/// `bgp8_durable` takes a snapshot every this many timed operations.
const SNAPSHOT_EVERY: usize = 100;

/// Journal records behind the final snapshot when restore is measured,
/// and how many restores are measured.
const RESTORE_TAIL: usize = 100;
const RESTORES: usize = 5;

/// `peak_rss_mb` is read after this many timed operations, not at the
/// end of the timed section: a time-bounded run on a faster host does
/// more operations and would report more memory for the same program.
const RSS_CHECKPOINT_OPS: usize = 100;

#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    /// A value for a metric the schema declares, in the declared unit.
    fn new(name: &str, value: f64) -> Metric {
        let unit = schema::unit_of(name).unwrap_or_else(|| panic!("{name} is not in the schema"));
        Metric { value, unit }
    }
}

pub type Metrics = BTreeMap<String, Metric>;

pub struct RunConfig {
    pub spec: Spec,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Stop the timed section after this many operations even if time
    /// is left (fixed-length runs compare counts exactly).
    pub max_ops: Option<usize>,
    /// Directory for state dirs; must not be tmpfs for the fsync cost
    /// to mean anything.
    pub state_root: PathBuf,
    /// Where the traced run writes `<workload>.trace.json`.
    pub out_dir: PathBuf,
}

pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Failed output checks, one line each.
    pub problems: Vec<String>,
}

/// Pin the process-wide knobs so `RC_THREADS` / `RC_BACKEND` cannot
/// change what is measured.
fn pin_knobs() {
    realconfig::set_threads(THREADS);
    realconfig::set_default_backend(Some(PredKind::Bdd));
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn register(rc: &mut RealConfig, policies: &[PolicySpec]) {
    for spec in policies {
        let policy = spec.resolve(|name| rc.node(name).expect("policy names a generated device"));
        rc.add_policy(policy);
    }
}

struct Setup {
    rc: RealConfig,
    topo: Topology,
    policies: Vec<PolicySpec>,
    seconds: f64,
    gen_ms: f64,
}

/// Everything a user pays before the first change can be verified:
/// configuration generation, full verification, policy registration and
/// evaluation — and, with a state directory, attaching it and the first
/// snapshot.
fn setup(spec: &Spec, seed: u64, state_dir: Option<&Path>) -> Result<Setup, String> {
    let t = Instant::now();
    let net = spec.network();
    let gen_ms = ms_since(t);
    let policies = policy_set(&net.topo, seed);
    let (mut rc, _) = RealConfig::new(net.configs).map_err(|e| format!("set-up failed: {e}"))?;
    register(&mut rc, &policies);
    rc.recheck_policies();
    if let Some(dir) = state_dir {
        let _ = std::fs::remove_dir_all(dir);
        rc.attach_state_dir(dir).map_err(|e| format!("state dir: {e}"))?;
        rc.save_snapshot().map_err(|e| format!("first snapshot: {e}"))?;
    }
    Ok(Setup { rc, topo: net.topo, policies, seconds: t.elapsed().as_secs_f64(), gen_ms })
}

fn submit(rc: &mut RealConfig, op: &Op) -> Result<OpKey, String> {
    let report = match op {
        Op::Change(cs) => rc.apply_change(cs),
        Op::Window(burst) => rc.apply_coalesced(burst),
    }
    .map_err(|e| e.to_string())?;
    if report.recovered {
        return Err("verified by the rebuild fallback, not incrementally".into());
    }
    Ok(OpKey::of(&report))
}

/// The timed section of a `RealConfig` run.
#[derive(Default)]
struct Timed {
    /// Wall of each timed operation.
    lat_ms: Vec<f64>,
    /// Raw changes the timed operations submitted.
    changes: usize,
    wall_s: f64,
    /// Operations that returned an error (reported on stderr as they
    /// happen) — counted against the number attempted.
    failed: u64,
    peak_rss_mb: f64,
}

fn drive(
    rc: &mut RealConfig,
    stream: &mut Stream,
    cfg: &RunConfig,
    durable: bool,
) -> Result<Timed, String> {
    let mut out = Timed::default();
    for _ in 0..cfg.spec.warmup {
        if let Err(e) = submit(rc, &stream.next_op()) {
            eprintln!("FAILED OP (warm-up): {e}");
            out.failed += 1;
        }
    }
    let start = Instant::now();
    loop {
        let op = stream.next_op();
        let t = Instant::now();
        let verdict = submit(rc, &op);
        out.lat_ms.push(ms_since(t));
        if let Err(e) = verdict {
            eprintln!("FAILED OP {}: {e}", out.lat_ms.len() - 1);
            out.failed += 1;
        }
        out.changes += op.raw_changes();
        let done = out.lat_ms.len();
        if done == RSS_CHECKPOINT_OPS {
            out.peak_rss_mb = peak_rss_mb();
        }
        if durable && done % SNAPSHOT_EVERY == 0 {
            // Inside the timed section: a snapshot pause is part of what
            // the client waits through.
            rc.save_snapshot().map_err(|e| format!("snapshot: {e}"))?;
        }
        if start.elapsed().as_secs_f64() >= cfg.seconds || cfg.max_ops.is_some_and(|m| done >= m) {
            break;
        }
    }
    out.wall_s = start.elapsed().as_secs_f64();
    if out.lat_ms.len() < RSS_CHECKPOINT_OPS {
        out.peak_rss_mb = peak_rss_mb();
    }
    Ok(out)
}

/// `VmHWM` of this process in MB (0 without procfs).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Filesystem type of the mount holding `path`, from `/proc/mounts`.
fn fs_type(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mount, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount).then(|| (mount.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

fn tool_version(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The environment every output records next to its numbers.
pub fn environment(state_root: &Path) -> BTreeMap<String, String> {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let _ = std::fs::create_dir_all(state_root);
    [
        ("git_commit", tool_version("git", &["rev-parse", "HEAD"])),
        ("rustc", tool_version("rustc", &["--version"])),
        ("host_cores", cores.to_string()),
        ("par.threads", THREADS.to_string()),
        ("state_dir_fs", fs_type(state_root)),
        ("load", "closed loop, 1 client".to_string()),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect()
}

/// A state directory no other run — in this process or another — uses.
fn fresh_state_dir(cfg: &RunConfig) -> PathBuf {
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let run = RUNS.fetch_add(1, Ordering::Relaxed);
    cfg.state_root.join(format!("{}-{}-{run}", cfg.spec.name, std::process::id()))
}

/// Compare the live verifier with a from-scratch build over its final
/// configurations and the same policies.
fn check_against_scratch(live: &RealConfig, policies: &[PolicySpec]) -> Vec<String> {
    let (mut fresh, _) = match RealConfig::new(live.configs().clone()) {
        Ok(built) => built,
        Err(e) => return vec![format!("from-scratch build of the final configs failed: {e}")],
    };
    register(&mut fresh, policies);
    fresh.recheck_policies();
    Observed::of(live).diff(&Observed::of(&fresh), "incremental vs from-scratch")
}

/// Reopen `dir` and compare with the live verifier; returns the restore
/// wall in ms.
fn restore_and_check(dir: &Path, live: &RealConfig, problems: &mut Vec<String>) -> f64 {
    let t = Instant::now();
    let opened = RealConfig::open(dir, BTreeMap::new());
    let wall = ms_since(t);
    match opened {
        Ok((restored, report)) => {
            if !matches!(report.source, RestoreSource::Snapshot { .. })
                || report.discarded_corrupt > 0
            {
                problems.push(format!("restore degraded: {:?} {:?}", report.source, report.notes));
            }
            problems.extend(Observed::of(live).diff(&Observed::of(&restored), "live vs restored"));
        }
        Err(e) => problems.push(format!("restore failed: {e}")),
    }
    wall
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    pin_knobs();
    let state = fresh_state_dir(cfg);
    let result = if cfg.traced { run_traced(cfg, &state) } else { run_untraced(cfg, &state) };
    let _ = std::fs::remove_dir_all(&state);
    result
}

impl Outcome {
    /// `failed` counts operations that returned an error; a failed
    /// output check (`problems`) fails every operation of the run.
    fn judge(attempted: u64, failed: u64, metrics: Metrics, problems: Vec<String>) -> Outcome {
        let failed = if problems.is_empty() { failed } else { attempted };
        Outcome { correct: failed == 0, attempted, failed, metrics, problems }
    }
}

/// p50 of the last quarter of the samples over p50 of the first.
fn drift(lat_ms: &[f64]) -> f64 {
    let q = (lat_ms.len() / 4).max(1);
    let first = median(&lat_ms[..q]).unwrap_or(0.0);
    let last = median(&lat_ms[lat_ms.len() - q..]).unwrap_or(0.0);
    if first > 0.0 {
        last / first
    } else {
        0.0
    }
}

fn run_untraced(cfg: &RunConfig, state: &Path) -> Result<Outcome, String> {
    let durable = cfg.spec.kind == Kind::Durable;
    let dir = state.join("ref");
    let dir_opt = durable.then_some(dir.as_path());

    // Set up several times (one verifier alive at a time, so the RSS
    // high-water mark stays a single verifier's) and keep the last.
    let mut setup_s = Vec::new();
    let mut live = None;
    for _ in 0..SETUPS {
        drop(live.take());
        let s = setup(&cfg.spec, cfg.seed, dir_opt)?;
        setup_s.push(s.seconds);
        live = Some(s);
    }
    let Setup { mut rc, topo, policies, .. } = live.expect("SETUPS > 0");

    let mut stream = Stream::new(&cfg.spec, &topo, cfg.seed);
    let timed = drive(&mut rc, &mut stream, cfg, durable)?;

    let mut problems = check_against_scratch(&rc, &policies);
    if durable {
        restore_and_check(&dir, &rc, &mut problems);
    }

    let mut metrics = Metrics::new();
    let mut put = |name: &str, value: Option<f64>| {
        metrics.insert(name.to_string(), Metric::new(name, value.unwrap_or(0.0)));
    };
    put("setup_s", median(&setup_s));
    put("apply_p50_ms", median(&timed.lat_ms));
    put("changes_per_s", Some(timed.changes as f64 / timed.wall_s));
    put("peak_rss_mb", Some(timed.peak_rss_mb));

    let attempted = (timed.lat_ms.len() + cfg.spec.warmup) as u64;
    Ok(Outcome::judge(attempted, timed.failed, metrics, problems))
}

/// Counter deltas over the timed section of the traced run.
struct CounterDelta {
    before: MetricsSnapshot,
    after: MetricsSnapshot,
}

impl CounterDelta {
    fn get(&self, name: &str) -> f64 {
        let at = |s: &MetricsSnapshot| s.counters.get(name).copied().unwrap_or(0);
        at(&self.after).saturating_sub(at(&self.before)) as f64
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The read half of the store layer, on what the reference left behind:
/// the final snapshot and the journal tail restore replays.
fn store_read_back(tracer: &mut Tracer, dir: &Path, problems: &mut Vec<String>) {
    tracer.set_op(NO_OP);
    let s = tracer.enter("store.journal_read");
    let journal = read_journal(&journal_path(dir));
    tracer.exit(s);
    let newest = rc_store::list_snapshots(dir).ok().and_then(|l| l.into_iter().next());
    let s = tracer.enter("store.snapshot_decode");
    let snapshot = newest
        .ok_or_else(|| "no snapshot".to_string())
        .and_then(|(_, path)| read_file(&path).map_err(|e| e.to_string()))
        .and_then(|bytes| decode_snapshot(&bytes).map_err(|e| e.to_string()));
    tracer.exit(s);
    match (journal, snapshot) {
        (Ok(j), Ok(_)) if j.records.len() == RESTORE_TAIL && j.discarded == 0 => {}
        (j, s) => problems.push(format!(
            "store read-back: journal {:?}, snapshot {:?}",
            j.map(|j| (j.records.len(), j.discarded)).map_err(|e| e.to_string()),
            s.map(|sections| sections.len())
        )),
    }
}

/// The store layer of the traced side: a state directory of its own,
/// fed the exact bytes `RealConfig` writes to the reference directory.
struct StoreMirror<'a> {
    ref_dir: &'a Path,
    dir: &'a Path,
    seq: u64,
    journal: Journal,
    /// Records already taken from the reference journal.
    taken: usize,
}

impl<'a> StoreMirror<'a> {
    fn new(ref_dir: &'a Path, dir: &'a Path) -> Result<Self, String> {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        let journal = Journal::create(&journal_path(dir), 1).map_err(|e| e.to_string())?;
        Ok(StoreMirror { ref_dir, dir, seq: 1, journal, taken: 0 })
    }

    /// The record `RealConfig` just appended for the last operation.
    fn take_record(&mut self) -> Result<Vec<u8>, String> {
        let mut read = read_journal(&journal_path(self.ref_dir)).map_err(|e| e.to_string())?;
        if read.records.len() != self.taken + 1 || read.discarded > 0 {
            return Err(format!(
                "reference journal holds {} records ({} torn) after {} operations",
                read.records.len(),
                read.discarded,
                self.taken + 1
            ));
        }
        self.taken += 1;
        Ok(read.records.pop().expect("length checked"))
    }

    /// `RealConfig` just saved a snapshot (and started a fresh journal):
    /// the file it wrote.
    fn take_snapshot(&mut self, seq: u64) -> Result<Vec<u8>, String> {
        self.taken = 0;
        read_file(&snapshot_path(self.ref_dir, seq)).map_err(|e| e.to_string())
    }

    /// Encode and write the pipeline's own snapshot, under spans, and
    /// require it to be byte-identical to the one `RealConfig` wrote.
    fn snapshot(
        &mut self,
        pipe: &mut LayerPipeline,
        reference: &[u8],
        problems: &mut Vec<String>,
    ) -> Result<usize, String> {
        self.seq += 1;
        let s = pipe.tracer.enter("store.snapshot_encode");
        let bytes = encode_snapshot(&pipe.snapshot_sections());
        pipe.tracer.exit(s);
        let s = pipe.tracer.enter("store.snapshot_write");
        let written = atomic_write(&snapshot_path(self.dir, self.seq), &bytes)
            .and_then(|()| Journal::create(&journal_path(self.dir), self.seq))
            .and_then(|journal| prune_snapshots(self.dir, 2).map(|()| journal));
        pipe.tracer.exit(s);
        self.journal = written.map_err(|e| e.to_string())?;
        if bytes != reference {
            problems.push(format!(
                "snapshot {}: the pipeline encoded {} bytes, RealConfig wrote {} — contents differ",
                self.seq,
                bytes.len(),
                reference.len()
            ));
        }
        Ok(bytes.len())
    }
}

/// What the paired loop of a traced run measured.
#[derive(Default)]
struct Paired {
    /// `RealConfig`, untraced: per-operation wall, outputs, failures.
    ref_lat_ms: Vec<f64>,
    ref_keys: Vec<OpKey>,
    ref_failed: u64,
    ref_snapshot_ms: Vec<f64>,
    restore_ms: Vec<f64>,
    /// The layer pipeline, traced: wall of its operations and snapshots,
    /// and the boundary counts of each operation.
    traced_wall_ms: f64,
    counts: Vec<OpCounts>,
    ecs_peak: usize,
    trace_records_peak: usize,
    journal_bytes: usize,
    snapshot_bytes: usize,
    snapshots: usize,
    /// Set-up figures that are not spans: config generation, print →
    /// parse of every config, bytes of the printed config set, and the
    /// cost of one empty span.
    gen_ms: f64,
    parse_ms: f64,
    config_bytes: usize,
    span_cost_ns: f64,
}

/// An operation `RealConfig` has verified and the layer pipeline has
/// yet to, with what `RealConfig` wrote to its state directory for it.
struct Pending {
    op: Op,
    /// The journal record of the operation (durable workload only).
    record: Option<Vec<u8>>,
    /// The snapshot file saved right after the operation, if one was.
    snapshot: Option<Vec<u8>>,
}

/// The two verifiers of a traced run and what feeds them.
struct Pair<'a> {
    rc: RealConfig,
    pipe: LayerPipeline,
    store: Option<StoreMirror<'a>>,
    stream: Stream,
}

impl Pair<'_> {
    /// The next `n` operations of the stream, first all through
    /// `RealConfig` (untraced, each timed), then all through the layer
    /// pipeline under spans. `first_id` is the timed index of the first
    /// operation, `None` during warm-up (nothing is recorded then).
    fn block(
        &mut self,
        n: usize,
        first_id: Option<usize>,
        run: &mut Paired,
        problems: &mut Vec<String>,
    ) -> Result<(), String> {
        let mut pending = Vec::with_capacity(n);
        for i in 0..n {
            let op = self.stream.next_op();
            let t = Instant::now();
            let key = submit(&mut self.rc, &op);
            let ref_ms = ms_since(t);
            if let Err(e) = &key {
                eprintln!("FAILED OP: {e}");
                run.ref_failed += 1;
            }
            let record = self.store.as_mut().map(StoreMirror::take_record).transpose()?;
            let mut snapshot = None;
            if let Some(id) = first_id {
                run.ref_lat_ms.push(ref_ms);
                run.ref_keys.push(key.unwrap_or_default());
                run.journal_bytes += record.as_ref().map_or(0, |r| r.len() + 8);
                if let Some(store) =
                    self.store.as_mut().filter(|_| (id + i + 1) % SNAPSHOT_EVERY == 0)
                {
                    let t = Instant::now();
                    let seq = self.rc.save_snapshot().map_err(|e| format!("snapshot: {e}"))?;
                    run.ref_snapshot_ms.push(ms_since(t));
                    snapshot = Some(store.take_snapshot(seq)?);
                }
            }
            pending.push(Pending { op, record, snapshot });
        }

        for (i, p) in pending.iter().enumerate() {
            let sink = self.store.as_ref().map(|s| &s.journal).zip(p.record.as_deref());
            let op_id = first_id.map_or(NO_OP, |id| (id + i) as u32);
            let t = Instant::now();
            let counts = self.pipe.apply(&p.op, op_id, sink)?;
            let traced_ms = ms_since(t);
            if first_id.is_none() {
                continue;
            }
            run.traced_wall_ms += traced_ms;
            run.counts.push(counts);
            run.ecs_peak = run.ecs_peak.max(self.pipe.num_ecs());
            run.trace_records_peak = run.trace_records_peak.max(self.pipe.trace_records());
            if let Some((store, reference)) = self.store.as_mut().zip(p.snapshot.as_deref()) {
                let t = Instant::now();
                run.snapshot_bytes += store.snapshot(&mut self.pipe, reference, problems)?;
                run.traced_wall_ms += ms_since(t);
                run.snapshots += 1;
            }
        }
        Ok(())
    }
}

/// Operations per block of the traced run.
const BLOCK: usize = 10;

/// The traced run. The stream goes through `RealConfig` (untraced,
/// timed) and then through the layer pipeline (traced) in alternating
/// blocks of [`BLOCK`] operations, so the two walls being compared were
/// measured about a second apart: on a shared host whose speed drifts by
/// 10 % over minutes, two whole runs back to back cannot resolve a
/// difference of a few percent, and `core.overhead_ms` is exactly such a
/// difference. Blocks rather than single operations, so that each
/// verifier mostly runs on caches it warmed itself, as it would alone.
fn run_traced(cfg: &RunConfig, state: &Path) -> Result<Outcome, String> {
    let durable = cfg.spec.kind == Kind::Durable;
    let span_cost_ns = Tracer::span_cost_ns(1_000_000);
    let mut problems = Vec::new();

    let (ref_dir, traced_dir) = (state.join("ref"), state.join("traced"));
    let Setup { rc, topo, policies, gen_ms, .. } =
        setup(&cfg.spec, cfg.seed, durable.then_some(ref_dir.as_path()))?;

    let net = cfg.spec.network();
    let texts: Vec<String> = net.configs.values().map(print_config).collect();
    let t = Instant::now();
    for text in &texts {
        parse_config(text).map_err(|e| format!("generated config does not parse: {e}"))?;
    }
    let mut run = Paired {
        gen_ms,
        parse_ms: ms_since(t),
        config_bytes: texts.iter().map(String::len).sum(),
        span_cost_ns,
        ..Default::default()
    };

    let mut pipe = LayerPipeline::build(net.configs)?;
    pipe.register_policies(&policies);
    let store = if durable { Some(StoreMirror::new(&ref_dir, &traced_dir)?) } else { None };

    let stream = Stream::new(&cfg.spec, &topo, cfg.seed);
    let mut pair = Pair { rc, pipe, store, stream };
    pair.block(cfg.spec.warmup, None, &mut run, &mut problems)?;
    let counters_before = pair.pipe.telemetry().snapshot();
    let max_ops = cfg.max_ops.unwrap_or(usize::MAX);
    let start = Instant::now();
    while run.counts.len() < max_ops
        && (run.counts.is_empty() || start.elapsed().as_secs_f64() < cfg.seconds)
    {
        let done = run.counts.len();
        pair.block(BLOCK.min(max_ops - done), Some(done), &mut run, &mut problems)?;
    }
    let Pair { mut rc, mut pipe, mut stream, .. } = pair;
    let counters = CounterDelta { before: counters_before, after: pipe.telemetry().snapshot() };

    // ---- Output checks. ----
    problems.extend(pipe.observed().diff(&Observed::of(&rc), "layer pipeline vs RealConfig"));
    let traced_keys: Vec<OpKey> = run.counts.iter().map(|c| c.key).collect();
    if hash_keys(&traced_keys) != hash_keys(&run.ref_keys) {
        let first = traced_keys.iter().zip(&run.ref_keys).position(|(a, b)| a != b);
        problems.push(format!(
            "per-operation report hash differs between traced and untraced (first at op {first:?})"
        ));
    }

    // ---- Restore: a final snapshot, a fixed journal tail behind it,
    // then reopen the directory a few times and read it back. ----
    if durable {
        rc.save_snapshot().map_err(|e| format!("final snapshot: {e}"))?;
        for _ in 0..RESTORE_TAIL {
            if let Err(e) = submit(&mut rc, &stream.next_op()) {
                problems.push(format!("journal tail: {e}"));
            }
        }
        for _ in 0..RESTORES {
            run.restore_ms.push(restore_and_check(&ref_dir, &rc, &mut problems));
        }
        store_read_back(&mut pipe.tracer, &ref_dir, &mut problems);
    }

    let metrics = per_layer_metrics(&run, &pipe, &counters, &mut problems);
    write_trace(&cfg.out_dir, cfg.spec.name, pipe.tracer.spans())?;

    let attempted = (run.counts.len() + cfg.spec.warmup) as u64;
    Ok(Outcome::judge(attempted, run.ref_failed, metrics, problems))
}

/// Turn the spans and boundary counts of a traced run into the
/// per-layer metrics.
fn per_layer_metrics(
    run: &Paired,
    pipe: &LayerPipeline,
    delta: &CounterDelta,
    problems: &mut Vec<String>,
) -> Metrics {
    let counts = &run.counts;
    let durable = run.journal_bytes > 0;
    let spans = pipe.tracer.spans();
    let own = self_times_ns(spans);
    let timed_op = |s: &Span| s.op != NO_OP;
    let layers = by_name(spans, |s| timed_op(s) && s.name != "op");
    let setup_spans = by_name(spans, |s| s.op == NO_OP && s.parent == NO_PARENT);
    let op_total_ns: u64 =
        spans.iter().filter(|s| timed_op(s) && s.name == "op").map(Span::duration_ns).sum();
    let op_self_ns: u64 = spans
        .iter()
        .zip(&own)
        .filter(|(s, _)| timed_op(s) && s.name == "op")
        .map(|(_, own)| *own)
        .sum();
    let total = |name: &str| ms(layers.total_ns.get(name).copied().unwrap_or(0));
    let once = |name: &str| ms(setup_spans.total_ns.get(name).copied().unwrap_or(0));
    let p50_us = |name: &str| {
        let per_op: Vec<f64> = layers
            .per_op_ns
            .get(name)
            .map(|m| m.values().map(|ns| *ns as f64 / 1e3).collect())
            .unwrap_or_default();
        median(&per_op).unwrap_or(0.0)
    };
    let sum = |f: fn(&OpCounts) -> usize| counts.iter().map(f).sum::<usize>() as f64;

    // Both walls cover the same operations and the same snapshots.
    let untraced_wall_ms =
        run.ref_lat_ms.iter().sum::<f64>() + run.ref_snapshot_ms.iter().sum::<f64>();
    let traced_wall_ms = run.traced_wall_ms;
    let n_ops = counts.len() as f64;
    let restore_p50 = median(&run.restore_ms).unwrap_or(0.0);

    let mut m = Metrics::new();
    let mut put = |name: &str, value: f64| {
        m.insert(name.to_string(), Metric::new(name, value));
    };
    // netcfg
    put("netcfg.gen_ms", run.gen_ms);
    put("netcfg.parse_ms", run.parse_ms);
    put("netcfg.change_apply_ms", total("netcfg.change_apply"));
    put("netcfg.coalesce_ms", total("netcfg.coalesce"));
    put("netcfg.lower_ms", total("netcfg.lower"));
    put("netcfg.lower_p50_us", p50_us("netcfg.lower"));
    put("netcfg.fact_delta_ms", total("netcfg.fact_delta"));
    put("netcfg.print_diff_ms", total("netcfg.print_diff"));
    put("netcfg.fact_changes", sum(|c| c.fact_changes));
    put("netcfg.facts_final", pipe.num_facts() as f64);
    // routing / dataflow
    put("routing.full_build_ms", once("routing.full_build"));
    put("routing.apply_ms", total("routing.apply"));
    put("routing.apply_p50_us", p50_us("routing.apply"));
    put("routing.fib_changes", sum(|c| c.fib_changes));
    put("routing.filter_changes", sum(|c| c.filter_changes));
    put("dataflow.records", counts.iter().map(|c| c.dp_records).sum::<u64>() as f64);
    for op in ["join", "map", "min", "concat", "filter"] {
        let name = format!("dataflow.work.{op}");
        put(&name, delta.get(&name));
    }
    put("dataflow.steps_run", delta.get("dataflow.sched.steps_run"));
    put("dataflow.steps_skipped", delta.get("dataflow.sched.steps_skipped"));
    put("dataflow.compact_ms", total("dataflow.compact"));
    put("dataflow.compact_calls", sum(|c| c.compacted as usize));
    put("dataflow.trace_records_peak", run.trace_records_peak as f64);
    put("dataflow.trace_records_final", pipe.trace_records() as f64);
    // apkeep / bdd
    let affected_ecs = sum(|c| c.key.affected_ecs);
    put("apkeep.full_build_ms", once("apkeep.full_build"));
    put("apkeep.batch_ms", total("apkeep.batch"));
    put("apkeep.batch_p50_us", p50_us("apkeep.batch"));
    put("apkeep.rules_applied", sum(|c| c.rules_applied));
    put("apkeep.ec_moves", sum(|c| c.ec_moves));
    put("apkeep.ec_splits", sum(|c| c.ec_splits));
    put("apkeep.affected_ecs", affected_ecs);
    put("apkeep.ecs_peak", run.ecs_peak as f64);
    put("apkeep.ecs_final", pipe.num_ecs() as f64);
    put("apkeep.rules_final", pipe.observed().rules as f64);
    put("apkeep.move_waste", ratio(sum(|c| c.ec_moves), affected_ecs));
    let (probes, skipped) = (delta.get("apkeep.index_probes"), delta.get("apkeep.index_skipped"));
    put("apkeep.index_skip_ratio", ratio(skipped, probes + skipped));
    let (hits, misses) = (delta.get("bdd.apply_hits"), delta.get("bdd.apply_misses"));
    put("bdd.apply_hit_ratio", ratio(hits, hits + misses));
    // policy / par
    let affected_pairs = sum(|c| c.key.affected_pairs);
    put("policy.check_full_ms", once("policy.check_full"));
    put("par.check_full_t2_ms", once("par.check_full_t2"));
    put("policy.check_ms", total("policy.check"));
    put("policy.check_p50_us", p50_us("policy.check"));
    put("policy.link_delta_ms", total("policy.link_delta"));
    put("policy.affected_ecs", sum(|c| c.policy_affected_ecs));
    put("policy.affected_pairs", affected_pairs);
    put("policy.changed_pairs", sum(|c| c.changed_pairs));
    put("policy.policies_checked", sum(|c| c.policies_checked));
    put("policy.verdict_flips", sum(|c| c.key.newly_violated + c.key.newly_satisfied));
    put("policy.pairs_final", pipe.observed().pairs as f64);
    put("policy.recheck_waste", ratio(affected_pairs, sum(|c| c.changed_pairs)));
    put("par.threads", THREADS as f64);
    // core / telemetry / harness
    put("core.configs_clone_ms", total("core.configs_clone"));
    put("core.fib_group_ms", total("core.fib_group"));
    put("core.fib_group_p50_us", p50_us("core.fib_group"));
    put("telemetry.snapshot_ms", total("telemetry.snapshot"));
    put("core.overhead_ms", untraced_wall_ms - traced_wall_ms);
    put("core.overhead_per_op_us", (untraced_wall_ms - traced_wall_ms) * 1e3 / n_ops);
    put("core.coverage", ratio((op_total_ns - op_self_ns) as f64, op_total_ns as f64));
    put("core.op_self_ms", ms(op_self_ns));
    put("core.traced_wall_ms", traced_wall_ms);
    put("core.untraced_wall_ms", untraced_wall_ms);
    put("core.timed_ops", n_ops);
    put("core.cancelled_ops", sum(|c| c.cancelled_ops));
    put("core.noop_windows", sum(|c| c.noop_window as usize));
    // Tail percentiles and drift of the untraced half: reported, not
    // bounded — on a shared 2-core host their run-to-run spread exceeds
    // any bound worth setting. 0 = refused (under ten samples beyond).
    put("core.apply_p90_ms", tail_percentile(&run.ref_lat_ms, 90.0).unwrap_or(0.0));
    put("core.apply_p95_ms", tail_percentile(&run.ref_lat_ms, 95.0).unwrap_or(0.0));
    put("core.apply_drift", drift(&run.ref_lat_ms));
    put("trace.span_cost_ns", run.span_cost_ns);
    put("trace.spans", spans.len() as f64);
    // store
    put("store.journal_append_ms", total("store.journal_append"));
    put("store.journal_append_p50_us", p50_us("store.journal_append"));
    put("store.journal_records", if durable { n_ops } else { 0.0 });
    put("store.journal_bytes", run.journal_bytes as f64);
    put("store.snapshot_encode_ms", total("store.snapshot_encode"));
    put("store.snapshot_write_ms", total("store.snapshot_write"));
    put("store.snapshot_bytes", ratio(run.snapshot_bytes as f64, run.snapshots as f64));
    put("store.snapshots", run.snapshots as f64);
    put("store.journal_read_ms", once("store.journal_read"));
    put("store.snapshot_decode_ms", once("store.snapshot_decode"));
    put("store.snapshot_p50_ms", median(&run.ref_snapshot_ms).unwrap_or(0.0));
    put("store.restore_p50_ms", restore_p50);
    put(
        "store.restore_share",
        ratio(once("store.journal_read") + once("store.snapshot_decode"), restore_p50),
    );
    put(
        "store.bytes_per_config_byte",
        ratio(run.journal_bytes as f64, n_ops * run.config_bytes as f64),
    );
    // shares of the traced wall
    let share =
        |names: &[&str]| 100.0 * ratio(names.iter().map(|n| total(n)).sum::<f64>(), traced_wall_ms);
    put(
        "share.netcfg",
        share(&[
            "netcfg.change_apply",
            "netcfg.coalesce",
            "netcfg.lower",
            "netcfg.fact_delta",
            "netcfg.print_diff",
        ]),
    );
    put("share.routing", share(&["routing.apply"]));
    put("share.apkeep", share(&["apkeep.batch"]));
    put("share.policy", share(&["policy.check", "policy.link_delta"]));
    put("share.core", share(&["core.configs_clone", "core.fib_group"]));
    put(
        "share.store",
        share(&["store.journal_append", "store.snapshot_encode", "store.snapshot_write"]),
    );
    put("share.dataflow_compact", share(&["dataflow.compact"]));
    put("share.telemetry", share(&["telemetry.snapshot"]));
    put("share.op_self", 100.0 * ratio(ms(op_self_ns), traced_wall_ms));

    // The ledger must add up: layer spans + op self time = traced wall.
    let layer_sum_ms: f64 = layers.total_ns.values().map(|ns| ms(*ns)).sum();
    let accounted = layer_sum_ms + ms(op_self_ns);
    if (accounted - traced_wall_ms).abs() > 0.02 * traced_wall_ms {
        problems.push(format!(
            "ledger does not add up: layers {layer_sum_ms:.1} ms + op self {:.1} ms vs traced wall {traced_wall_ms:.1} ms",
            ms(op_self_ns)
        ));
    }

    m
}

/// Write the spans of a traced run, one JSON object per line inside an
/// array, to `<out_dir>/<workload>.trace.json`.
fn write_trace(out_dir: &Path, workload: &str, spans: &[Span]) -> Result<(), String> {
    use std::fmt::Write as _;
    let mut text = String::with_capacity(spans.len() * 96);
    text.push_str("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == NO_PARENT { -1 } else { s.parent as i64 };
        let op = if s.op == NO_OP { -1 } else { s.op as i64 };
        let comma = if i + 1 == spans.len() { "" } else { "," };
        let _ = writeln!(
            text,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{op}}}{comma}",
            s.name, s.start_ns, s.end_ns
        );
    }
    text.push_str("]\n");
    std::fs::create_dir_all(out_dir).map_err(|e| e.to_string())?;
    let path = out_dir.join(format!("{workload}.trace.json"));
    atomic_write(&path, text.as_bytes()).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{END_TO_END, PER_LAYER};
    use crate::workloads::WORKLOADS;

    fn smoke_cfg(spec: Spec, traced: bool) -> RunConfig {
        let scratch = std::env::temp_dir().join(format!("rc-perf-test-{}", std::process::id()));
        RunConfig {
            spec: spec.smoke(),
            seed: 5,
            // Bounded by operations, not time: the counts asserted below
            // must not depend on how fast this machine is.
            seconds: 60.0,
            traced,
            max_ops: Some(40),
            state_root: scratch.join("state"),
            out_dir: scratch.join("out"),
        }
    }

    /// The traced run's own output checks are the equivalence proof:
    /// FIB, rules, pairs, verdicts and the per-operation report hash of
    /// the layer pipeline against `RealConfig`, on every workload type
    /// (and, on the durable one, byte-identical snapshots).
    #[test]
    fn layer_pipeline_matches_realconfig_on_every_workload() {
        for spec in WORKLOADS {
            let outcome = run(&smoke_cfg(spec, true)).unwrap();
            assert_eq!(outcome.problems, Vec::<String>::new(), "{}", spec.name);
            assert!(outcome.correct && outcome.failed == 0, "{}", spec.name);
            let emitted: Vec<&str> = outcome.metrics.keys().map(String::as_str).collect();
            let mut declared: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
            declared.sort_unstable();
            assert_eq!(emitted, declared, "{}", spec.name);
            assert!(outcome.metrics["core.coverage"].value > 0.5, "{}", spec.name);
            assert_eq!(outcome.metrics["core.timed_ops"].value, 40.0, "{}", spec.name);
        }
    }

    #[test]
    fn untraced_run_matches_a_from_scratch_build_on_every_workload() {
        for spec in WORKLOADS {
            let outcome = run(&smoke_cfg(spec, false)).unwrap();
            assert_eq!(outcome.problems, Vec::<String>::new(), "{}", spec.name);
            assert!(outcome.correct, "{}", spec.name);
            assert_eq!(outcome.attempted, 44, "{}: 4 warm-up + 40 timed", spec.name);
            for m in &END_TO_END {
                let got = outcome.metrics.get(m.name).unwrap_or_else(|| panic!("{}", m.name));
                assert!(got.value > 0.0 && got.unit == m.unit, "{} = {got:?}", m.name);
            }
        }
    }

    #[test]
    fn a_failed_check_fails_every_operation() {
        let outcome = |failed, problems| Outcome::judge(44, failed, Metrics::new(), problems);
        let clean = outcome(0, vec![]);
        assert!(clean.correct && clean.failed == 0);
        let one_err = outcome(1, vec![]);
        assert!(!one_err.correct && one_err.failed == 1);
        let bad_check = outcome(0, vec!["FIB differs".into()]);
        assert!(!bad_check.correct && bad_check.failed == 44);
    }

    #[test]
    fn drift_compares_the_last_quarter_with_the_first() {
        let flat: Vec<f64> = (0..40).map(|_| 5.0).collect();
        assert_eq!(drift(&flat), 1.0);
        let rising: Vec<f64> = (0..40).map(|i| if i < 10 { 2.0 } else { 6.0 }).collect();
        assert_eq!(drift(&rising), 3.0);
    }
}
