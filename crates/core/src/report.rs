//! Verification reports: what each pipeline stage did and how long it
//! took. Serializable so benchmark harnesses can persist raw results.

use std::time::Duration;

use serde::Serialize;


/// Report of the initial, full verification.
#[derive(Clone, Debug, Default, Serialize)]
pub struct FullReport {
    /// Wall time of the full data plane generation.
    #[serde(with = "duration_micros")]
    pub dp_gen: Duration,
    /// Dataflow records processed (machine-independent work measure).
    pub dp_records: u64,
    /// FIB entries produced.
    pub fib_entries: usize,
    /// Data plane rules installed into the EC model.
    pub rules: usize,
    #[serde(with = "duration_micros")]
    pub model_update: Duration,
    /// ECs in the model after the build.
    pub ecs: usize,
    #[serde(with = "duration_micros")]
    pub policy_check: Duration,
    /// (src, dst) pairs with deliverable traffic.
    pub pairs: usize,
    /// Policies violated from the start (raw ids).
    pub violated: Vec<u32>,
    /// Lowering warnings, formatted.
    pub warnings: Vec<String>,
    /// Pipeline-wide telemetry at the end of the full verification
    /// (cumulative counters, current gauges, latency histograms).
    pub metrics: rc_telemetry::MetricsSnapshot,
}

/// Report of one incremental change verification — the paper's
/// pipeline, stage by stage (Figure 1), with the quantities Tables 2
/// and 3 report.
#[derive(Clone, Debug, Default, Serialize)]
pub struct ChangeReport {
    /// Configuration lines inserted (across devices).
    pub lines_inserted: usize,
    /// Configuration lines deleted.
    pub lines_deleted: usize,
    /// Input facts changed.
    pub fact_changes: usize,

    /// Stage 1: incremental data plane generation.
    #[serde(with = "duration_micros")]
    pub dp_gen: Duration,
    pub dp_records: u64,
    /// FIB + filter rules inserted.
    pub rules_inserted: usize,
    /// FIB + filter rules removed.
    pub rules_removed: usize,

    /// Stage 2: incremental data plane model update.
    #[serde(with = "duration_micros")]
    pub model_update: Duration,
    /// EC move events including transients (order-sensitive churn).
    pub ec_moves: usize,
    /// EC splits performed, including splits whose child ended the
    /// batch on its pre-split action — churn, like `ec_moves`, not a
    /// measure of behaviour change.
    pub ec_splits: usize,
    /// ECs whose behaviour changed somewhere (net). This — not
    /// `ec_splits`/`ec_moves` — is what drives the incremental policy
    /// re-check.
    pub affected_ecs: usize,

    /// Stage 3: incremental policy checking.
    #[serde(with = "duration_micros")]
    pub policy_check: Duration,
    /// Pairs whose paths were modified (the paper's "#Pairs").
    pub affected_pairs: usize,
    /// Pairs whose deliverable-EC set changed (subset of the above).
    pub changed_pairs: usize,
    pub total_pairs: usize,
    pub policies_checked: usize,
    pub newly_violated: Vec<u32>,
    pub newly_satisfied: Vec<u32>,

    /// Number of pending changes this apply coalesced into one
    /// transaction (0 when the change came through the one-at-a-time
    /// path, see `RealConfig::apply_coalesced`).
    pub coalesced_changes: usize,
    /// Operations the coalescer cancelled as superseded writes
    /// (last-writer-wins folding of set-type operations).
    pub cancelled_ops: usize,
    /// True when a coalesced burst folded to a net no-op: the
    /// configurations were unchanged, so the pipeline (and the journal)
    /// were skipped entirely.
    pub coalesced_noop: bool,

    /// New lowering warnings introduced by this change.
    pub warnings: Vec<String>,
    /// True when the incremental path failed and this change was
    /// verified by the self-healing full-rebuild fallback instead
    /// (`OnFailure::Rebuild`). The per-stage timings then measure the
    /// rebuild, not incremental work.
    pub recovered: bool,
    /// Pipeline-wide telemetry at the end of this change. Counters are
    /// cumulative since the verifier was built, gauges are current.
    pub metrics: rc_telemetry::MetricsSnapshot,
}

impl ChangeReport {
    /// Total verification time across all three stages.
    pub fn total(&self) -> Duration {
        self.dp_gen + self.model_update + self.policy_check
    }
}

mod duration_micros {
    use serde::Serializer;
    use std::time::Duration;

    pub fn serialize<S: Serializer>(d: &Duration, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_u128(d.as_micros())
    }
}
