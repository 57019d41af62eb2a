//! `perf compare A.json B.json`: is B a regression of A?
//!
//! Per workload, one row for every end-to-end metric with both medians,
//! the relative change (positive = worse) and the metric's bound. A
//! metric whose own run-to-run spread in either file exceeds the bound
//! is *unresolved*, not unchanged. Count metrics of the traced runs must
//! match exactly when both files ran the same number of timed
//! operations. Exit code 1 on a breach, a count mismatch or a failed
//! operation.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::process::ExitCode;

use crate::report::{ResultFile, RunRecord};
use crate::schema::{EndToEnd, END_TO_END};
use crate::stats::{iqr_share, median};

#[derive(Debug, PartialEq)]
pub enum Verdict {
    Within,
    Breach,
    Unresolved,
}

#[derive(Debug)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub a: f64,
    pub b: f64,
    /// Relative change of B against A, signed so that positive is worse.
    pub worse_by: f64,
    pub bound: f64,
    pub spread_a: Option<f64>,
    pub spread_b: Option<f64>,
    pub verdict: Verdict,
}

fn values(runs: &[&RunRecord], metric: &str) -> Vec<f64> {
    runs.iter().filter_map(|r| r.metrics.get(metric).map(|(v, _)| *v)).collect()
}

fn row(workload: &str, m: &EndToEnd, a: &[&RunRecord], b: &[&RunRecord]) -> Option<Row> {
    let (va, vb) = (values(a, m.name), values(b, m.name));
    let (ma, mb) = (median(&va)?, median(&vb)?);
    let change = if ma != 0.0 { (mb - ma) / ma.abs() } else { 0.0 };
    let worse_by = if m.better == "higher" { -change } else { change };
    let (spread_a, spread_b) = (iqr_share(&va), iqr_share(&vb));
    let noisy = [spread_a, spread_b].iter().flatten().any(|s| *s > m.bound);
    let verdict = if noisy {
        Verdict::Unresolved
    } else if worse_by > m.bound {
        Verdict::Breach
    } else {
        Verdict::Within
    };
    Some(Row {
        workload: workload.to_string(),
        metric: m.name,
        a: ma,
        b: mb,
        worse_by,
        bound: m.bound,
        spread_a,
        spread_b,
        verdict,
    })
}

/// Count metrics that differ between the first traced run of each side,
/// or `None` when the two ran different numbers of timed operations
/// (time-bounded runs) and counts are not comparable.
fn count_mismatches(a: &[&RunRecord], b: &[&RunRecord]) -> Option<Vec<String>> {
    let (ra, rb) = (a.iter().find(|r| r.traced)?, b.iter().find(|r| r.traced)?);
    let ops = |r: &RunRecord| r.metrics.get("core.timed_ops").map(|(v, _)| *v);
    if ops(ra) != ops(rb) || ra.seed != rb.seed {
        return None;
    }
    Some(
        ra.metrics
            .iter()
            .filter(|(_, (_, unit))| unit == "count")
            .filter_map(|(name, (va, _))| {
                let vb = rb.metrics.get(name).map(|(v, _)| *v);
                (vb != Some(*va)).then(|| format!("{name}: {va} vs {vb:?}"))
            })
            .collect(),
    )
}

pub struct Comparison {
    pub rows: Vec<Row>,
    pub count_mismatches: Vec<String>,
    pub counts_skipped: Vec<String>,
    pub failed_ops: Vec<String>,
}

impl Comparison {
    pub fn breached(&self) -> bool {
        self.rows.iter().any(|r| r.verdict == Verdict::Breach)
            || !self.count_mismatches.is_empty()
            || !self.failed_ops.is_empty()
    }
}

fn by_workload(f: &ResultFile) -> BTreeMap<&str, Vec<&RunRecord>> {
    let mut map: BTreeMap<&str, Vec<&RunRecord>> = BTreeMap::new();
    for r in &f.runs {
        map.entry(&r.workload).or_default().push(r);
    }
    map
}

fn untraced<'a>(runs: &[&'a RunRecord]) -> Vec<&'a RunRecord> {
    runs.iter().copied().filter(|r| !r.traced).collect()
}

pub fn compare(a: &ResultFile, b: &ResultFile) -> Comparison {
    let (wa, wb) = (by_workload(a), by_workload(b));
    let mut out = Comparison {
        rows: Vec::new(),
        count_mismatches: Vec::new(),
        counts_skipped: Vec::new(),
        failed_ops: Vec::new(),
    };
    for (side, f) in [("A", a), ("B", b)] {
        for r in f.runs.iter().filter(|r| !r.correct || r.failed > 0) {
            out.failed_ops.push(format!(
                "{side}: {} seed {} trace {}: {} of {} operations failed",
                r.workload, r.seed, r.traced as u8, r.failed, r.attempted
            ));
        }
    }
    let names: BTreeSet<&str> = wa.keys().chain(wb.keys()).copied().collect();
    for name in names {
        let (Some(ra), Some(rb)) = (wa.get(name), wb.get(name)) else {
            out.count_mismatches.push(format!("{name}: present in only one file"));
            continue;
        };
        let (ua, ub) = (untraced(ra), untraced(rb));
        out.rows.extend(END_TO_END.iter().filter_map(|m| row(name, m, &ua, &ub)));
        match count_mismatches(ra, rb) {
            Some(diffs) => {
                out.count_mismatches.extend(diffs.into_iter().map(|d| format!("{name}: {d}")))
            }
            None => out.counts_skipped.push(name.to_string()),
        }
    }
    out
}

fn pct(x: f64) -> String {
    format!("{:+.1}%", 100.0 * x)
}

pub fn run(a: &Path, b: &Path) -> Result<ExitCode, String> {
    let load = |p: &Path| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{}: {e}", p.display()))
            .and_then(|t| ResultFile::parse(&t).map_err(|e| format!("{}: {e}", p.display())))
    };
    let (fa, fb) = (load(a)?, load(b)?);
    let cmp = compare(&fa, &fb);

    println!(
        "{:<16} {:<14} {:>12} {:>12} {:>9} {:>7} {:>9} {:>9}  verdict",
        "workload", "metric", "A", "B", "worse by", "bound", "spread A", "spread B"
    );
    for r in &cmp.rows {
        let spread = |s: Option<f64>| s.map_or_else(|| "n/a".to_string(), pct);
        println!(
            "{:<16} {:<14} {:>12.4} {:>12.4} {:>9} {:>7} {:>9} {:>9}  {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            pct(r.worse_by),
            pct(r.bound),
            spread(r.spread_a),
            spread(r.spread_b),
            match r.verdict {
                Verdict::Within => "within",
                Verdict::Breach => "BREACH",
                Verdict::Unresolved => "unresolved",
            }
        );
    }
    for w in &cmp.counts_skipped {
        println!("{w}: counts not compared (different seed or number of timed operations)");
    }
    for m in &cmp.count_mismatches {
        println!("COUNT MISMATCH {m}");
    }
    for f in &cmp.failed_ops {
        println!("FAILED {f}");
    }
    Ok(if cmp.breached() { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(traced: bool, metrics: &[(&str, f64, &str)]) -> RunRecord {
        RunRecord {
            workload: "w".into(),
            seed: 1,
            traced,
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: metrics.iter().map(|(n, v, u)| (n.to_string(), (*v, u.to_string()))).collect(),
        }
    }

    fn file(p50s: &[f64], ec_moves: f64) -> ResultFile {
        let mut runs: Vec<RunRecord> = p50s
            .iter()
            .map(|v| {
                record(false, &[("apply_p50_ms", *v, "ms"), ("changes_per_s", 1000.0 / v, "1/s")])
            })
            .collect();
        runs.push(record(
            true,
            &[("core.timed_ops", 100.0, "count"), ("apkeep.ec_moves", ec_moves, "count")],
        ));
        ResultFile { info: BTreeMap::new(), runs }
    }

    #[test]
    fn same_numbers_are_within_bounds() {
        let cmp = compare(&file(&[10.0, 10.1, 10.2], 50.0), &file(&[10.1, 10.2, 10.3], 50.0));
        assert!(!cmp.breached());
        assert!(cmp.rows.iter().all(|r| r.verdict == Verdict::Within));
        assert!(cmp.counts_skipped.is_empty());
    }

    #[test]
    fn a_slowdown_beyond_the_bound_is_a_breach_in_both_directions_of_better() {
        let cmp = compare(&file(&[10.0, 10.1, 10.2], 50.0), &file(&[14.0, 14.1, 14.2], 50.0));
        assert!(cmp.breached());
        let p50 = cmp.rows.iter().find(|r| r.metric == "apply_p50_ms").unwrap();
        assert_eq!(p50.verdict, Verdict::Breach);
        // changes_per_s fell: higher is better, so that is worse too.
        let tput = cmp.rows.iter().find(|r| r.metric == "changes_per_s").unwrap();
        assert!(tput.worse_by > tput.bound, "{tput:?}");
        // And a speed-up is never a breach.
        let cmp = compare(&file(&[14.0, 14.1, 14.2], 50.0), &file(&[10.0, 10.1, 10.2], 50.0));
        assert!(!cmp.breached());
    }

    #[test]
    fn noisy_inputs_are_unresolved_not_unchanged() {
        let cmp = compare(&file(&[6.0, 10.0, 16.0], 50.0), &file(&[10.0, 10.1, 10.2], 50.0));
        let p50 = cmp.rows.iter().find(|r| r.metric == "apply_p50_ms").unwrap();
        assert_eq!(p50.verdict, Verdict::Unresolved);
    }

    #[test]
    fn counts_must_match_exactly() {
        let cmp = compare(&file(&[10.0, 10.1], 50.0), &file(&[10.0, 10.1], 51.0));
        assert!(cmp.breached());
        assert_eq!(cmp.count_mismatches.len(), 1);
    }

    #[test]
    fn failed_operations_breach() {
        let mut b = file(&[10.0, 10.1], 50.0);
        b.runs[0].failed = 1;
        assert!(compare(&file(&[10.0, 10.1], 50.0), &b).breached());
    }
}
