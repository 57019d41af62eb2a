//! The JSON a run prints and the result files `perf run` writes and
//! `perf compare` reads.

use std::collections::BTreeMap;

use crate::runner::Outcome;

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// `{"name": {"value": v, "unit": "u"}, ...}`, values with all their
/// digits.
fn metrics_json<'a>(metrics: impl Iterator<Item = (&'a str, f64, &'a str)>) -> String {
    let items: Vec<String> = metrics
        .map(|(name, value, unit)| {
            // JSON has no NaN or infinity; a metric that is one is a bug
            // worth seeing rather than hiding.
            assert!(value.is_finite(), "metric {name} is {value}");
            format!("\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", escape(name), escape(unit))
        })
        .collect();
    format!("{{{}}}", items.join(", "))
}

/// The one-line result the benchmark contract asks for: exactly
/// `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(o: &Outcome) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics_json(o.metrics.iter().map(|(n, m)| (n.as_str(), m.value, m.unit)))
    )
}

/// One run as stored in a result file.
#[derive(Clone, Debug)]
pub struct RunRecord {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// name → (value, unit)
    pub metrics: BTreeMap<String, (f64, String)>,
}

impl RunRecord {
    /// Parse a child's result line.
    pub fn from_result_line(
        workload: &str,
        seed: u64,
        traced: bool,
        line: &str,
    ) -> Result<RunRecord, String> {
        let doc = serde_json::from_str(line).map_err(|e| format!("result line: {e}"))?;
        Self::from_value(&doc, workload.to_string(), seed, traced)
    }

    fn from_value(
        doc: &serde_json::Value,
        workload: String,
        seed: u64,
        traced: bool,
    ) -> Result<RunRecord, String> {
        let metrics = doc["metrics"]
            .as_object()
            .ok_or("result without metrics")?
            .iter()
            .map(|(name, m)| {
                let value = m["value"].as_f64().ok_or_else(|| format!("{name}: no value"))?;
                let unit = m["unit"].as_str().unwrap_or("").to_string();
                Ok((name.clone(), (value, unit)))
            })
            .collect::<Result<_, String>>()?;
        Ok(RunRecord {
            workload,
            seed,
            traced,
            correct: doc["correct"].as_bool().ok_or("result without `correct`")?,
            attempted: doc["attempted"].as_u64().ok_or("result without `attempted`")?,
            failed: doc["failed"].as_u64().ok_or("result without `failed`")?,
            metrics,
        })
    }

    fn json(&self) -> String {
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            escape(&self.workload),
            self.seed,
            self.traced as u8,
            self.correct,
            self.attempted,
            self.failed,
            metrics_json(self.metrics.iter().map(|(n, (v, u))| (n.as_str(), *v, u.as_str())))
        )
    }
}

/// A result file: the environment the runs were made in, and the runs.
pub struct ResultFile {
    pub info: BTreeMap<String, String>,
    pub runs: Vec<RunRecord>,
}

impl ResultFile {
    pub fn to_json(&self) -> String {
        let info: Vec<String> = self
            .info
            .iter()
            .map(|(k, v)| format!("    \"{}\": \"{}\"", escape(k), escape(v)))
            .collect();
        let runs: Vec<String> = self.runs.iter().map(|r| format!("    {}", r.json())).collect();
        format!(
            "{{\n  \"info\": {{\n{}\n  }},\n  \"runs\": [\n{}\n  ]\n}}\n",
            info.join(",\n"),
            runs.join(",\n")
        )
    }

    pub fn parse(text: &str) -> Result<ResultFile, String> {
        let doc = serde_json::from_str(text).map_err(|e| e.to_string())?;
        let info = doc["info"]
            .as_object()
            .map(|o| {
                o.iter().map(|(k, v)| (k.clone(), v.as_str().unwrap_or("").to_string())).collect()
            })
            .unwrap_or_default();
        let runs = doc["runs"]
            .as_array()
            .ok_or("result file without runs")?
            .iter()
            .map(|r| {
                let workload = r["workload"].as_str().ok_or("run without workload")?.to_string();
                let seed = r["seed"].as_u64().ok_or("run without seed")?;
                let traced = r["trace"].as_u64().ok_or("run without trace")? == 1;
                RunRecord::from_value(r, workload, seed, traced)
            })
            .collect::<Result<_, String>>()?;
        Ok(ResultFile { info, runs })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{Metric, Metrics};

    #[test]
    fn result_line_round_trips_through_a_result_file() {
        let mut metrics = Metrics::new();
        metrics.insert("apply_p50_ms".into(), Metric { value: 12.345678901234, unit: "ms" });
        metrics.insert("setup_s".into(), Metric { value: 0.75, unit: "s" });
        let o = Outcome { correct: true, attempted: 288, failed: 0, metrics, problems: vec![] };
        let line = result_line(&o);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 288, \"failed\": 0, "));
        let rec = RunRecord::from_result_line("bgp8_acl", 3, false, &line).unwrap();
        assert_eq!(rec.metrics["apply_p50_ms"], (12.345678901234, "ms".to_string()));

        let file = ResultFile {
            info: BTreeMap::from([("rustc".to_string(), "rustc 1.0 (\"x\")".to_string())]),
            runs: vec![rec],
        };
        let back = ResultFile::parse(&file.to_json()).unwrap();
        assert_eq!(back.info["rustc"], "rustc 1.0 (\"x\")");
        assert_eq!(back.runs[0].workload, "bgp8_acl");
        assert_eq!(back.runs[0].seed, 3);
        assert_eq!(back.runs[0].metrics["setup_s"].0, 0.75);
    }
}
