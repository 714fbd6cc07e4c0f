//! Results: the `workload metric value unit` lines, the driver's
//! last-line JSON object, the result file, and `--check`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::Json;
use crate::setup::{clients, host_cpus, Sizes, Workload};
use crate::stats;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples the value was computed from.
    pub samples: usize,
    /// Spread of the value within this run (interquartile distance over
    /// the median of its slices, rounds or repetitions); 0 when the
    /// run has no repeated measurement of it.
    pub spread: f64,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
            spread: 0.0,
        }
    }

    pub fn spread(mut self, repeats: &[f64]) -> Metric {
        self.spread = stats::spread(repeats);
        self
    }
}

/// Everything one workload's pass produced.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    pub workload: Workload,
    pub sizes: Sizes,
    pub attempted: u64,
    pub failed: u64,
    /// Failed checks and failed operations, in words. Empty = correct.
    pub problems: Vec<String>,
    /// The metrics `BENCHMARK.json` names for this pass.
    pub metrics: Vec<Metric>,
    /// Printed with their sample counts, never gated.
    pub diagnostics: Vec<Metric>,
}

impl WorkloadResult {
    pub fn new(workload: Workload, sizes: &Sizes) -> WorkloadResult {
        WorkloadResult {
            workload,
            sizes: sizes.clone(),
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            metrics: Vec::new(),
            diagnostics: Vec::new(),
        }
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// `workload metric value unit` for every number, diagnostics
    /// marked and sample counts shown.
    pub fn print_lines(&self) {
        let w = self.workload.name();
        for m in &self.metrics {
            println!("{w} {} {} {} (n={})", m.name, m.value, m.unit, m.samples);
        }
        println!(
            "{w} fail_ratio {} ratio (failed={} attempted={})",
            self.fail_ratio(),
            self.failed,
            self.attempted
        );
        for m in &self.diagnostics {
            println!(
                "{w} diag.{} {} {} (n={})",
                m.name, m.value, m.unit, m.samples
            );
        }
        for p in &self.problems {
            println!("{w} PROBLEM {p}");
        }
    }

    /// The one JSON object the driver reads off the last line.
    pub fn contract_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Run conditions two results must share to be comparable.
#[derive(Debug, Clone)]
pub struct RunInfo {
    pub seed: u64,
    pub smoke: bool,
    pub traced: bool,
    pub warmup_s: f64,
    pub window_s: f64,
    pub setup_budget_s: f64,
}

/// The result file: run conditions, then every workload's numbers.
pub fn result_json(info: &RunInfo, results: &[WorkloadResult]) -> String {
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"host_cpus\": {},", host_cpus());
    let _ = writeln!(s, "  \"clients\": {},", clients());
    let _ = writeln!(s, "  \"workers\": {},", host_cpus());
    let _ = writeln!(s, "  \"seed\": {},", info.seed);
    let _ = writeln!(s, "  \"smoke\": {},", info.smoke);
    let _ = writeln!(s, "  \"traced\": {},", info.traced);
    let _ = writeln!(s, "  \"warmup_s\": {},", info.warmup_s);
    let _ = writeln!(s, "  \"window_s\": {},", info.window_s);
    let _ = writeln!(s, "  \"setup_budget_s\": {},", info.setup_budget_s);
    let _ = writeln!(
        s,
        "  \"fsync_policy\": {{\"fsync\": true, \"group_commit\": true, \
         \"checkpoint\": \"inline after an ack once the live WAL reaches checkpoint_bytes\"}},"
    );
    let _ = writeln!(s, "  \"workloads\": {{");
    for (i, r) in results.iter().enumerate() {
        let z = &r.sizes;
        let _ = writeln!(s, "    \"{}\": {{", r.workload.name());
        let _ = writeln!(
            s,
            "      \"sizes\": {{\"n\": {}, \"d\": {}, \"limit\": {}, \"keys\": {}, \
             \"envelope_rows\": {}, \"round_envelopes\": {}, \"pace_per_s\": {}, \
             \"checkpoint_bytes\": {}}},",
            z.n,
            z.d,
            z.limit,
            z.keys,
            z.envelope_rows,
            z.round_envelopes,
            z.pace_per_s,
            z.checkpoint_bytes
        );
        let _ = writeln!(s, "      \"correct\": {},", r.correct());
        let _ = writeln!(s, "      \"attempted\": {},", r.attempted);
        let _ = writeln!(s, "      \"failed\": {},", r.failed);
        for (key, list) in [("metrics", &r.metrics), ("diagnostics", &r.diagnostics)] {
            let _ = writeln!(s, "      \"{key}\": {{");
            for (j, m) in list.iter().enumerate() {
                let _ = writeln!(
                    s,
                    "        \"{}\": {{\"value\": {}, \"unit\": \"{}\", \"samples\": {}, \
                     \"spread\": {}}}{}",
                    m.name,
                    json_number(m.value),
                    m.unit,
                    m.samples,
                    json_number(m.spread),
                    if j + 1 < list.len() { "," } else { "" }
                );
            }
            let _ = writeln!(s, "      }}{}", if key == "metrics" { "," } else { "" });
        }
        let _ = writeln!(s, "    }}{}", if i + 1 < results.len() { "," } else { "" });
    }
    s.push_str("  }\n}\n");
    s
}

/// `(better, bound)` of every end-to-end metric in `BENCHMARK.json`.
fn bounds(benchmark: &Json) -> Result<BTreeMap<String, (bool, f64)>, String> {
    let list = benchmark
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without a name")?;
            let higher = m.get("better").and_then(Json::as_str) == Some("higher");
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("metric without a bound")?;
            Ok((name.to_string(), (higher, bound)))
        })
        .collect()
}

/// Compares result file `b` against `a`, metric by metric, against the
/// bounds in `BENCHMARK.json`. Returns the table and whether any
/// metric regressed. Refuses runs made under different conditions.
pub fn check(benchmark: &str, a: &str, b: &str) -> Result<(String, bool), String> {
    let benchmark = Json::parse(benchmark).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let a = Json::parse(a).map_err(|e| format!("first result: {e}"))?;
    let b = Json::parse(b).map_err(|e| format!("second result: {e}"))?;
    for key in [
        "host_cpus",
        "clients",
        "workers",
        "seed",
        "smoke",
        "warmup_s",
        "window_s",
        "setup_budget_s",
    ] {
        if a.get(key) != b.get(key) {
            return Err(format!(
                "runs are not comparable: {key} is {:?} in the first and {:?} in the second",
                a.get(key),
                b.get(key)
            ));
        }
    }
    let bounds = bounds(&benchmark)?;
    let empty = BTreeMap::new();
    let wa = a
        .get("workloads")
        .and_then(Json::as_object)
        .unwrap_or(&empty);
    let wb = b
        .get("workloads")
        .and_then(Json::as_object)
        .unwrap_or(&empty);
    let mut table = format!(
        "{:<20} {:<10} {:>14} {:>14} {:>8} {:>7} {:>7}  verdict\n",
        "workload", "metric", "first", "second", "change", "bound", "spread"
    );
    let mut regressed = false;
    for (workload, ra) in wa {
        let Some(rb) = wb.get(workload) else {
            return Err(format!("second result lacks workload {workload}"));
        };
        if ra.get("sizes") != rb.get("sizes") {
            return Err(format!(
                "runs are not comparable: sizes of {workload} differ"
            ));
        }
        for (metric, &(higher, bound)) in &bounds {
            let field = |r: &Json, f: &str| {
                r.get("metrics")
                    .and_then(|m| m.get(metric))
                    .and_then(|m| m.get(f))
                    .and_then(Json::as_f64)
            };
            let (Some(va), Some(vb)) = (field(ra, "value"), field(rb, "value")) else {
                return Err(format!("{workload} {metric} missing from a result"));
            };
            let change = (vb - va) / va;
            let worse = if higher { -change } else { change };
            let spread = field(ra, "spread")
                .unwrap_or(0.0)
                .max(field(rb, "spread").unwrap_or(0.0));
            let verdict = if spread > bound {
                "unresolved"
            } else if worse > bound {
                regressed = true;
                "REGRESSED"
            } else if worse < -bound {
                "improved"
            } else {
                "unchanged"
            };
            let _ = writeln!(
                table,
                "{workload:<20} {metric:<10} {va:>14.4} {vb:>14.4} {:>+7.1}% {:>6.0}% {:>6.1}%  {verdict}",
                change * 100.0,
                bound * 100.0,
                spread * 100.0
            );
        }
        for r in [ra, rb] {
            if r.get("failed").and_then(Json::as_f64) != Some(0.0)
                || r.get("correct") != Some(&Json::Bool(true))
            {
                regressed = true;
                let _ = writeln!(
                    table,
                    "{workload:<20} fail_ratio is not 0 in one run  REGRESSED"
                );
            }
        }
    }
    Ok((table, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK: &str = r#"{"end_to_end": [
        {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
        {"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}]}"#;

    fn result(seed: u64, ops: f64, p50: f64, p50_spread: f64) -> String {
        let mut r =
            WorkloadResult::new(Workload::PointServe, &Sizes::of(Workload::PointServe, true));
        r.attempted = 10;
        r.metrics.push(Metric::new("ops_per_s", ops, "1/s", 10));
        let mut m = Metric::new("p50_ms", p50, "ms", 10);
        m.spread = p50_spread;
        r.metrics.push(m);
        let info = RunInfo {
            seed,
            smoke: true,
            traced: false,
            warmup_s: 0.2,
            window_s: 1.0,
            setup_budget_s: 0.0,
        };
        result_json(&info, &[r])
    }

    #[test]
    fn check_marks_each_pair() {
        let (table, regressed) = check(
            BENCHMARK,
            &result(1, 100.0, 2.0, 0.01),
            &result(1, 80.0, 2.1, 0.01),
        )
        .unwrap();
        assert!(regressed);
        assert!(
            table.contains("ops_per_s") && table.contains("REGRESSED"),
            "{table}"
        );
        assert!(
            table
                .lines()
                .any(|l| l.contains("p50_ms") && l.contains("unchanged")),
            "{table}"
        );

        let (table, regressed) = check(
            BENCHMARK,
            &result(1, 100.0, 2.0, 0.3),
            &result(1, 101.0, 3.0, 0.01),
        )
        .unwrap();
        assert!(
            !regressed,
            "a spread wider than the bound resolves nothing:\n{table}"
        );
        assert!(
            table
                .lines()
                .any(|l| l.contains("p50_ms") && l.contains("unresolved")),
            "{table}"
        );
    }

    #[test]
    fn check_refuses_different_conditions() {
        let err = check(
            BENCHMARK,
            &result(1, 1.0, 1.0, 0.0),
            &result(2, 1.0, 1.0, 0.0),
        )
        .unwrap_err();
        assert!(err.contains("seed"), "{err}");
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys() {
        let mut r = WorkloadResult::new(Workload::GammaScan, &Sizes::of(Workload::GammaScan, true));
        r.attempted = 3;
        r.metrics.push(Metric::new("p50_ms", 1.25, "ms", 3));
        let line = Json::parse(&r.contract_line()).unwrap();
        let keys: Vec<_> = line.as_object().unwrap().keys().cloned().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(
            line.get("metrics")
                .unwrap()
                .get("p50_ms")
                .unwrap()
                .get("value"),
            Some(&Json::Num(1.25))
        );
    }
}
