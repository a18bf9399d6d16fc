//! One run's result: the line a run prints, and the same line read back.

use std::collections::BTreeMap;

use crate::decl::MetricDecl;
use crate::json::{self, Json};
use crate::workloads::Report;

/// One run's result, as printed on (and parsed back from) the result line.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// No operation failed and no history or replica was found wrong.
    pub correct: bool,
    /// Program operations attempted (at least 1).
    pub attempted: u64,
    /// Operations that timed out, panicked or errored.
    pub failed: u64,
    /// Metric name → value.
    pub metrics: BTreeMap<String, f64>,
}

/// Checks a report against the declaration: every declared metric
/// measured, finite, and nothing undeclared.
pub fn to_result(report: Report, declared: &[MetricDecl]) -> Result<RunResult, String> {
    for name in report.metrics.keys() {
        if !declared.iter().any(|m| &m.name == name) {
            return Err(format!("measured {name}, which BENCHMARK.json does not declare"));
        }
    }
    for m in declared {
        match report.metrics.get(&m.name) {
            Some(v) if v.is_finite() => {}
            Some(v) => return Err(format!("{} measured as {v}", m.name)),
            None => return Err(format!("{} was not measured", m.name)),
        }
    }
    Ok(RunResult {
        correct: report.failed == 0 && report.violations == 0,
        attempted: report.attempted.max(1),
        failed: report.failed,
        metrics: report.metrics,
    })
}

/// The result line: one JSON object, the last line of standard output.
pub fn result_line(r: &RunResult, declared: &[MetricDecl]) -> String {
    let metrics: Vec<String> = declared
        .iter()
        .map(|m| {
            let value = r.metrics.get(&m.name).copied().unwrap_or(0.0);
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json::quote(&m.name),
                json::quote(&m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

/// Reads a result line back (`None` if it is not one).
pub fn parse_result_line(line: &str) -> Option<RunResult> {
    let doc = Json::parse(line).ok()?;
    let Json::Obj(metrics) = doc.get("metrics")? else { return None };
    Some(RunResult {
        correct: doc.get("correct")? == &Json::Bool(true),
        attempted: doc.get("attempted")?.as_f64()? as u64,
        failed: doc.get("failed")?.as_f64()? as u64,
        metrics: metrics
            .iter()
            .map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect::<Option<_>>()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decl::Decl;
    use crate::workloads::check_burst;
    use mc_model::{HistoryBuilder, Loc, ModelAssignment, ModelSpec, ProcId, ReadLabel, Value};

    fn full_report(decl: &Decl) -> Report {
        let mut report = Report { attempted: 10, ..Report::default() };
        for (i, m) in decl.end_to_end.iter().enumerate() {
            report.set(&m.name, 1.5 + i as f64);
        }
        report
    }

    #[test]
    fn result_line_round_trips_and_names_every_metric_once() {
        let decl = Decl::load();
        let result = to_result(full_report(&decl), &decl.end_to_end).expect("complete report");
        assert!(result.correct);
        // The parser rejects duplicate keys, so parsing proves "once".
        let back = parse_result_line(&result_line(&result, &decl.end_to_end)).expect("parses");
        assert_eq!(back.metrics, result.metrics);
        assert_eq!((back.correct, back.attempted, back.failed), (true, 10, 0));
    }

    #[test]
    fn undeclared_missing_and_non_finite_metrics_are_refused() {
        let decl = Decl::load();
        let mut extra = full_report(&decl);
        extra.set("made_up", 1.0);
        assert!(to_result(extra, &decl.end_to_end).is_err());
        let mut missing = full_report(&decl);
        missing.metrics.remove("setup_s");
        assert!(to_result(missing, &decl.end_to_end).is_err());
        let mut nan = full_report(&decl);
        nan.metrics.insert("setup_s".into(), f64::NAN);
        assert!(to_result(nan, &decl.end_to_end).is_err());
    }

    /// WRC, hand-built: p1 sees x=1 and then writes y; p2 sees that y
    /// but the initial x. Causal memory forbids it.
    #[test]
    fn an_injected_violation_fails_the_run() {
        let mut b = HistoryBuilder::new(3);
        b.push_write(ProcId(0), Loc(0), Value::Int(1));
        b.push_read(ProcId(1), Loc(0), ReadLabel::Causal, Value::Int(1));
        b.push_write(ProcId(1), Loc(1), Value::Int(1));
        b.push_read(ProcId(2), Loc(1), ReadLabel::Causal, Value::Int(1));
        b.push_read(ProcId(2), Loc(0), ReadLabel::Causal, Value::Int(0));
        let h = b.build().expect("well-formed");
        let models = ModelAssignment::uniform(3, ModelSpec::CAUSAL);
        let violations = check_burst(&h, &models, std::time::Duration::ZERO, &mut Vec::new());
        assert!(violations > 0, "the gate sees the stale read");
        let decl = Decl::load();
        let mut report = full_report(&decl);
        report.violations += violations;
        let result = to_result(report, &decl.end_to_end).expect("complete report");
        assert!(!result.correct, "`mcbench run` exits non-zero on an incorrect result");
    }
}
