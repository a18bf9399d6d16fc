//! The benchmark's declaration, `BENCHMARK.json`, compiled into the
//! binary: the one place metric names, units, directions and bounds
//! are written down. A run that measures a name the file does not
//! declare, or misses one it does, is a bug and fails loudly.

use crate::json::Json;

/// The declaration as committed at the repository root.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One declared metric.
#[derive(Clone, Debug)]
pub struct MetricDecl {
    /// The permanent name.
    pub name: String,
    /// Unit of every reported value.
    pub unit: String,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parsed declaration.
#[derive(Clone, Debug)]
pub struct Decl {
    /// Seconds one driver run measures.
    pub run_seconds: f64,
    /// Workload names.
    pub workloads: Vec<String>,
    /// Metrics a user of the system would see (`--trace 0`).
    pub end_to_end: Vec<MetricDecl>,
    /// Metrics of single layers (`--trace 1`).
    pub per_layer: Vec<MetricDecl>,
}

impl Decl {
    /// Parses the compiled-in `BENCHMARK.json`.
    ///
    /// # Panics
    ///
    /// Panics if the file is not the shape the benchmark contract gives
    /// it — a build-time mistake, caught by the self-tests.
    pub fn load() -> Decl {
        let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
        let text = |v: &Json, key: &str| {
            v.get(key)
                .and_then(Json::as_str)
                .unwrap_or_else(|| panic!("{key} is a string"))
                .to_string()
        };
        let metrics = |key: &str| -> Vec<MetricDecl> {
            doc.get(key)
                .unwrap_or_else(|| panic!("BENCHMARK.json has {key}"))
                .items()
                .iter()
                .map(|m| MetricDecl {
                    name: text(m, "name"),
                    unit: text(m, "unit"),
                    higher_is_better: match text(m, "better").as_str() {
                        "higher" => true,
                        "lower" => false,
                        other => panic!("better is higher or lower, not {other}"),
                    },
                    bound: m.get("bound").and_then(Json::as_f64),
                })
                .collect()
        };
        Decl {
            run_seconds: doc.get("run_seconds").and_then(Json::as_f64).expect("run_seconds"),
            workloads: doc
                .get("workloads")
                .expect("BENCHMARK.json has workloads")
                .items()
                .iter()
                .map(|w| text(w, "name"))
                .collect(),
            end_to_end: metrics("end_to_end"),
            per_layer: metrics("per_layer"),
        }
    }

    /// The metrics a run with `--trace` set to `traced` must print.
    pub fn metrics(&self, traced: bool) -> &[MetricDecl] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declaration_matches_the_contract() {
        let d = Decl::load();
        // Permanent: later performance claims are made against these names.
        let names =
            ["stream_causal", "pingpong_causal", "sc_readwrite", "durable_session", "sim_check"];
        assert_eq!(d.workloads, names);
        assert_eq!(
            d.run_seconds,
            crate::workloads::FULL_SECONDS,
            "sizes are defined at run_seconds"
        );
        assert!((1..=16).contains(&d.end_to_end.len()) && (1..=128).contains(&d.per_layer.len()));
        let setup = d.end_to_end.iter().find(|m| m.name == "setup_s").expect("setup_s declared");
        assert!(setup.unit == "s" && !setup.higher_is_better);
        let mut seen = std::collections::HashSet::new();
        for m in d.end_to_end.iter().chain(&d.per_layer) {
            let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
            assert!(m.name.len() <= 64 && m.name.chars().all(ok), "bad name {}", m.name);
            assert!(m.name.starts_with(|c: char| c.is_ascii_alphanumeric()), "{}", m.name);
            let unit_ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
            assert!(!m.unit.is_empty() && m.unit.len() <= 16 && m.unit.chars().all(unit_ok));
            assert!(seen.insert(m.name.clone()), "{} declared twice", m.name);
        }
        for w in &d.workloads {
            assert!(seen.insert(w.clone()), "{w} names both a workload and a metric");
        }
        for m in &d.end_to_end {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!((0.0..=0.25).contains(&b), "{}: bound {b}", m.name);
        }
        assert!(d.per_layer.iter().all(|m| m.bound.is_none()), "per-layer metrics have no bound");
    }
}
