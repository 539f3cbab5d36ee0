//! The metric catalogue (read from the repo's `BENCHMARK.json`, the
//! single place names, units, directions and bounds are written down)
//! and the records runs are reported and stored as.

use crate::checks::Tally;
use caex_obs::json::{self, JsonValue};
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// One metric of the catalogue.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    /// Name as printed.
    pub name: String,
    /// Unit as printed.
    pub unit: String,
    /// `true` when larger values are better.
    pub higher_is_better: bool,
    /// Share of the baseline median by which the metric may worsen
    /// before it counts as a regression (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parsed `BENCHMARK.json`.
#[derive(Debug)]
pub struct Catalogue {
    /// Metrics a user of the system would see; every one has a bound.
    pub end_to_end: Vec<MetricDef>,
    /// Metrics of single layers.
    pub per_layer: Vec<MetricDef>,
    /// Workload names, in report order.
    pub workloads: Vec<String>,
    /// Seconds one run measures for.
    pub run_seconds: f64,
}

fn metric_defs(doc: &JsonValue, key: &str) -> Vec<MetricDef> {
    doc.get(key)
        .and_then(JsonValue::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks `{key}`"))
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(JsonValue::as_str)
                    .unwrap_or_else(|| panic!("metric in `{key}` lacks `{k}`"))
            };
            MetricDef {
                name: field("name").to_owned(),
                unit: field("unit").to_owned(),
                higher_is_better: match field("better") {
                    "higher" => true,
                    "lower" => false,
                    other => panic!("`better` is higher or lower, not `{other}`"),
                },
                bound: m.get("bound").and_then(JsonValue::as_f64),
            }
        })
        .collect()
}

impl Catalogue {
    /// Parses a `BENCHMARK.json` document.
    ///
    /// # Panics
    ///
    /// Panics on a document that is not the benchmark contract's
    /// shape; the embedded copy is checked by the unit tests.
    #[must_use]
    pub fn parse(text: &str) -> Catalogue {
        let doc = json::parse(text).expect("BENCHMARK.json is JSON");
        let workloads = doc
            .get("workloads")
            .and_then(JsonValue::as_array)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(JsonValue::as_str)
                    .expect("workload name")
                    .to_owned()
            })
            .collect();
        Catalogue {
            end_to_end: metric_defs(&doc, "end_to_end"),
            per_layer: metric_defs(&doc, "per_layer"),
            workloads,
            run_seconds: doc
                .get("run_seconds")
                .and_then(JsonValue::as_f64)
                .expect("run_seconds"),
        }
    }

    /// The metrics a run with the given `--trace` setting reports.
    #[must_use]
    pub fn metrics(&self, traced: bool) -> &[MetricDef] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

/// The catalogue this binary was built against.
#[must_use]
pub fn catalogue() -> &'static Catalogue {
    static CATALOGUE: OnceLock<Catalogue> = OnceLock::new();
    CATALOGUE.get_or_init(|| Catalogue::parse(include_str!("../../BENCHMARK.json")))
}

/// Metric values of one run, each with the number of samples behind
/// it (batches, rounds or timing samples).
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Measured {
    values: BTreeMap<&'static str, (f64, u64)>,
}

impl Measured {
    /// Records a metric.
    pub fn set(&mut self, name: &'static str, value: f64, samples: u64) {
        self.values.insert(name, (value, samples));
    }

    /// A recorded metric's value.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|(v, _)| *v)
    }

    /// Names recorded, in order.
    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.values.keys().copied()
    }
}

/// One run of one workload, as stored in results files.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Workload name.
    pub workload: String,
    /// The `--seed` of the run.
    pub seed: u64,
    /// The `--seconds` of the run.
    pub seconds: f64,
    /// `true` for the traced (per-layer) run.
    pub traced: bool,
    /// No operation gave a wrong answer and the failed share stayed
    /// within the workload's allowance.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// `(name, value, unit, samples)` in catalogue order.
    pub metrics: Vec<(String, f64, String, u64)>,
}

/// Share of operations a mesh workload may fail (a round that hits
/// the 500 ms cap on a stalled host) before the run is incorrect;
/// fleets run in virtual time and may fail none.
const MESH_FAILED_ALLOWANCE: f64 = 0.005;

impl RunRecord {
    /// Assembles a run's record: every catalogue metric for the trace
    /// setting, in catalogue order. A per-layer metric the workload has
    /// no layer for reads 0; an end-to-end metric must be measured.
    ///
    /// # Panics
    ///
    /// Panics if an end-to-end metric is missing or a recorded name is
    /// not in the catalogue — both are bugs in the benchmark.
    #[must_use]
    pub fn new(
        w: &crate::inputs::Workload,
        opts: &crate::RunOpts,
        tally: Tally,
        measured: &Measured,
    ) -> Self {
        let defs = catalogue().metrics(opts.traced);
        for name in measured.names() {
            assert!(
                defs.iter().any(|d| d.name == name),
                "`{name}` is not in BENCHMARK.json"
            );
        }
        let metrics = defs
            .iter()
            .map(|d| {
                let (value, samples) = match measured.values.get(d.name.as_str()) {
                    Some(&found) => found,
                    None if opts.traced => (0.0, 0),
                    None => panic!("end-to-end metric `{}` was not measured", d.name),
                };
                (d.name.clone(), value, d.unit.clone(), samples)
            })
            .collect();
        let allowance = match w.kind {
            crate::inputs::Kind::Fleet => 0.0,
            _ => MESH_FAILED_ALLOWANCE,
        };
        RunRecord {
            workload: w.name.to_owned(),
            seed: opts.seed,
            seconds: opts.seconds,
            traced: opts.traced,
            correct: tally.wrong == 0 && tally.failed_share() <= allowance && tally.attempted > 0,
            attempted: tally.attempted,
            failed: tally.failed,
            metrics,
        }
    }

    /// The four keys of the contract's result line; `with_samples`
    /// adds each metric's sample count (results files only).
    fn outcome_fields(&self, with_samples: bool) -> Vec<(String, JsonValue)> {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit, samples)| {
                let mut fields = vec![
                    ("value".into(), JsonValue::Num(*value)),
                    ("unit".into(), JsonValue::str(unit.clone())),
                ];
                if with_samples {
                    fields.push(("samples".into(), JsonValue::num(*samples)));
                }
                (name.clone(), JsonValue::Obj(fields))
            })
            .collect();
        vec![
            ("correct".into(), JsonValue::Bool(self.correct)),
            ("attempted".into(), JsonValue::num(self.attempted)),
            ("failed".into(), JsonValue::num(self.failed)),
            ("metrics".into(), JsonValue::Obj(metrics)),
        ]
    }

    /// The contract's result line: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    #[must_use]
    pub fn result_line(&self) -> JsonValue {
        JsonValue::Obj(self.outcome_fields(false))
    }

    /// The full record, for results files.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        let mut fields = vec![
            ("workload".into(), JsonValue::str(self.workload.clone())),
            ("seed".into(), JsonValue::num(self.seed)),
            ("seconds".into(), JsonValue::Num(self.seconds)),
            ("trace".into(), JsonValue::Bool(self.traced)),
        ];
        fields.extend(self.outcome_fields(true));
        JsonValue::Obj(fields)
    }

    /// Reads a record back.
    ///
    /// # Errors
    ///
    /// Names the first missing or mistyped field.
    pub fn from_json(doc: &JsonValue) -> Result<RunRecord, String> {
        let field = |k: &str| doc.get(k).ok_or_else(|| format!("run record lacks `{k}`"));
        let metrics = field("metrics")?
            .as_object()
            .ok_or("`metrics` is not an object")?
            .iter()
            .map(|(name, m)| {
                Ok((
                    name.clone(),
                    m.get("value")
                        .and_then(JsonValue::as_f64)
                        .ok_or("metric value")?,
                    m.get("unit")
                        .and_then(JsonValue::as_str)
                        .ok_or("metric unit")?
                        .to_owned(),
                    m.get("samples").and_then(JsonValue::as_u64).unwrap_or(0),
                ))
            })
            .collect::<Result<_, String>>()?;
        Ok(RunRecord {
            workload: field("workload")?.as_str().ok_or("workload")?.to_owned(),
            seed: field("seed")?.as_u64().ok_or("seed")?,
            seconds: field("seconds")?.as_f64().ok_or("seconds")?,
            traced: field("trace")?.as_bool().ok_or("trace")?,
            correct: field("correct")?.as_bool().ok_or("correct")?,
            attempted: field("attempted")?.as_u64().ok_or("attempted")?,
            failed: field("failed")?.as_u64().ok_or("failed")?,
            metrics,
        })
    }

    /// Prints every metric by name with its unit and sample count.
    pub fn print_table(&self, to: &mut dyn std::io::Write) -> std::io::Result<()> {
        writeln!(
            to,
            "{} seed={} trace={} attempted={} failed={} correct={}",
            self.workload,
            self.seed,
            u8::from(self.traced),
            self.attempted,
            self.failed,
            self.correct
        )?;
        for (name, value, unit, samples) in &self.metrics {
            writeln!(to, "  {name:<36} {value:>16.4} {unit:<6} (n={samples})")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::WORKLOADS;

    #[test]
    fn embedded_benchmark_json_meets_the_contract_shape() {
        let c = catalogue();
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(
            c.workloads, names,
            "BENCHMARK.json names the four workloads"
        );
        assert!((1.0..=60.0).contains(&c.run_seconds) && c.run_seconds.fract() == 0.0);
        assert!((1..=16).contains(&c.end_to_end.len()));
        assert!((1..=128).contains(&c.per_layer.len()));
        let setup = c
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit.as_str(), setup.higher_is_better), ("s", false));
        let widest = c
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(widest),
            "setup_s carries the largest bound"
        );
        for m in &c.end_to_end {
            let bound = m.bound.unwrap_or_else(|| panic!("{} has no bound", m.name));
            assert!(bound > 0.0 && bound <= 0.25, "{} bound {bound}", m.name);
        }
        let mut all: Vec<&str> = c
            .end_to_end
            .iter()
            .chain(&c.per_layer)
            .map(|m| m.name.as_str())
            .collect();
        all.extend(c.workloads.iter().map(String::as_str));
        let total = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), total, "every name is used once");
    }

    #[test]
    fn run_records_round_trip_and_print_the_contract_line() {
        let record = RunRecord {
            workload: "fleet_small".into(),
            seed: 7,
            seconds: 0.5,
            traced: false,
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: vec![("setup_s".into(), 0.123_456_789, "s".into(), 5)],
        };
        let back = RunRecord::from_json(&json::parse(&record.to_json().to_string()).unwrap());
        assert_eq!(back, Ok(record.clone()));
        assert_eq!(
            record.result_line().to_string(),
            r#"{"correct":true,"attempted":10,"failed":0,"metrics":{"setup_s":{"value":0.123456789,"unit":"s"}}}"#
        );
    }
}
