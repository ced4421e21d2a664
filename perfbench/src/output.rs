//! The result line and the human-readable report before it.

use crate::catalog::{self, MetricDef};
use std::collections::BTreeMap;
use std::fmt::Write;

/// A run's metrics and the output checks it failed.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Operations attempted, over every pass and phase.
    pub attempted: u64,
    /// Operations that failed (refusals by design excluded).
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Every output check that failed; the run is correct when empty.
    pub issues: Vec<String>,
}

impl RunResult {
    /// Sets a declared metric.
    ///
    /// # Panics
    /// When `name` is not declared in [`catalog`].
    pub fn set(&mut self, name: &str, value: f64) {
        let def = catalog::lookup(name).unwrap_or_else(|| panic!("undeclared metric {name}"));
        self.metrics.insert(def.name, value);
    }

    /// The result line: one JSON object carrying exactly the metrics in
    /// `defs`. A missing or non-finite value makes the run incorrect
    /// (and prints as 0, keeping the line valid JSON).
    pub fn json_line(&mut self, defs: &[MetricDef]) -> String {
        let mut metrics = String::new();
        for (i, def) in defs.iter().enumerate() {
            let value = match self.metrics.get(def.name) {
                Some(v) if v.is_finite() => *v,
                Some(v) => {
                    self.issues.push(format!("{} is {v}", def.name));
                    0.0
                }
                None => {
                    self.issues.push(format!("{} was not measured", def.name));
                    0.0
                }
            };
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                def.name,
                json_number(value),
                def.unit
            );
        }
        let correct = self.issues.is_empty();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.attempted.max(1),
            self.failed
        )
    }

    /// One `name value unit` row per metric in `defs`.
    pub fn render(&self, defs: &[MetricDef]) -> String {
        let mut out = String::new();
        for def in defs {
            let value = self.metrics.get(def.name).copied().unwrap_or(f64::NAN);
            let _ = writeln!(out, "  {:<34} {:>16.6} {}", def.name, value, def.unit);
        }
        out
    }
}

/// Renders a finite number with every digit Rust's shortest round-trip
/// form keeps (integers get a trailing `.0` only when they are floats).
pub fn json_number(value: f64) -> String {
    if value == value.trunc() && value.abs() < 1e15 {
        format!("{value:.1}")
    } else {
        format!("{value}")
    }
}
