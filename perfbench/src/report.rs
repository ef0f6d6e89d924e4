//! Collects a run's metrics, counts and check results, and prints them:
//! one human line per metric, then the result object as the last line.

use crate::stats::{quantile, Quantile};

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(&'static str, f64, &'static str)>,
    /// Operations attempted (lookups, or queries in serve-mixed).
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    mismatches: Vec<String>,
}

impl Report {
    /// Record `name = value unit`.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(self.metrics.iter().all(|m| m.0 != name), "metric {name} recorded twice");
        println!("{name} = {value} {unit}");
        self.metrics.push((name, value, unit));
    }

    /// Record quantile `q` of `samples` times `scale`, printing the
    /// sample count and how many samples lie beyond it.
    pub fn quantile(
        &mut self,
        name: &'static str,
        samples: &mut [f64],
        q: f64,
        scale: f64,
        unit: &'static str,
    ) -> Quantile {
        let got = quantile(samples, q);
        println!("# {name}: n={} beyond={}", got.n, got.beyond);
        self.metric(name, got.value * scale, unit);
        got
    }

    /// Print quantile `q` of `samples` times `scale` as a reported figure
    /// only: it stays out of the result object, so no bound gates it.
    pub fn reported(
        &mut self,
        name: &'static str,
        samples: &mut [f64],
        q: f64,
        scale: f64,
        unit: &'static str,
    ) {
        if samples.is_empty() {
            println!("# reported {name}: no samples");
            return;
        }
        let got = quantile(samples, q);
        println!(
            "# reported {name} = {} {unit} (n={} beyond={})",
            got.value * scale,
            got.n,
            got.beyond
        );
    }

    /// A correctness check: a false `ok` records a mismatch.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("MISMATCH: {msg}");
            self.mismatches.push(msg);
        }
    }

    /// True when every check passed.
    pub fn correct(&self) -> bool {
        self.mismatches.is_empty()
    }

    /// The result object (one line of JSON).
    pub fn json(&self) -> String {
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            body.join(", ")
        )
    }
}
