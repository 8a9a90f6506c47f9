//! One run's metrics and correctness tally, and the result line the
//! benchmark prints.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats::Tally;

/// Metrics measured by one run, plus its attempted/failed tally.
#[derive(Debug, Default)]
pub struct Report {
    metrics: BTreeMap<&'static str, f64>,
    /// Operations attempted and failed across the run.
    pub tally: Tally,
}

impl Report {
    /// Sets metric `name` to `value`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// The value of metric `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }

    /// Takes every metric of `other` this report lacks, and adds its
    /// tally: checks made by a probe count like any other.
    pub fn fill_missing(&mut self, other: Report) {
        for (name, value) in other.metrics {
            self.metrics.entry(name).or_insert(value);
        }
        self.tally.add(other.tally);
    }

    /// A human-readable table of the `expected` metrics, and the JSON
    /// result line.
    ///
    /// # Errors
    ///
    /// A message naming a metric that is missing, unexpected, or not a
    /// finite number: the run measured something other than it claims.
    pub fn render(
        &self,
        workload: &str,
        expected: &[(&str, &str)],
    ) -> Result<(String, String), String> {
        if let Some(extra) = self.metrics.keys().find(|k| !expected.iter().any(|(n, _)| n == *k)) {
            return Err(format!("{workload}: metric {extra} is not in this run's metric list"));
        }
        let mut table = String::new();
        let mut json = String::new();
        for (i, &(name, unit)) in expected.iter().enumerate() {
            let value = self.get(name).ok_or_else(|| format!("{workload}: {name} missing"))?;
            if !value.is_finite() {
                return Err(format!("{workload}: {name} = {value} is not finite"));
            }
            let _ = writeln!(table, "{workload:>14}  {name:<30} {value:>16.6} {unit}");
            if i > 0 {
                json.push_str(", ");
            }
            let _ = write!(json, "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
        }
        let line = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.tally.failed == 0 && self.tally.attempted > 0,
            self.tally.attempted,
            self.tally.failed,
        );
        Ok((table, line))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LIST: [(&str, &str); 2] = [("a_ms", "ms"), ("b", "count")];

    #[test]
    fn result_line_carries_every_metric_with_its_unit() {
        let mut r = Report::default();
        r.set("a_ms", 1.25);
        r.set("b", 3.0);
        r.tally.check(true);
        let (table, json) = r.render("w", &LIST).expect("complete");
        assert!(table.contains("a_ms") && table.contains("count"));
        assert_eq!(
            json,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"a_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \"b\": {\"value\": 3, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut r = Report::default();
        r.set("a_ms", 1.0);
        r.set("b", 1.0);
        r.tally.check(true);
        r.tally.check(false);
        let (_, json) = r.render("w", &LIST).expect("complete");
        assert!(json.starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));
    }

    #[test]
    fn missing_unknown_or_non_finite_metrics_are_refused() {
        let mut r = Report::default();
        r.set("a_ms", 1.0);
        assert!(r.render("w", &LIST).is_err(), "b is missing");
        r.set("b", f64::NAN);
        assert!(r.render("w", &LIST).is_err(), "b is NaN");
        r.set("b", 2.0);
        r.set("zzz", 2.0);
        assert!(r.render("w", &LIST).is_err(), "zzz is not listed");
    }

    #[test]
    fn fill_missing_keeps_own_values_and_adds_the_tally() {
        let mut own = Report::default();
        own.set("a_ms", 1.0);
        own.tally.check(true);
        let mut probe = Report::default();
        probe.set("a_ms", 9.0);
        probe.set("b", 2.0);
        probe.tally.check(false);
        own.fill_missing(probe);
        assert_eq!((own.get("a_ms"), own.get("b")), (Some(1.0), Some(2.0)));
        assert_eq!(own.tally, Tally { attempted: 2, failed: 1 });
    }
}
