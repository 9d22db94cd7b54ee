//! Check accounting and the one-line JSON result.

use std::fmt::Write;

/// Operations attempted and failed, with the first few failure messages.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    failures: Vec<String>,
}

impl Outcome {
    /// Counts one operation; a failed one records `what` for the error log.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }

    /// Counts `n` operations that completed without a check of their own.
    pub fn completed(&mut self, n: u64) {
        self.attempted += n;
    }

    pub fn ok_rate(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.attempted.max(1) as f64
    }

    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}

/// Named metrics with units, in insertion order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    /// Overwrites the value of an existing metric.
    pub fn replace(&mut self, name: &str, value: f64) {
        for (n, v, _) in &mut self.0 {
            if n == name {
                *v = value;
            }
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, _)| v)
    }

    pub fn iter(&self) -> impl Iterator<Item = &(String, f64, &'static str)> {
        self.0.iter()
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn to_json(&self, outcome: &Outcome) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            outcome.failed == 0,
            outcome.attempted,
            outcome.failed
        );
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // `{:?}` prints the shortest representation that round-trips, so
            // every measured digit survives.
            write!(
                s,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String cannot fail");
        }
        s.push_str("}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut outcome = Outcome::default();
        outcome.check(true, String::new);
        let mut m = Metrics::default();
        m.set("latency_ms", 1.25, "ms");
        m.set("n", 3.0, "count");
        assert_eq!(
            m.to_json(&outcome),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\
             \"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"n\": {\"value\": 3.0, \"unit\": \"count\"}}}"
        );
    }
}
