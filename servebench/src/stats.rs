//! Summary statistics, the named-metric report and the result line.

use serde::Serialize;
use std::collections::BTreeMap;
use std::time::Duration;

/// Nearest-rank percentile of `values` (`p` in 0..=1); 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Interquartile mean: the mean of the values between the first and the
/// third quartile.
pub fn interquartile_mean(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = sorted.len() / 4;
    mean(&sorted[cut..sorted.len() - cut])
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Metrics in the order they were recorded, each with its unit.
#[derive(Default)]
pub struct Report {
    entries: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.entries.push((name, value, unit));
    }

    pub fn entries(&self) -> &[(&'static str, f64, &'static str)] {
        &self.entries
    }

    pub fn all_finite(&self) -> bool {
        self.entries.iter().all(|(_, v, _)| v.is_finite())
    }
}

#[derive(Serialize)]
struct Metric {
    value: f64,
    unit: &'static str,
}

#[derive(Serialize)]
struct ResultLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, Metric>,
}

/// The run's last stdout line. A non-finite value is written as 0, and the
/// caller marks such a result incorrect (see `Report::all_finite`).
pub fn result_line(correct: bool, attempted: u64, failed: u64, report: &Report) -> String {
    let metrics = report
        .entries()
        .iter()
        .map(|&(name, value, unit)| {
            let value = if value.is_finite() { value } else { 0.0 };
            (name.to_string(), Metric { value, unit })
        })
        .collect();
    serde_json::to_string(&ResultLine { correct, attempted, failed, metrics })
        .expect("the result line serializes")
}
