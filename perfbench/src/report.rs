//! Metrics, output checks, and the two output lines: a detail line
//! (sample counts, checks, tracing overhead, build facts) and the
//! final result line the benchmark contract reads.

use std::fmt::Write as _;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// How many measurements the value summarises.
    pub samples: u64,
}

/// One named output check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// Counts or the first mismatch, for the detail line.
    pub detail: String,
}

/// Everything one workload run produces.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted in the timed phase.
    pub attempted: u64,
    /// Of those, operations whose output failed a check.
    pub failed: u64,
    /// Whole-run checks (beyond per-operation ones).
    pub checks: Vec<Check>,
    /// Metrics for the final line.
    pub metrics: Vec<Metric>,
    /// Extra detail-line fields, as `(key, rendered JSON)`.
    pub info: Vec<(String, String)>,
}

impl Outcome {
    /// Appends a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: u64) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    /// Appends a check.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.to_string(),
            ok,
            detail: detail.into(),
        });
    }

    /// Appends a detail-line field.
    pub fn info(&mut self, key: &str, json: impl Into<String>) {
        self.info.push((key.to_string(), json.into()));
    }

    /// Adds another outcome's operations, checks, metrics and detail
    /// fields to this one.
    pub fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.checks.extend(other.checks);
        self.metrics.extend(other.metrics);
        self.info.extend(other.info);
    }

    /// Looks up a metric by name.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// True when no operation failed, every check held and every
    /// metric is a finite number.
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.checks.iter().all(|c| c.ok)
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The final output line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    pub fn result_line(&self) -> String {
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                metrics,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
        )
    }

    /// The detail line printed just before the result line.
    pub fn detail_line(&self, workload: &str, seed: u64, seconds: f64, traced: bool) -> String {
        let mut samples = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                samples,
                "{sep}\"{}\": {{\"samples\": {}, \"unit\": \"{}\"}}",
                m.name, m.samples, m.unit
            );
        }
        let mut checks = String::new();
        for (i, c) in self.checks.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                checks,
                "{sep}{{\"name\": \"{}\", \"ok\": {}, \"detail\": \"{}\"}}",
                c.name,
                c.ok,
                vpir_jsonlite::json_escape(&c.detail)
            );
        }
        let mut out = format!(
            "{{\"schema\": \"vpir-perfbench-detail-v1\", \"workload\": \"{workload}\", \"seed\": {seed}, \
             \"seconds\": {seconds:?}, \"trace\": {traced}, \"nproc\": {}, \"samples\": {{{samples}}}, \
             \"checks\": [{checks}]",
            crate::nproc()
        );
        for (k, v) in &self.info {
            let _ = write!(out, ", \"{k}\": {v}");
        }
        out.push('}');
        out
    }
}

/// What one timed phase of a workload part measured.
#[derive(Debug, Clone, Default)]
pub struct Measured {
    /// Seconds of each set-up before the phase.
    pub setup_secs: Vec<f64>,
    /// The part's own end-to-end metrics (not `setup_s` or
    /// `peak_heap_mb`, which the workload forms from every part).
    pub metrics: Vec<Metric>,
    /// Peak live heap during the phase, in MB.
    pub peak_mb: f64,
}

/// What one part of a workload (its service traffic or its simulator
/// passes) produced.
#[derive(Debug, Clone, Default)]
pub struct Part {
    /// Operation counts, checks, detail fields and, on traced runs,
    /// per-layer metrics.
    pub out: Outcome,
    /// The untraced phase.
    pub untraced: Measured,
    /// The traced phase, on traced runs.
    pub traced: Option<Measured>,
}

/// The workload's end-to-end metrics from its parts' phases: `setup_s`
/// is the median over set-ups of the parts' summed set-up seconds,
/// `peak_heap_mb` the largest peak of any part.
pub fn end_to_end(parts: &[&Measured]) -> Vec<Metric> {
    let n = parts.iter().map(|m| m.setup_secs.len()).min().unwrap_or(0);
    let setups: Vec<f64> = (0..n)
        .map(|i| parts.iter().map(|m| m.setup_secs[i]).sum())
        .collect();
    let mut out = Outcome::default();
    out.metric("setup_s", median(&setups).unwrap_or(0.0), "s", n as u64);
    for m in parts {
        out.metrics.extend(m.metrics.iter().cloned());
    }
    let peak = parts.iter().map(|m| m.peak_mb).fold(0.0, f64::max);
    out.metric("peak_heap_mb", peak, "MB", parts.len() as u64);
    out.metrics
}

/// Adds `overhead.<metric>` (traced minus untraced) for every
/// end-to-end metric.
pub fn push_overhead(out: &mut Outcome, untraced: &[Metric], traced: &[Metric]) {
    for m in untraced {
        if let Some(t) = traced.iter().find(|t| t.name == m.name) {
            out.metric(
                &format!("overhead.{}", m.name),
                t.value - m.value,
                m.unit,
                m.samples.min(t.samples),
            );
        }
    }
    let json: Vec<String> = untraced
        .iter()
        .map(|m| format!("\"{}\": {:?}", m.name, m.value))
        .collect();
    out.info("untraced", format!("{{{}}}", json.join(", ")));
}

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Whether `n` samples support reporting the `q` quantile
/// (`0 < q < 1`): at least [`MIN_TAIL_SAMPLES`] samples must lie
/// beyond it. A p90 therefore needs 100 samples.
pub fn supports(n: usize, q: f64) -> bool {
    (n as f64) * (1.0 - q) >= MIN_TAIL_SAMPLES as f64 - 1e-9
}

/// Nearest-rank quantile of `values` (`0 < q <= 1`); `None` when empty.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted.get(rank.min(sorted.len()) - 1).copied()
}

/// Median of `values` (nearest rank); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// FNV-1a 64 of a serialised run, as recorded in the golden fixture.
pub use vpir_bench::golden::fnv1a64;

/// Compares the FNV-1a-64 digest of a serialised run with its recorded
/// value, naming the cell in the error.
pub fn check_digest(cell: &str, json: &str, expected: u64) -> Result<(), String> {
    let got = fnv1a64(json.as_bytes());
    if got == expected {
        Ok(())
    } else {
        Err(format!(
            "{cell}: digest {got:016x}, recorded {expected:016x}"
        ))
    }
}
