//! The result line, the stamp, and the result files.

use std::fmt::Write as _;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Where the figure comes from, for the human-readable lines.
    pub note: String,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
            note: String::new(),
        }
    }

    pub fn note(mut self, note: impl Into<String>) -> Self {
        self.note = note.into();
        self
    }
}

/// What every result is stamped with.
#[derive(Debug, Clone)]
pub struct Stamp {
    pub available_parallelism: usize,
    pub cpu_model: String,
    pub rustc: &'static str,
    pub commit: &'static str,
    pub source: &'static str,
}

impl Stamp {
    pub fn current() -> Self {
        Self {
            available_parallelism: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            cpu_model: cpu_model(),
            rustc: env!("GATE_RUSTC"),
            commit: env!("GATE_COMMIT"),
            source: env!("GATE_SOURCE"),
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"available_parallelism\":{},\"cpu_model\":\"{}\",\"rustc\":\"{}\",\"commit\":\"{}\",\"source\":\"{}\"}}",
            self.available_parallelism,
            escape(&self.cpu_model),
            escape(self.rustc),
            escape(self.commit),
            escape(self.source)
        )
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Peak resident set size of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A finite number in JSON (non-finite values, which no metric should
/// produce, become `null` so the line stays parseable).
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// The contract's result object: `correct`, `attempted`, `failed`,
/// `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            escape(&m.name),
            number(m.value),
            m.unit
        );
    }
    s.push_str("}}");
    s
}

/// The result file: the result object plus the run's identity and stamp.
pub fn result_file(args: &crate::Args, stamp: &Stamp, line: &str) -> String {
    format!(
        "{{\"schema\": \"free-gap-gate/result/v1\", \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"stamp\": {}, \"result\": {line}}}\n",
        escape(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        stamp.to_json(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_shape() {
        let line = result_line(
            true,
            10,
            0,
            &[
                Metric::new("latency_ms", 1.25, "ms"),
                Metric::new("setup_s", f64::NAN, "s"),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \"setup_s\": {\"value\": null, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn escaping_and_stamp() {
        assert_eq!(escape("a\"b\\c\n"), "a\\\"b\\\\c\\u000a");
        let s = Stamp::current();
        assert!(s.available_parallelism >= 1);
        assert!(s.to_json().contains("\"available_parallelism\""));
    }
}
