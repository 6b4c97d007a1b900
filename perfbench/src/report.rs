//! Statistics, provenance and output formatting.

use std::fmt::Write as _;

/// A named value with its unit. `samples` is the count behind a
/// percentile or mean; `None` marks a value that is not defined for the
/// workload (printed as "n/a" in the table, 0 in the result line).
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: Option<f64>,
    pub unit: &'static str,
    pub samples: Option<usize>,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Self {
        Metric {
            name,
            value: Some(value),
            unit,
            samples: Some(samples),
        }
    }

    /// A value that is not defined for this workload.
    pub fn na(name: &'static str, unit: &'static str) -> Self {
        Metric {
            name,
            value: None,
            unit,
            samples: None,
        }
    }
}

/// Median with the middle pair averaged, as `statistics.median` gives it.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        len if len % 2 == 1 => v[len / 2],
        len => (v[len / 2 - 1] + v[len / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `q` (0 < q < 1) of `values`.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Nearest-rank percentile `q` of a histogram: `counts[v]` samples of
/// value `v`.
pub fn histogram_percentile(counts: &[u64], q: f64) -> f64 {
    let total: u64 = counts.iter().sum();
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total.max(1));
    let mut seen = 0;
    for (value, &count) in counts.iter().enumerate() {
        seen += count;
        if seen >= rank {
            return value as f64;
        }
    }
    f64::NAN
}

/// The highest of p99.99, p99.9, p99 and p90 that has at least ten samples
/// beyond it, if any.
pub fn highest_supported_percentile(samples: usize) -> Option<f64> {
    [0.9999, 0.999, 0.99, 0.9]
        .into_iter()
        .find(|q| (samples as f64 * (1.0 - q)).floor() >= 10.0)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The checked-out commit, read from `.git` without running git; "unknown"
/// outside a git checkout.
pub fn git_commit() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(commit) = read(&format!(".git/{reference}")) {
        return commit.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                l.strip_suffix(reference)
                    .map(|commit| commit.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// JSON string literal (the strings printed here are plain ASCII labels).
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
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
    out.push('"');
    out
}

/// A number in JSON: every digit Rust's shortest round-trip form gives;
/// non-finite values (which JSON cannot hold) print as 0.
pub fn json_num(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".into()
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value.unwrap_or(0.0)),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A human-readable table of `metrics`.
pub fn table(title: &str, metrics: &[Metric]) -> String {
    let mut out = format!("{title}\n");
    let _ = writeln!(
        out,
        "  {:<28} {:>14} {:<7} {:>8}",
        "metric", "value", "unit", "samples"
    );
    for m in metrics {
        let value = m.value.map_or("n/a".to_string(), |v| format!("{v:.6}"));
        let samples = m.samples.map_or(String::new(), |s| s.to_string());
        let _ = writeln!(
            out,
            "  {:<28} {:>14} {:<7} {:>8}",
            m.name, value, m.unit, samples
        );
    }
    out
}
