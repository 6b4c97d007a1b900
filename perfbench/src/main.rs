//! The opr benchmark: four named workloads, end-to-end metrics from
//! untraced runs, and a per-layer ledger from a separate traced run.
//!
//! ```text
//! opr-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is the result:
//! `{"correct", "attempted", "failed", "metrics"}`. Every run is checked;
//! the process exits with 1 if any run failed its check, 2 on a usage error.
//! See README.md beside this file for the workloads and the metrics.

mod alloc;
mod ledger;
mod protocol;
mod replay;
mod report;
mod service;
mod timed;
mod workload;

use report::{median, Metric};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Kind, Workload};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Set-ups per process; `setup_s` is their median.
const SETUPS: u64 = 3;

const USAGE: &str =
    "usage: opr-perfbench --workload <alg1-squeeze|alg1-forge|alg4-wide|service-churn> \
                     --seed <n> --seconds <s> --trace <0|1>";

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub window: Duration,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workload::by_name(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        window: Duration::from_secs_f64(seconds.ok_or("--seconds is required")?),
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Runs attempted and failed, over set-ups, timed runs and checks.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// What one benchmark process measured.
pub struct Measured {
    pub tally: Tally,
    /// Every metric of the table, named as in the README.
    pub table: Vec<Metric>,
    /// The metrics of the result line (BENCHMARK.json's list for the mode).
    pub result: Vec<Metric>,
    /// Provenance fields beyond the common ones, as `(key, json value)`.
    pub provenance: Vec<(&'static str, String)>,
}

/// Runs `body` back to back until `window` has passed (at least once).
pub fn closed_loop(window: Duration, mut body: impl FnMut(u64)) -> u64 {
    let start = Instant::now();
    let mut runs = 0;
    while runs == 0 || start.elapsed() < window {
        body(runs);
        runs += 1;
    }
    runs
}

/// The set-up phase: `SETUPS` set-ups, the first timed from process start.
/// Returns `setup_s`, the median set-up time.
pub fn set_up(process_start: Instant, mut body: impl FnMut(u64)) -> Metric {
    let mut times = Vec::new();
    let mut since = process_start;
    for k in 0..SETUPS {
        body(k);
        times.push(since.elapsed().as_secs_f64());
        since = Instant::now();
    }
    Metric::new("setup_s", median(&times), "s", times.len())
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("opr-perfbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cpus = report::cpus();
    let workers = workload::pooled_workers(cpus);
    opr_transport::PooledBackend::set_process_default_workers(workers);
    let measured = match (args.workload.kind, args.trace) {
        (Kind::Protocol(w), false) => ledger::protocol_e2e(&w, &args, process_start),
        (Kind::Protocol(w), true) => ledger::protocol_trace(&w, &args),
        (Kind::Service, false) => ledger::service_e2e(&args, process_start),
        (Kind::Service, true) => ledger::service_trace(&args),
    };
    let Measured {
        tally,
        table,
        result,
        provenance,
    } = measured;

    let mode = if args.trace {
        "per-layer ledger (traced)"
    } else {
        "end-to-end (untraced)"
    };
    println!(
        "{}",
        report::table(
            &format!("{} · {mode} · seed {}", args.workload.name, args.seed),
            &table
        )
    );
    let mut fields = vec![
        ("workload", report::json_str(args.workload.name)),
        ("seed", args.seed.to_string()),
        ("trace", args.trace.to_string()),
        ("seconds", report::json_num(args.window.as_secs_f64())),
        ("cpus", cpus.to_string()),
        ("commit", report::json_str(&report::git_commit())),
    ];
    fields.extend(provenance);
    let samples: Vec<String> = table
        .iter()
        .filter_map(|m| {
            m.samples
                .map(|s| format!("{}: {s}", report::json_str(m.name)))
        })
        .collect();
    let fields: Vec<String> = fields
        .into_iter()
        .map(|(k, v)| format!("{}: {v}", report::json_str(k)))
        .chain(std::iter::once(format!(
            "\"samples\": {{{}}}",
            samples.join(", ")
        )))
        .collect();
    println!("provenance {{{}}}", fields.join(", "));
    println!(
        "{}",
        report::result_line(tally.failed == 0, tally.attempted, tally.failed, &result)
    );
    if tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "opr-perfbench: {} of {} checks failed",
            tally.failed, tally.attempted
        );
        ExitCode::FAILURE
    }
}
