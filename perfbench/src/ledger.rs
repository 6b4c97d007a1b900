//! The four measurement modes: end-to-end and traced, for protocol and
//! service workloads. Each returns the table it prints and the metrics of
//! its result line.

use crate::report::{
    highest_supported_percentile, histogram_percentile, median, peak_rss_mib, percentile, Metric,
};
use crate::workload::{run_seed, service_spec, ProtocolWorkload, SERVICE_EPOCHS, SERVICE_JOBS};
use crate::{alloc, closed_loop, protocol, replay, report, service, set_up, Args, Measured, Tally};
use opr_service::ServiceSpec;
use opr_types::Regime;
use opr_workload::RunOutput;
use std::collections::BTreeMap;
use std::time::Instant;

/// The per-layer metrics of the result line, for every workload: layer
/// times as shares of the traced wall (`*_share`) or of in-run voting time
/// (`*_of_voting`), counts per run, and ratios. A layer a workload does not
/// run reads 0. The table prints the same layers in milliseconds.
const PER_LAYER: [(&str, &str); 36] = [
    ("trace.wall_ms", "ms"),
    ("trace.overhead", "ratio"),
    ("trace.accounted", "ratio"),
    ("runner.setup_share", "ratio"),
    ("transport.round_share", "ratio"),
    ("transport.self_share", "ratio"),
    ("transport.messages", "count"),
    ("transport.wire_mib", "MiB"),
    ("transport.worker_util", "ratio"),
    ("rbcast.flood_share", "ratio"),
    ("rbcast.flood_allocs", "count"),
    ("core.voting_share", "ratio"),
    ("core.voting_allocs", "count"),
    ("core.decode_of_voting", "ratio"),
    ("core.is_valid_of_voting", "ratio"),
    ("core.approximate_of_voting", "ratio"),
    ("core.voting_other_of_voting", "ratio"),
    ("core.replay_of_voting", "ratio"),
    ("core.votes", "count"),
    ("core.vote_entries", "count"),
    ("core.votes_rejected", "count"),
    ("core.valid_ratio", "ratio"),
    ("aa.ids_reduced", "count"),
    ("core.ids_dropped", "count"),
    ("core.two_step_ids_share", "ratio"),
    ("core.two_step_echo_share", "ratio"),
    ("allocs_per_run", "count"),
    ("service.submit_share", "ratio"),
    ("service.admission_share", "ratio"),
    ("service.grant_share", "ratio"),
    ("exec.stage_share", "ratio"),
    ("exec.parallelism", "ratio"),
    ("service.instances", "count"),
    ("service.deferred", "count"),
    ("service.recycled", "count"),
    ("adversary.share", "ratio"),
];

fn per_layer_result(values: &BTreeMap<&'static str, f64>, runs: usize) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            Metric::new(name, values.get(name).copied().unwrap_or(0.0), unit, runs)
        })
        .collect()
}

/// The end-to-end metrics of the result line.
fn e2e_result(table: &[Metric]) -> Vec<Metric> {
    ["setup_s", "run_s_p50", "names_per_s", "peak_rss_mib"]
        .iter()
        .map(|name| {
            table
                .iter()
                .find(|m| m.name == *name)
                .expect("every result metric is in the table")
                .clone()
        })
        .collect()
}

fn peak_rss() -> Metric {
    match peak_rss_mib() {
        Some(mib) => Metric::new("peak_rss_mib", mib, "MiB", 1),
        None => Metric::na("peak_rss_mib", "MiB"),
    }
}

/// Peak memory of a traced pass, which holds every voting inbox of a run
/// until its replay (table only).
fn traced_peak_rss() -> Metric {
    Metric {
        name: "trace.peak_rss_mib",
        ..peak_rss()
    }
}

fn failed_share(tally: Tally) -> Metric {
    Metric::new(
        "failed_share",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        "ratio",
        tally.attempted as usize,
    )
}

fn protocol_provenance(w: &ProtocolWorkload) -> Vec<(&'static str, String)> {
    vec![
        ("backend", report::json_str(w.backend().label())),
        ("workers", protocol::workers(w).to_string()),
        ("n", w.n.to_string()),
        ("t", w.t.to_string()),
        ("regime", report::json_str(&format!("{:?}", w.regime))),
        ("adversary", report::json_str(w.adversary.label())),
        ("byzantine", w.t.to_string()),
    ]
}

fn service_provenance() -> Vec<(&'static str, String)> {
    let spec = service_spec(0);
    let cfg = spec.service;
    vec![
        ("backend", report::json_str(cfg.backend.label())),
        ("workers", SERVICE_JOBS.to_string()),
        ("shards", cfg.shards.to_string()),
        ("n", cfg.epoch_cfg.n().to_string()),
        ("t", cfg.epoch_cfg.t().to_string()),
        ("regime", report::json_str(&format!("{:?}", cfg.regime))),
        ("adversary", report::json_str(cfg.adversary.label())),
        ("byzantine", cfg.byzantine.to_string()),
        ("epochs_per_run", SERVICE_EPOCHS.to_string()),
        (
            "arrivals_per_epoch",
            spec.workload.arrivals_per_epoch.to_string(),
        ),
    ]
}

/// Checks a protocol run's outcome; returns its decisions (0 if it failed).
fn check_protocol(tally: &mut Tally, w: &ProtocolWorkload, output: Option<RunOutput>) -> u64 {
    match output {
        Some(out) if protocol::verified(w, &out.outcome) => {
            tally.check(true);
            protocol::decided(&out.outcome)
        }
        _ => {
            tally.check(false);
            0
        }
    }
}

pub fn protocol_e2e(w: &ProtocolWorkload, args: &Args, process_start: Instant) -> Measured {
    let mut tally = Tally::default();
    let setup = set_up(process_start, |k| {
        let (_, output) = protocol::untraced(w, run_seed(args.seed, u64::MAX - k));
        check_protocol(&mut tally, w, output);
    });
    let mut walls = Vec::new();
    let mut names = 0u64;
    closed_loop(args.window, |k| {
        let (wall, output) = protocol::untraced(w, run_seed(args.seed, k));
        names += check_protocol(&mut tally, w, output);
        walls.push(wall);
    });
    let runs = walls.len();
    let table = vec![
        setup,
        Metric::new("run_s_p50", median(&walls), "s", runs),
        Metric::new(
            "names_per_s",
            names as f64 / walls.iter().sum::<f64>(),
            "1/s",
            runs,
        ),
        Metric::na("epoch_ms_p50", "ms"),
        Metric::na("epoch_ms_p99", "ms"),
        Metric::na("grant_wait_epochs_p99", "epochs"),
        peak_rss(),
        failed_share(tally),
    ];
    Measured {
        tally,
        result: e2e_result(&table),
        table,
        provenance: protocol_provenance(w),
    }
}

/// Per-run sums of a traced protocol pass, in nanoseconds unless noted.
#[derive(Default)]
struct ProtocolSums {
    runs: u64,
    untraced_ns: f64,
    wall_ns: f64,
    round_ns: f64,
    /// Correct actors' busy time: Algorithm 1 id selection (rounds 1–4) and
    /// voting (5..T); Algorithm 4 round 1 (ids) and round 2 (echo).
    first_phase_ns: f64,
    second_phase_ns: f64,
    first_phase_allocs: f64,
    second_phase_allocs: f64,
    faulty_ns: f64,
    /// Wall time of the second-phase rounds, actors and substrate included.
    second_phase_round_ns: f64,
    messages: f64,
    wire_bits: f64,
    allocs: f64,
    split: replay::VotingSplit,
}

pub fn protocol_trace(w: &ProtocolWorkload, args: &Args) -> Measured {
    let cfg = w.cfg();
    let alg1 = w.regime != Regime::TwoStep;
    let first_phase_rounds = if alg1 {
        replay::FIRST_VOTING_STEP - 1
    } else {
        1
    };
    let voting_steps = u64::from(cfg.total_steps(w.regime) - first_phase_rounds);
    let workers = protocol::workers(w) as f64;
    let mut tally = Tally::default();
    let mut s = ProtocolSums::default();
    let mut fidelity_failures = 0u64;
    alloc::set_counting(true);
    closed_loop(args.window, |k| {
        let seed = run_seed(args.seed, k);
        let before = alloc::total();
        let (untraced_wall, reference) = protocol::untraced(w, seed);
        s.allocs += (alloc::total() - before) as f64;
        s.untraced_ns += untraced_wall * 1e9;

        let traced = protocol::traced(w, seed);
        let ok = traced.completed && protocol::verified(w, &traced.outcome);
        let same = reference
            .as_ref()
            .is_some_and(|r| protocol::same_run(r, &traced));
        fidelity_failures += u64::from(!same);
        tally.check(ok && same);

        s.runs += 1;
        s.wall_ns += traced.wall_ns as f64;
        for (i, r) in traced.rounds.iter().enumerate() {
            s.round_ns += r.wall_ns as f64;
            s.faulty_ns += r.faulty_busy_ns as f64;
            if (i as u32) < first_phase_rounds {
                s.first_phase_ns += r.correct_busy_ns as f64;
                s.first_phase_allocs += r.correct_allocs as f64;
            } else {
                s.second_phase_ns += r.correct_busy_ns as f64;
                s.second_phase_round_ns += r.wall_ns as f64;
                s.second_phase_allocs += r.correct_allocs as f64;
            }
        }
        s.messages += traced.metrics.messages_total() as f64;
        s.wire_bits += traced.metrics.bits_correct() as f64;
        if let Some((probe, inboxes)) = &traced.voting {
            let (steps, mismatches) = (s.split.steps, s.split.mismatches);
            replay::replay(cfg, probe, inboxes, &mut s.split);
            // Every correct receiver replays every voting step, and each
            // replayed step reproduces the probe's next snapshot.
            let expected = probe.processes.len() as u64 * voting_steps;
            let replay_ok = s.split.mismatches == mismatches && s.split.steps - steps == expected;
            fidelity_failures += u64::from(!replay_ok);
            tally.check(replay_ok);
        }
    });
    alloc::set_counting(false);

    let runs = s.runs as f64;
    let per_run_ms = |ns: f64| ns / runs / 1e6;
    let wall = per_run_ms(s.wall_ns);
    let round = per_run_ms(s.round_ns);
    let setup = wall - round;
    let first = per_run_ms(s.first_phase_ns);
    let second = per_run_ms(s.second_phase_ns);
    let faulty = per_run_ms(s.faulty_ns);
    let busy = first + second + faulty;
    // Busy time on a pool of `workers` threads covers busy ÷ workers of
    // wall time when spread evenly; that is its share of the rounds.
    let transport_self = round - busy / workers;
    let accounted = (setup + transport_self + busy / workers) / wall;
    let sp = &s.split;
    let decode = sp.decode_ns as f64 / runs / 1e6;
    let is_valid = sp.is_valid_ns as f64 / runs / 1e6;
    let approximate = sp.approximate_ns as f64 / runs / 1e6;
    let replay_total = decode + is_valid + approximate;
    let per_run = |count: u64| count as f64 / runs;

    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    v.insert("trace.wall_ms", wall);
    v.insert("trace.overhead", s.wall_ns / s.untraced_ns);
    v.insert("trace.accounted", accounted);
    v.insert("runner.setup_share", setup / wall);
    v.insert("transport.round_share", round / wall);
    v.insert("transport.self_share", transport_self / wall);
    v.insert("transport.messages", s.messages / runs);
    v.insert("transport.wire_mib", s.wire_bits / runs / 8.0 / 1048576.0);
    v.insert("transport.worker_util", busy / (round * workers));
    v.insert("allocs_per_run", s.allocs / runs);
    v.insert("adversary.share", faulty / workers / wall);
    if alg1 {
        v.insert("rbcast.flood_share", first / workers / wall);
        v.insert("rbcast.flood_allocs", s.first_phase_allocs / runs);
        v.insert("core.voting_share", second / workers / wall);
        v.insert("core.voting_allocs", s.second_phase_allocs / runs);
        v.insert("core.decode_of_voting", decode / second);
        v.insert("core.is_valid_of_voting", is_valid / second);
        v.insert("core.approximate_of_voting", approximate / second);
        v.insert(
            "core.voting_other_of_voting",
            (second - replay_total) / second,
        );
        v.insert("core.replay_of_voting", replay_total / second);
        v.insert("core.votes", per_run(sp.votes));
        v.insert("core.vote_entries", per_run(sp.vote_entries));
        v.insert("core.votes_rejected", per_run(sp.rejected));
        v.insert(
            "core.valid_ratio",
            1.0 - sp.rejected as f64 / sp.votes.max(1) as f64,
        );
        v.insert("aa.ids_reduced", per_run(sp.ids_reduced));
        v.insert("core.ids_dropped", per_run(sp.ids_dropped));
    } else {
        v.insert("core.two_step_ids_share", first / workers / wall);
        v.insert("core.two_step_echo_share", second / workers / wall);
    }

    let n = s.runs as usize;
    let ms = |name: &'static str, value: f64| Metric::new(name, value, "ms", n);
    let count = |name: &'static str, value: f64| Metric::new(name, value, "count", n);
    let ratio = |name: &'static str, value: f64| Metric::new(name, value, "ratio", n);
    let alg1_only = |m: Metric| if alg1 { m } else { Metric::na(m.name, m.unit) };
    let alg4_only = |m: Metric| if alg1 { Metric::na(m.name, m.unit) } else { m };
    let table = vec![
        ms("trace.wall_ms", wall),
        ms("untraced.wall_ms", per_run_ms(s.untraced_ns)),
        ratio("trace.overhead", v["trace.overhead"]),
        ratio("trace.accounted", accounted),
        ms("runner.setup_ms", setup),
        count("allocs_per_run", v["allocs_per_run"]),
        ms("transport.round_ms", round),
        ms("transport.self_ms", transport_self),
        count("transport.messages", v["transport.messages"]),
        Metric::new("transport.wire_mib", v["transport.wire_mib"], "MiB", n),
        ratio("transport.worker_util", v["transport.worker_util"]),
        alg1_only(ms("rbcast.flood_ms", first)),
        alg1_only(count("rbcast.flood_allocs", s.first_phase_allocs / runs)),
        alg1_only(ms(
            "core.voting_rounds_ms",
            per_run_ms(s.second_phase_round_ns),
        )),
        alg1_only(ms("core.voting_ms", second)),
        alg1_only(count("core.voting_allocs", s.second_phase_allocs / runs)),
        alg1_only(ms("core.decode_ms", decode)),
        alg1_only(ms("core.is_valid_ms", is_valid)),
        alg1_only(ms("core.approximate_ms", approximate)),
        alg1_only(ms("core.voting_other_ms", second - replay_total)),
        alg1_only(ms("core.replay_total_ms", replay_total)),
        alg1_only(count("core.votes", per_run(sp.votes))),
        alg1_only(count("core.vote_entries", per_run(sp.vote_entries))),
        alg1_only(count("core.votes_rejected", per_run(sp.rejected))),
        alg1_only(ratio(
            "core.valid_ratio",
            v.get("core.valid_ratio").copied().unwrap_or(0.0),
        )),
        alg1_only(count("aa.ids_reduced", per_run(sp.ids_reduced))),
        alg1_only(count("core.ids_dropped", per_run(sp.ids_dropped))),
        alg4_only(ms("core.two_step_ids_ms", first)),
        alg4_only(ms("core.two_step_echo_ms", second)),
        ms("adversary.ms", faulty),
        count("fidelity_failures", fidelity_failures as f64),
        traced_peak_rss(),
    ];
    Measured {
        tally,
        result: per_layer_result(&v, n),
        table,
        provenance: protocol_provenance(w),
    }
}

pub fn service_e2e(args: &Args, process_start: Instant) -> Measured {
    let mut tally = Tally::default();
    let check = |tally: &mut Tally, spec: &ServiceSpec, run: &service::ServiceRun| {
        tally.attempted += run.submitted.max(1);
        tally.failed += service::failures(spec, run);
    };
    let setup = set_up(process_start, |k| {
        let spec = service_spec(run_seed(args.seed, u64::MAX - k));
        let run = service::drive(&spec, None, false);
        check(&mut tally, &spec, &run);
    });
    let (mut walls, mut epochs, mut waits) = (Vec::new(), Vec::new(), Vec::<u64>::new());
    let mut grants = 0u64;
    closed_loop(args.window, |k| {
        let spec = service_spec(run_seed(args.seed, k));
        let run = service::drive(&spec, None, false);
        check(&mut tally, &spec, &run);
        walls.push(run.wall_s);
        grants += run.grants();
        epochs.extend_from_slice(&run.epoch_ms);
        if waits.len() < run.wait_counts.len() {
            waits.resize(run.wait_counts.len(), 0);
        }
        for (total, count) in waits.iter_mut().zip(&run.wait_counts) {
            *total += count;
        }
    });
    // The tail is reported at the highest percentile with at least ten
    // epochs beyond it; the run is sized so that this is p99 or higher.
    let tail = highest_supported_percentile(epochs.len());
    if tail.is_none_or(|q| q < 0.99) {
        eprintln!(
            "opr-perfbench: {} epochs are too few for epoch_ms_p99",
            epochs.len()
        );
    }
    let table = vec![
        setup,
        Metric::new("run_s_p50", median(&walls), "s", walls.len()),
        Metric::new(
            "names_per_s",
            grants as f64 / walls.iter().sum::<f64>(),
            "1/s",
            walls.len(),
        ),
        Metric::new("epoch_ms_p50", median(&epochs), "ms", epochs.len()),
        Metric::new(
            "epoch_ms_p99",
            percentile(&epochs, 0.99),
            "ms",
            epochs.len(),
        ),
        match tail {
            Some(q) => Metric::new("epoch_ms_tail", percentile(&epochs, q), "ms", epochs.len()),
            None => Metric::na("epoch_ms_tail", "ms"),
        },
        Metric::new(
            "grant_wait_epochs_p99",
            histogram_percentile(&waits, 0.99),
            "epochs",
            waits.iter().sum::<u64>() as usize,
        ),
        peak_rss(),
        failed_share(tally),
    ];
    let mut provenance = service_provenance();
    provenance.push((
        "epoch_tail_percentile",
        report::json_num(tail.map_or(0.0, |q| q * 100.0)),
    ));
    Measured {
        tally,
        result: e2e_result(&table),
        table,
        provenance,
    }
}

pub fn service_trace(args: &Args) -> Measured {
    let mut tally = Tally::default();
    let mut sums: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut add = |key: &'static str, value: f64| *sums.entry(key).or_default() += value;
    alloc::set_counting(true);
    let runs = closed_loop(args.window, |k| {
        let spec = service_spec(run_seed(args.seed, k));
        let before = alloc::total();
        let untraced = service::drive(&spec, None, false);
        add("allocs", (alloc::total() - before) as f64);
        let observers = service::Observers::new(spec.workload.epochs);
        let traced = service::drive(&spec, Some(&observers), true);
        tally.attempted += traced.submitted.max(1);
        tally.failed += service::failures(&spec, &traced);
        // Observing the engine must not change what it grants.
        tally.check(traced.ledger == untraced.ledger);

        add("untraced", untraced.wall_s * 1e3);
        add("wall", traced.wall_s * 1e3);
        add("submit", traced.submit_ms);
        add("admission", observers.span_ms("epoch admission"));
        add("stage", observers.span_ms("pool stage"));
        add("protocol", observers.span_ms("epoch protocol"));
        add("grants", observers.span_ms("epoch grants"));
        add("round", observers.round_ms());
        add(
            "instances",
            traced
                .epoch_stats
                .iter()
                .map(|e| e.protocol_runs)
                .sum::<u64>() as f64,
        );
        add(
            "deferred",
            traced.epoch_stats.iter().map(|e| e.deferred).sum::<u64>() as f64,
        );
        add(
            "recycled",
            traced.epoch_stats.iter().map(|e| e.recycled).sum::<u64>() as f64,
        );
    });
    alloc::set_counting(false);

    let mean = |key: &str| sums.get(key).copied().unwrap_or(0.0) / runs as f64;
    let wall = mean("wall");
    let (submit, admission, stage, protocol, grants, round) = (
        mean("submit"),
        mean("admission"),
        mean("stage"),
        mean("protocol"),
        mean("grants"),
        mean("round"),
    );
    let setup = protocol - round;
    let accounted = (submit + admission + stage + grants) / wall;
    // Instance time is busy time on `jobs` pool threads; its wall share is
    // the stage's, split in proportion.
    let stage_share = stage / wall;
    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    v.insert("trace.wall_ms", wall);
    v.insert("trace.overhead", wall / mean("untraced"));
    v.insert("trace.accounted", accounted);
    v.insert("runner.setup_share", stage_share * setup / protocol);
    v.insert("transport.round_share", stage_share * round / protocol);
    v.insert("allocs_per_run", mean("allocs"));
    v.insert("service.submit_share", submit / wall);
    v.insert("service.admission_share", admission / wall);
    v.insert("service.grant_share", grants / wall);
    v.insert("exec.stage_share", stage_share);
    v.insert("exec.parallelism", protocol / stage);
    v.insert("service.instances", mean("instances"));
    v.insert("service.deferred", mean("deferred"));
    v.insert("service.recycled", mean("recycled"));

    let n = runs as usize;
    let ms = |name: &'static str, value: f64| Metric::new(name, value, "ms", n);
    let count = |name: &'static str, value: f64| Metric::new(name, value, "count", n);
    let ratio = |name: &'static str, value: f64| Metric::new(name, value, "ratio", n);
    let table = vec![
        ms("trace.wall_ms", wall),
        ms("untraced.wall_ms", mean("untraced")),
        ratio("trace.overhead", v["trace.overhead"]),
        ratio("trace.accounted", accounted),
        ms("service.submit_ms", submit),
        ms("service.admission_ms", admission),
        ms("exec.stage_ms", stage),
        ms("service.grant_ms", grants),
        ms("service.protocol_ms", protocol),
        ratio("exec.parallelism", v["exec.parallelism"]),
        ms("transport.round_ms", round),
        ms("runner.setup_ms", setup),
        count("allocs_per_run", v["allocs_per_run"]),
        count(
            "allocs_per_instance",
            mean("allocs") / mean("instances").max(1.0),
        ),
        count("service.instances", mean("instances")),
        count("service.deferred", mean("deferred")),
        count("service.recycled", mean("recycled")),
        traced_peak_rss(),
    ];
    Measured {
        tally,
        result: per_layer_result(&v, n),
        table,
        provenance: service_provenance(),
    }
}
