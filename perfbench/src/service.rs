//! The service workload: an epoch stream through `ServiceEngine`.
//!
//! [`drive`] runs one service run the way `ServiceSpec::run_observed`
//! does — submit due releases, submit the epoch's arrivals, `run_epoch`,
//! schedule releases from the new grants — and times `run_epoch` and
//! `submit` from outside. A traced run attaches the engine's and the pool's
//! existing span logs and a metrics registry; nothing is added inside the
//! program.

use opr_exec::RunPool;
use opr_metrics::MetricsRegistry;
use opr_obs::{SharedSpanLog, SpanLog};
use opr_service::{
    judge_ledger, EpochStats, LedgerEvent, ServiceEngine, ServiceError, ServiceOp, ServiceSpec,
};
use opr_workload::ClientId;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The wall-plane attachments of a traced service run.
pub struct Observers {
    pub spans: SharedSpanLog,
    pub registry: MetricsRegistry,
}

impl Observers {
    pub fn new(epochs: u64) -> Self {
        // Per epoch: admission, grants, one pool stage and one protocol
        // span per shard.
        let capacity = usize::try_from(epochs).unwrap_or(0) * 8;
        Observers {
            spans: Arc::new(Mutex::new(SpanLog::with_capacity(capacity))),
            registry: MetricsRegistry::new(),
        }
    }

    /// Summed span time in milliseconds, by span name.
    pub fn span_ms(&self, name: &str) -> f64 {
        let log = self.spans.lock().expect("span log poisoned");
        log.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_micros as f64 / 1e3)
            .sum()
    }

    /// Summed wall time of every protocol round the instances executed.
    pub fn round_ms(&self) -> f64 {
        self.registry
            .snapshot()
            .histograms
            .iter()
            .filter(|(name, _)| name.starts_with("opr_round_ns"))
            .map(|(_, h)| h.sum as f64 / 1e6)
            .sum()
    }
}

/// What one service run produced.
pub struct ServiceRun {
    pub wall_s: f64,
    pub epoch_ms: Vec<f64>,
    /// Grants by wait: `wait_counts[w]` acquires were granted `w` epochs
    /// after their submission. A histogram, so that the benchmark's own
    /// bookkeeping does not grow with run length.
    pub wait_counts: Vec<u64>,
    pub submitted: u64,
    /// Time inside `submit`, when timed.
    pub submit_ms: f64,
    pub ledger: Vec<LedgerEvent>,
    pub epoch_stats: Vec<EpochStats>,
    pub rejected: u64,
    pub error: Option<ServiceError>,
}

impl ServiceRun {
    pub fn grants(&self) -> u64 {
        self.ledger
            .iter()
            .filter(|e| matches!(e, LedgerEvent::Grant(_)))
            .count() as u64
    }
}

/// Runs `spec`'s whole epoch stream, timing `submit` too when `time_submits`.
pub fn drive(spec: &ServiceSpec, observers: Option<&Observers>, time_submits: bool) -> ServiceRun {
    let start = Instant::now();
    let mut pool = RunPool::new(spec.jobs);
    let mut engine =
        ServiceEngine::new(spec.service).expect("the service workload's configuration is valid");
    if let Some(obs) = observers {
        pool = pool.with_spans(obs.spans.clone());
        engine = engine
            .with_spans(obs.spans.clone())
            .with_metrics(&obs.registry);
    }
    let mut submitted = 0u64;
    let mut submit_ns = 0u128;
    let mut submit = |engine: &mut ServiceEngine, op: ServiceOp| {
        submitted += 1;
        if time_submits {
            let t = Instant::now();
            engine.submit(op);
            submit_ns += t.elapsed().as_nanos();
        } else {
            engine.submit(op);
        }
    };
    let workload = spec.workload;
    let mut due_releases: BTreeMap<u64, Vec<ClientId>> = BTreeMap::new();
    let mut submitted_at: HashMap<ClientId, u64> = HashMap::new();
    let mut epoch_ms = Vec::with_capacity(usize::try_from(workload.epochs).unwrap_or(0));
    let mut wait_counts: Vec<u64> = Vec::new();
    let mut ledger_seen = 0;
    let mut error = None;
    for epoch in 0..workload.epochs {
        for client in due_releases.remove(&epoch).unwrap_or_default() {
            submit(&mut engine, ServiceOp::Release { client });
        }
        for arrival in workload.arrivals(epoch) {
            submitted_at.insert(arrival.client, epoch);
            submit(
                &mut engine,
                ServiceOp::Acquire {
                    client: arrival.client,
                    original: arrival.original,
                },
            );
        }
        let t = Instant::now();
        let result = engine.run_epoch(&pool);
        epoch_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if let Err(e) = result {
            error = Some(e);
            break;
        }
        for event in &engine.ledger()[ledger_seen..] {
            if let LedgerEvent::Grant(grant) = event {
                let wait = usize::try_from(epoch - submitted_at[&grant.client])
                    .expect("a wait fits in usize");
                if wait_counts.len() <= wait {
                    wait_counts.resize(wait + 1, 0);
                }
                wait_counts[wait] += 1;
                let due = epoch + workload.hold_epochs(grant.client);
                if due < workload.epochs {
                    due_releases.entry(due).or_default().push(grant.client);
                }
            }
        }
        ledger_seen = engine.ledger().len();
    }
    let admission = engine.admission();
    let ledger = engine.ledger().to_vec();
    let epoch_stats = engine.epoch_stats().to_vec();
    drop(engine);
    drop(pool);
    ServiceRun {
        wall_s: start.elapsed().as_secs_f64(),
        epoch_ms,
        wait_counts,
        submitted,
        submit_ms: submit_ns as f64 / 1e6,
        ledger,
        epoch_stats,
        rejected: admission.rejected_queue_full
            + admission.rejected_duplicate
            + admission.rejected_unknown_release,
        error,
    }
}

/// Failed operations of one run: rejected submissions, plus one for an
/// errored epoch, one per ledger oracle verdict, and one if the ledger
/// differs from `ServiceSpec::run`'s for the same spec.
pub fn failures(spec: &ServiceSpec, run: &ServiceRun) -> u64 {
    let errored = u64::from(run.error.is_some());
    let verdicts = judge_ledger(&spec.service, &run.ledger).len() as u64;
    let reference = spec.run().map(|report| report.ledger);
    let differs = u64::from(reference.as_ref() != Ok(&run.ledger));
    run.rejected + errored + verdicts + differs
}
