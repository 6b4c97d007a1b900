//! Protocol workloads: one full Algorithm 1 or Algorithm 4 instance per run.
//!
//! Untraced runs go through the user entry point, `RenamingRun`. Traced
//! runs assemble the same job that `opr_core::runner` builds, from public
//! parts, with every actor wrapped in a [`Timed`] actor.

use crate::replay;
use crate::timed::{Captured, RoundLedger, RoundTimes, Timed};
use crate::workload::ProtocolWorkload;
use opr_core::probe::{shared_probe, shared_two_step_probe, Alg1Probe, SharedProcessProbe};
use opr_core::runner::SilentActor;
use opr_core::{
    fault_placement, AdversaryEnv, Alg1Msg, OrderPreservingRenaming, TwoStepMsg, TwoStepRenaming,
};
use opr_rbcast::IdInterner;
use opr_sim::{Actor, RunMetrics, Topology, WireSize};
use opr_transport::{BackendKind, Job, PooledBackend};
use opr_types::{NewName, OriginalId, Regime, RenamingOutcome};
use opr_workload::{IdDistribution, RenamingRun, RunOutput};
use std::fmt::Debug;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Threads the workload's backend runs actors on.
pub fn workers(w: &ProtocolWorkload) -> usize {
    match w.backend() {
        BackendKind::Pooled => PooledBackend::default().effective_workers(),
        BackendKind::Sim | BackendKind::Threaded => 1,
    }
}

/// The inputs of one run: the correct processes' original ids.
pub fn inputs(w: &ProtocolWorkload, seed: u64) -> Vec<OriginalId> {
    IdDistribution::SparseRandom.generate(w.n - w.t, seed)
}

/// Correct processes that decided.
pub fn decided(outcome: &RenamingOutcome) -> u64 {
    outcome.decisions().values().filter(|d| d.is_some()).count() as u64
}

/// Whether a run's outcome upholds the renaming specification.
pub fn verified(w: &ProtocolWorkload, outcome: &RenamingOutcome) -> bool {
    outcome.verify(w.namespace_bound()).is_empty()
}

/// One untraced run through `RenamingRun`: its wall time and its output
/// (`None` if the run returned an error).
pub fn untraced(w: &ProtocolWorkload, seed: u64) -> (f64, Option<RunOutput>) {
    let ids = inputs(w, seed);
    let start = Instant::now();
    let result = RenamingRun::builder(w.cfg(), w.regime)
        .correct_ids(ids)
        .adversary(w.adversary, w.t)
        .seed(seed)
        .backend(w.backend())
        .run();
    (start.elapsed().as_secs_f64(), result.ok())
}

/// Whether a traced run did what the untraced run of the same seed did:
/// the same decisions, rounds and correct-sender traffic, and for
/// Algorithm 1 the same per-step ranks, sets and rejected votes at every
/// correct process. A difference means the benchmark's job assembly has
/// drifted from `opr_core::runner`.
pub fn same_run(untraced: &RunOutput, traced: &Traced) -> bool {
    let (stats, metrics) = (&untraced.stats, &traced.metrics);
    let same_voting = match (&untraced.alg1_probe, &traced.voting) {
        (Some(a), Some((b, _))) => {
            a.processes.len() == b.processes.len()
                && a.processes.iter().zip(&b.processes).all(|(x, y)| {
                    x.snapshots == y.snapshots && x.rejected_votes == y.rejected_votes
                })
        }
        (a, b) => a.is_none() && b.is_none(),
    };
    untraced.outcome == traced.outcome
        && stats.rounds == metrics.rounds_executed()
        && stats.messages == metrics.messages_correct()
        && stats.bits == metrics.bits_correct()
        && stats.max_message_bits == metrics.max_message_bits()
        && same_voting
}

/// Everything one traced run observed.
pub struct Traced {
    pub wall_ns: u64,
    pub outcome: RenamingOutcome,
    pub completed: bool,
    pub rounds: Vec<RoundTimes>,
    pub metrics: RunMetrics,
    /// Algorithm 1 only: the probes and every correct process's voting
    /// inboxes, in the same (actor index) order.
    pub voting: Option<(Alg1Probe, Vec<Captured<Alg1Msg>>)>,
}

type BoxedActor<M> = Box<dyn Actor<Msg = M, Output = NewName>>;

/// Builds the job `opr_core::runner` builds: seeded fault placement and
/// topology, adversaries aimed through an [`AdversaryEnv`], correct actors
/// from `make_correct`. Every actor is wrapped in a [`Timed`] actor.
fn execute<M>(
    w: &ProtocolWorkload,
    ids: &[OriginalId],
    seed: u64,
    ledger: &Arc<RoundLedger>,
    interner: &IdInterner<OriginalId>,
    mut make_adversary: impl FnMut(&AdversaryEnv) -> Option<BoxedActor<M>>,
    mut make_correct: impl FnMut(OriginalId) -> Timed<M>,
) -> (RenamingOutcome, bool, RunMetrics)
where
    M: Clone + Debug + WireSize + Send + Sync + 'static,
{
    let cfg = w.cfg();
    let n = cfg.n();
    let faulty_mask = fault_placement(n, w.t, seed);
    let topology = Topology::seeded(n, seed);
    let mut sorted_ids = ids.to_vec();
    sorted_ids.sort_unstable();
    let mut remaining = ids.iter().copied();
    let correct_positions: Vec<(usize, OriginalId)> = faulty_mask
        .iter()
        .enumerate()
        .filter(|(_, &f)| !f)
        .map(|(index, _)| (index, remaining.next().expect("N − t ids for N − t slots")))
        .collect();
    let mut actors: Vec<BoxedActor<M>> = Vec::with_capacity(n);
    let mut correct_iter = correct_positions.iter();
    let mut slot = 0;
    for (index, &is_faulty) in faulty_mask.iter().enumerate() {
        if is_faulty {
            let env = AdversaryEnv {
                cfg,
                slot,
                faulty_count: w.t,
                index,
                correct_ids: &sorted_ids,
                correct_assignments: &correct_positions,
                topology: &topology,
                seed,
                interner: interner.clone(),
            };
            slot += 1;
            let inner =
                make_adversary(&env).unwrap_or_else(|| Box::new(SilentActor::<M, NewName>::new()));
            actors.push(Box::new(Timed::new(inner, ledger.clone(), true)));
        } else {
            let &(_, id) = correct_iter.next().expect("mask and positions agree");
            actors.push(Box::new(make_correct(id)));
        }
    }
    let correct_mask = faulty_mask.iter().map(|&f| !f).collect();
    let job = Job::with_faulty(actors, correct_mask, topology, cfg.total_steps(w.regime));
    let report = w.backend().execute(job);
    let outcome = RenamingOutcome::new(
        correct_positions
            .iter()
            .map(|&(index, id)| (id, report.outputs[index])),
    );
    (outcome, report.completed, report.metrics)
}

/// One traced run of the workload at `seed`.
pub fn traced(w: &ProtocolWorkload, seed: u64) -> Traced {
    let ids = inputs(w, seed);
    let cfg = w.cfg();
    let steps = cfg.total_steps(w.regime);
    let start = Instant::now();
    let ledger = RoundLedger::new(steps);
    let interner = IdInterner::new();
    let (outcome, completed, metrics, voting) = match w.regime {
        Regime::LogTime | Regime::ConstantTime => {
            let mut probes: Vec<SharedProcessProbe> = Vec::new();
            let mut inboxes: Vec<Captured<Alg1Msg>> = Vec::new();
            let (outcome, completed, metrics) = execute(
                w,
                &ids,
                seed,
                &ledger,
                &interner,
                |env| w.adversary.build_alg1(env),
                |id| {
                    let mut actor = OrderPreservingRenaming::new(cfg, w.regime, id)
                        .expect("workload regime fits its configuration");
                    actor.share_interner(interner.clone());
                    let probe = shared_probe();
                    actor.attach_probe(probe.clone());
                    probes.push(probe);
                    let sink: Captured<Alg1Msg> = Arc::new(Mutex::new(Vec::new()));
                    inboxes.push(sink.clone());
                    Timed::new(Box::new(actor), ledger.clone(), false)
                        .capturing(replay::FIRST_VOTING_STEP, sink)
                },
            );
            let probe = Alg1Probe {
                processes: probes
                    .iter()
                    .map(|p| p.lock().expect("probe poisoned").clone())
                    .collect(),
            };
            (outcome, completed, metrics, Some((probe, inboxes)))
        }
        Regime::TwoStep => {
            let (outcome, completed, metrics) = execute(
                w,
                &ids,
                seed,
                &ledger,
                &interner,
                |env| w.adversary.build_two_step(env),
                |id| {
                    let mut actor = TwoStepRenaming::new(cfg, id)
                        .expect("workload regime fits its configuration");
                    actor.share_interner(interner.clone());
                    actor.attach_probe(shared_two_step_probe());
                    Timed::<TwoStepMsg>::new(Box::new(actor), ledger.clone(), false)
                },
            );
            (outcome, completed, metrics, None)
        }
    };
    let wall_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    Traced {
        wall_ns,
        outcome,
        completed,
        rounds: ledger.times(),
        metrics,
        voting,
    }
}
