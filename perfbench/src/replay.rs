//! The voting split: every correct receiver's voting steps of a traced
//! Algorithm 1 run, replayed after the run through the three public
//! functions one voting step is made of.
//!
//! A replayed step starts from the probe's snapshot of the step before
//! (ranks, accepted and timely sets) and the inbox the receiver was handed.
//! It decodes every vote with `RankVector::from_wire`, filters them with
//! `RankVector::check_valid`, and reduces with `ranks::approximate`. Its
//! result must equal the probe's snapshot of the step itself.

use crate::timed::Captured;
use opr_core::probe::Alg1Probe;
use opr_core::ranks::approximate;
use opr_core::{Alg1Msg, RankVector};
use opr_types::SystemConfig;
use std::time::Instant;

/// Algorithm 1's first voting step (steps 1–4 select ids).
pub const FIRST_VOTING_STEP: u32 = 5;

/// Totals over replayed receiver-steps.
#[derive(Clone, Copy, Debug, Default)]
pub struct VotingSplit {
    pub decode_ns: u64,
    pub is_valid_ns: u64,
    pub approximate_ns: u64,
    /// Vote vectors received.
    pub votes: u64,
    /// Entries in those vectors.
    pub vote_entries: u64,
    /// Votes that were malformed or failed `isValid`.
    pub rejected: u64,
    /// Ids `approximate` reduced (kept) and dropped.
    pub ids_reduced: u64,
    pub ids_dropped: u64,
    /// Receiver-steps replayed, and those whose result differed from the
    /// probe's next snapshot (or had no snapshot to compare with).
    pub steps: u64,
    pub mismatches: u64,
}

fn nanos(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Replays every captured voting inbox of one run, adding to `split`.
pub fn replay(
    cfg: SystemConfig,
    probe: &Alg1Probe,
    inboxes: &[Captured<Alg1Msg>],
    split: &mut VotingSplit,
) {
    let delta = cfg.delta();
    for (process, sink) in probe.processes.iter().zip(inboxes) {
        let snapshot = |step: u32| process.snapshots.iter().find(|s| s.step == step);
        for (step, inbox) in sink.lock().expect("capture sink poisoned").iter() {
            split.steps += 1;
            let (Some(before), Some(after)) = (snapshot(step - 1), snapshot(*step)) else {
                split.mismatches += 1;
                continue;
            };
            let wires: Vec<&[_]> = inbox
                .messages()
                .filter_map(|(_, msg)| match msg {
                    Alg1Msg::Votes(entries) => Some(entries.as_slice()),
                    Alg1Msg::Flood(_) => None,
                })
                .collect();
            split.votes += wires.len() as u64;
            split.vote_entries += wires.iter().map(|w| w.len() as u64).sum::<u64>();

            let start = Instant::now();
            let decoded: Vec<Option<RankVector>> =
                wires.iter().map(|w| RankVector::from_wire(w)).collect();
            split.decode_ns += nanos(start);

            let start = Instant::now();
            let valid: Vec<RankVector> = decoded
                .into_iter()
                .flatten()
                .filter(|v| v.check_valid(&before.timely, delta).is_ok())
                .collect();
            split.is_valid_ns += nanos(start);
            split.rejected += (wires.len() - valid.len()) as u64;

            let start = Instant::now();
            let (ranks, accepted) =
                approximate(&before.ranks, &before.accepted, &valid, cfg.n(), cfg.t());
            split.approximate_ns += nanos(start);

            split.ids_reduced += accepted.len() as u64;
            split.ids_dropped += (before.accepted.len() - accepted.len()) as u64;
            if ranks != after.ranks || accepted != after.accepted {
                split.mismatches += 1;
            }
        }
    }
}
