//! Timing from outside the program: an [`Actor`] wrapper that times every
//! call into the actor it wraps.
//!
//! Each wrapped actor shares one [`RoundLedger`]. Per round the ledger keeps
//! the first call's start, the last call's end, and the busy time and
//! allocation count of correct and Byzantine actors. Everything is atomic,
//! so the same wrapper works on the pooled backend's worker threads.

use crate::alloc;
use opr_sim::{Actor, Inbox, Outbox};
use opr_types::{NewName, Round};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One round's atomics. Relaxed ordering throughout: the values are
/// statistics read only after the backend has joined every task.
struct RoundCell {
    first_start: AtomicU64,
    last_end: AtomicU64,
    busy_ns: [AtomicU64; 2],
    allocs: [AtomicU64; 2],
}

impl RoundCell {
    fn new() -> Self {
        RoundCell {
            first_start: AtomicU64::new(u64::MAX),
            last_end: AtomicU64::new(0),
            busy_ns: [AtomicU64::new(0), AtomicU64::new(0)],
            allocs: [AtomicU64::new(0), AtomicU64::new(0)],
        }
    }
}

/// Per-round timings of one run, shared by every wrapped actor of that run.
pub struct RoundLedger {
    origin: Instant,
    rounds: Vec<RoundCell>,
}

/// What the ledger recorded for one round, in nanoseconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct RoundTimes {
    /// First call's start to last call's end.
    pub wall_ns: u64,
    /// Summed time inside correct actors' `send` and `deliver`.
    pub correct_busy_ns: u64,
    /// Summed time inside Byzantine actors' `send` and `deliver`.
    pub faulty_busy_ns: u64,
    /// Allocations made inside correct actors' calls.
    pub correct_allocs: u64,
}

impl RoundLedger {
    pub fn new(rounds: u32) -> Arc<Self> {
        Arc::new(RoundLedger {
            origin: Instant::now(),
            rounds: (0..rounds).map(|_| RoundCell::new()).collect(),
        })
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn record(&self, round: Round, start: u64, end: u64, faulty: bool, allocs: u64) {
        let Some(cell) = self.rounds.get(round.number() as usize - 1) else {
            return;
        };
        let side = usize::from(faulty);
        cell.first_start.fetch_min(start, Ordering::Relaxed);
        cell.last_end.fetch_max(end, Ordering::Relaxed);
        cell.busy_ns[side].fetch_add(end - start, Ordering::Relaxed);
        cell.allocs[side].fetch_add(allocs, Ordering::Relaxed);
    }

    /// The recorded rounds, in order. Rounds no actor was called in read 0.
    pub fn times(&self) -> Vec<RoundTimes> {
        self.rounds
            .iter()
            .map(|c| {
                let first = c.first_start.load(Ordering::Relaxed);
                let last = c.last_end.load(Ordering::Relaxed);
                RoundTimes {
                    wall_ns: last.saturating_sub(first),
                    correct_busy_ns: c.busy_ns[0].load(Ordering::Relaxed),
                    faulty_busy_ns: c.busy_ns[1].load(Ordering::Relaxed),
                    correct_allocs: c.allocs[0].load(Ordering::Relaxed),
                }
            })
            .collect()
    }
}

/// Inboxes a wrapped actor was handed, by round. Cloning an inbox clones
/// only reference-counted payload handles.
pub type Captured<M> = Arc<Mutex<Vec<(u32, Inbox<M>)>>>;

/// Wraps an actor and times its calls into a [`RoundLedger`].
pub struct Timed<M> {
    inner: Box<dyn Actor<Msg = M, Output = NewName>>,
    ledger: Arc<RoundLedger>,
    faulty: bool,
    /// Keeps a clone of every inbox from this round on.
    capture: Option<(u32, Captured<M>)>,
}

impl<M> Timed<M> {
    pub fn new(
        inner: Box<dyn Actor<Msg = M, Output = NewName>>,
        ledger: Arc<RoundLedger>,
        faulty: bool,
    ) -> Self {
        Timed {
            inner,
            ledger,
            faulty,
            capture: None,
        }
    }

    /// Also keeps every inbox of round `from` and later in `sink`.
    pub fn capturing(mut self, from: u32, sink: Captured<M>) -> Self {
        self.capture = Some((from, sink));
        self
    }

    fn timed<T>(&mut self, round: Round, call: impl FnOnce(&mut Self) -> T) -> T {
        let allocs = alloc::thread();
        let start = self.ledger.now();
        let out = call(self);
        let end = self.ledger.now();
        self.ledger
            .record(round, start, end, self.faulty, alloc::thread() - allocs);
        out
    }
}

impl<M: Clone + Send + Sync + 'static> Actor for Timed<M> {
    type Msg = M;
    type Output = NewName;

    fn send(&mut self, round: Round) -> Outbox<M> {
        self.timed(round, |me| me.inner.send(round))
    }

    fn deliver(&mut self, round: Round, inbox: Inbox<M>) {
        if let Some((from, sink)) = &self.capture {
            if round.number() >= *from {
                sink.lock()
                    .expect("capture sink poisoned")
                    .push((round.number(), inbox.clone()));
            }
        }
        self.timed(round, |me| me.inner.deliver(round, inbox));
    }

    fn output(&self) -> Option<NewName> {
        self.inner.output()
    }
}
