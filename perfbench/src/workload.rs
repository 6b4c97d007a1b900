//! The named workloads and the seed discipline.
//!
//! Why each workload exists, and what it is predicted to leave unchanged,
//! is in the benchmark's README.

use opr_adversary::AdversarySpec;
use opr_service::{ServiceConfig, ServiceSpec};
use opr_transport::BackendKind;
use opr_types::{Regime, SystemConfig};
use opr_workload::ServiceWorkload;

/// One full protocol instance at a stated `(N, t)` under a Byzantine
/// strategy, run back to back.
#[derive(Clone, Copy, Debug)]
pub struct ProtocolWorkload {
    pub n: usize,
    pub t: usize,
    pub regime: Regime,
    pub adversary: AdversarySpec,
}

impl ProtocolWorkload {
    pub fn cfg(&self) -> SystemConfig {
        SystemConfig::new(self.n, self.t).expect("workload configurations are legal")
    }

    pub fn backend(&self) -> BackendKind {
        BackendKind::auto_for(u32::try_from(self.n).expect("N fits in u32"))
    }

    pub fn namespace_bound(&self) -> u64 {
        self.cfg().namespace_bound(self.regime)
    }
}

/// Service epochs per service run: a run is one [`ServiceSpec`] worth of
/// epochs, long enough that per-run start-up is a small share of it.
pub const SERVICE_EPOCHS: u64 = 250;

/// Shards, `(N, t)` per instance and jobs of the service workload.
const SERVICE_SHARDS: usize = 4;
const SERVICE_N: usize = 7;
const SERVICE_T: usize = 2;
pub const SERVICE_JOBS: usize = 2;

/// The service spec of one service run.
pub fn service_spec(seed: u64) -> ServiceSpec {
    let epoch_cfg = SystemConfig::new(SERVICE_N, SERVICE_T).expect("legal config");
    let byzantine = SERVICE_T;
    // Arrivals equal the aggregate capacity, so every shard runs a full
    // instance nearly every epoch and names recycle every epoch.
    let arrivals = SERVICE_SHARDS * (SERVICE_N - byzantine);
    ServiceSpec {
        service: ServiceConfig {
            shards: SERVICE_SHARDS,
            epoch_cfg,
            regime: Regime::LogTime,
            byzantine,
            adversary: AdversarySpec::PairSqueeze,
            backend: BackendKind::auto_for(SERVICE_N as u32),
            // Room for one epoch of arrivals plus two epochs of releases,
            // so admission never rejects.
            queue_capacity: 4 * arrivals,
            shard_span: 64,
            seed,
        },
        workload: ServiceWorkload {
            // Larger than all arrivals of a run: no client returns, so no
            // acquire is a duplicate.
            clients: 1_000_000,
            epochs: SERVICE_EPOCHS,
            arrivals_per_epoch: arrivals,
            max_hold: 2,
            seed: seed ^ 0x7365_7276,
        },
        jobs: SERVICE_JOBS,
    }
}

#[derive(Clone, Copy, Debug)]
pub enum Kind {
    Protocol(ProtocolWorkload),
    Service,
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "alg1-squeeze",
        kind: Kind::Protocol(ProtocolWorkload {
            n: 128,
            t: 42,
            regime: Regime::LogTime,
            adversary: AdversarySpec::PairSqueeze,
        }),
    },
    Workload {
        name: "alg1-forge",
        kind: Kind::Protocol(ProtocolWorkload {
            n: 65,
            t: 21,
            regime: Regime::LogTime,
            adversary: AdversarySpec::IdForge,
        }),
    },
    Workload {
        name: "alg4-wide",
        kind: Kind::Protocol(ProtocolWorkload {
            n: 1025,
            t: 22,
            regime: Regime::TwoStep,
            adversary: AdversarySpec::HalfEcho,
        }),
    },
    Workload {
        name: "service-churn",
        kind: Kind::Service,
    },
];

pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.into_iter().find(|w| w.name == name)
}

/// Workers of the pooled backend: two, or fewer on a smaller host.
pub fn pooled_workers(cpus: usize) -> usize {
    cpus.clamp(1, 2)
}

/// Seed of the `index`-th run of a workload seed (splitmix64). Set-up runs
/// use indices from `u64::MAX` down, timed runs from 0 up, so the two never
/// share inputs.
pub fn run_seed(workload_seed: u64, index: u64) -> u64 {
    let mut z = workload_seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(index)
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
