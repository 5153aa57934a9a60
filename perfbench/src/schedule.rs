//! Seeded open-loop request schedules.
//!
//! Every workload's traffic is a [`FlashCrowdSpec`] over the bol.com-like
//! session marginals (Zipf item popularity, power-law session lengths):
//! a short warm-up and a **base** phase at `base_rps`, then a **stress**
//! phase whose rate is `stress_rps` (one multiplicative spike covering
//! the rest of the horizon). The diurnal swing is switched off so each
//! phase holds one rate. Every request carries the 100 ms budget, its
//! criticality class and a request id, pre-encoded onto the wire before
//! the timed window starts.

use bytes::Bytes;
use etude_serve::http::Request;
use etude_workload::{FlashCrowdSpec, SpikeSpec, WorkloadConfig};
use std::time::Duration;

/// The latency limit every request carries (`x-deadline-ms`).
pub const DEADLINE_MS: u64 = 100;

/// Wire names of the criticality classes, indexed like
/// [`etude_workload::ScheduledRequest::criticality`].
pub const CLASS_NAMES: [&str; 3] = ["shed-first", "normal", "critical"];

/// Index of the `critical` class.
pub const CRITICAL: u8 = 2;

/// Which part of the schedule a request belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Fills caches and pools; excluded from every metric.
    Warmup,
    /// Steady traffic well below capacity.
    Base,
    /// Overload, or (for the sharded workload) the lost-group phase.
    Stress,
}

impl Phase {
    /// Short label for reports.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Warmup => "warmup",
            Phase::Base => "base",
            Phase::Stress => "stress",
        }
    }
}

/// Phase lengths of one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Phases {
    /// Warm-up length.
    pub warmup: Duration,
    /// Base-phase length.
    pub base: Duration,
    /// Stress-phase length.
    pub stress: Duration,
}

impl Phases {
    /// Splits a run of `seconds` into 10% warm-up, 50% base, 40% stress.
    pub fn for_seconds(seconds: f64) -> Phases {
        let total = Duration::from_secs_f64(seconds.max(0.1));
        let warmup = total.mul_f64(0.1);
        let base = total.mul_f64(0.5);
        Phases {
            warmup,
            base,
            stress: total - warmup - base,
        }
    }

    /// Offset at which the stress phase begins.
    pub fn stress_start(&self) -> Duration {
        self.warmup + self.base
    }

    /// Whole schedule length.
    pub fn total(&self) -> Duration {
        self.warmup + self.base + self.stress
    }

    /// The phase a send offset falls into.
    pub fn phase_of(&self, at: Duration) -> Phase {
        if at < self.warmup {
            Phase::Warmup
        } else if at < self.stress_start() {
            Phase::Base
        } else {
            Phase::Stress
        }
    }
}

/// One request of the schedule, ready to write.
#[derive(Debug, Clone, PartialEq)]
pub struct Planned {
    /// Request id (`x-request-id`), the index in the schedule.
    pub id: u64,
    /// Intended send offset from the schedule start.
    pub at: Duration,
    /// Phase of `at`.
    pub phase: Phase,
    /// Session item ids (all below the catalog size).
    pub session: Vec<u32>,
    /// Criticality class index into [`CLASS_NAMES`].
    pub criticality: u8,
    /// The encoded HTTP/1.1 request.
    pub wire: Bytes,
}

/// The traffic of one workload: catalog size and the two rates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Traffic {
    /// Catalog size the sessions draw from.
    pub catalog: usize,
    /// Warm-up and base-phase rate, requests per second.
    pub base_rps: f64,
    /// Stress-phase rate, requests per second.
    pub stress_rps: f64,
}

/// The flash-crowd spec behind a schedule.
fn spec(traffic: &Traffic, phases: &Phases, seed: u64) -> FlashCrowdSpec {
    let horizon = phases.total();
    let mut spec = FlashCrowdSpec::flash(traffic.catalog, traffic.base_rps, 1.0, horizon);
    spec.diurnal_amplitude = 0.0;
    spec.spikes = vec![SpikeSpec {
        at: phases.stress_start(),
        duration: phases.stress,
        multiplier: traffic.stress_rps / traffic.base_rps,
    }];
    spec.workload = WorkloadConfig::bolcom_like(traffic.catalog).with_seed(seed);
    spec.with_seed(seed)
}

/// Materialises the schedule: equal arguments give byte-equal output.
pub fn plan(traffic: &Traffic, phases: &Phases, seed: u64) -> Vec<Planned> {
    spec(traffic, phases, seed)
        .schedule()
        .into_iter()
        .enumerate()
        .map(|(i, s)| {
            let wire = Request::post("/predictions", s.body())
                .with_header("x-deadline-ms", DEADLINE_MS.to_string())
                .with_header(
                    "x-criticality",
                    CLASS_NAMES[usize::from(s.criticality.min(2))],
                )
                .with_header("x-request-id", i.to_string())
                .encode();
            Planned {
                id: i as u64,
                at: s.at,
                phase: phases.phase_of(s.at),
                session: s.session,
                criticality: s.criticality,
                wire,
            }
        })
        .collect()
}
