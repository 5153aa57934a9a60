//! End-to-end metrics from the client's records.
//!
//! Every latency is charged from the request's *intended* send time.
//! Base-phase metrics cover the base phase, stress-phase metrics the
//! stress phase, whole-run metrics both (the warm-up counts nowhere).
//! A request "meets the limit" when it was answered 200, correctly,
//! within [`crate::schedule::DEADLINE_MS`]; failures, sheds and refusals
//! miss it.
//!
//! Rates are a phase's outcome shares times its *nominal* request rate,
//! and whole-run shares weigh the two phases equally: how many Poisson
//! arrivals a seed happens to put in each phase (±1.8% at 175 rps over
//! 18 s) then moves no metric, only what the server did with them.
//!
//! `p50_ms` and `served_rps` are medians over the phase's [`WINDOW`]s of
//! intended send time, not whole-phase figures: a few seconds in which
//! the host steals CPU time then move them no more than any other
//! window does.

use crate::schedule::{Phase, Phases, Traffic, DEADLINE_MS};
use etude_metrics::percentile::percentile_duration;
use std::time::Duration;

/// One request as the metrics see it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Record {
    /// Intended send offset from the schedule start.
    pub at: Duration,
    /// Schedule phase.
    pub phase: Phase,
    /// Criticality class `critical`.
    pub critical: bool,
    /// Intended send → answer read; `None` when nothing came back.
    pub latency: Option<Duration>,
    /// HTTP status (0: no answer).
    pub status: u16,
    /// Served below the exact rung (`x-brownout-level` > 0) or
    /// `x-degraded`.
    pub degraded: bool,
    /// Failed answer verification.
    pub wrong: bool,
}

impl Record {
    /// A correct 200.
    pub fn served(&self) -> bool {
        self.status == 200 && !self.wrong
    }

    /// A correct 200 within the latency limit.
    pub fn in_time(&self) -> bool {
        self.served() && self.latency.is_some_and(|l| l <= limit())
    }

    /// Counts against `error_frac`: no answer, an unexpected status or
    /// a wrong answer. Sheds (503) and refusals (429) are the server
    /// doing its job and are not errors.
    pub fn error(&self) -> bool {
        self.wrong || !matches!(self.status, 200 | 429 | 503)
    }
}

/// Nominal length of the windows `p50_ms` and `served_rps` are
/// medians over. A phase is cut into equal windows of about this length.
pub const WINDOW: Duration = Duration::from_secs(1);

/// The latency limit.
pub fn limit() -> Duration {
    Duration::from_millis(DEADLINE_MS)
}

/// Milliseconds as a float.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Latency distribution of one phase's 200s.
#[derive(Debug, Clone, PartialEq)]
pub struct Tail {
    /// Phase.
    pub phase: Phase,
    /// 200s in the phase (the sample).
    pub samples: usize,
    /// Median, p90, p99, p99.9 in milliseconds (`NaN` without samples).
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// 99.9th percentile.
    pub p999: f64,
}

/// Sent / outcome counts of one phase.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counts {
    /// Requests sent.
    pub sent: usize,
    /// Correct 200s.
    pub served: usize,
    /// Correct 200s within the limit.
    pub in_time: usize,
    /// 503s.
    pub shed: usize,
    /// 429s.
    pub refused: usize,
    /// Errors (see [`Record::error`]).
    pub errors: usize,
    /// `critical` requests sent.
    pub critical_sent: usize,
    /// `critical` requests served within the limit.
    pub critical_in_time: usize,
    /// Served below the exact rung.
    pub degraded: usize,
}

impl Counts {
    fn add(&mut self, r: &Record) {
        self.sent += 1;
        self.served += usize::from(r.served());
        self.in_time += usize::from(r.in_time());
        self.shed += usize::from(r.status == 503);
        self.refused += usize::from(r.status == 429);
        self.errors += usize::from(r.error());
        if r.critical {
            self.critical_sent += 1;
            self.critical_in_time += usize::from(r.in_time());
        }
        self.degraded += usize::from(r.served() && r.degraded);
    }
}

/// Everything the end-to-end metrics derive from.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Base-phase counts.
    pub base: Counts,
    /// Stress-phase counts.
    pub stress: Counts,
    /// Base-phase latency distribution.
    pub base_tail: Tail,
    /// Stress-phase latency distribution.
    pub stress_tail: Tail,
    /// Median latency of the correct 200s sent in each base-phase
    /// window that has any, in ms.
    pub base_window_p50s: Vec<f64>,
    /// Share of the requests sent in each stress-phase window that were
    /// answered with a correct 200.
    pub stress_window_served: Vec<f64>,
    /// Base-phase length in seconds.
    pub base_secs: f64,
    /// Stress-phase length in seconds.
    pub stress_secs: f64,
    /// Nominal rates of the schedule.
    pub traffic: Traffic,
}

fn tail(records: &[Record], phase: Phase) -> Tail {
    let lat: Vec<Duration> = records
        .iter()
        .filter(|r| r.phase == phase && r.served())
        .filter_map(|r| r.latency)
        .collect();
    let p = |q| percentile_duration(&lat, q).map_or(f64::NAN, ms);
    Tail {
        phase,
        samples: lat.len(),
        p50: p(0.5),
        p90: p(0.9),
        p99: p(0.99),
        p999: p(0.999),
    }
}

/// The records of one phase, cut by intended send time into equal
/// windows of about [`WINDOW`] (at least one).
fn windows(records: &[Record], phase: Phase, start: Duration, len: Duration) -> Vec<Vec<Record>> {
    let n = ((len.as_secs_f64() / WINDOW.as_secs_f64()).floor() as usize).max(1);
    let mut out = vec![Vec::new(); n];
    for r in records.iter().filter(|r| r.phase == phase) {
        let offset = r.at.saturating_sub(start).as_secs_f64();
        let i = (offset / len.as_secs_f64() * n as f64) as usize;
        out[i.min(n - 1)].push(*r);
    }
    out
}

/// Median of `v`, `NaN` when it is empty.
pub fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

impl Summary {
    /// Folds the records of one run.
    pub fn new(records: &[Record], phases: &Phases, traffic: &Traffic) -> Summary {
        let mut base = Counts::default();
        let mut stress = Counts::default();
        for r in records {
            match r.phase {
                Phase::Warmup => {}
                Phase::Base => base.add(r),
                Phase::Stress => stress.add(r),
            }
        }
        Summary {
            base,
            stress,
            base_tail: tail(records, Phase::Base),
            stress_tail: tail(records, Phase::Stress),
            base_window_p50s: windows(records, Phase::Base, phases.warmup, phases.base)
                .iter()
                .map(|w| tail(w, Phase::Base))
                .filter(|t| t.samples > 0)
                .map(|t| t.p50)
                .collect(),
            stress_window_served: windows(
                records,
                Phase::Stress,
                phases.stress_start(),
                phases.stress,
            )
            .iter()
            .filter(|w| !w.is_empty())
            .map(|w| ratio(w.iter().filter(|r| r.served()).count(), w.len()))
            .collect(),
            base_secs: phases.base.as_secs_f64(),
            stress_secs: phases.stress.as_secs_f64(),
            traffic: *traffic,
        }
    }

    /// Base phase: median over the windows of the median latency of
    /// correct 200s, in ms.
    pub fn p50_ms(&self) -> f64 {
        median(self.base_window_p50s.clone())
    }

    /// Base phase: share of sent requests answered within the limit.
    pub fn slo_frac(&self) -> f64 {
        ratio(self.base.in_time, self.base.sent)
    }

    /// Stress phase: correct 200s per second, at any latency; the
    /// median over the windows of their served share times the nominal
    /// rate.
    pub fn served_rps(&self) -> f64 {
        self.traffic.stress_rps * median(self.stress_window_served.clone())
    }

    /// Whole run: correct 200s within the limit per second.
    pub fn goodput_rps(&self) -> f64 {
        let base =
            self.traffic.base_rps * self.base_secs * ratio(self.base.in_time, self.base.sent);
        let stress = self.traffic.stress_rps
            * self.stress_secs
            * ratio(self.stress.in_time, self.stress.sent);
        (base + stress) / (self.base_secs + self.stress_secs)
    }

    /// Share of `critical` requests answered within the limit.
    pub fn critical_goodput_frac(&self) -> f64 {
        0.5 * (ratio(self.base.critical_in_time, self.base.critical_sent)
            + ratio(self.stress.critical_in_time, self.stress.critical_sent))
    }

    /// Share of 200s served exactly (level 0, not degraded).
    pub fn exact_frac(&self) -> f64 {
        let exact = |c: &Counts| ratio(c.served - c.degraded, c.served);
        0.5 * (exact(&self.base) + exact(&self.stress))
    }

    /// Whole run: share of requests sent that did not end in an error.
    pub fn ok_frac(&self) -> f64 {
        let sent = self.base.sent + self.stress.sent;
        ratio(sent - self.base.errors - self.stress.errors, sent)
    }

    /// Stress phase only: correct 200s within the limit per second.
    pub fn stress_goodput_rps(&self) -> f64 {
        self.stress.in_time as f64 / self.stress_secs
    }

    /// Stress phase only: share of `critical` requests answered within
    /// the limit.
    pub fn stress_critical_goodput_frac(&self) -> f64 {
        ratio(self.stress.critical_in_time, self.stress.critical_sent)
    }
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}
