//! One benchmark run: set up, drive, verify, report.

use crate::layers;
use crate::loadgen::{self, RunLog};
use crate::measure::{median, ratio, Record, Summary, Tail};
use crate::report::{self, Metric};
use crate::rig::{self, Rig};
use crate::schedule::{self, Phase, Phases, Planned, CRITICAL};
use crate::verify::{self, Oracle, Verdict};
use etude_obs::StatsSnapshot;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Server set-ups per untraced run: at least the minimum, then more
/// until they have taken [`SETUP_BUDGET`] or the maximum is reached;
/// `setup_s` is their median.
pub const SETUP_REPS: (usize, usize) = (5, 41);
/// Time after which no further set-up is started.
pub const SETUP_BUDGET: Duration = Duration::from_secs(1);
/// How long the client waits for answers after the last send.
pub const DRAIN: Duration = Duration::from_secs(5);

/// Command-line arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end one.
    pub trace: bool,
}

/// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
pub fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "bad --seconds")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace,
    })
}

/// Connections the client opens: one per core, at most two.
pub fn connections() -> usize {
    report::nproc().clamp(1, 2)
}

/// The server-side snapshots taken while a schedule runs.
pub struct Driven {
    /// The client's log.
    pub log: RunLog,
    /// `/stats` when the base phase began.
    pub at_base: Option<StatsSnapshot>,
    /// `/stats` when the stress phase began.
    pub at_stress: Option<StatsSnapshot>,
    /// `/stats` after the drain.
    pub at_end: StatsSnapshot,
}

/// Drives `plan` at `rig`. When the stress phase begins the sharded
/// workload's victim backend is shut down (on a helper thread, so the
/// client keeps its schedule).
pub fn drive(rig: &mut Rig, plan: &[Planned]) -> std::io::Result<Driven> {
    let recorder = Arc::clone(&rig.recorder);
    let addr = rig.addr;
    let mut killer = None;
    let mut at_base = None;
    let mut at_stress = None;
    let mut hook = |p: Phase| match p {
        Phase::Warmup => {}
        Phase::Base => at_base = Some(recorder.snapshot()),
        Phase::Stress => {
            at_stress = Some(recorder.snapshot());
            if let Some(v) = rig.take_victim() {
                killer = Some(std::thread::spawn(move || v.shutdown()));
            }
        }
    };
    let log = loadgen::drive(addr, plan, connections(), DRAIN, &mut hook)?;
    if let Some(k) = killer {
        k.join().expect("backend shutdown thread");
    }
    Ok(Driven {
        log,
        at_base,
        at_stress,
        at_end: recorder.snapshot(),
    })
}

/// Folds a driven schedule and its verdict into metric records.
pub fn records(plan: &[Planned], log: &RunLog, verdict: &Verdict) -> Vec<Record> {
    plan.iter()
        .zip(&log.outcomes)
        .enumerate()
        .map(|(i, (p, o))| Record {
            at: p.at,
            phase: p.phase,
            critical: p.criticality == CRITICAL,
            latency: o
                .done
                .map(|d| d.saturating_duration_since(log.intended(plan, i))),
            status: o.status,
            degraded: o.level > 0 || o.degraded,
            wrong: verdict.wrong[i],
        })
        .collect()
}

fn print_tail(t: &Tail) {
    println!(
        "  {:<6} latency of 200s (n = {}): p50 {:.3} ms  p90 {:.3} ms  p99 {:.3} ms  p99.9 {:.3} ms",
        t.phase.name(),
        t.samples,
        t.p50,
        t.p90,
        t.p99,
        t.p999
    );
}

/// The end-to-end metrics of a summary.
pub fn end_to_end(s: &Summary, setup_s: f64, setups: usize, rss_mb: f64) -> Vec<Metric> {
    let sent = s.base.sent + s.stress.sent;
    let served = s.base.served + s.stress.served;
    vec![
        Metric::new("setup_s", "s", setup_s, setups),
        Metric::new("peak_rss_mb", "MB", rss_mb, 1),
        Metric::new("p50_ms", "ms", s.p50_ms(), s.base_tail.samples),
        Metric::new("slo_frac", "ratio", s.slo_frac(), s.base.sent),
        Metric::new(
            "goodput_rps",
            "1/s",
            s.goodput_rps(),
            s.base.in_time + s.stress.in_time,
        ),
        Metric::new(
            "critical_goodput_frac",
            "ratio",
            s.critical_goodput_frac(),
            s.base.critical_sent + s.stress.critical_sent,
        ),
        Metric::new("exact_frac", "ratio", s.exact_frac(), served),
        Metric::new("ok_frac", "ratio", s.ok_frac(), sent),
    ]
}

/// Runs the benchmark and prints its report; `Err` when it cannot run.
pub fn main(args: Args) -> Result<(), String> {
    let w = rig::workload(&args.workload).ok_or(format!(
        "unknown workload {} (known: {})",
        args.workload,
        rig::WORKLOADS.map(|w| w.name).join(", ")
    ))?;
    let ticks = report::cpu_ticks();
    let phases = Phases::for_seconds(args.seconds);
    let plan = schedule::plan(&w.traffic(), &phases, args.seed);
    let counts = [Phase::Warmup, Phase::Base, Phase::Stress]
        .map(|p| plan.iter().filter(|r| r.phase == p).count());
    println!(
        "provenance: {}",
        report::provenance(w, args.seed, args.trace, &phases, counts)
    );
    if args.trace {
        return layers::traced_run(w, &args, &phases, &plan, ticks);
    }

    let mut setups = Vec::with_capacity(SETUP_REPS.1);
    let mut rig: Option<Rig> = None;
    while setups.len() < SETUP_REPS.0
        || (setups.len() < SETUP_REPS.1 && setups.iter().sum::<f64>() < SETUP_BUDGET.as_secs_f64())
    {
        if let Some(old) = rig.take() {
            old.shutdown();
        }
        let t = Instant::now();
        rig = Some(Rig::start(w, None).map_err(|e| format!("setup: {e}"))?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut rig = rig.expect("at least one set-up");
    let driven = drive(&mut rig, &plan).map_err(|e| format!("client: {e}"))?;

    let oracle = Oracle::new(w, &rig.reference);
    let verdict = verify::verify(w, &oracle, &plan, &driven.log.outcomes, args.seed);
    drop(oracle);
    rig.shutdown();
    let recs = records(&plan, &driven.log, &verdict);
    let summary = Summary::new(&recs, &phases, &w.traffic());
    let metrics = end_to_end(
        &summary,
        median(setups.clone()),
        setups.len(),
        report::peak_rss_mb(),
    );

    println!(
        "setup runs: {}",
        setups
            .iter()
            .map(|s| format!("{s:.4} s"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    for (name, c) in [("base", &summary.base), ("stress", &summary.stress)] {
        println!(
            "  {name:<6} sent {} served {} in-time {} shed(503) {} refused(429) {} errors {} critical {}/{} degraded {}",
            c.sent, c.served, c.in_time, c.shed, c.refused, c.errors, c.critical_in_time, c.critical_sent, c.degraded
        );
    }
    print_tail(&summary.base_tail);
    print_tail(&summary.stress_tail);
    print_windows("base   window p50s (ms)", &summary.base_window_p50s);
    print_windows("stress window served shares", &summary.stress_window_served);
    print_verdict(&verdict, driven.log.transport_errors);
    println!(
        "  stress phase only (not gated): served {:.3} rps, goodput {:.3} rps, critical in-time share {:.4}, degraded share of 200s {:.4}",
        summary.served_rps(),
        summary.stress_goodput_rps(),
        summary.stress_critical_goodput_frac(),
        ratio(summary.stress.degraded, summary.stress.served),
    );
    for m in &metrics {
        println!(
            "  {:<24} {:>14.6} {:<6} (n = {})",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!(
        "noise: CPU steal {:.4} of machine CPU time during the run",
        report::steal_since(ticks)
    );
    println!("report: {}", report::metrics_json(&metrics));
    let correct = verdict.wrong_count() == 0 && verdict.corruption_caught;
    let attempted = summary.base.sent + summary.stress.sent;
    let failed = summary.base.errors + summary.stress.errors;
    println!(
        "{}",
        report::result_line(correct, attempted, failed, &metrics)
    );
    Ok(())
}

/// Prints the smallest, median and largest of per-window values.
fn print_windows(label: &str, v: &[f64]) {
    let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    println!(
        "  {label}: {} windows, min {lo:.4} median {:.4} max {hi:.4}",
        v.len(),
        median(v.to_vec())
    );
}

/// Prints the verification summary.
pub fn print_verdict(v: &Verdict, transport_errors: u64) {
    println!(
        "verification: {} answers shape-checked, {} compared with the reference, {} wrong, corrupted answer caught: {}, transport errors: {}",
        v.shape_checked,
        v.reference_checked,
        v.wrong_count(),
        v.corruption_caught,
        transport_errors
    );
    if let Some(f) = &v.first_failure {
        println!("  first failure: {f}");
    }
}
