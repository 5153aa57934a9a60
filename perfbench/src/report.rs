//! Provenance and machine-readable output.

use crate::rig::Workload;
use crate::schedule::Phases;
use etude_serve::{ContinuousConfig, ReactorConfig};

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Samples behind the value.
    pub samples: usize,
}

impl Metric {
    /// A metric.
    pub fn new(name: &str, unit: &'static str, value: f64, samples: usize) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            value,
            samples,
        }
    }
}

/// A JSON number; non-finite values become `null`.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// A JSON string literal (the benchmark only emits plain ASCII text).
pub fn text(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => out.push(' '),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The commit of the checkout, read from `.git` in the working
/// directory only; `unknown` outside a git checkout.
pub fn git_sha() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(reference) => read(&format!(".git/{reference}"))
            .map(|s| s.trim().to_string())
            .or_else(|| {
                read(".git/packed-refs")?
                    .lines()
                    .find(|l| l.ends_with(reference))
                    .and_then(|l| l.split_whitespace().next().map(str::to_string))
            })
            .unwrap_or_else(|| "unknown".into()),
    }
}

/// CPU model name from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set (`VmHWM`) of this process in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Cumulative (steal, total) CPU ticks of the machine, from the
/// `cpu` line of `/proc/stat`.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Share of CPU time the hypervisor gave to other guests since `start`
/// (a [`cpu_ticks`] reading): the run's noise floor on a shared host.
pub fn steal_since(start: Option<(u64, u64)>) -> f64 {
    match (start, cpu_ticks()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => f64::NAN,
    }
}

/// Logical CPUs available.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The provenance header of a run, as one JSON object.
pub fn provenance(
    w: &Workload,
    seed: u64,
    trace: bool,
    phases: &Phases,
    counts: [usize; 3],
) -> String {
    let reactor = ReactorConfig::default();
    let batch = ContinuousConfig::default();
    format!(
        concat!(
            "{{\"git_sha\": {}, \"cpu\": {}, \"nproc\": {}, \"isa\": {}, \"poller\": {}, ",
            "\"event_loops\": {}, \"dispatch_threads\": {}, \"batcher_slots\": {}, ",
            "\"pool_threads\": {}, \"workload\": {}, \"catalog\": {}, \"dim\": {}, ",
            "\"base_rps\": {}, \"stress_rps\": {}, \"seed\": {}, \"trace\": {}, ",
            "\"warmup_s\": {}, \"base_s\": {}, \"stress_s\": {}, ",
            "\"requests\": {{\"warmup\": {}, \"base\": {}, \"stress\": {}}}}}"
        ),
        text(&git_sha()),
        text(&cpu_model()),
        nproc(),
        text(etude_tensor::simd::isa_name()),
        text(etude_serve::reactor::poller_backend_name()),
        reactor.event_loops,
        reactor.dispatch_threads,
        batch.slots,
        etude_tensor::pool::current_threads(),
        text(w.name),
        w.catalog,
        w.dim,
        num(w.base_rps),
        num(w.stress_rps),
        seed,
        trace,
        num(phases.warmup.as_secs_f64()),
        num(phases.base.as_secs_f64()),
        num(phases.stress.as_secs_f64()),
        counts[0],
        counts[1],
        counts[2],
    )
}

/// Metrics as one JSON object of `{"value", "unit"}` entries, with
/// `"samples"` added when `samples` is set.
fn metrics_object(metrics: &[Metric], samples: bool) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let n = if samples {
                format!(", \"samples\": {}", m.samples)
            } else {
                String::new()
            };
            format!(
                "{}: {{\"value\": {}, \"unit\": {}{n}}}",
                text(&m.name),
                num(m.value),
                text(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Every metric with unit and sample count, as one JSON object.
pub fn metrics_json(metrics: &[Metric]) -> String {
    metrics_object(metrics, true)
}

/// The result line the benchmark ends with.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_object(metrics, false)
    )
}
