//! The traced run: per-layer metrics and the latency ledger.
//!
//! The traced run first drives the warm-up and base phases untraced (for
//! `trace.overhead_pct`), then the whole schedule with the handler
//! wrappers recording. Layer times come from four sources, all timed
//! from the benchmark's own files:
//!
//! * the wrapped handlers' spans against the client's send and read
//!   instants (wire in, dispatch wait, wire out, router legs);
//! * the server's `/stats` snapshot, differenced over the base phase
//!   (parse, queue, inference, top-k, serialize; reactor telemetry);
//! * in-process replays of the base-phase request stream through the
//!   layers' public functions (`parse_request`, `encode_recommendations`,
//!   `recommend_compiled_timed`, `score_topk_into`, the exact and int8
//!   indexes, `merge_shard_topk`);
//! * the client's own records (send lag, in-flight depth, statuses).

use crate::measure::{ms, ratio, Summary};
use crate::report::{self, Metric};
use crate::rig::{self, Reference, Rig, Tier, Workload, K, QUERY_SEED};
use crate::run::{self, Args};
use crate::schedule::{Phase, Phases, Planned};
use crate::trace::{Span, TraceLog};
use crate::verify::{self, Oracle};
use bytes::BytesMut;
use etude_core::{run_experiment, ExecutionMode, ExperimentSpec};
use etude_metrics::percentile::percentile_duration;
use etude_metrics::Histogram;
use etude_models::retrieval::{
    encode_session_query, recall_at_k, ExactIndex, QuantizedIndex, SearchScratch,
};
use etude_obs::{Stage, StatsSnapshot};
use etude_serve::http::{decode_recommendations, encode_recommendations, parse_request};
use etude_tensor::topk::{merge_shard_topk, score_topk, score_topk_into, TopkScratch};
use etude_tensor::JitOptions;
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Median of durations, in µs (0 without samples).
fn p50_us(v: &[Duration]) -> f64 {
    percentile_duration(v, 0.5).map_or(0.0, us)
}

/// Base-phase requests replayed through the layers' functions.
const REPLAYS: usize = 400;

/// Times `f` once per input and returns the median in µs (0 without
/// inputs).
fn replay<T>(inputs: &[T], mut f: impl FnMut(&T)) -> f64 {
    let times: Vec<Duration> = inputs
        .iter()
        .map(|x| {
            let t = Instant::now();
            f(x);
            t.elapsed()
        })
        .collect();
    p50_us(&times)
}

/// Median (µs) of the samples a sparse bucket histogram gained between
/// two snapshots of it; 0 when it gained none.
fn delta_p50(before: &[(u32, u64)], after: &[(u32, u64)]) -> f64 {
    let before: HashMap<u32, u64> = before.iter().copied().collect();
    let gained: Vec<(u32, u64)> = after
        .iter()
        .map(|&(b, n)| (b, n - before.get(&b).copied().unwrap_or(0).min(n)))
        .filter(|&(_, n)| n > 0)
        .collect();
    let h = Histogram::from_sparse(&gained);
    if h.is_empty() {
        0.0
    } else {
        h.p50() as f64
    }
}

/// Median (µs) of `stage` over the interval between two snapshots.
fn stage_p50(from: &StatsSnapshot, to: &StatsSnapshot, stage: Stage) -> f64 {
    let buckets = |s: &StatsSnapshot| {
        s.hist
            .iter()
            .find(|h| h.stage == stage.name())
            .map(|h| h.counts.clone())
            .unwrap_or_default()
    };
    delta_p50(&buckets(from), &buckets(to))
}

/// Reactor telemetry over an interval: loop utilisation and the
/// dispatch-wait median (µs).
fn reactor_delta(from: &StatsSnapshot, to: &StatsSnapshot) -> (f64, f64) {
    let (Some(a), Some(b)) = (&from.reactor, &to.reactor) else {
        return (0.0, 0.0);
    };
    let busy = b.busy_nanos.saturating_sub(a.busy_nanos) as f64;
    let wait = b.wait_nanos.saturating_sub(a.wait_nanos) as f64;
    let util = if busy + wait > 0.0 {
        busy / (busy + wait)
    } else {
        0.0
    };
    (util, delta_p50(&a.dispatch_wait_us, &b.dispatch_wait_us))
}

/// Per-layer costs measured by replaying the base-phase stream through
/// the layers' public functions.
struct Replays {
    parse_us: f64,
    serialize_us: f64,
    recommend_us: f64,
    encode_us: f64,
    scan_us: f64,
    exact_us: f64,
    int8_us: f64,
    int8_recall: f64,
}

fn replays(
    w: &Workload,
    reference: &Reference,
    base: &[&Planned],
    answers: &[(Vec<u32>, Vec<f32>)],
) -> Replays {
    let sample: Vec<&Planned> = base.iter().copied().take(REPLAYS).collect();
    let parse_us = replay(&sample, |p| {
        let mut buf = BytesMut::from(&p.wire[..]);
        black_box(parse_request(&mut buf).expect("scheduled requests parse"));
    });
    let serialize_us = replay(&answers[..answers.len().min(2000)], |(ids, scores)| {
        black_box(encode_recommendations(ids, scores));
    });

    let owned_table;
    let table: &[f32] = match reference {
        Reference::Table { table, .. } => table,
        Reference::Model { .. } => {
            owned_table = rig::table(w.catalog, w.dim);
            &owned_table
        }
    };
    let queries: Vec<Vec<f32>> = sample
        .iter()
        .map(|p| encode_session_query(&p.session, w.dim, QUERY_SEED))
        .collect();
    let (recommend_us, encode_us) = match reference {
        Reference::Model { model } => {
            let graph = etude_models::traits::compile(model.as_ref(), JitOptions::default())
                .expect("the served model compiles");
            let mut encode = Vec::with_capacity(sample.len());
            let recommend = replay(&sample, |p| {
                let (rec, st) = etude_models::traits::recommend_compiled_timed(
                    model.as_ref(),
                    &graph,
                    &p.session,
                )
                .expect("reference inference");
                encode.push(st.inference);
                black_box(rec);
            });
            (recommend, p50_us(&encode))
        }
        Reference::Table { .. } => {
            let encode = replay(&sample, |p| {
                black_box(encode_session_query(&p.session, w.dim, QUERY_SEED));
            });
            let recommend = replay(&sample, |p| {
                let q = encode_session_query(&p.session, w.dim, QUERY_SEED);
                black_box(score_topk(table, &q, w.catalog, K));
            });
            (recommend, encode)
        }
    };
    let mut scratch = TopkScratch::default();
    let (mut ids, mut scores) = (Vec::new(), Vec::new());
    let scan_us = replay(&queries, |q| {
        score_topk_into(table, q, w.catalog, K, &mut scratch, &mut ids, &mut scores);
        black_box(&ids);
    });
    let exact = ExactIndex::new(table.to_vec(), w.catalog, w.dim);
    let int8 = QuantizedIndex::from_f32(table, w.catalog, w.dim);
    let mut s = SearchScratch::default();
    let mut exact_ids = Vec::with_capacity(queries.len());
    let exact_us = replay(&queries, |q| {
        exact.search_into(q, K, &mut s, &mut ids, &mut scores);
        exact_ids.push(ids.clone());
    });
    drop(exact);
    let mut int8_ids = Vec::with_capacity(queries.len());
    let int8_us = replay(&queries, |q| {
        int8.search_into(q, K, &mut s, &mut ids, &mut scores);
        int8_ids.push(ids.clone());
    });
    let int8_recall = exact_ids
        .iter()
        .zip(&int8_ids)
        .map(|(e, a)| recall_at_k(e, a))
        .sum::<f64>()
        / exact_ids.len().max(1) as f64;
    Replays {
        parse_us,
        serialize_us,
        recommend_us,
        encode_us,
        scan_us,
        exact_us,
        int8_us,
        int8_recall,
    }
}

/// The simulator's prediction for the same model, C and base rate on
/// the CPU instance: (p50 ms, throughput rps).
fn simulated(w: &Workload) -> Option<(f64, f64)> {
    let Tier::Model(kind) = w.tier else {
        return None;
    };
    let spec = ExperimentSpec::new(kind, w.catalog, etude_cluster::InstanceType::CpuE2)
        .with_target_rps(w.base_rps.round() as u64)
        .with_ramp(Duration::from_secs(10))
        .with_execution(ExecutionMode::Jit);
    let r = run_experiment(&spec);
    Some((ms(r.steady.p50), r.throughput()))
}

/// Runs the traced variant and prints every per-layer metric.
pub fn traced_run(
    w: &Workload,
    args: &Args,
    phases: &Phases,
    plan: &[Planned],
    ticks: Option<(u64, u64)>,
) -> Result<(), String> {
    let log = Arc::new(TraceLog::with_capacity(plan.len() * 3));
    let t = Instant::now();
    let mut rig = Rig::start(w, Some(&log)).map_err(|e| format!("setup: {e}"))?;
    println!(
        "setup (traced wrappers): {:.4} s",
        t.elapsed().as_secs_f64()
    );

    // Untraced pass over warm-up and base: the overhead baseline.
    let untraced_plan: Vec<Planned> = plan
        .iter()
        .filter(|p| p.phase != Phase::Stress)
        .cloned()
        .collect();
    let untraced = run::drive(&mut rig, &untraced_plan).map_err(|e| format!("client: {e}"))?;
    let untraced_verdict = verify::verify(
        w,
        &Oracle::new(w, &rig.reference),
        &untraced_plan,
        &untraced.log.outcomes,
        args.seed,
    );
    let untraced_summary = Summary::new(
        &run::records(&untraced_plan, &untraced.log, &untraced_verdict),
        phases,
        &w.traffic(),
    );

    log.set_enabled(true);
    let driven = run::drive(&mut rig, plan).map_err(|e| format!("client: {e}"))?;
    log.set_enabled(false);
    let spans = log.take();
    let verdict = verify::verify(
        w,
        &Oracle::new(w, &rig.reference),
        plan,
        &driven.log.outcomes,
        args.seed,
    );
    let recs = run::records(plan, &driven.log, &verdict);
    let summary = Summary::new(&recs, phases, &w.traffic());
    let outcomes = &driven.log.outcomes;

    // Client-side layers.
    let intended = |i: usize| driven.log.intended(plan, i);
    let lags: Vec<Duration> = (0..plan.len())
        .filter_map(|i| {
            outcomes[i]
                .sent
                .map(|s| s.saturating_duration_since(intended(i)))
        })
        .collect();
    let send_lag_p99 = percentile_duration(&lags, 0.99).map_or(0.0, ms);

    // Wrapped-handler spans of base-phase 200s.
    let is_base_ok = |i: usize| plan[i].phase == Phase::Base && outcomes[i].status == 200;
    let mut legs: HashMap<u64, Vec<&Span>> = HashMap::new();
    let mut fronts: HashMap<u64, &Span> = HashMap::new();
    for s in &spans {
        match s.leg {
            Some(_) => legs.entry(s.id).or_default().push(s),
            None => {
                fronts.insert(s.id, s);
            }
        }
    }
    let (mut wire_in, mut dispatch, mut wire_out, mut handler, mut leg_t, mut self_t) = (
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
    );
    let mut degraded_handler = Vec::new();
    let mut captured_partials = Vec::new();
    for (i, p) in plan.iter().enumerate() {
        let Some(f) = fronts.get(&p.id) else { continue };
        let o = &outcomes[i];
        let h = f.exit - f.entry;
        if p.phase == Phase::Stress && o.status == 200 && o.degraded {
            degraded_handler.push(h);
        }
        if !is_base_ok(i) {
            continue;
        }
        if let (Some(sent), Some(done)) = (o.sent, o.done) {
            wire_in.push(f.arrival.saturating_duration_since(sent));
            wire_out.push(done.saturating_duration_since(f.exit));
        }
        dispatch.push(f.entry.saturating_duration_since(f.arrival));
        handler.push(h);
        if let Some(ls) = legs.get(&p.id) {
            let slowest = ls
                .iter()
                .map(|l| l.exit - l.entry)
                .max()
                .unwrap_or_default();
            leg_t.extend(ls.iter().map(|l| l.exit - l.entry));
            self_t.push(h.saturating_sub(slowest));
            let partials: Vec<(Vec<u32>, Vec<f32>)> = ls
                .iter()
                .filter_map(|l| l.body.as_ref().and_then(|b| decode_recommendations(b).ok()))
                .collect();
            if partials.len() == ls.len() {
                captured_partials.push(partials);
            }
        }
    }

    // Base-phase answers for the serializer replay.
    let base_idx: Vec<usize> = (0..plan.len()).filter(|&i| is_base_ok(i)).collect();
    let answers: Vec<(Vec<u32>, Vec<f32>)> = base_idx
        .iter()
        .filter_map(|&i| decode_recommendations(&outcomes[i].body).ok())
        .collect();
    let resp_bytes = base_idx
        .iter()
        .map(|&i| outcomes[i].wire_bytes)
        .sum::<usize>() as f64
        / base_idx.len().max(1) as f64;
    let base_plan: Vec<&Planned> = plan.iter().filter(|p| p.phase == Phase::Base).collect();
    let r = replays(w, &rig.reference, &base_plan, &answers);
    let merge_us = replay(&captured_partials, |p| {
        black_box(merge_shard_topk(p, K));
    });

    // /stats over the base phase.
    let empty = StatsSnapshot::default();
    let at_base = driven.at_base.as_ref().unwrap_or(&empty);
    let at_stress = driven.at_stress.as_ref().unwrap_or(&driven.at_end);
    let stat = |stage| stage_p50(at_base, at_stress, stage);
    let (loop_util, stats_dispatch_us) = reactor_delta(at_base, at_stress);
    let (parse, queue, inference, topk, serialize) = (
        stat(Stage::Parse),
        stat(Stage::Queue),
        stat(Stage::Inference),
        stat(Stage::TopK),
        stat(Stage::Serialize),
    );
    let batcher_wait = (queue - stats_dispatch_us).max(0.0);

    // Statuses and rungs over the whole traced run (warm-up excluded).
    let measured: Vec<usize> = (0..plan.len())
        .filter(|&i| plan[i].phase != Phase::Warmup)
        .collect();
    let body_has = |i: usize, s: &str| String::from_utf8_lossy(&outcomes[i].body).contains(s);
    let shed_expired = measured
        .iter()
        .filter(|&&i| outcomes[i].status == 503 && body_has(i, "deadline"))
        .count();
    let shed_full = measured
        .iter()
        .filter(|&&i| outcomes[i].status == 503 && body_has(i, "overloaded"))
        .count();
    let refused = measured
        .iter()
        .filter(|&&i| outcomes[i].status == 429)
        .count();
    let ok: Vec<usize> = measured
        .iter()
        .copied()
        .filter(|&i| outcomes[i].status == 200)
        .collect();
    let rung = |level: u8| {
        ratio(
            ok.iter().filter(|&&i| outcomes[i].level == level).count(),
            ok.len(),
        )
    };
    let stress_served: Vec<usize> = ok
        .iter()
        .copied()
        .filter(|&i| plan[i].phase == Phase::Stress)
        .collect();
    let late = stress_served
        .iter()
        .filter(|&&i| !recs[i].in_time())
        .count();

    let base_lag: Vec<Duration> = base_idx
        .iter()
        .filter_map(|&i| {
            outcomes[i]
                .sent
                .map(|s| s.saturating_duration_since(intended(i)))
        })
        .collect();
    let send_lag_us = p50_us(&base_lag);
    let client_p50_us = summary.base_tail.p50 * 1e3;
    let (wire_in_us, dispatch_us, wire_out_us) =
        (p50_us(&wire_in), p50_us(&dispatch), p50_us(&wire_out));
    let accounted = send_lag_us
        + wire_in_us
        + dispatch_us
        + parse
        + batcher_wait
        + inference
        + topk
        + serialize
        + wire_out_us;
    let remainder = client_p50_us - accounted;
    let overhead_pct = (summary.p50_ms() / untraced_summary.p50_ms() - 1.0) * 100.0;
    let base_n = base_idx.len();
    let is_sharded = w.tier == Tier::Sharded;

    let metrics = vec![
        Metric::new("loadgen.send_lag_p99_ms", "ms", send_lag_p99, lags.len()),
        Metric::new(
            "loadgen.inflight_max",
            "count",
            driven.log.inflight_max as f64,
            1,
        ),
        Metric::new("reactor.wire_in_us", "us", wire_in_us, base_n),
        Metric::new("reactor.dispatch_wait_us", "us", dispatch_us, base_n),
        Metric::new("reactor.wire_out_us", "us", wire_out_us, base_n),
        Metric::new("reactor.loop_util", "ratio", loop_util, 1),
        Metric::new(
            "http.parse_us",
            "us",
            r.parse_us,
            base_plan.len().min(REPLAYS),
        ),
        Metric::new(
            "http.serialize_us",
            "us",
            r.serialize_us,
            answers.len().min(2000),
        ),
        Metric::new("http.resp_bytes", "B", resp_bytes, base_n),
        Metric::new("contbatch.queue_wait_us", "us", batcher_wait, base_n),
        Metric::new(
            "contbatch.shed_expired",
            "count",
            shed_expired as f64,
            measured.len(),
        ),
        Metric::new(
            "contbatch.shed_full",
            "count",
            shed_full as f64,
            measured.len(),
        ),
        Metric::new(
            "contbatch.late_frac",
            "ratio",
            ratio(late, stress_served.len()),
            stress_served.len(),
        ),
        Metric::new("models.recommend_us", "us", r.recommend_us, 1),
        Metric::new("models.encode_us", "us", r.encode_us, 1),
        Metric::new("tensor.scan_us", "us", r.scan_us, 1),
        Metric::new(
            "tensor.scan_gbps",
            "GB/s",
            (w.catalog * w.dim * 4) as f64 / (r.scan_us * 1e3),
            1,
        ),
        Metric::new("retrieval.exact_us", "us", r.exact_us, 1),
        Metric::new("retrieval.int8_us", "us", r.int8_us, 1),
        Metric::new("retrieval.int8_recall", "ratio", r.int8_recall, 1),
        Metric::new("overload.rung_share.exact", "ratio", rung(0), ok.len()),
        Metric::new("overload.rung_share.quantized", "ratio", rung(1), ok.len()),
        Metric::new("overload.rung_share.reduced", "ratio", rung(2), ok.len()),
        Metric::new("overload.rung_share.fallback", "ratio", rung(3), ok.len()),
        Metric::new(
            "overload.refused_frac",
            "ratio",
            ratio(refused, measured.len()),
            measured.len(),
        ),
        Metric::new(
            "admission.limit",
            "count",
            driven.at_end.admission_limit_milli as f64 / 1000.0,
            1,
        ),
        Metric::new("router.leg_us", "us", p50_us(&leg_t), leg_t.len()),
        Metric::new(
            "router.handler_us",
            "us",
            if is_sharded { p50_us(&handler) } else { 0.0 },
            handler.len(),
        ),
        Metric::new("router.self_us", "us", p50_us(&self_t), self_t.len()),
        Metric::new("router.merge_us", "us", merge_us, captured_partials.len()),
        Metric::new(
            "router.degraded_answer_us",
            "us",
            if is_sharded {
                p50_us(&degraded_handler)
            } else {
                0.0
            },
            degraded_handler.len(),
        ),
        Metric::new("ledger.remainder_us", "us", remainder, base_n),
        Metric::new("trace.overhead_pct", "%", overhead_pct, base_n),
        Metric::new(
            "stress.served_rps",
            "1/s",
            summary.served_rps(),
            summary.stress.served,
        ),
        Metric::new(
            "stress.goodput_rps",
            "1/s",
            summary.stress_goodput_rps(),
            summary.stress.in_time,
        ),
        Metric::new(
            "stress.critical_goodput_frac",
            "ratio",
            summary.stress_critical_goodput_frac(),
            summary.stress.critical_sent,
        ),
    ];

    print_verdict_and_ledger(
        w,
        &summary,
        &untraced_summary,
        &verdict,
        driven.log.transport_errors,
    );
    println!("ledger (base phase, p50s in us):");
    println!("  client p50 (intended send -> answer read) {client_p50_us:>10.1}");
    for (name, v) in [
        ("client send lag (intended -> written)", send_lag_us),
        ("wire_in (client write -> arrival)", wire_in_us),
        ("dispatch_wait (arrival -> handler)", dispatch_us),
        ("/stats parse", parse),
        ("/stats queue - dispatch wait (batcher)", batcher_wait),
        ("/stats inference", inference),
        ("/stats topk", topk),
        ("/stats serialize", serialize),
        ("wire_out (handler return -> answer read)", wire_out_us),
        ("remainder (unattributed)", remainder),
    ] {
        println!("  + {name:<42} {v:>10.1}");
    }
    if is_sharded {
        println!(
            "tensor.scan_us {:.1} at C = {} vs router.leg_us {:.1} over C/2 per shard: ratio {:.3} (legs scan half the catalog each)",
            r.scan_us,
            w.catalog,
            p50_us(&leg_t),
            r.scan_us / p50_us(&leg_t).max(1.0)
        );
    } else if topk > 0.0 {
        println!(
            "tensor.scan_us {:.1} vs /stats topk {:.1} at C = {}, d = {}: ratio {:.3}",
            r.scan_us,
            topk,
            w.catalog,
            w.dim,
            r.scan_us / topk
        );
    } else {
        println!(
            "tensor.scan_us {:.1} vs /stats inference {:.1} (the scan runs inside it) at C = {}, d = {}: ratio {:.3}",
            r.scan_us,
            inference,
            w.catalog,
            w.dim,
            r.scan_us / inference.max(1.0)
        );
    }
    if let Some((sim_p50, sim_rps)) = simulated(w) {
        println!(
            "simulator (run_experiment, CPU instance, {} rps): p50 {:.3} ms, throughput {:.1} rps | measured: p50_ms {:.3} (untraced), stress.served_rps {:.1}",
            w.base_rps,
            sim_p50,
            sim_rps,
            untraced_summary.p50_ms(),
            summary.served_rps()
        );
    }
    if !is_sharded {
        println!("router.* are 0: no router on this workload");
    }
    for m in &metrics {
        println!(
            "  {:<32} {:>14.4} {:<6} (n = {})",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!(
        "noise: CPU steal {:.4} of machine CPU time during the run",
        report::steal_since(ticks)
    );
    println!("report: {}", report::metrics_json(&metrics));
    rig.shutdown();
    let correct = verdict.wrong_count() == 0
        && verdict.corruption_caught
        && untraced_verdict.wrong_count() == 0;
    let attempted = summary.base.sent + summary.stress.sent;
    let failed = summary.base.errors + summary.stress.errors;
    println!(
        "{}",
        report::result_line(correct, attempted, failed, &metrics)
    );
    Ok(())
}

fn print_verdict_and_ledger(
    w: &Workload,
    s: &Summary,
    untraced: &Summary,
    v: &verify::Verdict,
    transport_errors: u64,
) {
    println!(
        "{}: traced base p50 {:.3} ms (n = {}), untraced base p50 {:.3} ms (n = {})",
        w.name,
        s.p50_ms(),
        s.base_tail.samples,
        untraced.p50_ms(),
        untraced.base_tail.samples
    );
    run::print_verdict(v, transport_errors);
}
