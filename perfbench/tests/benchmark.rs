//! The benchmark's own checks: seeded schedules, open-loop timing,
//! phase accounting and metric arithmetic, handler wrapping, and the
//! answer verifier.

use bytes::BytesMut;
use etude_serve::http::{parse_request, Request, Response};
use etude_serve::rustserver::Handler;
use etude_serve::{shard_backend_routes, ShardTopology};
use perfbench::loadgen::{self, Outcome};
use perfbench::measure::{Record, Summary};
use perfbench::rig::{self, Reference, Tier, Workload};
use perfbench::schedule::{self, Phase, Phases, Planned, Traffic};
use perfbench::trace::{wrap, TraceLog};
use perfbench::verify::{check_shape, corrupt, expected_len, verify, Oracle};
use std::io::{Read, Write};
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

fn small_traffic() -> Traffic {
    Traffic {
        catalog: 2_000,
        base_rps: 200.0,
        stress_rps: 800.0,
    }
}

#[test]
fn equal_seeds_give_byte_equal_schedules() {
    let phases = Phases::for_seconds(2.0);
    let a = schedule::plan(&small_traffic(), &phases, 7);
    let b = schedule::plan(&small_traffic(), &phases, 7);
    assert!(!a.is_empty());
    assert_eq!(a, b, "equal seeds must give equal schedules");
    let wire = |p: &[Planned]| p.iter().flat_map(|r| r.wire.to_vec()).collect::<Vec<u8>>();
    assert_eq!(wire(&a), wire(&b), "and byte-equal wire requests");
    let c = schedule::plan(&small_traffic(), &phases, 8);
    assert_ne!(a, c, "another seed gives another schedule");
    // Phases follow the offsets, and the stress phase is denser.
    for r in &a {
        assert_eq!(r.phase, phases.phase_of(r.at));
        assert!(r
            .session
            .iter()
            .all(|&i| (i as usize) < small_traffic().catalog));
    }
    let count = |p| a.iter().filter(|r| r.phase == p).count() as f64;
    assert!(count(Phase::Stress) > 2.0 * count(Phase::Base));
}

#[test]
fn phases_split_the_run_and_classify_offsets() {
    let p = Phases::for_seconds(20.0);
    assert_eq!(p.warmup, Duration::from_secs(2));
    assert_eq!(p.base, Duration::from_secs(10));
    assert_eq!(p.total(), Duration::from_secs(20));
    assert_eq!(p.phase_of(Duration::from_millis(1_999)), Phase::Warmup);
    assert_eq!(p.phase_of(Duration::from_secs(2)), Phase::Base);
    assert_eq!(p.phase_of(Duration::from_millis(11_999)), Phase::Base);
    assert_eq!(p.phase_of(Duration::from_secs(12)), Phase::Stress);
}

/// A stub server that holds its first answer for `stall`, then answers
/// everything at once: an open-loop client must charge the stall to the
/// requests that were due during it, not only to the first one.
#[test]
fn open_loop_timing_charges_a_stall_to_later_requests() {
    let stall = Duration::from_millis(200);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let (mut sock, _) = listener.accept().unwrap();
        let mut buf = BytesMut::new();
        let mut chunk = [0u8; 4096];
        let mut answered = 0;
        loop {
            match sock.read(&mut chunk) {
                Ok(0) | Err(_) => return answered,
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
            }
            while let Ok(req) = parse_request(&mut buf) {
                if answered == 0 {
                    std::thread::sleep(stall);
                }
                let id = req.headers.get("x-request-id").cloned().unwrap_or_default();
                let resp = Response::ok("").with_header("x-request-id", id);
                sock.write_all(&resp.encode()).unwrap();
                answered += 1;
            }
        }
    });
    let plan: Vec<Planned> = (0..10u64)
        .map(|i| Planned {
            id: i,
            at: Duration::from_millis(10 * i),
            phase: Phase::Base,
            session: vec![1],
            criticality: 1,
            wire: Request::post("/predictions", "1")
                .with_header("x-request-id", i.to_string())
                .encode(),
        })
        .collect();
    let log = loadgen::drive(addr, &plan, 1, Duration::from_secs(5), &mut |_| {}).unwrap();
    assert_eq!(server.join().unwrap(), 10);
    for (i, o) in log.outcomes.iter().enumerate() {
        assert_eq!(o.status, 200);
        assert!(o.id_matched);
        let intended = log.intended(&plan, i);
        // Sent on schedule, not after the previous answer...
        let lag = o.sent.unwrap().saturating_duration_since(intended);
        assert!(
            lag < Duration::from_millis(60),
            "request {i} sent {lag:?} late"
        );
        // ...and charged from the intended time until the stall ended.
        let latency = o.done.unwrap().saturating_duration_since(intended);
        let due_in_stall = stall.saturating_sub(plan[i].at);
        assert!(
            latency + Duration::from_millis(5) >= due_in_stall,
            "request {i}: {latency:?} < {due_in_stall:?}"
        );
    }
    let fifth = log.outcomes[5].done.unwrap() - log.intended(&plan, 5);
    assert!(
        fifth >= Duration::from_millis(140),
        "stall not charged: {fifth:?}"
    );
}

fn rec(phase: Phase, critical: bool, latency_ms: Option<u64>, status: u16) -> Record {
    // Sent when the phase begins (1 s of warm-up, 2 s of base).
    let at = Duration::from_secs(match phase {
        Phase::Warmup => 0,
        Phase::Base => 1,
        Phase::Stress => 3,
    });
    Record {
        at,
        phase,
        critical,
        latency: latency_ms.map(Duration::from_millis),
        status,
        degraded: false,
        wrong: false,
    }
}

#[test]
fn phase_accounting_and_metric_arithmetic() {
    let phases = Phases {
        warmup: Duration::from_secs(1),
        base: Duration::from_secs(2),
        stress: Duration::from_secs(4),
    };
    let mut records = vec![
        // Warm-up: ignored everywhere, even though it failed.
        rec(Phase::Warmup, true, None, 0),
        // Base: three 200s in time, one shed.
        rec(Phase::Base, true, Some(2), 200),
        rec(Phase::Base, false, Some(4), 200),
        rec(Phase::Base, false, Some(6), 200),
        rec(Phase::Base, true, None, 503),
        // Stress: in time, late, refused, straggler, wrong, degraded.
        rec(Phase::Stress, true, Some(50), 200),
        rec(Phase::Stress, true, Some(150), 200),
        rec(Phase::Stress, false, Some(1), 429),
        rec(Phase::Stress, false, None, 0),
        rec(Phase::Stress, false, Some(10), 200),
        rec(Phase::Stress, false, Some(20), 200),
    ];
    records[9].wrong = true;
    records[10].degraded = true;
    // Nominal rates equal to the drawn ones: 4 base requests in 2 s,
    // 6 stress requests in 4 s.
    let traffic = Traffic {
        catalog: 10,
        base_rps: 2.0,
        stress_rps: 1.5,
    };
    let s = Summary::new(&records, &phases, &traffic);
    assert_eq!((s.base.sent, s.stress.sent), (4, 6));
    assert_eq!(s.base_tail.samples, 3);
    assert_eq!(s.p50_ms(), 4.0);
    assert_eq!(s.slo_frac(), 0.75);
    // Stress: three correct 200s (the wrong one is not served) over 4 s.
    assert_eq!(s.served_rps(), 0.75);
    assert_eq!(s.stress_goodput_rps(), 0.5);
    // Whole run: 3 + 2 in time over 6 s.
    assert!((s.goodput_rps() - 5.0 / 6.0).abs() < 1e-12);
    // Critical: base 1 of 2, stress 1 of 2 -> mean 0.5.
    assert_eq!(s.critical_goodput_frac(), 0.5);
    assert_eq!(s.stress_critical_goodput_frac(), 0.5);
    // Base: 3 of 3 served exactly; stress: 2 of 3 -> mean 5/6.
    assert!((s.exact_frac() - 5.0 / 6.0).abs() < 1e-12);
    // Errors: the straggler and the wrong answer, of ten sent.
    assert_eq!(s.ok_frac(), 0.8);
    assert_eq!(s.stress_tail.samples, 3);
    assert_eq!(s.stress_tail.p99, 150.0);

    // Rates scale shares by the nominal rate, not by the arrivals the
    // seed drew: at a nominal 4 rps the base contributes 4 * 2 s * 3/4.
    let nominal = Traffic {
        base_rps: 4.0,
        ..traffic
    };
    let s = Summary::new(&records, &phases, &nominal);
    assert!((s.goodput_rps() - 8.0 / 6.0).abs() < 1e-12);
    assert_eq!(s.served_rps(), 0.75);
}

#[test]
fn p50_and_served_rps_are_medians_over_one_second_windows() {
    let phases = Phases {
        warmup: Duration::from_secs(1),
        base: Duration::from_secs(3),
        stress: Duration::from_secs(3),
    };
    let at_ms = |r: Record, ms: u64| Record {
        at: Duration::from_millis(ms),
        ..r
    };
    let records = vec![
        // Base windows: [1, 2), [2, 3), [3, 4) s. The last one is a
        // stall; it moves the whole-phase p50 but not the window median.
        at_ms(rec(Phase::Base, false, Some(2), 200), 1_100),
        at_ms(rec(Phase::Base, false, Some(3), 200), 2_100),
        at_ms(rec(Phase::Base, false, Some(90), 200), 3_100),
        at_ms(rec(Phase::Base, false, Some(95), 200), 3_200),
        at_ms(rec(Phase::Base, false, Some(99), 200), 3_300),
        // Stress windows served 2/2, 1/2 and 0/2 of their requests;
        // the offset past the end counts in the last window.
        at_ms(rec(Phase::Stress, false, Some(9), 200), 4_000),
        at_ms(rec(Phase::Stress, false, Some(9), 200), 4_500),
        at_ms(rec(Phase::Stress, false, Some(9), 200), 5_000),
        at_ms(rec(Phase::Stress, false, Some(1), 503), 5_999),
        at_ms(rec(Phase::Stress, false, Some(1), 503), 6_000),
        at_ms(rec(Phase::Stress, false, Some(1), 503), 9_000),
    ];
    let traffic = Traffic {
        catalog: 10,
        base_rps: 2.0,
        stress_rps: 4.0,
    };
    let s = Summary::new(&records, &phases, &traffic);
    assert_eq!(s.base_window_p50s, vec![2.0, 3.0, 95.0]);
    assert_eq!(s.base_tail.p50, 90.0);
    assert_eq!(s.p50_ms(), 3.0);
    assert_eq!(s.stress_window_served, vec![1.0, 0.5, 0.0]);
    assert_eq!(s.served_rps(), 2.0);
}

#[test]
fn wrapped_handler_returns_byte_identical_responses() {
    let model_routes = {
        let w = rig::workload("groceries").unwrap();
        let cfg = etude_models::ModelConfig::new(w.catalog).with_max_session_len(8);
        let model: Arc<dyn etude_models::SbrModel> =
            Arc::from(etude_models::ModelKind::Gru4Rec.build(&cfg));
        etude_serve::model_routes_continuous(
            model,
            etude_tensor::Device::cpu(),
            false,
            etude_serve::ContinuousConfig::default(),
            Arc::new(etude_obs::Recorder::new()),
            None,
        )
    };
    let stub: Handler = Arc::new(|req: &Request| {
        Response::ok(req.body.clone()).with_header("x-echo", req.path.clone())
    });
    let log = Arc::new(TraceLog::with_capacity(16));
    log.set_enabled(true);
    let requests = [
        Request::get("/ping"),
        Request::get("/static"),
        Request::post("/predictions", "1,abc").with_header("x-request-id", "3"),
        Request::post("/predictions", "99999999").with_header("x-request-id", "4-s1"),
        Request::get("/nope"),
    ];
    for inner in [model_routes, stub] {
        let wrapped = wrap(Arc::clone(&inner), Arc::clone(&log), None);
        for req in &requests {
            assert_eq!(wrapped(req).encode(), inner(req).encode(), "{}", req.path);
        }
    }
    let spans = log.take();
    assert_eq!(spans.len(), 4, "two predictions per handler are recorded");
    assert_eq!(spans[0].id, 3);
    assert_eq!(spans[1].id, 4);
    assert!(spans
        .iter()
        .all(|s| s.arrival <= s.entry && s.entry <= s.exit));
}

#[test]
fn verifier_catches_a_corrupted_answer() {
    let good = etude_serve::http::encode_recommendations(&[7, 3, 9], &[0.9, 0.5, 0.5]);
    assert_eq!(check_shape(good.as_bytes(), 10, 3), Ok(()));
    let bad = corrupt(good.as_bytes());
    assert_ne!(bad, good.as_bytes());
    assert!(check_shape(&bad, 10, 3).unwrap_err().contains("duplicate"));
    let rising = etude_serve::http::encode_recommendations(&[7, 3, 9], &[0.1, 0.5, 0.2]);
    assert!(check_shape(rising.as_bytes(), 10, 3).is_err());
    assert!(
        check_shape(good.as_bytes(), 8, 3).is_err(),
        "id 9 is outside C = 8"
    );
    assert!(
        check_shape(good.as_bytes(), 10, 21).is_err(),
        "too few items"
    );
    assert!(check_shape(b"not an answer", 10, 3).is_err());
}

#[test]
fn expected_lengths_follow_the_rung_and_the_tier() {
    let flash = rig::workload("flash-crowd").unwrap();
    let sharded = rig::workload("sharded").unwrap();
    assert_eq!(sharded.tier, Tier::Sharded);
    assert_eq!(expected_len(flash, 0, false), 21);
    assert_eq!(expected_len(flash, 2, false), 5);
    assert_eq!(expected_len(flash, 3, true), 21);
    assert_eq!(expected_len(sharded, 2, false), 10);
    assert_eq!(expected_len(sharded, 2, true), 5);
}

#[test]
fn arguments_parse_and_bad_ones_are_refused() {
    let args = |v: &[&str]| perfbench::run::parse_args(v.iter().map(|s| s.to_string()));
    let a = args(&[
        "--workload",
        "groceries",
        "--seed",
        "3",
        "--seconds",
        "20",
        "--trace",
        "1",
    ])
    .unwrap();
    assert_eq!(
        (a.workload.as_str(), a.seed, a.seconds, a.trace),
        ("groceries", 3, 20.0, true)
    );
    assert!(args(&["--workload", "groceries", "--trace", "2"]).is_err());
    assert!(args(&["--seed", "3"]).is_err());
    assert!(args(&["--workload", "x", "--bogus", "1"]).is_err());
}

/// A degraded router answer is checked against the shard group that
/// answered it, whichever group that is: here group 1 survives, as it
/// does when group 0's leg runs out of budget.
#[test]
fn degraded_router_answers_are_checked_against_the_answering_group() {
    let w = Workload {
        name: "two-groups",
        catalog: 3_000,
        dim: 8,
        tier: Tier::Sharded,
        base_rps: 1.0,
        stress_rps: 1.0,
    };
    let table = rig::table(w.catalog, w.dim);
    let topo = ShardTopology::partition(w.catalog, w.dim, rig::QUERY_SEED, 2);
    let groups: Vec<_> = topo
        .groups
        .iter()
        .map(|g| g.base as usize..g.base as usize + g.rows)
        .collect();
    let session = vec![17, 42, 2_999];
    let body = "17,42,2999";
    let leg = |i: usize| {
        let backend = shard_backend_routes(
            topo.shard_of(&table, i),
            w.catalog,
            rig::QUERY_SEED,
            rig::K,
            Arc::new(etude_obs::Recorder::new()),
        );
        backend(&Request::post("/predictions", body)).body
    };
    let reference = Reference::Table {
        table: table.clone(),
        groups,
    };
    let oracle = Oracle::new(&w, &reference);
    let plan = vec![Planned {
        id: 0,
        at: Duration::ZERO,
        phase: Phase::Base,
        session: session.clone(),
        criticality: 1,
        wire: Request::post("/predictions", body).encode(),
    }];
    let check = |answer: &[u8], degraded: bool| {
        let outcome = Outcome {
            status: 200,
            degraded,
            id_matched: true,
            body: bytes::Bytes::copy_from_slice(answer),
            ..Outcome::default()
        };
        let v = verify(&w, &oracle, &plan, &[outcome], 1);
        assert_eq!(v.reference_checked, 1);
        v.wrong_count()
    };
    let full = oracle.body(&session, 0..w.catalog);
    assert_eq!(check(full.as_bytes(), false), 0, "healthy answer");
    assert_eq!(check(&leg(1), true), 0, "group 1 survived");
    assert_eq!(check(&leg(0), true), 0, "group 0 survived");
    assert_eq!(
        check(&leg(1), false),
        1,
        "one group's answer is not the full one"
    );
    assert_eq!(check(full.as_bytes(), true), 1, "ids from both groups");
}
