//! Loopback load-harness integration: schedule determinism, a full-mix
//! smoke against the real server, and the coordinated-omission regression
//! — the acceptance property that a deliberately stalled server shows its
//! inflated tail in open-loop mode but not in a naive closed-loop
//! measurement.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dblayout_loadgen::{build_schedule, run_load, LoadConfig, MixCounts, MixWeights, Mode, OpKind};
use dblayout_server::{Server, ServerConfig};

fn loopback_server() -> dblayout_server::ServerHandle {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        audit_dir: None,
        ..ServerConfig::default()
    })
    .expect("loopback server starts")
}

/// Same seed → identical op schedule and mix counters; different seeds
/// diverge. This is the property that makes `BENCH_server.json` loadtest
/// rows exactly gateable across hosts.
#[test]
fn same_seed_yields_identical_schedule_and_mix() {
    let w = MixWeights::default();
    let a = build_schedule(42, 50_000, &w);
    let b = build_schedule(42, 50_000, &w);
    assert_eq!(a, b, "schedule must be a pure function of the seed");
    assert_eq!(MixCounts::tally(&a), MixCounts::tally(&b));
    let c = build_schedule(43, 50_000, &w);
    assert_ne!(a, c, "seeds must matter");
}

/// Two real runs with the same seed report identical mix counters (the
/// driver sends exactly the schedule, whatever the timing), and a
/// full-mix run against the real server completes without errors.
#[test]
fn full_mix_loopback_run_is_clean_and_mix_deterministic() {
    let connections = 2;
    let server = loopback_server();
    let cfg = LoadConfig {
        addr: server.addr().to_string(),
        requests: 2_000,
        connections,
        mode: Mode::Closed,
        seed: 42,
        catalog: "tpch:0.01".to_string(),
        ..LoadConfig::default()
    };
    let first = run_load(&cfg).expect("first run completes");
    assert_eq!(first.errors, 0, "no protocol errors: {:?}", first.per_op);
    assert_eq!(first.shed, 0);
    assert_eq!(first.requests, 2_000);

    // Every scheduled op was actually sent and measured.
    let expected = MixCounts::tally(&build_schedule(cfg.seed, cfg.requests, &cfg.weights));
    for (kind, (op, snap)) in OpKind::ALL.iter().zip(first.per_op.iter()) {
        assert_eq!(*op, kind.wire_name());
        assert_eq!(
            snap.count,
            expected.of(*kind),
            "measured count for {op} must match the schedule"
        );
    }

    let second = run_load(&cfg).expect("second run completes");
    assert_eq!(first.mix, second.mix, "same seed → same mix counters");
    assert_eq!(second.errors, 0);
}

/// A stats-only open-loop run reports sane percentile ordering and
/// bounded-error quantiles out of the merged histograms.
#[test]
fn open_loop_percentiles_are_ordered() {
    let server = loopback_server();
    let cfg = LoadConfig {
        addr: server.addr().to_string(),
        requests: 3_000,
        connections: 2,
        mode: Mode::Open {
            rate_per_sec: 6_000.0,
        },
        seed: 7,
        weights: MixWeights {
            open_session: 0,
            add_statements: 0,
            recommend: 0,
            stats: 1,
        },
        setup_sessions: false,
        ..LoadConfig::default()
    };
    let report = run_load(&cfg).expect("run completes");
    assert_eq!(report.errors, 0);
    assert_eq!(report.offered_rps, Some(6_000.0));
    let stats = &report
        .per_op
        .iter()
        .find(|(op, _)| *op == "stats")
        .expect("stats measured")
        .1;
    assert_eq!(stats.count, 3_000);
    let p50 = stats.quantile(0.50);
    let p99 = stats.quantile(0.99);
    let p999 = stats.quantile(0.999);
    assert!(p50 <= p99 && p99 <= p999, "{p50} {p99} {p999}");
    assert!(p50 > 0);
}

/// A fake advisory endpoint that stalls ~`delay` per request: the
/// worst-case server for coordinated omission. Replies are protocol-shaped
/// so the driver counts no errors.
fn stalled_responder(delay: Duration) -> (String, Arc<AtomicBool>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind stalled responder");
    let addr = listener.local_addr().expect("local addr").to_string();
    let stop = Arc::new(AtomicBool::new(false));
    let stop_accept = Arc::clone(&stop);
    std::thread::spawn(move || {
        for conn in listener.incoming() {
            if stop_accept.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = conn else { continue };
            let stop_conn = Arc::clone(&stop_accept);
            std::thread::spawn(move || {
                let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                let mut writer = stream;
                let mut line = String::new();
                loop {
                    line.clear();
                    match reader.read_line(&mut line) {
                        Ok(0) | Err(_) => break,
                        Ok(_) => {}
                    }
                    if stop_conn.load(Ordering::SeqCst) {
                        break;
                    }
                    std::thread::sleep(delay);
                    if writer.write_all(b"{\"ok\":true,\"result\":{}}\n").is_err() {
                        break;
                    }
                }
            });
        }
    });
    (addr, stop)
}

/// The coordinated-omission acceptance property. Against a responder that
/// stalls ~2 ms per request:
///
/// * **closed loop** sends only as fast as the stall allows — every
///   latency is ~2 ms, p99 small;
/// * **open loop at 1000 req/s on one connection** *intends* a request
///   every 1 ms, so a backlog grows ~1 ms per request and the
///   intended-send-time accounting charges it: p99 must blow up to many
///   multiples of the service time.
///
/// A harness that charged open-loop latency from the actual send (the
/// naive measurement) would report ~2 ms in both modes.
#[test]
fn stalled_server_inflates_open_loop_tail_but_not_closed_loop() {
    let delay = Duration::from_millis(2);
    let (addr, stop) = stalled_responder(delay);
    let base = LoadConfig {
        addr,
        requests: 300,
        connections: 1,
        seed: 9,
        // stats-only: the fake responder speaks no real protocol.
        weights: MixWeights {
            open_session: 0,
            add_statements: 0,
            recommend: 0,
            stats: 1,
        },
        setup_sessions: false,
        ..LoadConfig::default()
    };

    let closed = run_load(&LoadConfig {
        mode: Mode::Closed,
        ..base.clone()
    })
    .expect("closed run completes");
    let open = run_load(&LoadConfig {
        mode: Mode::Open {
            rate_per_sec: 1_000.0,
        },
        ..base.clone()
    })
    .expect("open run completes");
    stop.store(true, Ordering::SeqCst);

    let closed_p99 = closed
        .per_op
        .iter()
        .map(|(_, s)| s.quantile(0.99))
        .max()
        .unwrap_or(0);
    let open_p99 = open
        .per_op
        .iter()
        .map(|(_, s)| s.quantile(0.99))
        .max()
        .unwrap_or(0);
    // Closed loop coordinates with the stall: per-request latency stays
    // near the 2 ms service time (generous ceiling for slow CI hosts).
    assert!(
        closed_p99 >= 1_000,
        "closed-loop p99 below the service time? {closed_p99}µs"
    );
    assert!(
        closed_p99 < 30_000,
        "closed-loop p99 should stay near the 2ms service time, got {closed_p99}µs"
    );
    // Open loop charges the growing backlog: with ~300 requests arriving
    // 2x faster than they are served, the late tail waits ~150ms+.
    assert!(
        open_p99 >= 5 * closed_p99,
        "open-loop p99 ({open_p99}µs) must dwarf closed-loop p99 ({closed_p99}µs) \
         against a stalled server — coordinated omission is being hidden"
    );
    assert!(
        open_p99 >= 50_000,
        "open-loop p99 ({open_p99}µs) should reflect the ~1ms/request backlog"
    );
}
