//! Loopback integration tests for `dblayout-server`: concurrent clients must
//! get **byte-identical** answers to the offline advisor, malformed input
//! must come back as structured errors (never a dropped connection or a
//! panic), a long request stream must not grow server state without
//! bound, idle connections must not starve a new client, and a connection
//! past the cap must be refused with `busy`.

use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use dblayout_catalog::resolve_catalog;
use dblayout_core::advisor::{Advisor, AdvisorConfig};
use dblayout_core::costmodel::{decompose_workload, CostModel};
use dblayout_disksim::{paper_disks, Layout};
use dblayout_server::protocol::{obj, ok_line, recommendation_result};
use dblayout_server::{Client, Server, ServerConfig, ServerHandle};
use dblayout_workloads::tpch22::tpch22;
use serde_json::{Value, ValueExt};

/// TPCH-22 in workload-file syntax (one statement per `;`-terminated line
/// group), identical text for the server and the offline advisor.
fn tpch22_workload_text() -> String {
    tpch22()
        .iter()
        .map(|q| format!("{};", q.trim().trim_end_matches(';')))
        .collect::<Vec<_>>()
        .join("\n")
}

fn start(config: ServerConfig) -> ServerHandle {
    Server::start(config).expect("bind a loopback server")
}

fn json_request(pairs: Vec<(&str, Value)>) -> String {
    serde_json::to_string(&obj(pairs)).expect("serialize request")
}

const STATS: &str = r#"{"op":"stats"}"#;

fn connections_open(stats: &Value) -> Option<u64> {
    stats.get("connections_open").and_then(|v| v.as_u64())
}

/// Asks `stats` until `connections_open` reads exactly `want`: a server
/// thread deregisters its connection only once the client's EOF reaches
/// it. Fails after 10 s.
fn await_connections_open(client: &mut Client, want: u64) -> Value {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = expect_result(&client.roundtrip(STATS).unwrap());
        let open = connections_open(&stats);
        if open == Some(want) {
            return stats;
        }
        assert!(
            Instant::now() < deadline,
            "connections_open stayed at {open:?}, want {want}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn expect_result(line: &str) -> Value {
    let v: Value = serde_json::from_str(line).expect("response is JSON");
    assert_eq!(
        v.get("ok").and_then(|b| b.as_bool()),
        Some(true),
        "request failed: {line}"
    );
    v.get("result")
        .expect("ok responses carry `result`")
        .clone()
}

/// The acceptance bar: 8 concurrent clients running the full
/// open→add(TPCH-22)→whatif→recommend→close session against one server get
/// responses byte-identical to each other **and** to the offline
/// [`Advisor`] serialized through the same protocol encoder.
#[test]
fn eight_concurrent_clients_match_offline_advisor_byte_for_byte() {
    const CLIENTS: usize = 8;
    const CATALOG: &str = "tpch:0.1";
    let text = tpch22_workload_text();

    // Offline reference, computed once, single-threaded.
    let catalog = resolve_catalog(CATALOG).unwrap();
    let disks = paper_disks();
    let advisor = Advisor::new(&catalog, &disks);
    let rec = advisor
        .recommend_sql(&text, &AdvisorConfig::default())
        .expect("offline advisor succeeds on TPCH-22");
    let expected_recommend_line = ok_line(recommendation_result(&catalog, &disks, &rec));

    let sizes: Vec<u64> = catalog.objects().iter().map(|o| o.size_blocks).collect();
    let fs = Layout::full_striping(sizes, &disks);
    let workload = decompose_workload(&rec.plans);
    let fs_cost = CostModel::default().workload_cost_subplans(&workload, &fs, &disks);
    let expected_whatif_line = ok_line(obj(vec![
        ("cost_ms", Value::F64(fs_cost)),
        ("cached", Value::Bool(false)),
        ("version", Value::U64(1)),
    ]));

    let server = start(ServerConfig {
        session_capacity: CLIENTS + 1,
        ..Default::default()
    });
    let addr = server.addr().to_string();

    let handles: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let addr = addr.clone();
            let text = text.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).expect("connect");
                let open = expect_result(
                    &client
                        .roundtrip(&json_request(vec![
                            ("op", Value::Str("open_session".into())),
                            ("catalog", Value::Str(CATALOG.into())),
                        ]))
                        .unwrap(),
                );
                let sid = open.get("session").and_then(|v| v.as_u64()).unwrap();
                let add = expect_result(
                    &client
                        .roundtrip(&json_request(vec![
                            ("op", Value::Str("add_statements".into())),
                            ("session", Value::U64(sid)),
                            ("sql", Value::Str(text)),
                        ]))
                        .unwrap(),
                );
                assert_eq!(add.get("added").and_then(|v| v.as_u64()), Some(22));

                let whatif_line = client
                    .roundtrip(&json_request(vec![
                        ("op", Value::Str("whatif_cost".into())),
                        ("session", Value::U64(sid)),
                        ("layout", Value::Str("full_striping".into())),
                    ]))
                    .unwrap();
                let recommend_line = client
                    .roundtrip(&json_request(vec![
                        ("op", Value::Str("recommend".into())),
                        ("session", Value::U64(sid)),
                    ]))
                    .unwrap();
                expect_result(
                    &client
                        .roundtrip(&json_request(vec![
                            ("op", Value::Str("close_session".into())),
                            ("session", Value::U64(sid)),
                        ]))
                        .unwrap(),
                );
                (whatif_line, recommend_line)
            })
        })
        .collect();

    let results: Vec<(String, String)> = handles
        .into_iter()
        .map(|h| h.join().expect("client thread panicked"))
        .collect();

    for (i, (whatif_line, recommend_line)) in results.iter().enumerate() {
        assert_eq!(
            whatif_line, &expected_whatif_line,
            "client {i}: whatif_cost differs from the offline cost model"
        );
        assert_eq!(
            recommend_line, &expected_recommend_line,
            "client {i}: recommend differs from the offline advisor"
        );
    }

    server.shutdown();
}

/// Malformed and invalid requests come back as structured errors on a still
/// usable connection — the server never panics or drops the client.
#[test]
fn malformed_requests_yield_structured_errors() {
    let server = start(ServerConfig::default());
    let mut client = Client::connect(&server.addr().to_string()).unwrap();

    let cases: &[(&str, &str)] = &[
        ("{definitely not json", "parse_error"),
        ("[1,2,3]", "bad_request"),
        (r#"{"op":"no_such_op"}"#, "bad_request"),
        (
            r#"{"op":"open_session","catalog":"mongodb"}"#,
            "bad_request",
        ),
        (
            r#"{"op":"add_statements","session":77,"sql":"SELECT 1;"}"#,
            "unknown_session",
        ),
        (
            r#"{"op":"whatif_cost","session":1,"layout":"zigzag"}"#,
            "bad_request",
        ),
    ];
    for (request, want_code) in cases {
        let line = client.roundtrip(request).expect("connection survives");
        let v: Value = serde_json::from_str(&line).unwrap();
        assert_eq!(v.get("ok").and_then(|b| b.as_bool()), Some(false), "{line}");
        assert_eq!(
            v.get("error")
                .and_then(|e| e.get("code"))
                .and_then(|c| c.as_str()),
            Some(*want_code),
            "request {request} → {line}"
        );
    }

    // The same connection still serves valid requests afterwards.
    let stats = expect_result(&client.roundtrip(r#"{"op":"stats"}"#).unwrap());
    assert!(stats.get("errors_total").and_then(|v| v.as_u64()).unwrap() >= 6);

    server.shutdown();
}

/// A FROM clause wider than the planner's join bound is answered with a
/// `plan_error` instead of pinning a thread in a 2^n-subset enumeration,
/// and the session keeps serving: it still takes statements and prices
/// layouts afterwards.
#[test]
fn over_wide_join_is_refused_and_the_session_keeps_serving() {
    let server = start(ServerConfig::default());
    let mut client = Client::connect(&server.addr().to_string()).unwrap();
    let open = expect_result(
        &client
            .roundtrip(r#"{"op":"open_session","catalog":"tpch:0.1"}"#)
            .unwrap(),
    );
    let sid = open.get("session").and_then(|v| v.as_u64()).unwrap();
    let add = |client: &mut Client, sql: String| {
        client
            .roundtrip(&json_request(vec![
                ("op", Value::Str("add_statements".into())),
                ("session", Value::U64(sid)),
                ("sql", Value::Str(sql)),
            ]))
            .expect("connection survives")
    };

    let width = dblayout_planner::optimizer::MAX_JOIN_BINDINGS + 1;
    let from: Vec<String> = (0..width).map(|i| format!("nation t{i}")).collect();
    let on: Vec<String> = (1..width)
        .map(|i| format!("t{}.n_nationkey = t{i}.n_nationkey", i - 1))
        .collect();
    let wide = format!(
        "SELECT COUNT(*) FROM {} WHERE {};",
        from.join(", "),
        on.join(" AND ")
    );
    let line = add(&mut client, wide);
    let v: Value = serde_json::from_str(&line).unwrap();
    assert_eq!(v.get("ok").and_then(|b| b.as_bool()), Some(false), "{line}");
    let error = v.get("error").expect("errors carry `error`");
    assert_eq!(
        error.get("code").and_then(|c| c.as_str()),
        Some("plan_error"),
        "{line}"
    );
    assert!(
        error
            .get("message")
            .and_then(|m| m.as_str())
            .is_some_and(|m| m.contains("join enumeration")),
        "{line}"
    );

    expect_result(&add(&mut client, "SELECT COUNT(*) FROM lineitem;".into()));
    let cost = expect_result(
        &client
            .roundtrip(&json_request(vec![
                ("op", Value::Str("whatif_cost".into())),
                ("session", Value::U64(sid)),
                ("layout", Value::Str("full_striping".into())),
            ]))
            .unwrap(),
    );
    assert!(cost.get("cost_ms").and_then(|c| c.as_f64()).unwrap() > 0.0);
    drop(client);
    server.shutdown();
}

/// dblayout-par stress: 8 concurrent sessions each running a
/// multi-threaded recommend (`threads: 4`) against one server. No client
/// may see an internal error (a poisoned lock surfaces as one), all
/// recommendations must be byte-identical (thread count is a latency knob,
/// never a results knob), the gauges must return to idle once every
/// session is closed and every client gone, and the Prometheus exposition
/// must stay parseable afterwards.
#[test]
fn concurrent_multithreaded_searches_leave_no_residue() {
    const CLIENTS: usize = 8;
    let text = tpch22_workload_text();
    let server = start(ServerConfig {
        session_capacity: CLIENTS + 1,
        ..Default::default()
    });
    let addr = server.addr().to_string();

    let handles: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let addr = addr.clone();
            let text = text.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).expect("connect");
                let open = expect_result(
                    &client
                        .roundtrip(&json_request(vec![
                            ("op", Value::Str("open_session".into())),
                            ("catalog", Value::Str("tpch:0.1".into())),
                            ("threads", Value::U64(4)),
                        ]))
                        .unwrap(),
                );
                assert_eq!(open.get("threads").and_then(|v| v.as_u64()), Some(4));
                let sid = open.get("session").and_then(|v| v.as_u64()).unwrap();
                expect_result(
                    &client
                        .roundtrip(&json_request(vec![
                            ("op", Value::Str("add_statements".into())),
                            ("session", Value::U64(sid)),
                            ("sql", Value::Str(text)),
                        ]))
                        .unwrap(),
                );
                let recommend_line = client
                    .roundtrip(&json_request(vec![
                        ("op", Value::Str("recommend".into())),
                        ("session", Value::U64(sid)),
                    ]))
                    .unwrap();
                expect_result(&recommend_line);
                expect_result(
                    &client
                        .roundtrip(&json_request(vec![
                            ("op", Value::Str("close_session".into())),
                            ("session", Value::U64(sid)),
                        ]))
                        .unwrap(),
                );
                recommend_line
            })
        })
        .collect();

    let lines: Vec<String> = handles
        .into_iter()
        .map(|h| h.join().expect("client thread panicked"))
        .collect();
    for line in &lines[1..] {
        assert_eq!(
            line, &lines[0],
            "multi-threaded recommendations diverged between sessions"
        );
    }

    // Every session closed and every client gone: once the server has seen
    // the eight EOFs, only this connection is open and no session is (a
    // poisoned registry or connection lock could not answer at all).
    let mut client = Client::connect(&addr).unwrap();
    let stats = await_connections_open(&mut client, 1);
    assert_eq!(stats.get("sessions_open").and_then(|v| v.as_u64()), Some(0));

    // And the exposition endpoint still renders parseable Prometheus text.
    let metrics = expect_result(&client.roundtrip(r#"{"op":"metrics"}"#).unwrap());
    let body = metrics
        .get("text")
        .and_then(|v| v.as_str())
        .expect("metrics op returns exposition text");
    assert!(body.contains("dblayout_sessions_open 0\n"), "{body}");
    assert!(body.contains("dblayout_connections_open 1\n"), "{body}");
    for line in body
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
    {
        let (name, value) = line.rsplit_once(' ').expect("gauge lines are `name value`");
        assert!(name.starts_with("dblayout_"), "unexpected metric {line}");
        value
            .parse::<f64>()
            .unwrap_or_else(|_| panic!("unparseable value in {line}"));
    }

    server.shutdown();
}

/// 1,000 sequential requests churning sessions and what-if costs leave the
/// session registry empty and the cost cache at (or under) its configured
/// bound — no unbounded growth in resident state.
#[test]
fn thousand_requests_keep_state_bounded() {
    const CACHE_CAP: usize = 16;
    let server = start(ServerConfig {
        cache_capacity: CACHE_CAP,
        idle_timeout: Duration::from_secs(120),
        ..Default::default()
    });
    let mut client = Client::connect(&server.addr().to_string()).unwrap();

    // 200 cycles × 5 requests = 1,000: open → add → whatif (miss) → whatif
    // (hit) → close. Every cycle opens a fresh session and abandons its
    // cache entries, so only eviction/invalidation keeps state bounded.
    for cycle in 0..200 {
        let open = expect_result(
            &client
                .roundtrip(r#"{"op":"open_session","catalog":"tpch:0.01"}"#)
                .unwrap(),
        );
        let sid = open.get("session").and_then(|v| v.as_u64()).unwrap();
        let add = expect_result(
            &client
                .roundtrip(&json_request(vec![
                    ("op", Value::Str("add_statements".into())),
                    ("session", Value::U64(sid)),
                    ("sql", Value::Str("SELECT COUNT(*) FROM lineitem;".into())),
                ]))
                .unwrap(),
        );
        assert_eq!(add.get("version").and_then(|v| v.as_u64()), Some(1));
        let miss = expect_result(
            &client
                .roundtrip(&format!(r#"{{"op":"whatif_cost","session":{sid}}}"#))
                .unwrap(),
        );
        assert_eq!(miss.get("cached").and_then(|v| v.as_bool()), Some(false));
        let hit = expect_result(
            &client
                .roundtrip(&format!(r#"{{"op":"whatif_cost","session":{sid}}}"#))
                .unwrap(),
        );
        assert_eq!(
            hit.get("cached").and_then(|v| v.as_bool()),
            Some(true),
            "cycle {cycle}"
        );
        expect_result(
            &client
                .roundtrip(&format!(r#"{{"op":"close_session","session":{sid}}}"#))
                .unwrap(),
        );
    }

    let stats = expect_result(&client.roundtrip(r#"{"op":"stats"}"#).unwrap());
    assert!(
        stats
            .get("requests_total")
            .and_then(|v| v.as_u64())
            .unwrap()
            >= 1000
    );
    assert_eq!(stats.get("sessions_open").and_then(|v| v.as_u64()), Some(0));
    assert!(
        stats.get("cache_entries").and_then(|v| v.as_u64()).unwrap() <= CACHE_CAP as u64,
        "cache exceeded its bound: {stats:?}"
    );
    assert_eq!(
        stats.get("cache_hits").and_then(|v| v.as_u64()),
        Some(200),
        "every cycle's second what-if should hit"
    );

    server.shutdown();
}

/// An idle connection holds only its own thread: with eight connections
/// open and idle under the default config, a ninth client's `stats` is
/// answered within 1 s.
#[test]
fn idle_connections_do_not_starve_a_new_client() {
    let server = start(ServerConfig::default());
    let addr = server.addr().to_string();
    let idle: Vec<Client> = (0..8)
        .map(|_| Client::connect(&addr).expect("connect"))
        .collect();

    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let mut ninth = Client::connect(&addr).expect("connect");
        // The test has failed already if the receiver is gone.
        tx.send(ninth.roundtrip(STATS)).ok();
    });
    let line = rx
        .recv_timeout(Duration::from_secs(1))
        .expect("the ninth client's stats is answered within 1 s")
        .expect("the ninth client's connection survives");
    let stats = expect_result(&line);
    // The eight idle connections were accepted, and so registered, before
    // the ninth.
    assert_eq!(connections_open(&stats), Some(9), "{line}");

    drop(idle);
    server.shutdown();
}

/// At `connection_capacity` open connections, one more is answered `busy`
/// and counted in `rejected_total`; once a connection closes, a new one is
/// served.
#[test]
fn connections_past_the_cap_get_busy_until_one_closes() {
    let server = start(ServerConfig {
        connection_capacity: 2,
        ..Default::default()
    });
    let addr = server.addr().to_string();
    let mut first = Client::connect(&addr).unwrap();
    let mut second = Client::connect(&addr).unwrap();
    // A connection is registered before it is served, so an answer on each
    // proves both hold their slots.
    expect_result(&first.roundtrip(STATS).unwrap());
    expect_result(&second.roundtrip(STATS).unwrap());

    // The third is answered without sending anything, then closed.
    let third = TcpStream::connect(&addr).unwrap();
    third
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut line = String::new();
    BufReader::new(third).read_line(&mut line).unwrap();
    let v: Value = serde_json::from_str(&line).unwrap();
    assert_eq!(v.get("ok").and_then(|b| b.as_bool()), Some(false), "{line}");
    assert_eq!(
        v.get("error")
            .and_then(|e| e.get("code"))
            .and_then(|c| c.as_str()),
        Some("busy"),
        "{line}"
    );
    let stats = expect_result(&first.roundtrip(STATS).unwrap());
    assert_eq!(
        stats.get("rejected_total").and_then(|v| v.as_u64()),
        Some(1)
    );
    assert_eq!(connections_open(&stats), Some(2));

    drop(second);
    await_connections_open(&mut first, 1);
    let mut fourth = Client::connect(&addr).unwrap();
    let stats = expect_result(&fourth.roundtrip(STATS).unwrap());
    assert_eq!(connections_open(&stats), Some(2));
    assert_eq!(
        stats.get("rejected_total").and_then(|v| v.as_u64()),
        Some(1)
    );

    server.shutdown();
}
