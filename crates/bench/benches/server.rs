//! Benchmarks for `dblayout-server`: cached vs cold what-if cost evaluation
//! on the in-process [`Engine`], plus loopback TCP round-trip latency for
//! the same ops. Writes a machine-readable summary to
//! `results/server_bench.json`.
//!
//! The cached/cold pair drives the engine directly so the ratio isolates
//! exactly what the layout-hash→cost LRU elides: the Figure-7 cost-model
//! sweep over every resident sub-plan. Over loopback the same pair is also
//! reported, but there the TCP + JSON round-trip is a shared additive term
//! for both sides. The acceptance bar is in-process cached ≥5× faster than
//! cold on TPCH-22. Each bench runs a fixed number of iterations
//! ([`dblayout_bench::timer`]), so the work counters this run appends to
//! `BENCH_server.json` are the same on every run.

use dblayout_bench::timer::{bench, test_mode};

use dblayout_server::{Client, Engine, LayoutSpec, Request, RuntimeInfo, Server, ServerConfig};
use dblayout_workloads::tpch22::tpch22;

fn tpch22_workload_text() -> String {
    tpch22()
        .iter()
        .map(|q| format!("{};", q.trim().trim_end_matches(';')))
        .collect::<Vec<_>>()
        .join("\n")
}

fn json_escape(s: &str) -> String {
    serde_json::to_string(&s.to_string()).expect("string serializes")
}

fn whatif(session: u64, no_cache: bool) -> Request {
    Request::WhatifCost {
        session,
        layout: LayoutSpec::FullStriping,
        no_cache,
    }
}

fn main() {
    if test_mode("server") {
        return;
    }

    let mut results = Vec::new();
    let rt = RuntimeInfo::default();

    // In-process engine: the cache's own speedup, no wire overhead.
    let engine = Engine::new(4, 64);
    engine
        .execute(
            Request::OpenSession {
                catalog: "tpch:0.1".into(),
                disks: "paper".into(),
                threads: 1,
                decay: 1.0,
            },
            &rt,
        )
        .expect("open session");
    engine
        .execute(
            Request::AddStatements {
                session: 1,
                sql: tpch22_workload_text(),
            },
            &rt,
        )
        .expect("add TPCH-22");

    results.push(bench("engine/whatif_cold", 50_000, || {
        engine.execute(whatif(1, true), &rt).expect("whatif cold")
    }));
    engine
        .execute(whatif(1, false), &rt)
        .expect("prime the cache");
    results.push(bench("engine/whatif_cached", 1_000_000, || {
        engine
            .execute(whatif(1, false), &rt)
            .expect("whatif cached")
    }));

    // Loopback: same ops through the full TCP + JSON path.
    let server = Server::start(ServerConfig::default()).expect("bind loopback server");
    let addr = server.addr().to_string();

    let mut client = Client::connect(&addr).expect("connect");
    let open = client
        .roundtrip(r#"{"op":"open_session","catalog":"tpch:0.1"}"#)
        .expect("open_session");
    assert!(open.contains("\"ok\":true"), "{open}");
    let add = client
        .roundtrip(&format!(
            r#"{{"op":"add_statements","session":1,"sql":{}}}"#,
            json_escape(&tpch22_workload_text())
        ))
        .expect("add_statements");
    assert!(add.contains("\"ok\":true"), "{add}");

    results.push(bench("server/whatif_cold", 10_000, || {
        client
            .roundtrip(
                r#"{"op":"whatif_cost","session":1,"layout":"full_striping","no_cache":true}"#,
            )
            .expect("whatif cold")
    }));
    client
        .roundtrip(r#"{"op":"whatif_cost","session":1,"layout":"full_striping"}"#)
        .expect("prime cache");
    results.push(bench("server/whatif_cached", 15_000, || {
        client
            .roundtrip(r#"{"op":"whatif_cost","session":1,"layout":"full_striping"}"#)
            .expect("whatif cached")
    }));
    results.push(bench("server/stats_roundtrip", 8_000, || {
        client.roundtrip(r#"{"op":"stats"}"#).expect("stats")
    }));

    // Per-stage timings (compute / serialize) as observed by the server
    // across every request this bench sent over loopback.
    let stage_timings: String = {
        use serde_json::ValueExt;
        let line = client.roundtrip(r#"{"op":"stats"}"#).expect("final stats");
        let v: serde_json::Value = serde_json::from_str(&line).expect("stats is JSON");
        let result = v.get("result").expect("stats result");
        let field = |key: &str| -> u64 {
            result
                .get(key)
                .and_then(|x| x.as_u64())
                .unwrap_or_else(|| panic!("stats missing `{key}`"))
        };
        format!(
            "{{\"compute_p50\": {}, \"compute_p99\": {}, \"serialize_p50\": {}, \
             \"serialize_p99\": {}}}",
            field("stage_compute_p50_us"),
            field("stage_compute_p99_us"),
            field("stage_serialize_p50_us"),
            field("stage_serialize_p99_us"),
        )
    };

    server.shutdown();

    let find = |id: &str| {
        results
            .iter()
            .find(|r| r.id == id)
            .unwrap_or_else(|| panic!("missing bench `{id}`"))
    };
    let cold = find("engine/whatif_cold");
    let cached = find("engine/whatif_cached");
    let stats = find("server/stats_roundtrip");
    let speedup = cold.mean_ns / cached.mean_ns;
    let wire_speedup = find("server/whatif_cold").mean_ns / find("server/whatif_cached").mean_ns;
    let rps = 1e9 / stats.mean_ns;

    let mut rows = String::new();
    for r in &results {
        rows.push_str(&format!(
            "    {{\"id\": \"{}\", \"mean_ns\": {:.1}, \"min_ns\": {:.1}, \"iterations\": {}}},\n",
            r.id, r.mean_ns, r.min_ns, r.iterations
        ));
    }
    let json = format!(
        "{{\n  \"benchmarks\": [\n{}  ],\n  \"whatif_cold_over_cached\": {:.2},\n  \
         \"loopback_whatif_cold_over_cached\": {:.2},\n  \
         \"stats_requests_per_sec\": {:.0},\n  \
         \"stage_timings_us\": {}\n}}\n",
        rows.trim_end_matches(",\n").to_string() + "\n",
        speedup,
        wire_speedup,
        rps,
        stage_timings
    );
    // Benches run with the package dir as CWD; anchor at the workspace root.
    let results_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    std::fs::create_dir_all(&results_dir).expect("results dir");
    std::fs::write(results_dir.join("server_bench.json"), json)
        .expect("write results/server_bench.json");

    // Observatory: append this run to the repo-root BENCH_server.json. The
    // iteration counts are fixed, so the process's work counters are the
    // same on every run and benchdiff gates them exactly.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let entry = dblayout_bench::observatory::HistoryEntry {
        rev: dblayout_bench::observatory::git_rev(&root),
        config: "workload=tpch22;catalog=tpch:0.1;fixed_iterations".to_string(),
        threads: vec![2],
        timings_ms: results
            .iter()
            .map(|r| (r.id.clone(), r.mean_ns / 1e6))
            .collect(),
        phases_ms: engine
            .prof
            .rows()
            .into_iter()
            .map(|p| (p.name, p.total_us as f64 / 1e3))
            .collect(),
        counters: dblayout_obs::counters::snapshot()
            .deterministic_pairs()
            .into_iter()
            .map(|(name, v)| (name.to_string(), v))
            .collect(),
    };
    let history = root.join("BENCH_server.json");
    match dblayout_bench::observatory::append_history(&history, &entry) {
        Ok(n) => eprintln!("(history appended to {} — {n} entries)", history.display()),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }

    eprintln!(
        "cold/cached what-if speedup: {speedup:.1}x in-process, {wire_speedup:.1}x over \
         loopback; stats throughput: {rps:.0} req/s (results/server_bench.json)"
    );
    assert!(
        speedup >= 5.0,
        "cached what-if must be at least 5x faster than cold, got {speedup:.1}x"
    );
}
