//! The load driver: connections, pacing, latency recording, reporting.
//!
//! ## Open loop vs closed loop, and coordinated omission
//!
//! A **closed-loop** driver sends a request, waits for the reply, sends
//! the next. When the server stalls, the driver stalls *with* it: the
//! requests that would have arrived during the stall are never sent, so
//! they never appear in the latency distribution — the stall is
//! "coordinated" away (Tene's *coordinated omission*). Closed-loop
//! numbers answer "how fast is one synchronous caller", not "what do
//! clients experience at this arrival rate".
//!
//! The **open-loop** mode fixes the arrival process instead: worker `w`
//! of `W` owns requests `w, w+W, w+2W, …` of the global schedule, and its
//! `k`-th request has an *intended* send time `t0 + k·(W/rate)`. Latency
//! is charged from that intended time, not from the actual write: if the
//! server (or a queued predecessor on the same connection) delays the
//! send, the wait counts. A stalled server therefore shows its true
//! inflated p99 in open-loop mode — the regression test in
//! `tests/loadtest_loopback.rs` drives a deliberately stalled responder
//! both ways and asserts exactly that divergence.
//!
//! Latencies land in [`dblayout_obs::hist`] histograms (≤12.5% relative
//! error), one per op kind, merged across workers by construction (the
//! recorders are shared atomics).

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use dblayout_obs::hist;
use serde_json::{Value, ValueExt};

use crate::schedule::{build_schedule, MixCounts, MixWeights, OpKind};

/// Pacing discipline for a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mode {
    /// Fixed arrival rate (requests/second across all connections);
    /// latency is charged from each request's intended send time.
    Open {
        /// Offered load, requests per second, spread across connections.
        rate_per_sec: f64,
    },
    /// Fixed concurrency: each connection issues its next request as soon
    /// as the previous reply lands. Subject to coordinated omission — kept
    /// for single-caller service-time measurements and as the contrast
    /// mode for the CO regression test.
    Closed,
}

/// One load run's parameters. `Default` is a 100k-request closed-loop
/// smoke against nothing in particular — set `addr` before use.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Server address (`host:port`).
    pub addr: String,
    /// Total requests across all connections.
    pub requests: usize,
    /// Concurrent connections; the server serves each on its own thread,
    /// up to its connection cap (64 by default).
    pub connections: usize,
    /// Open- or closed-loop pacing.
    pub mode: Mode,
    /// Schedule seed: same seed → same op sequence and mix counts.
    pub seed: u64,
    /// Op mix weights.
    pub weights: MixWeights,
    /// Catalog spec for sessions (`tpch:0.01` keeps setup cheap).
    pub catalog: String,
    /// Open one long-lived session per connection (with a seed statement)
    /// before the measured phase; disable only when the mix never needs a
    /// session (e.g. pure `stats` against a fake responder).
    pub setup_sessions: bool,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            addr: String::new(),
            requests: 100_000,
            connections: 4,
            mode: Mode::Closed,
            seed: 42,
            weights: MixWeights::default(),
            catalog: "tpch:0.01".to_string(),
            setup_sessions: true,
        }
    }
}

/// The seed statement added to each long-lived session so `recommend`
/// has a workload to search over.
const SEED_SQL: &str = "SELECT COUNT(*) FROM lineitem, orders WHERE l_orderkey = o_orderkey;";

/// Shared latency/error recorders (lock-free; workers write concurrently).
#[derive(Default)]
struct Recorders {
    per_op: [hist::Histogram; 4],
    errors: AtomicU64,
    shed: AtomicU64,
}

/// One finished run: per-op latency snapshots plus throughput accounting.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Requests sent (== the schedule length).
    pub requests: u64,
    /// Measured-phase wall clock.
    pub wall: Duration,
    /// Offered rate for open-loop runs (`None` for closed loop).
    pub offered_rps: Option<f64>,
    /// Completed requests / wall seconds.
    pub achieved_rps: f64,
    /// Connections used.
    pub connections: usize,
    /// Schedule seed.
    pub seed: u64,
    /// Deterministic per-op request counts.
    pub mix: MixCounts,
    /// Non-`ok` responses.
    pub errors: u64,
    /// Busy sheds (server at its connection cap) among those errors.
    pub shed: u64,
    /// `(wire op name, latency snapshot)` in [`OpKind::ALL`] order.
    pub per_op: Vec<(&'static str, hist::Snapshot)>,
}

impl LoadReport {
    /// Machine-readable report (the `--json` payload).
    pub fn to_json(&self) -> Value {
        let mut ops = Vec::new();
        for (op, snap) in &self.per_op {
            if snap.count == 0 {
                continue;
            }
            ops.push(Value::Map(vec![
                ("op".to_string(), Value::Str((*op).to_string())),
                ("count".to_string(), Value::U64(snap.count)),
                ("p50_us".to_string(), Value::U64(snap.quantile(0.50))),
                ("p90_us".to_string(), Value::U64(snap.quantile(0.90))),
                ("p99_us".to_string(), Value::U64(snap.quantile(0.99))),
                ("p999_us".to_string(), Value::U64(snap.quantile(0.999))),
                ("max_us".to_string(), Value::U64(snap.max)),
                ("mean_us".to_string(), Value::F64(snap.mean())),
            ]));
        }
        let mut pairs = vec![
            ("requests".to_string(), Value::U64(self.requests)),
            (
                "connections".to_string(),
                Value::U64(self.connections as u64),
            ),
            ("seed".to_string(), Value::U64(self.seed)),
            ("mode".to_string(), Value::Str(self.mode_name().to_string())),
            ("wall_secs".to_string(), Value::F64(self.wall.as_secs_f64())),
            ("achieved_rps".to_string(), Value::F64(self.achieved_rps)),
        ];
        if let Some(rate) = self.offered_rps {
            pairs.push(("offered_rps".to_string(), Value::F64(rate)));
        }
        pairs.push(("errors".to_string(), Value::U64(self.errors)));
        pairs.push(("shed".to_string(), Value::U64(self.shed)));
        pairs.push((
            "mix".to_string(),
            Value::Map(
                self.mix
                    .counter_pairs()
                    .into_iter()
                    .map(|(k, v)| (k, Value::U64(v)))
                    .collect(),
            ),
        ));
        pairs.push(("per_op".to_string(), Value::Seq(ops)));
        Value::Map(pairs)
    }

    /// `"open"` or `"closed"`.
    pub fn mode_name(&self) -> &'static str {
        if self.offered_rps.is_some() {
            "open"
        } else {
            "closed"
        }
    }

    /// Human-readable summary table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "loadtest: {} requests over {} connections ({} loop), {:.2}s wall\n",
            self.requests,
            self.connections,
            self.mode_name(),
            self.wall.as_secs_f64(),
        ));
        match self.offered_rps {
            Some(rate) => out.push_str(&format!(
                "throughput: {:.0} rps achieved of {rate:.0} rps offered\n",
                self.achieved_rps
            )),
            None => out.push_str(&format!(
                "throughput: {:.0} rps achieved\n",
                self.achieved_rps
            )),
        }
        out.push_str(&format!(
            "errors: {} (busy sheds: {})\n",
            self.errors, self.shed
        ));
        out.push_str(
            "op              count     p50_us     p90_us     p99_us    p999_us     max_us\n",
        );
        for (op, snap) in &self.per_op {
            if snap.count == 0 {
                continue;
            }
            out.push_str(&format!(
                "{op:<14} {:>6} {:>10} {:>10} {:>10} {:>10} {:>10}\n",
                snap.count,
                snap.quantile(0.50),
                snap.quantile(0.90),
                snap.quantile(0.99),
                snap.quantile(0.999),
                snap.max,
            ));
        }
        out
    }
}

/// One blocking connection speaking the newline-delimited JSON protocol.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn connect(addr: &str) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok(); // best-effort latency hint
        let writer = stream.try_clone()?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Sends one request line (no trailing newline) and reads the one-line
    /// reply.
    fn roundtrip(&mut self, request: &str) -> std::io::Result<String> {
        self.writer.write_all(request.as_bytes())?;
        self.writer.write_all(b"\n")?;
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(line)
    }
}

/// The request line for one scheduled op on a worker's session.
fn request_line(op: OpKind, session: u64, catalog: &str) -> String {
    match op {
        OpKind::OpenSession => {
            format!(r#"{{"op":"open_session","catalog":"{catalog}"}}"#)
        }
        OpKind::AddStatements => {
            format!(r#"{{"op":"add_statements","session":{session},"sql":"{SEED_SQL}"}}"#)
        }
        OpKind::Recommend => {
            format!(r#"{{"op":"recommend","session":{session},"k":1}}"#)
        }
        OpKind::Stats => r#"{"op":"stats"}"#.to_string(),
    }
}

/// Classifies a reply into the shared recorders and returns the session
/// id when the reply opened one (so the caller can close it).
fn record_reply(op: OpKind, charged: Duration, reply: &str, rec: &Recorders) -> Option<u64> {
    let slot = OpKind::ALL.iter().position(|k| *k == op).unwrap_or(0);
    if let Some(h) = rec.per_op.get(slot) {
        h.record_duration_us(charged);
    }
    if reply.starts_with(r#"{"ok":true"#) {
        if op == OpKind::OpenSession {
            let parsed: Value = serde_json::from_str(reply).ok()?;
            return parsed
                .get("result")
                .and_then(|r| r.get("session"))
                .and_then(|s| s.as_u64());
        }
        return None;
    }
    rec.errors.fetch_add(1, Ordering::Relaxed);
    if reply.contains(r#""busy""#) {
        rec.shed.fetch_add(1, Ordering::Relaxed);
    }
    None
}

/// Sleeps (coarsely) then spins (finely) until `deadline`. The 200 µs
/// spin tail keeps intended send times honest on hosts whose sleep
/// granularity is ~50–100 µs without burning a whole core per worker.
fn wait_until(deadline: Instant) {
    loop {
        let now = Instant::now();
        let Some(remaining) = deadline.checked_duration_since(now) else {
            return;
        };
        if remaining > Duration::from_micros(300) {
            std::thread::sleep(remaining - Duration::from_micros(200));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Opens one long-lived session per connection over a temporary setup
/// connection (released before the measured phase) and seeds each with
/// one statement so `recommend` has work to do. Session ids come back in
/// worker order.
fn setup_sessions(addr: &str, connections: usize, catalog: &str) -> std::io::Result<Vec<u64>> {
    let mut conn = Conn::connect(addr)?;
    let mut sessions = Vec::with_capacity(connections);
    for _ in 0..connections {
        let open = conn.roundtrip(&format!(r#"{{"op":"open_session","catalog":"{catalog}"}}"#))?;
        let parsed: Value = serde_json::from_str(&open)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        let sid = parsed
            .get("result")
            .and_then(|r| r.get("session"))
            .and_then(|s| s.as_u64())
            .ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("open_session failed during setup: {open}"),
                )
            })?;
        let added = conn.roundtrip(&format!(
            r#"{{"op":"add_statements","session":{sid},"sql":"{SEED_SQL}"}}"#
        ))?;
        if !added.starts_with(r#"{"ok":true"#) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("seed statement rejected during setup: {added}"),
            ));
        }
        sessions.push(sid);
    }
    Ok(sessions)
}

/// Runs one load test to completion: builds the deterministic schedule,
/// opens the connections, drives the configured pacing, and returns the
/// merged report. Errors only on transport failures (connect/EOF) —
/// protocol-level errors are counted, not fatal.
pub fn run_load(cfg: &LoadConfig) -> std::io::Result<LoadReport> {
    let plan = Arc::new(build_schedule(cfg.seed, cfg.requests, &cfg.weights));
    let mix = MixCounts::tally(&plan);
    let connections = cfg.connections.max(1);
    let sessions = if cfg.setup_sessions {
        setup_sessions(&cfg.addr, connections, &cfg.catalog)?
    } else {
        vec![0; connections]
    };
    let rec = Arc::new(Recorders::default());
    // Per-worker intended inter-arrival gap: W workers share the offered
    // rate, so each sends every W/rate seconds.
    let gap = match cfg.mode {
        Mode::Open { rate_per_sec } if rate_per_sec > 0.0 => Some(Duration::from_nanos(
            (1e9 * connections as f64 / rate_per_sec) as u64,
        )),
        Mode::Open { .. } => None, // rate 0 degenerates to closed loop
        Mode::Closed => None,
    };
    let barrier = Arc::new(Barrier::new(connections + 1));
    let mut workers = Vec::with_capacity(connections);
    for w in 0..connections {
        let plan = Arc::clone(&plan);
        let rec = Arc::clone(&rec);
        let barrier = Arc::clone(&barrier);
        let addr = cfg.addr.clone();
        let catalog = cfg.catalog.clone();
        let session = sessions.get(w).copied().unwrap_or(0);
        workers.push(std::thread::spawn(move || -> std::io::Result<()> {
            let mut conn = Conn::connect(&addr)?;
            barrier.wait();
            let t0 = Instant::now();
            let mut k = 0u64; // this worker's request ordinal
            let mut i = w;
            while let Some(&op) = plan.get(i) {
                let line = request_line(op, session, &catalog);
                let (reply, charged) = match gap {
                    Some(gap) => {
                        // Open loop: charge from the intended send time.
                        let intended =
                            t0 + Duration::from_nanos((gap.as_nanos() as u64).saturating_mul(k));
                        wait_until(intended);
                        let reply = conn.roundtrip(&line)?;
                        let charged = Instant::now()
                            .checked_duration_since(intended)
                            .unwrap_or_default();
                        (reply, charged)
                    }
                    None => {
                        // Closed loop: charge from the actual send.
                        let sent = Instant::now();
                        let reply = conn.roundtrip(&line)?;
                        (reply, sent.elapsed())
                    }
                };
                if let Some(sid) = record_reply(op, charged, &reply, &rec) {
                    // Unmeasured companion close keeps session capacity
                    // bounded under session-churn mixes.
                    conn.roundtrip(&format!(r#"{{"op":"close_session","session":{sid}}}"#))?;
                }
                k += 1;
                i += connections;
            }
            Ok(())
        }));
    }
    barrier.wait();
    let started = Instant::now();
    let mut transport_error: Option<std::io::Error> = None;
    for worker in workers {
        match worker.join() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => transport_error = Some(e),
            Err(_) => {
                transport_error = Some(std::io::Error::other("load worker panicked"));
            }
        }
    }
    let wall = started.elapsed();
    if let Some(e) = transport_error {
        return Err(e);
    }
    let per_op: Vec<(&'static str, hist::Snapshot)> = OpKind::ALL
        .iter()
        .enumerate()
        .map(|(idx, kind)| {
            (
                kind.wire_name(),
                rec.per_op
                    .get(idx)
                    .map(hist::Histogram::snapshot)
                    .unwrap_or_default(),
            )
        })
        .collect();
    let completed: u64 = per_op.iter().map(|(_, s)| s.count).sum();
    Ok(LoadReport {
        requests: plan.len() as u64,
        wall,
        offered_rps: match cfg.mode {
            Mode::Open { rate_per_sec } if rate_per_sec > 0.0 => Some(rate_per_sec),
            _ => None,
        },
        achieved_rps: if wall.as_secs_f64() > 0.0 {
            completed as f64 / wall.as_secs_f64()
        } else {
            0.0
        },
        connections,
        seed: cfg.seed,
        mix,
        errors: rec.errors.load(Ordering::Relaxed),
        shed: rec.shed.load(Ordering::Relaxed),
        per_op,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_lines_are_valid_wire_json() {
        for op in OpKind::ALL {
            let line = request_line(op, 3, "tpch:0.01");
            let parsed: Value = serde_json::from_str(&line).expect("valid JSON");
            assert_eq!(
                parsed.get("op").and_then(|v| v.as_str()),
                Some(op.wire_name())
            );
        }
    }

    #[test]
    fn record_reply_classifies_errors_and_sheds() {
        let rec = Recorders::default();
        let d = Duration::from_micros(10);
        assert_eq!(
            record_reply(OpKind::Stats, d, r#"{"ok":true,"result":{}}"#, &rec),
            None
        );
        record_reply(
            OpKind::Stats,
            d,
            r#"{"ok":false,"error":{"code":"bad_request","message":"x"}}"#,
            &rec,
        );
        record_reply(
            OpKind::Stats,
            d,
            r#"{"ok":false,"error":{"code":"busy","message":"connection limit reached, retry later"}}"#,
            &rec,
        );
        assert_eq!(rec.errors.load(Ordering::Relaxed), 2);
        assert_eq!(rec.shed.load(Ordering::Relaxed), 1);
        let sid = record_reply(
            OpKind::OpenSession,
            d,
            r#"{"ok":true,"result":{"session":7,"tables":2}}"#,
            &rec,
        );
        assert_eq!(sid, Some(7));
    }

    #[test]
    fn wait_until_honors_past_and_near_deadlines() {
        wait_until(Instant::now()); // already due: returns immediately
        let t = Instant::now();
        wait_until(t + Duration::from_millis(2));
        assert!(t.elapsed() >= Duration::from_millis(2));
    }

    #[test]
    fn report_json_carries_mix_and_quantiles() {
        let h = hist::Histogram::default();
        h.record(100);
        let report = LoadReport {
            requests: 1,
            wall: Duration::from_secs(1),
            offered_rps: Some(10.0),
            achieved_rps: 1.0,
            connections: 1,
            seed: 42,
            mix: MixCounts {
                per_op: [0, 0, 0, 1],
            },
            errors: 0,
            shed: 0,
            per_op: vec![("stats", h.snapshot())],
        };
        let json = report.to_json();
        assert_eq!(json.get("requests").and_then(|v| v.as_u64()), Some(1));
        assert_eq!(
            json.get("mix")
                .and_then(|m| m.get("load_mix_stats"))
                .and_then(|v| v.as_u64()),
            Some(1)
        );
        let ops = json.get("per_op").and_then(|v| v.as_array()).unwrap();
        assert_eq!(ops.len(), 1);
        assert!(ops[0].get("p99_us").and_then(|v| v.as_u64()).unwrap() >= 100);
        assert!(report.render().contains("stats"));
    }
}
