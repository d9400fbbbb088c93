//! The TCP service: one thread per connection, up to a connection cap.
//!
//! Life of a connection: the acceptor registers it in the `open` map and
//! starts a thread for it, or answers a structured `busy` error when
//! [`ServerConfig::connection_capacity`] connections are already open. The
//! connection's thread serves newline-delimited JSON requests until EOF,
//! idle timeout, or shutdown, then deregisters it. An idle connection
//! holds only its own thread, so it never delays another client.
//!
//! Shutdown is graceful: the accept loop stops, the read side of every
//! served connection is shut (an idle client no longer holds its thread
//! until the read timeout), and each thread finishes its in-flight request
//! before exiting. The acceptor's thread scope joins them all. Compute
//! itself (the TS-GREEDY search) is never preempted; it runs to
//! completion once started, which is what keeps results deterministic.
//!
//! All request semantics live in [`crate::engine::Engine`]; this module only
//! owns the transport: sockets, admission control, and shutdown.

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dblayout_obs::f;

use crate::engine::{Engine, RuntimeInfo};
use crate::metrics::op_label;
use crate::protocol::{err_line, ok_line, parse_request, ApiError, Request};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (see [`ServerHandle::addr`]).
    pub addr: String,
    /// Maximum connections served at once, each on its own thread; a
    /// connection past it is answered `busy` and closed.
    pub connection_capacity: usize,
    /// Idle read timeout per connection.
    pub idle_timeout: Duration,
    /// Maximum concurrently open sessions.
    pub session_capacity: usize,
    /// Maximum memoized what-if costs.
    pub cache_capacity: usize,
    /// Decision-log directory: when set, every recommendation op appends
    /// a replayable provenance record there and the `audit_list` /
    /// `audit_get` ops serve it. `None` (the default) disables recording.
    pub audit_dir: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            connection_capacity: 64,
            idle_timeout: Duration::from_secs(30),
            session_capacity: 64,
            cache_capacity: 1024,
            audit_dir: None,
        }
    }
}

/// State shared by the acceptor and the connection threads.
pub(crate) struct Shared {
    pub(crate) config: ServerConfig,
    pub(crate) shutdown: AtomicBool,
    pub(crate) engine: Engine,
    /// A handle on every connection being served, keyed by its number.
    /// Its size is the `connections_open` gauge and what the connection
    /// cap reads; shutdown closes the read side of each.
    pub(crate) open: Mutex<BTreeMap<u64, TcpStream>>,
}

/// A running server; dropping the handle does **not** stop it — call
/// [`ServerHandle::shutdown`].
pub struct Server;

/// Handle to a started server.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: JoinHandle<()>,
}

impl Server {
    /// Binds and starts accepting.
    pub fn start(config: ServerConfig) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let mut engine = Engine::new(config.session_capacity, config.cache_capacity);
        if let Some(dir) = &config.audit_dir {
            engine
                .enable_audit(dir)
                .map_err(|e| std::io::Error::other(format!("opening decision log {dir}: {e}")))?;
        }
        let shared = Arc::new(Shared {
            shutdown: AtomicBool::new(false),
            engine,
            open: Mutex::new(BTreeMap::new()),
            config,
        });

        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&listener, &shared))
        };

        Ok(ServerHandle {
            addr,
            shared,
            acceptor,
        })
    }
}

impl ServerHandle {
    /// The bound address (with the actual port when `addr` asked for 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, closes the read side of every served connection,
    /// and joins every thread.
    pub fn shutdown(self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // A thread blocked reading an idle client sees EOF now; one in
        // the middle of a request answers it first. Requests already sent
        // stay readable.
        for stream in crate::lock_unpoisoned(&self.shared.open).values() {
            #[expect(
                clippy::let_underscore_must_use,
                clippy::let_underscore_untyped,
                reason = "the peer may already have closed; either way its thread sees EOF"
            )]
            let _ = stream.shutdown(Shutdown::Read);
        }
        // Unblock the acceptor with a throwaway connection; it re-checks the
        // flag after every accept.
        #[expect(
            clippy::let_underscore_must_use,
            clippy::let_underscore_untyped,
            reason = "throwaway self-connection only unblocks accept(); the acceptor re-checks the shutdown flag either way"
        )]
        let _ = TcpStream::connect(self.addr);
        // The acceptor returns once its scope has joined every connection
        // thread.
        #[expect(
            clippy::let_underscore_must_use,
            clippy::let_underscore_untyped,
            reason = "join error means the acceptor or a connection thread panicked; at shutdown there is nothing left to recover"
        )]
        let _ = self.acceptor.join();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Shared) {
    std::thread::scope(|scope| {
        for conn in listener.incoming() {
            if shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = conn else { continue };
            let id = shared
                .engine
                .metrics
                .connections_total
                .fetch_add(1, Ordering::Relaxed);
            let Ok(handle) = stream.try_clone() else {
                continue; // out of descriptors: dropping closes it.
            };
            // Counted and registered under one lock hold, so the cap is
            // exact.
            let admitted = {
                let mut open = crate::lock_unpoisoned(&shared.open);
                let room = open.len() < shared.config.connection_capacity;
                if room {
                    open.insert(id, handle);
                }
                room
            };
            if !admitted {
                reject_busy(shared, stream);
                continue;
            }
            // Registered before the flag is read: a shutdown that starts
            // later finds this connection in `open`, one that started
            // earlier is seen here.
            if shared.shutdown.load(Ordering::SeqCst) {
                #[expect(
                    clippy::let_underscore_must_use,
                    clippy::let_underscore_untyped,
                    reason = "the peer may already have closed; either way its thread sees EOF"
                )]
                let _ = stream.shutdown(Shutdown::Read);
            }
            let spawned = std::thread::Builder::new()
                .spawn_scoped(scope, move || serve_connection(shared, id, stream));
            if spawned.is_err() {
                // No thread to serve it: refuse it like one past the cap.
                if let Some(stream) = crate::lock_unpoisoned(&shared.open).remove(&id) {
                    reject_busy(shared, stream);
                }
            }
        }
    });
}

/// Runs one request with panic isolation: a panic inside the engine answers
/// a structured `internal_error` instead of ending the connection's thread
/// and dropping the client mid-session.
fn execute_guarded(
    run: impl FnOnce() -> Result<serde_json::Value, ApiError>,
) -> Result<serde_json::Value, ApiError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)).unwrap_or_else(|panic| {
        let detail = panic
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "unknown panic".into());
        Err(ApiError::new(
            "internal_error",
            format!("request handler panicked: {detail}"),
        ))
    })
}

/// Counts a refused connection, answers it `busy`, and closes it.
fn reject_busy(shared: &Shared, mut stream: TcpStream) {
    shared
        .engine
        .metrics
        .rejected_total
        .fetch_add(1, Ordering::Relaxed);
    let mut line = err_line(&ApiError::new(
        "busy",
        "connection limit reached, retry later",
    ));
    line.push('\n');
    #[expect(
        clippy::let_underscore_must_use,
        clippy::let_underscore_untyped,
        reason = "best-effort error reply on a connection being closed; the peer may already be gone"
    )]
    let _ = stream.write_all(line.as_bytes());
}

fn serve_connection(shared: &Shared, id: u64, stream: TcpStream) {
    #[expect(
        clippy::let_underscore_must_use,
        clippy::let_underscore_untyped,
        reason = "idle timeout is a best-effort hygiene hint; a session without it still serves correctly"
    )]
    let _ = stream.set_read_timeout(Some(shared.config.idle_timeout));
    serve_requests(shared, &stream);
    crate::lock_unpoisoned(&shared.open).remove(&id);
}

/// The longest request line the server reads, newline excluded. The
/// largest line the repository's own clients send is the TPC-H 22
/// `add_statements` of the loopback tests and the server bench (8,572
/// bytes); a longer line is answered `bad_request` and skipped.
const MAX_LINE_BYTES: usize = 1 << 20;

/// Reads the next request line into `buf`, which is reused from line to
/// line; `None` at EOF. A line longer than [`MAX_LINE_BYTES`] is skipped
/// through its newline without being kept. Such a line, and one that is
/// not UTF-8, comes back as the error to answer it with.
fn read_request_line<'b>(
    reader: &mut impl BufRead,
    buf: &'b mut Vec<u8>,
) -> io::Result<Option<Result<&'b str, ApiError>>> {
    buf.clear();
    let limit = MAX_LINE_BYTES as u64 + 1;
    let n = reader.take(limit).read_until(b'\n', buf)?;
    if n == 0 {
        return Ok(None);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    } else if n as u64 == limit {
        skip_line(reader)?;
        return Ok(Some(Err(ApiError::bad_request(format!(
            "request line longer than {MAX_LINE_BYTES} bytes"
        )))));
    }
    Ok(Some(std::str::from_utf8(buf).map_err(|_| {
        ApiError::new("parse_error", "request line is not UTF-8")
    })))
}

/// Consumes input through the next newline (or to EOF), keeping none of it.
fn skip_line(reader: &mut impl BufRead) -> io::Result<()> {
    loop {
        let available = reader.fill_buf()?;
        if available.is_empty() {
            return Ok(());
        }
        if let Some(at) = available.iter().position(|&b| b == b'\n') {
            reader.consume(at + 1);
            return Ok(());
        }
        let len = available.len();
        reader.consume(len);
    }
}

fn serve_requests(shared: &Shared, stream: &TcpStream) {
    let mut writer = stream;
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    // EOF, reset, or idle timeout ends the connection.
    while let Ok(Some(line)) = read_request_line(&mut reader, &mut buf) {
        if line.as_ref().is_ok_and(|text| text.trim().is_empty()) {
            continue;
        }
        let started = Instant::now();
        let span = shared.engine.collector.span("server.request", Vec::new());
        let mut op = None;
        let outcome = line.and_then(parse_request).and_then(|req| {
            op = Some(req.op());
            // Gauges are only read by `stats`/`metrics`; fetch them lazily
            // so every other op skips the `open` lock.
            let runtime = if matches!(req, Request::Stats | Request::Metrics) {
                RuntimeInfo {
                    connections_open: crate::lock_unpoisoned(&shared.open).len() as u64,
                }
            } else {
                RuntimeInfo::default()
            };
            execute_guarded(|| shared.engine.execute(req, &runtime))
        });
        // Compute stage: parse + engine execution.
        shared
            .engine
            .metrics
            .stage_compute
            .observe(started.elapsed());
        let ok = outcome.is_ok();
        let serialize_started = Instant::now();
        let mut response = match outcome {
            Ok(result) => ok_line(result),
            Err(err) => {
                shared
                    .engine
                    .metrics
                    .errors_total
                    .fetch_add(1, Ordering::Relaxed);
                err_line(&err)
            }
        };
        response.push('\n');
        // Serialize stage: response-line construction.
        shared
            .engine
            .metrics
            .stage_serialize
            .observe(serialize_started.elapsed());
        shared
            .engine
            .metrics
            .observe_op_latency(op, started.elapsed());
        span.end_with(vec![f("op", op_label(op)), f("ok", ok)]);
        if writer.write_all(response.as_bytes()).is_err() {
            break;
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            break; // graceful: finish the in-flight request, then close.
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use serde_json::{Value, ValueExt};

    fn start() -> ServerHandle {
        Server::start(ServerConfig::default()).expect("bind loopback")
    }

    fn result(line: &str) -> Value {
        let v: Value = serde_json::from_str(line).unwrap();
        assert_eq!(v.get("ok").and_then(|b| b.as_bool()), Some(true), "{line}");
        v.get("result").unwrap().clone()
    }

    #[test]
    fn session_lifecycle_over_loopback() {
        let server = start();
        let mut client = Client::connect(&server.addr().to_string()).unwrap();

        let open = result(
            &client
                .roundtrip(r#"{"op":"open_session","catalog":"tpch:0.01"}"#)
                .unwrap(),
        );
        let sid = open.get("session").and_then(|v| v.as_u64()).unwrap();
        assert_eq!(open.get("disks").and_then(|v| v.as_u64()), Some(8));

        let add = result(
            &client
                .roundtrip(&format!(
                    r#"{{"op":"add_statements","session":{sid},"sql":"SELECT COUNT(*) FROM lineitem, orders WHERE l_orderkey = o_orderkey;"}}"#
                ))
                .unwrap(),
        );
        assert_eq!(add.get("added").and_then(|v| v.as_u64()), Some(1));
        assert_eq!(add.get("version").and_then(|v| v.as_u64()), Some(1));

        let what = result(
            &client
                .roundtrip(&format!(
                    r#"{{"op":"whatif_cost","session":{sid},"layout":"full_striping"}}"#
                ))
                .unwrap(),
        );
        assert!(what.get("cost_ms").and_then(|v| v.as_f64()).unwrap() > 0.0);
        assert_eq!(what.get("cached").and_then(|v| v.as_bool()), Some(false));

        let again = result(
            &client
                .roundtrip(&format!(
                    r#"{{"op":"whatif_cost","session":{sid},"layout":"full_striping"}}"#
                ))
                .unwrap(),
        );
        assert_eq!(again.get("cached").and_then(|v| v.as_bool()), Some(true));
        assert_eq!(
            again.get("cost_ms").and_then(|v| v.as_f64()),
            what.get("cost_ms").and_then(|v| v.as_f64())
        );

        let rec = result(
            &client
                .roundtrip(&format!(r#"{{"op":"recommend","session":{sid}}}"#))
                .unwrap(),
        );
        assert!(
            rec.get("estimated_improvement_pct")
                .and_then(|v| v.as_f64())
                .unwrap()
                >= 0.0
        );

        let stats = result(&client.roundtrip(r#"{"op":"stats"}"#).unwrap());
        assert_eq!(stats.get("sessions_open").and_then(|v| v.as_u64()), Some(1));
        assert!(
            stats
                .get("requests_total")
                .and_then(|v| v.as_u64())
                .unwrap()
                >= 5
        );
        // The one connection is registered before it is served.
        assert_eq!(
            stats.get("connections_open").and_then(|v| v.as_u64()),
            Some(1)
        );

        let closed = result(
            &client
                .roundtrip(&format!(r#"{{"op":"close_session","session":{sid}}}"#))
                .unwrap(),
        );
        assert_eq!(closed.get("closed").and_then(|v| v.as_u64()), Some(sid));

        server.shutdown();
    }

    #[test]
    fn metrics_and_trace_ops_over_loopback() {
        let server = start();
        let mut client = Client::connect(&server.addr().to_string()).unwrap();

        let stats = result(&client.roundtrip(r#"{"op":"stats"}"#).unwrap());
        assert!(
            stats
                .get("stage_compute_p50_us")
                .and_then(|v| v.as_u64())
                .is_some(),
            "stats surfaces stage percentiles: {stats:?}"
        );

        let m = result(&client.roundtrip(r#"{"op":"metrics"}"#).unwrap());
        let text = m.get("text").and_then(|v| v.as_str()).unwrap();
        assert!(
            text.contains("# TYPE dblayout_requests_total counter"),
            "{text}"
        );
        assert!(text.contains("dblayout_sessions_open 0\n"), "{text}");
        assert!(text.contains("dblayout_connections_open 1\n"), "{text}");

        let t = result(&client.roundtrip(r#"{"op":"trace"}"#).unwrap());
        let events = t.get("events").and_then(|v| v.as_array()).unwrap();
        // stats + metrics spans completed (start/end each); the in-flight
        // trace request contributes at least its span_start.
        assert!(events.len() >= 5, "got {} events", events.len());
        // The wire events round-trip through the trace parser as JSONL.
        let jsonl: String = events
            .iter()
            .map(|e| {
                let mut line = serde_json::to_string(e).unwrap();
                line.push('\n');
                line
            })
            .collect();
        let parsed = dblayout_obs::parse_trace(&jsonl).unwrap();
        assert_eq!(parsed.len(), events.len());
        assert!(
            parsed
                .iter()
                .any(|r| r.name == "server.request" && r.field_str("op") == Some("stats")),
            "missing stats span in {jsonl}"
        );
        let end = parsed
            .iter()
            .find(|r| r.field_str("op") == Some("metrics"))
            .unwrap();
        assert!(end.elapsed_us.is_some(), "timed collector stamps span ends");
        assert_eq!(end.field("ok"), Some(&dblayout_obs::FieldValue::Bool(true)));

        // Draining leaves only records emitted after the drain.
        let t2 = result(&client.roundtrip(r#"{"op":"trace"}"#).unwrap());
        let events2 = t2.get("events").and_then(|v| v.as_array()).unwrap();
        assert!(events2.len() < events.len());

        server.shutdown();
    }

    #[test]
    fn degenerate_disk_spec_is_rejected_and_server_survives() {
        let server = start();
        let mut client = Client::connect(&server.addr().to_string()).unwrap();

        // A zero read rate used to reach TS-GREEDY and panic a worker while
        // it held the session lock; it must be a bad_request at open time.
        let bad: Value = serde_json::from_str(
            &client
                .roundtrip(
                    r#"{"op":"open_session","catalog":"tpch:0.01","disks":"uniform:4:100000:10:0"}"#,
                )
                .unwrap(),
        )
        .unwrap();
        assert_eq!(bad.get("ok").and_then(|v| v.as_bool()), Some(false));
        assert_eq!(
            bad.get("error")
                .and_then(|e| e.get("code"))
                .and_then(|c| c.as_str()),
            Some("bad_request")
        );

        // The same connection (and its thread) keeps serving.
        let open = result(
            &client
                .roundtrip(r#"{"op":"open_session","catalog":"tpch:0.01"}"#)
                .unwrap(),
        );
        assert!(open.get("session").and_then(|v| v.as_u64()).is_some());

        server.shutdown();
    }

    #[test]
    fn panicking_handler_answers_internal_error() {
        let err = execute_guarded(|| -> Result<Value, ApiError> { panic!("boom") }).unwrap_err();
        assert_eq!(err.code, "internal_error");
        assert!(err.message.contains("boom"), "{}", err.message);
    }

    #[test]
    fn poisoned_open_lock_recovers() {
        let server = start();
        // Poison the open-connection mutex the way a panicking thread would.
        let shared = Arc::clone(&server.shared);
        let poisoner = std::thread::spawn(move || {
            let _guard = crate::lock_unpoisoned(&shared.open);
            panic!("poison the open-connection lock");
        });
        assert!(poisoner.join().is_err(), "the poisoning thread panics");
        assert!(server.shared.open.is_poisoned());

        // The acceptor recovers the lock to register the connection, and
        // `stats` recovers it to count the open connections (`result`
        // asserts the response is ok).
        let mut client = Client::connect(&server.addr().to_string()).unwrap();
        let stats = result(&client.roundtrip(r#"{"op":"stats"}"#).unwrap());
        assert_eq!(
            stats.get("connections_open").and_then(|v| v.as_u64()),
            Some(1)
        );

        server.shutdown();
    }

    #[test]
    fn shutdown_closes_an_idle_connection_promptly() {
        let server = start();
        let mut client = Client::connect(&server.addr().to_string()).unwrap();
        result(&client.roundtrip(r#"{"op":"stats"}"#).unwrap());
        // The client stays connected and idle while the server stops.
        let started = Instant::now();
        server.shutdown();
        let took = started.elapsed();
        assert!(took < Duration::from_secs(1), "shutdown took {took:?}");
        assert!(client.roundtrip(r#"{"op":"stats"}"#).is_err());
    }

    #[test]
    fn malformed_and_unknown_requests_answer_structured_errors() {
        let server = start();
        let mut client = Client::connect(&server.addr().to_string()).unwrap();

        let bad: Value = serde_json::from_str(&client.roundtrip("{not json").unwrap()).unwrap();
        assert_eq!(bad.get("ok").and_then(|v| v.as_bool()), Some(false));
        assert_eq!(
            bad.get("error")
                .and_then(|e| e.get("code"))
                .and_then(|c| c.as_str()),
            Some("parse_error")
        );

        // The connection survives the malformed line.
        let unknown: Value = serde_json::from_str(
            &client
                .roundtrip(r#"{"op":"recommend","session":404}"#)
                .unwrap(),
        )
        .unwrap();
        assert_eq!(
            unknown
                .get("error")
                .and_then(|e| e.get("code"))
                .and_then(|c| c.as_str()),
            Some("unknown_session")
        );

        server.shutdown();
    }

    /// Writes `bytes`, then a `stats` line, on one fresh connection.
    /// Asserts that `stats` is answered and returns the error code the
    /// bad line got.
    fn bad_line_then_stats(server: &ServerHandle, bytes: &[u8]) -> String {
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.write_all(bytes).unwrap();
        stream.write_all(b"{\"op\":\"stats\"}\n").unwrap();
        let mut replies = BufReader::new(stream).lines().map(Result::unwrap);
        let refused: Value = serde_json::from_str(&replies.next().unwrap()).unwrap();
        result(&replies.next().unwrap());
        let code = refused.get("error").and_then(|e| e.get("code"));
        code.and_then(|c| c.as_str())
            .unwrap_or_default()
            .to_string()
    }

    #[test]
    fn over_long_line_is_refused_and_the_connection_keeps_serving() {
        let server = start();
        let mut line = vec![b'x'; MAX_LINE_BYTES + 1];
        line.push(b'\n');
        assert_eq!(bad_line_then_stats(&server, &line), "bad_request");
        server.shutdown();
    }

    #[test]
    fn non_utf8_line_is_a_parse_error_and_the_connection_keeps_serving() {
        let server = start();
        assert_eq!(bad_line_then_stats(&server, b"\xff\n"), "parse_error");
        server.shutdown();
    }
}
