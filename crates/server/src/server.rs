//! The TCP service: a fixed worker pool over a bounded connection queue.
//!
//! Life of a connection: the acceptor thread enqueues it (or rejects it with
//! a structured `busy` error when the queue is full); a worker pops it,
//! enforces the queue-wait deadline, then serves newline-delimited JSON
//! requests until EOF, idle timeout, or shutdown. Shutdown is graceful: the
//! accept loop stops, the read side of every served connection is shut
//! (an idle client no longer holds a worker until its read timeout), and
//! workers drain every queued connection and finish their in-flight
//! request before exiting.
//!
//! The deadline guards *queueing* — a connection that waited longer than the
//! per-request deadline is answered with `deadline_exceeded` instead of
//! being served stale. Compute itself (the TS-GREEDY search) is never
//! preempted; it runs to completion once started, which is what keeps
//! results deterministic.
//!
//! All request semantics live in [`crate::engine::Engine`]; this module only
//! owns the transport: sockets, the queue, admission control, and shutdown.

use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dblayout_obs::f;

use crate::engine::{Engine, RuntimeInfo, DEFAULT_TRACE_CAPACITY};
use crate::metrics::op_label;
use crate::protocol::{err_line, ok_line, parse_request, ApiError, Request};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (see [`ServerHandle::addr`]).
    pub addr: String,
    /// Worker threads serving connections.
    pub threads: usize,
    /// Maximum connections waiting for a worker before new ones are
    /// rejected with `busy`.
    pub queue_capacity: usize,
    /// Per-request deadline; connections that waited longer in the queue
    /// are answered with `deadline_exceeded`.
    pub deadline: Duration,
    /// Idle read timeout per connection.
    pub idle_timeout: Duration,
    /// Maximum concurrently open sessions.
    pub session_capacity: usize,
    /// Maximum memoized what-if costs.
    pub cache_capacity: usize,
    /// Capacity (in records) of the bounded trace ring the `trace` op
    /// drains; oldest records are dropped first.
    pub trace_capacity: usize,
    /// Max-idle session TTL; sessions untouched for longer are evicted on
    /// the next request. `None` (the default) keeps sessions until closed.
    pub session_idle_ttl: Option<Duration>,
    /// Decision-log directory: when set, every recommendation op appends
    /// a replayable provenance record there and the `audit_list` /
    /// `audit_get` ops serve it. `None` (the default) disables recording.
    pub audit_dir: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            threads: 4,
            queue_capacity: 64,
            deadline: Duration::from_secs(30),
            idle_timeout: Duration::from_secs(30),
            session_capacity: 64,
            cache_capacity: 1024,
            trace_capacity: DEFAULT_TRACE_CAPACITY,
            session_idle_ttl: None,
            audit_dir: None,
        }
    }
}

/// State shared by the acceptor and the workers.
pub(crate) struct Shared {
    pub(crate) config: ServerConfig,
    pub(crate) queue: Mutex<VecDeque<(TcpStream, Instant)>>,
    pub(crate) available: Condvar,
    pub(crate) shutdown: AtomicBool,
    pub(crate) engine: Engine,
    /// A handle on every connection being served, keyed by its number, so
    /// shutdown can close the idle ones' read side.
    pub(crate) open: Mutex<BTreeMap<u64, TcpStream>>,
    pub(crate) connections: AtomicU64,
}

/// A running server; dropping the handle does **not** stop it — call
/// [`ServerHandle::shutdown`].
pub struct Server;

/// Handle to a started server.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the worker pool, and starts accepting.
    pub fn start(config: ServerConfig) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let mut engine = Engine::with_trace_capacity(
            config.session_capacity,
            config.cache_capacity,
            config.trace_capacity,
        );
        if let Some(dir) = &config.audit_dir {
            engine
                .enable_audit(dir)
                .map_err(|e| std::io::Error::other(format!("opening decision log {dir}: {e}")))?;
        }
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            engine,
            open: Mutex::new(BTreeMap::new()),
            connections: AtomicU64::new(0),
            config,
        });
        shared
            .engine
            .set_session_idle_ttl(shared.config.session_idle_ttl);

        let workers = (0..shared.config.threads.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();

        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&listener, &shared))
        };

        Ok(ServerHandle {
            addr,
            shared,
            acceptor: Some(acceptor),
            workers,
        })
    }
}

impl ServerHandle {
    /// The bound address (with the actual port when `addr` asked for 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, closes the read side of every served connection,
    /// drains queued connections, and joins every thread.
    pub fn shutdown(mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // A worker blocked reading an idle client sees EOF now; one in
        // the middle of a request answers it first. Requests already sent
        // stay readable.
        for stream in crate::lock_unpoisoned(&self.shared.open).values() {
            #[expect(
                clippy::let_underscore_must_use,
                clippy::let_underscore_untyped,
                reason = "the peer may already have closed; either way the worker sees EOF"
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
        if let Some(acceptor) = self.acceptor.take() {
            #[expect(
                clippy::let_underscore_must_use,
                clippy::let_underscore_untyped,
                reason = "join error means the acceptor panicked; at shutdown there is nothing left to recover"
            )]
            let _ = acceptor.join();
        }
        self.shared.available.notify_all();
        for worker in self.workers.drain(..) {
            #[expect(
                clippy::let_underscore_must_use,
                clippy::let_underscore_untyped,
                reason = "join error means the worker panicked; at shutdown there is nothing left to recover"
            )]
            let _ = worker.join();
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for conn in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else { continue };
        shared
            .engine
            .metrics
            .connections_total
            .fetch_add(1, Ordering::Relaxed);
        let mut queue = crate::lock_unpoisoned(&shared.queue);
        if queue.len() >= shared.config.queue_capacity {
            drop(queue);
            shared
                .engine
                .metrics
                .rejected_total
                .fetch_add(1, Ordering::Relaxed);
            reply_and_close(
                stream,
                &ApiError::new("busy", "connection queue full, retry later"),
            );
            continue;
        }
        queue.push_back((stream, Instant::now()));
        shared
            .engine
            .metrics
            .queue_depth_highwater
            .fetch_max(queue.len() as u64, Ordering::Relaxed);
        drop(queue);
        shared.available.notify_one();
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let popped = {
            let mut queue = crate::lock_unpoisoned(&shared.queue);
            loop {
                if let Some(item) = queue.pop_front() {
                    break Some(item);
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                queue = shared
                    .available
                    .wait(queue)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        let Some((stream, enqueued)) = popped else {
            return; // shutdown with an empty queue: drained.
        };
        let waited = enqueued.elapsed();
        if waited > shared.config.deadline {
            shared
                .engine
                .metrics
                .deadline_expired_total
                .fetch_add(1, Ordering::Relaxed);
            reply_and_close(
                stream,
                &ApiError::new(
                    "deadline_exceeded",
                    "request waited past its deadline in the queue",
                ),
            );
            continue;
        }
        // Queue-wait stage: admission wait of connections that get served
        // (expired ones are counted above instead).
        shared.engine.metrics.stage_queue.observe(waited);
        serve_connection(shared, stream);
    }
}

/// Runs one request with panic isolation: a panic inside the engine answers
/// a structured `internal_error` instead of killing the worker thread. The
/// pool is fixed-size and never respawned, so without this each panicking
/// request would permanently shrink capacity until the server accepted
/// connections but never answered them.
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

fn reply_and_close(mut stream: TcpStream, error: &ApiError) {
    let mut line = err_line(error);
    line.push('\n');
    #[expect(
        clippy::let_underscore_must_use,
        clippy::let_underscore_untyped,
        reason = "best-effort error reply on a connection being closed; the peer may already be gone"
    )]
    let _ = stream.write_all(line.as_bytes());
}

fn serve_connection(shared: &Arc<Shared>, stream: TcpStream) {
    #[expect(
        clippy::let_underscore_must_use,
        clippy::let_underscore_untyped,
        reason = "idle timeout is a best-effort hygiene hint; a session without it still serves correctly"
    )]
    let _ = stream.set_read_timeout(Some(shared.config.idle_timeout));
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    // Registered before the flag is read: a shutdown that starts later
    // finds this connection in `open`, one that started earlier is seen
    // here.
    let id = shared.connections.fetch_add(1, Ordering::Relaxed);
    if let Ok(handle) = stream.try_clone() {
        crate::lock_unpoisoned(&shared.open).insert(id, handle);
    }
    if shared.shutdown.load(Ordering::SeqCst) {
        #[expect(
            clippy::let_underscore_must_use,
            clippy::let_underscore_untyped,
            reason = "the peer may already have closed; either way the loop below sees EOF"
        )]
        let _ = stream.shutdown(Shutdown::Read);
    }
    serve_requests(shared, BufReader::new(stream), &mut writer);
    crate::lock_unpoisoned(&shared.open).remove(&id);
}

fn serve_requests(shared: &Arc<Shared>, reader: BufReader<TcpStream>, writer: &mut TcpStream) {
    for line in reader.lines() {
        let Ok(line) = line else { break }; // EOF, reset, or idle timeout.
        if line.trim().is_empty() {
            continue;
        }
        let started = Instant::now();
        let span = shared.engine.collector.span("server.request", Vec::new());
        let mut op = None;
        let outcome = parse_request(&line).and_then(|req| {
            op = Some(req.op());
            // Gauges are only read by `stats`/`metrics`; fetch them lazily
            // so every other op skips the queue lock.
            let runtime = if matches!(req, Request::Stats | Request::Metrics) {
                RuntimeInfo {
                    queue_depth: crate::lock_unpoisoned(&shared.queue).len() as u64,
                    threads: shared.config.threads as u64,
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
        shared
            .engine
            .metrics
            .requests_total
            .fetch_add(1, Ordering::Relaxed);
        let ok = outcome.is_ok();
        let serialize_started = Instant::now();
        let serialize_phase = shared.engine.prof.phase("serialize");
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
        drop(serialize_phase);
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
        Server::start(ServerConfig {
            threads: 2,
            ..Default::default()
        })
        .expect("bind loopback")
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
        assert_eq!(stats.get("threads").and_then(|v| v.as_u64()), Some(2));

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
        // The queue-wait stage observed at least this connection's admission.
        assert!(text.contains("dblayout_stage_queue_us_count 1\n"), "{text}");

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

        // The same connection (and worker) keeps serving.
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
    fn poisoned_queue_lock_recovers() {
        let server = start();
        // Poison the queue mutex the way a panicking thread would.
        let shared = Arc::clone(&server.shared);
        let poisoner = std::thread::spawn(move || {
            let _guard = crate::lock_unpoisoned(&shared.queue);
            panic!("poison the queue lock");
        });
        assert!(poisoner.join().is_err(), "the poisoning thread panics");
        assert!(server.shared.queue.is_poisoned());

        // The acceptor and workers recover the lock and keep serving
        // (`result` asserts the response is ok; `stats` itself reads the
        // recovered queue lock for its queue-depth gauge).
        let mut client = Client::connect(&server.addr().to_string()).unwrap();
        let stats = result(&client.roundtrip(r#"{"op":"stats"}"#).unwrap());
        assert_eq!(stats.get("threads").and_then(|v| v.as_u64()), Some(2));

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
}
