//! Server metrics: lock-free counters plus log-linear latency histograms
//! good enough for p50/p99/p999 without keeping per-request samples.
//!
//! Besides the overall request latency, two *stage* histograms break each
//! request's wall-clock into where it went: `compute` (parse + engine
//! execution) and `serialize` (response line construction) — plus a per-op
//! family keyed by the wire vocabulary ([`Op`]). The `stats` wire op reads
//! only the counters, the gauges and those three histograms
//! ([`Metrics::stats_snapshot`]); the `metrics` op renders everything in
//! Prometheus text exposition format (see [`render_prometheus`]).
//!
//! Histograms are [`dblayout_obs::hist`] log-linear: 8 linear sub-buckets
//! per power-of-two octave, so every reported quantile overstates the true
//! value by at most 12.5% (the old power-of-two bucketing carried up to 2×
//! error exactly where p99/p999 live). The [`Histogram`] wrapper here
//! keeps the historical server semantics on top: observations clamp to at
//! least 1 µs, and quantiles report bucket upper bounds.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use dblayout_obs::counters::{self, CounterSnapshot};
use dblayout_obs::hist;

use crate::protocol::Op;

/// The largest value a percentile estimate can report: the upper bound of
/// the last histogram bucket (`2^63 - 1` µs). Returned instead of a
/// sentinel when a rank overshoots the scanned counts (relaxed-atomic
/// skew).
pub const LAST_BUCKET_BOUND_US: u64 = hist::MAX_BOUND;

/// Per-op latency slots: one per [`Op`], indexed by the op itself, then
/// the `invalid` slot that unparseable requests land in.
const OP_SLOTS: usize = Op::COUNT + 1;

/// The per-op label of a request: its wire name, or `invalid` when it did
/// not parse.
pub(crate) fn op_label(op: Option<Op>) -> &'static str {
    op.map_or("invalid", Op::name)
}

/// A lock-free log-linear histogram of microsecond observations (a thin
/// wrapper over [`dblayout_obs::hist::Histogram`] with the server's
/// clamp-to-1µs convention).
#[derive(Default)]
pub struct Histogram {
    inner: hist::Histogram,
}

/// A point-in-time reading of one [`Histogram`].
#[derive(Debug, Clone, Copy, Default)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observed values (µs, saturating).
    pub sum_us: u64,
    /// Median (µs, bucket upper bound; 0 when empty).
    pub p50_us: u64,
    /// 90th percentile (µs, bucket upper bound; 0 when empty).
    pub p90_us: u64,
    /// 99th percentile (µs, bucket upper bound; 0 when empty).
    pub p99_us: u64,
    /// 99.9th percentile (µs, bucket upper bound; 0 when empty).
    pub p999_us: u64,
    /// Exact maximum observed value (µs, not bucket-rounded).
    pub max_us: u64,
}

impl Histogram {
    /// Records one duration (values below 1 µs count as 1 µs; values past
    /// `u64` µs saturate into the last bucket).
    pub fn observe(&self, took: Duration) {
        self.observe_us(u64::try_from(took.as_micros()).unwrap_or(u64::MAX));
    }

    /// Records one microsecond value.
    pub fn observe_us(&self, us: u64) {
        self.inner.record(us.max(1));
    }

    /// Reads count, sum, and the standard percentiles at once.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let s = self.inner.snapshot();
        HistogramSnapshot {
            count: s.count,
            sum_us: s.sum,
            p50_us: s.quantile(0.50),
            p90_us: s.quantile(0.90),
            p99_us: s.quantile(0.99),
            p999_us: s.quantile(0.999),
            max_us: s.max,
        }
    }
}

/// Finds the bucket containing the observation of the given 1-based rank
/// and returns its upper bound. When `rank` exceeds the total count — which
/// relaxed-atomic skew between a `sum` and a later per-bucket scan can
/// produce — the answer is the **last finite bucket bound**
/// ([`LAST_BUCKET_BOUND_US`]), never a `u64::MAX` sentinel that would
/// poison latency dashboards.
#[cfg(test)]
fn percentile_from_counts(counts: &[u64], rank: u64) -> u64 {
    hist::rank_value(counts, rank)
}

/// Gauges sampled at snapshot time by whoever owns the live structures (the
/// engine knows sessions and cache; the transport knows its connections).
#[derive(Debug, Clone, Copy, Default)]
pub struct Gauges {
    /// Connections currently being served.
    pub connections_open: u64,
    /// Sessions currently open.
    pub sessions_open: u64,
    /// Entries resident in the what-if cost cache.
    pub cache_entries: u64,
}

/// Shared metric counters (all relaxed atomics — monitoring, not
/// synchronization).
pub struct Metrics {
    /// Requests fully served (success or structured error).
    pub requests_total: AtomicU64,
    /// Requests answered with a structured error.
    pub errors_total: AtomicU64,
    /// Connections accepted.
    pub connections_total: AtomicU64,
    /// Connections refused at the connection cap (busy sheds).
    pub rejected_total: AtomicU64,
    /// What-if cost cache hits.
    pub cache_hits: AtomicU64,
    /// What-if cost cache misses.
    pub cache_misses: AtomicU64,
    /// End-to-end request latency.
    pub latency: Histogram,
    /// Stage: request parse + engine execution.
    pub stage_compute: Histogram,
    /// Stage: response line construction.
    pub stage_serialize: Histogram,
    /// Predicted-vs-simulated relative error of audit replays, in parts
    /// per million (1 % = 10 000 ppm). Fed by the `audit_get` op when the
    /// client asks for a replay; empty until someone audits.
    pub audit_replay_error_ppm: Histogram,
    /// End-to-end latency split by wire op ([`Op`] order, then `invalid`).
    per_op: [Histogram; OP_SLOTS],
}

impl Default for Metrics {
    fn default() -> Self {
        Self {
            requests_total: AtomicU64::new(0),
            errors_total: AtomicU64::new(0),
            connections_total: AtomicU64::new(0),
            rejected_total: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            latency: Histogram::default(),
            stage_compute: Histogram::default(),
            stage_serialize: Histogram::default(),
            audit_replay_error_ppm: Histogram::default(),
            per_op: std::array::from_fn(|_| Histogram::default()),
        }
    }
}

/// What the `stats` op reports: the counters, the gauges, and the three
/// histograms it quotes percentiles of.
#[derive(Debug, Clone, Copy)]
pub struct StatsSnapshot {
    /// Requests fully served.
    pub requests_total: u64,
    /// Structured errors answered.
    pub errors_total: u64,
    /// Connections accepted.
    pub connections_total: u64,
    /// Connections refused at admission (busy sheds).
    pub rejected_total: u64,
    /// Cache hits.
    pub cache_hits: u64,
    /// Cache misses.
    pub cache_misses: u64,
    /// Hit fraction in `[0, 1]` (0 when no lookups yet).
    pub cache_hit_rate: f64,
    /// End-to-end latency histogram reading.
    pub latency: HistogramSnapshot,
    /// Compute stage histogram reading.
    pub stage_compute: HistogramSnapshot,
    /// Serialize stage histogram reading.
    pub stage_serialize: HistogramSnapshot,
    /// The caller-sampled gauges (zero when snapshotting without a
    /// transport, e.g. in-process).
    pub gauges: Gauges,
}

/// A full metrics reading for the `metrics` op: the `stats` reading plus
/// the histograms and counters only the exposition renders.
#[derive(Debug, Clone, Copy)]
pub struct MetricsSnapshot {
    /// The counters, gauges and histograms `stats` reports.
    pub stats: StatsSnapshot,
    /// Audit replay-error histogram reading (ppm).
    pub audit_replay_error_ppm: HistogramSnapshot,
    /// Per-op end-to-end latency readings, [`Op`] order, then `invalid`.
    pub per_op_latency: [HistogramSnapshot; OP_SLOTS],
    /// Trace records evicted from the engine's span ring (the engine
    /// owner fills this in after snapshotting; 0 when no ring exists).
    pub trace_dropped_total: u64,
    /// The workspace-wide `obs::counters` registry reading taken with
    /// this snapshot — rendered as `dblayout_<name>_total` families.
    pub work: CounterSnapshot,
}

impl Metrics {
    /// Records one served request's end-to-end latency against both the
    /// overall histogram and its wire-op family (`None`: a request that
    /// did not parse).
    pub fn observe_op_latency(&self, op: Option<Op>, took: Duration) {
        self.latency.observe(took);
        if let Some(h) = self.per_op.get(op.map_or(Op::COUNT, |op| op as usize)) {
            h.observe(took);
        }
    }

    /// Reads everything with zeroed gauges (in-process callers have no
    /// transport or registry to sample).
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.snapshot_with_gauges(Gauges::default())
    }

    /// Reads the counters and the three histograms `stats` reports, and
    /// folds in the caller-sampled gauges.
    pub fn stats_snapshot(&self, gauges: Gauges) -> StatsSnapshot {
        let hits = self.cache_hits.load(Ordering::Relaxed);
        let misses = self.cache_misses.load(Ordering::Relaxed);
        let lookups = hits + misses;
        StatsSnapshot {
            requests_total: self.requests_total.load(Ordering::Relaxed),
            errors_total: self.errors_total.load(Ordering::Relaxed),
            connections_total: self.connections_total.load(Ordering::Relaxed),
            rejected_total: self.rejected_total.load(Ordering::Relaxed),
            cache_hits: hits,
            cache_misses: misses,
            cache_hit_rate: if lookups > 0 {
                hits as f64 / lookups as f64
            } else {
                0.0
            },
            latency: self.latency.snapshot(),
            stage_compute: self.stage_compute.snapshot(),
            stage_serialize: self.stage_serialize.snapshot(),
            gauges,
        }
    }

    /// Reads every counter and histogram and folds in the caller-sampled
    /// gauges.
    pub fn snapshot_with_gauges(&self, gauges: Gauges) -> MetricsSnapshot {
        MetricsSnapshot {
            stats: self.stats_snapshot(gauges),
            audit_replay_error_ppm: self.audit_replay_error_ppm.snapshot(),
            per_op_latency: std::array::from_fn(|i| {
                self.per_op
                    .get(i)
                    .map(Histogram::snapshot)
                    .unwrap_or_default()
            }),
            trace_dropped_total: 0,
            work: counters::snapshot(),
        }
    }
}

fn push_counter(out: &mut String, name: &str, value: u64) {
    out.push_str(&format!("# TYPE {name} counter\n{name} {value}\n"));
}

fn push_gauge(out: &mut String, name: &str, value: u64) {
    out.push_str(&format!("# TYPE {name} gauge\n{name} {value}\n"));
}

/// Escapes a label value per the Prometheus text exposition format:
/// backslash, double quote, and line feed become `\\`, `\"`, and `\n`.
/// Every label value emitted here is a static quantile string, but going
/// through the escaper keeps the renderer correct by construction (and
/// testable) should dynamic labels ever appear.
fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// The quantile series of one histogram reading, including the exact max
/// as `quantile="1"`.
fn quantile_series(h: &HistogramSnapshot) -> [(&'static str, u64); 5] {
    [
        ("0.5", h.p50_us),
        ("0.9", h.p90_us),
        ("0.99", h.p99_us),
        ("0.999", h.p999_us),
        ("1", h.max_us),
    ]
}

fn push_summary(out: &mut String, name: &str, h: &HistogramSnapshot) {
    out.push_str(&format!("# TYPE {name} summary\n"));
    for (q, v) in quantile_series(h) {
        out.push_str(&format!(
            "{name}{{quantile=\"{}\"}} {v}\n",
            escape_label_value(q)
        ));
    }
    out.push_str(&format!(
        "{name}_sum {}\n{name}_count {}\n",
        h.sum_us, h.count
    ));
}

/// The per-op latency family: one `# TYPE` line, then quantile samples
/// labeled `op="..."` for every op that has served at least one request
/// (empty ops are elided to keep the exposition small).
fn push_per_op_summaries(out: &mut String, s: &MetricsSnapshot) {
    let name = "dblayout_request_latency_by_op_us";
    out.push_str(&format!("# TYPE {name} summary\n"));
    let ops = Op::ALL.map(Some).into_iter().chain([None]);
    for (op, h) in ops.zip(s.per_op_latency.iter()) {
        if h.count == 0 {
            continue;
        }
        let op = sanitize_label_value(op_label(op));
        for (q, v) in quantile_series(h) {
            out.push_str(&format!("{name}{{op=\"{op}\",quantile=\"{q}\"}} {v}\n"));
        }
        out.push_str(&format!("{name}_sum{{op=\"{op}\"}} {}\n", h.sum_us));
        out.push_str(&format!("{name}_count{{op=\"{op}\"}} {}\n", h.count));
    }
}

/// A label value that is safe inside the single-sample-per-line exposition
/// this module emits: escaped per the text format, with whitespace folded
/// to `_` so every non-comment line stays exactly two space-separated
/// tokens (a property the format tests — and simple scrapers — rely on).
fn sanitize_label_value(v: &str) -> String {
    let folded: String = v
        .chars()
        .map(|c| if c.is_whitespace() { '_' } else { c })
        .collect();
    escape_label_value(&folded)
}

/// Renders the `dblayout_build_info` identity gauge: always-1, with the
/// build's git revision (`DBLAYOUT_GIT_REV`, `unknown` when unset) and
/// crate version as labels — the join key that lets dashboards slice the
/// replay-error series by the code that produced the decisions.
fn push_build_info(out: &mut String) {
    let revision = std::env::var("DBLAYOUT_GIT_REV").unwrap_or_else(|_| "unknown".to_string());
    out.push_str(&format!(
        "# TYPE dblayout_build_info gauge\n\
         dblayout_build_info{{revision=\"{}\",version=\"{}\"}} 1\n",
        sanitize_label_value(&revision),
        sanitize_label_value(env!("CARGO_PKG_VERSION")),
    ));
}

/// Renders a snapshot in Prometheus text exposition format (the `metrics`
/// wire op's payload). Deterministic key order; quantiles are
/// bucket-resolution, in microseconds.
pub fn render_prometheus(s: &MetricsSnapshot) -> String {
    let c = &s.stats;
    let mut out = String::new();
    push_build_info(&mut out);
    push_counter(&mut out, "dblayout_requests_total", c.requests_total);
    push_counter(&mut out, "dblayout_errors_total", c.errors_total);
    push_counter(&mut out, "dblayout_connections_total", c.connections_total);
    push_counter(
        &mut out,
        "dblayout_requests_rejected_total",
        c.rejected_total,
    );
    push_counter(&mut out, "dblayout_cache_hits_total", c.cache_hits);
    push_counter(&mut out, "dblayout_cache_misses_total", c.cache_misses);
    push_counter(
        &mut out,
        "dblayout_trace_dropped_total",
        s.trace_dropped_total,
    );
    // The workspace-wide work-unit registry (obs::counters), in its fixed
    // exposition order.
    for (name, value) in s.work.pairs() {
        push_counter(&mut out, &format!("dblayout_{name}_total"), value);
    }
    push_gauge(
        &mut out,
        "dblayout_connections_open",
        c.gauges.connections_open,
    );
    push_gauge(&mut out, "dblayout_sessions_open", c.gauges.sessions_open);
    push_gauge(&mut out, "dblayout_cache_entries", c.gauges.cache_entries);
    push_summary(&mut out, "dblayout_request_latency_us", &c.latency);
    push_summary(&mut out, "dblayout_stage_compute_us", &c.stage_compute);
    push_summary(&mut out, "dblayout_stage_serialize_us", &c.stage_serialize);
    push_summary(
        &mut out,
        "dblayout_audit_replay_error_ppm",
        &s.audit_replay_error_ppm,
    );
    push_per_op_summaries(&mut out, s);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dblayout_obs::hist::{bucket_bound, bucket_index, SUB_BITS};

    #[test]
    fn empty_metrics_report_zero() {
        let m = Metrics::default();
        let s = m.snapshot();
        assert_eq!(s.stats.requests_total, 0);
        assert_eq!(s.stats.latency.p50_us, 0);
        assert_eq!(s.stats.cache_hit_rate, 0.0);
        assert_eq!(s.stats.gauges.connections_open, 0);
        assert_eq!(s.stats.rejected_total, 0);
        assert_eq!(s.stats.stage_compute.count, 0);
        assert!(s.per_op_latency.iter().all(|h| h.count == 0));
    }

    #[test]
    fn percentiles_track_bucket_bounds() {
        let m = Metrics::default();
        for _ in 0..99 {
            // 100 µs: octave 6 (64..128), sub-bucket [96, 104) — bound 103.
            m.observe_op_latency(Some(Op::Stats), Duration::from_micros(100));
        }
        m.observe_op_latency(Some(Op::Stats), Duration::from_millis(50)); // far slower outlier
        let s = m.snapshot().stats.latency;
        assert_eq!(s.p50_us, 103);
        assert!(s.p99_us <= 103, "p99 is still the common case");
        // Log-linear resolution: p50 within 12.5% of the true 100 µs.
        assert!((s.p50_us as f64) <= 100.0 * 1.125);
        for _ in 0..100 {
            m.observe_op_latency(Some(Op::Stats), Duration::from_millis(50));
        }
        let p99 = m.snapshot().stats.latency.p99_us;
        assert!(p99 >= 50_000 && (p99 as f64) <= 50_000.0 * 1.125, "{p99}");
    }

    #[test]
    fn hit_rate_is_derived() {
        let m = Metrics::default();
        m.cache_hits.fetch_add(3, Ordering::Relaxed);
        m.cache_misses.fetch_add(1, Ordering::Relaxed);
        assert_eq!(m.snapshot().stats.cache_hit_rate, 0.75);
    }

    /// Exact powers of two sit at the *bottom* of their octave's first
    /// sub-bucket: `2^k` µs reports `2^k + 2^(k-3) - 1`, and `2^k - 1`
    /// is the exact top of the previous octave.
    #[test]
    fn power_of_two_boundaries_land_in_their_bucket() {
        for k in SUB_BITS..63 {
            let h = Histogram::default();
            h.observe_us(1u64 << k);
            assert_eq!(
                h.snapshot().p50_us,
                (1u64 << k) + (1u64 << (k - SUB_BITS)) - 1,
                "2^{k} µs reports its sub-bucket's bound"
            );
            let h = Histogram::default();
            h.observe_us((1u64 << k) - 1);
            assert_eq!(
                h.snapshot().p50_us,
                (1u64 << k) - 1,
                "2^{k}-1 µs is an exact octave top"
            );
        }
        // Small values (below one octave of sub-buckets) are exact.
        for v in 1u64..8 {
            let h = Histogram::default();
            h.observe_us(v);
            assert_eq!(h.snapshot().p50_us, v);
        }
    }

    #[test]
    fn zero_and_one_microsecond_share_the_first_bucket() {
        let h = Histogram::default();
        h.observe(Duration::ZERO);
        h.observe(Duration::from_micros(1));
        let s = h.snapshot();
        assert_eq!(s.count, 2);
        assert_eq!(s.p50_us, 1);
        assert_eq!(s.p99_us, 1);
        // Zero clamps to 1 µs in the sum as well.
        assert_eq!(s.sum_us, 2);
    }

    /// `Duration::MAX` is ~5.8e14 years; its microsecond count overflows
    /// `u64`. It must saturate into the last bucket, not truncate into an
    /// arbitrary one.
    #[test]
    fn duration_max_saturates_into_last_bucket() {
        let h = Histogram::default();
        h.observe(Duration::MAX);
        assert_eq!(h.snapshot().p50_us, LAST_BUCKET_BOUND_US);
        assert_eq!(h.snapshot().p99_us, LAST_BUCKET_BOUND_US);
    }

    /// Regression for the racing-counts fallthrough: when the rank exceeds
    /// everything the scan sees (relaxed-atomic skew between the total and
    /// the per-bucket reads), the estimate is the last finite bucket bound,
    /// not a `u64::MAX` sentinel.
    #[test]
    fn rank_overshooting_counts_returns_last_bucket_bound() {
        let counts = [3u64, 2, 0, 1]; // total 6
        assert_eq!(percentile_from_counts(&counts, 7), LAST_BUCKET_BOUND_US);
        assert_ne!(percentile_from_counts(&counts, 7), u64::MAX);
        // In-range ranks still resolve normally (small buckets are exact).
        assert_eq!(percentile_from_counts(&counts, 1), bucket_bound(0));
        assert_eq!(percentile_from_counts(&counts, 4), bucket_bound(1));
        assert_eq!(percentile_from_counts(&counts, 6), bucket_bound(3));
        // Empty counts behave identically.
        assert_eq!(percentile_from_counts(&[], 1), LAST_BUCKET_BOUND_US);
    }

    /// The extended snapshot percentiles are ordered and max is exact.
    #[test]
    fn snapshot_percentiles_are_ordered_with_exact_max() {
        let h = Histogram::default();
        for i in 1..=1000u64 {
            h.observe_us(i);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert!(s.p50_us <= s.p90_us);
        assert!(s.p90_us <= s.p99_us);
        assert!(s.p99_us <= s.p999_us);
        assert!(s.p999_us <= s.max_us.max(bucket_bound(bucket_index(1000))));
        assert_eq!(s.max_us, 1000, "max is the exact observation");
        // p50 within resolution of the true median (500).
        assert!(s.p50_us >= 500 && (s.p50_us as f64) <= 500.0 * 1.125);
    }

    #[test]
    fn prometheus_exposition_contains_all_families() {
        let m = Metrics::default();
        m.requests_total.fetch_add(5, Ordering::Relaxed);
        m.rejected_total.fetch_add(3, Ordering::Relaxed);
        m.observe_op_latency(Some(Op::Stats), Duration::from_micros(100));
        m.stage_compute.observe(Duration::from_micros(80));
        m.stage_serialize.observe(Duration::from_micros(5));
        let text = render_prometheus(&m.snapshot_with_gauges(Gauges {
            connections_open: 2,
            sessions_open: 3,
            cache_entries: 4,
        }));
        assert!(text.contains("dblayout_requests_total 5\n"), "{text}");
        assert!(
            text.contains("dblayout_requests_rejected_total 3\n"),
            "{text}"
        );
        // One family per count: the busy sheds are not repeated under
        // another name.
        assert!(!text.contains("dblayout_rejected_total"), "{text}");
        assert!(text.contains("dblayout_connections_open 2\n"), "{text}");
        assert!(text.contains("dblayout_sessions_open 3\n"), "{text}");
        assert!(text.contains("dblayout_cache_entries 4\n"), "{text}");
        assert!(
            text.contains("dblayout_request_latency_us{quantile=\"0.5\"} 103\n"),
            "{text}"
        );
        for stage in ["compute", "serialize"] {
            assert!(
                text.contains(&format!("dblayout_stage_{stage}_us_count 1\n")),
                "missing stage {stage} in: {text}"
            );
        }
        // Every line is a comment or `name[{labels}] value`.
        for line in text.lines() {
            assert!(
                line.starts_with("# ") || line.split(' ').count() == 2,
                "malformed line: {line}"
            );
        }
    }

    /// The per-op family renders one TYPE line and labeled samples for
    /// exactly the ops that served requests, keeping the two-token shape.
    #[test]
    fn per_op_latency_family_renders_labeled_quantiles() {
        let m = Metrics::default();
        m.observe_op_latency(Some(Op::Stats), Duration::from_micros(50));
        m.observe_op_latency(Some(Op::Stats), Duration::from_micros(60));
        m.observe_op_latency(Some(Op::Recommend), Duration::from_millis(3));
        m.observe_op_latency(None, Duration::from_micros(10)); // -> invalid
        let text = render_prometheus(&m.snapshot());
        assert_eq!(
            text.matches("# TYPE dblayout_request_latency_by_op_us summary\n")
                .count(),
            1
        );
        assert!(
            text.contains("dblayout_request_latency_by_op_us{op=\"stats\",quantile=\"0.5\"}"),
            "{text}"
        );
        assert!(
            text.contains("dblayout_request_latency_by_op_us{op=\"recommend\",quantile=\"0.999\"}"),
            "{text}"
        );
        assert!(
            text.contains("dblayout_request_latency_by_op_us_count{op=\"stats\"} 2\n"),
            "{text}"
        );
        // Unparseable requests land in the invalid slot.
        assert!(
            text.contains("dblayout_request_latency_by_op_us_count{op=\"invalid\"} 1\n"),
            "{text}"
        );
        // Ops that never served a request are elided.
        assert!(!text.contains("{op=\"trace\""), "{text}");
        // Overall latency saw every observation.
        assert!(
            text.contains("dblayout_request_latency_us_count 4\n"),
            "{text}"
        );
        for line in text.lines() {
            assert!(
                line.starts_with("# ") || line.split(' ').count() == 2,
                "malformed line: {line}"
            );
        }
    }

    #[test]
    fn exposition_includes_trace_loss_and_work_counters() {
        let m = Metrics::default();
        let mut s = m.snapshot();
        s.trace_dropped_total = 7;
        let text = render_prometheus(&s);
        assert!(text.contains("dblayout_trace_dropped_total 7\n"), "{text}");
        // Every registry counter appears as a `_total` family.
        for (name, _) in s.work.pairs() {
            assert!(
                text.contains(&format!("# TYPE dblayout_{name}_total counter\n")),
                "registry counter {name} missing from: {text}"
            );
        }
    }

    /// Format correctness: every emitted sample family has exactly one
    /// `# TYPE` line, declared before its first sample, and every metric
    /// name is legal (`[a-zA-Z_:][a-zA-Z0-9_:]*`).
    #[test]
    fn every_family_has_a_type_line_and_legal_name() {
        let m = Metrics::default();
        m.observe_op_latency(Some(Op::Stats), Duration::from_micros(50));
        m.observe_op_latency(Some(Op::WhatifCost), Duration::from_micros(120));
        let text = render_prometheus(&m.snapshot());
        let mut typed: Vec<String> = Vec::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut parts = rest.split(' ');
                let fam = parts.next().unwrap_or("").to_string();
                let kind = parts.next().unwrap_or("");
                assert!(
                    matches!(kind, "counter" | "gauge" | "summary"),
                    "unknown TYPE kind in: {line}"
                );
                assert!(!typed.contains(&fam), "duplicate TYPE for {fam}");
                typed.push(fam);
                continue;
            }
            let name_part = line.split([' ', '{']).next().unwrap_or("");
            // Samples belong to a family declared above: the name itself,
            // or a summary's `_sum`/`_count` companion series.
            let family = name_part
                .strip_suffix("_sum")
                .or_else(|| name_part.strip_suffix("_count"))
                .filter(|f| typed.contains(&(*f).to_string()))
                .unwrap_or(name_part);
            assert!(
                typed.contains(&family.to_string()),
                "sample `{line}` precedes its # TYPE declaration"
            );
            let mut chars = name_part.chars();
            let first = chars.next().unwrap();
            assert!(
                first.is_ascii_alphabetic() || first == '_' || first == ':',
                "illegal first char in metric name: {name_part}"
            );
            assert!(
                chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "illegal metric name: {name_part}"
            );
        }
        assert!(!typed.is_empty());
    }

    /// The build-identity gauge and both audit families render with type
    /// lines, and every emitted line keeps the two-token shape even with
    /// the labeled build_info sample present.
    #[test]
    fn exposition_includes_build_info_and_audit_families() {
        let m = Metrics::default();
        m.audit_replay_error_ppm.observe_us(25);
        let text = render_prometheus(&m.snapshot());
        assert!(
            text.contains("# TYPE dblayout_build_info gauge\n"),
            "{text}"
        );
        assert!(text.contains("dblayout_build_info{revision=\""), "{text}");
        assert!(text.contains(&format!("version=\"{}\"}} 1\n", env!("CARGO_PKG_VERSION"))));
        assert!(
            text.contains("# TYPE dblayout_audit_records_written_total counter\n"),
            "{text}"
        );
        assert!(!text.contains("dblayout_audit_records_total"), "{text}");
        assert!(
            text.contains("dblayout_audit_replay_error_ppm_count 1\n"),
            "{text}"
        );
        for line in text.lines() {
            assert!(
                line.starts_with("# ") || line.split(' ').count() == 2,
                "malformed line: {line}"
            );
        }
    }

    /// Label sanitation folds whitespace (which would break the
    /// one-sample-per-line shape) and still escapes quotes/backslashes.
    #[test]
    fn sanitized_labels_contain_no_whitespace() {
        assert_eq!(sanitize_label_value("a b\tc"), "a_b_c");
        assert_eq!(sanitize_label_value("a\"b"), "a\\\"b");
        assert_eq!(sanitize_label_value("v0.1.0"), "v0.1.0");
    }

    #[test]
    fn label_values_are_escaped() {
        assert_eq!(escape_label_value("0.99"), "0.99");
        assert_eq!(escape_label_value("a\"b"), "a\\\"b");
        assert_eq!(escape_label_value("a\\b"), "a\\\\b");
        assert_eq!(escape_label_value("a\nb"), "a\\nb");
        // The rendered quantile labels parse as quoted strings.
        let m = Metrics::default();
        m.observe_op_latency(Some(Op::Stats), Duration::from_micros(10));
        let text = render_prometheus(&m.snapshot());
        assert!(text.contains("{quantile=\"0.5\"}"), "{text}");
        assert!(text.contains("{quantile=\"0.99\"}"), "{text}");
        assert!(text.contains("{quantile=\"0.999\"}"), "{text}");
    }

    /// Counter monotonicity across the exposition boundary: registry
    /// increments between two renders can only increase the exported
    /// `_total` values (8-thread hammering of the registry itself lives
    /// in `dblayout_obs::counters`).
    #[test]
    fn rendered_work_counters_are_monotonic() {
        use dblayout_obs::counters::Counter;
        let m = Metrics::default();
        let before = m.snapshot();
        counters::add(Counter::ServerCacheHits, 3);
        let after = m.snapshot();
        for ((name, b), (_, a)) in before.work.pairs().into_iter().zip(after.work.pairs()) {
            assert!(a >= b, "{name} went backwards: {b} -> {a}");
        }
        assert!(
            after.work.get(Counter::ServerCacheHits)
                >= before.work.get(Counter::ServerCacheHits) + 3
        );
    }
}
