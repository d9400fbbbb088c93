//! The benchmark-regression observatory (`dblayout-prof`).
//!
//! Benches append one [`HistoryEntry`] per run to a repo-root history file
//! (`BENCH_search.json`, `BENCH_server.json`): a JSON array where every
//! element records the git revision, a config fingerprint, per-metric wall
//! times, per-phase attribution, and the deterministic work-counter
//! snapshot. `dblayout benchdiff <baseline> <current>` then compares two
//! histories with noise-aware thresholds:
//!
//! * **Timings** are compared median-vs-median over the last
//!   [`DiffOptions::window`] entries of each history, and only flagged when
//!   the current median exceeds the baseline median by more than
//!   [`DiffOptions::tolerance`] (relative) *and* the absolute times are
//!   above [`DiffOptions::min_ms`] — sub-millisecond metrics are all noise.
//! * **Deterministic counters** (the dblayout-par fingerprint:
//!   candidates enumerated/scored/adopted, delta vs. full re-costs, graph
//!   folds) are compared exactly between the latest entries, but only when
//!   both ran the same config. Any divergence is a hard failure regardless
//!   of timing tolerance — it means the *work done* changed, not the clock.
//!
//! The diff never compares scheduling-class counters (chunk sizes, pool
//! fallbacks); those legitimately vary run to run.

use std::path::Path;

use serde_json::{Value, ValueExt};

/// One appended bench run.
#[derive(Debug, Clone, Default)]
pub struct HistoryEntry {
    /// Git revision of the measured tree (short hash, or `unknown`).
    pub rev: String,
    /// Config fingerprint; counter comparison requires equal fingerprints.
    pub config: String,
    /// Thread counts exercised by the run.
    pub threads: Vec<usize>,
    /// Named wall-time metrics, milliseconds (the regression gate).
    pub timings_ms: Vec<(String, f64)>,
    /// Per-phase wall-time attribution, milliseconds (informational).
    pub phases_ms: Vec<(String, f64)>,
    /// Deterministic work counters (the exact-equality gate).
    pub counters: Vec<(String, u64)>,
}

impl HistoryEntry {
    /// The JSON object appended to the history file.
    pub fn to_value(&self) -> Value {
        let map = |pairs: &[(String, f64)]| {
            Value::Map(
                pairs
                    .iter()
                    .map(|(k, v)| (k.clone(), Value::F64(*v)))
                    .collect(),
            )
        };
        Value::Map(vec![
            ("rev".to_string(), Value::Str(self.rev.clone())),
            ("config".to_string(), Value::Str(self.config.clone())),
            (
                "threads".to_string(),
                Value::Seq(self.threads.iter().map(|&t| Value::U64(t as u64)).collect()),
            ),
            ("timings_ms".to_string(), map(&self.timings_ms)),
            ("phases_ms".to_string(), map(&self.phases_ms)),
            (
                "counters".to_string(),
                Value::Map(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::U64(*v)))
                        .collect(),
                ),
            ),
        ])
    }
}

/// The git revision of the tree at `root`: the short `HEAD` hash, plus
/// `+<12-hex tree hash>` when the working tree differs from `HEAD`, so a
/// row measured before its change is committed is still attributable and
/// tells parent rows from change rows. The bench outputs (`BENCH_*.json`
/// histories, `results/`) are left out of that comparison: appending a
/// row does not change what was measured. `unknown` when the `git` binary
/// and `.git` metadata are both unavailable. Never fails: the observatory
/// must work in tarball checkouts too.
pub fn git_rev(root: &Path) -> String {
    let git = |args: &[&str]| git_output(root, args, None).filter(|out| !out.is_empty());
    if let Some(head) = git(&["rev-parse", "--short=12", "HEAD"]) {
        return match (worktree_tree(root), git(&["rev-parse", "HEAD^{tree}"])) {
            (Some(tree), Some(head_tree)) if tree != head_tree => {
                format!("{head}+{}", &tree[..tree.len().min(12)])
            }
            _ => head,
        };
    }
    // Fallback: read `.git/HEAD` directly (detached or symbolic).
    let head_path = root.join(".git/HEAD");
    if let Ok(head) = std::fs::read_to_string(&head_path) {
        let head = head.trim();
        let hash = match head.strip_prefix("ref: ") {
            Some(r) => std::fs::read_to_string(root.join(".git").join(r))
                .map(|s| s.trim().to_string())
                .unwrap_or_default(),
            None => head.to_string(),
        };
        if hash.len() >= 12 && hash.chars().all(|c| c.is_ascii_hexdigit()) {
            return hash[..12].to_string();
        }
    }
    "unknown".to_string()
}

/// Trimmed stdout of `git -C root <args>`, `None` when git cannot run or
/// fails. `index` points git at another index file than the repository's.
fn git_output(root: &Path, args: &[&str], index: Option<&Path>) -> Option<String> {
    let mut cmd = std::process::Command::new("git");
    cmd.arg("-C").arg(root).args(args);
    if let Some(index) = index {
        cmd.env("GIT_INDEX_FILE", index);
    }
    let out = cmd.output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The tree hash `git write-tree` gives for the working tree at `root`
/// (untracked files included, ignored ones not), with the bench outputs
/// kept at their `HEAD` versions. It is staged in a temporary index, so
/// the repository's own index is never touched.
fn worktree_tree(root: &Path) -> Option<String> {
    // `create_dir` is atomic, so concurrent stamps never share an index.
    let dir = (0..1024).find_map(|n| {
        let dir = std::env::temp_dir().join(format!("dblayout-rev-{}-{n}", std::process::id()));
        std::fs::create_dir(&dir).ok().map(|()| dir)
    })?;
    let index = dir.join("index");
    let stage = [
        "add",
        "-A",
        "--",
        ".",
        ":(exclude,glob)BENCH_*.json",
        ":(exclude)results",
    ];
    let tree = git_output(root, &["read-tree", "HEAD"], Some(&index))
        .and_then(|_| git_output(root, &stage, Some(&index)))
        .and_then(|_| git_output(root, &["write-tree"], Some(&index)));
    if let Err(e) = std::fs::remove_dir_all(&dir) {
        eprintln!("warning: cannot remove `{}`: {e}", dir.display());
    }
    tree.filter(|t| !t.is_empty())
}

/// Appends `entry` to the JSON-array history at `path`, creating the file
/// (and parent directories) on first use. Returns the new entry count.
/// Only a missing file starts a new history: any other read error (an
/// unreadable file, bytes that are not UTF-8) fails and leaves the file
/// as it is.
pub fn append_history(path: &Path, entry: &HistoryEntry) -> Result<usize, String> {
    let mut entries: Vec<Value> = match std::fs::read_to_string(path) {
        Ok(text) => {
            let v: Value = serde_json::from_str(&text)
                .map_err(|e| format!("history `{}` is not valid JSON: {e}", path.display()))?;
            v.as_array()
                .cloned()
                .ok_or_else(|| format!("history `{}` is not a JSON array", path.display()))?
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(format!("cannot read history `{}`: {e}", path.display())),
    };
    entries.push(entry.to_value());
    let n = entries.len();
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("cannot create `{}`: {e}", parent.display()))?;
        }
    }
    let json = serde_json::to_string_pretty(&Value::Seq(entries))
        .map_err(|e| format!("cannot serialize history: {e}"))?;
    std::fs::write(path, json).map_err(|e| format!("cannot write `{}`: {e}", path.display()))?;
    Ok(n)
}

/// Loads a history file as its entry array.
pub fn load_history(path: &Path) -> Result<Vec<Value>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read `{}`: {e}", path.display()))?;
    let v: Value = serde_json::from_str(&text)
        .map_err(|e| format!("history `{}` is not valid JSON: {e}", path.display()))?;
    v.as_array()
        .cloned()
        .ok_or_else(|| format!("history `{}` is not a JSON array", path.display()))
}

/// Thresholds for [`diff`].
#[derive(Debug, Clone)]
pub struct DiffOptions {
    /// Relative slowdown above which a timing metric regresses (0.5 = 50%).
    pub tolerance: f64,
    /// Entries from the tail of each history whose median is compared.
    pub window: usize,
    /// Skip the exact counter gate (adaptive-iteration benches).
    pub ignore_counters: bool,
    /// Skip the counter gate only for config groups whose config string
    /// contains one of these substrings — lets one history mix
    /// adaptive-iteration rows (criterion benches, counters incomparable)
    /// with deterministic rows (loadtest mixes, counters exact-gated).
    pub ignore_counters_for: Vec<String>,
    /// Both medians must exceed this for a timing to count (noise floor).
    pub min_ms: f64,
    /// Speedup gates: `(fast, slow)` metric-name pairs asserting that in
    /// the *current* history, `fast`'s windowed median is not slower than
    /// `slow`'s beyond [`DiffOptions::tolerance`] — "parallelism pays"
    /// as a regression gate rather than a one-off claim. A gate naming a
    /// metric the current history lacks is a hard failure.
    pub not_slower: Vec<(String, String)>,
}

impl Default for DiffOptions {
    fn default() -> Self {
        Self {
            tolerance: 0.5,
            window: 5,
            ignore_counters: false,
            ignore_counters_for: Vec::new(),
            min_ms: 1.0,
            not_slower: Vec::new(),
        }
    }
}

/// One compared timing metric.
#[derive(Debug, Clone)]
pub struct MetricDelta {
    /// Metric name from `timings_ms`.
    pub metric: String,
    /// Median over the baseline window, ms.
    pub baseline_ms: f64,
    /// Median over the current window, ms.
    pub current_ms: f64,
    /// `current / baseline` (infinite when the baseline is zero).
    pub ratio: f64,
    /// Beyond tolerance and above the noise floor.
    pub regressed: bool,
}

/// One deterministic counter whose value changed between runs.
#[derive(Debug, Clone)]
pub struct CounterDivergence {
    /// Counter name.
    pub name: String,
    /// Value in the latest baseline entry.
    pub baseline: u64,
    /// Value in the latest current entry.
    pub current: u64,
}

/// One evaluated [`DiffOptions::not_slower`] gate.
#[derive(Debug, Clone)]
pub struct SpeedupGate {
    /// Metric expected to be at least as fast.
    pub fast: String,
    /// Metric it is measured against.
    pub slow: String,
    /// Windowed median of `fast` in the current history, ms.
    pub fast_ms: f64,
    /// Windowed median of `slow` in the current history, ms.
    pub slow_ms: f64,
    /// `fast / slow` (infinite when `slow` is zero).
    pub ratio: f64,
    /// `fast` exceeded `slow` beyond tolerance, above the noise floor.
    pub violated: bool,
}

/// The outcome of comparing two bench histories.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    /// Every timing metric present in the baseline.
    pub metrics: Vec<MetricDelta>,
    /// Deterministic counters that diverged (always a hard failure).
    pub counter_divergences: Vec<CounterDivergence>,
    /// Whether any counter gate ran (matching config group, not ignored).
    pub counters_compared: bool,
    /// Baseline metrics the current history lacks (a hard failure: a
    /// silently dropped measurement must not read as "no regression").
    /// A whole baseline config group missing from the current history
    /// lands all of its metrics here.
    pub missing_metrics: Vec<String>,
    /// Evaluated speedup gates ([`DiffOptions::not_slower`]).
    pub speedup_gates: Vec<SpeedupGate>,
}

impl DiffReport {
    /// True when `benchdiff` should exit non-zero.
    pub fn regressed(&self) -> bool {
        !self.missing_metrics.is_empty()
            || !self.counter_divergences.is_empty()
            || self.metrics.iter().any(|m| m.regressed)
            || self.speedup_gates.iter().any(|g| g.violated)
    }

    /// The human-readable delta table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<34} {:>12} {:>12} {:>8}  {}\n",
            "metric", "baseline ms", "current ms", "ratio", "status"
        ));
        for m in &self.metrics {
            out.push_str(&format!(
                "{:<34} {:>12.2} {:>12.2} {:>7.2}x  {}\n",
                m.metric,
                m.baseline_ms,
                m.current_ms,
                m.ratio,
                if m.regressed { "REGRESSED" } else { "ok" }
            ));
        }
        for name in &self.missing_metrics {
            out.push_str(&format!("{name:<34} missing from current history\n"));
        }
        for g in &self.speedup_gates {
            out.push_str(&format!(
                "not-slower {:<23} {:>12.2} {:>12.2} {:>7.2}x  {}\n",
                format!("{} vs {}", g.fast, g.slow),
                g.fast_ms,
                g.slow_ms,
                g.ratio,
                if g.violated { "VIOLATED" } else { "ok" }
            ));
        }
        if self.counters_compared {
            if self.counter_divergences.is_empty() {
                out.push_str("deterministic counters: identical\n");
            } else {
                for c in &self.counter_divergences {
                    out.push_str(&format!(
                        "counter {} diverged: baseline {} -> current {}\n",
                        c.name, c.baseline, c.current
                    ));
                }
            }
        } else {
            out.push_str(
                "deterministic counters: not compared (config mismatch or --ignore-counters)\n",
            );
        }
        out.push_str(if self.regressed() {
            "verdict: REGRESSED\n"
        } else {
            "verdict: ok\n"
        });
        out
    }
}

fn median(mut xs: Vec<f64>) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    xs.sort_by(|a, b| a.total_cmp(b));
    Some(xs[xs.len() / 2])
}

/// Median of `timings_ms[metric]` over the last `window` entries that
/// actually carry the metric.
fn windowed_median(entries: &[&Value], metric: &str, window: usize) -> Option<f64> {
    let values: Vec<f64> = entries
        .iter()
        .filter_map(|e| e.get("timings_ms")?.get(metric)?.as_f64())
        .collect();
    let tail = &values[values.len().saturating_sub(window.max(1))..];
    median(tail.to_vec())
}

/// All timing-metric names of an entry, in file order.
fn metric_names(entry: &Value) -> Vec<String> {
    match entry.get("timings_ms") {
        Some(Value::Map(pairs)) => pairs.iter().map(|(k, _)| k.clone()).collect(),
        _ => Vec::new(),
    }
}

fn str_field(entry: &Value, key: &str) -> String {
    entry
        .get(key)
        .and_then(|v| v.as_str())
        .unwrap_or_default()
        .to_string()
}

/// Partitions a history by its entries' config fingerprints, preserving
/// first-seen order (no hashing — the report must be deterministic).
/// One history file carries every bench family (tpch_mix, wkmega, ...);
/// comparing across families would be meaningless.
fn group_by_config(entries: &[Value]) -> Vec<(String, Vec<&Value>)> {
    let mut groups: Vec<(String, Vec<&Value>)> = Vec::new();
    for e in entries {
        let config = str_field(e, "config");
        match groups.iter_mut().find(|(c, _)| *c == config) {
            Some((_, list)) => list.push(e),
            None => groups.push((config, vec![e])),
        }
    }
    groups
}

/// Compares two bench histories (arrays of [`HistoryEntry`] objects).
///
/// Entries are grouped by config fingerprint and compared group against
/// group: windowed timing medians within each group, exact counters
/// between each group's latest entries. A baseline group with no current
/// counterpart is a hard failure (its metrics report as missing) — a
/// bench family that silently stopped running must not read as "no
/// regression". [`DiffOptions::not_slower`] gates are evaluated on the
/// current history alone.
///
/// Returns an error only for structurally empty inputs; a regression is a
/// *successful* diff whose [`DiffReport::regressed`] is true.
pub fn diff(
    baseline: &[Value],
    current: &[Value],
    opts: &DiffOptions,
) -> Result<DiffReport, String> {
    if baseline.is_empty() {
        return Err("baseline history is empty".to_string());
    }
    if current.is_empty() {
        return Err("current history is empty".to_string());
    }

    let cur_groups = group_by_config(current);
    let mut report = DiffReport::default();
    for (config, base_entries) in group_by_config(baseline) {
        let cur_entries = cur_groups
            .iter()
            .find(|(c, _)| *c == config)
            .map(|(_, l)| l);
        let base_last = base_entries[base_entries.len() - 1];
        let Some(cur_entries) = cur_entries else {
            report.missing_metrics.extend(metric_names(base_last));
            continue;
        };
        for metric in metric_names(base_last) {
            let Some(baseline_ms) = windowed_median(&base_entries, &metric, opts.window) else {
                continue;
            };
            let Some(current_ms) = windowed_median(cur_entries, &metric, opts.window) else {
                report.missing_metrics.push(metric);
                continue;
            };
            let ratio = if baseline_ms > 0.0 {
                current_ms / baseline_ms
            } else {
                f64::INFINITY
            };
            let above_floor = baseline_ms > opts.min_ms && current_ms > opts.min_ms;
            report.metrics.push(MetricDelta {
                metric,
                baseline_ms,
                current_ms,
                ratio,
                regressed: above_floor && current_ms > baseline_ms * (1.0 + opts.tolerance),
            });
        }

        if config.is_empty()
            || opts.ignore_counters
            || opts
                .ignore_counters_for
                .iter()
                .any(|pat| config.contains(pat.as_str()))
        {
            continue;
        }
        report.counters_compared = true;
        let cur_last = cur_entries[cur_entries.len() - 1];
        if let (Some(Value::Map(base_c)), Some(cur_c)) =
            (base_last.get("counters"), cur_last.get("counters"))
        {
            for (name, bval) in base_c {
                let b = bval.as_u64().unwrap_or(0);
                let c = cur_c.get(name).and_then(|v| v.as_u64()).unwrap_or(0);
                if b != c {
                    report.counter_divergences.push(CounterDivergence {
                        name: name.clone(),
                        baseline: b,
                        current: c,
                    });
                }
            }
        }
    }

    let all_current: Vec<&Value> = current.iter().collect();
    for (fast, slow) in &opts.not_slower {
        let fast_ms = windowed_median(&all_current, fast, opts.window);
        let slow_ms = windowed_median(&all_current, slow, opts.window);
        let (Some(fast_ms), Some(slow_ms)) = (fast_ms, slow_ms) else {
            if fast_ms.is_none() {
                report.missing_metrics.push(fast.clone());
            }
            if slow_ms.is_none() {
                report.missing_metrics.push(slow.clone());
            }
            continue;
        };
        let ratio = if slow_ms > 0.0 {
            fast_ms / slow_ms
        } else {
            f64::INFINITY
        };
        let above_floor = fast_ms > opts.min_ms && slow_ms > opts.min_ms;
        report.speedup_gates.push(SpeedupGate {
            fast: fast.clone(),
            slow: slow.clone(),
            fast_ms,
            slow_ms,
            ratio,
            violated: above_floor && fast_ms > slow_ms * (1.0 + opts.tolerance),
        });
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(config: &str, timing: f64, counter: u64) -> HistoryEntry {
        HistoryEntry {
            rev: "deadbeef0123".to_string(),
            config: config.to_string(),
            threads: vec![1, 4],
            timings_ms: vec![
                ("incremental/t4".to_string(), timing),
                ("tiny/noise".to_string(), 0.04),
            ],
            phases_ms: vec![("search".to_string(), timing)],
            counters: vec![("tsgreedy_candidates_enumerated".to_string(), counter)],
        }
    }

    fn history(entries: &[HistoryEntry]) -> Vec<Value> {
        entries.iter().map(HistoryEntry::to_value).collect()
    }

    #[test]
    fn identical_histories_pass() {
        let h = history(&[entry("c", 100.0, 42)]);
        let report = diff(&h, &h, &DiffOptions::default()).unwrap();
        assert!(!report.regressed(), "{}", report.render());
        assert!(report.counters_compared);
        assert!(report.render().contains("verdict: ok"));
    }

    #[test]
    fn two_x_slowdown_regresses() {
        let base = history(&[entry("c", 100.0, 42)]);
        let cur = history(&[entry("c", 200.0, 42)]);
        let report = diff(&base, &cur, &DiffOptions::default()).unwrap();
        assert!(report.regressed());
        let m = report
            .metrics
            .iter()
            .find(|m| m.metric == "incremental/t4")
            .unwrap();
        assert!(m.regressed);
        assert!((m.ratio - 2.0).abs() < 1e-9);
        assert!(report.render().contains("REGRESSED"));
    }

    #[test]
    fn counter_divergence_fails_even_with_huge_tolerance() {
        let base = history(&[entry("c", 100.0, 42)]);
        let cur = history(&[entry("c", 100.0, 43)]);
        let opts = DiffOptions {
            tolerance: 100.0,
            ..DiffOptions::default()
        };
        let report = diff(&base, &cur, &opts).unwrap();
        assert!(report.regressed(), "work-done change must hard-fail");
        assert_eq!(report.counter_divergences.len(), 1);
        assert_eq!(report.counter_divergences[0].baseline, 42);
        assert_eq!(report.counter_divergences[0].current, 43);
    }

    #[test]
    fn ignore_counters_skips_the_counter_gate() {
        let base = history(&[entry("c", 100.0, 42)]);
        let cur = history(&[entry("c", 100.0, 43)]);
        let opts = DiffOptions {
            ignore_counters: true,
            ..DiffOptions::default()
        };
        let report = diff(&base, &cur, &opts).unwrap();
        assert!(!report.counters_compared);
        assert!(!report.regressed());
    }

    #[test]
    fn ignore_counters_for_is_scoped_to_matching_configs() {
        // Two config groups in one history: an adaptive criterion row
        // (counters incomparable) and a deterministic loadtest row. The
        // substring skip must exempt only the former.
        let base = history(&[
            entry("workload=tpch22;adaptive_iterations", 100.0, 42),
            entry("loadtest;mode=open;seed=42", 100.0, 1000),
        ]);
        let drifted = history(&[
            entry("workload=tpch22;adaptive_iterations", 100.0, 43),
            entry("loadtest;mode=open;seed=42", 100.0, 1000),
        ]);
        let opts = DiffOptions {
            ignore_counters_for: vec!["adaptive_iterations".to_string()],
            ..DiffOptions::default()
        };
        let report = diff(&base, &drifted, &opts).unwrap();
        assert!(
            !report.regressed(),
            "criterion counter drift must be exempt: {}",
            report.render()
        );
        assert!(report.counters_compared, "loadtest group still gates");

        // The same divergence in the loadtest group still hard-fails.
        let mix_changed = history(&[
            entry("workload=tpch22;adaptive_iterations", 100.0, 43),
            entry("loadtest;mode=open;seed=42", 100.0, 999),
        ]);
        let report = diff(&base, &mix_changed, &opts).unwrap();
        assert!(report.regressed(), "loadtest mix drift must fail");
        assert_eq!(report.counter_divergences.len(), 1);
    }

    #[test]
    fn baseline_config_group_missing_from_current_is_a_hard_failure() {
        // The baseline measured config "c"; the current history only ever
        // ran config "d" — a bench family that silently stopped running.
        let base = history(&[entry("c", 100.0, 42)]);
        let other = history(&[entry("d", 100.0, 43)]);
        let report = diff(&base, &other, &DiffOptions::default()).unwrap();
        assert!(report.regressed());
        assert!(report
            .missing_metrics
            .contains(&"incremental/t4".to_string()));
    }

    #[test]
    fn config_groups_are_compared_independently() {
        // Interleaved families in one file: tpch entries around a mega
        // entry. Grouping must compare c-entries to c-entries (median 100)
        // and the lone m-entry to its counterpart, not mix the medians.
        let mut mega = entry("m", 500.0, 7);
        mega.timings_ms = vec![("mega/serial".to_string(), 500.0)];
        let base = history(&[
            entry("c", 100.0, 42),
            mega.clone(),
            entry("c", 100.0, 42),
            entry("c", 100.0, 42),
        ]);
        let cur = history(&[entry("c", 110.0, 42), mega.clone(), entry("c", 110.0, 42)]);
        let report = diff(&base, &cur, &DiffOptions::default()).unwrap();
        assert!(!report.regressed(), "{}", report.render());
        assert!(report.counters_compared);
        let mega_metric = report
            .metrics
            .iter()
            .find(|m| m.metric == "mega/serial")
            .unwrap();
        assert!((mega_metric.ratio - 1.0).abs() < 1e-9);
        // Divergent counters in the mega group alone are still caught.
        let mut mega_diverged = mega.clone();
        mega_diverged.counters = vec![("tsgreedy_candidates_enumerated".to_string(), 8)];
        let cur2 = history(&[entry("c", 100.0, 42), mega_diverged, entry("c", 100.0, 42)]);
        let report2 = diff(&base, &cur2, &DiffOptions::default()).unwrap();
        assert!(report2.regressed());
        assert_eq!(report2.counter_divergences.len(), 1);
    }

    #[test]
    fn not_slower_gate_passes_within_tolerance_and_fails_beyond() {
        let mut e = entry("c", 100.0, 42);
        e.timings_ms = vec![
            ("search/t4".to_string(), 120.0),
            ("search/t1".to_string(), 100.0),
        ];
        let h = history(&[e]);
        let gated = |tolerance: f64| DiffOptions {
            tolerance,
            not_slower: vec![("search/t4".to_string(), "search/t1".to_string())],
            ..DiffOptions::default()
        };
        // 1.2x is within the 50% tolerance...
        let report = diff(&h, &h, &gated(0.5)).unwrap();
        assert!(!report.regressed(), "{}", report.render());
        assert_eq!(report.speedup_gates.len(), 1);
        assert!((report.speedup_gates[0].ratio - 1.2).abs() < 1e-9);
        // ...but not within 10%.
        let report = diff(&h, &h, &gated(0.1)).unwrap();
        assert!(report.regressed());
        assert!(report.speedup_gates[0].violated);
        assert!(report.render().contains("VIOLATED"));
    }

    #[test]
    fn not_slower_gate_with_missing_metric_is_a_hard_failure() {
        let h = history(&[entry("c", 100.0, 42)]);
        let opts = DiffOptions {
            not_slower: vec![("search/t4".to_string(), "incremental/t4".to_string())],
            ..DiffOptions::default()
        };
        let report = diff(&h, &h, &opts).unwrap();
        assert!(report.regressed());
        assert!(report.missing_metrics.contains(&"search/t4".to_string()));
    }

    #[test]
    fn sub_noise_floor_timings_never_regress() {
        // "tiny/noise" doubles but sits under min_ms — stays ok.
        let base = history(&[entry("c", 100.0, 42)]);
        let mut slow = entry("c", 100.0, 42);
        slow.timings_ms[1].1 = 0.9;
        let cur = history(&[slow]);
        assert!(!diff(&base, &cur, &DiffOptions::default())
            .unwrap()
            .regressed());
    }

    #[test]
    fn missing_metric_is_a_hard_failure() {
        let base = history(&[entry("c", 100.0, 42)]);
        let mut cur_entry = entry("c", 100.0, 42);
        cur_entry.timings_ms.remove(0);
        let report = diff(&base, &history(&[cur_entry]), &DiffOptions::default()).unwrap();
        assert_eq!(report.missing_metrics, vec!["incremental/t4".to_string()]);
        assert!(report.regressed());
    }

    #[test]
    fn median_window_absorbs_one_outlier() {
        // Baseline window of 3 with one slow outlier; current matches the
        // typical value — no regression.
        let base = history(&[
            entry("c", 100.0, 42),
            entry("c", 350.0, 42),
            entry("c", 100.0, 42),
        ]);
        let cur = history(&[entry("c", 110.0, 42)]);
        let report = diff(&base, &cur, &DiffOptions::default()).unwrap();
        assert!(!report.regressed(), "{}", report.render());
    }

    #[test]
    fn history_file_roundtrip_appends() {
        let dir = std::env::temp_dir().join(format!("dblayout_observatory_{}", std::process::id()));
        let path = dir.join("BENCH_test.json");
        let _ = std::fs::remove_file(&path);
        assert_eq!(append_history(&path, &entry("c", 1.0, 1)).unwrap(), 1);
        assert_eq!(append_history(&path, &entry("c", 2.0, 1)).unwrap(), 2);
        let loaded = load_history(&path).unwrap();
        assert_eq!(loaded.len(), 2);
        assert_eq!(
            loaded[1]
                .get("timings_ms")
                .and_then(|t| t.get("incremental/t4"))
                .and_then(|v| v.as_f64()),
            Some(2.0)
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn unreadable_history_is_an_error_and_stays_untouched() {
        let dir =
            std::env::temp_dir().join(format!("dblayout_observatory_utf8_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_test.json");
        let bytes = b"[{\"rev\": \"\xff\xfe\"}]".to_vec();
        std::fs::write(&path, &bytes).unwrap();
        let err = append_history(&path, &entry("c", 1.0, 1)).unwrap_err();
        assert!(err.contains("cannot read history"), "{err}");
        assert_eq!(std::fs::read(&path).unwrap(), bytes);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn git_rev_in_this_repo_is_a_short_hash() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let rev = git_rev(&root);
        // `HEAD`, plus a tree hash while the working tree differs from it.
        let hex12 = |s: &str| s.len() == 12 && s.chars().all(|c| c.is_ascii_hexdigit());
        let mut parts = rev.split('+');
        assert!(
            rev == "unknown"
                || (parts.next().is_some_and(hex12)
                    && parts.next().is_none_or(hex12)
                    && parts.next().is_none()),
            "{rev}"
        );
    }

    /// On a scratch repository: a clean tree stamps `HEAD`; bench outputs
    /// do not count as a difference; a changed or new source file stamps
    /// `HEAD+<tree>`, where `<tree>` is what `git write-tree` gives once
    /// the change is staged; the repository's own index stays untouched.
    #[test]
    fn git_rev_stamps_the_working_tree_hash_of_an_uncommitted_change() {
        let dir = std::env::temp_dir().join(format!("dblayout-git-rev-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("results")).unwrap();
        let git = |args: &[&str]| -> Option<String> {
            let out = std::process::Command::new("git")
                .arg("-C")
                .arg(&dir)
                .args(["-c", "user.name=bench", "-c", "user.email=bench@localhost"])
                .args(["-c", "commit.gpgsign=false"])
                .args(args)
                .output()
                .ok()?;
            out.status
                .success()
                .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        };
        if git(&["init", "-q"]).is_none() {
            return; // no git here: nothing to stamp
        }
        std::fs::write(dir.join("src.rs"), "fn main() {}\n").unwrap();
        git(&["add", "src.rs"]).unwrap();
        git(&["commit", "-q", "-m", "init"]).unwrap();
        let head = git(&["rev-parse", "--short=12", "HEAD"]).unwrap();
        assert_eq!(git_rev(&dir), head);

        std::fs::write(dir.join("BENCH_search.json"), "[]").unwrap();
        std::fs::write(dir.join("results/search_bench.json"), "{}").unwrap();
        assert_eq!(git_rev(&dir), head, "bench outputs changed the stamp");

        std::fs::write(dir.join("src.rs"), "fn main() { println!(); }\n").unwrap();
        std::fs::write(dir.join("new.rs"), "// new\n").unwrap();
        let index = std::fs::read(dir.join(".git/index")).unwrap();
        let rev = git_rev(&dir);
        assert_eq!(
            std::fs::read(dir.join(".git/index")).unwrap(),
            index,
            "the real index was touched"
        );
        git(&["add", "src.rs", "new.rs"]).unwrap();
        let tree = git(&["write-tree"]).unwrap();
        assert_eq!(rev, format!("{head}+{}", &tree[..12]));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
