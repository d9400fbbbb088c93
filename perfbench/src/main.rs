//! `perfbench` — the repository's end-to-end benchmark (see README.md).
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <advise-tpch64|advise-mega|serve-tune> \
//!     [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! An untraced run (`--trace 0`) measures for `--seconds` and prints the
//! end-to-end metrics; a traced run (`--trace 1`) does a fixed amount of
//! work with a span around every call into a layer and prints the
//! per-layer metrics. Report lines go first; the last stdout line is one
//! JSON object. The exit code is non-zero when any output check failed.

mod advise;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use serde_json::Value;

const USAGE: &str = "usage: perfbench --workload <advise-tpch64|advise-mega|serve-tune> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

/// End-to-end metrics (untraced runs), name and unit. Every workload
/// reports every one of them; README.md defines each per workload.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("episodes_per_s", "1/s"),
    ("advised_cost_pct", "%"),
    ("ok_pct", "%"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced runs), name and unit. A layer a workload does
/// not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("sql.parse_ms", "ms"),
    ("planner.plan_ms", "ms"),
    ("planner.batch_plan_ms.p99", "ms"),
    ("session.ingest_ms.p99", "ms"),
    ("access_graph.build_ms", "ms"),
    ("access_graph.node_updates", "count"),
    ("access_graph.edge_updates", "count"),
    ("tsgreedy.search_ms", "ms"),
    ("partition.step1_ms", "ms"),
    ("partition.cut_weight", "weight"),
    ("tsgreedy.iterations", "count"),
    ("tsgreedy.candidates_scored", "count"),
    ("tsgreedy.adopt_pct", "%"),
    ("tsgreedy.ms_per_iteration", "ms"),
    ("tsgreedy.us_per_eval", "us"),
    ("tsgreedy.vs_fs_pct", "%"),
    ("costmodel.full_eval_ms", "ms"),
    ("costmodel.delta_recosts", "count"),
    ("costmodel.full_recosts", "count"),
    ("par.speedup", "x"),
    ("par.chunk_items", "count"),
    ("par.pool_fallbacks", "count"),
    ("engine.whatif_ms.p50", "ms"),
    ("engine.ingest_ms.p50", "ms"),
    ("engine.recommend_ms.p50", "ms"),
    ("engine.relayout_ms.p50", "ms"),
    ("transport.overhead_ms.p50", "ms"),
    ("protocol.parse_us.p50", "us"),
    ("protocol.serialize_us.p50", "us"),
    ("server.cache_hit_pct", "%"),
    ("server.cache_hits", "count"),
    ("server.cache_misses", "count"),
    ("audit.record_ms.p50", "ms"),
    ("audit.append_ms.p50", "ms"),
    ("audit.record_bytes", "bytes"),
    ("audit.records_written", "count"),
    ("relayout.budgeted_ms.p50", "ms"),
    ("relayout.migration_plan_ms.p50", "ms"),
    ("relayout.drift_ms.p50", "ms"),
    ("relayout.epoch_advances", "count"),
    ("migration.steps_planned", "count"),
    ("migration.blocks_planned", "count"),
    ("trace.overhead_pct", "%"),
];

/// Seed used when `--seed` is absent: the committed WK-MEGA instance seed.
pub const DEFAULT_SEED: u64 = 0xE6A;

/// Command-line settings.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut args = Args {
            workload: String::new(),
            seed: DEFAULT_SEED,
            seconds: 10.0,
            trace: false,
        };
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => args.workload = value()?,
                "--seed" => args.seed = value()?.parse().map_err(|e| format!("bad --seed: {e}"))?,
                "--seconds" => {
                    let s: f64 = value()?
                        .parse()
                        .map_err(|e| format!("bad --seconds: {e}"))?;
                    if !(s.is_finite() && s > 0.0) {
                        return Err("--seconds must be positive".into());
                    }
                    args.seconds = s;
                }
                "--trace" => {
                    args.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                    }
                }
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        if args.workload.is_empty() {
            return Err("--workload is required".into());
        }
        Ok(args)
    }
}

/// Operations attempted and failed, with the first few failure messages.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Tally {
    /// Counts one operation; `Err` means it failed or an output check on
    /// it did not pass.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            if self.failures.len() < 5 {
                self.failures.push(why);
            }
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for why in other.failures {
            if self.failures.len() < 5 {
                self.failures.push(why);
            }
        }
    }

    pub fn ok_pct(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        100.0 * (self.attempted - self.failed) as f64 / self.attempted as f64
    }
}

/// What a run measured: metric values by name, the report lines printed
/// before the JSON result, and the operation tally.
#[derive(Debug, Default)]
pub struct Outcome {
    pub tally: Tally,
    pub values: BTreeMap<&'static str, f64>,
    pub lines: Vec<String>,
}

impl Outcome {
    /// Records a metric value with a report line naming its sample basis.
    pub fn metric(&mut self, name: &'static str, value: f64, basis: impl AsRef<str>) {
        let unit = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .find(|(n, _)| *n == name)
            .map_or("", |(_, u)| *u);
        self.lines
            .push(format!("{name} = {value} {unit}  ({})", basis.as_ref()));
        self.values.insert(name, value);
    }

    /// A report line that is not a metric.
    pub fn note(&mut self, line: impl Into<String>) {
        self.lines.push(line.into());
    }

    /// Prints the report and the JSON result line; returns the exit code.
    fn finish(self, trace: bool) -> ExitCode {
        let names: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let mut tally = self.tally;
        let mut metrics = Vec::with_capacity(names.len());
        for (name, unit) in names {
            let value = self.values.get(name).copied().unwrap_or(f64::NAN);
            if !value.is_finite() {
                tally.failed += 1;
                tally
                    .failures
                    .push(format!("metric {name} was not measured"));
                continue;
            }
            let metric = vec![
                ("value".to_string(), Value::F64(value)),
                ("unit".to_string(), Value::Str(unit.to_string())),
            ];
            metrics.push((name.to_string(), Value::Map(metric)));
        }
        for line in &self.lines {
            println!("{line}");
        }
        for why in &tally.failures {
            eprintln!("perfbench: check failed: {why}");
        }
        let correct = tally.failed == 0;
        let result = Value::Map(vec![
            ("correct".to_string(), Value::Bool(correct)),
            ("attempted".to_string(), Value::U64(tally.attempted.max(1))),
            ("failed".to_string(), Value::U64(tally.failed)),
            ("metrics".to_string(), Value::Map(metrics)),
        ]);
        // Floats print with every digit of their shortest round-trip form.
        println!("{}", serde_json::to_string(&result).unwrap_or_default());
        if correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

/// Peak resident set size of this process (VmHWM), MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Scratch space for run artifacts (trace files, audit logs), inside the
/// benchmark's own directory.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Milliseconds elapsed since `t`.
pub fn ms_since(t: std::time::Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Serializes the tests that read the process-global counter registry.
#[cfg(test)]
pub static COUNTER_TESTS: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// The metrics of a traced run that must repeat exactly at one seed:
/// counts, bytes and weights, as bit patterns.
#[cfg(test)]
pub fn exact_counts(out: &Outcome) -> Vec<(&'static str, u64)> {
    out.values
        .iter()
        .filter(|(name, _)| {
            PER_LAYER
                .iter()
                .any(|(n, u)| n == *name && matches!(*u, "count" | "bytes" | "weight"))
        })
        .map(|(name, v)| (*name, v.to_bits()))
        .collect()
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "advise-tpch64" => advise::run_tpch64(&args),
        "advise-mega" => advise::run_mega(&args),
        "serve-tune" => serve::run(&args),
        other => Err(format!("unknown workload `{other}`\n{USAGE}")),
    };
    match result {
        Ok(outcome) => outcome.finish(args.trace),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// BENCHMARK.json at the repository root names exactly the metrics
    /// this program prints, with the same units.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        use serde_json::ValueExt;
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(|v| v.as_array())
                .expect("metric list")
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(|v| v.as_str()).unwrap().to_string(),
                        m.get("unit").and_then(|v| v.as_str()).unwrap().to_string(),
                    )
                })
                .collect()
        };
        let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn args_parse_and_reject() {
        let a = Args::parse(
            [
                "--workload",
                "serve-tune",
                "--seed",
                "7",
                "--seconds",
                "3",
                "--trace",
                "1",
            ]
            .into_iter()
            .map(String::from),
        )
        .unwrap();
        assert_eq!(a.seed, 7);
        assert!(a.trace);
        assert!(Args::parse(["--trace", "2"].into_iter().map(String::from)).is_err());
        assert!(Args::parse(std::iter::empty()).is_err());
    }
}
