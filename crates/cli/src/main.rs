//! `dblayout` — the layout advisor as a command-line tool (paper Figure 3),
//! plus `serve`/`client` subcommands fronting the resident what-if service.

use std::io::BufRead;
use std::process::ExitCode;
use std::time::Duration;

use dblayout_cli::constraints_file::parse_constraints_file;
use dblayout_cli::disks_file::parse_disks_file;
use dblayout_cli::{default_disks, resolve_catalog};
use dblayout_core::advisor::{Advisor, AdvisorConfig};
use dblayout_core::deploy::render_script;
use dblayout_core::tsgreedy::TsGreedyConfig;
use dblayout_server::{Client, Server, ServerConfig};

const USAGE: &str = "\
dblayout — automated database layout advisor (ICDE 2003 reproduction)

USAGE:
    dblayout --database <spec> --workload <file> [options]
    dblayout explain [explain-options]  narrate the search, step by step
    dblayout serve [serve-options]      run the what-if advisory service
    dblayout client [client-options]    talk to a running service
    dblayout lint [lint-options]        static-analyze the workspace sources
    dblayout benchdiff <base> <cur>     compare two BENCH_*.json histories
    dblayout loadtest [load-options]    drive the service with measured load
    dblayout drift [drift-options]      detect workload drift vs the advised graph
    dblayout migrate [migrate-options]  budgeted relayout + ordered migration plan
    dblayout audit [audit-options]      inspect and replay recorded decisions

INPUTS (paper Figure 3):
    --database <spec>     built-in catalog: tpch[:sf] | tpch-n:<sf>:<n> | apb | sales
    --workload <file>     SQL DML statements, ';'-separated; optional
                          '-- weight: <w>' line before a statement
    --disks <file>        drive list: name capacity seek_ms read_mb_s write_mb_s [avail]
                          (default: the paper's 8-drive array)
    --constraints <file>  colocate A B | avail A <class> | max-movement <blocks>

OPTIONS:
    --k <n>               greedy step width (default 1)
    --threads <n>         search worker threads (default: available
                          parallelism; results are identical at any value)
    --script <dbname>     print the filegroup deployment script
    --json <file>         write the recommendation as JSON
    --trace-out <file>    also record the search as raw trace JSONL
    --audit-dir <dir>     decision-log directory (default results/decisions)
    --no-audit            do not append a decision record
    --help                this text

Every recommendation appends a replayable decision record to the audit
log (see `dblayout audit --help`) unless --no-audit is given.

See `dblayout explain --help` for the search narrative, `dblayout serve
--help` and `dblayout client --help` for the service, `dblayout lint
--help` for the static-analysis pass, `dblayout benchdiff --help`
for the benchmark-regression gate, `dblayout drift --help` /
`dblayout migrate --help` for the continuous-relayout tools, and
`dblayout audit --help` for the decision log.
";

const AUDIT_USAGE: &str = "\
dblayout audit — inspect and replay recorded layout decisions

USAGE:
    dblayout audit list   [--audit-dir <dir>]
    dblayout audit show   <id> [--audit-dir <dir>]
    dblayout audit diff   <id-a> <id-b> [--audit-dir <dir>]
    dblayout audit replay <id> [--audit-dir <dir>] [options]

Every `dblayout recommend`/`migrate` run (and every server recommend op)
appends a self-contained decision record — input digests, the advised
access graph, search settings, predicted cost breakdowns, and the chosen
layout — to a rotating JSONL log. `replay` re-derives the layout from the
record alone and bit-compares it against what was recorded, then runs the
recorded layout through the event simulator and reports the
predicted-vs-simulated relative error (DESIGN.md, \"Decision provenance\").

Exit status: 0 on success; `replay` exits 3 when the layout fails to
reproduce bit-identically, the record is corrupt, or the error exceeds
--threshold-pct; 1 on other errors.

OPTIONS:
    --audit-dir <dir>     decision-log directory (default results/decisions)
    --threshold-pct <f>   max predicted-vs-simulated relative error percent
                          before replay fails (default: report only)
    --threads <n>         search threads for the re-run (default: the
                          recorded count; results are identical at any value)
    --perturb <f>         multiply the recomputed prediction by <f> — a
                          fault-injection hook proving the threshold bites
    --help                this text
";

const DRIFT_USAGE: &str = "\
dblayout drift — compare the observed access pattern against the advised one

USAGE:
    dblayout drift --database <spec> --baseline <file> --workload <file> [options]

Builds the Figure-6 access graph for both workload files and runs the
relayout drift detector: the total-variation distance between the
unit-normalized edge-weight (and node-weight) distributions, plus the
rank churn among the top-k co-access edges. Drift fires when either
distance crosses --distance-threshold or the churn crosses
--churn-threshold (see DESIGN.md, \"Continuous relayout\").

Exit status: 0 when the workloads agree, 2 when drift fired, 1 on error.

OPTIONS:
    --database <spec>          built-in catalog (required; see `dblayout --help`)
    --baseline <file>          workload the deployed layout was advised on
    --workload <file>          recently observed workload
    --top-k <n>                co-access edges ranked for churn (default 10)
    --distance-threshold <f>   weight distance in [0,1] that fires (default 0.25)
    --churn-threshold <f>      rank churn in [0,1] that fires (default 0.5)
    --json <file>              also write the DriftReport as JSON
    --help                     this text
";

const MIGRATE_USAGE: &str = "\
dblayout migrate — movement-budgeted relayout plus an ordered migration plan

USAGE:
    dblayout migrate --database <spec> --workload <file> [options]

Starts from the FULL STRIPING deployment, searches for the best layout
reachable while relocating at most --budget-mb (the paper's §2.3.1
data-movement constraint, seeded from the deployed layout), then compiles
the ordered per-object migration plan: every step is checked for
free-space feasibility (shadow-copy when scratch allows, in-place delta
otherwise) and priced through the drive model, along with every degraded
intermediate layout. The combined recommendation + plan artifact is
written as JSON.

OPTIONS:
    --database <spec>       built-in catalog (required; see `dblayout --help`)
    --workload <file>       SQL workload file (required)
    --disks <file>          drive list (default: the paper's 8-drive array)
    --constraints <file>    constraint file
    --k <n>                 greedy step width (default 1)
    --threads <n>           search worker threads (default: available
                            parallelism; results are identical at any value)
    --budget-mb <n>         relocation budget in MB (default: unbounded)
    --min-improvement <f>   required cost improvement percent (default 0;
                            shortfall is reported, not fatal)
    --json <file>           artifact path (default results/migration_plan.json)
    --audit-dir <dir>       decision-log directory (default results/decisions)
    --no-audit              do not append a decision record
    --help                  this text
";

const EXPLAIN_USAGE: &str = "\
dblayout explain — run the advisor and narrate the search, step by step

USAGE:
    dblayout explain --database <spec> --workload <file> [options]

Runs the full Figure-3 pipeline under a deterministic trace collector and
prints a human-readable narrative: the access-graph summary, every step-1
partition assignment, and — for each TS-GREEDY iteration — the candidate
count and the winning merge with its cost delta, then a per-sub-plan cost
breakdown of the recommended layout, the deterministic work counters, and
a wall-clock phase profile. The raw trace is written as JSONL (default
results/explain_trace.jsonl) and round-trips through the dblayout-obs
parser. The narrative, the trace, and the work counters are byte-identical
across runs for the same inputs; only the phase profile's wall times vary.

OPTIONS:
    --database <spec>     built-in catalog (required; see `dblayout --help`)
    --workload <file>     SQL workload file (required)
    --disks <file>        drive list (default: the paper's 8-drive array)
    --constraints <file>  constraint file
    --k <n>               greedy step width (default 1)
    --threads <n>         search worker threads (default: available
                          parallelism; narrative and trace are identical
                          at any value)
    --trace-out <file>    where to write the raw trace JSONL
                          (default results/explain_trace.jsonl)
    --help                this text
";

const LINT_USAGE: &str = "\
dblayout lint — workspace static analysis for what clippy cannot check:
float hygiene, lock order, determinism zones and atomics policy (rules R3,
R4, R6 and R7 in DESIGN.md, \"Static analysis\"; R1, R2, R8 and R9 are
clippy lints)

USAGE:
    dblayout lint [--deny-warnings] [--root <dir>]

Scans every Rust source under <root>/crates/*/src, prints a diagnostic per
finding, and writes the machine-readable report to
<root>/results/lint_report.json.

Exit status: non-zero on any error-severity diagnostic (unlexable file,
malformed suppression), and — under --deny-warnings — on any finding.

OPTIONS:
    --deny-warnings     treat rule findings as fatal (CI mode)
    --root <dir>        workspace root to scan (default: .)
    --help              this text
";

const BENCHDIFF_USAGE: &str = "\
dblayout benchdiff — the benchmark-regression gate

USAGE:
    dblayout benchdiff <baseline.json> <current.json> [options]

Compares two observatory histories (repo-root BENCH_search.json /
BENCH_server.json, appended to by `search_bench` and the server bench).
Timings compare median-vs-median over the last --window entries and only
fail beyond --tolerance; deterministic work counters must match exactly
when both histories ran the same config — a counter divergence means the
work done changed, and fails regardless of tolerance.

Exit status: non-zero when the report's verdict is REGRESSED.

OPTIONS:
    --tolerance <f>     relative slowdown allowed before a timing
                        regresses (default 0.5 = 50%)
    --window <n>        history entries whose median is compared
                        (default 5)
    --require-not-slower <fast>,<slow>
                        assert metric <fast> is not slower than metric
                        <slow> (median over the current history's last
                        --window entries, --tolerance headroom, sub-ms
                        medians exempt). Repeatable. E.g.
                        `--require-not-slower incremental/t4,incremental/t1`
                        gates \"parallelism pays\".
    --help              this text
";

const LOADTEST_USAGE: &str = "\
dblayout loadtest — coordinated-omission-safe load against the service

USAGE:
    dblayout loadtest [--addr <host:port>] [options]

Drives the newline-delimited JSON protocol with a deterministic op
schedule (seeded LCG; same --seed → same op sequence and mix counters on
every host) and records latency into log-linear histograms with ≤12.5%
relative error. Without --addr, an in-process loopback server is started
with its default settings (one thread per connection, up to 64).

Two pacing modes (DESIGN.md §12):
  open loop (--rate)   requests arrive at a fixed rate; latency is charged
                       from each request's *intended* send time, so server
                       stalls inflate the tail instead of being
                       coordinated away (HdrHistogram/wrk2 correction)
  closed loop          each connection sends as soon as the previous reply
                       lands; measures single-caller service time only

Exit status: 0 on a clean run, 1 when any request errored or a transport
failure occurred.

OPTIONS:
    --addr <host:port>  target a running service (default: loopback server)
    --requests <n>      total requests across connections (default 100000)
    --connections <n>   concurrent connections (default 4)
    --rate <r>          open-loop offered load, requests/second
                        (default: closed loop)
    --seed <n>          schedule seed (default 42)
    --mix <a,b,c,d>     op weights open_session,add_statements,recommend,
                        stats (default 1,20,2,977)
    --catalog <spec>    session catalog (default tpch:0.01)
    --json <file>       write the machine-readable report
    --history <file>    append a gateable row (per-op p50/p99/p999 timings
                        + exact mix counters) to an observatory history,
                        e.g. BENCH_server.json
    --help              this text
";

const SERVE_USAGE: &str = "\
dblayout serve — run the resident what-if advisory service

USAGE:
    dblayout serve [--port <n>] [options]

The server speaks newline-delimited JSON over TCP: one request object per
line, one response line per request (see README, \"The what-if server\").

OPTIONS:
    --port <n>          TCP port to listen on (default 7437; 0 picks a free
                        port — the chosen address is printed on stdout)
    --host <addr>       bind address (default 127.0.0.1)
    --connections <n>   max connections served at once, one thread each;
                        one more is answered `busy` (default 64)
    --sessions <n>      max concurrently open sessions (default 64)
    --cache <n>         max memoized what-if costs (default 1024)
    --audit-dir <dir>   decision-record log directory (default
                        results/decisions); every recommend op appends a
                        replayable record, served by audit_list/audit_get
    --no-audit          disable decision recording entirely
    --help              this text
";

const CLIENT_USAGE: &str = "\
dblayout client — send requests to a running what-if service

USAGE:
    dblayout client --addr <host:port> [--request <json>]

With --request, sends that single JSON request and prints the response.
Without it, reads one JSON request per line from stdin and prints each
response line to stdout (blank lines are skipped).

Exits non-zero if the server is unreachable or the connection drops.

OPTIONS:
    --addr <host:port>  server address (default 127.0.0.1:7437)
    --request <json>    a single request to send
    --help              this text
";

/// Where decision records land unless `--audit-dir` says otherwise.
const DEFAULT_AUDIT_DIR: &str = "results/decisions";

struct Args {
    database: String,
    workload: String,
    disks: Option<String>,
    constraints: Option<String>,
    k: usize,
    threads: Option<usize>,
    script: Option<String>,
    json: Option<String>,
    trace_out: Option<String>,
    audit_dir: String,
    no_audit: bool,
}

impl Args {
    /// The search worker count: `--threads` if given, else the host's
    /// available parallelism. Results are identical either way.
    fn search_threads(&self) -> usize {
        self.threads
            .unwrap_or_else(dblayout_core::par::available_parallelism)
            .max(1)
    }
}

fn parse_args(argv: &[String], usage: &str, allow_outputs: bool) -> Result<Args, String> {
    let mut args = Args {
        database: String::new(),
        workload: String::new(),
        disks: None,
        constraints: None,
        k: 1,
        threads: None,
        script: None,
        json: None,
        trace_out: None,
        audit_dir: DEFAULT_AUDIT_DIR.to_string(),
        no_audit: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--database" => args.database = value("--database")?,
            "--workload" => args.workload = value("--workload")?,
            "--disks" => args.disks = Some(value("--disks")?),
            "--constraints" => args.constraints = Some(value("--constraints")?),
            "--k" => args.k = value("--k")?.parse().map_err(|e| format!("bad --k: {e}"))?,
            "--threads" => {
                let t: usize = value("--threads")?
                    .parse()
                    .map_err(|e| format!("bad --threads: {e}"))?;
                if t == 0 {
                    return Err("--threads must be at least 1".to_string());
                }
                args.threads = Some(t);
            }
            "--script" if allow_outputs => args.script = Some(value("--script")?),
            "--json" if allow_outputs => args.json = Some(value("--json")?),
            "--trace-out" => args.trace_out = Some(value("--trace-out")?),
            "--audit-dir" => args.audit_dir = value("--audit-dir")?,
            "--no-audit" => args.no_audit = true,
            "--help" | "-h" => return Err(usage.to_string()),
            other => return Err(format!("unknown flag `{other}`\n\n{usage}")),
        }
    }
    if args.database.is_empty() || args.workload.is_empty() {
        return Err(format!("--database and --workload are required\n\n{usage}"));
    }
    Ok(args)
}

/// The resolved Figure-3 inputs shared by `run` and `run_explain`.
struct Inputs {
    catalog: dblayout_catalog::Catalog,
    workload_text: String,
    disks: Vec<dblayout_disksim::DiskSpec>,
    constraints: dblayout_core::constraints::Constraints,
    /// Raw constraints file text, kept for decision-record provenance.
    constraints_text: Option<String>,
}

fn load_inputs(args: &Args) -> Result<Inputs, String> {
    let catalog = resolve_catalog(&args.database)?;
    let workload_text = std::fs::read_to_string(&args.workload)
        .map_err(|e| format!("cannot read workload `{}`: {e}", args.workload))?;
    let disks = match &args.disks {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read drives `{path}`: {e}"))?;
            parse_disks_file(&text)?
        }
        None => default_disks(),
    };
    let mut constraints_text = None;
    let constraints = match &args.constraints {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read constraints `{path}`: {e}"))?;
            let parsed = parse_constraints_file(&text, &catalog, &disks)?;
            constraints_text = Some(text);
            parsed
        }
        None => dblayout_core::constraints::Constraints::none(),
    };
    Ok(Inputs {
        catalog,
        workload_text,
        disks,
        constraints,
        constraints_text,
    })
}

/// Writes trace records as one JSONL line each, creating parent directories.
fn write_trace(path: &str, records: &[dblayout_obs::Record]) -> Result<(), String> {
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("cannot create `{}`: {e}", parent.display()))?;
        }
    }
    let mut out = String::new();
    for r in records {
        out.push_str(&r.to_jsonl());
        out.push('\n');
    }
    std::fs::write(path, out).map_err(|e| format!("cannot write `{path}`: {e}"))
}

fn run(argv: &[String]) -> Result<(), String> {
    let args = parse_args(argv, USAGE, true)?;
    let inputs = load_inputs(&args)?;
    let Inputs {
        catalog,
        workload_text,
        disks,
        constraints,
        constraints_text,
    } = inputs;

    let mut cfg = AdvisorConfig {
        search: TsGreedyConfig {
            k: args.k,
            threads: args.search_threads(),
            constraints,
            ..Default::default()
        },
        prof: dblayout_obs::prof::PhaseTimer::new(),
    };
    let ring = std::sync::Arc::new(dblayout_obs::RingSink::new(usize::MAX));
    if args.trace_out.is_some() {
        cfg.search.collector = dblayout_obs::Collector::deterministic(ring.clone());
    }
    let advisor = Advisor::new(&catalog, &disks);
    let rec = advisor
        .recommend_sql(&workload_text, &cfg)
        .map_err(|e| e.to_string())?;

    println!("statements analyzed : {}", rec.plans.len());
    println!(
        "estimated I/O response time: full striping {:.0} ms -> recommended {:.0} ms",
        rec.full_striping_cost_ms, rec.recommended_cost_ms
    );
    println!(
        "estimated improvement: {:.1}%  ({} greedy iterations, {} cost evaluations)",
        rec.estimated_improvement_pct, rec.search.iterations, rec.search.cost_evaluations
    );
    println!();
    println!("recommended layout (object: disks):");
    for meta in catalog.objects() {
        let placed = rec.layout.disks_of(meta.id.index());
        let names: Vec<&str> = placed.iter().map(|&j| disks[j].name.as_str()).collect();
        println!("  {:<28} {}", meta.name, names.join(", "));
    }

    if let Some(db) = &args.script {
        println!();
        print!("{}", render_script(db, &catalog, &rec.layout, &disks));
    }

    if let Some(path) = &args.json {
        #[derive(serde::Serialize)]
        struct JsonOut<'a> {
            estimated_improvement_pct: f64,
            full_striping_cost_ms: f64,
            recommended_cost_ms: f64,
            objects: Vec<JsonObject<'a>>,
        }
        #[derive(serde::Serialize)]
        struct JsonObject<'a> {
            name: String,
            disks: Vec<&'a str>,
            fractions: Vec<f64>,
        }
        let out = JsonOut {
            estimated_improvement_pct: rec.estimated_improvement_pct,
            full_striping_cost_ms: rec.full_striping_cost_ms,
            recommended_cost_ms: rec.recommended_cost_ms,
            objects: catalog
                .objects()
                .iter()
                .map(|meta| JsonObject {
                    name: meta.name.clone(),
                    disks: rec
                        .layout
                        .disks_of(meta.id.index())
                        .iter()
                        .map(|&j| disks[j].name.as_str())
                        .collect(),
                    fractions: rec.layout.fractions_of(meta.id.index()).to_vec(),
                })
                .collect(),
        };
        let json = serde_json::to_string_pretty(&out).map_err(|e| e.to_string())?;
        write_text(path, &json)?;
        println!("\n(JSON written to {path})");
    }

    if let Some(path) = &args.trace_out {
        write_trace(path, &ring.drain())?;
        warn_on_trace_loss(&ring);
        println!("(trace written to {path})");
    }

    if !args.no_audit {
        let record = dblayout_audit::record_recommendation(
            &dblayout_audit::RecordInputs {
                source: "cli.recommend",
                catalog_spec: &args.database,
                workload_sql: &workload_text,
                constraints_text: constraints_text.as_deref(),
                disks: &disks,
                k: args.k,
                threads: args.search_threads(),
                ts_unix_ms: now_unix_ms(),
            },
            &rec,
            &cfg.prof.rows(),
            &rec.work,
        );
        let id = append_decision(&args.audit_dir, record)?;
        println!("(decision recorded as id {id} in {})", args.audit_dir);
    }
    Ok(())
}

/// Satellite of `dblayout_trace_dropped_total`: an operator reading a
/// truncated trace must learn it on stderr, not by counting lines.
fn warn_on_trace_loss(ring: &dblayout_obs::RingSink) {
    let dropped = ring.dropped();
    if dropped > 0 {
        eprintln!(
            "warning: {dropped} trace record(s) were evicted by the ring buffer; \
             the written trace is incomplete"
        );
    }
}

fn run_explain(argv: &[String]) -> Result<(), String> {
    let args = parse_args(argv, EXPLAIN_USAGE, false)?;
    let inputs = load_inputs(&args)?;
    let Inputs {
        catalog,
        workload_text,
        disks,
        constraints,
        constraints_text: _,
    } = inputs;

    let ring = std::sync::Arc::new(dblayout_obs::RingSink::new(usize::MAX));
    let collector = dblayout_obs::Collector::deterministic(ring.clone());
    let mut cfg = AdvisorConfig {
        search: TsGreedyConfig {
            k: args.k,
            threads: args.search_threads(),
            constraints,
            ..Default::default()
        },
        prof: dblayout_obs::prof::PhaseTimer::new(),
    };
    cfg.search.collector = collector.clone();
    let advisor = Advisor::new(&catalog, &disks);
    let rec = advisor
        .recommend_sql(&workload_text, &cfg)
        .map_err(|e| e.to_string())?;

    // Walk the winning layout's costing so the narrative ends with the
    // per-sub-plan breakdown (the search itself never traces costings —
    // candidate costings would swamp the trace).
    let subplans = dblayout_core::costmodel::decompose_workload(&rec.plans);
    cfg.search
        .cost_model
        .trace(&subplans, &rec.layout, &disks, &collector, |_| {});

    let records = ring.drain();
    let object_names: Vec<String> = catalog.objects().iter().map(|o| o.name.clone()).collect();
    let disk_names: Vec<String> = disks.iter().map(|d| d.name.clone()).collect();
    let names = dblayout_core::NarrativeNames {
        objects: &object_names,
        disks: &disk_names,
    };
    print!("{}", dblayout_core::render_narrative(&records, &names));
    println!(
        "Estimated improvement over full striping: {:.1}%",
        rec.estimated_improvement_pct
    );

    // Performance accounting (dblayout-prof): the deterministic work
    // counters are part of the reproducible output; the phase profile is
    // wall clock and varies run to run.
    println!();
    println!("Deterministic work counters:");
    for (name, value) in rec.work.deterministic_pairs() {
        println!("  {name:<34} {value}");
    }
    println!();
    print!("{}", cfg.prof.render_table());

    let path = args
        .trace_out
        .unwrap_or_else(|| "results/explain_trace.jsonl".to_string());
    write_trace(&path, &records)?;
    warn_on_trace_loss(&ring);
    println!("(trace written to {path})");
    Ok(())
}

fn run_benchdiff(args: &[String]) -> Result<ExitCode, String> {
    use dblayout_bench::observatory::{diff, load_history, DiffOptions};
    let mut opts = DiffOptions::default();
    let mut paths: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--tolerance" => {
                opts.tolerance = value("--tolerance")?
                    .parse()
                    .map_err(|e| format!("bad --tolerance: {e}"))?;
                if !(opts.tolerance.is_finite() && opts.tolerance >= 0.0) {
                    return Err("--tolerance must be a finite non-negative number".to_string());
                }
            }
            "--window" => {
                opts.window = value("--window")?
                    .parse()
                    .map_err(|e| format!("bad --window: {e}"))?;
                if opts.window == 0 {
                    return Err("--window must be at least 1".to_string());
                }
            }
            "--require-not-slower" => {
                let pair = value("--require-not-slower")?;
                let Some((fast, slow)) = pair.split_once(',') else {
                    return Err(format!(
                        "bad --require-not-slower `{pair}`: expected <fast>,<slow>"
                    ));
                };
                if fast.is_empty() || slow.is_empty() {
                    return Err(format!(
                        "bad --require-not-slower `{pair}`: expected <fast>,<slow>"
                    ));
                }
                opts.not_slower.push((fast.to_string(), slow.to_string()));
            }
            "--help" | "-h" => return Err(BENCHDIFF_USAGE.to_string()),
            other if other.starts_with("--") => {
                return Err(format!("unknown flag `{other}`\n\n{BENCHDIFF_USAGE}"))
            }
            path => paths.push(path.to_string()),
        }
    }
    let [baseline, current] = paths.as_slice() else {
        return Err(format!(
            "benchdiff needs exactly a baseline and a current history\n\n{BENCHDIFF_USAGE}"
        ));
    };
    let base = load_history(std::path::Path::new(baseline))?;
    let cur = load_history(std::path::Path::new(current))?;
    let report = diff(&base, &cur, &opts)?;
    print!("{}", report.render());
    Ok(if report.regressed() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn run_loadtest(args: &[String]) -> Result<ExitCode, String> {
    use dblayout_loadgen::{run_load, LoadConfig, Mode};

    let mut cfg = LoadConfig::default();
    let mut rate: Option<f64> = None;
    let mut json_out: Option<String> = None;
    let mut history_out: Option<String> = None;
    let mut mix_text = cfg.weights.encode();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--addr" => cfg.addr = value("--addr")?,
            "--requests" => {
                cfg.requests = value("--requests")?
                    .parse()
                    .map_err(|e| format!("bad --requests: {e}"))?;
                if cfg.requests == 0 {
                    return Err("--requests must be at least 1".to_string());
                }
            }
            "--connections" => {
                cfg.connections = value("--connections")?
                    .parse()
                    .map_err(|e| format!("bad --connections: {e}"))?;
                if cfg.connections == 0 {
                    return Err("--connections must be at least 1".to_string());
                }
            }
            "--rate" => {
                let r: f64 = value("--rate")?
                    .parse()
                    .map_err(|e| format!("bad --rate: {e}"))?;
                if !(r.is_finite() && r > 0.0) {
                    return Err("--rate must be a positive number".to_string());
                }
                rate = Some(r);
            }
            "--seed" => {
                cfg.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?
            }
            "--mix" => {
                mix_text = value("--mix")?;
                cfg.weights =
                    dblayout_loadgen::MixWeights::parse_weights(&mix_text).ok_or_else(|| {
                        format!(
                            "bad --mix `{mix_text}`: expected four comma-separated \
                             integers with a positive sum"
                        )
                    })?;
            }
            "--catalog" => cfg.catalog = value("--catalog")?,
            "--json" => json_out = Some(value("--json")?),
            "--history" => history_out = Some(value("--history")?),
            "--help" | "-h" => return Err(LOADTEST_USAGE.to_string()),
            other => return Err(format!("unknown flag `{other}`\n\n{LOADTEST_USAGE}")),
        }
    }
    cfg.mode = match rate {
        Some(rate_per_sec) => Mode::Open { rate_per_sec },
        None => Mode::Closed,
    };

    // Without --addr, stand up a loopback server with its defaults.
    let embedded = if cfg.addr.is_empty() {
        let server_cfg = ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            audit_dir: None,
            ..ServerConfig::default()
        };
        let handle =
            Server::start(server_cfg).map_err(|e| format!("cannot start loopback server: {e}"))?;
        cfg.addr = handle.addr().to_string();
        eprintln!("loadtest: loopback server on {}", cfg.addr);
        Some(handle)
    } else {
        None
    };

    let report = run_load(&cfg).map_err(|e| format!("load run failed: {e}"))?;
    print!("{}", report.render());

    if let Some(path) = json_out {
        let text = serde_json::to_string_pretty(&report.to_json())
            .map_err(|e| format!("cannot serialize report: {e}"))?;
        std::fs::write(&path, text).map_err(|e| format!("cannot write `{path}`: {e}"))?;
        println!("report written to {path}");
    }
    if let Some(path) = history_out {
        use dblayout_bench::observatory::{append_history, git_rev, HistoryEntry};
        // The config fingerprint uses the raw flag values so identical
        // invocations group (and gate) across revisions.
        let config = format!(
            "loadtest;mode={};requests={};rate={};conns={};seed={};catalog={};mix={}",
            report.mode_name(),
            cfg.requests,
            rate.map(|r| format!("{r}"))
                .unwrap_or_else(|| "-".to_string()),
            cfg.connections,
            cfg.seed,
            cfg.catalog,
            mix_text,
        );
        let mut timings_ms: Vec<(String, f64)> = Vec::new();
        for (op, snap) in &report.per_op {
            if snap.count == 0 {
                continue;
            }
            for (tag, q) in [("p50", 0.50), ("p99", 0.99), ("p999", 0.999)] {
                timings_ms.push((format!("load/{op}/{tag}"), snap.quantile(q) as f64 / 1000.0));
            }
        }
        let mut counters = report.mix.counter_pairs();
        counters.push(("load_errors_total".to_string(), report.errors));
        counters.push(("load_shed_total".to_string(), report.shed));
        let entry = HistoryEntry {
            rev: git_rev(std::path::Path::new(".")),
            config,
            threads: vec![cfg.connections],
            timings_ms,
            phases_ms: vec![("wall".to_string(), report.wall.as_secs_f64() * 1000.0)],
            counters,
        };
        let n = append_history(std::path::Path::new(&path), &entry)?;
        println!("history row appended to {path} ({n} entries)");
    }
    drop(embedded);
    Ok(if report.errors > 0 {
        eprintln!("loadtest: {} requests errored", report.errors);
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn run_serve(args: &[String]) -> Result<(), String> {
    let mut cfg = ServerConfig {
        // Decision recording is on by default; --no-audit opts out.
        audit_dir: Some(DEFAULT_AUDIT_DIR.to_string()),
        ..ServerConfig::default()
    };
    let mut port: u16 = 7437;
    let mut host = "127.0.0.1".to_string();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--port" => {
                port = value("--port")?
                    .parse()
                    .map_err(|e| format!("bad --port: {e}"))?
            }
            "--host" => host = value("--host")?,
            "--connections" => {
                cfg.connection_capacity = value("--connections")?
                    .parse()
                    .map_err(|e| format!("bad --connections: {e}"))?
            }
            "--sessions" => {
                cfg.session_capacity = value("--sessions")?
                    .parse()
                    .map_err(|e| format!("bad --sessions: {e}"))?
            }
            "--cache" => {
                cfg.cache_capacity = value("--cache")?
                    .parse()
                    .map_err(|e| format!("bad --cache: {e}"))?
            }
            "--audit-dir" => cfg.audit_dir = Some(value("--audit-dir")?),
            "--no-audit" => cfg.audit_dir = None,
            "--help" | "-h" => return Err(SERVE_USAGE.to_string()),
            other => return Err(format!("unknown flag `{other}`\n\n{SERVE_USAGE}")),
        }
    }
    cfg.addr = format!("{host}:{port}");
    let handle =
        Server::start(cfg.clone()).map_err(|e| format!("cannot start on {}: {e}", cfg.addr))?;
    println!(
        "dblayout-server listening on {} (up to {} connections, {} session slots)",
        handle.addr(),
        cfg.connection_capacity,
        cfg.session_capacity
    );
    match &cfg.audit_dir {
        Some(dir) => println!("decision records append to {dir} (audit_list / audit_get ops)"),
        None => println!("decision recording disabled (--no-audit)"),
    }
    println!("one JSON request per line; try: {{\"op\":\"stats\"}}");
    // Serve until the process is killed.
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

fn run_client(args: &[String]) -> Result<(), String> {
    let mut addr = "127.0.0.1:7437".to_string();
    let mut request: Option<String> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--addr" => addr = value("--addr")?,
            "--request" => request = Some(value("--request")?),
            "--help" | "-h" => return Err(CLIENT_USAGE.to_string()),
            other => return Err(format!("unknown flag `{other}`\n\n{CLIENT_USAGE}")),
        }
    }
    let mut client = Client::connect(&addr)
        .map_err(|e| format!("cannot reach dblayout-server at {addr}: {e}"))?;
    match request {
        Some(line) => {
            let response = client
                .roundtrip(&line)
                .map_err(|e| format!("request to {addr} failed: {e}"))?;
            println!("{response}");
        }
        None => {
            let stdin = std::io::stdin();
            for line in stdin.lock().lines() {
                let line = line.map_err(|e| format!("stdin read failed: {e}"))?;
                if line.trim().is_empty() {
                    continue;
                }
                let response = client
                    .roundtrip(&line)
                    .map_err(|e| format!("request to {addr} failed: {e}"))?;
                println!("{response}");
            }
        }
    }
    Ok(())
}

fn run_lint(args: &[String]) -> Result<ExitCode, String> {
    let mut deny_warnings = false;
    let mut root = ".".to_string();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--deny-warnings" => deny_warnings = true,
            "--root" => {
                root = it
                    .next()
                    .cloned()
                    .ok_or_else(|| "--root needs a value".to_string())?
            }
            "--help" | "-h" => return Err(LINT_USAGE.to_string()),
            other => return Err(format!("unknown flag `{other}`\n\n{LINT_USAGE}")),
        }
    }
    let root = std::path::PathBuf::from(root);
    let report = dblayout_lint::lint_workspace(&root).map_err(|e| format!("lint failed: {e}"))?;
    let report_json = serde_json::to_string_pretty(&report.to_json()).map_err(|e| e.to_string())?;
    let results_dir = root.join("results");
    std::fs::create_dir_all(&results_dir)
        .map_err(|e| format!("cannot create `{}`: {e}", results_dir.display()))?;
    let out_path = results_dir.join("lint_report.json");
    std::fs::write(&out_path, &report_json)
        .map_err(|e| format!("cannot write `{}`: {e}", out_path.display()))?;
    print!("{}", report.render());
    println!("(JSON report written to {})", out_path.display());
    Ok(if report.is_clean(deny_warnings) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Plans every statement of a workload file against `catalog` — the
/// Analyze-Workload pass of Figure 3, shared by `drift` and `migrate`.
fn plan_workload_file(
    catalog: &dblayout_catalog::Catalog,
    path: &str,
) -> Result<Vec<(dblayout_planner::PhysicalPlan, f64)>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read workload `{path}`: {e}"))?;
    plan_workload_text(catalog, &text).map_err(|e| format!("workload `{path}`: {e}"))
}

/// Plans an in-memory workload text (weighted `;`-separated DML).
fn plan_workload_text(
    catalog: &dblayout_catalog::Catalog,
    text: &str,
) -> Result<Vec<(dblayout_planner::PhysicalPlan, f64)>, String> {
    let entries = dblayout_sql::parse_workload_file(text).map_err(|e| e.to_string())?;
    if entries.is_empty() {
        return Err("contains no statements".to_string());
    }
    entries
        .into_iter()
        .map(|e| {
            dblayout_planner::plan_statement(catalog, &e.statement)
                .map(|p| (p, e.weight))
                .map_err(|err| err.to_string())
        })
        .collect()
}

/// Writes a JSON value pretty-printed, creating parent directories.
fn write_json_value(path: &str, value: &serde_json::Value) -> Result<(), String> {
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("cannot create `{}`: {e}", parent.display()))?;
        }
    }
    let text = serde_json::to_string_pretty(value).map_err(|e| e.to_string())?;
    std::fs::write(path, text).map_err(|e| format!("cannot write `{path}`: {e}"))
}

/// Writes text to a file, creating missing parent directories; errors name
/// the path that failed.
fn write_text(path: &str, text: &str) -> Result<(), String> {
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("cannot create `{}`: {e}", parent.display()))?;
        }
    }
    std::fs::write(path, text).map_err(|e| format!("cannot write `{path}`: {e}"))
}

/// Wall-clock milliseconds since the Unix epoch, for decision timestamps
/// (the audit crate itself never reads a clock).
fn now_unix_ms() -> Option<u64> {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .ok()
        .map(|d| d.as_millis() as u64)
}

/// Appends `record` to the decision log at `dir` and returns its id.
fn append_decision(dir: &str, mut record: dblayout_audit::DecisionRecord) -> Result<u64, String> {
    let mut log = dblayout_audit::DecisionLog::open(dir).map_err(|e| e.to_string())?;
    log.append(&mut record).map_err(|e| e.to_string())
}

fn parse_unit_fraction(text: &str, name: &str) -> Result<f64, String> {
    let v: f64 = text.parse().map_err(|e| format!("bad {name}: {e}"))?;
    if !(0.0..=1.0).contains(&v) {
        return Err(format!("{name} must be within [0, 1]"));
    }
    Ok(v)
}

fn run_drift(args: &[String]) -> Result<ExitCode, String> {
    use dblayout_relayout::{detect_drift, DriftConfig};

    let mut database = String::new();
    let mut baseline = String::new();
    let mut workload = String::new();
    let mut cfg = DriftConfig::default();
    let mut json_out: Option<String> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--database" => database = value("--database")?,
            "--baseline" => baseline = value("--baseline")?,
            "--workload" => workload = value("--workload")?,
            "--top-k" => {
                cfg.top_k = value("--top-k")?
                    .parse()
                    .map_err(|e| format!("bad --top-k: {e}"))?;
                if cfg.top_k == 0 {
                    return Err("--top-k must be at least 1".to_string());
                }
            }
            "--distance-threshold" => {
                cfg.distance_threshold =
                    parse_unit_fraction(&value("--distance-threshold")?, "--distance-threshold")?;
            }
            "--churn-threshold" => {
                cfg.churn_threshold =
                    parse_unit_fraction(&value("--churn-threshold")?, "--churn-threshold")?;
            }
            "--json" => json_out = Some(value("--json")?),
            "--help" | "-h" => return Err(DRIFT_USAGE.to_string()),
            other => return Err(format!("unknown flag `{other}`\n\n{DRIFT_USAGE}")),
        }
    }
    if database.is_empty() || baseline.is_empty() || workload.is_empty() {
        return Err(format!(
            "--database, --baseline and --workload are required\n\n{DRIFT_USAGE}"
        ));
    }

    let catalog = resolve_catalog(&database)?;
    let n = catalog.objects().len();
    let advised_plans = plan_workload_file(&catalog, &baseline)?;
    let current_plans = plan_workload_file(&catalog, &workload)?;
    let mut advised = dblayout_partition::Graph::new(n);
    dblayout_core::extend_access_graph(&mut advised, &advised_plans);
    let mut current = dblayout_partition::Graph::new(n);
    dblayout_core::extend_access_graph(&mut current, &current_plans);

    let report = detect_drift(&current, &advised, &cfg);
    println!(
        "edge-weight distance : {:.4}  (fires at {:.2})",
        report.edge_distance, cfg.distance_threshold
    );
    println!(
        "node-weight distance : {:.4}  (fires at {:.2})",
        report.node_distance, cfg.distance_threshold
    );
    println!(
        "top-{} rank churn     : {:.4}  (fires at {:.2})",
        report.top_k, report.rank_churn, cfg.churn_threshold
    );
    println!(
        "verdict: {}",
        if report.drifted {
            "DRIFTED — the observed workload no longer matches the advised layout"
        } else {
            "quiet"
        }
    );
    if let Some(path) = &json_out {
        write_json_value(path, &report.to_json())?;
        println!("(report written to {path})");
    }
    Ok(if report.drifted {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    })
}

fn run_migrate(argv: &[String]) -> Result<(), String> {
    use dblayout_relayout::{plan_migration, recommend_budgeted, BudgetConfig};

    // Peel the migrate-only flags; everything else (including shared-flag
    // values, which arrive in order) flows through the common parser.
    let mut budget_mb: Option<u64> = None;
    let mut min_improvement = 0.0f64;
    let mut json_out = "results/migration_plan.json".to_string();
    let mut rest: Vec<String> = Vec::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--budget-mb" => {
                budget_mb = Some(
                    value("--budget-mb")?
                        .parse()
                        .map_err(|e| format!("bad --budget-mb: {e}"))?,
                )
            }
            "--min-improvement" => {
                min_improvement = value("--min-improvement")?
                    .parse()
                    .map_err(|e| format!("bad --min-improvement: {e}"))?;
                if !(min_improvement.is_finite() && min_improvement >= 0.0) {
                    return Err("--min-improvement must be a finite non-negative percent".into());
                }
            }
            "--json" => json_out = value("--json")?,
            "--help" | "-h" => return Err(MIGRATE_USAGE.to_string()),
            other => rest.push(other.to_string()),
        }
    }
    let args = parse_args(&rest, MIGRATE_USAGE, false)?;
    let Inputs {
        catalog,
        workload_text,
        disks,
        constraints,
        constraints_text,
    } = load_inputs(&args)?;

    // The same phase rows as `cli.recommend` records.
    let prof = dblayout_obs::prof::PhaseTimer::new();
    let (plans, workload) = {
        let _phase = prof.phase("analyze");
        let plans =
            plan_workload_text(&catalog, &workload_text).map_err(|e| format!("workload: {e}"))?;
        let workload = dblayout_core::costmodel::decompose_workload(&plans);
        (plans, workload)
    };
    let n = catalog.objects().len();
    let sizes: Vec<u64> = catalog.objects().iter().map(|o| o.size_blocks).collect();
    let mut graph = dblayout_partition::Graph::new(n);
    {
        let _phase = prof.phase("build-graph");
        dblayout_core::extend_access_graph(&mut graph, &plans);
    }
    let current = dblayout_core::Layout::full_striping(sizes.clone(), &disks);

    let blocks_per_mb = 1_048_576 / dblayout_catalog::BLOCK_BYTES;
    let cfg = BudgetConfig {
        budget_blocks: budget_mb.map(|mb| mb.saturating_mul(blocks_per_mb)),
        min_improvement_pct: min_improvement,
        search: TsGreedyConfig {
            k: args.k,
            threads: args.search_threads(),
            constraints,
            ..Default::default()
        },
    };
    let outcome = {
        let _phase = prof.phase("search");
        recommend_budgeted(&sizes, &graph, &workload, &disks, &current, &cfg)
    }
    .map_err(|e| e.to_string())?;
    let mut plan = plan_migration(
        &current,
        &outcome.layout,
        &disks,
        &workload,
        &dblayout_core::costmodel::CostModel::default(),
    )
    .map_err(|e| format!("migration planning failed: {e}"))?;

    println!(
        "deployed (full striping) cost : {:.0} ms",
        outcome.current_cost_ms
    );
    println!(
        "recommended cost              : {:.0} ms  ({:.1}% improvement, {} strategy)",
        outcome.new_cost_ms,
        outcome.improvement_pct,
        outcome.strategy.as_str()
    );
    match budget_mb {
        Some(mb) => println!(
            "relocation: {} blocks ({} MB) within the {} MB budget",
            outcome.moved_blocks,
            outcome.moved_bytes / 1_048_576,
            mb
        ),
        None => println!(
            "relocation: {} blocks ({} MB), unbounded budget",
            outcome.moved_blocks,
            outcome.moved_bytes / 1_048_576
        ),
    }
    if !outcome.meets_improvement {
        eprintln!(
            "warning: improvement {:.1}% is below the required {:.1}%",
            outcome.improvement_pct, min_improvement
        );
    }
    println!();
    println!(
        "migration plan: {} steps, {} blocks moved, {:.0} ms of transfer",
        plan.steps.len(),
        plan.total_moved_blocks,
        plan.total_step_ms
    );
    println!(
        "workload cost during migration: start {:.0} ms, worst intermediate {:.0} ms, final {:.0} ms",
        plan.start_cost_ms, plan.worst_intermediate_cost_ms, plan.final_cost_ms
    );

    if !args.no_audit {
        let record = dblayout_audit::record_budgeted(
            &dblayout_audit::RecordInputs {
                source: "cli.migrate",
                catalog_spec: &args.database,
                workload_sql: &workload_text,
                constraints_text: constraints_text.as_deref(),
                disks: &disks,
                k: args.k,
                threads: args.search_threads(),
                ts_unix_ms: now_unix_ms(),
            },
            &outcome,
            &current,
            &graph,
            &workload,
            min_improvement,
            &prof.rows(),
            &outcome.work,
        );
        let id = append_decision(&args.audit_dir, record)?;
        plan.decision_id = Some(id);
        println!("(decision recorded as id {id} in {})", args.audit_dir);
    }

    let artifact = serde_json::Value::Map(vec![
        ("recommendation".to_string(), outcome.to_json()),
        ("plan".to_string(), plan.to_json()),
    ]);
    write_json_value(&json_out, &artifact)?;
    println!("(plan artifact written to {json_out})");
    Ok(())
}

fn run_audit(args: &[String]) -> Result<ExitCode, String> {
    use dblayout_audit::{replay, DecisionLog, ReplayConfig};

    let mut audit_dir = DEFAULT_AUDIT_DIR.to_string();
    let mut threshold_pct: Option<f64> = None;
    let mut threads: Option<usize> = None;
    let mut perturb = 1.0f64;
    let mut words: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--audit-dir" => audit_dir = value("--audit-dir")?,
            "--threshold-pct" => {
                let t: f64 = value("--threshold-pct")?
                    .parse()
                    .map_err(|e| format!("bad --threshold-pct: {e}"))?;
                if !(t.is_finite() && t >= 0.0) {
                    return Err("--threshold-pct must be a finite non-negative percent".into());
                }
                threshold_pct = Some(t);
            }
            "--threads" => {
                let t: usize = value("--threads")?
                    .parse()
                    .map_err(|e| format!("bad --threads: {e}"))?;
                if t == 0 {
                    return Err("--threads must be at least 1".to_string());
                }
                threads = Some(t);
            }
            "--perturb" => {
                perturb = value("--perturb")?
                    .parse()
                    .map_err(|e| format!("bad --perturb: {e}"))?;
                if !(perturb.is_finite() && perturb > 0.0) {
                    return Err("--perturb must be a finite positive factor".into());
                }
            }
            "--help" | "-h" => return Err(AUDIT_USAGE.to_string()),
            other if other.starts_with("--") => {
                return Err(format!("unknown flag `{other}`\n\n{AUDIT_USAGE}"))
            }
            word => words.push(word.to_string()),
        }
    }
    let parse_id = |s: &str| -> Result<u64, String> {
        s.parse().map_err(|e| format!("bad decision id `{s}`: {e}"))
    };

    match words
        .iter()
        .map(String::as_str)
        .collect::<Vec<_>>()
        .as_slice()
    {
        ["list"] => {
            let log = DecisionLog::open(&audit_dir).map_err(|e| e.to_string())?;
            let summaries = log.list().map_err(|e| e.to_string())?;
            if summaries.is_empty() {
                println!("no decisions recorded in {audit_dir}");
                return Ok(ExitCode::SUCCESS);
            }
            println!(
                "{:>6}  {:<19}  {:<16}  {:>12}  {:>8}  {:<20}  git_rev",
                "id", "kind", "strategy", "predicted_ms", "impr_pct", "source"
            );
            for s in &summaries {
                println!(
                    "{:>6}  {:<19}  {:<16}  {:>12.1}  {:>8.2}  {:<20}  {}",
                    s.id,
                    s.kind,
                    s.strategy,
                    s.predicted_cost_ms,
                    s.improvement_pct,
                    s.source,
                    s.git_rev
                );
            }
            Ok(ExitCode::SUCCESS)
        }
        ["show", id] => {
            let log = DecisionLog::open(&audit_dir).map_err(|e| e.to_string())?;
            let record = log.get(parse_id(id)?).map_err(|e| e.to_string())?;
            let text = serde_json::to_string_pretty(&record).map_err(|e| e.to_string())?;
            println!("{text}");
            Ok(ExitCode::SUCCESS)
        }
        ["diff", a, b] => {
            let log = DecisionLog::open(&audit_dir).map_err(|e| e.to_string())?;
            let ra = log.get(parse_id(a)?).map_err(|e| e.to_string())?;
            let rb = log.get(parse_id(b)?).map_err(|e| e.to_string())?;
            println!("decision {} vs decision {}:", ra.id, rb.id);
            let digest_rows = [
                ("catalog", &ra.digests.catalog, &rb.digests.catalog),
                ("workload", &ra.digests.workload, &rb.digests.workload),
                ("disks", &ra.digests.disks, &rb.digests.disks),
                ("config", &ra.digests.config, &rb.digests.config),
                ("graph", &ra.digests.graph, &rb.digests.graph),
            ];
            for (name, da, db) in digest_rows {
                if da == db {
                    println!("  {name:<9} digest: identical ({da})");
                } else {
                    println!("  {name:<9} digest: DIFFERS   ({da} vs {db})");
                }
            }
            println!(
                "  strategy        : {} vs {}",
                ra.outcome.strategy, rb.outcome.strategy
            );
            println!(
                "  predicted cost  : {:.1} ms vs {:.1} ms",
                ra.outcome.predicted_cost_ms, rb.outcome.predicted_cost_ms
            );
            println!(
                "  improvement     : {:.2}% vs {:.2}%",
                ra.outcome.improvement_pct, rb.outcome.improvement_pct
            );
            let cells_a: usize = ra.outcome.fractions.iter().map(Vec::len).sum();
            let diverged = if ra.outcome.fractions == rb.outcome.fractions {
                0
            } else {
                ra.outcome
                    .fractions
                    .iter()
                    .flatten()
                    .zip(rb.outcome.fractions.iter().flatten())
                    .filter(|(x, y)| x.to_bits() != y.to_bits())
                    .count()
                    .max(1)
            };
            println!("  layout          : {diverged} of {cells_a} fraction cells differ");
            Ok(ExitCode::SUCCESS)
        }
        ["replay", id] => {
            let log = DecisionLog::open(&audit_dir).map_err(|e| e.to_string())?;
            let record = log.get(parse_id(id)?).map_err(|e| e.to_string())?;
            let cfg = ReplayConfig {
                threads,
                error_threshold_pct: threshold_pct.unwrap_or(f64::INFINITY),
                predicted_scale: perturb,
            };
            let report = replay(&record, &cfg).map_err(|e| e.to_string())?;
            println!(
                "replaying decision {} ({}, recorded by {}) with {} thread(s)",
                record.id, report.kind, record.git_rev, report.threads
            );
            if report.layout_matches {
                println!("layout reproduction : bit-identical");
            } else {
                println!(
                    "layout reproduction : DIVERGED — {} fraction cell(s) differ",
                    report.mismatched_cells
                );
            }
            println!(
                "record integrity    : graph digest {}",
                if report.graph_digest_ok {
                    "ok"
                } else {
                    "MISMATCH (record corrupted)"
                }
            );
            println!("recorded prediction : {:.1} ms", report.recorded_cost_ms);
            println!("replayed prediction : {:.1} ms", report.predicted_cost_ms);
            println!("simulated           : {:.1} ms", report.simulated_ms);
            match threshold_pct {
                Some(t) => println!(
                    "relative error      : {:.2}%  (threshold {t}%)",
                    report.relative_error_pct
                ),
                None => println!("relative error      : {:.2}%", report.relative_error_pct),
            }
            if report.passed() {
                println!("verdict: PASSED");
                Ok(ExitCode::SUCCESS)
            } else {
                println!("verdict: FAILED");
                Ok(ExitCode::from(3))
            }
        }
        [] => Err(AUDIT_USAGE.to_string()),
        other => Err(format!(
            "unknown audit command `{}`\n\n{AUDIT_USAGE}",
            other.join(" ")
        )),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("explain") => run_explain(&args[1..]).map(|()| ExitCode::SUCCESS),
        Some("serve") => run_serve(&args[1..]).map(|()| ExitCode::SUCCESS),
        Some("client") => run_client(&args[1..]).map(|()| ExitCode::SUCCESS),
        Some("lint") => run_lint(&args[1..]),
        Some("benchdiff") => run_benchdiff(&args[1..]),
        Some("loadtest") => run_loadtest(&args[1..]),
        Some("drift") => run_drift(&args[1..]),
        Some("migrate") => run_migrate(&args[1..]).map(|()| ExitCode::SUCCESS),
        Some("audit") => run_audit(&args[1..]),
        _ => run(&args).map(|()| ExitCode::SUCCESS),
    };
    match outcome {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
