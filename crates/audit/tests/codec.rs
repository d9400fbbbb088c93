//! The decision-record codec and the on-disk log, pinned from outside the
//! crate: exact JSONL bytes of hand-built records, a log written by an
//! earlier build, the records the reader must refuse, and recovery from
//! an append cut off mid-line.

use std::fs;
use std::path::{Path, PathBuf};

use dblayout_audit::{
    DecisionKind, DecisionLog, DecisionOutcome, DecisionRecord, Digests, DiskCost, DiskSpecRecord,
    GraphSnapshot, PhaseRecord, SearchSettings, StatementCost,
};

const GOLDEN_SOME: &str = include_str!("fixtures/golden_some.jsonl");
const GOLDEN_NONE: &str = include_str!("fixtures/golden_none.jsonl");

/// Two records, a `recommend` and a `migrate`, that `dblayout` wrote at
/// revision 9e7a168, before the record codec was derived; the directory
/// also holds the `index.json` that build kept.
fn earlier_log() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/earlier_log")
}

/// A fresh, empty scratch directory under the system temp dir.
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dblayout_codec_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Every `Option` is `Some`; the values reach the printer's corners: a
/// `u64` above `i64::MAX`, integral, negative-zero, tiny and huge floats,
/// and strings that need escaping.
fn record_all_some() -> DecisionRecord {
    DecisionRecord {
        id: 7,
        ts_unix_ms: Some(1_700_000_000_123),
        kind: DecisionKind::Budgeted,
        source: "test.golden".into(),
        git_rev: "abc123".into(),
        version: "0.1.0".into(),
        catalog_spec: "tpch:0.01".into(),
        workload_sql: "-- weight: 2.5\nSELECT \"a\\b\" FROM t;\ttab é ✓\u{1}".into(),
        constraints_text: Some("colocate lineitem orders\n".into()),
        disks: vec![
            DiskSpecRecord {
                name: "d0".into(),
                capacity_blocks: u64::MAX,
                avg_seek_ms: 9.0,
                read_mb_s: 20.5,
                write_mb_s: 1e-7,
                avail: "parity".into(),
            },
            DiskSpecRecord {
                name: "d1".into(),
                capacity_blocks: 200_000,
                avg_seek_ms: 8.25,
                read_mb_s: 25.0,
                write_mb_s: 22.0,
                avail: "none".into(),
            },
        ],
        config: SearchSettings {
            k: 4,
            threads: 2,
            budget_blocks: Some(80),
            min_improvement_pct: Some(1.5),
            deployed: Some(vec![vec![0.5, 0.5], vec![1.0, -0.0]]),
        },
        digests: Digests {
            catalog: "548fe65e27326975".into(),
            workload: "7603d4b4fdbecadd".into(),
            disks: "605e56deb38915ba".into(),
            config: "29452cbb98f9132d".into(),
            graph: "09e7d8b6ef76dca9".into(),
        },
        graph: GraphSnapshot {
            node_weights: vec![0.0, 5.0, 1e20],
            edges: vec![(0, 1, 2.5), (1, 2, 0.1)],
        },
        outcome: DecisionOutcome {
            strategy: "seeded_search".into(),
            fractions: vec![vec![0.3333333333333333, 0.6666666666666667], vec![0.0, 1.0]],
            predicted_cost_ms: 512.5461333333334,
            baseline_cost_ms: 846.5,
            improvement_pct: -3.25,
            iterations: 2,
            cost_evaluations: 95,
            per_statement: vec![StatementCost {
                weight: 2.5,
                cost_ms: 168.7552,
            }],
            per_disk: vec![
                DiskCost {
                    transfer_ms: 100.0,
                    seek_ms: 0.125,
                },
                DiskCost::default(),
            ],
            phases: vec![PhaseRecord {
                name: "search".into(),
                calls: 1,
                total_us: 1234,
            }],
            counters: vec![
                ("tsgreedy_candidates_scored".into(), 93),
                ("costmodel_full_recosts".into(), 0),
            ],
        },
    }
}

/// Every `Option` is `None`, and the lists that may be empty are.
fn record_all_none() -> DecisionRecord {
    DecisionRecord {
        id: 1,
        ts_unix_ms: None,
        kind: DecisionKind::Recommend,
        source: "cli.recommend".into(),
        git_rev: "unknown".into(),
        version: "0.1.0".into(),
        catalog_spec: "sales".into(),
        workload_sql: "SELECT COUNT(*) FROM sales;".into(),
        constraints_text: None,
        disks: vec![DiskSpecRecord {
            name: "only".into(),
            capacity_blocks: 0,
            avg_seek_ms: 0.0,
            read_mb_s: 1.0,
            write_mb_s: 1.0,
            avail: "mirroring".into(),
        }],
        config: SearchSettings {
            k: 1,
            threads: 1,
            budget_blocks: None,
            min_improvement_pct: None,
            deployed: None,
        },
        digests: Digests {
            catalog: "0000000000000000".into(),
            workload: "1111111111111111".into(),
            disks: "2222222222222222".into(),
            config: "3333333333333333".into(),
            graph: "4444444444444444".into(),
        },
        graph: GraphSnapshot {
            node_weights: vec![1.0],
            edges: Vec::new(),
        },
        outcome: DecisionOutcome {
            strategy: "full_striping".into(),
            fractions: vec![vec![1.0]],
            predicted_cost_ms: 10.0,
            baseline_cost_ms: 10.0,
            improvement_pct: 0.0,
            iterations: 0,
            cost_evaluations: 1,
            per_statement: Vec::new(),
            per_disk: Vec::new(),
            phases: Vec::new(),
            counters: Vec::new(),
        },
    }
}

#[test]
fn hand_built_records_serialize_to_the_pinned_bytes() {
    for (record, golden) in [
        (record_all_some(), GOLDEN_SOME),
        (record_all_none(), GOLDEN_NONE),
    ] {
        let line = record.to_jsonl().expect("serialize");
        assert_eq!(line, golden.trim_end_matches('\n'));
        let back = DecisionRecord::from_jsonl(&line).expect("parse");
        assert_eq!(back, record);
    }
}

#[test]
fn a_log_written_by_an_earlier_build_reads_and_reserializes_byte_identically() {
    let dir = earlier_log();
    let log = DecisionLog::open(&dir).expect("open");
    assert_eq!(log.next_id(), 3);
    let listed = log.list().expect("list");
    assert_eq!(listed.iter().map(|s| s.id).collect::<Vec<_>>(), vec![1, 2]);
    assert_eq!(listed[0].kind, "recommend");
    assert_eq!(listed[1].kind, "recommend_budgeted");
    let text = fs::read_to_string(dir.join("decisions-000001.jsonl")).expect("read");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2);
    for (line, summary) in lines.iter().zip(&listed) {
        let got = log.get(summary.id).expect("get");
        assert_eq!(got, DecisionRecord::from_jsonl(line).expect("parse"));
        assert_eq!(&got.to_jsonl().expect("serialize"), line);
    }
}

#[test]
fn records_the_reader_must_refuse() {
    let none = GOLDEN_NONE.trim_end_matches('\n');
    let some = GOLDEN_SOME.trim_end_matches('\n');
    let cases = [
        (
            "missing constraints_text",
            none.replace("\"constraints_text\":null,", ""),
        ),
        (
            "integral float for an integer",
            some.replace("\"k\":4,", "\"k\":4.0,"),
        ),
        ("2-item graph edge", some.replace("[0,1,2.5]", "[0,1]")),
        (
            "unknown kind",
            none.replace("\"kind\":\"recommend\"", "\"kind\":\"warp\""),
        ),
    ];
    for (what, line) in cases {
        assert_ne!(line, none, "{what}: the edit must change the line");
        assert_ne!(line, some, "{what}: the edit must change the line");
        assert!(
            DecisionRecord::from_jsonl(&line).is_err(),
            "{what} was accepted"
        );
    }
}

#[test]
fn a_torn_append_is_truncated_away_at_open() {
    let dir = temp_dir("torn");
    let mut log = DecisionLog::open(&dir).expect("open");
    assert_eq!(log.append(&mut record_all_none()).expect("append"), 1);
    let segment = dir.join("decisions-000001.jsonl");
    let mut text = fs::read_to_string(&segment).expect("read");
    text.push_str("{\"id\":2,\"ts_unix_ms\":17000");
    fs::write(&segment, text).expect("tear");

    let mut log = DecisionLog::open(&dir).expect("reopen after a torn append");
    assert_eq!(log.list().expect("list").len(), 1);
    assert_eq!(log.next_id(), 2);
    assert_eq!(log.append(&mut record_all_some()).expect("append"), 2);
    let text = fs::read_to_string(&segment).expect("read");
    let ids: Vec<u64> = text
        .lines()
        .map(|l| DecisionRecord::from_jsonl(l).expect("every line parses").id)
        .collect();
    assert_eq!(ids, vec![1, 2]);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_torn_append_that_splits_a_character_is_truncated_too() {
    let dir = temp_dir("torn_utf8");
    let mut log = DecisionLog::open(&dir).expect("open");
    log.append(&mut record_all_none()).expect("append");
    let segment = dir.join("decisions-000001.jsonl");
    let mut bytes = fs::read(&segment).expect("read");
    // The first byte of the two-byte `é`, and nothing after it.
    bytes.extend_from_slice(b"{\"id\":2,\"workload_sql\":\"caf\xc3");
    fs::write(&segment, bytes).expect("tear");

    let mut log = DecisionLog::open(&dir).expect("reopen after a torn append");
    assert_eq!(log.list().expect("list").len(), 1);
    assert_eq!(log.append(&mut record_all_some()).expect("append"), 2);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_complete_line_that_does_not_parse_is_still_an_error() {
    let dir = temp_dir("corrupt");
    let mut log = DecisionLog::open(&dir).expect("open");
    log.append(&mut record_all_none()).expect("append");
    let segment = dir.join("decisions-000001.jsonl");
    let mut text = fs::read_to_string(&segment).expect("read");
    text.push_str("{\"id\":2,\"ts_unix_ms\":17000\n");
    fs::write(&segment, text).expect("corrupt");
    assert!(DecisionLog::open(&dir).is_err());
    let _ = fs::remove_dir_all(&dir);
}
