//! The on-disk decision log: rotating JSONL segments.
//!
//! Layout on disk (all under one directory):
//!
//! ```text
//! results/decisions/
//!   decisions-000001.jsonl  records 1..9   (named by first id)
//!   decisions-000010.jsonl  records 10..16
//! ```
//!
//! Properties:
//!
//! * **Monotone ids.** The next id is one past the highest id in any
//!   segment. Pruning deletes only the oldest segments and always keeps
//!   the newest, so ids keep increasing across process restarts and
//!   pruning — a decision id is forever unique within a log directory.
//! * **Size-bounded.** A segment is closed once appending would push it
//!   past [`LogConfig::max_segment_bytes`]; when more than
//!   [`LogConfig::max_segments`] segments exist, the oldest is deleted.
//!   The log can therefore run unattended on a long-lived server.
//! * **Crash-tolerant open.** An append is one `write_all` of one line,
//!   so a process killed mid-append leaves at most a partial last line
//!   without its `\n`. Opening truncates such a segment back to its last
//!   `\n`; any complete line that does not parse is still an error. One
//!   process writes a log directory at a time.

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use dblayout_obs::counters::{self, Counter};
use serde::Serialize;
use serde_json::{Value, ValueExt};

use crate::record::DecisionRecord;
use crate::AuditError;

/// Rotation bounds for a decision log.
#[derive(Debug, Clone)]
pub struct LogConfig {
    /// Segment size at which rotation happens (a single oversized record
    /// still gets written — into its own segment).
    pub max_segment_bytes: u64,
    /// Segments kept; the oldest beyond this is deleted. At least one is
    /// always kept (0 reads as 1), so the newest id survives pruning.
    pub max_segments: usize,
}

impl Default for LogConfig {
    fn default() -> Self {
        Self {
            max_segment_bytes: 1 << 20,
            max_segments: 8,
        }
    }
}

#[derive(Debug, Clone)]
struct Segment {
    file: String,
    first_id: u64,
    last_id: u64,
    bytes: u64,
}

/// A one-line view of a record, for listings and the `audit_list` op.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DecisionSummary {
    /// Decision id.
    pub id: u64,
    /// Caller-supplied timestamp, when recorded.
    pub ts_unix_ms: Option<u64>,
    /// `recommend` / `recommend_budgeted`.
    pub kind: String,
    /// Origin label.
    pub source: String,
    /// Strategy attribution.
    pub strategy: String,
    /// Predicted cost of the chosen layout (ms).
    pub predicted_cost_ms: f64,
    /// Improvement over the baseline (percent).
    pub improvement_pct: f64,
    /// Git revision of the deciding build.
    pub git_rev: String,
}

impl DecisionSummary {
    fn of(r: &DecisionRecord) -> Self {
        Self {
            id: r.id,
            ts_unix_ms: r.ts_unix_ms,
            kind: r.kind.as_str().to_string(),
            source: r.source.clone(),
            strategy: r.outcome.strategy.clone(),
            predicted_cost_ms: r.outcome.predicted_cost_ms,
            improvement_pct: r.outcome.improvement_pct,
            git_rev: r.git_rev.clone(),
        }
    }
}

/// An open decision log bound to one directory.
#[derive(Debug)]
pub struct DecisionLog {
    dir: PathBuf,
    cfg: LogConfig,
    next_id: u64,
    segments: Vec<Segment>,
}

fn io_err(path: &Path, source: std::io::Error) -> AuditError {
    AuditError::Io {
        path: path.display().to_string(),
        source,
    }
}

impl DecisionLog {
    /// Opens (creating missing parent directories) with default rotation
    /// bounds.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, AuditError> {
        Self::open_with(dir, LogConfig::default())
    }

    /// Opens a log directory, creating it (and any missing parents) if
    /// needed, and recovers the id high-water mark and segment list.
    pub fn open_with(dir: impl AsRef<Path>, mut cfg: LogConfig) -> Result<Self, AuditError> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir).map_err(|e| io_err(&dir, e))?;
        cfg.max_segments = cfg.max_segments.max(1);

        // Segment list from the directory itself; the id range of each
        // segment from its own lines.
        let mut next_id: u64 = 1;
        let entries = fs::read_dir(&dir).map_err(|e| io_err(&dir, e))?;
        let mut names: Vec<String> = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| io_err(&dir, e))?;
            let name = entry.file_name().to_string_lossy().to_string();
            if name.starts_with("decisions-") && name.ends_with(".jsonl") {
                names.push(name);
            }
        }
        names.sort();
        let mut segments = Vec::with_capacity(names.len());
        for name in names {
            let path = dir.join(&name);
            let mut bytes = fs::read(&path).map_err(|e| io_err(&path, e))?;
            if bytes.last().is_some_and(|&b| b != b'\n') {
                // A torn append: drop the partial last line (which may end
                // inside a multi-byte character).
                bytes.truncate(bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1));
                fs::OpenOptions::new()
                    .write(true)
                    .open(&path)
                    .and_then(|f| f.set_len(bytes.len() as u64))
                    .map_err(|e| io_err(&path, e))?;
            }
            let text = String::from_utf8(bytes).map_err(|e| {
                AuditError::Parse(format!("corrupt segment `{}`: {e}", path.display()))
            })?;
            let mut first_id = 0u64;
            let mut last_id = 0u64;
            for line in text.lines().filter(|l| !l.trim().is_empty()) {
                let value: Value = serde_json::from_str(line).map_err(|e| {
                    AuditError::Parse(format!("corrupt segment `{}`: {e}", path.display()))
                })?;
                let id = value.get("id").and_then(|v| v.as_u64()).ok_or_else(|| {
                    AuditError::Parse(format!("record without id in `{}`", path.display()))
                })?;
                if first_id == 0 {
                    first_id = id;
                }
                last_id = last_id.max(id);
            }
            if first_id == 0 {
                continue; // empty segment file; ignore
            }
            next_id = next_id.max(last_id + 1);
            segments.push(Segment {
                file: name,
                first_id,
                last_id,
                bytes: text.len() as u64,
            });
        }
        segments.sort_by_key(|s| s.first_id);

        Ok(Self {
            dir,
            cfg,
            next_id,
            segments,
        })
    }

    /// The directory this log writes to.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The id the next append will assign.
    pub fn next_id(&self) -> u64 {
        self.next_id
    }

    /// Appends a record, assigning it the next monotone id (also written
    /// back into `record.id`). Returns the assigned id.
    pub fn append(&mut self, record: &mut DecisionRecord) -> Result<u64, AuditError> {
        record.id = self.next_id;
        let mut line = record.to_jsonl()?;
        line.push('\n');
        let line_bytes = line.len() as u64;

        let rotate = match self.segments.last() {
            Some(seg) => seg.bytes + line_bytes > self.cfg.max_segment_bytes,
            None => true,
        };
        if rotate {
            self.segments.push(Segment {
                file: format!("decisions-{:06}.jsonl", record.id),
                first_id: record.id,
                last_id: record.id,
                bytes: 0,
            });
        }
        // `rotate` guarantees a last segment; fall back to a fresh name
        // rather than unwrap to keep this path total.
        let seg = match self.segments.last_mut() {
            Some(seg) => seg,
            None => return Err(AuditError::Parse("segment list empty after rotate".into())),
        };
        let path = self.dir.join(&seg.file);
        let mut file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| io_err(&path, e))?;
        file.write_all(line.as_bytes())
            .map_err(|e| io_err(&path, e))?;
        seg.bytes += line_bytes;
        seg.last_id = record.id;
        self.next_id += 1;

        while self.segments.len() > self.cfg.max_segments {
            let old = self.segments.remove(0);
            let old_path = self.dir.join(&old.file);
            match fs::remove_file(&old_path) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(io_err(&old_path, e)),
            }
        }
        counters::incr(Counter::AuditRecordsWritten);
        Ok(record.id)
    }

    /// Summaries of every retained record, id order.
    pub fn list(&self) -> Result<Vec<DecisionSummary>, AuditError> {
        let mut out = Vec::new();
        for seg in &self.segments {
            let path = self.dir.join(&seg.file);
            let text = fs::read_to_string(&path).map_err(|e| io_err(&path, e))?;
            for line in text.lines().filter(|l| !l.trim().is_empty()) {
                out.push(DecisionSummary::of(&DecisionRecord::from_jsonl(line)?));
            }
        }
        out.sort_by_key(|s| s.id);
        Ok(out)
    }

    /// Loads one record by id. [`AuditError::NotFound`] when the id was
    /// never assigned or its segment has been pruned.
    pub fn get(&self, id: u64) -> Result<DecisionRecord, AuditError> {
        let seg = self
            .segments
            .iter()
            .find(|s| s.first_id <= id && id <= s.last_id)
            .ok_or(AuditError::NotFound(id))?;
        let path = self.dir.join(&seg.file);
        let text = fs::read_to_string(&path).map_err(|e| io_err(&path, e))?;
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            let record = DecisionRecord::from_jsonl(line)?;
            if record.id == id {
                return Ok(record);
            }
        }
        Err(AuditError::NotFound(id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{record_recommendation, RecordInputs};
    use dblayout_core::advisor::{Advisor, AdvisorConfig};
    use dblayout_core::tsgreedy::TsGreedyConfig;
    use dblayout_disksim::uniform_disks;

    fn temp_log_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dblayout_audit_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_record(tag: u64) -> DecisionRecord {
        let catalog = dblayout_catalog::resolve_catalog("tpch:0.01").expect("catalog");
        let disks = uniform_disks(3, 200_000, 9.0, 20.0);
        // Vary the weight per record so records are distinguishable.
        let workload_sql = format!(
            "-- weight: {}\nSELECT COUNT(*) FROM lineitem, orders WHERE l_orderkey = o_orderkey;",
            tag + 1
        );
        let advisor = Advisor::new(&catalog, &disks);
        let cfg = AdvisorConfig {
            search: TsGreedyConfig {
                k: 4,
                threads: 1,
                ..TsGreedyConfig::default()
            },
            ..AdvisorConfig::default()
        };
        let rec = advisor
            .recommend_sql(&workload_sql, &cfg)
            .expect("recommend");
        record_recommendation(
            &RecordInputs {
                source: "test.log",
                catalog_spec: "tpch:0.01",
                workload_sql: &workload_sql,
                constraints_text: None,
                disks: &disks,
                k: 4,
                threads: 1,
                ts_unix_ms: Some(1_700_000_000_000 + tag),
            },
            &rec,
            &[],
            &rec.work,
        )
    }

    #[test]
    fn append_assigns_monotone_ids_and_get_round_trips() {
        let dir = temp_log_dir("roundtrip");
        let mut log = DecisionLog::open(&dir).expect("open");
        let mut a = sample_record(0);
        let mut b = sample_record(1);
        assert_eq!(log.append(&mut a).expect("append"), 1);
        assert_eq!(log.append(&mut b).expect("append"), 2);
        assert_eq!(log.get(1).expect("get").workload_sql, a.workload_sql);
        assert_eq!(log.get(2).expect("get"), b);
        assert!(matches!(log.get(99), Err(AuditError::NotFound(99))));
        let listed = log.list().expect("list");
        assert_eq!(listed.len(), 2);
        assert_eq!(listed[0].id, 1);
        assert_eq!(listed[1].id, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn ids_survive_reopen() {
        let dir = temp_log_dir("reopen");
        {
            let mut log = DecisionLog::open(&dir).expect("open");
            let mut r = sample_record(0);
            assert_eq!(log.append(&mut r).expect("append"), 1);
        }
        {
            let log = DecisionLog::open(&dir).expect("reopen");
            assert_eq!(log.next_id(), 2);
            assert_eq!(log.get(1).expect("get").id, 1);
        }
        // An append writes the segment line and nothing else.
        let files: Vec<_> = fs::read_dir(&dir)
            .expect("read dir")
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().to_string())
            .collect();
        assert_eq!(files, vec!["decisions-000001.jsonl".to_string()]);
        let mut log = DecisionLog::open(&dir).expect("reopen");
        assert_eq!(log.next_id(), 2);
        let mut r = sample_record(1);
        assert_eq!(log.append(&mut r).expect("append"), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_bounds_segments_and_prunes_oldest() {
        let dir = temp_log_dir("rotate");
        let cfg = LogConfig {
            max_segment_bytes: 1, // every record rotates into its own segment
            max_segments: 3,
        };
        let mut log = DecisionLog::open_with(&dir, cfg).expect("open");
        for i in 0..5u64 {
            let mut r = sample_record(i);
            assert_eq!(log.append(&mut r).expect("append"), i + 1);
        }
        // Only the 3 newest records survive; ids stayed monotone.
        let listed = log.list().expect("list");
        assert_eq!(
            listed.iter().map(|s| s.id).collect::<Vec<_>>(),
            vec![3, 4, 5]
        );
        assert!(matches!(log.get(1), Err(AuditError::NotFound(1))));
        assert!(log.get(5).is_ok());
        // Reopening after pruning continues from the high-water mark.
        let log = DecisionLog::open_with(
            &dir,
            LogConfig {
                max_segment_bytes: 1,
                max_segments: 3,
            },
        )
        .expect("reopen");
        assert_eq!(log.next_id(), 6);
        let files: Vec<_> = fs::read_dir(&dir)
            .expect("read dir")
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().to_string())
            .filter(|n| n.ends_with(".jsonl"))
            .collect();
        assert_eq!(files.len(), 3, "pruned segment files linger: {files:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn zero_max_segments_still_keeps_the_newest_segment() {
        let dir = temp_log_dir("zero");
        let cfg = LogConfig {
            max_segment_bytes: 1,
            max_segments: 0,
        };
        let mut log = DecisionLog::open_with(&dir, cfg.clone()).expect("open");
        for i in 0..2u64 {
            assert_eq!(log.append(&mut sample_record(i)).expect("append"), i + 1);
        }
        let listed = log.list().expect("list");
        assert_eq!(listed.iter().map(|s| s.id).collect::<Vec<_>>(), vec![2]);
        let log = DecisionLog::open_with(&dir, cfg).expect("reopen");
        assert_eq!(log.next_id(), 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_creates_missing_parent_directories() {
        let dir = temp_log_dir("parents").join("deeply/nested/decisions");
        let log = DecisionLog::open(&dir).expect("open with missing parents");
        assert!(log.dir().is_dir());
        let _ = fs::remove_dir_all(dir.ancestors().nth(3).unwrap_or(&dir));
    }

    #[test]
    fn io_errors_name_the_path() {
        // Opening a log "directory" that is actually a file fails with the
        // path in the message.
        let dir = temp_log_dir("badpath");
        fs::create_dir_all(&dir).expect("mkdir");
        let file = dir.join("not_a_dir");
        fs::write(&file, "x").expect("write");
        let err = DecisionLog::open(&file).expect_err("must fail");
        assert!(format!("{err}").contains("not_a_dir"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }
}
