//! # dblayout-audit — decision provenance and an accuracy observatory
//!
//! The advisor is a cost-based what-if loop, but a recommendation that
//! cannot be explained or re-derived later is advice nobody can trust.
//! This crate gives every recommendation a durable, *replayable* paper
//! trail (DESIGN.md §10):
//!
//! * [`DecisionRecord`] — one decision, self-contained: content digests
//!   of every input (catalog spec, workload SQL, disk specs, search
//!   config, git revision), the advised-time access-graph snapshot, the
//!   chosen layout's full fraction matrix, per-statement and per-disk
//!   predicted cost breakdowns, search counters, phase timings, and
//!   strategy attribution. A record re-derives the layout from nothing
//!   but itself — no session state, no live server.
//! * [`DecisionLog`] — a size-bounded, rotating on-disk JSONL log with
//!   monotone decision ids. Appends survive process restarts (ids keep
//!   increasing); old segments are pruned once the configured bound is
//!   exceeded; a partial line left by an interrupted append is dropped
//!   when the log is next opened.
//! * [`replay`](mod@replay) — the verification pass: re-runs the recorded search
//!   from the record's inputs, bit-compares the reproduced layout
//!   against the recorded one, then runs the recorded layout through
//!   `dblayout-disksim` and reports the predicted-vs-simulated relative
//!   error. This is the accuracy observatory: the cost model's estimates
//!   are continuously validated against realized (simulated) behavior,
//!   in the AutoAdmin tradition of validating advisor output instead of
//!   trusting it.
//!
//! Everything here sits inside lint rule R1's no-panic zone and R6's
//! determinism zone: no wall clocks (timestamps are caller-supplied), no
//! hash-map iteration, and total error paths — an audit layer that can
//! panic or drift across runs would defeat its own purpose.

// R1: no panic shortcuts outside tests (DESIGN.md §5).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub mod log;
pub mod record;
pub mod replay;

pub use crate::log::{DecisionLog, DecisionSummary};
pub use record::{
    record_budgeted, record_recommendation, DecisionKind, DecisionOutcome, DecisionRecord, Digests,
    DiskCost, DiskSpecRecord, GraphSnapshot, PhaseRecord, RecordInputs, SearchSettings,
    StatementCost,
};
pub use replay::{replay, ReplayConfig, ReplayReport};

/// FNV-1a 64-bit over a byte slice — the workspace's content-digest
/// primitive (the same fold the server uses for layout hashes). Not
/// cryptographic; collisions are astronomically unlikely at the scale of
/// a decision log and the digests exist to *detect drift*, not to
/// authenticate.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a digest rendered as the canonical 16-hex-digit form used in
/// records and wire responses.
pub fn digest_hex(bytes: &[u8]) -> String {
    format!("{:016x}", fnv1a(bytes))
}

/// The git revision baked into this process, for joining decision records
/// and scraped metrics with BENCH_* histories by revision. Reads
/// `DBLAYOUT_GIT_REV` (CI exports the commit SHA); `unknown` outside any
/// build pipeline.
pub fn git_rev() -> String {
    match std::env::var("DBLAYOUT_GIT_REV") {
        Ok(rev) if !rev.trim().is_empty() => rev.trim().to_string(),
        _ => "unknown".to_string(),
    }
}

/// The crate version compiled into this process.
pub fn build_version() -> &'static str {
    env!("CARGO_PKG_VERSION")
}

/// Anything that can go wrong while recording, storing, or replaying a
/// decision.
#[derive(Debug)]
pub enum AuditError {
    /// Filesystem failure; carries the path so the operator knows *which*
    /// file, not just the errno.
    Io {
        /// The file or directory the operation touched.
        path: String,
        /// The underlying error.
        source: std::io::Error,
    },
    /// A record failed to parse.
    Parse(String),
    /// No record with the requested id exists (it may have been pruned by
    /// rotation).
    NotFound(u64),
    /// The replay pass could not re-derive the decision.
    Replay(String),
}

impl std::fmt::Display for AuditError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AuditError::Io { path, source } => write!(f, "audit io error at `{path}`: {source}"),
            AuditError::Parse(msg) => write!(f, "audit parse error: {msg}"),
            AuditError::NotFound(id) => {
                write!(
                    f,
                    "decision {id} not found (pruned by rotation or never recorded)"
                )
            }
            AuditError::Replay(msg) => write!(f, "replay error: {msg}"),
        }
    }
}

impl std::error::Error for AuditError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AuditError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
        assert_eq!(digest_hex(b"foobar"), "85944171f73967e8");
    }

    #[test]
    fn digest_hex_is_fixed_width() {
        assert_eq!(digest_hex(b"").len(), 16);
        assert_eq!(digest_hex(b"x").len(), 16);
    }

    #[test]
    fn build_identity_is_present() {
        assert!(!build_version().is_empty());
        // git_rev never fails; without the env var it reports "unknown".
        assert!(!git_rev().is_empty());
    }

    #[test]
    fn errors_render_their_context() {
        let e = AuditError::Io {
            path: "results/decisions/decisions-000001.jsonl".into(),
            source: std::io::Error::new(std::io::ErrorKind::NotFound, "gone"),
        };
        let text = format!("{e}");
        assert!(text.contains("results/decisions/decisions-000001.jsonl"));
        assert!(format!("{}", AuditError::NotFound(42)).contains("42"));
    }
}
