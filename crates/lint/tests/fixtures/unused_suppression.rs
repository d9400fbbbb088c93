//! A well-formed suppression whose finding no longer exists: the
//! directive itself becomes the finding (`unused-suppression`), so stale
//! audit trail cannot accumulate. Analyzed at
//! `crates/server/src/fixture.rs`.
// dblayout::allow(R3, reason = "stale: the float comparison below was removed in a refactor")
pub fn fine() -> u32 {
    0
}
