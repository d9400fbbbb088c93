//! A zone file whose one wall-clock read carries a reasoned suppression:
//! the elapsed time feeds only a timing report, never the result.
//! Analyzed at `crates/obs/src/fixture.rs`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, u128) {
    let t = std::time::Instant::now(); // dblayout::allow(R6, reason = "feeds only the timing report, never the result")
    let out = f();
    (out, t.elapsed().as_micros())
}
