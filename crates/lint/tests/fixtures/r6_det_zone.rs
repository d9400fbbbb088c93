//! Seeded R6 violations: one of each determinism hazard, each on its own
//! line. Analyzed in a zone crate (every hazard is a finding) and under
//! `crates/server/src/` (outside the zone: none is).
use std::collections::{HashMap, HashSet};
use std::time::{Instant, SystemTime};

pub fn ts_greedy(weights: &HashMap<u64, f64>) -> f64 {
    let seen: HashSet<u64> = weights.keys().copied().collect();
    let started = Instant::now();
    let stamp = SystemTime::now();
    let worker = std::thread::current();
    let total: f64 = weights.values().sum();
    total + seen.len() as f64 + started.elapsed().as_secs_f64()
        - stamp.elapsed().map_or(0.0, |d| d.as_secs_f64())
        + worker.name().map_or(0.0, |n| n.len() as f64)
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    #[test]
    fn hazards_in_tests_are_exempt() {
        let m: HashMap<u64, u64> = HashMap::new();
        let _t = std::time::Instant::now();
        for _ in m.iter() {}
    }
}
