//! Ablation A3: contribution of TS-GREEDY's two steps (step-1-only is the
//! pure-clustering strategy of Livny et al. \[12\] discussed in §8).

fn main() {
    println!("Ablation A3: step contributions on TPCH-22");
    println!();
    println!("{:<26} {:>16}", "strategy", "cost (ms)");
    let rows = dblayout_bench::ablations::run_a3();
    for r in &rows {
        println!("{:<26} {:>16.1}", r.strategy, r.cost_ms);
    }
    dblayout_bench::write_json("ablation_steps", &rows);
}
