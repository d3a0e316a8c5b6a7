//! Records engine throughput (interactions/sec) on 3-state majority into
//! `BENCH_engine.json` — the committed snapshot behind the batched-engine
//! acceptance numbers.
//!
//! Three engines at `n ∈ {10⁴, 10⁶, 10⁸}`:
//!
//! * `sequential` — per-agent scheduler (`Simulation::step`),
//! * `batch_pairwise` — the seed configuration-space engine (per-pair
//!   draws, linear-scan sampling),
//! * `batch_multinomial` — the Fenwick/multinomial engine.
//!
//! Each rate drives a fresh 60/40 configuration for a fixed interaction
//! budget well below the convergence horizon (so the configuration stays
//! mixed and the tally work is representative), repeating until ≥ 0.5 s of
//! wall clock has been accumulated.
//!
//! Usage: `cargo run --release -p plurality-bench --bin bench_engine
//! [-- path/to/BENCH_engine.json]`

use std::time::Instant;

use pp_engine::{BatchSimulation, PairwiseBatchSimulation, Simulation};
use pp_majority::ThreeState;

/// Repeat `run` — which simulates `target` interactions from a fresh
/// configuration and returns the seconds spent *stepping only* (setup such
/// as the per-agent state vector stays off the clock) — until half a
/// second of measured time accumulates; returns interactions per second.
fn rate(target: u64, mut run: impl FnMut() -> f64) -> f64 {
    // One warm-up (page-faults the allocations).
    run();
    let mut reps = 0u64;
    let mut secs = 0.0f64;
    while secs < 0.5 || reps < 2 {
        secs += run();
        reps += 1;
    }
    (reps * target) as f64 / secs
}

fn main() {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_engine.json".into());
    let grid: [u64; 3] = [10_000, 1_000_000, 100_000_000];
    let labels = ["1e4", "1e6", "1e8"];
    let counts = |n: u64| vec![0u64, n * 3 / 5, n * 2 / 5];

    let mut rows: Vec<(&str, Vec<f64>)> = Vec::new();

    let seq: Vec<f64> = grid
        .iter()
        .map(|&n| {
            // Cap the budget: pre-convergence and bounded wall clock.
            let target = (5 * n).min(30_000_000);
            rate(target, || {
                let states = ThreeState::initial_states((n * 3 / 5) as usize, (n * 2 / 5) as usize);
                let mut sim = Simulation::new(ThreeState, states, 42);
                let t0 = Instant::now();
                for _ in 0..target {
                    sim.step();
                }
                t0.elapsed().as_secs_f64()
            })
        })
        .collect();
    rows.push(("sequential", seq));

    let pairwise: Vec<f64> = grid
        .iter()
        .map(|&n| {
            let target = (5 * n).min(50_000_000);
            rate(target, || {
                let mut sim = PairwiseBatchSimulation::new(ThreeState, counts(n), 42);
                let t0 = Instant::now();
                while sim.interactions() < target {
                    sim.step_batch();
                }
                t0.elapsed().as_secs_f64()
            })
        })
        .collect();
    rows.push(("batch_pairwise", pairwise));

    let multinomial: Vec<f64> = grid
        .iter()
        .map(|&n| {
            let target = (5 * n).min(1_000_000_000);
            rate(target, || {
                let mut sim = BatchSimulation::new(ThreeState, counts(n), 42);
                let t0 = Instant::now();
                while sim.interactions() < target {
                    sim.step_batch();
                }
                t0.elapsed().as_secs_f64()
            })
        })
        .collect();
    rows.push(("batch_multinomial", multinomial));

    println!("interactions/sec on 3-state majority (60/40 start):");
    println!(
        "{:>20} {:>12} {:>12} {:>12}",
        "engine", "n=1e4", "n=1e6", "n=1e8"
    );
    for (name, rates) in &rows {
        println!(
            "{name:>20} {:>12} {:>12} {:>12}",
            human(rates[0]),
            human(rates[1]),
            human(rates[2])
        );
    }
    let speedup = rows[2].1[1] / rows[1].1[1];
    println!("multinomial vs pairwise at n=1e6: {speedup:.1}x (acceptance bar: 10x)");

    // Every engine runs on one thread; the core count documents the host.
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut json = String::from("{\n");
    json.push_str("  \"protocol\": \"three_state_majority\",\n");
    json.push_str("  \"configuration\": \"60/40 opinion split, pre-convergence budget\",\n");
    json.push_str(
        "  \"generated_by\": \"cargo run --release -p plurality-bench --bin bench_engine\",\n",
    );
    json.push_str(&format!("  \"threads_available\": {cores},\n"));
    json.push_str("  \"interactions_per_sec\": {\n");
    for (r, (name, rates)) in rows.iter().enumerate() {
        json.push_str(&format!("    \"{name}\": {{"));
        for (i, label) in labels.iter().enumerate() {
            json.push_str(&format!("\"{label}\": {:.0}", rates[i]));
            if i + 1 < labels.len() {
                json.push_str(", ");
            }
        }
        json.push('}');
        if r + 1 < rows.len() {
            json.push(',');
        }
        json.push('\n');
    }
    json.push_str("  },\n");
    json.push_str(&format!(
        "  \"speedup_multinomial_vs_pairwise_n1e6\": {speedup:.2}\n"
    ));
    json.push_str("}\n");
    std::fs::write(&path, json).expect("write BENCH_engine.json");
    eprintln!("wrote {path}");
}

fn human(x: f64) -> String {
    if x >= 1e9 {
        format!("{:.2}G", x / 1e9)
    } else if x >= 1e6 {
        format!("{:.1}M", x / 1e6)
    } else {
        format!("{:.0}K", x / 1e3)
    }
}
