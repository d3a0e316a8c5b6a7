//! Trial-level thread-count invariance: the reproducibility contract
//! behind `xp --threads`. A single run always tallies on the calling
//! thread; parallelism lives across independent trials
//! ([`run_trials`]), each seeded from its index alone. Same seed ⇒ the
//! same per-trial results, fault records, churned series and
//! checkpoints at any worker count. If an assertion here fails, trials
//! have started to share state or to depend on which worker ran them.

use exact_plurality::engine::ensemble::run_trials;
use exact_plurality::engine::fault::ByzantineAdversary;
use exact_plurality::engine::{rng, ChurnProcess, ChurnSpec, SegmentRunner};
use exact_plurality::majority::ThreeState;
use exact_plurality::prelude::*;
use std::sync::Arc;

const N: u64 = 1_000_000;
const TRIALS: usize = 6;
const THREADS: [usize; 3] = [1, 2, 8];

fn init() -> Vec<u64> {
    vec![0, 2 * N / 3, N - 2 * N / 3]
}

/// A run's observable trace: everything `RunResult` carries, flattened
/// through `Debug` so `NaN` recovery times compare equal.
fn trace(r: &RunResult) -> String {
    format!("{r:?}")
}

/// Run the ensemble at every thread count and require identical
/// per-trial outputs, in trial order.
fn assert_invariant<R>(trial: impl Fn(usize) -> R + Sync)
where
    R: Send + PartialEq + std::fmt::Debug,
{
    let want = run_trials(TRIALS, 1, &trial);
    for threads in &THREADS[1..] {
        assert_eq!(
            run_trials(TRIALS, *threads, &trial),
            want,
            "threads = {threads}"
        );
    }
}

#[test]
fn full_runs_are_byte_identical_across_thread_counts() {
    let opts = RunOptions::with_parallel_time_budget(N as usize, 4.0);
    assert_invariant(|i| {
        let mut sim = BatchSimulation::new(ThreeState, init(), rng::derive(7001, i as u64));
        let r = sim.run(&opts);
        (trace(&r), sim.counts().to_vec(), sim.rng_state())
    });
}

#[test]
fn faulted_runs_replay_fault_records_at_any_thread_count() {
    let plan = FaultPlan::from_specs(
        &FaultSpec::parse_list("corrupt@1:0.2,churn@2:0.1").expect("specs parse"),
    );
    let opts = RunOptions::with_parallel_time_budget(N as usize, 4.0);
    assert_invariant(|i| {
        let mut sim = BatchSimulation::new(ThreeState, init(), rng::derive(7002, i as u64));
        let r = sim.run_faulted(&opts, &plan);
        assert!(!r.faults.is_empty(), "the plan must actually strike");
        (trace(&r), sim.counts().to_vec(), sim.rng_state())
    });
}

#[test]
fn adversarial_runs_are_thread_count_invariant() {
    let opts = RunOptions::with_parallel_time_budget(N as usize, 3.0);
    assert_invariant(|i| {
        let mut sim = BatchSimulation::new(ThreeState, init(), rng::derive(7003, i as u64));
        sim.set_adversary(Arc::new(ByzantineAdversary {
            frac: 0.05,
            opinion: Some(2),
        }));
        let r = sim.run(&opts);
        (trace(&r), sim.counts().to_vec(), sim.rng_state())
    });
}

fn churned_runner(seed: u64, i: usize) -> SegmentRunner<ThreeState> {
    let spec: ChurnSpec = "churn:0.002:0.002".parse().expect("churn spec");
    SegmentRunner::new(
        BatchSimulation::new(ThreeState, init(), rng::derive(seed, i as u64)),
        ChurnProcess::new(spec),
        init(),
    )
}

#[test]
fn churned_segment_runs_and_checkpoints_are_identical() {
    assert_invariant(|i| {
        let mut runner = churned_runner(7005, i);
        runner.advance_to(4.0);
        (
            runner.checkpoint().to_text(),
            format!("{:?}", runner.series()),
        )
    });
}

#[test]
fn a_resume_may_change_the_thread_count_mid_flight() {
    // Checkpoint every trial at t=2 from an ensemble on one worker count,
    // resume them all on another: each stitched trajectory must match
    // its uninterrupted run, because checkpoints hold no scheduling state.
    let spec: ChurnSpec = "churn:0.002:0.002".parse().expect("churn spec");
    let uninterrupted = run_trials(TRIALS, 1, |i| {
        let mut runner = churned_runner(7006, i);
        runner.advance_to(4.0);
        runner.checkpoint().to_text()
    });
    for (first, second) in [(1usize, 8usize), (8, 1)] {
        let checkpoints = run_trials(TRIALS, first, |i| {
            let mut runner = churned_runner(7006, i);
            runner.advance_to(2.0);
            runner.checkpoint()
        });
        let resumed = run_trials(TRIALS, second, |i| {
            let mut runner = SegmentRunner::from_checkpoint(
                &checkpoints[i],
                ThreeState,
                ChurnProcess::new(spec),
            )
            .expect("checkpoint restores");
            runner.advance_to(4.0);
            runner.checkpoint().to_text()
        });
        assert_eq!(resumed, uninterrupted, "threads {first} -> {second}");
    }
}
