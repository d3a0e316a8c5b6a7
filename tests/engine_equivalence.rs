//! Distribution-level consistency between the two engines.
//!
//! The sequential per-agent engine is the ground truth; the
//! multinomial-tally engine must reproduce its *observable statistics*
//! (they are not trajectory-level equivalent: the batched engine samples
//! participants with replacement, an `O(ℓ²/n)` per-batch approximation). For 3-state majority and USD,
//! at two population sizes each, we compare the median and IQR of the
//! parallel convergence time over a seed ensemble: medians must agree
//! within 15% (the workspace-wide tolerance) and spreads must stay within
//! a small factor of each other.

use exact_plurality::baselines::{Usd, UsdTable};
use exact_plurality::engine::{
    BatchSimulation, FaultSpec, Protocol, RunOptions, RunStatus, Simulation,
};
use exact_plurality::majority::ThreeState;

const TRIALS: u64 = 15;
const MEDIAN_TOLERANCE: f64 = 0.15;

/// Median and interquartile range.
fn median_iqr(mut times: Vec<f64>) -> (f64, f64) {
    assert!(!times.is_empty());
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let q = |f: f64| times[((times.len() - 1) as f64 * f).round() as usize];
    (q(0.5), q(0.75) - q(0.25))
}

/// Assert that an engine's (median, IQR) matches the sequential
/// reference.
fn assert_consistent(label: &str, seq: (f64, f64), other: (f64, f64)) {
    let (med_s, iqr_s) = seq;
    let (med_o, iqr_o) = other;
    let rel = (med_o - med_s).abs() / med_s;
    assert!(
        rel < MEDIAN_TOLERANCE,
        "{label}: median {med_o:.2} vs sequential {med_s:.2} diverges ({rel:.3})"
    );
    // IQR at 15 samples is noisy: demand the same order of magnitude, not
    // equality. A degenerate (collapsed or exploded) spread still fails.
    let spread_floor = 0.02 * med_s;
    let (lo, hi) = (iqr_s.max(spread_floor), iqr_o.max(spread_floor));
    let ratio = (hi / lo).max(lo / hi);
    assert!(
        ratio < 5.0,
        "{label}: IQR {iqr_o:.2} vs sequential {iqr_s:.2} differ by {ratio:.1}x"
    );
}

/// Times of the sequential engine on an agent-level protocol. A fine
/// convergence-check stride (`n/16`) keeps detection-latency quantisation
/// well below the 15% budget.
fn seq_times<P: Protocol + Clone>(
    protocol: &P,
    states: &[P::State],
    n: usize,
    seed_base: u64,
) -> Vec<f64> {
    (0..TRIALS)
        .map(|i| {
            let mut sim = Simulation::new(protocol.clone(), states.to_vec(), seed_base + i);
            let opts = RunOptions {
                max_interactions: (n as u64) * 200_000,
                check_every: (n as u64 / 16).max(1),
            };
            let r = sim.run(&opts);
            assert_eq!(
                r.status,
                RunStatus::Converged,
                "sequential trial {i} exhausted"
            );
            r.parallel_time
        })
        .collect()
}

fn majority_counts(n: u64) -> Vec<u64> {
    vec![0, n * 11 / 20, n * 9 / 20]
}

fn usd_supports(n: usize) -> Vec<usize> {
    vec![n * 11 / 20, n - n * 11 / 20 - n / 5, n / 5]
}

#[test]
fn three_state_majority_engines_agree() {
    for n in [1_000u64, 20_000] {
        let states = ThreeState::initial_states((n * 11 / 20) as usize, (n * 9 / 20) as usize);
        let seq = median_iqr(seq_times(&ThreeState, &states, n as usize, 10));

        let opts = RunOptions {
            max_interactions: n * 200_000,
            check_every: 0,
        };
        let multinomial = median_iqr(
            (0..TRIALS)
                .map(|i| {
                    let mut sim = BatchSimulation::new(ThreeState, majority_counts(n), 3000 + i);
                    let r = sim.run(&opts);
                    assert_eq!(r.status, RunStatus::Converged);
                    r.parallel_time
                })
                .collect(),
        );

        assert_consistent(&format!("majority3 multinomial n={n}"), seq, multinomial);
    }
}

#[test]
fn fault_recovery_times_agree_across_engines() {
    // The fault layer must not break cross-engine consistency: the same
    // strike (10% of a converged 3-state population scrambled at parallel
    // time 150) must yield statistically consistent recovery times on both
    // engines, within the workspace tolerance.
    let n = 20_000u64;
    let plan = FaultSpec::parse_list("corrupt@150:0.1").expect("spec parses");

    let recovery = |r: &exact_plurality::engine::RunResult, label: &str, i: u64| -> f64 {
        assert_eq!(r.status, RunStatus::Converged, "{label} trial {i}");
        assert_eq!(r.faults.len(), 1, "{label} trial {i}");
        let f = &r.faults[0];
        assert!(f.recovered(), "{label} trial {i} never reconverged");
        assert!(f.recovery_time > 0.0, "{label} trial {i}");
        f.recovery_time
    };

    let states = ThreeState::initial_states((n * 11 / 20) as usize, (n * 9 / 20) as usize);
    let seq_opts = RunOptions {
        max_interactions: n * 200_000,
        check_every: (n / 16).max(1),
    };
    let seq = median_iqr(
        (0..TRIALS)
            .map(|i| {
                let mut sim = Simulation::new(ThreeState, states.clone(), 6000 + i);
                recovery(&sim.run_faulted(&seq_opts, &plan), "seq", i)
            })
            .collect(),
    );

    let opts = RunOptions {
        max_interactions: n * 200_000,
        check_every: 0,
    };
    let multinomial = median_iqr(
        (0..TRIALS)
            .map(|i| {
                let mut sim = BatchSimulation::new(ThreeState, majority_counts(n), 8000 + i);
                recovery(&sim.run_faulted(&opts, &plan), "multinomial", i)
            })
            .collect(),
    );

    assert_consistent("recovery multinomial", seq, multinomial);
}

#[test]
fn usd_engines_agree() {
    for n in [1_000usize, 20_000] {
        let supports = usd_supports(n);
        let opinions: Vec<u16> = supports
            .iter()
            .enumerate()
            .flat_map(|(i, &s)| std::iter::repeat_n(i as u16 + 1, s))
            .collect();
        let states = Usd::initial_states(&opinions);
        let seq = median_iqr(seq_times(&Usd, &states, n, 50));

        let table = || UsdTable::new(3);
        let init = table().initial_counts(&supports);
        let opts = RunOptions {
            max_interactions: (n as u64) * 200_000,
            check_every: 0,
        };
        let multinomial = median_iqr(
            (0..TRIALS)
                .map(|i| {
                    let mut sim = BatchSimulation::new(table(), init.clone(), 5000 + i);
                    let r = sim.run(&opts);
                    assert_eq!(r.status, RunStatus::Converged);
                    r.parallel_time
                })
                .collect(),
        );

        assert_consistent(&format!("usd multinomial n={n}"), seq, multinomial);
    }
}
