//! Golden bytes of the batched engine: configurations, RNG states,
//! clocks and `ppckpt v1` text recorded from runs at fixed seeds, kept
//! as literals so any change to the tally's random stream — the root
//! multinomial, the one key word per attempt, the `derive(key, subtree)`
//! substreams, or the order deltas are applied in — fails here.
//!
//! The literals were recorded when a single run could still fan its
//! subtrees out over worker threads, with `set_threads(2)`; the inline
//! path must reproduce them exactly. `set_threads` is kept as an
//! accepted-and-ignored call, so the runs below still make it.
//!
//! Populations are large enough that batch lengths (ℓ ≈ 0.627·√n) run
//! past a thousand interactions and every batch has several initiator
//! subtrees.

use std::sync::Arc;

use exact_plurality::baselines::UsdTable;
use exact_plurality::engine::fault::ByzantineAdversary;
use exact_plurality::engine::{rng, ChurnProcess, ChurnSpec, SegmentRunner};
use exact_plurality::majority::ThreeState;
use exact_plurality::prelude::*;

/// What a stepped engine must end at.
struct Golden {
    counts: &'static [u64],
    rng: [u64; 4],
    interactions: u64,
    batches: u64,
}

fn step_and_check<P: TableProtocol>(mut sim: BatchSimulation<P>, want: &Golden) {
    sim.set_threads(2);
    for _ in 0..want.batches {
        sim.step_batch();
    }
    assert_eq!(sim.counts(), want.counts, "counts");
    assert_eq!(sim.rng_state(), want.rng, "rng state");
    assert_eq!(sim.interactions(), want.interactions, "interactions");
    assert_eq!(sim.batches(), want.batches, "batches");
}

#[test]
fn three_state_majority_at_a_hundred_million_replays_its_golden_bytes() {
    let n = 100_000_000u64;
    let a = n * 51 / 100;
    step_and_check(
        BatchSimulation::new(ThreeState, vec![0, a, n - a], 1201),
        &Golden {
            counts: &[7962808, 47026852, 45010340],
            rng: [
                4954816400710196847,
                5260785168659228866,
                14804793236826772853,
                2286476847731381636,
            ],
            interactions: 19000436,
            batches: 3000,
        },
    );
}

#[test]
fn wide_usd_replays_its_golden_bytes() {
    let usd = UsdTable::new(64);
    let counts = usd.initial_counts(Counts::bias_one(10_000_000, 64).supports());
    step_and_check(
        BatchSimulation::new(usd, counts, 1202),
        &Golden {
            counts: &[
                1404431, 134325, 134332, 134162, 134338, 134111, 134615, 134283, 134159, 133972,
                134378, 134252, 134185, 134395, 134533, 134431, 134161, 134515, 134297, 134259,
                133980, 134285, 134594, 134147, 134228, 134350, 134346, 134221, 134058, 134605,
                134396, 134672, 134037, 134274, 134276, 134497, 134364, 134490, 134324, 134523,
                134190, 134669, 133845, 134150, 133980, 134495, 134272, 134267, 134394, 134236,
                134551, 134312, 134422, 134212, 134314, 134163, 134184, 134203, 134056, 134389,
                134385, 134155, 134593, 134456, 134306,
            ],
            rng: [
                2315685546236215032,
                8274202730174951829,
                10477018259058737127,
                3862806232608028435,
            ],
            interactions: 2017577,
            batches: 1000,
        },
    );
}

#[test]
fn byzantine_lies_replay_their_golden_bytes() {
    let n = 4_000_000u64;
    let mut sim = BatchSimulation::new(ThreeState, vec![0, 2 * n / 3, n - 2 * n / 3], 1204);
    sim.set_adversary(Arc::new(ByzantineAdversary {
        frac: 0.05,
        opinion: Some(2),
    }));
    step_and_check(
        sim,
        &Golden {
            counts: &[421691, 2446318, 1131991],
            rng: [
                15469220053351597545,
                14673424544526979943,
                8699271194315894447,
                14289440825836259819,
            ],
            interactions: 1270070,
            batches: 1000,
        },
    );
}

const CHURNED_CHECKPOINT: &str = "\
ppckpt v1
engine batch
interactions 12000576
interactions_base 12000576
time_base_bits 4613938115385817774
rng 4348055369235508718 3291125986466699963 17598314691233867935 5007974845989917076
counts 3 855670 2769180 375004
initial 3 0 2666666 1333334
states 0
series 3
sample 4607182904411914326 4000135 4603458659808398974 -
sample 4611686686292789418 3999987 4603759775542416673 -
sample 4613938115385817774 3999854 4604411086162468859 -
end
";

#[test]
fn two_segment_churned_checkpoint_replays_its_golden_text() {
    let n = 4_000_000u64;
    let init = vec![0, 2 * n / 3, n - 2 * n / 3];
    let spec: ChurnSpec = "churn:0.002:0.002".parse().expect("churn spec");
    let mut sim = BatchSimulation::new(ThreeState, init.clone(), rng::derive(1203, 1));
    sim.set_threads(2);
    let mut runner = SegmentRunner::new(sim, ChurnProcess::new(spec), init);
    runner.advance_to(1.5);
    runner.advance_to(3.0);
    assert_eq!(runner.checkpoint().to_text(), CHURNED_CHECKPOINT);
}
