//! Golden bytes of the engines: configurations, RNG states, clocks,
//! run results and `ppckpt v1` text recorded from runs at fixed seeds,
//! kept as literals so any change to the tally's random stream — the
//! root multinomial, the one key word per attempt, the
//! `derive(key, subtree)` substreams, or the order deltas are applied
//! in — or to the run drivers' step boundaries fails here.
//!
//! The literals were recorded when a single run could still fan its
//! subtrees out over worker threads, with `set_threads(2)`; the inline
//! path must reproduce them exactly. `set_threads` is kept as an
//! accepted-and-ignored call, so the runs below still make it.
//!
//! Populations are large enough that batch lengths (ℓ ≈ 0.627·√n) run
//! past a thousand interactions and every batch has several initiator
//! subtrees.

use exact_plurality::baselines::UsdTable;
use exact_plurality::engine::{rng, AdversarySpec, ChurnProcess, ChurnSpec, SegmentRunner};
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
    sim.set_adversary(AdversarySpec::Byzantine {
        frac: 0.05,
        opinion: Some(2),
    });
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

// ---------------------------------------------------------------------------
// Golden bytes of the run drivers: `run`, `run_faulted` and `run_churned`
// on both engines. Each literal pins the status, output, interaction
// count, clock, RNG state, fault records and churn series (floats as
// IEEE-754 bit patterns), so any change to a driver's stride/batch
// boundaries, record bookkeeping or sampling marks fails here.

/// Everything a driver run must reproduce, one line per record.
fn fingerprint(r: &RunResult, rng: [u64; 4]) -> String {
    let mut out = format!(
        "{:?} {:?} interactions {} time {} rng {} {} {} {} notes {:?}\n",
        r.status,
        r.output,
        r.interactions,
        r.parallel_time.to_bits(),
        rng[0],
        rng[1],
        rng[2],
        rng[3],
        r.notes,
    );
    for f in &r.faults {
        out += &format!(
            "fault {} {} {:?} {:?} {}\n",
            f.at.to_bits(),
            f.hook,
            f.output_before,
            f.output_after,
            f.recovery_time.to_bits(),
        );
    }
    for s in &r.series {
        out += &format!(
            "sample {} {} {} {:?}\n",
            s.t.to_bits(),
            s.population,
            s.plurality_frac.to_bits(),
            s.output,
        );
    }
    out
}

fn plan(specs: &str) -> Vec<FaultSpec> {
    FaultSpec::parse_list(specs).expect("fault specs")
}

const SEQ_FAULTED_ADAPTIVE: &str = concat!(
    "Converged Some(1) interactions 296000 time 4643914903260758016 rng 8585699353382420848 3608377212242812881 16834931106660836027 8461353520759183974 notes []\n",
    "fault 4621819117588971520 corrupt@10:0.3 None None 9221120237041090560\n",
    "fault 4627730092099895296 inject@25:0.2:2 None Some(1) 4643475098609647616\n",
);

#[test]
fn sequential_faulted_run_under_an_adaptive_adversary_replays_its_golden_bytes() {
    let init = [0u64, 600, 400];
    let states = SeqTable::<ThreeState>::initial_states(&init);
    let mut sim = Simulation::new(SeqTable::new(ThreeState), states, 1301);
    sim.set_adversary("adaptive:0.02".parse::<AdversarySpec>().expect("adversary"));
    let opts = RunOptions::with_parallel_time_budget(1000, 300.0);
    let r = sim.run_faulted(&opts, &plan("corrupt@10:0.3,inject@25:0.2:2"));
    assert_eq!(fingerprint(&r, sim.rng_state()), SEQ_FAULTED_ADAPTIVE);
}

const SEQ_CHURNED_PLURALITY: &str = concat!(
    "Exhausted None interactions 11789 time 4622945017495814144 rng 18320226594049761935 437841730096486385 5365007911814293842 15019278935621728352 notes []\n",
    "sample 4607182418800017408 993 4602737778684384894 None\n",
    "sample 4611686018427387904 986 4602496117362205918 None\n",
    "sample 4613937818241073152 983 4602830008173362300 None\n",
    "sample 4616189618054758400 966 4603135706091365658 None\n",
    "sample 4617315517961601024 980 4603772550510722604 None\n",
    "sample 4618441417868443648 976 4604589157539174971 None\n",
    "sample 4619567317775286272 968 4605302817302643771 None\n",
    "sample 4620693217682128896 975 4605944506287058133 None\n",
    "sample 4621256167635550208 984 4606358589599888659 None\n",
    "sample 4621819117588971520 993 4606592823682637585 None\n",
    "sample 4622382067542392832 985 4606780066752089892 None\n",
    "sample 4622945017495814144 978 4606795606562083746 None\n",
);

#[test]
fn sequential_plurality_targeted_churn_replays_its_golden_bytes() {
    let init = [0u64, 600, 400];
    let states = SeqTable::<ThreeState>::initial_states(&init);
    let mut sim = Simulation::new(SeqTable::new(ThreeState), states.clone(), 1302);
    let spec: ChurnSpec = "churn:0.02:0.02:plurality".parse().expect("churn spec");
    let churn = ChurnProcess::new(spec);
    let r = sim.run_churned(&RunOptions::default(), &churn, &states, 12.0);
    assert_eq!(fingerprint(&r, sim.rng_state()), SEQ_CHURNED_PLURALITY);
}

const BATCH_FAULTED_STARVE: &str = concat!(
    "Converged Some(2) interactions 7368981 time 4630382276697890058 rng 6113875732851357468 14680529461953642641 10499703901232231029 6255432126028507901 notes []\n",
    "fault 4617315517961601024 corrupt@5:0.3 None None 9221120237041090560\n",
    "fault 4624633867356078080 inject@15:0.2:2 None Some(2) 4626842011808250388\n",
);

#[test]
fn batched_faulted_run_under_a_starving_scheduler_replays_its_golden_bytes() {
    let n = 200_000u64;
    let mut sim = BatchSimulation::new(ThreeState, vec![0, n * 3 / 5, n * 2 / 5], 1303);
    sim.set_scheduler("starve:1:0.5".parse::<SchedulerSpec>().expect("scheduler"));
    let opts = RunOptions::with_parallel_time_budget(n as usize, 400.0);
    let r = sim.run_faulted(&opts, &plan("corrupt@5:0.3,inject@15:0.2:2"));
    assert_eq!(fingerprint(&r, sim.rng_state()), BATCH_FAULTED_STARVE);
}

const BATCH_CHURNED_MINORITY: &str = concat!(
    "Exhausted None interactions 2993436 time 4624634280015877568 rng 13236384028056820040 102063913387612339 7293046915818441267 3734139373014021572 notes []\n",
    "sample 4607192242508305535 199934 4601104111305299604 None\n",
    "sample 4611687813820149598 199743 4602285645092443417 None\n",
    "sample 4613939665993424065 199852 4603382892520712299 None\n",
    "sample 4616190835605552881 199605 4604331233320136870 None\n",
    "sample 4617317612398193386 199566 4605174771018083668 None\n",
    "sample 4618441958379209562 199565 4605912614255969689 None\n",
    "sample 4619569192093801956 199682 4606429570994198019 None\n",
    "sample 4620694460678827471 199602 4606721819794029786 None\n",
    "sample 4621256338370146193 199406 4606871377135934349 None\n",
    "sample 4621820247479621471 199234 4606951219220684837 None\n",
    "sample 4622382084915245407 199297 4606972081939294143 None\n",
    "sample 4622945941982289833 199183 4606968796104910916 None\n",
    "sample 4623508692749641174 199279 4606971882144732187 None\n",
    "sample 4624071080920493532 199549 4606972798940539199 None\n",
    "sample 4624634280015877568 199588 4606980376437433107 None\n",
);

#[test]
fn batched_minority_targeted_churn_replays_its_golden_bytes() {
    let usd = UsdTable::new(3);
    let init = usd.initial_counts(&[90_000, 60_000, 50_000]);
    let mut sim = BatchSimulation::new(usd, init.clone(), 1304);
    let spec: ChurnSpec = "churn:0.05:0.05:minority".parse().expect("churn spec");
    let churn = ChurnProcess::new(spec);
    let r = sim.run_churned(&RunOptions::default(), &churn, &init, 15.0);
    assert_eq!(fingerprint(&r, sim.rng_state()), BATCH_CHURNED_MINORITY);
}

const SIMPLE_RUN: &str = "Converged Some(1) interactions 349600 time 4655402600747761664 rng 1586118541800183549 8474928896917700656 1538413349875619656 9746710253855187057 notes []\n";

#[test]
fn small_simple_algorithm_run_replays_its_golden_bytes() {
    let assignment = Counts::bias_one(200, 3).assignment();
    let (protocol, states) = SimpleAlgorithm::new(&assignment, Tuning::default());
    let mut sim = Simulation::new(protocol, states, 1305);
    let r = sim.run(&RunOptions::with_parallel_time_budget(200, 500_000.0));
    assert_eq!(fingerprint(&r, sim.rng_state()), SIMPLE_RUN);
}

const SEQ_FAULTED_PAIRBIAS_BYZ: &str = concat!(
    "Converged Some(2) interactions 23000 time 4627167142146473984 rng 12911937840197659145 12011507421769156984 4340290233071728077 2252831129259001051 notes []\n",
    "fault 4621819117588971520 churn@10:0.2 None Some(2) 4623507967449235456\n",
);

#[test]
fn sequential_faulted_run_under_pair_bias_and_byzantine_lies_replays_its_golden_bytes() {
    let init = [0u64, 400, 600];
    let states = SeqTable::<ThreeState>::initial_states(&init);
    let mut sim = Simulation::new(SeqTable::new(ThreeState), states, 1306);
    sim.set_scheduler("pairbias:0.3".parse::<SchedulerSpec>().expect("scheduler"));
    sim.set_adversary("byz:0.05:2".parse::<AdversarySpec>().expect("adversary"));
    let opts = RunOptions::with_parallel_time_budget(1000, 300.0);
    let r = sim.run_faulted(&opts, &plan("churn@10:0.2"));
    assert_eq!(fingerprint(&r, sim.rng_state()), SEQ_FAULTED_PAIRBIAS_BYZ);
}

/// Both hooks strike at t = 10: tied hooks fire in list order.
const BATCH_FAULTED_PAIRBIAS_ADAPTIVE: &str = concat!(
    "Exhausted None interactions 20000000 time 4636737291354636288 rng 1688399499838114905 4946620976718340959 8731173329149144586 5743975467327766569 notes []\n",
    "fault 4621819117588971520 inject@10:0.2:2 None None 9221120237041090560\n",
    "fault 4621819117588971520 corrupt@10:0.1 None None 9221120237041090560\n",
);

#[test]
fn batched_faulted_run_under_pair_bias_and_adaptive_lies_replays_its_golden_bytes() {
    let n = 200_000u64;
    let mut sim = BatchSimulation::new(ThreeState, vec![0, n * 3 / 5, n * 2 / 5], 1307);
    sim.set_scheduler("pairbias:0.3".parse::<SchedulerSpec>().expect("scheduler"));
    sim.set_adversary(
        "adaptive:0.05:split"
            .parse::<AdversarySpec>()
            .expect("adversary"),
    );
    let opts = RunOptions::with_parallel_time_budget(n as usize, 100.0);
    let r = sim.run_faulted(&opts, &plan("inject@10:0.2:2,corrupt@10:0.1"));
    assert_eq!(
        fingerprint(&r, sim.rng_state()),
        BATCH_FAULTED_PAIRBIAS_ADAPTIVE
    );
}
