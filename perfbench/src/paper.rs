//! `paper-seq`: the paper's three protocols run to consensus on the
//! sequential engine, one trial at a time on one thread, plus a
//! fixed-budget `SimpleAlgorithm` segment at `n = 10⁶` whose agent
//! vector far exceeds L2.
//!
//! Layers are timed from outside: [`Timed`] wraps a protocol and
//! samples 1-in-[`SAMPLE_EVERY`] `Protocol::interact` calls and every
//! `converged` scan; `Simulation::run` is timed whole.

use std::cell::Cell;
use std::time::Instant;

use plurality_core::roles::Agent;
use plurality_core::tournament::Milestones;
use plurality_core::{ImprovedAlgorithm, SimpleAlgorithm, Tuning, UnorderedAlgorithm};
use pp_engine::{Protocol, RunOptions, RunStatus, SimRng, Simulation};
use pp_workloads::{Counts, OpinionAssignment};

use crate::report::{mix, run_passes, Failure, Report, Setup};
use crate::trace::{geomean, median, Hist, Tracer};
use crate::Opts;

/// One in this many `interact` calls is timed.
const SAMPLE_EVERY: u64 = 64;

/// A paper protocol, wrapped or not, read back after a run: its
/// milestones, and what a [`Timed`] wrapper saw.
pub trait Observed: Protocol<State = Agent> {
    fn milestones(&self) -> Milestones;
    fn probe(&self) -> Option<Probe> {
        None
    }
}

impl Observed for SimpleAlgorithm {
    fn milestones(&self) -> Milestones {
        *SimpleAlgorithm::milestones(self)
    }
}

impl Observed for UnorderedAlgorithm {
    fn milestones(&self) -> Milestones {
        *UnorderedAlgorithm::milestones(self)
    }
}

impl Observed for ImprovedAlgorithm {
    fn milestones(&self) -> Milestones {
        *ImprovedAlgorithm::milestones(self)
    }
}

/// What a [`Timed`] wrapper saw during one run.
pub struct Probe {
    pub interact: Hist,
    pub scans: u64,
    pub scan_ns: u64,
}

/// A protocol wrapper that times sampled transitions and every
/// convergence scan, leaving the inner protocol's behaviour (and so
/// the RNG stream) untouched.
pub struct Timed<P> {
    inner: P,
    calls: u64,
    interact: Hist,
    scans: Cell<u64>,
    scan_ns: Cell<u64>,
}

impl<P> Timed<P> {
    fn new(inner: P) -> Self {
        Self {
            inner,
            calls: 0,
            interact: Hist::default(),
            scans: Cell::new(0),
            scan_ns: Cell::new(0),
        }
    }
}

impl<P: Protocol> Protocol for Timed<P> {
    type State = P::State;

    fn interact(&mut self, t: u64, a: &mut P::State, b: &mut P::State, rng: &mut SimRng) {
        self.calls += 1;
        if self.calls.is_multiple_of(SAMPLE_EVERY) {
            let t0 = Instant::now();
            self.inner.interact(t, a, b, rng);
            self.interact.record(t0.elapsed().as_nanos() as u64);
        } else {
            self.inner.interact(t, a, b, rng);
        }
    }

    fn converged(&self, states: &[P::State]) -> Option<u32> {
        let t0 = Instant::now();
        let out = self.inner.converged(states);
        self.scans.set(self.scans.get() + 1);
        self.scan_ns
            .set(self.scan_ns.get() + t0.elapsed().as_nanos() as u64);
        out
    }
}

impl<P: Observed> Observed for Timed<P> {
    fn milestones(&self) -> Milestones {
        self.inner.milestones()
    }
    fn probe(&self) -> Option<Probe> {
        Some(Probe {
            interact: self.interact.clone(),
            scans: self.scans.get(),
            scan_ns: self.scan_ns.get(),
        })
    }
}

/// One finished trial.
struct Outcome {
    n: usize,
    /// `true` for the fixed-budget segment (not run to consensus).
    segment: bool,
    interactions: u64,
    wall_s: f64,
    milestones: Milestones,
    probe: Option<Probe>,
    /// The trial's output check.
    check: Result<(), Failure>,
}

/// A built, not yet run, trial.
trait Job {
    fn run(self: Box<Self>, tracer: &Tracer, parent: u64) -> Outcome;
}

struct Trial<Q: Observed> {
    label: &'static str,
    sim: Simulation<Q>,
    /// The planted plurality; `None` marks the fixed-budget segment.
    expected: Option<u32>,
    /// Opinions are `1..=opinions`.
    opinions: u32,
    opts: RunOptions,
}

impl<Q: Observed> Job for Trial<Q> {
    fn run(mut self: Box<Self>, tracer: &Tracer, parent: u64) -> Outcome {
        let t0 = Instant::now();
        let result = tracer.span(parent, "run", self.label, |_| self.sim.run(&self.opts));
        let wall_s = t0.elapsed().as_secs_f64();
        let check = match self.expected {
            Some(_) if result.status != RunStatus::Converged => Err(Failure::Missed(format!(
                "{}: no consensus within {} interactions",
                self.label, result.interactions
            ))),
            Some(want) if result.output != Some(want) => {
                let why = format!(
                    "{}: converged to {:?}, planted plurality is {want}",
                    self.label, result.output
                );
                // A wrong but real opinion is the small chance of failure
                // the paper allows; anything else is a broken output.
                if result
                    .output
                    .is_some_and(|o| (1..=self.opinions).contains(&o))
                {
                    Err(Failure::Missed(why))
                } else {
                    Err(Failure::Invalid(why))
                }
            }
            None if result.interactions != self.opts.max_interactions => {
                Err(Failure::Invalid(format!(
                    "{}: segment stopped after {} of {} interactions",
                    self.label, result.interactions, self.opts.max_interactions
                )))
            }
            _ => Ok(()),
        };
        Outcome {
            n: self.sim.n(),
            segment: self.expected.is_none(),
            interactions: result.interactions,
            wall_s,
            milestones: self.sim.protocol().milestones(),
            probe: self.sim.protocol().probe(),
            check,
        }
    }
}

fn job<P: Observed + 'static>(
    make: fn(&OpinionAssignment, Tuning) -> (P, Vec<Agent>),
    label: &'static str,
    counts: Counts,
    seed: u64,
    traced: bool,
    max_interactions: Option<u64>,
) -> Box<dyn Job> {
    let assignment = counts.assignment();
    let opinions = assignment.k() as u32;
    let (protocol, states) = make(&assignment, Tuning::default());
    // Consensus runs get a parallel-time budget of 4000·k + 50000,
    // well past every input's consensus time; the segment a fixed
    // interaction count.
    let (expected, opts) = match max_interactions {
        None => (
            Some(assignment.plurality()),
            RunOptions::with_parallel_time_budget(
                assignment.n(),
                4.0e3 * assignment.k() as f64 + 5.0e4,
            ),
        ),
        Some(max) => (
            None,
            RunOptions {
                max_interactions: max,
                check_every: 0,
            },
        ),
    };
    if traced {
        let sim = Simulation::new(Timed::new(protocol), states, seed);
        Box::new(Trial {
            label,
            sim,
            expected,
            opinions,
            opts,
        })
    } else {
        let sim = Simulation::new(protocol, states, seed);
        Box::new(Trial {
            label,
            sim,
            expected,
            opinions,
            opts,
        })
    }
}

/// Build the fixed set: one `SimpleAlgorithm` and one
/// `UnorderedAlgorithm` trial on bias-1 inputs, two `ImprovedAlgorithm`
/// trials on one-large-many-small, then the `n = 10⁶` segment. Every
/// trial seed derives from the workload seed.
fn build_set(seed: u64, traced: bool, toy: bool) -> Vec<Box<dyn Job>> {
    let s = |i: u64| mix(seed, 0x100 + i);
    let (simple, unordered, improved, big, budget) = if toy {
        (
            Counts::bias_one(200, 3),
            Counts::bias_one(200, 4),
            Counts::one_large(200, 4, 80),
            Counts::bias_one(20_000, 8),
            100_000,
        )
    } else {
        (
            Counts::bias_one(4000, 4),
            Counts::bias_one(2000, 13),
            Counts::one_large(2000, 13, 800),
            Counts::bias_one(1_000_000, 8),
            10_000_000,
        )
    };
    vec![
        job(SimpleAlgorithm::new, "simple", simple, s(0), traced, None),
        job(
            UnorderedAlgorithm::new,
            "unordered",
            unordered,
            s(1),
            traced,
            None,
        ),
        job(
            ImprovedAlgorithm::new,
            "improved",
            improved.clone(),
            s(2),
            traced,
            None,
        ),
        job(
            ImprovedAlgorithm::new,
            "improved",
            improved,
            s(3),
            traced,
            None,
        ),
        job(
            SimpleAlgorithm::new,
            "simple_n1e6",
            big,
            s(4),
            traced,
            Some(budget),
        ),
    ]
}

/// Figures from one pass over the set.
#[derive(Default)]
struct Pass {
    solve_s: f64,
    ips: f64,
    ips_n1e6: f64,
    interactions: u64,
    outcomes: Vec<Outcome>,
}

fn run_pass(jobs: Vec<Box<dyn Job>>, tracer: &Tracer, parent: u64) -> Pass {
    let mut pass = Pass::default();
    let (mut small_i, mut small_s) = (0u64, 0f64);
    for job in jobs {
        let out = job.run(tracer, parent);
        pass.interactions += out.interactions;
        if out.segment {
            pass.ips_n1e6 = out.interactions as f64 / out.wall_s;
        } else {
            small_i += out.interactions;
            small_s += out.wall_s;
        }
        pass.outcomes.push(out);
    }
    pass.solve_s = small_s;
    pass.ips = small_i as f64 / small_s;
    pass
}

/// A transition that does nothing, over states the size of the paper's
/// agents: what the sequential engine costs per interaction on its own
/// (pair draw, dispatch, loop).
struct Noop;

impl Protocol for Noop {
    type State = [u8; std::mem::size_of::<Agent>()];

    fn interact(&mut self, _t: u64, _a: &mut Self::State, _b: &mut Self::State, _rng: &mut SimRng) {
    }

    fn converged(&self, _states: &[Self::State]) -> Option<u32> {
        None
    }
}

/// Nanoseconds per interaction of `Simulation::run` driving [`Noop`]
/// over `n` agents.
fn engine_ns(n: usize, interactions: u64, seed: u64) -> f64 {
    let mut sim = Simulation::new(Noop, vec![[0u8; std::mem::size_of::<Agent>()]; n], seed);
    let opts = RunOptions {
        max_interactions: interactions,
        check_every: 0,
    };
    let t0 = Instant::now();
    sim.run(&opts);
    t0.elapsed().as_nanos() as f64 / interactions as f64
}

/// Cost of one `Instant::now()` pair, subtracted from sampled
/// `interact` timings.
fn clock_pair_ns() -> f64 {
    let mut v = Vec::with_capacity(1001);
    for _ in 0..1001 {
        let t0 = Instant::now();
        v.push(t0.elapsed().as_nanos() as f64);
    }
    median(&v)
}

/// The per-layer metrics this workload measures; the rest of the
/// catalogue reads 0 on it.
pub const LAYERS: &[&str] = &[
    "core.interact_ns",
    "core.init_frac",
    "core.le_frac",
    "seq.interactions",
    "seq.overhead_ns",
    "seq.scans",
    "seq.scan_share",
    "trace.overhead",
];

pub fn run(opts: &Opts, tracer: &Tracer, report: &mut Report) {
    let mut setup = Setup::default();
    // Warm set-ups: page in the allocator and the 10⁶-agent vector.
    for _ in 0..3 {
        drop(setup.time(|| build_set(opts.seed, false, opts.toy)));
    }
    let passes = run_passes(
        opts,
        tracer,
        "paper-seq",
        |traced| setup.time(|| build_set(opts.seed, traced, opts.toy)),
        |jobs, label, id| {
            let pass = run_pass(jobs, tracer, id);
            eprintln!(
                "paper-seq {label}: solve {:.3} s, {:.3e}/s, n=1e6 {:.3e}/s",
                pass.solve_s, pass.ips, pass.ips_n1e6
            );
            pass
        },
    );
    passes.check_ops(report, |p| {
        p.outcomes.iter().map(|o| o.check.clone()).collect()
    });
    passes.same_count(report, "seq.interactions", |p| p.interactions);

    let solve_s = passes.median(|p| p.solve_s);
    let ips = passes.median(|p| p.ips);
    let ips_n1e6 = passes.median(|p| p.ips_n1e6);
    report.e2e("setup_s", setup.median_s(), "s");
    // `answer_s` follows the small-n consensus rate (the seeds are
    // fixed). Alone, the n = 10⁶ segment's rate swings with the memory
    // traffic of the rest of the machine by more than a bound can carry,
    // so `ips` pairs it with the small-n rate.
    report.e2e("ips", geomean(&[ips, ips_n1e6]), "1/s");
    report.e2e("answer_s", solve_s, "s");
    report.detail("paper_solve_s", solve_s, "s");
    report.detail("paper_ips", ips, "1/s");
    report.detail("paper_ips_n1e6", ips_n1e6, "1/s");
    report.detail("passes", passes.plain.len() as f64, "count");

    let Some(overhead) = passes.overhead(|p| geomean(&[p.ips, p.ips_n1e6])) else {
        return;
    };
    report.layer("trace.overhead", overhead, "ratio");

    // Per-layer figures from the first traced pass (later ones repeat
    // the same work).
    let pass = &passes.traced[0];
    let clock = clock_pair_ns();
    // The engine's own share, measured at each size the set runs, and
    // weighted by the interactions run at that size.
    let mut by_n: Vec<(usize, u64)> = Vec::new();
    let mut interact = Hist::default();
    let (mut scans, mut scan_ns, mut wall_ns) = (0u64, 0u64, 0f64);
    let (mut init_num, mut init_den, mut le_num, mut le_den) = (0u64, 0u64, 0u64, 0u64);
    for o in &pass.outcomes {
        let probe = o.probe.as_ref().expect("traced pass carries probes");
        interact.merge(&probe.interact);
        scans += probe.scans;
        scan_ns += probe.scan_ns;
        wall_ns += o.wall_s * 1e9;
        match by_n.iter_mut().find(|(n, _)| *n == o.n) {
            Some((_, i)) => *i += o.interactions,
            None => by_n.push((o.n, o.interactions)),
        }
        if o.segment {
            continue;
        }
        if let Some(t) = o.milestones.init_end {
            init_num += t;
            init_den += o.interactions;
        }
        if let Some(t) = o.milestones.le_done {
            le_num += t;
            le_den += o.interactions;
        }
    }
    let interact_ns = (interact.mean() - clock).max(0.0);
    let n = pass.interactions as f64;
    let share = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    report.layer("core.interact_ns", interact_ns, "ns");
    report.layer("core.init_frac", share(init_num, init_den), "ratio");
    report.layer("core.le_frac", share(le_num, le_den), "ratio");
    report.layer("seq.interactions", n, "count");
    let calibration = if opts.toy { 100_000 } else { 5_000_000 };
    let overhead_ns: f64 = by_n
        .iter()
        .map(|&(agents, i)| engine_ns(agents, calibration, opts.seed) * i as f64)
        .sum::<f64>()
        / n;
    report.layer("seq.overhead_ns", overhead_ns, "ns");
    report.layer("seq.scans", scans as f64, "count");
    report.layer("seq.scan_share", scan_ns as f64 / wall_ns, "ratio");
}
