//! `table-batch`: two phases on `BatchSimulation::run`, each run once
//! at one engine thread and once at `nproc`, with the same seeds, so
//! both settings simulate byte-identical trajectories.
//!
//! * *narrow* — 3-state majority at `n = 10⁸`, 51/49 split, run to
//!   consensus: bound by the batch-length draw, the root split and the
//!   per-batch output check;
//! * *wide* — USD with `k = 64` at `n = 10⁷` on a bias-1 input, run for
//!   a fixed interaction budget: bound by the `S²` responder splits of
//!   the per-initiator subtrees.
//!
//! [`TimedTable`] wraps the table from outside: it times the interval
//! between consecutive `output` calls (`run` checks once per batch, so
//! each interval is one batch) and counts `delta` calls.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use pp_baselines::UsdTable;
use pp_engine::{BatchSimulation, RunOptions, RunStatus, SimRng, TableProtocol};
use pp_majority::ThreeState;
use pp_workloads::Counts;

use crate::report::{mix, run_passes, Failure, Report, Setup};
use crate::trace::{geomean, Hist, Tracer};
use crate::Opts;

/// Batches each engine runs in the set-up figure. A worker pool spawns
/// with its engine's first batch long enough to share out; at
/// `n = 10⁷` about one batch in five is too short.
const START_BATCHES: usize = 4;

/// Seed of the engines the set-up figure starts. Their first batches
/// cost what the seed's batch lengths make them cost, so set-up is
/// timed on the same inputs in every run.
const SETUP_SEED: u64 = 0;

/// The per-layer metrics this workload measures; the rest of the
/// catalogue reads 0 on it.
pub const LAYERS: &[&str] = &[
    "batch.batches",
    "batch.len_mean",
    "batch.output_share",
    "batch.narrow.step_ns_p50.t1",
    "batch.narrow.step_ns_p99.t1",
    "batch.narrow.step_ns_p50.tmax",
    "batch.narrow.step_ns_p99.tmax",
    "batch.narrow.delta_calls_per_batch",
    "batch.narrow.pool_speedup",
    "batch.wide.step_ns_p50.t1",
    "batch.wide.step_ns_p99.t1",
    "batch.wide.step_ns_p50.tmax",
    "batch.wide.step_ns_p99.tmax",
    "batch.wide.delta_calls_per_batch",
    "batch.wide.pool_speedup",
    "trace.overhead",
];

#[derive(Default)]
struct Batches {
    last: Option<Instant>,
    step: Hist,
    output_ns: u64,
}

/// The counters a [`TimedTable`] fills; shared, so they stay readable
/// after the table has moved into an engine.
#[derive(Default)]
struct TableProbe {
    delta_calls: AtomicU64,
    batches: Mutex<Batches>,
}

impl TableProbe {
    fn step_hist(&self) -> Hist {
        self.batches.lock().expect("batch timing lock").step.clone()
    }

    fn output_ns(&self) -> u64 {
        self.batches.lock().expect("batch timing lock").output_ns
    }

    fn delta_calls(&self) -> u64 {
        self.delta_calls.load(Ordering::Relaxed)
    }
}

/// A table wrapper that times per-batch intervals and output checks
/// and counts transitions, without touching the RNG stream.
struct TimedTable<T> {
    inner: T,
    probe: Arc<TableProbe>,
}

impl<T> TimedTable<T> {
    fn new(inner: T) -> Self {
        Self {
            inner,
            probe: Arc::default(),
        }
    }

    fn probe(&self) -> Arc<TableProbe> {
        Arc::clone(&self.probe)
    }
}

impl<T: TableProtocol> TableProtocol for TimedTable<T> {
    fn states(&self) -> usize {
        self.inner.states()
    }

    fn delta(&self, a: usize, b: usize, rng: &mut SimRng) -> (usize, usize) {
        self.probe.delta_calls.fetch_add(1, Ordering::Relaxed);
        self.inner.delta(a, b, rng)
    }

    fn is_deterministic(&self) -> bool {
        self.inner.is_deterministic()
    }

    fn output(&self, counts: &[u64]) -> Option<u32> {
        let t0 = Instant::now();
        let out = self.inner.output(counts);
        let mut b = self.probe.batches.lock().expect("batch timing lock");
        if let Some(last) = b.last {
            b.step.record(t0.duration_since(last).as_nanos() as u64);
        }
        b.last = Some(t0);
        b.output_ns += t0.elapsed().as_nanos() as u64;
        out
    }

    fn opinion(&self, s: usize) -> Option<u32> {
        self.inner.opinion(s)
    }

    fn opinion_state(&self, opinion: u32) -> Option<usize> {
        self.inner.opinion_state(opinion)
    }
}

/// What the per-layer figures read from a finished run.
struct Probe {
    step: Hist,
    output_ns: u64,
    delta_calls: u64,
}

/// One finished engine run.
struct RunOut {
    interactions: u64,
    batches: u64,
    wall_s: f64,
    output: Option<u32>,
    status: RunStatus,
    counts: Vec<u64>,
    rng: [u64; 4],
    probe: Option<Probe>,
}

/// A simulation built and waiting to run (its worker pool starts
/// with the first pooled batch, inside `run`).
trait Ready {
    /// Run the first `batches` batches, outside any measured run.
    fn start(&mut self, batches: usize);
    fn run(self: Box<Self>, tracer: &Tracer, parent: u64) -> RunOut;
}

struct Built<T: TableProtocol> {
    sim: BatchSimulation<T>,
    opts: RunOptions,
    probe: Option<Arc<TableProbe>>,
    label: String,
}

impl<T: TableProtocol> Ready for Built<T> {
    fn start(&mut self, batches: usize) {
        for _ in 0..batches {
            self.sim.step_batch();
        }
    }

    fn run(mut self: Box<Self>, tracer: &Tracer, parent: u64) -> RunOut {
        let t0 = Instant::now();
        let r = tracer.span(parent, "run", self.label, |_| self.sim.run(&self.opts));
        let wall_s = t0.elapsed().as_secs_f64();
        RunOut {
            interactions: r.interactions,
            batches: self.sim.batches(),
            wall_s,
            output: r.output,
            status: r.status,
            counts: self.sim.counts().to_vec(),
            rng: self.sim.rng_state(),
            probe: self.probe.map(|p| Probe {
                step: p.step_hist(),
                output_ns: p.output_ns(),
                delta_calls: p.delta_calls(),
            }),
        }
    }
}

fn build<T: TableProtocol>(
    table: T,
    spec: &Spec,
    threads: usize,
    probe: Option<Arc<TableProbe>>,
) -> Box<dyn Ready> {
    let mut sim = BatchSimulation::new(table, spec.counts.clone(), spec.seed);
    sim.set_threads(threads);
    Box::new(Built {
        sim,
        opts: spec.opts,
        probe,
        label: format!("{}-t{threads}", spec.phase),
    })
}

/// One engine run's input: a table, its start, a seed, a budget.
struct Spec {
    phase: &'static str,
    wide: bool,
    counts: Vec<u64>,
    seed: u64,
    opts: RunOptions,
    /// The planted majority a narrow run must reach.
    expected: Option<u32>,
}

impl Spec {
    fn prepare(&self, threads: usize, traced: bool) -> Box<dyn Ready> {
        fn go<T: TableProtocol>(
            table: T,
            spec: &Spec,
            threads: usize,
            traced: bool,
        ) -> Box<dyn Ready> {
            if traced {
                let timed = TimedTable::new(table);
                let probe = timed.probe();
                build(timed, spec, threads, Some(probe))
            } else {
                build(table, spec, threads, None)
            }
        }
        if self.wide {
            go(UsdTable::new(self.counts.len() - 1), self, threads, traced)
        } else {
            go(ThreeState, self, threads, traced)
        }
    }
}

/// The fixed job list: two narrow seeds, then two wide seeds.
fn specs(seed: u64, toy: bool) -> Vec<Spec> {
    let (n_narrow, n_wide, k, budget) = if toy {
        (1_000_000u64, 100_000usize, 8usize, 200_000u64)
    } else {
        (100_000_000, 10_000_000, 64, 20_000_000)
    };
    let a = n_narrow * 51 / 100;
    let narrow = |i: u64| Spec {
        phase: "narrow",
        wide: false,
        counts: vec![0, a, n_narrow - a],
        seed: mix(seed, 0x200 + i),
        opts: RunOptions::default(),
        expected: Some(1),
    };
    let usd = UsdTable::new(k);
    let wide = |i: u64| Spec {
        phase: "wide",
        wide: true,
        counts: usd.initial_counts(Counts::bias_one(n_wide, k).supports()),
        seed: mix(seed, 0x300 + i),
        opts: RunOptions {
            max_interactions: budget,
            check_every: 0,
        },
        expected: None,
    };
    vec![narrow(0), narrow(1), wide(0), wide(1)]
}

/// Check one spec's pair of runs: identical trajectories at both thread
/// settings, a conserved population, and the planted majority.
fn check(spec: &Spec, t1: &RunOut, tmax: &RunOut) -> Result<(), Failure> {
    let n: u64 = spec.counts.iter().sum();
    for r in [t1, tmax] {
        let total: u64 = r.counts.iter().sum();
        if total != n {
            return Err(Failure::Invalid(format!(
                "{}: population {total} != {n}",
                spec.phase
            )));
        }
    }
    if t1.counts != tmax.counts || t1.rng != tmax.rng || t1.interactions != tmax.interactions {
        return Err(Failure::Invalid(format!(
            "{}: t1 and tmax trajectories differ",
            spec.phase
        )));
    }
    match spec.expected {
        Some(want) if t1.status != RunStatus::Converged || t1.output != Some(want) => {
            Err(Failure::Missed(format!(
                "{}: ended {:?} with output {:?}, planted majority is {want}",
                spec.phase, t1.status, t1.output
            )))
        }
        None if t1.interactions != spec.opts.max_interactions => Err(Failure::Invalid(format!(
            "{}: stopped after {} of {} interactions",
            spec.phase, t1.interactions, spec.opts.max_interactions
        ))),
        _ => Ok(()),
    }
}

/// Rates of one pass: `[narrow t1, narrow tmax, wide t1, wide tmax]`,
/// plus the narrow seed set's time to consensus at both settings.
struct Pass {
    ips: [f64; 4],
    narrow_s: f64,
    batches: u64,
    runs: Vec<(&'static str, bool, RunOut)>,
    /// Each spec's output check, in spec order.
    checks: Vec<Result<(), Failure>>,
}

/// Build every simulation of a pass, in run order: each
/// spec at both settings, the second spec of each phase with `tmax`
/// first, so the order in which settings run favours neither.
fn prepare(specs: &[Spec], tmax: usize, traced: bool) -> Vec<Box<dyn Ready>> {
    specs
        .iter()
        .enumerate()
        .flat_map(|(i, spec)| {
            let order = if flipped(i) { [tmax, 1] } else { [1, tmax] };
            order.map(|t| spec.prepare(t, traced))
        })
        .collect()
}

fn flipped(spec_index: usize) -> bool {
    spec_index % 2 == 1
}

fn run_pass(specs: &[Spec], ready: Vec<Box<dyn Ready>>, tracer: &Tracer, parent: u64) -> Pass {
    // [interactions, seconds] per (phase, setting).
    let mut acc = [[0f64; 2]; 4];
    let mut runs = Vec::new();
    let mut batches = 0;
    let mut checks = Vec::new();
    let mut ready = ready.into_iter();
    for (i, spec) in specs.iter().enumerate() {
        let mut pair: Vec<RunOut> = (0..2)
            .map(|_| ready.next().expect("two runs per spec").run(tracer, parent))
            .collect();
        if flipped(i) {
            pair.reverse();
        }
        let (t1, tm) = (&pair[0], &pair[1]);
        checks.push(check(spec, t1, tm));
        let base = if spec.wide { 2 } else { 0 };
        for (slot, r) in [(base, t1), (base + 1, tm)] {
            acc[slot][0] += r.interactions as f64;
            acc[slot][1] += r.wall_s;
            batches += r.batches;
        }
        for (i, r) in pair.into_iter().enumerate() {
            runs.push((spec.phase, i == 1, r));
        }
    }
    Pass {
        ips: acc.map(|[i, s]| i / s),
        narrow_s: acc[0][1] + acc[1][1],
        batches,
        runs,
        checks,
    }
}

pub fn run(opts: &Opts, tracer: &Tracer, report: &mut Report) {
    let tmax = std::thread::available_parallelism().map_or(1, |p| p.get());
    // Set-up: build the inputs and a pass's engines, and start each
    // (its worker pool included) on the set-up seed; median of 40.
    let mut setup = Setup::default();
    for _ in 0..40 {
        let started = setup.time(|| {
            let mut ready = prepare(&specs(SETUP_SEED, opts.toy), tmax, false);
            for r in &mut ready {
                r.start(START_BATCHES);
            }
            ready
        });
        drop(started);
    }
    let specs = specs(opts.seed, opts.toy);
    let passes = run_passes(
        opts,
        tracer,
        "table-batch",
        |traced| prepare(&specs, tmax, traced),
        |ready, label, id| {
            let pass = run_pass(&specs, ready, tracer, id);
            eprintln!(
                "table-batch {label}: narrow {:.3e}/{:.3e}/s, wide {:.3e}/{:.3e}/s (t1/tmax)",
                pass.ips[0], pass.ips[1], pass.ips[2], pass.ips[3]
            );
            pass
        },
    );
    passes.check_ops(report, |p| p.checks.clone());
    passes.same_count(report, "batch.batches", |p| p.batches);

    let rates: Vec<f64> = (0..4).map(|i| passes.median(|p| p.ips[i])).collect();
    let narrow_s = passes.median(|p| p.narrow_s);
    report.e2e("setup_s", setup.median_s(), "s");
    // `answer_s` follows the narrow rates (the seeds are fixed), so
    // `ips` carries the wide phase alone: a slowdown confined to either
    // phase shows in full.
    report.e2e("ips", geomean(&rates[2..]), "1/s");
    report.e2e("answer_s", narrow_s, "s");
    for (name, v) in [
        "narrow_ips_t1",
        "narrow_ips_tmax",
        "wide_ips_t1",
        "wide_ips_tmax",
    ]
    .iter()
    .zip(&rates)
    {
        report.detail(name, *v, "1/s");
    }
    report.detail("narrow_solve_s", narrow_s, "s");
    report.detail("tmax", tmax as f64, "count");
    report.detail("passes", passes.plain.len() as f64, "count");

    let Some(overhead) = passes.overhead(|p| geomean(&p.ips)) else {
        return;
    };
    report.layer("trace.overhead", overhead, "ratio");
    layers(&passes.traced[0], report);
}

fn layers(pass: &Pass, report: &mut Report) {
    let (mut interactions, mut batches, mut output_ns, mut wall_s) = (0u64, 0u64, 0u64, 0f64);
    for phase in ["narrow", "wide"] {
        let mut step = [Hist::default(), Hist::default()];
        let (mut deltas, mut phase_batches) = (0u64, 0u64);
        for (p, is_tmax, r) in &pass.runs {
            if *p != phase {
                continue;
            }
            let probe = r.probe.as_ref().expect("traced pass carries probes");
            step[usize::from(*is_tmax)].merge(&probe.step);
            deltas += probe.delta_calls;
            phase_batches += r.batches;
            interactions += r.interactions;
            batches += r.batches;
            output_ns += probe.output_ns;
            wall_s += r.wall_s;
        }
        for (i, setting) in ["t1", "tmax"].iter().enumerate() {
            report.layer(
                &format!("batch.{phase}.step_ns_p50.{setting}"),
                step[i].quantile(0.5),
                "ns",
            );
            report.layer(
                &format!("batch.{phase}.step_ns_p99.{setting}"),
                step[i].quantile(0.99),
                "ns",
            );
        }
        report.layer(
            &format!("batch.{phase}.delta_calls_per_batch"),
            deltas as f64 / phase_batches as f64,
            "count",
        );
        report.layer(
            &format!("batch.{phase}.pool_speedup"),
            step[0].mean() / step[1].mean(),
            "ratio",
        );
    }
    report.layer("batch.batches", batches as f64, "count");
    report.layer(
        "batch.len_mean",
        interactions as f64 / batches as f64,
        "count",
    );
    report.layer(
        "batch.output_share",
        output_ns as f64 / (wall_s * 1e9),
        "ratio",
    );
}
