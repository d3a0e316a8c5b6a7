//! What one workload run hands back to `main`: gated metrics,
//! per-layer metrics, the named figures behind them, and the
//! failed/attempted ledger; and the pass driver the pass-based
//! workloads share.

use std::time::Instant;

use crate::trace::{median, Tracer};
use crate::Opts;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

#[derive(Debug, Default)]
pub struct Report {
    /// End-to-end metrics, from untraced passes.
    pub e2e: Vec<Metric>,
    /// Per-layer metrics, from traced passes (empty when untraced).
    pub layers: Vec<Metric>,
    /// The workload's own named figures, printed on the detail line.
    pub detail: Vec<Metric>,
    /// Deterministic counts as `(name, untraced, traced)`; traced and
    /// untraced passes must agree exactly.
    pub counts: Vec<(&'static str, u64, Option<u64>)>,
    pub attempted: u64,
    pub failed: u64,
    /// Failures that broke an invariant: the run's output is incorrect.
    pub invalid: u64,
    pub failures: Vec<String>,
}

/// Why an operation failed.
#[derive(Debug, Clone)]
pub enum Failure {
    /// Failed in a way the system's contract allows: a protocol that is
    /// correct with high probability missed the planted winner, or a
    /// request was answered with an error or too late.
    Missed(String),
    /// An output broke an invariant that must hold on every run.
    Invalid(String),
}

impl Report {
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.e2e.push(metric(name, value, unit));
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.layers.push(metric(name, value, unit));
    }

    pub fn detail(&mut self, name: &str, value: f64, unit: &'static str) {
        self.detail.push(metric(name, value, unit));
    }

    /// Record one operation's outcome; `Err` carries why it failed.
    pub fn check(&mut self, outcome: Result<(), Failure>) {
        self.attempted += 1;
        let why = match outcome {
            Ok(()) => return,
            Err(Failure::Missed(why)) => format!("missed: {why}"),
            Err(Failure::Invalid(why)) => {
                self.invalid += 1;
                format!("invalid: {why}")
            }
        };
        self.failed += 1;
        // Keep the ledger readable when a whole stream fails.
        if self.failures.len() < 20 {
            self.failures.push(why);
        }
    }
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// Set-up timing: the median of several set-ups, so one slow page-fault
/// burst does not decide the figure.
#[derive(Default)]
pub struct Setup(Vec<f64>);

impl Setup {
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = std::time::Instant::now();
        let out = f();
        self.0.push(t.elapsed().as_secs_f64());
        out
    }

    pub fn median_s(&self) -> f64 {
        median(&self.0)
    }
}

/// The passes of one run over a fixed input set: untraced, and in
/// traced runs, traced ones alternating with them.
pub struct Passes<P> {
    pub plain: Vec<P>,
    pub traced: Vec<P>,
}

impl<P> Passes<P> {
    /// Median of a figure over the untraced passes.
    pub fn median(&self, f: impl Fn(&P) -> f64) -> f64 {
        median(&self.plain.iter().map(f).collect::<Vec<_>>())
    }

    /// `1 − traced / untraced` of the medians of a rate; `None` in an
    /// untraced run.
    pub fn overhead(&self, rate: impl Fn(&P) -> f64) -> Option<f64> {
        if self.traced.is_empty() {
            return None;
        }
        let traced = median(&self.traced.iter().map(&rate).collect::<Vec<_>>());
        Some(1.0 - traced / self.median(rate))
    }

    /// Record the operations of the input set, one entry each, in the
    /// order `f` lists them for a pass. Every pass re-runs the same
    /// seeded operations, so a repeat is a re-measurement, not a new
    /// operation: each counts once per run, and fails if it failed in
    /// any pass (with the first pass's reason). `attempted` and
    /// `failed` then depend on the seed alone, not on how many passes
    /// fitted in the time.
    pub fn check_ops(&self, report: &mut Report, f: impl Fn(&P) -> Vec<Result<(), Failure>>) {
        let mut ops: Vec<Result<(), Failure>> = Vec::new();
        for pass in self.plain.iter().chain(&self.traced) {
            let checks = f(pass);
            if ops.is_empty() {
                ops = checks;
                continue;
            }
            for (op, check) in ops.iter_mut().zip(checks) {
                if op.is_ok() {
                    *op = check;
                }
            }
        }
        for op in ops {
            report.check(op);
        }
    }

    /// A count that must repeat exactly, since every pass runs the same
    /// seeds: a pass that differs is an invalid output. The count is
    /// also recorded for the self-check's traced-vs-untraced
    /// comparison.
    pub fn same_count(&self, report: &mut Report, name: &'static str, f: impl Fn(&P) -> u64) {
        let counts: Vec<u64> = self.plain.iter().chain(&self.traced).map(&f).collect();
        report.check(if counts.windows(2).all(|w| w[0] == w[1]) {
            Ok(())
        } else {
            Err(Failure::Invalid(format!(
                "{name} differs between passes: {counts:?}"
            )))
        });
        report
            .counts
            .push((name, counts[0], self.traced.first().map(&f)));
    }
}

/// Run passes over one input set: build a pass, then run it inside a
/// `phase` span. At least two passes; then stop at the
/// pass boundary nearest `opts.seconds`. Traced runs alternate untraced
/// and traced passes, so the tracing overhead is measured on the same
/// machine state.
pub fn run_passes<B, P>(
    opts: &Opts,
    tracer: &Tracer,
    workload: &'static str,
    mut build: impl FnMut(bool) -> B,
    mut run: impl FnMut(B, &'static str, u64) -> P,
) -> Passes<P> {
    let start = Instant::now();
    let mut passes = Passes {
        plain: Vec::new(),
        traced: Vec::new(),
    };
    tracer.span(0, "workload", workload, |root| {
        let mut last = 0.0f64;
        while passes.plain.len() + passes.traced.len() < 2
            || start.elapsed().as_secs_f64() + last / 2.0 <= opts.seconds
        {
            let t = Instant::now();
            let trace_this = opts.traced && passes.plain.len() > passes.traced.len();
            let built = build(trace_this);
            let label = if trace_this { "pass-traced" } else { "pass" };
            let pass = tracer.span(root, "phase", label, |id| run(built, label, id));
            if trace_this {
                passes.traced.push(pass)
            } else {
                passes.plain.push(pass)
            }
            last = t.elapsed().as_secs_f64();
        }
    });
    passes
}

/// A deterministic 64-bit mix (splitmix64), for deriving per-trial
/// seeds from the workload seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
