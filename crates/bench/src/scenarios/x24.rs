//! X24 — time-in-consensus under targeted vs uniform churn.
//!
//! X22 soaks the 3-state majority under *uniform* Poisson join/leave and
//! reports how little of the run holds exact consensus. This scenario
//! asks the adversarial follow-up: does it matter *who* leaves? The same
//! soak runs three times at identical rates — departures uniform,
//! departures aimed at the current plurality class (`:plurality`), and
//! departures aimed at the weakest opinion class (`:minority`) — and the
//! summary compares the mean plurality fraction and the integrated
//! time-in-consensus across targets.
//!
//! The asymmetry is the point. Plurality-targeted churn culls exactly the
//! agents the dynamics just recruited, so the plurality fraction sags
//! below the uniform soak's and consensus epochs get rarer. Minority
//! targeting does the dynamics' job for it: every departure removes a
//! disagreeing agent, so the exact predicate fires *more* often than
//! under uniform churn — an adversary forced to evict the weakest class
//! is a janitor, not a threat.

use std::io;

use pp_engine::{rng, BatchSimulation, ChurnProcess, ChurnSample, ChurnSpec, SegmentRunner};
use pp_majority::ThreeState;
use pp_stats::Table;

use crate::scenario::{col, Ctx, Scenario};

/// The registered scenario.
pub const SCENARIO: Scenario = Scenario {
    name: "x24",
    slug: "x24_targeted_churn",
    about: "Time-in-consensus under plurality-/minority-targeted vs uniform churn",
    outputs: &["x24_targeted_churn"],
    run,
};

fn run(ctx: &mut Ctx) -> io::Result<()> {
    let n: u64 = if ctx.full() { 1_000_000 } else { 10_000 };
    let horizon = if ctx.full() { 400.0 } else { 150.0 };
    // Gentler than x22's default soak so consensus epochs are reachable
    // at all: the contrast between targets is the measurement.
    let base = ctx.opts.churn.unwrap_or(ChurnSpec {
        join: 0.002,
        leave: 0.002,
        ..ChurnSpec::default()
    });
    // 2:1 support over {blank, A, B}, as in x22.
    let a = 2 * n / 3;
    let init = vec![0u64, a, n - a];

    let mut table = Table::new(
        "X24: churn soak by departure target",
        &[
            "target",
            "n0",
            "horizon",
            "join",
            "leave",
            "samples",
            "final_pop",
            "mean_plurality_frac",
            "time_in_consensus",
        ],
    );
    for (i, target) in ["uniform", "plurality", "minority"].iter().enumerate() {
        let spec = match *target {
            "uniform" => base,
            other => format!("churn:{}:{}:{other}", base.join, base.leave)
                .parse()
                .map_err(io::Error::other)?,
        };
        let churn = ChurnProcess::new(spec);
        // One seed stream per target: the targets see *different* draw
        // sequences by construction (targeting consumes extra randomness),
        // so per-target streams keep the comparison honest across reruns.
        let mut runner = SegmentRunner::new(
            BatchSimulation::new(
                ThreeState,
                init.clone(),
                rng::derive(ctx.opts.seed, 2_400 + i as u64),
            ),
            churn,
            init.clone(),
        );
        runner.advance_to(horizon);
        let series: &[ChurnSample] = runner.series();
        let samples = series.len();
        let mean_frac = series.iter().map(|s| s.plurality_frac).sum::<f64>() / samples as f64;
        table.push(vec![
            (*target).to_string(),
            n.to_string(),
            format!("{horizon}"),
            format!("{}", spec.join),
            format!("{}", spec.leave),
            samples.to_string(),
            runner.sim().counts().iter().sum::<u64>().to_string(),
            format!("{mean_frac:.4}"),
            col::time_in_consensus(series),
        ]);
        if ctx.sink.verbose {
            eprintln!(
                "  [x24] target={target}: {} samples, time-in-consensus {}",
                samples,
                col::time_in_consensus(series)
            );
        }
    }
    ctx.emit("x24_targeted_churn", &table)?;

    println!(
        "Read: at equal rates, who leaves decides whether churn is an adversary. Plurality \
         targeting culls the agents the dynamics just recruited — the plurality fraction sags \
         and consensus epochs thin out relative to uniform — while minority targeting evicts \
         disagreement and *raises* time-in-consensus above the uniform baseline. Uniform churn \
         sits between: it only perturbs, it never aims."
    );
    Ok(())
}
