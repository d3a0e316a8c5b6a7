//! The repository's benchmark: one command, three workloads.
//!
//! ```text
//! perfbench --workload paper-seq|table-batch|ppd-serve --seed N
//!           --seconds S --trace 0|1
//! perfbench --self-check
//! ```
//!
//! Every run prints a detail line (machine facts, the workload's named
//! figures, failures) and then, as its last line, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. Untraced runs report
//! the end-to-end metrics; traced runs the per-layer metrics, with the
//! spans written to `.bench_out/`. See `perfbench/README.md`.

mod paper;
mod report;
mod serve;
mod table;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use pp_serve::json::escape;
use report::{Metric, Report};
use trace::Tracer;

/// Per-run settings shared by the workloads.
pub struct Opts {
    pub seed: u64,
    /// How long the measured passes run.
    pub seconds: f64,
    pub traced: bool,
    /// Toy sizes, for the self-check.
    pub toy: bool,
    /// Output directory under the working directory (checkpoints, spans).
    pub out_dir: PathBuf,
}

const WORKLOADS: [&str; 3] = ["paper-seq", "table-batch", "ppd-serve"];

/// End-to-end metrics: every workload reports each of them.
const E2E: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ips", "1/s"),
    ("answer_s", "s"),
];

/// Per-layer metrics. A workload that does not exercise a layer
/// reports 0 for it: that is the "should not move" half of each
/// prediction, measured. Which ones each workload measures is its
/// module's `LAYERS`.
const LAYERS: [(&str, &str); 39] = [
    ("core.interact_ns", "ns"),
    ("core.init_frac", "ratio"),
    ("core.le_frac", "ratio"),
    ("seq.interactions", "count"),
    ("seq.overhead_ns", "ns"),
    ("seq.scans", "count"),
    ("seq.scan_share", "ratio"),
    ("batch.batches", "count"),
    ("batch.len_mean", "count"),
    ("batch.output_share", "ratio"),
    ("batch.narrow.step_ns_p50.t1", "ns"),
    ("batch.narrow.step_ns_p99.t1", "ns"),
    ("batch.narrow.step_ns_p50.tmax", "ns"),
    ("batch.narrow.step_ns_p99.tmax", "ns"),
    ("batch.narrow.delta_calls_per_batch", "count"),
    ("batch.narrow.pool_speedup", "ratio"),
    ("batch.wide.step_ns_p50.t1", "ns"),
    ("batch.wide.step_ns_p99.t1", "ns"),
    ("batch.wide.step_ns_p50.tmax", "ns"),
    ("batch.wide.step_ns_p99.tmax", "ns"),
    ("batch.wide.delta_calls_per_batch", "count"),
    ("batch.wide.pool_speedup", "ratio"),
    ("batch.serve.batch_ns", "ns"),
    ("serve.segments", "count"),
    ("serve.segment_ms", "ms"),
    ("serve.checkpoints", "count"),
    ("serve.checkpoint_ms", "ms"),
    ("serve.requests", "count"),
    ("serve.errors", "count"),
    ("serve.req_us.census.p50", "us"),
    ("serve.req_us.census.p99", "us"),
    ("serve.req_us.status.p50", "us"),
    ("serve.req_us.status.p99", "us"),
    ("serve.req_us.plurality.p50", "us"),
    ("serve.req_us.plurality.p99", "us"),
    ("serve.req_us.ingest.p50", "us"),
    ("serve.req_us.ingest.p99", "us"),
    ("gen.late_ms", "ms"),
    ("trace.overhead", "ratio"),
];

/// Layer self times from the spans, in the order of the span tree.
const SPAN_LAYERS: [&str; 4] = ["workload", "phase", "run", "request"];

fn usage() -> &'static str {
    "usage: perfbench --workload paper-seq|table-batch|ppd-serve --seed N --seconds S --trace 0|1\n\
     \x20      perfbench --self-check"
}

fn parse(args: &[String]) -> Result<(String, Opts), String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| "--seed must be an integer")?,
                )
            }
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds must be a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok((
        workload,
        Opts {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            traced: trace.ok_or("--trace is required")?,
            toy: false,
            out_dir: PathBuf::from(".bench_out"),
        },
    ))
}

fn run_workload(workload: &str, opts: &Opts) -> (Report, Tracer) {
    let tracer = Tracer::new(opts.traced);
    let mut report = Report::default();
    match workload {
        "paper-seq" => paper::run(opts, &tracer, &mut report),
        "table-batch" => table::run(opts, &tracer, &mut report),
        "ppd-serve" => serve::run(opts, &tracer, &mut report),
        _ => unreachable!("workload names are validated at parse time"),
    }
    report.e2e("peak_rss_mb", peak_rss_mb(), "MB");
    if opts.traced {
        let self_ms = tracer.self_ms();
        for layer in SPAN_LAYERS {
            let ms = self_ms.get(layer).copied().unwrap_or(0.0);
            report.layer(&format!("self_ms.{layer}"), ms, "ms");
        }
    }
    (report, tracer)
}

/// The metrics the workload must have measured: every end-to-end
/// metric, and in traced runs its own per-layer metrics and the span
/// self times. Returns the names it did not measure.
fn unmeasured(workload: &str, report: &Report, traced: bool) -> Vec<String> {
    let has = |list: &[Metric], name: &str| list.iter().any(|m| m.name == name);
    let mut out: Vec<String> = E2E
        .iter()
        .filter(|(name, _)| !has(&report.e2e, name))
        .map(|(name, _)| name.to_string())
        .collect();
    if traced {
        let own = match workload {
            "paper-seq" => paper::LAYERS,
            "table-batch" => table::LAYERS,
            "ppd-serve" => serve::LAYERS,
            _ => unreachable!("workload names are validated at parse time"),
        };
        let spans = SPAN_LAYERS.iter().map(|l| format!("self_ms.{l}"));
        out.extend(
            own.iter()
                .map(|n| n.to_string())
                .chain(spans)
                .filter(|name| !has(&report.layers, name)),
        );
    }
    out
}

/// The metrics the final line carries, in catalogue order: end-to-end
/// untraced, per-layer traced (0 for layers the workload skips, and
/// for any metric it failed to measure, which `unmeasured` reports).
fn final_metrics(report: &Report, traced: bool) -> Vec<Metric> {
    let (catalogue, got): (Vec<(String, &str)>, &[Metric]) = if traced {
        let mut names: Vec<(String, &str)> =
            LAYERS.iter().map(|&(n, u)| (n.to_string(), u)).collect();
        names.extend(SPAN_LAYERS.iter().map(|l| (format!("self_ms.{l}"), "ms")));
        (names, &report.layers)
    } else {
        (
            E2E.iter().map(|&(n, u)| (n.to_string(), u)).collect(),
            &report.e2e,
        )
    };
    catalogue
        .into_iter()
        .map(|(name, unit)| {
            let value = got.iter().find(|m| m.name == name).map_or(0.0, |m| m.value);
            Metric { name, value, unit }
        })
        .collect()
}

fn json_metrics(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                num(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// A finite number with all its digits; non-finite values become 0
/// and fail the run (see `main`).
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The facts a number needs to be read: cores, caches, revision.
fn machine() -> BTreeMap<&'static str, String> {
    let mut m = BTreeMap::new();
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    m.insert("nproc", nproc.to_string());
    let cpu = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpu
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map_or("unknown", |v| v.trim_start_matches([' ', '\t', ':']));
    m.insert("cpu", model.to_string());
    for idx in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
        let read =
            |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).map(|s| s.trim().to_string());
        if let (Ok(level), Ok(size), Ok(kind)) = (read("level"), read("size"), read("type")) {
            if kind != "Instruction" {
                m.insert(
                    match level.as_str() {
                        "1" => "l1d",
                        "2" => "l2",
                        "3" => "l3",
                        _ => continue,
                    },
                    size,
                );
            }
        }
    }
    m.insert("git_rev", git_rev());
    m
}

/// The checked-out revision, read from `.git` without running git; a
/// checkout without git metadata reports `unknown`.
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    let Some(refname) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{refname}")) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(refname))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn detail_line(workload: &str, opts: &Opts, report: &Report) -> String {
    let facts: Vec<String> = machine()
        .into_iter()
        .map(|(k, v)| format!("\"{k}\":{}", escape(&v)))
        .collect();
    let failures: Vec<String> = report.failures.iter().map(|f| escape(f)).collect();
    format!(
        "{{\"workload\":\"{workload}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"machine\":{{{}}},\
         \"detail\":{},\"failures\":[{}]}}",
        opts.seed,
        opts.seconds,
        u8::from(opts.traced),
        facts.join(","),
        json_metrics(&report.detail),
        failures.join(",")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["--self-check"] {
        return self_check();
    }
    let (workload, opts) = match parse(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&opts.out_dir) {
        eprintln!("cannot create {}: {e}", opts.out_dir.display());
        return ExitCode::from(1);
    }
    let (mut report, tracer) = run_workload(&workload, &opts);
    if opts.traced {
        let path = opts
            .out_dir
            .join(format!("spans-{workload}-{}.json", opts.seed));
        if let Err(e) = std::fs::write(&path, tracer.to_json()) {
            eprintln!("cannot write {}: {e}", path.display());
        }
    }
    // A metric that was not measured would read 0; that is no result.
    let unmeasured = unmeasured(&workload, &report, opts.traced);
    for name in &unmeasured {
        report
            .failures
            .push(format!("invalid: {name} not measured"));
    }
    let metrics = final_metrics(&report, opts.traced);
    let finite = metrics.iter().all(|m| m.value.is_finite());
    println!("{}", detail_line(&workload, &opts, &report));
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        report.invalid == 0 && unmeasured.is_empty() && finite && report.attempted > 0,
        report.attempted.max(1),
        report.failed,
        json_metrics(&metrics)
    );
    ExitCode::SUCCESS
}

/// Run every workload at toy size, traced and untraced, and check the
/// output contract: every metric `BENCHMARK.json` declares is emitted
/// with its unit, every workload measures every end-to-end metric and
/// its own per-layer ones, each per-layer metric is measured by some
/// workload, no output is invalid, and traced and untraced passes count
/// the same work.
fn self_check() -> ExitCode {
    use pp_serve::json::Json;
    let declared = match std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| e.to_string())
        .and_then(|s| Json::parse(&s).map_err(|e| e.to_string()))
    {
        Ok(j) => j,
        Err(e) => {
            eprintln!("self-check: cannot read BENCHMARK.json: {e}");
            return ExitCode::FAILURE;
        }
    };
    let list = |key: &str| -> Vec<(String, String)> {
        match declared.get(key) {
            Some(Json::Arr(items)) => items
                .iter()
                .filter_map(|m| {
                    Some((
                        m.get("name")?.as_str()?.to_string(),
                        m.get("unit")?.as_str()?.to_string(),
                    ))
                })
                .collect(),
            _ => Vec::new(),
        }
    };
    let (e2e, layers) = (list("end_to_end"), list("per_layer"));
    let mut problems: Vec<String> = Vec::new();
    if e2e.is_empty() || layers.is_empty() {
        problems.push("BENCHMARK.json declares no metrics".into());
    }
    let out_dir = PathBuf::from(".bench_out");
    let _ = std::fs::create_dir_all(&out_dir);
    let mut covered: Vec<String> = Vec::new();
    for workload in WORKLOADS {
        for traced in [false, true] {
            let opts = Opts {
                seed: 1,
                seconds: 0.5,
                traced,
                toy: true,
                out_dir: out_dir.clone(),
            };
            let (report, _) = run_workload(workload, &opts);
            let emitted = final_metrics(&report, traced);
            let want = if traced { &layers } else { &e2e };
            for (name, unit) in want {
                match emitted.iter().find(|m| &m.name == name) {
                    None => problems.push(format!("{workload}: {name} not emitted")),
                    Some(m) if m.unit != unit => {
                        problems.push(format!("{workload}: {name} in {} not {unit}", m.unit))
                    }
                    Some(m) if !m.value.is_finite() => {
                        problems.push(format!("{workload}: {name} is not finite"))
                    }
                    Some(_) => {}
                }
            }
            for m in &emitted {
                if !want.iter().any(|(n, _)| n == &m.name) {
                    problems.push(format!("{workload}: {} emitted but not declared", m.name));
                }
            }
            for name in unmeasured(workload, &report, traced) {
                problems.push(format!("{workload}: {name} not measured"));
            }
            let measured = if traced { &report.layers } else { &report.e2e };
            covered.extend(measured.iter().map(|m| m.name.clone()));
            for m in measured {
                if !emitted.iter().any(|e| e.name == m.name) {
                    problems.push(format!(
                        "{workload}: {} measured but not in the catalogue",
                        m.name
                    ));
                }
            }
            if report.invalid > 0 {
                problems.push(format!(
                    "{workload}: {} invalid outputs: {:?}",
                    report.invalid, report.failures
                ));
            }
            for &(name, plain, with_trace) in &report.counts {
                match (traced, with_trace) {
                    (true, Some(t)) if t != plain => {
                        problems.push(format!("{workload}: {name} untraced {plain} != traced {t}"))
                    }
                    (true, None) => {
                        problems.push(format!("{workload}: {name} has no traced count"))
                    }
                    _ => {}
                }
            }
            println!(
                "self-check {workload} trace={}: {} metrics, {} of {} operations failed",
                u8::from(traced),
                emitted.len(),
                report.failed,
                report.attempted
            );
        }
    }
    for (name, _) in e2e.iter().chain(&layers) {
        if !covered.contains(name) {
            problems.push(format!("{name} is measured by no workload"));
        }
    }
    if problems.is_empty() {
        println!("self-check passed");
        ExitCode::SUCCESS
    } else {
        for p in &problems {
            println!("self-check FAILED: {p}");
        }
        ExitCode::FAILURE
    }
}
