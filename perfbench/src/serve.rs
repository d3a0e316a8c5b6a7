//! `ppd-serve`: an in-process `Service` behind a `ServerHandle` with
//! `ppd`'s defaults (4 server workers, engine threads = all cores),
//! hosting 3-state majority at `n = 10⁶` with `churn:0.005` and a
//! one-second checkpoint timer.
//!
//! An open-loop generator drives it over two connections, one thread
//! each: a query stream (`census`/`status`/`plurality` in rotation) at
//! [`QUERY_HZ`] and an `ingest` stream at [`INGEST_HZ`], both well below
//! capacity. Requests go out on schedule whether or not earlier ones
//! were answered; each latency runs from the request's due time, so a
//! stall also charges the requests queued behind it.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use pp_engine::ChurnSpec;
use pp_majority::ThreeState;
use pp_serve::{Metrics, Response, ServerHandle, Service, ServiceConfig};

use crate::report::{mix, Failure, Report, Setup};
use crate::trace::{geomean, median, quantile, Tracer};
use crate::Opts;

/// The per-layer metrics this workload measures; the rest of the
/// catalogue reads 0 on it.
pub const LAYERS: &[&str] = &[
    "batch.batches",
    "batch.len_mean",
    "batch.serve.batch_ns",
    "serve.segments",
    "serve.segment_ms",
    "serve.checkpoints",
    "serve.checkpoint_ms",
    "serve.requests",
    "serve.errors",
    "serve.req_us.census.p50",
    "serve.req_us.census.p99",
    "serve.req_us.status.p50",
    "serve.req_us.status.p99",
    "serve.req_us.plurality.p50",
    "serve.req_us.plurality.p99",
    "serve.req_us.ingest.p50",
    "serve.req_us.ingest.p99",
    "gen.late_ms",
    "trace.overhead",
];

pub const QUERY_HZ: f64 = 400.0;
pub const INGEST_HZ: f64 = 100.0;
/// `ppd --workers` default.
const SERVER_WORKERS: usize = 4;
/// Slices of a window whose simulation rates `serve_sim_ips` is the
/// median of.
const SLICES: u32 = 30;
/// A request not answered this long after its due time has failed.
const ANSWER_LIMIT: Duration = Duration::from_secs(2);
/// Throwaway instances started before the measured ones, for the
/// set-up median: one instance's set-up varies by a third or more.
const EXTRA_SETUPS: usize = 63;

const QUERIES: [&str; 3] = ["census", "status", "plurality"];

/// A live service and its front end.
struct Instance {
    service: Service,
    server: ServerHandle,
    addr: SocketAddr,
    ckpt: std::path::PathBuf,
}

fn config(opts: &Opts, ckpt: &std::path::Path) -> ServiceConfig {
    let n: u64 = if opts.toy { 10_000 } else { 1_000_000 };
    ServiceConfig {
        // `ppd`'s default population: a 2:1 split.
        initial: vec![0, 2 * n / 3, n - 2 * n / 3],
        seed: mix(opts.seed, 0x400),
        churn: "churn:0.005"
            .parse::<ChurnSpec>()
            .expect("valid churn spec"),
        checkpoint_path: Some(ckpt.to_path_buf()),
        checkpoint_secs: Some(1.0),
        ..ServiceConfig::default()
    }
}

/// Start a service and its server: the set-up a `ppd` user waits
/// through before the port answers.
fn start(opts: &Opts, tag: usize) -> Instance {
    let ckpt = opts.out_dir.join(format!("ppd-{}-{tag}.ckpt", opts.seed));
    let service = Service::spawn(ThreeState, config(opts, &ckpt)).expect("spawn service");
    let server = ServerHandle::bind("127.0.0.1:0", &service, SERVER_WORKERS).expect("bind server");
    Instance {
        addr: server.addr(),
        service,
        server,
        ckpt,
    }
}

/// Wait until the engine has published its first segment. Not part of
/// set-up: with engine threads = all cores, how soon this thread is
/// scheduled again is mostly the kernel's choice.
fn first_segment(inst: &Instance) {
    let stats = inst.service.stats();
    let t0 = Instant::now();
    while stats.segments.load(Ordering::Relaxed) == 0 {
        assert!(
            t0.elapsed() < Duration::from_secs(60),
            "service made no progress"
        );
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// Graceful shutdown: final checkpoint, drain, join every thread.
fn stop(inst: Instance) {
    let mut s = TcpStream::connect(inst.addr).expect("connect for shutdown");
    s.write_all(b"{\"cmd\":\"shutdown\"}\n")
        .expect("send shutdown");
    let mut buf = [0u8; 256];
    let _ = s.read(&mut buf);
    drop(s);
    inst.server.join();
    inst.service.join();
    let _ = std::fs::remove_file(&inst.ckpt);
}

/// One scheduled request.
struct Req {
    due: Instant,
    cmd: &'static str,
    line: String,
}

/// One request's fate.
struct Done {
    cmd: &'static str,
    due: Instant,
    late: Duration,
    answered: Option<Instant>,
    result: Result<(), Failure>,
    metrics: Option<Metrics>,
}

/// The invariants every response must satisfy, with the state the
/// monotone ones need.
struct Checker {
    n0: u64,
    interactions: u64,
    ingested: u64,
}

impl Checker {
    /// An error answer is a failed request; an answer that contradicts
    /// the request or the population is an invalid output.
    fn check(&mut self, req: &Req, line: &str) -> Result<Option<Metrics>, Failure> {
        match Response::parse(line) {
            Ok(Response::Error { error }) => Err(Failure::Missed(format!(
                "{}: error response: {error}",
                req.cmd
            ))),
            Ok(resp) => self.consistent(req, resp).map_err(Failure::Invalid),
            Err(e) => Err(Failure::Invalid(format!(
                "{}: unparsable response: {e}",
                req.cmd
            ))),
        }
    }

    fn consistent(&mut self, req: &Req, resp: Response) -> Result<Option<Metrics>, String> {
        let plausible = |p: u64| p >= self.n0 / 2 && p <= self.n0 * 2;
        match (req.cmd, resp) {
            (
                "census",
                Response::Census {
                    population, census, ..
                },
            ) => {
                // Undecided agents hold no opinion, so the opinion
                // census sums to at most the population.
                let sum: u64 = census.iter().map(|&(_, c)| c).sum();
                if sum == 0 || sum > population || !plausible(population) {
                    return Err(format!(
                        "census: counts sum to {sum} of population {population}"
                    ));
                }
                Ok(None)
            }
            (
                "status",
                Response::Status {
                    population,
                    interactions,
                    ingested,
                    ..
                },
            ) => {
                if !plausible(population)
                    || interactions < self.interactions
                    || ingested < self.ingested
                {
                    return Err(format!(
                        "status: population {population}, interactions {interactions} (was {}), ingested {ingested} (was {})",
                        self.interactions, self.ingested
                    ));
                }
                self.interactions = interactions;
                self.ingested = ingested;
                Ok(None)
            }
            ("plurality", Response::Plurality { opinion, frac, .. }) => {
                if !(matches!(opinion, Some(1 | 2)) && frac > 0.0 && frac <= 1.0) {
                    return Err(format!("plurality: opinion {opinion:?} at {frac}"));
                }
                Ok(None)
            }
            (
                "ingest",
                Response::Ingested {
                    opinion,
                    count,
                    population,
                },
            ) => {
                let want = format!("\"opinion\":{opinion},\"count\":{count}}}");
                if !req.line.ends_with(&want) || !plausible(population) {
                    return Err(format!(
                        "ingest: answered {opinion}x{count} at population {population} for {}",
                        req.line
                    ));
                }
                Ok(None)
            }
            ("metrics", Response::Metrics(m)) => Ok(Some(m)),
            (cmd, other) => Err(format!("{cmd}: answered with {}", other.to_json())),
        }
    }
}

/// Send `schedule` over one connection on time, reading answers in
/// between; the connection's thread never waits for an answer before
/// sending the next due request.
fn drive(addr: SocketAddr, schedule: Vec<Req>, n0: u64) -> Vec<Done> {
    let mut stream = TcpStream::connect(addr).expect("connect generator");
    stream.set_nodelay(true).expect("nodelay");
    let mut checker = Checker {
        n0,
        interactions: 0,
        ingested: 0,
    };
    let mut done: Vec<Done> = Vec::with_capacity(schedule.len());
    let mut pending: VecDeque<usize> = VecDeque::new();
    let mut inbox: Vec<u8> = Vec::new();
    let mut buf = vec![0u8; 1 << 16];
    let mut next = 0;
    let last_due = schedule.last().map_or_else(Instant::now, |r| r.due);
    loop {
        let now = Instant::now();
        while next < schedule.len() && schedule[next].due <= now {
            let req = &schedule[next];
            let sent = stream.write_all(format!("{}\n", req.line).as_bytes());
            done.push(Done {
                cmd: req.cmd,
                due: req.due,
                late: now.saturating_duration_since(req.due),
                answered: None,
                result: sent.map_err(|e| Failure::Missed(format!("{}: send failed: {e}", req.cmd))),
                metrics: None,
            });
            pending.push_back(next);
            next += 1;
        }
        if next == schedule.len() && pending.is_empty() {
            break;
        }
        if now > last_due + ANSWER_LIMIT {
            break;
        }
        let wait = if next < schedule.len() {
            schedule[next].due.saturating_duration_since(now)
        } else {
            Duration::from_millis(5)
        };
        stream
            .set_read_timeout(Some(
                wait.clamp(Duration::from_micros(50), Duration::from_millis(5)),
            ))
            .expect("read timeout");
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(k) => inbox.extend_from_slice(&buf[..k]),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                continue
            }
            Err(_) => break,
        }
        let at = Instant::now();
        while let Some(pos) = inbox.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = inbox.drain(..=pos).collect();
            let Some(i) = pending.pop_front() else {
                break;
            };
            let d = &mut done[i];
            d.answered = Some(at);
            if d.result.is_ok() {
                match checker.check(&schedule[i], &String::from_utf8_lossy(&line)) {
                    Ok(m) => d.metrics = m,
                    Err(e) => d.result = Err(e),
                }
            }
            if at.duration_since(d.due) > ANSWER_LIMIT && d.result.is_ok() {
                d.result = Err(Failure::Missed(format!(
                    "{}: answered {:?} after its due time",
                    d.cmd,
                    at.duration_since(d.due)
                )));
            }
        }
    }
    for &i in &pending {
        if done[i].result.is_ok() {
            done[i].result = Err(Failure::Missed(format!(
                "{}: not answered in time",
                done[i].cmd
            )));
        }
    }
    done
}

/// The two streams, due from `t0` for `secs` seconds. The ingest
/// stream opens and closes with a `metrics` request, whose counters
/// frame the window.
fn schedules(seed: u64, t0: Instant, secs: f64) -> (Vec<Req>, Vec<Req>) {
    let at = |s: f64| t0 + Duration::from_secs_f64(s);
    let queries = (0..(secs * QUERY_HZ) as usize)
        .map(|i| {
            let cmd = QUERIES[i % QUERIES.len()];
            Req {
                due: at(i as f64 / QUERY_HZ),
                cmd,
                line: format!("{{\"cmd\":\"{cmd}\"}}"),
            }
        })
        .collect();
    let metrics = |s: f64| Req {
        due: at(s),
        cmd: "metrics",
        line: "{\"cmd\":\"metrics\"}".into(),
    };
    let mut ingest = vec![metrics(0.0)];
    for i in 0..(secs * INGEST_HZ) as usize {
        let r = mix(seed, 0x1000 + i as u64);
        let (opinion, count) = (1 + r % 2, 1 + (r >> 8) % 16);
        ingest.push(Req {
            due: at((i as f64 + 0.5) / INGEST_HZ),
            cmd: "ingest",
            line: format!("{{\"cmd\":\"ingest\",\"opinion\":{opinion},\"count\":{count}}}"),
        });
    }
    ingest.push(metrics(secs));
    (queries, ingest)
}

/// One measured window against a live instance.
struct Window {
    done: Vec<Done>,
    secs: f64,
    sim_ips: f64,
    first: Option<Metrics>,
    last: Option<Metrics>,
}

/// One window of `secs` seconds; a traced window also records a span
/// per request, after the window ends.
fn measure(
    inst: &Instance,
    opts: &Opts,
    secs: f64,
    traced: bool,
    tracer: &Tracer,
    parent: u64,
) -> Window {
    let n0: u64 = config(opts, &inst.ckpt).initial.iter().sum();
    let stats = inst.service.stats();
    let t0 = Instant::now() + Duration::from_millis(20);
    let (queries, ingest) = schedules(opts.seed, t0, secs);
    let addr = inst.addr;
    let q = std::thread::spawn(move || drive(addr, queries, n0));
    let i = std::thread::spawn(move || drive(addr, ingest, n0));
    // The simulation rate is the median over equal slices of the
    // window, so a burst of load from outside the process moves it less
    // than it would move the window's mean.
    let slice = Duration::from_secs_f64(secs / f64::from(SLICES));
    let mut marks = Vec::new();
    for k in 0..=SLICES {
        std::thread::sleep((t0 + slice * k).saturating_duration_since(Instant::now()));
        marks.push((Instant::now(), stats.interactions.load(Ordering::Relaxed)));
    }
    let rates: Vec<f64> = marks
        .windows(2)
        .map(|m| (m[1].1 - m[0].1) as f64 / (m[1].0 - m[0].0).as_secs_f64())
        .collect();
    let mut done = q.join().expect("query generator");
    done.extend(i.join().expect("ingest generator"));
    let mut metrics = done.iter().filter_map(|d| d.metrics.clone());
    let first = metrics.next();
    let last = metrics.next_back();
    for (k, d) in done.iter().enumerate().filter(|_| traced) {
        if let Some(end) = d.answered {
            tracer.add(parent, "request", format!("{}#{k}", d.cmd), d.due, end);
        }
    }
    Window {
        done,
        secs,
        sim_ips: median(&rates),
        first,
        last,
    }
}

/// Latencies in µs of the answered requests with these commands.
fn latencies_us(w: &Window, cmds: &[&str]) -> Vec<f64> {
    w.done
        .iter()
        .filter(|d| cmds.contains(&d.cmd))
        .filter_map(|d| {
            d.answered
                .map(|a| a.duration_since(d.due).as_secs_f64() * 1e6)
        })
        .collect()
}

pub fn run(opts: &Opts, tracer: &Tracer, report: &mut Report) {
    let mut setup = Setup::default();
    for tag in 0..EXTRA_SETUPS {
        let inst = setup.time(|| start(opts, tag));
        first_segment(&inst);
        stop(inst);
    }
    // Traced runs split the time: an untraced window, then a traced one.
    let windows: Vec<(bool, f64)> = if opts.traced {
        vec![(false, opts.seconds / 2.0), (true, opts.seconds / 2.0)]
    } else {
        vec![(false, opts.seconds)]
    };
    let mut results = Vec::new();
    tracer.span(0, "workload", "ppd-serve", |root| {
        for (k, &(traced, secs)) in windows.iter().enumerate() {
            let inst = setup.time(|| start(opts, EXTRA_SETUPS + k));
            first_segment(&inst);
            let label = if traced { "window-traced" } else { "window" };
            let w = tracer.span(root, "phase", label, |id| {
                measure(&inst, opts, secs, traced, tracer, id)
            });
            stop(inst);
            results.push(w);
        }
    });

    for w in &results {
        for d in &w.done {
            report.check(d.result.clone());
        }
    }
    let plain = &results[0];
    let query = latencies_us(plain, &QUERIES);
    let ingest = latencies_us(plain, &["ingest"]);
    report.e2e("setup_s", setup.median_s(), "s");
    report.e2e("ips", plain.sim_ips, "1/s");
    // Reads and writes weigh equally: a gain for queries that costs
    // ingest does not pass unseen.
    let answer_us = geomean(&[quantile(&query, 0.5), quantile(&ingest, 0.5)]);
    report.e2e("answer_s", answer_us / 1e6, "s");
    report.detail("serve_query_p50_us", quantile(&query, 0.5), "us");
    report.detail("serve_query_p99_us", quantile(&query, 0.99), "us");
    report.detail("serve_query_samples", query.len() as f64, "count");
    report.detail("serve_ingest_p50_us", quantile(&ingest, 0.5), "us");
    report.detail("serve_ingest_p99_us", quantile(&ingest, 0.99), "us");
    report.detail("serve_ingest_samples", ingest.len() as f64, "count");
    report.detail("serve_sim_ips", plain.sim_ips, "1/s");

    let Some(w) = results.get(1) else {
        return;
    };
    report.layer("trace.overhead", 1.0 - w.sim_ips / plain.sim_ips, "ratio");
    for cmd in QUERIES.iter().chain(&["ingest"]) {
        let lat = latencies_us(w, &[cmd]);
        report.layer(
            &format!("serve.req_us.{cmd}.p50"),
            quantile(&lat, 0.5),
            "us",
        );
        report.layer(
            &format!("serve.req_us.{cmd}.p99"),
            quantile(&lat, 0.99),
            "us",
        );
    }
    let late: Vec<f64> = w.done.iter().map(|d| d.late.as_secs_f64() * 1e3).collect();
    report.layer("gen.late_ms", quantile(&late, 0.99), "ms");
    if let (Some(a), Some(b)) = (&w.first, &w.last) {
        let segments = b.segments - a.segments;
        let batches = b.batches - a.batches;
        report.layer("serve.segments", segments as f64, "count");
        report.layer("serve.segment_ms", w.secs * 1e3 / segments as f64, "ms");
        report.layer(
            "serve.checkpoints",
            (b.checkpoints - a.checkpoints) as f64,
            "count",
        );
        let ckpt_ms = if b.checkpoint_mean_ms.is_finite() {
            b.checkpoint_mean_ms
        } else {
            0.0
        };
        report.layer("serve.checkpoint_ms", ckpt_ms, "ms");
        report.layer("serve.requests", (b.requests - a.requests) as f64, "count");
        report.layer("serve.errors", (b.errors - a.errors) as f64, "count");
        report.layer("batch.batches", batches as f64, "count");
        report.layer(
            "batch.len_mean",
            (b.interactions - a.interactions) as f64 / batches as f64,
            "count",
        );
        // `ppd` checks its output once per segment, not per batch, so
        // batch time comes from its counters, not from a table wrapper.
        report.layer("batch.serve.batch_ns", w.secs * 1e9 / batches as f64, "ns");
    }
}
