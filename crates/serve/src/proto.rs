//! The `ppd` wire protocol: newline-delimited JSON, one request per
//! line, one response line per request.
//!
//! Requests are objects with a `"cmd"` discriminant; responses carry
//! `"ok"` plus a `"type"` discriminant. Every malformed line — bad JSON,
//! unknown command, missing or mistyped field — maps to a single
//! `{"ok":false,"type":"error",...}` line and the connection stays open;
//! the server never answers a request by dropping the socket.
//!
//! ```text
//! → {"cmd":"ingest","opinion":2,"count":500}
//! ← {"ok":true,"type":"ingested","opinion":2,"count":500,"population":10500}
//! → {"cmd":"plurality"}
//! ← {"ok":true,"type":"plurality","t":42.0,"opinion":1,"frac":0.633,"exact":false}
//! ```
//!
//! Both directions parse and serialize here so the round-trip is
//! testable without a socket. Doubles print in Rust's shortest
//! round-trip decimal form; non-finite doubles (the time-in-consensus
//! of a run with no samples yet) travel as `null` and read back as NaN.

use std::fmt;

use crate::json::{escape, num, Json};

/// A client request, one per line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Admit `count` fresh agents advocating `opinion` into the live
    /// population.
    Ingest {
        /// Opinion the new agents advocate (validated against the
        /// protocol's opinion set at the service layer).
        opinion: u32,
        /// How many agents join.
        count: u64,
    },
    /// Per-opinion headcount of the live population.
    Census,
    /// Current plurality opinion, its support fraction, and whether the
    /// exact predicate fires.
    Plurality,
    /// Parallel time, population, interactions, exact-predicate state,
    /// time-in-consensus.
    Status,
    /// Service counters: requests, interactions, batches, checkpoints,
    /// ingest rate.
    Metrics,
    /// Write a checkpoint now (requires the daemon to have a
    /// checkpoint path).
    Checkpoint,
    /// Advance the simulation by `time` units of parallel time
    /// (lockstep mode's explicit clock).
    Step {
        /// Parallel time to advance by; finite and positive.
        time: f64,
    },
    /// Graceful shutdown: drain in-flight requests, final checkpoint,
    /// exit 0.
    Shutdown,
}

/// A protocol-level error: the text becomes the `error` field of an
/// error response line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError(pub String);

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

fn field<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, ProtoError> {
    obj.get(key)
        .ok_or_else(|| ProtoError(format!("missing field {key:?}")))
}

fn u64_field(obj: &Json, key: &str) -> Result<u64, ProtoError> {
    field(obj, key)?
        .as_u64()
        .ok_or_else(|| ProtoError(format!("field {key:?} must be an unsigned integer")))
}

fn u32_field(obj: &Json, key: &str) -> Result<u32, ProtoError> {
    field(obj, key)?
        .as_u32()
        .ok_or_else(|| ProtoError(format!("field {key:?} must be an unsigned 32-bit integer")))
}

fn f64_field(obj: &Json, key: &str) -> Result<f64, ProtoError> {
    field(obj, key)?
        .as_f64()
        .ok_or_else(|| ProtoError(format!("field {key:?} must be a number")))
}

fn bool_field(obj: &Json, key: &str) -> Result<bool, ProtoError> {
    field(obj, key)?
        .as_bool()
        .ok_or_else(|| ProtoError(format!("field {key:?} must be a boolean")))
}

fn opt_u32_field(obj: &Json, key: &str) -> Result<Option<u32>, ProtoError> {
    match field(obj, key)? {
        Json::Null => Ok(None),
        v => v
            .as_u32()
            .map(Some)
            .ok_or_else(|| ProtoError(format!("field {key:?} must be null or a u32"))),
    }
}

fn opt_u32_json(v: Option<u32>) -> String {
    v.map_or_else(|| "null".to_string(), |o| o.to_string())
}

impl Request {
    /// Parse one request line.
    ///
    /// # Errors
    ///
    /// A [`ProtoError`] describing the first problem: invalid JSON, a
    /// non-object, a missing or unknown `cmd`, or a bad field.
    pub fn parse(line: &str) -> Result<Request, ProtoError> {
        let v = Json::parse(line.trim()).map_err(|e| ProtoError(format!("invalid json: {e}")))?;
        if !matches!(v, Json::Obj(_)) {
            return Err(ProtoError("request must be a json object".to_string()));
        }
        let cmd = field(&v, "cmd")?
            .as_str()
            .ok_or_else(|| ProtoError("field \"cmd\" must be a string".to_string()))?;
        match cmd {
            "ingest" => {
                let opinion = u32_field(&v, "opinion")?;
                let count = u64_field(&v, "count")?;
                if count == 0 {
                    return Err(ProtoError("ingest count must be at least 1".to_string()));
                }
                Ok(Request::Ingest { opinion, count })
            }
            "census" => Ok(Request::Census),
            "plurality" => Ok(Request::Plurality),
            "status" => Ok(Request::Status),
            "metrics" => Ok(Request::Metrics),
            "checkpoint" => Ok(Request::Checkpoint),
            "step" => {
                let time = f64_field(&v, "time")?;
                if !time.is_finite() || time <= 0.0 {
                    return Err(ProtoError(
                        "step time must be finite and positive".to_string(),
                    ));
                }
                Ok(Request::Step { time })
            }
            "shutdown" => Ok(Request::Shutdown),
            other => Err(ProtoError(format!("unknown cmd {other:?}"))),
        }
    }

    /// The request as its one-line JSON spelling.
    pub fn to_json(&self) -> String {
        match self {
            Request::Ingest { opinion, count } => {
                format!("{{\"cmd\":\"ingest\",\"opinion\":{opinion},\"count\":{count}}}")
            }
            Request::Census => "{\"cmd\":\"census\"}".to_string(),
            Request::Plurality => "{\"cmd\":\"plurality\"}".to_string(),
            Request::Status => "{\"cmd\":\"status\"}".to_string(),
            Request::Metrics => "{\"cmd\":\"metrics\"}".to_string(),
            Request::Checkpoint => "{\"cmd\":\"checkpoint\"}".to_string(),
            Request::Step { time } => format!("{{\"cmd\":\"step\",\"time\":{}}}", num(*time)),
            Request::Shutdown => "{\"cmd\":\"shutdown\"}".to_string(),
        }
    }
}

/// Service counters reported by the `metrics` command. Rates are
/// computed over the daemon's uptime.
#[derive(Debug, Clone, PartialEq)]
pub struct Metrics {
    /// Seconds since the service started.
    pub uptime_s: f64,
    /// Request lines processed (including ones answered with errors).
    pub requests: u64,
    /// Request lines answered with an error response.
    pub errors: u64,
    /// `ingest` requests applied.
    pub ingest_requests: u64,
    /// Agents admitted via `ingest`.
    pub ingested_agents: u64,
    /// Agents admitted per second of uptime.
    pub ingest_rate: f64,
    /// Interactions simulated since start (or resume).
    pub interactions: u64,
    /// Interactions simulated per second of uptime.
    pub interactions_rate: f64,
    /// Engine batches applied.
    pub batches: u64,
    /// Simulation segments stepped.
    pub segments: u64,
    /// Checkpoints written.
    pub checkpoints: u64,
    /// Mean checkpoint write latency in milliseconds (NaN before the
    /// first checkpoint).
    pub checkpoint_mean_ms: f64,
}

/// A server response, one line per request.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// `ingest` applied.
    Ingested {
        /// Opinion the admitted agents advocate.
        opinion: u32,
        /// Number of agents admitted.
        count: u64,
        /// Population after the admission.
        population: u64,
    },
    /// `census` result: per-opinion headcounts, ascending by opinion.
    Census {
        /// Parallel time of the census.
        t: f64,
        /// Total live population (including undecided agents).
        population: u64,
        /// `(opinion, count)` pairs, ascending by opinion.
        census: Vec<(u32, u64)>,
    },
    /// `plurality` result.
    Plurality {
        /// Parallel time of the reading.
        t: f64,
        /// The most-supported opinion, `null` when no agent holds one.
        opinion: Option<u32>,
        /// Fraction of the population advocating it.
        frac: f64,
        /// Whether the protocol's exact convergence predicate fires.
        exact: bool,
    },
    /// `status` result.
    Status {
        /// Parallel time of the live population.
        t: f64,
        /// Total live population.
        population: u64,
        /// Interactions simulated since start (or resume).
        interactions: u64,
        /// Whether the exact predicate currently fires.
        consensus: bool,
        /// The converged output when it does.
        output: Option<u32>,
        /// Fraction of sampled marks spent in exact consensus (NaN
        /// before the first sample).
        time_in_consensus: f64,
        /// Agents admitted via `ingest` so far.
        ingested: u64,
    },
    /// `metrics` result.
    Metrics(Metrics),
    /// `checkpoint` applied.
    Checkpointed {
        /// Where the snapshot landed.
        path: String,
        /// Parallel time it captures.
        t: f64,
    },
    /// `step` applied.
    Stepped {
        /// Parallel time after the step.
        t: f64,
    },
    /// `shutdown` acknowledged; the final checkpoint (if configured) is
    /// already on disk when this line arrives.
    ShutDown,
    /// The request could not be served; the connection stays open.
    Error {
        /// What went wrong.
        error: String,
    },
}

impl From<ProtoError> for Response {
    fn from(e: ProtoError) -> Self {
        Response::Error { error: e.0 }
    }
}

impl Response {
    /// The response as its one-line JSON spelling.
    pub fn to_json(&self) -> String {
        match self {
            Response::Ingested {
                opinion,
                count,
                population,
            } => format!(
                "{{\"ok\":true,\"type\":\"ingested\",\"opinion\":{opinion},\"count\":{count},\
                 \"population\":{population}}}"
            ),
            Response::Census {
                t,
                population,
                census,
            } => {
                let pairs: Vec<String> = census.iter().map(|(o, c)| format!("[{o},{c}]")).collect();
                format!(
                    "{{\"ok\":true,\"type\":\"census\",\"t\":{},\"population\":{population},\
                     \"census\":[{}]}}",
                    num(*t),
                    pairs.join(",")
                )
            }
            Response::Plurality {
                t,
                opinion,
                frac,
                exact,
            } => format!(
                "{{\"ok\":true,\"type\":\"plurality\",\"t\":{},\"opinion\":{},\"frac\":{},\
                 \"exact\":{exact}}}",
                num(*t),
                opt_u32_json(*opinion),
                num(*frac)
            ),
            Response::Status {
                t,
                population,
                interactions,
                consensus,
                output,
                time_in_consensus,
                ingested,
            } => format!(
                "{{\"ok\":true,\"type\":\"status\",\"t\":{},\"population\":{population},\
                 \"interactions\":{interactions},\"consensus\":{consensus},\"output\":{},\
                 \"time_in_consensus\":{},\"ingested\":{ingested}}}",
                num(*t),
                opt_u32_json(*output),
                num(*time_in_consensus)
            ),
            Response::Metrics(m) => format!(
                "{{\"ok\":true,\"type\":\"metrics\",\"uptime_s\":{},\"requests\":{},\
                 \"errors\":{},\"ingest_requests\":{},\"ingested_agents\":{},\"ingest_rate\":{},\
                 \"interactions\":{},\"interactions_rate\":{},\"batches\":{},\"segments\":{},\
                 \"checkpoints\":{},\"checkpoint_mean_ms\":{}}}",
                num(m.uptime_s),
                m.requests,
                m.errors,
                m.ingest_requests,
                m.ingested_agents,
                num(m.ingest_rate),
                m.interactions,
                num(m.interactions_rate),
                m.batches,
                m.segments,
                m.checkpoints,
                num(m.checkpoint_mean_ms)
            ),
            Response::Checkpointed { path, t } => format!(
                "{{\"ok\":true,\"type\":\"checkpointed\",\"path\":{},\"t\":{}}}",
                escape(path),
                num(*t)
            ),
            Response::Stepped { t } => {
                format!("{{\"ok\":true,\"type\":\"stepped\",\"t\":{}}}", num(*t))
            }
            Response::ShutDown => "{\"ok\":true,\"type\":\"shutdown\"}".to_string(),
            Response::Error { error } => {
                format!(
                    "{{\"ok\":false,\"type\":\"error\",\"error\":{}}}",
                    escape(error)
                )
            }
        }
    }

    /// Parse one response line (the client half of the round-trip).
    ///
    /// # Errors
    ///
    /// A [`ProtoError`] for invalid JSON or a malformed response shape.
    pub fn parse(line: &str) -> Result<Response, ProtoError> {
        let v = Json::parse(line.trim()).map_err(|e| ProtoError(format!("invalid json: {e}")))?;
        let ok = bool_field(&v, "ok")?;
        let ty = field(&v, "type")?
            .as_str()
            .ok_or_else(|| ProtoError("field \"type\" must be a string".to_string()))?;
        if !ok {
            if ty != "error" {
                return Err(ProtoError(format!("ok:false with type {ty:?}")));
            }
            let error = field(&v, "error")?
                .as_str()
                .ok_or_else(|| ProtoError("field \"error\" must be a string".to_string()))?
                .to_string();
            return Ok(Response::Error { error });
        }
        match ty {
            "ingested" => Ok(Response::Ingested {
                opinion: u32_field(&v, "opinion")?,
                count: u64_field(&v, "count")?,
                population: u64_field(&v, "population")?,
            }),
            "census" => {
                let arr = match field(&v, "census")? {
                    Json::Arr(items) => items,
                    _ => return Err(ProtoError("field \"census\" must be an array".to_string())),
                };
                let mut census = Vec::with_capacity(arr.len());
                for item in arr {
                    let pair = match item {
                        Json::Arr(p) if p.len() == 2 => p,
                        _ => {
                            return Err(ProtoError(
                                "census entries must be [opinion, count] pairs".to_string(),
                            ))
                        }
                    };
                    let (Some(o), Some(c)) = (pair[0].as_u32(), pair[1].as_u64()) else {
                        return Err(ProtoError(
                            "census entries must be [opinion, count] pairs".to_string(),
                        ));
                    };
                    census.push((o, c));
                }
                Ok(Response::Census {
                    t: f64_field(&v, "t")?,
                    population: u64_field(&v, "population")?,
                    census,
                })
            }
            "plurality" => Ok(Response::Plurality {
                t: f64_field(&v, "t")?,
                opinion: opt_u32_field(&v, "opinion")?,
                frac: f64_field(&v, "frac")?,
                exact: bool_field(&v, "exact")?,
            }),
            "status" => Ok(Response::Status {
                t: f64_field(&v, "t")?,
                population: u64_field(&v, "population")?,
                interactions: u64_field(&v, "interactions")?,
                consensus: bool_field(&v, "consensus")?,
                output: opt_u32_field(&v, "output")?,
                time_in_consensus: f64_field(&v, "time_in_consensus")?,
                ingested: u64_field(&v, "ingested")?,
            }),
            "metrics" => Ok(Response::Metrics(Metrics {
                uptime_s: f64_field(&v, "uptime_s")?,
                requests: u64_field(&v, "requests")?,
                errors: u64_field(&v, "errors")?,
                ingest_requests: u64_field(&v, "ingest_requests")?,
                ingested_agents: u64_field(&v, "ingested_agents")?,
                ingest_rate: f64_field(&v, "ingest_rate")?,
                interactions: u64_field(&v, "interactions")?,
                interactions_rate: f64_field(&v, "interactions_rate")?,
                batches: u64_field(&v, "batches")?,
                segments: u64_field(&v, "segments")?,
                checkpoints: u64_field(&v, "checkpoints")?,
                checkpoint_mean_ms: f64_field(&v, "checkpoint_mean_ms")?,
            })),
            "checkpointed" => Ok(Response::Checkpointed {
                path: field(&v, "path")?
                    .as_str()
                    .ok_or_else(|| ProtoError("field \"path\" must be a string".to_string()))?
                    .to_string(),
                t: f64_field(&v, "t")?,
            }),
            "stepped" => Ok(Response::Stepped {
                t: f64_field(&v, "t")?,
            }),
            "shutdown" => Ok(Response::ShutDown),
            other => Err(ProtoError(format!("unknown response type {other:?}"))),
        }
    }
}
