//! Measurement plumbing shared by the workloads: fixed-bucket
//! histograms for hot per-call boundaries, exact percentiles for
//! sparse samples, and an in-memory span recorder for layer
//! boundaries (workload → phase → trial/request → engine run).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Sub-buckets per power of two: bucket edges grow by `2^(1/8)`, so a
/// reported percentile is within about 4.5% of the true value.
const SUB: f64 = 8.0;
const BUCKETS: usize = 64 * SUB as usize;

/// A log-scale histogram of nanosecond durations.
#[derive(Clone)]
pub struct Hist {
    buckets: Vec<u64>,
    count: u64,
    sum: f64,
}

impl Default for Hist {
    fn default() -> Self {
        Self {
            buckets: vec![0; BUCKETS],
            count: 0,
            sum: 0.0,
        }
    }
}

impl Hist {
    pub fn record(&mut self, ns: u64) {
        let idx = if ns <= 1 {
            0
        } else {
            ((ns as f64).log2() * SUB) as usize
        };
        self.buckets[idx.min(BUCKETS - 1)] += 1;
        self.count += 1;
        self.sum += ns as f64;
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// The `q`-quantile, as the geometric midpoint of its bucket; 0 when
    /// empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return 2f64.powf((i as f64 + 0.5) / SUB);
            }
        }
        unreachable!("rank is at most the count")
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
    }
}

/// The `q`-quantile of raw samples (nearest rank); 0 when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn geomean(values: &[f64]) -> f64 {
    let logs: f64 = values.iter().map(|v| v.ln()).sum();
    (logs / values.len() as f64).exp()
}

/// One recorded span: a timed interval at a layer boundary.
struct Span {
    id: u64,
    parent: u64,
    layer: &'static str,
    label: String,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder. Disabled tracers record nothing and hand
/// out id 0, so untraced runs pay one branch per boundary.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the tracer started.
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span; `f` receives the span id to parent its
    /// children on.
    pub fn span<R>(
        &self,
        parent: u64,
        layer: &'static str,
        label: impl Into<String>,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        if !self.enabled {
            return f(0);
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        self.record(id, parent, layer, label.into(), start_ns, self.now_ns());
        out
    }

    /// Record a span whose interval was measured elsewhere (a request
    /// timed from its due time); returns its id.
    pub fn add(
        &self,
        parent: u64,
        layer: &'static str,
        label: String,
        start: Instant,
        end: Instant,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.record(id, parent, layer, label, ns(start), ns(end));
        id
    }

    fn record(
        &self,
        id: u64,
        parent: u64,
        layer: &'static str,
        label: String,
        start_ns: u64,
        end_ns: u64,
    ) {
        self.spans.lock().expect("span lock").push(Span {
            id,
            parent,
            layer,
            label,
            start_ns,
            end_ns,
        });
    }

    /// Self time per layer in milliseconds: each span's duration minus
    /// the part of it its children cover.
    pub fn self_ms(&self) -> HashMap<&'static str, f64> {
        let spans = self.spans.lock().expect("span lock");
        let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        for s in spans.iter() {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
        let mut out: HashMap<&'static str, f64> = HashMap::new();
        for s in spans.iter() {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cursor = s.start_ns;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(cursor), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
            }
            *out.entry(s.layer).or_insert(0.0) +=
                (s.end_ns - s.start_ns).saturating_sub(covered) as f64 / 1e6;
        }
        out
    }

    /// The spans as a JSON array, one object per line.
    pub fn to_json(&self) -> String {
        let spans = self.spans.lock().expect("span lock");
        let lines: Vec<String> = spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"id\":{},\"parent\":{},\"layer\":\"{}\",\"label\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                    s.id, s.parent, s.layer, s.label, s.start_ns, s.end_ns
                )
            })
            .collect();
        format!("[\n{}\n]\n", lines.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hist_quantiles_land_in_the_right_bucket() {
        let mut h = Hist::default();
        for ns in 1..=1000u64 {
            h.record(ns);
        }
        let p50 = h.quantile(0.5);
        assert!((470.0..=530.0).contains(&p50), "p50 {p50}");
        let p99 = h.quantile(0.99);
        assert!((940.0..=1040.0).contains(&p99), "p99 {p99}");
    }

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new(true);
        let origin = t.origin;
        let at = |ms: u64| origin + std::time::Duration::from_millis(ms);
        let parent = t.add(0, "phase", "p".into(), at(0), at(10));
        t.add(parent, "run", "a".into(), at(1), at(4));
        t.add(parent, "run", "b".into(), at(3), at(6));
        let s = t.self_ms();
        assert!((s["phase"] - 5.0).abs() < 1e-6);
        assert!((s["run"] - 6.0).abs() < 1e-6);
    }
}
