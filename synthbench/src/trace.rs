//! Clock, span recording and summary statistics.
//!
//! Every host-clock read of the benchmark goes through [`now`], so the
//! wall-clock exemption is stated once. Spans are kept in memory while a
//! run measures and turned into per-layer figures after it ends.

use std::time::Instant;

/// Reads the host clock.
pub fn now() -> Instant {
    // mcs-lint: allow(wall-clock) -- the benchmark measures wall time; nothing it times reads this value back
    Instant::now()
}

/// Milliseconds from `start` to now.
pub fn ms_since(start: Instant) -> f64 {
    (now() - start).as_secs_f64() * 1e3
}

/// Milliseconds between two instants (`0` if `end` precedes `start`).
pub fn ms_between(start: Instant, end: Instant) -> f64 {
    end.saturating_duration_since(start).as_secs_f64() * 1e3
}

/// One recorded span: a named, timed call and the request (set-up, job
/// or probe instance) it belongs to.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub request: u64,
    pub ms: f64,
}

/// An in-memory span store; disabled tracers record nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            spans: Vec::new(),
        }
    }

    /// Records a finished span from two instants.
    pub fn record(&mut self, name: &'static str, request: u64, start: Instant, end: Instant) {
        if self.enabled {
            self.spans.push(Span {
                name,
                request,
                ms: ms_between(start, end),
            });
        }
    }

    /// Times `f` as a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let start = now();
        let out = f();
        self.record(name, request, start, now());
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ms) of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ms)
            .collect()
    }
}

/// The nearest-rank `q`-quantile (`0 < q <= 1`) of `values`; `0` when
/// empty. Infinite entries sort last.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}
