//! In-memory spans and the timing decorators that record them.
//!
//! Spans are recorded from the benchmark's own files, around the calls it
//! makes into each layer: the decorators below wrap the library's public
//! `Searcher` and `Objective` traits and forward every call unchanged.
//! Nothing is written out until the run ends.

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use hyperpower::methods::{BoSearcher, History};
use hyperpower::space::Decoded;
use hyperpower::{
    Conditioning, Config, ConstraintOracle, DegradationEvent, EarlyTermination, EvaluationResult,
    Objective, SearchSpace, Searcher,
};
use rand::rngs::StdRng;

/// One timed call: which layer, which run it belongs to, and when it
/// started and ended (nanoseconds since the tracer's origin).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub layer: &'static str,
    pub run: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// The inputs of one GP surrogate fit, captured at a BO proposal so the
/// fit can be replayed and timed on its own after the run.
#[derive(Debug, Clone)]
pub struct FitInput {
    pub rows: usize,
    pub dim: usize,
    pub x: Vec<f64>,
    pub y: Vec<f64>,
    pub candidates: usize,
    pub fit_options: hyperpower_gp::FitOptions,
}

/// Collects spans (and, when asked, GP fit inputs) from any thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    fits: Mutex<Vec<FitInput>>,
    capture_fits: bool,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().expect("a thread panicked while recording spans")
}

impl Tracer {
    pub fn new(capture_fits: bool) -> Arc<Tracer> {
        Arc::new(Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            fits: Mutex::new(Vec::new()),
            capture_fits,
        })
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn record(&self, layer: &'static str, run: u32, start_ns: u64, end_ns: u64) {
        lock(&self.spans).push(Span {
            layer,
            run,
            start_ns,
            end_ns,
        });
    }

    /// Runs `f` inside a span, returning its result and the seconds it
    /// took.
    pub fn time<T>(&self, layer: &'static str, run: u32, f: impl FnOnce() -> T) -> (T, f64) {
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.record(layer, run, start, end);
        (out, (end - start) as f64 / 1e9)
    }

    /// The spans recorded so far. The buffer keeps its capacity: a span is
    /// pushed inside the commit gap the sweeps time, and a regrown buffer
    /// would fault in a fresh page there about once every hundred pushes.
    pub fn take_spans(&self) -> Vec<Span> {
        lock(&self.spans).drain(..).collect()
    }

    pub fn take_fits(&self) -> Vec<FitInput> {
        std::mem::take(&mut *lock(&self.fits))
    }
}

/// Times `f` and returns its result with the seconds it took, also
/// recording it as a span of `layer` when traced.
pub fn timed<T>(tracer: Option<&Tracer>, layer: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    match tracer {
        Some(t) => t.time(layer, 0, f),
        None => {
            let start = Instant::now();
            let out = f();
            (out, start.elapsed().as_secs_f64())
        }
    }
}

/// Total length of the union of `intervals` clipped to `[lo, hi)`.
pub fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(cursor), end.min(hi));
        if end > start {
            covered += end - start;
            cursor = end;
        }
    }
    covered
}

/// A `Searcher` that times every call into the wrapped searcher. For a BO
/// searcher it can also capture the exact data each proposal's surrogate
/// fit sees, mirroring `BoSearcher`'s own preparation: finite errors only,
/// pending candidates folded in as constant-liar observations.
pub struct TimedSearcher {
    inner: Box<dyn Searcher>,
    tracer: Arc<Tracer>,
    run: u32,
    bo: Option<BoShape>,
}

/// The public knobs of a wrapped `BoSearcher` that shape its fits.
#[derive(Debug, Clone, Copy)]
struct BoShape {
    min_observations: usize,
    candidates: usize,
    fit_options: hyperpower_gp::FitOptions,
}

impl std::fmt::Debug for TimedSearcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimedSearcher")
            .field("run", &self.run)
            .field("bo", &self.bo.is_some())
            .finish_non_exhaustive()
    }
}

impl TimedSearcher {
    pub fn new(inner: Box<dyn Searcher>, tracer: Arc<Tracer>, run: u32) -> Self {
        TimedSearcher {
            inner,
            tracer,
            run,
            bo: None,
        }
    }

    pub fn bo(inner: BoSearcher, tracer: Arc<Tracer>, run: u32) -> Self {
        let bo = tracer.capture_fits.then_some(BoShape {
            min_observations: inner.min_observations,
            candidates: inner.candidates,
            fit_options: inner.fit_options,
        });
        TimedSearcher {
            inner: Box::new(inner),
            tracer,
            run,
            bo,
        }
    }

    fn capture(&self, space: &SearchSpace, history: &History, pending: &[Config]) {
        let Some(shape) = self.bo else { return };
        if history.len() + pending.len() < shape.min_observations {
            return;
        }
        let lie = match history.best() {
            Some(b) if b.error.is_finite() => b.error,
            _ => BoSearcher::CONSTANT_LIAR_FALLBACK,
        };
        let dim = space.dim();
        let mut x = Vec::new();
        let mut y = Vec::new();
        let observed = history.observations().iter().map(|o| (&o.config, o.error));
        let lies = pending.iter().map(|c| (c, lie));
        for (config, error) in observed.chain(lies) {
            if error.is_finite() {
                x.extend_from_slice(config.unit());
                y.push(error);
            }
        }
        if y.len() < shape.min_observations {
            return;
        }
        lock(&self.tracer.fits).push(FitInput {
            rows: y.len(),
            dim,
            x,
            y,
            candidates: shape.candidates,
            fit_options: shape.fit_options,
        });
    }
}

impl Searcher for TimedSearcher {
    fn propose(
        &mut self,
        space: &SearchSpace,
        history: &History,
        rng: &mut StdRng,
    ) -> hyperpower::Result<Config> {
        self.capture(space, history, &[]);
        let start = self.tracer.now_ns();
        let out = self.inner.propose(space, history, rng);
        self.tracer
            .record("propose", self.run, start, self.tracer.now_ns());
        out
    }

    fn conditioning(&self) -> Conditioning {
        self.inner.conditioning()
    }

    fn propose_with_pending(
        &mut self,
        space: &SearchSpace,
        history: &History,
        pending: &[Config],
        rng: &mut StdRng,
    ) -> hyperpower::Result<Config> {
        self.capture(space, history, pending);
        let start = self.tracer.now_ns();
        let out = self
            .inner
            .propose_with_pending(space, history, pending, rng);
        self.tracer
            .record("propose", self.run, start, self.tracer.now_ns());
        out
    }

    fn propose_batch(
        &mut self,
        space: &SearchSpace,
        history: &History,
        k: usize,
        rng: &mut StdRng,
    ) -> hyperpower::Result<Vec<Config>> {
        let start = self.tracer.now_ns();
        let out = self.inner.propose_batch(space, history, k, rng);
        self.tracer
            .record("propose", self.run, start, self.tracer.now_ns());
        out
    }

    fn drain_degradations(&mut self) -> Vec<DegradationEvent> {
        self.inner.drain_degradations()
    }

    fn update_oracle(&mut self, oracle: &ConstraintOracle) {
        self.inner.update_oracle(oracle);
    }
}

/// An `Objective` that times every evaluation of the wrapped objective.
pub struct TimedObjective<'a> {
    pub inner: &'a dyn Objective,
    pub tracer: &'a Tracer,
    pub run: u32,
}

impl std::fmt::Debug for TimedObjective<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimedObjective")
            .field("run", &self.run)
            .finish_non_exhaustive()
    }
}

impl Objective for TimedObjective<'_> {
    fn evaluate(
        &self,
        decoded: &Decoded,
        early: Option<&EarlyTermination>,
        seed: u64,
    ) -> hyperpower::Result<EvaluationResult> {
        self.tracer
            .time("eval", self.run, || {
                self.inner.evaluate(decoded, early, seed)
            })
            .0
    }

    fn full_epochs(&self) -> usize {
        self.inner.full_epochs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covered_merges_overlaps_and_clips() {
        let mut spans = vec![(5, 10), (0, 3), (8, 12), (20, 30)];
        assert_eq!(covered_ns(&mut spans, 0, 25), 3 + 7 + 5);
        assert_eq!(covered_ns(&mut [], 0, 10), 0);
    }
}
