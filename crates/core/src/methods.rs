//! The four search methods of the paper (§3.4–3.5).
//!
//! | Method | Proposal rule | Constraint handling (HyperPower mode) |
//! |---|---|---|
//! | [`Method::Rand`] | uniform random | model-based rejection of predicted-invalid points |
//! | [`Method::RandWalk`] | Gaussian walk around the incumbent | model-based rejection |
//! | [`Method::HwCwei`] | GP-BO, EI × Pr(constraints satisfied) | probabilistic, inside the acquisition |
//! | [`Method::HwIeci`] | GP-BO, EI × hard indicators (Eq. 3) | a-priori indicator, inside the acquisition |
//!
//! In **Default** (constraint-unaware, "exhaustive") mode every method
//! reduces to its published baseline: plain random search \[5\], plain random
//! walk \[8\], and plain-EI Bayesian optimization — no models, no early
//! termination, every proposal trained to completion.

use std::fmt;

use hyperpower_gp::acquisition::{
    expected_improvement_at, lower_confidence_bound_at, probability_of_improvement_at,
};
use hyperpower_gp::sampler::uniform_candidates;
use hyperpower_gp::{fit_gp_hyperparams_laddered_from, FitOptions, FittedGp, Matern52, Prediction};
use hyperpower_linalg::Matrix;
use rand::rngs::StdRng;
use rand::RngExt;

use crate::drift::DegradationEvent;
use crate::{Config, ConstraintOracle, Error, Result, SearchSpace};

/// Highest jitter-ladder rung a BO surrogate fit may climb before the
/// searcher gives up on the GP for that proposal and degrades to a
/// Rand-Walk step (rungs `0..=MAX_JITTER_RUNGS`, noise floor ×100 each).
pub const MAX_JITTER_RUNGS: u32 = 2;

/// The surrogate-fit options [`BoSearcher`] and [`ThompsonSearcher`]
/// start with: a cold first fit of two restarts, 30 Nelder–Mead
/// evaluations per restart, and a noise floor of `1e-6` at the ladder's
/// first rung.
const SURROGATE_FIT: FitOptions = FitOptions {
    restarts: 2,
    max_evals_per_restart: 30,
    min_noise_variance: 1e-6,
};

/// The search method.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// Random search (Bergstra & Bengio \[5\]).
    Rand,
    /// Random walk around the incumbent (Smithson et al. \[8\]).
    RandWalk,
    /// Bayesian optimization with Constraint-Weighted EI (Gelbart \[6\]).
    HwCwei,
    /// Bayesian optimization with the paper's hardware-aware Integrated
    /// Expected Conditional Improvement (Gramacy & Lee \[17\], Eq. 3).
    HwIeci,
}

impl Method {
    /// All four methods, in the paper's table order.
    pub const ALL: [Method; 4] = [
        Method::Rand,
        Method::RandWalk,
        Method::HwCwei,
        Method::HwIeci,
    ];

    /// Whether the method is model-free (random-based). Model-free methods
    /// apply the constraint models as a *rejection filter* before paying
    /// for training; BO methods fold them into the acquisition instead.
    pub fn is_model_free(&self) -> bool {
        matches!(self, Method::Rand | Method::RandWalk)
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Method::Rand => "Rand",
            Method::RandWalk => "Rand-Walk",
            Method::HwCwei => "HW-CWEI",
            Method::HwIeci => "HW-IECI",
        };
        f.write_str(s)
    }
}

/// Whether a run uses the HyperPower enhancements (predictive models +
/// early termination) or the published constraint-unaware baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Constraint-unaware, exhaustive baseline ("default" in the paper's
    /// tables).
    Default,
    /// Constraint-aware with early termination.
    HyperPower,
}

impl fmt::Display for Mode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Mode::Default => "Default",
            Mode::HyperPower => "HyperPower",
        })
    }
}

/// One completed observation as the searchers see it.
#[derive(Debug, Clone, PartialEq)]
pub struct Observation {
    /// The evaluated configuration.
    pub config: Config,
    /// Its observed test error (chance-level for diverged runs).
    pub error: f64,
}

/// The evaluation history a searcher conditions on.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct History {
    observations: Vec<Observation>,
}

impl History {
    /// An empty history.
    pub fn new() -> Self {
        History::default()
    }

    /// Records an observation.
    pub fn push(&mut self, config: Config, error: f64) {
        self.observations.push(Observation { config, error });
    }

    /// All observations in evaluation order.
    pub fn observations(&self) -> &[Observation] {
        &self.observations
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.observations.len()
    }

    /// Returns `true` if nothing has been evaluated yet.
    pub fn is_empty(&self) -> bool {
        self.observations.is_empty()
    }

    /// The incumbent: the observation with the lowest error.
    ///
    /// Non-finite errors (NaN from a diverged run, ±∞) can never displace
    /// a finite incumbent: finite observations are ranked first with
    /// `total_cmp` (which is total, so this never panics), and a
    /// non-finite observation is returned only when the history contains
    /// nothing else.
    pub fn best(&self) -> Option<&Observation> {
        self.observations
            .iter()
            .filter(|o| o.error.is_finite())
            .min_by(|a, b| a.error.total_cmp(&b.error))
            .or_else(|| {
                self.observations
                    .iter()
                    .min_by(|a, b| a.error.total_cmp(&b.error))
            })
    }
}

/// How strongly a searcher's proposals depend on the evaluation history.
///
/// The parallel executor uses this to decide how far ahead it may plan:
/// [`Conditioning::Independent`] proposals can be drawn in blocks without
/// changing the sequence (random search draws from a fixed distribution,
/// grid search from a fixed lattice), while [`Conditioning::Dependent`]
/// searchers must see every committed result before the next proposal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Conditioning {
    /// Proposals ignore the history; planning ahead is exact.
    Independent,
    /// Proposals condition on the history (incumbent walks, BO posteriors).
    Dependent,
}

/// A strategy that proposes the next candidate configuration.
///
/// Proposals are *pre-screen*: for model-free methods in HyperPower mode
/// the driver applies the constraint-model rejection filter on top.
pub trait Searcher {
    /// Proposes the next candidate given the evaluation history.
    ///
    /// # Errors
    ///
    /// BO searchers propagate GP-fitting failures (which fall back to
    /// random proposals only when the history is degenerate).
    fn propose(
        &mut self,
        space: &SearchSpace,
        history: &History,
        rng: &mut StdRng,
    ) -> Result<Config>;

    /// How strongly proposals depend on the history (see [`Conditioning`]).
    fn conditioning(&self) -> Conditioning {
        Conditioning::Dependent
    }

    /// Proposes the next candidate while `pending` configurations are still
    /// being evaluated (batch/parallel setting).
    ///
    /// The default ignores the pending set — correct for methods whose
    /// proposals carry fresh randomness (Rand, Rand-Walk draw a new point
    /// every call). Model-based searchers override this to avoid
    /// re-proposing where an answer is already on its way (see
    /// [`BoSearcher`]'s constant-liar strategy).
    ///
    /// With an empty `pending` set this must behave exactly like
    /// [`Searcher::propose`] — the executor relies on that equivalence to
    /// keep the single-GPU schedule byte-identical to the sequential loop.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Searcher::propose`].
    fn propose_with_pending(
        &mut self,
        space: &SearchSpace,
        history: &History,
        pending: &[Config],
        rng: &mut StdRng,
    ) -> Result<Config> {
        let _ = pending;
        self.propose(space, history, rng)
    }

    /// Proposes `k` candidates for concurrent evaluation.
    ///
    /// The default accumulates the batch through
    /// [`Searcher::propose_with_pending`], treating the batch-so-far as
    /// pending — the standard sequential-liar reduction of batch proposal.
    /// `k == 1` is therefore exactly one [`Searcher::propose`] call.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Searcher::propose`].
    fn propose_batch(
        &mut self,
        space: &SearchSpace,
        history: &History,
        k: usize,
        rng: &mut StdRng,
    ) -> Result<Vec<Config>> {
        let mut batch = Vec::with_capacity(k);
        for _ in 0..k {
            let next = self.propose_with_pending(space, history, &batch, rng)?;
            batch.push(next);
        }
        Ok(batch)
    }

    /// Drains the typed degradation events accumulated since the last call
    /// (jitter-ladder escalations, Rand-Walk fallbacks). The default is
    /// empty: model-free searchers have no surrogate to degrade.
    fn drain_degradations(&mut self) -> Vec<DegradationEvent> {
        Vec::new()
    }

    /// Replaces the searcher's constraint oracle after an online
    /// recalibration. The default ignores it: model-free methods consult
    /// the executor's oracle through the rejection filter, not a copy of
    /// their own.
    fn update_oracle(&mut self, oracle: &ConstraintOracle) {
        let _ = oracle;
    }
}

/// The degradation-ladder terminus: a Gaussian step around the incumbent
/// (Rand-Walk's proposal rule), or a uniform draw when the history holds no
/// finite incumbent. Used by BO searchers when the surrogate cannot be fit
/// even at the top jitter rung — one bad proposal step must not abort a
/// multi-hour search.
fn rand_walk_fallback(space: &SearchSpace, history: &History, rng: &mut StdRng) -> Config {
    match history.best() {
        Some(best) if best.error.is_finite() => {
            best.config.gaussian_step(RandomWalk::DEFAULT_SIGMA, rng)
        }
        _ => Config::random(rng, space.dim()),
    }
}

/// A uniform random configuration that `oracle` predicts feasible: up to
/// 10,000 draws, decoded through one structural buffer, then one
/// unfiltered draw when none was (an effectively empty feasible region).
/// Without an oracle, the first draw.
fn feasible_random(
    space: &SearchSpace,
    oracle: Option<&ConstraintOracle>,
    rng: &mut StdRng,
) -> Result<Config> {
    if let Some(oracle) = oracle {
        let mut z = Vec::new();
        for _ in 0..10_000 {
            let candidate = Config::random(rng, space.dim());
            space.structural_values_into(candidate.unit(), &mut z)?;
            if oracle.predicted_feasible(&z) {
                return Ok(candidate);
            }
        }
    }
    Ok(Config::random(rng, space.dim()))
}

/// The grid row an EI/PI searcher proposes, from each row's base
/// acquisition and constraint weight: the first row with the highest
/// `base · weight` if that score is positive. When every improvement mass
/// vanished, the predicted-feasible row with the highest `(weight, base)`
/// (the first on ties), so the proposal stays feasible; when nothing is
/// feasible either (pathologically tight budgets), the first row with the
/// highest unweighted base. `None` for an empty grid.
fn best_ei_candidate(bases: &[f64], weights: &[f64]) -> Option<usize> {
    let mut best_candidate: Option<(usize, f64)> = None;
    let mut best_weighted: Option<(usize, f64, f64)> = None; // (row, weight, base)
    let mut best_unweighted: Option<(usize, f64)> = None;
    for (i, (&base, &weight)) in bases.iter().zip(weights).enumerate() {
        let score = base * weight;
        if best_candidate.is_none_or(|(_, s)| score > s) {
            best_candidate = Some((i, score));
        }
        if weight > 0.0 && best_weighted.is_none_or(|(_, w, b)| (weight, base) > (w, b)) {
            best_weighted = Some((i, weight, base));
        }
        if best_unweighted.is_none_or(|(_, b)| base > b) {
            best_unweighted = Some((i, base));
        }
    }
    let (winner, score) = best_candidate?;
    Some(if score > 0.0 {
        winner
    } else if let Some((feasible, _, _)) = best_weighted {
        feasible
    } else if let Some((fallback, _)) = best_unweighted {
        fallback
    } else {
        winner
    })
}

/// What fitting a BO searcher's GP surrogate produced.
enum Surrogate {
    Fitted(Box<FittedGp>),
    /// Fewer finite observations than the searcher's `min_observations`.
    TooFew,
    /// Every jitter rung failed: degrade to a Rand-Walk step.
    Failed,
}

/// Fits the Matérn-5/2 surrogate to the finite observations of `history`
/// (a NaN error from a diverged run carries no ranking information), and
/// logs a climbed jitter ladder or a failed fit in `degradations`.
///
/// `warm_start` holds the log-space hyper-parameters of the searcher's
/// last successful fit. The hyper-parameter search starts there (a cold
/// search when it is `None`), and a successful fit replaces it with its
/// own. A failed ladder or a too-short history leaves it unchanged.
fn fit_surrogate(
    history: &History,
    d: usize,
    min_observations: usize,
    fit_options: FitOptions,
    warm_start: &mut Option<[f64; 3]>,
    degradations: &mut Vec<DegradationEvent>,
) -> Result<Surrogate> {
    let mut data = Vec::with_capacity(history.len() * d);
    let mut y = Vec::with_capacity(history.len());
    for obs in history.observations() {
        if !obs.error.is_finite() {
            continue;
        }
        data.extend_from_slice(obs.config.unit());
        y.push(obs.error);
    }
    if y.len() < min_observations {
        return Ok(Surrogate::TooFew);
    }
    let x = Matrix::from_vec(y.len(), d, data).map_err(Error::Numerical)?;
    let kernel = Matern52::new(0.5).into_kernel();
    match fit_gp_hyperparams_laddered_from(
        kernel,
        &x,
        &y,
        fit_options,
        MAX_JITTER_RUNGS,
        *warm_start,
    ) {
        Ok(laddered) => {
            if laddered.rungs > 0 {
                let rung = laddered.rungs;
                degradations.push(DegradationEvent::JitterEscalated { rung });
            }
            let fitted = &laddered.fitted;
            *warm_start = Some([
                fitted.length_scale.ln(),
                fitted.signal_variance.ln(),
                fitted.noise_variance.ln(),
            ]);
            Ok(Surrogate::Fitted(Box::new(laddered.fitted)))
        }
        Err(_) => {
            degradations.push(DegradationEvent::RandWalkFallback);
            Ok(Surrogate::Failed)
        }
    }
}

/// Uniform random search.
#[derive(Debug, Clone, Copy, Default)]
pub struct RandomSearch;

impl Searcher for RandomSearch {
    fn propose(
        &mut self,
        space: &SearchSpace,
        _history: &History,
        rng: &mut StdRng,
    ) -> Result<Config> {
        Ok(Config::random(rng, space.dim()))
    }

    fn conditioning(&self) -> Conditioning {
        Conditioning::Independent
    }
}

/// Gaussian random walk around the incumbent
/// (`x_{n+1} ~ N(x⁺, σ₀²)`, paper §3.5).
#[derive(Debug, Clone, Copy)]
pub struct RandomWalk {
    /// Step standard deviation in unit-cube coordinates. The paper points
    /// out that performance is highly sensitive to this choice — the very
    /// weakness its Rand-Walk baselines exhibit.
    pub sigma: f64,
}

impl RandomWalk {
    /// The σ₀ used by the experiments.
    pub const DEFAULT_SIGMA: f64 = 0.12;

    /// Creates a walk with the given step size.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is not positive and finite.
    pub fn new(sigma: f64) -> Self {
        assert!(sigma.is_finite() && sigma > 0.0, "sigma must be positive");
        RandomWalk { sigma }
    }
}

impl Default for RandomWalk {
    fn default() -> Self {
        RandomWalk::new(Self::DEFAULT_SIGMA)
    }
}

impl Searcher for RandomWalk {
    fn propose(
        &mut self,
        space: &SearchSpace,
        history: &History,
        rng: &mut StdRng,
    ) -> Result<Config> {
        match history.best() {
            None => Ok(Config::random(rng, space.dim())),
            Some(best) => Ok(best.config.gaussian_step(self.sigma, rng)),
        }
    }
}

/// Exhaustive grid search over an axis-aligned lattice.
///
/// The paper's introduction dismisses grid search as yielding "poor
/// results in terms of performance and training time" in NN
/// hyper-parameter spaces; this implementation exists as that baseline
/// (see the `baseline_grid_search` example/bench). Points are visited in
/// a deterministic lattice order; once the lattice is exhausted the
/// search refines it by doubling the per-dimension resolution.
#[derive(Debug, Clone)]
pub struct GridSearch {
    points_per_dim: usize,
    cursor: usize,
}

impl GridSearch {
    /// Creates a grid with `points_per_dim` levels per dimension.
    ///
    /// # Panics
    ///
    /// Panics if `points_per_dim < 2`.
    pub fn new(points_per_dim: usize) -> Self {
        assert!(
            points_per_dim >= 2,
            "need at least two levels per dimension"
        );
        GridSearch {
            points_per_dim,
            cursor: 0,
        }
    }

    /// Decodes lattice index `cursor` into a unit-cube point.
    fn lattice_point(&self, mut index: usize, dim: usize) -> Vec<f64> {
        let levels = self.points_per_dim;
        (0..dim)
            .map(|_| {
                let level = index % levels;
                index /= levels;
                // Centre levels within their cells: 1/2L, 3/2L, ...
                (level as f64 + 0.5) / levels as f64
            })
            .collect()
    }
}

impl Searcher for GridSearch {
    fn propose(
        &mut self,
        space: &SearchSpace,
        _history: &History,
        _rng: &mut StdRng,
    ) -> Result<Config> {
        let dim = space.dim();
        let total = self.points_per_dim.pow(dim.min(12) as u32);
        if self.cursor >= total {
            // Lattice exhausted: refine.
            self.points_per_dim *= 2;
            self.cursor = 0;
        }
        let unit = self.lattice_point(self.cursor, dim);
        self.cursor += 1;
        Config::new(unit)
    }

    fn conditioning(&self) -> Conditioning {
        Conditioning::Independent
    }
}

/// How a BO searcher weights EI by the constraints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConstraintWeighting {
    /// No weighting: plain EI (the Default mode of both BO methods).
    None,
    /// HW-CWEI: multiply EI by the probability of constraint satisfaction.
    Probability,
    /// HW-IECI: multiply EI by hard indicator functions (paper Eq. 3).
    Indicator,
}

/// The improvement criterion underneath a BO searcher's acquisition.
///
/// The paper uses Expected Improvement and "leaves the systematic
/// exploration of other acquisition functions for future work" (§3.4);
/// the alternatives here implement that exploration (see the
/// `ablation_acquisitions` bench).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum BaseAcquisition {
    /// Expected Improvement (the paper's choice).
    #[default]
    ExpectedImprovement,
    /// Probability of Improvement: greedier, ignores improvement size.
    ProbabilityOfImprovement,
    /// Negated Lower Confidence Bound with exploration weight `beta`.
    LowerConfidenceBound {
        /// Exploration weight (≥ 0); 2.0 is a common default.
        beta: f64,
    },
}

/// Gaussian-process Bayesian optimization with a constraint-weighted
/// Expected Improvement acquisition, maximised over a random candidate
/// grid (as Spearmint does).
///
/// Like Spearmint, the searcher carries its GP hyper-parameters from one
/// round to the next. A run's first surrogate fit is a cold search, and
/// every later fit starts at the previous successful fit's optimum,
/// constant-liar fits included. That state is a pure function of the
/// proposals already made, so a resumed or replayed run rebuilds it by
/// re-proposing.
#[derive(Debug, Clone)]
pub struct BoSearcher {
    weighting: ConstraintWeighting,
    oracle: Option<ConstraintOracle>,
    /// The improvement criterion (EI by default, per the paper).
    pub base_acquisition: BaseAcquisition,
    /// Candidate-grid size per iteration.
    pub candidates: usize,
    /// Observations required before the GP takes over from random
    /// proposals.
    pub min_observations: usize,
    /// Surrogate-fit options; the noise floor is the base of the jitter
    /// ladder, and `restarts` counts the restarts of the first, cold fit.
    pub fit_options: FitOptions,
    /// The last successful fit's log-space hyper-parameters, where the
    /// next fit starts.
    warm_start: Option<[f64; 3]>,
    degradations: Vec<DegradationEvent>,
}

impl BoSearcher {
    /// Constant-liar error assumed for in-flight candidates when the
    /// history holds no finite incumbent yet: chance-ish MNIST/CIFAR test
    /// error, i.e. "assume the pending run diverges".
    pub const CONSTANT_LIAR_FALLBACK: f64 = 0.9;

    /// Candidate-block size for batched GP scoring: each block becomes one
    /// multi-RHS triangular solve through
    /// [`GpRegressor::posterior_batch`](hyperpower_gp::GpRegressor::posterior_batch)
    /// instead of one solve per candidate. Large enough to amortize the
    /// factor traversal, small enough to keep the per-block scratch matrix
    /// in cache. Batching never changes scores: the batched posterior is
    /// bit-identical to per-point `predict`.
    pub const GP_SCORE_BLOCK: usize = 64;

    /// Creates a BO searcher with the paper's Expected Improvement base.
    ///
    /// # Panics
    ///
    /// Panics if a constraint weighting other than
    /// [`ConstraintWeighting::None`] is requested without an oracle.
    pub fn new(weighting: ConstraintWeighting, oracle: Option<ConstraintOracle>) -> Self {
        assert!(
            weighting == ConstraintWeighting::None || oracle.is_some(),
            "constraint weighting requires a fitted constraint oracle"
        );
        BoSearcher {
            weighting,
            oracle,
            base_acquisition: BaseAcquisition::default(),
            candidates: 500,
            min_observations: 3,
            fit_options: SURROGATE_FIT,
            warm_start: None,
            degradations: Vec::new(),
        }
    }

    /// Replaces the improvement criterion (builder style).
    pub fn with_base_acquisition(mut self, base: BaseAcquisition) -> Self {
        self.base_acquisition = base;
        self
    }

    /// The constraint weight of the unit-cube point `unit`; its structural
    /// values are decoded into `z`, a buffer the caller reuses.
    fn acquisition_weight(
        &self,
        space: &SearchSpace,
        unit: &[f64],
        z: &mut Vec<f64>,
    ) -> Result<f64> {
        let weight = match (self.weighting, &self.oracle) {
            (ConstraintWeighting::None, _) => 1.0,
            (ConstraintWeighting::Probability, Some(oracle)) => {
                space.structural_values_into(unit, z)?;
                oracle.feasibility_probability(z)
            }
            (ConstraintWeighting::Indicator, Some(oracle)) => {
                space.structural_values_into(unit, z)?;
                if oracle.predicted_feasible(z) {
                    1.0
                } else {
                    0.0
                }
            }
            (_, None) => unreachable!("checked at construction"),
        };
        Ok(weight)
    }
}

impl Searcher for BoSearcher {
    fn propose(
        &mut self,
        space: &SearchSpace,
        history: &History,
        rng: &mut StdRng,
    ) -> Result<Config> {
        if history.len() < self.min_observations {
            // Seed phase: random designs. Under the hard indicator
            // (HW-IECI) even the seeds must be predicted feasible — the
            // paper's "never considering invalid configurations" claim
            // covers the whole run.
            let seed_oracle = match self.weighting {
                ConstraintWeighting::Indicator => self.oracle.as_ref(),
                _ => None,
            };
            return feasible_random(space, seed_oracle, rng);
        }

        let d = space.dim();
        let fitted = match fit_surrogate(
            history,
            d,
            self.min_observations,
            self.fit_options,
            &mut self.warm_start,
            &mut self.degradations,
        )? {
            Surrogate::Fitted(fitted) => *fitted,
            Surrogate::TooFew => return Ok(Config::random(rng, space.dim())),
            Surrogate::Failed => return Ok(rand_walk_fallback(space, history, rng)),
        };
        // min_observations guards this, but an empty history (possible
        // with min_observations == 0) must degrade to a random seed, not
        // panic.
        let best = match history.best() {
            Some(b) => b.error,
            None => return Ok(Config::random(rng, space.dim())),
        };

        // Score the grid constraint-first (HW-IECI/HW-CWEI): the hardware
        // weight is a dot product per candidate, orders of magnitude
        // cheaper than a GP posterior, so it is computed for the whole
        // grid before any objective work. Rows are weighed and scored in
        // place, by index, through one structural buffer; only the winner
        // becomes a `Config`. The grid is drawn in [0, 1), so every row is
        // a valid one.
        let grid = uniform_candidates(rng, self.candidates, d);
        let mut z = Vec::new();
        let mut weights = Vec::with_capacity(grid.rows());
        for i in 0..grid.rows() {
            weights.push(self.acquisition_weight(space, grid.row(i), &mut z)?);
        }

        // Combine base and constraint weight. EI/PI are non-negative, so
        // multiplication composes (paper Eq. 3); LCB can be negative, so
        // infeasibility is charged as a penalty scaled to the grid's score
        // range instead.
        let lcb = matches!(
            self.base_acquisition,
            BaseAcquisition::LowerConfidenceBound { .. }
        );
        let any_feasible = weights.iter().any(|w| *w > 0.0);
        // The expensive objective runs only where its value can reach the
        // proposal: LCB's penalty form needs every base, EI/PI need bases
        // for predicted-feasible candidates — and for the whole grid only
        // when nothing is feasible and the unweighted fallback will have
        // to decide. A skipped base contributes base * 0.0 == 0.0 exactly
        // as before, so selection is unchanged.
        //
        // Candidates that do need a base are scored in blocks of
        // [`Self::GP_SCORE_BLOCK`] through the batched posterior — one
        // multi-RHS triangular solve per block instead of one solve per
        // candidate. `posterior_batch` is bit-identical to per-point
        // `predict` (pinned by `crates/gp/tests/posterior_batch.rs`), so
        // the acquisition sees the same numbers either way.
        let needs_base: Vec<usize> = weights
            .iter()
            .enumerate()
            .filter(|(_, weight)| lcb || **weight > 0.0 || !any_feasible)
            .map(|(i, _)| i)
            .collect();
        let mut bases = vec![0.0f64; weights.len()];
        for block in needs_base.chunks(Self::GP_SCORE_BLOCK) {
            let mut units = Vec::with_capacity(block.len() * d);
            for &i in block {
                units.extend_from_slice(grid.row(i));
            }
            let queries = Matrix::from_vec(block.len(), d, units).map_err(Error::Numerical)?;
            let (means, variances) = fitted.gp.posterior_batch(&queries)?;
            for (q, &i) in block.iter().enumerate() {
                let prediction = Prediction {
                    mean: means[q],
                    variance: variances[q],
                };
                bases[i] = match self.base_acquisition {
                    BaseAcquisition::ExpectedImprovement => {
                        expected_improvement_at(prediction, best)
                    }
                    BaseAcquisition::ProbabilityOfImprovement => {
                        probability_of_improvement_at(prediction, best)
                    }
                    BaseAcquisition::LowerConfidenceBound { beta } => {
                        lower_confidence_bound_at(prediction, beta)
                    }
                };
            }
        }
        let chosen = if lcb {
            let lo = bases.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = bases.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let span = (hi - lo).max(1e-9);
            bases
                .iter()
                .zip(&weights)
                .map(|(b, w)| b - 10.0 * span * (1.0 - w))
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .map(|(i, _)| i)
        } else {
            best_ei_candidate(&bases, &weights)
        };
        match chosen {
            Some(i) => Config::new(grid.row(i).to_vec()),
            // Zero-sized candidate grid: degrade to a random proposal.
            None => Ok(Config::random(rng, space.dim())),
        }
    }

    /// Constant liar (CL-min): the pending candidates are folded into the
    /// history as fabricated observations at the incumbent's error, so the
    /// acquisition stops seeing their neighbourhoods as unexplored and the
    /// batch spreads out instead of proposing near-duplicates. With no
    /// finite incumbent the lie is [`BoSearcher::CONSTANT_LIAR_FALLBACK`].
    ///
    /// An empty `pending` set takes the plain [`Searcher::propose`] path,
    /// byte-identical to the sequential loop.
    fn propose_with_pending(
        &mut self,
        space: &SearchSpace,
        history: &History,
        pending: &[Config],
        rng: &mut StdRng,
    ) -> Result<Config> {
        if pending.is_empty() {
            return self.propose(space, history, rng);
        }
        let lie = match history.best() {
            Some(b) if b.error.is_finite() => b.error,
            _ => Self::CONSTANT_LIAR_FALLBACK,
        };
        let mut augmented = history.clone();
        for config in pending {
            augmented.push(config.clone(), lie);
        }
        self.propose(space, &augmented, rng)
    }

    fn drain_degradations(&mut self) -> Vec<DegradationEvent> {
        std::mem::take(&mut self.degradations)
    }

    fn update_oracle(&mut self, oracle: &ConstraintOracle) {
        // Only replace an oracle this searcher already weights by: a
        // Default-mode searcher stays constraint-unaware.
        if self.oracle.is_some() {
            self.oracle = Some(oracle.clone());
        }
    }
}

/// Thompson-sampling Bayesian optimization (extension).
///
/// Instead of maximising an acquisition *score*, each iteration draws one
/// correlated sample of the objective from the GP's **joint posterior**
/// over a candidate grid and proposes the sample's argmin. Exploration
/// emerges from posterior uncertainty; there is no explicit trade-off
/// parameter. Constraints are handled HW-IECI-style: predicted-infeasible
/// candidates are excluded from the argmin (and from the seed proposals).
/// Hyper-parameter fits are warm-started as [`BoSearcher`]'s are.
#[derive(Debug, Clone)]
pub struct ThompsonSearcher {
    oracle: Option<ConstraintOracle>,
    /// Candidate-grid size per iteration. Joint-posterior sampling is
    /// O(grid³), so this is smaller than [`BoSearcher`]'s grid.
    pub candidates: usize,
    /// Observations required before the GP takes over from random
    /// proposals.
    pub min_observations: usize,
    /// Surrogate-fit options; the noise floor is the base of the jitter
    /// ladder, and `restarts` counts the restarts of the first, cold fit.
    pub fit_options: FitOptions,
    /// The last successful fit's log-space hyper-parameters, where the
    /// next fit starts.
    warm_start: Option<[f64; 3]>,
    degradations: Vec<DegradationEvent>,
}

impl ThompsonSearcher {
    /// Creates a Thompson-sampling searcher; with an oracle it proposes
    /// only predicted-feasible candidates.
    pub fn new(oracle: Option<ConstraintOracle>) -> Self {
        ThompsonSearcher {
            oracle,
            candidates: 120,
            min_observations: 3,
            fit_options: SURROGATE_FIT,
            warm_start: None,
            degradations: Vec::new(),
        }
    }
}

impl Searcher for ThompsonSearcher {
    fn propose(
        &mut self,
        space: &SearchSpace,
        history: &History,
        rng: &mut StdRng,
    ) -> Result<Config> {
        let oracle = self.oracle.as_ref();
        if history.len() < self.min_observations {
            return feasible_random(space, oracle, rng);
        }

        let d = space.dim();
        let fitted = match fit_surrogate(
            history,
            d,
            self.min_observations,
            self.fit_options,
            &mut self.warm_start,
            &mut self.degradations,
        )? {
            Surrogate::Fitted(fitted) => *fitted,
            Surrogate::TooFew => return feasible_random(space, oracle, rng),
            Surrogate::Failed => return Ok(rand_walk_fallback(space, history, rng)),
        };

        // Candidate grid, constraint-filtered up front by row index
        // through one structural buffer; only the argmin becomes a
        // `Config`. The grid is drawn in [0, 1), so every row is a valid
        // one.
        let grid = uniform_candidates(rng, self.candidates * 4, d);
        let mut admitted = Vec::with_capacity(self.candidates);
        let mut z = Vec::new();
        for i in 0..grid.rows() {
            if admitted.len() >= self.candidates {
                break;
            }
            let admissible = match oracle {
                Some(oracle) => {
                    space.structural_values_into(grid.row(i), &mut z)?;
                    oracle.predicted_feasible(&z)
                }
                None => true,
            };
            if admissible {
                admitted.push(i);
            }
        }
        if admitted.is_empty() {
            return feasible_random(space, oracle, rng);
        }

        // One correlated posterior draw; propose its argmin.
        let m = admitted.len();
        let mut q = Vec::with_capacity(m * d);
        for &i in &admitted {
            q.extend_from_slice(grid.row(i));
        }
        let queries = Matrix::from_vec(m, d, q).map_err(Error::Numerical)?;
        let normals: Vec<f64> = (0..m)
            .map(|_| {
                let u1: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
                let u2: f64 = rng.random_range(0.0..1.0);
                (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
            })
            .collect();
        let sample = match fitted.gp.sample_posterior(&queries, &normals) {
            Ok(sample) => sample,
            Err(_) => {
                // Joint-posterior factorization failed even though the fit
                // succeeded: same terminus as a failed fit.
                self.degradations.push(DegradationEvent::RandWalkFallback);
                return Ok(rand_walk_fallback(space, history, rng));
            }
        };
        let argmin = admitted
            .iter()
            .zip(&sample)
            .min_by(|a, b| a.1.total_cmp(b.1))
            .map(|(&row, _)| row);
        match argmin {
            Some(row) => Config::new(grid.row(row).to_vec()),
            // Unreachable while `admitted` is checked non-empty above, but
            // a panic-free fallback costs nothing.
            None => feasible_random(space, oracle, rng),
        }
    }

    fn drain_degradations(&mut self) -> Vec<DegradationEvent> {
        std::mem::take(&mut self.degradations)
    }

    fn update_oracle(&mut self, oracle: &ConstraintOracle) {
        if self.oracle.is_some() {
            self.oracle = Some(oracle.clone());
        }
    }
}

/// Builds the searcher for a `(method, mode)` pair. The oracle must be
/// `Some` in HyperPower mode (the session supplies it) and is ignored for
/// model-free methods, whose rejection filter lives in the driver.
pub(crate) fn make_searcher(
    method: Method,
    mode: Mode,
    oracle: Option<ConstraintOracle>,
) -> Box<dyn Searcher> {
    let bo_oracle = match mode {
        Mode::Default => None,
        Mode::HyperPower => oracle,
    };
    match (method, mode) {
        (Method::Rand, _) => Box::new(RandomSearch),
        (Method::RandWalk, _) => Box::new(RandomWalk::default()),
        (Method::HwCwei, Mode::Default) | (Method::HwIeci, Mode::Default) => {
            Box::new(BoSearcher::new(ConstraintWeighting::None, None))
        }
        (Method::HwCwei, Mode::HyperPower) => {
            Box::new(BoSearcher::new(ConstraintWeighting::Probability, bo_oracle))
        }
        (Method::HwIeci, Mode::HyperPower) => {
            Box::new(BoSearcher::new(ConstraintWeighting::Indicator, bo_oracle))
        }
    }
}

#[cfg(test)]
// Tests assert exact values that are constructed to be exactly
// representable; strict float equality is intended.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    fn history_from(points: &[(Vec<f64>, f64)]) -> History {
        let mut h = History::new();
        for (unit, err) in points {
            h.push(Config::new(unit.clone()).unwrap(), *err);
        }
        h
    }

    #[test]
    fn method_display_matches_paper_names() {
        assert_eq!(Method::Rand.to_string(), "Rand");
        assert_eq!(Method::RandWalk.to_string(), "Rand-Walk");
        assert_eq!(Method::HwCwei.to_string(), "HW-CWEI");
        assert_eq!(Method::HwIeci.to_string(), "HW-IECI");
        assert_eq!(Mode::Default.to_string(), "Default");
        assert_eq!(Mode::HyperPower.to_string(), "HyperPower");
    }

    #[test]
    fn model_free_classification() {
        assert!(Method::Rand.is_model_free());
        assert!(Method::RandWalk.is_model_free());
        assert!(!Method::HwCwei.is_model_free());
        assert!(!Method::HwIeci.is_model_free());
    }

    #[test]
    fn history_tracks_incumbent() {
        let h = history_from(&[
            (vec![0.1; 6], 0.5),
            (vec![0.2; 6], 0.2),
            (vec![0.3; 6], 0.9),
        ]);
        assert_eq!(h.len(), 3);
        assert_eq!(h.best().unwrap().error, 0.2);
        assert!(History::new().best().is_none());
    }

    #[test]
    fn nan_objective_cannot_panic_or_become_incumbent() {
        // Regression guard for the incumbent-selection invariant: a
        // diverged run reporting NaN must neither panic the comparator
        // nor be selected over any finite observation.
        let mut h = history_from(&[(vec![0.2; 6], 0.4), (vec![0.6; 6], 0.7)]);
        h.push(Config::new(vec![0.4; 6]).unwrap(), f64::NAN);
        h.push(Config::new(vec![0.5; 6]).unwrap(), f64::NEG_INFINITY);
        h.push(Config::new(vec![0.7; 6]).unwrap(), -f64::NAN);
        let best = h.best().unwrap();
        assert_eq!(best.error, 0.4, "non-finite error displaced the incumbent");

        // A history of only non-finite errors still answers without
        // panicking (callers see the degenerate value and can react).
        let mut degenerate = History::new();
        degenerate.push(Config::new(vec![0.1; 6]).unwrap(), f64::NAN);
        assert!(degenerate.best().unwrap().error.is_nan());

        // And the BO proposal path survives a NaN observation end to end.
        let space = SearchSpace::mnist();
        let mut s = BoSearcher::new(ConstraintWeighting::None, None);
        let mut r = rng();
        let c = s.propose(&space, &h, &mut r).unwrap();
        assert_eq!(c.dim(), 6);
    }

    #[test]
    fn random_search_proposes_valid_configs() {
        let space = SearchSpace::mnist();
        let mut s = RandomSearch;
        let mut r = rng();
        for _ in 0..50 {
            let c = s.propose(&space, &History::new(), &mut r).unwrap();
            assert_eq!(c.dim(), 6);
            assert!(space.decode(&c).is_ok());
        }
    }

    #[test]
    fn random_walk_stays_near_incumbent() {
        let space = SearchSpace::mnist();
        let mut s = RandomWalk::new(0.05);
        let mut r = rng();
        let h = history_from(&[(vec![0.5; 6], 0.1)]);
        for _ in 0..30 {
            let c = s.propose(&space, &h, &mut r).unwrap();
            for (a, b) in c.unit().iter().zip(&[0.5; 6]) {
                assert!((a - b).abs() < 0.3, "walk step too large");
            }
        }
    }

    #[test]
    fn random_walk_uniform_without_history() {
        let space = SearchSpace::mnist();
        let mut s = RandomWalk::default();
        let mut r = rng();
        let c = s.propose(&space, &History::new(), &mut r).unwrap();
        assert_eq!(c.dim(), 6);
    }

    #[test]
    #[should_panic(expected = "sigma must be positive")]
    fn bad_sigma_panics() {
        RandomWalk::new(0.0);
    }

    #[test]
    fn bo_random_until_min_observations() {
        let space = SearchSpace::mnist();
        let mut s = BoSearcher::new(ConstraintWeighting::None, None);
        let mut r = rng();
        let h = history_from(&[(vec![0.5; 6], 0.3)]);
        // Below min_observations: must not fail, proposes randomly.
        let c = s.propose(&space, &h, &mut r).unwrap();
        assert_eq!(c.dim(), 6);
    }

    #[test]
    fn bo_exploits_low_error_region() {
        // Errors fall toward unit coordinates near 0.8: BO should propose
        // in that neighbourhood more often than uniform chance.
        let space = SearchSpace::mnist();
        let mut h = History::new();
        let mut r = rng();
        for i in 0..12 {
            let u = i as f64 / 11.0;
            let config = Config::new(vec![u; 6]).unwrap();
            let err = (u - 0.8).abs() + 0.05;
            h.push(config, err);
        }
        let mut s = BoSearcher::new(ConstraintWeighting::None, None);
        let mut near = 0;
        for _ in 0..10 {
            let c = s.propose(&space, &h, &mut r).unwrap();
            let mean_u: f64 = c.unit().iter().sum::<f64>() / 6.0;
            if (mean_u - 0.8).abs() < 0.25 {
                near += 1;
            }
        }
        assert!(near >= 5, "only {near}/10 proposals near the optimum");
    }

    #[test]
    #[should_panic(expected = "requires a fitted constraint oracle")]
    fn weighted_bo_without_oracle_panics() {
        BoSearcher::new(ConstraintWeighting::Indicator, None);
    }

    #[test]
    fn grid_search_visits_distinct_lattice_points() {
        let space = SearchSpace::mnist();
        let mut g = GridSearch::new(2);
        let mut r = rng();
        let mut seen = std::collections::HashSet::new();
        // 2^6 = 64 lattice points, all distinct.
        for _ in 0..64 {
            let c = g.propose(&space, &History::new(), &mut r).unwrap();
            let key: Vec<u64> = c.unit().iter().map(|u| u.to_bits()).collect();
            assert!(seen.insert(key), "grid revisited a point prematurely");
        }
        // The 65th proposal starts the refined (4-level) lattice.
        let c = g.propose(&space, &History::new(), &mut r).unwrap();
        assert!(c.unit().iter().all(|u| (0.0..=1.0).contains(u)));
    }

    #[test]
    fn grid_points_are_cell_centres() {
        let space = SearchSpace::mnist();
        let mut g = GridSearch::new(2);
        let mut r = rng();
        let c = g.propose(&space, &History::new(), &mut r).unwrap();
        assert_eq!(c.unit(), &[0.25; 6]);
    }

    #[test]
    #[should_panic(expected = "at least two levels")]
    fn degenerate_grid_panics() {
        GridSearch::new(1);
    }

    #[test]
    fn thompson_sampler_proposes_valid_configs() {
        let space = SearchSpace::mnist();
        let mut s = ThompsonSearcher::new(None);
        let mut r = rng();
        // Seed phase.
        let c = s.propose(&space, &History::new(), &mut r).unwrap();
        assert_eq!(c.dim(), 6);
        // Model phase.
        let mut h = History::new();
        for i in 0..8 {
            let u = i as f64 / 7.0;
            h.push(Config::new(vec![u; 6]).unwrap(), (u - 0.6).abs() + 0.1);
        }
        for _ in 0..5 {
            let c = s.propose(&space, &h, &mut r).unwrap();
            assert!(space.decode(&c).is_ok());
        }
    }

    #[test]
    fn thompson_sampler_exploits_low_error_region() {
        let space = SearchSpace::mnist();
        let mut h = History::new();
        for i in 0..12 {
            let u = i as f64 / 11.0;
            h.push(Config::new(vec![u; 6]).unwrap(), (u - 0.8).abs() + 0.05);
        }
        let mut s = ThompsonSearcher::new(None);
        let mut r = rng();
        let mut near = 0;
        for _ in 0..10 {
            let c = s.propose(&space, &h, &mut r).unwrap();
            let mean_u: f64 = c.unit().iter().sum::<f64>() / 6.0;
            if (mean_u - 0.8).abs() < 0.35 {
                near += 1;
            }
        }
        assert!(
            near >= 5,
            "only {near}/10 Thompson proposals near the optimum"
        );
    }

    #[test]
    fn thompson_proposals_vary_across_draws() {
        // Exploration: repeated proposals from the same posterior differ.
        let space = SearchSpace::mnist();
        let mut h = History::new();
        for i in 0..6 {
            let u = i as f64 / 5.0;
            h.push(Config::new(vec![u; 6]).unwrap(), 0.5 - 0.1 * u);
        }
        let mut s = ThompsonSearcher::new(None);
        let mut r = rng();
        let a = s.propose(&space, &h, &mut r).unwrap();
        let b = s.propose(&space, &h, &mut r).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn alternative_acquisitions_propose_valid_configs() {
        let space = SearchSpace::mnist();
        let mut h = History::new();
        for i in 0..8 {
            let u = i as f64 / 7.0;
            h.push(Config::new(vec![u; 6]).unwrap(), (u - 0.6).abs() + 0.1);
        }
        for base in [
            BaseAcquisition::ExpectedImprovement,
            BaseAcquisition::ProbabilityOfImprovement,
            BaseAcquisition::LowerConfidenceBound { beta: 2.0 },
        ] {
            let mut s =
                BoSearcher::new(ConstraintWeighting::None, None).with_base_acquisition(base);
            let mut r = rng();
            let c = s.propose(&space, &h, &mut r).unwrap();
            assert_eq!(c.dim(), 6);
            assert!(space.decode(&c).is_ok());
        }
    }

    #[test]
    fn lcb_exploits_low_error_region_too() {
        let space = SearchSpace::mnist();
        let mut h = History::new();
        for i in 0..12 {
            let u = i as f64 / 11.0;
            h.push(Config::new(vec![u; 6]).unwrap(), (u - 0.8).abs() + 0.05);
        }
        let mut s = BoSearcher::new(ConstraintWeighting::None, None)
            .with_base_acquisition(BaseAcquisition::LowerConfidenceBound { beta: 1.0 });
        let mut r = rng();
        let mut near = 0;
        for _ in 0..10 {
            let c = s.propose(&space, &h, &mut r).unwrap();
            let mean_u: f64 = c.unit().iter().sum::<f64>() / 6.0;
            if (mean_u - 0.8).abs() < 0.3 {
                near += 1;
            }
        }
        assert!(near >= 5, "only {near}/10 LCB proposals near the optimum");
    }

    #[test]
    fn conditioning_classification() {
        assert_eq!(RandomSearch.conditioning(), Conditioning::Independent);
        assert_eq!(GridSearch::new(2).conditioning(), Conditioning::Independent);
        assert_eq!(
            RandomWalk::default().conditioning(),
            Conditioning::Dependent
        );
        assert_eq!(
            BoSearcher::new(ConstraintWeighting::None, None).conditioning(),
            Conditioning::Dependent
        );
        assert_eq!(
            ThompsonSearcher::new(None).conditioning(),
            Conditioning::Dependent
        );
    }

    #[test]
    fn propose_batch_of_one_equals_propose() {
        // The executor's byte-identity argument rests on k == 1 being the
        // plain sequential proposal for every searcher.
        let space = SearchSpace::mnist();
        let mut h = History::new();
        for i in 0..6 {
            let u = i as f64 / 5.0;
            h.push(Config::new(vec![u; 6]).unwrap(), (u - 0.6).abs() + 0.1);
        }
        // Fresh instances per call: stateful searchers (grid cursor) must
        // not see the first call before making the second.
        let make: Vec<fn() -> Box<dyn Searcher>> = vec![
            || Box::new(RandomSearch),
            || Box::new(RandomWalk::default()),
            || Box::new(GridSearch::new(2)),
            || Box::new(BoSearcher::new(ConstraintWeighting::None, None)),
            || Box::new(ThompsonSearcher::new(None)),
        ];
        for f in make {
            let mut r1 = rng();
            let mut r2 = rng();
            let batch = f().propose_batch(&space, &h, 1, &mut r1).unwrap();
            let single = f().propose(&space, &h, &mut r2).unwrap();
            assert_eq!(batch.len(), 1);
            assert_eq!(batch[0], single);
        }
    }

    #[test]
    fn propose_batch_draws_k_valid_points() {
        let space = SearchSpace::mnist();
        let mut s = RandomSearch;
        let mut r = rng();
        let batch = s.propose_batch(&space, &History::new(), 4, &mut r).unwrap();
        assert_eq!(batch.len(), 4);
        for c in &batch {
            assert!(space.decode(c).is_ok());
        }
        // Fresh randomness per point: no duplicates in a continuous space.
        for (i, a) in batch.iter().enumerate() {
            for b in &batch[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn constant_liar_spreads_bo_batches() {
        // With a fitted GP, the liar entries must keep the batch from
        // collapsing onto one acquisition argmax neighbourhood.
        let space = SearchSpace::mnist();
        let mut h = History::new();
        for i in 0..10 {
            let u = i as f64 / 9.0;
            h.push(Config::new(vec![u; 6]).unwrap(), (u - 0.7).abs() + 0.05);
        }
        let mut s = BoSearcher::new(ConstraintWeighting::None, None);
        let mut r = rng();
        let batch = s.propose_batch(&space, &h, 3, &mut r).unwrap();
        assert_eq!(batch.len(), 3);
        for (i, a) in batch.iter().enumerate() {
            assert!(space.decode(a).is_ok());
            for b in &batch[i + 1..] {
                assert_ne!(a, b, "batch proposals collapsed onto one point");
            }
        }
    }

    #[test]
    fn constant_liar_uses_fallback_without_finite_incumbent() {
        // All-NaN history: the liar value must not poison the GP with NaN.
        let space = SearchSpace::mnist();
        let mut h = History::new();
        for i in 0..4 {
            let u = 0.1 + 0.2 * i as f64;
            h.push(Config::new(vec![u; 6]).unwrap(), f64::NAN);
        }
        let mut s = BoSearcher::new(ConstraintWeighting::None, None);
        let mut r = rng();
        let batch = s.propose_batch(&space, &h, 3, &mut r).unwrap();
        assert_eq!(batch.len(), 3);
        for c in &batch {
            assert!(space.decode(c).is_ok());
        }
    }

    #[test]
    fn poisoned_fit_degrades_to_rand_walk_without_failing() {
        // A noise floor of NaN fails every jitter rung; the searcher must
        // still return Ok and record the downgrade as a typed event.
        let space = SearchSpace::mnist();
        let h = history_from(&[
            (vec![0.2; 6], 0.5),
            (vec![0.4; 6], 0.3),
            (vec![0.6; 6], 0.7),
            (vec![0.8; 6], 0.6),
        ]);
        let mut s = BoSearcher::new(ConstraintWeighting::None, None);
        s.fit_options.min_noise_variance = f64::NAN;
        let mut r = rng();
        let c = s.propose(&space, &h, &mut r).unwrap();
        assert!(space.decode(&c).is_ok());
        let events = s.drain_degradations();
        assert_eq!(events, vec![DegradationEvent::RandWalkFallback]);
        // The drain is a take: a second call reports nothing.
        assert!(s.drain_degradations().is_empty());

        let mut t = ThompsonSearcher::new(None);
        t.fit_options.min_noise_variance = f64::NAN;
        let c = t.propose(&space, &h, &mut r).unwrap();
        assert!(space.decode(&c).is_ok());
        assert_eq!(
            t.drain_degradations(),
            vec![DegradationEvent::RandWalkFallback]
        );
    }

    /// Ten observations along the unit diagonal with a minimum at 0.7.
    fn diagonal_points() -> Vec<(Vec<f64>, f64)> {
        (0..10)
            .map(|i| {
                let u = i as f64 / 9.0;
                (vec![u, 1.0 - u, u * u, 0.5, u, 0.3], (u - 0.7).abs() + 0.05)
            })
            .collect()
    }

    /// A fit's hyper-parameters in log space, as a searcher keeps them.
    fn log_params(fitted: &FittedGp) -> [f64; 3] {
        [
            fitted.length_scale.ln(),
            fitted.signal_variance.ln(),
            fitted.noise_variance.ln(),
        ]
    }

    /// The laddered fit a searcher with fit options `options` makes on
    /// `points`, started at `start`.
    fn surrogate_fit(
        points: &[(Vec<f64>, f64)],
        options: FitOptions,
        start: Option<[f64; 3]>,
    ) -> FittedGp {
        let x = Matrix::from_vec(
            points.len(),
            6,
            points.iter().flat_map(|(u, _)| u.clone()).collect(),
        )
        .unwrap();
        let y: Vec<f64> = points.iter().map(|(_, e)| *e).collect();
        fit_gp_hyperparams_laddered_from(
            Matern52::new(0.5).into_kernel(),
            &x,
            &y,
            options,
            MAX_JITTER_RUNGS,
            start,
        )
        .unwrap()
        .fitted
    }

    #[test]
    fn each_fit_starts_at_the_previous_fits_optimum() {
        let space = SearchSpace::mnist();
        let points = diagonal_points();
        let mut s = BoSearcher::new(ConstraintWeighting::None, None);
        let mut t = ThompsonSearcher::new(None);
        // The first fit has no start: the cold search, which
        // crates/gp/tests/fit_oracle.rs holds near the frozen fit.
        let mut previous = None;
        for n in 4..=points.len() {
            let h = history_from(&points[..n]);
            s.propose(&space, &h, &mut rng()).unwrap();
            t.propose(&space, &h, &mut rng()).unwrap();
            let expected = log_params(&surrogate_fit(&points[..n], s.fit_options, previous));
            assert_eq!(s.warm_start, Some(expected), "BO at n = {n}");
            assert_eq!(t.warm_start, Some(expected), "Thompson at n = {n}");
            previous = s.warm_start;
        }
    }

    #[test]
    fn constant_liar_fits_update_the_warm_start() {
        let space = SearchSpace::mnist();
        let points = diagonal_points();
        let h = history_from(&points[..6]);
        let pending = Config::new(vec![0.33; 6]).unwrap();
        let mut s = BoSearcher::new(ConstraintWeighting::None, None);
        s.propose_with_pending(&space, &h, std::slice::from_ref(&pending), &mut rng())
            .unwrap();
        // The fit ran on the history plus the pending point at the liar
        // value, the incumbent's error.
        let mut augmented = points[..6].to_vec();
        augmented.push((pending.unit().to_vec(), h.best().unwrap().error));
        let fitted = surrogate_fit(&augmented, s.fit_options, None);
        assert_eq!(s.warm_start, Some(log_params(&fitted)));
    }

    #[test]
    fn failed_and_skipped_fits_keep_the_warm_start() {
        let space = SearchSpace::mnist();
        let points = diagonal_points();
        let mut s = BoSearcher::new(ConstraintWeighting::None, None);
        s.propose(&space, &history_from(&points[..5]), &mut rng())
            .unwrap();
        let kept = s.warm_start;
        assert!(kept.is_some());
        // Too few finite observations: no fit.
        let mut sparse = history_from(&points[..2]);
        sparse.push(Config::new(vec![0.9; 6]).unwrap(), f64::NAN);
        s.propose(&space, &sparse, &mut rng()).unwrap();
        assert_eq!(s.warm_start, kept);
        // Every jitter rung fails: the Rand-Walk fallback.
        s.fit_options.min_noise_variance = f64::NAN;
        s.propose(&space, &history_from(&points[..7]), &mut rng())
            .unwrap();
        assert_eq!(
            s.drain_degradations(),
            vec![DegradationEvent::RandWalkFallback]
        );
        assert_eq!(s.warm_start, kept);
    }

    #[test]
    fn clean_fit_reports_no_degradations() {
        let space = SearchSpace::mnist();
        let h = history_from(&[
            (vec![0.2; 6], 0.5),
            (vec![0.4; 6], 0.3),
            (vec![0.6; 6], 0.7),
            (vec![0.8; 6], 0.6),
        ]);
        let mut s = BoSearcher::new(ConstraintWeighting::None, None);
        let mut r = rng();
        let _ = s.propose(&space, &h, &mut r).unwrap();
        assert!(s.drain_degradations().is_empty());
        // Model-free searchers use the defaulted hook.
        let mut rand = RandomSearch;
        assert!(Searcher::drain_degradations(&mut rand).is_empty());
    }

    #[test]
    fn make_searcher_covers_all_combinations() {
        // Default mode never needs an oracle.
        for m in Method::ALL {
            let _ = make_searcher(m, Mode::Default, None);
        }
        // Model-free HyperPower searchers don't hold the oracle either
        // (the driver screens); BO HyperPower methods require it, supplied
        // by the session — here we just check the model-free paths.
        let _ = make_searcher(Method::Rand, Mode::HyperPower, None);
        let _ = make_searcher(Method::RandWalk, Mode::HyperPower, None);
    }
}
