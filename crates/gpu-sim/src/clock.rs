use hyperpower_nn::ArchSpec;

/// A virtual wall clock for time-budgeted experiments.
///
/// The paper's fixed-runtime experiments give each method a 2 h (MNIST) or
/// 5 h (CIFAR-10) wall-clock budget and let the last run started before the
/// deadline finish. Re-running that in real time would be absurd inside a
/// simulation, so every simulated action advances this clock by its modelled
/// duration instead; the experiment drivers read budgets and timestamps off
/// it. Only *relative* durations matter for the reproduced tables.
///
/// # Examples
///
/// ```
/// use hyperpower_gpu_sim::VirtualClock;
///
/// let mut clock = VirtualClock::new();
/// clock.advance_secs(90.0);
/// clock.advance_hours(1.0);
/// assert!((clock.hours() - 1.025).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct VirtualClock {
    now_s: f64,
}

impl VirtualClock {
    /// A clock at time zero.
    pub fn new() -> Self {
        VirtualClock::default()
    }

    /// Advances the clock by `dt_s` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `dt_s` is negative or non-finite.
    pub fn advance_secs(&mut self, dt_s: f64) {
        assert!(
            dt_s.is_finite() && dt_s >= 0.0,
            "cannot advance clock by {dt_s}"
        );
        self.now_s += dt_s;
    }

    /// Advances the clock by `hours`.
    ///
    /// # Panics
    ///
    /// Panics if `hours` is negative or non-finite.
    pub fn advance_hours(&mut self, hours: f64) {
        self.advance_secs(hours * 3600.0);
    }

    /// Elapsed virtual time in seconds.
    pub fn seconds(&self) -> f64 {
        self.now_s
    }

    /// Elapsed virtual time in hours.
    pub fn hours(&self) -> f64 {
        self.now_s / 3600.0
    }
}

/// Models how long training-related actions take on the training server.
///
/// In the paper's setup candidate networks are *trained* on the server and
/// only *profiled* on the target platform, so training cost is a property
/// of the server, not of the constraint device. One epoch costs
/// `3 × forward_flops × examples / throughput` (backward ≈ 2× forward);
/// every launched run also pays a fixed overhead (network generation,
/// framework start-up, data staging).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainingCostModel {
    /// Sustained training throughput of the server in FLOP/s.
    pub throughput_flops: f64,
    /// Fixed per-run overhead in seconds.
    pub per_run_overhead_s: f64,
    /// Cost of one power/memory *measurement* on the target platform in
    /// seconds (running a few inference batches while polling the sensor).
    pub measurement_s: f64,
    /// Cost of processing one candidate through the predictive
    /// power/memory models: the dot products themselves are free (the
    /// whole point of the paper), but each queried sample still pays the
    /// optimizer's proposal/bookkeeping overhead (in Spearmint, seconds).
    pub model_eval_s: f64,
}

impl Default for TrainingCostModel {
    /// Calibrated so that full training runs land in the paper's regime:
    /// several minutes per MNIST-scale run, tens of minutes per CIFAR-scale
    /// run (paper Tables 3–4: ≈14 completed runs in 2 h / 5 h).
    fn default() -> Self {
        TrainingCostModel {
            throughput_flops: 2.2e11,
            per_run_overhead_s: 90.0,
            measurement_s: 10.0,
            model_eval_s: 5.0,
        }
    }
}

impl TrainingCostModel {
    /// Seconds to train `spec` for `epochs` epochs over `examples` examples.
    pub fn training_secs(&self, spec: &ArchSpec, examples: usize, epochs: usize) -> f64 {
        let flops = 3.0 * spec.flops_per_example() as f64 * examples as f64 * epochs as f64;
        self.per_run_overhead_s + flops / self.throughput_flops
    }

    /// Seconds per single training epoch (no per-run overhead).
    pub fn epoch_secs(&self, spec: &ArchSpec, examples: usize) -> f64 {
        3.0 * spec.flops_per_example() as f64 * examples as f64 / self.throughput_flops
    }
}

#[cfg(test)]
// Exact float equality is intended here: virtual-clock arithmetic is exact.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use hyperpower_nn::LayerSpec;

    fn mnist_big() -> ArchSpec {
        ArchSpec::new(
            (1, 28, 28),
            10,
            vec![
                LayerSpec::conv(60, 5),
                LayerSpec::pool(2),
                LayerSpec::dense(600),
            ],
        )
        .unwrap()
    }

    fn cifar_big() -> ArchSpec {
        ArchSpec::new(
            (3, 32, 32),
            10,
            vec![
                LayerSpec::conv(80, 5),
                LayerSpec::pool(2),
                LayerSpec::conv(80, 5),
                LayerSpec::pool(2),
                LayerSpec::conv(80, 5),
                LayerSpec::pool(2),
                LayerSpec::dense(700),
            ],
        )
        .unwrap()
    }

    #[test]
    fn clock_accumulates() {
        let mut c = VirtualClock::new();
        assert_eq!(c.seconds(), 0.0);
        c.advance_secs(10.0);
        c.advance_secs(20.0);
        assert_eq!(c.seconds(), 30.0);
        c.advance_hours(2.0);
        assert!((c.hours() - (2.0 + 30.0 / 3600.0)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "cannot advance")]
    fn negative_advance_panics() {
        VirtualClock::new().advance_secs(-1.0);
    }

    #[test]
    fn full_runs_in_paper_regime() {
        let cost = TrainingCostModel::default();
        // MNIST full run (60k examples, 40 epochs): minutes, not hours.
        let mnist = cost.training_secs(&mnist_big(), 60_000, 40) / 60.0;
        assert!(
            (3.0..20.0).contains(&mnist),
            "MNIST full run {mnist} minutes"
        );
        // CIFAR full run (50k examples, 40 epochs): tens of minutes.
        let cifar = cost.training_secs(&cifar_big(), 50_000, 40) / 60.0;
        assert!(
            (10.0..70.0).contains(&cifar),
            "CIFAR full run {cifar} minutes"
        );
    }

    #[test]
    fn early_termination_saves_most_of_the_cost() {
        let cost = TrainingCostModel::default();
        let full = cost.training_secs(&cifar_big(), 50_000, 40);
        let early = cost.training_secs(&cifar_big(), 50_000, 3);
        assert!(early < full * 0.15, "early {early} vs full {full}");
    }

    #[test]
    fn model_eval_is_orders_cheaper_than_training() {
        let cost = TrainingCostModel::default();
        assert!(cost.model_eval_s * 15.0 < cost.per_run_overhead_s);
    }

    #[test]
    fn epoch_secs_times_epochs_matches_training_minus_overhead() {
        let cost = TrainingCostModel::default();
        let spec = mnist_big();
        let by_epoch = cost.epoch_secs(&spec, 60_000) * 40.0 + cost.per_run_overhead_s;
        let direct = cost.training_secs(&spec, 60_000, 40);
        assert!((by_epoch - direct).abs() < 1e-9);
    }
}
