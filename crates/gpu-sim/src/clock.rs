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

/// Per-worker virtual timelines for multi-GPU experiments.
///
/// An optimization run models K simulated training GPUs, each with its own
/// wall clock. A worker's timeline advances by the modelled duration of every
/// action it performs (proposal overhead, training, measurement), exactly like
/// [`VirtualClock`] does for a single timeline; the experiment-level clock
/// is the *latest* worker timeline, and scheduling decisions pick the
/// *earliest* free worker with a deterministic lowest-index tiebreak.
///
/// # Examples
///
/// ```
/// use hyperpower_gpu_sim::WorkerClock;
///
/// let mut clock = WorkerClock::new(3);
/// clock.advance_secs(1, 50.0);
/// clock.advance_secs(2, 80.0);
/// assert_eq!(clock.earliest(), 0); // index tiebreak is irrelevant here
/// assert!((clock.latest_secs() - 80.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerClock {
    now_s: Vec<f64>,
}

impl WorkerClock {
    /// `workers` timelines, all at time zero.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "need at least one worker timeline");
        WorkerClock {
            now_s: vec![0.0; workers],
        }
    }

    /// Number of worker timelines.
    pub fn workers(&self) -> usize {
        self.now_s.len()
    }

    /// Advances worker `w`'s timeline by `dt_s` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `w` is out of range or `dt_s` is negative or non-finite
    /// (mirroring [`VirtualClock::advance_secs`]).
    pub fn advance_secs(&mut self, w: usize, dt_s: f64) {
        assert!(
            dt_s.is_finite() && dt_s >= 0.0,
            "cannot advance clock by {dt_s}"
        );
        self.now_s[w] += dt_s;
    }

    /// Worker `w`'s current time in seconds.
    pub fn seconds(&self, w: usize) -> f64 {
        self.now_s[w]
    }

    /// Index of the worker whose timeline is earliest; ties break to the
    /// lowest index, so scheduling is deterministic.
    pub fn earliest(&self) -> usize {
        let mut best = 0;
        for (w, &t) in self.now_s.iter().enumerate().skip(1) {
            if t.total_cmp(&self.now_s[best]) == std::cmp::Ordering::Less {
                best = w;
            }
        }
        best
    }

    /// The latest worker timeline in seconds — the experiment-level elapsed
    /// time once all workers have drained.
    pub fn latest_secs(&self) -> f64 {
        // In-bounds: `now_s` has one entry per worker, workers >= 1.
        let mut latest = self.now_s[0];
        for &t in &self.now_s[1..] {
            if t.total_cmp(&latest) == std::cmp::Ordering::Greater {
                latest = t;
            }
        }
        latest
    }
}

/// A deterministic completion-ordered queue for committing parallel results.
///
/// Items are pushed with their virtual completion time and a unique sequence
/// number (proposal order). [`CommitQueue::pop_min`] always returns the item
/// with the smallest `(completion time, sequence)` pair — `total_cmp` on the
/// time, then the sequence as tiebreak — so the commit order of concurrently
/// finishing work never depends on thread scheduling.
#[derive(Debug, Clone)]
pub struct CommitQueue<T> {
    items: Vec<(f64, u64, T)>,
}

impl<T> Default for CommitQueue<T> {
    fn default() -> Self {
        CommitQueue { items: Vec::new() }
    }
}

impl<T> CommitQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        CommitQueue::default()
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Queues `item` completing at `time_s` with proposal-order `seq`.
    ///
    /// # Panics
    ///
    /// Panics if `time_s` is non-finite: a NaN completion time would make
    /// the commit order meaningless.
    pub fn push(&mut self, time_s: f64, seq: u64, item: T) {
        assert!(time_s.is_finite(), "completion time {time_s} not finite");
        self.items.push((time_s, seq, item));
    }

    /// Removes and returns the `(time_s, seq, item)` triple with the
    /// smallest `(time, seq)` key, or `None` if empty.
    pub fn pop_min(&mut self) -> Option<(f64, u64, T)> {
        let mut best: Option<usize> = None;
        for (i, (t, s, _)) in self.items.iter().enumerate() {
            best = match best {
                None => Some(i),
                Some(b) => {
                    let (bt, bs, _) = &self.items[b]; // in-bounds: b comes from enumerate. analyze::allow(R15)
                    if key_less((*t, *s), (*bt, *bs)) {
                        Some(i)
                    } else {
                        Some(b)
                    }
                }
            };
        }
        best.map(|i| self.items.swap_remove(i))
    }

    /// The smallest `(time, seq)` key currently queued, without removing it.
    pub fn peek_min_key(&self) -> Option<(f64, u64)> {
        let mut best: Option<(f64, u64)> = None;
        for (t, s, _) in &self.items {
            best = match best {
                None => Some((*t, *s)),
                Some(b) => {
                    if key_less((*t, *s), b) {
                        Some((*t, *s))
                    } else {
                        Some(b)
                    }
                }
            };
        }
        best
    }
}

/// `(time, seq)` strict ordering: `total_cmp` on the time, sequence tiebreak.
fn key_less(a: (f64, u64), b: (f64, u64)) -> bool {
    match a.0.total_cmp(&b.0) {
        std::cmp::Ordering::Less => true,
        std::cmp::Ordering::Equal => a.1 < b.1,
        std::cmp::Ordering::Greater => false,
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
    fn worker_clock_earliest_prefers_lowest_index_on_ties() {
        let mut c = WorkerClock::new(4);
        assert_eq!(c.earliest(), 0);
        c.advance_secs(0, 10.0);
        c.advance_secs(2, 10.0);
        // 1 and 3 are tied at 0.0 → lowest index wins.
        assert_eq!(c.earliest(), 1);
        c.advance_secs(1, 30.0);
        c.advance_secs(3, 30.0);
        // 0 and 2 are tied at 10.0 → lowest index wins.
        assert_eq!(c.earliest(), 0);
        assert_eq!(c.latest_secs(), 30.0);
    }

    #[test]
    #[should_panic(expected = "cannot advance")]
    fn worker_clock_negative_advance_panics() {
        WorkerClock::new(1).advance_secs(0, -1.0);
    }

    #[test]
    fn commit_queue_pops_by_time_then_seq() {
        let mut q = CommitQueue::new();
        q.push(20.0, 0, "slow-but-first");
        q.push(10.0, 1, "fast");
        q.push(20.0, 2, "slow-and-later");
        q.push(15.0, 3, "middle");
        assert_eq!(q.peek_min_key(), Some((10.0, 1)));
        let order: Vec<&str> = std::iter::from_fn(|| q.pop_min().map(|(_, _, i)| i)).collect();
        assert_eq!(
            order,
            ["fast", "middle", "slow-but-first", "slow-and-later"]
        );
        assert!(q.is_empty());
    }

    #[test]
    fn commit_queue_equal_times_break_by_seq() {
        let mut q = CommitQueue::new();
        q.push(5.0, 9, "b");
        q.push(5.0, 3, "a");
        q.push(5.0, 12, "c");
        assert_eq!(q.pop_min().map(|(_, s, i)| (s, i)), Some((3, "a")));
        assert_eq!(q.pop_min().map(|(_, s, i)| (s, i)), Some((9, "b")));
        assert_eq!(q.pop_min().map(|(_, s, i)| (s, i)), Some((12, "c")));
        assert_eq!(q.pop_min().map(|(_, _, i)| i), None);
    }

    #[test]
    #[should_panic(expected = "not finite")]
    fn commit_queue_rejects_nan_completion_times() {
        CommitQueue::new().push(f64::NAN, 0, ());
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
