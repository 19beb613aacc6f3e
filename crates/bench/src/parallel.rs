//! Worker-thread count for the experiment harnesses.
//!
//! The table/figure harnesses run many fully independent (scenario ×
//! method) cells; each cell is internally deterministic (the executor's
//! byte-identity guarantee), so running cells on threads changes nothing
//! but wall-clock. They run them on the core executor's pool,
//! [`hyperpower::executor::parallel_map`]; this module only picks its
//! width.

/// Worker-thread count for a harness: an explicit `--workers N` argument,
/// else the `HYPERPOWER_WORKERS` environment variable, else 1.
pub fn workers_from_args(args: &[String]) -> usize {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--workers" {
            if let Some(n) = it.next().and_then(|v| v.parse::<usize>().ok()) {
                if n > 0 {
                    return n;
                }
            }
        }
    }
    hyperpower::ExecutorOptions::from_env().workers
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn workers_cli_beats_env_fallback() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(workers_from_args(&args(&["--workers", "3"])), 3);
        assert_eq!(workers_from_args(&args(&["--quick", "--workers", "2"])), 2);
        // Invalid or missing values fall back to the environment default
        // (HYPERPOWER_WORKERS, then 1) — compare against it directly so the
        // test also passes under the CI worker matrix.
        let fallback = hyperpower::ExecutorOptions::from_env().workers;
        assert_eq!(workers_from_args(&args(&["--workers", "zero"])), fallback);
        assert_eq!(workers_from_args(&args(&["--workers"])), fallback);
        assert_eq!(workers_from_args(&args(&["--quick"])), fallback);
    }
}
