//! Host-speed pacing: every measured timing is rescaled to a fixed host
//! speed, read off a reference computation timed just before and just
//! after it.
//!
//! On a shared machine the same work was seen running at two speeds
//! about 1.8× apart, switching every second or so. Repeating work within a
//! run cannot escape a slow spell that covers most of it. A fixed reference
//! computation, run between the pieces of measured work, slows by the same
//! factor as the sweeps' compute-bound work (and by more than serving). So
//! a timing taken between two reference measurements is scaled by
//! [`NOMINAL_S`] over their mean. On a host where the reference takes
//! [`NOMINAL_S`], a paced timing equals host seconds.

use std::hint::black_box;
use std::time::Instant;

/// Host seconds the reference computation takes at the speed every paced
/// timing is scaled to: about its time on an idle x86-64-v3 core.
pub const NOMINAL_S: f64 = 1e-4;

/// Order of the matrix the reference factorizes.
const N: usize = 48;

/// Passes of the reference computation per measurement; the fastest
/// counts.
const PASSES: usize = 5;

/// One pass of the reference computation: a naive Cholesky factorization
/// of a fixed SPD matrix, float formatting and parsing, and a 512 KiB
/// copy. It calls nothing in the library, so no change to the library
/// moves it.
fn reference_work(buf: &mut [u8]) -> f64 {
    let mut a = vec![0.0f64; N * N];
    for i in 0..N {
        for j in 0..N {
            let diagonal = if i == j { N as f64 } else { 0.0 };
            a[i * N + j] = 1.0 / (1.0 + (i as f64 - j as f64).abs()) + diagonal;
        }
    }
    let a = black_box(a);
    let mut l = vec![0.0f64; N * N];
    for j in 0..N {
        let mut d = a[j * N + j];
        for k in 0..j {
            d -= l[j * N + k] * l[j * N + k];
        }
        let d = d.sqrt();
        l[j * N + j] = d;
        for i in j + 1..N {
            let mut s = a[i * N + j];
            for k in 0..j {
                s -= l[i * N + k] * l[j * N + k];
            }
            l[i * N + j] = s / d;
        }
    }
    let mut text = String::new();
    for (i, x) in l.iter().enumerate().step_by(7) {
        text.push_str(&format!("{x:?} {i}\n"));
    }
    let parsed: f64 = text
        .split_whitespace()
        .filter_map(|t| t.parse::<f64>().ok())
        .sum();
    let half = buf.len() / 2;
    let (src, dst) = buf.split_at_mut(half);
    dst.copy_from_slice(src);
    src[0] = src[0].wrapping_add(1);
    parsed + f64::from(dst[half - 1])
}

/// Host seconds the reference computation takes now.
pub fn reference_s() -> f64 {
    let mut buf = vec![7u8; 1 << 20];
    let mut best = f64::INFINITY;
    for _ in 0..PASSES {
        let t = Instant::now();
        black_box(reference_work(black_box(&mut buf)));
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// A host-seconds timing and the pacing segment it was taken in.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    pub secs: f64,
    segment: usize,
}

impl Timing {
    /// A timing of `secs` paced like `self`: a part of the same work.
    pub fn part(self, secs: f64) -> Timing {
        Timing { secs, ..self }
    }
}

/// The reference measurements of one pass. Each [`Pace::probe`] closes the
/// segment the timings since the previous probe fall in. The default pace
/// never probes.
#[derive(Debug, Default)]
pub struct Pace {
    enabled: bool,
    refs: Vec<f64>,
}

impl Pace {
    /// A pace that probes when `enabled`; otherwise every timing reads as
    /// measured.
    pub fn new(enabled: bool) -> Pace {
        let mut pace = Pace {
            enabled,
            refs: Vec::new(),
        };
        pace.probe();
        pace
    }

    /// Measures the reference and starts a new segment. Probe between
    /// pieces of work, never inside a timed interval.
    pub fn probe(&mut self) {
        if self.enabled {
            self.refs.push(reference_s());
        }
    }

    /// Host seconds `secs`, taken since the last probe.
    pub fn timing(&self, secs: f64) -> Timing {
        Timing {
            secs,
            segment: self.refs.len().saturating_sub(1),
        }
    }

    /// `t` rescaled to the nominal host speed by the mean of the probes
    /// around it (the probe before it alone, if none followed).
    pub fn paced(&self, t: Timing) -> f64 {
        let Some(&before) = self.refs.get(t.segment) else {
            return t.secs;
        };
        let after = self.refs.get(t.segment + 1).copied().unwrap_or(before);
        t.secs * NOMINAL_S / (0.5 * (before + after))
    }

    /// Every timing of `ts`, paced.
    pub fn all(&self, ts: &[Timing]) -> Vec<f64> {
        ts.iter().map(|&t| self.paced(t)).collect()
    }

    /// How many reference measurements were taken, and their median.
    pub fn summary(&self) -> (usize, f64) {
        (self.refs.len(), crate::report::median(&self.refs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timings_scale_by_the_probes_around_them() {
        let pace = Pace {
            enabled: true,
            refs: vec![2.0 * NOMINAL_S, 4.0 * NOMINAL_S, NOMINAL_S],
        };
        let first = Timing {
            secs: 3.0,
            segment: 0,
        };
        let second = Timing {
            secs: 5.0,
            segment: 1,
        };
        let last = Timing {
            secs: 1.0,
            segment: 2,
        };
        // Between probes reading 2× and 4× nominal: a third of the time.
        assert!((pace.paced(first) - 1.0).abs() < 1e-12);
        assert!((pace.paced(second) - 2.0).abs() < 1e-12);
        assert!((pace.paced(last) - 1.0).abs() < 1e-12);

        let off = Pace::new(false);
        assert_eq!(off.paced(off.timing(0.25)), 0.25);
    }

    #[test]
    fn the_reference_takes_measurable_time() {
        let t = reference_s();
        assert!(t > 1e-6 && t < 0.1, "{t}");
    }
}
