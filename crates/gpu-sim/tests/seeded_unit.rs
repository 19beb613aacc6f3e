//! `seeded_unit` is the one seeded `[0, 1)` draw behind every jitter
//! stream in the workspace: fault schedules, lease and hedge deadlines,
//! chaos faults and supervision thresholds. None of those streams may
//! move, so the draw is checked bit for bit against a frozen copy of the
//! formula each of them computed on its own before they shared it.

// Exact float equality is the point: the draws must be bit-identical.
#![allow(clippy::float_cmp)]

use hyperpower_gpu_sim::seeded_unit;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// The draw as the fault plan, the lease streams, the chaos plan and the
/// health fleet each wrote it: golden-ratio mixing of the salted seed with
/// both keys, then one `[0, 1)` draw from a fresh `StdRng`.
fn frozen_unit(seed: u64, salt: u64, a: u64, b: u64) -> f64 {
    let mut h = seed ^ salt;
    h = h.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(a);
    h = h.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(b);
    StdRng::seed_from_u64(h).random_range(0.0..1.0)
}

#[test]
fn seeded_unit_matches_the_frozen_draw_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(0x5EED_0417);
    let edges = [0, 1, u64::from(u32::MAX), u64::MAX - 1, u64::MAX];
    let mut cases: Vec<[u64; 4]> = Vec::new();
    for &e in &edges {
        cases.push([e, e, e, e]);
        cases.push([e, 0xFA17_0001, 7, e]);
        cases.push([u64::MAX, 0x1EA5_E001, e, 3]);
        cases.push([42, 0xC4A0_0009, e, 0]);
    }
    for _ in 0..10_000 {
        cases.push([rng.random(), rng.random(), rng.random(), rng.random()]);
    }
    for [seed, salt, a, b] in cases {
        let unit = seeded_unit(seed, salt, a, b);
        assert_eq!(
            unit.to_bits(),
            frozen_unit(seed, salt, a, b).to_bits(),
            "seeded_unit({seed}, {salt:#x}, {a}, {b})"
        );
        assert!((0.0..1.0).contains(&unit));
    }
}
