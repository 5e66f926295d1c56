//! The one-pass D grid: `mc_averages_grid` must be, point for point and
//! bit for bit, the standalone `mc_averages` at each D, and the threshold
//! solve built on it must keep the crossings it had when every grid
//! point drew its own copy of the ensemble (pins below were captured from
//! that per-point solver).

use proptest::prelude::*;
use wcs_capacity::shannon::CapacityModel;
use wcs_core::average::{mc_averages, mc_averages_grid, PolicyAverages};
use wcs_core::params::ModelParams;
use wcs_core::threshold::{optimal_threshold, ThresholdSolve};

/// Every output bit of one estimate: (mean, std_error, n) per policy,
/// then the multiplex fraction.
fn bits(a: &PolicyAverages) -> Vec<u64> {
    let mut out = Vec::new();
    for e in [
        a.multiplexing,
        a.concurrency,
        a.carrier_sense,
        a.optimal,
        a.upper_bound,
    ] {
        out.extend([e.mean.to_bits(), e.std_error.to_bits(), e.n]);
    }
    out.push(a.multiplex_fraction.to_bits());
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]
    #[test]
    fn grid_point_equals_standalone_mc_averages_bitwise(
        rmax in 5.0..200.0f64, d_thresh in 5.0..200.0f64,
        d1 in 0.5..400.0f64, d2 in 0.5..400.0f64, d3 in 0.5..400.0f64,
        seed in 0u64..1_000_000,
    ) {
        // Unsorted, with a duplicate and the d = 0 near-field clamp.
        let ds = [d2, 0.0, d1, d2, d3];
        let capped = CapacityModel::with_efficiency(0.75).capped(2.7);
        for sigma in [0.0, 4.0, 8.0] {
            for cap in [CapacityModel::SHANNON, capped] {
                let mut params = ModelParams::paper_default().with_sigma_db(sigma);
                params.cap = cap;
                for n in [1, 7, 3000] {
                    let grid = mc_averages_grid(&params, rmax, &ds, d_thresh, n, seed);
                    prop_assert_eq!(grid.len(), ds.len());
                    for (j, &d) in ds.iter().enumerate() {
                        let alone = mc_averages(&params, rmax, d, d_thresh, n, seed);
                        prop_assert_eq!(
                            bits(&grid[j]),
                            bits(&alone),
                            "σ={} cap={:?} n={} d={}", sigma, cap, n, d
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn empty_grid_is_empty() {
    let p = ModelParams::paper_default();
    assert!(mc_averages_grid(&p, 40.0, &[], 55.0, 100, 1).is_empty());
}

#[test]
fn mc_averages_is_pinned() {
    // (params, [rmax, d, d_thresh], n, seed) -> bits(), captured before
    // mc_averages became the one-point grid.
    let mut capped = ModelParams::paper_default().with_sigma_db(4.0);
    capped.cap = CapacityModel::with_efficiency(0.75).capped(2.7);
    type Pin = (ModelParams, [f64; 3], u64, u64, [u64; 16]);
    #[rustfmt::skip]
    let cases: [Pin; 3] = [
        (
            ModelParams::paper_default(), [40.0, 55.0, 55.0], 3000, 42,
            [
                0x400fab2673f4568f, 0x3f960f0c7fd0a159, 3000,
                0x401084d8fbfccf97, 0x3fa66a6fe6e206d6, 3000,
                0x40100b271ed6841f, 0x3fa150be41e3ea67, 3000,
                0x4012ca27f814cbf4, 0x3fa219474d0d4c63, 3000,
                0x4013eee893deb659, 0x3fa28a69f600aaa8, 3000,
                0x3fe083126e978d50,
            ],
        ),
        (
            capped, [120.0, 0.0, 40.0], 7, 3,
            [
                0x3ff1352da701f3ff, 0x3fb9aa0904a0d71a, 7,
                0x3fea5d38e9a9967a, 0x3fb9fdfa9aa23e3b, 7,
                0x3ff1352da701f3ff, 0x3fb9aa0904a0d71a, 7,
                0x3ff1bc8067d031ff, 0x3fbbb1b77a40dca0, 7,
                0x3ff2cc3e3ee04dec, 0x3fc0ddad5743fa7a, 7,
                0x3ff0000000000000,
            ],
        ),
        (
            ModelParams::paper_sigma0(), [20.0, 20.0, 55.0], 1, 5,
            [
                0x4016b5b7133faef6, 0x7ff0000000000000, 1,
                0x4007841c34c831a0, 0x7ff0000000000000, 1,
                0x4016b5b7133faef6, 0x7ff0000000000000, 1,
                0x4016b5b7133faef6, 0x7ff0000000000000, 1,
                0x4016b5b7133faef6, 0x7ff0000000000000, 1,
                0x3ff0000000000000,
            ],
        ),
    ];
    for (params, [rmax, d, d_thresh], n, seed, want) in cases {
        let got = mc_averages(&params, rmax, d, d_thresh, n, seed);
        assert_eq!(bits(&got), want.to_vec(), "rmax={rmax} d={d} n={n}");
    }
}

#[test]
fn optimal_threshold_crossings_are_pinned() {
    // (α, Rmax) -> solve at σ = 8 dB, 2000 samples, seed 7 (Figure 7's
    // seed), captured from the per-grid-point solver.
    let crossing = |b: u64| ThresholdSolve::Crossing(f64::from_bits(b));
    let cases = [
        (3.0, 20.0, crossing(0x4043950581cf4ae8)),
        (2.0, 40.0, crossing(0x4068238d90c048ef)),
        (3.5, 80.0, crossing(0x403883cd4d84e3cd)),
        (4.0, 5.0, crossing(0x4025eb17c1cb898a)),
        (2.5, 160.0, crossing(0x406318bb730b4e74)),
        (4.0, 160.0, ThresholdSolve::ConcurrencyAlways),
    ];
    for (alpha, rmax, want) in cases {
        let p = ModelParams::paper_default().with_alpha(alpha);
        let got = optimal_threshold(&p, rmax, 2_000, 7);
        match (got, want) {
            (ThresholdSolve::Crossing(a), ThresholdSolve::Crossing(b)) => {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "α={alpha} Rmax={rmax}: {a} vs {b}"
                )
            }
            _ => assert_eq!(got, want, "α={alpha} Rmax={rmax}"),
        }
    }
}
