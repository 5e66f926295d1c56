//! Optimal carrier-sense thresholds (§3.3.3, Figure 7).
//!
//! In the σ = 0 model the throughput-optimal threshold is exactly the D at
//! which the concurrency and multiplexing curves cross — "the point where
//! concurrency provides half of the competition-free capacity" — because
//! any other choice adds a wrong-branch "triangle" of inefficiency
//! (Figure 6). With shadowing there is no unique optimum (footnote 16);
//! we follow the same crossing-point construction on the shadowed
//! averages, which remains the natural compromise and reproduces the
//! paper's Table 2 thresholds.

use crate::average::{mc_averages_grid, quad_concurrency, quad_multiplexing};
use crate::params::ModelParams;
use wcs_stats::interp::LinearInterp;
use wcs_stats::rootfind::brent;

/// Result of a threshold solve: either a crossing distance, or the
/// finding that one policy dominates over the whole search range.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ThresholdSolve {
    /// The curves cross at this D (the optimal threshold distance).
    Crossing(f64),
    /// Concurrency dominates everywhere searched — the "extreme long
    /// range" CDMA-like regime of footnote 11 (multiplexing never wins).
    ConcurrencyAlways,
    /// Multiplexing dominates everywhere searched (degenerate, very
    /// short search ranges only).
    MultiplexingAlways,
}

impl ThresholdSolve {
    /// The crossing distance, if any.
    pub fn crossing(self) -> Option<f64> {
        match self {
            ThresholdSolve::Crossing(d) => Some(d),
            _ => None,
        }
    }
}

/// Solve for the σ = 0 optimal threshold by quadrature + Brent.
///
/// Searches D ∈ [0.5, d_max] where `d_max` defaults to `20·rmax + 1000`
/// when passed as `None`.
pub fn optimal_threshold_sigma0(
    params: &ModelParams,
    rmax: f64,
    d_max: Option<f64>,
) -> ThresholdSolve {
    assert!(
        params.is_deterministic(),
        "σ = 0 solver requires no shadowing"
    );
    let mux = quad_multiplexing(params, rmax);
    let f = |d: f64| quad_concurrency(params, rmax, d) - mux;
    let lo = 0.5;
    let hi = d_max.unwrap_or(20.0 * rmax + 1000.0);
    let flo = f(lo);
    let fhi = f(hi);
    if flo > 0.0 && fhi > 0.0 {
        return ThresholdSolve::ConcurrencyAlways;
    }
    if flo < 0.0 && fhi < 0.0 {
        return ThresholdSolve::MultiplexingAlways;
    }
    match brent(f, lo, hi, 1e-6) {
        Ok(d) => ThresholdSolve::Crossing(d),
        Err(_) => ThresholdSolve::MultiplexingAlways,
    }
}

/// Solve for the optimal threshold with shadowing, by tabulating the
/// Monte Carlo ⟨C_concurrent⟩(D) − ⟨C_multiplexing⟩ difference on a log
/// grid and interpolating the sign change.
///
/// The grid uses one common ensemble of `n_per_point` configurations,
/// drawn once and scored at all 48 grid points ([`mc_averages_grid`]):
/// the difference curve is smooth in D rather than jittered
/// point-to-point, and each point is bitwise the standalone
/// `mc_averages` at that D with the same seed.
pub fn optimal_threshold(
    params: &ModelParams,
    rmax: f64,
    n_per_point: u64,
    seed: u64,
) -> ThresholdSolve {
    if params.is_deterministic() {
        return optimal_threshold_sigma0(params, rmax, None);
    }
    let d_lo = 1.0;
    let d_hi = 20.0 * rmax + 1000.0;
    let n_grid = 48;
    let ds: Vec<f64> = (0..n_grid)
        .map(|i| {
            let t = i as f64 / (n_grid - 1) as f64;
            d_lo * (d_hi / d_lo).powf(t)
        })
        .collect();
    let avgs = mc_averages_grid(params, rmax, &ds, 55.0, n_per_point, seed);
    let xs: Vec<f64> = ds.iter().map(|d| d.ln()).collect();
    let ys: Vec<f64> = avgs
        .iter()
        .map(|avg| avg.concurrency.mean - avg.multiplexing.mean)
        .collect();
    if ys[0] > 0.0 && *ys.last().unwrap() > 0.0 {
        return ThresholdSolve::ConcurrencyAlways;
    }
    if ys[0] < 0.0 && *ys.last().unwrap() < 0.0 {
        return ThresholdSolve::MultiplexingAlways;
    }
    let interp = LinearInterp::new(xs, ys);
    match brent(|x| interp.eval(x), d_lo.ln(), d_hi.ln(), 1e-9) {
        Ok(lx) => ThresholdSolve::Crossing(lx.exp()),
        Err(_) => ThresholdSolve::MultiplexingAlways,
    }
}

/// Footnote 13's short-range asymptotic:
/// D* ≈ e^(−1/4) · √Rmax · N^(−1/(2α)) (actual distance units).
pub fn short_range_asymptotic_threshold(alpha: f64, rmax: f64, noise: f64) -> f64 {
    (-0.25f64).exp() * rmax.sqrt() * noise.powf(-1.0 / (2.0 * alpha))
}

/// Figure 7's y-axis convention: express a threshold *power* as the
/// equivalent distance at α = 3. Since P_thresh = D_thresh^(−α), the
/// α = 3 equivalent distance is D_thresh^(α/3).
pub fn equivalent_distance_alpha3(d_thresh: f64, alpha: f64) -> f64 {
    d_thresh.powf(alpha / 3.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rmax20_threshold_near_40() {
        // §3.3.3: "Rmax = 20 corresponds to an optimal threshold about
        // Dthresh ≈ 40".
        let p = ModelParams::paper_sigma0();
        let d = optimal_threshold_sigma0(&p, 20.0, None).crossing().unwrap();
        assert!((36.0..46.0).contains(&d), "{d}");
    }

    #[test]
    fn rmax120_threshold_near_75() {
        // §3.3.3: "Rmax = 120 corresponds to Dthresh ≈ 75".
        let p = ModelParams::paper_sigma0();
        let d = optimal_threshold_sigma0(&p, 120.0, None)
            .crossing()
            .unwrap();
        assert!((65.0..90.0).contains(&d), "{d}");
    }

    #[test]
    fn asymptotic_matches_small_rmax() {
        // Footnote 13 is the Rmax → 0 limit; at Rmax = 5 the solver and
        // the formula should agree within ~15 %.
        let p = ModelParams::paper_sigma0();
        let solved = optimal_threshold_sigma0(&p, 5.0, None).crossing().unwrap();
        let approx = short_range_asymptotic_threshold(3.0, 5.0, p.prop.noise);
        assert!(
            (solved - approx).abs() / solved < 0.15,
            "solved {solved} vs asymptotic {approx}"
        );
    }

    #[test]
    fn asymptotic_reproduces_paper_example() {
        // e^(−1/4)·√20·10^(6.5/6) ≈ 42 ≈ the paper's "Dthresh ≈ 40" at
        // Rmax = 20.
        let v = short_range_asymptotic_threshold(3.0, 20.0, 10f64.powf(-6.5));
        assert!((40.0..45.0).contains(&v), "{v}");
    }

    #[test]
    fn threshold_grows_with_rmax() {
        let p = ModelParams::paper_sigma0();
        let d20 = optimal_threshold_sigma0(&p, 20.0, None).crossing().unwrap();
        let d55 = optimal_threshold_sigma0(&p, 55.0, None).crossing().unwrap();
        let d120 = optimal_threshold_sigma0(&p, 120.0, None)
            .crossing()
            .unwrap();
        assert!(d20 < d55 && d55 < d120, "{d20} {d55} {d120}");
    }

    #[test]
    fn short_range_threshold_outside_network_long_range_inside() {
        // §3.3.3: short range ⇒ threshold well outside the network
        // boundary; long range ⇒ inside.
        let p = ModelParams::paper_sigma0();
        let d20 = optimal_threshold_sigma0(&p, 20.0, None).crossing().unwrap();
        assert!(d20 > 20.0 * 1.8);
        let d120 = optimal_threshold_sigma0(&p, 120.0, None)
            .crossing()
            .unwrap();
        assert!(d120 < 120.0);
    }

    #[test]
    fn equivalent_distance_identity_at_alpha3() {
        assert!((equivalent_distance_alpha3(55.0, 3.0) - 55.0).abs() < 1e-12);
        // At α = 4 a threshold distance of 55 is a *stronger* (farther)
        // equivalent at α = 3.
        assert!(equivalent_distance_alpha3(55.0, 4.0) > 55.0);
        assert!(equivalent_distance_alpha3(55.0, 2.0) < 55.0);
    }

    #[test]
    fn shadowed_threshold_shifts_left_at_long_range() {
        // §3.4: shadowing produces "a leftward shift in their optimal
        // thresholds" for long-range networks.
        let s0 = ModelParams::paper_sigma0();
        let s8 = ModelParams::paper_default();
        let rmax = 120.0;
        let d0 = optimal_threshold_sigma0(&s0, rmax, None)
            .crossing()
            .unwrap();
        let d8 = optimal_threshold(&s8, rmax, 30_000, 9).crossing().unwrap();
        assert!(d8 < d0, "σ=8 threshold {d8} should be left of σ=0 {d0}");
    }

    #[test]
    fn mc_solver_agrees_with_quadrature_when_sigma0() {
        let p = ModelParams::paper_sigma0();
        let a = optimal_threshold(&p, 40.0, 10_000, 1).crossing().unwrap();
        let b = optimal_threshold_sigma0(&p, 40.0, None).crossing().unwrap();
        assert!((a - b).abs() / b < 0.02, "{a} vs {b}");
    }
}
