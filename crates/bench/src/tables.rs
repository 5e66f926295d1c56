//! Regenerators for the §3.2.5 efficiency tables and the α/σ sweep.

use crate::Effort;
use wcs_core::efficiency::{plan_efficiency_table, EfficiencyTable};
use wcs_core::params::ModelParams;
use wcs_core::sensitivity::{plan_alpha_sigma, sweep_rows, sweep_spread, SweepRow};
use wcs_core::threshold::optimal_threshold;
use wcs_runtime::Engine;

/// `wcs_core::efficiency::efficiency_table` with its cells fanned out on
/// `engine`: the same planned cells and seeds, so the same table at any
/// thread count.
pub fn efficiency_table_on(
    engine: &Engine,
    params: &ModelParams,
    rmaxes: &[f64],
    ds: &[f64],
    thresholds: &[f64],
    n: u64,
    seed: u64,
) -> EfficiencyTable {
    let tasks = plan_efficiency_table(params, rmaxes, ds, thresholds, seed);
    EfficiencyTable::from_cells(rmaxes, ds, engine.map(&tasks, |t| t.run(n)))
}

/// `wcs_core::sensitivity::sweep_alpha_sigma` with its cells fanned out
/// on `engine` (same cells, same seeds, same rows).
pub fn sweep_alpha_sigma_on(
    engine: &Engine,
    alphas: &[f64],
    sigmas: &[f64],
    n: u64,
    seed: u64,
) -> Vec<SweepRow> {
    let tasks = plan_alpha_sigma(alphas, sigmas, seed);
    sweep_rows(alphas, sigmas, &engine.map(&tasks, |t| t.run(n)))
}

/// Table 1 — carrier-sense throughput as % of optimal, fixed
/// D_thresh = 55, α = 3, σ = 8 dB.
pub fn table1(effort: Effort) -> String {
    let p = ModelParams::paper_default();
    let t = efficiency_table_on(
        &crate::engine(),
        &p,
        &[20.0, 40.0, 120.0],
        &[20.0, 55.0, 120.0],
        &[55.0, 55.0, 55.0],
        effort.mc_samples(),
        1,
    );
    format!(
        "# Table 1 (§3.2.5): CS as a fraction of optimal, Dthresh = 55, α = 3, σ = 8 dB\n\
         # paper:  96 88 96 / 96 87 96 / 89 83 92\n{}",
        t.render()
    )
}

/// Table 2 — thresholds re-optimised per Rmax. The paper quotes
/// Dthresh = 40/55/60 for Rmax = 20/40/120; we solve for ours and report
/// both.
pub fn table2(effort: Effort) -> String {
    let p = ModelParams::paper_default();
    let rmaxes = [20.0, 40.0, 120.0];
    // Per-Rmax threshold solves are independent — engine tasks (seed 2
    // per solve, as the serial loop used).
    let engine = crate::engine();
    let thresholds = engine.map(&rmaxes, |&rmax| {
        optimal_threshold(&p, rmax, effort.mc_samples() / 4, 2)
            .crossing()
            .unwrap_or(55.0)
    });
    let t = efficiency_table_on(
        &engine,
        &p,
        &rmaxes,
        &[20.0, 55.0, 120.0],
        &thresholds,
        effort.mc_samples(),
        3,
    );
    format!(
        "# Table 2 (§3.2.5): per-Rmax optimised thresholds (paper used 40/55/60)\n\
         # our solved thresholds: {:.0} / {:.0} / {:.0}\n\
         # paper:  93 91 99 / 96 87 96 / 89 83 92\n{}",
        thresholds[0],
        thresholds[1],
        thresholds[2],
        t.render()
    )
}

/// The omitted α/σ sweep ("very little change is observed").
pub fn alpha_sigma_sweep(effort: Effort) -> String {
    let rows = sweep_alpha_sigma_on(
        &crate::engine(),
        &[2.0, 3.0, 4.0],
        &[4.0, 8.0, 12.0],
        effort.mc_samples() / 4,
        4,
    );
    let mut out = String::from(
        "# α/σ sensitivity sweep of Table 1 (fixed 13 dB power threshold)\n# alpha\tsigma\tmean_eff\tmin_eff\n",
    );
    for r in &rows {
        out.push_str(&format!(
            "{}\t{}\t{:.3}\t{:.3}\n",
            r.alpha,
            r.sigma_db,
            r.mean_efficiency(),
            r.min_efficiency()
        ));
    }
    out.push_str(&format!("# spread of means: {:.3}\n", sweep_spread(&rows)));
    out
}

/// The §3.3.2 counterfactual: carrier-sense efficiency under Shannon vs
/// the 802.11a staircase vs a single fixed modulation.
pub fn fixed_bitrate_report(effort: Effort) -> String {
    use wcs_core::fixed_bitrate::compare_shapes;
    let p = ModelParams::paper_default();
    let mut out = String::from(
        "# §3.3.2 counterfactual: CS efficiency by throughput shape\n# Rmax\tD\tshannon\tstaircase\tsingle-12Mbps\n",
    );
    for (rmax, d) in [(20.0, 40.0), (55.0, 55.0), (120.0, 90.0)] {
        let c = compare_shapes(&p, rmax, d, 55.0, effort.mc_samples() / 2, 5);
        out.push_str(&format!(
            "{rmax}\t{d}\t{:.3}\t{:.3}\t{:.3}\n",
            c.shannon, c.staircase, c.single_rate
        ));
    }
    out.push_str(
        "# adaptive bitrate (Shannon) keeps CS near-optimal; a single fixed\n# modulation's throughput cliff is what made hidden/exposed terminals look dire.\n",
    );
    out
}
