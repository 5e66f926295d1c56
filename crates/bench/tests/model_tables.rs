//! The engine fan-out of the model tables: Tables 1/2 and the α/σ sweep
//! run their cells on the engine, and must print exactly what the serial
//! `wcs-core` loops produce, at any thread count.

use std::process::Command;
use wcs_bench::tables::{efficiency_table_on, sweep_alpha_sigma_on};
use wcs_core::efficiency::efficiency_table;
use wcs_core::params::ModelParams;
use wcs_core::sensitivity::sweep_alpha_sigma;
use wcs_runtime::Engine;

#[test]
fn engine_efficiency_table_equals_serial() {
    let p = ModelParams::paper_default();
    let (rmaxes, ds, thresholds) = ([20.0, 40.0, 120.0], [20.0, 55.0, 120.0], [40.0, 55.0, 60.0]);
    let serial = efficiency_table(&p, &rmaxes, &ds, &thresholds, 2_000, 3);
    for threads in [1, 4] {
        let mapped = efficiency_table_on(
            &Engine::new(threads),
            &p,
            &rmaxes,
            &ds,
            &thresholds,
            2_000,
            3,
        );
        // Debug formatting prints every f64 exactly (shortest round trip).
        assert_eq!(
            format!("{mapped:?}"),
            format!("{serial:?}"),
            "threads={threads}"
        );
        assert_eq!(mapped.render(), serial.render());
    }
}

#[test]
fn engine_alpha_sigma_sweep_equals_serial() {
    let (alphas, sigmas) = ([2.0, 3.0, 4.0], [4.0, 12.0]);
    let serial = sweep_alpha_sigma(&alphas, &sigmas, 500, 4);
    assert_eq!(serial.len(), 6);
    for threads in [1, 4] {
        let mapped = sweep_alpha_sigma_on(&Engine::new(threads), &alphas, &sigmas, 500, 4);
        assert_eq!(
            format!("{mapped:?}"),
            format!("{serial:?}"),
            "threads={threads}"
        );
    }
}

#[test]
fn model_tables_print_the_same_bytes_at_any_wcs_threads() {
    let run = |threads: &str| {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["table1", "table2", "sweep-alpha-sigma"])
            .env("WCS_THREADS", threads)
            .output()
            .expect("spawn repro");
        assert!(
            out.status.success(),
            "WCS_THREADS={threads}: {}",
            out.status
        );
        out.stdout
    };
    let one = run("1");
    assert!(String::from_utf8_lossy(&one).contains("Table 2"));
    assert_eq!(one, run("4"), "table bytes must not depend on WCS_THREADS");
}
