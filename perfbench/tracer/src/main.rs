//! The benchmark's traced pass and output checks.
//!
//! ```text
//! perfbench-trace trace <paper|model_sweep|serve|dispatch> --out FILE [workload flags]
//! perfbench-trace check-tasks --spec FILE --layout v1|v2 --cache-dir DIR --csv FILE --seed N --sample K
//! perfbench-trace reference --template FILE --seeds FILE --out DIR
//! perfbench-trace maxrss -- CMD [ARGS...]
//! ```
//!
//! `trace` runs one workload in-process, calling the same public
//! functions `repro` calls, in the same order, under the same always-on
//! flight recorder. It records a span around every call into a layer
//! (name, start, end, parent span, op id) and counts at the same
//! boundaries, keeps them in memory, and writes them out once at the
//! end as JSON. `perfbench/run.py` turns them into per-layer metrics.
//!
//! `check-tasks` reruns a seeded sample of a sweep's tasks on a 1-thread
//! engine and compares their rows with the stored result; `reference`
//! computes the CSV of a spec for each seed in-process. Both exit 1 on
//! a mismatch. `maxrss` runs a command and prints its high-water RSS
//! (its own and that of every child it waited for) on stderr: a launcher
//! this small keeps the Python harness's own RSS out of the figure.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use wcs_bench::{figures, render_series, tables, Effort, TestbedCategory};
use wcs_runtime::{
    parse_any_spec_toml, AnyWorkload, CacheEntry, Engine, IndexQuery, ResultCache, ResultIndex,
    RowPage, RunReport, StreamLayout, Topology, WorkloadSpec,
};
use wcs_sim::experiment::{
    plan_ensemble, run_planned, summarize, ExperimentConfig, ExperimentPoint, PlannedPair,
};
use wcs_sim::mac::{CcaMode, MacConfig};
use wcs_sim::rate::RatePolicy;
use wcs_sim::testbed::{testbed_phy, Testbed, TestbedConfig};
use wcs_sim::{Duration, SimConfig, Simulator};
use wcs_stats::fit::fit_pathloss_shadowing;
use wcs_telemetry::json::json_string;
use wcs_telemetry::{Collector, Event, EventKind, Value};

// ------------------------------------------------------------------ spans

struct Span {
    name: String,
    start: u64,
    end: u64,
    parent: Option<usize>,
    op: u64,
}

/// In-memory span and counter store, written out once at the end.
struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    counters: Mutex<BTreeMap<String, f64>>,
    checks: Mutex<Vec<(bool, String)>>,
}

/// An open span; closes (stamps its end) on drop.
struct Open<'a> {
    tracer: &'a Tracer,
    id: usize,
}

impl Open<'_> {
    fn id(&self) -> usize {
        self.id
    }
}

impl Drop for Open<'_> {
    fn drop(&mut self) {
        let end = self.tracer.now();
        self.tracer.spans.lock().expect("span store poisoned")[self.id].end = end;
    }
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            counters: Mutex::new(BTreeMap::new()),
            checks: Mutex::new(Vec::new()),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn span(&self, name: &str, parent: Option<usize>, op: u64) -> Open<'_> {
        let start = self.now();
        let mut spans = self.spans.lock().expect("span store poisoned");
        spans.push(Span {
            name: name.to_string(),
            start,
            end: start,
            parent,
            op,
        });
        Open {
            tracer: self,
            id: spans.len() - 1,
        }
    }

    /// Run `f` inside a span.
    fn time<T>(&self, name: &str, parent: Option<usize>, op: u64, f: impl FnOnce() -> T) -> T {
        let _s = self.span(name, parent, op);
        f()
    }

    fn add(&self, name: &str, v: f64) {
        *self
            .counters
            .lock()
            .expect("counter store poisoned")
            .entry(name.to_string())
            .or_insert(0.0) += v;
    }

    fn check(&self, ok: bool, what: impl Into<String>) {
        let what = what.into();
        if !ok {
            eprintln!("check failed: {what}");
        }
        self.checks
            .lock()
            .expect("check store poisoned")
            .push((ok, what));
    }

    fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("{\"spans\":[");
        for (i, s) in self
            .spans
            .lock()
            .expect("span store poisoned")
            .iter()
            .enumerate()
        {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":{},\"start\":{},\"end\":{},\"parent\":{parent},\"op\":{}}}",
                json_string(&s.name),
                s.start,
                s.end,
                s.op
            ));
        }
        out.push_str("],\"counters\":{");
        let counters = self.counters.lock().expect("counter store poisoned");
        let body: Vec<String> = counters
            .iter()
            .map(|(k, v)| format!("{}:{v:?}", json_string(k)))
            .collect();
        out.push_str(&body.join(","));
        out.push_str("},\"checks\":[");
        let checks = self.checks.lock().expect("check store poisoned");
        let body: Vec<String> = checks
            .iter()
            .map(|(ok, what)| format!("{{\"ok\":{ok},\"what\":{}}}", json_string(what)))
            .collect();
        out.push_str(&body.join(","));
        out.push_str("]}\n");
        std::fs::write(path, out)
    }
}

/// Folds the program's own telemetry into counters: engine busy and
/// capacity time (for `engine.utilization`), bytes the cache stored, and
/// each served job's execution time. Wrapped by the same flight recorder
/// `repro` installs.
#[derive(Default)]
struct Capture(Mutex<Captured>);

#[derive(Default)]
struct Captured {
    busy_ns: u64,
    thread_ns: u64,
    store_bytes: u64,
    job_exec_ns: BTreeMap<u64, u64>,
}

fn field_u64(e: &Event, key: &str) -> u64 {
    match e.field(key) {
        Some(Value::U64(v)) => *v,
        _ => 0,
    }
}

impl Collector for Capture {
    fn record(&self, e: &Event) {
        let mut c = self.0.lock().expect("capture poisoned");
        match (e.kind, e.name.as_str()) {
            (EventKind::Value, "engine.worker") => c.busy_ns += field_u64(e, "busy_ns"),
            (EventKind::SpanExit, "engine.run") => {
                c.thread_ns += field_u64(e, "dur_ns") * field_u64(e, "threads");
            }
            (EventKind::Counter, "cache.store") => c.store_bytes += field_u64(e, "bytes"),
            (EventKind::Value, "serve.job") => {
                c.job_exec_ns
                    .insert(field_u64(e, "id"), field_u64(e, "dur_ns"));
            }
            _ => {}
        }
    }
}

fn install_recorder() -> Arc<Capture> {
    let capture = Arc::new(Capture::default());
    let cap = wcs_telemetry::flight::FlightRecorder::DEFAULT_CAP;
    let rec = wcs_telemetry::flight::FlightRecorder::wrapping(cap, capture.clone());
    wcs_telemetry::install(Arc::new(rec));
    capture
}

/// A [`ResultIndex`] that spans every call into the cache/index layer.
struct TracedIndex<'a> {
    inner: ResultCache,
    tracer: &'a Tracer,
}

impl ResultIndex for TracedIndex<'_> {
    fn describe(&self) -> String {
        self.inner.describe()
    }
    fn query(&self, q: &IndexQuery) -> std::io::Result<Vec<CacheEntry>> {
        self.tracer
            .time("index.query", None, 0, || self.inner.query(q))
    }
    fn load_report(&self, w: &dyn WorkloadSpec) -> Option<RunReport> {
        self.tracer
            .time("cache.load", None, 0, || self.inner.load_report(w))
    }
    fn store_report(&self, w: &dyn WorkloadSpec, r: &RunReport) -> std::io::Result<()> {
        self.tracer
            .time("cache.store", None, 0, || self.inner.store_report(w, r))
    }
    fn read_rows(
        &self,
        h: u64,
        s: u64,
        start: usize,
        n: usize,
    ) -> std::io::Result<Option<RowPage>> {
        self.tracer.time("index.rows_page", None, 0, || {
            self.inner.read_rows(h, s, start, n)
        })
    }
    fn remove(&self, q: &IndexQuery) -> std::io::Result<usize> {
        self.inner.remove(q)
    }
    fn load_blob(&self, name: &str) -> Option<String> {
        self.inner.load_blob(name)
    }
    fn store_blob(&self, name: &str, text: &str) -> std::io::Result<()> {
        self.inner.store_blob(name, text)
    }
    fn list_blobs(&self, suffix: &str) -> std::io::Result<Vec<String>> {
        self.inner.list_blobs(suffix)
    }
}

// ------------------------------------------------------------------ args

struct Args(Vec<String>);

impl Args {
    fn get(&self, flag: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == flag)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }
    fn req(&self, flag: &str) -> &str {
        self.get(flag)
            .unwrap_or_else(|| die(&format!("missing {flag}")))
    }
    fn num(&self, flag: &str) -> u64 {
        self.req(flag)
            .parse()
            .unwrap_or_else(|_| die(&format!("{flag} needs an integer")))
    }
}

fn die(msg: &str) -> ! {
    eprintln!("perfbench-trace: {msg}");
    std::process::exit(2);
}

/// SplitMix64: the benchmark's own seeded choices.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn load_spec(path: &str, layout: Option<&str>) -> AnyWorkload {
    let w = wcs_runtime::load_any_spec_file(Path::new(path))
        .unwrap_or_else(|e| die(&format!("{path}: {e}")));
    match (w, layout) {
        (AnyWorkload::Model(mut s), Some(l)) => {
            s.stream_layout =
                StreamLayout::from_label(l).unwrap_or_else(|| die(&format!("bad layout {l}")));
            AnyWorkload::Model(s)
        }
        (w, _) => w,
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = Args(argv.clone());
    match argv.first().map(String::as_str) {
        Some("trace") => {
            let workload = argv.get(1).cloned().unwrap_or_default();
            // 'static, so the daemon's traced index can hold it.
            let tracer: &'static Tracer = Box::leak(Box::new(Tracer::new()));
            let capture = install_recorder();
            match workload.as_str() {
                "paper" => trace_paper(tracer, &args),
                "model_sweep" => trace_model_sweep(tracer, &args),
                "serve" => trace_serve(tracer, &args, &capture),
                "dispatch" => trace_dispatch(tracer, &args),
                other => die(&format!("unknown workload '{other}'")),
            }
            let c = capture.0.lock().expect("capture poisoned");
            tracer.add("engine.busy_ns", c.busy_ns as f64);
            tracer.add("engine.thread_ns", c.thread_ns as f64);
            tracer.add("cache.store.bytes", c.store_bytes as f64);
            tracer
                .write(Path::new(args.req("--out")))
                .unwrap_or_else(|e| die(&format!("cannot write trace: {e}")));
        }
        Some("maxrss") => maxrss(&argv[1..]),
        Some("check-tasks") => check_tasks(&args),
        Some("reference") => reference(&args),
        _ => die("usage: perfbench-trace trace|check-tasks|reference|maxrss ..."),
    }
}

// ------------------------------------------------------------------ paper

/// `repro all`'s experiments, in its order.
const ALL: &[&str] = &[
    "table1",
    "table2",
    "sweep-alpha-sigma",
    "fig2",
    "fig3",
    "fig4-5",
    "fig6",
    "fig7",
    "fig9",
    "slope-bound",
    "shadow-example",
    "fig10-11",
    "fig12-13",
    "fig14",
    "exposed-vs-rate",
    "pathologies",
    "fairness",
    "fig8-barrier",
    "fixed-bitrate",
];

/// The harness's §4 experiment configuration at quick effort (the
/// private `experiment_config` of `wcs-bench`): quick run length and the
/// harness ensemble seed.
fn experiment_config(effort: Effort) -> ExperimentConfig {
    ExperimentConfig {
        run_duration: Duration::from_secs(effort.run_secs()),
        seed: 6,
        ..ExperimentConfig::default()
    }
}

/// Every planned pair the sim experiments ran, with the point they got.
type Ran = Vec<(ExperimentConfig, PlannedPair, ExperimentPoint)>;

fn testbed(
    tracer: &Tracer,
    parent: usize,
    op: u64,
    lo: f64,
    hi: f64,
) -> (Testbed, Vec<wcs_sim::testbed::CandidateLink>) {
    let _s = tracer.span("sim.testbed", Some(parent), op);
    let bed = Testbed::generate(TestbedConfig::default());
    let links = bed.candidate_links(lo, hi);
    (bed, links)
}

fn testbed_report(
    tracer: &Tracer,
    cat: TestbedCategory,
    parent: usize,
    op: u64,
    ran: &mut Ran,
) -> String {
    let effort = Effort::Quick;
    let (lo, hi) = cat.delivery_window();
    let (bed, links) = testbed(tracer, parent, op, lo, hi);
    let cfg = experiment_config(effort);
    let planned = tracer.time("sim.plan", Some(parent), op, || {
        plan_ensemble(&links, effort.ensemble_points(), &cfg)
    });
    let points: Vec<ExperimentPoint> = wcs_bench::engine().map(&planned, |p| {
        let pair = tracer.span("sim.pair", Some(parent), op);
        replay_pair(tracer, &bed, p, &cfg, pair.id(), op)
    });
    for (p, pt) in planned.iter().zip(&points) {
        ran.push((cfg.clone(), *p, *pt));
    }
    let summary = summarize(&points);
    let rows: Vec<Vec<f64>> = points
        .iter()
        .map(|p| {
            vec![
                p.sender_rssi_db,
                p.carrier_sense_pps,
                p.multiplexing_pps,
                p.concurrency_pps,
                p.optimal_pps(),
            ]
        })
        .collect();
    let (figs, table, paper) = match cat {
        TestbedCategory::ShortRange => (
            "Figures 10/11",
            "§4.1",
            "paper: Optimal 1753, CS 1703 (97%), Mux 1013 (58%), Conc 1563 (89%)",
        ),
        TestbedCategory::LongRange => (
            "Figures 12/13",
            "§4.2",
            "paper: Optimal 1029, CS 923 (90%), Mux 753 (73%), Conc 709 (69%)",
        ),
    };
    format!(
        "{}\n# {table} summary ({} points; {})\n{}",
        render_series(
            &format!("{figs}: per-point throughput vs sender-sender RSSI ({cat:?})"),
            &[
                "sender_rssi_db",
                "carrier_sense",
                "multiplexing",
                "concurrency",
                "optimal"
            ],
            &rows,
        ),
        summary.n_points,
        paper,
        summary.render()
    )
}

fn exposed_vs_rate_report(tracer: &Tracer, parent: usize, op: u64, ran: &mut Ran) -> String {
    let effort = Effort::Quick;
    let (bed, links) = testbed(tracer, parent, op, 0.94, 1.0);
    let cfg = experiment_config(effort);
    let n_points = effort.ensemble_points() / 2;
    let base_cfg = ExperimentConfig {
        rates_mbps: vec![6.0],
        ..cfg.clone()
    };
    // `exposed_vs_rate` runs its two ensembles serially, outside the
    // engine: the same plan-then-run composition `run_ensemble` is.
    let mut ensemble = |c: &ExperimentConfig| -> Vec<ExperimentPoint> {
        let serial = tracer.span("sim.serial", Some(parent), op);
        let planned = tracer.time("sim.plan", Some(serial.id()), op, || {
            plan_ensemble(&links, n_points, c)
        });
        planned
            .iter()
            .map(|p| {
                let pair = tracer.span("sim.pair", Some(serial.id()), op);
                let pt = replay_pair(tracer, &bed, p, c, pair.id(), op);
                drop(pair);
                ran.push((c.clone(), *p, pt));
                pt
            })
            .collect()
    };
    let base = ensemble(&base_cfg);
    let full = ensemble(&cfg);
    let mean = |f: &dyn Fn(&ExperimentPoint) -> f64, pts: &[ExperimentPoint]| {
        pts.iter().map(f).sum::<f64>() / pts.len() as f64
    };
    let base_rate_cs = mean(&|p| p.carrier_sense_pps, &base);
    let adapted_cs = mean(&|p| p.carrier_sense_pps, &full);
    let base_exposed = mean(&|p| p.carrier_sense_pps.max(p.concurrency_pps), &base);
    let adapted_exposed = mean(&|p| p.carrier_sense_pps.max(p.concurrency_pps), &full);
    format!(
        "# §5 informal experiment (short-range ensemble)\n\
         base rate (6 Mbps) under CS:     {:.0} pkt/s\n\
         bitrate adaptation alone:        {:.0} pkt/s  ({:.2}x; paper: >2x)\n\
         exposed exploitation alone:      {:.0} pkt/s  (+{:.0}%; paper: ≈+10%)\n\
         both:                            {:.0} pkt/s  (+{:.0}% over adaptation; paper: ≈+3%)\n",
        base_rate_cs,
        adapted_cs,
        adapted_cs / base_rate_cs,
        base_exposed,
        100.0 * (base_exposed / base_rate_cs - 1.0),
        adapted_exposed,
        100.0 * (adapted_exposed / adapted_cs - 1.0),
    )
}

/// Figure 14, composed as `wcs_bench::experiments::fig14` composes it.
fn fig14(tracer: &Tracer, parent: usize, op: u64) -> String {
    let bed = tracer.time("sim.testbed", Some(parent), op, || {
        Testbed::generate(TestbedConfig::default())
    });
    let (obs, cens) = bed.rssi_survey(3.0);
    let fit = fit_pathloss_shadowing(&obs, &cens, 3.0, 20.0);
    format!(
        "# Figure 14: path-loss/shadowing ML fit on the testbed RSSI survey\n\
         observed links: {} (censored: {})\n\
         fitted α = {:.2}   (generation truth 3.5; paper's hardware fit 3.6)\n\
         fitted σ = {:.2} dB (generation truth 10; paper 10.4)\n\
         RSSI(R=20) = {:.1} dB over noise (paper: 46 dB at its scale)\n",
        obs.len(),
        cens.len(),
        fit.alpha,
        fit.sigma_db,
        fit.rssi0_db,
    )
}

fn trace_paper(tracer: &Tracer, args: &Args) {
    let effort = Effort::Quick;
    let mut ran: Ran = Vec::new();
    let mut text = String::new();
    let pass = tracer.span("pass", None, 0);
    for (op, name) in ALL.iter().enumerate() {
        let op = op as u64;
        let span = tracer.span(&format!("experiment.{name}"), Some(pass.id()), op);
        let id = span.id();
        let out = match *name {
            "table1" => tables::table1(effort),
            "table2" => tables::table2(effort),
            "sweep-alpha-sigma" => tables::alpha_sigma_sweep(effort),
            "fig2" => figures::fig2(effort),
            "fig3" => figures::fig3(effort),
            "fig4-5" => figures::fig4_5(effort),
            "fig6" => figures::fig6(effort),
            "fig7" => figures::fig7(effort),
            "fig9" => figures::fig9(effort),
            "slope-bound" => figures::slope_bound(effort),
            "shadow-example" => figures::shadow_example_report(effort),
            "fig10-11" => testbed_report(tracer, TestbedCategory::ShortRange, id, op, &mut ran),
            "fig12-13" => testbed_report(tracer, TestbedCategory::LongRange, id, op, &mut ran),
            "fig14" => fig14(tracer, id, op),
            "exposed-vs-rate" => exposed_vs_rate_report(tracer, id, op, &mut ran),
            "pathologies" => wcs_bench::pathology_report(effort),
            "fairness" => figures::fairness_report(effort),
            "fig8-barrier" => figures::barrier_report(effort),
            "fixed-bitrate" => tables::fixed_bitrate_report(effort),
            other => die(&format!("unknown experiment {other}")),
        };
        drop(span);
        text.push_str(&format!(
            "==================== {name} ====================\n{out}\n"
        ));
    }
    // The traced pass must print what `repro all` prints; run.py checks
    // this file's digest.
    let dir = PathBuf::from(args.req("--dir"));
    std::fs::write(dir.join("paper.out"), &text).unwrap_or_else(|e| die(&format!("{e}")));
    drop(pass);
    check_replay(tracer, &ran);
}

/// One planned pair through `Simulator::new` / `add_flow` / `run_for` /
/// `flow_stats`: the §4 protocol of `run_pair_experiment` (best fixed
/// rate per sender for each of lone-1, lone-2, concurrency and carrier
/// sense), with a span around every `run_for` and the frames counted.
/// [`check_replay`] holds it to `run_planned` bit for bit.
fn replay_pair(
    tracer: &Tracer,
    bed: &Testbed,
    planned: &PlannedPair,
    cfg: &ExperimentConfig,
    parent: usize,
    op: u64,
) -> ExperimentPoint {
    let pairs = planned.pairs;
    let sender_rssi_db = bed.world().rssi_db(pairs.link1.src, pairs.link2.src);
    // Strategy: 0 lone-1, 1 lone-2, 2 concurrency, 3 carrier sense.
    let best = |strategy: u8, base_seed: u64| -> (f64, f64) {
        let mut best = (0.0f64, 0.0f64);
        for (ri, &rate) in cfg.rates_mbps.iter().enumerate() {
            let mac = if strategy == 3 {
                MacConfig {
                    cca_mode: CcaMode::EnergyDetect,
                    cca_threshold_db: cfg.cca_threshold_db,
                    ..MacConfig::default()
                }
            } else {
                MacConfig {
                    cca_mode: CcaMode::Disabled,
                    ..MacConfig::default()
                }
            };
            let sim_cfg = SimConfig {
                phy: testbed_phy(),
                mac,
                payload_bytes: cfg.payload_bytes,
                seed: base_seed.wrapping_add(ri as u64),
            };
            let mut sim = Simulator::new(bed.world(), sim_cfg);
            let policy = RatePolicy::fixed(rate);
            let f1 = (strategy != 1)
                .then(|| sim.add_flow(pairs.link1.src, pairs.link1.dst, policy.clone()));
            let f2 = (strategy != 0)
                .then(|| sim.add_flow(pairs.link2.src, pairs.link2.dst, policy.clone()));
            tracer.time("sim.run_for", Some(parent), op, || {
                sim.run_for(cfg.run_duration)
            });
            let mut pps = [0.0f64; 2];
            for (k, f) in [f1, f2].into_iter().enumerate() {
                if let Some(i) = f {
                    let st = sim.flow_stats(i);
                    tracer.add("sim.data_frames", st.sent as f64);
                    tracer.add("sim.ctrl_frames", (st.rts_sent + st.acked) as f64);
                    tracer.add("sim.delivered", st.delivered as f64);
                    pps[k] = st.throughput_pps(cfg.run_duration);
                }
            }
            best = (best.0.max(pps[0]), best.1.max(pps[1]));
        }
        best
    };
    let seed = planned.seed;
    let (lone1, _) = best(0, seed.wrapping_add(0x100));
    let (_, lone2) = best(1, seed.wrapping_add(0x200));
    let (c1, c2) = best(2, seed.wrapping_add(0x300));
    let (s1, s2) = best(3, seed.wrapping_add(0x400));
    ExperimentPoint {
        pairs,
        sender_rssi_db,
        multiplexing_pps: (lone1 + lone2) / 2.0,
        concurrency_pps: c1 + c2,
        carrier_sense_pps: s1 + s2,
    }
}

/// Outside the pass: every replayed point must equal `run_planned`'s
/// for the same planned pair, bit for bit.
fn check_replay(tracer: &Tracer, ran: &Ran) {
    let bed = Testbed::generate(TestbedConfig::default());
    for (i, (cfg, planned, got)) in ran.iter().enumerate() {
        let want = run_planned(&bed, planned, cfg);
        let same = [
            (got.sender_rssi_db, want.sender_rssi_db),
            (got.multiplexing_pps, want.multiplexing_pps),
            (got.concurrency_pps, want.concurrency_pps),
            (got.carrier_sense_pps, want.carrier_sense_pps),
        ]
        .iter()
        .all(|(a, b)| a.to_bits() == b.to_bits())
            && got.pairs == want.pairs;
        tracer.check(
            same,
            format!("replay of planned pair {i} reproduces run_planned"),
        );
    }
}
// ------------------------------------------------------------------ model_sweep

/// The kernel layer a task exercises, e.g. `kernel.npair-n4.v2`.
fn kernel_name(t: &wcs_runtime::Task) -> String {
    let topo = match &t.topology {
        Topology::TwoPair => "twopair".to_string(),
        Topology::NPair(n) => format!("npair-n{}", n.n),
    };
    format!("kernel.{topo}.{}", t.stream_layout.label())
}

fn trace_model_sweep(tracer: &Tracer, args: &Args) {
    let dir = PathBuf::from(args.req("--dir"));
    let engine = Engine::new(0);
    let mut sweeps = Vec::new();
    let pass = tracer.span("pass", None, 0);
    for (op, path) in args.req("--specs").split(',').enumerate() {
        for layout in ["v1", "v2"] {
            let op = op as u64;
            let text =
                std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("{path}: {e}")));
            let sweep_span = tracer.span("sweep", Some(pass.id()), op);
            let w = tracer.time("spec.parse", Some(sweep_span.id()), op, || {
                parse_any_spec_toml(&text)
            });
            let Ok(AnyWorkload::Model(mut sweep)) = w else {
                die(&format!("{path}: not a model sweep spec"))
            };
            sweep.stream_layout = StreamLayout::from_label(layout).expect("known layout");
            let w = AnyWorkload::Model(sweep.clone());
            let index = TracedIndex {
                inner: ResultCache::new(dir.join(format!("cache-{op}-{layout}"))),
                tracer,
            };
            let outcome = w.run(&engine, Some(&index));
            tracer.time("report.csv", Some(sweep_span.id()), op, || {
                outcome.report.to_csv()
            });
            tracer.check(
                !outcome.cache_hit && outcome.tasks_run == w.task_count() && !outcome.store_failed,
                format!("{path} {layout}: cold sweep computed and stored every task"),
            );
            sweeps.push((op, sweep, index.inner));
        }
    }
    drop(pass);
    // Kernel cost per sample, outside the pass: single tasks on a
    // 1-thread engine, a seeded sample of each topology, each checked
    // against the stored rows.
    let mut rng = Rng(args.num("--seed") ^ 0x006d_6f64_656c);
    let serial = Engine::serial();
    for (op, sweep, cache) in &sweeps {
        let tasks = sweep.lower();
        let w = AnyWorkload::Model(sweep.clone());
        let rpt = w.rows_per_task();
        let stored = cache
            .load(sweep)
            .unwrap_or_else(|| die("stored sweep missing"));
        let mut by_kernel: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for t in &tasks {
            by_kernel.entry(kernel_name(t)).or_default().push(t.index);
        }
        for (name, idx) in &by_kernel {
            for _ in 0..4 {
                let i = idx[rng.below(idx.len())];
                let rows = tracer.time(name, None, *op, || w.run_subset(&[i], &serial));
                tracer.add(&format!("{name}.samples"), tasks[i].samples as f64);
                let same = same_rows(&rows.rows, &stored.rows[i * rpt..(i + 1) * rpt]);
                tracer.check(same, format!("{name} task {i} rerun reproduces its rows"));
            }
        }
    }
}

/// Bitwise equality of two row blocks.
fn same_rows(a: &[Vec<f64>], b: &[Vec<f64>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

/// `check-tasks`: a 1-thread rerun of a seeded sample of tasks must
/// reproduce their stored rows, and the stored result must finalize to
/// the CSV the sweep printed.
fn check_tasks(args: &Args) {
    let w = load_spec(args.req("--spec"), Some(args.req("--layout")));
    let cache = ResultCache::new(args.req("--cache-dir"));
    let printed = std::fs::read_to_string(args.req("--csv")).unwrap_or_default();
    let Some(stored) = cache.load_report(w.spec()) else {
        die("no stored result for the spec");
    };
    let mut ok = w.spec().finalize(&stored).to_csv() == printed;
    if !ok {
        eprintln!("stored result does not finalize to the printed CSV");
    }
    let mut rng = Rng(args.num("--seed") ^ 0x7461_736b);
    let rpt = w.rows_per_task();
    let serial = Engine::serial();
    for _ in 0..args.num("--sample") {
        let i = rng.below(w.task_count());
        let rerun = w.run_subset(&[i], &serial);
        if !same_rows(&rerun.rows, &stored.rows[i * rpt..(i + 1) * rpt]) {
            eprintln!("task {i}: 1-thread rerun differs from the stored rows");
            ok = false;
        }
    }
    std::process::exit(if ok { 0 } else { 1 });
}

// ------------------------------------------------------------------ serve

/// One HTTP/1.1 request over a fresh connection (the daemon closes every
/// connection after one response). Returns (status, body).
fn http(addr: &str, method: &str, path: &str, body: &str) -> std::io::Result<(u16, String)> {
    let mut s = TcpStream::connect(addr)?;
    write!(
        s,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )?;
    let mut raw = String::new();
    s.read_to_string(&mut raw)?;
    let status = raw
        .split(' ')
        .nth(1)
        .and_then(|c| c.parse().ok())
        .unwrap_or(0);
    let body = raw
        .split_once("\r\n\r\n")
        .map_or("", |(_, b)| b)
        .to_string();
    Ok((status, body))
}

fn json_field<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let at = body.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = &body[at..];
    let rest = rest.strip_prefix('"').unwrap_or(rest);
    let end = rest.find([',', '"', '}']).unwrap_or(rest.len());
    Some(&rest[..end])
}

fn sse_csv(feed: &str) -> String {
    let data: Vec<&str> = feed
        .lines()
        .filter_map(|l| l.strip_prefix("data: "))
        .collect();
    data[..data.len().saturating_sub(1)]
        .iter()
        .map(|l| format!("{l}\n"))
        .collect()
}

fn rss_kb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmRSS:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse().ok())
        })
        .unwrap_or(0.0)
}

struct ServeState {
    rng: Rng,
    left: usize,
    next_seed: u64,
    done: Vec<(u64, String)>,
    streams: BTreeMap<u64, String>,
    cold_ns: Vec<u64>,
    job_ids: Vec<u64>,
}

fn trace_serve(tracer: &'static Tracer, args: &Args, capture: &Capture) {
    let dir = PathBuf::from(args.req("--dir"));
    let template =
        std::fs::read_to_string(args.req("--template")).unwrap_or_else(|e| die(&format!("{e}")));
    let seed = args.num("--seed");
    let traced: Arc<dyn ResultIndex> = Arc::new(TracedIndex {
        inner: ResultCache::new(dir.join("cache")),
        tracer,
    });
    let cfg = wcs_serve::ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        ..wcs_serve::ServeConfig::default()
    };
    let mut server = wcs_serve::Server::start(cfg, traced).unwrap_or_else(|e| die(&format!("{e}")));
    let addr = server.addr().to_string();
    let rss0 = rss_kb();
    let state = Mutex::new(ServeState {
        rng: Rng(seed ^ 0x0073_6572_7665),
        left: args.num("--ops") as usize,
        next_seed: (seed.wrapping_mul(1_000_003) % (1 << 40)) + 1,
        done: Vec::new(),
        streams: BTreeMap::new(),
        cold_ns: Vec::new(),
        job_ids: Vec::new(),
    });
    const KINDS: [&str; 4] = ["cold", "warm", "results", "rows"];
    let mix: Vec<f64> = args
        .req("--mix")
        .split(',')
        .map(|v| v.parse().unwrap_or_else(|_| die("--mix needs four shares")))
        .collect();
    if mix.len() != KINDS.len() {
        die("--mix needs four shares");
    }
    let spec = |s: u64| template.replace("{seed}", &s.to_string());
    let client = || loop {
        let (kind, arg, op) = {
            let mut st = state.lock().expect("serve state poisoned");
            if st.left == 0 {
                return;
            }
            st.left -= 1;
            let op = st.left as u64;
            // The op mix: cumulative shares of cold, warm, results, rows.
            let mut r = st.rng.unit();
            let mut kind = "cold";
            for (k, share) in KINDS.iter().zip(&mix) {
                if r < *share {
                    kind = k;
                    break;
                }
                r -= share;
            }
            if kind != "cold" && st.done.is_empty() {
                kind = "cold";
            }
            let arg = if kind == "cold" {
                st.next_seed += 1;
                (st.next_seed - 1, String::new())
            } else {
                let n = st.done.len();
                let i = st.rng.below(n);
                st.done[i].clone()
            };
            (kind, arg, op)
        };
        let t0 = Instant::now();
        let span = tracer.span(&format!("op.{kind}"), None, op);
        match kind {
            "cold" | "warm" => {
                let body = spec(arg.0);
                let _ = tracer.time("spec.parse", Some(span.id()), op, || {
                    parse_any_spec_toml(&body)
                });
                tracer.add("serve.submissions", 1.0);
                let (status, reply) = tracer
                    .time("serve.post", Some(span.id()), op, || {
                        http(&addr, "POST", "/v1/jobs", &body)
                    })
                    .unwrap_or((0, String::new()));
                if status == 503 {
                    tracer.add("serve.refused", 1.0);
                }
                let deduped = json_field(&reply, "deduped") == Some("true");
                tracer.add("serve.deduped", if deduped { 1.0 } else { 0.0 });
                let id: u64 = json_field(&reply, "id")
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(0);
                let hash = reply
                    .find("\"hash\":\"")
                    .map(|i| reply[i + 8..i + 24].to_string())
                    .unwrap_or_default();
                let feed = tracer
                    .time("serve.rows", Some(span.id()), op, || {
                        http(&addr, "GET", &format!("/v1/jobs/{id}/rows"), "")
                    })
                    .map(|(_, f)| f)
                    .unwrap_or_default();
                let csv = sse_csv(&feed);
                let mut st = state.lock().expect("serve state poisoned");
                if kind == "cold" {
                    tracer.check(
                        (status == 202) && !deduped,
                        format!("cold submit {} admitted", arg.0),
                    );
                    st.streams.insert(arg.0, csv);
                    st.done.push((arg.0, hash));
                    st.cold_ns.push(t0.elapsed().as_nanos() as u64);
                    st.job_ids.push(id);
                } else {
                    tracer.add("serve.warm_ops", 1.0);
                    let same = st.streams.get(&arg.0) == Some(&csv);
                    tracer.check(
                        status == 200 && deduped && same,
                        format!("warm resubmit {} replays its stream", arg.0),
                    );
                }
            }
            "results" => {
                let (status, body) = tracer
                    .time("serve.results", Some(span.id()), op, || {
                        http(&addr, "GET", "/v1/results?kind=model&limit=20", "")
                    })
                    .unwrap_or((0, String::new()));
                tracer.check(
                    status == 200 && body.contains("\"entries\":[{"),
                    "results page lists entries",
                );
            }
            _ => {
                let path = format!("/v1/results/rows?hash={}&seed={}&limit=10", arg.1, arg.0);
                let (status, body) = tracer
                    .time("serve.results", Some(span.id()), op, || {
                        http(&addr, "GET", &path, "")
                    })
                    .unwrap_or((0, String::new()));
                tracer.check(
                    status == 200 && body.matches("],[").count() == 9,
                    "rows page has 10 rows",
                );
            }
        }
    };
    let clients = args.num("--clients");
    let pass = tracer.span("pass", None, 0);
    std::thread::scope(|s| {
        for _ in 0..clients {
            s.spawn(client);
        }
    });
    drop(pass);
    let st = state.into_inner().expect("serve state poisoned");
    // Queue wait = submit-to-finish (the job status) minus execution
    // (the daemon's own `serve.job` event).
    let exec = capture
        .0
        .lock()
        .expect("capture poisoned")
        .job_exec_ns
        .clone();
    for id in &st.job_ids {
        let Some(job) = server.queue().get(*id) else {
            continue;
        };
        let js = job.state();
        let elapsed = js.finished_ns.unwrap_or(js.submitted_ns) - js.submitted_ns;
        let e = exec.get(id).copied().unwrap_or(0);
        tracer.add("serve.jobs", 1.0);
        tracer.add("serve.exec_ns", e as f64);
        tracer.add("serve.queue_wait_ns", elapsed.saturating_sub(e) as f64);
    }
    tracer.add("serve.rss_growth_kb", rss_kb() - rss0);
    {
        // Every warm resubmission, and nothing else, must dedupe.
        let c = tracer.counters.lock().expect("counter store poisoned");
        let (deduped, warm) = (c.get("serve.deduped"), c.get("serve.warm_ops"));
        let ok = deduped.unwrap_or(&0.0) == warm.unwrap_or(&0.0);
        drop(c);
        tracer.check(ok, "dedupe hits equal the warm resubmissions of the op mix");
    }
    let mut cold = st.cold_ns.clone();
    cold.sort_unstable();
    if !cold.is_empty() {
        tracer.add("serve.cold_p50_ns", cold[cold.len() / 2] as f64);
    }
    server.stop();
    // Each cold stream must equal an in-process run of its spec.
    let engine = Engine::new(0);
    for (s, csv) in &st.streams {
        let w = parse_any_spec_toml(&spec(*s)).unwrap_or_else(|e| die(&format!("{e}")));
        let report = w.run(&engine, None).report;
        let want = tracer.time("report.csv", None, *s, || report.to_csv());
        tracer.check(
            &want == csv,
            format!("stream for seed {s} equals an in-process run"),
        );
    }
}

/// `reference`: the CSV of the template spec for each seed, computed
/// in-process, one `<seed>.csv` file each.
fn reference(args: &Args) {
    let template =
        std::fs::read_to_string(args.req("--template")).unwrap_or_else(|e| die(&format!("{e}")));
    let seeds =
        std::fs::read_to_string(args.req("--seeds")).unwrap_or_else(|e| die(&format!("{e}")));
    let out = PathBuf::from(args.req("--out"));
    std::fs::create_dir_all(&out).unwrap_or_else(|e| die(&format!("{e}")));
    let engine = Engine::new(0);
    for s in seeds.split_whitespace() {
        let w = parse_any_spec_toml(&template.replace("{seed}", s))
            .unwrap_or_else(|e| die(&format!("{e}")));
        let csv = w.run(&engine, None).report.to_csv();
        std::fs::write(out.join(format!("{s}.csv")), csv).unwrap_or_else(|e| die(&format!("{e}")));
    }
}

// ------------------------------------------------------------------ dispatch

fn run_child(
    tracer: &Tracer,
    name: &str,
    parent: Option<usize>,
    op: u64,
    cmd: &mut std::process::Command,
) -> Vec<u8> {
    let out = tracer.time(name, parent, op, || cmd.output());
    match out {
        Ok(o) if o.status.success() => o.stdout,
        Ok(o) => {
            tracer.check(
                false,
                format!(
                    "{name} exited {}: {}",
                    o.status,
                    String::from_utf8_lossy(&o.stderr)
                ),
            );
            Vec::new()
        }
        Err(e) => {
            tracer.check(false, format!("{name} did not start: {e}"));
            Vec::new()
        }
    }
}

fn trace_dispatch(tracer: &Tracer, args: &Args) {
    let dir = PathBuf::from(args.req("--dir"));
    let repro = PathBuf::from(args.req("--repro"));
    let spec_path = args.req("--spec");
    let k = args.num("--k") as usize;
    let w = load_spec(spec_path, None);
    let want = w.run(&Engine::new(0), None).report.to_csv();
    for op in 0..5u64 {
        let plan = dir.join(format!("plan-{op}"));
        let manifests = tracer
            .time("shard.plan", None, op, || {
                wcs_shard::write_plan(&plan, w.clone(), k, wcs_shard::ShardStrategy::Contiguous)
            })
            .unwrap_or_else(|e| die(&format!("{e}")));
        for m in &manifests {
            run_child(
                tracer,
                "shard.worker",
                None,
                op,
                std::process::Command::new(&repro)
                    .args(["shard", "worker"])
                    .arg(m)
                    .arg("--no-cache")
                    .current_dir(&dir),
            );
        }
        let merged = tracer.time("shard.merge", None, op, || {
            wcs_shard::merge_dir(&plan, None)
        });
        let same = merged.map(|m| m.report.to_csv() == want).unwrap_or(false);
        tracer.check(
            same,
            format!("plan {op}: merged CSV equals the single-process run"),
        );
        // One pass of the end-to-end op list: a shard run, then a
        // dispatch run, of the same plan.
        let pass = tracer.span("pass", None, op);
        for verb in ["shard", "dispatch"] {
            let out = run_child(
                tracer,
                &format!("{verb}.run"),
                Some(pass.id()),
                op,
                std::process::Command::new(&repro)
                    .args([
                        verb,
                        "run",
                        "--spec",
                        spec_path,
                        "-k",
                        &k.to_string(),
                        "--csv",
                        "--no-cache",
                    ])
                    .env("WCS_CACHE_DIR", dir.join("cache"))
                    .current_dir(&dir),
            );
            tracer.check(
                out == want.as_bytes(),
                format!("{verb} run {op} equals the single-process run"),
            );
        }
    }
}

// ------------------------------------------------------------------ maxrss

/// `struct rusage` of Linux on 64-bit targets: two `timeval`s, then 14
/// `long`s of which `ru_maxrss` (kilobytes) is the first.
#[repr(C)]
struct RUsage {
    times: [i64; 4],
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
}

/// Run `-- CMD ARGS...` with inherited stdio, print
/// `perfbench-maxrss-kb N` as the last stderr line, and exit with the
/// command's exit code (128 + signal when it was killed).
fn maxrss(argv: &[String]) -> ! {
    let cmd = match argv {
        [dashes, cmd @ ..] if dashes == "--" && !cmd.is_empty() => cmd,
        _ => die("usage: perfbench-trace maxrss -- CMD [ARGS...]"),
    };
    let child = std::process::Command::new(&cmd[0])
        .args(&cmd[1..])
        .spawn()
        .unwrap_or_else(|e| die(&format!("cannot start {}: {e}", cmd[0])));
    let pid = i32::try_from(child.id()).expect("pid fits in pid_t");
    let mut status = 0i32;
    let mut usage = RUsage {
        times: [0; 4],
        maxrss_kb: 0,
        rest: [0; 13],
    };
    // SAFETY: `pid` is our own unreaped child (`Child` never waited on
    // it), and `status` and `usage` are live, writable and laid out as
    // `int` and Linux's 64-bit `struct rusage`.
    let reaped = unsafe { wait4(pid, &mut status, 0, &mut usage) };
    if reaped != pid {
        die(&format!(
            "wait4 failed: {}",
            std::io::Error::last_os_error()
        ));
    }
    eprintln!("perfbench-maxrss-kb {}", usage.maxrss_kb);
    let code = if status & 0x7f == 0 {
        (status >> 8) & 0xff
    } else {
        128 + (status & 0x7f)
    };
    std::process::exit(code);
}
