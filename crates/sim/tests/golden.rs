//! Bit-exact pins of the simulator's observable output.
//!
//! The simulator's numbers feed every §4/§5 figure, and its hot path is
//! tuned for speed; these pins make any such tuning prove it changed no
//! bit. Covered: the §4 protocol (`run_planned`) on short- and
//! long-range planned pairs, under best-fixed and adaptive rates; the
//! §5 pathology scenarios; and a unicast RTS/CTS run on the testbed
//! channel (ACK/CTS control frames, NAV, retries, the sigmoid PHY's
//! reception draws), folded into a frame-trace digest.
//!
//! On a mismatch the assertion prints the whole recomputed table in
//! source form, ready to review and paste.

use wcs_sim::experiment::{plan_ensemble, run_planned, run_planned_with, RateStrategy};
use wcs_sim::mac::{AckPolicy, MacConfig, RtsCtsPolicy};
use wcs_sim::pathology::{
    chain_collision_scenario, rate_anomaly_scenario, slot_collision_scenario,
    threshold_asymmetry_scenario,
};
use wcs_sim::rate::RatePolicy;
use wcs_sim::testbed::testbed_phy;
use wcs_sim::trace::TraceKind;
use wcs_sim::{Duration, ExperimentConfig, NodeId, SimConfig, Simulator, Testbed, TestbedConfig};

fn quick_cfg() -> ExperimentConfig {
    ExperimentConfig {
        run_duration: Duration::from_secs(2),
        rates_mbps: vec![6.0, 12.0, 24.0],
        seed: 6,
        ..ExperimentConfig::default()
    }
}

/// FNV-1a over 64-bit words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn observations() -> Vec<(String, u64)> {
    let mut out: Vec<(String, u64)> = Vec::new();
    let bed = Testbed::generate(TestbedConfig::default());
    let cfg = quick_cfg();

    for (cat, lo, hi) in [("short", 0.94, 1.0), ("long", 0.80, 0.95)] {
        let links = bed.candidate_links(lo, hi);
        let planned = plan_ensemble(&links, 2, &cfg);
        for (i, p) in planned.iter().enumerate() {
            let pt = run_planned(&bed, p, &cfg);
            let tag = format!("{cat}{i}");
            out.push((format!("{tag}.sender_rssi_db"), pt.sender_rssi_db.to_bits()));
            out.push((format!("{tag}.mux"), pt.multiplexing_pps.to_bits()));
            out.push((format!("{tag}.conc"), pt.concurrency_pps.to_bits()));
            out.push((format!("{tag}.cs"), pt.carrier_sense_pps.to_bits()));
        }
        let adaptive = run_planned_with(&bed, &planned[0], &cfg, RateStrategy::Adaptive);
        out.push((
            format!("{cat}0.adaptive.mux"),
            adaptive.multiplexing_pps.to_bits(),
        ));
        out.push((
            format!("{cat}0.adaptive.conc"),
            adaptive.concurrency_pps.to_bits(),
        ));
        out.push((
            format!("{cat}0.adaptive.cs"),
            adaptive.carrier_sense_pps.to_bits(),
        ));
    }

    let d = Duration::from_secs(2);
    let slot = slot_collision_scenario(d, 1);
    out.push(("slot.sent".into(), fnv(slot.sent)));
    out.push(("slot.delivered".into(), fnv(slot.delivered)));
    out.push(("slot.loss".into(), slot.loss_fraction.to_bits()));
    let chain = chain_collision_scenario(d, 2);
    out.push((
        "chain.energy".into(),
        chain.energy_detect_delivery.to_bits(),
    ));
    out.push((
        "chain.preamble".into(),
        chain.preamble_detect_delivery.to_bits(),
    ));
    for off in [0.0, 20.0] {
        let a = threshold_asymmetry_scenario(off, d, 3);
        out.push((format!("asym{off}.deaf"), a.deaf_sent));
        out.push((format!("asym{off}.polite"), a.polite_sent));
    }
    let anomaly = rate_anomaly_scenario(d, 4);
    out.push((
        "anomaly.fast_shared".into(),
        anomaly.fast_shared_pps.to_bits(),
    ));
    out.push((
        "anomaly.slow_shared".into(),
        anomaly.slow_shared_pps.to_bits(),
    ));
    out.push((
        "anomaly.fast_alone".into(),
        anomaly.fast_alone_pps.to_bits(),
    ));
    out.push((
        "anomaly.slow_air".into(),
        anomaly.slow_airtime_fraction.to_bits(),
    ));

    // Unicast + loss-triggered RTS/CTS on the shadowed testbed channel.
    let links = bed.candidate_links(0.80, 1.0);
    let planned = plan_ensemble(&links, 1, &cfg)[0];
    let mac = MacConfig {
        ack: AckPolicy::Unicast { retry_limit: 3 },
        rts_cts: RtsCtsPolicy::LossTriggered {
            loss_threshold: 0.7,
            min_rssi_db: 10.0,
            window: 8,
            rearm_threshold: 0.9,
        },
        ..MacConfig::default()
    };
    let mut sim = Simulator::new(
        bed.world(),
        SimConfig {
            phy: testbed_phy(),
            mac,
            payload_bytes: 1400,
            seed: 11,
        },
    );
    sim.enable_trace(usize::MAX);
    let pairs = planned.pairs;
    sim.add_flow(pairs.link1.src, pairs.link1.dst, RatePolicy::fixed(24.0));
    sim.add_flow(
        pairs.link2.src,
        pairs.link2.dst,
        RatePolicy::sample_paper_subset(),
    );
    sim.set_cca_offset_db(pairs.link2.src, 6.0);
    sim.run_for(d);
    // The run must reach every control path it is here to pin.
    let (plain, protected) = (sim.flow_stats(0), sim.flow_stats(1));
    assert!(plain.acked > 0 && protected.rts_sent > 0 && protected.dropped > 0);
    for f in 0..2 {
        let s = sim.flow_stats(f);
        out.push((
            format!("unicast.flow{f}"),
            fnv([
                s.sent,
                s.delivered,
                s.acked,
                s.timeouts,
                s.dropped,
                s.rts_sent,
            ]),
        ));
    }
    let (any, overlap) = sim.occupancy_us();
    out.push(("unicast.occupancy".into(), fnv([any, overlap])));
    out.push((
        "unicast.airtime".into(),
        fnv((0..bed.len() as u32).map(|n| sim.airtime_us(NodeId(n)))),
    ));
    let trace = sim.trace().unwrap();
    out.push((
        "unicast.trace".into(),
        fnv(trace.entries().flat_map(|e| {
            let kind = match e.kind {
                TraceKind::TxStart => 2,
                TraceKind::TxEnd { delivered } => delivered as u64,
            };
            [
                e.time.0,
                kind,
                e.node.0 as u64,
                e.frame as u64,
                e.mbps.to_bits(),
                e.seq,
            ]
        })),
    ));
    out
}

const GOLDEN: &[(&str, u64)] = &[
    ("short0.sender_rssi_db", 0x403173221e8d63e5),
    ("short0.mux", 0x4095140000000000),
    ("short0.conc", 0x40a0540000000000),
    ("short0.cs", 0x4096e00000000000),
    ("short1.sender_rssi_db", 0x4008138079a1d32a),
    ("short1.mux", 0x4095760000000000),
    ("short1.conc", 0x409d9e0000000000),
    ("short1.cs", 0x409d0e0000000000),
    ("short0.adaptive.mux", 0x4095320000000000),
    ("short0.adaptive.conc", 0x40a02d0000000000),
    ("short0.adaptive.cs", 0x4096a40000000000),
    ("long0.sender_rssi_db", 0xc00f3704c5039922),
    ("long0.mux", 0x408b920000000000),
    ("long0.conc", 0x407c580000000000),
    ("long0.cs", 0x407d880000000000),
    ("long1.sender_rssi_db", 0x40215cd98531e1c5),
    ("long1.mux", 0x40857e0000000000),
    ("long1.conc", 0x4071500000000000),
    ("long1.cs", 0x4072500000000000),
    ("long0.adaptive.mux", 0x408ac60000000000),
    ("long0.adaptive.conc", 0x4073280000000000),
    ("long0.adaptive.cs", 0x4073c00000000000),
    ("slot.sent", 0x8480fcfdbc3a32b6),
    ("slot.delivered", 0x654d35cfe217325b),
    ("slot.loss", 0x3facec76bd45c5a0),
    ("chain.energy", 0x3fea8acf13579be0),
    ("chain.preamble", 0x3fb798eabb39e818),
    ("asym0.deaf", 0x00000000000003fd),
    ("asym0.polite", 0x00000000000003e5),
    ("asym20.deaf", 0x0000000000000739),
    ("asym20.polite", 0x0000000000000432),
    ("anomaly.fast_shared", 0x4077f80000000000),
    ("anomaly.slow_shared", 0x4077480000000000),
    ("anomaly.fast_alone", 0x4099f40000000000),
    ("anomaly.slow_air", 0x3fe94806a9228ebd),
    ("unicast.flow0", 0x114e12771c5d3ac3),
    ("unicast.flow1", 0x69898ecfd632c06b),
    ("unicast.occupancy", 0xf48b54ce38a5faca),
    ("unicast.airtime", 0x92d6cff443df9a8b),
    ("unicast.trace", 0xf39d8089e998e770),
];

#[test]
fn simulator_output_is_bit_identical_to_the_pinned_values() {
    let got = observations();
    let table: String = got
        .iter()
        .map(|(k, v)| format!("    (\"{k}\", 0x{v:016x}),\n"))
        .collect();
    let got_ref: Vec<(&str, u64)> = got.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    assert_eq!(
        got_ref, GOLDEN,
        "simulator output moved; recomputed table:\n{table}"
    );
}
