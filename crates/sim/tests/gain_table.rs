//! The world's precomputed gain table must equal the channel formula it
//! replaced — path loss × frozen shadow, times transmit power — bit for
//! bit, for every ordered pair. The formula lives only here, as the
//! reference.

use proptest::prelude::*;
use rand::Rng;
use wcs_propagation::geometry::Point2;
use wcs_propagation::shadowing::{ShadowField, Shadowing};
use wcs_sim::{ChannelConfig, NodeId, World};
use wcs_stats::rng::seeded_rng;

/// Received power by the pre-table expression, straight from the model.
fn formula_rx(
    cfg: &ChannelConfig,
    field: &mut ShadowField,
    positions: &[Point2],
    a: usize,
    b: usize,
) -> f64 {
    let d = positions[a].distance(&positions[b]);
    cfg.tx_power * (cfg.path_loss.gain(d) * field.gain_linear(a as u32, b as u32))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn table_equals_the_channel_formula_bitwise(
        n in 2usize..61,
        sigma in 0usize..3,
        seed in 0u64..1_000_000,
        span in 1.0..400.0f64,
        tx_power in 0.25..4.0f64,
    ) {
        let mut rng = seeded_rng(seed);
        let positions: Vec<Point2> = (0..n)
            .map(|_| Point2::new(rng.gen_range(0.0..span), rng.gen_range(0.0..span / 2.0)))
            .collect();
        let mut cfg = ChannelConfig::paper_testbed();
        cfg.shadowing = Shadowing::new([0.0, 8.0, 10.0][sigma]);
        cfg.tx_power = tx_power;
        let world = World::new(positions.clone(), cfg, seed ^ 0x5AAD);
        let mut field = ShadowField::new(cfg.shadowing, seed ^ 0x5AAD);
        for a in 0..n {
            for b in (0..n).filter(|&b| b != a) {
                let want = formula_rx(&cfg, &mut field, &positions, a, b);
                let (na, nb) = (NodeId(a as u32), NodeId(b as u32));
                prop_assert_eq!(
                    world.rx_power(na, nb).to_bits(),
                    want.to_bits(),
                    "n={} σ-index={} seed={} pair {}→{}", n, sigma, seed, a, b
                );
                prop_assert_eq!(world.gain(na, nb), world.gain(nb, na));
            }
        }
    }
}
