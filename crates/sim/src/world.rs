//! The simulated world: node positions and the static channel.
//!
//! The channel between two nodes is power-law path loss times a frozen
//! per-link lognormal shadowing draw — exactly the model the paper fits
//! to its own testbed in Figure 14 (α ≈ 3.6, σ ≈ 10.4 dB). Powers are
//! normalised as in the analysis: transmit power is 1 at unit distance
//! and the noise floor defaults to −65 dB, so "RSSI" in this simulator
//! is dB above the noise floor, matching the paper's RSSI axes.
//!
//! The channel is static, so [`World::new`] evaluates it once: every
//! shadow draw and every path loss goes into an N×N linear-gain table
//! behind an `Arc`. Channel queries are table reads through `&self`,
//! clones share the table, and the simulator's per-frame work reads the
//! sender's row instead of recomputing 49 path losses. Each shadow draw
//! is its own seeded stream (`split_rng(seed, pair)`), so drawing them
//! all up front yields exactly the values a lazy lookup would.

use serde::{Deserialize, Serialize};
use std::sync::Arc;
use wcs_propagation::geometry::Point2;
use wcs_propagation::pathloss::PathLoss;
use wcs_propagation::shadowing::{ShadowField, Shadowing};

/// Identifier of a node in the world.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct NodeId(pub u32);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Channel configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChannelConfig {
    /// Path-loss exponent α.
    pub path_loss: PathLoss,
    /// Shadowing distribution (frozen per link).
    pub shadowing: Shadowing,
    /// Normalised noise floor N = N₀/P₀ (linear).
    pub noise: f64,
    /// Transmit power (linear, relative to unit-distance reference).
    pub tx_power: f64,
}

impl ChannelConfig {
    /// The paper's testbed-like channel: α = 3.5, σ = 10 dB, −65 dB noise.
    pub fn paper_testbed() -> Self {
        ChannelConfig {
            path_loss: PathLoss::TESTBED_MEASURED,
            shadowing: Shadowing::new(10.0),
            noise: 10f64.powf(-6.5),
            tx_power: 1.0,
        }
    }

    /// The analysis channel: α = 3, σ = 8 dB.
    pub fn paper_analysis() -> Self {
        ChannelConfig {
            path_loss: PathLoss::INDOOR_TYPICAL,
            shadowing: Shadowing::PAPER_DEFAULT,
            noise: 10f64.powf(-6.5),
            tx_power: 1.0,
        }
    }

    /// Disable shadowing (deterministic geometry-only channel, handy in
    /// unit tests).
    pub fn without_shadowing(mut self) -> Self {
        self.shadowing = Shadowing::NONE;
        self
    }
}

/// The static world: positions plus the frozen channel.
#[derive(Debug, Clone)]
pub struct World {
    positions: Arc<[Point2]>,
    config: ChannelConfig,
    /// Linear gain, row-major: `gain[a·n + b]` for `a → b`; the unused
    /// diagonal holds 0.
    gain: Arc<[f64]>,
}

impl World {
    /// Build a world from node positions, evaluating the whole channel.
    pub fn new(positions: Vec<Point2>, config: ChannelConfig, seed: u64) -> Self {
        let n = positions.len();
        let mut shadow = ShadowField::new(config.shadowing, seed);
        let mut gain = vec![0.0; n * n];
        for a in 0..n {
            for b in 0..n {
                if a != b {
                    let d = positions[a].distance(&positions[b]);
                    gain[a * n + b] =
                        config.path_loss.gain(d) * shadow.gain_linear(a as u32, b as u32);
                }
            }
        }
        World {
            positions: positions.into(),
            config,
            gain: gain.into(),
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Whether the world has no nodes.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Position of a node.
    pub fn position(&self, n: NodeId) -> Point2 {
        self.positions[n.0 as usize]
    }

    /// Distance between two nodes.
    pub fn distance(&self, a: NodeId, b: NodeId) -> f64 {
        self.position(a).distance(&self.position(b))
    }

    /// The channel configuration.
    pub fn config(&self) -> ChannelConfig {
        self.config
    }

    /// Linear channel gain from `a` to every node (index = `NodeId`);
    /// the entry for `a` itself is 0.
    pub(crate) fn gain_row(&self, a: NodeId) -> &[f64] {
        let n = self.len();
        let start = a.0 as usize * n;
        &self.gain[start..start + n]
    }

    /// Linear channel *gain* from `a` to `b` (path loss × frozen shadow).
    /// Symmetric by construction.
    pub fn gain(&self, a: NodeId, b: NodeId) -> f64 {
        assert_ne!(a, b, "self-channel is undefined");
        self.gain_row(a)[b.0 as usize]
    }

    /// Received power at `b` when `a` transmits (linear).
    pub fn rx_power(&self, a: NodeId, b: NodeId) -> f64 {
        self.config.tx_power * self.gain(a, b)
    }

    /// RSSI in dB above the noise floor — the quantity the paper's
    /// Figures 11/13 plot on their x axes.
    pub fn rssi_db(&self, a: NodeId, b: NodeId) -> f64 {
        10.0 * (self.rx_power(a, b) / self.config.noise).log10()
    }

    /// Median SNR (dB) of the link ignoring shadowing — used by testbed
    /// generation to sanity-check layouts.
    pub fn median_snr_db(&self, a: NodeId, b: NodeId) -> f64 {
        let g = self.config.path_loss.gain(self.distance(a, b));
        10.0 * (self.config.tx_power * g / self.config.noise).log10()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_node_world(d: f64) -> World {
        World::new(
            vec![Point2::new(0.0, 0.0), Point2::new(d, 0.0)],
            ChannelConfig::paper_analysis().without_shadowing(),
            1,
        )
    }

    #[test]
    fn gain_is_symmetric() {
        let w = World::new(
            vec![Point2::new(0.0, 0.0), Point2::new(30.0, 40.0)],
            ChannelConfig::paper_testbed(),
            7,
        );
        let ab = w.gain(NodeId(0), NodeId(1));
        let ba = w.gain(NodeId(1), NodeId(0));
        assert_eq!(ab, ba);
    }

    #[test]
    fn rssi_matches_snr_anchors() {
        // d = 20 at α = 3 ⇒ RSSI ≈ 26 dB above noise.
        let w = two_node_world(20.0);
        assert!((w.rssi_db(NodeId(0), NodeId(1)) - 26.0).abs() < 0.2);
        let w = two_node_world(120.0);
        assert!((w.rssi_db(NodeId(0), NodeId(1)) - 2.6).abs() < 0.2);
    }

    #[test]
    fn shadowing_is_frozen() {
        let w = World::new(
            vec![Point2::new(0.0, 0.0), Point2::new(10.0, 0.0)],
            ChannelConfig::paper_testbed(),
            3,
        );
        let g1 = w.gain(NodeId(0), NodeId(1));
        let g2 = w.gain(NodeId(0), NodeId(1));
        assert_eq!(g1, g2);
    }

    #[test]
    fn distance_and_positions() {
        let w = two_node_world(50.0);
        assert_eq!(w.len(), 2);
        assert!((w.distance(NodeId(0), NodeId(1)) - 50.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn self_channel_rejected() {
        let w = two_node_world(10.0);
        let _ = w.gain(NodeId(0), NodeId(0));
    }
}
