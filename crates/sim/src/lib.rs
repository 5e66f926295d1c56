//! # wcs-sim — discrete-event 802.11a-like wireless simulator
//!
//! The paper's §4 evaluation ran on ~50 Soekris boxes with Atheros
//! 802.11a radios spread over two office floors. We do not have that
//! hardware, so this crate implements the testbed as a discrete-event
//! simulation, built from scratch (no wireless simulation ecosystem
//! exists in Rust):
//!
//! * deterministic event queue with µs resolution ([`event`], [`time`]),
//! * 802.11a PHY timing — 9 µs slots, 16/34 µs SIFS/DIFS, 20 µs PLCP
//!   preamble, 4 µs OFDM symbols, the 6–54 Mbps rate set ([`timing`]),
//! * a static channel from the propagation substrate: power-law path
//!   loss × frozen per-link shadowing, optional per-frame fading
//!   ([`world`]),
//! * SINR-based reception with preamble capture and **no receive abort**
//!   (the paper notes their hardware kept decoding the first-locked frame;
//!   this matters for the concurrency crashes of §4.2) ([`phy`]),
//! * energy-detect clear-channel assessment with per-node threshold
//!   offsets for the §5 "threshold asymmetry" pathology, plus a
//!   preamble-detect mode that exhibits §5's "chain collisions"
//!   ([`mac`]),
//! * slotted CSMA/CA with DIFS + binary-exponential backoff, broadcast
//!   (no-ACK, as the paper's experiments used) and unicast ACK modes,
//!   and the paper's proposed future-work mechanism: loss-triggered
//!   RTS/CTS ([`mac`]),
//! * bitrate control: fixed rate (the paper sweeps {6,9,12,18,24} and
//!   picks the best per transmitter), plus a SampleRate-style adaptive
//!   controller \[Bicket05\] ([`rate`]),
//! * the synthetic 50-node testbed and the §4 experiment protocol
//!   (multiplexing / concurrency / carrier-sense × rate sweep)
//!   ([`testbed`], [`experiment`]),
//! * pathology scenarios ([`pathology`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod experiment;
pub mod mac;
pub mod pathology;
pub mod phy;
pub mod rate;
pub mod sim;
mod slab;
pub mod testbed;
pub mod time;
pub mod timing;
pub mod trace;
pub mod world;

pub use experiment::{ExperimentConfig, ExperimentPoint, PairExperiment, StrategySummary};
pub use sim::{FlowStats, SimConfig, Simulator};
pub use testbed::{Testbed, TestbedConfig};
pub use time::{Duration, SimTime};
pub use world::{ChannelConfig, NodeId, World};
