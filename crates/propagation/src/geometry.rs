//! 2-D geometry for the paper's two-pair scenario (§3.2.2).
//!
//! The model places sender S1 at the origin, its receiver at polar
//! coordinates (r, θ) with r < Rmax, and the interfering sender S2 on the
//! −x axis at distance D (the paper writes this as polar (D, π)). The
//! quantity the concurrency capacity needs is Δr, the distance between the
//! *interferer* and the *receiver*.

use serde::{Deserialize, Serialize};

/// A point in the plane (model distance units).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Point2 {
    /// x coordinate.
    pub x: f64,
    /// y coordinate.
    pub y: f64,
}

impl Point2 {
    /// Construct from Cartesian coordinates.
    pub const fn new(x: f64, y: f64) -> Self {
        Point2 { x, y }
    }

    /// Construct from polar coordinates.
    pub fn from_polar(r: f64, theta: f64) -> Self {
        Point2 {
            x: r * theta.cos(),
            y: r * theta.sin(),
        }
    }

    /// Euclidean distance to another point.
    pub fn distance(&self, other: &Point2) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }

    /// Distance from the origin.
    pub fn norm(&self) -> f64 {
        (self.x * self.x + self.y * self.y).sqrt()
    }
}

/// The paper's Δr: distance from the interferer at (−D, 0) to the receiver
/// at polar (r, θ) around the origin-based sender:
/// Δr = √[(r·cosθ + D)² + (r·sinθ)²].
#[inline]
pub fn interferer_distance(r: f64, theta: f64, d: f64) -> f64 {
    interferer_distance_xy(r * theta.cos(), r * theta.sin(), d)
}

/// [`interferer_distance`] from the receiver's cartesian offset
/// (x, y) = (r·cosθ, r·sinθ) around its sender, for callers that score
/// one placement at many D: Δr = √[(x + D)² + y²].
#[inline]
pub fn interferer_distance_xy(x: f64, y: f64, d: f64) -> f64 {
    let dx = x + d;
    (dx * dx + y * y).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn polar_roundtrip() {
        let p = Point2::from_polar(5.0, std::f64::consts::FRAC_PI_3);
        assert!((p.norm() - 5.0).abs() < 1e-12);
        assert!((p.x - 2.5).abs() < 1e-12);
    }

    #[test]
    fn interferer_distance_limits() {
        // Receiver at the sender (r = 0) → Δr = D.
        assert!((interferer_distance(0.0, 1.234, 55.0) - 55.0).abs() < 1e-12);
        // Receiver on +x axis, pointing away from interferer → Δr = r + D.
        assert!((interferer_distance(10.0, 0.0, 55.0) - 65.0).abs() < 1e-12);
        // Receiver on −x axis, toward the interferer → Δr = D − r.
        assert!((interferer_distance(10.0, std::f64::consts::PI, 55.0) - 45.0).abs() < 1e-9);
    }

    #[test]
    fn interferer_distance_matches_point_math() {
        let (r, theta, d) = (17.0, 2.1, 42.0);
        let rx = Point2::from_polar(r, theta);
        let interferer = Point2::new(-d, 0.0);
        assert!((interferer_distance(r, theta, d) - rx.distance(&interferer)).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn triangle_inequality(r in 0.0..200.0f64, theta in 0.0..std::f64::consts::TAU, d in 0.0..200.0f64) {
            let dr = interferer_distance(r, theta, d);
            prop_assert!(dr <= r + d + 1e-9);
            prop_assert!(dr >= (d - r).abs() - 1e-9);
        }

        #[test]
        fn symmetric_in_theta(r in 0.0..100.0f64, theta in 0.0..std::f64::consts::PI, d in 0.0..100.0f64) {
            // Reflection across the x-axis leaves Δr unchanged.
            let a = interferer_distance(r, theta, d);
            let b = interferer_distance(r, -theta, d);
            prop_assert!((a - b).abs() < 1e-9);
        }
    }
}
