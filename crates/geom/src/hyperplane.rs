//! Ordering-exchange hyperplanes and half-spaces (Eq. 7 of the paper).
//!
//! For a pair of items `t_i, t_j`, the *ordering exchange* `×(t_i, t_j)` is
//! the origin-through hyperplane `Σ_k (t_i[k] − t_j[k]) · x_k = 0`: scoring
//! functions on it assign both items the same score. Its positive half-space
//! contains exactly the functions ranking `t_i` above `t_j`.

use crate::vector::dot;
use crate::EPS;

/// Which side of an origin-through hyperplane a point lies on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Side {
    /// `coeffs · w > tol` — for an ordering exchange `×(t_i, t_j)`, the
    /// functions ranking `t_i` strictly above `t_j`.
    Positive,
    /// `coeffs · w < -tol`.
    Negative,
    /// Within tolerance of the hyperplane itself (the items are tied).
    On,
}

/// An ordering-exchange hyperplane through the origin.
#[derive(Clone, Debug, PartialEq)]
pub struct OrderingExchange {
    coeffs: Vec<f64>,
}

impl OrderingExchange {
    /// Builds `×(a, b)` with coefficient vector `a − b` (Eq. 7).
    ///
    /// The resulting hyperplane's [`Side::Positive`] half-space holds the
    /// functions that rank `a` above `b`.
    pub fn from_pair(a: &[f64], b: &[f64]) -> Self {
        debug_assert_eq!(a.len(), b.len(), "ordering exchange: dimension mismatch");
        Self {
            coeffs: a.iter().zip(b).map(|(x, y)| x - y).collect(),
        }
    }

    /// Builds a hyperplane from raw coefficients.
    pub fn from_coeffs(coeffs: Vec<f64>) -> Self {
        Self { coeffs }
    }

    /// Coefficient vector (the normal direction, `a − b`).
    pub fn coeffs(&self) -> &[f64] {
        &self.coeffs
    }

    /// Dimension of the ambient space.
    pub fn dim(&self) -> usize {
        self.coeffs.len()
    }

    /// Signed evaluation `coeffs · w`.
    #[inline]
    pub fn eval(&self, w: &[f64]) -> f64 {
        dot(&self.coeffs, w)
    }

    /// Which side of the hyperplane `w` falls on, with tolerance
    /// [`crate::EPS`].
    pub fn side(&self, w: &[f64]) -> Side {
        self.side_with_tol(w, EPS)
    }

    /// [`side`](Self::side) with an explicit tolerance.
    pub fn side_with_tol(&self, w: &[f64], tol: f64) -> Side {
        let v = self.eval(w);
        if v > tol {
            Side::Positive
        } else if v < -tol {
            Side::Negative
        } else {
            Side::On
        }
    }

    /// The half-space on the given side of this hyperplane.
    ///
    /// # Panics
    /// Panics if `side == Side::On` (a hyperplane is not a half-space).
    pub fn half_space(&self, side: Side) -> HalfSpace {
        match side {
            Side::Positive => HalfSpace::new(self.coeffs.clone()),
            Side::Negative => HalfSpace::new(self.coeffs.iter().map(|c| -c).collect()),
            Side::On => panic!("half_space: Side::On is not a half-space"),
        }
    }

    /// True when the coefficient vector is numerically zero — the two items
    /// have identical attribute vectors and never exchange order (they are
    /// permanently tied; the paper breaks such ties by item id).
    pub fn is_degenerate(&self) -> bool {
        self.coeffs.iter().all(|c| c.abs() <= EPS)
    }
}

/// A strict open half-space `coeffs · w > 0` through the origin.
///
/// The sign convention normalizes the paper's `h⁺ / h⁻` pair: a negative
/// half-space is stored with negated coefficients, so containment is always
/// the single predicate `coeffs · w > 0`.
#[derive(Clone, Debug, PartialEq)]
pub struct HalfSpace {
    coeffs: Vec<f64>,
}

impl HalfSpace {
    /// Half-space `{ w : coeffs · w > 0 }`.
    pub fn new(coeffs: Vec<f64>) -> Self {
        Self { coeffs }
    }

    /// Builds the half-space of functions ranking `above` strictly above
    /// `below` — the positive side of `×(above, below)`, coefficients
    /// `above − below`, in one allocation.
    pub fn ranking_pair(above: &[f64], below: &[f64]) -> Self {
        debug_assert_eq!(above.len(), below.len(), "ranking pair: dimension mismatch");
        Self::new(above.iter().zip(below).map(|(a, b)| a - b).collect())
    }

    pub fn coeffs(&self) -> &[f64] {
        &self.coeffs
    }

    pub fn dim(&self) -> usize {
        self.coeffs.len()
    }

    /// Signed slack `coeffs · w`; positive inside.
    #[inline]
    pub fn slack(&self, w: &[f64]) -> f64 {
        dot(&self.coeffs, w)
    }

    /// Strict containment with tolerance [`crate::EPS`]: true when
    /// `coeffs · w > EPS`.
    #[inline]
    pub fn contains(&self, w: &[f64]) -> bool {
        self.slack(w) > EPS
    }

    /// Containment with an explicit tolerance.
    #[inline]
    pub fn contains_with_tol(&self, w: &[f64], tol: f64) -> bool {
        self.slack(w) > tol
    }

    /// The complementary open half-space `coeffs · w < 0`.
    pub fn complement(&self) -> HalfSpace {
        HalfSpace::new(self.coeffs.iter().map(|c| -c).collect())
    }

    /// The hyperplane bounding this half-space.
    pub fn boundary(&self) -> OrderingExchange {
        OrderingExchange::from_coeffs(self.coeffs.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Items from the paper's Figure 1a.
    const T1: [f64; 2] = [0.63, 0.71];
    const T2: [f64; 2] = [0.83, 0.65];

    #[test]
    fn exchange_coeffs_are_difference() {
        let x = OrderingExchange::from_pair(&T1, &T2);
        assert!((x.coeffs()[0] - (-0.20)).abs() < 1e-12);
        assert!((x.coeffs()[1] - 0.06).abs() < 1e-12);
    }

    #[test]
    fn positive_side_ranks_first_item_higher() {
        let x = OrderingExchange::from_pair(&T1, &T2);
        // Under f = x2 (weights (0,1)): t1 scores 0.71 > 0.65 → t1 above t2.
        assert_eq!(x.side(&[0.0, 1.0]), Side::Positive);
        // Under f = x1: t2 wins.
        assert_eq!(x.side(&[1.0, 0.0]), Side::Negative);
    }

    #[test]
    fn on_side_for_the_exchange_ray() {
        let x = OrderingExchange::from_pair(&T1, &T2);
        // The exchange ray direction solves -0.2·w1 + 0.06·w2 = 0.
        let w = [0.06, 0.2];
        assert_eq!(x.side(&w), Side::On);
    }

    #[test]
    fn half_space_contains_matches_side() {
        let x = OrderingExchange::from_pair(&T1, &T2);
        let pos = x.half_space(Side::Positive);
        let neg = x.half_space(Side::Negative);
        let w = [0.0, 1.0];
        assert!(pos.contains(&w));
        assert!(!neg.contains(&w));
    }

    #[test]
    fn complement_flips_containment() {
        let h = HalfSpace::new(vec![1.0, -2.0, 0.5]);
        let w = [1.0, 0.1, 0.1];
        assert_eq!(h.contains(&w), !h.complement().contains(&w));
    }

    #[test]
    fn ranking_pair_half_space() {
        let h = HalfSpace::ranking_pair(&T2, &T1);
        // f = x1 + x2 ranks t2 (1.48) above t1 (1.34).
        assert!(h.contains(&[1.0, 1.0]));
    }

    #[test]
    fn degenerate_exchange_for_identical_items() {
        let x = OrderingExchange::from_pair(&[0.4, 0.4], &[0.4, 0.4]);
        assert!(x.is_degenerate());
        assert_eq!(x.side(&[1.0, 1.0]), Side::On);
    }

    #[test]
    #[should_panic(expected = "not a half-space")]
    fn half_space_of_on_panics() {
        OrderingExchange::from_pair(&T1, &T2).half_space(Side::On);
    }

    #[test]
    fn boundary_roundtrip() {
        let h = HalfSpace::new(vec![0.3, -0.1]);
        assert_eq!(h.boundary().coeffs(), &[0.3, -0.1]);
    }
}
