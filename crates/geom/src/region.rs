//! Convex cone regions: intersections of strict origin-through half-spaces.
//!
//! The ranking region of §4.1 is exactly such a cone — one half-space per
//! adjacent pair of the ranking — and the lazily-built arrangement of §4.2
//! splits cones by adding one half-space at a time.
//!
//! A cone keeps its half-spaces as one row-major table of coefficients,
//! one row of `dim` values per half-space, so building a ranking region
//! is one allocation and every reader (the sampling oracle, the LP, the
//! exact 3-D clip) walks the rows in place.

use crate::vector::dot;
use crate::EPS;
use std::slice::ChunksExact;

/// An open convex cone `{ w : a·w > 0 for every row a of the table }`.
///
/// The empty intersection (no rows) is the whole space.
#[derive(Clone, Debug, PartialEq)]
pub struct ConeRegion {
    dim: usize,
    /// Row `k` is `table[k·dim..(k + 1)·dim]`.
    table: Vec<f64>,
}

impl ConeRegion {
    /// The full space of the given dimension (no constraints yet).
    pub fn full(dim: usize) -> Self {
        Self::from_table(dim, Vec::new())
    }

    /// Builds a cone from a row-major table of half-space coefficients,
    /// `dim` per row.
    ///
    /// # Panics
    /// Panics if `dim` is 0 or the table is not a whole number of rows.
    pub fn from_table(dim: usize, table: Vec<f64>) -> Self {
        assert!(dim >= 1, "ConeRegion: need dim ≥ 1");
        assert_eq!(
            table.len() % dim,
            0,
            "ConeRegion: table is not a whole number of rows"
        );
        Self { dim, table }
    }

    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The coefficient table, row-major, `dim` values per half-space.
    pub fn table(&self) -> &[f64] {
        &self.table
    }

    /// The half-spaces' coefficient rows, in order.
    pub fn rows(&self) -> ChunksExact<'_, f64> {
        self.table.chunks_exact(self.dim)
    }

    /// Number of constraining half-spaces.
    pub fn len(&self) -> usize {
        self.table.len() / self.dim
    }

    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Adds the half-space `coeffs · w > 0`.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn push(&mut self, coeffs: &[f64]) {
        assert_eq!(
            coeffs.len(),
            self.dim,
            "ConeRegion::push: dimension mismatch"
        );
        self.table.extend_from_slice(coeffs);
    }

    /// A copy of this cone with one extra half-space `coeffs · w > 0`.
    pub fn with(&self, coeffs: &[f64]) -> Self {
        let mut c = self.clone();
        c.push(coeffs);
        c
    }

    /// Strict containment: every half-space slack exceeds [`crate::EPS`].
    pub fn contains(&self, w: &[f64]) -> bool {
        self.contains_with_tol(w, EPS)
    }

    /// Containment with an explicit tolerance.
    pub fn contains_with_tol(&self, w: &[f64], tol: f64) -> bool {
        self.rows().all(|a| dot(a, w) > tol)
    }

    /// The minimum slack `min_a a·w` — positive inside the cone, and a
    /// proxy for distance to the boundary for unit `w`.
    pub fn min_slack(&self, w: &[f64]) -> f64 {
        self.rows().map(|a| dot(a, w)).fold(f64::INFINITY, f64::min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadrant_cone() -> ConeRegion {
        // { w : w1 > 0, w2 > 0 } expressed through half-spaces.
        ConeRegion::from_table(2, vec![1.0, 0.0, 0.0, 1.0])
    }

    #[test]
    fn full_space_contains_everything() {
        let c = ConeRegion::full(3);
        assert!(c.contains(&[1.0, -5.0, 0.0]));
        assert!(c.is_empty());
    }

    #[test]
    fn quadrant_membership() {
        let c = quadrant_cone();
        assert!(c.contains(&[0.5, 0.5]));
        assert!(!c.contains(&[-0.5, 0.5]));
        assert!(!c.contains(&[0.5, 0.0])); // boundary is excluded (strict)
    }

    #[test]
    fn push_narrows_the_cone() {
        let mut c = quadrant_cone();
        assert!(c.contains(&[0.9, 0.1]));
        c.push(&[-1.0, 1.0]); // w2 > w1
        assert!(!c.contains(&[0.9, 0.1]));
        assert!(c.contains(&[0.1, 0.9]));
    }

    #[test]
    fn with_does_not_mutate_original() {
        let c = quadrant_cone();
        let narrowed = c.with(&[-1.0, 1.0]);
        assert_eq!(c.len(), 2);
        assert_eq!(narrowed.len(), 3);
        assert_eq!(narrowed.rows().last(), Some(&[-1.0, 1.0][..]));
    }

    #[test]
    fn min_slack_sign_tracks_membership() {
        let c = quadrant_cone();
        assert!(c.min_slack(&[0.3, 0.7]) > 0.0);
        assert!(c.min_slack(&[-0.3, 0.7]) < 0.0);
        assert_eq!(ConeRegion::full(2).min_slack(&[1.0, 1.0]), f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dimension_checked_on_push() {
        quadrant_cone().push(&[1.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "whole number of rows")]
    fn table_checked_for_whole_rows() {
        ConeRegion::from_table(3, vec![1.0, 0.0]);
    }

    #[test]
    fn ranking_region_from_adjacent_pairs() {
        // Figure 1a ranking ⟨t2, t4, t3, t5, t1⟩ under f = x1+x2: the cone
        // built from its adjacent pairs must contain (1,1) (normalized).
        let items = [
            vec![0.63, 0.71],
            vec![0.83, 0.65],
            vec![0.58, 0.78],
            vec![0.70, 0.68],
            vec![0.53, 0.82],
        ];
        let order = [1usize, 3, 2, 4, 0];
        let mut cone = ConeRegion::full(2);
        for pair in order.windows(2) {
            let (above, below) = (&items[pair[0]], &items[pair[1]]);
            cone.push(&[above[0] - below[0], above[1] - below[1]]);
        }
        assert_eq!(cone.len(), 4);
        assert!(cone.contains(&[1.0, 1.0]));
        // And it must exclude the x1-only extreme, whose ranking differs.
        assert!(!cone.contains(&[1.0, 0.0]));
    }
}
