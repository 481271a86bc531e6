//! In-place sample partitioning for lazy arrangement construction (§5.4).
//!
//! The key trick of the paper's `GET-NEXTmd`: keep all `U*` samples in one
//! array; every region of the growing arrangement owns a contiguous range
//! `[sb, se)` of it. Splitting a region by a hyperplane quick-sort
//! partitions its range in place, which simultaneously
//!
//! * answers `passThrough` (the hyperplane crosses the region iff both
//!   sides of the split are non-empty), and
//! * re-establishes the ownership invariant so each child's stability is
//!   the O(1) quantity `(se − sb) / |S|`.
//!
//! Most hyperplanes a region is tested against do not cross it, and a
//! partition that finds every row on one side only reorders the range in
//! a fixed way ([`PartitionedSamples::partition`] documents the rule). So
//! a caller can ask [`PartitionedSamples::sides`] first, which reads the
//! rows without moving any, and replay the skipped partitions with one
//! [`PartitionedSamples::rotate_left`].

use crate::store::SampleBuffer;
use srank_geom::vector::dot;

/// A sample buffer with quick-sort-style range partitioning.
#[derive(Clone, Debug)]
pub struct PartitionedSamples {
    buf: SampleBuffer,
}

/// Which sides of a hyperplane the rows of a range lie on, by the
/// predicate [`PartitionedSamples::partition`] sorts on (`coeffs·w ≤ 0`
/// is the non-positive side).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sides {
    /// Every row is on the non-positive side (also an empty range).
    NonPositive,
    /// Every row is on the positive side.
    Positive,
    /// Rows lie on both sides: the hyperplane splits the range.
    Both,
}

/// Result of splitting a range by a hyperplane.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Split {
    /// First index of the positive-side block; rows `[lo, split)` lie on
    /// the negative side, rows `[split, hi)` on the positive side.
    pub split: usize,
}

impl PartitionedSamples {
    pub fn new(buf: SampleBuffer) -> Self {
        Self { buf }
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn dim(&self) -> usize {
        self.buf.dim()
    }

    /// Read access to the underlying buffer.
    pub fn buffer(&self) -> &SampleBuffer {
        &self.buf
    }

    /// Serializes the partitioned buffer for durable storage. The row
    /// *order* is the partition structure (every region owns a contiguous
    /// range), so the buffer is stored verbatim, mid-refinement order and
    /// all.
    pub fn to_value(&self) -> serde_json::Value {
        self.buf.to_value()
    }

    /// Rebuilds a buffer serialized by [`to_value`](Self::to_value).
    pub fn from_value(v: &serde_json::Value) -> crate::persist::PersistResult<Self> {
        Ok(Self {
            buf: SampleBuffer::from_value(v)?,
        })
    }

    /// Partitions rows `[lo, hi)` by the origin-through hyperplane with
    /// normal `coeffs`: after the call, rows with `coeffs·w ≤ 0` precede
    /// rows with `coeffs·w > 0`, and the returned split index separates
    /// the blocks.
    ///
    /// Samples exactly on the hyperplane (a measure-zero event) go to the
    /// negative block; the arrangement treats region boundaries as
    /// belonging to neither open region, so their placement cannot bias
    /// any stability estimate by more than the sampling error itself.
    ///
    /// A range whose rows all lie on the positive side comes back rotated
    /// left by one row; a range whose rows are all non-positive comes back
    /// unchanged.
    ///
    /// # Panics
    /// Panics if `hi > len` or `lo > hi`.
    pub fn partition(&mut self, lo: usize, hi: usize, coeffs: &[f64]) -> Split {
        assert!(
            lo <= hi && hi <= self.len(),
            "partition: bad range [{lo}, {hi})"
        );
        let mut i = lo;
        let mut j = hi;
        while i < j {
            if dot(coeffs, self.buf.row(i)) <= 0.0 {
                i += 1;
            } else {
                j -= 1;
                self.buf.swap_rows(i, j);
            }
        }
        Split { split: i }
    }

    /// The sides of the hyperplane with normal `coeffs` that rows
    /// `[lo, hi)` lie on, without moving any row. Evaluates `coeffs·w`
    /// exactly as [`partition`](Self::partition) does, and stops at the
    /// first row on the other side from the first.
    ///
    /// # Panics
    /// Panics if `hi > len` or `lo > hi`.
    pub fn sides(&self, lo: usize, hi: usize, coeffs: &[f64]) -> Sides {
        let d = self.dim();
        let mut rows = self.buf.as_slice()[lo * d..hi * d].chunks_exact(d);
        let Some(first) = rows.next() else {
            return Sides::NonPositive;
        };
        let non_positive = dot(coeffs, first) <= 0.0;
        if rows.any(|w| (dot(coeffs, w) <= 0.0) != non_positive) {
            Sides::Both
        } else if non_positive {
            Sides::NonPositive
        } else {
            Sides::Positive
        }
    }

    /// Rotates rows `[lo, hi)` left by `k` rows, modulo the range length:
    /// what `k` partitions that each found every row positive would have
    /// done to the range.
    pub fn rotate_left(&mut self, lo: usize, hi: usize, k: usize) {
        if hi > lo {
            self.buf.rotate_rows_left(lo, hi, k % (hi - lo));
        }
    }

    /// O(1) stability of a region owning `[lo, hi)`: `(hi − lo) / |S|`.
    pub fn stability_of_range(&self, lo: usize, hi: usize) -> f64 {
        debug_assert!(lo <= hi && hi <= self.len());
        if self.is_empty() {
            return 0.0;
        }
        (hi - lo) as f64 / self.len() as f64
    }

    /// A representative function for the region owning `[lo, hi)`: the
    /// centroid of its samples (which lies in the region by convexity).
    pub fn representative(&self, lo: usize, hi: usize) -> Option<Vec<f64>> {
        self.buf.mean_of_range(lo, hi)
    }

    /// Row access, forwarded from the buffer.
    pub fn row(&self, i: usize) -> &[f64] {
        self.buf.row(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sphere::sample_orthant_direction;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use srank_geom::hyperplane::OrderingExchange;

    fn samples(seed: u64, n: usize, d: usize) -> PartitionedSamples {
        let mut rng = StdRng::seed_from_u64(seed);
        PartitionedSamples::new(SampleBuffer::generate(&mut rng, n, |r| {
            sample_orthant_direction(r, d)
        }))
    }

    #[test]
    fn partition_separates_sides() {
        let mut ps = samples(1, 1000, 3);
        let hp = OrderingExchange::from_coeffs(vec![1.0, -1.0, 0.0]);
        let Split { split } = ps.partition(0, 1000, hp.coeffs());
        for i in 0..split {
            assert!(hp.eval(ps.row(i)) <= 0.0, "row {i} on wrong side");
        }
        for i in split..1000 {
            assert!(hp.eval(ps.row(i)) > 0.0, "row {i} on wrong side");
        }
        // Both sides populated for this symmetric hyperplane.
        assert!(split > 300 && split < 700, "split = {split}");
    }

    #[test]
    fn partition_preserves_multiset() {
        let mut ps = samples(2, 200, 2);
        let mut before: Vec<(u64, u64)> = ps
            .buffer()
            .iter_rows()
            .map(|r| (r[0].to_bits(), r[1].to_bits()))
            .collect();
        before.sort_unstable();
        ps.partition(0, 200, &[1.0, -2.0]);
        let mut after: Vec<(u64, u64)> = ps
            .buffer()
            .iter_rows()
            .map(|r| (r[0].to_bits(), r[1].to_bits()))
            .collect();
        after.sort_unstable();
        assert_eq!(before, after);
    }

    #[test]
    fn nested_partitions_stay_consistent() {
        // Split by h1, then split the positive block by h2: the three
        // resulting blocks must each satisfy their defining constraints.
        let mut ps = samples(3, 2000, 3);
        let h1 = OrderingExchange::from_coeffs(vec![1.0, -1.0, 0.0]);
        let h2 = OrderingExchange::from_coeffs(vec![0.0, 1.0, -1.0]);
        let s1 = ps.partition(0, 2000, h1.coeffs()).split;
        let s2 = ps.partition(s1, 2000, h2.coeffs()).split;
        for i in 0..s1 {
            assert!(h1.eval(ps.row(i)) <= 0.0);
        }
        for i in s1..s2 {
            assert!(h1.eval(ps.row(i)) > 0.0);
            assert!(h2.eval(ps.row(i)) <= 0.0);
        }
        for i in s2..2000 {
            assert!(h1.eval(ps.row(i)) > 0.0);
            assert!(h2.eval(ps.row(i)) > 0.0);
        }
    }

    /// The row order of `ps` as the bits of every value.
    fn bits(ps: &PartitionedSamples) -> Vec<u64> {
        ps.buffer().as_slice().iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn one_sided_partitions_rotate_or_keep_the_range() {
        // Orthant samples all lie on the positive side of (1, 1, 1) and
        // the non-positive side of its negation.
        let positive = [1.0, 1.0, 1.0];
        let negative = [-1.0, -1.0, -1.0];
        for len in 1..6 {
            let mut ps = samples(10 + len as u64, 8, 3);
            let (lo, hi) = (2, 2 + len);
            assert_eq!(ps.sides(lo, hi, &positive), Sides::Positive);
            assert_eq!(ps.sides(lo, hi, &negative), Sides::NonPositive);

            let before = bits(&ps);
            assert_eq!(ps.partition(lo, hi, &negative).split, hi);
            assert_eq!(bits(&ps), before, "a non-positive pass moves nothing");

            // Three positive passes are one rotation by three, and leave
            // the rows outside the range where they were.
            let mut rotated = ps.clone();
            rotated.rotate_left(lo, hi, 3);
            for _ in 0..3 {
                assert_eq!(ps.partition(lo, hi, &positive).split, lo);
            }
            assert_eq!(bits(&ps), bits(&rotated), "len {len}");

            // One positive pass moves the first row to the end.
            let mut once = samples(10 + len as u64, 8, 3);
            let first = once.row(lo).to_vec();
            let second = once.row(lo + 1).to_vec();
            once.partition(lo, hi, &positive);
            assert_eq!(once.row(hi - 1), first.as_slice());
            if len > 1 {
                assert_eq!(once.row(lo), second.as_slice());
            }
        }
        let ps = samples(16, 8, 3);
        assert_eq!(ps.sides(4, 4, &positive), Sides::NonPositive);
        assert_eq!(ps.sides(0, 8, &[1.0, -1.0, 0.0]), Sides::Both);
    }

    #[test]
    fn stability_of_range_is_count_ratio() {
        let ps = samples(6, 400, 2);
        assert_eq!(ps.stability_of_range(0, 400), 1.0);
        assert_eq!(ps.stability_of_range(100, 300), 0.5);
        assert_eq!(ps.stability_of_range(7, 7), 0.0);
    }

    #[test]
    fn representative_lies_in_partitioned_region() {
        let mut ps = samples(7, 1000, 3);
        let hp = OrderingExchange::from_coeffs(vec![1.0, -1.0, 0.0]);
        let Split { split } = ps.partition(0, 1000, hp.coeffs());
        let rep_neg = ps.representative(0, split).unwrap();
        let rep_pos = ps.representative(split, 1000).unwrap();
        assert!(hp.eval(&rep_neg) <= 0.0);
        assert!(hp.eval(&rep_pos) > 0.0);
    }

    #[test]
    fn empty_range_has_no_representative() {
        let ps = samples(8, 10, 2);
        assert!(ps.representative(5, 5).is_none());
    }

    #[test]
    fn partition_matches_oracle_counts() {
        // The count on the positive side must equal Algorithm 12's count
        // for the single-half-space region.
        use srank_geom::hyperplane::HalfSpace;
        use srank_geom::region::ConeRegion;
        let mut ps = samples(9, 3000, 3);
        let coeffs = vec![0.3, -0.9, 0.4];
        let hp = OrderingExchange::from_coeffs(coeffs.clone());
        let region = ConeRegion::from_halfspaces(3, vec![HalfSpace::new(coeffs)]);
        let oracle_count = crate::oracle::count_inside(&region, ps.buffer(), 0, ps.len());
        let Split { split } = ps.partition(0, 3000, hp.coeffs());
        assert_eq!(3000 - split, oracle_count);
    }
}
