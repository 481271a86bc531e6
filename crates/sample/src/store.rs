//! Flat storage for sampled weight vectors.
//!
//! The Monte-Carlo oracle and the §5.4 partitioning both stream over large
//! sample sets (up to 10⁶ in Figure 12), so samples live in one contiguous
//! row-major buffer rather than a `Vec<Vec<f64>>` of tiny allocations.

use rand::Rng;

/// A dense `n × dim` row-major buffer of weight vectors.
#[derive(Clone, Debug, PartialEq)]
pub struct SampleBuffer {
    dim: usize,
    data: Vec<f64>,
}

impl SampleBuffer {
    /// An empty buffer for vectors of the given dimension.
    pub fn new(dim: usize) -> Self {
        assert!(dim >= 1, "SampleBuffer: need dim ≥ 1");
        Self {
            dim,
            data: Vec::new(),
        }
    }

    /// An empty buffer with space reserved for `n` rows.
    pub fn with_capacity(dim: usize, n: usize) -> Self {
        assert!(dim >= 1, "SampleBuffer: need dim ≥ 1");
        Self {
            dim,
            data: Vec::with_capacity(dim * n),
        }
    }

    /// Fills a buffer with `n` draws from a sampling closure.
    pub fn generate<R: Rng + ?Sized>(
        rng: &mut R,
        n: usize,
        mut sampler: impl FnMut(&mut R) -> Vec<f64>,
    ) -> Self {
        let mut first = sampler(rng);
        let dim = first.len();
        let mut buf = Self::with_capacity(dim, n);
        if n == 0 {
            return Self::new(dim.max(1));
        }
        buf.data.append(&mut first);
        for _ in 1..n {
            let w = sampler(rng);
            buf.push(&w);
        }
        buf
    }

    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of stored rows.
    pub fn len(&self) -> usize {
        self.data.len() / self.dim
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Appends one vector.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn push(&mut self, w: &[f64]) {
        assert_eq!(w.len(), self.dim, "SampleBuffer::push: dimension mismatch");
        self.data.extend_from_slice(w);
    }

    /// Row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// All rows as one row-major slice: row `i` is
    /// `[i·dim, (i + 1)·dim)`.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Swaps rows `i` and `j` in place (used by the §5.4 partitioning).
    pub fn swap_rows(&mut self, i: usize, j: usize) {
        if i == j {
            return;
        }
        let d = self.dim;
        let (lo, hi) = if i < j { (i, j) } else { (j, i) };
        let (left, right) = self.data.split_at_mut(hi * d);
        left[lo * d..(lo + 1) * d].swap_with_slice(&mut right[..d]);
    }

    /// Rotates rows `[lo, hi)` left by `k` rows: row `lo + k` moves to
    /// `lo`, and row `lo` to `hi − k`.
    ///
    /// # Panics
    /// Panics if the range is out of bounds or `k > hi − lo`.
    pub fn rotate_rows_left(&mut self, lo: usize, hi: usize, k: usize) {
        let d = self.dim;
        self.data[lo * d..hi * d].rotate_left(k * d);
    }

    /// Iterator over rows.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f64]> + '_ {
        self.data.chunks_exact(self.dim)
    }

    /// Serializes the buffer for durable storage (exact: every finite
    /// float survives the JSON text byte-for-byte).
    pub fn to_value(&self) -> serde_json::Value {
        crate::persist::obj([
            ("dim", serde_json::Value::Number(self.dim as f64)),
            ("data", crate::persist::f64_slice_value(&self.data)),
        ])
    }

    /// Rebuilds a buffer serialized by [`to_value`](Self::to_value).
    pub fn from_value(v: &serde_json::Value) -> crate::persist::PersistResult<Self> {
        use crate::persist::{f64_vec_field, usize_field, PersistError};
        let dim = usize_field(v, "dim")?;
        let data = f64_vec_field(v, "data")?;
        if dim == 0 || data.len() % dim != 0 {
            return Err(PersistError::new(format!(
                "sample buffer of {} values is not a whole number of dim-{dim} rows",
                data.len()
            )));
        }
        if data.iter().any(|x| !x.is_finite()) {
            return Err(PersistError::new("sample buffer holds non-finite values"));
        }
        Ok(Self { dim, data })
    }

    /// The component-wise mean of rows in `[lo, hi)`; `None` for an empty
    /// range. Used to pick "a function in the region" from the samples a
    /// region owns.
    pub fn mean_of_range(&self, lo: usize, hi: usize) -> Option<Vec<f64>> {
        if lo >= hi || hi > self.len() {
            return None;
        }
        let mut mean = vec![0.0; self.dim];
        for i in lo..hi {
            for (m, x) in mean.iter_mut().zip(self.row(i)) {
                *m += x;
            }
        }
        let count = (hi - lo) as f64;
        for m in &mut mean {
            *m /= count;
        }
        Some(mean)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn push_and_access() {
        let mut b = SampleBuffer::new(3);
        b.push(&[1.0, 2.0, 3.0]);
        b.push(&[4.0, 5.0, 6.0]);
        assert_eq!(b.len(), 2);
        assert_eq!(b.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(b.row(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn push_checks_dimension() {
        SampleBuffer::new(2).push(&[1.0, 2.0, 3.0]);
    }

    #[test]
    fn swap_rows_exchanges_contents() {
        let mut b = SampleBuffer::new(2);
        b.push(&[1.0, 1.0]);
        b.push(&[2.0, 2.0]);
        b.push(&[3.0, 3.0]);
        b.swap_rows(0, 2);
        assert_eq!(b.row(0), &[3.0, 3.0]);
        assert_eq!(b.row(2), &[1.0, 1.0]);
        b.swap_rows(1, 1); // no-op
        assert_eq!(b.row(1), &[2.0, 2.0]);
    }

    #[test]
    fn generate_uses_the_closure() {
        let mut rng = StdRng::seed_from_u64(0);
        let b =
            SampleBuffer::generate(&mut rng, 10, |r| vec![r.random::<f64>(), r.random::<f64>()]);
        assert_eq!(b.len(), 10);
        assert_eq!(b.dim(), 2);
        assert!(b
            .iter_rows()
            .all(|r| r.iter().all(|&x| (0.0..1.0).contains(&x))));
    }

    #[test]
    fn mean_of_range() {
        let mut b = SampleBuffer::new(2);
        b.push(&[0.0, 2.0]);
        b.push(&[2.0, 4.0]);
        b.push(&[100.0, 100.0]);
        let m = b.mean_of_range(0, 2).unwrap();
        assert_eq!(m, vec![1.0, 3.0]);
        assert!(b.mean_of_range(2, 2).is_none());
        assert!(b.mean_of_range(0, 99).is_none());
    }

    #[test]
    fn iter_rows_matches_indexing() {
        let mut b = SampleBuffer::new(1);
        for i in 0..5 {
            b.push(&[i as f64]);
        }
        let collected: Vec<f64> = b.iter_rows().map(|r| r[0]).collect();
        assert_eq!(collected, vec![0.0, 1.0, 2.0, 3.0, 4.0]);
    }
}
