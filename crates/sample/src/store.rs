//! Flat storage for sampled weight vectors.
//!
//! The Monte-Carlo oracle and the §5.4 partitioning both stream over large
//! sample sets (up to 10⁶ in Figure 12), so samples live in one contiguous
//! row-major buffer rather than a `Vec<Vec<f64>>` of tiny allocations.

use crate::oracle::GridIndex;
use rand::Rng;
use std::sync::OnceLock;

/// A dense `n × dim` row-major buffer of weight vectors.
///
/// Two buffers are equal when their rows are, and a clone copies the rows
/// only: the lazily built grid index takes no part in either.
#[derive(Debug)]
pub struct SampleBuffer {
    dim: usize,
    data: Vec<f64>,
    /// The Monte-Carlo oracle's cell index ([`SampleBuffer::grid_index`]),
    /// built by the first indexed count and shared by every later one: a
    /// `u32` per sample plus a `u32` per cell (about 0.53 MB over 100k
    /// samples). Every mutation resets it.
    index: OnceLock<GridIndex>,
}

impl Clone for SampleBuffer {
    fn clone(&self) -> Self {
        Self::from_parts(self.dim, self.data.clone())
    }
}

impl PartialEq for SampleBuffer {
    fn eq(&self, other: &Self) -> bool {
        (self.dim, &self.data) == (other.dim, &other.data)
    }
}

impl SampleBuffer {
    /// An empty buffer for vectors of the given dimension.
    pub fn new(dim: usize) -> Self {
        Self::with_capacity(dim, 0)
    }

    /// An empty buffer with space reserved for `n` rows.
    pub fn with_capacity(dim: usize, n: usize) -> Self {
        assert!(dim >= 1, "SampleBuffer: need dim ≥ 1");
        Self::from_parts(dim, Vec::with_capacity(dim * n))
    }

    fn from_parts(dim: usize, data: Vec<f64>) -> Self {
        Self {
            dim,
            data,
            index: OnceLock::new(),
        }
    }

    /// Fills a buffer with `n` draws from a sampling closure.
    pub fn generate<R: Rng + ?Sized>(
        rng: &mut R,
        n: usize,
        sampler: impl FnMut(&mut R) -> Vec<f64>,
    ) -> Self {
        let unchecked = || Ok::<(), std::convert::Infallible>(());
        Self::generate_checked(rng, n, n.max(1), unchecked, sampler)
            .unwrap_or_else(|never| match never {})
    }

    /// [`Self::generate`], running `checkpoint` after every `chunk`
    /// draws short of the last; its first error abandons the draw. The
    /// draws are the ones `generate` makes from the same `rng`.
    ///
    /// # Panics
    /// Panics on a zero `chunk`.
    pub fn generate_checked<R: Rng + ?Sized, E>(
        rng: &mut R,
        n: usize,
        chunk: usize,
        mut checkpoint: impl FnMut() -> Result<(), E>,
        mut sampler: impl FnMut(&mut R) -> Vec<f64>,
    ) -> Result<Self, E> {
        assert!(chunk > 0, "SampleBuffer: zero checkpoint chunk");
        let first = sampler(rng);
        let dim = first.len();
        if n == 0 {
            return Ok(Self::new(dim.max(1)));
        }
        let mut buf = Self::with_capacity(dim, n);
        buf.push(&first);
        let mut until_check = chunk;
        for _ in 1..n {
            until_check -= 1;
            if until_check == 0 {
                checkpoint()?;
                until_check = chunk;
            }
            let w = sampler(rng);
            buf.push(&w);
        }
        Ok(buf)
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
        self.index.take();
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
        self.index.take();
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
        self.index.take();
        let d = self.dim;
        self.data[lo * d..hi * d].rotate_left(k * d);
    }

    /// The cell index of [`crate::oracle::count_inside_indexed`], built
    /// on the first call and shared by every later call and thread until
    /// the buffer is next mutated. Each of the build's passes over the
    /// samples runs `checkpoint` between `chunk`-sample slices; its first
    /// error abandons the build, and nothing is kept. The build holds no
    /// lock, so no caller waits on another's build: concurrent first
    /// calls may each build one, and all of them get the one stored
    /// first.
    ///
    /// # Panics
    /// Panics on a zero `chunk`.
    pub fn grid_index<E>(
        &self,
        chunk: usize,
        mut checkpoint: impl FnMut() -> Result<(), E>,
    ) -> Result<&GridIndex, E> {
        if let Some(index) = self.index.get() {
            return Ok(index);
        }
        let built = GridIndex::build(self, chunk, &mut checkpoint)?;
        Ok(self.index.get_or_init(|| built))
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
        Ok(Self::from_parts(dim, data))
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

    /// A checked draw makes the unchecked draw's samples, checks after
    /// every `chunk` draws short of the last, and stops at the first
    /// failed check.
    #[test]
    fn checked_generate_draws_the_same_and_checks_between_chunks() {
        let draw = |r: &mut StdRng| vec![r.random::<f64>(), r.random::<f64>()];
        let n = 10;
        let plain = SampleBuffer::generate(&mut StdRng::seed_from_u64(3), n, draw);
        for chunk in [1, 3, 9, 10, 11] {
            let mut checks = 0;
            let checked = SampleBuffer::generate_checked(
                &mut StdRng::seed_from_u64(3),
                n,
                chunk,
                || {
                    checks += 1;
                    Ok::<(), ()>(())
                },
                draw,
            );
            assert_eq!(checked.as_ref(), Ok(&plain), "chunk {chunk}");
            assert_eq!(checks, (n - 1) / chunk, "chunk {chunk}");
        }
        let stopped = SampleBuffer::generate_checked(
            &mut StdRng::seed_from_u64(3),
            n,
            4,
            || Err("late"),
            draw,
        );
        assert_eq!(stopped, Err("late"));
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
