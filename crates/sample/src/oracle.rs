//! The Monte-Carlo stability oracle (Algorithm 12, §5.3).
//!
//! Given a ranking region `R` — an intersection of half-spaces — and a set
//! `S` of functions drawn uniformly from the region of interest `U*`, the
//! stability of `R` in `U*` is estimated as the fraction of samples that
//! satisfy every half-space: `count / |S|`.
//!
//! ## The sieve
//!
//! [`count_inside`] counts [`BLOCK`] samples at a time. The first pass
//! writes every sample's offset into a survivor list and advances the
//! list's cursor by the AND of the first two half-spaces' `> 0` tests —
//! no data-dependent branch, so there is no mispredicted exit to pay
//! for. Each later pass compacts the survivors against the next two
//! half-spaces, until the block is empty or every half-space has been
//! tested. A pass reads only its two half-spaces, so the region is used
//! as it is, with nothing to build per call. Every slack is the same
//! left-to-right `Σ c_k·w_k` as [`HalfSpace::slack`], and the AND does
//! not depend on order, so the count is exactly the sample-by-sample
//! count.
//!
//! Cost: two `d`-term slacks per sample in the first pass, plus two per
//! survivor in each later pass. Adjacent-pair constraints are strongly
//! correlated, so few samples outlive the first passes: on ranking
//! regions of the service benchmark's fifa table (n = 1000, d = 4, ~1000
//! half-spaces, in their natural order) the sieve evaluates about 2.9
//! slacks per sample, where a loop that stops at the first violation
//! evaluates 2.5 — and pays a mispredicted branch for almost every
//! sample. Over 100k samples that is 0.26 ms against 1.19 ms for the
//! early-exit loop (`mc_verify` in `BENCH_15.json`, 2 vCPUs).

use crate::store::SampleBuffer;
use srank_geom::hyperplane::HalfSpace;
use srank_geom::region::ConeRegion;

/// Samples per sieve block: the survivor list (4 KiB) stays in L1.
pub const BLOCK: usize = 1024;

/// Algorithm 12: fraction of `samples` inside the region.
pub fn estimate_stability(region: &ConeRegion, samples: &SampleBuffer) -> f64 {
    assert_eq!(region.dim(), samples.dim(), "oracle: dimension mismatch");
    if samples.is_empty() {
        return 0.0;
    }
    let count = count_inside(region, samples, 0, samples.len());
    count as f64 / samples.len() as f64
}

/// Number of samples with index in `[lo, hi)` strictly inside every
/// half-space of the region (the block sieve); 0 when `lo ≥ hi`.
///
/// # Panics
/// Panics on a dimension mismatch or when `hi` is past the last sample.
pub fn count_inside(region: &ConeRegion, samples: &SampleBuffer, lo: usize, hi: usize) -> usize {
    let d = region.dim();
    assert_eq!(samples.dim(), d, "oracle: dimension mismatch");
    assert!(hi <= samples.len(), "oracle: range past the last sample");
    if lo >= hi {
        return 0;
    }
    let rows = &samples.as_slice()[lo * d..hi * d];
    let halfspaces = region.halfspaces();
    match d {
        2 => sieve(Const::<2>, halfspaces, rows),
        3 => sieve(Const::<3>, halfspaces, rows),
        4 => sieve(Const::<4>, halfspaces, rows),
        5 => sieve(Const::<5>, halfspaces, rows),
        6 => sieve(Const::<6>, halfspaces, rows),
        d => sieve(Dyn(d), halfspaces, rows),
    }
}

/// The block sieve over `rows` (whole sample rows, row-major).
fn sieve<D: Dim>(dim: D, halfspaces: &[HalfSpace], rows: &[f64]) -> usize {
    let d = dim.get();
    let m = halfspaces.len();
    if m == 0 {
        return rows.len() / d;
    }
    // Half-spaces go two per pass; an odd last one is paired with itself.
    // `inside` is 1 when `w` is strictly inside both, with no branch on
    // the outcome.
    let pair = |k: usize| {
        (
            halfspaces[k].coeffs(),
            halfspaces[(k + 1).min(m - 1)].coeffs(),
        )
    };
    let inside = |(a, b): (&[f64], &[f64]), w: &[f64]| {
        usize::from((slack(dim, a, w) > 0.0) & (slack(dim, b, w) > 0.0))
    };
    let mut survivors = [0u32; BLOCK];
    let mut count = 0;
    for block in rows.chunks(BLOCK * d) {
        let first = pair(0);
        let mut live = 0;
        for (off, w) in block.chunks_exact(d).enumerate() {
            survivors[live] = off as u32;
            live += inside(first, w);
        }
        let mut k = 2;
        while live > 0 && k < m {
            let next = pair(k);
            let mut kept = 0;
            for j in 0..live {
                let off = survivors[j];
                survivors[kept] = off;
                kept += inside(next, &block[off as usize * d..][..d]);
            }
            live = kept;
            k += 2;
        }
        count += live;
    }
    count
}

/// A sample dimension: a compile-time constant for the small `d` the
/// sieve specializes on (fully unrolled slacks), or a runtime value.
trait Dim: Copy {
    fn get(self) -> usize;
}

#[derive(Clone, Copy)]
struct Const<const D: usize>;

impl<const D: usize> Dim for Const<D> {
    #[inline(always)]
    fn get(self) -> usize {
        D
    }
}

#[derive(Clone, Copy)]
struct Dyn(usize);

impl Dim for Dyn {
    #[inline(always)]
    fn get(self) -> usize {
        self.0
    }
}

/// `Σ c_k·w_k`, accumulated left to right like [`HalfSpace::slack`].
#[inline(always)]
fn slack<D: Dim>(dim: D, c: &[f64], w: &[f64]) -> f64 {
    let d = dim.get();
    let (c, w) = (&c[..d], &w[..d]);
    let mut s = c[0] * w[0];
    for k in 1..d {
        s += c[k] * w[k];
    }
    s
}

/// Multi-threaded [`estimate_stability`] for the million-sample
/// configurations of Figure 12. Results are exact (not approximate) with
/// respect to the sequential version: each sample is tested independently,
/// so the split is embarrassingly parallel.
pub fn estimate_stability_parallel(
    region: &ConeRegion,
    samples: &SampleBuffer,
    threads: usize,
) -> f64 {
    assert_eq!(region.dim(), samples.dim(), "oracle: dimension mismatch");
    let n = samples.len();
    if n == 0 {
        return 0.0;
    }
    let threads = threads.clamp(1, n);
    if threads == 1 {
        return estimate_stability(region, samples);
    }
    let chunk = n.div_ceil(threads);
    let total: usize = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let lo = t * chunk;
                let hi = ((t + 1) * chunk).min(n);
                scope.spawn(move || count_inside(region, samples, lo, hi))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("oracle worker panicked"))
            .sum()
    });
    total as f64 / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sphere::sample_orthant_direction;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use srank_geom::hyperplane::HalfSpace;

    fn orthant_samples(seed: u64, n: usize, d: usize) -> SampleBuffer {
        let mut rng = StdRng::seed_from_u64(seed);
        SampleBuffer::generate(&mut rng, n, |r| sample_orthant_direction(r, d))
    }

    #[test]
    fn unconstrained_region_has_stability_one() {
        let samples = orthant_samples(1, 1000, 3);
        assert_eq!(estimate_stability(&ConeRegion::full(3), &samples), 1.0);
    }

    #[test]
    fn empty_sample_set_yields_zero() {
        let samples = SampleBuffer::new(3);
        assert_eq!(estimate_stability(&ConeRegion::full(3), &samples), 0.0);
    }

    /// In 2D, the region {w₁ > w₂} occupies exactly half the arc measure of
    /// the quadrant; the estimate must land near 0.5.
    #[test]
    fn half_plane_region_in_2d() {
        let samples = orthant_samples(2, 50_000, 2);
        let region = ConeRegion::from_halfspaces(2, vec![HalfSpace::new(vec![1.0, -1.0])]);
        let s = estimate_stability(&region, &samples);
        assert!((s - 0.5).abs() < 0.01, "s = {s}");
    }

    /// In 3D, {w₁ > w₂ > w₃} is one of 3! = 6 symmetric orderings of the
    /// coordinates, so its stability in the orthant is 1/6.
    #[test]
    fn coordinate_ordering_region_in_3d() {
        let samples = orthant_samples(3, 60_000, 3);
        let region = ConeRegion::from_halfspaces(
            3,
            vec![
                HalfSpace::new(vec![1.0, -1.0, 0.0]),
                HalfSpace::new(vec![0.0, 1.0, -1.0]),
            ],
        );
        let s = estimate_stability(&region, &samples);
        assert!((s - 1.0 / 6.0).abs() < 0.01, "s = {s}");
    }

    #[test]
    fn parallel_matches_sequential_exactly() {
        let samples = orthant_samples(4, 10_001, 3);
        let region = ConeRegion::from_halfspaces(
            3,
            vec![
                HalfSpace::new(vec![1.0, -0.5, -0.2]),
                HalfSpace::new(vec![-0.1, 1.0, -0.4]),
            ],
        );
        let seq = estimate_stability(&region, &samples);
        for threads in [1, 2, 3, 7, 16] {
            let par = estimate_stability_parallel(&region, &samples, threads);
            assert_eq!(seq, par, "threads = {threads}");
        }
    }

    #[test]
    fn disjoint_regions_partition_the_mass() {
        let samples = orthant_samples(5, 40_000, 2);
        let above = ConeRegion::from_halfspaces(2, vec![HalfSpace::new(vec![-1.0, 1.0])]);
        let below = ConeRegion::from_halfspaces(2, vec![HalfSpace::new(vec![1.0, -1.0])]);
        let total = estimate_stability(&above, &samples) + estimate_stability(&below, &samples);
        // The boundary has measure zero; the two halves must sum to ≈ 1.
        assert!((total - 1.0).abs() < 1e-3, "total = {total}");
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn oracle_checks_dimensions() {
        let samples = orthant_samples(6, 10, 3);
        estimate_stability(&ConeRegion::full(2), &samples);
    }
}
