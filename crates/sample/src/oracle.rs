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
//!
//! ## The grid index
//!
//! A ranking region is tiny next to the region of interest (stability
//! ~1e-13 on fifa), so the sieve's work is almost all rejection.
//! [`count_inside_indexed`] rejects whole cells instead. The buffer's
//! [`GridIndex`] (built by the first indexed count, kept until the
//! buffer is mutated) cuts each coordinate's `[min, max]` into `2^b`
//! cells, `⌊log2 n⌋` key bits in all (at most 15), and counting-sorts
//! the sample indices by the Morton key of their cell. Every node of the
//! implicit prefix tree over the key bits then owns one contiguous run of
//! the permutation, and its box is the product of its cell ranges.
//!
//! The count walks the tree depth first, halving the box on one
//! coordinate per level, and skips a node when one of [`PRUNERS`]
//! half-spaces spread over the region has a box bound
//! `Σ_k c_k·(c_k ≥ 0 ? hi_k : lo_k) ≤ 0`. The samples of the cells left
//! are copied out a block at a time and counted by the sieve, so a
//! region that holds most of the batch costs about what the sieve does.
//!
//! Exactness: a coordinate's cell edges are the stored doubles
//! `edges[q] = lo + q/scale` (the first `min`, the last `max`), and a
//! sample's cell is the arithmetic guess `⌊(x − lo)·scale⌋` moved until
//! `edges[q] ≤ x ≤ edges[q + 1]` holds, so every sample of a box
//! satisfies `lo_k ≤ x_k ≤ hi_k` exactly, and `c_k·corner_k ≥ c_k·x_k`
//! for each term. The bound adds its terms in the slack's left-to-right
//! order, and rounded products and sums are monotone in each operand, so
//! no sample under a skipped node has a computed slack above the bound.
//! Skipping it drops only samples the sieve rejects too: the count is
//! the sieve's count, with no padding, whichever half-spaces prune.
//!
//! Cost: the build is one pass to find the ranges and two that key the
//! samples (to count, then to place them), `4·(n + 2^bits)` bytes kept
//! (~0.53 MB over 100k samples); it takes less time than drawing the
//! batch. A count picks the pruners, visits the nodes whose box the
//! region's neighbourhood reaches (`PRUNERS` bounds each, at most
//! `2^16` nodes), and sieves the samples of the cells left. On fifa
//! (n = 1000, d = 4, 100k orthant samples) it tests about 0.13% of the
//! samples, on bluenile (n = 5000, d = 5) about 0.5%, and runs several
//! times faster than the sieve; on a small batch its cells are coarse
//! and it can lose, so a service verify ([`count_inside_chunked`]) sieves
//! batches under [`INDEX_MIN_SAMPLES`] (`mc_verify` in `BENCH_27.json`).
//! The sieve stays the reference that the tests, the figures and
//! `stability_verify_md` use.

use crate::store::SampleBuffer;
use srank_geom::hyperplane::HalfSpace;
use srank_geom::region::ConeRegion;

/// Calls `f(dim, args…)` with the sample dimension `d` as a [`Dim`]: a
/// compile-time constant for the small `d` the kernels specialize on.
macro_rules! with_dim {
    ($d:expr, $($f:ident)::+($($arg:expr),*)) => {
        match $d {
            2 => $($f)::+(Const::<2>, $($arg),*),
            3 => $($f)::+(Const::<3>, $($arg),*),
            4 => $($f)::+(Const::<4>, $($arg),*),
            5 => $($f)::+(Const::<5>, $($arg),*),
            6 => $($f)::+(Const::<6>, $($arg),*),
            d => $($f)::+(Dyn(d), $($arg),*),
        }
    };
}

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
    with_dim!(d, sieve(halfspaces, rows))
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

/// Half-spaces the index walk tests against each cell box, spread evenly
/// over the region's order.
pub const PRUNERS: usize = 32;

/// Most key bits of a [`GridIndex`]: a cell table of 2^15 + 1 `u32`s,
/// about three samples per cell on a 100k batch.
const MAX_KEY_BITS: u32 = 15;

/// A node holding at most this many samples is not split further: its
/// samples are tested one by one, which costs about what the box tests
/// of its children would.
const LEAF_SAMPLES: u32 = 4;

/// A grid over a sample batch: each coordinate's `[min, max]` is cut into
/// `2^b` cells, and the sample indices are counting-sorted by the Morton
/// key of their cell, so every node of the implicit prefix tree over the
/// key bits owns one contiguous run of `perm`. Built by
/// [`SampleBuffer::grid_index`].
#[derive(Debug)]
pub struct GridIndex {
    /// Per coordinate: its cell edges, `2^b + 1` non-decreasing values
    /// from the coordinate's minimum to its maximum. A sample in cell `q`
    /// satisfies `edges[q] ≤ x ≤ edges[q + 1]`.
    edges: Vec<Vec<f64>>,
    /// Per tree depth, most significant key bit first: the coordinate
    /// whose cell range that depth halves.
    splits: Vec<usize>,
    /// The samples of cell `c` are `perm[offsets[c]..offsets[c + 1]]`.
    offsets: Vec<u32>,
    /// Sample indices in key order.
    perm: Vec<u32>,
}

impl GridIndex {
    /// Builds the index: `⌊log2 n⌋` key bits (at most [`MAX_KEY_BITS`]),
    /// shared out round-robin over the coordinates. Each of the build's
    /// three passes over the samples runs `checkpoint` between
    /// `chunk`-sample slices; its first error abandons the build.
    ///
    /// # Panics
    /// Panics on a zero `chunk` or more than `u32::MAX` samples.
    pub(crate) fn build<E>(
        samples: &SampleBuffer,
        chunk: usize,
        checkpoint: &mut impl FnMut() -> Result<(), E>,
    ) -> Result<Self, E> {
        assert!(chunk > 0, "GridIndex: zero checkpoint chunk");
        with_dim!(samples.dim(), Self::build_in(samples, chunk, checkpoint))
    }

    fn build_in<D: Dim, E>(
        dim: D,
        samples: &SampleBuffer,
        chunk: usize,
        checkpoint: &mut impl FnMut() -> Result<(), E>,
    ) -> Result<Self, E> {
        let (d, n) = (dim.get(), samples.len());
        assert!(
            u32::try_from(n).is_ok(),
            "GridIndex: more than u32::MAX samples"
        );
        let key_bits = n.checked_ilog2().unwrap_or(0).min(MAX_KEY_BITS) as usize;
        let bits: Vec<usize> = (0..d)
            .map(|k| key_bits / d + usize::from(k < key_bits % d))
            .collect();
        let levels = bits.first().copied().unwrap_or(0);
        let splits: Vec<usize> = (0..levels)
            .flat_map(|level| (0..d).filter(|&k| bits[k] > level).collect::<Vec<_>>())
            .collect();
        let rows = samples.as_slice();
        let (mut lo, mut hi) = (vec![f64::INFINITY; d], vec![f64::NEG_INFINITY; d]);
        {
            let (lo, hi) = (&mut lo[..d], &mut hi[..d]);
            each_row(rows, d, chunk, checkpoint, |_, w| {
                for k in 0..d {
                    lo[k] = if w[k] < lo[k] { w[k] } else { lo[k] };
                    hi[k] = if w[k] > hi[k] { w[k] } else { hi[k] };
                }
            })?;
        }
        let axes: Vec<Axis> = (0..d)
            .map(|k| {
                let depths = splits.iter().enumerate().filter(|&(_, &s)| s == k);
                Axis::new(lo[k], hi[k], bits[k], depths.map(|(t, _)| key_bits - 1 - t))
            })
            .collect();
        // A counting sort: each cell is counted at the slot after its own,
        // so the running sums are cell starts; placing a sample advances
        // its cell's slot to the next cell's start, and one rotation puts
        // the starts back. Each pass keys the samples again rather than
        // keeping a key per sample: keying is a few multiplies, and the
        // build's peak stays the permutation and the cell table.
        let key = |w: &[f64]| {
            let axes = &axes[..d];
            (0..d).fold(0, |key, k| key | axes[k].spread[axes[k].cell(w[k])])
        };
        let mut offsets = vec![0u32; (1 << key_bits) + 1];
        each_row(rows, d, chunk, checkpoint, |_, w| {
            offsets[usize::from(key(w)) + 1] += 1;
        })?;
        for c in 1..offsets.len() {
            offsets[c] += offsets[c - 1];
        }
        let mut perm = vec![0u32; n];
        each_row(rows, d, chunk, checkpoint, |i, w| {
            let next = &mut offsets[usize::from(key(w))];
            perm[*next as usize] = i as u32;
            *next += 1;
        })?;
        offsets.rotate_right(1);
        offsets[0] = 0;
        Ok(Self {
            edges: axes.into_iter().map(|axis| axis.edges).collect(),
            splits,
            offsets,
            perm,
        })
    }

    /// Heap bytes held: the permutation, the cell table and the edges.
    pub fn heap_bytes(&self) -> usize {
        4 * (self.perm.len() + self.offsets.len())
            + 8 * self.edges.iter().map(Vec::len).sum::<usize>()
    }

    /// The runs of `perm` no pruner excludes: ascending, disjoint and
    /// merged where they touch. `pruners` holds one `d`-coefficient row
    /// per pruning half-space, at most [`PRUNERS`] of them.
    fn candidates<D: Dim>(&self, dim: D, pruners: &[f64]) -> Vec<(u32, u32)> {
        let d = dim.get();
        let count = pruners.len() / d;
        // Coordinate-major, so one coordinate's terms of every pruner's
        // bound form one vector loop.
        let columns = (0..d)
            .flat_map(|k| pruners.chunks_exact(d).map(move |c| c[k]))
            .collect();
        let mut walk = Walk {
            dim,
            index: self,
            columns,
            count,
            lo: (0..d).map(|k| self.edges[k][0]).collect(),
            hi: (0..d)
                .map(|k| self.edges[k][self.edges[k].len() - 1])
                .collect(),
            cells: (0..d).map(|k| (0, self.edges[k].len() - 1)).collect(),
            out: Vec::new(),
        };
        walk.visit(0, 0);
        walk.out
    }
}

/// One coordinate of a [`GridIndex`] while it is built.
struct Axis {
    lo: f64,
    /// Cells per unit of the coordinate.
    scale: f64,
    /// The cell edges: `2^b + 1` non-decreasing values from the
    /// coordinate's minimum to its maximum.
    edges: Vec<f64>,
    /// `spread[q]`: cell `q`'s bits at their places in the Morton key.
    spread: Vec<u16>,
}

impl Axis {
    /// `2^bits` even cells over `[lo, hi]`; the cell bits go, most
    /// significant first, to the key bits `places`.
    fn new(lo: f64, hi: f64, bits: usize, places: impl Iterator<Item = usize>) -> Self {
        let cells = 1usize << bits;
        let mut spread = vec![0u16; cells];
        for (bit, place) in (0..bits).rev().zip(places) {
            for (q, key) in spread.iter_mut().enumerate() {
                *key |= (((q >> bit) & 1) as u16) << place;
            }
        }
        let scale = if hi > lo {
            cells as f64 / (hi - lo)
        } else {
            0.0
        };
        // `lo + q/scale` is non-decreasing in `q`: rounded division and
        // addition are monotone.
        let edges = (0..=cells)
            .map(|q| match q {
                0 => lo,
                q if q == cells => hi,
                q => (lo + q as f64 / scale).min(hi),
            })
            .collect();
        Self {
            lo,
            scale,
            edges,
            spread,
        }
    }

    /// The cell of `x` in `[lo, hi]`: the guess `⌊(x − lo)·scale⌋`,
    /// moved until `edges[q] ≤ x ≤ edges[q + 1]` holds. The guess and the
    /// edges differ by rounding only, so it seldom moves.
    #[inline(always)]
    fn cell(&self, x: f64) -> usize {
        let last = self.spread.len() - 1;
        let mut q = (((x - self.lo) * self.scale) as usize).min(last);
        // Neither loop runs past the ends: `edges[0]` is the least sample
        // and `edges[last + 1]` the largest.
        while x < self.edges[q] {
            q -= 1;
        }
        while x > self.edges[q + 1] {
            q += 1;
        }
        q
    }
}

/// Runs `f(i, row i)` over the rows in order, with `checkpoint` between
/// `chunk`-row slices; its first error stops the pass.
#[inline(always)]
fn each_row<E>(
    rows: &[f64],
    d: usize,
    chunk: usize,
    checkpoint: &mut impl FnMut() -> Result<(), E>,
    mut f: impl FnMut(usize, &[f64]),
) -> Result<(), E> {
    for (c, slice) in rows.chunks(chunk * d).enumerate() {
        if c > 0 {
            checkpoint()?;
        }
        for (j, w) in slice.chunks_exact(d).enumerate() {
            f(c * chunk + j, w);
        }
    }
    Ok(())
}

/// A depth-first walk of a [`GridIndex`]'s prefix tree, carrying the
/// current node's box.
struct Walk<'a, D: Dim> {
    dim: D,
    index: &'a GridIndex,
    /// Pruner coefficients, coordinate-major: coordinate `k` of pruner
    /// `j` is `columns[k·count + j]`.
    columns: Vec<f64>,
    count: usize,
    lo: Vec<f64>,
    hi: Vec<f64>,
    /// Per coordinate, the node's cell range `[first, last)`.
    cells: Vec<(usize, usize)>,
    out: Vec<(u32, u32)>,
}

impl<D: Dim> Walk<'_, D> {
    fn visit(&mut self, depth: usize, first_cell: usize) {
        let key_bits = self.index.splits.len();
        let span = 1usize << (key_bits - depth);
        let offsets = &self.index.offsets;
        let (a, b) = (offsets[first_cell], offsets[first_cell + span]);
        if a == b || self.excluded() {
            return;
        }
        if depth == key_bits || b - a <= LEAF_SAMPLES {
            match self.out.last_mut() {
                Some(last) if last.1 == a => last.1 = b,
                _ => self.out.push((a, b)),
            }
            return;
        }
        let k = self.index.splits[depth];
        let (first, last) = self.cells[k];
        let mid = (first + last) / 2;
        let edge = self.index.edges[k][mid];
        let (lo, hi) = (self.lo[k], self.hi[k]);
        (self.cells[k], self.hi[k]) = ((first, mid), edge);
        self.visit(depth + 1, first_cell);
        (self.cells[k], self.lo[k], self.hi[k]) = ((mid, last), edge, hi);
        self.visit(depth + 1, first_cell + span / 2);
        (self.cells[k], self.lo[k]) = ((first, last), lo);
    }

    /// True when some pruner's largest slack over the box is ≤ 0, so no
    /// sample in it can be strictly inside. That slack is `Σ c_k·x_k` at
    /// the corner `x_k = c_k ≥ 0 ? hi_k : lo_k`, accumulated left to right
    /// like [`slack`]: rounded products and sums are monotone in each
    /// operand, so no sample in the box has a larger computed slack.
    fn excluded(&self) -> bool {
        let (d, count) = (self.dim.get(), self.count);
        let mut most = [0.0; PRUNERS];
        let most = &mut most[..count];
        for k in 0..d {
            let (lo, hi) = (self.lo[k], self.hi[k]);
            let column = &self.columns[k * count..][..count];
            for (s, &c) in most.iter_mut().zip(column) {
                let term = c * if c >= 0.0 { hi } else { lo };
                *s = if k == 0 { term } else { *s + term };
            }
        }
        most.iter().any(|&s| s <= 0.0)
    }
}

/// What [`count_inside_indexed`] found.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IndexedCount {
    /// Samples strictly inside every half-space: exactly
    /// `count_inside(region, samples, 0, samples.len())`.
    pub inside: usize,
    /// Samples whose slacks were evaluated: those in the cells the walk
    /// kept.
    pub tested: usize,
}

/// [`count_inside`] over the whole buffer, through the buffer's
/// [`GridIndex`] (built on first use): only the samples of cells that
/// the region's [`pruners`] cannot exclude are tested, by the sieve.
///
/// `checkpoint` runs between `chunk`-sample slices of each pass of the
/// index build, after the build, and after every `chunk` samples tested,
/// whenever the buffer holds more than `chunk` samples; its first error
/// abandons the count.
///
/// # Panics
/// Panics on a dimension mismatch or a zero `chunk`.
pub fn count_inside_indexed<E>(
    region: &ConeRegion,
    samples: &SampleBuffer,
    chunk: usize,
    checkpoint: impl FnMut() -> Result<(), E>,
) -> Result<IndexedCount, E> {
    let d = region.dim();
    assert_eq!(samples.dim(), d, "oracle: dimension mismatch");
    assert!(chunk > 0, "oracle: zero checkpoint chunk");
    with_dim!(d, indexed(region, samples, chunk, checkpoint))
}

/// Batches with fewer samples are counted by the sieve alone: a small
/// batch has few, coarse cells that exclude less, and the walk's cost
/// per node does not shrink with it. On orthant batches the indexed
/// count runs at 0.67× the sieve's speed on bluenile (n = 5000, d = 5)
/// at 5k samples and 5.7× at 100k, on fifa (n = 1000, d = 4) at 1.8× and
/// 15× (`mc_verify` in `BENCH_27.json`, 2 vCPUs); a sweep between them
/// had bluenile break even near 8k samples and run at 1.1–1.3× at 10k.
pub const INDEX_MIN_SAMPLES: usize = 10_000;

/// The count of a Monte-Carlo `verify`: [`count_inside_indexed`] on a
/// batch of at least [`INDEX_MIN_SAMPLES`] samples; on a smaller one the
/// sieve in `chunk`-sample slices, with `checkpoint` between them and no
/// index built.
///
/// # Panics
/// Panics on a dimension mismatch or a zero `chunk`.
pub fn count_inside_chunked<E>(
    region: &ConeRegion,
    samples: &SampleBuffer,
    chunk: usize,
    mut checkpoint: impl FnMut() -> Result<(), E>,
) -> Result<usize, E> {
    assert_eq!(samples.dim(), region.dim(), "oracle: dimension mismatch");
    assert!(chunk > 0, "oracle: zero checkpoint chunk");
    let n = samples.len();
    if n >= INDEX_MIN_SAMPLES {
        return count_inside_indexed(region, samples, chunk, checkpoint).map(|c| c.inside);
    }
    let mut inside = 0;
    for lo in (0..n).step_by(chunk) {
        if lo > 0 {
            checkpoint()?;
        }
        inside += count_inside(region, samples, lo, (lo + chunk).min(n));
    }
    Ok(inside)
}

fn indexed<D: Dim, E>(
    dim: D,
    region: &ConeRegion,
    samples: &SampleBuffer,
    chunk: usize,
    mut checkpoint: impl FnMut() -> Result<(), E>,
) -> Result<IndexedCount, E> {
    let n = samples.len();
    let halfspaces = region.halfspaces();
    if n == 0 || halfspaces.is_empty() {
        return Ok(IndexedCount {
            inside: n,
            tested: 0,
        });
    }
    let index = samples.grid_index(chunk, &mut checkpoint)?;
    if n > chunk {
        checkpoint()?;
    }
    let runs = index.candidates(dim, &pruners(dim, halfspaces));
    let tested: usize = runs.iter().map(|&(a, b)| (b - a) as usize).sum();
    // The candidates are copied out a sieve block at a time, so the
    // sieve's later passes over a block's survivors stay in cache.
    let full = dim.get() * BLOCK;
    let mut block = Vec::with_capacity(full.min(dim.get() * tested));
    let (mut inside, mut since) = (0, 0);
    for &i in runs
        .iter()
        .flat_map(|&(a, b)| &index.perm[a as usize..b as usize])
    {
        block.extend_from_slice(samples.row(i as usize));
        if block.len() == full {
            inside += sieve(dim, halfspaces, &block);
            block.clear();
        }
        since += 1;
        if since == chunk && n > chunk {
            checkpoint()?;
            since = 0;
        }
    }
    inside += sieve(dim, halfspaces, &block);
    Ok(IndexedCount { inside, tested })
}

/// The coefficients of at most [`PRUNERS`] half-spaces spread evenly
/// over the region's order, one row each. A ranking region lists its
/// adjacent pairs top to bottom, and neighbouring pairs cut along nearly
/// the same direction, so a spread set excludes more cells than a
/// consecutive one. It excludes about as many as the half-spaces nearest
/// the query weight (over 100k orthant samples and 40 weights, 0.13%
/// against 0.11% of the samples tested on fifa, 0.33% against 0.36% on
/// bluenile) without
/// their selection's slack per half-space, which on bluenile (n = 5000)
/// costs more than the whole walk.
fn pruners<D: Dim>(dim: D, halfspaces: &[HalfSpace]) -> Vec<f64> {
    let stride = (halfspaces.len() / PRUNERS).max(1);
    halfspaces
        .iter()
        .step_by(stride)
        .take(PRUNERS)
        .flat_map(|h| h.coeffs()[..dim.get()].iter().copied())
        .collect()
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

    /// Every value a cell rule can see lands in a cell whose stored edges
    /// hold it: each edge, its neighbouring doubles and values between
    /// edges, over ranges whose cell width is not a double.
    #[test]
    fn cells_hold_their_samples_between_their_edges() {
        let mut misses = 0;
        for (lo, hi) in [
            (0.1, 0.7),
            (-0.3, 0.9),
            (1e-9, 3e-9),
            (0.2, 0.2),
            (-2.0, -1.9),
        ] {
            for bits in [1, 3, 7, 12, 15] {
                let axis = Axis::new(lo, hi, bits, (0..bits).rev());
                let mut xs: Vec<f64> = axis
                    .edges
                    .iter()
                    .flat_map(|&e| [e.next_down(), e, e.next_up()])
                    .collect();
                xs.extend((0..=997).map(|i| lo + (hi - lo) * f64::from(i) / 997.0));
                for x in xs.into_iter().filter(|x| (lo..=hi).contains(x)) {
                    let q = axis.cell(x);
                    let guess = (((x - lo) * axis.scale) as usize).min(axis.spread.len() - 1);
                    misses += usize::from(guess != q);
                    assert!(
                        axis.edges[q] <= x && x <= axis.edges[q + 1],
                        "[{lo}, {hi}] bits {bits}: {x} in cell {q} of {:?}",
                        &axis.edges[q..q + 2]
                    );
                }
            }
        }
        assert!(misses > 0, "some guesses are moved, so the move is tested");
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn oracle_checks_dimensions() {
        let samples = orthant_samples(6, 10, 3);
        estimate_stability(&ConeRegion::full(2), &samples);
    }
}
