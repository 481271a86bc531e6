//! The dataset model of §2.1.1: `n` items over `d` normalized scoring
//! attributes, with both a row-major and a columnar (struct-of-arrays)
//! view of the attribute matrix.
//!
//! ## The scoring kernel
//!
//! Every Monte-Carlo operator reduces to the same inner loop: score all
//! `n` items under a sampled weight vector, then order them. Two layouts
//! serve that loop:
//!
//! * **row-major** (`data[i·d + j]`) — one dot product per item; natural
//!   for single-item scoring ([`Dataset::score`]) and kept as the
//!   reference path ([`Dataset::scores_into_row_major`]);
//! * **columnar** (`cols[j·n + i]`) — [`Dataset::scores_into`] scores
//!   [`SCORE_BLOCK`] items at a time: eight adjacent items accumulate
//!   `w_j · col_j[i]` in registers over all `d` columns (stride-1 loads,
//!   no horizontal reduction, one store per item), and the finished block
//!   stays in L1 for whatever consumes it.
//!
//! Both paths add the `d` partial products in the same order, so their
//! results are **bit-identical** — tests cross-check them with exact
//! equality, and switching the default layout cannot perturb any seeded
//! expectation downstream.
//!
//! Two fast orderings sit on top of the scores, each exactly the order of
//! its kept reference path ([`Dataset::rank_into`] /
//! [`Dataset::top_k_into`]): descending score, ties broken by ascending
//! item index.
//!
//! * [`Dataset::rank_into_keyed`] packs each item into one `u64` of
//!   `(inverted quantized score, index)` — the quantization keeps the top
//!   32 bits of the order-preserving bit pattern of the score — sorts the
//!   keys with a stable 3-pass LSD radix (no comparisons at all), and
//!   falls back to the exact `f64` comparator only where two quantized
//!   halves collide. [`Dataset::rank`] sorts this way.
//! * [`Dataset::top_k_fused_into`] never materializes all `n` scores: it
//!   scores one block, skips it unless its best item beats the current
//!   k-th best, and keeps the k best `(score, index)` pairs in a heap.

use crate::error::{Result, StableRankError};
use crate::ranking::Ranking;
use srank_geom::dominance::dominates;
use srank_geom::vector::dot;

/// A fixed database of items with scalar scoring attributes.
///
/// Attributes are assumed normalized per the paper: in `[0, 1]` with larger
/// values preferred (see `srank-data`'s `RawTable::normalized`). The type
/// does not *enforce* the unit interval — the techniques work for any
/// non-negative values — but negative attributes break the geometry of
/// first-orthant scoring and are rejected.
#[derive(Clone, Debug, PartialEq)]
pub struct Dataset {
    n: usize,
    d: usize,
    /// Row-major attribute matrix, `data[i·d + j] = item i, attribute j`.
    data: Vec<f64>,
    /// Columnar mirror, `cols[j·n + i] = item i, attribute j` — the
    /// struct-of-arrays layout of the scoring kernel.
    cols: Vec<f64>,
}

/// Maps a finite score to a `u64` whose unsigned order equals the score's
/// numeric order (the standard sign-flip trick, covering the negative
/// scores an unclipped cone sample can produce).
#[inline]
fn orderable_bits(s: f64) -> u64 {
    let b = s.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | (1u64 << 63)
    }
}

/// Packs item `i` with its score into one sortable key: high 32 bits are
/// the *inverted* quantized score (so ascending key order is descending
/// score order), low 32 bits the item index. `score + 0.0` turns `-0.0`
/// into `+0.0` (and is exact for every other value), so the two zeros,
/// which compare equal, share one quantized run and tie by index.
#[inline]
fn packed_key(score: f64, i: u32) -> u64 {
    let q = (orderable_bits(score + 0.0) >> 32) as u32;
    ((!q as u64) << 32) | i as u64
}

/// The exact comparator over packed keys: quantized halves first, the
/// full-precision score (descending) and item index (ascending) only on a
/// quantized collision. Total order identical to the reference
/// comparator of [`Dataset::rank_into`].
#[inline]
fn packed_cmp(scores: &[f64], a: u64, b: u64) -> std::cmp::Ordering {
    let (qa, qb) = (a >> 32, b >> 32);
    if qa != qb {
        return qa.cmp(&qb);
    }
    let (ia, ib) = (a as u32, b as u32);
    scores[ib as usize]
        .partial_cmp(&scores[ia as usize])
        .unwrap()
        .then(ia.cmp(&ib))
}

/// Sorts packed keys ascending by a 3-pass LSD radix over the 32
/// quantized-score bits (11 + 11 + 10), ping-ponging between `keys` and
/// `spare`. Stable, so equal quantized scores keep ascending-index order.
/// The sorted keys end up back in `keys`; `spare` is pure scratch.
/// Radix is immune to the score *distribution* (bits are bits), which a
/// value-bucketing sort is not.
fn radix_sort_keys(keys: &mut Vec<u64>, spare: &mut Vec<u64>) {
    let n = keys.len();
    if n <= 1 {
        return;
    }
    spare.clear();
    spare.resize(n, 0);
    let (mut h0, mut h1, mut h2) = ([0u32; 2048], [0u32; 2048], [0u32; 1024]);
    // One histogram pass for all digits, plus the OR of bit differences —
    // a digit all keys agree on needs no scatter pass at all (typical for
    // the top bits: every score of one sample shares an exponent range).
    let first = keys[0] >> 32;
    let mut diff = 0u64;
    for &k in keys.iter() {
        let v = k >> 32;
        diff |= v ^ first;
        h0[(v & 0x7ff) as usize] += 1;
        h1[((v >> 11) & 0x7ff) as usize] += 1;
        h2[(v >> 22) as usize] += 1;
    }
    let prefix = |h: &mut [u32]| {
        let mut acc = 0u32;
        for c in h.iter_mut() {
            let next = acc + *c;
            *c = acc;
            acc = next;
        }
    };
    // Ping-pong between the two buffers, running only the passes whose
    // digit actually varies; stability of each pass preserves the
    // ascending-index build order within equal keys.
    let (mut src, mut dst) = (keys, spare);
    let mut passes = 0usize;
    if diff & 0x7ff != 0 {
        prefix(&mut h0);
        for &k in src.iter() {
            let d = ((k >> 32) & 0x7ff) as usize;
            dst[h0[d] as usize] = k;
            h0[d] += 1;
        }
        std::mem::swap(&mut src, &mut dst);
        passes += 1;
    }
    if diff & (0x7ff << 11) != 0 {
        prefix(&mut h1);
        for &k in src.iter() {
            let d = ((k >> 43) & 0x7ff) as usize;
            dst[h1[d] as usize] = k;
            h1[d] += 1;
        }
        std::mem::swap(&mut src, &mut dst);
        passes += 1;
    }
    if diff & (0x3ff << 22) != 0 {
        prefix(&mut h2);
        for &k in src.iter() {
            let d = (k >> 54) as usize;
            dst[h2[d] as usize] = k;
            h2[d] += 1;
        }
        std::mem::swap(&mut src, &mut dst);
        passes += 1;
    }
    // An odd pass count leaves the sorted data in the caller's `spare`
    // (`src` points at it after the final swap); move it home to `keys`.
    if passes % 2 == 1 {
        std::mem::swap(src, dst);
    }
}

/// Items per scoring block of [`Dataset::scores_into`] and
/// [`Dataset::top_k_fused_into`]: 256 scores (2 KiB) stay in L1.
pub const SCORE_BLOCK: usize = 256;

/// Whether heap entry `a` ranks below `b` in the reference order (score
/// descending, then index ascending) — the min-heap order of
/// [`Dataset::top_k_fused_into`], whose root is the worst kept entry.
#[inline]
fn worse(a: (f64, u32), b: (f64, u32)) -> bool {
    a.0 < b.0 || (a.0 == b.0 && a.1 > b.1)
}

/// Restores the heap order after the root was overwritten.
#[inline]
fn heap_sift_down(heap: &mut [(f64, u32)]) {
    let mut i = 0;
    loop {
        let left = 2 * i + 1;
        if left >= heap.len() {
            break;
        }
        let right = left + 1;
        let child = if right < heap.len() && worse(heap[right], heap[left]) {
            right
        } else {
            left
        };
        if !worse(heap[child], heap[i]) {
            break;
        }
        heap.swap(i, child);
        i = child;
    }
}

impl Dataset {
    /// Builds a dataset from item rows.
    ///
    /// # Errors
    /// Rejects empty input, ragged rows, non-finite or negative values.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self> {
        if rows.is_empty() || rows[0].is_empty() {
            return Err(StableRankError::EmptyDataset);
        }
        let d = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * d);
        for (i, r) in rows.iter().enumerate() {
            if r.len() != d {
                return Err(StableRankError::DimensionMismatch {
                    expected: d,
                    got: r.len(),
                });
            }
            for &v in r {
                if !v.is_finite() || v < 0.0 {
                    return Err(StableRankError::InvalidWeights(format!(
                        "item {i} has non-finite or negative attribute {v}"
                    )));
                }
            }
            data.extend_from_slice(r);
        }
        let n = rows.len();
        let mut cols = vec![0.0; n * d];
        for (i, r) in rows.iter().enumerate() {
            for (j, &v) in r.iter().enumerate() {
                cols[j * n + i] = v;
            }
        }
        Ok(Self { n, d, data, cols })
    }

    /// Number of items `n`.
    pub fn len(&self) -> usize {
        self.n
    }

    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of scoring attributes `d`.
    pub fn dim(&self) -> usize {
        self.d
    }

    /// Item `i`'s attribute vector.
    #[inline]
    pub fn item(&self, i: usize) -> &[f64] {
        &self.data[i * self.d..(i + 1) * self.d]
    }

    /// Attribute `j` across all items — the columnar view.
    #[inline]
    pub fn column(&self, j: usize) -> &[f64] {
        &self.cols[j * self.n..(j + 1) * self.n]
    }

    /// The linear score `f_w(t_i) = Σ_j w_j·t_i[j]`.
    #[inline]
    pub fn score(&self, i: usize, w: &[f64]) -> f64 {
        dot(self.item(i), w)
    }

    /// Whether item `i` dominates item `j` (§3).
    pub fn dominates(&self, i: usize, j: usize) -> bool {
        dominates(self.item(i), self.item(j))
    }

    /// Validates that `w` is finite and has the right arity for this
    /// dataset.
    pub fn check_weights(&self, w: &[f64]) -> Result<()> {
        if w.len() != self.d {
            return Err(StableRankError::DimensionMismatch {
                expected: self.d,
                got: w.len(),
            });
        }
        if let Some(x) = w.iter().find(|x| !x.is_finite()) {
            return Err(StableRankError::InvalidWeights(format!(
                "weight {x} is not finite"
            )));
        }
        Ok(())
    }

    /// The ranking `∇f_w(D)`: items by descending score, ties broken by
    /// item index (the paper's "consistent tie-break by item identifier").
    /// Sorted by the radix path ([`rank_into_keyed`](Self::rank_into_keyed)),
    /// whose order is exactly the comparator order of
    /// [`rank_into`](Self::rank_into).
    pub fn rank(&self, w: &[f64]) -> Result<Ranking> {
        self.check_weights(w)?;
        let (mut scores, mut keys, mut spare, mut order) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        self.rank_into_keyed(w, &mut scores, &mut keys, &mut spare, &mut order);
        Ok(Ranking::from_order_unchecked(order))
    }

    /// Allocation-free ranking into caller-provided buffers: fills `order`
    /// with all item indices sorted by descending score, via a comparator
    /// sort — the reference path the radix fast path
    /// ([`rank_into_keyed`](Self::rank_into_keyed)) is cross-checked
    /// against.
    pub fn rank_into(&self, w: &[f64], scores: &mut Vec<f64>, order: &mut Vec<u32>) {
        self.scores_into(w, scores);
        order.clear();
        order.extend(0..self.n as u32);
        order.sort_unstable_by(|&a, &b| {
            scores[b as usize]
                .partial_cmp(&scores[a as usize])
                .unwrap()
                .then(a.cmp(&b))
        });
    }

    /// The radix fast path of [`rank_into`](Self::rank_into): items become
    /// `(inverted quantized score, index)` machine words, a stable 3-pass
    /// LSD radix sorts them without a single `f64` comparison, and runs of
    /// equal quantized scores (rare: equal top-32 score bits) are re-sorted
    /// with the exact comparator. Output order is *identical* to
    /// `rank_into`; `keys`/`spare` are two more scratch buffers the caller
    /// keeps alive between samples, so steady state does zero heap
    /// allocations.
    pub fn rank_into_keyed(
        &self,
        w: &[f64],
        scores: &mut Vec<f64>,
        keys: &mut Vec<u64>,
        spare: &mut Vec<u64>,
        order: &mut Vec<u32>,
    ) {
        self.scores_into(w, scores);
        keys.clear();
        keys.extend(
            scores
                .iter()
                .enumerate()
                .map(|(i, &s)| packed_key(s, i as u32)),
        );
        radix_sort_keys(keys, spare);
        // Quantized collisions sorted by index instead of exact score:
        // re-sort those runs with the exact comparator so the final order
        // matches `rank_into` everywhere.
        let s = &scores[..];
        let n = keys.len();
        let mut i = 0;
        while i < n {
            let q = keys[i] >> 32;
            let mut j = i + 1;
            while j < n && keys[j] >> 32 == q {
                j += 1;
            }
            if j - i > 1 {
                keys[i..j].sort_unstable_by(|&a, &b| packed_cmp(s, a, b));
            }
            i = j;
        }
        order.clear();
        order.extend(keys.iter().map(|&k| k as u32));
    }

    /// The ranked top-k prefix of `∇f_w(D)` without sorting all of `D`:
    /// scores everything, then an O(n + k log k) comparator selection.
    /// The reference path the fused kernel
    /// ([`top_k_fused_into`](Self::top_k_fused_into)) is cross-checked
    /// against.
    pub fn top_k_into(
        &self,
        w: &[f64],
        k: usize,
        scores: &mut Vec<f64>,
        idx: &mut Vec<u32>,
        out: &mut Vec<u32>,
    ) {
        let k = k.min(self.n);
        self.scores_into(w, scores);
        idx.clear();
        idx.extend(0..self.n as u32);
        let cmp = |a: &u32, b: &u32| {
            scores[*b as usize]
                .partial_cmp(&scores[*a as usize])
                .unwrap()
                .then(a.cmp(b))
        };
        if k > 0 && k < self.n {
            idx.select_nth_unstable_by(k - 1, cmp);
        }
        let top = &mut idx[..k];
        top.sort_unstable_by(cmp);
        out.clear();
        out.extend_from_slice(top);
    }

    /// The fused fast path of [`top_k_into`](Self::top_k_into), identical
    /// output order. Items are scored [`SCORE_BLOCK`] at a time into an
    /// L1-resident block; a block whose maximum is not strictly greater
    /// than the current k-th best score is skipped, the rest are offered
    /// item by item to `best`, a k-long min-heap of `(score, index)` whose
    /// root is the worst kept entry. Items arrive in ascending index and a
    /// newcomer must beat the root's score strictly, so a tie always keeps
    /// the lower index — the reference comparator's tie-break — with no
    /// n-sized `scores` or key buffers. Cost: O(n·d) scoring plus an
    /// O(log k) sift per heap replacement — about k·(1 + ln(n/k)) of them
    /// when scores arrive in random order, n in the worst case — so the
    /// kernel is built for k ≪ n. `w` must be finite, as every sampler's
    /// draws are.
    pub fn top_k_fused_into(
        &self,
        w: &[f64],
        k: usize,
        best: &mut Vec<(f64, u32)>,
        out: &mut Vec<u32>,
    ) {
        let k = k.min(self.n);
        out.clear();
        best.clear();
        if k == 0 {
            return;
        }
        // Sentinels rank below every real item, so the first k items
        // displace them and every offer is one strict comparison.
        best.resize(k, (f64::NEG_INFINITY, u32::MAX));
        let mut kth = f64::NEG_INFINITY;
        let mut block = [0.0f64; SCORE_BLOCK];
        for start in (0..self.n).step_by(SCORE_BLOCK) {
            let block = &mut block[..SCORE_BLOCK.min(self.n - start)];
            if self.score_block(w, start, block) <= kth {
                continue;
            }
            for (i, &s) in block.iter().enumerate() {
                if s > kth {
                    best[0] = (s, (start + i) as u32);
                    heap_sift_down(best);
                    kth = best[0].0;
                }
            }
        }
        // Only a NaN score can fail to displace a sentinel.
        debug_assert!(
            best.iter().all(|&(s, _)| s.is_finite()),
            "non-finite weights"
        );
        best.sort_unstable_by(|a, b| b.0.partial_cmp(&a.0).unwrap().then(a.1.cmp(&b.1)));
        out.extend(best.iter().map(|&(_, i)| i));
    }

    /// Convenience wrapper allocating fresh buffers.
    pub fn top_k(&self, w: &[f64], k: usize) -> Result<Vec<u32>> {
        self.check_weights(w)?;
        let (mut scores, mut idx, mut out) = (Vec::new(), Vec::new(), Vec::new());
        self.top_k_into(w, k, &mut scores, &mut idx, &mut out);
        Ok(out)
    }

    /// The columnar scoring kernel: `scores[i] = Σ_j w_j · cols[j][i]`,
    /// computed [`SCORE_BLOCK`] items at a time by the block scorer of
    /// [`top_k_fused_into`](Self::top_k_fused_into). Adds the partial
    /// products in the same `j` order as the row-major path, so the two
    /// are bit-identical.
    pub fn scores_into(&self, w: &[f64], scores: &mut Vec<f64>) {
        debug_assert_eq!(w.len(), self.d);
        scores.clear();
        scores.resize(self.n, 0.0);
        for (b, block) in scores.chunks_mut(SCORE_BLOCK).enumerate() {
            self.score_block(w, b * SCORE_BLOCK, block);
        }
    }

    /// Scores items `start..start + out.len()` into `out` and returns the
    /// block's maximum. Eight items at a time accumulate `w_j · col_j` in
    /// registers over `j = 0..d` — the same per-item order as the
    /// row-major path — and are stored once. `out` is at most
    /// [`SCORE_BLOCK`] long, so it stays in L1 for the caller's scan.
    #[inline]
    fn score_block(&self, w: &[f64], start: usize, out: &mut [f64]) -> f64 {
        let n = self.n;
        let (o8, o_tail) = out.as_chunks_mut::<8>();
        let mut lane_max = [f64::NEG_INFINITY; 8];
        for (c, o) in o8.iter_mut().enumerate() {
            let i = start + 8 * c;
            let lanes = |j: usize| -> &[f64; 8] {
                self.cols[j * n + i..]
                    .first_chunk()
                    .expect("an 8-item chunk lies inside its column")
            };
            let mut acc = lanes(0).map(|x| w[0] * x);
            for (j, &wj) in w.iter().enumerate().skip(1) {
                let x = lanes(j);
                for l in 0..8 {
                    acc[l] += wj * x[l];
                }
            }
            for l in 0..8 {
                if acc[l] > lane_max[l] {
                    lane_max[l] = acc[l];
                }
            }
            *o = acc;
        }
        let tail_start = start + 8 * o8.len();
        let mut max = lane_max.into_iter().fold(f64::NEG_INFINITY, f64::max);
        for (t, o) in o_tail.iter_mut().enumerate() {
            let i = tail_start + t;
            let mut s = w[0] * self.cols[i];
            for (j, &wj) in w.iter().enumerate().skip(1) {
                s += wj * self.cols[j * n + i];
            }
            *o = s;
            max = max.max(s);
        }
        max
    }

    /// The row-major reference path: one dot product per item (with the
    /// historical small-`d` specializations). Kept for cross-checking the
    /// columnar kernel and for callers that score a handful of items.
    pub fn scores_into_row_major(&self, w: &[f64], scores: &mut Vec<f64>) {
        debug_assert_eq!(w.len(), self.d);
        scores.clear();
        scores.reserve(self.n);
        match self.d {
            2 => scores.extend(self.data.chunks_exact(2).map(|t| t[0] * w[0] + t[1] * w[1])),
            3 => scores.extend(
                self.data
                    .chunks_exact(3)
                    .map(|t| t[0] * w[0] + t[1] * w[1] + t[2] * w[2]),
            ),
            _ => scores.extend(self.data.chunks_exact(self.d).map(|t| dot(t, w))),
        }
    }

    /// Appends a derived scoring attribute computed from each item's
    /// existing attributes — the §2.1.1 device for non-linear scoring:
    /// "consider f(t) = x1 + x2 + 0.5·x1²; the quadratic term can be added
    /// as x3 = x1²". The derived values must be finite and non-negative.
    ///
    /// ```
    /// # use srank_core::dataset::Dataset;
    /// let d = Dataset::figure1();
    /// // Score f = x1 + x2 + 0.5·x1² becomes linear weights (1, 1, 0.5).
    /// let augmented = d.with_derived_attribute(|t| t[0] * t[0]).unwrap();
    /// let quadratic = augmented.rank(&[1.0, 1.0, 0.5]).unwrap();
    /// assert_eq!(quadratic.len(), 5);
    /// ```
    pub fn with_derived_attribute(&self, derive: impl Fn(&[f64]) -> f64) -> Result<Dataset> {
        let rows: Vec<Vec<f64>> = (0..self.n)
            .map(|i| {
                let item = self.item(i);
                let mut row = item.to_vec();
                row.push(derive(item));
                row
            })
            .collect();
        Dataset::from_rows(&rows)
    }

    /// The Figure 1a example database — used pervasively in tests and docs.
    ///
    /// ```
    /// # use srank_core::dataset::Dataset;
    /// let d = Dataset::figure1();
    /// let r = d.rank(&[1.0, 1.0]).unwrap();
    /// // §2.1.2: f = x1 + x2 ranks ⟨t2, t4, t3, t5, t1⟩.
    /// assert_eq!(r.order(), &[1, 3, 2, 4, 0]);
    /// ```
    pub fn figure1() -> Self {
        Dataset::from_rows(&[
            vec![0.63, 0.71],
            vec![0.83, 0.65],
            vec![0.58, 0.78],
            vec![0.70, 0.68],
            vec![0.53, 0.82],
        ])
        .expect("static example data is valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_rows_validation() {
        assert_eq!(Dataset::from_rows(&[]), Err(StableRankError::EmptyDataset));
        assert!(matches!(
            Dataset::from_rows(&[vec![0.1, 0.2], vec![0.1]]),
            Err(StableRankError::DimensionMismatch {
                expected: 2,
                got: 1
            })
        ));
        assert!(Dataset::from_rows(&[vec![0.1, -0.2]]).is_err());
        assert!(Dataset::from_rows(&[vec![0.1, f64::NAN]]).is_err());
    }

    #[test]
    fn scores_match_figure1() {
        let d = Dataset::figure1();
        // Figure 1a: f = x1 + x2 scores.
        let expect = [1.34, 1.48, 1.36, 1.38, 1.35];
        for (i, &s) in expect.iter().enumerate() {
            assert!((d.score(i, &[1.0, 1.0]) - s).abs() < 1e-12);
        }
    }

    #[test]
    fn ranking_matches_paper() {
        let d = Dataset::figure1();
        assert_eq!(d.rank(&[1.0, 1.0]).unwrap().order(), &[1, 3, 2, 4, 0]);
        // f = x1 alone: order by first attribute.
        assert_eq!(d.rank(&[1.0, 0.0]).unwrap().order(), &[1, 3, 0, 2, 4]);
        // f = x2 alone.
        assert_eq!(d.rank(&[0.0, 1.0]).unwrap().order(), &[4, 2, 0, 3, 1]);
    }

    #[test]
    fn ties_break_by_item_index() {
        let d = Dataset::from_rows(&[vec![0.5, 0.5], vec![0.5, 0.5], vec![0.9, 0.9]]).unwrap();
        assert_eq!(d.rank(&[1.0, 1.0]).unwrap().order(), &[2, 0, 1]);
    }

    #[test]
    fn top_k_is_ranking_prefix() {
        let d = Dataset::figure1();
        for k in 0..=5 {
            let top = d.top_k(&[1.0, 1.0], k).unwrap();
            let full = d.rank(&[1.0, 1.0]).unwrap();
            assert_eq!(top.as_slice(), &full.order()[..k]);
        }
    }

    #[test]
    fn top_k_clamps_to_n() {
        let d = Dataset::figure1();
        assert_eq!(d.top_k(&[1.0, 1.0], 99).unwrap().len(), 5);
    }

    #[test]
    fn top_k_prefix_consistent_on_larger_data() {
        // Pseudo-random 3-attribute data; top-k must equal the full
        // ranking's prefix for every k tested.
        let mut state = 0x12345678u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 11) as f64) / ((1u64 << 53) as f64)
        };
        let rows: Vec<Vec<f64>> = (0..500).map(|_| (0..3).map(|_| next()).collect()).collect();
        let d = Dataset::from_rows(&rows).unwrap();
        let w = [0.5, 0.3, 0.2];
        let full = d.rank(&w).unwrap();
        for k in [1usize, 7, 100, 499] {
            assert_eq!(d.top_k(&w, k).unwrap().as_slice(), &full.order()[..k]);
        }
    }

    #[test]
    fn columnar_and_row_major_scores_are_bit_identical() {
        let mut state = 0xfeed_beefu64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 11) as f64) / ((1u64 << 53) as f64)
        };
        for (n, d) in [
            (1usize, 2usize),
            (5, 2),
            (7, 3),
            (37, 4),
            (203, 5),
            (500, 7),
        ] {
            let rows: Vec<Vec<f64>> = (0..n).map(|_| (0..d).map(|_| next()).collect()).collect();
            let data = Dataset::from_rows(&rows).unwrap();
            let w: Vec<f64> = (0..d).map(|_| next()).collect();
            let (mut a, mut b) = (Vec::new(), Vec::new());
            data.scores_into(&w, &mut a);
            data.scores_into_row_major(&w, &mut b);
            assert_eq!(a.len(), n);
            // Same f64 association order ⇒ exact equality, not tolerance.
            assert_eq!(a, b, "n={n} d={d}");
        }
    }

    #[test]
    fn fast_ranking_matches_reference_comparator() {
        let mut state = 0xabcdu64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 11) as f64) / ((1u64 << 53) as f64)
        };
        for n in [1usize, 2, 17, 100, 501] {
            let rows: Vec<Vec<f64>> = (0..n).map(|_| (0..3).map(|_| next()).collect()).collect();
            let data = Dataset::from_rows(&rows).unwrap();
            let w = [next(), next(), next()];
            let (mut s1, mut s2, mut keys, mut spare) =
                (Vec::new(), Vec::new(), Vec::new(), Vec::new());
            let (mut ref_order, mut fast_order) = (Vec::new(), Vec::new());
            data.rank_into(&w, &mut s1, &mut ref_order);
            data.rank_into_keyed(&w, &mut s2, &mut keys, &mut spare, &mut fast_order);
            assert_eq!(ref_order, fast_order, "n={n}");
            for k in [0usize, 1, n / 2, n] {
                let (mut idx, mut best, mut out_ref, mut out_fast) =
                    (Vec::new(), Vec::new(), Vec::new(), Vec::new());
                data.top_k_into(&w, k, &mut s1, &mut idx, &mut out_ref);
                data.top_k_fused_into(&w, k, &mut best, &mut out_fast);
                assert_eq!(out_ref, out_fast, "n={n} k={k}");
            }
        }
    }

    #[test]
    fn fast_ranking_resolves_exact_ties_by_index() {
        // Duplicate rows land in one bucket *and* compare exactly equal:
        // the fixup comparator must break ties by ascending index.
        let d = Dataset::from_rows(&[
            vec![0.5, 0.5],
            vec![0.9, 0.3],
            vec![0.5, 0.5],
            vec![0.5, 0.5],
        ])
        .unwrap();
        let (mut s, mut keys, mut spare, mut order) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        d.rank_into_keyed(&[1.0, 1.0], &mut s, &mut keys, &mut spare, &mut order);
        assert_eq!(order, vec![1, 0, 2, 3]);
        let (mut best, mut out) = (Vec::new(), Vec::new());
        d.top_k_fused_into(&[1.0, 1.0], 2, &mut best, &mut out);
        assert_eq!(out, vec![1, 0]);
        // All-equal scores: one quantized run, full comparator fallback.
        let tied = Dataset::from_rows(&vec![vec![0.5, 0.5]; 6]).unwrap();
        tied.rank_into_keyed(&[1.0, 1.0], &mut s, &mut keys, &mut spare, &mut order);
        assert_eq!(order, vec![0, 1, 2, 3, 4, 5]);
    }

    /// `-0.0` and `+0.0` scores compare equal, so they tie by index on
    /// the radix path as on the comparator.
    #[test]
    fn signed_zero_scores_tie_by_index() {
        let d = Dataset::from_rows(&[vec![-0.0, -0.0], vec![0.0, 0.0], vec![0.5, 0.0]]).unwrap();
        let w = [1.0, 1.0];
        let (mut s, mut keys, mut spare, mut fast, mut reference) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
        d.rank_into(&w, &mut s, &mut reference);
        d.rank_into_keyed(&w, &mut s, &mut keys, &mut spare, &mut fast);
        assert_eq!(reference, vec![2, 0, 1]);
        assert_eq!(fast, reference);
        assert_eq!(d.rank(&w).unwrap().order(), &[2, 0, 1]);
    }

    #[test]
    fn column_view_mirrors_rows() {
        let d = Dataset::figure1();
        for j in 0..d.dim() {
            for i in 0..d.len() {
                assert_eq!(d.column(j)[i], d.item(i)[j]);
            }
        }
    }

    #[test]
    fn dominates_wraps_geometry() {
        let d = Dataset::from_rows(&[vec![0.9, 0.9], vec![0.1, 0.1]]).unwrap();
        assert!(d.dominates(0, 1));
        assert!(!d.dominates(1, 0));
    }

    #[test]
    fn weight_arity_checked() {
        let d = Dataset::figure1();
        assert!(d.rank(&[1.0, 1.0, 1.0]).is_err());
        assert!(d.top_k(&[1.0], 3).is_err());
        assert!(d.rank(&[f64::INFINITY, 1.0]).is_err());
        assert!(d.rank(&[f64::NAN, 1.0]).is_err());
    }

    #[test]
    fn derived_attribute_linearizes_quadratic_scoring() {
        // §2.1.1's example: f = x1 + x2 + 0.5·x1² via x3 = x1².
        let d = Dataset::figure1();
        let aug = d.with_derived_attribute(|t| t[0] * t[0]).unwrap();
        assert_eq!(aug.dim(), 3);
        // Scores under (1, 1, 0.5) must equal the non-linear formula.
        for i in 0..d.len() {
            let t = d.item(i);
            let nonlinear = t[0] + t[1] + 0.5 * t[0] * t[0];
            assert!((aug.score(i, &[1.0, 1.0, 0.5]) - nonlinear).abs() < 1e-12);
        }
        // And the induced ranking is the non-linear ranking.
        let mut by_nonlinear: Vec<usize> = (0..d.len()).collect();
        by_nonlinear.sort_by(|&a, &b| {
            let s = |i: usize| {
                let t = d.item(i);
                t[0] + t[1] + 0.5 * t[0] * t[0]
            };
            s(b).partial_cmp(&s(a)).unwrap().then(a.cmp(&b))
        });
        let ranked = aug.rank(&[1.0, 1.0, 0.5]).unwrap();
        let got: Vec<usize> = ranked.order().iter().map(|&i| i as usize).collect();
        assert_eq!(got, by_nonlinear);
    }

    #[test]
    fn derived_attribute_rejects_invalid_values() {
        let d = Dataset::figure1();
        assert!(d.with_derived_attribute(|_| -1.0).is_err());
        assert!(d.with_derived_attribute(|_| f64::NAN).is_err());
    }
}
