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
//! * [`Dataset::top_k_fused_into`] never materializes all `n` scores, and
//!   mostly never computes them. On its first call the dataset builds a
//!   k-d leaf index: a support table per tree node, holding `h(S)`, the
//!   node's largest `Σ_{j∈S} x_j`, for every nonempty attribute subset
//!   `S` (up to [`SUBSET_CAP`] = 5 attributes; singletons, i.e. the
//!   bounding box, above it) and each attribute's minimum; the rows split
//!   on the widest of those same subset sums at the median rounded to a
//!   multiple of [`LEAF`] = 16; and a leaf-major columnar copy of the
//!   attributes padded to whole leaves. Per sample, the positive weights
//!   are split into their layer-cake chain `Σ_t δ_t·1[S_t]` (sorted
//!   weights, `δ_t` the gap to the next, `S_t` the top-`t` attributes),
//!   and a node's bound is `U = Σ_t δ_t·h(S_t) + Σ_{w_j<0} w_j·min_j` —
//!   never looser than the box, and much tighter where attributes pull
//!   against each other. It adds its terms in another order than the
//!   scorer, so it is padded outward by `1e-12` times the sum of their
//!   magnitudes, which covers the rounding of both. The search skips
//!   every node with `U` strictly below the current k-th best score,
//!   scores the surviving leaves eight lanes at a time, and keeps the k
//!   best `(score, index)` pairs in a heap under the full comparator. Its
//!   cost is the rows it scores: under orthant weights on 5,000 Blue Nile
//!   rows (d = 5), about 2.5% at k = 10, 10% at k = 100 and 42% at
//!   k = 1000.

use crate::error::{Result, StableRankError};
use crate::ranking::Ranking;
use srank_geom::dominance::dominates;
use srank_geom::vector::dot;
use std::sync::{Arc, OnceLock};

/// A fixed database of items with scalar scoring attributes.
///
/// Attributes are assumed normalized per the paper: in `[0, 1]` with larger
/// values preferred (see `srank-data`'s `RawTable::normalized`). The type
/// does not *enforce* the unit interval — the techniques work for any
/// non-negative values — but negative attributes break the geometry of
/// first-orthant scoring and are rejected.
///
/// Two datasets are equal when their attribute matrices are: the two
/// lazily built caches (the top-k leaf index and the full-orthant exchange
/// pairs) take no part in identity.
#[derive(Clone, Debug)]
pub struct Dataset {
    n: usize,
    d: usize,
    /// Row-major attribute matrix, `data[i·d + j] = item i, attribute j`.
    data: Vec<f64>,
    /// Columnar mirror, `cols[j·n + i] = item i, attribute j` — the
    /// struct-of-arrays layout of the scoring kernel.
    cols: Vec<f64>,
    /// The k-d leaf index of [`Dataset::top_k_fused_into`], built on the
    /// first top-k call: a second copy of the attributes plus a support
    /// row per tree node (about one node per 8 rows) of `2^d − 1 + d`
    /// `f64` up to [`SUBSET_CAP`] and `2d` above it. At d = 5 the index is
    /// about 2× the size of `cols` (0.4 MB on 5,000 rows); above the cap,
    /// about 1.3×.
    leaves: OnceLock<LeafIndex>,
    /// The full-orthant ordering-exchange pairs of
    /// [`Dataset::orthant_exchange_pairs`], harvested on the first call:
    /// 8 bytes per pair (about 1.4 MB on 1,000 fifa rows), shared by
    /// every `md` enumerator over the full orthant.
    orthant_pairs: OnceLock<Arc<[(u32, u32)]>>,
}

impl PartialEq for Dataset {
    fn eq(&self, other: &Self) -> bool {
        // `cols` mirrors `data`, and the caches are derived from both.
        (self.n, self.d, &self.data) == (other.n, other.d, &other.data)
    }
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

/// Items per scoring block of [`Dataset::scores_into`]: 256 scores
/// (2 KiB) stay in L1.
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

/// Rows per leaf of the top-k leaf index: two 8-lane chunks of the block
/// scorer.
pub const LEAF: usize = 16;

/// Attribute counts up to which the leaf index keeps the subset-sum
/// support `h(S)` of every nonempty attribute subset per tree node
/// (`2^d − 1` values); above it, only the singletons (the bounding box).
/// At `d = 5` the table is about 0.9× the size of the attribute matrix.
pub const SUBSET_CAP: usize = 5;

/// Relative outward pad of a node bound of [`Dataset::top_k_fused_into`]:
/// the bound adds `PAD` (or `4·d·ε` if larger) times the sum of its terms'
/// magnitudes, which covers the rounding of both the bound and the score.
const PAD: f64 = 1e-12;

/// Subset-sum columns per tree node: every nonempty subset of the `d`
/// attributes up to [`SUBSET_CAP`], the `d` singletons above it.
fn sum_cols(d: usize) -> usize {
    if d <= SUBSET_CAP {
        (1 << d) - 1
    } else {
        d
    }
}

/// The leaf index behind [`Dataset::top_k_fused_into`]: the rows in k-d
/// order, cut into leaves of [`LEAF`] rows, and the support table of every
/// node of the k-d tree. Each node splits on the widest of its rows'
/// support-table sums (see [`kd_split`]), so each node's rows lie close
/// together in the sums its bound reads. Every leaf but the last is
/// full; the last is padded.
#[derive(Clone, Debug)]
struct LeafIndex {
    /// Leaf-major columnar attributes, `cols[(b·d + j)·LEAF + l]` =
    /// attribute `j` of slot `l` of leaf `b`; padding slots hold `0.0`.
    cols: Vec<f64>,
    /// Original item index of each slot, `u32::MAX` for padding.
    index: Vec<u32>,
    /// One row of `sum_cols(d) + d` values per tree node `v`, at
    /// `support[v·stride..]`: first the subset sums `h(S) = max over the
    /// node's rows of Σ_{j∈S} x_j` (column `S − 1` for the bit mask `S`,
    /// or column `j` for `{j}` above [`SUBSET_CAP`]), then the minimum of
    /// each attribute. Nodes are numbered in preorder: the root is 0, and
    /// a node splitting `len` rows has its left child at `v + 1` and its
    /// right child at `v + 2·left_len(len)/LEAF`.
    support: Vec<f64>,
}

/// Rows in the left part of a tree node of `len > LEAF` rows: the median
/// rounded to a multiple of [`LEAF`], so every left part is whole leaves
/// and only the final leaf can be short. Lies in `LEAF..len`, and neither
/// part exceeds `len/2 + LEAF/2`.
fn left_len(len: usize) -> usize {
    ((len / 2 + LEAF / 2) / LEAF * LEAF).max(LEAF)
}

impl LeafIndex {
    fn build(data: &Dataset) -> Self {
        let (n, d) = (data.n, data.d);
        let slots = n.div_ceil(LEAF) * LEAF;
        let mut order: Vec<u32> = (0..n as u32).collect();
        let mut support = Vec::with_capacity((2 * slots / LEAF - 1) * (sum_cols(d) + d));
        kd_split(data, &mut order, &mut support);
        let mut cols = vec![0.0; slots * d];
        let mut index = vec![u32::MAX; slots];
        for (slot, &i) in order.iter().enumerate() {
            let (b, l) = (slot / LEAF, slot % LEAF);
            index[slot] = i;
            for (j, &x) in data.item(i as usize).iter().enumerate() {
                cols[(b * d + j) * LEAF + l] = x;
            }
        }
        Self {
            cols,
            index,
            support,
        }
    }

    /// The per-sample terms of the node bound of `w`: `(coefficient,
    /// column)` pairs over a node's support row, written to the front of
    /// `terms`; returns `(p, m)`, the `m` terms being `p` nonnegative
    /// ones for the positive weights, then one `(w_j, min_j)` per negative
    /// weight. Up to [`SUBSET_CAP`] the positive weights form a layer-cake
    /// chain: sorted descending, `w_(1) ≥ … ≥ w_(p) > 0`, they are
    /// `Σ_t δ_t·1[S_t]` with `δ_t = w_(t) − w_(t+1)` (`w_(p+1) = 0`) and
    /// `S_t` the top-`t` attributes, so the terms are `(δ_t, h(S_t))`.
    /// Above the cap they are the singletons `(w_j, h({j}))`. Zero weights
    /// (of either sign) add nothing.
    fn bound_terms(w: &[f64], terms: &mut [(f64, usize)]) -> (usize, usize) {
        let d = w.len();
        let mut m = 0;
        if d <= SUBSET_CAP {
            // Positive attributes by weight descending, ties by index.
            let mut top = [0usize; SUBSET_CAP];
            let mut p = 0;
            for (j, &wj) in w.iter().enumerate() {
                if wj > 0.0 {
                    let mut at = p;
                    while at > 0 && w[top[at - 1]] < wj {
                        top[at] = top[at - 1];
                        at -= 1;
                    }
                    top[at] = j;
                    p += 1;
                }
            }
            let mut mask = 0;
            for t in 0..p {
                mask |= 1 << top[t];
                let next = if t + 1 < p { w[top[t + 1]] } else { 0.0 };
                terms[m] = (w[top[t]] - next, mask - 1);
                m += 1;
            }
        } else {
            for (j, &wj) in w.iter().enumerate() {
                if wj > 0.0 {
                    terms[m] = (wj, j);
                    m += 1;
                }
            }
        }
        let p = m;
        for (j, &wj) in w.iter().enumerate() {
            if wj < 0.0 {
                terms[m] = (wj, sum_cols(d) + j);
                m += 1;
            }
        }
        (p, m)
    }

    /// Scores the slots of leaf `b` into `out`, eight at a time by
    /// [`score8`].
    #[inline]
    fn score_leaf(&self, w: &[f64], b: usize, out: &mut [f64; LEAF]) {
        let d = w.len();
        let leaf = &self.cols[b * d * LEAF..(b + 1) * d * LEAF];
        for (h, o) in out.as_chunks_mut::<8>().0.iter_mut().enumerate() {
            *o = score8(w, |j| {
                leaf[j * LEAF + 8 * h..]
                    .first_chunk()
                    .expect("an 8-slot chunk lies inside its leaf column")
            });
        }
    }
}

/// Scores eight rows at once, `lanes(j)` being attribute `j` of the eight:
/// each lane accumulates `w_0·x_0`, then `+= w_j·x_j` for `j = 1..d`, in
/// registers — the per-item order of the row-major path, so every scorer
/// built on it is bit-identical to that path.
#[inline(always)]
fn score8<'a>(w: &[f64], lanes: impl Fn(usize) -> &'a [f64; 8]) -> [f64; 8] {
    let mut acc = lanes(0).map(|x| w[0] * x);
    for (j, &wj) in w.iter().enumerate().skip(1) {
        let x = lanes(j);
        for l in 0..8 {
            acc[l] += wj * x[l];
        }
    }
    acc
}

/// The support-table sums of the row `x`, in column order: up to
/// [`SUBSET_CAP`] the subset sums `Σ_{j∈S} x_j` (column `S − 1`), written
/// to `buf` by ascending mask, each extending the sum without its lowest
/// attribute (so `S = {a < b < c}` adds `((0 + x_c) + x_b) + x_a`);
/// above the cap `x` itself. `buf[0]` must be `0.0`.
#[inline]
fn row_sums<'a>(x: &'a [f64], buf: &'a mut [f64; 1 << SUBSET_CAP]) -> &'a [f64] {
    if x.len() > SUBSET_CAP {
        return x;
    }
    for mask in 1..1usize << x.len() {
        buf[mask] = buf[mask & (mask - 1)] + x[mask.trailing_zeros() as usize];
    }
    &buf[1..1 << x.len()]
}

/// The support-table sum of column `c` of the row `x`, added exactly as
/// [`row_sums`] adds it.
fn column_sum(x: &[f64], c: usize) -> f64 {
    if x.len() <= SUBSET_CAP {
        let mask = c + 1;
        (0..x.len())
            .rev()
            .filter(|j| mask >> j & 1 == 1)
            .fold(0.0, |s, j| s + x[j])
    } else {
        x[c]
    }
}

/// Appends the support row of `rows` to `support` and, if `rows` is more
/// than one leaf, orders it into two k-d subtrees and recurses into each.
/// The split key is the widest of the rows' support-table sums (the
/// lowest column among equally wide ones): a subset sum `Σ_{j∈S} x_j` up
/// to [`SUBSET_CAP`], an attribute above it. That is the quantity the
/// node bound reads through `h(S)`, so cutting on it keeps rows with
/// high sums of the same subset together. The rows split at
/// [`left_len`] in `(key, index)` order; widths and keys are summed in
/// one fixed order, so the order is deterministic. A leaf's row is
/// computed from its rows, an inner node's as the elementwise max (sums)
/// and min (minima) of its children's rows: the same values, without
/// summing every row's subsets again at every level. The rows land in
/// preorder.
fn kd_split(data: &Dataset, rows: &mut [u32], support: &mut Vec<f64>) {
    let d = data.d;
    let (sums, stride) = (sum_cols(d), sum_cols(d) + d);
    let at = support.len();
    if rows.len() <= LEAF {
        support.resize(at + sums, f64::NEG_INFINITY);
        support.resize(at + stride, f64::INFINITY);
        let (h, mins) = support[at..].split_at_mut(sums);
        let mut buf = [0.0; 1 << SUBSET_CAP];
        for &i in rows.iter() {
            let x = data.item(i as usize);
            for (min, &xj) in mins.iter_mut().zip(x) {
                *min = min.min(xj);
            }
            for (h, &s) in h.iter_mut().zip(row_sums(x, &mut buf)) {
                *h = h.max(s);
            }
        }
        return;
    }
    let mut range = vec![[f64::NEG_INFINITY, f64::INFINITY]; sums];
    let mut buf = [0.0; 1 << SUBSET_CAP];
    for &i in rows.iter() {
        for ([max, min], &s) in range
            .iter_mut()
            .zip(row_sums(data.item(i as usize), &mut buf))
        {
            (*max, *min) = (max.max(s), min.min(s));
        }
    }
    let mut widest = (0, f64::NEG_INFINITY);
    for (c, &[max, min]) in range.iter().enumerate() {
        if max - min > widest.1 {
            widest = (c, max - min);
        }
    }
    let key = |i: u32| column_sum(data.item(i as usize), widest.0);
    let mid = left_len(rows.len());
    rows.select_nth_unstable_by(mid, |&a, &b| key(a).total_cmp(&key(b)).then(a.cmp(&b)));
    let (left, right) = rows.split_at_mut(mid);
    support.resize(at + stride, 0.0);
    kd_split(data, left, support);
    let right_at = support.len();
    kd_split(data, right, support);
    let (node, children) = support.split_at_mut(at + stride);
    let (l, r) = (
        &children[..stride],
        &children[right_at - at - stride..][..stride],
    );
    for (c, v) in node[at..].iter_mut().enumerate() {
        *v = if c < sums {
            l[c].max(r[c])
        } else {
            l[c].min(r[c])
        };
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
        Ok(Self {
            n,
            d,
            data,
            cols,
            leaves: OnceLock::new(),
            orthant_pairs: OnceLock::new(),
        })
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

    /// The item pairs `(i, j)`, `i < j`, whose ordering exchange crosses
    /// the full orthant, in `(i, j)` order — what
    /// [`crate::xhps::ordering_exchange_pairs`] answers for
    /// `RegionOfInterest::FullOrthant`. Harvested in `O(n²·d)` on the
    /// first call and shared after it.
    pub(crate) fn orthant_exchange_pairs(&self) -> Arc<[(u32, u32)]> {
        Arc::clone(
            self.orthant_pairs
                .get_or_init(|| crate::xhps::orthant_pairs(self)),
        )
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

    /// The fast path of [`top_k_into`](Self::top_k_into), identical output
    /// order; returns the number of rows it scored.
    ///
    /// It searches the dataset's k-d leaf index (built on the first call,
    /// then shared by every later call and every thread) depth-first,
    /// child with the higher bound first. Each node stores the subset-sum
    /// support `h(S) = max over its rows of Σ_{j∈S} x_j` of every
    /// nonempty attribute subset `S` (singletons only above
    /// [`SUBSET_CAP`]) and the minimum `min_j` of each attribute. Once per
    /// call the positive weights are split into their layer-cake chain:
    /// sorted, `w_(1) ≥ … ≥ w_(p) > 0`, they equal `Σ_t δ_t·1[S_t]` with
    /// `δ_t = w_(t) − w_(t+1) ≥ 0` and `S_t` the top-`t` attributes. The
    /// bound of a node is then
    /// `U = Σ_t δ_t·h(S_t) + Σ_{w_j<0} w_j·min_j`, which no row under the
    /// node exceeds, and since attributes are nonnegative it is never
    /// above the bounding-box bound `Σ_j w_j·(w_j ≥ 0 ? max_j : min_j)`
    /// (its singleton form, used above the cap). The box is loose when
    /// attributes pull against each other, as Blue Nile's normalized price
    /// and carat do; `h` of their pair is not.
    ///
    /// The bound adds its terms in another order than the scorer, so
    /// rounding alone does not keep every computed score below it. Let `M`
    /// be the sum of the terms' magnitudes. A row with exact score
    /// `s ≤ U` gets a computed score of at most `s + d·2⁻⁵³·Σ_j |w_j x_j|`,
    /// and `Σ_j |w_j x_j| = 2·Σ_{w_j>0} w_j x_j − s ≤ M + (U − s)`, so the
    /// computed score exceeds the exact `U` by at most about `d·2⁻⁵³·M`.
    /// The computed bound, from rounded `δ_t` and table sums, falls short
    /// of the exact one by at most about `(2d + 4)·2⁻⁵³·M`. It is padded
    /// outward by `max(1e-12, 4·d·ε)·M`, plus the smallest normal `f64`
    /// for products that underflow, so no computed score exceeds the
    /// padded `U`. A node
    /// whose `U` is strictly below the current k-th best score is skipped
    /// with everything under it; a leaf that survives is scored eight
    /// lanes at a time, exactly as [`scores_into`](Self::scores_into)
    /// scores, and offered row by row to `best`, a k-long min-heap of
    /// `(score, index)` whose root is the worst kept entry. Rows arrive in
    /// leaf order, not index order, so an offer is decided by the full
    /// `(score, index)` comparator, and a leaf whose bound ties the k-th
    /// score is still scored: a lower index can win the tie.
    ///
    /// The tree splits each node on the widest of its rows' subset sums
    /// (attributes above the cap), the same sums `h(S)` reads, so a node's
    /// `h(S_t)` tend to come from the same few rows and its bound sits
    /// close to its best score.
    ///
    /// Cost: O(d) per visited node and per scored row, plus an O(log k)
    /// sift per heap replacement. How many rows are scored depends on the
    /// data and on k: under uniform orthant weights on 5,000 Blue Nile rows
    /// (d = 5) about 2.5% at k = 10, 10% at k = 100 and 42% at k = 1000
    /// (4.6%, 16% and 52% with the tree split on single attributes). It
    /// approaches n as k does, so the kernel is built for k ≪ n. The first
    /// call pays the index build, O(n·(d + 2^min(d, 5))·log(n/LEAF)).
    /// `w` must be finite, as every sampler's draws are.
    pub fn top_k_fused_into(
        &self,
        w: &[f64],
        k: usize,
        best: &mut Vec<(f64, u32)>,
        out: &mut Vec<u32>,
    ) -> usize {
        debug_assert_eq!(w.len(), self.d);
        let k = k.min(self.n);
        out.clear();
        best.clear();
        if k == 0 {
            return 0;
        }
        let leaves = self.leaves.get_or_init(|| LeafIndex::build(self));
        // Sentinels rank below every real item, so the first k items
        // displace them.
        best.resize(k, (f64::NEG_INFINITY, u32::MAX));
        let d = self.d;
        let stride = sum_cols(d) + d;
        let (mut inline, mut spilled) = ([(0.0, 0); 16], Vec::new());
        let terms = if d <= inline.len() {
            &mut inline[..d]
        } else {
            spilled.resize(d, (0.0, 0));
            &mut spilled[..]
        };
        let (p, m) = LeafIndex::bound_terms(w, terms);
        let (chain, negative) = terms[..m].split_at(p);
        let pad = PAD.max(4.0 * d as f64 * f64::EPSILON);
        let bound = |v: usize| {
            let row = &leaves.support[v * stride..(v + 1) * stride];
            let (mut up, mut down) = (0.0, 0.0);
            for &(c, col) in chain {
                up += c * row[col];
            }
            for &(c, col) in negative {
                down += c * row[col];
            }
            (up + down) + (pad * (up - down) + f64::MIN_POSITIVE)
        };
        // Visiting the higher bound first makes the k-th best score rise
        // early. The stack holds `(bound, node, first row, rows)` of the
        // subtrees still to visit: at most one entry per tree level plus
        // one, and every level nearly halves a node, so 64 covers any `u32`
        // row count.
        let mut stack = [(0.0, 0, 0, 0); 64];
        stack[0] = (bound(0), 0, 0, self.n);
        let mut top = 1;
        let mut scored = 0;
        let mut block = [0.0f64; LEAF];
        while top > 0 {
            top -= 1;
            let (u, v, start, len) = stack[top];
            if u < best[0].0 {
                continue;
            }
            if len <= LEAF {
                leaves.score_leaf(w, start / LEAF, &mut block);
                scored += len;
                for (&s, &i) in block.iter().zip(&leaves.index[start..start + len]) {
                    if worse(best[0], (s, i)) {
                        best[0] = (s, i);
                        heap_sift_down(best);
                    }
                }
                continue;
            }
            let mid = left_len(len);
            let (l, r) = (v + 1, v + 2 * mid / LEAF);
            let left = (bound(l), l, start, mid);
            let right = (bound(r), r, start + mid, len - mid);
            let (first, second) = if left.0 >= right.0 {
                (left, right)
            } else {
                (right, left)
            };
            stack[top] = second;
            stack[top + 1] = first;
            top += 2;
        }
        // Only a NaN score can fail to displace a sentinel.
        debug_assert!(
            best.iter().all(|&(s, _)| s.is_finite()),
            "non-finite weights"
        );
        best.sort_unstable_by(|a, b| b.0.partial_cmp(&a.0).unwrap().then(a.1.cmp(&b.1)));
        out.extend(best.iter().map(|&(_, i)| i));
        scored
    }

    /// Convenience wrapper allocating fresh buffers.
    pub fn top_k(&self, w: &[f64], k: usize) -> Result<Vec<u32>> {
        self.check_weights(w)?;
        let (mut scores, mut idx, mut out) = (Vec::new(), Vec::new(), Vec::new());
        self.top_k_into(w, k, &mut scores, &mut idx, &mut out);
        Ok(out)
    }

    /// The columnar scoring kernel: `scores[i] = Σ_j w_j · cols[j][i]`,
    /// computed [`SCORE_BLOCK`] items at a time. Adds the partial products
    /// in the same `j` order as the row-major path and the leaf scorer of
    /// [`top_k_fused_into`](Self::top_k_fused_into), so the three are
    /// bit-identical.
    pub fn scores_into(&self, w: &[f64], scores: &mut Vec<f64>) {
        debug_assert_eq!(w.len(), self.d);
        scores.clear();
        scores.resize(self.n, 0.0);
        for (b, block) in scores.chunks_mut(SCORE_BLOCK).enumerate() {
            self.score_block(w, b * SCORE_BLOCK, block);
        }
    }

    /// Scores items `start..start + out.len()` into `out`, eight at a
    /// time by [`score8`], the rest one by one in the same order. `out` is
    /// at most [`SCORE_BLOCK`] long, so it stays in L1 for the caller.
    #[inline]
    fn score_block(&self, w: &[f64], start: usize, out: &mut [f64]) {
        let n = self.n;
        let (o8, o_tail) = out.as_chunks_mut::<8>();
        for (c, o) in o8.iter_mut().enumerate() {
            let i = start + 8 * c;
            *o = score8(w, |j| {
                self.cols[j * n + i..]
                    .first_chunk()
                    .expect("an 8-item chunk lies inside its column")
            });
        }
        let tail_start = start + 8 * o8.len();
        for (t, o) in o_tail.iter_mut().enumerate() {
            let i = tail_start + t;
            let mut s = w[0] * self.cols[i];
            for (j, &wj) in w.iter().enumerate().skip(1) {
                s += wj * self.cols[j * n + i];
            }
            *o = s;
        }
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

    /// Column of `h({j})`, the maximum of attribute `j`, in a node's row.
    fn max_col(d: usize, j: usize) -> usize {
        if d <= SUBSET_CAP {
            (1 << j) - 1
        } else {
            j
        }
    }

    /// `n` rows of `d` pseudo-random attributes in `[0, 1)`.
    fn lcg_rows(n: usize, d: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 11) as f64) / ((1u64 << 53) as f64)
        };
        (0..n).map(|_| (0..d).map(|_| next()).collect()).collect()
    }

    #[test]
    fn leaf_index_permutes_the_rows_into_boxed_leaves() {
        for n in [1usize, LEAF - 1, LEAF, LEAF + 1, 40 * LEAF + 5] {
            let data = Dataset::from_rows(&lcg_rows(n, 3, n as u64)).unwrap();
            let leaves = LeafIndex::build(&data);
            let slots = n.div_ceil(LEAF) * LEAF;
            assert_eq!(leaves.index.len(), slots);
            assert!(leaves.index[n..].iter().all(|&i| i == u32::MAX));
            let mut seen = leaves.index[..n].to_vec();
            seen.sort_unstable();
            assert_eq!(seen, (0..n as u32).collect::<Vec<_>>(), "n={n}");
            // One support row per tree node: 2·leaves − 1 nodes.
            let stride = sum_cols(3) + 3;
            assert_eq!(leaves.support.len(), (2 * slots / LEAF - 1) * stride);
            for (slot, &i) in leaves.index[..n].iter().enumerate() {
                for j in 0..3 {
                    let x = leaves.cols[(slot / LEAF * 3 + j) * LEAF + slot % LEAF];
                    assert_eq!(x, data.item(i as usize)[j]);
                    // The root's row.
                    let (max, min) = (leaves.support[max_col(3, j)], leaves.support[7 + j]);
                    assert!(min <= x && x <= max);
                }
            }
        }
    }

    /// Walks the tree under node `v` (rows `start..start + len` of the
    /// leaf order) and checks its support row against its rows: the
    /// singleton entries are each attribute's max, the tail its min, and
    /// every subset entry is the largest of the rows' subset sums.
    fn check_support(data: &Dataset, leaves: &LeafIndex, v: usize, start: usize, len: usize) {
        let d = data.dim();
        let stride = sum_cols(d) + d;
        let row = &leaves.support[v * stride..(v + 1) * stride];
        let items: Vec<&[f64]> = leaves.index[start..start + len]
            .iter()
            .map(|&i| data.item(i as usize))
            .collect();
        for j in 0..d {
            let max = items.iter().map(|x| x[j]).fold(f64::NEG_INFINITY, f64::max);
            let min = items.iter().map(|x| x[j]).fold(f64::INFINITY, f64::min);
            assert_eq!((row[max_col(d, j)], row[sum_cols(d) + j]), (max, min));
        }
        if d <= SUBSET_CAP {
            for mask in 1usize..1 << d {
                let sum = |x: &[f64]| (0..d).filter(|j| mask >> j & 1 == 1).map(|j| x[j]).sum();
                let h = items
                    .iter()
                    .map(|x| sum(x))
                    .fold(f64::NEG_INFINITY, f64::max);
                assert!((row[mask - 1] - h).abs() <= 1e-15 * h, "mask {mask:b}");
            }
        }
        if len > LEAF {
            let mid = left_len(len);
            check_support(data, leaves, v + 1, start, mid);
            check_support(data, leaves, v + 2 * mid / LEAF, start + mid, len - mid);
        }
    }

    #[test]
    fn every_node_supports_exactly_its_rows() {
        for (n, d) in [
            (1usize, 1usize),
            (LEAF + 1, 2),
            (40 * LEAF + 5, 3),
            (300, 5),
            (300, 7),
        ] {
            let data = Dataset::from_rows(&lcg_rows(n, d, 5 + n as u64)).unwrap();
            check_support(&data, &LeafIndex::build(&data), 0, 0, n);
        }
    }

    /// Rows that climb together, `(t, t, t)` or `(t + ¼, t, t − ¼)` for `t`
    /// on a sixteenth grid: the total `3t` is the widest support sum (3
    /// against at most 2.25 for a pair and 1.25 for an attribute), and 17
    /// levels over 645 rows tie in runs of about 38. The root must put
    /// the `left_len(n)` lowest totals on its left, the tie run across the
    /// cut ordered by index, and two builds from the same rows must lay
    /// out the same slots.
    #[test]
    fn the_root_splits_on_the_widest_subset_sum() {
        let n = 40 * LEAF + 5;
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let t = 0.25 + (i * 7 % 17) as f64 / 16.0;
                let tilt = if i % 3 == 0 { 0.0 } else { 0.25 };
                vec![t + tilt, t, t - tilt]
            })
            .collect();
        let total = |i: u32| rows[i as usize].iter().sum::<f64>();
        let mut by_total: Vec<u32> = (0..n as u32).collect();
        by_total.sort_by(|&a, &b| total(a).total_cmp(&total(b)).then(a.cmp(&b)));
        let mid = left_len(n);
        assert_eq!(
            total(by_total[mid - 1]),
            total(by_total[mid]),
            "the cut falls inside a tie run"
        );
        let data = Dataset::from_rows(&rows).unwrap();
        let leaves = LeafIndex::build(&data);
        let mut left = leaves.index[..mid].to_vec();
        left.sort_unstable();
        let mut lowest = by_total[..mid].to_vec();
        lowest.sort_unstable();
        assert_eq!(left, lowest);
        let again = LeafIndex::build(&Dataset::from_rows(&rows).unwrap());
        assert_eq!(
            (&again.index, &again.support),
            (&leaves.index, &leaves.support)
        );
    }

    #[test]
    fn dataset_identity_ignores_the_leaf_index() {
        let data = Dataset::from_rows(&lcg_rows(3 * LEAF, 4, 9)).unwrap();
        let unbuilt = data.clone();
        let (mut best, mut out) = (Vec::new(), Vec::new());
        data.top_k_fused_into(&[0.4, 0.3, 0.2, 0.1], 5, &mut best, &mut out);
        assert!(data.leaves.get().is_some() && unbuilt.leaves.get().is_none());
        assert_eq!(data, unbuilt);
        assert_eq!(data.clone(), unbuilt);
        let other = Dataset::from_rows(&lcg_rows(3 * LEAF, 4, 10)).unwrap();
        assert_ne!(data, other);
    }

    /// Two threads make the first top-k call on one fresh dataset at once:
    /// one builds the index, the other waits for it, and both answer as
    /// the reference does.
    #[test]
    fn concurrent_first_top_k_calls_agree_with_the_reference() {
        let data = std::sync::Arc::new(Dataset::from_rows(&lcg_rows(40 * LEAF + 5, 5, 3)).unwrap());
        let w = [0.3, -0.1, 0.25, 0.2, 0.35];
        let (mut scores, mut idx, mut reference) = (Vec::new(), Vec::new(), Vec::new());
        data.top_k_into(&w, 10, &mut scores, &mut idx, &mut reference);
        let gate = std::sync::Barrier::new(2);
        let answers: Vec<Vec<u32>> = std::thread::scope(|scope| {
            let calls: Vec<_> = (0..2)
                .map(|_| {
                    let (data, gate) = (std::sync::Arc::clone(&data), &gate);
                    scope.spawn(move || {
                        let (mut best, mut out) = (Vec::new(), Vec::new());
                        gate.wait();
                        data.top_k_fused_into(&w, 10, &mut best, &mut out);
                        out
                    })
                })
                .collect();
            calls
                .into_iter()
                .map(|call| call.join().expect("a top-k thread panicked"))
                .collect()
        });
        assert_eq!(answers, vec![reference.clone(), reference]);
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
