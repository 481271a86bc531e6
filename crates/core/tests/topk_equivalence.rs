//! The leaf-bound top-k kernel (`Dataset::top_k_fused_into`) must return
//! exactly what the comparator reference (`Dataset::top_k_into`) returns:
//! the same items in the same order — score descending, ties broken by
//! ascending index — on inputs built to stress it: exact score ties
//! (duplicated rows, quarter-grid rows and weights, so k-d splits meet
//! ties on the split key; permuted rows and quarter-grid rows of one
//! total, so they meet ties on a subset-sum key), anti-correlated
//! attribute pairs (where the subset-sum bound is much tighter than the
//! bounding box), negative, `-0.0` and `0.0` weight components (unclipped
//! cones), attribute counts on both sides of the subset-table cap, item
//! counts on both sides of the leaf and scoring-block boundaries and over
//! many leaves, and k from 1 past n.

use proptest::prelude::*;
use srank_core::dataset::{LEAF, SCORE_BLOCK};
use srank_core::Dataset;

const SIZES: [usize; 9] = [
    1,
    LEAF - 1,
    LEAF,
    LEAF + 1,
    40 * LEAF + 5,
    SCORE_BLOCK - 1,
    SCORE_BLOCK,
    SCORE_BLOCK + 1,
    3 * SCORE_BLOCK + 7,
];

/// `n` rows of `d` attributes from an LCG seeded by `seed`, in one of
/// five shapes: 0 = uniform in [0, 1), 1 = copies of seven base rows
/// (exact ties in every direction), 2 = values on the quarter grid
/// {0, .25, .5, .75, 1} (ties between equal rows, and between different
/// rows under grid weights), 3 = anti-correlated pairs: attributes
/// `2i` and `2i + 1` sum to about 1, as normalized price and carat
/// nearly do on Blue Nile, 4 = subset-sum ties between different rows:
/// even rows permute one of three base rows on a 1/1024 grid (every sum
/// is exact, so permuted rows share their total and many subset sums),
/// odd rows are quarter-grid rows of total `d/2`, made by moving quarters
/// between the attributes of `(½, …, ½)`.
fn rows(shape: usize, n: usize, d: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut state = seed | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 11) as f64) / ((1u64 << 53) as f64)
    };
    let draw_row = |next: &mut dyn FnMut() -> f64| (0..d).map(|_| next()).collect::<Vec<_>>();
    match shape {
        0 => (0..n).map(|_| draw_row(&mut next)).collect(),
        1 => {
            let base: Vec<Vec<f64>> = (0..7).map(|_| draw_row(&mut next)).collect();
            (0..n)
                .map(|_| base[(next() * 7.0) as usize % 7].clone())
                .collect()
        }
        2 => (0..n)
            .map(|_| {
                (0..d)
                    .map(|_| (next() * 5.0).floor().min(4.0) / 4.0)
                    .collect()
            })
            .collect(),
        3 => (0..n)
            .map(|_| {
                let mut row = draw_row(&mut next);
                for pair in row.chunks_exact_mut(2) {
                    pair[1] = 1.0 - pair[0] + 0.01 * pair[1];
                }
                row
            })
            .collect(),
        _ => {
            let mut pick = move |m: usize| (next() * m as f64) as usize % m;
            let base: Vec<Vec<f64>> = (0..3)
                .map(|_| (0..d).map(|_| pick(1025) as f64 / 1024.0).collect())
                .collect();
            (0..n)
                .map(|i| {
                    if i % 2 == 0 {
                        let mut row = base[pick(3)].clone();
                        for j in (1..d).rev() {
                            row.swap(j, pick(j + 1));
                        }
                        row
                    } else {
                        let mut quarters = vec![2usize; d];
                        for _ in 0..2 * d {
                            let (from, to) = (pick(d), pick(d));
                            if quarters[from] > 0 && quarters[to] < 4 {
                                quarters[from] -= 1;
                                quarters[to] += 1;
                            }
                        }
                        quarters.iter().map(|&q| q as f64 / 4.0).collect()
                    }
                })
                .collect()
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn fused_top_k_equals_the_comparator_reference(
        shape in 0usize..5,
        size in 0usize..SIZES.len(),
        d in 1usize..9,
        seed in 0u64..u64::MAX,
        raw_w in prop::collection::vec(-1.0..1.0f64, 8),
        grid_w in 0usize..2,
        zeros in prop::collection::vec(0usize..4, 8),
    ) {
        let n = SIZES[size];
        let data = Dataset::from_rows(&rows(shape, n, d, seed)).unwrap();
        // Unclipped-cone weights: any sign. Grid weights make distinct
        // quarter-grid rows tie exactly. About a quarter of the components
        // become `0.0` and a quarter `-0.0`: a signed zero adds no term to
        // a node's bound, and its products tie.
        let w: Vec<f64> = raw_w[..d]
            .iter()
            .zip(&zeros)
            .map(|(&x, &z)| match z {
                0 => 0.0,
                1 => -0.0,
                _ if grid_w == 1 => (x * 4.0).round() / 4.0,
                _ => x,
            })
            .collect();

        let (mut columnar, mut row_major) = (Vec::new(), Vec::new());
        data.scores_into(&w, &mut columnar);
        data.scores_into_row_major(&w, &mut row_major);
        prop_assert_eq!(&columnar, &row_major, "block scorer is bit-identical, n={}", n);

        let (mut scores, mut idx, mut best) = (Vec::new(), Vec::new(), Vec::new());
        let (mut reference, mut fused) = (Vec::new(), Vec::new());
        for k in [1, 2, n - 1, n, n + 3] {
            data.top_k_into(&w, k, &mut scores, &mut idx, &mut reference);
            data.top_k_fused_into(&w, k, &mut best, &mut fused);
            prop_assert_eq!(&fused, &reference, "n={} d={} k={} shape={}", n, d, k, shape);
        }
    }
}

/// All-equal scores: every selection is decided by the index tie-break
/// alone, across block boundaries and the 33 leaves of the index, under
/// mixed-sign, signed-zero and all-zero weights.
#[test]
fn all_tied_scores_select_the_lowest_indices() {
    let n = 2 * SCORE_BLOCK + 3;
    let data = Dataset::from_rows(&vec![vec![0.5, 0.25]; n]).unwrap();
    let (mut best, mut out) = (Vec::new(), Vec::new());
    for w in [[1.0, -2.0], [-0.0, 1.0], [0.0, -0.0]] {
        for k in [1, LEAF - 1, LEAF, LEAF + 1, SCORE_BLOCK, SCORE_BLOCK + 2, n] {
            data.top_k_fused_into(&w, k, &mut best, &mut out);
            assert_eq!(out, (0..k as u32).collect::<Vec<_>>(), "w={w:?} k={k}");
        }
    }
}

/// Ties only on the split attribute: attribute 0 takes two values, so the
/// k-d split lands inside a run of equal keys and orders it by index.
/// Attribute 1 decides the scores, with ties in pairs.
#[test]
fn ties_on_the_split_attribute_keep_the_reference_order() {
    let n = 40 * LEAF + 5;
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|i| vec![(i % 2) as f64, ((n - i) / 2) as f64 / n as f64])
        .collect();
    let data = Dataset::from_rows(&rows).unwrap();
    let (mut scores, mut idx, mut best) = (Vec::new(), Vec::new(), Vec::new());
    let (mut reference, mut fused) = (Vec::new(), Vec::new());
    for w in [[0.0, 1.0], [-0.0, 1.0], [1e-9, 1.0], [-1e-9, 1.0]] {
        for k in [1, 2, LEAF, 10 * LEAF + 1, n] {
            data.top_k_into(&w, k, &mut scores, &mut idx, &mut reference);
            data.top_k_fused_into(&w, k, &mut best, &mut fused);
            assert_eq!(fused, reference, "w={w:?} k={k}");
        }
    }
}

/// The kernel reports the rows it scored: never the padding, every row
/// when k = n (nothing can be skipped before the heap fills), and a few
/// leaves when one corner of the data clearly leads.
#[test]
fn rows_scored_counts_live_rows() {
    let n = 40 * LEAF + 5;
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|i| vec![i as f64 / n as f64, (n - i) as f64 / n as f64 / 2.0])
        .collect();
    let data = Dataset::from_rows(&rows).unwrap();
    let (mut best, mut out) = (Vec::new(), Vec::new());
    assert_eq!(
        data.top_k_fused_into(&[1.0, 1.0], n, &mut best, &mut out),
        n
    );
    assert_eq!(
        data.top_k_fused_into(&[1.0, 1.0], n + 9, &mut best, &mut out),
        n
    );
    let few = data.top_k_fused_into(&[1.0, 0.0], 3, &mut best, &mut out);
    assert_eq!(out, vec![n as u32 - 1, n as u32 - 2, n as u32 - 3]);
    assert!((1..=2 * LEAF).contains(&few), "scored {few} rows");
    assert_eq!(
        data.top_k_fused_into(&[1.0, 0.0], 0, &mut best, &mut out),
        0
    );
}

/// A leaf whose best row leads in every attribute has an exact bound equal
/// to that row's score, so rounding can put the computed bound an ulp
/// below it. On coarse rows ({0, ½, 1}, at most 243 distinct among 700)
/// an identical row with a lower index can sit in such a leaf after its
/// twin has set the k-th best score: only the outward pad keeps that leaf
/// from being skipped when the tie-break says it must win. Without the
/// pad this test fails.
#[test]
fn bounds_that_round_below_a_tied_score_still_admit_it() {
    let coarse: Vec<Vec<f64>> = rows(0, 700, 5, 2024)
        .into_iter()
        .map(|row| row.into_iter().map(|x| (x * 3.0).floor() / 2.0).collect())
        .collect();
    let data = Dataset::from_rows(&coarse).unwrap();
    let weights = rows(0, 2000, 5, 611);
    let (mut scores, mut idx, mut best) = (Vec::new(), Vec::new(), Vec::new());
    let (mut reference, mut fused) = (Vec::new(), Vec::new());
    for w in &weights {
        for k in [1, 10] {
            data.top_k_into(w, k, &mut scores, &mut idx, &mut reference);
            data.top_k_fused_into(w, k, &mut best, &mut fused);
            assert_eq!(fused, reference, "w={w:?} k={k}");
        }
    }
}
