//! The fused block-scoring top-k kernel (`Dataset::top_k_fused_into`)
//! must return exactly what the comparator reference
//! (`Dataset::top_k_into`) returns: the same items in the same order —
//! score descending, ties broken by ascending index — on inputs built to
//! stress it: exact score ties (duplicated rows, quarter-grid rows and
//! weights), negative weight components (unclipped cones), item counts on
//! both sides of every block boundary, and k from 1 past n.

use proptest::prelude::*;
use srank_core::dataset::SCORE_BLOCK;
use srank_core::Dataset;

const SIZES: [usize; 5] = [
    1,
    SCORE_BLOCK - 1,
    SCORE_BLOCK,
    SCORE_BLOCK + 1,
    3 * SCORE_BLOCK + 7,
];

/// `n` rows of `d` attributes from an LCG seeded by `seed`, in one of
/// three shapes: 0 = uniform in [0, 1), 1 = copies of seven base rows
/// (exact ties in every direction), 2 = values on the quarter grid
/// {0, .25, .5, .75, 1} (ties between equal rows, and between different
/// rows under grid weights).
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
        _ => (0..n)
            .map(|_| {
                (0..d)
                    .map(|_| (next() * 5.0).floor().min(4.0) / 4.0)
                    .collect()
            })
            .collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn fused_top_k_equals_the_comparator_reference(
        shape in 0usize..3,
        size in 0usize..SIZES.len(),
        d in 1usize..7,
        seed in 0u64..u64::MAX,
        raw_w in prop::collection::vec(-1.0..1.0f64, 6),
        grid_w in 0usize..2,
    ) {
        let n = SIZES[size];
        let data = Dataset::from_rows(&rows(shape, n, d, seed)).unwrap();
        // Unclipped-cone weights: any sign. Grid weights make distinct
        // quarter-grid rows tie exactly.
        let w: Vec<f64> = raw_w[..d]
            .iter()
            .map(|&x| if grid_w == 1 { (x * 4.0).round() / 4.0 } else { x })
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
/// alone, across block boundaries.
#[test]
fn all_tied_scores_select_the_lowest_indices() {
    let n = 2 * SCORE_BLOCK + 3;
    let data = Dataset::from_rows(&vec![vec![0.5, 0.25]; n]).unwrap();
    let (mut best, mut out) = (Vec::new(), Vec::new());
    for k in [1, SCORE_BLOCK, SCORE_BLOCK + 2, n] {
        data.top_k_fused_into(&[1.0, -2.0], k, &mut best, &mut out);
        assert_eq!(out, (0..k as u32).collect::<Vec<_>>(), "k={k}");
    }
}
