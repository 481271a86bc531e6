//! Linear-programming feasibility for open convex cones.
//!
//! §4.2 of the paper tests whether an ordering-exchange hyperplane passes
//! through a region by "solving a linear program". This module provides
//! that exact test (and interior-point extraction) for cones intersected
//! with the weight simplex `{ w ≥ 0, Σ w = 1 }` — every ranking region
//! restricted to the first orthant is such a cone, and scale never matters
//! because all constraints pass through the origin.
//!
//! The decision problem "does `{ w : h_i·w > 0 ∀i }` have an interior point
//! in the simplex" becomes the LP
//!
//! ```text
//! maximize ε   subject to   h_i·w − ε ≥ 0  ∀i,   Σ_j w_j = 1,   w, ε ≥ 0
//! ```
//!
//! whose optimum `ε*` is strictly positive exactly when the open cone meets
//! the simplex's relative interior of the constraint set. The solver is a
//! dense two-phase primal simplex with Bland's anti-cycling rule — fully
//! adequate for the few-dozen-constraint cones the arrangement algorithms
//! produce (large-`n` stability estimation goes through the sampling oracle
//! instead, exactly as in the paper).

use crate::hyperplane::OrderingExchange;
use crate::region::ConeRegion;

/// Numeric tolerance of the simplex pivoting and of the final "strictly
/// positive interior" decision.
const LP_TOL: f64 = 1e-9;

/// Outcome of a cone-feasibility query.
#[derive(Clone, Debug, PartialEq)]
pub enum LpOutcome {
    /// The open cone has an interior point in the simplex; the witness `w`
    /// maximizes the minimum constraint slack (a Chebyshev-like center) and
    /// `slack` is that maximal minimum slack `ε*`.
    Interior { w: Vec<f64>, slack: f64 },
    /// Only boundary contact: the closed cone meets the simplex but the
    /// *open* cone does not (`ε* ≈ 0`).
    BoundaryOnly,
    /// The closed cone misses the simplex entirely.
    Empty,
}

impl LpOutcome {
    /// True for [`LpOutcome::Interior`].
    pub fn is_interior(&self) -> bool {
        matches!(self, LpOutcome::Interior { .. })
    }
}

/// Exact feasibility of the open cone within the weight simplex.
pub fn cone_feasible(cone: &ConeRegion) -> LpOutcome {
    let d = cone.dim();
    let m_ineq = cone.len();
    if m_ineq == 0 {
        // No half-spaces: the whole simplex qualifies and ε is unconstrained.
        return LpOutcome::Interior {
            w: vec![1.0 / d as f64; d],
            slack: f64::INFINITY,
        };
    }
    // Variables: w_1..w_d, then ε — all non-negative.
    let n_struct = d + 1;
    let eps_col = d;

    // Rows: one ≥ per half-space (rhs 0), one = for Σw = 1 (rhs 1).
    let mut rows: Vec<Vec<f64>> = Vec::with_capacity(m_ineq + 1);
    for row in cone.rows() {
        let mut r = vec![0.0; n_struct];
        r[..d].copy_from_slice(row);
        r[eps_col] = -1.0;
        rows.push(r);
    }
    let mut simplex_row = vec![0.0; n_struct];
    simplex_row[..d].fill(1.0);
    rows.push(simplex_row);

    let kinds: Vec<RowKind> = (0..m_ineq)
        .map(|_| RowKind::Ge)
        .chain(std::iter::once(RowKind::Eq))
        .collect();
    let mut rhs = vec![0.0; m_ineq];
    rhs.push(1.0);

    let mut objective = vec![0.0; n_struct];
    objective[eps_col] = 1.0;

    match solve_lp(&rows, &kinds, &rhs, &objective) {
        SimplexResult::Infeasible => LpOutcome::Empty,
        SimplexResult::Unbounded => {
            // ε is bounded by max_i h_i·w over the simplex, so this cannot
            // happen for well-formed inputs; treat defensively as interior
            // with an arbitrary large slack via a feasible point.
            unreachable!("ε is bounded on the simplex; unbounded LP indicates malformed input")
        }
        SimplexResult::Optimal {
            objective: eps,
            solution,
        } => {
            if eps > LP_TOL {
                LpOutcome::Interior {
                    w: solution[..d].to_vec(),
                    slack: eps,
                }
            } else {
                LpOutcome::BoundaryOnly
            }
        }
    }
}

/// Convenience wrapper: an interior point of the open cone in the simplex,
/// if one exists.
pub fn cone_interior_point(cone: &ConeRegion) -> Option<Vec<f64>> {
    match cone_feasible(cone) {
        LpOutcome::Interior { w, .. } => Some(w),
        _ => None,
    }
}

/// Exact `passThrough` (§4.2/§5.4): does the hyperplane have cone points
/// strictly on both of its sides (within the weight simplex)?
pub fn hyperplane_crosses_cone(cone: &ConeRegion, hp: &OrderingExchange) -> bool {
    let plus = cone.with(hp.coeffs());
    if !cone_feasible(&plus).is_interior() {
        return false;
    }
    let negated: Vec<f64> = hp.coeffs().iter().map(|c| -c).collect();
    let minus = cone.with(&negated);
    cone_feasible(&minus).is_interior()
}

// ---------------------------------------------------------------------------
// Dense two-phase simplex
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq)]
enum RowKind {
    Ge,
    Eq,
}

enum SimplexResult {
    Optimal { objective: f64, solution: Vec<f64> },
    Infeasible,
    Unbounded,
}

/// Solves `maximize c·x` subject to rows of kind ≥ / = with non-negative
/// right-hand sides and `x ≥ 0`.
fn solve_lp(rows: &[Vec<f64>], kinds: &[RowKind], rhs: &[f64], c: &[f64]) -> SimplexResult {
    let m = rows.len();
    let n_struct = c.len();
    debug_assert!(
        rhs.iter().all(|&b| b >= 0.0),
        "solve_lp: rhs must be non-negative"
    );

    // Column layout: structural | surplus (one per ≥ row) | artificial (one
    // per row). Every row gets an artificial so the initial basis is the
    // identity even for degenerate rhs-0 rows.
    let n_surplus = kinds.iter().filter(|k| **k == RowKind::Ge).count();
    let n = n_struct + n_surplus + m;
    let art_start = n_struct + n_surplus;

    let mut a = vec![0.0; m * n];
    let mut b = rhs.to_vec();
    let mut basis = vec![0usize; m];
    let mut surplus_idx = 0;
    for (i, row) in rows.iter().enumerate() {
        a[i * n..i * n + n_struct].copy_from_slice(row);
        if kinds[i] == RowKind::Ge {
            a[i * n + n_struct + surplus_idx] = -1.0;
            surplus_idx += 1;
        }
        a[i * n + art_start + i] = 1.0;
        basis[i] = art_start + i;
    }

    // Phase 1: maximize −Σ artificials.
    let mut phase1_obj = vec![0.0; n];
    phase1_obj[art_start..].fill(-1.0);
    if !run_simplex(&mut a, &mut b, &mut basis, &phase1_obj, n, m, None) {
        // Phase-1 objective is bounded (≥ −Σ rhs), so unboundedness cannot
        // occur; but be safe.
        return SimplexResult::Infeasible;
    }
    let artificial_sum: f64 = basis
        .iter()
        .enumerate()
        .filter(|(_, &j)| j >= art_start)
        .map(|(i, _)| b[i])
        .sum();
    if artificial_sum > LP_TOL {
        return SimplexResult::Infeasible;
    }

    // Drive any degenerate basic artificials out of the basis, or drop rows
    // that turned out redundant.
    let mut active_rows: Vec<bool> = vec![true; m];
    for i in 0..m {
        if basis[i] < art_start {
            continue;
        }
        let pivot_col = (0..art_start).find(|&j| a[i * n + j].abs() > LP_TOL);
        match pivot_col {
            Some(j) => pivot(&mut a, &mut b, &mut basis, n, m, i, j),
            None => active_rows[i] = false, // redundant constraint
        }
    }

    // Phase 2: original objective, artificials barred from entering.
    let mut phase2_obj = vec![0.0; n];
    phase2_obj[..n_struct].copy_from_slice(c);
    if !run_simplex(
        &mut a,
        &mut b,
        &mut basis,
        &phase2_obj,
        n,
        m,
        Some(art_start),
    ) {
        return SimplexResult::Unbounded;
    }

    let mut x = vec![0.0; n_struct];
    for i in 0..m {
        if active_rows[i] && basis[i] < n_struct {
            x[basis[i]] = b[i];
        }
    }
    let objective = crate::vector::dot(c, &x);
    SimplexResult::Optimal {
        objective,
        solution: x,
    }
}

/// Runs primal-simplex pivots until optimality (`true`) or unboundedness
/// (`false`). `col_limit` bars columns `≥ limit` (artificials) from entering.
fn run_simplex(
    a: &mut [f64],
    b: &mut [f64],
    basis: &mut [usize],
    obj: &[f64],
    n: usize,
    m: usize,
    col_limit: Option<usize>,
) -> bool {
    let enterable = col_limit.unwrap_or(n);
    // Reduced costs r_j = obj_j − y·A_j with y_i = obj_{basis_i} under the
    // canonical tableau; recomputed each iteration — fine at these sizes
    // and immune to drift.
    loop {
        let mut entering = None;
        for j in 0..enterable {
            if basis.contains(&j) {
                continue;
            }
            let mut r = obj[j];
            for i in 0..m {
                r -= obj[basis[i]] * a[i * n + j];
            }
            if r > LP_TOL {
                entering = Some(j); // Bland: first improving index
                break;
            }
        }
        let Some(j) = entering else { return true };

        // Ratio test with Bland tie-breaking on the basic variable index.
        let mut leave: Option<(usize, f64)> = None;
        for i in 0..m {
            let aij = a[i * n + j];
            if aij > LP_TOL {
                let ratio = b[i] / aij;
                match leave {
                    None => leave = Some((i, ratio)),
                    Some((li, lr)) => {
                        if ratio < lr - LP_TOL
                            || ((ratio - lr).abs() <= LP_TOL && basis[i] < basis[li])
                        {
                            leave = Some((i, ratio));
                        }
                    }
                }
            }
        }
        let Some((i, _)) = leave else { return false };
        pivot(a, b, basis, n, m, i, j);
    }
}

/// Pivots the tableau on `(row, col)`.
fn pivot(
    a: &mut [f64],
    b: &mut [f64],
    basis: &mut [usize],
    n: usize,
    m: usize,
    row: usize,
    col: usize,
) {
    let p = a[row * n + col];
    debug_assert!(p.abs() > 0.0, "pivot on zero element");
    for j in 0..n {
        a[row * n + j] /= p;
    }
    b[row] /= p;
    for i in 0..m {
        if i == row {
            continue;
        }
        let factor = a[i * n + col];
        if factor == 0.0 {
            continue;
        }
        for j in 0..n {
            a[i * n + j] -= factor * a[row * n + j];
        }
        b[i] -= factor * b[row];
        // Clamp tiny negatives introduced by cancellation; rhs must stay ≥ 0.
        if b[i] < 0.0 && b[i] > -LP_TOL {
            b[i] = 0.0;
        }
    }
    basis[row] = col;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cone(dim: usize, hs: Vec<Vec<f64>>) -> ConeRegion {
        ConeRegion::from_table(dim, hs.concat())
    }

    #[test]
    fn unconstrained_simplex_is_interior() {
        let out = cone_feasible(&ConeRegion::full(3));
        match out {
            LpOutcome::Interior { w, .. } => {
                assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            }
            other => panic!("expected interior, got {other:?}"),
        }
    }

    #[test]
    fn single_halfspace_optimum_is_extreme_point() {
        // max ε s.t. w1 − w2 ≥ ε on the simplex → w = (1, 0), ε = 1.
        let out = cone_feasible(&cone(2, vec![vec![1.0, -1.0]]));
        match out {
            LpOutcome::Interior { w, slack } => {
                assert!((slack - 1.0).abs() < 1e-9, "slack = {slack}");
                assert!((w[0] - 1.0).abs() < 1e-9);
            }
            other => panic!("expected interior, got {other:?}"),
        }
    }

    #[test]
    fn contradictory_halfspaces_are_empty() {
        // w1 > w2 and w2 > w1 cannot both hold.
        let out = cone_feasible(&cone(2, vec![vec![1.0, -1.0], vec![-1.0, 1.0]]));
        assert!(!out.is_interior(), "got {out:?}");
    }

    #[test]
    fn negative_orthant_requirement_is_not_interior() {
        // −w1 > 0 needs w1 < 0, impossible with w ≥ 0 (w1 = 0 is boundary).
        let out = cone_feasible(&cone(2, vec![vec![-1.0, 0.0]]));
        assert!(!out.is_interior(), "got {out:?}");
    }

    #[test]
    fn interior_point_satisfies_all_constraints() {
        let c = cone(3, vec![vec![1.0, -1.0, 0.0], vec![0.0, 1.0, -1.0]]);
        let w = cone_interior_point(&c).expect("feasible cone");
        assert!(c.contains(&w), "witness {w:?} must lie strictly inside");
        assert!(w.iter().all(|&x| x >= -1e-12));
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn diagonal_hyperplane_crosses_the_orthant() {
        let hp = OrderingExchange::from_coeffs(vec![1.0, -1.0]);
        assert!(hyperplane_crosses_cone(&ConeRegion::full(2), &hp));
    }

    #[test]
    fn hyperplane_outside_cone_does_not_cross() {
        // Cone w1 > w2; hyperplane w1 = 0.5·w2 lies strictly below it.
        let c = cone(2, vec![vec![1.0, -1.0]]);
        let hp = OrderingExchange::from_coeffs(vec![1.0, -0.5]);
        assert!(!hyperplane_crosses_cone(&c, &hp));
    }

    #[test]
    fn hyperplane_through_cone_crosses() {
        // Cone w1 > w2; hyperplane w1 = 2·w2 splits it.
        let c = cone(2, vec![vec![1.0, -1.0]]);
        let hp = OrderingExchange::from_coeffs(vec![1.0, -2.0]);
        assert!(hyperplane_crosses_cone(&c, &hp));
    }

    #[test]
    fn figure1_feasible_ranking_count_is_eleven() {
        // The Figure 1c arrangement has exactly 11 regions; of the 120
        // permutations of the 5 items, exactly 11 must be LP-feasible.
        let items: [&[f64]; 5] = [
            &[0.63, 0.71],
            &[0.83, 0.65],
            &[0.58, 0.78],
            &[0.70, 0.68],
            &[0.53, 0.82],
        ];
        let mut feasible = 0;
        let mut perm: Vec<usize> = (0..5).collect();
        let mut count_perm = |perm: &[usize]| {
            let mut c = ConeRegion::full(2);
            for pair in perm.windows(2) {
                let (above, below) = (items[pair[0]], items[pair[1]]);
                c.push(&[above[0] - below[0], above[1] - below[1]]);
            }
            if cone_feasible(&c).is_interior() {
                feasible += 1;
            }
        };
        permute(&mut perm, 0, &mut count_perm);
        assert_eq!(feasible, 11);
    }

    fn permute(v: &mut Vec<usize>, k: usize, f: &mut impl FnMut(&[usize])) {
        if k == v.len() {
            f(v);
            return;
        }
        for i in k..v.len() {
            v.swap(k, i);
            permute(v, k + 1, f);
            v.swap(k, i);
        }
    }

    #[test]
    fn higher_dimensional_feasibility() {
        // w1 > w2 > w3 > w4 is realizable.
        let c = cone(
            4,
            vec![
                vec![1.0, -1.0, 0.0, 0.0],
                vec![0.0, 1.0, -1.0, 0.0],
                vec![0.0, 0.0, 1.0, -1.0],
            ],
        );
        assert!(cone_feasible(&c).is_interior());
        // Adding the reverse of the first closes it.
        let closed = c.with(&[-1.0, 1.0, 0.0, 0.0]);
        assert!(!cone_feasible(&closed).is_interior());
    }

    #[test]
    fn redundant_constraints_are_harmless() {
        let c = cone(
            2,
            vec![
                vec![1.0, -1.0],
                vec![1.0, -1.0],
                vec![2.0, -2.0],
                vec![1.0, 0.0],
            ],
        );
        assert!(cone_feasible(&c).is_interior());
    }

    #[test]
    fn slack_scales_with_constraint_coefficients() {
        // Doubling the coefficients doubles ε* but not the witness.
        let c1 = cone(2, vec![vec![1.0, -1.0]]);
        let c2 = cone(2, vec![vec![2.0, -2.0]]);
        let (s1, s2) = match (cone_feasible(&c1), cone_feasible(&c2)) {
            (LpOutcome::Interior { slack: s1, .. }, LpOutcome::Interior { slack: s2, .. }) => {
                (s1, s2)
            }
            other => panic!("both must be interior, got {other:?}"),
        };
        assert!((s2 - 2.0 * s1).abs() < 1e-9);
    }
}
