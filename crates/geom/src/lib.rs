//! Computational-geometry substrate for ranking-stability analysis.
//!
//! This crate implements the geometric machinery that the algorithms of
//! *On Obtaining Stable Rankings* (Asudeh, Jagadish, Miklau, Stoyanovich —
//! PVLDB 12(3), 2018) are built on:
//!
//! * [`vector`] — dense-vector algebra on `&[f64]` slices (dot products,
//!   norms, cosine similarity, angles);
//! * [`polar`] — the paper's polar-coordinate convention: a ray in `R^d` is
//!   `d − 1` angles, the last one measured from the `d`-th axis;
//! * [`matrix`] — a small dense row-major matrix used for rotations;
//! * [`rotation`] — the Appendix-A transformation-matrix cascade that maps
//!   the `d`-th axis onto an arbitrary reference ray, plus a Householder
//!   reflection used as an independent cross-check;
//! * [`dual`] — the dual-space transform `d(t): Σ t[j]·x_j = 1` of §2.1.2
//!   and its intersection with scoring-function rays;
//! * [`hyperplane`] — ordering-exchange hyperplanes `×(t_i, t_j)` (Eq. 7)
//!   and the strict half-spaces they induce;
//! * [`region`] — convex cones expressed as intersections of half-spaces,
//!   held as one row-major coefficient table (the ranking regions of §4);
//! * [`angle2d`] — the closed-form 2-D ordering-exchange angle of Eq. 6;
//! * [`dominance`] — the dominance relation and two skyline baselines
//!   (block-nested-loop and sort-filter), used by §2.2.5's comparison of
//!   stable top-k sets against the skyline;
//! * [`lp`] — a dense two-phase simplex used to decide feasibility of
//!   open convex cones and hyperplane/region intersection exactly
//!   (the linear-programming `passThrough` of §4.2);
//! * [`solid_angle`] — the exact stability of a 3-D ranking region: its
//!   spherical-polygon area, by one clip of the orthant's gnomonic
//!   triangle and a fan of Van Oosterom–Strackee solid angles.
//!
//! Everything here is deterministic and free of I/O; randomness lives in
//! `srank-sample`.

pub mod angle2d;
pub mod dominance;
pub mod dual;
pub mod hyperplane;
pub mod lp;
pub mod matrix;
pub mod polar;
pub mod region;
pub mod rotation;
pub mod solid_angle;
pub mod vector;

pub use angle2d::{exchange_angle_2d, weight_from_angle_2d, ExchangeOrder};
pub use dominance::{dominates, skyline_bnl, skyline_sort_filter};
pub use dual::DualHyperplane;
pub use hyperplane::{HalfSpace, OrderingExchange, Side};
pub use lp::{cone_feasible, cone_interior_point, hyperplane_crosses_cone, LpOutcome};
pub use matrix::Matrix;
pub use polar::{to_angles, to_cartesian};
pub use region::ConeRegion;
pub use rotation::{reflect_axis_to, rotation_axis_to_ray, rotation_to_vector};
pub use solid_angle::exact_stability_3d;

/// Tolerance used for geometric predicates (side-of-hyperplane tests,
/// feasibility slack, angle comparisons).
///
/// Attribute values are normalized to `[0, 1]`, so coefficients of ordering
/// exchanges are in `[-1, 1]` and scores of unit weight vectors are `O(√d)`;
/// `1e-9` is far below any meaningful signal at `f64` precision while
/// absorbing the rounding noise of the dot products involved.
pub const EPS: f64 = 1e-9;
