//! Regions of interest `U*` (§2.2.2) and their uniform samplers.
//!
//! The producer constrains acceptable scoring functions either by a
//! *cone* — "within angle θ (cosine similarity cos θ) of a reference
//! vector" — or by a *constraint set* of linear inequalities over the
//! weights, implicitly intersected with the first orthant. `U* = U` (the
//! whole orthant) is the degenerate case used by the consumer problems.

use crate::cap::CapSampler;
use crate::sphere::sample_orthant_direction;
use crate::store::SampleBuffer;
use rand::Rng;
use srank_geom::hyperplane::HalfSpace;
use srank_geom::vector::{angle_between, in_first_orthant, normalized};
use srank_geom::EPS;
use std::f64::consts::FRAC_PI_2;

/// Cap on rejection-loop iterations before concluding the region is
/// (numerically) empty. At the paper's narrowest region of interest
/// (θ = π/100 in d = 5) the orthant-proposal acceptance rate stays far
/// above `1/REJECTION_LIMIT`.
const REJECTION_LIMIT: usize = 20_000_000;

/// A region of interest in the space of scoring functions.
#[derive(Clone, Debug)]
pub enum RegionOfInterest {
    /// All of `U`: the first orthant of the unit sphere.
    FullOrthant { dim: usize },
    /// Functions within angle `theta` of (the direction of) `ray`.
    ///
    /// Following the paper, the cap is *not* clipped to the first orthant
    /// unless `clip_to_orthant` is set: a cap around an interior reference
    /// vector with small θ stays inside the orthant anyway, and clipping
    /// changes the normalizing volume.
    Cone {
        ray: Vec<f64>,
        theta: f64,
        clip_to_orthant: bool,
    },
    /// Functions in the first orthant satisfying every half-space
    /// constraint, e.g. `w₂ ≤ w₁` as `HalfSpace::new(vec![1, −1])`.
    ///
    /// Closed constraints are accepted up to [`srank_geom::EPS`]; the
    /// boundary has measure zero, so this does not bias sampling.
    Constraints {
        dim: usize,
        halfspaces: Vec<HalfSpace>,
    },
}

impl RegionOfInterest {
    /// The whole universe `U` of scoring functions in `R^d`.
    pub fn full(dim: usize) -> Self {
        assert!(dim >= 2, "RegionOfInterest: need d ≥ 2");
        RegionOfInterest::FullOrthant { dim }
    }

    /// The cone of functions within `theta` radians of `ray`.
    ///
    /// # Panics
    /// Panics if `ray` is zero or shorter than 2, or `theta ∉ (0, π/2]`.
    pub fn cone(ray: &[f64], theta: f64) -> Self {
        assert!(ray.len() >= 2, "RegionOfInterest: need d ≥ 2");
        assert!(
            theta > 0.0 && theta <= FRAC_PI_2 + 1e-12,
            "RegionOfInterest: need θ ∈ (0, π/2], got {theta}"
        );
        let unit = normalized(ray).expect("RegionOfInterest: reference ray must be non-zero");
        RegionOfInterest::Cone {
            ray: unit,
            theta,
            clip_to_orthant: false,
        }
    }

    /// The cone of functions with at least `cos_sim` cosine similarity to
    /// `ray` — the paper's "0.998 cosine similarity" phrasing.
    ///
    /// # Panics
    /// Panics unless `0 ≤ cos_sim < 1` (and `ray` is a valid reference).
    pub fn cone_cosine(ray: &[f64], cos_sim: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&cos_sim),
            "RegionOfInterest: need cosine similarity in [0, 1), got {cos_sim}"
        );
        Self::cone(ray, cos_sim.acos())
    }

    /// Restricts a cone to the first orthant (rejection against `w ≥ 0`).
    pub fn clipped_to_orthant(self) -> Self {
        match self {
            RegionOfInterest::Cone { ray, theta, .. } => RegionOfInterest::Cone {
                ray,
                theta,
                clip_to_orthant: true,
            },
            other => other,
        }
    }

    /// A constraint-set region: first orthant ∩ all half-spaces.
    pub fn constraints(dim: usize, halfspaces: Vec<HalfSpace>) -> Self {
        assert!(dim >= 2, "RegionOfInterest: need d ≥ 2");
        for h in &halfspaces {
            assert_eq!(
                h.dim(),
                dim,
                "RegionOfInterest: half-space dimension mismatch"
            );
        }
        RegionOfInterest::Constraints { dim, halfspaces }
    }

    /// Dimension of the weight space.
    pub fn dim(&self) -> usize {
        match self {
            RegionOfInterest::FullOrthant { dim } => *dim,
            RegionOfInterest::Cone { ray, .. } => ray.len(),
            RegionOfInterest::Constraints { dim, .. } => *dim,
        }
    }

    /// Membership test (direction-based; `w` need not be normalized).
    pub fn contains(&self, w: &[f64]) -> bool {
        match self {
            RegionOfInterest::FullOrthant { .. } => in_first_orthant(w, EPS),
            RegionOfInterest::Cone {
                ray,
                theta,
                clip_to_orthant,
            } => {
                let inside_cap = match angle_between(w, ray) {
                    Some(a) => a <= *theta + EPS,
                    None => false,
                };
                inside_cap && (!clip_to_orthant || in_first_orthant(w, EPS))
            }
            RegionOfInterest::Constraints { halfspaces, .. } => {
                in_first_orthant(w, EPS) && halfspaces.iter().all(|h| h.slack(w) >= -EPS)
            }
        }
    }

    /// Builds the uniform sampler for this region (§5.1–5.2): direct
    /// orthant sampling for `U`, inverse-CDF cap sampling for cones, and
    /// acceptance–rejection with an orthant proposal for constraint sets.
    pub fn sampler(&self) -> RoiSampler {
        match self {
            RegionOfInterest::FullOrthant { dim } => RoiSampler::Orthant { dim: *dim },
            RegionOfInterest::Cone {
                ray,
                theta,
                clip_to_orthant,
            } => RoiSampler::Cap {
                cap: CapSampler::new(ray, *theta),
                clip_to_orthant: *clip_to_orthant,
            },
            RegionOfInterest::Constraints { dim, halfspaces } => RoiSampler::Rejection {
                dim: *dim,
                halfspaces: halfspaces.clone(),
            },
        }
    }

    /// Serializes the region (a tagged union; every float exact — see
    /// the `persist` module docs).
    pub fn to_value(&self) -> serde_json::Value {
        use crate::persist::{f64_slice_value, halfspace_rows_value, obj};
        use serde_json::Value;
        match self {
            RegionOfInterest::FullOrthant { dim } => obj([
                ("kind", Value::String("orthant".into())),
                ("dim", Value::Number(*dim as f64)),
            ]),
            RegionOfInterest::Cone {
                ray,
                theta,
                clip_to_orthant,
            } => obj([
                ("kind", Value::String("cone".into())),
                ("ray", f64_slice_value(ray)),
                ("theta", Value::Number(*theta)),
                ("clip_to_orthant", Value::Bool(*clip_to_orthant)),
            ]),
            RegionOfInterest::Constraints { dim, halfspaces } => obj([
                ("kind", Value::String("constraints".into())),
                ("dim", Value::Number(*dim as f64)),
                ("halfspaces", halfspace_rows_value(halfspaces)),
            ]),
        }
    }

    /// Rebuilds a region serialized by [`to_value`](Self::to_value), bit
    /// for bit: the stored ray is already unit, so it is not normalized
    /// again.
    pub fn from_value(v: &serde_json::Value) -> crate::persist::PersistResult<Self> {
        use crate::persist::{
            bool_field, f64_field, f64_vec_field, halfspace_rows_field, str_field, usize_field,
            PersistError,
        };
        Ok(match str_field(v, "kind")? {
            "orthant" => RegionOfInterest::FullOrthant {
                dim: usize_field(v, "dim")?,
            },
            "cone" => RegionOfInterest::Cone {
                ray: f64_vec_field(v, "ray")?,
                theta: f64_field(v, "theta")?,
                clip_to_orthant: bool_field(v, "clip_to_orthant")?,
            },
            "constraints" => {
                let dim = usize_field(v, "dim")?;
                RegionOfInterest::Constraints {
                    dim,
                    halfspaces: halfspace_rows_field(v, "halfspaces", dim)?,
                }
            }
            other => return Err(PersistError::new(format!("unknown roi kind '{other}'"))),
        })
    }
}

/// A uniform sampler over a [`RegionOfInterest`].
#[derive(Clone, Debug)]
pub enum RoiSampler {
    Orthant {
        dim: usize,
    },
    Cap {
        cap: CapSampler,
        clip_to_orthant: bool,
    },
    Rejection {
        dim: usize,
        halfspaces: Vec<HalfSpace>,
    },
}

impl RoiSampler {
    /// Serializes the sampler for durable storage (a tagged union over
    /// the three sampling strategies; exact — see `persist` module docs).
    pub fn to_value(&self) -> serde_json::Value {
        use crate::persist::{halfspace_rows_value, obj};
        use serde_json::Value;
        match self {
            RoiSampler::Orthant { dim } => obj([
                ("kind", Value::String("orthant".into())),
                ("dim", Value::Number(*dim as f64)),
            ]),
            RoiSampler::Cap {
                cap,
                clip_to_orthant,
            } => obj([
                ("kind", Value::String("cap".into())),
                ("cap", cap.to_value()),
                ("clip_to_orthant", Value::Bool(*clip_to_orthant)),
            ]),
            RoiSampler::Rejection { dim, halfspaces } => obj([
                ("kind", Value::String("rejection".into())),
                ("dim", Value::Number(*dim as f64)),
                ("halfspaces", halfspace_rows_value(halfspaces)),
            ]),
        }
    }

    /// Rebuilds a sampler serialized by [`to_value`](Self::to_value).
    pub fn from_value(v: &serde_json::Value) -> crate::persist::PersistResult<Self> {
        use crate::persist::{
            bool_field, field, halfspace_rows_field, str_field, usize_field, PersistError,
        };
        match str_field(v, "kind")? {
            "orthant" => {
                let dim = usize_field(v, "dim")?;
                if dim < 2 {
                    return Err(PersistError::new("orthant sampler needs d ≥ 2"));
                }
                Ok(RoiSampler::Orthant { dim })
            }
            "cap" => Ok(RoiSampler::Cap {
                cap: CapSampler::from_value(field(v, "cap")?)?,
                clip_to_orthant: bool_field(v, "clip_to_orthant")?,
            }),
            "rejection" => {
                let dim = usize_field(v, "dim")?;
                if dim < 2 {
                    return Err(PersistError::new("rejection sampler needs d ≥ 2"));
                }
                let halfspaces = halfspace_rows_field(v, "halfspaces", dim)?;
                Ok(RoiSampler::Rejection { dim, halfspaces })
            }
            other => Err(PersistError::new(format!("unknown sampler kind '{other}'"))),
        }
    }

    /// One uniform sample.
    ///
    /// # Panics
    /// Panics if `REJECTION_LIMIT` (20M) proposals are rejected in a row (the
    /// region is empty or vanishingly small); use
    /// [`try_sample`](Self::try_sample) for graceful handling.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<f64> {
        self.try_sample(rng, REJECTION_LIMIT).expect(
            "RoiSampler: rejection limit exhausted — empty or degenerate region of interest",
        )
    }

    /// One uniform sample into a caller-provided buffer — the
    /// zero-allocation form for sampling hot loops. The orthant sampler
    /// fills `out` in place; the cap and rejection samplers currently fall
    /// back to the allocating path (their draws are dominated by rotation
    /// / rejection work, not the allocation). Consumes the RNG exactly
    /// like [`sample`](Self::sample), so streams are interchangeable.
    ///
    /// # Panics
    /// As [`sample`](Self::sample), if the rejection limit is exhausted.
    pub fn sample_into<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut Vec<f64>) {
        match self {
            RoiSampler::Orthant { dim } => {
                crate::sphere::sample_orthant_direction_into(rng, *dim, out)
            }
            _ => *out = self.sample(rng),
        }
    }

    /// One uniform sample, giving up after `max_trials` rejected proposals.
    pub fn try_sample<R: Rng + ?Sized>(&self, rng: &mut R, max_trials: usize) -> Option<Vec<f64>> {
        match self {
            RoiSampler::Orthant { dim } => Some(sample_orthant_direction(rng, *dim)),
            RoiSampler::Cap {
                cap,
                clip_to_orthant,
            } => {
                if !clip_to_orthant {
                    return Some(cap.sample(rng));
                }
                for _ in 0..max_trials {
                    let w = cap.sample(rng);
                    if in_first_orthant(&w, EPS) {
                        return Some(w);
                    }
                }
                None
            }
            RoiSampler::Rejection { dim, halfspaces } => {
                for _ in 0..max_trials {
                    let w = sample_orthant_direction(rng, *dim);
                    if halfspaces.iter().all(|h| h.slack(&w) >= -EPS) {
                        return Some(w);
                    }
                }
                None
            }
        }
    }

    /// Draws `n` samples into a [`SampleBuffer`].
    pub fn sample_buffer<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> SampleBuffer {
        SampleBuffer::generate(rng, n, |r| self.sample(r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use srank_geom::vector::norm;
    use std::f64::consts::{FRAC_PI_4, PI};

    #[test]
    fn full_orthant_contains_only_nonnegative() {
        let u = RegionOfInterest::full(3);
        assert!(u.contains(&[0.5, 0.2, 0.3]));
        assert!(!u.contains(&[0.5, -0.2, 0.3]));
    }

    #[test]
    fn cone_membership_by_angle() {
        let roi = RegionOfInterest::cone(&[1.0, 1.0], PI / 10.0);
        assert!(roi.contains(&[1.0, 1.0]));
        assert!(roi.contains(&[1.0, 1.2])); // ~5.2° away
        assert!(!roi.contains(&[1.0, 0.0])); // 45° away
    }

    #[test]
    fn cone_cosine_matches_angle_spec() {
        // The paper: π/10 angle distance ⇔ 95.1% cosine similarity.
        let by_angle = RegionOfInterest::cone(&[1.0, 1.0], PI / 10.0);
        let by_cos = RegionOfInterest::cone_cosine(&[1.0, 1.0], (PI / 10.0).cos());
        let w = [0.8, 1.0];
        assert_eq!(by_angle.contains(&w), by_cos.contains(&w));
        if let RegionOfInterest::Cone { theta, .. } = by_cos {
            assert!((theta - PI / 10.0).abs() < 1e-12);
        } else {
            panic!("expected cone");
        }
    }

    #[test]
    fn constraint_region_from_paper_example() {
        // §3.2's U₁*: {w₁ ≤ w₂, 2w₁ ≥ w₂}. The paper quotes the angle
        // range loosely as [π/4, π/3]; the exact upper edge is arctan 2.
        let roi = RegionOfInterest::constraints(
            2,
            vec![
                HalfSpace::new(vec![-1.0, 1.0]), // w₂ ≥ w₁
                HalfSpace::new(vec![2.0, -1.0]), // 2w₁ ≥ w₂
            ],
        );
        let upper = 2.0f64.atan();
        let at = |t: f64| [t.cos(), t.sin()];
        assert!(roi.contains(&at(FRAC_PI_4 + 0.01)));
        assert!(roi.contains(&at(upper - 0.01)));
        assert!(!roi.contains(&at(FRAC_PI_4 - 0.05)));
        assert!(!roi.contains(&at(upper + 0.05)));
    }

    #[test]
    fn samples_fall_inside_their_region() {
        let mut rng = StdRng::seed_from_u64(21);
        let regions = [
            RegionOfInterest::full(4),
            RegionOfInterest::cone(&[1.0, 0.5, 0.3, 0.2], PI / 100.0),
            RegionOfInterest::constraints(4, vec![HalfSpace::new(vec![1.0, -1.0, 0.0, 0.0])]),
        ];
        for roi in &regions {
            let sampler = roi.sampler();
            for _ in 0..200 {
                let w = sampler.sample(&mut rng);
                assert!(roi.contains(&w), "{w:?} escaped {roi:?}");
                assert!((norm(&w) - 1.0).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn clipped_cone_stays_in_orthant() {
        let mut rng = StdRng::seed_from_u64(22);
        // Wide cap around an edge ray leaks outside the orthant; clipping
        // must remove the leak.
        let roi = RegionOfInterest::cone(&[1.0, 0.05], PI / 8.0).clipped_to_orthant();
        let sampler = roi.sampler();
        for _ in 0..300 {
            let w = sampler.sample(&mut rng);
            assert!(w.iter().all(|&x| x >= -EPS));
        }
    }

    #[test]
    fn unclipped_edge_cone_does_leak() {
        // Documents the paper-faithful behaviour the clip flag exists for.
        let mut rng = StdRng::seed_from_u64(23);
        let roi = RegionOfInterest::cone(&[1.0, 0.05], PI / 8.0);
        let sampler = roi.sampler();
        let leaked = (0..300).any(|_| sampler.sample(&mut rng).iter().any(|&x| x < 0.0));
        assert!(leaked, "expected some samples outside the orthant");
    }

    #[test]
    fn rejection_sampler_respects_constraints() {
        let mut rng = StdRng::seed_from_u64(24);
        let roi = RegionOfInterest::constraints(
            3,
            vec![
                HalfSpace::new(vec![1.0, -1.0, 0.0]),
                HalfSpace::new(vec![0.0, 1.0, -1.0]),
            ],
        );
        let sampler = roi.sampler();
        for _ in 0..200 {
            let w = sampler.sample(&mut rng);
            assert!(w[0] >= w[1] - 1e-9 && w[1] >= w[2] - 1e-9, "{w:?}");
        }
    }

    #[test]
    fn try_sample_gives_up_on_empty_region() {
        let mut rng = StdRng::seed_from_u64(25);
        let roi = RegionOfInterest::constraints(
            2,
            vec![
                HalfSpace::new(vec![1.0, -1.0]),
                HalfSpace::new(vec![-1.0, 1.0]),
            ],
        );
        // Only the diagonal w₁ = w₂ satisfies both (within EPS); rejection
        // from the continuous proposal finds it with probability ~0... but
        // EPS slack makes a hairline band, so use strictly opposed
        // constraints instead:
        let empty = RegionOfInterest::constraints(
            2,
            vec![
                HalfSpace::new(vec![1.0, -1.0]),
                HalfSpace::new(vec![-1.0, 0.9]),
            ],
        );
        // w₁ ≥ w₂ and 0.9·w₂ ≥ w₁ ⇒ w₁ = w₂ = 0 — unreachable on the sphere.
        assert!(empty.sampler().try_sample(&mut rng, 10_000).is_none());
        // The hairline band however might occasionally succeed; only check
        // that it does not panic within a small budget.
        let _ = roi.sampler().try_sample(&mut rng, 1000);
    }

    #[test]
    fn sample_buffer_has_requested_shape() {
        let mut rng = StdRng::seed_from_u64(26);
        let buf = RegionOfInterest::full(3)
            .sampler()
            .sample_buffer(&mut rng, 500);
        assert_eq!(buf.len(), 500);
        assert_eq!(buf.dim(), 3);
    }

    #[test]
    fn regions_round_trip_through_json_bit_for_bit() {
        let regions = [
            RegionOfInterest::full(3),
            RegionOfInterest::cone(&[0.3, 1.0, 0.7], 0.1 + 0.2).clipped_to_orthant(),
            RegionOfInterest::constraints(3, vec![HalfSpace::new(vec![1.0 / 3.0, -1.0, 0.0])]),
        ];
        for roi in &regions {
            let text = serde_json::to_string(&roi.to_value()).unwrap();
            let back = RegionOfInterest::from_value(&serde_json::from_str(&text).unwrap());
            // Debug prints every float at full precision.
            assert_eq!(format!("{:?}", back.unwrap()), format!("{roi:?}"));
        }
        let rows = crate::persist::obj([
            ("kind", serde_json::Value::String("constraints".into())),
            ("dim", serde_json::Value::Number(3.0)),
            ("halfspaces", serde_json::from_str("[[1, -1]]").unwrap()),
        ]);
        assert!(
            RegionOfInterest::from_value(&rows).is_err(),
            "row of the wrong d"
        );
    }

    #[test]
    #[should_panic(expected = "cosine similarity")]
    fn cone_cosine_validates_input() {
        RegionOfInterest::cone_cosine(&[1.0, 1.0], 1.5);
    }
}
