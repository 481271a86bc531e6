//! Lazy arrangement construction — `GET-NEXTmd`, Algorithm 6 (§4.2 + §5.4).
//!
//! The arrangement of the `O(n²)` ordering-exchange hyperplanes inside `U*`
//! can hold `O(n^{2d})` regions, so building it eagerly just to report a
//! few stable rankings is wasteful. `GET-NEXTmd` instead keeps a max-heap
//! of partially-refined regions ordered by (estimated) stability and only
//! ever splits the currently largest one. A region whose pending
//! hyperplane list is exhausted is fully refined — by Theorem 1 it
//! corresponds to exactly one ranking — and is returned.
//!
//! `passThrough` and the stability estimates both ride on the §5.4 sample
//! partition: each region owns a contiguous range `[sb, se)` of the shared
//! sample buffer, a split is one in-place quick-sort partition of that
//! range, stability is `(se − sb)/|S|`, and a representative function is
//! the centroid of the owned samples.
//!
//! Under [`PassThroughMode::SamplePartition`] the fully refined leaves are
//! exactly the classes of samples inducing one ranking, so the leaves'
//! stability multiset is the histogram of distinct sampled rankings. A
//! caller that wants only that distribution (the §1 overview) should use
//! [`crate::overview::StabilityOverview::from_samples`], which counts it
//! in O(|S| · n log n) instead of the walk's O(n² · |S|) partitions. This
//! enumerator is for callers that need the rankings in stability order,
//! their representatives, or their regions (`md` sessions, `ExactLp`).

use crate::dataset::Dataset;
use crate::error::{Result, StableRankError};
use crate::ranking::Ranking;
use crate::xhps::ordering_exchange_hyperplanes;
use rand::Rng;
use srank_geom::hyperplane::{HalfSpace, OrderingExchange, Side};
use srank_geom::lp::{cone_interior_point, hyperplane_crosses_cone};
use srank_geom::region::ConeRegion;
use srank_sample::partition::PartitionedSamples;
use srank_sample::roi::RegionOfInterest;
use srank_sample::store::SampleBuffer;
use std::collections::BinaryHeap;

/// How `GET-NEXTmd` decides whether a hyperplane passes through a region
/// (§4.2 offers both).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PassThroughMode {
    /// §5.4: a hyperplane crosses a region iff the region's sample range
    /// has points on both sides. Fast, but thin regions below the sampling
    /// resolution are never split (their mass is attributed to a sibling).
    SamplePartition,
    /// The exact test: a linear program per candidate (two feasibility
    /// checks). Discovers *every* region of the arrangement, including
    /// zero-sample ones (emitted with stability 0 and an LP-derived
    /// representative). Only available for regions of interest expressible
    /// as linear constraints (the full orthant or a constraint set — not a
    /// cone, whose boundary is quadratic).
    ExactLp,
}

/// A stable ranking returned by the arrangement enumerator.
#[derive(Clone, Debug)]
pub struct StableRankingMd {
    pub ranking: Ranking,
    /// Estimated `vol(region)/vol(U*)`.
    pub stability: f64,
    /// A scoring function inside the region (the sample centroid).
    pub representative: Vec<f64>,
    /// The region's half-space description accumulated during splits (the
    /// hyperplanes that actually separated it from its siblings).
    pub region: ConeRegion,
}

/// The Figure-2 `Region` record: half-spaces, pending-hyperplane cursor,
/// and the owned sample range `[sb, se)`.
#[derive(Clone, Debug)]
struct PendingRegion {
    cone: ConeRegion,
    pending: usize,
    sb: usize,
    se: usize,
}

impl PendingRegion {
    fn count(&self) -> usize {
        self.se - self.sb
    }
}

/// Max-heap entry ordered by sample count (∝ stability), tie-broken by
/// range start for determinism.
#[derive(Clone)]
struct HeapEntry {
    count: usize,
    seq: usize,
    region: PendingRegion,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.count == other.count && self.seq == other.seq
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.count.cmp(&other.count).then(other.seq.cmp(&self.seq))
    }
}

/// An owned, `Send + 'static` snapshot of an [`MdEnumerator`]'s progress,
/// detached from the dataset borrow — the arrangement refinement so far
/// (hyperplanes, partitioned samples, pending-region heap).
///
/// Detach with [`MdEnumerator::into_state`], reattach with
/// [`MdEnumerator::from_state`]; both are O(1) moves, so a long-lived
/// session (e.g. in `srank-service`) pays nothing to persist between
/// `get_next` calls.
#[derive(Clone)]
pub struct MdState {
    n_items: usize,
    hyperplanes: Vec<OrderingExchange>,
    samples: PartitionedSamples,
    heap: Vec<HeapEntry>,
    seq: usize,
    mode: PassThroughMode,
    roi_halfspaces: Vec<HalfSpace>,
}

impl MdState {
    /// Number of partially-refined regions still pending.
    pub fn pending_regions(&self) -> usize {
        self.heap.len()
    }

    /// Serializes the refinement state for durable storage: hyperplanes,
    /// the partitioned sample buffer (its row order *is* the partition
    /// structure), and the pending-region heap in its internal array
    /// order — that array is already a valid heap, so rebuilding it on
    /// load moves nothing and a restored session splits regions in the
    /// identical order.
    pub fn to_value(&self) -> serde_json::Value {
        use serde_json::Value;
        use srank_sample::persist::{f64_slice_value, obj};
        let halfspaces = |hs: &[HalfSpace]| {
            Value::Array(hs.iter().map(|h| f64_slice_value(h.coeffs())).collect())
        };
        let heap: Vec<Value> = self
            .heap
            .iter()
            .map(|e| {
                obj([
                    ("count", Value::Number(e.count as f64)),
                    ("seq", Value::Number(e.seq as f64)),
                    ("cone", halfspaces(e.region.cone.halfspaces())),
                    ("pending", Value::Number(e.region.pending as f64)),
                    ("sb", Value::Number(e.region.sb as f64)),
                    ("se", Value::Number(e.region.se as f64)),
                ])
            })
            .collect();
        let mode = match self.mode {
            PassThroughMode::SamplePartition => "sample-partition",
            PassThroughMode::ExactLp => "exact-lp",
        };
        obj([
            ("n_items", Value::Number(self.n_items as f64)),
            (
                "hyperplanes",
                Value::Array(
                    self.hyperplanes
                        .iter()
                        .map(|h| f64_slice_value(h.coeffs()))
                        .collect(),
                ),
            ),
            ("samples", self.samples.to_value()),
            ("heap", Value::Array(heap)),
            ("seq", Value::Number(self.seq as f64)),
            ("mode", Value::String(mode.into())),
            ("roi_halfspaces", halfspaces(&self.roi_halfspaces)),
        ])
    }

    /// Rebuilds a state serialized by [`to_value`](Self::to_value).
    pub fn from_value(v: &serde_json::Value) -> srank_sample::persist::PersistResult<Self> {
        use srank_sample::persist::{
            array_field, f64_vec_value, field, str_field, usize_field, PersistError,
        };
        let n_items = usize_field(v, "n_items")?;
        let samples = PartitionedSamples::from_value(field(v, "samples")?)?;
        let dim = samples.dim();
        let coeff_rows = |v: &serde_json::Value,
                          key: &str|
         -> srank_sample::persist::PersistResult<Vec<Vec<f64>>> {
            array_field(v, key)?
                .iter()
                .map(|h| {
                    let coeffs = f64_vec_value(h, key)?;
                    if coeffs.len() != dim {
                        return Err(PersistError::new(format!(
                            "'{key}' row has {} coefficients, samples are d = {dim}",
                            coeffs.len()
                        )));
                    }
                    Ok(coeffs)
                })
                .collect()
        };
        let hyperplanes: Vec<OrderingExchange> = coeff_rows(v, "hyperplanes")?
            .into_iter()
            .map(OrderingExchange::from_coeffs)
            .collect();
        let roi_halfspaces: Vec<HalfSpace> = coeff_rows(v, "roi_halfspaces")?
            .into_iter()
            .map(HalfSpace::new)
            .collect();
        let mode = match str_field(v, "mode")? {
            "sample-partition" => PassThroughMode::SamplePartition,
            "exact-lp" => PassThroughMode::ExactLp,
            other => return Err(PersistError::new(format!("unknown mode '{other}'"))),
        };
        let heap: Vec<HeapEntry> = array_field(v, "heap")?
            .iter()
            .map(|e| {
                let sb = usize_field(e, "sb")?;
                let se = usize_field(e, "se")?;
                let pending = usize_field(e, "pending")?;
                let count = usize_field(e, "count")?;
                if sb > se || se > samples.len() || count != se - sb {
                    return Err(PersistError::new(format!(
                        "heap entry range [{sb}, {se}) (count {count}) is inconsistent \
                         with {} samples",
                        samples.len()
                    )));
                }
                if pending > hyperplanes.len() {
                    return Err(PersistError::new(format!(
                        "heap entry pending cursor {pending} beyond {} hyperplanes",
                        hyperplanes.len()
                    )));
                }
                let cone = ConeRegion::from_halfspaces(
                    dim,
                    coeff_rows(e, "cone")?
                        .into_iter()
                        .map(HalfSpace::new)
                        .collect(),
                );
                Ok(HeapEntry {
                    count,
                    seq: usize_field(e, "seq")?,
                    region: PendingRegion {
                        cone,
                        pending,
                        sb,
                        se,
                    },
                })
            })
            .collect::<srank_sample::persist::PersistResult<_>>()?;
        Ok(Self {
            n_items,
            hyperplanes,
            samples,
            heap,
            seq: usize_field(v, "seq")?,
            mode,
            roi_halfspaces,
        })
    }
}

/// The multi-dimensional `GET-NEXT` operator (Algorithm 6).
///
/// Cloning is cheap relative to construction (no re-sampling, no `×hps`
/// pass) and lets callers checkpoint the enumeration state.
#[derive(Clone)]
pub struct MdEnumerator<'a> {
    data: &'a Dataset,
    hyperplanes: Vec<OrderingExchange>,
    samples: PartitionedSamples,
    heap: BinaryHeap<HeapEntry>,
    seq: usize,
    mode: PassThroughMode,
    /// The linear constraints of `U*` itself (empty for the full orthant),
    /// joined to every region's cone in LP feasibility tests.
    roi_halfspaces: Vec<HalfSpace>,
}

impl<'a> MdEnumerator<'a> {
    /// Draws `n_samples` uniform functions from `roi` and prepares the
    /// enumerator (including the `×hps` hyperplane harvest, which is the
    /// O(n²) part).
    pub fn new<R: Rng + ?Sized>(
        data: &'a Dataset,
        roi: &RegionOfInterest,
        n_samples: usize,
        rng: &mut R,
    ) -> Result<Self> {
        if roi.dim() != data.dim() {
            return Err(StableRankError::DimensionMismatch {
                expected: data.dim(),
                got: roi.dim(),
            });
        }
        if n_samples == 0 {
            return Err(StableRankError::EmptyRegionOfInterest);
        }
        let buffer = roi.sampler().sample_buffer(rng, n_samples);
        Self::with_samples(data, roi, buffer)
    }

    /// Builds the enumerator over a caller-provided sample buffer (e.g. to
    /// share samples across operators, as the paper's experiments do).
    pub fn with_samples(
        data: &'a Dataset,
        roi: &RegionOfInterest,
        buffer: SampleBuffer,
    ) -> Result<Self> {
        Self::with_samples_and_mode(data, roi, buffer, PassThroughMode::SamplePartition)
    }

    /// [`with_samples`](Self::with_samples) with an explicit `passThrough`
    /// strategy.
    ///
    /// # Errors
    /// [`PassThroughMode::ExactLp`] is rejected for cone regions of
    /// interest (their boundary is not linear).
    pub fn with_samples_and_mode(
        data: &'a Dataset,
        roi: &RegionOfInterest,
        buffer: SampleBuffer,
        mode: PassThroughMode,
    ) -> Result<Self> {
        if buffer.dim() != data.dim() {
            return Err(StableRankError::DimensionMismatch {
                expected: data.dim(),
                got: buffer.dim(),
            });
        }
        if buffer.is_empty() {
            return Err(StableRankError::EmptyRegionOfInterest);
        }
        let roi_halfspaces = match roi {
            RegionOfInterest::FullOrthant { .. } => Vec::new(),
            RegionOfInterest::Constraints { halfspaces, .. } => halfspaces.clone(),
            RegionOfInterest::Cone { .. } => {
                if mode == PassThroughMode::ExactLp {
                    return Err(StableRankError::InvalidWeights(
                        "ExactLp passThrough requires a linearly-constrained region of \
                         interest (full orthant or constraint set), not a cone"
                            .into(),
                    ));
                }
                Vec::new()
            }
        };
        let hyperplanes = ordering_exchange_hyperplanes(data, roi, &buffer);
        let total = buffer.len();
        let samples = PartitionedSamples::new(buffer);
        let root = PendingRegion {
            cone: ConeRegion::full(data.dim()),
            pending: 0,
            sb: 0,
            se: total,
        };
        let mut heap = BinaryHeap::new();
        heap.push(HeapEntry {
            count: total,
            seq: 0,
            region: root,
        });
        Ok(Self {
            data,
            hyperplanes,
            samples,
            heap,
            seq: 1,
            mode,
            roi_halfspaces,
        })
    }

    /// Detaches the enumeration state from the dataset borrow (see
    /// [`MdState`]).
    pub fn into_state(self) -> MdState {
        MdState {
            n_items: self.data.len(),
            hyperplanes: self.hyperplanes,
            samples: self.samples,
            heap: self.heap.into_vec(),
            seq: self.seq,
            mode: self.mode,
            roi_halfspaces: self.roi_halfspaces,
        }
    }

    /// Reattaches a detached state to its dataset.
    ///
    /// # Errors
    /// Fails when `data` disagrees with the dataset the state was built
    /// over on dimension or item count (the cheap shape checks available —
    /// equal-shape datasets with different contents cannot be told apart).
    pub fn from_state(data: &'a Dataset, state: MdState) -> Result<Self> {
        if state.samples.dim() != data.dim() {
            return Err(StableRankError::DimensionMismatch {
                expected: state.samples.dim(),
                got: data.dim(),
            });
        }
        if state.n_items != data.len() {
            return Err(StableRankError::DimensionMismatch {
                expected: state.n_items,
                got: data.len(),
            });
        }
        Ok(Self {
            data,
            hyperplanes: state.hyperplanes,
            samples: state.samples,
            heap: state.heap.into(),
            seq: state.seq,
            mode: state.mode,
            roi_halfspaces: state.roi_halfspaces,
        })
    }

    /// The region's cone joined with the `U*` constraints — the feasibility
    /// domain for LP tests.
    fn lp_cone(&self, cone: &ConeRegion) -> ConeRegion {
        let mut joined = cone.clone();
        for h in &self.roi_halfspaces {
            joined.push(h.clone());
        }
        joined
    }

    /// Number of ordering-exchange hyperplanes intersecting `U*`.
    pub fn num_hyperplanes(&self) -> usize {
        self.hyperplanes.len()
    }

    /// Algorithm 6: the next most stable ranking, or `None` when the
    /// arrangement is exhausted (at sampling resolution).
    pub fn get_next(&mut self) -> Option<StableRankingMd> {
        while let Some(HeapEntry { mut region, .. }) = self.heap.pop() {
            let mut crossing: Option<usize> = None;
            while region.pending < self.hyperplanes.len() {
                let hp = &self.hyperplanes[region.pending];
                // Partition regardless of mode: it keeps the ownership
                // ranges canonical and yields the split index when needed.
                let split = self.samples.partition(region.sb, region.se, hp).split;
                let crosses = match self.mode {
                    PassThroughMode::SamplePartition => split > region.sb && split < region.se,
                    PassThroughMode::ExactLp => {
                        // The sampled witness is sound (both sides occupied
                        // ⇒ crossing); the LP settles the undecided cases.
                        (split > region.sb && split < region.se)
                            || hyperplane_crosses_cone(&self.lp_cone(&region.cone), hp)
                    }
                };
                if crosses {
                    crossing = Some(split);
                    break;
                }
                region.pending += 1;
            }
            let Some(split) = crossing else {
                // Fully refined: emit.
                let stability = self.samples.stability_of_range(region.sb, region.se);
                let representative = match self.samples.representative(region.sb, region.se) {
                    Some(rep) => rep,
                    // Zero-sample region (ExactLp only): take the LP's
                    // interior point.
                    None => match cone_interior_point(&self.lp_cone(&region.cone)) {
                        Some(rep) => rep,
                        None => continue, // numerically vanished; drop it
                    },
                };
                let ranking = self
                    .data
                    .rank(&representative)
                    .expect("dimensions verified at construction");
                return Some(StableRankingMd {
                    ranking,
                    stability,
                    representative,
                    region: region.cone,
                });
            };
            // Split into h⁻ and h⁺ children. Under SamplePartition both
            // sides are non-empty; under ExactLp a side may own no samples.
            let hp = &self.hyperplanes[region.pending];
            let pending = region.pending + 1;
            let minus = PendingRegion {
                cone: region.cone.with(hp.half_space(Side::Negative)),
                pending,
                sb: region.sb,
                se: split,
            };
            let plus = PendingRegion {
                cone: region.cone.with(hp.half_space(Side::Positive)),
                pending,
                sb: split,
                se: region.se,
            };
            for child in [minus, plus] {
                if self.mode == PassThroughMode::ExactLp && child.count() == 0 {
                    // Verify the empty side is genuinely feasible before
                    // keeping it — the LP said the hyperplane crosses, so
                    // at least one of the two must be; re-checking both
                    // guards against tolerance asymmetries.
                    if cone_interior_point(&self.lp_cone(&child.cone)).is_none() {
                        continue;
                    }
                }
                let count = child.count();
                self.heap.push(HeapEntry {
                    count,
                    seq: self.seq,
                    region: child,
                });
                self.seq += 1;
            }
        }
        None
    }

    /// The top-`h` most stable rankings (Problem 2, count form).
    pub fn top_h(&mut self, h: usize) -> Vec<StableRankingMd> {
        (0..h).map_while(|_| self.get_next()).collect()
    }

    /// All rankings with stability at least `s` (Problem 2, threshold
    /// form). Correct because `get_next` yields non-increasing stability.
    pub fn with_stability_at_least(&mut self, s: f64) -> Vec<StableRankingMd> {
        let mut out = Vec::new();
        while let Some(r) = self.get_next() {
            if r.stability < s {
                break;
            }
            out.push(r);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sv2d::AngleInterval;
    use crate::sweep2d::Enumerator2D;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn lcg_rows(n: usize, d: usize, mut state: u64) -> Vec<Vec<f64>> {
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 11) as f64) / ((1u64 << 53) as f64)
        };
        (0..n).map(|_| (0..d).map(|_| next()).collect()).collect()
    }

    #[test]
    fn stabilities_are_non_increasing_and_sum_to_one() {
        let data = Dataset::from_rows(&lcg_rows(8, 3, 11)).unwrap();
        let roi = RegionOfInterest::full(3);
        let mut rng = StdRng::seed_from_u64(1);
        let mut e = MdEnumerator::new(&data, &roi, 20_000, &mut rng).unwrap();
        let mut prev = f64::INFINITY;
        let mut total = 0.0;
        let mut count = 0;
        while let Some(r) = e.get_next() {
            assert!(r.stability <= prev + 1e-12);
            prev = r.stability;
            total += r.stability;
            count += 1;
        }
        assert!(count > 1, "several regions expected");
        assert!(
            (total - 1.0).abs() < 1e-9,
            "sampled mass must be fully assigned"
        );
    }

    #[test]
    fn returned_rankings_are_distinct() {
        let data = Dataset::from_rows(&lcg_rows(7, 3, 23)).unwrap();
        let roi = RegionOfInterest::full(3);
        let mut rng = StdRng::seed_from_u64(2);
        let mut e = MdEnumerator::new(&data, &roi, 10_000, &mut rng).unwrap();
        let mut seen: Vec<Ranking> = Vec::new();
        while let Some(r) = e.get_next() {
            assert!(
                !seen.contains(&r.ranking),
                "Theorem 1: each ranking appears in exactly one region"
            );
            seen.push(r.ranking);
        }
    }

    #[test]
    fn representative_generates_the_returned_ranking() {
        let data = Dataset::from_rows(&lcg_rows(10, 4, 37)).unwrap();
        let roi = RegionOfInterest::full(4);
        let mut rng = StdRng::seed_from_u64(3);
        let mut e = MdEnumerator::new(&data, &roi, 5_000, &mut rng).unwrap();
        for _ in 0..5 {
            let Some(r) = e.get_next() else { break };
            assert_eq!(data.rank(&r.representative).unwrap(), r.ranking);
        }
    }

    #[test]
    fn agrees_with_exact_2d_sweep() {
        // The arrangement path and the exact sweep must find the same most
        // stable rankings with matching stabilities (up to MC error).
        let data = Dataset::figure1();
        let mut sweep = Enumerator2D::new(&data, AngleInterval::full()).unwrap();
        let exact: Vec<_> = sweep.top_h(3);

        let roi = RegionOfInterest::full(2);
        let mut rng = StdRng::seed_from_u64(4);
        let mut md = MdEnumerator::new(&data, &roi, 200_000, &mut rng).unwrap();
        let sampled: Vec<_> = md.top_h(3);

        for (e, s) in exact.iter().zip(&sampled) {
            assert_eq!(e.ranking, s.ranking, "most-stable order must match");
            assert!(
                (e.stability - s.stability).abs() < 0.01,
                "exact {} vs sampled {}",
                e.stability,
                s.stability
            );
        }
    }

    #[test]
    fn narrow_cone_roi_enumerates_local_rankings() {
        let data = Dataset::from_rows(&lcg_rows(12, 3, 53)).unwrap();
        let roi = RegionOfInterest::cone(&[1.0, 1.0, 1.0], std::f64::consts::PI / 50.0);
        let mut rng = StdRng::seed_from_u64(5);
        let mut e = MdEnumerator::new(&data, &roi, 10_000, &mut rng).unwrap();
        let mut rankings = Vec::new();
        while let Some(r) = e.get_next() {
            // Every representative stays inside the cone.
            assert!(roi.contains(&r.representative));
            rankings.push(r);
        }
        let total: f64 = rankings.iter().map(|r| r.stability).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn dominance_chain_yields_single_ranking() {
        let data = Dataset::from_rows(&[
            vec![0.9, 0.8, 0.9],
            vec![0.5, 0.5, 0.5],
            vec![0.2, 0.1, 0.3],
        ])
        .unwrap();
        let roi = RegionOfInterest::full(3);
        let mut rng = StdRng::seed_from_u64(6);
        let mut e = MdEnumerator::new(&data, &roi, 1000, &mut rng).unwrap();
        assert_eq!(e.num_hyperplanes(), 0);
        let only = e.get_next().unwrap();
        assert_eq!(only.stability, 1.0);
        assert_eq!(only.ranking.order(), &[0, 1, 2]);
        assert!(e.get_next().is_none());
    }

    #[test]
    fn top_h_and_threshold() {
        let data = Dataset::from_rows(&lcg_rows(9, 3, 71)).unwrap();
        let roi = RegionOfInterest::full(3);
        let mut rng = StdRng::seed_from_u64(7);
        let mut e = MdEnumerator::new(&data, &roi, 20_000, &mut rng).unwrap();
        let top = e.top_h(4);
        assert!(top.len() <= 4);

        let mut rng2 = StdRng::seed_from_u64(7);
        let mut e2 = MdEnumerator::new(&data, &roi, 20_000, &mut rng2).unwrap();
        let s = top.last().unwrap().stability;
        let batch = e2.with_stability_at_least(s);
        assert!(batch.len() >= top.len());
        assert!(batch.iter().all(|r| r.stability >= s));
    }

    #[test]
    fn detached_state_resumes_exactly_where_it_left_off() {
        let data = Dataset::from_rows(&lcg_rows(9, 3, 77)).unwrap();
        let roi = RegionOfInterest::full(3);
        let mut rng = StdRng::seed_from_u64(12);
        let buffer = roi.sampler().sample_buffer(&mut rng, 8_000);
        let mut reference = MdEnumerator::with_samples(&data, &roi, buffer.clone()).unwrap();
        let mut session = MdEnumerator::with_samples(&data, &roi, buffer).unwrap();
        loop {
            session = MdEnumerator::from_state(&data, session.into_state()).unwrap();
            match (reference.get_next(), session.get_next()) {
                (None, None) => break,
                (Some(a), Some(b)) => {
                    assert_eq!(a.ranking, b.ranking);
                    assert_eq!(a.stability, b.stability);
                }
                other => panic!("streams diverged: {other:?}"),
            }
        }
    }

    #[test]
    fn from_state_rejects_dimension_mismatch() {
        let data = Dataset::from_rows(&lcg_rows(6, 3, 79)).unwrap();
        let roi = RegionOfInterest::full(3);
        let mut rng = StdRng::seed_from_u64(13);
        let state = MdEnumerator::new(&data, &roi, 500, &mut rng)
            .unwrap()
            .into_state();
        assert!(state.pending_regions() > 0);
        let other = Dataset::figure1(); // d = 2
        assert!(MdEnumerator::from_state(&other, state).is_err());
    }

    #[test]
    fn zero_samples_is_an_error() {
        let data = Dataset::figure1();
        let roi = RegionOfInterest::full(2);
        let mut rng = StdRng::seed_from_u64(8);
        assert!(matches!(
            MdEnumerator::new(&data, &roi, 0, &mut rng),
            Err(StableRankError::EmptyRegionOfInterest)
        ));
    }

    #[test]
    fn roi_dimension_checked() {
        let data = Dataset::figure1();
        let roi = RegionOfInterest::full(3);
        let mut rng = StdRng::seed_from_u64(9);
        assert!(matches!(
            MdEnumerator::new(&data, &roi, 10, &mut rng),
            Err(StableRankError::DimensionMismatch {
                expected: 2,
                got: 3
            })
        ));
    }

    #[test]
    fn exact_lp_mode_finds_all_eleven_figure1_regions() {
        // With few samples, the sampled passThrough misses thin regions;
        // the LP mode must still enumerate all 11 rankings of Figure 1c.
        let data = Dataset::figure1();
        let roi = RegionOfInterest::full(2);
        let mut rng = StdRng::seed_from_u64(77);
        let buffer = roi.sampler().sample_buffer(&mut rng, 60);
        let mut lp = MdEnumerator::with_samples_and_mode(
            &data,
            &roi,
            buffer.clone(),
            PassThroughMode::ExactLp,
        )
        .unwrap();
        let mut lp_rankings = Vec::new();
        while let Some(r) = lp.get_next() {
            assert!(!lp_rankings.contains(&r.ranking));
            lp_rankings.push(r.ranking);
        }
        assert_eq!(lp_rankings.len(), 11, "ExactLp must find every region");

        // The sampled mode finds at most as many.
        let mut sampled = MdEnumerator::with_samples(&data, &roi, buffer).unwrap();
        let mut sampled_count = 0;
        while sampled.get_next().is_some() {
            sampled_count += 1;
        }
        assert!(sampled_count <= 11);
    }

    #[test]
    fn exact_lp_zero_sample_regions_have_valid_representatives() {
        let data = Dataset::from_rows(&lcg_rows(7, 3, 91)).unwrap();
        let roi = RegionOfInterest::full(3);
        let mut rng = StdRng::seed_from_u64(78);
        let buffer = roi.sampler().sample_buffer(&mut rng, 40);
        let mut lp =
            MdEnumerator::with_samples_and_mode(&data, &roi, buffer, PassThroughMode::ExactLp)
                .unwrap();
        let mut total = 0.0;
        let mut zero_regions = 0;
        let mut seen = Vec::new();
        while let Some(r) = lp.get_next() {
            total += r.stability;
            if r.stability == 0.0 {
                zero_regions += 1;
            }
            // The representative must generate the returned ranking and
            // lie inside the reported region.
            assert_eq!(data.rank(&r.representative).unwrap(), r.ranking);
            assert!(r.region.contains_with_tol(&r.representative, 1e-12));
            assert!(!seen.contains(&r.ranking), "duplicate ranking emitted");
            seen.push(r.ranking);
        }
        assert!((total - 1.0).abs() < 1e-9, "sampled mass still sums to one");
        assert!(
            zero_regions > 0,
            "40 samples cannot cover every region of 7 items in 3-D"
        );
    }

    #[test]
    fn exact_lp_agrees_with_exact_2d_region_count() {
        let data = Dataset::from_rows(&lcg_rows(8, 2, 13)).unwrap();
        let exact_2d = crate::sweep2d::Enumerator2D::new(&data, crate::sv2d::AngleInterval::full())
            .unwrap()
            .num_regions();
        let roi = RegionOfInterest::full(2);
        let mut rng = StdRng::seed_from_u64(79);
        let buffer = roi.sampler().sample_buffer(&mut rng, 100);
        let mut lp =
            MdEnumerator::with_samples_and_mode(&data, &roi, buffer, PassThroughMode::ExactLp)
                .unwrap();
        let mut count = 0;
        while lp.get_next().is_some() {
            count += 1;
        }
        assert_eq!(count, exact_2d, "LP arrangement vs exact sweep");
    }

    #[test]
    fn exact_lp_rejected_for_cone_roi() {
        let data = Dataset::figure1();
        let roi = RegionOfInterest::cone(&[1.0, 1.0], 0.1);
        let mut rng = StdRng::seed_from_u64(80);
        let buffer = roi.sampler().sample_buffer(&mut rng, 10);
        assert!(
            MdEnumerator::with_samples_and_mode(&data, &roi, buffer, PassThroughMode::ExactLp)
                .is_err()
        );
    }

    #[test]
    fn exact_lp_respects_constraint_roi() {
        use srank_geom::hyperplane::HalfSpace;
        // U* = {w1 ≥ w2 ≥ w3}: only rankings feasible there may appear.
        let data = Dataset::from_rows(&lcg_rows(6, 3, 41)).unwrap();
        let roi = RegionOfInterest::constraints(
            3,
            vec![
                HalfSpace::new(vec![1.0, -1.0, 0.0]),
                HalfSpace::new(vec![0.0, 1.0, -1.0]),
            ],
        );
        let mut rng = StdRng::seed_from_u64(81);
        let buffer = roi.sampler().sample_buffer(&mut rng, 200);
        let mut lp =
            MdEnumerator::with_samples_and_mode(&data, &roi, buffer, PassThroughMode::ExactLp)
                .unwrap();
        let mut total = 0.0;
        while let Some(r) = lp.get_next() {
            total += r.stability;
            assert!(roi.contains(&r.representative), "representative escaped U*");
        }
        assert!((total - 1.0).abs() < 1e-9);
    }
}
