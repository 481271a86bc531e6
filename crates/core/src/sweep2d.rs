//! Two-dimensional stable-region enumeration — `RAYSWEEPING` and
//! `GET-NEXT2D`, Algorithms 2 and 3 (§3.2).
//!
//! The regions are RAYSWEEPING's: a ray rotating from `U*`'s lower to
//! its upper angle closes one ranking region at every angle where some
//! pair of items exchanges order. A pair exchanges inside the interval
//! exactly when the rankings at its two ends order the pair differently,
//! so construction ranks both ends, lists the pairs the two orders
//! invert (a merge sort), keeps those whose exchange angle (Eq. 6) lies
//! strictly inside, and sorts the angles: each distinct angle closes a
//! region. The regions then feed a max-heap by stability from which
//! `next_region` pops the next most stable region (Algorithm 3); it ranks
//! nothing. `get_next` is that pop plus the full ranking at the region's
//! midpoint, the O(n log n) part of a call; a caller that reads only a
//! prefix of the ranking ranks that prefix at `midpoint_weights` with
//! `Dataset::top_k_fused_into`, whose order is the ranking's.
//!
//! Reading the exchanges off the two end rankings stays right when the
//! interval starts where items tie: at `θ = 0` items tied on the first
//! attribute rank by index, yet at every `θ > 0` their second attribute
//! orders them, and the end at `hi` ranks them that way.
//!
//! Nothing called §3.2's variant that stores every region's ranking, so
//! there is none. The same inversion listing gives §8's τ-tolerant
//! stability exactly: [`tau_stability_2d`].

use crate::dataset::Dataset;
use crate::error::{Result, StableRankError};
use crate::ranking::Ranking;
use crate::sv2d::AngleInterval;
use srank_geom::angle2d::{exchange_angle_2d, weight_from_angle_2d};
use srank_geom::EPS;
use std::collections::BinaryHeap;

/// A ranking region discovered by the sweep: an angle interval and its
/// stability within the swept region of interest.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Region2DInfo {
    pub lo: f64,
    pub hi: f64,
    pub stability: f64,
}

impl Region2DInfo {
    pub fn midpoint(&self) -> f64 {
        0.5 * (self.lo + self.hi)
    }

    /// The weights at the region's midpoint, where
    /// [`Enumerator2D::get_next`] ranks the region's items.
    pub fn midpoint_weights(&self) -> [f64; 2] {
        weight_from_angle_2d(self.midpoint())
    }
}

/// A ranking returned by `get_next`: the ranking, its stability, and its
/// region.
#[derive(Clone, Debug, PartialEq)]
pub struct StableRanking2D {
    pub ranking: Ranking,
    pub stability: f64,
    pub region: Region2DInfo,
}

/// Totally-ordered f64 key for the stability heap (all keys are
/// finite by construction).
#[derive(Clone, Copy, Debug, PartialEq)]
struct F64Key(f64);

impl Eq for F64Key {}

impl PartialOrd for F64Key {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for F64Key {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.partial_cmp(&other.0).expect("heap keys are finite")
    }
}

/// The 2-D stable-region enumerator: Algorithm 2 at construction,
/// Algorithm 3 per [`get_next`](Enumerator2D::get_next) call.
#[derive(Debug)]
pub struct Enumerator2D<'a> {
    data: &'a Dataset,
    regions: Vec<Region2DInfo>,
    /// Max-heap of `(stability, region index)`.
    heap: BinaryHeap<(F64Key, usize)>,
}

impl<'a> Enumerator2D<'a> {
    /// Finds the ranking regions of `interval` and prepares the stability
    /// heap.
    ///
    /// O(n log n + E log E) for the `E` pairs that exchange inside
    /// `interval`; the number of regions found is `|R*|`.
    pub fn new(data: &'a Dataset, interval: AngleInterval) -> Result<Self> {
        check_2d(data)?;
        let regions = sweep_regions(data, interval);
        let heap = regions
            .iter()
            .enumerate()
            .map(|(i, r)| (F64Key(r.stability), i))
            .collect();
        Ok(Self {
            data,
            regions,
            heap,
        })
    }

    /// All discovered regions in sweep (angle) order.
    pub fn regions(&self) -> &[Region2DInfo] {
        &self.regions
    }

    /// Number of feasible rankings in the region of interest.
    pub fn num_regions(&self) -> usize {
        self.regions.len()
    }

    /// Algorithm 3's pop: the next most stable region, or `None` when all
    /// regions have been returned. O(log |R*|); it ranks nothing, so a
    /// caller that reads only a prefix of the ranking can rank that
    /// prefix at [`Region2DInfo::midpoint_weights`] itself.
    pub fn next_region(&mut self) -> Option<Region2DInfo> {
        let (_, idx) = self.heap.pop()?;
        Some(self.regions[idx])
    }

    /// Algorithm 3: the next most stable ranking, or `None` when all
    /// regions have been returned. [`next_region`](Self::next_region)
    /// plus the full ranking at the region's midpoint, which is the
    /// O(n log n) part of the call, as in the paper.
    pub fn get_next(&mut self) -> Option<StableRanking2D> {
        let region = self.next_region()?;
        let ranking = self
            .data
            .rank(&region.midpoint_weights())
            .expect("a 2-D dataset ranks any angle");
        Some(StableRanking2D {
            ranking,
            stability: region.stability,
            region,
        })
    }

    /// Batch form of Problem 2: the top-`h` most stable rankings.
    pub fn top_h(&mut self, h: usize) -> Vec<StableRanking2D> {
        (0..h).map_while(|_| self.get_next()).collect()
    }

    /// Batch form of Problem 2: all rankings with stability at least `s`.
    pub fn with_stability_at_least(&mut self, s: f64) -> Vec<StableRanking2D> {
        let mut out = Vec::new();
        while let Some(top) = self.get_next() {
            if top.stability < s {
                break;
            }
            out.push(top);
        }
        out
    }
}

/// An owned, `Send + 'static` snapshot of an [`Enumerator2D`]'s progress,
/// detached from the dataset borrow.
///
/// Long-lived holders (e.g. `srank-service` sessions) keep the dataset in
/// an `Arc` and the enumerator as a `Sweep2DState`; each `get_next` call
/// reattaches with [`Enumerator2D::from_state`], pops, and detaches again
/// with [`Enumerator2D::into_state`]. Both conversions are O(1) moves.
#[derive(Clone, Debug)]
pub struct Sweep2DState {
    n_items: usize,
    regions: Vec<Region2DInfo>,
    /// The enumerator's stability heap itself, so detaching and
    /// reattaching move it instead of rebuilding it.
    heap: BinaryHeap<(F64Key, usize)>,
}

impl Sweep2DState {
    /// Number of regions not yet returned by `get_next`.
    pub fn remaining(&self) -> usize {
        self.heap.len()
    }

    /// Total number of regions discovered by the sweep.
    pub fn num_regions(&self) -> usize {
        self.regions.len()
    }

    /// Serializes the state for durable storage. The heap rides in its
    /// internal array order ([`BinaryHeap::as_slice`]): that array is a
    /// valid binary heap, and rebuilding a heap from an already-heapified
    /// array moves nothing — so a restored session pops regions in the
    /// identical order.
    pub fn to_value(&self) -> serde_json::Value {
        use serde_json::Value;
        use srank_sample::persist::obj;
        let regions: Vec<Value> = self
            .regions
            .iter()
            .map(|r| {
                Value::Array(vec![
                    Value::Number(r.lo),
                    Value::Number(r.hi),
                    Value::Number(r.stability),
                ])
            })
            .collect();
        let heap: Vec<Value> = self
            .heap
            .as_slice()
            .iter()
            .map(|&(F64Key(s), i)| Value::Array(vec![Value::Number(s), Value::Number(i as f64)]))
            .collect();
        obj([
            ("n_items", Value::Number(self.n_items as f64)),
            ("regions", Value::Array(regions)),
            ("heap", Value::Array(heap)),
        ])
    }

    /// Rebuilds a state serialized by [`to_value`](Self::to_value),
    /// re-validating every invariant a corrupted file could break. Older
    /// snapshots carry a `"stored": null` field; it is not read.
    pub fn from_value(v: &serde_json::Value) -> srank_sample::persist::PersistResult<Self> {
        use srank_sample::persist::{array_field, usize_field, PersistError};
        let n_items = usize_field(v, "n_items")?;
        let triple = |x: &serde_json::Value, want: usize, what: &str| {
            let items = x
                .as_array()
                .filter(|a| a.len() == want)
                .ok_or_else(|| PersistError::new(format!("{what} must be a {want}-array")))?;
            items
                .iter()
                .map(|n| {
                    n.as_f64()
                        .filter(|x| x.is_finite())
                        .ok_or_else(|| PersistError::new(format!("{what} must hold numbers")))
                })
                .collect::<srank_sample::persist::PersistResult<Vec<f64>>>()
        };
        let regions: Vec<Region2DInfo> = array_field(v, "regions")?
            .iter()
            .map(|r| {
                let t = triple(r, 3, "region")?;
                Ok(Region2DInfo {
                    lo: t[0],
                    hi: t[1],
                    stability: t[2],
                })
            })
            .collect::<srank_sample::persist::PersistResult<_>>()?;
        let heap: BinaryHeap<(F64Key, usize)> = array_field(v, "heap")?
            .iter()
            .map(|e| {
                let t = triple(e, 2, "heap entry")?;
                let idx = t[1] as usize;
                if idx >= regions.len() {
                    return Err(PersistError::new(format!(
                        "heap references region {idx} of {}",
                        regions.len()
                    )));
                }
                Ok((F64Key(t[0]), idx))
            })
            .collect::<srank_sample::persist::PersistResult<_>>()?;
        Ok(Self {
            n_items,
            regions,
            heap,
        })
    }
}

impl<'a> Enumerator2D<'a> {
    /// Detaches the enumeration state from the dataset borrow.
    pub fn into_state(self) -> Sweep2DState {
        Sweep2DState {
            n_items: self.data.len(),
            regions: self.regions,
            heap: self.heap,
        }
    }

    /// Reattaches a detached state to its dataset.
    ///
    /// # Errors
    /// Fails when `data` is not the dataset the state was built over (only
    /// the cheap shape checks are possible: dimension and item count).
    pub fn from_state(data: &'a Dataset, state: Sweep2DState) -> Result<Self> {
        check_2d(data)?;
        if data.len() != state.n_items {
            return Err(StableRankError::DimensionMismatch {
                expected: state.n_items,
                got: data.len(),
            });
        }
        Ok(Self {
            data,
            regions: state.regions,
            heap: state.heap,
        })
    }
}

/// Algorithm 2: the ranking regions of `interval` in angle order.
///
/// A pair exchanges inside `(lo, hi)` exactly when the rankings at the
/// two ends order it differently, so the region boundaries are the
/// distinct exchange angles of those pairs that fall strictly inside
/// the interval — the exchanges the ray sweep performs, in the order it
/// meets them.
fn sweep_regions(data: &Dataset, interval: AngleInterval) -> Vec<Region2DInfo> {
    let (lo, hi) = (interval.lo(), interval.hi());
    let (start, end) = (rank_at(data, lo), rank_at(data, hi));
    // Positive finite angles order as their bit patterns do.
    let mut angles: Vec<u64> = Vec::new();
    for_each_inversion(start.order(), end.order(), |a, b| {
        if let Some(theta) = exchange_angle_2d(data.item(a as usize), data.item(b as usize)) {
            if theta > lo && theta < hi {
                angles.push(theta.to_bits());
            }
        }
    });
    angles.sort_unstable();

    let span = interval.span();
    let mut regions = Vec::with_capacity(angles.len() + 1);
    let mut theta_prev = lo;
    for theta in angles.into_iter().map(f64::from_bits) {
        // Simultaneous exchanges close one region.
        if theta > theta_prev {
            regions.push(Region2DInfo {
                lo: theta_prev,
                hi: theta,
                stability: (theta - theta_prev) / span,
            });
            theta_prev = theta;
        }
    }
    regions.push(Region2DInfo {
        lo: theta_prev,
        hi,
        stability: (hi - theta_prev) / span,
    });
    regions
}

/// §8's τ-tolerant stability of the ranking `weights` induce: the share
/// of `interval` whose rankings lie within Kendall-tau distance `tau` of
/// it.
///
/// A pair exchanges at most once in the quadrant, so walking away from
/// `θ0`, the angle of `weights`, the distance never falls: the τ-ball is
/// one interval. Each side ends at the (τ+1)-th exchange, with
/// multiplicity, among the pairs the center and the ranking at that
/// interval end invert (at the end when fewer); a pair tied on an
/// attribute exchanges at 0 when tied on the first, else at π/2. When
/// `θ0` lies beyond an end, so does every exchange listed for it, and
/// the clip to the interval returns that end. Selected on tangents, one
/// `atan` per bound: O(n log n + E) for `E` such pairs.
///
/// # Errors
/// Fails unless the data is 2-D and `weights` lie in the closed first
/// quadrant, not all zero: only there is the ball one interval.
pub fn tau_stability_2d(
    data: &Dataset,
    weights: &[f64],
    interval: AngleInterval,
    tau: usize,
) -> Result<f64> {
    check_2d(data)?;
    let center = data.rank(weights)?;
    if weights.iter().any(|&x| x < 0.0) || weights.iter().all(|&x| x == 0.0) {
        return Err(StableRankError::InvalidWeights(
            "tau-tolerant stability needs non-negative weights, not all zero".into(),
        ));
    }
    let (lo, hi) = (interval.lo(), interval.hi());
    let bound = |end: f64, nearer: fn(&f64, &f64) -> std::cmp::Ordering| {
        let mut tangents = Vec::new();
        for_each_inversion(center.order(), rank_at(data, end).order(), |a, b| {
            let (t, u) = (data.item(a as usize), data.item(b as usize));
            // The terms of Eq. 6, as `exchange_angle_2d` reads them.
            let (num, den) = (u[0] - t[0], t[1] - u[1]);
            tangents.push(match (num.abs() <= EPS, den.abs() <= EPS) {
                (true, _) => 0.0,
                (false, true) => f64::INFINITY,
                _ => (num / den).abs(),
            });
        });
        if tau < tangents.len() {
            tangents.select_nth_unstable_by(tau, nearer).1.atan()
        } else {
            end
        }
    };
    let upper = bound(hi, f64::total_cmp).min(hi);
    let lower = bound(lo, |a, b| b.total_cmp(a)).max(lo);
    Ok((upper - lower).max(0.0) / interval.span())
}

/// Rejects data no 2-D sweep can run on (a `Dataset` is never empty).
fn check_2d(data: &Dataset) -> Result<()> {
    match data.dim() {
        2 => Ok(()),
        got => Err(StableRankError::NeedTwoDimensions { got }),
    }
}

/// The ranking at angle `theta` of a dataset [`check_2d`] accepts.
fn rank_at(data: &Dataset, theta: f64) -> Ranking {
    data.rank(&weight_from_angle_2d(theta))
        .expect("a 2-D dataset ranks any angle")
}

/// Calls `f` once for every pair of items that the orders `from` and
/// `to` (permutations of one item set) rank differently: a bottom-up
/// merge sort of `from` by position in `to`, `O(n log n + E)` for `E`
/// such pairs.
fn for_each_inversion(from: &[u32], to: &[u32], mut f: impl FnMut(u32, u32)) {
    let n = to.len();
    let mut pos = vec![0u32; n];
    for (p, &item) in to.iter().enumerate() {
        pos[item as usize] = p as u32;
    }
    let mut src: Vec<u32> = from.iter().map(|&item| pos[item as usize]).collect();
    let mut dst = vec![0u32; n];
    let mut width = 1;
    while width < n {
        for lo in (0..n).step_by(2 * width) {
            let (mid, hi) = ((lo + width).min(n), (lo + 2 * width).min(n));
            let (mut i, mut j) = (lo, mid);
            for slot in &mut dst[lo..hi] {
                if j == hi || (i < mid && src[i] < src[j]) {
                    *slot = src[i];
                    i += 1;
                } else {
                    // `src[j]` follows the unmerged left run in `from`
                    // and precedes all of it in `to`.
                    for &left in &src[i..mid] {
                        f(to[left as usize], to[src[j] as usize]);
                    }
                    *slot = src[j];
                    j += 1;
                }
            }
        }
        std::mem::swap(&mut src, &mut dst);
        width *= 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sv2d::stability_verify_2d;

    #[test]
    fn figure1_has_eleven_regions() {
        let data = Dataset::figure1();
        let e = Enumerator2D::new(&data, AngleInterval::full()).unwrap();
        assert_eq!(e.num_regions(), 11, "Figure 1c shows 11 regions");
    }

    #[test]
    fn regions_partition_the_interval() {
        let data = Dataset::figure1();
        let e = Enumerator2D::new(&data, AngleInterval::full()).unwrap();
        let regions = e.regions();
        assert_eq!(regions[0].lo, 0.0);
        assert!((regions.last().unwrap().hi - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
        for w in regions.windows(2) {
            assert!((w[0].hi - w[1].lo).abs() < 1e-12, "gap between regions");
        }
        let total: f64 = regions.iter().map(|r| r.stability).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn each_region_has_a_constant_ranking() {
        let data = Dataset::figure1();
        let e = Enumerator2D::new(&data, AngleInterval::full()).unwrap();
        for r in e.regions() {
            let probes = [
                r.lo + r.hi * 1e-6 + 1e-9,
                r.midpoint(),
                r.hi - (r.hi - r.lo) * 1e-6,
            ];
            let rankings: Vec<Ranking> = probes
                .iter()
                .map(|&t| data.rank(&weight_from_angle_2d(t)).unwrap())
                .collect();
            assert_eq!(rankings[0], rankings[1]);
            assert_eq!(rankings[1], rankings[2]);
        }
    }

    #[test]
    fn adjacent_regions_have_distinct_rankings() {
        let data = Dataset::figure1();
        let e = Enumerator2D::new(&data, AngleInterval::full()).unwrap();
        let rankings: Vec<Ranking> = e
            .regions()
            .iter()
            .map(|r| data.rank(&weight_from_angle_2d(r.midpoint())).unwrap())
            .collect();
        for w in rankings.windows(2) {
            assert_ne!(w[0], w[1], "adjacent regions must differ");
        }
        // And globally: Theorem 1's one-to-one mapping.
        for i in 0..rankings.len() {
            for j in (i + 1)..rankings.len() {
                assert_ne!(rankings[i], rankings[j], "regions {i} and {j} coincide");
            }
        }
    }

    #[test]
    fn get_next_is_ordered_by_stability() {
        let data = Dataset::figure1();
        let mut e = Enumerator2D::new(&data, AngleInterval::full()).unwrap();
        let mut prev = f64::INFINITY;
        let mut count = 0;
        while let Some(s) = e.get_next() {
            assert!(
                s.stability <= prev + 1e-12,
                "stability must be non-increasing"
            );
            prev = s.stability;
            count += 1;
        }
        assert_eq!(count, 11);
    }

    #[test]
    fn get_next_is_next_region_plus_the_midpoint_ranking() {
        let rows: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![((i * 7) % 13) as f64 / 12.0, ((i * 5) % 11) as f64 / 10.0])
            .collect();
        for data in [Dataset::figure1(), Dataset::from_rows(&rows).unwrap()] {
            let mut full = Enumerator2D::new(&data, AngleInterval::full()).unwrap();
            let mut step = Enumerator2D::new(&data, AngleInterval::full()).unwrap();
            loop {
                match (full.get_next(), step.next_region()) {
                    (None, None) => break,
                    (Some(a), Some(r)) => {
                        assert_eq!(a.region, r);
                        assert_eq!(a.stability.to_bits(), r.stability.to_bits());
                        assert_eq!(a.ranking, data.rank(&r.midpoint_weights()).unwrap());
                    }
                    other => panic!("walks diverged: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn get_next_agrees_with_sv2d() {
        let data = Dataset::figure1();
        let mut e = Enumerator2D::new(&data, AngleInterval::full()).unwrap();
        while let Some(s) = e.get_next() {
            let v = stability_verify_2d(&data, &s.ranking, AngleInterval::full())
                .unwrap()
                .expect("enumerated rankings are feasible");
            assert!(
                (v.stability - s.stability).abs() < 1e-9,
                "sweep {} vs SV2D {}",
                s.stability,
                v.stability
            );
            assert!((v.region.lo() - s.region.lo).abs() < 1e-9);
            assert!((v.region.hi() - s.region.hi).abs() < 1e-9);
        }
    }

    #[test]
    fn narrow_interval_enumerates_a_subset() {
        let data = Dataset::figure1();
        let full_count = Enumerator2D::new(&data, AngleInterval::full())
            .unwrap()
            .num_regions();
        let narrow = AngleInterval::new(0.6, 0.9).unwrap();
        let e = Enumerator2D::new(&data, narrow).unwrap();
        assert!(e.num_regions() < full_count);
        assert!(e.num_regions() >= 1);
        let total: f64 = e.regions().iter().map(|r| r.stability).sum();
        assert!((total - 1.0).abs() < 1e-9, "stability renormalizes to U*");
    }

    #[test]
    fn top_h_and_threshold_batches() {
        let data = Dataset::figure1();
        let mut e = Enumerator2D::new(&data, AngleInterval::full()).unwrap();
        let top3 = e.top_h(3);
        assert_eq!(top3.len(), 3);
        assert!(top3[0].stability >= top3[1].stability);
        assert!(top3[1].stability >= top3[2].stability);

        let mut e2 = Enumerator2D::new(&data, AngleInterval::full()).unwrap();
        let thresh = top3[1].stability;
        let batch = e2.with_stability_at_least(thresh);
        assert!(batch.len() >= 2);
        assert!(batch.iter().all(|s| s.stability >= thresh));
    }

    #[test]
    fn single_item_dataset_has_one_region() {
        let data = Dataset::from_rows(&[vec![0.4, 0.6]]).unwrap();
        let mut e = Enumerator2D::new(&data, AngleInterval::full()).unwrap();
        let only = e.get_next().unwrap();
        assert_eq!(only.stability, 1.0);
        assert!(e.get_next().is_none());
    }

    #[test]
    fn dominance_chain_has_single_region() {
        // Total dominance order ⇒ one ranking everywhere.
        let data = Dataset::from_rows(&[vec![0.9, 0.9], vec![0.5, 0.5], vec![0.1, 0.1]]).unwrap();
        let e = Enumerator2D::new(&data, AngleInterval::full()).unwrap();
        assert_eq!(e.num_regions(), 1);
    }

    #[test]
    fn duplicate_items_do_not_break_the_sweep() {
        let data = Dataset::from_rows(&[
            vec![0.63, 0.71],
            vec![0.63, 0.71], // exact duplicate of item 0
            vec![0.83, 0.65],
            vec![0.53, 0.82],
        ])
        .unwrap();
        let e = Enumerator2D::new(&data, AngleInterval::full()).unwrap();
        let total: f64 = e.regions().iter().map(|r| r.stability).sum();
        assert!((total - 1.0).abs() < 1e-9);
        // Duplicates stay in index order in every region's ranking.
        for r in e.regions() {
            let rk = data.rank(&weight_from_angle_2d(r.midpoint())).unwrap();
            assert!(rk.rank_of(0).unwrap() < rk.rank_of(1).unwrap());
        }
    }

    #[test]
    fn detached_state_resumes_exactly_where_it_left_off() {
        let data = Dataset::figure1();
        let mut reference = Enumerator2D::new(&data, AngleInterval::full()).unwrap();
        let mut session = Enumerator2D::new(&data, AngleInterval::full()).unwrap();
        // Interleave detach/reattach between every call: the streams must
        // be identical and validation must hold, and the detached state
        // must serialize exactly as a state detached once, after the same
        // pops without reattaching in between.
        for popped in 0.. {
            let state = session.into_state();
            assert_eq!(state.num_regions(), 11);
            let mut once = Enumerator2D::new(&data, AngleInterval::full()).unwrap();
            for _ in 0..popped {
                once.get_next();
            }
            assert_eq!(state.to_value(), once.into_state().to_value());
            session = Enumerator2D::from_state(&data, state).unwrap();
            match (reference.get_next(), session.get_next()) {
                (None, None) => break,
                (Some(a), Some(b)) => {
                    assert_eq!(a.ranking, b.ranking);
                    assert_eq!(a.stability, b.stability);
                }
                other => panic!("streams diverged: {other:?}"),
            }
        }
        assert_eq!(session.into_state().remaining(), 0);
    }

    #[test]
    fn from_state_rejects_mismatched_datasets() {
        let data = Dataset::figure1();
        let state = Enumerator2D::new(&data, AngleInterval::full())
            .unwrap()
            .into_state();
        let other = Dataset::from_rows(&[vec![0.1, 0.2], vec![0.3, 0.4]]).unwrap();
        assert!(Enumerator2D::from_state(&other, state.clone()).is_err());
        let three_d = Dataset::from_rows(&vec![vec![0.1, 0.2, 0.3]; 5]).unwrap();
        assert!(Enumerator2D::from_state(&three_d, state).is_err());
    }

    #[test]
    fn region_count_matches_brute_force_on_random_data() {
        // Deterministic LCG data, cross-checked against a dense angle scan.
        let mut state = 0xDEADBEEFu64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 11) as f64) / ((1u64 << 53) as f64)
        };
        let rows: Vec<Vec<f64>> = (0..30).map(|_| vec![next(), next()]).collect();
        let data = Dataset::from_rows(&rows).unwrap();
        let e = Enumerator2D::new(&data, AngleInterval::full()).unwrap();
        // Dense scan: count ranking changes across 200k probes.
        let probes = 200_000;
        let mut distinct = 1usize;
        let mut prev = data.rank(&weight_from_angle_2d(1e-9)).unwrap();
        for i in 1..probes {
            let t = std::f64::consts::FRAC_PI_2 * (i as f64 + 0.5) / probes as f64;
            let r = data.rank(&weight_from_angle_2d(t)).unwrap();
            if r != prev {
                distinct += 1;
                prev = r;
            }
        }
        assert_eq!(e.num_regions(), distinct, "sweep vs dense scan");
    }
}
