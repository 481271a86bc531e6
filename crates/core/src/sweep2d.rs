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
//! `get_next` pops the next most stable ranking (Algorithm 3).
//!
//! Reading the exchanges off the two end rankings stays right when the
//! interval starts where items tie: at `θ = 0` items tied on the first
//! attribute rank by index, yet at every `θ > 0` their second attribute
//! orders them, and the end at `hi` ranks them that way.

use crate::dataset::Dataset;
use crate::error::{Result, StableRankError};
use crate::ranking::Ranking;
use crate::sv2d::AngleInterval;
use srank_geom::angle2d::{exchange_angle_2d, weight_from_angle_2d};
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
    /// Per-region ranking snapshots when constructed via
    /// [`new_storing_rankings`](Self::new_storing_rankings) — the paper's
    /// O(log n)-per-call, O(n·|R|)-memory variant.
    stored: Option<Vec<Ranking>>,
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
        Self::build(data, interval, false)
    }

    /// Like [`new`](Self::new), but ranks each region's midpoint up front,
    /// making every `get_next` call O(log n) at O(n·|R|) memory
    /// — the trade-off §3.2 describes ("subsequent GET-NEXT2D calls can be
    /// done in O(log n), with memory cost O(n³)").
    pub fn new_storing_rankings(data: &'a Dataset, interval: AngleInterval) -> Result<Self> {
        Self::build(data, interval, true)
    }

    fn build(data: &'a Dataset, interval: AngleInterval, store: bool) -> Result<Self> {
        if data.dim() != 2 {
            return Err(StableRankError::NeedTwoDimensions { got: data.dim() });
        }
        if data.is_empty() {
            return Err(StableRankError::EmptyDataset);
        }
        let (regions, stored) = sweep_regions(data, interval, store);
        let heap = regions
            .iter()
            .enumerate()
            .map(|(i, r)| (F64Key(r.stability), i))
            .collect();
        Ok(Self {
            data,
            regions,
            stored,
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

    /// Algorithm 3: the next most stable ranking, or `None` when all
    /// regions have been returned. With the default constructor the
    /// ranking is recomputed at the region's midpoint (O(n log n) per
    /// call, as in the paper); with stored rankings it is a clone.
    pub fn get_next(&mut self) -> Option<StableRanking2D> {
        let (_, idx) = self.heap.pop()?;
        let region = self.regions[idx];
        let ranking = match &self.stored {
            Some(snapshots) => snapshots[idx].clone(),
            None => {
                let w = weight_from_angle_2d(region.midpoint());
                self.data
                    .rank(&w)
                    .expect("dimension verified at construction")
            }
        };
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
    stored: Option<Vec<Ranking>>,
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
        use srank_sample::persist::{obj, u32_slice_value};
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
        let stored = match &self.stored {
            None => Value::Null,
            Some(snapshots) => Value::Array(
                snapshots
                    .iter()
                    .map(|r| u32_slice_value(r.order()))
                    .collect(),
            ),
        };
        obj([
            ("n_items", Value::Number(self.n_items as f64)),
            ("regions", Value::Array(regions)),
            ("stored", stored),
            ("heap", Value::Array(heap)),
        ])
    }

    /// Rebuilds a state serialized by [`to_value`](Self::to_value),
    /// re-validating every invariant a corrupted file could break.
    pub fn from_value(v: &serde_json::Value) -> srank_sample::persist::PersistResult<Self> {
        use srank_sample::persist::{array_field, field, usize_field, PersistError};
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
        let stored = match field(v, "stored")? {
            serde_json::Value::Null => None,
            stored => {
                let snapshots = stored
                    .as_array()
                    .ok_or_else(|| PersistError::new("'stored' must be null or an array"))?
                    .iter()
                    .map(|r| {
                        let order = srank_sample::persist::u32_vec_value(r, "stored ranking")?;
                        Ranking::new(order)
                            .map_err(|e| PersistError::new(format!("stored ranking: {e}")))
                    })
                    .collect::<srank_sample::persist::PersistResult<Vec<Ranking>>>()?;
                if snapshots.len() != regions.len() {
                    return Err(PersistError::new(format!(
                        "{} stored rankings for {} regions",
                        snapshots.len(),
                        regions.len()
                    )));
                }
                Some(snapshots)
            }
        };
        Ok(Self {
            n_items,
            regions,
            stored,
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
            stored: self.stored,
            heap: self.heap,
        }
    }

    /// Reattaches a detached state to its dataset.
    ///
    /// # Errors
    /// Fails when `data` is not the dataset the state was built over (only
    /// the cheap shape checks are possible: dimension and item count).
    pub fn from_state(data: &'a Dataset, state: Sweep2DState) -> Result<Self> {
        if data.dim() != 2 {
            return Err(StableRankError::NeedTwoDimensions { got: data.dim() });
        }
        if data.len() != state.n_items {
            return Err(StableRankError::DimensionMismatch {
                expected: state.n_items,
                got: data.len(),
            });
        }
        Ok(Self {
            data,
            regions: state.regions,
            stored: state.stored,
            heap: state.heap,
        })
    }
}

/// Algorithm 2: the ranking regions of `interval` in angle order, with
/// each region's ranking (its midpoint's, as `get_next` computes it)
/// when `store` is set.
///
/// A pair exchanges inside `(lo, hi)` exactly when the rankings at the
/// two ends order it differently, so the region boundaries are the
/// distinct exchange angles of those pairs that fall strictly inside
/// the interval — the exchanges the ray sweep performs, in the order it
/// meets them.
fn sweep_regions(
    data: &Dataset,
    interval: AngleInterval,
    store: bool,
) -> (Vec<Region2DInfo>, Option<Vec<Ranking>>) {
    let (lo, hi) = (interval.lo(), interval.hi());
    let rank_at = |theta: f64| {
        data.rank(&weight_from_angle_2d(theta))
            .expect("dimension checked by caller")
    };
    let (start, end) = (rank_at(lo), rank_at(hi));
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
    let stored = store.then(|| regions.iter().map(|r| rank_at(r.midpoint())).collect());
    (regions, stored)
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
    fn stored_rankings_match_recomputed_ones() {
        // The O(log n) stored variant must return exactly the same stream
        // as the recompute variant, region by region.
        let mut state = 0xCAFEu64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 11) as f64) / ((1u64 << 53) as f64)
        };
        let rows: Vec<Vec<f64>> = (0..25).map(|_| vec![next(), next()]).collect();
        let data = Dataset::from_rows(&rows).unwrap();
        let mut recompute = Enumerator2D::new(&data, AngleInterval::full()).unwrap();
        let mut stored = Enumerator2D::new_storing_rankings(&data, AngleInterval::full()).unwrap();
        loop {
            match (recompute.get_next(), stored.get_next()) {
                (None, None) => break,
                (Some(a), Some(b)) => {
                    assert_eq!(a.ranking, b.ranking);
                    assert_eq!(a.stability, b.stability);
                    assert_eq!(a.region, b.region);
                }
                other => panic!("streams diverged: {other:?}"),
            }
        }
    }

    #[test]
    fn stored_variant_works_on_narrow_intervals_and_singletons() {
        let data = Dataset::from_rows(&[vec![0.4, 0.6]]).unwrap();
        let mut e = Enumerator2D::new_storing_rankings(&data, AngleInterval::full()).unwrap();
        assert_eq!(e.get_next().unwrap().ranking.order(), &[0]);

        let data = Dataset::figure1();
        let narrow = AngleInterval::new(0.7, 0.9).unwrap();
        let mut stored = Enumerator2D::new_storing_rankings(&data, narrow).unwrap();
        let mut plain = Enumerator2D::new(&data, narrow).unwrap();
        while let (Some(a), Some(b)) = (stored.get_next(), plain.get_next()) {
            assert_eq!(a.ranking, b.ranking);
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
