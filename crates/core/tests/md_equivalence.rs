//! `MdEnumerator` (item-pair hyperplanes, one-sample leaves, split arena,
//! cones rebuilt at emit time, sign scan) must be *indistinguishable* from
//! the walk it replaced: a full pending-hyperplane scan over boxed
//! `OrderingExchange` rows with a cloned `ConeRegion` per region. The
//! reference below is a compact copy of that walk and of its `×hps`
//! harvest. Every emitted ranking, stability, representative and region
//! half-space is compared bit for bit, across full, constraint, clipped-
//! and unclipped-cone regions of interest, both `passThrough` modes,
//! duplicated and quarter-grid rows (with quarter-grid weights, so exact
//! `eval == 0` ties occur), and sample counts where leaves hold one
//! sample as well as many — with snapshot detach/reattach and a JSON
//! round trip interleaved mid-walk. After every step the snapshot's sample
//! buffer must hold the reference's rows in the reference's order, bit for
//! bit: the reference partitions once per scanned hyperplane, the
//! enumerator scans signs and replays the one-sided partitions as one
//! rotation.

use proptest::prelude::*;
use proptest::TestCaseError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use srank_core::xhps::ordering_exchange_pairs;
use srank_core::{Dataset, MdEnumerator, MdState, PassThroughMode, Ranking};
use srank_geom::hyperplane::{HalfSpace, OrderingExchange, Side};
use srank_geom::lp::{cone_interior_point, hyperplane_crosses_cone};
use srank_geom::region::ConeRegion;
use srank_geom::vector::{dot, norm};
use srank_geom::EPS;
use srank_sample::partition::PartitionedSamples;
use srank_sample::roi::RegionOfInterest;
use srank_sample::store::SampleBuffer;
use std::collections::BinaryHeap;

// ---------------------------------------------------------------------------
// The reference: the harvest and walk as they were before item pairs.

fn reference_harvest(
    data: &Dataset,
    roi: &RegionOfInterest,
    samples: &SampleBuffer,
) -> Vec<OrderingExchange> {
    let skip_dominated = match roi {
        RegionOfInterest::Cone {
            clip_to_orthant, ..
        } => *clip_to_orthant,
        _ => true,
    };
    let mut out = Vec::new();
    for i in 0..data.len() {
        for j in (i + 1)..data.len() {
            if skip_dominated && (data.dominates(i, j) || data.dominates(j, i)) {
                continue;
            }
            let hp = OrderingExchange::from_pair(data.item(i), data.item(j));
            if hp.is_degenerate() {
                continue;
            }
            let c = hp.coeffs();
            let keep = match roi {
                RegionOfInterest::FullOrthant { .. } => {
                    c.iter().any(|&x| x > EPS) && c.iter().any(|&x| x < -EPS)
                }
                RegionOfInterest::Cone { ray, theta, .. } => {
                    let nn = norm(c);
                    nn > EPS && (dot(c, ray).abs() / nn) < theta.sin()
                }
                RegionOfInterest::Constraints { .. } => {
                    let pos = samples.iter_rows().any(|w| hp.eval(w) > 0.0);
                    let neg = samples.iter_rows().any(|w| hp.eval(w) < 0.0);
                    pos && neg
                }
            };
            if keep {
                out.push(hp);
            }
        }
    }
    out
}

struct Entry {
    count: usize,
    seq: usize,
    cone: ConeRegion,
    pending: usize,
    sb: usize,
    se: usize,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.count == other.count && self.seq == other.seq
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.count.cmp(&other.count).then(other.seq.cmp(&self.seq))
    }
}

struct Reference<'a> {
    data: &'a Dataset,
    hyperplanes: Vec<OrderingExchange>,
    samples: PartitionedSamples,
    heap: BinaryHeap<Entry>,
    seq: usize,
    exact: bool,
    roi_halfspaces: Vec<HalfSpace>,
}

impl<'a> Reference<'a> {
    fn new(data: &'a Dataset, roi: &RegionOfInterest, buffer: SampleBuffer, exact: bool) -> Self {
        let roi_halfspaces = match roi {
            RegionOfInterest::Constraints { halfspaces, .. } => halfspaces.clone(),
            _ => Vec::new(),
        };
        let hyperplanes = reference_harvest(data, roi, &buffer);
        let mut heap = BinaryHeap::new();
        heap.push(Entry {
            count: buffer.len(),
            seq: 0,
            cone: ConeRegion::full(data.dim()),
            pending: 0,
            sb: 0,
            se: buffer.len(),
        });
        Self {
            data,
            hyperplanes,
            samples: PartitionedSamples::new(buffer),
            heap,
            seq: 1,
            exact,
            roi_halfspaces,
        }
    }

    fn lp_cone(&self, cone: &ConeRegion) -> ConeRegion {
        let mut joined = cone.clone();
        for h in &self.roi_halfspaces {
            joined.push(h.coeffs());
        }
        joined
    }

    fn get_next(&mut self) -> Option<Emitted> {
        while let Some(mut region) = self.heap.pop() {
            let mut crossing = None;
            while region.pending < self.hyperplanes.len() {
                let hp = &self.hyperplanes[region.pending];
                let split = self
                    .samples
                    .partition(region.sb, region.se, hp.coeffs())
                    .split;
                let crosses = (split > region.sb && split < region.se)
                    || (self.exact && hyperplane_crosses_cone(&self.lp_cone(&region.cone), hp));
                if crosses {
                    crossing = Some(split);
                    break;
                }
                region.pending += 1;
            }
            let Some(split) = crossing else {
                let stability = self.samples.stability_of_range(region.sb, region.se);
                let representative = match self.samples.representative(region.sb, region.se) {
                    Some(rep) => rep,
                    None => match cone_interior_point(&self.lp_cone(&region.cone)) {
                        Some(rep) => rep,
                        None => continue,
                    },
                };
                let ranking = self.data.rank(&representative).unwrap();
                return Some(Emitted::of(
                    ranking,
                    stability,
                    &representative,
                    &region.cone,
                ));
            };
            let hp = &self.hyperplanes[region.pending];
            let pending = region.pending + 1;
            let children = [
                (hp.half_space(Side::Negative), region.sb, split),
                (hp.half_space(Side::Positive), split, region.se),
            ];
            for (h, sb, se) in children {
                let cone = region.cone.with(h.coeffs());
                if self.exact && sb == se && cone_interior_point(&self.lp_cone(&cone)).is_none() {
                    continue;
                }
                self.heap.push(Entry {
                    count: se - sb,
                    seq: self.seq,
                    cone,
                    pending,
                    sb,
                    se,
                });
                self.seq += 1;
            }
        }
        None
    }
}

// ---------------------------------------------------------------------------
// Comparison.

/// One emitted ranking, reduced to exact bits.
#[derive(Debug, PartialEq, Eq)]
struct Emitted {
    ranking: Vec<u32>,
    stability: u64,
    representative: Vec<u64>,
    region: Vec<Vec<u64>>,
}

impl Emitted {
    fn of(ranking: Ranking, stability: f64, representative: &[f64], region: &ConeRegion) -> Self {
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        Self {
            ranking: ranking.order().to_vec(),
            stability: stability.to_bits(),
            representative: bits(representative),
            region: region.rows().map(bits).collect(),
        }
    }
}

/// `n` rows of `d` attributes from an LCG, in one of three shapes:
/// 0 = uniform in [0, 1), 1 = copies of four base rows, 2 = the quarter
/// grid {0, .25, .5, .75, 1}.
fn rows(shape: usize, n: usize, d: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let base: Vec<Vec<f64>> = (0..4)
        .map(|_| (0..d).map(|_| rng.random::<f64>()).collect())
        .collect();
    (0..n)
        .map(|_| match shape {
            0 => (0..d).map(|_| rng.random::<f64>()).collect(),
            1 => base[rng.random::<usize>() % 4].clone(),
            _ => (0..d).map(|_| quarter(&mut rng)).collect(),
        })
        .collect()
}

/// A uniform draw from the quarter grid {0, .25, .5, .75, 1}.
fn quarter<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    (rng.random::<u64>() % 5) as f64 / 4.0
}

/// The region of interest for `kind`: 0 = full orthant, 1 = constraint
/// set `w_0 ≥ w_1`, 2 = clipped cone, 3 = unclipped cone leaning out of
/// the orthant.
fn roi(kind: usize, d: usize) -> RegionOfInterest {
    let mut around = vec![1.0; d];
    match kind {
        0 => RegionOfInterest::full(d),
        1 => {
            let mut c = vec![0.0; d];
            c[0] = 1.0;
            c[1] = -1.0;
            RegionOfInterest::constraints(d, vec![HalfSpace::new(c)])
        }
        2 => RegionOfInterest::cone(&around, 0.5).clipped_to_orthant(),
        _ => {
            around[0] = 0.1;
            RegionOfInterest::cone(&around, 0.4)
        }
    }
}

/// Samples from the ROI's own sampler, or (`grid`) weights on the
/// quarter grid, which put samples exactly on quarter-grid hyperplanes.
fn samples(roi: &RegionOfInterest, d: usize, n: usize, grid: bool, seed: u64) -> SampleBuffer {
    let mut rng = StdRng::seed_from_u64(seed);
    if !grid {
        return roi.sampler().sample_buffer(&mut rng, n);
    }
    SampleBuffer::generate(&mut rng, n, |r| {
        let mut w: Vec<f64> = (0..d).map(|_| quarter(r)).collect();
        w[0] += 0.25; // never the zero vector
        w
    })
}

/// The buffer's row order as the bits of every value.
fn bits(samples: &PartitionedSamples) -> Vec<u64> {
    samples
        .buffer()
        .as_slice()
        .iter()
        .map(|x| x.to_bits())
        .collect()
}

/// Detaches and reattaches the session; every other time through the
/// JSON snapshot codec as text.
fn reattach<'a>(data: &'a Dataset, e: MdEnumerator<'a>, through_json: bool) -> MdEnumerator<'a> {
    let mut state = e.into_state();
    if through_json {
        let text = serde_json::to_string(&state.to_value()).unwrap();
        assert!(!text.contains("\"pairs\""), "a snapshot holds no pair list");
        state = MdState::from_value(&serde_json::from_str(&text).unwrap(), data).unwrap();
    }
    MdEnumerator::from_state(data, state).unwrap()
}

/// Walks both enumerators `steps` times (or to exhaustion) and fails on
/// the first difference.
fn check(
    data: &Dataset,
    roi: &RegionOfInterest,
    buffer: SampleBuffer,
    mode: PassThroughMode,
    steps: usize,
    reattach_every: usize,
) -> Result<usize, TestCaseError> {
    let exact = mode == PassThroughMode::ExactLp;
    let mut reference = Reference::new(data, roi, buffer.clone(), exact);
    let mut e = MdEnumerator::with_samples_and_mode(data, roi, buffer.clone(), mode).unwrap();

    // The pair harvest lists exactly the reference's hyperplanes.
    let pairs = ordering_exchange_pairs(data, roi, &buffer);
    prop_assert_eq!(pairs.len(), reference.hyperplanes.len());
    prop_assert_eq!(e.num_hyperplanes(), reference.hyperplanes.len());
    for (&(i, j), hp) in pairs.iter().zip(&reference.hyperplanes) {
        prop_assert!(i < j);
        let formed = OrderingExchange::from_pair(data.item(i as usize), data.item(j as usize));
        let bits =
            |h: &OrderingExchange| h.coeffs().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&formed), bits(hp), "pair ({}, {})", i, j);
    }

    for step in 0..steps {
        if reattach_every > 0 && step % reattach_every == reattach_every - 1 {
            e = reattach(data, e, (step / reattach_every) % 2 == 1);
        }
        let want = reference.get_next();
        let got = e
            .get_next()
            .map(|r| Emitted::of(r.ranking, r.stability, &r.representative, &r.region));
        prop_assert_eq!(&got, &want, "step {}", step);
        // The row order is part of the state: a later split, centroid or
        // snapshot reads it even where every emitted leaf held one sample.
        let state = e.into_state();
        prop_assert_eq!(
            bits(state.samples()),
            bits(&reference.samples),
            "sample order after step {}",
            step
        );
        e = MdEnumerator::from_state(data, state).unwrap();
        if want.is_none() {
            return Ok(step);
        }
    }
    Ok(steps)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sample_partition_walk_equals_the_reference(
        shape in 0usize..3,
        roi_kind in 0usize..4,
        d in 2usize..5,
        n in 2usize..14,
        n_samples in 0usize..6,
        grid in 0usize..2,
        reattach_every in 0usize..4,
        seed in 0u64..1_000_000,
    ) {
        let data = Dataset::from_rows(&rows(shape, n, d, seed)).unwrap();
        let roi = roi(roi_kind, d);
        let n_samples = [1, 3, 12, 60, 400, 2000][n_samples];
        let buffer = samples(&roi, d, n_samples, grid == 1, seed ^ 0x5eed);
        check(&data, &roi, buffer, PassThroughMode::SamplePartition, 80, reattach_every)?;
    }

    #[test]
    fn exact_lp_walk_equals_the_reference(
        shape in 0usize..3,
        roi_kind in 0usize..2,
        d in 2usize..4,
        n in 2usize..7,
        n_samples in 0usize..4,
        grid in 0usize..2,
        reattach_every in 0usize..4,
        seed in 0u64..1_000_000,
    ) {
        let data = Dataset::from_rows(&rows(shape, n, d, seed)).unwrap();
        let roi = roi(roi_kind, d);
        let n_samples = [1, 4, 20, 200][n_samples];
        let buffer = samples(&roi, d, n_samples, grid == 1, seed ^ 0x1b);
        check(&data, &roi, buffer, PassThroughMode::ExactLp, 30, reattach_every)?;
    }
}

/// Pinned cases the proptest draws only by chance: a full walk to
/// exhaustion on the issue's shape (every leaf one sample), and an
/// `ExactLp` walk that must split one-sample regions by LP alone.
#[test]
fn pinned_walks_equal_the_reference() {
    let data = Dataset::from_rows(&rows(0, 30, 4, 16)).unwrap();
    let roi = RegionOfInterest::full(4);
    let buffer = samples(&roi, 4, 300, false, 17);
    let emitted = check(
        &data,
        &roi,
        buffer,
        PassThroughMode::SamplePartition,
        400,
        7,
    )
    .unwrap();
    assert!(emitted > 100, "the walk ran to exhaustion after {emitted}");

    let data = Dataset::from_rows(&rows(0, 6, 3, 18)).unwrap();
    let roi = RegionOfInterest::full(3);
    let buffer = samples(&roi, 3, 5, false, 19);
    let emitted = check(&data, &roi, buffer, PassThroughMode::ExactLp, 200, 3).unwrap();
    assert!(emitted > 5, "LP splits beyond the 5 samples: {emitted}");
}
