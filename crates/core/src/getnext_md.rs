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
//! **One-sample leaves.** Under [`PassThroughMode::SamplePartition`] a
//! region owning one sample is fully refined as soon as it is popped: one
//! sample can never lie on both sides of a hyperplane, and partitioning a
//! one-row range moves nothing, so scanning its pending hyperplanes could
//! change neither its range, its ranking, its representative nor its
//! cone. Skipping the scan turns the emission of such a leaf from
//! O(#hyperplanes) into O(depth). [`PassThroughMode::ExactLp`] keeps the
//! scan: its LP can split a region no sample witnesses.
//!
//! **Sign scan.** Most pending hyperplanes do not cross the popped
//! region: on fifa (n = 1000, d = 4, 2000 samples) the first `get_next`
//! tests about 90,000 of them, over about 3.7 rows each, and 1,999 split.
//! So the scan asks [`PartitionedSamples::sides`] which sides the
//! region's rows lie on, moving none, and stops at the first hyperplane
//! with rows on both sides; only that one is partitioned. A partition
//! that finds every row positive rotates the range left by one row, and
//! one that finds every row non-positive leaves it alone, so the scan
//! counts the all-positive hyperplanes it passed and rotates the range by
//! that count (modulo its length) before the real partition and before an
//! emit. The buffer order — and with it every representative and every
//! snapshot — is the one a partition per scanned hyperplane would leave.
//! [`PassThroughMode::ExactLp`] runs the same scan and asks its LP only
//! about hyperplanes with every row on one side.
//!
//! **Split arena.** Hyperplanes are stored as item pairs (see
//! [`crate::xhps`]) and formed as `x_i − x_j` into one reused scratch when
//! scanned. A split pushes one `(parent, hyperplane, side)` node per kept
//! child into an append-only arena, and a pending region holds only its
//! node id. A region's [`ConeRegion`] is built root-first from its
//! ancestry when it is emitted (and, under `ExactLp`, once per popped
//! region for the LP tests), so a split copies no half-spaces.
//!
//! **Pairs per dataset.** The full-orthant pair list depends only on the
//! rows, so the dataset harvests it once
//! (`Dataset::orthant_exchange_pairs`) and every enumerator over the
//! full orthant holds the same `Arc`: opening a session there pays the
//! sample copy, not the O(n²) harvest. Cone and constraint regions of
//! interest harvest their own list per enumerator. A snapshot writes the
//! region of interest, not the list, and a restore harvests it again
//! with the same call, so a restored full-orthant state shares the
//! dataset's list too.
//!
//! **Per-session memory.** 12 bytes per arena node (at most two per
//! split, so at most `2·|S|` nodes under `SamplePartition`), one heap
//! entry per pending region, and the `d·|S|` sample buffer. A cone or
//! constraint session adds 8 bytes per hyperplane for its own list; on
//! fifa (n = 1000, d = 4) the full-orthant list is ~1.4 MB, held once
//! per dataset.
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
use crate::xhps::{exchange_coeffs_into, ordering_exchange_pairs};
use rand::Rng;
use srank_geom::hyperplane::OrderingExchange;
use srank_geom::lp::{cone_interior_point, hyperplane_crosses_cone};
use srank_geom::region::ConeRegion;
use srank_sample::partition::{PartitionedSamples, Sides};
use srank_sample::roi::RegionOfInterest;
use srank_sample::store::SampleBuffer;
use std::collections::BinaryHeap;
use std::sync::Arc;

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
    /// hyperplanes that actually separated it from its siblings), root
    /// split first.
    pub region: ConeRegion,
}

/// One arena node: the child region on one side of a split.
#[derive(Clone, Copy, Debug)]
struct SplitNode {
    /// Node id of the region that was split: 0 is the root region, id
    /// `k ≥ 1` is arena slot `k − 1`.
    parent: u32,
    /// Index of the splitting hyperplane in the pair list.
    hyperplane: u32,
    /// Whether this child lies on the hyperplane's positive side.
    positive: bool,
}

/// The Figure-2 `Region` record: split-arena node id (standing for the
/// region's half-spaces), pending-hyperplane cursor, and the owned sample
/// range `[sb, se)`.
#[derive(Clone, Copy, Debug)]
struct PendingRegion {
    node: u32,
    pending: usize,
    sb: usize,
    se: usize,
}

/// Max-heap entry ordered by sample count (∝ stability), ties broken by
/// `seq` (the earlier-pushed region pops first) for determinism.
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

/// The largest item count whose `C(n, 2)` pairs fit the `u32` hyperplane
/// index.
const MAX_ITEMS: usize = 92_682;

/// Tag of the snapshot layout [`MdState::to_value`] writes: the region of
/// interest instead of its pair list, regions as split-arena node ids.
const STATE_FORMAT: &str = "md-pairs-v2";

/// An owned, `Send + 'static` snapshot of an [`MdEnumerator`]'s progress,
/// detached from the dataset borrow — the arrangement refinement so far
/// (hyperplane pairs, split arena, partitioned samples, pending-region
/// heap) and the region of interest it refines.
///
/// Detach with [`MdEnumerator::into_state`], reattach with
/// [`MdEnumerator::from_state`]; both are O(1) moves, so a long-lived
/// session (e.g. in `srank-service`) pays nothing to persist between
/// `get_next` calls.
#[derive(Clone)]
pub struct MdState {
    n_items: usize,
    /// The ordering-exchange hyperplanes intersecting `U*`, as item pairs
    /// (over the full orthant, the dataset's shared list).
    pairs: Arc<[(u32, u32)]>,
    /// The split arena (see the module docs).
    splits: Vec<SplitNode>,
    samples: PartitionedSamples,
    heap: BinaryHeap<HeapEntry>,
    seq: usize,
    mode: PassThroughMode,
    /// The region of interest `U*`; a constraint set's rows are joined to
    /// every region's cone in LP feasibility tests.
    roi: RegionOfInterest,
}

impl MdState {
    /// Number of partially-refined regions still pending.
    pub fn pending_regions(&self) -> usize {
        self.heap.len()
    }

    /// The partitioned sample buffer: every region owns a contiguous
    /// range of its rows.
    pub fn samples(&self) -> &PartitionedSamples {
        &self.samples
    }

    /// Appends to `table` the half-space on one side of hyperplane
    /// `hyperplane`: `x_i − x_j` on the positive side, its negation on the
    /// negative side — the coefficients [`OrderingExchange::half_space`]
    /// produces.
    fn half_space_into(
        &self,
        data: &Dataset,
        hyperplane: u32,
        positive: bool,
        table: &mut Vec<f64>,
    ) {
        let (i, j) = self.pairs[hyperplane as usize];
        let (a, b) = (data.item(i as usize), data.item(j as usize));
        table.extend(
            a.iter()
                .zip(b)
                .map(|(x, y)| if positive { x - y } else { -(x - y) }),
        );
    }

    /// The cone of arena node `node`: its ancestors' half-spaces, root
    /// split first, written into one table.
    fn cone_of(&self, data: &Dataset, mut node: u32) -> ConeRegion {
        let mut path = Vec::new();
        while node != 0 {
            let split = self.splits[node as usize - 1];
            path.push(split);
            node = split.parent;
        }
        let mut table = Vec::with_capacity(path.len() * data.dim());
        for s in path.iter().rev() {
            self.half_space_into(data, s.hyperplane, s.positive, &mut table);
        }
        ConeRegion::from_table(data.dim(), table)
    }

    /// The region's cone joined with the `U*` constraints — the feasibility
    /// domain for LP tests.
    fn lp_cone(&self, cone: &ConeRegion) -> ConeRegion {
        let mut joined = cone.clone();
        if let RegionOfInterest::Constraints { halfspaces, .. } = &self.roi {
            for h in halfspaces {
                joined.push(h.coeffs());
            }
        }
        joined
    }

    /// Serializes the refinement state for durable storage, tagged with
    /// its format: the region of interest (exact floats), split nodes as
    /// a flat `u32` array, the partitioned sample buffer (its row order
    /// *is* the partition structure), and the pending-region heap in its
    /// internal array order — that array is already a valid heap, so
    /// rebuilding it on load moves nothing and a restored session splits
    /// regions in the identical order. The pair list is not written: it
    /// is a function of the dataset, the region and the samples, and
    /// [`from_value`](Self::from_value) harvests it again.
    pub fn to_value(&self) -> serde_json::Value {
        use serde_json::Value;
        use srank_sample::persist::{obj, u32_slice_value};
        let number = |x: usize| Value::Number(x as f64);
        let heap: Vec<Value> = self
            .heap
            .iter()
            .map(|e| {
                obj([
                    ("count", number(e.count)),
                    ("seq", number(e.seq)),
                    ("node", number(e.region.node as usize)),
                    ("pending", number(e.region.pending)),
                    ("sb", number(e.region.sb)),
                    ("se", number(e.region.se)),
                ])
            })
            .collect();
        let splits: Vec<u32> = self
            .splits
            .iter()
            .flat_map(|s| [s.parent, s.hyperplane, u32::from(s.positive)])
            .collect();
        let mode = match self.mode {
            PassThroughMode::SamplePartition => "sample-partition",
            PassThroughMode::ExactLp => "exact-lp",
        };
        obj([
            ("format", Value::String(STATE_FORMAT.into())),
            ("n_items", number(self.n_items)),
            ("roi", self.roi.to_value()),
            ("splits", u32_slice_value(&splits)),
            ("samples", self.samples.to_value()),
            ("heap", Value::Array(heap)),
            ("seq", number(self.seq)),
            ("mode", Value::String(mode.into())),
        ])
    }

    /// Rebuilds a state serialized by [`to_value`](Self::to_value) over
    /// `data`, the dataset it was built over: harvests the pair list with
    /// the [`ordering_exchange_pairs`] call [`MdEnumerator::with_samples`]
    /// makes (a constraint set's witnesses are the snapshot's samples, in
    /// any row order), then checks every split against that list and the
    /// nodes before it, and every heap entry against the list, the arena
    /// and the sample buffer.
    ///
    /// # Errors
    /// A snapshot in another format — the `md-pairs-v1` layout that
    /// stored the pair list, or the untagged coefficient-row layout of
    /// earlier releases — is refused with an error naming that format.
    pub fn from_value(
        v: &serde_json::Value,
        data: &Dataset,
    ) -> srank_sample::persist::PersistResult<Self> {
        use srank_sample::persist::{
            array_field, field, str_field, u32_vec_field, usize_field, PersistError,
        };
        match v.get("format").and_then(serde_json::Value::as_str) {
            Some(STATE_FORMAT) => {}
            Some(other) => {
                return Err(PersistError::new(format!(
                    "md state format '{other}' is not readable (expected '{STATE_FORMAT}')"
                )))
            }
            None => {
                return Err(PersistError::new(format!(
                    "md state has no 'format' tag: it is the untagged coefficient-row \
                     format of earlier releases, which is not readable (expected \
                     '{STATE_FORMAT}')"
                )))
            }
        }
        let n_items = usize_field(v, "n_items")?;
        let samples = PartitionedSamples::from_value(field(v, "samples")?)?;
        let roi = RegionOfInterest::from_value(field(v, "roi")?)?;
        let mode = match str_field(v, "mode")? {
            "sample-partition" => PassThroughMode::SamplePartition,
            "exact-lp" => PassThroughMode::ExactLp,
            other => return Err(PersistError::new(format!("unknown mode '{other}'"))),
        };
        let (n, d) = (data.len(), data.dim());
        if (n_items, samples.dim(), roi.dim()) != (n, d, d) {
            return Err(PersistError::new(format!(
                "a state over {n_items} items in d = {} (d = {} for its region) does not \
                 reattach to {n} items in d = {d}",
                samples.dim(),
                roi.dim()
            )));
        }
        let pairs = ordering_exchange_pairs(data, &roi, samples.buffer());

        let flat = u32_vec_field(v, "splits")?;
        if flat.len() % 3 != 0 {
            return Err(PersistError::new(
                "'splits' must hold (parent, hyperplane, side) triples",
            ));
        }
        let splits = flat
            .chunks_exact(3)
            .enumerate()
            .map(|(slot, s)| {
                let (parent, hyperplane, side) = (s[0], s[1], s[2]);
                // Slot k is node id k + 1; its parent must come earlier.
                if parent as usize > slot || hyperplane as usize >= pairs.len() || side > 1 {
                    return Err(PersistError::new(format!(
                        "split node {} ({parent}, {hyperplane}, {side}) is inconsistent with \
                         {slot} earlier nodes and {} hyperplanes",
                        slot + 1,
                        pairs.len()
                    )));
                }
                Ok(SplitNode {
                    parent,
                    hyperplane,
                    positive: side == 1,
                })
            })
            .collect::<srank_sample::persist::PersistResult<Vec<_>>>()?;

        let heap: Vec<HeapEntry> = array_field(v, "heap")?
            .iter()
            .map(|e| {
                let sb = usize_field(e, "sb")?;
                let se = usize_field(e, "se")?;
                let pending = usize_field(e, "pending")?;
                let count = usize_field(e, "count")?;
                let node = usize_field(e, "node")?;
                if sb > se || se > samples.len() || count != se - sb {
                    return Err(PersistError::new(format!(
                        "heap entry range [{sb}, {se}) (count {count}) is inconsistent \
                         with {} samples",
                        samples.len()
                    )));
                }
                if pending > pairs.len() {
                    return Err(PersistError::new(format!(
                        "heap entry pending cursor {pending} beyond {} hyperplanes",
                        pairs.len()
                    )));
                }
                if node > splits.len() {
                    return Err(PersistError::new(format!(
                        "heap entry node {node} beyond {} split nodes",
                        splits.len()
                    )));
                }
                Ok(HeapEntry {
                    count,
                    seq: usize_field(e, "seq")?,
                    region: PendingRegion {
                        node: node as u32,
                        pending,
                        sb,
                        se,
                    },
                })
            })
            .collect::<srank_sample::persist::PersistResult<_>>()?;
        Ok(Self {
            n_items,
            pairs,
            splits,
            samples,
            heap: heap.into(),
            seq: usize_field(v, "seq")?,
            mode,
            roi,
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
    state: MdState,
    /// `d`-length scratch the scanned hyperplane's coefficients are
    /// formed in.
    coeffs: Vec<f64>,
}

impl<'a> MdEnumerator<'a> {
    /// Draws `n_samples` uniform functions from `roi` and prepares the
    /// enumerator (including the `×hps` hyperplane harvest, the O(n²) part,
    /// which the full orthant pays once per dataset).
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
    /// interest (their boundary is not linear), and a dataset with more
    /// than `u32::MAX` item pairs is rejected before the harvest (pair
    /// indices are `u32`).
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
        if mode == PassThroughMode::ExactLp && matches!(roi, RegionOfInterest::Cone { .. }) {
            return Err(StableRankError::InvalidWeights(
                "ExactLp passThrough requires a linearly-constrained region of \
                 interest (full orthant or constraint set), not a cone"
                    .into(),
            ));
        }
        if data.len() > MAX_ITEMS {
            return Err(StableRankError::TooManyItems {
                n: data.len(),
                max: MAX_ITEMS,
            });
        }
        let pairs = ordering_exchange_pairs(data, roi, &buffer);
        let total = buffer.len();
        let samples = PartitionedSamples::new(buffer);
        let root = PendingRegion {
            node: 0,
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
            state: MdState {
                n_items: data.len(),
                pairs,
                splits: Vec::new(),
                samples,
                heap,
                seq: 1,
                mode,
                roi: roi.clone(),
            },
            coeffs: vec![0.0; data.dim()],
        })
    }

    /// Detaches the enumeration state from the dataset borrow (see
    /// [`MdState`]).
    pub fn into_state(self) -> MdState {
        self.state
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
            state,
            coeffs: vec![0.0; data.dim()],
        })
    }

    /// Number of ordering-exchange hyperplanes intersecting `U*`.
    pub fn num_hyperplanes(&self) -> usize {
        self.state.pairs.len()
    }

    /// Algorithm 6: the next most stable ranking, or `None` when the
    /// arrangement is exhausted (at sampling resolution).
    pub fn get_next(&mut self) -> Option<StableRankingMd> {
        let (data, state, coeffs) = (self.data, &mut self.state, &mut self.coeffs);
        let exact = state.mode == PassThroughMode::ExactLp;
        while let Some(HeapEntry { mut region, .. }) = state.heap.pop() {
            // Under ExactLp the region's cone feeds every LP test, so it
            // is built once here rather than once per candidate.
            let cone = exact.then(|| state.cone_of(data, region.node));
            let lp_cone = cone.as_ref().map(|c| state.lp_cone(c));
            let mut crossing: Option<usize> = None;
            // All-positive hyperplanes passed so far: a partition by each
            // would have rotated the range left by one row.
            let mut rotations = 0;
            // A one-sample region is a leaf under SamplePartition (see
            // the module docs).
            let scan = exact || region.se - region.sb > 1;
            while scan && region.pending < state.pairs.len() {
                exchange_coeffs_into(data, state.pairs[region.pending], coeffs);
                let sides = state.samples.sides(region.sb, region.se, coeffs);
                // The sampled witness is sound (both sides occupied ⇒
                // crossing); under ExactLp the LP settles the one-sided
                // cases.
                let crosses = sides == Sides::Both
                    || lp_cone.as_ref().is_some_and(|lp| {
                        hyperplane_crosses_cone(lp, &OrderingExchange::from_coeffs(coeffs.clone()))
                    });
                if crosses {
                    state.samples.rotate_left(region.sb, region.se, rotations);
                    let split = state.samples.partition(region.sb, region.se, coeffs).split;
                    crossing = Some(split);
                    break;
                }
                rotations += usize::from(sides == Sides::Positive);
                region.pending += 1;
            }
            let Some(split) = crossing else {
                // Fully refined: emit, in the row order the skipped
                // partitions would have left.
                state.samples.rotate_left(region.sb, region.se, rotations);
                let stability = state.samples.stability_of_range(region.sb, region.se);
                let representative = match state.samples.representative(region.sb, region.se) {
                    Some(rep) => rep,
                    // Zero-sample region (ExactLp only): take the LP's
                    // interior point.
                    None => match lp_cone.as_ref().and_then(cone_interior_point) {
                        Some(rep) => rep,
                        None => continue, // numerically vanished; drop it
                    },
                };
                let ranking = data
                    .rank(&representative)
                    .expect("dimensions verified at construction");
                return Some(StableRankingMd {
                    ranking,
                    stability,
                    representative,
                    region: cone.unwrap_or_else(|| state.cone_of(data, region.node)),
                });
            };
            // Split into h⁻ and h⁺ children. Under SamplePartition both
            // sides are non-empty; under ExactLp a side may own no samples.
            let hyperplane = region.pending as u32;
            let pending = region.pending + 1;
            for (positive, sb, se) in [(false, region.sb, split), (true, split, region.se)] {
                if let (Some(cone), true) = (&cone, sb == se) {
                    // Verify the empty side is genuinely feasible before
                    // keeping it — the LP said the hyperplane crosses, so
                    // at least one of the two must be; re-checking both
                    // guards against tolerance asymmetries.
                    let mut row = Vec::with_capacity(data.dim());
                    state.half_space_into(data, hyperplane, positive, &mut row);
                    let child = cone.with(&row);
                    if cone_interior_point(&state.lp_cone(&child)).is_none() {
                        continue;
                    }
                }
                state.splits.push(SplitNode {
                    parent: region.node,
                    hyperplane,
                    positive,
                });
                let node =
                    u32::try_from(state.splits.len()).expect("split arena fits u32 node ids");
                state.heap.push(HeapEntry {
                    count: se - sb,
                    seq: state.seq,
                    region: PendingRegion {
                        node,
                        pending,
                        sb,
                        se,
                    },
                });
                state.seq += 1;
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
    fn full_orthant_enumerators_share_the_datasets_pair_list() {
        use crate::xhps::hyperplane_intersects_roi;
        let data = Dataset::from_rows(&lcg_rows(14, 3, 61)).unwrap();
        let roi = RegionOfInterest::full(3);
        let buffer = |seed| {
            roi.sampler()
                .sample_buffer(&mut StdRng::seed_from_u64(seed), 300)
        };
        let mut a = MdEnumerator::with_samples(&data, &roi, buffer(1)).unwrap();
        let b = MdEnumerator::with_samples(&data, &roi, buffer(2)).unwrap();
        assert!(
            Arc::ptr_eq(&a.state.pairs, &b.state.pairs),
            "one harvest per dataset"
        );
        a.get_next().unwrap();
        let a = MdEnumerator::from_state(&data, a.into_state()).unwrap();
        assert!(Arc::ptr_eq(&a.state.pairs, &data.orthant_exchange_pairs()));
        // A snapshot holds no pairs; its restore shares the list too.
        let text = serde_json::to_string(&a.clone().into_state().to_value()).unwrap();
        assert!(!text.contains("\"pairs\""));
        let restored = MdState::from_value(&serde_json::from_str(&text).unwrap(), &data).unwrap();
        assert!(Arc::ptr_eq(&restored.pairs, &data.orthant_exchange_pairs()));

        // The shared list is the pair-by-pair mixed-sign harvest.
        let samples = buffer(1);
        let mut reference = Vec::new();
        for i in 0..data.len() {
            for j in i + 1..data.len() {
                let c = OrderingExchange::from_pair(data.item(i), data.item(j));
                if hyperplane_intersects_roi(c.coeffs(), &roi, &samples) {
                    reference.push((i as u32, j as u32));
                }
            }
        }
        assert!(!reference.is_empty());
        assert_eq!(&a.state.pairs[..], &reference[..]);

        // Each walk equals the walk over an equal dataset that harvested
        // for itself.
        let fresh = data.clone();
        let own = Dataset::from_rows(&lcg_rows(14, 3, 61)).unwrap();
        assert!(Arc::ptr_eq(
            &fresh.orthant_exchange_pairs(),
            &data.orthant_exchange_pairs()
        ));
        for seed in [1, 2] {
            let mut shared = MdEnumerator::with_samples(&data, &roi, buffer(seed)).unwrap();
            let mut alone = MdEnumerator::with_samples(&own, &roi, buffer(seed)).unwrap();
            assert!(!Arc::ptr_eq(&shared.state.pairs, &alone.state.pairs));
            loop {
                match (shared.get_next(), alone.get_next()) {
                    (None, None) => break,
                    (Some(x), Some(y)) => {
                        assert_eq!(x.ranking, y.ranking);
                        assert_eq!(x.stability.to_bits(), y.stability.to_bits());
                        assert_eq!(x.representative, y.representative);
                    }
                    other => panic!("walks diverged: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn snapshot_codec_rejects_indices_out_of_range() {
        use serde_json::Value;
        use srank_sample::persist::{f64_slice_value, obj, u32_slice_value};
        let data = Dataset::from_rows(&lcg_rows(6, 3, 83)).unwrap();
        let roi = RegionOfInterest::full(3);
        let mut rng = StdRng::seed_from_u64(14);
        let mut e = MdEnumerator::new(&data, &roi, 400, &mut rng).unwrap();
        e.get_next().unwrap();
        let v = e.into_state().to_value();
        assert!(MdState::from_value(&v, &data).is_ok());
        let with = |key: &str, value: Value| {
            let Value::Object(mut fields) = v.clone() else {
                panic!("a state is an object")
            };
            for (k, x) in &mut fields {
                if k == key {
                    *x = value.clone();
                }
            }
            Value::Object(fields)
        };
        // A one-entry heap whose region is arena node `node`.
        let node = |node: usize| {
            let n = |x: usize| Value::Number(x as f64);
            Value::Array(vec![obj([
                ("count", n(1)),
                ("seq", n(9)),
                ("node", n(node)),
                ("pending", n(0)),
                ("sb", n(0)),
                ("se", n(1)),
            ])])
        };
        let splits = match v.get("splits").and_then(Value::as_array) {
            Some(flat) => flat.len() / 3,
            None => panic!("splits are written"),
        };
        assert!(MdState::from_value(&with("heap", node(splits)), &data).is_ok());
        let kind = |kind: &str| ("kind", Value::String(kind.into()));
        let cone = |ray: &[f64]| {
            obj([
                kind("cone"),
                ("ray", f64_slice_value(ray)),
                ("theta", Value::Number(std::f64::consts::FRAC_PI_2)),
                ("clip_to_orthant", Value::Bool(false)),
            ])
        };
        let rows = |row: &[f64]| {
            obj([
                kind("constraints"),
                ("dim", Value::Number(3.0)),
                ("halfspaces", Value::Array(vec![f64_slice_value(row)])),
            ])
        };
        let unit = 1.0 / 3f64.sqrt();
        for good in [cone(&[unit; 3]), rows(&[1.0, -1.0, 0.0])] {
            assert!(MdState::from_value(&with("roi", good), &data).is_ok());
        }
        for (what, key, bad) in [
            ("unknown roi kind", "roi", obj([kind("ball")])),
            ("cone ray of the wrong length", "roi", cone(&[1.0, 0.0])),
            ("constraint row of the wrong d", "roi", rows(&[1.0, -1.0])),
            ("parent not earlier", "splits", u32_slice_value(&[1, 0, 1])),
            (
                "hyperplane beyond pairs",
                "splits",
                u32_slice_value(&[0, 1 << 30, 0]),
            ),
            ("side not 0 or 1", "splits", u32_slice_value(&[0, 0, 2])),
            ("node beyond the arena", "heap", node(splits + 1)),
            ("unknown format", "format", Value::String("md-v0".into())),
            (
                "stored-pairs format",
                "format",
                Value::String("md-pairs-v1".into()),
            ),
        ] {
            assert!(
                MdState::from_value(&with(key, bad), &data).is_err(),
                "{what}"
            );
        }
        let v1 = with("format", Value::String("md-pairs-v1".into()));
        let err = MdState::from_value(&v1, &data).err().unwrap().to_string();
        assert!(
            err.contains("md-pairs-v1") && err.contains("md-pairs-v2"),
            "{err}"
        );
        // A state does not restore over another dataset.
        let other = Dataset::from_rows(&lcg_rows(7, 3, 83)).unwrap();
        assert!(MdState::from_value(&v, &other).is_err());
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
    fn more_items_than_u32_pair_indices_is_an_error() {
        let pairs = |n: u64| n * (n - 1) / 2;
        assert!(pairs(MAX_ITEMS as u64) <= u64::from(u32::MAX));
        assert!(pairs(MAX_ITEMS as u64 + 1) > u64::from(u32::MAX));
        let rows: Vec<Vec<f64>> = (0..=MAX_ITEMS)
            .map(|i| vec![i as f64, (MAX_ITEMS - i) as f64])
            .collect();
        let data = Dataset::from_rows(&rows).unwrap();
        let roi = RegionOfInterest::full(2);
        let mut rng = StdRng::seed_from_u64(10);
        let buffer = roi.sampler().sample_buffer(&mut rng, 1);
        assert!(matches!(
            MdEnumerator::with_samples(&data, &roi, buffer),
            Err(StableRankError::TooManyItems { n, max: MAX_ITEMS }) if n == MAX_ITEMS + 1
        ));
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
