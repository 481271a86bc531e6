//! # srank-core — On Obtaining Stable Rankings
//!
//! A faithful implementation of the algorithms of *On Obtaining Stable
//! Rankings* (Asudeh, Jagadish, Miklau, Stoyanovich — PVLDB 12(3), 2018).
//!
//! Items are scored by a non-negative linear combination of their
//! attributes and ranked by score. The **stability** of a ranking is the
//! fraction of the space of scoring functions (optionally restricted to a
//! *region of interest* `U*`) that generates it — rankings with large
//! regions are robust to weight perturbations, rankings with thin regions
//! may be cherry-picked.
//!
//! ## The three problems, and where they live
//!
//! | Problem | 2-D (exact) | d ≥ 3 |
//! |---|---|---|
//! | Stability verification (Problem 1) | [`sv2d::stability_verify_2d`] — Algorithm 1, O(n) | [`svmd::stability_verify_md`] — Algorithm 4 + Monte-Carlo oracle |
//! | Batch enumeration (Problem 2) | [`sweep2d::Enumerator2D`] (`top_h`, `with_stability_at_least`) | [`getnext_md::MdEnumerator`] / [`randomized::RandomizedEnumerator`] |
//! | Iterative `GET-NEXT` (Problem 3) | [`sweep2d::Enumerator2D::get_next`] — Algorithms 2–3 | [`getnext_md::MdEnumerator::get_next`] — Algorithm 6; [`randomized::RandomizedEnumerator`] — Algorithms 7–8 |
//!
//! The randomized operator additionally supports the §2.2.5 top-k models
//! ([`randomized::RankingScope::TopKRanked`] and
//! [`randomized::RankingScope::TopKSet`]), which the arrangement-based
//! operator cannot (different regions share top-k items).
//!
//! ## Quick start
//!
//! ```
//! use srank_core::prelude::*;
//!
//! // The paper's Figure 1 database of five candidates.
//! let data = Dataset::figure1();
//!
//! // Consumer: how stable is the ranking published under f = x1 + x2?
//! let published = data.rank(&[1.0, 1.0]).unwrap();
//! let verified = stability_verify_2d(&data, &published, AngleInterval::full())
//!     .unwrap()
//!     .expect("the published ranking is feasible");
//! assert!(verified.stability > 0.0);
//!
//! // Producer: what is the most stable ranking overall?
//! let mut producer = Enumerator2D::new(&data, AngleInterval::full()).unwrap();
//! let most_stable = producer.get_next().unwrap();
//! assert!(most_stable.stability >= verified.stability);
//! ```
//!
//! ## Long-lived sessions: detachable enumerator state
//!
//! The enumerators borrow their dataset (`&'a Dataset`), which suits
//! one-shot calls but not a server holding thousands of concurrent
//! producer sessions over `Arc`-shared datasets. Each enumerator
//! therefore exposes an owned, `Send + 'static` snapshot of its progress
//! — [`sweep2d::Sweep2DState`], [`getnext_md::MdState`],
//! [`randomized::RandomizedState`] — via O(1) `into_state` /
//! `from_state` conversions:
//!
//! ```
//! use srank_core::prelude::*;
//!
//! let data = std::sync::Arc::new(Dataset::figure1());
//! // Construction (the ray sweep) happens once…
//! let session = Enumerator2D::new(&data, AngleInterval::full())
//!     .unwrap()
//!     .into_state(); // …then the state outlives any borrow.
//!
//! // Later (another request, possibly another thread): reattach,
//! // advance, detach.
//! let mut e = Enumerator2D::from_state(&data, session).unwrap();
//! let best = e.get_next().unwrap();
//! let session = e.into_state();
//! assert!(best.stability > 0.0);
//! assert_eq!(session.remaining(), 10, "one of 11 regions consumed");
//! ```
//!
//! `srank-service` builds its session manager on exactly this: the
//! expensive construction (ray sweep, `×hps` harvest, sample partition)
//! runs at `session.open`, and every `session.get_next` reattaches,
//! pops, and detaches. `from_state` re-validates the dataset's *shape*
//! (dimension and item count) — equal-shape datasets with different
//! contents cannot be told apart, so callers that swap datasets must
//! track identity themselves, as `srank-service` does with registry
//! generation stamps.

pub mod baseline2d;
pub mod dataset;
pub mod error;
pub mod getnext_md;
pub mod intern;
pub mod justify;
pub mod overview;
pub mod randomized;
pub mod ranking;
pub mod scoring;
pub mod sv2d;
pub mod svmd;
pub mod sweep2d;
pub mod topk2d;
pub mod xhps;

pub use baseline2d::regions_via_sorted_exchanges;
pub use dataset::Dataset;
pub use error::{Result, StableRankError};
pub use getnext_md::{MdEnumerator, MdLeaf, MdState, PassThroughMode, StableRankingMd};
pub use intern::KeyInterner;
pub use justify::{max_margin_weights, MaxMarginWeights};
pub use overview::{most_tau_stable, tau_tolerant_stability, StabilityOverview};
pub use randomized::{DiscoveredRanking, RandomizedEnumerator, RandomizedState, RankingScope};
pub use ranking::{ItemMove, Ranking, TopKRanked, TopKSet};
pub use scoring::ScoringFunction;
pub use sv2d::{stability_verify_2d, AngleInterval, Verified2D};
pub use svmd::{
    ranking_region_in, ranking_region_md, stability_verify_3d_exact, stability_verify_md,
    VerifiedMd,
};
pub use sweep2d::{tau_stability_2d, Enumerator2D, Region2DInfo, StableRanking2D, Sweep2DState};
pub use topk2d::{top_k_ranked_stabilities_2d, top_k_set_stabilities_2d};
pub use xhps::ordering_exchange_hyperplanes;

/// The shared JSON-value serialization vocabulary used by the durable
/// state snapshots (`Sweep2DState::to_value` & co.) — re-exported from
/// `srank-sample`, where the primitive codecs live.
pub use srank_sample::persist;

/// Everything a typical caller needs.
pub mod prelude {
    pub use crate::dataset::Dataset;
    pub use crate::error::{Result, StableRankError};
    pub use crate::getnext_md::{MdEnumerator, PassThroughMode, StableRankingMd};
    pub use crate::justify::{max_margin_weights, MaxMarginWeights};
    pub use crate::overview::{most_tau_stable, tau_tolerant_stability, StabilityOverview};
    pub use crate::randomized::{DiscoveredRanking, RandomizedEnumerator, RankingScope};
    pub use crate::ranking::{ItemMove, Ranking, TopKRanked, TopKSet};
    pub use crate::scoring::ScoringFunction;
    pub use crate::sv2d::{stability_verify_2d, AngleInterval, Verified2D};
    pub use crate::svmd::{stability_verify_3d_exact, stability_verify_md, VerifiedMd};
    pub use crate::sweep2d::{tau_stability_2d, Enumerator2D, StableRanking2D};
    pub use crate::topk2d::{top_k_ranked_stabilities_2d, top_k_set_stabilities_2d};
    pub use srank_sample::roi::RegionOfInterest;
}
