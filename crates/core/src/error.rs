//! Error types for the ranking-stability API.

use std::fmt;

/// Errors surfaced by the public API of `srank-core`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StableRankError {
    /// A dataset, weight vector, ranking, or region of interest disagreed
    /// on the number of scoring attributes.
    DimensionMismatch { expected: usize, got: usize },
    /// A 2-D-only algorithm received a dataset with `d ≠ 2`.
    NeedTwoDimensions { got: usize },
    /// The dataset has no items (or no attributes).
    EmptyDataset,
    /// Weight vectors must be non-negative, finite, and not all zero.
    InvalidWeights(String),
    /// A ranking did not name every item exactly once.
    InvalidRanking(String),
    /// The region of interest admits no scoring function (or no sample
    /// could be drawn from it).
    EmptyRegionOfInterest,
    /// The dataset has more items than an operator can index (`max`).
    TooManyItems { n: usize, max: usize },
}

impl fmt::Display for StableRankError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StableRankError::DimensionMismatch { expected, got } => {
                write!(
                    f,
                    "dimension mismatch: expected {expected} attributes, got {got}"
                )
            }
            StableRankError::NeedTwoDimensions { got } => {
                write!(
                    f,
                    "this algorithm requires exactly 2 scoring attributes, got {got}"
                )
            }
            StableRankError::EmptyDataset => write!(f, "dataset has no items"),
            StableRankError::InvalidWeights(msg) => write!(f, "invalid weight vector: {msg}"),
            StableRankError::InvalidRanking(msg) => write!(f, "invalid ranking: {msg}"),
            StableRankError::EmptyRegionOfInterest => {
                write!(f, "region of interest contains no scoring function")
            }
            StableRankError::TooManyItems { n, max } => {
                write!(f, "dataset has {n} items, more than the supported {max}")
            }
        }
    }
}

impl std::error::Error for StableRankError {}

/// Result alias for the crate.
pub type Result<T> = std::result::Result<T, StableRankError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = StableRankError::DimensionMismatch {
            expected: 3,
            got: 2,
        };
        assert!(e.to_string().contains("expected 3"));
        assert!(StableRankError::NeedTwoDimensions { got: 5 }
            .to_string()
            .contains('5'));
        assert!(StableRankError::EmptyDataset
            .to_string()
            .contains("no items"));
    }

    #[test]
    fn implements_std_error() {
        fn assert_err<E: std::error::Error>(_: E) {}
        assert_err(StableRankError::EmptyDataset);
    }
}
