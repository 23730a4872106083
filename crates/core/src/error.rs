//! Error types for building and mutating a FITing-Tree.

use std::fmt;

/// Why a FITing-Tree could not be built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// Bulk-load input keys were not strictly increasing (clustered
    /// indexes are over a primary key; use [`crate::SecondaryIndex`] for
    /// duplicates).
    UnsortedInput {
        /// Position of the first offending pair.
        at: usize,
    },
    /// The configured buffer size does not leave any error budget for
    /// segmentation (`buffer_size >= error`, paper Section 5's
    /// `error − buffer_size` rule).
    BufferConsumesError {
        /// Configured total error.
        error: u64,
        /// Configured per-segment buffer size.
        buffer_size: u64,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::UnsortedInput { at } => {
                write!(
                    f,
                    "bulk-load keys must be strictly increasing (violated at index {at})"
                )
            }
            BuildError::BufferConsumesError { error, buffer_size } => write!(
                f,
                "buffer size {buffer_size} leaves no segmentation budget out of error {error}; \
                 need buffer_size < error"
            ),
        }
    }
}

impl std::error::Error for BuildError {}

/// Why [`crate::FitingTree::absorb`] refused to append another tree's
/// segment run. Either variant leaves both trees untouched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbsorbError {
    /// The trees disagree on error budget or buffer split: moved
    /// segments would carry measured error envelopes the absorbing
    /// tree's (smaller) search window could clip, breaking the lookup
    /// guarantee.
    ConfigMismatch,
    /// The other tree holds a key `<=` this tree's maximum, so the two
    /// segment runs cannot be concatenated in order.
    KeyOverlap,
}

impl fmt::Display for AbsorbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AbsorbError::ConfigMismatch => {
                write!(
                    f,
                    "cannot absorb a tree with a different error/buffer configuration"
                )
            }
            AbsorbError::KeyOverlap => {
                write!(
                    f,
                    "cannot absorb a tree whose keys overlap this tree's range"
                )
            }
        }
    }
}

impl std::error::Error for AbsorbError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_actionable() {
        let e = BuildError::BufferConsumesError {
            error: 10,
            buffer_size: 10,
        };
        assert!(e.to_string().contains("buffer_size < error"));
        let e = BuildError::UnsortedInput { at: 7 };
        assert!(e.to_string().contains('7'));
    }
}
