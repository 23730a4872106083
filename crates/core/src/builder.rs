//! Builder for [`FitingTree`] configuration.

use crate::clustered::FitingTree;
use crate::error::BuildError;
use crate::key::Key;

/// Configures and constructs a [`FitingTree`].
///
/// ```
/// use fiting_tree::{FitingTree, FitingTreeBuilder};
///
/// let index: FitingTree<u64, &str> = FitingTreeBuilder::new(100)
///     .buffer_size(32)                       // default: error / 2
///     .bulk_load([(7, "seven")])
///     .unwrap();
/// assert_eq!(index.error(), 100);
/// ```
#[derive(Debug, Clone)]
pub struct FitingTreeBuilder {
    error: u64,
    buffer_size: Option<u64>,
}

impl FitingTreeBuilder {
    /// Starts a builder with the given error budget (in slots).
    #[must_use]
    pub fn new(error: u64) -> Self {
        FitingTreeBuilder {
            error,
            buffer_size: None,
        }
    }

    /// Sets the per-segment insert buffer capacity. Must be `< error`
    /// (the paper's `error − buffer_size` segmentation rule). Defaults to
    /// `error / 2`, the split used throughout the paper's evaluation.
    #[must_use]
    pub fn buffer_size(mut self, buffer_size: u64) -> Self {
        self.buffer_size = Some(buffer_size);
        self
    }

    /// Builds an empty index ready for inserts.
    pub(crate) fn build_empty<K: Key, V>(self) -> Result<FitingTree<K, V>, BuildError> {
        let buffer = self.buffer_size.unwrap_or(self.error / 2);
        FitingTree::from_parts(self.error, buffer)
    }

    /// Bulk loads strictly increasing `(key, value)` pairs.
    pub fn bulk_load<K: Key, V, I>(self, iter: I) -> Result<FitingTree<K, V>, BuildError>
    where
        I: IntoIterator<Item = (K, V)>,
    {
        self.build_empty()?.bulk_load_sorted(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_buffer_is_half_the_error() {
        let t: FitingTree<u64, ()> = FitingTreeBuilder::new(100).build_empty().unwrap();
        assert_eq!(t.buffer_size(), 50);
        assert_eq!(t.segmentation_error(), 50);
    }

    #[test]
    fn rejects_buffer_eating_the_error() {
        let err = FitingTreeBuilder::new(10)
            .buffer_size(10)
            .build_empty::<u64, ()>()
            .unwrap_err();
        assert!(matches!(err, BuildError::BufferConsumesError { .. }));
        let err = FitingTreeBuilder::new(10)
            .buffer_size(11)
            .build_empty::<u64, ()>()
            .unwrap_err();
        assert!(matches!(err, BuildError::BufferConsumesError { .. }));
    }

    #[test]
    fn custom_knobs_apply() {
        let t: FitingTree<u64, ()> = FitingTreeBuilder::new(64)
            .buffer_size(8)
            .build_empty()
            .unwrap();
        assert_eq!(t.buffer_size(), 8);
        assert_eq!(t.segmentation_error(), 56);
    }
}
