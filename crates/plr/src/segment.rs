//! The output of segmentation: a linear segment with its fitted slope.

/// A maximal-error-bounded linear segment of the key → position function.
///
/// Covers positions `start_pos ..= end_pos` and keys
/// `start_key ..= end_key`. For any key in the covered range,
/// [`predict`](Self::predict) is within the segmentation error of the
/// key's true position — that is the invariant every constructor in this
/// crate maintains and [`crate::validate`] re-checks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearSegment {
    /// First key covered by the segment (the interpolation anchor).
    pub start_key: f64,
    /// Position of `start_key` in the sorted data.
    pub start_pos: u64,
    /// Last key covered by the segment.
    pub end_key: f64,
    /// Position of the last element covered by the segment.
    pub end_pos: u64,
    /// Fitted slope in positions per key unit; always finite and ≥ 0.
    pub slope: f64,
}

impl LinearSegment {
    /// Predicted (fractional) position for `key` by linear interpolation
    /// from the segment anchor (paper Equation 4.1:
    /// `pred_pos = (key − s.start) × s.slope`).
    #[must_use]
    pub fn predict(&self, key: f64) -> f64 {
        self.start_pos as f64 + (key - self.start_key) * self.slope
    }

    /// Number of positions (elements) covered.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.end_pos - self.start_pos + 1
    }

    /// Segments always cover at least one element.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg() -> LinearSegment {
        LinearSegment {
            start_key: 100.0,
            start_pos: 50,
            end_key: 200.0,
            end_pos: 149,
            slope: 1.0,
        }
    }

    #[test]
    fn predict_is_anchored_at_start() {
        let s = seg();
        assert_eq!(s.predict(100.0), 50.0);
        assert_eq!(s.predict(150.0), 100.0);
    }

    #[test]
    fn len_counts_inclusive_positions() {
        assert_eq!(seg().len(), 100);
        assert!(!seg().is_empty());
    }
}
