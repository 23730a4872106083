//! Checkers for the E∞ guarantee and partition structure of a
//! segmentation. Used by tests, debug assertions, and the benchmark
//! harness before timing anything.

use crate::point::Point;
use crate::segment::LinearSegment;

/// Absolute slack allowed on top of the integer error budget to absorb
/// `f64` interpolation rounding.
pub(crate) const FLOAT_SLACK: f64 = 1e-6;

/// Ways a segmentation can violate its contract.
#[derive(Debug, Clone, PartialEq)]
pub enum ValidationError {
    /// Segments do not start at position 0, end at the last position, or
    /// leave gaps/overlaps between consecutive segments.
    NotAPartition {
        /// Index of the offending segment.
        segment: usize,
        /// Human-readable description.
        detail: String,
    },
    /// A point's interpolated position misses its true position by more
    /// than the error budget.
    ErrorExceeded {
        /// Index of the offending segment.
        segment: usize,
        /// The offending point.
        point: Point,
        /// Measured |predicted − actual| in positions.
        deviation: f64,
    },
    /// A segment's recorded key range disagrees with the points it covers.
    KeyRangeMismatch {
        /// Index of the offending segment.
        segment: usize,
    },
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidationError::NotAPartition { segment, detail } => {
                write!(f, "segment {segment}: not a partition: {detail}")
            }
            ValidationError::ErrorExceeded {
                segment,
                point,
                deviation,
            } => write!(
                f,
                "segment {segment}: point (key {}, pos {}) deviates by {deviation}",
                point.key, point.pos
            ),
            ValidationError::KeyRangeMismatch { segment } => {
                write!(f, "segment {segment}: key range mismatch")
            }
        }
    }
}

impl std::error::Error for ValidationError {}

/// Verifies that `segments` is an in-order, gap-free partition of
/// `points` and that every point is predicted within `error` positions
/// (plus a `1e-6` slack for `f64` rounding).
pub fn validate_segmentation(
    points: &[Point],
    segments: &[LinearSegment],
    error: u64,
) -> Result<(), ValidationError> {
    if points.is_empty() {
        if segments.is_empty() {
            return Ok(());
        }
        return Err(ValidationError::NotAPartition {
            segment: 0,
            detail: "segments over empty input".into(),
        });
    }
    if segments.is_empty() {
        return Err(ValidationError::NotAPartition {
            segment: 0,
            detail: "no segments over non-empty input".into(),
        });
    }
    if segments[0].start_pos != points[0].pos {
        return Err(ValidationError::NotAPartition {
            segment: 0,
            detail: format!(
                "first segment starts at {} not {}",
                segments[0].start_pos, points[0].pos
            ),
        });
    }
    let last_pos = points[points.len() - 1].pos;
    if segments[segments.len() - 1].end_pos != last_pos {
        return Err(ValidationError::NotAPartition {
            segment: segments.len() - 1,
            detail: format!(
                "last segment ends at {} not {}",
                segments[segments.len() - 1].end_pos,
                last_pos
            ),
        });
    }
    for (i, w) in segments.windows(2).enumerate() {
        if w[0].end_pos + 1 != w[1].start_pos {
            return Err(ValidationError::NotAPartition {
                segment: i + 1,
                detail: format!(
                    "segment starts at {} but previous ended at {}",
                    w[1].start_pos, w[0].end_pos
                ),
            });
        }
    }

    // Per-point error check. Points are ordered by position, so walk the
    // segments in lockstep.
    let base = points[0].pos;
    for (si, seg) in segments.iter().enumerate() {
        let lo = (seg.start_pos - base) as usize;
        let hi = (seg.end_pos - base) as usize;
        let covered = &points[lo..=hi];
        if covered[0].key != seg.start_key || covered[covered.len() - 1].key != seg.end_key {
            return Err(ValidationError::KeyRangeMismatch { segment: si });
        }
        let budget = error as f64 + FLOAT_SLACK;
        for p in covered {
            let dev = (seg.predict(p.key) - p.pos as f64).abs();
            if dev > budget {
                return Err(ValidationError::ErrorExceeded {
                    segment: si,
                    point: *p,
                    deviation: dev,
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::points_from_sorted_keys;

    fn ok_segment(points: &[Point]) -> LinearSegment {
        LinearSegment {
            start_key: points[0].key,
            start_pos: points[0].pos,
            end_key: points[points.len() - 1].key,
            end_pos: points[points.len() - 1].pos,
            slope: 1.0,
        }
    }

    #[test]
    fn accepts_exact_linear_fit() {
        let points = points_from_sorted_keys(&[0.0, 1.0, 2.0, 3.0]);
        let segs = vec![ok_segment(&points)];
        assert!(validate_segmentation(&points, &segs, 0).is_ok());
    }

    #[test]
    fn detects_gap_between_segments() {
        let points = points_from_sorted_keys(&[0.0, 1.0, 2.0, 3.0]);
        let mut a = ok_segment(&points[..2]);
        a.end_pos = 1;
        a.end_key = 1.0;
        let mut b = ok_segment(&points[3..]);
        b.start_pos = 3;
        let err = validate_segmentation(&points, &[a, b], 5).unwrap_err();
        assert!(matches!(err, ValidationError::NotAPartition { .. }));
    }

    #[test]
    fn detects_error_violation() {
        let points = points_from_sorted_keys(&[0.0, 1.0, 2.0, 100.0]);
        let seg = LinearSegment {
            start_key: 0.0,
            start_pos: 0,
            end_key: 100.0,
            end_pos: 3,
            slope: 1.0, // predicts position 100 for key 100: off by 97
        };
        let err = validate_segmentation(&points, &[seg], 10).unwrap_err();
        match err {
            ValidationError::ErrorExceeded { deviation, .. } => assert!(deviation > 90.0),
            other => panic!("unexpected: {other}"),
        }
    }

    #[test]
    fn detects_key_range_mismatch() {
        let points = points_from_sorted_keys(&[0.0, 1.0]);
        let mut seg = ok_segment(&points);
        seg.end_key = 42.0;
        let err = validate_segmentation(&points, &[seg], 10).unwrap_err();
        assert!(matches!(err, ValidationError::KeyRangeMismatch { .. }));
    }

    #[test]
    fn empty_cases() {
        assert!(validate_segmentation(&[], &[], 1).is_ok());
        let points = points_from_sorted_keys(&[1.0]);
        assert!(validate_segmentation(&points, &[], 1).is_err());
        assert!(validate_segmentation(&[], &[ok_segment(&points)], 1).is_err());
    }
}
