//! Piecewise-linear segmentation with a **bounded maximal error** (E∞),
//! as defined by the FITing-Tree paper (Galakatos et al., SIGMOD 2019),
//! Sections 3.1–3.4.
//!
//! A FITing-Tree models an index as a monotonically increasing function
//! from keys to positions and approximates that function by a sequence of
//! disjoint linear *segments*. The defining property of a segment is not
//! least-squares quality but a hard guarantee: for every key inside the
//! segment, the linearly interpolated position is within `error` slots of
//! the true position. That guarantee is what bounds the post-interpolation
//! local search to `2·error + 1` slots (paper Equation 4.2).
//!
//! This crate implements the paper's two segmentation algorithms plus the
//! machinery around them:
//!
//! * [`ShrinkingCone`] — the streaming greedy algorithm (paper
//!   Algorithm 2): O(n) time, O(1) state, one pass. The cone is the family
//!   of feasible slopes for the current segment; each accepted point can
//!   only narrow it.
//! * [`optimal_segment_count`] — the dynamic program (paper Algorithm 1)
//!   that minimizes the number of segments. Our implementation keeps only
//!   the running cone per candidate start (O(n) memory instead of the
//!   paper's O(n²) matrix), which is what makes Table 1 reproducible on a
//!   laptop.
//! * [`validate`] — checkers asserting the E∞ guarantee over a produced
//!   segmentation; used pervasively in tests and debug assertions.
//!
//! The Appendix A.3 construction on which ShrinkingCone produces
//! `N + 2` segments while the optimum is 2 (the greedy is not
//! competitive) is test input, in the `#[cfg(test)]` module `adversarial`.
//!
//! # Example
//!
//! ```
//! use fiting_plr::{Point, ShrinkingCone, validate};
//!
//! // A gently curving key distribution.
//! let points: Vec<Point> = (0u64..1000)
//!     .map(|i| Point::new((i * i) as f64, i))
//!     .collect();
//! let segments = ShrinkingCone::segment(&points, 16);
//! assert!(segments.len() > 1); // quadratic data is not one line at error 16
//! validate::validate_segmentation(&points, &segments, 16).unwrap();
//! ```

#![warn(missing_docs)]

#[cfg(test)]
mod adversarial;
mod cone;
mod optimal;
mod point;
mod segment;
mod shrinking_cone;
pub mod validate;

pub use cone::Cone;
pub use optimal::{optimal_segment_count, optimal_segment_count_endpoint};
pub use point::{points_from_sorted_keys, Point};
pub use segment::LinearSegment;
pub use shrinking_cone::ShrinkingCone;
