//! The Appendix A.3 adversarial construction.
//!
//! The paper proves ShrinkingCone is *not competitive*: there are inputs
//! on which the greedy produces `N + 2` segments while the optimum is 2,
//! for arbitrarily large `N`. This module generates that input so the
//! tests exercise the worst case, not just well-behaved data.
//!
//! Construction (for error threshold `E`):
//!
//! 1. Three keys `x1, x2, x3` one position apart with
//!    `x3 − x2 = x2 − x1 = E/2` — a shallow start that pins the greedy
//!    cone to a nearly flat slope. (The arXiv rendering prints this
//!    spacing as "E2"; the paper's own arithmetic — a slope denominator
//!    of `E + 2/E` for the segment from `x1` to `x5` — fixes it as
//!    `E/2`.)
//! 2. A key `x4 = x3 + 1/E` repeated `E + 1` times, then a single key
//!    `x5 = x4 + 1/E`. The vertical run is just deep enough that,
//!    combined with the flat start, `x5` falls outside the cone.
//! 3. Repeating pattern, `N` times: a key `E` further right repeated
//!    `E + 1` times, then a single key `1/E` beyond it. Each repetition
//!    forces the greedy to close another two-key segment.
//! 4. A final key `E/2` further right.
//!
//! The optimum covers everything after the first point with one line,
//! because the repeated keys are spaced evenly (`E + 1/E` apart on the
//! x-axis) and the line through them stays within `E` of every point.

use crate::point::Point;

/// Generates the Appendix A.3 adversarial input for error `e` with `n`
/// pattern repetitions.
///
/// The returned points are sorted with consecutive positions, ready for
/// [`crate::ShrinkingCone::segment`] or `optimal_segmentation`.
///
/// # Panics
///
/// Panics if `e < 2` (the construction needs a non-trivial error budget).
#[must_use]
pub(crate) fn adversarial_input(e: u64, n: usize) -> Vec<Point> {
    assert!(e >= 2, "adversarial construction requires error >= 2");
    let ef = e as f64;
    let half = ef / 2.0;
    let step_small = 1.0 / ef;

    let mut points: Vec<Point> = Vec::new();
    let mut pos = 0u64;
    let push = |points: &mut Vec<Point>, key: f64, pos: &mut u64| {
        points.push(Point::new(key, *pos));
        *pos += 1;
    };

    // Step 1: three widely spaced keys.
    let x1 = 0.0;
    let x2 = half;
    let x3 = 2.0 * half;
    push(&mut points, x1, &mut pos);
    push(&mut points, x2, &mut pos);
    push(&mut points, x3, &mut pos);

    // Step 2: first repeated key + lone follower.
    let mut x = x3 + step_small;
    for _ in 0..=e {
        push(&mut points, x, &mut pos);
    }
    x += step_small;
    push(&mut points, x, &mut pos);

    // Step 3: N repetitions.
    for _ in 0..n {
        x += ef;
        for _ in 0..=e {
            push(&mut points, x, &mut pos);
        }
        x += step_small;
        push(&mut points, x, &mut pos);
    }

    // Step 4: closing key far to the right.
    x += half;
    push(&mut points, x, &mut pos);
    points
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimal::optimal_segment_count;
    use crate::shrinking_cone::ShrinkingCone;
    use crate::validate::validate_segmentation;

    #[test]
    fn input_is_well_formed() {
        let pts = adversarial_input(50, 10);
        for w in pts.windows(2) {
            assert!(w[1].key >= w[0].key);
            assert_eq!(w[1].pos, w[0].pos + 1);
        }
        // 3 + (E+2) + N*(E+2) + 1 points.
        assert_eq!(pts.len(), 3 + 52 + 10 * 52 + 1);
    }

    #[test]
    fn greedy_blows_up_linearly_while_optimal_stays_constant() {
        let e = 50u64;
        for n in [5usize, 15, 30] {
            let pts = adversarial_input(e, n);
            let greedy = ShrinkingCone::segment(&pts, e);
            validate_segmentation(&pts, &greedy, e).unwrap();
            let optimal = optimal_segment_count(&pts, e);
            // Paper: greedy = N + 2, optimal = 2. Allow small slack for
            // the floating-point geometry.
            assert!(
                greedy.len() >= n,
                "n={n}: greedy produced only {} segments",
                greedy.len()
            );
            assert!(optimal <= 4, "n={n}: optimal used {optimal} segments");
            assert!(greedy.len() >= optimal * (n / 4).max(2));
        }
    }

    #[test]
    fn optimal_segmentation_of_adversarial_input_validates() {
        let e = 20u64;
        let pts = adversarial_input(e, 8);
        let segs = crate::optimal::optimal_segmentation(&pts, e);
        validate_segmentation(&pts, &segs, e).unwrap();
    }

    #[test]
    #[should_panic(expected = "requires error >= 2")]
    fn rejects_tiny_error() {
        let _ = adversarial_input(1, 1);
    }
}
