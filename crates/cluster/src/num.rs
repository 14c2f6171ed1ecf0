//! Guarantee-sound numeric helpers (the remedies EF-L002 and EF-L004
//! point at).
//!
//! Scheduling math mixes accumulated floats (GPU-seconds, throughput,
//! deadline slack) with discrete resources (GPU counts, slot indices).
//! The two failure modes this module closes:
//!
//! * exact float `==`/`!=` flipping on rounding noise — use [`approx_eq`]
//!   / [`approx_ne`];
//! * `as` casts from float to integer silently truncating, saturating, or
//!   mapping NaN to 0 — use the checked conversions, which refuse
//!   non-finite and negative inputs instead of inventing a count.

/// Default tolerance for [`approx_eq`]: absolute for values near zero,
/// relative otherwise.
pub const DEFAULT_EPSILON: f64 = 1e-9;

/// `true` when `a` and `b` agree within [`DEFAULT_EPSILON`] (absolute near
/// zero, relative otherwise). NaN equals nothing, infinities only each
/// other (by sign).
///
/// # Example
///
/// ```
/// use elasticflow_cluster::num::approx_eq;
///
/// assert!(approx_eq(0.1 + 0.2, 0.3));
/// assert!(!approx_eq(1.0, 1.001));
/// assert!(!approx_eq(f64::NAN, f64::NAN));
/// ```
pub fn approx_eq(a: f64, b: f64) -> bool {
    approx_eq_eps(a, b, DEFAULT_EPSILON)
}

/// Negation of [`approx_eq`].
pub fn approx_ne(a: f64, b: f64) -> bool {
    !approx_eq(a, b)
}

/// [`approx_eq`] with an explicit tolerance.
#[expect(
    clippy::float_cmp,
    reason = "the helper's own bitwise fast path: exact hits and equal infinities"
)]
pub fn approx_eq_eps(a: f64, b: f64, eps: f64) -> bool {
    if a.is_nan() || b.is_nan() {
        return false;
    }
    if a == b {
        return true; // covers equal infinities and exact hits
    }
    if a.is_infinite() || b.is_infinite() {
        return false;
    }
    let diff = (a - b).abs();
    let scale = a.abs().max(b.abs()).max(1.0);
    diff <= eps * scale
}

/// Checked float → GPU count. `Some(n)` iff `x` is finite, within
/// `0..=u32::MAX`, and integral to within [`DEFAULT_EPSILON`].
///
/// # Example
///
/// ```
/// use elasticflow_cluster::num::gpu_count_from_f64;
///
/// assert_eq!(gpu_count_from_f64(4.0), Some(4));
/// assert_eq!(gpu_count_from_f64(4.0 + 1e-12), Some(4));
/// assert_eq!(gpu_count_from_f64(4.5), None);
/// assert_eq!(gpu_count_from_f64(-1.0), None);
/// assert_eq!(gpu_count_from_f64(f64::NAN), None);
/// ```
#[expect(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "range-checked first: `as` is exact for integers in 0..=u32::MAX"
)]
pub fn gpu_count_from_f64(x: f64) -> Option<u32> {
    if !x.is_finite() {
        return None;
    }
    let rounded = x.round();
    if !approx_eq(x, rounded) || rounded < 0.0 || rounded > u32::MAX as f64 {
        return None;
    }
    Some(rounded as u32)
}

/// Checked `ceil` to a slot count. `Some` iff `x` is finite, the ceiling
/// is non-negative, and it fits `usize` exactly.
///
/// # Example
///
/// ```
/// use elasticflow_cluster::num::slots_ceil;
///
/// assert_eq!(slots_ceil(2.1), Some(3));
/// assert_eq!(slots_ceil(3.0), Some(3));
/// assert_eq!(slots_ceil(-0.5), Some(0));
/// assert_eq!(slots_ceil(f64::INFINITY), None);
/// assert_eq!(slots_ceil(f64::NAN), None);
/// ```
pub fn slots_ceil(x: f64) -> Option<usize> {
    float_to_usize(x.ceil())
}

/// Checked `floor` to a slot count (see [`slots_ceil`]).
///
/// # Example
///
/// ```
/// use elasticflow_cluster::num::slots_floor;
///
/// assert_eq!(slots_floor(2.9), Some(2));
/// assert_eq!(slots_floor(-1.0), None);
/// ```
pub fn slots_floor(x: f64) -> Option<usize> {
    float_to_usize(x.floor())
}

/// Shared tail of the slot conversions: `v` is already integral (post
/// `ceil`/`floor`); reject non-finite and negative, clamp `-0.0`/rounding
/// dust to 0.
#[expect(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "non-negative, integral, and < 2^53 — exact"
)]
fn float_to_usize(v: f64) -> Option<usize> {
    if !v.is_finite() || v < -0.5 {
        return None;
    }
    // Mantissa precision bounds exactly-representable integers; beyond
    // 2^53 a slot count is meaningless anyway, treat it as overflow.
    if v >= 9_007_199_254_740_992.0 {
        return None;
    }
    Some(v.max(0.0) as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_basics() {
        assert!(approx_eq(0.1 + 0.2, 0.3));
        assert!(approx_eq(1e12 + 0.0001, 1e12));
        assert!(!approx_eq(1.0, 1.0 + 1e-6));
        assert!(approx_ne(1.0, 2.0));
    }

    #[test]
    fn approx_eq_handles_non_finite() {
        assert!(!approx_eq(f64::NAN, f64::NAN));
        assert!(!approx_eq(f64::NAN, 0.0));
        assert!(approx_eq(f64::INFINITY, f64::INFINITY));
        assert!(!approx_eq(f64::INFINITY, f64::NEG_INFINITY));
        assert!(!approx_eq(f64::INFINITY, 1e300));
    }

    #[test]
    fn approx_eq_near_zero_is_absolute() {
        assert!(approx_eq(0.0, 1e-12));
        assert!(approx_eq(-1e-12, 1e-12));
        assert!(!approx_eq(0.0, 1e-6));
    }

    #[test]
    fn gpu_count_checks_integrality_and_range() {
        assert_eq!(gpu_count_from_f64(0.0), Some(0));
        assert_eq!(gpu_count_from_f64(128.0), Some(128));
        assert_eq!(gpu_count_from_f64(128.0000000001), Some(128));
        assert_eq!(gpu_count_from_f64(127.5), None);
        assert_eq!(gpu_count_from_f64(-4.0), None);
        assert_eq!(gpu_count_from_f64(5e9), None);
        assert_eq!(gpu_count_from_f64(f64::INFINITY), None);
    }

    #[test]
    fn slot_conversions() {
        assert_eq!(slots_ceil(0.0), Some(0));
        assert_eq!(slots_ceil(0.0001), Some(1));
        assert_eq!(slots_ceil(7.0), Some(7));
        assert_eq!(slots_floor(7.999), Some(7));
        assert_eq!(slots_ceil(-0.2), Some(0));
        assert_eq!(slots_floor(-0.2), None);
        assert_eq!(slots_ceil(1e300), None);
        assert_eq!(slots_floor(f64::NAN), None);
    }
}
