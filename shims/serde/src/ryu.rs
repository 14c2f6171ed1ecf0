//! Shortest round-trip decimal text for an `f64`, laid out exactly as
//! `impl Debug for f64` lays it out.
//!
//! The digits come from Ryu's `d2d` (Ulf Adams, "Ryū: fast float-to-string
//! conversion", PLDI 2018, <https://dl.acm.org/doi/10.1145/3192366.3192369>)
//! with the full 125-bit power-of-five tables of [`tables`]. One change to
//! the reference algorithm: an exact tie — the value lies halfway between
//! the two shortest candidates — rounds up, never to even, because that is
//! what `core::fmt` prints (`2^-25` is `2.9802322387695313e-8`, not
//! `…312e-8`). The layout is `{:?}`'s: plain decimal with at least one
//! fractional digit when `1e-4 <= |x| < 1e16` (and for zero), otherwise
//! `d[.ddd]e[-]N`. `tests::matches_debug_on_random_bit_patterns` and its
//! companions hold the output byte-identical to `format!("{x:?}")`.

mod tables;

use tables::{DOUBLE_POW5_INV_SPLIT, DOUBLE_POW5_SPLIT};

const DOUBLE_MANTISSA_BITS: u32 = 52;
const DOUBLE_BIAS: i32 = 1023;
const DOUBLE_POW5_INV_BITCOUNT: i32 = 125;
const DOUBLE_POW5_BITCOUNT: i32 = 125;

/// The longest text [`format_finite`] writes: a sign, 17 digits, a point
/// and `e-308`, or a sign, `0.000` and 17 digits.
pub(crate) const MAX_LEN: usize = 24;

/// Renders the finite `v` into `buf` as `format!("{v:?}")` would and
/// returns the text's length.
pub(crate) fn format_finite(v: f64, buf: &mut [u8; MAX_LEN]) -> usize {
    debug_assert!(v.is_finite());
    let bits = v.to_bits();
    let ieee_mantissa = bits & ((1u64 << DOUBLE_MANTISSA_BITS) - 1);
    let ieee_exponent = (bits >> DOUBLE_MANTISSA_BITS) as u32 & 0x7ff;
    let mut len = 0;
    if bits >> 63 != 0 {
        buf[0] = b'-';
        len = 1;
    }
    if ieee_exponent == 0 && ieee_mantissa == 0 {
        buf[len..len + 3].copy_from_slice(b"0.0");
        return len + 3;
    }
    let (digits, exponent) = d2d(ieee_mantissa, ieee_exponent);
    let abs = v.abs();
    if (1e-4..1e16).contains(&abs) {
        len + write_decimal(&mut buf[len..], digits, exponent)
    } else {
        len + write_scientific(&mut buf[len..], digits, exponent)
    }
}

/// `digits × 10^exponent` as `1.2345e-7`: the first digit, the others
/// after a point when there are any, then the power of ten.
fn write_scientific(buf: &mut [u8], digits: u64, exponent: i32) -> usize {
    let olength = decimal_length17(digits);
    write_digits(&mut buf[1..=olength], digits);
    buf[0] = buf[1];
    let mut len = if olength > 1 {
        buf[1] = b'.';
        olength + 1
    } else {
        1
    };
    buf[len] = b'e';
    len += 1;
    let sci = exponent + olength as i32 - 1;
    if sci < 0 {
        buf[len] = b'-';
        len += 1;
    }
    let e = u64::from(sci.unsigned_abs());
    let elength = decimal_length17(e);
    write_digits(&mut buf[len..len + elength], e);
    len + elength
}

/// `digits × 10^exponent` as a plain decimal with at least one digit
/// after the point.
fn write_decimal(buf: &mut [u8], digits: u64, exponent: i32) -> usize {
    let olength = decimal_length17(digits);
    let int_len = olength as i32 + exponent;
    if exponent >= 0 {
        // An integer: the digits, the zeros the exponent stands for, `.0`.
        let end = int_len as usize;
        write_digits(&mut buf[..olength], digits);
        buf[olength..end].fill(b'0');
        buf[end..end + 2].copy_from_slice(b".0");
        end + 2
    } else if int_len > 0 {
        // The point falls inside the digits.
        let int_len = int_len as usize;
        write_digits(&mut buf[1..=olength], digits);
        buf.copy_within(1..=int_len, 0);
        buf[int_len] = b'.';
        olength + 1
    } else {
        // `0.`, the zeros before the first digit, the digits.
        let start = 2 + (-int_len) as usize;
        buf[..start].fill(b'0');
        buf[1] = b'.';
        write_digits(&mut buf[start..start + olength], digits);
        start + olength
    }
}

/// Fills `out` with the last `out.len()` decimal digits of `v`.
fn write_digits(out: &mut [u8], mut v: u64) {
    let mut end = out.len();
    while end >= 2 {
        let pair = (v % 100) as usize * 2;
        v /= 100;
        out[end - 2..end].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
        end -= 2;
    }
    if end == 1 {
        out[0] = b'0' + v as u8;
    }
}

const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Decimal digits of `v`, which has at most 17.
fn decimal_length17(v: u64) -> usize {
    v.checked_ilog10().map_or(1, |log| log as usize + 1)
}

/// `⌈log2(5^e)⌉` for `0 < e <= 3528`, and 1 for `e == 0`: the bit length
/// of `5^e`.
fn pow5bits(e: i32) -> i32 {
    (((e as u32) * 1_217_359) >> 19) as i32 + 1
}

/// `⌊log10(2^e)⌋` for `0 <= e <= 1650`.
fn log10_pow2(e: i32) -> u32 {
    ((e as u32) * 78_913) >> 18
}

/// `⌊log10(5^e)⌋` for `0 <= e <= 2620`.
fn log10_pow5(e: i32) -> u32 {
    ((e as u32) * 732_923) >> 20
}

fn multiple_of_power_of_5(mut value: u64, p: u32) -> bool {
    let mut count = 0;
    while value.is_multiple_of(5) {
        value /= 5;
        count += 1;
    }
    count >= p
}

/// `⌊m × mul / 2^j⌋` for a 55-bit `m` and a 126-bit `mul`, whose product
/// does not fit in 128 bits: multiply by each 64-bit half and add.
fn mul_shift_64(m: u64, mul: u128, j: i32) -> u64 {
    let low = u128::from(m) * (mul as u64 as u128);
    let high = u128::from(m) * (mul >> 64);
    (((low >> 64) + high) >> (j - 64)) as u64
}

/// Ryu's `d2d`: the shortest `digits × 10^exponent` that reads back as
/// the positive, finite, nonzero double with these IEEE fields; among
/// the shortest, the one closest to it, with exact ties rounded up.
fn d2d(ieee_mantissa: u64, ieee_exponent: u32) -> (u64, i32) {
    let (e2, m2) = if ieee_exponent == 0 {
        (
            1 - DOUBLE_BIAS - DOUBLE_MANTISSA_BITS as i32 - 2,
            ieee_mantissa,
        )
    } else {
        (
            ieee_exponent as i32 - DOUBLE_BIAS - DOUBLE_MANTISSA_BITS as i32 - 2,
            (1u64 << DOUBLE_MANTISSA_BITS) | ieee_mantissa,
        )
    };
    let accept_bounds = m2.is_multiple_of(2);

    // The interval of decimals that read back as this double is
    // [mm, mp] (bounds included when m2 is even), scaled by 4.
    let mv = 4 * m2;
    let mm_shift = u64::from(ieee_mantissa != 0 || ieee_exponent <= 1);
    let mp = mv + 2;
    let mm = mv - 1 - mm_shift;

    // Convert to a decimal power base with the 125-bit tables. Reference
    // Ryu also tracks whether the value itself is exact in that base, only
    // to round an exact tie to even; ties round up here (see the module
    // doc), so only an exact lower bound matters.
    let (mut vr, mut vp, mut vm, e10);
    let mut vm_is_trailing_zeros = false;
    if e2 >= 0 {
        let q = log10_pow2(e2) - u32::from(e2 > 3);
        e10 = q as i32;
        let k = DOUBLE_POW5_INV_BITCOUNT + pow5bits(q as i32) - 1;
        let j = -e2 + q as i32 + k;
        let mul = DOUBLE_POW5_INV_SPLIT[q as usize];
        vr = mul_shift_64(mv, mul, j);
        vp = mul_shift_64(mp, mul, j);
        vm = mul_shift_64(mm, mul, j);
        // Only one of mp, mv and mm can be a multiple of 5, if any.
        if q <= 21 && !mv.is_multiple_of(5) {
            if accept_bounds {
                vm_is_trailing_zeros = multiple_of_power_of_5(mm, q);
            } else {
                vp -= u64::from(multiple_of_power_of_5(mp, q));
            }
        }
    } else {
        let q = log10_pow5(-e2) - u32::from(-e2 > 1);
        e10 = q as i32 + e2;
        let i = -e2 - q as i32;
        let k = pow5bits(i) - DOUBLE_POW5_BITCOUNT;
        let j = q as i32 - k;
        let mul = DOUBLE_POW5_SPLIT[i as usize];
        vr = mul_shift_64(mv, mul, j);
        vp = mul_shift_64(mp, mul, j);
        vm = mul_shift_64(mm, mul, j);
        if q <= 1 {
            if accept_bounds {
                // mm = mv − 1 − mm_shift has a trailing zero bit iff
                // mm_shift is 1.
                vm_is_trailing_zeros = mm_shift == 1;
            } else {
                // mp = mv + 2 always has one.
                vp -= 1;
            }
        }
    }

    // Drop digits while the interval still holds a shorter decimal.
    let mut removed = 0;
    let output = if vm_is_trailing_zeros {
        // The rare case: the lower bound is exact, so it may itself be the
        // shortest decimal; track whether every digit removed from it was
        // zero.
        let mut last_removed_digit = 0;
        while vp / 10 > vm / 10 {
            vm_is_trailing_zeros &= vm.is_multiple_of(10);
            last_removed_digit = vr % 10;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed += 1;
        }
        if vm_is_trailing_zeros {
            while vm.is_multiple_of(10) {
                last_removed_digit = vr % 10;
                vr /= 10;
                vm /= 10;
                removed += 1;
            }
        }
        // Reference Ryu would turn a removed `5` followed by zeros into a
        // `4` when vr is even; `{:?}` rounds it up like 6 to 9.
        let below = vr == vm && !vm_is_trailing_zeros;
        vr + u64::from(below || last_removed_digit >= 5)
    } else {
        // The common case: the lower bound is not exact, and a removed 5
        // rounds up whether or not only zeros follow it, so the last
        // removed digit alone decides the rounding. Two digits at a time
        // first.
        let mut round_up = false;
        if vp / 100 > vm / 100 {
            round_up = vr % 100 >= 50;
            vr /= 100;
            vp /= 100;
            vm /= 100;
            removed += 2;
        }
        while vp / 10 > vm / 10 {
            round_up = vr % 10 >= 5;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed += 1;
        }
        vr + u64::from(vr == vm || round_up)
    };
    (output, e10 + removed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Write as _;

    /// Renders `x` both ways; returns the pair when they differ.
    fn mismatch(x: f64, oracle: &mut String) -> Option<(String, String)> {
        let mut buf = [0u8; MAX_LEN];
        let len = format_finite(x, &mut buf);
        oracle.clear();
        write!(oracle, "{x:?}").expect("a String accepts every write");
        (buf[..len] != *oracle.as_bytes()).then(|| {
            (
                String::from_utf8_lossy(&buf[..len]).into_owned(),
                oracle.clone(),
            )
        })
    }

    /// Checks every finite value of `values` and returns how many it
    /// checked; panics listing the first mismatches.
    fn check_all(values: impl IntoIterator<Item = f64>) -> u64 {
        let mut oracle = String::new();
        let mut checked = 0;
        let mut failures = Vec::new();
        for x in values.into_iter().filter(|x| x.is_finite()) {
            checked += 1;
            if let Some((ours, want)) = mismatch(x, &mut oracle) {
                failures.push(format!(
                    "{:#018x}: wrote {ours}, {{:?}} {want}",
                    x.to_bits()
                ));
            }
        }
        assert!(
            failures.is_empty(),
            "{} of {checked} values differ from {{:?}}, first: {:?}",
            failures.len(),
            &failures[..failures.len().min(10)]
        );
        checked
    }

    /// `x` and the doubles on either side of it (`f64::next_up` is newer
    /// than the workspace's declared `rust-version`, 1.81).
    fn with_neighbours(x: f64) -> [f64; 3] {
        let bits = x.to_bits();
        [
            f64::from_bits(bits.wrapping_sub(1)),
            x,
            f64::from_bits(bits.wrapping_add(1)),
        ]
    }

    /// SplitMix64: a seeded stream of 64-bit patterns.
    fn bit_patterns(seed: u64, n: usize) -> impl Iterator<Item = f64> {
        let mut state = seed;
        (0..n).map(move |_| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            f64::from_bits(z ^ (z >> 31))
        })
    }

    #[test]
    fn layouts_match_debug_at_their_edges() {
        for (x, want) in [
            (0.0, "0.0"),
            (-0.0, "-0.0"),
            (1.0, "1.0"),
            (1e-4, "0.0001"),
            (1e-5, "1e-5"),
            (1.5e-5, "1.5e-5"),
            (1e16, "1e16"),
            (9_999_999_999_999_998.0, "9999999999999998.0"),
            (0.1 + 0.2, "0.30000000000000004"),
            (5e-324, "5e-324"),
            (f64::MAX, "1.7976931348623157e308"),
            (-f64::MIN_POSITIVE, "-2.2250738585072014e-308"),
            (123.456, "123.456"),
            (50_000.0, "50000.0"),
            // Exact ties, which reference Ryu would round to even.
            (
                f64::from_bits(0x3e60_0000_0000_0000),
                "2.9802322387695313e-8",
            ),
            (f64::from_bits(0x42ea_8090_bb0f_6d84), "233115890514796.13"),
        ] {
            let mut buf = [0u8; MAX_LEN];
            let len = format_finite(x, &mut buf);
            assert_eq!(std::str::from_utf8(&buf[..len]), Ok(want), "{x:?}");
        }
    }

    #[test]
    fn matches_debug_on_boundary_classes() {
        let powers_of_two = (-1074..=1023).flat_map(|e| with_neighbours(2f64.powi(e)));
        // `2f64.powi` loses the subnormal powers below 2^-1022; build them
        // from their bit pattern too.
        let subnormal_powers = (0..52).flat_map(|b| with_neighbours(f64::from_bits(1 << b)));
        let powers_of_ten = (-330..310).flat_map(|k| {
            let x: f64 = format!("1e{k}").parse().expect("a decimal literal parses");
            with_neighbours(x)
        });
        let integers = (0..100_000u32).flat_map(|i| [f64::from(i), f64::from(i) / 1_000.0]);
        let extremes = [
            f64::MAX,
            f64::MIN_POSITIVE,
            f64::EPSILON,
            f64::from_bits(1),
            f64::from_bits(0x000f_ffff_ffff_ffff),
            9_007_199_254_740_992.0,
            1e16,
            1e-4,
            1e-5,
            0.1 + 0.2,
            f64::from_bits(0x3e60_0000_0000_0000),
            f64::from_bits(0x42ea_8090_bb0f_6d84),
        ]
        .into_iter()
        .flat_map(with_neighbours);
        let checked = check_all(
            powers_of_two
                .chain(subnormal_powers)
                .chain(powers_of_ten)
                .chain(integers)
                .chain(extremes)
                .flat_map(|x| [x, -x]),
        );
        assert!(checked > 400_000, "{checked}");
    }

    #[test]
    fn matches_debug_on_random_bit_patterns() {
        // 200,000 patterns cover every exponent about a hundred times; the
        // scaled draws add values of the size the daemon writes (seconds,
        // iterations, GPU-slots).
        let patterns = bit_patterns(0x5eed, 200_000);
        let scaled = bit_patterns(0xface, 50_000).map(|x| {
            let unit = (x.to_bits() >> 11) as f64 / (1u64 << 53) as f64;
            unit * 10f64.powi((x.to_bits() % 9) as i32)
        });
        // About 0.05 % of random patterns are NaN or infinite and skipped.
        assert!(check_all(patterns.chain(scaled)) > 249_000);
    }

    #[test]
    #[ignore = "100,000,000 values: about 40 s in release"]
    fn matches_debug_on_100m_random_bit_patterns() {
        check_all(bit_patterns(0x1_0000_0000, 100_000_000));
    }

    #[test]
    fn tables_hold_pinned_entries() {
        // Reference Ryu's values at each table's ends and middle.
        for (i, want) in [
            (0, 0x2000_0000_0000_0000_0000_0000_0000_0001),
            (1, 0x1999_9999_9999_9999_9999_9999_9999_999a),
            (200, 0x187e_9215_4ef7_ac1f_97db_7f88_8220_d154),
            (341, 0x12ab_168c_c36c_acbf_0958_f94b_3484_98a1),
        ] {
            assert_eq!(DOUBLE_POW5_INV_SPLIT[i], want, "DOUBLE_POW5_INV_SPLIT[{i}]");
        }
        for (i, want) in [
            (0, 0x1000_0000_0000_0000_0000_0000_0000_0000),
            (1, 0x1400_0000_0000_0000_0000_0000_0000_0000),
            (100, 0x1249_ad25_94c3_7ceb_0b27_84c4_ce0b_f38a),
            (325, 0x18b4_0a4e_ec43_7c52_78e1_316e_60a4_8310),
        ] {
            assert_eq!(DOUBLE_POW5_SPLIT[i], want, "DOUBLE_POW5_SPLIT[{i}]");
        }
    }
}
