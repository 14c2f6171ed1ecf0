//! Ryu's 125-bit power-of-five tables, computed at compile time from
//! their definitions by one walk over the powers of five with a small
//! fixed-width bignum.

/// `DOUBLE_POW5_INV_SPLIT[i] = ⌊2^(bitlen(5^i) − 1 + 125) / 5^i⌋ + 1`.
pub(super) static DOUBLE_POW5_INV_SPLIT: [u128; INV_LEN] = TABLES.0;

/// `DOUBLE_POW5_SPLIT[i]` is `5^i` scaled to exactly 125 bits: shifted
/// left when it is shorter, its top 125 bits when it is longer.
pub(super) static DOUBLE_POW5_SPLIT: [u128; SPLIT_LEN] = TABLES.1;

const INV_LEN: usize = 342;
const SPLIT_LEN: usize = 326;
const BITS: u32 = 125;

/// `bitlen(5^341) − 1 + 125`: the largest power of two the inverse
/// table divides.
const INV_TOP: u32 = 916;

/// Little-endian 64-bit limbs, wide enough for `2^INV_TOP`.
type Big = [u64; 15];

const TABLES: ([u128; INV_LEN], [u128; SPLIT_LEN]) = {
    let mut inv = [0; INV_LEN];
    let mut split = [0; SPLIT_LEN];
    let mut pow5: Big = [0; 15];
    pow5[0] = 1;
    // ⌊2^INV_TOP / 5^i⌋, one floor division by 5 per step: that stays
    // exact because ⌊⌊a / b⌋ / c⌋ = ⌊a / (b c)⌋, and the same identity
    // turns a right shift of it into ⌊2^k / 5^i⌋ for any k ≤ INV_TOP.
    let mut quotient: Big = [0; 15];
    quotient[INV_TOP as usize / 64] = 1 << (INV_TOP % 64);
    let mut i = 0;
    while i < INV_LEN {
        let len = bit_len(&pow5);
        assert!(len - 1 + BITS <= INV_TOP);
        inv[i] = bits_from(&quotient, INV_TOP - (len - 1 + BITS)) + 1;
        if i < SPLIT_LEN {
            split[i] = if len < BITS {
                bits_from(&pow5, 0) << (BITS - len)
            } else {
                bits_from(&pow5, len - BITS)
            };
        }
        pow5 = times_5(pow5);
        quotient = div_5(quotient);
        i += 1;
    }
    (inv, split)
};

const fn bit_len(x: &Big) -> u32 {
    let mut top = x.len();
    while x[top - 1] == 0 {
        top -= 1;
    }
    64 * (top as u32 - 1) + 64 - x[top - 1].leading_zeros()
}

/// `⌊x / 2^from⌋ mod 2^128`.
const fn bits_from(x: &Big, from: u32) -> u128 {
    let first = from as usize / 64;
    let shift = from % 64;
    let mut out = (x[first] >> shift) as u128;
    let mut k = 1;
    while k <= 2 && first + k < x.len() {
        let at = 64 * k as u32 - shift;
        if at < 128 {
            out |= (x[first + k] as u128) << at;
        }
        k += 1;
    }
    out
}

const fn times_5(mut x: Big) -> Big {
    let mut carry = 0;
    let mut i = 0;
    while i < x.len() {
        let v = x[i] as u128 * 5 + carry;
        x[i] = v as u64;
        carry = v >> 64;
        i += 1;
    }
    assert!(carry == 0);
    x
}

const fn div_5(mut x: Big) -> Big {
    let mut rem = 0;
    let mut i = x.len();
    while i > 0 {
        i -= 1;
        let v = (rem << 64) | x[i] as u128;
        x[i] = (v / 5) as u64;
        rem = v % 5;
    }
    x
}
