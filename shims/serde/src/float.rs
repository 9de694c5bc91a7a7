//! The text of a finite `f64` as `Display` spells it, without `core::fmt`.
//!
//! The digits are Ryū's (Ulf Adams, "Ryū: fast float-to-string
//! conversion", PLDI 2018): the shortest decimal that reads back as the
//! same float, and of those the one nearest its exact value, a tie going
//! to the larger as `Display` has it (Ryū itself goes to the even one;
//! `204772473279841.125` is such a tie, printed `204772473279841.13`,
//! where Ryū would print `204772473279841.12`). The layout is
//! `Display`'s: never an exponent, so a small value is `0.`, zeros and its
//! digits (`0.000001`) and a large one its digits and zeros
//! (`123400000000000000000`). `serde_json/tests/differential.rs` holds the
//! text to `format!("{f}")`.
//!
//! The two tables of 125-bit power-of-five approximations are cut from
//! exact big-integer powers of five on first use.

use std::sync::OnceLock;

const MANTISSA_BITS: u32 = 52;
const EXPONENT_BIAS: i32 = 1023;
/// Bits kept of each table entry.
const POW5_BITS: u32 = 125;
/// Entries of [`Tables::inv`]: `q` reaches 290 at `f64::MAX`.
const INV_LEN: usize = 291;
/// Entries of [`Tables::pow5`]: `-e2 - q` reaches 325 at the subnormals.
const POW5_LEN: usize = 326;

/// Padding: `5e-324` has 323 zeros after the point, `f64::MAX` 292 after
/// its digits.
static ZEROS: [u8; 323] = [b'0'; 323];

struct Tables {
    /// `floor(2^(bits(5^q) - 1 + 125) / 5^q) + 1`: `5^-q`, scaled and
    /// rounded up.
    inv: Vec<u128>,
    /// The top 125 bits of `5^i`.
    pow5: Vec<u128>,
}

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        // 5^i as little-endian 64-bit limbs.
        let mut power = vec![1u64];
        let mut tables =
            Tables { inv: Vec::with_capacity(INV_LEN), pow5: Vec::with_capacity(POW5_LEN) };
        for i in 0..POW5_LEN {
            let len = bit_len(&power);
            debug_assert_eq!(len, pow5_bits(i as u32));
            tables.pow5.push(match len.checked_sub(POW5_BITS) {
                Some(shift) => low_u128(&power, shift),
                None => low_u128(&power, 0) << (POW5_BITS - len),
            });
            if i < INV_LEN {
                tables.inv.push(reciprocal(&power, len) + 1);
            }
            let mut carry = 0;
            for limb in &mut power {
                let product = *limb as u128 * 5 + carry;
                *limb = product as u64;
                carry = product >> 64;
            }
            if carry != 0 {
                power.push(carry as u64);
            }
        }
        tables
    })
}

fn bit_len(n: &[u64]) -> u32 {
    let top = n.last().expect("a power of five has a limb");
    n.len() as u32 * 64 - top.leading_zeros()
}

/// The low 128 bits of `n >> shift`.
fn low_u128(n: &[u64], shift: u32) -> u128 {
    let limb = |i: usize| n.get(i).map_or(0, |&l| l as u128);
    let (i, bit) = ((shift / 64) as usize, shift % 64);
    let low = (limb(i) | limb(i + 1) << 64) >> bit;
    if bit == 0 {
        low
    } else {
        low | limb(i + 2) << (128 - bit)
    }
}

/// `floor(2^(len - 1 + 125) / p)` for `p` of `len` bits, by restoring
/// division: one quotient bit per step, the remainder kept below `p`.
fn reciprocal(p: &[u64], len: u32) -> u128 {
    let mut rem = vec![0u64; p.len() + 1];
    rem[(len as usize - 1) / 64] = 1 << ((len - 1) % 64);
    let mut quotient = 0u128;
    for step in 0..=POW5_BITS {
        if step > 0 {
            let mut carry = 0;
            for limb in &mut rem {
                (*limb, carry) = (*limb << 1 | carry, *limb >> 63);
            }
        }
        quotient <<= 1;
        let mut top_down = rem.iter().rev().zip(std::iter::once(&0).chain(p.iter().rev()));
        if top_down.find(|(r, d)| r != d).is_none_or(|(r, d)| r > d) {
            let mut borrow = false;
            for (r, &d) in rem.iter_mut().zip(p.iter().chain([&0])) {
                let (diff, b1) = r.overflowing_sub(d);
                let (diff, b2) = diff.overflowing_sub(u64::from(borrow));
                (*r, borrow) = (diff, b1 || b2);
            }
            quotient |= 1;
        }
    }
    quotient
}

/// `bits(5^e)`, i.e. `ceil(log2(5^e))` for `e >= 1`; valid for `e <= 3528`.
fn pow5_bits(e: u32) -> u32 {
    ((e * 1_217_359) >> 19) + 1
}

/// `floor(log10(2^e))` for `e <= 1650`.
fn log10_pow2(e: u32) -> u32 {
    (e * 78_913) >> 18
}

/// `floor(log10(5^e))` for `e <= 2620`.
fn log10_pow5(e: u32) -> u32 {
    (e * 732_923) >> 20
}

fn multiple_of_pow5(mut value: u64, p: u32) -> bool {
    let mut count = 0;
    while value.is_multiple_of(5) && count < p {
        value /= 5;
        count += 1;
    }
    count >= p
}

/// `(m × mul) >> j` for a table entry `mul`, `j >= 64`.
fn mul_shift(m: u64, mul: u128, j: u32) -> u64 {
    let low = m as u128 * (mul as u64) as u128;
    let high = m as u128 * (mul >> 64);
    (((low >> 64) + high) >> (j - 64)) as u64
}

/// The shortest `(digits, e10)` with `digits × 10^e10` reading back as the
/// finite, nonzero float of `bits` (sign ignored).
fn shortest(bits: u64) -> (u64, i32) {
    let ieee_mantissa = bits & ((1 << MANTISSA_BITS) - 1);
    let ieee_exponent = ((bits >> MANTISSA_BITS) & 0x7ff) as i32;
    let (e2, m2) = match ieee_exponent {
        0 => (1 - EXPONENT_BIAS - MANTISSA_BITS as i32 - 2, ieee_mantissa),
        e => (e - EXPONENT_BIAS - MANTISSA_BITS as i32 - 2, ieee_mantissa | 1 << MANTISSA_BITS),
    };
    // Round-half-even on read: an even mantissa owns its interval's bounds.
    let accept_bounds = m2 & 1 == 0;
    // The interval around mv = 4·m2 is [mm, mp] in units of 2^e2,
    // narrower below a power of two.
    let mv = 4 * m2;
    let mm_shift = u64::from(ieee_mantissa != 0 || ieee_exponent <= 1);
    let (mp, mm) = (mv + 2, mv - 1 - mm_shift);
    // Scale by 2^e2 / 10^e10, through 5^-q (e2 >= 0) or 5^i (e2 < 0).
    let t = tables();
    let (q, e10, mul, j) = if e2 >= 0 {
        let q = log10_pow2(e2 as u32) - u32::from(e2 > 3);
        let j = (q as i32 - e2 + (POW5_BITS + pow5_bits(q) - 1) as i32) as u32;
        (q, q as i32, t.inv[q as usize], j)
    } else {
        let q = log10_pow5(-e2 as u32) - u32::from(-e2 > 1);
        let i = (-e2 - q as i32) as u32;
        let j = (q as i32 - (pow5_bits(i) as i32 - POW5_BITS as i32)) as u32;
        (q, q as i32 + e2, t.pow5[i as usize], j)
    };
    let (mut vr, mut vp, mut vm) =
        (mul_shift(mv, mul, j), mul_shift(mp, mul, j), mul_shift(mm, mul, j));
    // `vm_exact`: nothing was truncated off vm, so the lower bound itself
    // is a candidate when the bounds are accepted; an exact vp is not, and
    // steps down.
    let mut vm_exact = false;
    if e2 >= 0 && q <= 21 && !mv.is_multiple_of(5) {
        // At most one of mv, mp and mm is a multiple of 5, and it scales
        // exactly when it is a multiple of 5^q.
        if accept_bounds {
            vm_exact = multiple_of_pow5(mm, q);
        } else {
            vp -= u64::from(multiple_of_pow5(mp, q));
        }
    } else if e2 < 0 && q <= 1 {
        // mp has a trailing zero bit, mm one exactly when mm_shift is 1.
        if accept_bounds {
            vm_exact = mm_shift == 1;
        } else {
            vp -= 1;
        }
    }

    // Drop digits while the interval still holds a shorter decimal, then
    // round what is left half up: `Display` takes the upper of two
    // equally near candidates, where Ryū would take the even one.
    let mut removed = 0;
    let mut last_removed = 0;
    while vp / 10 > vm / 10 {
        vm_exact &= vm.is_multiple_of(10);
        last_removed = vr % 10;
        (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
        removed += 1;
    }
    if vm_exact {
        while vm.is_multiple_of(10) {
            last_removed = vr % 10;
            (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
            removed += 1;
        }
    }
    let below_interval = vr == vm && (!accept_bounds || !vm_exact);
    (vr + u64::from(below_interval || last_removed >= 5), e10 + removed)
}

/// Hand `f`'s `Display` text to `emit`, in at most three pieces; `f` is
/// finite and nonzero (the writer spells a zero as an integer).
pub(crate) fn write_finite(f: f64, mut emit: impl FnMut(&[u8])) {
    let bits = f.to_bits();
    debug_assert!(f.is_finite() && f != 0.0, "{f} has no shortest digits");
    let negative = bits >> 63 != 0;
    let (mut digits, e10) = shortest(bits);
    // Shortest digits end in a nonzero digit, as `Display`'s do.
    debug_assert!(!digits.is_multiple_of(10), "{f}: {digits}e{e10}");
    // The digits right-aligned, with room for a point and a sign before them.
    let mut buf = [0u8; 19];
    let mut start = buf.len();
    loop {
        start -= 1;
        buf[start] = b'0' + (digits % 10) as u8;
        digits /= 10;
        if digits == 0 {
            break;
        }
    }
    let len = (buf.len() - start) as i32;
    // How many digits stand before the point.
    let point = len + e10;
    if point <= 0 {
        emit(if negative { b"-0." } else { b"0." });
        emit(&ZEROS[..-point as usize]);
        return emit(&buf[start..]);
    }
    if point < len {
        let at = start + point as usize;
        buf.copy_within(start..at, start - 1);
        buf[at - 1] = b'.';
        start -= 1;
    }
    if negative {
        start -= 1;
        buf[start] = b'-';
    }
    emit(&buf[start..]);
    if point > len {
        emit(&ZEROS[..(point - len) as usize]);
    }
}
