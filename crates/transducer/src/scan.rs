//! Byte-scanning primitives for the raw-format scanners in
//! `atgis-formats`, plus the SWAR zero-byte masks that the
//! [`crate::dfa`] lane loop's portable masker is built on.
//!
//! The public entry points ([`memchr`], [`memchr2`], [`number_span`],
//! [`alpha_span`], [`json_scalar_span`]) dispatch once per call on
//! the cached [`crate::simd::kernel`] probe: AVX2 (32-byte lanes) when
//! the CPU reports it, SSE2 (16-byte lanes, the x86_64 baseline)
//! otherwise, and the portable SWAR kernels kept verbatim below on
//! every other architecture or when `ATGIS_NO_SIMD` forces the
//! fallback. All kernels are bit-identical at every alignment — one
//! home for the zero-byte-detection bit trick so the hot paths cannot
//! drift apart.

use crate::simd::{self, Kernel, SpanClass};

/// Broadcast multiplier: `LO * b` repeats byte `b` in every lane.
pub const SWAR_LO: u64 = 0x0101_0101_0101_0101;
/// High-bit mask of every lane.
pub const SWAR_HI: u64 = 0x8080_8080_8080_8080;

/// Lane mask of the zero bytes of `x`: bit `0x80 << 8k` is set iff
/// byte `k` of `x` is zero (the classic `(x - LO) & !x & HI`
/// zero-byte detector — exact, no false positives).
#[inline(always)]
pub fn zero_byte_mask(x: u64) -> u64 {
    x.wrapping_sub(SWAR_LO) & !x & SWAR_HI
}

/// Lane mask of the bytes of `w` equal to the broadcast needle `bc`
/// (`bc = SWAR_LO * needle`).
#[inline(always)]
pub fn eq_mask(w: u64, bc: u64) -> u64 {
    zero_byte_mask(w ^ bc)
}

/// Position of the first occurrence of `needle` at or after `from`,
/// using the widest scanning kernel the CPU supports.
#[inline]
pub fn memchr(needle: u8, haystack: &[u8], from: usize) -> Option<usize> {
    match simd::kernel() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: dispatch guarantees AVX2 was detected.
        Kernel::Avx2 => unsafe { simd::x86::memchr_avx2(needle, haystack, from) },
        #[cfg(target_arch = "x86_64")]
        Kernel::Sse2 => simd::x86::memchr_sse2(needle, haystack, from),
        _ => memchr_swar(needle, haystack, from),
    }
}

/// Position of the first occurrence of `a` or `b` at or after `from`,
/// using the widest scanning kernel the CPU supports.
#[inline]
pub fn memchr2(a: u8, b: u8, haystack: &[u8], from: usize) -> Option<usize> {
    match simd::kernel() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: dispatch guarantees AVX2 was detected.
        Kernel::Avx2 => unsafe { simd::x86::memchr2_avx2(a, b, haystack, from) },
        #[cfg(target_arch = "x86_64")]
        Kernel::Sse2 => simd::x86::memchr2_sse2(a, b, haystack, from),
        _ => memchr2_swar(a, b, haystack, from),
    }
}

/// SWAR `memchr`: 8 haystack bytes per iteration, scalar tail. The
/// portable fallback, also reachable via `ATGIS_NO_SIMD=1`.
pub fn memchr_swar(needle: u8, haystack: &[u8], from: usize) -> Option<usize> {
    let bc = SWAR_LO.wrapping_mul(needle as u64);
    let mut i = from;
    while i + 8 <= haystack.len() {
        let w = u64::from_le_bytes(haystack[i..i + 8].try_into().expect("8 bytes"));
        let hits = eq_mask(w, bc);
        if hits != 0 {
            return Some(i + (hits.trailing_zeros() >> 3) as usize);
        }
        i += 8;
    }
    haystack[i.min(haystack.len())..]
        .iter()
        .position(|&b| b == needle)
        .map(|p| i + p)
}

/// SWAR `memchr2`: 8 bytes per iteration, scalar tail.
pub fn memchr2_swar(a: u8, b: u8, haystack: &[u8], from: usize) -> Option<usize> {
    let bca = SWAR_LO.wrapping_mul(a as u64);
    let bcb = SWAR_LO.wrapping_mul(b as u64);
    let mut i = from;
    while i + 8 <= haystack.len() {
        let w = u64::from_le_bytes(haystack[i..i + 8].try_into().expect("8 bytes"));
        let hits = eq_mask(w, bca) | eq_mask(w, bcb);
        if hits != 0 {
            return Some(i + (hits.trailing_zeros() >> 3) as usize);
        }
        i += 8;
    }
    haystack[i.min(haystack.len())..]
        .iter()
        .position(|&x| x == a || x == b)
        .map(|p| i + p)
}

/// The WKT/JSON number-run class: digits plus `+ - . e E`.
pub const NUMBER_CLASS: SpanClass = SpanClass {
    ranges: [(b'0', b'9'), (1, 0)],
    extras: *b"+-.eE\0",
    n_extras: 5,
};

/// The bare-JSON-scalar class: number bytes plus lowercase letters
/// (`true` / `false` / `null`; `e` rides on the letter range).
pub const JSON_SCALAR_CLASS: SpanClass = SpanClass {
    ranges: [(b'0', b'9'), (b'a', b'z')],
    extras: *b"+-.E\0\0",
    n_extras: 4,
};

/// The ASCII-alphabetic class (`A-Z a-z`) — WKT keywords.
pub const ALPHA_CLASS: SpanClass = SpanClass {
    ranges: [(b'A', b'Z'), (b'a', b'z')],
    extras: [0; 6],
    n_extras: 0,
};

/// Length of the number-run prefix of `haystack[from..]`
/// (digits and `+ - . e E`), scanned a lane at a time.
#[inline]
pub fn number_span(haystack: &[u8], from: usize) -> usize {
    NUMBER_CLASS.span(haystack, from)
}

/// Length of the ASCII-alphabetic prefix of `haystack[from..]`,
/// scanned a lane at a time.
#[inline]
pub fn alpha_span(haystack: &[u8], from: usize) -> usize {
    ALPHA_CLASS.span(haystack, from)
}

/// Length of the bare-JSON-scalar prefix of `haystack[from..]`
/// (number bytes, lowercase letters, `E`), scanned a lane at a time.
#[inline]
pub fn json_scalar_span(haystack: &[u8], from: usize) -> usize {
    JSON_SCALAR_CLASS.span(haystack, from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn memchr_finds_across_word_boundaries() {
        let hay = b"0123456789abcdef#0123456";
        for f in [memchr, memchr_swar] {
            assert_eq!(f(b'#', hay, 0), Some(16));
            assert_eq!(f(b'#', hay, 17), None);
            assert_eq!(f(b'0', hay, 1), Some(17));
            assert_eq!(f(b'x', b"", 0), None);
        }
    }

    #[test]
    fn number_span_stops_at_separators() {
        assert_eq!(number_span(b"12.5e-7,next", 0), 7);
        assert_eq!(number_span(b"abc", 0), 0);
        assert_eq!(number_span(b"", 0), 0);
        assert_eq!(json_scalar_span(b"true,false", 0), 4);
        assert_eq!(json_scalar_span(b"-1.25E9 ", 0), 7);
    }

    proptest! {
        #[test]
        fn memchr_agrees_with_std(
            hay in prop::collection::vec(prop::sample::select(b"ab#\x00\xff".to_vec()), 0..80),
            from in 0usize..80,
        ) {
            let want = if from <= hay.len() {
                hay[from..].iter().position(|&b| b == b'#').map(|p| p + from)
            } else {
                None
            };
            prop_assert_eq!(memchr(b'#', &hay, from.min(hay.len())), want);
            prop_assert_eq!(memchr_swar(b'#', &hay, from.min(hay.len())), want);
        }

        #[test]
        fn memchr2_agrees_with_std(
            hay in prop::collection::vec(prop::sample::select(b"ab#@\x00".to_vec()), 0..80),
            from in 0usize..80,
        ) {
            let from = from.min(hay.len());
            let want = hay[from..]
                .iter()
                .position(|&b| b == b'#' || b == b'@')
                .map(|p| p + from);
            prop_assert_eq!(memchr2(b'#', b'@', &hay, from), want);
            prop_assert_eq!(memchr2_swar(b'#', b'@', &hay, from), want);
        }

        #[test]
        fn spans_agree_with_scalar(
            hay in prop::collection::vec(prop::sample::select(b"19.e-E+az,{ \x00\xff".to_vec()), 0..100),
            from in 0usize..100,
        ) {
            let from = from.min(hay.len());
            prop_assert_eq!(number_span(&hay, from), NUMBER_CLASS.span_scalar(&hay, from));
            prop_assert_eq!(
                json_scalar_span(&hay, from),
                JSON_SCALAR_CLASS.span_scalar(&hay, from)
            );
        }
    }
}
