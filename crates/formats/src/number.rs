//! The one exact decimal scanner every coordinate parser tries first.
//!
//! Coordinates in all three formats are short decimals such as
//! `-0.1278` or `51.5074`. For those, Clinger's fast path (*How to Read
//! Floating Point Numbers Accurately*, PLDI 1990) is exact: when the
//! digits form an integer `m ≤ 2⁵³` and there are `k ≤ 22` fraction
//! digits, both `m` and `10^k` are exact `f64`s, so the single IEEE
//! division `m / 10^k` is the correctly rounded value of the text —
//! the same bits std's parser produces. [`decimal`] handles exactly
//! that case and returns `None` for everything else (exponents, a
//! leading `+`, `nan`, surrounding whitespace, longer mantissas), and
//! every caller then runs its std parse with its own error text. So
//! results are bit-identical to std by construction; the tests below
//! and a differential over generated datasets in the integration
//! suite (`format_roundtrip.rs`) check it.

/// `10^k` for `k ≤ 22`: every entry is an exact `f64`.
const POW10: [f64; 23] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
];

/// Largest mantissa every `u64 → f64` conversion keeps exact.
const MAX_EXACT: u64 = 1 << 53;

/// Parses `-?[0-9]+(\.[0-9]+)?` when the digits, read as one integer,
/// are at most 2⁵³ and there are at most 22 fraction digits; the
/// result is bit-identical to `str::parse::<f64>`. Any other input —
/// including ones std would accept — gives `None`.
pub fn decimal(span: &[u8]) -> Option<f64> {
    let (negative, digits) = match span {
        [b'-', rest @ ..] => (true, rest),
        _ => (false, span),
    };
    let mut mantissa = 0u64;
    let mut int_len = 0;
    for &b in digits {
        let d = b.wrapping_sub(b'0');
        if d > 9 {
            break;
        }
        mantissa = mantissa * 10 + u64::from(d);
        if mantissa > MAX_EXACT {
            return None;
        }
        int_len += 1;
    }
    let frac = match &digits[int_len..] {
        _ if int_len == 0 => return None,
        [] => &[][..],
        [b'.', frac @ ..] if !frac.is_empty() && frac.len() < POW10.len() => frac,
        _ => return None,
    };
    for &b in frac {
        let d = b.wrapping_sub(b'0');
        if d > 9 {
            return None;
        }
        mantissa = mantissa * 10 + u64::from(d);
        if mantissa > MAX_EXACT {
            return None;
        }
    }
    let value = mantissa as f64 / POW10[frac.len()];
    Some(if negative { -value } else { value })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `decimal` either declines or agrees with std to the bit.
    fn check(text: &str) -> Option<f64> {
        let got = decimal(text.as_bytes());
        if let Some(v) = got {
            let want = text
                .parse::<f64>()
                .unwrap_or_else(|e| panic!("{text:?}: accepted here, rejected by std: {e}"));
            assert_eq!(
                v.to_bits(),
                want.to_bits(),
                "{text:?}: {v:?} vs std {want:?}"
            );
        }
        got
    }

    #[test]
    fn plain_decimals_take_the_fast_path() {
        assert_eq!(check("-0.1278"), Some(-0.1278));
        assert_eq!(check("51.5074"), Some(51.5074));
        assert_eq!(check("180"), Some(180.0));
        assert_eq!(check("007.5"), Some(7.5));
        assert_eq!(check("0.0000000000000000000001"), Some(1e-22));
    }

    #[test]
    fn signed_zeros_keep_their_sign() {
        for text in ["-0", "-0.0", "-0.000", "0", "0.0"] {
            assert!(check(text).is_some(), "{text}");
        }
        assert!(check("-0").unwrap().is_sign_negative());
    }

    #[test]
    fn mantissa_edges() {
        assert_eq!(check("9007199254740992"), Some(9007199254740992.0));
        assert_eq!(check("900719925474099.2"), Some(900719925474099.2));
        assert_eq!(check("9007199254740993"), None);
        assert_eq!(check("900719925474099.3"), None);
        assert_eq!(check("1234567890123456789"), None, "19 digits");
        assert_eq!(check("12345678901234567890"), None, "20 digits");
        assert_eq!(check("0.1234567890123456789"), None, "19 fraction digits");
        // Leading zeros add digits but not mantissa.
        assert_eq!(check("00000000000000000001.5"), Some(1.5));
    }

    #[test]
    fn fraction_length_edges() {
        let d22 = format!("0.{}", "0".repeat(22));
        let d23 = format!("0.{}", "0".repeat(23));
        assert_eq!(check(&d22), Some(0.0));
        assert_eq!(check(&d23), None);
        // 22 fraction digits still need a mantissa ≤ 2⁵³.
        assert_eq!(check(&format!("1.{}", "0".repeat(22))), None);
        let z22 = format!("0.{}1", "0".repeat(21));
        let z23 = format!("0.{}1", "0".repeat(22));
        assert_eq!(check(&z22), Some(1e-22));
        assert_eq!(check(&z23), None);
    }

    #[test]
    fn everything_else_falls_back() {
        for text in [
            "", "-", "1.", ".5", "-.5", "+1", "1e5", "1E-3", "1.5e2", "nan", "inf", "-inf", " 1",
            "1 ", "1,", "--1", "1.2.3", "0x10", "true", "1_000",
        ] {
            assert_eq!(decimal(text.as_bytes()), None, "{text:?}");
        }
        assert_eq!(decimal(b"1\xff"), None, "non-UTF-8");
    }

    /// A seeded sweep over digit strings around every edge: random
    /// lengths of integer and fraction digits, leading zeros, signs,
    /// and mantissas near 2⁵³.
    #[test]
    fn seeded_edge_sweep_matches_std() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut accepted = 0;
        for _ in 0..100_000 {
            let r = next();
            let digits = |n: u64, r: u64| -> String {
                (0..n)
                    .map(|i| char::from(b'0' + ((r >> (i % 16 * 4)) as u8 ^ i as u8) % 10))
                    .collect()
            };
            let mut text = String::new();
            if r & 1 == 1 {
                text.push('-');
            }
            match (r >> 1) % 4 {
                0 => text.push_str(&"0".repeat(((r >> 3) % 25) as usize)),
                1 => text.push_str(&(MAX_EXACT - 2 + (r >> 3) % 4).to_string()),
                _ => text.push_str(&digits(1 + (r >> 3) % 20, next())),
            }
            if (r >> 8) % 3 != 0 {
                text.push('.');
                text.push_str(&digits((r >> 10) % 25, next()));
            }
            if check(&text).is_some() {
                accepted += 1;
            }
        }
        assert!(
            accepted > 25_000,
            "only {accepted} inputs took the fast path"
        );
    }
}
