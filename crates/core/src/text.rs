//! Decimal rendering for the kernel's text outputs (the JSONL trace sink
//! and `stats_export`): integers are appended straight into the caller's
//! byte buffer, with no `core::fmt` machinery and no allocation beyond the
//! buffer's own growth. The writers build ASCII bytes and check them as
//! UTF-8 once per finished text (or never, when the bytes go straight to
//! a writer), not once per number.

/// `"00" "01" … "99"`: two digits per lookup.
const DIGIT_PAIRS: &[u8; 200] = b"\
0001020304050607080910111213141516171819\
2021222324252627282930313233343536373839\
4041424344454647484950515253545556575859\
6061626364656667686970717273747576777879\
8081828384858687888990919293949596979899";

/// Appends the decimal digits of `v` (the same bytes as `v.to_string()`).
#[inline]
pub(crate) fn push_u64(out: &mut Vec<u8>, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    while v >= 100 {
        let pair = (v % 100) as usize * 2;
        v /= 100;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if v >= 10 {
        let pair = v as usize * 2;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        i -= 1;
        buf[i] = b'0' + v as u8;
    }
    out.extend_from_slice(&buf[i..]);
}

/// Appends the decimal digits of `v`, exactly, for sums wider than `u64`.
pub(crate) fn push_u128(out: &mut Vec<u8>, v: u128) {
    const TEN_POW_19: u128 = 10_000_000_000_000_000_000;
    match u64::try_from(v) {
        Ok(narrow) => push_u64(out, narrow),
        Err(_) => {
            push_u128(out, v / TEN_POW_19);
            // The low 19 digits, zero-padded.
            let low = (v % TEN_POW_19) as u64;
            out.extend(std::iter::repeat_n(b'0', 19 - decimal_len(low)));
            push_u64(out, low);
        }
    }
}

/// Bytes [`push_u128`] (or [`push_u64`]) appends for `v`.
pub(crate) fn decimal_len(v: impl Into<u128>) -> usize {
    v.into().checked_ilog10().map_or(1, |d| d as usize + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_to_string_at_every_width() {
        let mut values: Vec<u128> = vec![0, 1, 9, 10, 99, 100, 101, 999, 1_000];
        for p in 1..=38u32 {
            let t = 10u128.pow(p);
            values.extend([t - 1, t, t + 1]);
        }
        values.extend([
            u128::from(u32::MAX),
            u128::from(u64::MAX) - 1,
            u128::from(u64::MAX),
            u128::from(u64::MAX) + 1,
            u128::from(u64::MAX) * 2,
            u128::MAX - 1,
            u128::MAX,
        ]);
        for v in values {
            let mut s = b"x".to_vec();
            push_u128(&mut s, v);
            assert_eq!(s, format!("x{v}").into_bytes());
            assert_eq!(decimal_len(v), s.len() - 1, "{v}");
            if let Ok(narrow) = u64::try_from(v) {
                let mut s = Vec::new();
                push_u64(&mut s, narrow);
                assert_eq!(s, v.to_string().into_bytes());
                assert_eq!(decimal_len(narrow), s.len(), "{v}");
            }
        }
    }
}
