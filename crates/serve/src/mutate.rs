#![cfg(test)]
//! Hostile edits of well-formed inputs for the decoder suites: bit
//! flips, truncation, huge counts, non-finite floats, invalid UTF-8 and
//! garbage words.

/// The numeric literal that starts at or after `at`, as a byte range.
fn number_at(bytes: &[u8], at: usize) -> Option<(usize, usize)> {
    let start = (at..bytes.len()).find(|&i| bytes[i].is_ascii_digit())?;
    let len = bytes[start..]
        .iter()
        .take_while(|b| b.is_ascii_digit() || b"+-.eE".contains(b))
        .count();
    Some((start, start + len))
}

/// One hostile edit of `bytes`, chosen by `kind` (0..6).
pub(crate) fn mutate(bytes: &[u8], kind: u8, at: usize, word: u64) -> Vec<u8> {
    let mut out = bytes.to_vec();
    let at = at % out.len().max(1);
    let splice = |out: &mut Vec<u8>, with: &[u8]| {
        if let Some((start, end)) = number_at(out, at) {
            out.splice(start..end, with.iter().copied());
        }
    };
    match kind {
        0 => out[at] ^= 1 << (word % 8),
        1 => out.truncate(at),
        2 => splice(&mut out, b"18446744073709551616"),
        3 => splice(
            &mut out,
            [&b"NaN"[..], b"1e999", b"-1e999"][(word % 3) as usize],
        ),
        4 => out.insert(at, [0xC0, 0xFF, 0x80][(word % 3) as usize]),
        _ => {
            let end = (at + 8).min(out.len());
            out[at..end].copy_from_slice(&word.to_le_bytes()[..end - at]);
        }
    }
    out
}
