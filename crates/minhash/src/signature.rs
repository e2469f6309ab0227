//! MinHash signatures: what a sketch returns and the signature cache keeps.

use serde::{Deserialize, Serialize};

/// One signature element: which input dimension won the minimum, plus the
/// family-specific discretised value (`t` in the CWS literature; 0 for
/// 0-bit CWS and plain MinHash, which only keep the winning dimension).
///
/// `t` is stored as an `i32` to keep cached signatures and the serialised
/// wire format compact (8 bytes per element instead of 16 with padding).
/// Range argument: `t = ⌊ln w / r + β⌋` (or `⌊w / r + β⌋` for CCWS), so
/// `|t|` exceeds `i32` range only when the Gamma/Beta draw `r` is smaller
/// than `|ln w| / 2³¹` — for the O(1)-scale weights the sample compressor
/// produces that event has probability below ~10⁻¹⁶ per draw, and the
/// conversion saturates (see `families::discretize_t`) rather than wraps,
/// so the rare overflow can only merge two already-astronomical `t` values
/// into one collision bucket, never corrupt a signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub(crate) struct SigElement {
    /// Index of the winning input dimension (sample index for E-AFE's
    /// sample compressor).
    pub(crate) key: u32,
    /// Discretised auxiliary value; collision requires both fields to match.
    pub(crate) t: i32,
}

/// A fixed-length MinHash signature: the `d` rows a
/// [`SampleCompressor`](crate::SampleCompressor) sampled from a column.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Signature {
    pub(crate) elements: Vec<SigElement>,
}

impl Signature {
    /// Wrap raw elements.
    pub(crate) fn new(elements: Vec<SigElement>) -> Self {
        Self { elements }
    }

    /// The winning dimension per hash — the indices the sample compressor
    /// gathers from the original column.
    pub(crate) fn keys(&self) -> impl Iterator<Item = usize> + '_ {
        self.elements.iter().map(|e| e.key as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig(pairs: &[(u32, i32)]) -> Signature {
        Signature::new(
            pairs
                .iter()
                .map(|&(key, t)| SigElement { key, t })
                .collect(),
        )
    }

    #[test]
    fn keys_iterates_winning_dimensions() {
        let s = sig(&[(7, 0), (9, 2)]);
        assert_eq!(s.keys().collect::<Vec<_>>(), vec![7, 9]);
    }

    #[test]
    fn serde_round_trip_preserves_compact_t() {
        // The wire format must survive the i64 → i32 shrink of `t`,
        // including the saturation boundary values.
        let s = sig(&[
            (0, 0),
            (7, -3),
            (u32::MAX, i32::MAX),
            (42, i32::MIN),
            (9, 1),
        ]);
        let json = serde_json::to_string(&s).unwrap();
        assert_eq!(
            json,
            r#"{"elements":[{"key":0,"t":0},{"key":7,"t":-3},{"key":4294967295,"t":2147483647},{"key":42,"t":-2147483648},{"key":9,"t":1}]}"#
        );
        let back: Signature = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
        assert_eq!(back.similarity(&s), Some(1.0));
    }
}
