//! Content-addressed 128-bit fingerprints of evaluation inputs.
//!
//! See the crate docs for the full key scheme and collision assumptions.
//! The digest is FNV-1a over a length-prefixed, domain-tagged byte
//! encoding: every variable-length field is preceded by its length and
//! every logical section by a tag byte, so `("ab", "c")` and `("a", "bc")`
//! hash differently.

use tabular::{Column, DataFrame, Label};

/// A 128-bit content fingerprint, used as a cache key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub u128);

const FNV_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
const FNV_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

/// Incremental FNV-1a-128 hasher with typed, length-prefixed writers.
#[derive(Debug, Clone)]
pub struct Hasher128 {
    state: u128,
}

impl Hasher128 {
    pub fn new() -> Self {
        Hasher128 { state: FNV_OFFSET }
    }

    pub fn write_byte(&mut self, b: u8) {
        self.state = (self.state ^ b as u128).wrapping_mul(FNV_PRIME);
    }

    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_byte(b);
        }
    }

    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    pub fn write_u128(&mut self, v: u128) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Hash the IEEE-754 bit pattern, so `-0.0 != 0.0` and NaN payloads
    /// are preserved — bit-exact content addressing.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Length-prefixed string write.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes());
    }

    pub fn finish(&self) -> Fingerprint {
        Fingerprint(self.state)
    }
}

impl Default for Hasher128 {
    fn default() -> Self {
        Self::new()
    }
}

/// Section tags keeping the frame encoding self-delimiting.
const TAG_FRAME: u8 = 0xF0;
const TAG_COLUMN: u8 = 0xF1;
const TAG_LABEL_CLASS: u8 = 0xF2;
const TAG_LABEL_REG: u8 = 0xF3;
const TAG_VALUES: u8 = 0xF4;

/// Fingerprint a bare value slice (length-prefixed, bit-exact). Used to
/// content-address derived per-column artifacts — e.g. the learners bin
/// cache keys quantised columns by the raw values they were built from.
pub fn fingerprint_values(values: &[f64]) -> Fingerprint {
    let mut h = Hasher128::new();
    h.write_byte(TAG_VALUES);
    h.write_u64(values.len() as u64);
    for &v in values {
        h.write_f64(v);
    }
    h.finish()
}

/// Fingerprint a frame's full content: name, shape, every column name and
/// value bit pattern, and the label.
pub fn fingerprint_frame(frame: &DataFrame) -> Fingerprint {
    PrefixHasher::of_frame(frame, frame.n_cols()).finish(frame.label())
}

/// [`fingerprint_frame`] fed piece by piece, for a frame that never exists
/// in one piece: the header, then each column as its name followed by its
/// values in row order (in as many runs as the caller likes), then the
/// label. A clone taken after the leading columns is the hash state every
/// one-column extension of them shares.
#[derive(Debug, Clone)]
pub struct PrefixHasher {
    state: Hasher128,
}

impl PrefixHasher {
    /// The header of a frame called `name` with `n_rows` rows that will
    /// hold `n_cols` columns.
    pub fn new(name: &str, n_rows: usize, n_cols: usize) -> Self {
        let mut state = Hasher128::new();
        state.write_byte(TAG_FRAME);
        state.write_str(name);
        state.write_u64(n_rows as u64);
        state.write_u64(n_cols as u64);
        PrefixHasher { state }
    }

    /// State after the header (declaring `n_cols` columns) and every
    /// column `frame` holds.
    fn of_frame(frame: &DataFrame, n_cols: usize) -> Self {
        let mut h = PrefixHasher::new(&frame.name, frame.n_rows(), n_cols);
        for col in frame.columns() {
            h.column(&col.name);
            h.values(&col.values);
        }
        h
    }

    /// Begin the next column; its values follow through
    /// [`values`](Self::values).
    pub fn column(&mut self, name: &str) {
        self.state.write_byte(TAG_COLUMN);
        self.state.write_str(name);
    }

    /// The next run of the current column's values, in row order.
    pub fn values(&mut self, values: &[f64]) {
        for &v in values {
            self.state.write_f64(v);
        }
    }

    /// Close the frame with its label.
    pub fn finish(mut self, label: &Label) -> Fingerprint {
        match label {
            Label::Class { y, n_classes } => {
                self.state.write_byte(TAG_LABEL_CLASS);
                self.state.write_u64(*n_classes as u64);
                for &c in y {
                    self.state.write_u64(c as u64);
                }
            }
            Label::Reg(targets) => {
                self.state.write_byte(TAG_LABEL_REG);
                for &t in targets {
                    self.state.write_f64(t);
                }
            }
        }
        self.state.finish()
    }
}

/// A frame that many candidate frames extend by one trailing column,
/// with the hash state shared by all of them computed once.
///
/// A search probes the score cache with `selected + one candidate` frames
/// that differ only in their last column. Hashing such a frame from
/// scratch costs `O(frame)`; the prefix holds the [`PrefixHasher`] state
/// after the header (declaring `n_cols + 1` columns) and every selected
/// column, so [`fingerprint_with`](Self::fingerprint_with) hashes only the
/// candidate column and the label — and equals [`fingerprint_frame`] of
/// the extended frame, bit for bit.
#[derive(Debug, Clone)]
pub struct FramePrefix {
    frame: DataFrame,
    state: PrefixHasher,
}

impl FramePrefix {
    /// Take `frame` as the shared leading part of one-column extensions.
    pub fn new(frame: DataFrame) -> Self {
        let state = PrefixHasher::of_frame(&frame, frame.n_cols() + 1);
        FramePrefix { frame, state }
    }

    /// The shared frame.
    pub fn frame(&self) -> &DataFrame {
        &self.frame
    }

    /// `fingerprint_frame(&self.with_column(extra)?)` without building
    /// the frame.
    pub fn fingerprint_with(&self, extra: &Column) -> Fingerprint {
        let mut h = self.state.clone();
        h.column(&extra.name);
        h.values(&extra.values);
        h.finish(self.frame.label())
    }

    /// The extended frame itself: the shared columns, then `extra`.
    pub fn with_column(&self, extra: &Column) -> tabular::Result<DataFrame> {
        self.frame.with_extra_columns(std::slice::from_ref(extra))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(name: &str, vals: Vec<f64>) -> DataFrame {
        let n = vals.len();
        DataFrame::new(
            name,
            vec![Column::new("c0", vals)],
            Label::Class {
                y: (0..n).map(|i| i % 2).collect(),
                n_classes: 2,
            },
        )
        .unwrap()
    }

    #[test]
    fn equal_content_equal_fingerprint() {
        let a = frame("d", vec![1.0, 2.0, 3.0]);
        let b = frame("d", vec![1.0, 2.0, 3.0]);
        assert_eq!(fingerprint_frame(&a), fingerprint_frame(&b));
    }

    #[test]
    fn any_content_change_changes_fingerprint() {
        let base = fingerprint_frame(&frame("d", vec![1.0, 2.0, 3.0]));
        assert_ne!(base, fingerprint_frame(&frame("e", vec![1.0, 2.0, 3.0])));
        assert_ne!(base, fingerprint_frame(&frame("d", vec![1.0, 2.0, 4.0])));
        let mut renamed = frame("d", vec![1.0, 2.0, 3.0]);
        renamed = DataFrame::new(
            "d",
            vec![Column::new("other", renamed.columns()[0].values.clone())],
            renamed.label().clone(),
        )
        .unwrap();
        assert_ne!(base, fingerprint_frame(&renamed));
    }

    #[test]
    fn bit_level_sensitivity() {
        let a = fingerprint_frame(&frame("d", vec![0.0, 1.0]));
        let b = fingerprint_frame(&frame("d", vec![-0.0, 1.0]));
        assert_ne!(a, b, "-0.0 and 0.0 must address different entries");
    }

    #[test]
    fn label_distinguishes_class_from_reg() {
        let c = frame("d", vec![1.0, 2.0]);
        let r = DataFrame::new(
            "d",
            vec![Column::new("c0", vec![1.0, 2.0])],
            Label::Reg(vec![0.0, 1.0]),
        )
        .unwrap();
        assert_ne!(fingerprint_frame(&c), fingerprint_frame(&r));
    }

    #[test]
    fn length_prefix_prevents_concat_ambiguity() {
        let mut h1 = Hasher128::new();
        h1.write_str("ab");
        h1.write_str("c");
        let mut h2 = Hasher128::new();
        h2.write_str("a");
        h2.write_str("bc");
        assert_ne!(h1.finish(), h2.finish());
    }
}
