//! Content-addressed 128-bit fingerprints of evaluation inputs.
//!
//! See the crate docs for the full key scheme and collision assumptions.
//! [`ColumnDigest`] digests a column's values one 64-bit word per step and
//! is what cache keys are made from. [`Hasher128`] is byte-wise FNV-1a over
//! a length-prefixed, domain-tagged encoding (so `("ab", "c")` and
//! `("a", "bc")` hash differently): it combines names, small fields and
//! column digests into keys and, over a whole frame, is
//! [`fingerprint_frame`].

use tabular::{DataFrame, Label};

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

/// [`ColumnDigest`] lane keys and initial states: odd, bit-balanced
/// constants (a wyhash secret).
const LANE_KEY: [u64; 2] = [0xa076_1d64_78bd_642f, 0xe703_7ed1_a0b4_28db];
const LANE_INIT: [u64; 2] = [0x8ebc_6af0_9c88_c6e3, 0x5899_65cc_7537_4cc3];

/// The 64×64→128-bit product folded onto itself: one step carries high
/// input bits into low output bits and back.
fn fold_mul(a: u64, b: u64) -> u64 {
    let p = a as u128 * b as u128;
    p as u64 ^ (p >> 64) as u64
}

/// The workspace's column digest: 128 bits over the values' IEEE-754 bit
/// patterns (`-0.0 != 0.0`, NaN payloads kept) and their count. Two
/// independently keyed lanes absorb every word with one folded multiply;
/// the state is the lanes and the count, so a column fed run by run —
/// chunk by chunk — digests to [`fingerprint_values`] of the whole.
#[derive(Debug, Clone)]
pub struct ColumnDigest {
    lanes: [u64; 2],
    words: u64,
}

impl Default for ColumnDigest {
    fn default() -> Self {
        ColumnDigest {
            lanes: LANE_INIT,
            words: 0,
        }
    }
}

impl ColumnDigest {
    fn write_word(&mut self, w: u64) {
        self.lanes[0] = fold_mul(self.lanes[0] ^ w, LANE_KEY[0]);
        self.lanes[1] = fold_mul(self.lanes[1] ^ w, LANE_KEY[1]);
        self.words += 1;
    }

    /// The next run of values, in row order.
    pub fn write(&mut self, values: &[f64]) {
        for &v in values {
            self.write_word(v.to_bits());
        }
    }

    /// Absorbs the count (under the other lane's key, so it is no data
    /// word), then avalanches each lane with MurmurHash3's bijective
    /// `fmix64`.
    pub fn finish(&self) -> Fingerprint {
        let lane = |i: usize| {
            let mut x = fold_mul(self.lanes[i] ^ self.words, LANE_KEY[1 - i]);
            x = (x ^ x >> 33).wrapping_mul(0xff51_afd7_ed55_8ccd);
            x = (x ^ x >> 33).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
            x ^ x >> 33
        };
        Fingerprint((lane(0) as u128) << 64 | lane(1) as u128)
    }
}

/// The [`ColumnDigest`] of a column held in one piece — what the score
/// cache, the signature cache and the learners' bin cache key a column by.
pub fn fingerprint_values(values: &[f64]) -> Fingerprint {
    let mut digest = ColumnDigest::default();
    digest.write(values);
    digest.finish()
}

/// Section tags keeping the byte encodings self-delimiting.
const TAG_FRAME: u8 = 0xF0;
const TAG_COLUMN: u8 = 0xF1;
const TAG_LABEL_CLASS: u8 = 0xF2;
const TAG_LABEL_REG: u8 = 0xF3;
const TAG_KEY: u8 = 0xF5;
const TAG_CONFIG: u8 = 0xF6;

/// Fingerprint a frame's full content byte by byte: name, shape, every
/// column name and value bit pattern, and the label. This is the *result*
/// fingerprint `perf_e2e` prints per search and the determinism suites
/// compare, so its value is pinned (`tests/properties.rs`); no cache key
/// is made from it.
pub fn fingerprint_frame(frame: &DataFrame) -> Fingerprint {
    let mut h = Hasher128::new();
    h.write_byte(TAG_FRAME);
    h.write_str(&frame.name);
    h.write_u64(frame.n_rows() as u64);
    h.write_u64(frame.n_cols() as u64);
    for col in frame.columns() {
        h.write_byte(TAG_COLUMN);
        h.write_str(&col.name);
        for &v in &col.values {
            h.write_u64(v.to_bits());
        }
    }
    match frame.label() {
        Label::Class { y, n_classes } => {
            h.write_byte(TAG_LABEL_CLASS);
            h.write_u64(*n_classes as u64);
            for &c in y {
                h.write_u64(c as u64);
            }
        }
        Label::Reg(targets) => {
            h.write_byte(TAG_LABEL_REG);
            for &t in targets {
                h.write_u64(t.to_bits());
            }
        }
    }
    h.finish()
}

/// Score-cache key state of a frame's leading columns: dataset name, row
/// count, the label's digest, then each column as `(name, column
/// digest)`, combined byte-wise. One more [`push`](Self::push) and a
/// scorer's config digest make a key
/// ([`Evaluator::key_of`](crate::Evaluator::key_of)). The config section's
/// tag closes the column list — there is no column count — so a whole
/// frame's state is also the prefix state of its one-column extensions.
#[derive(Debug, Clone)]
pub struct KeyPrefix {
    state: Hasher128,
}

impl KeyPrefix {
    /// The state of a frame called `name` with `n_rows` rows and `label`,
    /// before its first column.
    pub fn new(name: &str, n_rows: usize, label: &Label) -> Self {
        let mut state = Hasher128::new();
        state.write_byte(TAG_KEY);
        state.write_str(name);
        state.write_u64(n_rows as u64);
        let mut digest = ColumnDigest::default();
        match label {
            Label::Class { y, n_classes } => {
                state.write_byte(TAG_LABEL_CLASS);
                state.write_u64(*n_classes as u64);
                for &c in y {
                    digest.write_word(c as u64);
                }
            }
            Label::Reg(targets) => {
                state.write_byte(TAG_LABEL_REG);
                digest.write(targets);
            }
        }
        state.write_u128(digest.finish().0);
        KeyPrefix { state }
    }

    /// The state of a whole frame: its label and every column, digested.
    pub(crate) fn of_frame(frame: &DataFrame) -> Self {
        let mut key = KeyPrefix::new(&frame.name, frame.n_rows(), frame.label());
        for col in frame.columns() {
            key.push(&col.name, fingerprint_values(&col.values));
        }
        key
    }

    /// The next column: its name and the digest of its values.
    pub fn push(&mut self, name: &str, values: Fingerprint) {
        self.state.write_byte(TAG_COLUMN);
        self.state.write_str(name);
        self.state.write_u128(values.0);
    }

    /// The key of the frame this state describes, under `config`.
    pub(crate) fn finish(mut self, config: Fingerprint) -> Fingerprint {
        self.state.write_byte(TAG_CONFIG);
        self.state.write_u128(config.0);
        self.state.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashSet;
    use tabular::Column;

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

    /// Values a digest must not confuse: both zeros, infinities, two NaN
    /// payloads, the smallest and largest subnormals, and arbitrary bits.
    fn awkward_value(rng: &mut StdRng) -> f64 {
        match rng.gen_range(0..12) {
            0 => 0.0,
            1 => -0.0,
            2 => f64::NAN,
            3 => f64::from_bits(0x7ff8_0000_0000_0001),
            4 => f64::INFINITY,
            5 => f64::NEG_INFINITY,
            6 => f64::from_bits(1),
            7 => f64::from_bits(0x000f_ffff_ffff_ffff),
            _ => f64::from_bits(rng.gen()),
        }
    }

    fn random_column(rng: &mut StdRng, n: usize) -> Vec<f64> {
        (0..n).map(|_| f64::from_bits(rng.gen())).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any partition of a column into runs — empty runs included —
        /// digests to `fingerprint_values` of the whole.
        #[test]
        fn digest_is_split_invariant(seed in 0u64..1_000_000, n in 0usize..200) {
            let mut rng = StdRng::seed_from_u64(seed);
            let values: Vec<f64> = (0..n).map(|_| awkward_value(&mut rng)).collect();
            let mut digest = ColumnDigest::default();
            let mut at = 0;
            while at < n {
                let run = rng.gen_range(0..=n - at);
                digest.write(&values[at..at + run]);
                at += run;
            }
            digest.write(&[]);
            prop_assert_eq!(digest.finish(), fingerprint_values(&values));
        }
    }

    #[test]
    fn length_is_part_of_the_digest() {
        for x in [0.0, 1.0, f64::NAN] {
            let grown = [
                fingerprint_values(&[]),
                fingerprint_values(&[x]),
                fingerprint_values(&[x, 0.0]),
                fingerprint_values(&[x, 0.0, 0.0]),
            ];
            let distinct: HashSet<_> = grown.iter().collect();
            assert_eq!(distinct.len(), grown.len());
        }
    }

    #[test]
    fn bit_level_sensitivity() {
        let a = fingerprint_values(&[0.0, 1.0]);
        let b = fingerprint_values(&[-0.0, 1.0]);
        assert_ne!(a, b, "-0.0 and 0.0 must address different entries");
        let a = fingerprint_frame(&frame("d", vec![0.0, 1.0]));
        let b = fingerprint_frame(&frame("d", vec![-0.0, 1.0]));
        assert_ne!(a, b, "nor may a result fingerprint confuse them");

        // Every single-bit flip and every adjacent-word swap of a
        // 1 000-word column moves the digest.
        let mut rng = StdRng::seed_from_u64(0xB175);
        let mut column = random_column(&mut rng, 1000);
        let base = fingerprint_values(&column);
        for i in 0..column.len() {
            let original = column[i];
            for bit in 0..64 {
                column[i] = f64::from_bits(original.to_bits() ^ 1u64 << bit);
                assert_ne!(fingerprint_values(&column), base, "word {i} bit {bit}");
            }
            column[i] = original;
        }
        for i in 0..column.len() - 1 {
            assert_ne!(column[i].to_bits(), column[i + 1].to_bits());
            column.swap(i, i + 1);
            assert_ne!(fingerprint_values(&column), base, "swap {i}");
            column.swap(i, i + 1);
        }
        assert_eq!(fingerprint_values(&column), base);
    }

    /// Each of the 128 output bits flips for about half of all single-bit
    /// input flips, wherever in the column the flip lands (the last word
    /// included). One word-wise FNV lane fails this: a flipped high input
    /// bit never reaches the low output bits.
    #[test]
    fn digest_avalanches() {
        const TRIALS: usize = 8192;
        let mut rng = StdRng::seed_from_u64(0xA7A1);
        let mut flipped = [0usize; 128];
        for _ in 0..TRIALS {
            let n = rng.gen_range(1..96);
            let mut column = random_column(&mut rng, n);
            let base = fingerprint_values(&column).0;
            let (i, bit) = (rng.gen_range(0..n), rng.gen_range(0..64));
            column[i] = f64::from_bits(column[i].to_bits() ^ 1u64 << bit);
            let diff = base ^ fingerprint_values(&column).0;
            for (out, count) in flipped.iter_mut().enumerate() {
                *count += (diff >> out & 1) as usize;
            }
        }
        for (out, &count) in flipped.iter().enumerate() {
            let frac = count as f64 / TRIALS as f64;
            assert!((0.35..=0.65).contains(&frac), "output bit {out}: {frac}");
        }
    }

    /// No two of 2·10⁵ near-duplicate columns collide: one ULP apart, one
    /// row pair swapped, one value appended.
    #[test]
    fn near_duplicates_do_not_collide() {
        const ROWS: usize = 200;
        let mut rng = StdRng::seed_from_u64(0xD0_0B1E);
        let mut seen: HashSet<Fingerprint> = HashSet::new();
        let mut columns = 0usize;
        for base in 0..10 {
            // Distinct, well-separated values, so every variant below is a
            // different column.
            let column: Vec<f64> = (0..ROWS)
                .map(|i| (base * ROWS + i) as f64 + rng.gen_range(0.1..0.9))
                .collect();
            let mut variant = column.clone();
            let mut record = |v: &[f64]| {
                seen.insert(fingerprint_values(v));
                columns += 1;
            };
            record(&variant);
            for i in 0..ROWS {
                for ulp in [1u64, u64::MAX] {
                    variant[i] = f64::from_bits(column[i].to_bits().wrapping_add(ulp));
                    record(&variant);
                }
                variant[i] = column[i];
                for j in i + 1..ROWS {
                    variant.swap(i, j);
                    record(&variant);
                    variant.swap(i, j);
                }
            }
            for &extra in &column {
                variant.push(extra);
                record(&variant);
                variant.pop();
            }
        }
        assert!(columns >= 200_000, "{columns}");
        assert_eq!(seen.len(), columns);
    }

    fn key(frame: &DataFrame, config: u128) -> Fingerprint {
        KeyPrefix::of_frame(frame).finish(Fingerprint(config))
    }

    #[test]
    fn every_identity_reaches_the_key() {
        let reg = |name: &str, col: &str, vals: Vec<f64>, targets: Vec<f64>| {
            DataFrame::new(name, vec![Column::new(col, vals)], Label::Reg(targets)).unwrap()
        };
        let base = reg("d", "c0", vec![1.0, 2.0], vec![0.0, 1.0]);
        let keys = [
            key(&base, 7),
            key(&base, 8),
            key(&reg("e", "c0", vec![1.0, 2.0], vec![0.0, 1.0]), 7),
            key(&reg("d", "c1", vec![1.0, 2.0], vec![0.0, 1.0]), 7),
            key(&reg("d", "c0", vec![1.0, -2.0], vec![0.0, 1.0]), 7),
            key(&reg("d", "c0", vec![1.0, 2.0], vec![0.0, -1.0]), 7),
            key(&reg("d", "c0", vec![1.0, 2.0, 3.0], vec![0.0, 1.0, 0.0]), 7),
            // Class labels 0, 1 against regression targets with the very
            // same bit patterns, and against one more class.
            key(&frame("d", vec![1.0, 2.0]), 7),
            key(
                &reg(
                    "d",
                    "c0",
                    vec![1.0, 2.0],
                    vec![f64::from_bits(0), f64::from_bits(1)],
                ),
                7,
            ),
            key(
                &DataFrame::new(
                    "d",
                    vec![Column::new("c0", vec![1.0, 2.0])],
                    Label::Class {
                        y: vec![0, 1],
                        n_classes: 3,
                    },
                )
                .unwrap(),
                7,
            ),
        ];
        let distinct: HashSet<_> = keys.iter().collect();
        assert_eq!(distinct.len(), keys.len());
    }

    #[test]
    fn a_frame_s_key_state_is_the_prefix_of_its_extensions() {
        let selected = frame("d", vec![1.0, 2.0, 3.0]);
        let extra = Column::new("", vec![0.0, -0.0, f64::NAN]);
        let extended = selected
            .with_extra_columns(std::slice::from_ref(&extra))
            .unwrap();
        let mut pushed = KeyPrefix::of_frame(&selected);
        pushed.push(&extra.name, fingerprint_values(&extra.values));
        assert_eq!(pushed.finish(Fingerprint(7)), key(&extended, 7));
        assert_ne!(key(&selected, 7), key(&extended, 7));
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
