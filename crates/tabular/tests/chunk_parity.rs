//! Property-based parity suite for the out-of-core chunk layer
//! (DESIGN.md §14): whatever values go into a chunk must come back out
//! bit-for-bit — through the in-RAM encodings, through the `.eafc` byte
//! format, through budget-driven spill/evict cycles.
//!
//! All comparisons are on `f64::to_bits`, so NaN payloads and signed
//! zeros are part of the contract, not an exception to it.

use proptest::prelude::*;
use tabular::{
    ChunkEncoding, ChunkOptions, ChunkedFrame, Column, DataFrame, FrameBudget, InMemoryStore,
    Label, MmapStore,
};

/// Raw continuous material every property draws from.
fn raw_values(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e9f64..1e9, 1..max_len)
}

/// Shape raw draws into one of three input classes:
/// - `0` — low cardinality (≤ `dict_size` distinct values, repeated):
///   forces the Dict8/Dict16 encodings;
/// - `1` — high-cardinality continuous: drives the F64 fallback;
/// - `2` — adversarial bit patterns (NaN, infinities, signed zeros,
///   subnormals): the encoder must treat these as ordinary 64-bit
///   payloads.
fn shape(raw: &[f64], kind: usize, dict_size: usize) -> Vec<f64> {
    match kind {
        0 => {
            let d = dict_size.min(raw.len());
            raw.iter().enumerate().map(|(i, _)| raw[i % d]).collect()
        }
        1 => raw.to_vec(),
        _ => raw
            .iter()
            .enumerate()
            .map(|(i, &v)| match (i + v.to_bits() as usize) % 7 {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                3 => 0.0,
                4 => -0.0,
                5 => f64::MIN_POSITIVE / 2.0, // subnormal
                _ => v,
            })
            .collect(),
    }
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// decode_into / value_at / fold_values all reproduce the input
    /// bit-for-bit, whichever encoding the chunk picked.
    #[test]
    fn encode_decode_round_trips_bitwise(
        raw in raw_values(600),
        kind in 0usize..3,
        dict_size in 1usize..24,
    ) {
        let values = shape(&raw, kind, dict_size);
        let enc = ChunkEncoding::encode(&values);
        prop_assert_eq!(enc.len(), values.len());

        let mut decoded = Vec::new();
        enc.decode_into(&mut decoded);
        prop_assert_eq!(bits(&decoded), bits(&values), "decode_into mismatch");

        for (i, v) in values.iter().enumerate() {
            prop_assert_eq!(
                enc.value_at(i).to_bits(),
                v.to_bits(),
                "value_at({}) mismatch", i
            );
        }

        let folded = enc.fold_values(Vec::new(), |mut acc, v| {
            acc.push(v.to_bits());
            acc
        });
        prop_assert_eq!(folded, bits(&values), "fold_values mismatch");
    }

    /// The `.eafc` payload serialization is lossless: to_bytes →
    /// from_bytes → decode equals the original values. (The encodings
    /// themselves can't be compared with `==` — NaN dictionary entries
    /// defeat PartialEq — so equality is asserted on decoded bits.)
    #[test]
    fn byte_format_round_trips_bitwise(
        raw in raw_values(600),
        kind in 0usize..3,
        dict_size in 1usize..24,
    ) {
        let values = shape(&raw, kind, dict_size);
        let enc = ChunkEncoding::encode(&values);
        let restored = ChunkEncoding::from_bytes(&enc.to_bytes()).unwrap();
        prop_assert_eq!(restored.len(), enc.len());
        let mut a = Vec::new();
        let mut b = Vec::new();
        enc.decode_into(&mut a);
        restored.decode_into(&mut b);
        prop_assert_eq!(bits(&a), bits(&b));
        // Re-encoding the decoded values is deterministic down to the wire.
        prop_assert_eq!(ChunkEncoding::encode(&b).to_bytes(), enc.to_bytes());
    }

    /// Low-cardinality inputs actually take a dictionary encoding, the
    /// dictionary covers exactly the distinct bit patterns, and it beats
    /// raw f64 storage.
    #[test]
    fn dictionary_encoding_kicks_in(
        dict_vals in prop::collection::vec(-50.0f64..50.0, 1..24),
        picks in prop::collection::vec(0usize..100_000, 64..600),
    ) {
        let values: Vec<f64> = picks
            .iter()
            .map(|p| dict_vals[p % dict_vals.len()])
            .collect();
        let enc = ChunkEncoding::encode(&values);
        let dict = enc.dict();
        prop_assert!(dict.is_some(), "small-dict input fell back to F64");
        let mut distinct: Vec<u64> = bits(&values);
        distinct.sort_unstable();
        distinct.dedup();
        let mut dict_bits = bits(dict.unwrap());
        dict_bits.sort_unstable();
        prop_assert_eq!(dict_bits, distinct, "dict != distinct value set");
        prop_assert!(
            enc.heap_bytes() < values.len() * 8,
            "dictionary form didn't compress: {} >= {}",
            enc.heap_bytes(),
            values.len() * 8
        );
    }

    /// ChunkedFrame round trip: from_dataframe → to_dataframe is
    /// bit-identical for any chunk size, including chunk_rows that don't
    /// divide the row count.
    #[test]
    fn frame_round_trips_across_chunk_sizes(
        raw in raw_values(400),
        kind in 0usize..3,
        dict_size in 1usize..24,
        chunk_rows in 1usize..97,
    ) {
        let values = shape(&raw, kind, dict_size);
        let n = values.len();
        let df = DataFrame::new(
            "prop-roundtrip",
            vec![
                Column::new("x0", values.clone()),
                Column::new("x1", values.iter().rev().copied().collect()),
            ],
            Label::Reg(vec![0.0; n]),
        ).unwrap();
        let cf = ChunkedFrame::from_dataframe(
            &df,
            ChunkOptions::default().with_chunk_rows(chunk_rows),
            Box::new(InMemoryStore::new()),
        ).unwrap();
        prop_assert_eq!(cf.n_chunks(), n.div_ceil(chunk_rows));
        let back = cf.to_dataframe().unwrap();
        for (orig, got) in df.columns().iter().zip(back.columns()) {
            prop_assert_eq!(&orig.name, &got.name);
            prop_assert_eq!(bits(&orig.values), bits(&got.values));
        }
    }

    /// A budget small enough to force spill + eviction churn must not
    /// change a single bit of any materialized column — resident-set
    /// management is invisible to readers.
    #[test]
    fn tight_budget_spill_is_bitwise_invisible(
        raw in raw_values(300),
        kind in 0usize..3,
        dict_size in 1usize..24,
        chunk_rows in 1usize..49,
    ) {
        let values = shape(&raw, kind, dict_size);
        let df = DataFrame::new(
            "prop-spill",
            vec![Column::new("x0", values.clone())],
            Label::Reg(vec![0.0; values.len()]),
        ).unwrap();
        let cf = ChunkedFrame::from_dataframe(
            &df,
            ChunkOptions::default()
                .with_chunk_rows(chunk_rows)
                .with_budget(FrameBudget::from_bytes(64)),
            Box::new(InMemoryStore::new()),
        ).unwrap();
        let mut out = Vec::new();
        cf.materialize_column(0, &mut out).unwrap();
        prop_assert_eq!(bits(&out), bits(&values));
        // Random access after the full scan still sees the same bits.
        for i in (0..values.len()).step_by(7) {
            prop_assert_eq!(
                cf.value_at(0, i).unwrap().to_bits(),
                values[i].to_bits(),
                "value_at({}) after spill churn", i
            );
        }
    }
}

/// The file-backed store serves the same bits as the in-memory store —
/// a single deterministic (non-proptest) case so the on-disk `.eafc`
/// pipeline is always exercised.
#[test]
fn mmap_store_round_trip_matches_memory_store() {
    let n = 10_000usize;
    let values: Vec<f64> = (0..n)
        .map(|i| match i % 7 {
            0 => f64::NAN,
            1 => -0.0,
            2 => (i % 13) as f64,
            _ => (i as f64 * 0.37).sin() * 1e6,
        })
        .collect();
    let df = DataFrame::new(
        "mmap-roundtrip",
        vec![Column::new("x0", values.clone())],
        Label::Reg(vec![0.0; n]),
    )
    .unwrap();
    let opts = ChunkOptions::default()
        .with_chunk_rows(512)
        .with_budget(FrameBudget::from_bytes(4096));
    let dir = std::env::temp_dir().join(format!("eafc-parity-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("col.eafc");

    let mem = ChunkedFrame::from_dataframe(&df, opts, Box::new(InMemoryStore::new())).unwrap();
    let mapped =
        ChunkedFrame::from_dataframe(&df, opts, Box::new(MmapStore::create(&path).unwrap()))
            .unwrap();

    let (mut a, mut b) = (Vec::new(), Vec::new());
    mem.materialize_column(0, &mut a).unwrap();
    mapped.materialize_column(0, &mut b).unwrap();
    assert_eq!(bits(&a), bits(&b), "mmap vs memory store bits");
    assert_eq!(bits(&a), bits(&values), "store round trip vs original");
    assert!(
        mapped.stats().chunks_spilled > 0,
        "the tight budget must actually exercise the spill path"
    );
    drop(mapped);
    let _ = std::fs::remove_dir_all(&dir);
}
