//! Wire messages and the framed codec.
//!
//! Messages reuse the workspace's vendored serde model (the same
//! externally-tagged JSON the telemetry trace format uses) and travel as
//! length-prefixed frames: an 8-byte little-endian payload length
//! followed by that many bytes of UTF-8 JSON. Finite `f64` values print
//! shortest-roundtrip, so scores and column values survive the wire
//! bit-exactly — the property the determinism contract leans on.

use eafe::Engine;
use minhash::Signature;
use runtime::CacheSnapshot;
use serde::{Deserialize, Serialize};
use tabular::{Column, DataFrame};

/// Seed stream for shard tickets: the ticket of shard `i` under root
/// seed `r` is `runtime::derive_seed(r, STREAM_WORKER, i)`. Workers echo
/// the ticket back with their result; the coordinator discards any result
/// whose `(slice, round, shard, seed)` does not match an outstanding
/// dispatch, which is what makes replays after a crash-reassignment safe
/// to receive in any order.
pub(crate) const STREAM_WORKER: u64 = 0x776f_726b; // "work"

/// The payload of one work shard: what the worker computes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum ShardTasks {
    /// Round A — sketch and FPE-score candidate columns, warming the
    /// process-wide signature cache; the result carries the cache delta.
    Fpe { columns: Vec<Column> },
    /// Round B — evaluate `prefix + candidates[k]` on the downstream
    /// learner for every `k`, warming the score cache. The prefix (the
    /// coordinator's current selected frame) ships once per shard; each
    /// evaluation frame is rebuilt worker-side with the same
    /// `with_extra_columns` construction the sequential search uses, so
    /// content-addressed fingerprints line up entry for entry.
    Eval {
        prefix: DataFrame,
        candidates: Vec<Column>,
    },
}

/// One unit of dispatch: shard `shard` of a dispatch round.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkShard {
    /// Coordinator slice counter (one slice per `Engine::step`).
    pub slice: u64,
    /// Dispatch round within the slice: 0 = FPE warm, 1 = eval warm.
    pub round: u32,
    /// Shard index within the round; results merge in ascending order.
    pub shard: u32,
    /// Ticket seed: `derive_seed(root, STREAM_WORKER, shard)`.
    pub seed: u64,
    /// The work itself.
    pub tasks: ShardTasks,
}

/// A worker's answer to one [`WorkShard`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardResult {
    /// Echo of the shard's slice counter.
    pub slice: u64,
    /// Echo of the dispatch round.
    pub round: u32,
    /// Echo of the shard index.
    pub shard: u32,
    /// Echo of the ticket seed.
    pub seed: u64,
    /// Downstream CV scores keyed by evaluation fingerprint (round B).
    pub scores: CacheSnapshot<f64>,
    /// MinHash signatures keyed by sketch fingerprint (round A).
    pub sigs: CacheSnapshot<Signature>,
    /// Microseconds the worker spent computing this shard.
    pub busy_us: u64,
}

impl ShardResult {
    /// Does this result answer `shard`? Used by the coordinator to
    /// discard stale or replayed results after a crash-reassignment.
    pub(crate) fn matches(&self, shard: &WorkShard) -> bool {
        self.slice == shard.slice
            && self.round == shard.round
            && self.shard == shard.shard
            && self.seed == shard.seed
    }
}

/// Protocol messages. A session is `Hello (Work Result)* Bye`: the
/// coordinator speaks `Hello`/`Work`/`Bye`, the worker answers every
/// `Work` with exactly one `Result`.
// `Hello` dwarfs the other variants, but a `Msg` only ever exists
// transiently on its way into/out of the codec — never in bulk storage —
// so boxing the engine would buy nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Msg {
    /// Install the engine (method definition: config + gate, including
    /// any FPE model — the engine's process-local cache is not
    /// serialized). Sent once per session before any work.
    Hello { engine: Engine },
    /// Execute a shard.
    Work(WorkShard),
    /// Answer a shard.
    Result(ShardResult),
    /// Orderly shutdown; the worker's serve loop returns.
    Bye,
}

/// Encode a message to its JSON payload bytes (no length prefix).
pub fn encode(msg: &Msg) -> crate::Result<Vec<u8>> {
    let text = serde_json::to_string(&msg.to_value())
        .map_err(|e| crate::DistError::Codec(format!("{e}")))?;
    Ok(text.into_bytes())
}

/// Decode a message from its JSON payload bytes.
pub fn decode(payload: &[u8]) -> crate::Result<Msg> {
    let text = std::str::from_utf8(payload)
        .map_err(|e| crate::DistError::Codec(format!("frame is not UTF-8: {e}")))?;
    let value = serde_json::from_str(text).map_err(|e| crate::DistError::Codec(format!("{e}")))?;
    Msg::from_value(&value).map_err(|e| crate::DistError::Codec(format!("{e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use runtime::derive_seed;

    fn column(name: &str, values: Vec<f64>) -> Column {
        Column {
            name: name.into(),
            values,
        }
    }

    fn tiny_frame() -> DataFrame {
        DataFrame::new(
            "tiny",
            vec![column("x", vec![0.0, 1.0])],
            tabular::Label::Class {
                y: vec![0, 1],
                n_classes: 2,
            },
        )
        .unwrap()
    }

    #[test]
    fn work_shard_round_trips_through_the_codec() {
        let shard = WorkShard {
            slice: 3,
            round: 0,
            shard: 1,
            seed: derive_seed(41, STREAM_WORKER, 1),
            tasks: ShardTasks::Fpe {
                columns: vec![column("a*b", vec![1.5, -0.0, 2.25e-17])],
            },
        };
        let bytes = encode(&Msg::Work(shard.clone())).unwrap();
        let Msg::Work(back) = decode(&bytes).unwrap() else {
            panic!("decoded wrong variant");
        };
        assert_eq!(back.slice, shard.slice);
        assert_eq!(back.round, shard.round);
        assert_eq!(back.shard, shard.shard);
        assert_eq!(back.seed, shard.seed);
        let ShardTasks::Fpe { columns } = back.tasks else {
            panic!("decoded wrong tasks");
        };
        assert_eq!(columns[0].name, "a*b");
        // Bit-exact floats through the wire, including the sign of zero.
        for (a, b) in columns[0].values.iter().zip([1.5f64, -0.0, 2.25e-17]) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn result_ticket_matching_rejects_stale_results() {
        let shard = WorkShard {
            slice: 1,
            round: 1,
            shard: 0,
            seed: derive_seed(7, STREAM_WORKER, 0),
            tasks: ShardTasks::Eval {
                prefix: tiny_frame(),
                candidates: Vec::new(),
            },
        };
        let mut result = ShardResult {
            slice: 1,
            round: 1,
            shard: 0,
            seed: shard.seed,
            scores: CacheSnapshot::empty(),
            sigs: CacheSnapshot::empty(),
            busy_us: 12,
        };
        assert!(result.matches(&shard));
        result.seed ^= 1; // forged or stale ticket
        assert!(!result.matches(&shard));
        result.seed = shard.seed;
        result.slice = 2; // an earlier slice's replay
        assert!(!result.matches(&shard));
    }

    #[test]
    fn bye_and_result_round_trip() {
        let bytes = encode(&Msg::Bye).unwrap();
        assert!(matches!(decode(&bytes).unwrap(), Msg::Bye));

        let result = ShardResult {
            slice: 0,
            round: 1,
            shard: 2,
            seed: 9,
            scores: CacheSnapshot {
                entries: vec![(runtime::Fingerprint(42), 0.625f64)],
            },
            sigs: CacheSnapshot::empty(),
            busy_us: 100,
        };
        let bytes = encode(&Msg::Result(result)).unwrap();
        let Msg::Result(back) = decode(&bytes).unwrap() else {
            panic!("decoded wrong variant");
        };
        assert_eq!(
            back.scores.entries,
            vec![(runtime::Fingerprint(42), 0.625f64)]
        );
        assert_eq!(back.busy_us, 100);
    }
}
