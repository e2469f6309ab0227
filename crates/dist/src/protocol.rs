//! Wire messages and the framed codec.
//!
//! Messages reuse the workspace's vendored serde model (the same
//! externally-tagged JSON the telemetry trace format uses) and travel as
//! length-prefixed frames: an 8-byte little-endian payload length
//! followed by that many bytes of UTF-8 JSON. Finite `f64` values print
//! shortest-roundtrip, so scores and column values survive the wire
//! bit-exactly — the property the determinism contract leans on.
//!
//! # Remembered columns
//!
//! An `Eval` shard names a column its connection has already carried by
//! identity instead of by value. Each end of a connection remembers the
//! columns of the last `Eval` shard that crossed it — the sending end
//! (`Encoder`) by their value digests ([`runtime::fingerprint_values`]),
//! the receiving end (`Decoder`) by the values, keyed by digests it
//! computes itself — and both apply the same rule, so no acknowledgement
//! is needed:
//!
//! - in an `Eval` shard (prefix columns, then candidates), a column whose
//!   digest is remembered travels as `{"name": …, "digest": [hi, lo]}`,
//!   every other column as `{"name": …, "values": […]}`; afterwards the
//!   remembered set is exactly that shard's columns, so it never holds
//!   more than one shard;
//! - `Hello` empties it; `Fpe` shards, `Result` and `Bye` leave it alone.
//!
//! A reference the decoder does not hold (a peer out of step, a forged
//! digest, a reference before any `Eval`) is a [`DistError::Protocol`],
//! never a lookup by the announced digest. [`encode`] and [`decode`] are
//! the codec with nothing remembered: every column travels as values.

use crate::DistError;
use eafe::Engine;
use minhash::Signature;
use runtime::{fingerprint_values, CacheSnapshot, Fingerprint};
use serde::{Deserialize, Serialize, Value};
use std::collections::{HashMap, HashSet};
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
    /// learner for every `k`, warming the score cache. The prefix is the
    /// coordinator's current selected frame; on the wire, a column the
    /// connection's last `Eval` shard carried travels as a reference
    /// (module docs). The worker keys and scores each evaluation exactly
    /// as the sequential search does, so content-addressed fingerprints
    /// line up entry for entry.
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

/// Encode a message to its JSON payload bytes (no length prefix), every
/// column as values.
pub fn encode(msg: &Msg) -> crate::Result<Vec<u8>> {
    Encoder::default().encode(msg)
}

/// Decode a message from its JSON payload bytes; a column reference is
/// an error, since nothing is remembered.
pub fn decode(payload: &[u8]) -> crate::Result<Msg> {
    Decoder::default().decode(payload)
}

/// The sending end of a connection: the digests of the columns the last
/// `Eval` shard it encoded carried — what the peer's [`Decoder`] holds.
#[derive(Debug, Default)]
pub(crate) struct Encoder {
    held: HashSet<Fingerprint>,
}

impl Encoder {
    /// Encode `msg`, writing every column the peer holds as a reference,
    /// and remember what it carried (see the module docs).
    pub(crate) fn encode(&mut self, msg: &Msg) -> crate::Result<Vec<u8>> {
        let mut value = msg.to_value();
        match msg {
            Msg::Hello { .. } => self.held.clear(),
            Msg::Work(WorkShard {
                tasks: ShardTasks::Eval { prefix, candidates },
                ..
            }) => {
                let columns = prefix.columns().iter().chain(candidates);
                let mut carried = HashSet::new();
                for (column, slot) in columns.zip(eval_column_slots(&mut value)) {
                    let digest = fingerprint_values(&column.values);
                    if self.held.contains(&digest) {
                        *slot = reference(&column.name, digest);
                    }
                    carried.insert(digest);
                }
                self.held = carried;
            }
            _ => {}
        }
        let text = serde_json::to_string(&value).map_err(|e| DistError::Codec(format!("{e}")))?;
        Ok(text.into_bytes())
    }
}

/// The receiving end of a connection: the columns the last decoded
/// `Eval` shard carried, keyed by the digest of their values.
#[derive(Debug, Default)]
pub(crate) struct Decoder {
    held: HashMap<Fingerprint, Vec<f64>>,
}

impl Decoder {
    /// Decode one payload, resolving column references against what this
    /// end holds, and remember what it carried (see the module docs).
    pub(crate) fn decode(&mut self, payload: &[u8]) -> crate::Result<Msg> {
        let text = std::str::from_utf8(payload)
            .map_err(|e| DistError::Codec(format!("frame is not UTF-8: {e}")))?;
        let mut value: Value =
            serde_json::from_str(text).map_err(|e| DistError::Codec(format!("{e}")))?;
        for slot in eval_column_slots(&mut value) {
            self.resolve(slot)?;
        }
        let msg = Msg::from_value(&value).map_err(|e| DistError::Codec(format!("{e}")))?;
        match &msg {
            Msg::Hello { .. } => self.held.clear(),
            Msg::Work(WorkShard {
                tasks: ShardTasks::Eval { prefix, candidates },
                ..
            }) => {
                self.held = prefix
                    .columns()
                    .iter()
                    .chain(candidates)
                    .map(|c| (fingerprint_values(&c.values), c.values.clone()))
                    .collect();
            }
            _ => {}
        }
        Ok(msg)
    }

    /// Replace a reference slot by the column it names; leave any other
    /// slot to the message decoder.
    fn resolve(&self, slot: &mut Value) -> crate::Result<()> {
        let Some(entries) = slot.as_map() else {
            return Ok(());
        };
        if entries.iter().any(|(k, _)| k == "values") {
            return Ok(());
        }
        let name = String::from_value(serde::field(entries, "name"))
            .map_err(|e| DistError::Codec(format!("column reference: {e}")))?;
        let digest = <[u64; 2]>::from_value(serde::field(entries, "digest"))
            .map_err(|e| DistError::Codec(format!("column reference `{name}`: {e}")))?;
        let digest = Fingerprint(u128::from(digest[0]) << 64 | u128::from(digest[1]));
        let values = self.held.get(&digest).ok_or_else(|| {
            DistError::Protocol(format!(
                "column `{name}` references digest {:032x}, which this connection does not hold",
                digest.0
            ))
        })?;
        *slot = Column::new(name, values.clone()).to_value();
        Ok(())
    }
}

/// The wire form of a column the peer holds: its name and value digest.
fn reference(name: &str, digest: Fingerprint) -> Value {
    Value::Map(vec![
        ("name".to_string(), name.to_value()),
        (
            "digest".to_string(),
            [(digest.0 >> 64) as u64, digest.0 as u64].to_value(),
        ),
    ])
}

/// The first entry of map `v` called `key`, the one a derived
/// `Deserialize` reads.
fn field_mut<'a>(v: &'a mut Value, key: &str) -> Option<&'a mut Value> {
    match v {
        Value::Map(entries) => entries.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// The variant payload of an externally tagged enum value `v` whose tag
/// is `tag`.
fn variant_mut<'a>(v: &'a mut Value, tag: &str) -> Option<&'a mut Value> {
    match v {
        Value::Map(entries) if entries.len() == 1 && entries[0].0 == tag => Some(&mut entries[0].1),
        _ => None,
    }
}

/// The column values of a `Work` message's `Eval` shard — prefix columns,
/// then candidates — or none for any other message.
fn eval_column_slots(msg: &mut Value) -> Vec<&mut Value> {
    let eval = variant_mut(msg, "Work")
        .and_then(|shard| field_mut(shard, "tasks"))
        .and_then(|tasks| variant_mut(tasks, "Eval"));
    let Some(Value::Map(entries)) = eval else {
        return Vec::new();
    };
    let (mut prefix, mut candidates) = (None, None);
    for (key, v) in entries.iter_mut() {
        match key.as_str() {
            "prefix" if prefix.is_none() => prefix = Some(v),
            "candidates" if candidates.is_none() => candidates = Some(v),
            _ => {}
        }
    }
    let mut slots = array_items(prefix.and_then(|p| field_mut(p, "columns")));
    slots.extend(array_items(candidates));
    slots
}

fn array_items(v: Option<&mut Value>) -> Vec<&mut Value> {
    match v {
        Some(Value::Array(items)) => items.iter_mut().collect(),
        _ => Vec::new(),
    }
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

    /// An `Eval` shard of `prefix` plus `candidates`.
    fn eval(prefix: &DataFrame, candidates: Vec<Column>) -> Msg {
        Msg::Work(WorkShard {
            slice: 0,
            round: 1,
            shard: 0,
            seed: 5,
            tasks: ShardTasks::Eval {
                prefix: prefix.clone(),
                candidates,
            },
        })
    }

    fn fpe(columns: Vec<Column>) -> Msg {
        Msg::Work(WorkShard {
            slice: 0,
            round: 0,
            shard: 0,
            seed: 5,
            tasks: ShardTasks::Fpe { columns },
        })
    }

    /// (columns sent as values, columns sent as references) in a payload.
    fn forms(payload: &[u8]) -> (usize, usize) {
        let text = std::str::from_utf8(payload).unwrap();
        (
            text.matches("\"values\":").count(),
            text.matches("\"digest\":").count(),
        )
    }

    /// The columns of a decoded `Eval` shard, bit for bit.
    fn eval_columns(msg: &Msg) -> Vec<(String, Vec<u64>)> {
        let Msg::Work(WorkShard {
            tasks: ShardTasks::Eval { prefix, candidates },
            ..
        }) = msg
        else {
            panic!("not an Eval shard: {msg:?}");
        };
        prefix
            .columns()
            .iter()
            .chain(candidates)
            .map(|c| {
                (
                    c.name.clone(),
                    c.values.iter().map(|v| v.to_bits()).collect(),
                )
            })
            .collect()
    }

    /// One connection: what the sender writes and what the receiver reads.
    fn send(
        encoder: &mut Encoder,
        decoder: &mut Decoder,
        msg: &Msg,
    ) -> (Vec<u8>, crate::Result<Msg>) {
        let payload = encoder.encode(msg).unwrap();
        let received = decoder.decode(&payload);
        (payload, received)
    }

    #[test]
    fn a_column_crosses_a_connection_as_values_once() {
        let prefix = tiny_frame();
        let a = column("a", vec![-0.0, 2.5]);
        let (mut encoder, mut decoder) = (Encoder::default(), Decoder::default());

        // First frame: every column as values, and stateless encoding
        // writes exactly these bytes.
        let first = eval(&prefix, vec![a.clone()]);
        let (payload, received) = send(&mut encoder, &mut decoder, &first);
        assert_eq!(forms(&payload), (2, 0));
        assert_eq!(payload, encode(&first).unwrap());
        assert_eq!(eval_columns(&received.unwrap()), eval_columns(&first));

        // Repeat frame: references only, decoded to the same bits — even
        // under another name, since identity is the values' digest.
        let renamed = column("a2", a.values.clone());
        let repeat = eval(&prefix, vec![renamed]);
        let (payload, received) = send(&mut encoder, &mut decoder, &repeat);
        assert_eq!(forms(&payload), (0, 2));
        assert_eq!(eval_columns(&received.unwrap()), eval_columns(&repeat));

        // A new candidate travels as values beside the referenced prefix.
        let b = column("b", vec![1.0, 3.0]);
        let (payload, received) = send(&mut encoder, &mut decoder, &eval(&prefix, vec![b]));
        assert_eq!(forms(&payload), (1, 1));
        received.unwrap();

        // Only the last Eval shard is remembered: `a` left with it.
        let (payload, received) = send(&mut encoder, &mut decoder, &eval(&prefix, vec![a]));
        assert_eq!(forms(&payload), (1, 1));
        received.unwrap();
    }

    #[test]
    fn fpe_shards_leave_the_remembered_set_alone_and_hello_resets_it() {
        let prefix = tiny_frame();
        let a = column("a", vec![4.0, 5.0]);
        let (mut encoder, mut decoder) = (Encoder::default(), Decoder::default());
        send(&mut encoder, &mut decoder, &eval(&prefix, vec![a.clone()]))
            .1
            .unwrap();
        for msg in [fpe(vec![column("c", vec![7.0, 8.0])]), Msg::Bye] {
            send(&mut encoder, &mut decoder, &msg).1.unwrap();
        }
        let (payload, received) = send(&mut encoder, &mut decoder, &eval(&prefix, vec![a.clone()]));
        assert_eq!(forms(&payload), (0, 2));
        received.unwrap();

        let hello = Msg::Hello {
            engine: Engine::nfs(eafe::EafeConfig::fast()),
        };
        send(&mut encoder, &mut decoder, &hello).1.unwrap();
        let (payload, received) = send(&mut encoder, &mut decoder, &eval(&prefix, vec![a]));
        assert_eq!(forms(&payload), (2, 0));
        received.unwrap();
    }

    #[test]
    fn a_reference_the_receiver_does_not_hold_is_a_typed_error() {
        let prefix = tiny_frame();
        let mut encoder = Encoder::default();
        encoder.encode(&eval(&prefix, Vec::new())).unwrap();
        let refs = encoder.encode(&eval(&prefix, Vec::new())).unwrap();
        assert_eq!(forms(&refs), (0, 1));
        // Nothing remembered: the stateless decoder and a fresh session.
        assert!(matches!(decode(&refs), Err(DistError::Protocol(_))));
        assert!(matches!(
            Decoder::default().decode(&refs),
            Err(DistError::Protocol(_))
        ));
    }
}
