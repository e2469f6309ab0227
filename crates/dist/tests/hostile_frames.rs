//! Hostile bytes on the `dist` wire: every mutation of a well-formed
//! frame — bit flips, truncation, huge counts, non-finite floats,
//! invalid UTF-8, garbage words, lying length prefixes — decodes into a
//! message or a typed `DistError`, never a panic, and a frame costs the
//! bytes that arrived, not the bytes it announced. The same holds for a
//! frame that names columns by digest: a reference the receiver does not
//! hold, whatever the frame claims, is a typed error.

use dist::protocol::{decode, encode};
use dist::{Msg, ShardTasks, TcpTransport, Transport, WorkShard};
use eafe::{EafeConfig, Engine};
use minhash::{HashFamily, SampleCompressor};
use proptest::prelude::*;
use runtime::{CacheSnapshot, Fingerprint};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::OnceLock;
use tabular::{Column, DataFrame, SynthSpec, Task};

/// One encoded message of every kind a peer sends.
fn payloads() -> &'static [Vec<u8>] {
    static PAYLOADS: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    PAYLOADS.get_or_init(|| {
        let frame = SynthSpec::new("hostile", 12, 3, Task::Classification)
            .with_seed(5)
            .generate()
            .unwrap();
        let candidate = Column::new("f0*f1", (0..12).map(|i| i as f64 * 0.5).collect());
        let shard = |round, tasks| WorkShard {
            slice: 2,
            round,
            shard: 1,
            seed: 77,
            tasks,
        };
        let sig = SampleCompressor::new(HashFamily::Ccws, 8, 3)
            .unwrap()
            .signature(&candidate.values)
            .unwrap();
        let result = dist::protocol::ShardResult {
            slice: 2,
            round: 1,
            shard: 1,
            seed: 77,
            scores: CacheSnapshot {
                entries: vec![(Fingerprint(42), 0.625)],
            },
            sigs: CacheSnapshot {
                entries: vec![(Fingerprint(7), sig)],
            },
            busy_us: 100,
        };
        [
            Msg::Hello {
                engine: Engine::nfs(EafeConfig::fast()),
            },
            Msg::Work(shard(
                1,
                ShardTasks::Eval {
                    prefix: frame,
                    candidates: vec![candidate.clone()],
                },
            )),
            Msg::Work(shard(
                0,
                ShardTasks::Fpe {
                    columns: vec![candidate],
                },
            )),
            Msg::Result(result),
            Msg::Bye,
        ]
        .iter()
        .map(|msg| encode(msg).unwrap())
        .collect()
    })
}

/// The numeric literal that starts at or after `at`, as a byte range.
fn number_at(bytes: &[u8], at: usize) -> Option<(usize, usize)> {
    let start = (at..bytes.len()).find(|&i| bytes[i].is_ascii_digit())?;
    let len = bytes[start..]
        .iter()
        .take_while(|b| b.is_ascii_digit() || b"+-.eE".contains(b))
        .count();
    Some((start, start + len))
}

/// One hostile edit of a well-formed payload, chosen by `kind`.
fn mutate(bytes: &[u8], kind: u8, at: usize, word: u64) -> Vec<u8> {
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

/// Deliver `header` then `body` to a fresh `TcpTransport` and close the
/// sending side; the transport's `recv` result.
fn recv_frame(header: u64, body: &[u8]) -> dist::Result<Msg> {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    peer.write_all(&header.to_le_bytes()).unwrap();
    peer.write_all(body).unwrap();
    drop(peer);
    let (stream, _) = listener.accept().unwrap();
    TcpTransport::from_stream(stream).recv()
}

/// Deliver `payloads` as honestly framed messages to a fresh
/// `TcpTransport`, then close; what each `recv` returns, up to and
/// including the first error.
fn recv_session(payloads: &[&[u8]]) -> Vec<dist::Result<Msg>> {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    for payload in payloads {
        peer.write_all(&(payload.len() as u64).to_le_bytes())
            .unwrap();
        peer.write_all(payload).unwrap();
    }
    drop(peer);
    let (stream, _) = listener.accept().unwrap();
    let mut transport = TcpTransport::from_stream(stream);
    let mut received = Vec::new();
    for _ in payloads {
        let msg = transport.recv();
        let failed = msg.is_err();
        received.push(msg);
        if failed {
            break;
        }
    }
    received
}

/// The payloads a `TcpTransport` writes for `msgs`, in order.
fn sent_payloads(msgs: &[Msg]) -> Vec<Vec<u8>> {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let mut sender = TcpTransport::connect(listener.local_addr().unwrap()).unwrap();
    let (mut raw, _) = listener.accept().unwrap();
    msgs.iter()
        .map(|msg| {
            sender.send(msg).unwrap();
            let mut header = [0u8; 8];
            raw.read_exact(&mut header).unwrap();
            let mut payload = vec![0u8; u64::from_le_bytes(header) as usize];
            raw.read_exact(&mut payload).unwrap();
            payload
        })
        .collect()
}

fn eval_shard(prefix: &DataFrame, candidates: Vec<Column>) -> Msg {
    Msg::Work(WorkShard {
        slice: 4,
        round: 1,
        shard: 0,
        seed: 9,
        tasks: ShardTasks::Eval {
            prefix: prefix.clone(),
            candidates,
        },
    })
}

fn session_frame() -> DataFrame {
    SynthSpec::new("session", 12, 3, Task::Classification)
        .with_seed(8)
        .generate()
        .unwrap()
}

/// A session's first `Eval` shard (every column as values) and a second
/// one naming every column by digest.
fn session_payloads() -> &'static [Vec<u8>] {
    static PAYLOADS: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    PAYLOADS.get_or_init(|| {
        let prefix = session_frame();
        let candidate = Column::new("log(f0)", (0..12).map(|i| (i as f64).ln_1p()).collect());
        let shard = eval_shard(&prefix, vec![candidate]);
        let payloads = sent_payloads(&[shard.clone(), shard]);
        let refs = std::str::from_utf8(&payloads[1]).unwrap();
        assert_eq!(refs.matches("\"digest\":").count(), 4, "{refs}");
        assert!(!refs.contains("\"values\":"), "{refs}");
        payloads
    })
}

/// The wire text of a digest, `[hi,lo]`.
fn digest_text(values: &[f64]) -> String {
    let digest = runtime::fingerprint_values(values).0;
    format!("[{},{}]", (digest >> 64) as u64, digest as u64)
}

#[test]
fn a_session_resolves_references_to_the_bits_it_was_sent() {
    let [first, refs] = session_payloads() else {
        unreachable!()
    };
    let received = recv_session(&[first, refs]);
    let columns = |msg: &Msg| match msg {
        Msg::Work(WorkShard {
            tasks: ShardTasks::Eval { prefix, candidates },
            ..
        }) => prefix
            .columns()
            .iter()
            .chain(candidates)
            .map(|c| {
                (
                    c.name.clone(),
                    c.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                )
            })
            .collect::<Vec<_>>(),
        other => panic!("expected an Eval shard, got {other:?}"),
    };
    let first = received[0].as_ref().unwrap();
    assert_eq!(columns(first), columns(received[1].as_ref().unwrap()));
}

#[test]
fn a_reference_to_an_unheld_digest_is_a_typed_error() {
    let [first, refs] = session_payloads() else {
        unreachable!()
    };
    // Nothing held yet: the reference comes before any Eval, and before
    // Hello.
    let received = recv_session(&[refs]);
    assert!(matches!(received[0], Err(dist::DistError::Protocol(_))));
    // Hello empties what the first shard left.
    let hello = encode(&Msg::Hello {
        engine: Engine::nfs(EafeConfig::fast()),
    })
    .unwrap();
    let received = recv_session(&[first, &hello, refs]);
    assert!(received[1].is_ok());
    assert!(matches!(received[2], Err(dist::DistError::Protocol(_))));
    // A digest of values no shard carried.
    let text = std::str::from_utf8(refs).unwrap();
    let held = digest_text(&session_frame().columns()[0].values);
    assert!(text.contains(&held));
    let unheld = text.replacen(&held, &digest_text(&[1.0; 12]), 1);
    let received = recv_session(&[first, unheld.as_bytes()]);
    assert!(matches!(received[1], Err(dist::DistError::Protocol(_))));
}

#[test]
fn a_digest_that_lies_about_its_values_is_never_believed() {
    // The first shard announces a digest beside `f0`'s values that is the
    // digest of other values; the receiver keys `f0` by its own digest.
    let [first, refs] = session_payloads() else {
        unreachable!()
    };
    let frame = session_frame();
    let f0 = &frame.columns()[0];
    let lie = digest_text(&[2.0; 12]);
    let first = std::str::from_utf8(first).unwrap();
    let f0_start = first.find("{\"name\":\"f0\"").unwrap();
    let lying_first = format!(
        "{}{{\"digest\":{lie},{}",
        &first[..f0_start],
        &first[f0_start + 1..]
    );
    let refs = std::str::from_utf8(refs).unwrap();
    let to_lie = refs.replacen(&digest_text(&f0.values), &lie, 1);
    let received = recv_session(&[lying_first.as_bytes(), to_lie.as_bytes()]);
    assert!(received[0].is_ok(), "{:?}", received[0]);
    assert!(matches!(received[1], Err(dist::DistError::Protocol(_))));
    // The same first shard still lets the honest references resolve.
    let received = recv_session(&[lying_first.as_bytes(), refs.as_bytes()]);
    assert!(received[1].is_ok(), "{:?}", received[1]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    #[test]
    fn mutated_session_frames_decode_or_fail_typed(
        kind in 0u8..6,
        at in 0usize..1_000_000,
        word in 0u64..u64::MAX,
    ) {
        let [first, refs] = session_payloads() else {
            unreachable!()
        };
        let mutated = mutate(refs, kind, at, word);
        // A panic fails the case; a message or a typed error passes it.
        let received = recv_session(&[first, &mutated]);
        prop_assert!(received[0].is_ok());
    }

    #[test]
    fn mutated_payloads_decode_or_fail_typed(
        which in 0usize..5,
        kind in 0u8..6,
        at in 0usize..1_000_000,
        word in 0u64..u64::MAX,
    ) {
        let payload = mutate(&payloads()[which], kind, at, word);
        // A panic fails the case; a message or a typed error passes it.
        let _ = decode(&payload);
    }

    #[test]
    fn lying_length_prefixes_fail_typed(
        which in 0usize..5,
        lie in 0u8..4,
        delta in 1u64..4096,
        keep in 0usize..1_000_000,
    ) {
        let payload = &payloads()[which];
        let len = payload.len() as u64;
        let (header, body) = match lie {
            // Announces more than it sends.
            0 => (len + delta, &payload[..]),
            // Announces less than the message: a truncated payload.
            1 => (len.saturating_sub(delta), &payload[..]),
            // Sends a prefix of what it announces, then closes.
            2 => (len, &payload[..keep % payload.len()]),
            // Announces past the frame cap.
            _ => ((256 << 20) + delta, &payload[..]),
        };
        let received = recv_frame(header, body);
        prop_assert!(received.is_err(), "lie {lie}: header {header} for {} bytes", body.len());
    }
}

#[test]
fn an_honest_frame_still_round_trips() {
    for payload in payloads() {
        let msg = recv_frame(payload.len() as u64, payload).unwrap();
        assert_eq!(&encode(&msg).unwrap(), payload);
    }
}

#[test]
fn a_200_mib_announcement_followed_by_10_bytes_is_an_error() {
    match recv_frame(200 << 20, b"{\"Bye\":nul") {
        Err(dist::DistError::Codec(msg)) => assert!(msg.contains("closed after 10"), "{msg}"),
        other => panic!("expected a codec error, got {other:?}"),
    }
}
