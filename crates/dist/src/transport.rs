//! Message transports: framed TCP and an in-process loopback pair.
//!
//! Every transport moves [`Msg`] values as length-prefixed frames — an
//! 8-byte little-endian payload length, then the JSON payload — and
//! counts the bytes it moves into `runtime::dist_counters` plus the
//! `dist.bytes_sent` / `dist.bytes_received` telemetry counters. The
//! loopback pair encodes and decodes the same real bytes TCP would, so
//! in-process tests exercise the codec and report true wire sizes.
//!
//! Each endpoint owns one [`Encoder`] for what it sends and one
//! [`Decoder`] for what it receives, so a column an `Eval` shard carried
//! crosses the connection as values once and as a reference after (see
//! [`crate::protocol`]).

use crate::protocol::{Decoder, Encoder, Msg};
use crate::{DistError, Result};
use runtime::dist_counters;
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::mpsc;

/// Hard cap on a single frame's payload size (256 MiB). A peer
/// announcing a larger frame is treated as a protocol error rather than
/// an allocation request.
pub(crate) const MAX_FRAME_BYTES: usize = 256 << 20;

/// Frame header size: the 8-byte little-endian payload length.
const HEADER_BYTES: u64 = 8;

/// A bidirectional, blocking message channel to one peer.
///
/// `send` delivers one message or fails; `recv` blocks for the peer's
/// next message and fails on EOF. Any error means the connection is
/// unusable — the coordinator treats a failing worker transport as a
/// dead worker and reassigns its shard. (After a failed `send` the two
/// ends may no longer agree on the columns they remember.)
pub trait Transport: Send {
    /// Deliver one message to the peer.
    fn send(&mut self, msg: &Msg) -> Result<()>;
    /// Block for the peer's next message.
    fn recv(&mut self) -> Result<Msg>;
}

fn frame_bytes(encoder: &mut Encoder, msg: &Msg) -> Result<Vec<u8>> {
    let payload = encoder.encode(msg)?;
    if payload.len() > MAX_FRAME_BYTES {
        return Err(DistError::Codec(format!(
            "frame of {} bytes exceeds the {} byte cap",
            payload.len(),
            MAX_FRAME_BYTES
        )));
    }
    let mut framed = Vec::with_capacity(8 + payload.len());
    framed.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    framed.extend_from_slice(&payload);
    Ok(framed)
}

fn unframe(decoder: &mut Decoder, payload: Vec<u8>) -> Result<Msg> {
    let msg = decoder.decode(&payload)?;
    dist_counters::received(HEADER_BYTES + payload.len() as u64);
    telemetry::count("dist.bytes_received", HEADER_BYTES + payload.len() as u64);
    Ok(msg)
}

fn count_sent(framed_len: usize) {
    dist_counters::sent(framed_len as u64);
    telemetry::count("dist.bytes_sent", framed_len as u64);
}

/// Framed transport over a `std::net::TcpStream`.
#[derive(Debug)]
pub struct TcpTransport {
    stream: TcpStream,
    encoder: Encoder,
    decoder: Decoder,
}

impl TcpTransport {
    /// Connect to a listening peer (the worker side).
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self> {
        Ok(Self::from_stream(TcpStream::connect(addr)?))
    }

    /// Wrap an accepted connection (the coordinator side).
    pub fn from_stream(stream: TcpStream) -> Self {
        stream.set_nodelay(true).ok();
        TcpTransport {
            stream,
            encoder: Encoder::default(),
            decoder: Decoder::default(),
        }
    }
}

impl Transport for TcpTransport {
    fn send(&mut self, msg: &Msg) -> Result<()> {
        let framed = frame_bytes(&mut self.encoder, msg)?;
        self.stream.write_all(&framed)?;
        self.stream.flush()?;
        count_sent(framed.len());
        Ok(())
    }

    fn recv(&mut self) -> Result<Msg> {
        let mut header = [0u8; 8];
        self.stream.read_exact(&mut header)?;
        let len = u64::from_le_bytes(header);
        if len as usize > MAX_FRAME_BYTES {
            return Err(DistError::Codec(format!(
                "peer announced a {len} byte frame (cap {MAX_FRAME_BYTES})"
            )));
        }
        // Read through `take` so the buffer grows with the bytes that
        // actually arrive: a peer that announces a large frame and then
        // stalls or closes costs what it sent, not what it announced.
        let mut payload = Vec::new();
        (&mut self.stream).take(len).read_to_end(&mut payload)?;
        if payload.len() as u64 != len {
            return Err(DistError::Codec(format!(
                "peer announced a {len} byte frame and closed after {}",
                payload.len()
            )));
        }
        unframe(&mut self.decoder, payload)
    }
}

/// In-process transport endpoint: frames cross an `mpsc` channel as the
/// same encoded bytes TCP would carry. Build pairs with
/// [`loopback_pair`]. A configurable send budget lets tests simulate a
/// worker process dying mid-protocol: once the budget is exhausted every
/// `send` fails, the owning serve loop exits, and the peer observes a
/// disconnected channel — exactly the failure surface a killed process
/// presents.
#[derive(Debug)]
pub struct LoopbackTransport {
    tx: mpsc::Sender<Vec<u8>>,
    rx: mpsc::Receiver<Vec<u8>>,
    sends_left: Option<usize>,
    encoder: Encoder,
    decoder: Decoder,
}

/// Create a connected pair of in-process endpoints.
pub fn loopback_pair() -> (LoopbackTransport, LoopbackTransport) {
    let (a_tx, b_rx) = mpsc::channel();
    let (b_tx, a_rx) = mpsc::channel();
    let end = |tx, rx| LoopbackTransport {
        tx,
        rx,
        sends_left: None,
        encoder: Encoder::default(),
        decoder: Decoder::default(),
    };
    (end(a_tx, a_rx), end(b_tx, b_rx))
}

impl LoopbackTransport {
    /// Fail every `send` after the next `n` — the crash-simulation hook.
    pub fn set_send_budget(&mut self, n: usize) {
        self.sends_left = Some(n);
    }

    /// Drop the columns this end remembers receiving, putting it out of
    /// step with its peer.
    #[cfg(test)]
    pub(crate) fn forget(&mut self) {
        self.decoder = Decoder::default();
    }
}

impl Transport for LoopbackTransport {
    fn send(&mut self, msg: &Msg) -> Result<()> {
        if let Some(left) = self.sends_left.as_mut() {
            if *left == 0 {
                return Err(DistError::Io(std::io::Error::new(
                    std::io::ErrorKind::BrokenPipe,
                    "send budget exhausted (simulated crash)",
                )));
            }
            *left -= 1;
        }
        let framed = frame_bytes(&mut self.encoder, msg)?;
        let len = framed.len();
        self.tx.send(framed).map_err(|_| {
            DistError::Io(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "peer hung up",
            ))
        })?;
        count_sent(len);
        Ok(())
    }

    fn recv(&mut self) -> Result<Msg> {
        let mut framed = self.rx.recv().map_err(|_| {
            DistError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "peer hung up",
            ))
        })?;
        if framed.len() < 8 {
            return Err(DistError::Codec("short frame".into()));
        }
        let payload = framed.split_off(8);
        let mut header = [0u8; 8];
        header.copy_from_slice(&framed);
        let len = u64::from_le_bytes(header);
        if len as usize != payload.len() {
            return Err(DistError::Codec(format!(
                "frame header says {len} bytes, payload is {}",
                payload.len()
            )));
        }
        unframe(&mut self.decoder, payload)
    }
}

/// Serialises the unit tests that move bytes: the byte counters are
/// process-wide, so a test that compares them must not overlap another
/// test's traffic.
#[cfg(test)]
pub(crate) fn wire_lock() -> std::sync::MutexGuard<'static, ()> {
    static WIRE: std::sync::Mutex<()> = std::sync::Mutex::new(());
    WIRE.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loopback_round_trips_and_counts_real_bytes() {
        let _wire = wire_lock();
        let before = runtime::global_dist_stats();
        let (mut a, mut b) = loopback_pair();
        a.send(&Msg::Bye).unwrap();
        assert!(matches!(b.recv().unwrap(), Msg::Bye));
        let after = runtime::global_dist_stats();
        let moved = after.bytes_sent - before.bytes_sent;
        // "Bye" as JSON plus the 8-byte header.
        assert!(moved >= 8 + 2, "sent {moved} bytes");
        assert_eq!(
            after.bytes_received - before.bytes_received,
            moved,
            "received byte count must mirror sent"
        );
    }

    #[test]
    fn exhausted_send_budget_looks_like_a_dead_peer() {
        let _wire = wire_lock();
        let (mut a, mut b) = loopback_pair();
        a.set_send_budget(1);
        a.send(&Msg::Bye).unwrap();
        assert!(a.send(&Msg::Bye).is_err(), "second send must fail");
        // The peer still sees the one delivered frame, then EOF once the
        // sender is dropped.
        assert!(matches!(b.recv().unwrap(), Msg::Bye));
        drop(a);
        assert!(b.recv().is_err(), "recv after peer death must error");
    }
}
