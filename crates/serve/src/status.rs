//! A minimal HTTP status endpoint over `std::net` — zero new
//! dependencies, off by default.
//!
//! [`StatusServer::start`] binds a TCP listener and serves two read-only
//! pages from whatever implements [`StatusSource`]:
//!
//! - `GET /metrics` — Prometheus text exposition format
//!   (`text/plain; version=0.0.4`), scrapeable by any Prometheus-
//!   compatible collector;
//! - `GET /status` — a JSON document with per-job state, queue depth,
//!   pool and cache stats, and the epoch-boundary time series.
//!
//! The protocol handling is deliberately tiny: HTTP/1.0-style one
//! request per connection, request line parsed for method + path,
//! headers skipped, `Connection: close` on every response. That is
//! enough for `curl`, Prometheus scrapers, and the CI smoke test, and
//! keeps the attack surface of a debug endpoint (bind it to loopback)
//! as small as the implementation.
//!
//! Serving runs on one dedicated thread; a scrape therefore never
//! blocks the scheduler, and the scheduler never blocks a scrape
//! (sources snapshot under short-lived locks).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// What the status pages render. Implemented by the job server; kept as
/// a trait so the HTTP plumbing is testable with a stub.
pub(crate) trait StatusSource: Send + Sync + 'static {
    /// The `/status` page body (a JSON document).
    fn status_json(&self) -> String;
    /// The `/metrics` page body (Prometheus text exposition format).
    fn metrics_text(&self) -> String;
}

/// A background thread serving `/metrics` and `/status` over TCP.
pub(crate) struct StatusServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for StatusServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StatusServer")
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

impl StatusServer {
    /// Bind `addr` (e.g. `127.0.0.1:9100`, or port `0` for an
    /// OS-assigned port — read it back via [`StatusServer::addr`]) and
    /// serve `source` until [`StatusServer::stop`] or drop.
    pub(crate) fn start(
        addr: &str,
        source: Arc<dyn StatusSource>,
    ) -> std::io::Result<StatusServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("serve-status".to_string())
                .spawn(move || serve_loop(listener, source, stop))?
        };
        Ok(StatusServer {
            addr,
            stop,
            thread: Some(thread),
        })
    }

    /// The actually bound address (resolves port 0).
    pub(crate) fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop serving and join the thread. Idempotent.
    pub(crate) fn stop(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for StatusServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn serve_loop(listener: TcpListener, source: Arc<dyn StatusSource>, stop: Arc<AtomicBool>) {
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = stream else { continue };
        // A stuck client must not wedge the status thread.
        let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
        let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
        let _ = handle(stream, source.as_ref());
    }
}

/// Read up to the end of the request head (at most ~8 KiB).
fn request_head(stream: &mut TcpStream) -> std::io::Result<Vec<u8>> {
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 256];
    loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        buf.extend_from_slice(&chunk[..n]);
        if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() > 8192 {
            break;
        }
    }
    Ok(buf)
}

/// Status line, content type and body answering a request head. A
/// request line that is not UTF-8 or lacks a method and a target is a
/// 400; only `GET` is allowed.
fn respond(head: &[u8], source: &dyn StatusSource) -> (&'static str, &'static str, String) {
    let line = head.split(|&b| b == b'\n').next().unwrap_or_default();
    let mut parts = std::str::from_utf8(line).unwrap_or("").split_whitespace();
    let (Some(method), Some(target)) = (parts.next(), parts.next()) else {
        return (
            "400 Bad Request",
            "text/plain",
            "malformed request line\n".to_string(),
        );
    };
    if method != "GET" {
        return (
            "405 Method Not Allowed",
            "text/plain",
            "method not allowed\n".to_string(),
        );
    }
    // Strip any query string: `/metrics?x=y` still serves /metrics.
    match target.split('?').next().unwrap_or("") {
        "/metrics" => ("200 OK", "text/plain; version=0.0.4", source.metrics_text()),
        "/status" => ("200 OK", "application/json", source.status_json()),
        _ => (
            "404 Not Found",
            "text/plain",
            "not found; try /metrics or /status\n".to_string(),
        ),
    }
}

fn handle(mut stream: TcpStream, source: &dyn StatusSource) -> std::io::Result<()> {
    let head = request_head(&mut stream)?;
    let (status, content_type, body) = respond(&head, source);
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

/// Scrape `path` (e.g. `/metrics`) from a status server at `addr` and
/// return the response body. A convenience for demos and tests — any
/// HTTP client works against the real endpoint.
pub fn scrape(addr: SocketAddr, path: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: status\r\nConnection: close\r\n\r\n"
    )?;
    stream.flush()?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    match response.split_once("\r\n\r\n") {
        Some((_, body)) => Ok(body.to_string()),
        None => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "malformed HTTP response",
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mutate::mutate;
    use proptest::prelude::*;

    struct Stub;
    impl StatusSource for Stub {
        fn status_json(&self) -> String {
            "{\"ok\":true}".to_string()
        }
        fn metrics_text(&self) -> String {
            "# TYPE up counter\nup 1\n".to_string()
        }
    }

    #[test]
    fn serves_both_pages_and_404s_the_rest() {
        let mut server = StatusServer::start("127.0.0.1:0", Arc::new(Stub)).unwrap();
        let addr = server.addr();
        assert_eq!(scrape(addr, "/status").unwrap(), "{\"ok\":true}");
        assert_eq!(
            scrape(addr, "/metrics").unwrap(),
            "# TYPE up counter\nup 1\n"
        );
        assert_eq!(
            scrape(addr, "/metrics?scrape=1").unwrap(),
            "# TYPE up counter\nup 1\n"
        );
        assert!(scrape(addr, "/nope").unwrap().contains("not found"));
        server.stop();
        server.stop(); // idempotent
        assert!(
            scrape(addr, "/status").is_err(),
            "stopped server refuses scrapes"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1000))]

        #[test]
        fn hostile_request_heads_get_a_status_not_a_panic(
            kind in 0u8..6,
            at in 0usize..1_000,
            word in 0u64..u64::MAX,
        ) {
            let head = mutate(b"GET /metrics?x=1 HTTP/1.1\r\nHost: status\r\n\r\n", kind, at, word);
            let (status, _, _) = respond(&head, &Stub);
            prop_assert!(
                ["200 OK", "400 Bad Request", "404 Not Found", "405 Method Not Allowed"]
                    .contains(&status),
                "{status}"
            );
        }
    }

    #[test]
    fn malformed_request_lines_are_400s_and_the_thread_survives() {
        let server = StatusServer::start("127.0.0.1:0", Arc::new(Stub)).unwrap();
        for head in [
            &b"\xff\xfe /status HTTP/1.1\r\n\r\n"[..],
            b"GET\r\n\r\n",
            b"",
            b" \r\n\r\n",
        ] {
            let mut stream = TcpStream::connect(server.addr()).unwrap();
            stream.write_all(head).unwrap();
            stream.shutdown(std::net::Shutdown::Write).unwrap();
            let mut response = String::new();
            stream.read_to_string(&mut response).unwrap();
            assert!(
                response.starts_with("HTTP/1.1 400 Bad Request"),
                "{response}"
            );
        }
        assert_eq!(scrape(server.addr(), "/status").unwrap(), "{\"ok\":true}");
    }

    #[test]
    fn sequential_scrapes_reuse_the_listener() {
        let server = StatusServer::start("127.0.0.1:0", Arc::new(Stub)).unwrap();
        for _ in 0..5 {
            assert_eq!(scrape(server.addr(), "/status").unwrap(), "{\"ok\":true}");
        }
    }
}
