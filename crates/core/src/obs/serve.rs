//! Std-only HTTP scrape endpoint for [`PipelineMetrics`].
//!
//! A hand-rolled single-threaded `TcpListener` responder — no external
//! HTTP crates, per the offline-vendoring rule — answering these
//! routes:
//!
//! * `GET /metrics` — the live [`MetricsSnapshot::to_prom`] render,
//!   `Content-Type: text/plain; version=0.0.4`;
//! * `GET /healthz` — `ok` once the listener is up (liveness only; it
//!   does not assert that packets are flowing);
//! * `GET /debug/pipeline` — a live JSON view of internal pipeline
//!   state ([`PipelineMetrics::debug_json`]): ring occupancy and
//!   high-water marks, per-source delivered timestamps and lag, worker
//!   link states, table sizes and eviction pressure;
//! * `GET /debug/trace?n=K` — the last `K` (default 16) sampled traces
//!   from the collector's tail ring, one JSON object per line, oldest
//!   first. Empty body while tracing is disabled.
//!
//! Everything else is `404`, non-`GET` methods are `405`. Each request
//! is served on the accept thread, and its whole request head must
//! arrive within one short deadline, which is plenty for the intended
//! single-scraper (Prometheus) deployment and keeps the implementation
//! free of any thread-pool machinery: a slow client forfeits its request
//! instead of holding the thread.
//!
//! The server holds only an `Arc<PipelineMetrics>`, so it can run next
//! to any sink — including [`StreamingEngine`](crate::engine::StreamingEngine),
//! which is not itself `Sync` — and snapshots are taken per request.
//!
//! ```no_run
//! use std::sync::Arc;
//! use zoom_analysis::obs::{serve, PipelineMetrics};
//!
//! let metrics = Arc::new(PipelineMetrics::new());
//! let handle = serve::serve("127.0.0.1:9184", Arc::clone(&metrics)).unwrap();
//! println!("scrape http://{}/metrics", handle.addr());
//! // ... run the pipeline ...
//! handle.shutdown();
//! ```
//!
//! [`MetricsSnapshot::to_prom`]: super::MetricsSnapshot::to_prom

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use super::PipelineMetrics;

/// How long the accept loop naps when no connection is pending. Bounds
/// both idle CPU cost and shutdown latency.
const ACCEPT_POLL: Duration = Duration::from_millis(25);

/// Per-connection budget for reading the whole request head, and the
/// write timeout; a scraper that stalls longer forfeits the request
/// rather than wedging the accept loop.
const IO_TIMEOUT: Duration = Duration::from_millis(500);

/// A running scrape endpoint; stops serving when shut down or dropped.
#[derive(Debug)]
pub struct ServeHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<thread::JoinHandle<()>>,
}

impl ServeHandle {
    /// The locally bound address (resolves port 0 to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting connections and join the server thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ServeHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Bind `addr` and serve `GET /metrics` + `GET /healthz` from a
/// background thread until the returned [`ServeHandle`] is shut down.
///
/// Binding errors (port in use, bad address) surface immediately;
/// per-connection I/O errors after that are swallowed — a misbehaving
/// scraper must not take the pipeline down.
pub fn serve<A: ToSocketAddrs>(addr: A, metrics: Arc<PipelineMetrics>) -> io::Result<ServeHandle> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let thread = thread::Builder::new()
        .name("obs-serve".into())
        .spawn(move || accept_loop(listener, metrics, stop2))?;
    Ok(ServeHandle {
        addr,
        stop,
        thread: Some(thread),
    })
}

fn accept_loop(listener: TcpListener, metrics: Arc<PipelineMetrics>, stop: Arc<AtomicBool>) {
    while !stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = handle_conn(stream, &metrics);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => thread::sleep(ACCEPT_POLL),
            Err(_) => thread::sleep(ACCEPT_POLL),
        }
    }
}

fn handle_conn(mut stream: TcpStream, metrics: &PipelineMetrics) -> io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;

    // Read until the end of the request head or the deadline. One
    // deadline bounds the whole head, not each read: a client dribbling
    // a byte at a time must not hold the accept thread. The request
    // body, if any, is irrelevant to every route.
    let deadline = Instant::now() + IO_TIMEOUT;
    let mut buf = [0u8; 1024];
    let mut head = Vec::new();
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            break;
        }
        stream.set_read_timeout(Some(left))?;
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                head.extend_from_slice(&buf[..n]);
                if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() > 8192 {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let head = String::from_utf8_lossy(&head);
    let mut parts = head.split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));

    let (status, content_type, body) = if method != "GET" {
        (
            "405 Method Not Allowed",
            "text/plain",
            "method not allowed\n".to_string(),
        )
    } else {
        // Route on the path alone: `/metrics?x=y` is still `/metrics`.
        let (route, query) = match path.split_once('?') {
            Some((p, q)) => (p, q),
            None => (path, ""),
        };
        match route {
            "/metrics" => (
                "200 OK",
                "text/plain; version=0.0.4",
                metrics.snapshot().to_prom(),
            ),
            "/healthz" => ("200 OK", "text/plain", "ok\n".to_string()),
            "/debug/pipeline" => ("200 OK", "application/json", metrics.debug_json()),
            "/debug/trace" => {
                let n = query
                    .split('&')
                    .find_map(|kv| kv.strip_prefix("n="))
                    .and_then(|v| v.parse::<usize>().ok())
                    .unwrap_or(16);
                (
                    "200 OK",
                    "application/x-ndjson",
                    metrics.trace.tail_ndjson(n),
                )
            }
            _ => ("404 Not Found", "text/plain", "not found\n".to_string()),
        }
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(addr: SocketAddr, path: &str) -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        write!(s, "GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn serves_metrics_and_healthz() {
        let metrics = Arc::new(PipelineMetrics::new());
        metrics.record_in(100);
        metrics.packets_classified.inc();
        let handle = serve("127.0.0.1:0", Arc::clone(&metrics)).unwrap();
        let addr = handle.addr();

        let health = get(addr, "/healthz");
        assert!(health.starts_with("HTTP/1.1 200 OK"), "{health}");
        assert!(health.ends_with("ok\n"), "{health}");

        let prom = get(addr, "/metrics");
        assert!(prom.contains("text/plain; version=0.0.4"), "{prom}");
        assert!(prom.contains("zoom_packets_in_total 1"), "{prom}");
        assert!(prom.contains("zoom_qoe_series_evicted_total"), "{prom}");

        // The render is live: a second scrape sees new traffic.
        metrics.record_in(100);
        assert!(get(addr, "/metrics").contains("zoom_packets_in_total 2"));

        assert!(get(addr, "/nope").starts_with("HTTP/1.1 404"));

        let mut s = TcpStream::connect(addr).unwrap();
        write!(s, "POST /metrics HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 405"), "{out}");

        handle.shutdown();
        assert!(
            TcpStream::connect(addr).is_err() || {
                // A race on some platforms may allow one last connect; a
                // subsequent one must fail once the listener is gone.
                thread::sleep(Duration::from_millis(50));
                TcpStream::connect(addr).is_err()
            }
        );
    }

    #[test]
    fn debug_routes_serve_live_state() {
        let metrics = Arc::new(PipelineMetrics::new());
        let src = metrics.register_source("pcap:a.pcap");
        src.delivered_ts_nanos.set(5);
        metrics.trace.enable(1, "serve-test");
        let id = metrics.trace.sample().unwrap();
        metrics
            .trace
            .record(id, crate::obs::trace::spans::DISSECT, "engine", 7, 120);
        let handle = serve("127.0.0.1:0", Arc::clone(&metrics)).unwrap();
        let addr = handle.addr();

        let debug = get(addr, "/debug/pipeline");
        assert!(debug.starts_with("HTTP/1.1 200 OK"), "{debug}");
        assert!(debug.contains("application/json"), "{debug}");
        assert!(debug.contains("\"type\":\"debug_pipeline\""), "{debug}");
        assert!(debug.contains("\"delivered_ts_nanos\":5"), "{debug}");
        assert!(debug.contains("\"sample_every\":1"), "{debug}");

        let tail = get(addr, "/debug/trace?n=4");
        assert!(tail.starts_with("HTTP/1.1 200 OK"), "{tail}");
        assert!(tail.contains("application/x-ndjson"), "{tail}");
        assert!(tail.contains(&format!("{id:016x}")), "{tail}");
        assert!(tail.contains("\"span\":\"dissect\""), "{tail}");

        // A bad or absent n falls back to the default tail length.
        assert!(get(addr, "/debug/trace?n=bogus").starts_with("HTTP/1.1 200 OK"));
        assert!(get(addr, "/debug/trace").starts_with("HTTP/1.1 200 OK"));
        handle.shutdown();
    }

    /// Satellite: the endpoint under concurrent load. Several client
    /// threads hammer /metrics, /healthz, and the /debug routes while
    /// the "pipeline" (main thread) keeps mutating the registry; every
    /// response must be a complete, well-formed 200 even though the
    /// single accept thread serializes the connections.
    #[test]
    fn concurrent_scrapes_during_active_ingest() {
        let metrics = Arc::new(PipelineMetrics::new());
        let handle = serve("127.0.0.1:0", Arc::clone(&metrics)).unwrap();
        let addr = handle.addr();

        let scrapers: Vec<_> = (0..4)
            .map(|i| {
                thread::spawn(move || {
                    let paths = [
                        "/metrics",
                        "/healthz",
                        "/debug/pipeline",
                        "/debug/trace?n=2",
                    ];
                    for round in 0..8 {
                        let body = get(addr, paths[(i + round) % paths.len()]);
                        assert!(body.starts_with("HTTP/1.1 200 OK"), "{body}");
                        assert!(body.contains("Content-Length:"), "{body}");
                    }
                })
            })
            .collect();
        // Active ingest: keep the counters moving under the scrapes.
        for _ in 0..2_000 {
            metrics.record_in(60);
            metrics.packets_classified.inc();
        }
        for s in scrapers {
            s.join().expect("scraper thread panicked");
        }
        assert!(get(addr, "/metrics").contains("zoom_packets_in_total 2000"));
        handle.shutdown();
    }

    /// A client that sends its request head one byte at a time gets the
    /// same budget as any other: the accept thread moves on to the next
    /// connection well before the dribble would finish.
    #[test]
    fn a_dribbling_client_does_not_block_other_scrapes() {
        let metrics = Arc::new(PipelineMetrics::new());
        let handle = serve("127.0.0.1:0", Arc::clone(&metrics)).unwrap();
        let addr = handle.addr();

        let mut slow = TcpStream::connect(addr).unwrap();
        let (connected, first_byte) = std::sync::mpsc::channel();
        let dribbler = thread::spawn(move || {
            slow.write_all(b"G").unwrap();
            connected.send(()).unwrap();
            // 38 bytes at 100 ms each: ~4 s if the server waited for all.
            for &b in b"ET /metrics HTTP/1.1\r\nHost: dribble\r\n\r\n" {
                thread::sleep(Duration::from_millis(100));
                if slow.write_all(&[b]).is_err() {
                    break;
                }
            }
        });
        first_byte.recv().unwrap();
        // Let the accept thread pick up the dribbling connection first.
        thread::sleep(Duration::from_millis(100));

        let start = Instant::now();
        let health = get(addr, "/healthz");
        let took = start.elapsed();
        assert!(health.starts_with("HTTP/1.1 200 OK"), "{health}");
        assert!(took < Duration::from_millis(1_500), "healthz took {took:?}");
        dribbler.join().expect("dribbler panicked");
        handle.shutdown();
    }

    /// Satellite: graceful shutdown racing in-flight scrapes. Clients
    /// that lose the race get a connection error, never a hang; the
    /// listener is gone shortly after shutdown returns.
    #[test]
    fn shutdown_races_inflight_scrapes_without_hanging() {
        let metrics = Arc::new(PipelineMetrics::new());
        let handle = serve("127.0.0.1:0", Arc::clone(&metrics)).unwrap();
        let addr = handle.addr();

        let racer = thread::spawn(move || {
            let mut served = 0u32;
            for _ in 0..200 {
                let Ok(mut s) = TcpStream::connect(addr) else {
                    break;
                };
                let _ = write!(s, "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
                let mut out = String::new();
                if s.read_to_string(&mut out).is_ok() && !out.is_empty() {
                    // Whatever we got must be a complete response, not
                    // a torn one.
                    assert!(out.starts_with("HTTP/1.1 200 OK"), "{out}");
                    served += 1;
                }
            }
            served
        });
        thread::sleep(Duration::from_millis(30));
        handle.shutdown(); // joins the accept thread; must not deadlock
        let _served = racer.join().expect("racing scraper panicked");
        thread::sleep(Duration::from_millis(50));
        assert!(
            TcpStream::connect(addr).is_err(),
            "listener outlived shutdown"
        );
    }
}
