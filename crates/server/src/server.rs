//! The TCP front end: thread-per-connection, line-delimited JSON, governed
//! by [`ConnLimits`] and a graceful-shutdown controller.
//!
//! Each accepted connection gets its own OS thread reading request lines
//! and writing response lines (the [`wire`](crate::wire) protocol). All
//! connections share one [`QueryService`]; sessions are service-global, so
//! a `cancel` for a long-running query can arrive on a *different*
//! connection than the `execute` it targets — exactly how out-of-band
//! cancellation works in real wire protocols.
//!
//! ## Connection lifecycle
//!
//! ```text
//! accepted ──cap ok──▶ admitted ──frames──▶ active ──EOF/error/timeout──▶ closed
//!    │                                         │
//!    └─ over cap → server_busy, closed         └─ drain → queries finish or cancel
//! ```
//!
//! * **Admission**: past `max_conns` concurrent connections the socket is
//!   answered with one `server_busy` error line and closed — a typed shed,
//!   not a silent drop, and never a queue.
//! * **Frames**: request lines are read through a
//!   [`BoundedLineReader`](crate::limits::BoundedLineReader), so an
//!   oversized frame costs one `frame_too_large` line instead of an OOM,
//!   and a stalled peer is shed with `idle_timeout` when `read_timeout` is
//!   set.
//! * **Close**: sessions opened on a connection are closed (and their
//!   running queries cancelled) when the connection drops, so a dying
//!   client cannot leak sessions or leave queries running.
//! * **Shutdown**: once [`Server::shutdown`] (or the `shutdown` wire op +
//!   a signal loop, as in `mdjd`) requests a drain, new connections get one
//!   `shutting_down` line, in-flight queries finish up to the drain
//!   deadline, stragglers are cancelled, and the acceptor thread exits
//!   after the pool is verified drained.

use crate::error::ServerError;
use crate::limits::{BoundedLineReader, ConnLimits, Frame};
use crate::service::QueryService;
use crate::shutdown::DrainReport;
use crate::wire::{error_line, handle_line};
use std::io::Write;
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

/// How often the nonblocking acceptor polls for shutdown between accepts.
const ACCEPT_POLL: Duration = Duration::from_millis(10);

/// A running TCP server handle. [`shutdown`](Server::shutdown) drains it;
/// merely dropping the handle leaves the acceptor running (the process
/// exits instead), which is what short-lived tests rely on.
pub struct Server {
    local_addr: std::net::SocketAddr,
    service: Arc<QueryService>,
    active: Arc<AtomicUsize>,
    acceptor: Mutex<Option<thread::JoinHandle<()>>>,
}

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) with
    /// default [`ConnLimits`] and start accepting on a background thread.
    pub fn bind(
        addr: impl ToSocketAddrs,
        service: Arc<QueryService>,
    ) -> Result<Server, ServerError> {
        Self::bind_with(addr, service, ConnLimits::default())
    }

    /// Bind with an explicit connection-governor policy.
    pub fn bind_with(
        addr: impl ToSocketAddrs,
        service: Arc<QueryService>,
        limits: ConnLimits,
    ) -> Result<Server, ServerError> {
        let listener =
            TcpListener::bind(addr).map_err(|e| ServerError::Io(format!("bind: {e}")))?;
        // Nonblocking so the acceptor can observe a shutdown request
        // instead of parking in `accept` forever.
        listener
            .set_nonblocking(true)
            .map_err(|e| ServerError::Io(format!("set_nonblocking: {e}")))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| ServerError::Io(format!("local_addr: {e}")))?;
        let active = Arc::new(AtomicUsize::new(0));
        let handle = {
            let service = service.clone();
            let active = active.clone();
            thread::Builder::new()
                .name("mdjd-accept".into())
                .spawn(move || accept_loop(listener, service, limits, active))
                .map_err(|e| ServerError::Io(format!("spawn acceptor: {e}")))?
        };
        Ok(Server {
            local_addr,
            service,
            active,
            acceptor: Mutex::new(Some(handle)),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.local_addr
    }

    /// Connections currently admitted (post-cap, pre-close).
    pub fn active_connections(&self) -> usize {
        self.active.load(Ordering::Acquire)
    }

    /// The service this server fronts.
    pub fn service(&self) -> &Arc<QueryService> {
        &self.service
    }

    /// Graceful shutdown: stop admitting queries and connections, let
    /// in-flight queries finish up to `drain`, cancel stragglers, verify
    /// the pool drained, and stop the acceptor. Idempotent.
    pub fn shutdown(&self, drain: Duration) -> DrainReport {
        self.service.shutdown().request();
        let report = self.service.drain(drain);
        self.service.shutdown().mark_stopped();
        let handle = self
            .acceptor
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .take();
        if let Some(h) = handle {
            let _ = h.join();
        }
        report
    }
}

fn accept_loop(
    listener: TcpListener,
    service: Arc<QueryService>,
    limits: ConnLimits,
    active: Arc<AtomicUsize>,
) {
    loop {
        if service.shutdown().is_stopped() {
            return;
        }
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                thread::sleep(ACCEPT_POLL);
                continue;
            }
            Err(_) => {
                // Transient accept failure (EMFILE, ECONNABORTED, ...):
                // back off briefly; the listener itself is still good.
                thread::sleep(ACCEPT_POLL);
                continue;
            }
        };
        // Some platforms hand the listener's nonblocking mode down to the
        // accepted socket; connection threads want blocking reads governed
        // by the read timeout instead.
        if stream.set_nonblocking(false).is_err() {
            continue;
        }
        // Injected accept fault: the connection vanishes between accept
        // and service, as a dying client's would.
        if service.fault_server_accept() {
            continue;
        }
        if service.shutdown().is_requested() {
            shed(stream, &ServerError::ShuttingDown);
            continue;
        }
        // Connection cap: admit-or-shed is one atomic increment; the
        // excess connection gets a typed error line, never a hang.
        if active.fetch_add(1, Ordering::AcqRel) >= limits.max_conns {
            active.fetch_sub(1, Ordering::AcqRel);
            shed(
                stream,
                &ServerError::ServerBusy {
                    limit: limits.max_conns,
                },
            );
            continue;
        }
        let service = service.clone();
        let limits = limits.clone();
        let guard = ConnGuard {
            active: active.clone(),
        };
        let spawned = thread::Builder::new()
            .name("mdjd-conn".into())
            .spawn(move || {
                let _guard = guard;
                handle_connection(stream, &service, &limits);
            });
        if spawned.is_err() {
            // Spawn failure sheds the connection; the guard moved into the
            // closure was never run, so rebalance here.
            active.fetch_sub(1, Ordering::AcqRel);
        }
    }
}

/// Decrements the active-connection count when a connection thread exits,
/// no matter how.
struct ConnGuard {
    active: Arc<AtomicUsize>,
}

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.active.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Best-effort single error line to a connection being turned away.
fn shed(mut stream: TcpStream, err: &ServerError) {
    let _ = write_line(&mut stream, error_line(err));
}

/// Send one response line in a single write. Writing the body and its
/// newline separately would leave a one-byte tail segment for Nagle's
/// algorithm to hold until the peer's delayed ACK (tens of milliseconds
/// per request on a request/response connection).
fn write_line(stream: &mut TcpStream, mut line: String) -> std::io::Result<()> {
    line.push('\n');
    stream.write_all(line.as_bytes())?;
    stream.flush()
}

fn handle_connection(stream: TcpStream, service: &QueryService, limits: &ConnLimits) {
    // Responses are whole lines written at once; there is nothing for
    // Nagle's algorithm to coalesce, only latency for it to add.
    let _ = stream.set_nodelay(true);
    if let Some(t) = limits.read_timeout {
        // A socket we cannot arm the timeout on would dodge the idle
        // governor; shed it instead of serving it untimed.
        if stream.set_read_timeout(Some(t)).is_err() {
            return;
        }
    }
    let peer_sessions = serve(stream, service, limits);
    // Connection gone: close every session it opened, cancelling in-flight
    // queries under them.
    for sid in peer_sessions {
        let _ = service.close_session(sid);
    }
}

/// Serve one connection until EOF, error, timeout, or an oversized frame;
/// returns the ids of sessions the connection opened and did not close
/// itself.
fn serve(stream: TcpStream, service: &QueryService, limits: &ConnLimits) -> Vec<u64> {
    let mut opened: Vec<u64> = Vec::new();
    let Ok(read_half) = stream.try_clone() else {
        return opened;
    };
    let mut writer = stream;
    let mut reader = BoundedLineReader::new(read_half, limits.max_frame_bytes);
    loop {
        // Injected read fault: the peer "vanishes" mid-protocol; close and
        // clean up exactly as a real half-open socket would force us to.
        if service.fault_server_read() {
            break;
        }
        let line = match reader.next_frame() {
            Frame::Line(line) => line,
            Frame::TooLarge => {
                let _ = write_line(
                    &mut writer,
                    error_line(&ServerError::FrameTooLarge {
                        limit: limits.max_frame_bytes,
                    }),
                );
                break;
            }
            Frame::NotUtf8 => {
                let _ = write_line(
                    &mut writer,
                    error_line(&ServerError::BadRequest("request line is not UTF-8".into())),
                );
                break;
            }
            Frame::TimedOut => {
                let _ = write_line(&mut writer, error_line(&ServerError::IdleTimeout));
                break;
            }
            Frame::Eof | Frame::Io(_) => break,
        };
        if line.trim().is_empty() {
            continue;
        }
        let response = handle_line(service, &line);
        // Cheap protocol introspection to keep the per-connection session
        // list accurate without re-parsing: wire handlers are pure, so we
        // inspect request/response pairs here.
        if let Ok(req) = crate::json::parse(&line) {
            match req.get("op").and_then(crate::json::Json::as_str) {
                Some("open") => {
                    if let Ok(resp) = crate::json::parse(&response) {
                        if let Some(sid) = resp.get("session").and_then(crate::json::Json::as_int) {
                            opened.push(sid as u64);
                        }
                    }
                }
                Some("close") => {
                    if let Some(sid) = req.get("session").and_then(crate::json::Json::as_int) {
                        opened.retain(|s| *s != sid as u64);
                    }
                }
                _ => {}
            }
        }
        // Injected write fault: the response is lost as if the peer closed
        // mid-write; the connection tears down through the same path a
        // real broken pipe takes.
        if service.fault_server_write() {
            break;
        }
        if write_line(&mut writer, response).is_err() {
            break;
        }
    }
    opened
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;
    use mdj_core::EngineConfig;
    use mdj_storage::{DataType, Relation, Row, Schema, Value};
    use std::io::{BufRead, BufReader};

    fn boot_with(limits: ConnLimits) -> (Server, Arc<QueryService>) {
        let schema = Schema::from_pairs(&[("cust", DataType::Int), ("sale", DataType::Float)]);
        let rel = Relation::from_rows(
            schema,
            vec![
                Row::from_values(vec![Value::Int(1), Value::Float(10.0)]),
                Row::from_values(vec![Value::Int(2), Value::Float(30.0)]),
            ],
        );
        let engine = EngineConfig::new().register_table("Sales", rel).build();
        let service = Arc::new(QueryService::new(engine, ServiceConfig::default()));
        let server = Server::bind_with("127.0.0.1:0", service.clone(), limits).unwrap();
        (server, service)
    }

    fn boot() -> (Server, Arc<QueryService>) {
        boot_with(ConnLimits::default())
    }

    fn roundtrip(stream: &mut TcpStream, line: &str) -> String {
        stream.write_all(line.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut resp = String::new();
        reader.read_line(&mut resp).unwrap();
        resp
    }

    #[test]
    fn tcp_round_trip_and_session_cleanup_on_disconnect() {
        let (server, service) = boot();
        let mut conn = TcpStream::connect(server.local_addr()).unwrap();
        let resp = roundtrip(&mut conn, r#"{"op":"open"}"#);
        assert!(resp.contains("\"ok\":true"), "{resp}");
        let resp = roundtrip(
            &mut conn,
            r#"{"op":"query","session":1,"sql":"select cust, sum(sale) from Sales group by cust"}"#,
        );
        assert!(resp.contains("\"rows\":"), "{resp}");
        assert_eq!(service.session_count(), 1);
        drop(conn);
        // The connection thread notices EOF and closes the session.
        for _ in 0..100 {
            if service.session_count() == 0 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        assert_eq!(service.session_count(), 0);
    }

    #[test]
    fn oversized_frame_is_rejected_with_a_typed_code() {
        let (server, service) = boot_with(ConnLimits {
            max_frame_bytes: 1024,
            ..ConnLimits::default()
        });
        let mut evil = TcpStream::connect(server.local_addr()).unwrap();
        let resp = roundtrip(&mut evil, &"x".repeat(8 << 10));
        assert!(resp.contains("\"code\":\"frame_too_large\""), "{resp}");
        // A concurrent well-behaved connection is unaffected.
        let mut good = TcpStream::connect(server.local_addr()).unwrap();
        let resp = roundtrip(&mut good, r#"{"op":"ping"}"#);
        assert!(resp.contains("\"ok\":true"), "{resp}");
        assert_eq!(service.pool().reserved(), 0);
    }

    #[test]
    fn connection_cap_sheds_with_server_busy() {
        let (server, _service) = boot_with(ConnLimits {
            max_conns: 1,
            ..ConnLimits::default()
        });
        let mut first = TcpStream::connect(server.local_addr()).unwrap();
        let resp = roundtrip(&mut first, r#"{"op":"ping"}"#);
        assert!(resp.contains("\"ok\":true"), "{resp}");
        // The second concurrent connection is shed before any request.
        let second = TcpStream::connect(server.local_addr()).unwrap();
        let mut reader = BufReader::new(second.try_clone().unwrap());
        let mut resp = String::new();
        reader.read_line(&mut resp).unwrap();
        assert!(resp.contains("\"code\":\"server_busy\""), "{resp}");
        drop(first);
        // Once the first closes, capacity frees up again.
        for _ in 0..200 {
            if server.active_connections() == 0 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let mut third = TcpStream::connect(server.local_addr()).unwrap();
        let resp = roundtrip(&mut third, r#"{"op":"ping"}"#);
        assert!(resp.contains("\"ok\":true"), "{resp}");
    }

    #[test]
    fn idle_connection_is_shed_after_the_read_timeout() {
        let (server, service) = boot_with(ConnLimits {
            read_timeout: Some(Duration::from_millis(50)),
            ..ConnLimits::default()
        });
        let mut conn = TcpStream::connect(server.local_addr()).unwrap();
        let resp = roundtrip(&mut conn, r#"{"op":"open"}"#);
        assert!(resp.contains("\"ok\":true"), "{resp}");
        assert_eq!(service.session_count(), 1);
        // Stall: send nothing. The server sheds us and closes our session.
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        let mut resp = String::new();
        reader.read_line(&mut resp).unwrap();
        assert!(resp.contains("\"code\":\"idle_timeout\""), "{resp}");
        for _ in 0..100 {
            if service.session_count() == 0 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert_eq!(service.session_count(), 0);
    }

    #[test]
    fn shutdown_drains_and_turns_new_connections_away() {
        let (server, service) = boot();
        let mut conn = TcpStream::connect(server.local_addr()).unwrap();
        let resp = roundtrip(&mut conn, r#"{"op":"ping"}"#);
        assert!(resp.contains("\"ok\":true"), "{resp}");
        let report = server.shutdown(Duration::from_millis(200));
        assert!(report.is_clean(), "{report:?}");
        // New connections are refused or reset once stopped; if one is
        // still accepted during teardown it gets `shutting_down`.
        if let Ok(late) = TcpStream::connect(server.local_addr()) {
            let mut reader = BufReader::new(late);
            let mut resp = String::new();
            if reader.read_line(&mut resp).is_ok() && !resp.is_empty() {
                assert!(resp.contains("\"code\":\"shutting_down\""), "{resp}");
            }
        }
        assert_eq!(service.pool().reserved(), 0);
    }

    #[test]
    fn bind_failure_is_a_typed_error() {
        let (server, _service) = boot();
        let engine = EngineConfig::new().build();
        let service = Arc::new(QueryService::new(engine, ServiceConfig::default()));
        let err = Server::bind(server.local_addr(), service)
            .err()
            .expect("rebinding a bound port must fail");
        assert_eq!(err.code(), "io_error");
    }
}
