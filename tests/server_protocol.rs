//! End-to-end tests of the `mdjd` TCP wire protocol: line-delimited JSON
//! over real sockets, multiple concurrent connections, out-of-band
//! cancellation, and session cleanup on disconnect.
//!
//! These drive [`mdj_server::Server`] the way a client library would; the
//! in-process behaviour of the same service object is covered by
//! `tests/concurrent_sessions.rs`.

use mdj_core::EngineConfig;
use mdj_server::{QueryService, Server, ServiceConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

fn boot(rows: usize) -> (Server, Arc<QueryService>) {
    let sales = mdj_datagen::sales(&mdj_datagen::SalesConfig::default().with_rows(rows));
    let engine = EngineConfig::new().register_table("Sales", sales).build();
    let service = Arc::new(QueryService::new(
        engine,
        ServiceConfig {
            default_deadline: None,
            ..ServiceConfig::default()
        },
    ));
    let server = Server::bind("127.0.0.1:0", service.clone()).unwrap();
    (server, service)
}

struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let writer = TcpStream::connect(addr).unwrap();
        let reader = BufReader::new(writer.try_clone().unwrap());
        Client { writer, reader }
    }

    /// One request line in one write, from a socket left with Nagle's
    /// algorithm on (the default a client library gets).
    fn send(&mut self, line: &str) -> String {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .unwrap();
        self.writer.flush().unwrap();
        let mut resp = String::new();
        self.reader.read_line(&mut resp).unwrap();
        resp
    }
}

fn int_field(resp: &str, key: &str) -> i64 {
    let marker = format!("\"{key}\":");
    let start = resp.find(&marker).expect(resp) + marker.len();
    resp[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '-')
        .collect::<String>()
        .parse()
        .expect(resp)
}

#[test]
fn prepared_statement_lifecycle_over_tcp() {
    let (server, _svc) = boot(500);
    let mut c = Client::connect(server.local_addr());

    assert!(c.send(r#"{"op":"ping"}"#).contains("\"ok\":true"));
    let resp = c.send(r#"{"op":"open"}"#);
    let sid = int_field(&resp, "session");

    let resp = c.send(&format!(
        r#"{{"op":"prepare","session":{sid},"sql":"select cust, sum(sale) from Sales where month = ? group by cust"}}"#
    ));
    assert!(resp.contains("\"params\":1"), "{resp}");
    let stmt = int_field(&resp, "stmt");

    // Two different bindings of the same statement must both run and may
    // produce different result sets.
    let r1 = c.send(&format!(
        r#"{{"op":"execute","session":{sid},"stmt":{stmt},"args":[1]}}"#
    ));
    let r2 = c.send(&format!(
        r#"{{"op":"execute","session":{sid},"stmt":{stmt},"args":[2]}}"#
    ));
    assert!(r1.contains("\"ok\":true"), "{r1}");
    assert!(r2.contains("\"ok\":true"), "{r2}");
    assert!(r1.contains("\"columns\":[\"cust\",\"sum_sale\"]"), "{r1}");
    assert!(int_field(&r1, "tuples_scanned") > 0);

    // Wrong arity is a typed bind error, not a crash.
    let resp = c.send(&format!(
        r#"{{"op":"execute","session":{sid},"stmt":{stmt},"args":[]}}"#
    ));
    assert!(resp.contains("\"code\":\"bind_error\""), "{resp}");

    let resp = c.send(&format!(
        r#"{{"op":"deallocate","session":{sid},"stmt":{stmt}}}"#
    ));
    assert!(resp.contains("\"ok\":true"), "{resp}");
    let resp = c.send(&format!(
        r#"{{"op":"execute","session":{sid},"stmt":{stmt},"args":[1]}}"#
    ));
    assert!(resp.contains("\"code\":\"unknown_statement\""), "{resp}");

    assert!(c
        .send(&format!(r#"{{"op":"close","session":{sid}}}"#))
        .contains("\"ok\":true"));
}

#[test]
fn sequential_pings_are_not_held_by_nagle() {
    // Each response must leave the server as one segment on a no-delay
    // socket. A response written as body + newline in two writes leaves a
    // one-byte tail for Nagle's algorithm to hold until the client's
    // delayed ACK, which costs about 40 ms per request: 50 pings would then
    // take about 2 s.
    let (server, _svc) = boot(10);
    let mut c = Client::connect(server.local_addr());
    assert!(c.send(r#"{"op":"ping"}"#).contains("\"ok\":true"));
    let start = std::time::Instant::now();
    for _ in 0..50 {
        assert!(c.send(r#"{"op":"ping"}"#).contains("\"ok\":true"));
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(1),
        "50 sequential pings took {elapsed:?}"
    );
}

#[test]
fn protocol_errors_are_stable_codes_not_disconnects() {
    let (server, _svc) = boot(100);
    let mut c = Client::connect(server.local_addr());

    for (req, code) in [
        ("this is not json", "bad_request"),
        (r#"{"no":"op"}"#, "bad_request"),
        (r#"{"op":"warp"}"#, "bad_request"),
        (
            r#"{"op":"query","session":424242,"sql":"select count(*) from Sales"}"#,
            "unknown_session",
        ),
        (r#"{"op":"prepare","session":424242}"#, "bad_request"),
    ] {
        let resp = c.send(req);
        assert!(
            resp.contains(&format!("\"code\":\"{code}\"")),
            "request {req} → {resp}"
        );
    }

    // After all those errors the connection is still serviceable.
    let resp = c.send(r#"{"op":"open"}"#);
    let sid = int_field(&resp, "session");
    let resp = c.send(&format!(
        r#"{{"op":"query","session":{sid},"sql":"selec oops"}}"#
    ));
    assert!(resp.contains("\"code\":\"parse_error\""), "{resp}");
    let resp = c.send(&format!(
        r#"{{"op":"query","session":{sid},"sql":"select count(*) from Sales"}}"#
    ));
    assert!(resp.contains("\"ok\":true"), "{resp}");
}

#[test]
fn cube_all_marker_and_scalars_round_trip_as_json() {
    let (server, _svc) = boot(300);
    let mut c = Client::connect(server.local_addr());
    let resp = c.send(r#"{"op":"open"}"#);
    let sid = int_field(&resp, "session");
    let resp = c.send(&format!(
        r#"{{"op":"query","session":{sid},"sql":"select state, sum(sale) from Sales analyze by rollup(state)"}}"#
    ));
    // The grand-total row carries the cube ALL pseudo-value, which the wire
    // encodes as an object marker rather than overloading null.
    assert!(resp.contains("{\"all\":true}"), "{resp}");
    assert!(resp.contains("\"ok\":true"), "{resp}");
}

#[test]
fn cancel_arrives_on_a_different_connection() {
    let (server, _svc) = boot(30_000);
    let addr = server.local_addr();
    let mut a = Client::connect(addr);
    let resp = a.send(r#"{"op":"open"}"#);
    let sid = int_field(&resp, "session");

    let heavy = format!(
        r#"{{"op":"query","session":{sid},"sql":"select cust, prod, month, sum(sale) from Sales analyze by cube(cust, prod, month)","tag":"slow"}}"#
    );
    let runner = std::thread::spawn(move || {
        let resp = a.send(&heavy);
        (a, resp)
    });

    // Sessions are service-global: connection B cancels A's query.
    let mut b = Client::connect(addr);
    let mut saw_running = false;
    for _ in 0..2_000 {
        let resp = b.send(&format!(
            r#"{{"op":"cancel","session":{sid},"tag":"slow"}}"#
        ));
        assert!(resp.contains("\"ok\":true"), "{resp}");
        if resp.contains("\"cancelled\":true") {
            saw_running = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let (_a, resp) = runner.join().unwrap();
    assert!(saw_running, "cancel never found the running query");
    assert!(resp.contains("\"code\":\"cancelled\""), "{resp}");
}

#[test]
fn disconnect_closes_sessions_and_drains_the_pool() {
    let (server, svc) = boot(500);
    let addr = server.local_addr();

    let mut a = Client::connect(addr);
    let resp = a.send(r#"{"op":"open"}"#);
    let sid = int_field(&resp, "session");
    let resp = a.send(r#"{"op":"open"}"#);
    let sid2 = int_field(&resp, "session");
    assert_ne!(sid, sid2);
    assert_eq!(svc.session_count(), 2);

    // A session the client closes itself must not be double-closed later.
    assert!(a
        .send(&format!(r#"{{"op":"close","session":{sid2}}}"#))
        .contains("\"ok\":true"));
    let resp = a.send(&format!(
        r#"{{"op":"query","session":{sid},"sql":"select count(*) from Sales"}}"#
    ));
    assert!(resp.contains("\"ok\":true"), "{resp}");
    drop(a);

    // The connection thread notices EOF and closes the remaining session.
    for _ in 0..1_000 {
        if svc.session_count() == 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(svc.session_count(), 0, "disconnect leaked the session");
    assert_eq!(svc.pool().reserved(), 0, "disconnect leaked pool bytes");
}
