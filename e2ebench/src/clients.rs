//! Closed-loop clients: each sends its next request only after reading the
//! previous response and times it from send to response line. A query's
//! response is kept with the range of table versions it may reflect and
//! checked after the measured window, so the checker's work is not timed.

use crate::check::{check_ingest, Checker, Verdict};
use crate::trace::{Layers, Tracer};
use crate::workload::{Op, Script, BATCH_ROWS};
use mdj_server::json::{parse, Json};
use mdj_storage::{Row, Value};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Problems kept verbatim for the error report; the rest are only counted.
const MAX_PROBLEMS: usize = 8;
/// Bytes of responses a run may keep for checking. Reaching it ends the
/// measured window early (reported as `window_cut`).
const PENDING_CAP: usize = 128 << 20;

/// One line-delimited JSON connection with an open session.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
    pub session: u64,
    /// Statement id per query, when the script sends prepared statements.
    pub stmts: Vec<u64>,
}

fn int_field(response: &str, key: &str) -> Result<u64, String> {
    parse(response)
        .ok()
        .and_then(|j| j.get(key).and_then(Json::as_int))
        .map(|v| v as u64)
        .ok_or_else(|| format!("no `{key}` in {response}"))
}

impl Client {
    pub fn connect(addr: SocketAddr, script: &Script) -> Result<Client, String> {
        let writer = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        writer.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        let mut client = Client {
            writer,
            reader,
            line: String::new(),
            session: 0,
            stmts: Vec::new(),
        };
        let open = client.call(r#"{"op":"open"}"#).map_err(|e| e.to_string())?;
        client.session = int_field(open, "session")?;
        if script.prepared {
            for q in &script.queries {
                let req = Json::obj(vec![
                    ("op", Json::Str("prepare".into())),
                    ("session", Json::Int(client.session as i64)),
                    ("sql", Json::Str(q.sql.clone())),
                ])
                .encode();
                let resp = client.call(&req).map_err(|e| e.to_string())?.to_string();
                client.stmts.push(int_field(&resp, "stmt")?);
            }
        }
        Ok(client)
    }

    /// Send one request line and read one response line.
    pub fn call(&mut self, request: &str) -> std::io::Result<&str> {
        let mut buf = Vec::with_capacity(request.len() + 1);
        buf.extend_from_slice(request.as_bytes());
        buf.push(b'\n');
        self.writer.write_all(&buf)?;
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok(self.line.trim_end())
    }

    /// The request for query `q`: `execute` of its prepared statement, or a
    /// one-shot `query`.
    pub fn query_line(&self, script: &Script, q: usize) -> String {
        let session = ("session", Json::Int(self.session as i64));
        if script.prepared {
            Json::obj(vec![
                ("op", Json::Str("execute".into())),
                session,
                ("stmt", Json::Int(self.stmts[q] as i64)),
            ])
        } else {
            Json::obj(vec![
                ("op", Json::Str("query".into())),
                session,
                ("sql", Json::Str(script.queries[q].sql.clone())),
            ])
        }
        .encode()
    }

    pub fn ingest_line(&self, table: &str, rows_json: &str) -> String {
        format!(
            r#"{{"op":"ingest","session":{},"table":"{table}","rows":{rows_json}}}"#,
            self.session
        )
    }

    /// The server's `stats` object.
    pub fn stats(&mut self) -> Result<Json, String> {
        let resp = self.call(r#"{"op":"stats"}"#).map_err(|e| e.to_string())?;
        parse(resp)
    }
}

/// A batch's `rows` array as the wire carries it.
pub fn rows_json(batch: &[Row]) -> String {
    let cell = |v: &Value| match v {
        Value::Int(i) => Json::Int(*i),
        Value::Float(f) => Json::Float(*f),
        Value::Str(s) => Json::Str(s.to_string()),
        Value::Bool(b) => Json::Bool(*b),
        Value::Null | Value::All => Json::Null,
    };
    Json::Arr(
        batch
            .iter()
            .map(|r| Json::Arr(r.values().iter().map(cell).collect()))
            .collect(),
    )
    .encode()
}

/// Ingest versions of the table the script writes: a reader that sends
/// while `acked == a` and reads its answer while `started == s` saw one of
/// versions `a..=s`.
#[derive(Default)]
pub struct Versions {
    started: AtomicUsize,
    acked: AtomicUsize,
}

impl Versions {
    /// Claim the next batch index.
    pub fn begin(&self) -> usize {
        self.started.fetch_add(1, Ordering::SeqCst)
    }

    pub fn end(&self) {
        self.acked.fetch_add(1, Ordering::SeqCst);
    }

    pub fn acked(&self) -> usize {
        self.acked.load(Ordering::SeqCst)
    }

    pub fn started(&self) -> usize {
        self.started.load(Ordering::SeqCst)
    }
}

/// A query response awaiting its check, received once per version range.
struct Pending {
    q: usize,
    response: String,
    ranges: Vec<(usize, usize)>,
}

/// What one or more clients saw.
#[derive(Default)]
pub struct Log {
    pub query_ms: Vec<f64>,
    pub ingest_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub float_bit_diffs: u64,
    pub rows: u64,
    pub tuples_scanned: u64,
    pub updates: u64,
    pub pages_read: u64,
    pub pool_evictions: u64,
    pub problems: Vec<String>,
    pub layers: Layers,
    pending: Vec<Pending>,
    /// Per query, its latest entry in `pending`.
    latest: HashMap<usize, usize>,
}

impl Log {
    /// Count one request and what its check concluded.
    pub fn record(&mut self, v: Verdict) {
        self.float_bit_diffs += v.float_bit_diffs;
        self.rows += v.rows;
        self.tuples_scanned += v.tuples_scanned;
        self.updates += v.updates;
        self.pages_read += v.pages_read;
        self.pool_evictions += v.pool_evictions;
        if v.ok {
            self.attempted += 1;
        } else {
            self.fail(v.problem.unwrap_or_default());
        }
    }

    /// Count one request that failed.
    pub fn fail(&mut self, problem: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.problems.len() < MAX_PROBLEMS {
            self.problems.push(problem);
        }
    }

    /// Keep query `q`'s response, read while the table was between
    /// versions `lo` and `hi`, for [`Log::check`]. A response identical to
    /// the query's previous one is kept once. Returns the bytes newly kept.
    fn keep(&mut self, q: usize, response: &str, lo: usize, hi: usize) -> usize {
        if let Some(&i) = self.latest.get(&q) {
            if self.pending[i].response == response {
                self.pending[i].ranges.push((lo, hi));
                return 0;
            }
        }
        self.latest.insert(q, self.pending.len());
        self.pending.push(Pending {
            q,
            response: response.to_string(),
            ranges: vec![(lo, hi)],
        });
        response.len()
    }

    /// Check every kept response.
    pub fn check(&mut self, checker: &Checker) {
        let mut pending = std::mem::take(&mut self.pending);
        self.latest.clear();
        // Oldest first, so the checker's folded references only move
        // forward.
        pending.sort_by_key(|p| p.ranges[0]);
        for p in pending {
            for v in checker.check(p.q, &p.response, &p.ranges) {
                self.record(v);
            }
        }
    }

    pub fn merge(&mut self, other: Log) {
        self.query_ms.extend(other.query_ms);
        self.ingest_ms.extend(other.ingest_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.float_bit_diffs += other.float_bit_diffs;
        self.rows += other.rows;
        self.tuples_scanned += other.tuples_scanned;
        self.updates += other.updates;
        self.pages_read += other.pages_read;
        self.pool_evictions += other.pool_evictions;
        for p in other.problems {
            if self.problems.len() < MAX_PROBLEMS {
                self.problems.push(p);
            }
        }
        self.layers.merge(&other.layers);
        self.pending.extend(other.pending);
    }

    /// Completed requests.
    pub fn ops(&self) -> usize {
        self.query_ms.len() + self.ingest_ms.len()
    }
}

/// Everything the clients of one run share.
pub struct Run<'a> {
    pub addr: SocketAddr,
    pub script: &'a Script,
    pub table: &'static str,
    pub batches: &'a [Vec<Row>],
    pub batch_json: &'a [String],
    pub versions: &'a Versions,
    /// Bytes of responses kept for checking, over every client.
    pub pending_bytes: AtomicUsize,
    /// Set when `pending_bytes` reaches its cap: every client stops.
    pub window_cut: AtomicBool,
    /// Client 0 shuts its own socket down before its next request, once.
    pub sever: AtomicBool,
}

impl Run<'_> {
    /// Drive every client closed-loop for `seconds`, continuing each from
    /// its cursor. With a tracer, each request is followed by its traced
    /// breakdown. Returns the log and the window's wall seconds.
    pub fn phase(
        &self,
        clients: &mut [Client],
        cursors: &mut [usize],
        seconds: f64,
        tracer: Option<&Tracer>,
    ) -> (Log, f64) {
        let barrier = Barrier::new(clients.len());
        let start = Instant::now();
        let logs: Vec<(Log, Instant)> = std::thread::scope(|s| {
            let handles: Vec<_> = clients
                .iter_mut()
                .zip(cursors.iter_mut())
                .enumerate()
                .map(|(c, (client, cursor))| {
                    let barrier = &barrier;
                    s.spawn(move || {
                        barrier.wait();
                        let end = start + Duration::from_secs_f64(seconds);
                        let log = self.drive(c, client, cursor, end, tracer);
                        (log, Instant::now())
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let mut log = Log::default();
        let mut last = start;
        for (l, end) in logs {
            log.merge(l);
            last = last.max(end);
        }
        (log, (last - start).as_secs_f64())
    }

    fn drive(
        &self,
        c: usize,
        client: &mut Client,
        cursor: &mut usize,
        end: Instant,
        tracer: Option<&Tracer>,
    ) -> Log {
        let mut log = Log::default();
        let ops = &self.script.clients[c];
        while Instant::now() < end && !self.window_cut.load(Ordering::SeqCst) {
            if c == 0 && self.sever.swap(false, Ordering::SeqCst) {
                let _ = client.writer.shutdown(Shutdown::Both);
            }
            let op = ops[*cursor % ops.len()];
            *cursor += 1;
            let outcome = match op {
                Op::Query(q) => self.query(client, q, tracer, &mut log),
                Op::Ingest => self.ingest(client, tracer, &mut log),
            };
            if let Err(e) = outcome {
                log.fail(e);
                // A broken connection is replaced; its session went with it.
                match Client::connect(self.addr, self.script) {
                    Ok(fresh) => *client = fresh,
                    Err(e) => {
                        log.fail(format!("reconnect: {e}"));
                        break;
                    }
                }
            }
        }
        log
    }

    fn query(
        &self,
        client: &mut Client,
        q: usize,
        tracer: Option<&Tracer>,
        log: &mut Log,
    ) -> Result<(), String> {
        let line = client.query_line(self.script, q);
        let (session, stmt) = (client.session, client.stmts.get(q).copied());
        if let Some(tr) = tracer {
            tr.prime(&line);
        }
        let lo = self.versions.acked();
        let t = Instant::now();
        let resp = client.call(&line).map_err(|e| format!("transport: {e}"))?;
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let hi = self.versions.started();
        log.query_ms.push(ms);
        let kept = log.keep(q, resp, lo, hi);
        if self.pending_bytes.fetch_add(kept, Ordering::SeqCst) + kept > PENDING_CAP {
            self.window_cut.store(true, Ordering::SeqCst);
        }
        if let Some(tr) = tracer {
            match tr.query(session, stmt, q, &line, resp, ms, &mut log.layers) {
                Ok(()) => log.attempted += 1,
                Err(e) => log.fail(format!("traced query {q}: {e}")),
            }
        }
        Ok(())
    }

    fn ingest(
        &self,
        client: &mut Client,
        tracer: Option<&Tracer>,
        log: &mut Log,
    ) -> Result<(), String> {
        let k = self.versions.begin();
        let line = client.ingest_line(self.table, &self.batch_json[k % self.batch_json.len()]);
        let t = Instant::now();
        let resp = client.call(&line);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        self.versions.end();
        let resp = resp.map_err(|e| format!("transport: {e}"))?;
        log.ingest_ms.push(ms);
        log.record(check_ingest(resp, BATCH_ROWS));
        if let Some(tr) = tracer {
            // The traced breakdown appends the next batch through the
            // layers' own calls.
            let k = self.versions.begin();
            let traced = tr.ingest(
                self.batches[k % self.batches.len()].clone(),
                &mut log.layers,
            );
            self.versions.end();
            match traced {
                Ok(()) => log.attempted += 1,
                Err(e) => log.fail(format!("traced ingest: {e}")),
            }
        }
        Ok(())
    }
}
