//! `e2ebench`: the end-to-end benchmark of the `mdjd` query server.
//!
//! ```text
//! e2ebench --workload <olap_scan|dashboard_repeat|disk_scan> --seed N
//!          --seconds S --trace <0|1> [--scale F] [--corrupt-reference]
//!          [--sever-connection]
//! e2ebench --compare RUN_A.log RUN_B.log
//! ```
//!
//! Boots an in-process `mdj_server::Server` on a loopback port, drives it
//! with closed-loop clients sending line-delimited JSON requests, checks
//! every answer, and prints the host fingerprint, a summary line, and, as
//! the last line, the result object. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` spends half the run untraced (work counters) and
//! half on the traced per-layer breakdown. `--scale` shrinks the tables
//! (the smoke test runs at 0.01); `--corrupt-reference` makes the checker
//! expect a wrong answer for the first warm-up query; `--sever-connection`
//! makes client 0 shut its socket down before its first measured request,
//! so that request fails in transport. `--compare` prints
//! two saved runs' metrics side by side and refuses runs whose fingerprints
//! differ. See README.md for the workloads and every metric.

mod boot;
mod check;
mod clients;
mod host;
mod trace;
mod workload;

use check::Checker;
use clients::{Client, Log, Run, Versions};
use mdj_server::json::Json;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;
use trace::{Breakdown, Tracer};
use workload::Workload;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Requests scripted per client per second of run. A client that reaches
/// the end of its script starts it over.
const OPS_PER_SECOND: f64 = 12.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: f64,
    corrupt: bool,
    sever: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut scale = 1.0;
    let mut corrupt = false;
    let mut sever = false;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => seed = Some(value()?.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value()?.parse::<f64>().map_err(|_| "bad --seconds")?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--scale" => scale = value()?.parse().map_err(|_| "bad --scale")?,
            "--corrupt-reference" => corrupt = true,
            "--sever-connection" => sever = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && scale > 0.0) {
        return Err("--seconds and --scale must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        scale,
        corrupt,
        sever,
    })
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if raw.first().map(String::as_str) == Some("--compare") {
        match &raw[1..] {
            [a, b] => host::compare(a, b),
            _ => Err("usage: e2ebench --compare RUN_A.log RUN_B.log".into()),
        }
    } else {
        parse_args(&raw).and_then(|args| run(&args))
    };
    if let Err(e) = outcome {
        eprintln!("e2ebench: {e}");
        std::process::exit(1);
    }
}

/// Linear-interpolated quantile of `xs`.
fn quantile(xs: &[f64], q: f64) -> Result<f64, String> {
    if xs.is_empty() {
        return Err("no samples".into());
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (i, frac) = (pos.floor() as usize, pos.fract());
    Ok(v[i] + (v[(i + 1).min(v.len() - 1)] - v[i]) * frac)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// A `stats` op field difference.
fn delta(before: &Json, after: &Json, key: &str) -> f64 {
    let get = |j: &Json| j.get(key).and_then(Json::as_int).unwrap_or(0);
    (get(after) - get(before)) as f64
}

type Metric = (&'static str, f64, &'static str);

/// What the untraced half of a traced run saw beyond its log: `stats` op
/// snapshots and buffer-pool `(hits, misses)` on either side of it.
struct Counters {
    before: Json,
    after: Json,
    pool_before: (u64, u64),
    pool_after: (u64, u64),
}

/// The paged `Sales` table after the run, when the workload has one.
#[derive(Default)]
struct PagedFacts {
    pages: usize,
    bytes_per_row: f64,
}

/// Per-layer metrics: work counters from the untraced half (`a`, which ran
/// at `a_ops_per_s`), times from the traced half (`b` over `b_window`).
fn per_layer(
    a: &Log,
    a_ops_per_s: f64,
    c: &Counters,
    b: &Log,
    b_window: f64,
    paged: &PagedFacts,
    traced: &Breakdown,
) -> Vec<Metric> {
    let q = a.query_ms.len() as f64;
    let d = |k| delta(&c.before, &c.after, k);
    let hits = d("cache_hits") + d("cache_rollup_hits");
    let lookups = hits + d("cache_misses");
    let pool_hits = (c.pool_after.0 - c.pool_before.0) as f64;
    let pool_misses = (c.pool_after.1 - c.pool_before.1) as f64;
    let pages_per_query = ratio(a.pages_read as f64, q);
    let l = &b.layers;
    let mut m = vec![
        (
            "core.tuples_per_query",
            ratio(a.tuples_scanned as f64, q),
            "count",
        ),
        (
            "core.updates_per_query",
            ratio(a.updates as f64, q),
            "count",
        ),
        (
            "core.tuples_per_row_returned",
            ratio(a.tuples_scanned as f64, a.rows as f64),
            "count",
        ),
        ("cache.lookups_per_query", ratio(lookups, q), "count"),
        ("cache.hit_ratio", ratio(hits, lookups), "ratio"),
        ("cache.invalidations", d("cache_invalidations"), "count"),
        ("pager.pages_read_per_query", pages_per_query, "count"),
        (
            "pager.pages_read_ratio",
            ratio(pages_per_query, paged.pages as f64),
            "ratio",
        ),
        (
            "pager.evictions_per_query",
            ratio(a.pool_evictions as f64, q),
            "count",
        ),
        (
            "pager.pool_hit_ratio",
            ratio(pool_hits, pool_hits + pool_misses),
            "ratio",
        ),
        (
            "pager.decode_mb_per_s",
            ratio(l.decode_bytes as f64, l.decode * 1e3),
            "MB/s",
        ),
        ("pager.append_ms", ratio(l.append, l.ingests as f64), "ms"),
        ("pager.disk_bytes_per_row", paged.bytes_per_row, "B"),
    ];
    m.extend(traced.metrics.iter().map(|&(n, v)| (n, v, "ms")));
    m.extend([
        (
            "wire.encode_mb_per_s",
            ratio(l.encode_bytes as f64, l.encode * 1e3),
            "MB/s",
        ),
        (
            "core.ns_per_tuple",
            ratio(l.mdjoin_ms() * 1e6, l.mdjoin_tuples as f64),
            "ns",
        ),
        (
            "cache.ingest_maintain_ms",
            ratio(l.maintain, l.ingests as f64),
            "ms",
        ),
        ("trace.violations", traced.violations.len() as f64, "count"),
        (
            "trace.overhead_ratio",
            ratio(b.ops() as f64 / b_window, a_ops_per_s),
            "ratio",
        ),
    ]);
    m
}

fn run(args: &Args) -> Result<(), String> {
    let shape = args.workload.shape(args.scale);
    let ops = ((args.seconds * OPS_PER_SECOND) as usize).max(64);
    let script = workload::script(args.workload, args.seed, ops, &shape);
    // A traced ingest appends a second batch.
    let batch_count = 2 * (ops / shape.ingest_every) + 2;
    let batches = workload::batches(args.seed, shape.ingest_table, batch_count);
    let batch_json: Vec<String> = batches.iter().map(|b| clients::rows_json(b)).collect();
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    let dir = host::repo_root().join(".bench_tmp").join(format!(
        "{}-{}-{stamp}",
        args.workload.name(),
        std::process::id()
    ));

    // Set-up, several times: data generation, boot, connections, warm-up.
    // The last one serves the run.
    let mut hygiene_problems = Vec::new();
    let mut setup_s = Vec::new();
    let mut warm = Vec::new();
    let mut kept = None;
    for i in 0..SETUPS {
        let t = Instant::now();
        let env = boot::boot(&shape, args.seed, &dir.join(format!("setup{i}")))?;
        let mut clients = (0..shape.clients)
            .map(|_| Client::connect(env.server.local_addr(), &script))
            .collect::<Result<Vec<_>, _>>()?;
        for &q in &script.warmup {
            let line = clients[0].query_line(&script, q);
            let resp = clients[0]
                .call(&line)
                .map_err(|e| format!("warm-up: {e}"))?;
            warm.push((q, resp.to_string()));
        }
        setup_s.push(t.elapsed().as_secs_f64());
        if i + 1 < SETUPS {
            drop(clients);
            hygiene_problems.extend(boot::discard(env));
        } else {
            kept = Some((env, clients));
        }
    }
    let (env, mut clients) = kept.expect("at least one set-up");

    // References, from the table as set up.
    let catalog = env.service.engine().catalog();
    let sales_v0 = catalog.get("Sales").map_err(|e| e.to_string())?;
    let t = Instant::now();
    let sales_batches = if shape.ingest_table == "Sales" {
        Arc::new(batches.clone())
    } else {
        Arc::new(Vec::new())
    };
    let checker = Checker::build(&script, &sales_v0, sales_batches, args.corrupt)?;
    let reference_s = t.elapsed().as_secs_f64();
    let mut log = Log::default();
    for (q, resp) in &warm {
        for v in checker.check(*q, resp, &[(0, 0)]) {
            log.record(v);
        }
    }

    let versions = Versions::default();
    let run = Run {
        addr: env.server.local_addr(),
        script: &script,
        table: shape.ingest_table,
        batches: &batches,
        batch_json: &batch_json,
        versions: &versions,
        pending_bytes: AtomicUsize::new(0),
        window_cut: AtomicBool::new(false),
        sever: AtomicBool::new(args.sever),
    };
    let mut cursors = vec![0; shape.clients];
    let pool = env.service.engine().buffer_pool();
    let pool_counts = || pool.as_ref().map_or((0, 0), |p| (p.hits(), p.misses()));
    let (mut measured, window, traced) = if args.trace {
        let before = clients[0].stats()?;
        let pool_before = pool_counts();
        let (a, wa) = run.phase(&mut clients, &mut cursors, args.seconds / 2.0, None);
        let counters = Counters {
            before,
            after: clients[0].stats()?,
            pool_before,
            pool_after: pool_counts(),
        };
        let tracer = Tracer::new(&env.service, &script, env.store.clone(), shape.ingest_table)?;
        let (b, wb) = run.phase(
            &mut clients,
            &mut cursors,
            args.seconds / 2.0,
            Some(&tracer),
        );
        (a, wa, Some((counters, b, wb)))
    } else {
        let (a, wa) = run.phase(&mut clients, &mut cursors, args.seconds, None);
        (a, wa, None)
    };
    let peak_rss = host::peak_rss_mib();

    // The answers, checked now that nothing is timed.
    measured.check(&checker);
    let traced = traced.map(|(counters, mut b, wb)| {
        b.check(&checker);
        (counters, b, wb)
    });
    // Re-check every dashboard panel against the final table.
    if args.workload == Workload::DashboardRepeat {
        let table = catalog.get("Sales").map_err(|e| e.to_string())?;
        for q in 0..script.queries.len() {
            let line = clients[0].query_line(&script, q);
            match clients[0].call(&line) {
                Ok(resp) => log.record(checker.check_final(q, resp, &table)),
                Err(e) => log.fail(format!("final re-check transport: {e}")),
            }
        }
    }

    let paged = env
        .store
        .as_ref()
        .and_then(|s| s.table("Sales"))
        .map_or_else(PagedFacts::default, |t| PagedFacts {
            pages: t.page_count(),
            bytes_per_row: ratio(t.data_len() as f64, t.row_count() as f64),
        });
    drop((clients, pool));
    let hygiene = boot::teardown(env);
    hygiene_problems.extend(hygiene.problems);
    if std::fs::remove_dir(&dir).is_err() || dir.exists() {
        hygiene_problems.push(format!("{} survived the run", dir.display()));
    }

    let (nq, ni) = (measured.query_ms.len(), measured.ingest_ms.len());
    let ops_per_s = measured.ops() as f64 / window;
    let mut violations = Vec::new();
    let mut metrics = match &traced {
        Some((counters, b, wb)) => {
            let breakdown = b.layers.breakdown();
            let m = per_layer(&measured, ops_per_s, counters, b, *wb, &paged, &breakdown);
            violations = breakdown.violations;
            m
        }
        None => vec![
            ("query_p50_ms", quantile(&measured.query_ms, 0.5)?, "ms"),
            ("query_p95_ms", quantile(&measured.query_ms, 0.95)?, "ms"),
            ("ops_per_s", ops_per_s, "1/s"),
            ("ingest_p50_ms", quantile(&measured.ingest_ms, 0.5)?, "ms"),
            ("setup_s", quantile(&setup_s, 0.5)?, "s"),
            ("peak_rss_mib", peak_rss, "MiB"),
        ],
    };
    log.merge(measured);
    if let Some((_, b, _)) = traced {
        log.merge(b);
    }
    let error_ratio = ratio(log.failed as f64, log.attempted as f64);
    if args.trace {
        metrics.extend([
            ("check.error_ratio", error_ratio, "ratio"),
            ("check.float_bit_diffs", log.float_bit_diffs as f64, "count"),
            (
                "hygiene.drain_residue_bytes",
                hygiene.residue_bytes as f64,
                "B",
            ),
            ("hygiene.problems", hygiene_problems.len() as f64, "count"),
        ]);
    }

    for p in log.problems.iter().chain(&violations) {
        eprintln!("e2ebench: {p}");
    }
    for p in &hygiene_problems {
        eprintln!("e2ebench: hygiene: {p}");
    }
    let num = Json::Float;
    println!("fingerprint {}", host::fingerprint().encode());
    let summary = Json::obj(vec![
        ("workload", Json::Str(args.workload.name().into())),
        ("seed", Json::Int(args.seed as i64)),
        ("trace", Json::Bool(args.trace)),
        ("window_s", num(window)),
        (
            "window_cut",
            Json::Bool(run.window_cut.load(Ordering::SeqCst)),
        ),
        (
            "kept_response_mib",
            num(run.pending_bytes.load(Ordering::SeqCst) as f64 / (1 << 20) as f64),
        ),
        ("query_samples", Json::Int(nq as i64)),
        ("ingest_samples", Json::Int(ni as i64)),
        ("error_ratio", num(error_ratio)),
        ("float_bit_diffs", Json::Int(log.float_bit_diffs as i64)),
        ("disk_bytes_per_row", num(paged.bytes_per_row)),
        ("reference_s", num(reference_s)),
        (
            "setup_s",
            Json::Arr(setup_s.iter().map(|&s| num(s)).collect()),
        ),
        ("trace_violations", Json::Int(violations.len() as i64)),
        ("hygiene_ok", Json::Bool(hygiene_problems.is_empty())),
        (
            "drain_residue_bytes",
            Json::Int(hygiene.residue_bytes as i64),
        ),
    ]);
    println!("summary {}", summary.encode());
    let metrics = metrics
        .into_iter()
        .map(|(name, value, unit)| {
            let m = Json::obj(vec![
                ("value", num(value)),
                ("unit", Json::Str(unit.into())),
            ]);
            (name, m)
        })
        .collect();
    let result = Json::obj(vec![
        (
            "correct",
            Json::Bool(log.failed == 0 && violations.is_empty()),
        ),
        ("attempted", Json::Int(log.attempted as i64)),
        ("failed", Json::Int(log.failed as i64)),
        ("metrics", Json::obj(metrics)),
    ]);
    println!("{}", result.encode());
    Ok(())
}
