//! Boot and tear down the server under test: an in-process
//! `mdj_server::Server` on a loopback port, built the way `mdjd`'s
//! `build_service` builds it, with `mdjd`'s default limits.

use crate::workload::{self, Shape};
use mdj_core::{EngineConfig, PoolChargeAdapter};
use mdj_server::{ConnLimits, QueryService, Server, ServiceConfig};
use mdj_storage::PagedStore;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

// `mdjd` defaults.
const POOL_BYTES: usize = 256 << 20;
const BUDGET_BYTES: usize = 16 << 20;
const QUEUE: usize = 32;
const ADMISSION_WAIT: Duration = Duration::from_millis(500);
const DEADLINE: Duration = Duration::from_secs(30);
const MAX_CONNS: usize = 64;
const READ_TIMEOUT: Duration = Duration::from_secs(60);
const DRAIN: Duration = Duration::from_secs(5);
const CACHE_BYTES: usize = 64 << 20;
const PAGE_BYTES: u64 = 4096;
const BUFFER_BYTES: u64 = 8 << 20;

pub struct Env {
    pub server: Server,
    pub service: Arc<QueryService>,
    pub store: Option<Arc<PagedStore>>,
    dir: PathBuf,
}

/// Generate the tables for `seed` and boot a server over them. Paged
/// workloads cluster both tables on `month` into a fresh page store under
/// `dir`, as a first `mdjd --data` boot does; spill files also go under
/// `dir`, so the run touches nothing outside it.
pub fn boot(shape: &Shape, seed: u64, dir: &Path) -> Result<Env, String> {
    let io = |e: std::io::Error| format!("{}: {e}", dir.display());
    let spill = dir.join("spill");
    std::fs::create_dir_all(&spill).map_err(io)?;
    let (sales, payments) = workload::tables(seed, shape.rows);
    let mut engine = EngineConfig::new().with_spill_dir(spill);
    let mut store = None;
    if shape.paged {
        let (s, _boot) = PagedStore::open(&dir.join("pages")).map_err(|e| e.to_string())?;
        for (name, rel) in [("Sales", &sales), ("Payments", &payments)] {
            s.create_table(name, rel, "month", PAGE_BYTES)
                .map_err(|e| format!("create {name}: {e}"))?;
        }
        // Serve what was persisted, in its clustered order.
        for name in s.table_names() {
            let rel = s
                .table(&name)
                .ok_or_else(|| format!("table {name} vanished"))?
                .read_all(None)
                .map_err(|e| format!("load {name}: {e}"))?;
            engine = engine.register_table(name, rel);
        }
        store = Some(s);
    } else {
        engine = engine
            .register_table("Sales", sales)
            .register_table("Payments", payments);
    }
    let engine = engine.with_cuboid_cache(CACHE_BYTES).build();
    if let Some(s) = &store {
        for name in s.table_names() {
            if let Some(t) = s.table(&name) {
                engine
                    .catalog()
                    .attach_paged(&name, t)
                    .map_err(|e| e.to_string())?;
            }
        }
    }
    let config = ServiceConfig {
        pool_bytes: POOL_BYTES,
        default_budget: BUDGET_BYTES,
        max_waiters: QUEUE,
        admission_wait: ADMISSION_WAIT,
        default_deadline: Some(DEADLINE),
    };
    let service = Arc::new(QueryService::new(engine, config));
    if let Some(s) = &store {
        let pool = PoolChargeAdapter::hooked_pool(service.pool().clone(), BUFFER_BYTES);
        service.engine().attach_buffer_pool(pool);
        service.attach_paged_store(s.clone());
    }
    let limits = ConnLimits {
        max_conns: MAX_CONNS,
        read_timeout: Some(READ_TIMEOUT),
        ..ConnLimits::default()
    };
    let server =
        Server::bind_with("127.0.0.1:0", service.clone(), limits).map_err(|e| e.to_string())?;
    Ok(Env {
        server,
        service,
        store,
        dir: dir.to_path_buf(),
    })
}

/// What tearing a server down showed.
#[derive(Debug, Default)]
pub struct Hygiene {
    /// `pool_reserved` in the drain's report.
    pub residue_bytes: u64,
    pub problems: Vec<String>,
}

/// Drain the server, check that the drain is clean and the memory pool is
/// back to zero, and remove the run's directory.
///
/// At the seed a drain does not release the buffer pool's resident pages,
/// whose bytes are charged to the same memory pool, so after any paged
/// query the drain waits out its grace period and reports those bytes as
/// `pool_reserved`. That is reported as a problem, like any other residue.
pub fn teardown(env: Env) -> Hygiene {
    let Env {
        server,
        service,
        store,
        dir,
    } = env;
    let drain = server.shutdown(DRAIN);
    let mut hygiene = Hygiene {
        residue_bytes: drain.pool_reserved,
        problems: Vec::new(),
    };
    let resident = service
        .engine()
        .buffer_pool()
        .map_or(0, |p| p.resident_bytes());
    if !drain.is_clean() {
        hygiene.problems.push(format!(
            "unclean drain: {drain:?} ({resident} B of buffer-pool pages resident)"
        ));
    }
    let reserved = service.pool().reserved();
    if reserved != 0 {
        hygiene
            .problems
            .push(format!("pool_reserved is {reserved} after the drain"));
    }
    drop((server, service, store));
    remove(&dir, &mut hygiene.problems);
    hygiene
}

/// Tear down a server that only served a set-up timing. Its buffer-pool
/// pages are released first, so the drain does not wait out its grace
/// period; the drain is not judged (the run's own server is, by
/// [`teardown`]).
pub fn discard(env: Env) -> Vec<String> {
    let Env {
        server,
        service,
        store,
        dir,
    } = env;
    if let Some(p) = service.engine().buffer_pool() {
        p.clear();
    }
    server.shutdown(DRAIN);
    drop((server, service, store));
    let mut problems = Vec::new();
    remove(&dir, &mut problems);
    problems
}

fn remove(dir: &Path, problems: &mut Vec<String>) {
    if let Err(e) = std::fs::remove_dir_all(dir) {
        problems.push(format!("removing {}: {e}", dir.display()));
    }
    if dir.exists() {
        problems.push(format!("{} survived the run", dir.display()));
    }
}
