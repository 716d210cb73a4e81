//! Host fingerprint, peak memory, and the same-host comparison of two
//! result logs.

use mdj_server::json::{parse, Json};
use std::path::Path;

/// Where the engine's sources and this benchmark live.
pub fn repo_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
}

/// Host and build identity. Two results are comparable only when every
/// field but `commit` agrees.
pub fn fingerprint() -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into());
    let root = repo_root();
    let commit = command_line("git", &["-C", &root.to_string_lossy(), "rev-parse", "HEAD"])
        .unwrap_or_else(|| format!("tree:{:016x}", digest(&root.join("crates"))));
    Json::obj(vec![
        ("nproc", Json::Int(nproc as i64)),
        ("cpu", Json::Str(cpu)),
        ("rustc", Json::Str(rustc)),
        // The benchmark is built with the engine crates' default features
        // only.
        ("features", Json::Arr(Vec::new())),
        (
            "profile",
            Json::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .into(),
            ),
        ),
        (
            "bench",
            Json::Str(format!("{:016x}", digest(&root.join("e2ebench/src")))),
        ),
        ("commit", Json::Str(commit)),
    ])
}

/// First line of a command's standard output, if it ran and succeeded.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    out.status
        .success()
        .then(|| text.lines().next().unwrap_or("").trim().to_string())
}

/// FNV-1a over the relative paths and contents of the `.rs` and `.toml`
/// files under `dir`, in sorted order: names the source tree when no git
/// metadata is at hand.
fn digest(dir: &Path) -> u64 {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if matches!(p.extension().and_then(|x| x.to_str()), Some("rs" | "toml")) {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(dir, &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let rel = f
            .strip_prefix(dir)
            .unwrap_or(&f)
            .to_string_lossy()
            .into_owned();
        let body = std::fs::read(&f).unwrap_or_default();
        for b in rel.bytes().chain(body) {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A saved run: its fingerprint and its metrics.
fn load(path: &str) -> Result<(Json, Json), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut fp = None;
    let mut result = None;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("fingerprint ") {
            fp = Some(parse(rest)?);
        } else if line.starts_with('{') {
            result = parse(line).ok().and_then(|j| j.get("metrics").cloned());
        }
    }
    Ok((
        fp.ok_or_else(|| format!("{path}: no fingerprint line"))?,
        result.ok_or_else(|| format!("{path}: no result line"))?,
    ))
}

/// Print each shared metric of two saved runs side by side. Refuses, with
/// an error, when the host or build fingerprints differ.
pub fn compare(a: &str, b: &str) -> Result<(), String> {
    let (fa, ma) = load(a)?;
    let (fb, mb) = load(b)?;
    let Json::Obj(fields) = &fa else {
        return Err(format!("{a}: fingerprint is not an object"));
    };
    for (key, va) in fields {
        if key != "commit" && fb.get(key) != Some(va) {
            return Err(format!(
                "refusing to compare: `{key}` differs ({} vs {})",
                va.encode(),
                fb.get(key).map_or("missing".into(), Json::encode)
            ));
        }
    }
    let commit = |f: &Json| f.get("commit").map_or("?".into(), Json::encode);
    println!("commit {} -> {}", commit(&fa), commit(&fb));
    let Json::Obj(metrics) = &ma else {
        return Err(format!("{a}: metrics is not an object"));
    };
    let value = |m: &Json| match m.get("value") {
        Some(Json::Float(v)) => Some(*v),
        Some(Json::Int(v)) => Some(*v as f64),
        _ => None,
    };
    for (name, m) in metrics {
        let (Some(x), Some(y)) = (value(m), mb.get(name).and_then(value)) else {
            continue;
        };
        let delta = if x != 0.0 { (y - x) / x * 100.0 } else { 0.0 };
        println!("{name:32} {x:>14.4} {y:>14.4} {delta:>+8.2}%");
    }
    Ok(())
}
