//! The harness front door (`ftmpi-bench`): regenerate the paper's tables
//! and figures, and maintain the result cache they share under
//! `<out>/.cache/`.
//!
//! ```sh
//! # One figure, or every one in sequence against one shared cache.
//! cargo run --release -p ftmpi-bench --bin ftmpi-bench -- figure fig5_servers
//! cargo run --release -p ftmpi-bench --bin ftmpi-bench -- figure all [--full] [--jobs N]
//!
//! # Show what the cache holds.
//! cargo run --release -p ftmpi-bench --bin ftmpi-bench -- cache
//!
//! # Drop invalid/stale entries and orphaned temp files.
//! cargo run --release -p ftmpi-bench --bin ftmpi-bench -- cache --prune
//!
//! # Additionally evict oldest entries until the directory fits a budget.
//! cargo run --release -p ftmpi-bench --bin ftmpi-bench -- cache --prune --max-bytes 10000000
//! ```
//!
//! `--out DIR` relocates the results directory (default `results/`) for
//! both commands; a fresh one makes a cold figure run.

use std::path::PathBuf;

use ftmpi_bench::figures;
use ftmpi_bench::sweep::prune_cache;

const USAGE: &str = "usage: ftmpi-bench figure <name>|all [--fast|--full] [--out DIR] [--jobs N]
       ftmpi-bench cache [--prune] [--max-bytes N] [--out DIR]";

struct CacheCmd {
    prune: bool,
    max_bytes: Option<u64>,
    out_dir: PathBuf,
}

fn parse_cache(args: impl IntoIterator<Item = String>) -> Result<CacheCmd, String> {
    let mut cmd = CacheCmd {
        prune: false,
        max_bytes: None,
        out_dir: PathBuf::from("results"),
    };
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--prune" => cmd.prune = true,
            "--max-bytes" => {
                let n = args.next().ok_or("--max-bytes needs a byte count")?;
                cmd.max_bytes = Some(
                    n.parse::<u64>()
                        .map_err(|_| format!("--max-bytes: not a byte count: {n}"))?,
                );
            }
            "--out" => {
                cmd.out_dir = PathBuf::from(args.next().ok_or("--out needs a directory")?);
            }
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    if cmd.max_bytes.is_some() && !cmd.prune {
        return Err("--max-bytes only makes sense with --prune".into());
    }
    Ok(cmd)
}

/// Directory size and file count, ignoring subdirectories (the cache is
/// flat).
fn dir_stats(dir: &std::path::Path) -> (usize, u64) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return (0, 0);
    };
    entries
        .filter_map(|e| e.ok())
        .filter_map(|e| e.metadata().ok())
        .filter(|m| m.is_file())
        .fold((0, 0), |(n, b), m| (n + 1, b + m.len()))
}

fn main() {
    let mut args = std::env::args().skip(1);
    let parsed = match args.next().as_deref() {
        Some("figure") => figures::parse(args).map(|(figs, hargs)| figures::run(figs, &hargs)),
        Some("cache") => parse_cache(args).map(cache),
        _ => Err("expected a command".to_string()),
    };
    if let Err(msg) = parsed {
        eprintln!("error: {msg}\n{USAGE}");
        std::process::exit(2);
    }
}

fn cache(cmd: CacheCmd) {
    let dir = cmd.out_dir.join(".cache");
    if !cmd.prune {
        let (files, bytes) = dir_stats(&dir);
        println!("cache {}: {files} files, {bytes} bytes", dir.display());
        return;
    }
    match prune_cache(&dir, cmd.max_bytes) {
        Ok(r) => {
            println!(
                "pruned {}: scanned {} files ({} bytes), removed {}, kept {} ({} bytes)",
                dir.display(),
                r.scanned,
                r.bytes_before,
                r.removed,
                r.kept,
                r.bytes_after
            );
        }
        Err(e) => {
            eprintln!("error: prune {}: {e}", dir.display());
            std::process::exit(1);
        }
    }
}
