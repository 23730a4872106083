//! `fiting-check` — runs the workspace concurrency rule checker and
//! fails (exit 1) on any finding. CI runs this as a blocking job:
//! `cargo run -p fiting-analysis`.
//!
//! The workspace root is the first positional argument when given,
//! otherwise the manifest's grandparent (so the binary works from any
//! cwd under `cargo run`). With `--lines` it prints the per-crate
//! production line-count and `pub`-surface scoreboard instead of
//! running the rules; any other `--flag` is refused with a usage line
//! (exit 2).

use std::path::PathBuf;
use std::process::ExitCode;

fn default_root() -> PathBuf {
    // crates/analysis/ -> crates/ -> workspace root
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(std::path::Path::parent)
        .map_or(manifest.clone(), std::path::Path::to_path_buf)
}

/// `--lines`: production code lines per workspace crate, each product
/// crate's `pub` items and how many of them are named outside it, the
/// totals, and the unnamed items.
fn print_lines(root: &std::path::Path) -> ExitCode {
    match fiting_analysis::workspace_lines(root) {
        Ok(rows) => {
            println!(
                "production code lines (non-blank; comments and #[cfg(test)] items excluded),"
            );
            println!("and the product crates' `pub` items outside #[cfg(test)] / named outside the crate");
            println!("  {:<24}{:>7}{:>7}{:>7}", "crate", "lines", "pub", "named");
            let (mut lines, mut items, mut named) = (0, 0, 0);
            for (name, n, surface) in &rows {
                lines += n;
                if let Some(s) = surface {
                    let (i, o) = (s.items, s.items - s.unnamed.len());
                    (items, named) = (items + i, named + o);
                    println!("  {name:<24}{n:>7}{i:>7}{o:>7}");
                } else {
                    println!("  {name:<24}{n:>7}");
                }
            }
            println!("  {:<24}{lines:>7}{items:>7}{named:>7}", "total");
            println!("`pub` items nothing outside their crate names:");
            for unnamed in rows
                .iter()
                .filter_map(|r| r.2.as_ref())
                .flat_map(|s| &s.unnamed)
            {
                println!("  {unnamed}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("fiting-check: cannot count {}: {e}", root.display());
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let (lines, root) = match fiting_analysis::parse_args(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(flag) => {
            eprintln!(
                "fiting-check: unknown flag {flag}\n{}",
                fiting_analysis::USAGE
            );
            return ExitCode::from(2);
        }
    };
    let root = root.unwrap_or_else(default_root);
    if lines {
        return print_lines(&root);
    }
    match fiting_analysis::check_workspace(&root) {
        Ok((findings, scanned)) => {
            for f in &findings {
                eprintln!("{f}");
            }
            if findings.is_empty() {
                println!("fiting-check: {scanned} files clean");
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "fiting-check: {} finding(s) across {scanned} files",
                    findings.len()
                );
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("fiting-check: cannot scan {}: {e}", root.display());
            ExitCode::FAILURE
        }
    }
}
