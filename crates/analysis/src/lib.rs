//! `fiting-analysis` — the workspace's source-level concurrency rule
//! checker (`fiting-check` binary).
//!
//! The rules here enforce *protocol* invariants that rustc and clippy
//! cannot see — conventions the sharded router and the service pipeline
//! depend on for correctness:
//!
//! | rule | invariant |
//! |------|-----------|
//! | `lock-order` | shard locks acquired in ascending table position, with a `// lock-order:` comment on every multi-lock hold |
//! | `blocking-in-guard` | no blocking call (`wait`, `sync_all`, `submit`, `recv`, …) while holding a lock guard, except condvar waits that take the guard |
//! | `ordering-justification` | every explicit `Ordering::…` site is covered by a `// ordering:` comment explaining why that strength suffices |
//! | `hot-path-panic` | no `unwrap` / `expect` / `panic!` in worker-thread and shard-hot-path modules (vetted exceptions in `allowlist.txt`) |
//! | `forbid-unsafe` | `#![forbid(unsafe_code)]` present on every crate root |
//! | `std-sync-quarantine` | a lock or an atomic is named through the seam: `std::sync` locks only in `fiting_sync::primitives` and `crates/compat/`, no `std` atomic imported by the four model-checked modules, `shuttle::sync` in no test file (a mirror) |
//! | `storage-io-unwrap` | no `.unwrap()` / `.expect(..)` on storage-crate Results outside `#[cfg(test)]` — I/O faults are expected inputs there, not bugs |
//! | `reader-wait-free` | no `.read()` guard acquisition in reader hot-path modules or anywhere in `crates/telemetry/` — recording must never block a reader or worker |
//! | `unsafe-safety-comment` | every `unsafe` site in the audited `crates/sync/` carries a per-site `// safety:` comment |
//! | `sync-ordering-per-site` | every atomic-ordering site in `crates/sync/` carries its own `// ordering:` comment |
//! | `branchless-claim` | a production `fn` named `*branchless*` calls `select_unpredictable` and holds no `if` / `match` inside its loop — the name stays true of the compiled code |
//! | `doc-link-integrity` | relative links and `BENCH_*.json` references in the operator docs (README / ARCHITECTURE / ROADMAP / docs/ / crate READMEs) resolve to real files |
//!
//! The checker is a hand-rolled lexer (comments, strings, brace depth,
//! `#[cfg(test)]` spans) over line-oriented scanning — no `syn`, no
//! network, no build integration needed. False positives are handled
//! with inline `// fiting-check: allow(<rule>) — reason` comments or
//! (for `hot-path-panic`) `allowlist.txt` entries, both of which
//! reviewers can grep.
//!
//! `fiting-check --lines` reuses the same lexer for the ROADMAP's
//! "least code" scoreboard: production code lines per workspace crate
//! ([`workspace_lines`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod docs;
pub mod lexer;
pub mod rules;

pub use docs::{check_doc_file, is_checked_doc};
pub use rules::{check_file, parse_allowlist, AllowEntry, Finding};

use std::path::{Path, PathBuf};

/// Directories never scanned (build output, VCS, vendored references).
const SKIP_DIRS: [&str; 4] = ["target", ".git", ".github", "related"];

/// Recursively collects every file with `ext` under `dir`, skipping
/// [`SKIP_DIRS`], in sorted order for deterministic output.
fn collect_ext(dir: &Path, ext: &str, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name) && !name.starts_with('.') {
                collect_ext(&path, ext, out)?;
            }
        } else if name.ends_with(ext) {
            out.push(path);
        }
    }
    Ok(())
}

/// Scans the whole workspace under `root`. Returns every finding plus
/// the number of files scanned.
///
/// # Errors
///
/// Propagates I/O errors from walking the tree; an unreadable
/// individual file is skipped.
pub fn check_workspace(root: &Path) -> std::io::Result<(Vec<Finding>, usize)> {
    let allow = match std::fs::read_to_string(root.join("crates/analysis/allowlist.txt")) {
        Ok(text) => parse_allowlist(&text),
        Err(_) => Vec::new(),
    };
    let mut files = Vec::new();
    collect_ext(root, ".rs", &mut files)?;
    let mut findings = Vec::new();
    let mut scanned = 0;
    for path in files {
        let Ok(source) = std::fs::read_to_string(&path) else {
            continue;
        };
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        scanned += 1;
        findings.extend(check_file(&rel, &source, &allow));
    }

    // Operator documentation: relative links and bench recording
    // references must resolve (`doc-link-integrity`).
    let mut doc_files = Vec::new();
    collect_ext(root, ".md", &mut doc_files)?;
    let exists = |rel: &str| root.join(rel).exists();
    for path in doc_files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        if !is_checked_doc(&rel) {
            continue;
        }
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        scanned += 1;
        findings.extend(check_doc_file(&rel, &text, &exists));
    }
    Ok((findings, scanned))
}

/// Production code lines in `source`: lines outside `#[cfg(test)]`
/// items that are non-blank once comments are stripped. (The lexer
/// blanks literal *contents* but keeps their quotes, so a line holding
/// only a string literal still counts.)
#[must_use]
pub fn production_lines(source: &str) -> usize {
    let file = lexer::clean(source);
    file.code
        .iter()
        .enumerate()
        .filter(|(i, line)| file.is_production(i + 1) && !line.trim().is_empty())
        .count()
}

/// The quoted strings of `text`, in order (`"a", "b"` → `a`, `b`).
fn quoted(text: &str) -> impl Iterator<Item = &str> {
    text.split('"').skip(1).step_by(2)
}

/// `(package name, production lines under its src/)` for the root
/// package and every `members` entry of the workspace manifest at
/// `root`, in manifest order.
///
/// # Errors
///
/// Propagates I/O errors from reading the manifests or walking a
/// crate's `src/`; an unreadable individual source file counts zero.
pub fn workspace_lines(root: &Path) -> std::io::Result<Vec<(String, usize)>> {
    let manifest = std::fs::read_to_string(root.join("Cargo.toml"))?;
    let members = manifest
        .split_once("members = [")
        .and_then(|(_, rest)| rest.split_once(']'))
        .map_or("", |(list, _)| list);
    let mut rows = Vec::new();
    for dir in std::iter::once("").chain(quoted(members)) {
        let crate_root = root.join(dir);
        let package = std::fs::read_to_string(crate_root.join("Cargo.toml"))?;
        let name = package
            .split_once("[package]")
            .and_then(|(_, rest)| rest.split_once("name = "))
            .and_then(|(_, rest)| quoted(rest).next())
            .unwrap_or(dir)
            .to_string();
        let mut files = Vec::new();
        collect_ext(&crate_root.join("src"), ".rs", &mut files)?;
        let lines = files
            .iter()
            .filter_map(|path| std::fs::read_to_string(path).ok())
            .map(|source| production_lines(&source))
            .sum();
        rows.push((name, lines));
    }
    Ok(rows)
}

/// One-line usage `fiting-check` prints when [`parse_args`] refuses.
pub const USAGE: &str = "usage: fiting-check [--lines] [WORKSPACE_ROOT]";

/// Splits `fiting-check`'s arguments (program name already skipped)
/// into `(--lines given, first positional = workspace root)`.
///
/// # Errors
///
/// Any `-`-prefixed argument other than `--lines` is returned as the
/// error, so `--help` or a typo is not mistaken for a root to scan.
pub fn parse_args(
    args: impl IntoIterator<Item = String>,
) -> Result<(bool, Option<std::path::PathBuf>), String> {
    let (mut lines, mut root) = (false, None);
    for arg in args {
        if arg == "--lines" {
            lines = true;
        } else if arg.starts_with('-') {
            return Err(arg);
        } else if root.is_none() {
            root = Some(arg.into());
        }
    }
    Ok((lines, root))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn production_lines_skip_comments_blanks_and_test_items() {
        let source = "\
//! Module docs.

/* a block comment
   spanning lines */
fn prod() -> &'static str { // trailing comment
    \"// not a comment\"
}

#[cfg(test)]
mod tests {
    #[test]
    fn t() {}
}
/* inline */ const X: u8 = 1;
";
        // `fn prod`, the literal line, `}`, and `const X`.
        assert_eq!(production_lines(source), 4);
    }

    #[test]
    fn workspace_lines_lists_root_and_members_by_package_name() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let rows = workspace_lines(&root).unwrap();
        assert_eq!(rows[0].0, "fiting", "root package first");
        let own = rows.iter().find(|(name, _)| name == "fiting-analysis");
        assert!(own.is_some_and(|&(_, lines)| lines > 0));
    }

    #[test]
    fn parse_args_takes_lines_and_a_root_and_rejects_other_flags() {
        let parse = |args: &[&str]| parse_args(args.iter().copied().map(String::from));
        assert_eq!(parse(&[]), Ok((false, None)));
        assert_eq!(parse(&["--lines"]), Ok((true, None)));
        assert_eq!(parse(&["/ws", "--lines"]), Ok((true, Some("/ws".into()))));
        assert_eq!(parse(&["--help"]), Err("--help".to_string()));
        assert_eq!(parse(&["--line", "/ws"]), Err("--line".to_string()));
    }
}
