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
//! | `e2e-import` | every name an `e2e/src` path takes from a workspace crate is still declared or re-exported `pub` there |
//!
//! The checker is a hand-rolled lexer (comments, strings, brace depth,
//! `#[cfg(test)]` spans) over line-oriented scanning — no `syn`, no
//! network, no build integration needed. False positives are handled
//! with inline `// fiting-check: allow(<rule>) — reason` comments or
//! (for `hot-path-panic`) `allowlist.txt` entries, both of which
//! reviewers can grep.
//!
//! `fiting-check --lines` reuses the same lexer for the ROADMAP's
//! "least code" and public-surface budgets: production code lines per
//! workspace crate, and each product crate's `pub` items and how many
//! of them anything outside the crate names ([`workspace_lines`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod docs;
pub mod lexer;
pub mod rules;
mod surface;

pub use docs::{check_doc_file, is_checked_doc};
pub use rules::{check_file, parse_allowlist, AllowEntry, Finding};
pub use surface::Surface;
use surface::{check_e2e_imports, PRODUCT_CRATES};

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

/// Every `.rs` file under `root` (skipping [`SKIP_DIRS`]) as
/// (root-relative `/`-separated path, source), in sorted order; an
/// unreadable file is skipped.
fn workspace_files(root: &Path) -> std::io::Result<Vec<(String, String)>> {
    let mut paths = Vec::new();
    collect_ext(root, ".rs", &mut paths)?;
    Ok(paths
        .into_iter()
        .filter_map(|path| {
            let source = std::fs::read_to_string(&path).ok()?;
            Some((relative(root, &path), source))
        })
        .collect())
}

fn relative(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Scans the whole workspace under `root`. Returns every finding plus
/// the number of files scanned.
///
/// # Errors
///
/// Propagates I/O errors from walking the tree or reading the
/// manifests; an unreadable individual file is skipped.
pub fn check_workspace(root: &Path) -> std::io::Result<(Vec<Finding>, usize)> {
    let allow = match std::fs::read_to_string(root.join("crates/analysis/allowlist.txt")) {
        Ok(text) => parse_allowlist(&text),
        Err(_) => Vec::new(),
    };
    let files = workspace_files(root)?;
    let mut findings: Vec<Finding> = files
        .iter()
        .flat_map(|(rel, source)| check_file(rel, source, &allow))
        .collect();
    findings.extend(check_e2e_imports(&files, &members(root)?));
    let mut scanned = files.len();

    // Operator documentation: relative links and bench recording
    // references must resolve (`doc-link-integrity`).
    let mut doc_files = Vec::new();
    collect_ext(root, ".md", &mut doc_files)?;
    let exists = |rel: &str| root.join(rel).exists();
    for path in doc_files {
        let rel = relative(root, &path);
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

/// The files that `#[cfg(test)] mod name;` lines among `files` pull
/// in: test code, wherever it is written.
fn test_module_files(files: &[(String, String)]) -> Vec<String> {
    let mut found = Vec::new();
    for (path, source) in files {
        let file = lexer::clean(source);
        let stem = path.strip_suffix(".rs").unwrap_or(path);
        let dir = match stem.rsplit_once('/') {
            Some((dir, "lib" | "main" | "mod")) => dir,
            _ => stem,
        };
        for (i, line) in file.code.iter().enumerate() {
            let words: Vec<&str> = line
                .split(|c: char| !(c.is_alphanumeric() || c == '_'))
                .filter(|w| !w.is_empty())
                .collect();
            if let [.., "mod", name] = words[..] {
                if !file.is_production(i + 1) && line.trim_end().ends_with(';') {
                    found.push(format!("{dir}/{name}.rs"));
                }
            }
        }
    }
    found
}

/// The quoted strings of `text`, in order (`"a", "b"` → `a`, `b`).
fn quoted(text: &str) -> impl Iterator<Item = &str> {
    text.split('"').skip(1).step_by(2)
}

/// `(package name, directory)` of the root package (directory `""`)
/// and every `members` entry of the workspace manifest at `root`, in
/// manifest order.
fn members(root: &Path) -> std::io::Result<Vec<(String, String)>> {
    let manifest = std::fs::read_to_string(root.join("Cargo.toml"))?;
    let list = manifest
        .split_once("members = [")
        .and_then(|(_, rest)| rest.split_once(']'))
        .map_or("", |(list, _)| list);
    std::iter::once("")
        .chain(quoted(list))
        .map(|dir| {
            let package = std::fs::read_to_string(root.join(dir).join("Cargo.toml"))?;
            let name = package
                .split_once("[package]")
                .and_then(|(_, rest)| rest.split_once("name = "))
                .and_then(|(_, rest)| quoted(rest).next())
                .unwrap_or(dir);
            Ok((name.to_string(), dir.to_string()))
        })
        .collect()
}

/// One row per package of the workspace at `root`, in manifest order:
/// its name, its production lines under `src/` (a `#[cfg(test)]`
/// module's file counts none), and for each of the
/// ten product crates its public [`Surface`].
///
/// # Errors
///
/// Propagates I/O errors from reading the manifests or walking the
/// tree; an unreadable individual source file counts zero.
pub fn workspace_lines(root: &Path) -> std::io::Result<Vec<(String, usize, Option<Surface>)>> {
    let (files, members) = (workspace_files(root)?, members(root)?);
    let is_product = |name: &str| PRODUCT_CRATES.contains(&name);
    let product: Vec<_> = members
        .iter()
        .filter(|(name, _)| is_product(name))
        .cloned()
        .collect();
    let mut surfaces = surface::surface(&files, &product).into_iter();
    let tests = test_module_files(&files);
    let rows = members.into_iter().map(|(name, dir)| {
        let src = if dir.is_empty() {
            "src/".to_string()
        } else {
            format!("{dir}/src/")
        };
        let lines = files
            .iter()
            .filter(|(path, _)| path.starts_with(&src) && !tests.contains(path))
            .map(|(_, source)| production_lines(source))
            .sum();
        let surface = if is_product(&name) {
            surfaces.next()
        } else {
            None
        };
        (name, lines, surface)
    });
    Ok(rows.collect())
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
    fn a_cfg_test_module_file_is_test_code() {
        let files = [
            (
                "crates/plr/src/lib.rs",
                "#[cfg(test)]\nmod adversarial;\nmod cone;\n",
            ),
            (
                "crates/plr/src/cone.rs",
                "#[cfg(test)]\npub(crate) mod probe;\n",
            ),
        ]
        .map(|(p, s)| (p.to_string(), s.to_string()));
        assert_eq!(
            test_module_files(&files),
            [
                "crates/plr/src/adversarial.rs",
                "crates/plr/src/cone/probe.rs"
            ]
        );
    }

    #[test]
    fn workspace_lines_lists_root_and_members_by_package_name() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let rows = workspace_lines(&root).unwrap();
        assert_eq!(rows[0].0, "fiting", "root package first");
        let own = rows.iter().find(|(name, ..)| name == "fiting-analysis");
        assert!(own.is_some_and(|&(_, lines, ref surface)| lines > 0 && surface.is_none()));
        let core = rows
            .iter()
            .find_map(|(name, _, s)| s.as_ref().filter(|_| name == "fiting-tree"));
        assert!(
            core.is_some_and(|s| s.items > s.unnamed.len()),
            "the core crate has named items"
        );
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
