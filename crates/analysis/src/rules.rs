//! The project-invariant rules `fiting-check` enforces — properties
//! clippy cannot see because they are *protocol* conventions, not
//! syntax. Each rule reports [`Finding`]s; the binary fails the build
//! on any. Every rule has a mutation self-test below proving it fires
//! on a seeded violation and stays quiet on the fixed version.

use crate::lexer::{clean, find_word, CleanFile, FnSpan};

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Stable rule identifier (used in allow comments).
    pub rule: &'static str,
    /// Human-readable description of the violation.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// A vetted exception to the hot-path panic rule: `file` is a path
/// suffix, `snippet` must appear verbatim in the offending source line.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    /// Path suffix the exception applies to.
    pub file: String,
    /// Verbatim source fragment identifying the vetted site.
    pub snippet: String,
}

/// Parses `allowlist.txt`: `<path-suffix> | <snippet> | <reason>` per
/// line; blank lines and `#` comments ignored. The reason column is
/// mandatory documentation but not machine-checked.
#[must_use]
pub fn parse_allowlist(text: &str) -> Vec<AllowEntry> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let mut parts = l.splitn(3, '|');
            let file = parts.next()?.trim().to_string();
            let snippet = parts.next()?.trim().to_string();
            parts.next()?; // reason — required, unused
            Some(AllowEntry { file, snippet })
        })
        .collect()
}

/// Whether the line's comment suppresses `rule` via
/// `fiting-check: allow(<rule>)` (which must carry a reason after it).
fn line_allows(cf: &CleanFile, line: usize, rule: &str) -> bool {
    cf.comments
        .get(line - 1)
        .is_some_and(|c| c.contains(&format!("fiting-check: allow({rule})")))
}

/// Whether `needle` appears in the comments covering a site: the
/// line's own trailing comment or the contiguous run of comment-only
/// lines directly above it (multi-line justifications count; a blank
/// or code line terminates the run).
fn site_comment_contains(cf: &CleanFile, line: usize, needle: &str) -> bool {
    if cf.comments[line - 1].contains(needle) {
        return true;
    }
    let mut ln = line;
    while ln > 1 {
        ln -= 1;
        let comment = &cf.comments[ln - 1];
        if !cf.code[ln - 1].trim().is_empty() || comment.is_empty() {
            return false;
        }
        if comment.contains(needle) {
            return true;
        }
    }
    false
}

/// Runs every rule against one file. `raw` is the original source (the
/// allowlist matches verbatim snippets); `path` is workspace-relative
/// with `/` separators.
#[must_use]
pub fn check_file(path: &str, raw: &str, allow: &[AllowEntry]) -> Vec<Finding> {
    let cf = clean(raw);
    let raw_lines: Vec<&str> = raw.lines().collect();
    let mut findings = Vec::new();
    let in_src = path.contains("/src/") || path.starts_with("src/");
    if in_src {
        findings.extend(rule_lock_order(path, &cf));
        findings.extend(rule_blocking_in_guard(path, &cf));
        findings.extend(rule_ordering_justification(path, &cf));
        findings.extend(rule_hot_path_panic(path, &cf, &raw_lines, allow));
        findings.extend(rule_storage_io_unwrap(path, &cf));
        findings.extend(rule_reader_wait_free(path, &cf));
        findings.extend(rule_unsafe_safety_comment(path, &cf));
        findings.extend(rule_sync_ordering_per_site(path, &cf));
        findings.extend(rule_kernel_claim(path, &cf));
    }
    findings.extend(rule_std_sync_quarantine(path, in_src, &cf));
    findings.extend(rule_forbid_unsafe(path, &cf));
    findings.sort_by_key(|f| f.line);
    findings
}

// ---------------------------------------------------------------------
// Rule: lock-order — shard locks in ascending table position only
// ---------------------------------------------------------------------

/// Index expression of a shard-lock source, when comparable: `Base(n)`
/// is `<ident> + n` (or a bare ident, n = 0); `Lit(n)` a literal index.
#[derive(Debug, Clone, PartialEq, Eq)]
enum ShardIdx {
    Base(String, u64),
    Lit(u64),
    Opaque,
}

fn parse_shard_idx(text: &str) -> ShardIdx {
    let t = text.trim();
    if let Ok(n) = t.parse::<u64>() {
        return ShardIdx::Lit(n);
    }
    let (base, off) = match t.split_once('+') {
        Some((b, o)) => match o.trim().parse::<u64>() {
            Ok(n) => (b.trim(), n),
            Err(_) => return ShardIdx::Opaque,
        },
        None => (t, 0),
    };
    if !base.is_empty() && base.chars().all(|c| c.is_alphanumeric() || c == '_') {
        ShardIdx::Base(base.to_string(), off)
    } else {
        ShardIdx::Opaque
    }
}

/// `a` strictly after `b` in table position, when comparable.
fn idx_after(a: &ShardIdx, b: &ShardIdx) -> bool {
    match (a, b) {
        (ShardIdx::Base(x, n), ShardIdx::Base(y, m)) => x == y && n > m,
        (ShardIdx::Lit(n), ShardIdx::Lit(m)) => n > m,
        _ => false,
    }
}

/// Extracts `shards[IDX]` from a line, if present.
fn shards_index(line: &str) -> Option<ShardIdx> {
    let pos = line.find("shards[")?;
    let rest = &line[pos + "shards[".len()..];
    let close = rest.find(']')?;
    Some(parse_shard_idx(&rest[..close]))
}

/// Identifier bound by a `let` on this line, if any.
fn let_binding(line: &str) -> Option<&str> {
    let pos = find_word(line, "let")?;
    let rest = line[pos + 3..].trim_start();
    let rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
    let end = rest
        .find(|c: char| !c.is_alphanumeric() && c != '_')
        .unwrap_or(rest.len());
    (end > 0).then(|| &rest[..end])
}

/// Shard locks must be acquired in ascending table position, and any
/// function holding two shard locks at once must carry a
/// `// lock-order:` comment stating the discipline.
fn rule_lock_order(path: &str, cf: &CleanFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    for f in &cf.fns {
        if !cf.is_production(f.decl_line) {
            continue;
        }
        // Bindings whose RHS routes to a shard slot.
        let mut bindings: Vec<(String, ShardIdx)> = Vec::new();
        // Shard-lock acquisitions in textual order.
        let mut acquired: Vec<(usize, ShardIdx)> = Vec::new();
        for ln in f.body_start..=f.body_end {
            let line = &cf.code[ln - 1];
            if let (Some(name), Some(idx)) = (let_binding(line), shards_index(line)) {
                if !line.contains(".read()") && !line.contains(".write()") {
                    bindings.push((name.to_string(), idx));
                    continue;
                }
            }
            for call in [".read()", ".write()"] {
                let mut from = 0;
                while let Some(rel) = line[from..].find(call) {
                    let pos = from + rel;
                    from = pos + call.len();
                    let recv_end = pos;
                    let recv_start = line[..recv_end]
                        .rfind(|c: char| !(c.is_alphanumeric() || c == '_'))
                        .map_or(0, |p| p + 1);
                    let recv = &line[recv_start..recv_end];
                    let idx = if let Some(idx) = bindings
                        .iter()
                        .rev()
                        .find(|(n, _)| n == recv)
                        .map(|(_, i)| i.clone())
                    {
                        idx
                    } else if line[..recv_end].contains("shards[") {
                        shards_index(line).unwrap_or(ShardIdx::Opaque)
                    } else {
                        continue;
                    };
                    acquired.push((ln, idx));
                }
            }
        }
        for pair in acquired.windows(2) {
            let ((_, first), (ln, second)) = (&pair[0], &pair[1]);
            if idx_after(first, second) && !line_allows(cf, *ln, "lock-order") {
                findings.push(Finding {
                    file: path.to_string(),
                    line: *ln,
                    rule: "lock-order",
                    message: format!(
                        "shard lock acquired in descending table position \
                         ({second:?} after {first:?}); acquire ascending"
                    ),
                });
            }
        }
        if acquired.len() >= 2 {
            let commented = (f.decl_line.saturating_sub(3).max(1)..=f.body_end)
                .any(|ln| cf.comments[ln - 1].contains("lock-order:"));
            if !commented {
                findings.push(Finding {
                    file: path.to_string(),
                    line: acquired[1].0,
                    rule: "lock-order",
                    message: "function holds multiple shard locks without a \
                              `// lock-order:` comment stating the discipline"
                        .to_string(),
                });
            }
        }
    }
    findings
}

// ---------------------------------------------------------------------
// Rule: blocking-in-guard — no blocking call inside a lock-guard scope
// ---------------------------------------------------------------------

const BLOCKING_CALLS: [&str; 7] = [
    "wait",
    "wait_for",
    "wait_timeout",
    "sync_all",
    "submit",
    "recv",
    "sleep",
];

const GUARD_SOURCES: [&str; 3] = [".lock()", ".read()", ".write()"];

/// No blocking call while holding a lock guard — the deadlock /
/// tail-latency rule. The one sanctioned shape is a condvar wait that
/// *takes the guard* (`cv.wait(&mut guard)`), which releases the lock
/// while parked. Compat crates are exempt: they *implement* the
/// blocking primitives, so their internals necessarily park under the
/// bookkeeping lock.
fn rule_blocking_in_guard(path: &str, cf: &CleanFile) -> Vec<Finding> {
    if path.starts_with("crates/compat/") {
        return Vec::new();
    }
    let mut findings = Vec::new();
    for f in &cf.fns {
        if !cf.is_production(f.decl_line) {
            continue;
        }
        // Live guards: (name, brace depth at binding).
        let mut guards: Vec<(String, isize)> = Vec::new();
        let mut depth = 0isize;
        for ln in f.body_start..=f.body_end {
            let line = &cf.code[ln - 1];
            // A `let g = expr.lock();`-style binding (chain ends at the
            // acquisition; a deref'd temporary is not a held guard).
            let is_guard_binding = GUARD_SOURCES
                .iter()
                .any(|s| line.trim_end().ends_with(&format!("{s};")) && !line.contains("= *"));
            if let (true, Some(name)) = (is_guard_binding, let_binding(line)) {
                guards.push((name.to_string(), depth));
            }
            // An explicit `drop(g)` ends the guard's scope.
            if let Some(pos) = find_word(line, "drop") {
                let args = line[pos + 4..]
                    .trim_start()
                    .trim_start_matches('(')
                    .trim_end()
                    .trim_end_matches(';')
                    .trim_end_matches(')');
                guards.retain(|(n, _)| !args.split(',').any(|a| a.trim() == n));
            }
            if !guards.is_empty() {
                for call in BLOCKING_CALLS {
                    let Some(pos) = find_word(line, call) else {
                        continue;
                    };
                    // Calls only: `name(`.
                    if !line[pos + call.len()..].starts_with('(') {
                        continue;
                    }
                    let args = &line[pos + call.len()..];
                    let condvar_shape = guards
                        .iter()
                        .any(|(g, _)| args.contains(&format!("&mut {g}")));
                    if condvar_shape || line_allows(cf, ln, "blocking-in-guard") {
                        continue;
                    }
                    findings.push(Finding {
                        file: path.to_string(),
                        line: ln,
                        rule: "blocking-in-guard",
                        message: format!(
                            "blocking call `{call}(..)` while holding lock guard \
                             `{}`; release the guard first",
                            guards.last().map_or("?", |(n, _)| n)
                        ),
                    });
                }
            }
            for c in line.chars() {
                if c == '{' {
                    depth += 1;
                } else if c == '}' {
                    depth -= 1;
                    // A guard bound at depth d dies with its block.
                    guards.retain(|&(_, d)| d <= depth);
                }
            }
        }
    }
    findings
}

// ---------------------------------------------------------------------
// Rule: ordering-justification — every explicit Ordering carries why
// ---------------------------------------------------------------------

const ORDERINGS: [&str; 5] = [
    "Ordering::Relaxed",
    "Ordering::Acquire",
    "Ordering::Release",
    "Ordering::AcqRel",
    "Ordering::SeqCst",
];

/// Every explicit memory-ordering site must be covered by a
/// `// ordering:` justification comment in the same function (or just
/// above it) — the reviewer contract for why the chosen strength is
/// sufficient.
fn rule_ordering_justification(path: &str, cf: &CleanFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    let justified = |f: &FnSpan| {
        (f.decl_line.saturating_sub(3).max(1)..=f.body_end)
            .any(|ln| cf.comments[ln - 1].contains("ordering:"))
    };
    for (ln0, line) in cf.code.iter().enumerate() {
        let ln = ln0 + 1;
        if !cf.is_production(ln) || !ORDERINGS.iter().any(|o| line.contains(o)) {
            continue;
        }
        let covered = match cf.enclosing_fn(ln) {
            Some(f) => justified(f),
            // Outside any fn (consts, field defaults): same line or the
            // three lines above must justify.
            None => {
                (ln.saturating_sub(3).max(1)..=ln).any(|l| cf.comments[l - 1].contains("ordering:"))
            }
        };
        if !covered {
            findings.push(Finding {
                file: path.to_string(),
                line: ln,
                rule: "ordering-justification",
                message: "explicit memory Ordering without a `// ordering:` \
                          justification comment in this function"
                    .to_string(),
            });
        }
    }
    findings
}

// ---------------------------------------------------------------------
// Rule: hot-path-panic — no unwrap/expect/panic in worker & hot paths
// ---------------------------------------------------------------------

/// Modules where a panic either strands queued tickets (worker thread)
/// or poisons a shard lock under reader traffic (sharded hot path).
const HOT_PATH_MODULES: [&str; 4] = [
    "index-service/src/worker.rs",
    "index-service/src/queue.rs",
    "index-service/src/client.rs",
    "index-api/src/sharded.rs",
];

const PANIC_TOKENS: [&str; 5] = [
    ".unwrap()",
    ".expect(",
    "panic!(",
    "unreachable!(",
    "todo!(",
];

/// No panicking construct in worker-thread or shard-hot-path modules;
/// vetted exceptions live in `allowlist.txt` with a reason.
fn rule_hot_path_panic(
    path: &str,
    cf: &CleanFile,
    raw_lines: &[&str],
    allow: &[AllowEntry],
) -> Vec<Finding> {
    if !HOT_PATH_MODULES.iter().any(|m| path.ends_with(m)) {
        return Vec::new();
    }
    let mut findings = Vec::new();
    for (ln0, line) in cf.code.iter().enumerate() {
        let ln = ln0 + 1;
        if !cf.is_production(ln) {
            continue;
        }
        for tok in PANIC_TOKENS {
            if !line.contains(tok) {
                continue;
            }
            let raw = raw_lines.get(ln0).copied().unwrap_or("");
            let allowed = allow
                .iter()
                .any(|e| path.ends_with(&e.file) && raw.contains(&e.snippet));
            if !allowed {
                findings.push(Finding {
                    file: path.to_string(),
                    line: ln,
                    rule: "hot-path-panic",
                    message: format!(
                        "`{tok}` in a worker/hot-path module; return an error \
                         or add a vetted allowlist.txt entry"
                    ),
                });
            }
        }
    }
    findings
}

// ---------------------------------------------------------------------
// Rule: forbid-unsafe — #![forbid(unsafe_code)] on every crate root
// ---------------------------------------------------------------------

/// Every crate root must carry `#![forbid(unsafe_code)]` — the
/// workspace-level `unsafe_code = "deny"` lint can be `allow`ed
/// locally; `forbid` cannot.
///
/// The one vetted exception is `crates/sync/`, the workspace's single
/// audited `unsafe` boundary (the seqlock's shared reads and the
/// prefetch intrinsic cannot be expressed in safe Rust). Its crate
/// root must instead carry `#![deny(unsafe_op_in_unsafe_fn)]`, and
/// every `unsafe` site there is held to the `unsafe-safety-comment`
/// rule.
fn rule_forbid_unsafe(path: &str, cf: &CleanFile) -> Vec<Finding> {
    let is_root = path.ends_with("/lib.rs")
        || path == "src/lib.rs"
        || path.contains("/src/bin/")
        || path.ends_with("/main.rs");
    if !is_root {
        return Vec::new();
    }
    if path.starts_with("crates/sync/") {
        let denies = cf
            .code
            .iter()
            .any(|l| l.contains("#![deny(unsafe_op_in_unsafe_fn)]"));
        return if denies {
            Vec::new()
        } else {
            vec![Finding {
                file: path.to_string(),
                line: 1,
                rule: "forbid-unsafe",
                message: "audited-unsafe crate root missing \
                          `#![deny(unsafe_op_in_unsafe_fn)]`"
                    .to_string(),
            }]
        };
    }
    let present = cf
        .code
        .iter()
        .any(|l| l.contains("#![forbid(unsafe_code)]"));
    if present {
        Vec::new()
    } else {
        vec![Finding {
            file: path.to_string(),
            line: 1,
            rule: "forbid-unsafe",
            message: "crate root missing `#![forbid(unsafe_code)]`".to_string(),
        }]
    }
}

// ---------------------------------------------------------------------
// Rule: std-sync-quarantine — locks and atomics are named via the seam
// ---------------------------------------------------------------------

const STD_SYNC_PRIMITIVES: [&str; 4] = ["Mutex", "RwLock", "Condvar", "Barrier"];

/// The one module that may name `std::sync` locks (its normal-build
/// arm wraps them) and `shuttle::sync` (its model-build arm).
const SEAM: &str = "crates/sync/src/primitives.rs";

/// The concurrency types the model checker runs as themselves: here an
/// atomic imported straight from `std` would stay uninstrumented under
/// `--cfg fiting_model`, invisible to the scheduler.
const SEAM_ONLY_MODULES: [&str; 4] = [
    "sync/src/seqlock.rs",
    "sync/src/snapshot.rs",
    "index-service/src/queue.rs",
    "index-service/src/ticket.rs",
];

/// The names `text` takes from module path `prefix`: the word right
/// after each occurrence, or every word of a brace import there.
fn names_from<'a>(text: &'a str, prefix: &'a str) -> impl Iterator<Item = &'a str> {
    text.split(prefix).skip(1).flat_map(|seg| {
        let braced = seg.strip_prefix('{');
        let names = braced.map_or(seg, |rest| rest.split('}').next().unwrap_or(rest));
        let words = names.split(|c: char| !(c.is_alphanumeric() || c == '_'));
        words.take(if braced.is_some() { usize::MAX } else { 1 })
    })
}

/// A lock or an atomic is named through the seam,
/// `fiting_sync::primitives`. Production code outside it (and outside
/// `crates/compat/`) names no `std::sync` lock; the
/// [`SEAM_ONLY_MODULES`] import no `std` atomic either
/// (`std::sync::{Arc, OnceLock, mpsc}` stay allowed everywhere, atomics
/// elsewhere); and no file, tests included, names `shuttle::sync` —
/// a test that builds a protocol out of the checker's locks is a mirror
/// of a production type, which nothing keeps in step with it.
fn rule_std_sync_quarantine(path: &str, in_src: bool, cf: &CleanFile) -> Vec<Finding> {
    if path.starts_with("crates/compat/") || path == SEAM {
        return Vec::new();
    }
    let seam_only = SEAM_ONLY_MODULES.iter().any(|m| path.ends_with(m));
    let mut findings = Vec::new();
    for (ln0, line) in cf.code.iter().enumerate() {
        let ln = ln0 + 1;
        if !cf.is_production(ln) || line_allows(cf, ln, "std-sync-quarantine") {
            continue;
        }
        // A `use` that rustfmt wrapped is read to its `;`.
        let is_use = line.trim_start().starts_with("use ");
        let rest = &cf.code[ln0..];
        let end = rest.iter().position(|l| !is_use || l.contains(';'));
        let stmt = rest[..=end.unwrap_or(0)].concat();
        let named = names_from(&stmt, "std::sync::")
            .find(|w| in_src && STD_SYNC_PRIMITIVES.contains(w))
            .or_else(|| {
                names_from(&stmt, "std::sync::atomic::")
                    .find(|w| seam_only && w.starts_with("Atomic"))
            })
            .or_else(|| stmt.contains("shuttle::sync::").then_some("shuttle::sync"));
        if let Some(name) = named {
            findings.push(Finding {
                file: path.to_string(),
                line: ln,
                rule: "std-sync-quarantine",
                message: format!(
                    "`{name}` named directly; locks and atomics come through \
                     `fiting_sync::primitives`, and a model runs the production \
                     type built with `--cfg fiting_model`, not a copy of it"
                ),
            });
        }
    }
    findings
}

// ---------------------------------------------------------------------
// Rule: storage-io-unwrap — no unwrap/expect on I/O results in storage
// ---------------------------------------------------------------------

const UNWRAP_TOKENS: [&str; 2] = [".unwrap()", ".expect("];

/// Inside `crates/storage/` every fallible path carries an
/// `io::Error` / `StorageError` lineage, and the whole crate runs
/// behind `FaultIo` in the chaos battery — faults there are *expected
/// inputs*, not bugs. An `.unwrap()` / `.expect(..)` in production
/// code turns an injectable, recoverable fault into a panic that
/// poisons the calling thread, so production code must propagate the
/// error or degrade instead. Vetted exceptions use
/// `// fiting-check: allow(storage-io-unwrap) <reason>`.
fn rule_storage_io_unwrap(path: &str, cf: &CleanFile) -> Vec<Finding> {
    if !path.starts_with("crates/storage/") {
        return Vec::new();
    }
    let mut findings = Vec::new();
    for (ln0, line) in cf.code.iter().enumerate() {
        let ln = ln0 + 1;
        if !cf.is_production(ln) {
            continue;
        }
        for tok in UNWRAP_TOKENS {
            if line.contains(tok) && !line_allows(cf, ln, "storage-io-unwrap") {
                findings.push(Finding {
                    file: path.to_string(),
                    line: ln,
                    rule: "storage-io-unwrap",
                    message: format!(
                        "`{tok}` on a storage-crate Result; I/O faults are \
                         expected inputs here — propagate the error or degrade"
                    ),
                });
            }
        }
    }
    findings
}

// ---------------------------------------------------------------------
// Rule: reader-wait-free — no read-guard acquisition on reader hot paths
// ---------------------------------------------------------------------

/// Modules on the wait-free read path. Since the epoch/seqlock
/// migration, a steady-state `get`/`range` performs zero lock
/// acquisitions; a `.read()` guard creeping back into these modules
/// silently re-introduces reader/writer blocking that no functional
/// test would catch.
const READER_HOT_PATH_MODULES: [&str; 2] =
    ["index-api/src/sharded.rs", "index-service/src/worker.rs"];

/// Whole crates on the wait-free read path. The telemetry crate's
/// recording surface (`Counter::add`, `Histogram::record`, the armed
/// completers) is called *from* the reader/worker hot paths, so the
/// same no-read-guard discipline applies to every module in it —
/// readout may lock, recording may not.
const READER_HOT_PATH_CRATES: [&str; 1] = ["crates/telemetry/src/"];

/// No `RwLock`-style `.read()` guard acquisition in reader hot-path
/// modules — shared access there goes through the wait-free primitives
/// (`Snapshots::read`, `SeqRwLock::read_with`) or plain atomics.
/// Writer-side `.write()` guards stay legal: writers may block.
fn rule_reader_wait_free(path: &str, cf: &CleanFile) -> Vec<Finding> {
    let covered = READER_HOT_PATH_MODULES.iter().any(|m| path.ends_with(m))
        || READER_HOT_PATH_CRATES.iter().any(|c| path.starts_with(c));
    if !covered {
        return Vec::new();
    }
    let mut findings = Vec::new();
    for (ln0, line) in cf.code.iter().enumerate() {
        let ln = ln0 + 1;
        if !cf.is_production(ln) || !line.contains(".read()") {
            continue;
        }
        if !line_allows(cf, ln, "reader-wait-free") {
            findings.push(Finding {
                file: path.to_string(),
                line: ln,
                rule: "reader-wait-free",
                message: "`.read()` guard in a reader hot-path module; use the \
                          wait-free primitives (Snapshots::read / \
                          SeqRwLock::read_with) instead"
                    .to_string(),
            });
        }
    }
    findings
}

// ---------------------------------------------------------------------
// Rule: unsafe-safety-comment — every unsafe site in crates/sync audited
// ---------------------------------------------------------------------

/// Every `unsafe` site in the audited crate (`crates/sync/`, the only
/// crate exempt from `forbid(unsafe_code)`) must carry a `// safety:`
/// comment on the line or in the comment block directly above it,
/// stating the invariant that makes the site sound.
fn rule_unsafe_safety_comment(path: &str, cf: &CleanFile) -> Vec<Finding> {
    if !path.starts_with("crates/sync/src/") {
        return Vec::new();
    }
    let mut findings = Vec::new();
    for (ln0, line) in cf.code.iter().enumerate() {
        let ln = ln0 + 1;
        if !cf.is_production(ln) || find_word(line, "unsafe").is_none() {
            continue;
        }
        if !site_comment_contains(cf, ln, "safety:") {
            findings.push(Finding {
                file: path.to_string(),
                line: ln,
                rule: "unsafe-safety-comment",
                message: "`unsafe` site without a `// safety:` comment stating \
                          the invariant that makes it sound"
                    .to_string(),
            });
        }
    }
    findings
}

// ---------------------------------------------------------------------
// Rule: sync-ordering-per-site — per-site ordering audit in crates/sync
// ---------------------------------------------------------------------

/// Inside `crates/sync/` — where the epoch and seqlock handshakes live
/// and a single misplaced `Relaxed` is a torn read — the workspace's
/// per-function `ordering-justification` rule is not enough: every
/// atomic-ordering site must carry its own `// ordering:` comment on
/// the line or in the comment block directly above it.
fn rule_sync_ordering_per_site(path: &str, cf: &CleanFile) -> Vec<Finding> {
    if !path.starts_with("crates/sync/src/") {
        return Vec::new();
    }
    let mut findings = Vec::new();
    for (ln0, line) in cf.code.iter().enumerate() {
        let ln = ln0 + 1;
        if !cf.is_production(ln) || !ORDERINGS.iter().any(|o| line.contains(o)) {
            continue;
        }
        if !site_comment_contains(cf, ln, "ordering:") {
            findings.push(Finding {
                file: path.to_string(),
                line: ln,
                rule: "sync-ordering-per-site",
                message: "atomic-ordering site in the audited sync crate \
                          without a per-site `// ordering:` justification"
                    .to_string(),
            });
        }
    }
    findings
}

// ---------------------------------------------------------------------
// Rule: branchless-claim — a fn named branchless compiles without one
// ---------------------------------------------------------------------

const LOOP_KEYWORDS: [&str; 3] = ["while", "for", "loop"];

/// A production `fn` whose name says `branchless` must ask for the
/// conditional move by name (`select_unpredictable`) and hold no
/// `if` / `match` inside its loop: the optimizer turns a plain
/// `if c { a } else { b }` into compare-and-jump as readily as into a
/// select, so the name is only true while the body spells it out.
/// (Named for what it checks rather than for its id, or it would be its
/// own first finding.)
fn rule_kernel_claim(path: &str, cf: &CleanFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut finding = |line: usize, message: &str| {
        findings.push(Finding {
            file: path.to_string(),
            line,
            rule: "branchless-claim",
            message: message.to_string(),
        });
    };
    let has_word = |line: &str, words: &[&str]| words.iter().any(|w| find_word(line, w).is_some());
    for f in &cf.fns {
        let name = cf.code[f.decl_line - 1]
            .split_once("fn ")
            .and_then(|(_, rest)| {
                rest.split(|c: char| !c.is_alphanumeric() && c != '_')
                    .next()
            });
        if !cf.is_production(f.decl_line) || !name.is_some_and(|n| n.contains("branchless")) {
            continue;
        }
        let body = &cf.code[f.body_start - 1..f.body_end];
        if !body.iter().any(|l| l.contains("select_unpredictable")) {
            finding(
                f.decl_line,
                "fn named branchless never calls `select_unpredictable`: name the select or rename the fn",
            );
        }
        // Brace depth at which the outermost open loop began. Its
        // header line is exempt: a `while` condition is the loop's one,
        // predictable, branch.
        let (mut depth, mut loop_at) = (0isize, None);
        for (line, ln) in body.iter().zip(f.body_start..) {
            if loop_at.is_none() && has_word(line, &LOOP_KEYWORDS) {
                loop_at = Some(depth);
            } else if loop_at.is_some() && has_word(line, &["if", "match"]) {
                finding(
                    ln,
                    "data-dependent branch inside the loop of a fn named branchless",
                );
            }
            depth += line.matches('{').count() as isize - line.matches('}').count() as isize;
            if line.contains('}') && loop_at.is_some_and(|at| depth <= at) {
                loop_at = None;
            }
        }
    }
    findings
}

// ---------------------------------------------------------------------
// Mutation self-tests: every rule fires on a seeded violation and is
// quiet on the corrected source.
// ---------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn lock_order_fires_on_descending_and_missing_comment() {
        // Mutation: retire (shard + 1) locked before keep (shard).
        let bad = r"
fn merge(&self, shard: usize) {
    let keep = Arc::clone(&table.shards[shard]);
    let retire = Arc::clone(&table.shards[shard + 1]);
    let mut retire_guard = retire.write();
    let mut keep_guard = keep.write();
}
";
        let f = check_file("crates/x/src/sharded.rs", bad, &[]);
        assert!(
            f.iter()
                .any(|f| f.rule == "lock-order" && f.message.contains("descending")),
            "descending order must fire: {f:?}"
        );

        // Ascending but missing the lock-order comment: also a finding.
        let uncommented = r"
fn merge(&self, shard: usize) {
    let keep = Arc::clone(&table.shards[shard]);
    let retire = Arc::clone(&table.shards[shard + 1]);
    let mut keep_guard = keep.write();
    let mut retire_guard = retire.write();
}
";
        let f = check_file("crates/x/src/sharded.rs", uncommented, &[]);
        assert!(
            f.iter()
                .any(|f| f.rule == "lock-order" && f.message.contains("lock-order:")),
            "missing comment must fire: {f:?}"
        );

        let good = r"
fn merge(&self, shard: usize) {
    let keep = Arc::clone(&table.shards[shard]);
    let retire = Arc::clone(&table.shards[shard + 1]);
    // lock-order: keep (shard) before retire (shard + 1), ascending.
    let mut keep_guard = keep.write();
    let mut retire_guard = retire.write();
}
";
        let f = check_file("crates/x/src/sharded.rs", good, &[]);
        assert!(!rules_of(&f).contains(&"lock-order"), "{f:?}");
    }

    #[test]
    fn blocking_in_guard_fires_and_spares_condvar_shape() {
        let bad = r"
fn drain(&self) {
    let state = self.state.lock();
    self.file.sync_all();
}
";
        let f = check_file("crates/x/src/worker.rs", bad, &[]);
        assert!(rules_of(&f).contains(&"blocking-in-guard"), "{f:?}");

        // Condvar waits that take the guard are the sanctioned shape.
        let condvar = r"
fn pop(&self) {
    let mut state = self.state.lock();
    self.not_empty.wait(&mut state);
}
";
        let f = check_file("crates/x/src/worker.rs", condvar, &[]);
        assert!(!rules_of(&f).contains(&"blocking-in-guard"), "{f:?}");

        // Dropping the guard before blocking is clean.
        let dropped = r"
fn drain(&self) {
    let state = self.state.lock();
    drop(state);
    self.file.sync_all();
}
";
        let f = check_file("crates/x/src/worker.rs", dropped, &[]);
        assert!(!rules_of(&f).contains(&"blocking-in-guard"), "{f:?}");
    }

    #[test]
    fn ordering_justification_fires_when_comment_dropped() {
        // Mutation: the justification comment removed.
        let bad = r"
fn bump(&self) {
    self.epoch.fetch_add(1, Ordering::Release);
}
";
        let f = check_file("crates/x/src/sharded.rs", bad, &[]);
        assert!(rules_of(&f).contains(&"ordering-justification"), "{f:?}");

        let good = r"
fn bump(&self) {
    // ordering: Release publishes the new table to epoch readers.
    self.epoch.fetch_add(1, Ordering::Release);
}
";
        let f = check_file("crates/x/src/sharded.rs", good, &[]);
        assert!(!rules_of(&f).contains(&"ordering-justification"), "{f:?}");
    }

    #[test]
    fn hot_path_panic_fires_respects_allowlist_and_module_scope() {
        let bad = "fn run() {\n    let v = queue.pop().expect(\"peeked\");\n}\n";
        let f = check_file("crates/index-service/src/worker.rs", bad, &[]);
        assert!(rules_of(&f).contains(&"hot-path-panic"), "{f:?}");

        // The same site, vetted in the allowlist, is clean.
        let allow = parse_allowlist(
            "index-service/src/worker.rs | .expect(\"peeked\") | vetted for this test\n",
        );
        let f = check_file("crates/index-service/src/worker.rs", bad, &allow);
        assert!(!rules_of(&f).contains(&"hot-path-panic"), "{f:?}");

        // Outside the hot-path module list the rule does not apply.
        let f = check_file("crates/index-service/src/stats.rs", bad, &[]);
        assert!(!rules_of(&f).contains(&"hot-path-panic"), "{f:?}");

        // Panics inside #[cfg(test)] are fine even in hot modules.
        let test_only = "#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\n";
        let f = check_file("crates/index-service/src/worker.rs", test_only, &[]);
        assert!(!rules_of(&f).contains(&"hot-path-panic"), "{f:?}");
    }

    #[test]
    fn forbid_unsafe_fires_on_missing_attribute() {
        let f = check_file("crates/x/src/lib.rs", "//! docs\npub fn a() {}\n", &[]);
        assert!(rules_of(&f).contains(&"forbid-unsafe"), "{f:?}");

        let f = check_file(
            "crates/x/src/lib.rs",
            "//! docs\n#![forbid(unsafe_code)]\npub fn a() {}\n",
            &[],
        );
        assert!(!rules_of(&f).contains(&"forbid-unsafe"), "{f:?}");

        // Non-root files are not required to repeat the attribute.
        let f = check_file("crates/x/src/worker.rs", "pub fn a() {}\n", &[]);
        assert!(!rules_of(&f).contains(&"forbid-unsafe"), "{f:?}");

        // The audited sync crate is exempt from forbid(unsafe_code) but
        // must deny implicit unsafe scopes instead.
        let f = check_file(
            "crates/sync/src/lib.rs",
            "//! docs\n#![deny(unsafe_op_in_unsafe_fn)]\npub fn a() {}\n",
            &[],
        );
        assert!(!rules_of(&f).contains(&"forbid-unsafe"), "{f:?}");
        // Mutation: the deny attribute dropped from the audited root.
        let f = check_file("crates/sync/src/lib.rs", "//! docs\npub fn a() {}\n", &[]);
        assert!(
            f.iter()
                .any(|f| f.rule == "forbid-unsafe" && f.message.contains("unsafe_op_in_unsafe_fn")),
            "{f:?}"
        );
    }

    #[test]
    fn reader_wait_free_fires_on_read_guard_in_hot_modules_only() {
        // Mutation: a read *guard* re-introduced on the read path.
        let bad = "fn get(&self) {\n    let guard = shard.read();\n}\n";
        let f = check_file("crates/index-api/src/sharded.rs", bad, &[]);
        assert!(rules_of(&f).contains(&"reader-wait-free"), "{f:?}");
        let f = check_file("crates/index-service/src/worker.rs", bad, &[]);
        assert!(rules_of(&f).contains(&"reader-wait-free"), "{f:?}");

        // The wait-free closure form is the fixed shape.
        let good = "fn get(&self) {\n    shard.read_with(|s| s.len());\n}\n";
        let f = check_file("crates/index-api/src/sharded.rs", good, &[]);
        assert!(!rules_of(&f).contains(&"reader-wait-free"), "{f:?}");

        // The telemetry crate is covered wholesale: recording is
        // called from the hot paths, so no module there may take a
        // read guard.
        let f = check_file("crates/telemetry/src/histogram.rs", bad, &[]);
        assert!(rules_of(&f).contains(&"reader-wait-free"), "{f:?}");
        let f = check_file("crates/telemetry/src/snapshot.rs", bad, &[]);
        assert!(rules_of(&f).contains(&"reader-wait-free"), "{f:?}");

        // Writers may block; cold modules may take read guards.
        let writer = "fn put(&self) {\n    let mut g = shard.write();\n}\n";
        let f = check_file("crates/index-api/src/sharded.rs", writer, &[]);
        assert!(!rules_of(&f).contains(&"reader-wait-free"), "{f:?}");
        let f = check_file("crates/index-service/src/stats.rs", bad, &[]);
        assert!(!rules_of(&f).contains(&"reader-wait-free"), "{f:?}");

        // Test code and vetted allow comments stay clean.
        let test_only = "#[cfg(test)]\nmod tests {\n    fn t() { let g = shard.read(); }\n}\n";
        let f = check_file("crates/index-api/src/sharded.rs", test_only, &[]);
        assert!(!rules_of(&f).contains(&"reader-wait-free"), "{f:?}");
        let allowed = "fn get(&self) {\n    let g = shard.read(); \
                       // fiting-check: allow(reader-wait-free) cold diagnostic\n}\n";
        let f = check_file("crates/index-api/src/sharded.rs", allowed, &[]);
        assert!(!rules_of(&f).contains(&"reader-wait-free"), "{f:?}");
    }

    #[test]
    fn unsafe_safety_comment_fires_without_per_site_audit() {
        // Mutation: the safety comment removed from an unsafe site.
        let bad = "fn read(&self) {\n    let v = unsafe { &*self.data.get() };\n}\n";
        let f = check_file("crates/sync/src/seqlock.rs", bad, &[]);
        assert!(rules_of(&f).contains(&"unsafe-safety-comment"), "{f:?}");

        // A `// safety:` block directly above the site is the contract,
        // including multi-line justifications.
        let good = "fn read(&self) {\n    // safety: writers drain this reader's\n    \
                    // presence slot before mutating.\n    \
                    let v = unsafe { &*self.data.get() };\n}\n";
        let f = check_file("crates/sync/src/seqlock.rs", good, &[]);
        assert!(!rules_of(&f).contains(&"unsafe-safety-comment"), "{f:?}");

        // A blank line between comment and site breaks the coverage.
        let detached = "fn read(&self) {\n    // safety: stale\n\n    \
                        let v = unsafe { &*self.data.get() };\n}\n";
        let f = check_file("crates/sync/src/seqlock.rs", detached, &[]);
        assert!(rules_of(&f).contains(&"unsafe-safety-comment"), "{f:?}");

        // Outside the audited crate the rule does not apply (the code
        // wouldn't compile there anyway — forbid(unsafe_code)).
        let f = check_file("crates/x/src/lib.rs", bad, &[]);
        assert!(!rules_of(&f).contains(&"unsafe-safety-comment"), "{f:?}");

        // The crate's second site, `prefetch_read`, as it ships — and
        // with its `// safety:` line taken out.
        let shipped = include_str!("../../sync/src/prefetch.rs");
        let f = check_file("crates/sync/src/prefetch.rs", shipped, &[]);
        assert!(!rules_of(&f).contains(&"unsafe-safety-comment"), "{f:?}");
        let stripped = shipped.replacen("// safety:", "//", 1);
        let f = check_file("crates/sync/src/prefetch.rs", &stripped, &[]);
        assert!(rules_of(&f).contains(&"unsafe-safety-comment"), "{f:?}");
    }

    #[test]
    fn branchless_claim_fires_on_a_branch_in_the_loop_or_a_missing_select() {
        let kernel = |step: &str| {
            format!(
                "fn branchless_floor<T: Ord>(run: &[T], key: &T) -> usize {{\n    \
                 let mut base = 0usize;\n    let mut size = run.len();\n    \
                 while size > 1 {{\n        let half = size / 2;\n        \
                 let mid = base + half;\n        {step}\n        size -= half;\n    }}\n    \
                 base\n}}\n"
            )
        };
        // Mutation: the body this rule was written against — it reads
        // as a select and compiled to `cmp; ja; mov; jmp`.
        let bad = kernel("base = if run[mid] <= *key { mid } else { base };");
        let f = check_file("crates/core/src/directory.rs", &bad, &[]);
        let claims: Vec<_> = f.iter().filter(|f| f.rule == "branchless-claim").collect();
        assert!(
            claims
                .iter()
                .any(|f| f.line == 7 && f.message.contains("inside the loop")),
            "{f:?}"
        );
        assert!(
            claims
                .iter()
                .any(|f| f.line == 1 && f.message.contains("select_unpredictable")),
            "{f:?}"
        );

        let good = kernel("base = std::hint::select_unpredictable(run[mid] <= *key, mid, base);");
        let f = check_file("crates/core/src/directory.rs", &good, &[]);
        assert!(!rules_of(&f).contains(&"branchless-claim"), "{f:?}");

        // Branches outside the loop (an empty-input guard) are fine, as
        // is any body under a name that claims nothing.
        let guarded = good.replacen(
            "let mut base = 0usize;",
            "if run.is_empty() { return 0; }\n    let mut base = 0usize;",
            1,
        );
        let f = check_file("crates/core/src/directory.rs", &guarded, &[]);
        assert!(!rules_of(&f).contains(&"branchless-claim"), "{f:?}");
        let f = check_file(
            "crates/core/src/directory.rs",
            &bad.replace("branchless_floor", "bounded_floor"),
            &[],
        );
        assert!(!rules_of(&f).contains(&"branchless-claim"), "{f:?}");
    }

    #[test]
    fn sync_ordering_per_site_demands_per_site_comments() {
        // One function-level comment covering two sites satisfies the
        // workspace rule but NOT the audited crate's per-site rule.
        let bad = "fn publish(&self) {\n    // ordering: Release pairs with reader Acquire.\n    \
                   self.seq.fetch_add(1, Ordering::Release);\n    \
                   let v = self.version.load(Ordering::Acquire);\n}\n";
        let f = check_file("crates/sync/src/snapshot.rs", bad, &[]);
        assert!(
            f.iter()
                .any(|f| f.rule == "sync-ordering-per-site" && f.line == 4),
            "uncommented second site must fire: {f:?}"
        );

        let good = "fn publish(&self) {\n    // ordering: Release pairs with reader Acquire.\n    \
                    self.seq.fetch_add(1, Ordering::Release);\n    \
                    // ordering: Acquire pairs with the publisher's Release.\n    \
                    let v = self.version.load(Ordering::Acquire);\n}\n";
        let f = check_file("crates/sync/src/snapshot.rs", good, &[]);
        assert!(!rules_of(&f).contains(&"sync-ordering-per-site"), "{f:?}");

        // Outside the audited crate only the per-function rule applies.
        let fnlevel =
            "fn publish(&self) {\n    // ordering: Release publishes; Acquire reads.\n    \
                       self.seq.fetch_add(1, Ordering::Release);\n    \
                       let v = self.version.load(Ordering::Acquire);\n}\n";
        let f = check_file("crates/x/src/epoch.rs", fnlevel, &[]);
        assert!(!rules_of(&f).contains(&"sync-ordering-per-site"), "{f:?}");
        assert!(!rules_of(&f).contains(&"ordering-justification"), "{f:?}");
    }

    #[test]
    fn storage_io_unwrap_fires_in_storage_production_only() {
        // Mutation: a `?` propagation replaced by `.unwrap()`.
        let bad = "fn flush(&mut self) {\n    self.file.sync_data().unwrap();\n}\n";
        let f = check_file("crates/storage/src/wal.rs", bad, &[]);
        assert!(rules_of(&f).contains(&"storage-io-unwrap"), "{f:?}");

        // `.expect(..)` is the same panic with a nicer epitaph.
        let expect = "fn open(&self) {\n    let data = io.read(&p).expect(\"snapshot\");\n}\n";
        let f = check_file("crates/storage/src/durable.rs", expect, &[]);
        assert!(rules_of(&f).contains(&"storage-io-unwrap"), "{f:?}");

        // Propagation is the fixed shape.
        let good = "fn flush(&mut self) -> io::Result<()> {\n    self.file.sync_data()\n}\n";
        let f = check_file("crates/storage/src/wal.rs", good, &[]);
        assert!(!rules_of(&f).contains(&"storage-io-unwrap"), "{f:?}");

        // #[cfg(test)] code in storage may unwrap freely.
        let test_only = "#[cfg(test)]\nmod tests {\n    fn t() { f.sync_data().unwrap(); }\n}\n";
        let f = check_file("crates/storage/src/wal.rs", test_only, &[]);
        assert!(!rules_of(&f).contains(&"storage-io-unwrap"), "{f:?}");

        // Outside crates/storage the rule does not apply.
        let f = check_file("crates/tree/src/lib.rs", bad, &[]);
        assert!(!rules_of(&f).contains(&"storage-io-unwrap"), "{f:?}");

        // A vetted allow comment with a reason suppresses the finding.
        let allowed = "fn flush(&mut self) {\n    self.file.sync_data().unwrap(); \
                       // fiting-check: allow(storage-io-unwrap) infallible in-memory io\n}\n";
        let f = check_file("crates/storage/src/wal.rs", allowed, &[]);
        assert!(!rules_of(&f).contains(&"storage-io-unwrap"), "{f:?}");
    }

    #[test]
    fn std_sync_quarantine_fires_outside_the_seam_and_compat_only() {
        let bad = "#![forbid(unsafe_code)]\nuse std::sync::Mutex;\n";
        let f = check_file("crates/x/src/lib.rs", bad, &[]);
        assert!(rules_of(&f).contains(&"std-sync-quarantine"), "{f:?}");

        // Brace imports are seen through.
        let braced = "#![forbid(unsafe_code)]\nuse std::sync::{Arc, Condvar};\n";
        let f = check_file("crates/x/src/lib.rs", braced, &[]);
        assert!(rules_of(&f).contains(&"std-sync-quarantine"), "{f:?}");

        // Arc / atomics / OnceLock stay allowed.
        let ok = "#![forbid(unsafe_code)]\nuse std::sync::{Arc, OnceLock};\nuse std::sync::atomic::AtomicU64;\n";
        let f = check_file("crates/x/src/lib.rs", ok, &[]);
        assert!(!rules_of(&f).contains(&"std-sync-quarantine"), "{f:?}");

        // The seam's normal arm and the compat crates are the
        // implementation; a test may park on a std lock.
        for exempt in [
            "crates/sync/src/primitives.rs",
            "crates/compat/shuttle/src/sync.rs",
            "crates/x/tests/stress.rs",
        ] {
            let f = check_file(exempt, "use std::sync::Mutex;\n", &[]);
            assert!(!rules_of(&f).contains(&"std-sync-quarantine"), "{f:?}");
        }
    }

    #[test]
    fn std_sync_quarantine_keeps_std_atomics_out_of_the_modelled_types() {
        // Mutation: the seqlock's sequence word imported from std — it
        // would compile under `--cfg fiting_model` and never yield.
        let bad = "use std::sync::atomic::{AtomicU64, Ordering};\n";
        for module in SEAM_ONLY_MODULES.map(|m| format!("crates/{m}")) {
            let f = check_file(&module, bad, &[]);
            assert!(
                f.iter()
                    .any(|f| f.rule == "std-sync-quarantine" && f.message.contains("`AtomicU64`")),
                "{module}: {f:?}"
            );
        }
        let f = check_file(
            "crates/sync/src/seqlock.rs",
            "static N: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);\n",
            &[],
        );
        assert!(rules_of(&f).contains(&"std-sync-quarantine"), "{f:?}");

        // Through the seam, `Ordering` alone, and a vetted `static`
        // counter are the fixed shapes; other modules keep std atomics.
        for good in [
            "use crate::primitives::{AtomicU64, Ordering};\n",
            "use std::sync::atomic::Ordering;\n",
            "use std::sync::atomic::AtomicU64 as Id; // fiting-check: allow(std-sync-quarantine) static id\n",
        ] {
            let f = check_file("crates/sync/src/snapshot.rs", good, &[]);
            assert!(!rules_of(&f).contains(&"std-sync-quarantine"), "{f:?}");
        }
        let f = check_file("crates/index-service/src/stats.rs", bad, &[]);
        assert!(!rules_of(&f).contains(&"std-sync-quarantine"), "{f:?}");

        // The shipped files are clean, and stay so only through the seam.
        let shipped = include_str!("../../sync/src/seqlock.rs");
        let f = check_file("crates/sync/src/seqlock.rs", shipped, &[]);
        assert!(!rules_of(&f).contains(&"std-sync-quarantine"), "{f:?}");
        let direct = shipped.replacen("use crate::primitives::{", "use std::sync::atomic::{", 1);
        let f = check_file("crates/sync/src/seqlock.rs", &direct, &[]);
        assert!(rules_of(&f).contains(&"std-sync-quarantine"), "{f:?}");
    }

    #[test]
    fn std_sync_quarantine_fires_on_a_mirror_model() {
        // Mutation: a test file that rebuilds a protocol from the
        // checker's own locks — what the three deleted files did.
        let mirror = "use shuttle::sync::{Condvar, Mutex};\nuse shuttle::thread;\n";
        for path in [
            "crates/index-service/tests/models.rs",
            "tests/chaos.rs",
            "crates/index-api/src/sharded.rs",
        ] {
            let f = check_file(path, mirror, &[]);
            assert!(
                f.iter()
                    .any(|f| f.rule == "std-sync-quarantine" && f.line == 1),
                "{path}: {f:?}"
            );
        }

        // The scheduler's entry points are what a real-type model uses;
        // the checker's self-tests and the seam name the locks.
        let model = "use shuttle::{model, thread};\nuse fiting_sync::primitives::Mutex;\n";
        let f = check_file("crates/index-service/tests/models.rs", model, &[]);
        assert!(!rules_of(&f).contains(&"std-sync-quarantine"), "{f:?}");
        for exempt in [
            "crates/compat/shuttle/tests/regressions.rs",
            "crates/sync/src/primitives.rs",
        ] {
            let f = check_file(exempt, mirror, &[]);
            assert!(!rules_of(&f).contains(&"std-sync-quarantine"), "{f:?}");
        }
    }
}
