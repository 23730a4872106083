//! The project-invariant rules `fiting-check` enforces — properties
//! clippy cannot see because they are *protocol* conventions, not
//! syntax. Each rule reports [`Finding`]s; the binary fails the build
//! on any. Every rule has a mutation self-test below proving it fires
//! on a seeded violation and stays quiet on the fixed version.

use crate::lexer::{clean, find_word, CleanFile};

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

/// Whether the line's comment suppresses `rule` via
/// `fiting-check: allow(<rule>)` (which must carry a reason after it).
fn line_allows(cf: &CleanFile, line: usize, rule: &str) -> bool {
    cf.comments
        .get(line - 1)
        .is_some_and(|c| c.contains(&format!("fiting-check: allow({rule})")))
}

/// Runs every rule against one file's source; `path` is
/// workspace-relative with `/` separators.
#[must_use]
pub fn check_file(path: &str, raw: &str) -> Vec<Finding> {
    let cf = clean(raw);
    let mut findings = Vec::new();
    if path.contains("/src/") || path.starts_with("src/") {
        findings.extend(rule_lock_order(path, &cf));
        findings.extend(rule_blocking_in_guard(path, &cf));
        findings.extend(rule_ordering_justification(path, &cf));
        findings.extend(rule_kernel_claim(path, &cf));
    }
    findings.extend(rule_std_sync_quarantine(path, &cf));
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

/// Where each explicit `Ordering::…` site carries its own `// ordering:`
/// comment, on its line or in the comment-only lines directly above it.
/// `crates/sync/` holds the epoch and seqlock handshakes, where one
/// misplaced `Relaxed` is a torn read. Everywhere else one comment in the
/// enclosing function, or in the three lines above it, covers each site
/// in it (outside any function, the site's line or the three above).
const PER_SITE: [&str; 1] = ["crates/sync/src/"];

/// Every explicit memory-ordering site must be covered by an
/// `// ordering:` comment, per site or per function as [`PER_SITE`]
/// says — the reviewer contract for why the chosen strength is
/// sufficient.
fn rule_ordering_justification(path: &str, cf: &CleanFile) -> Vec<Finding> {
    let per_site = PER_SITE.iter().any(|p| path.starts_with(p));
    let place = if per_site {
        "at this site"
    } else {
        "in this function"
    };
    let mut findings = Vec::new();
    for (ln0, line) in cf.code.iter().enumerate() {
        let ln = ln0 + 1;
        if !cf.is_production(ln) || !ORDERINGS.iter().any(|o| line.contains(o)) {
            continue;
        }
        // The lines the comment may sit on.
        let mut lines = match (per_site, cf.enclosing_fn(ln)) {
            (true, _) => {
                let run = (1..ln).rev().take_while(|&l| {
                    cf.code[l - 1].trim().is_empty() && !cf.comments[l - 1].is_empty()
                });
                run.last().unwrap_or(ln)..=ln
            }
            (false, Some(f)) => f.decl_line.saturating_sub(3).max(1)..=f.body_end,
            (false, None) => ln.saturating_sub(3).max(1)..=ln,
        };
        if !lines.any(|l| cf.comments[l - 1].contains("ordering:")) {
            findings.push(Finding {
                file: path.to_string(),
                line: ln,
                rule: "ordering-justification",
                message: format!(
                    "explicit memory Ordering without a `// ordering:` \
                     justification comment {place}"
                ),
            });
        }
    }
    findings
}

// ---------------------------------------------------------------------
// Rule: forbid-unsafe — every manifest keeps `unsafe_code` forbidden
// ---------------------------------------------------------------------

/// `unsafe_code` is forbidden in the workspace lint table, which no
/// attribute in a member's source can lift (rustc refuses one with
/// E0453), so what can still let `unsafe` in is a manifest: the table
/// relaxed, or a member that stops inheriting it. Every manifest must
/// carry `[lints] workspace = true`, the root's table must keep
/// `unsafe_code = "forbid"`, and `crates/sync/`, the workspace's one
/// audited `unsafe` boundary, must pair its own `unsafe_code = "allow"`
/// with `unsafe_op_in_unsafe_fn = "deny"` (clippy's
/// `undocumented_unsafe_blocks`, denied there too, holds each site to a
/// `// safety:` comment). `dir` is the package's directory relative to
/// the workspace root, `""` for the root package.
pub(crate) fn check_manifest(dir: &str, manifest: &str) -> Option<Finding> {
    const INHERIT: &str = "[lints] workspace = true";
    let required = match dir {
        "crates/sync" => [
            r#"[lints.rust] unsafe_code = "allow""#,
            r#"[lints.rust] unsafe_op_in_unsafe_fn = "deny""#,
        ],
        "" => [INHERIT, r#"[workspace.lints.rust] unsafe_code = "forbid""#],
        _ => [INHERIT; 2],
    };
    // Each entry of the manifest, prefixed by its table's header line.
    let mut table = "";
    let entries: Vec<String> = manifest
        .lines()
        .map(str::trim)
        .filter_map(|line| {
            let header = line.starts_with('[');
            table = if header { line } else { table };
            (!header).then(|| format!("{table} {line}"))
        })
        .collect();
    let missing = required
        .iter()
        .find(|&want| !entries.iter().any(|e| e == want))?;
    Some(Finding {
        file: format!("{dir}/Cargo.toml").trim_start_matches('/').into(),
        line: 1,
        rule: "forbid-unsafe",
        message: format!(
            "manifest lacks `{missing}`, which keeps `unsafe` out of the workspace \
             (or, in `crates/sync`, audited)"
        ),
    })
}

// ---------------------------------------------------------------------
// Rule: std-sync-quarantine — a model sees what the seam hands out
// ---------------------------------------------------------------------

/// The one module that may name `std` atomics for the modelled types
/// (its normal-build arm re-exports them) and `shuttle::sync` (its
/// model-build arm).
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

/// The paths the `use` tree `tree` imports, after `prefix`, brace
/// groups expanded: `std::sync::{atomic::{AtomicU64, Ordering}, Arc}`
/// imports `std::sync::atomic::AtomicU64`, `std::sync::atomic::Ordering`
/// and `std::sync::Arc`.
fn use_paths(tree: &str, prefix: &str, paths: &mut Vec<String>) {
    let Some(open) = tree.find('{') else {
        paths.push(format!("{prefix}{}", tree.trim()));
        return;
    };
    let prefix = format!("{prefix}{}", tree[..open].trim());
    let body = &tree[open + 1..tree.rfind('}').unwrap_or(tree.len())];
    let mut depth = 0;
    let top_level_comma = |c| {
        depth += i32::from(c == '{') - i32::from(c == '}');
        c == ',' && depth == 0
    };
    for item in body.split(top_level_comma).filter(|i| !i.trim().is_empty()) {
        use_paths(item, &prefix, paths);
    }
}

/// The word after each `module::` in `text` that starts a path there:
/// `module` does not follow another path segment.
fn names_after<'a>(text: &'a str, module: &'a str) -> impl Iterator<Item = &'a str> {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    text.match_indices(module).filter_map(move |(at, _)| {
        let before = &text[..at];
        let rest = text[at + module.len()..].strip_prefix("::")?;
        let starts = !before.strip_suffix("::").unwrap_or(before).ends_with(ident);
        starts.then(|| rest.split(|c| !ident(c)).next())?
    })
}

/// What a model runs comes through the seam, `fiting_sync::primitives`:
/// the [`SEAM_ONLY_MODULES`] import no `std` atomic (`Ordering` and
/// atomics elsewhere stay allowed) — by its path, from a brace group,
/// or through `std::sync::atomic` imported as a module — and no file,
/// tests included, names `shuttle::sync` — a test that builds a
/// protocol out of the checker's locks is a mirror of a production
/// type, which nothing keeps in step with it. (`std::sync` locks are
/// clippy's `disallowed-types` in the root `clippy.toml`. Neither
/// clause fits such a list: clippy matches a disallowed type through
/// re-exports, so every user of the seam's own atomics, or of its locks
/// under `--cfg fiting_model`, would need an `#[expect]`.)
fn rule_std_sync_quarantine(path: &str, cf: &CleanFile) -> Vec<Finding> {
    if path.starts_with("crates/compat/") || path == SEAM {
        return Vec::new();
    }
    let seam_only = SEAM_ONLY_MODULES.iter().any(|m| path.ends_with(m));
    // Each line read as paths: a `use`, read to its `;` (rustfmt wraps
    // long ones), as the paths it imports; any other line as itself.
    let lines: Vec<(usize, Vec<String>)> = (1..=cf.code.len())
        .filter(|&ln| cf.is_production(ln) && !line_allows(cf, ln, "std-sync-quarantine"))
        .map(|ln| {
            let rest = &cf.code[ln - 1..];
            let Some(tree) = rest[0].trim_start().strip_prefix("use ") else {
                return (ln, vec![rest[0].clone()]);
            };
            let end = rest.iter().position(|l| l.contains(';')).unwrap_or(0);
            let stmt = tree.to_string() + &rest[1..=end].concat();
            let mut paths = Vec::new();
            use_paths(stmt.split(';').next().unwrap_or(""), "", &mut paths);
            (ln, paths)
        })
        .collect();
    // `std::sync::atomic`, and each name a `use` gives it.
    let mut modules = vec!["std::sync::atomic"];
    for path in lines.iter().flat_map(|(_, paths)| paths) {
        match path.strip_prefix("std::sync::atomic") {
            Some("") => modules.push("atomic"),
            Some(rest) => modules.extend(rest.strip_prefix(" as ").map(str::trim)),
            None => {}
        }
    }
    let mut findings = Vec::new();
    for (ln, paths) in &lines {
        let named = paths.iter().find_map(|text| {
            let mut atomics = modules.iter().flat_map(|m| names_after(text, m));
            atomics
                .find(|w| seam_only && w.starts_with("Atomic"))
                .or_else(|| text.contains("shuttle::sync::").then_some("shuttle::sync"))
        });
        if let Some(name) = named {
            findings.push(Finding {
                file: path.to_string(),
                line: *ln,
                rule: "std-sync-quarantine",
                message: format!(
                    "`{name}` named directly; a model runs the production type \
                     built with `--cfg fiting_model`, which takes its atomics and \
                     locks from `fiting_sync::primitives`, not a copy of it"
                ),
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
        let f = check_file("crates/x/src/sharded.rs", bad);
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
        let f = check_file("crates/x/src/sharded.rs", uncommented);
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
        let f = check_file("crates/x/src/sharded.rs", good);
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
        let f = check_file("crates/x/src/worker.rs", bad);
        assert!(rules_of(&f).contains(&"blocking-in-guard"), "{f:?}");

        // Condvar waits that take the guard are the sanctioned shape.
        let condvar = r"
fn pop(&self) {
    let mut state = self.state.lock();
    self.not_empty.wait(&mut state);
}
";
        let f = check_file("crates/x/src/worker.rs", condvar);
        assert!(!rules_of(&f).contains(&"blocking-in-guard"), "{f:?}");

        // Dropping the guard before blocking is clean.
        let dropped = r"
fn drain(&self) {
    let state = self.state.lock();
    drop(state);
    self.file.sync_all();
}
";
        let f = check_file("crates/x/src/worker.rs", dropped);
        assert!(!rules_of(&f).contains(&"blocking-in-guard"), "{f:?}");
    }

    #[test]
    fn ordering_justification_demands_a_comment_per_function_or_per_sync_site() {
        // One function-level comment over two sites.
        let fn_level =
            "fn publish(&self) {\n    // ordering: Release publishes; Acquire reads.\n    \
                        self.seq.fetch_add(1, Ordering::Release);\n    \
                        let v = self.version.load(Ordering::Acquire);\n}\n";
        let per_site =
            "fn publish(&self) {\n    // ordering: Release pairs with reader Acquire.\n    \
                        self.seq.fetch_add(1, Ordering::Release);\n    \
                        // ordering: Acquire pairs with the publisher's Release.\n    \
                        let v = self.version.load(Ordering::Acquire);\n}\n";
        let above_fn = "// ordering: Release publishes the sequence word.\n\
                        fn publish(&self) {\n    self.seq.fetch_add(1, Ordering::Release);\n}\n";
        // (path, source, lines that must fire)
        let rows: [(&str, &str, &[usize]); 8] = [
            // Mutation: the justification comment removed.
            (
                "crates/x/src/sharded.rs",
                "\nfn bump(&self) {\n    self.epoch.fetch_add(1, Ordering::Release);\n}\n",
                &[3],
            ),
            (
                "crates/x/src/sharded.rs",
                "\nfn bump(&self) {\n    // ordering: Release publishes the new table.\n    \
                 self.epoch.fetch_add(1, Ordering::Release);\n}\n",
                &[],
            ),
            // Outside `crates/sync` the function's comment covers every
            // site in it, and a comment just above the fn counts.
            ("crates/x/src/epoch.rs", fn_level, &[]),
            ("crates/x/src/epoch.rs", above_fn, &[]),
            // In `crates/sync` each site needs its own: the second site
            // under one function-level comment fires.
            ("crates/sync/src/snapshot.rs", fn_level, &[4]),
            ("crates/sync/src/snapshot.rs", per_site, &[]),
            // A comment that covers the whole function but sits at no
            // site covers none there.
            ("crates/sync/src/seqlock.rs", above_fn, &[3]),
            // Test code is not audited.
            (
                "crates/sync/src/seqlock.rs",
                "#[cfg(test)]\nmod tests {\n    fn t() { X.load(Ordering::Relaxed); }\n}\n",
                &[],
            ),
        ];
        for (path, source, fire) in rows {
            let f = check_file(path, source);
            let lines: Vec<_> = f
                .iter()
                .filter(|f| f.rule == "ordering-justification")
                .map(|f| f.line)
                .collect();
            assert_eq!(lines, fire, "{path}:\n{source}{f:?}");
        }
    }

    #[test]
    fn forbid_unsafe_fires_on_a_manifest_that_lets_unsafe_in() {
        let plr = include_str!("../../plr/Cargo.toml");
        let sync = include_str!("../../sync/Cargo.toml");
        let root = include_str!("../../../Cargo.toml");
        assert_eq!(check_manifest("crates/plr", plr), None);
        assert_eq!(check_manifest("crates/sync", sync), None);
        assert_eq!(check_manifest("", root), None);

        // Mutation: a member that stops inheriting the workspace table.
        let f = check_manifest(
            "crates/plr",
            &plr.replace("[lints]\nworkspace = true\n", ""),
        );
        assert!(
            f.as_ref().is_some_and(|f| f.file == "crates/plr/Cargo.toml"
                && f.rule == "forbid-unsafe"
                && f.message.contains("`[lints] workspace = true`")),
            "{f:?}"
        );
        // Mutation: the audited crate without its companion deny.
        let f = check_manifest(
            "crates/sync",
            &sync.replace("unsafe_op_in_unsafe_fn = \"deny\"\n", ""),
        );
        assert!(
            f.as_ref()
                .is_some_and(|f| f.message.contains("unsafe_op_in_unsafe_fn")),
            "{f:?}"
        );
        // Mutation: the workspace table relaxed back to a `deny`, which
        // an `#[allow]` in any member could lift.
        let f = check_manifest(
            "",
            &root.replace("unsafe_code = \"forbid\"", "unsafe_code = \"deny\""),
        );
        assert!(
            f.as_ref().is_some_and(|f| f.file == "Cargo.toml"
                && f.message
                    .contains("`[workspace.lints.rust] unsafe_code = \"forbid\"`")),
            "{f:?}"
        );
        // The sync crate's form is no way out for any other member.
        assert!(check_manifest("crates/plr", sync).is_some());
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
        let f = check_file("crates/core/src/directory.rs", &bad);
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
        let f = check_file("crates/core/src/directory.rs", &good);
        assert!(!rules_of(&f).contains(&"branchless-claim"), "{f:?}");

        // Branches outside the loop (an empty-input guard) are fine, as
        // is any body under a name that claims nothing.
        let guarded = good.replacen(
            "let mut base = 0usize;",
            "if run.is_empty() { return 0; }\n    let mut base = 0usize;",
            1,
        );
        let f = check_file("crates/core/src/directory.rs", &guarded);
        assert!(!rules_of(&f).contains(&"branchless-claim"), "{f:?}");
        let f = check_file(
            "crates/core/src/directory.rs",
            &bad.replace("branchless_floor", "bounded_floor"),
        );
        assert!(!rules_of(&f).contains(&"branchless-claim"), "{f:?}");
    }

    #[test]
    fn std_sync_quarantine_keeps_std_atomics_out_of_the_modelled_types() {
        // Mutation: the seqlock's sequence word imported from std — it
        // would compile under `--cfg fiting_model` and never yield.
        // The same import from a brace group of `std::sync`, nested or
        // not, and through the module imported by itself.
        let bads = [
            "use std::sync::atomic::{AtomicU64, Ordering};\n",
            "use std::sync::{atomic::AtomicU64, Arc};\n",
            "use std::sync::{Arc, atomic::{AtomicU64, Ordering}};\n",
            "use std::sync::atomic;\nstatic N: atomic::AtomicU64 = atomic::AtomicU64::new(0);\n",
        ];
        for (bad, module) in bads
            .iter()
            .flat_map(|bad| SEAM_ONLY_MODULES.map(|m| (bad, m)))
        {
            let f = check_file(&format!("crates/{module}"), bad);
            assert!(
                f.iter()
                    .any(|f| f.rule == "std-sync-quarantine" && f.message.contains("`AtomicU64`")),
                "{module}, {bad}: {f:?}"
            );
        }
        let f = check_file(
            "crates/sync/src/seqlock.rs",
            "static N: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);\n",
        );
        assert!(rules_of(&f).contains(&"std-sync-quarantine"), "{f:?}");

        // Through the seam, `Ordering` alone, and a vetted `static`
        // counter are the fixed shapes; other modules keep std atomics.
        for good in [
            "use crate::primitives::{AtomicU64, Ordering};\n",
            "use std::sync::atomic::Ordering;\n",
            "use std::sync::{atomic::Ordering, Arc};\nuse crate::primitives::atomic::AtomicU64;\n",
            "use std::sync::atomic::AtomicU64 as Id; // fiting-check: allow(std-sync-quarantine) static id\n",
        ] {
            let f = check_file("crates/sync/src/snapshot.rs", good);
            assert!(!rules_of(&f).contains(&"std-sync-quarantine"), "{f:?}");
        }
        for bad in bads {
            let f = check_file("crates/index-service/src/stats.rs", bad);
            assert!(!rules_of(&f).contains(&"std-sync-quarantine"), "{f:?}");
        }

        // The shipped files are clean, and stay so only through the seam.
        let shipped = include_str!("../../sync/src/seqlock.rs");
        let f = check_file("crates/sync/src/seqlock.rs", shipped);
        assert!(!rules_of(&f).contains(&"std-sync-quarantine"), "{f:?}");
        let direct = shipped.replacen("use crate::primitives::{", "use std::sync::atomic::{", 1);
        let f = check_file("crates/sync/src/seqlock.rs", &direct);
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
            let f = check_file(path, mirror);
            assert!(
                f.iter()
                    .any(|f| f.rule == "std-sync-quarantine" && f.line == 1),
                "{path}: {f:?}"
            );
        }

        // The scheduler's entry points are what a real-type model uses;
        // the checker's self-tests and the seam name the locks.
        let model = "use shuttle::{model, thread};\nuse fiting_sync::primitives::Mutex;\n";
        let f = check_file("crates/index-service/tests/models.rs", model);
        assert!(!rules_of(&f).contains(&"std-sync-quarantine"), "{f:?}");
        for exempt in [
            "crates/compat/shuttle/tests/regressions.rs",
            "crates/sync/src/primitives.rs",
        ] {
            let f = check_file(exempt, mirror);
            assert!(!rules_of(&f).contains(&"std-sync-quarantine"), "{f:?}");
        }
    }
}
