//! The public-surface budget `fiting-check --lines` prints beside the
//! line count, and the `e2e-import` rule.
//!
//! A product crate's surface is its `pub` items (`fn`, `struct`, `enum`,
//! `trait`, `type`, `const`, `static`, `mod`) outside `#[cfg(test)]`.
//! A `pub` method of a crate-private type is not surface: it reaches no
//! further than the type. An item is *named* when its identifier
//! appears in the code of a file
//! outside the crate's directory: another member, the root package's
//! `src/`, `tests/` and `examples/`, or `e2e/src`. The crate's own tests
//! do not count, nor do doc-tests (the lexer blanks comments). Matching
//! is by identifier, so a method called `get` is named when anything
//! outside calls any `get`: the unnamed count is a floor.
//!
//! `e2e/` is a package of its own that no workspace build compiles, so a
//! rename that breaks it would surface only in its own CI job. The
//! `e2e-import` rule reads every `fiting_…::` path in `e2e/src` and
//! reports each name the crate no longer declares `pub` or re-exports:
//! a `pub use` exports the names it binds, not its path, and a module
//! is a name only when it is `pub mod`.

use crate::lexer::{clean, CleanFile};
use crate::rules::Finding;
use std::collections::{HashMap, HashSet};

/// The crates whose `pub` items `--lines` counts: the product, not the
/// facade, the bench and checker tools, or the compat stand-ins.
pub(crate) const PRODUCT_CRATES: [&str; 10] = [
    "fiting-index-api",
    "fiting-index-service",
    "fiting-plr",
    "fiting-btree",
    "fiting-tree",
    "fiting-storage",
    "fiting-baselines",
    "fiting-datasets",
    "fiting-sync",
    "fiting-telemetry",
];

const ITEM_KINDS: [&str; 8] = [
    "fn", "struct", "enum", "trait", "type", "const", "static", "mod",
];

fn words(code: &str) -> impl Iterator<Item = &str> {
    code.split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .filter(|w| !w.is_empty())
}

/// The kind and identifier a line declares `pub`: `pub const fn len(`
/// → `("fn", "len")`. `pub(crate)`, `pub use` and fields declare none.
fn pub_item(line: &str) -> Option<(&str, &str)> {
    let mut rest = words(line.trim_start().strip_prefix("pub ")?).peekable();
    while let Some(word) = rest.next() {
        if ITEM_KINDS.contains(&word) && !rest.peek().is_some_and(|w| ITEM_KINDS.contains(w)) {
            return rest.next().map(|name| (word, name));
        }
        if !matches!(word, "const" | "unsafe" | "async" | "extern") {
            return None;
        }
    }
    None
}

/// One product crate's row of the surface budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Surface {
    /// `pub` items outside `#[cfg(test)]`.
    pub items: usize,
    /// `path:line name` of each of those items nothing outside names.
    pub unnamed: Vec<String>,
}

/// The struct, enum or union a line declares narrower than `pub`:
/// `pub(crate) struct Node<K> {` → `Node`.
fn private_type(line: &str) -> Option<&str> {
    let line = line.trim_start();
    let line = match line.strip_prefix("pub(") {
        Some(rest) => rest.split_once(')')?.1,
        None => line,
    };
    let mut rest = words(line);
    matches!(rest.next()?, "struct" | "enum" | "union")
        .then(|| rest.next())
        .flatten()
}

/// What an `impl` header line implements for: `impl<K: Key> Segment<K>
/// {` → `<K: Key> Segment<K> {`, `impl fmt::Debug for Tree {` → `Tree {`.
fn impl_target(line: &str) -> Option<&str> {
    let line = line.trim_start();
    let rest = line.strip_prefix("unsafe ").unwrap_or(line);
    let rest = rest.strip_prefix("impl")?;
    rest.starts_with([' ', '<'])
        .then(|| rest.rsplit_once(" for ").map_or(rest, |(_, ty)| ty))
}

/// The crate-private types of a crate's production `files`: declared
/// narrower than `pub`, and no `pub` item of the same name.
fn private_types<'a>(files: &[(&str, &'a CleanFile)]) -> HashSet<&'a str> {
    let production = || {
        files.iter().flat_map(|(_, cf)| {
            cf.code
                .iter()
                .enumerate()
                .filter(|(i, _)| cf.is_production(i + 1))
                .map(|(_, line)| line.as_str())
        })
    };
    let public: HashSet<&str> = production()
        .filter_map(|line| Some(pub_item(line)?.1))
        .collect();
    production()
        .filter_map(private_type)
        .filter(|ty| !public.contains(ty))
        .collect()
}

/// One `pub` item: where it is declared, its kind keyword and its name.
struct Item<'a> {
    path: &'a str,
    line: usize,
    kind: &'a str,
    name: &'a str,
}

/// Every production `pub` item in `cf`, read from `path`, except those
/// inside an `impl` whose header names a type in `private`: a `pub fn`
/// on a crate-private type reaches no further than the type.
fn pub_items<'a>(path: &'a str, cf: &'a CleanFile, private: &HashSet<&str>) -> Vec<Item<'a>> {
    if !(path.contains("/src/") || path.starts_with("src/")) {
        return Vec::new();
    }
    let (mut items, mut depth) = (Vec::new(), 0usize);
    // Open `impl` blocks: (depth outside the block, its type is private).
    let (mut impls, mut header): (Vec<(usize, bool)>, Option<bool>) = (Vec::new(), None);
    for (i, line) in cf.code.iter().enumerate() {
        let hidden = impls.last().is_some_and(|&(_, private)| private);
        if let Some((kind, name)) = pub_item(line).filter(|_| !hidden && cf.is_production(i + 1)) {
            items.push(Item {
                path,
                line: i + 1,
                kind,
                name,
            });
        }
        if let Some(target) = impl_target(line) {
            header = Some(words(target).any(|word| private.contains(word)));
        }
        for c in line.chars() {
            if c == '{' {
                if let Some(private) = header.take() {
                    impls.push((depth, private));
                }
                depth += 1;
            } else if c == '}' {
                depth = depth.saturating_sub(1);
                if impls.last().is_some_and(|&(at, _)| at == depth) {
                    impls.pop();
                }
            }
        }
    }
    items
}

/// The production files of the crate in `dir`, out of `lexed`.
fn crate_files<'a>(lexed: &'a [(&'a str, CleanFile)], dir: &str) -> Vec<(&'a str, &'a CleanFile)> {
    lexed
        .iter()
        .filter(|(path, _)| path.starts_with(&format!("{dir}/")))
        .map(|(path, cf)| (*path, cf))
        .collect()
}

/// Every `pub` item the crate made of `files` offers: not under
/// `#[cfg(test)]`, not a method of a private type.
fn crate_items<'a>(files: &[(&'a str, &'a CleanFile)]) -> Vec<Item<'a>> {
    let private = private_types(files);
    files
        .iter()
        .flat_map(|&(path, cf)| pub_items(path, cf, &private))
        .collect()
}

fn lex(files: &[(String, String)]) -> Vec<(&str, CleanFile)> {
    files.iter().map(|(p, s)| (p.as_str(), clean(s))).collect()
}

/// The surface row of each `(package name, directory)` in `crates`, in
/// order, over `files`: every workspace `.rs` file as (root-relative
/// path, source).
#[must_use]
pub(crate) fn surface(files: &[(String, String)], crates: &[(String, String)]) -> Vec<Surface> {
    let lexed = lex(files);
    let mut rows = Vec::new();
    for (_, dir) in crates {
        let inside = |path: &str| path.starts_with(&format!("{dir}/"));
        let named: HashSet<&str> = lexed
            .iter()
            .filter(|(path, _)| !inside(path))
            .flat_map(|(_, cf)| cf.code.iter().flat_map(|line| words(line)))
            .collect();
        let items = crate_items(&crate_files(&lexed, dir));
        rows.push(Surface {
            items: items.len(),
            unnamed: items
                .iter()
                .filter(|item| !named.contains(item.name))
                .map(|item| format!("{}:{} {}", item.path, item.line, item.name))
                .collect(),
        });
    }
    rows
}

/// The names a `pub use` tree binds (`pub use ` and `;` stripped): the
/// last segment of each leaf or its `as` alias, the prefix for `self`,
/// nothing for a glob. `a::{b as c, d::{self, e}}` → `c`, `d`, `e`.
fn use_bindings<'a>(tree: &'a str) -> Vec<&'a str> {
    let mut bound = Vec::new();
    // The last segment before each open `{`, for a `self` inside it.
    let mut prefixes: Vec<Option<&str>> = Vec::new();
    // The word a leaf would bind if it ended here: a path's last
    // segment, or the alias after `as`.
    let mut last = None;
    let leaf = |last: Option<&'a str>, prefixes: &[Option<&'a str>]| match last {
        Some("self") => prefixes.last().copied().flatten(),
        name => name,
    };
    let mut rest = tree;
    while let Some(c) = rest.chars().next() {
        let len = rest
            .find(|c: char| !(c.is_alphanumeric() || c == '_'))
            .unwrap_or(rest.len());
        if len > 0 {
            if &rest[..len] != "as" {
                last = Some(&rest[..len]);
            }
            rest = &rest[len..];
            continue;
        }
        match c {
            '{' => prefixes.push(last.take()),
            ',' => bound.extend(leaf(last.take(), &prefixes)),
            '}' => {
                bound.extend(leaf(last.take(), &prefixes));
                prefixes.pop();
            }
            '*' => last = None,
            _ => {}
        }
        rest = &rest[c.len_utf8()..];
    }
    bound.extend(leaf(last, &prefixes));
    bound
}

/// What the crate in `dir` exports: every name of a `pub` item it
/// offers or a `pub use` binds, and the subset a path may go through
/// (`pub` modules and types, and `pub use` names).
fn exports(lexed: &[(&str, CleanFile)], dir: &str) -> (HashSet<String>, HashSet<String>) {
    let files = crate_files(lexed, dir);
    let items = crate_items(&files);
    let mut names: HashSet<String> = items.iter().map(|item| item.name.to_string()).collect();
    let mut scopes: HashSet<String> = items
        .iter()
        .filter(|item| !matches!(item.kind, "fn" | "const" | "static"))
        .map(|item| item.name.to_string())
        .collect();
    for (_, cf) in files {
        let mut tree: Option<String> = None;
        for (i, line) in cf.code.iter().enumerate() {
            let line = line.trim_start();
            if tree.is_none() && cf.is_production(i + 1) {
                tree = line.strip_prefix("pub use ").map(|_| String::new());
            }
            let Some(text) = tree.as_mut() else {
                continue;
            };
            let line = line.strip_prefix("pub use ").unwrap_or(line);
            let (head, done) = line
                .split_once(';')
                .map_or((line, false), |(head, _)| (head, true));
            text.push_str(head);
            text.push(' ');
            if done {
                for name in use_bindings(text) {
                    names.insert(name.to_string());
                    scopes.insert(name.to_string());
                }
                tree = None;
            }
        }
    }
    (names, scopes)
}

/// The names a path takes, each marked when a `::` follows it.
type Names<'a> = Vec<(&'a str, bool)>;

/// Each `fiting_…::` path in `text`: its byte offset, the crate, and the
/// names it takes (every segment and brace-group member, not `self` or
/// an `as` alias).
fn fiting_paths(text: &str) -> Vec<(usize, &str, Names<'_>)> {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut paths = Vec::new();
    for (at, _) in text.match_indices("fiting_") {
        if text[..at].ends_with(ident) {
            continue;
        }
        let krate_len = text[at..]
            .find(|c: char| !ident(c))
            .unwrap_or(text.len() - at);
        let Some(rest) = text[at + krate_len..].strip_prefix("::") else {
            continue;
        };
        let (mut names, mut depth, mut alias) = (Vec::new(), 0usize, false);
        let mut i = 0;
        while let Some(c) = rest[i..].chars().next() {
            if ident(c) {
                let len = rest[i..]
                    .find(|c: char| !ident(c))
                    .unwrap_or(rest.len() - i);
                let word = &rest[i..i + len];
                if !alias && word != "as" && word != "self" {
                    names.push((word, rest[i + len..].starts_with("::")));
                }
                alias = word == "as";
                i += len;
                continue;
            }
            match c {
                ':' => {}
                '{' => depth += 1,
                '}' if depth > 0 => depth -= 1,
                ',' | '*' | ' ' | '\n' if depth > 0 => {}
                _ => break,
            }
            i += c.len_utf8();
        }
        paths.push((at, &text[at..at + krate_len], names));
    }
    paths
}

/// The `e2e-import` rule over `files`, with `members` as (package name,
/// directory): every name an `e2e/src` path takes from a workspace crate
/// must still be one that crate declares `pub` or re-exports.
#[must_use]
pub(crate) fn check_e2e_imports(
    files: &[(String, String)],
    members: &[(String, String)],
) -> Vec<Finding> {
    let lexed = lex(files);
    let exported: HashMap<String, _> = members
        .iter()
        .map(|(name, dir)| (name.replace('-', "_"), exports(&lexed, dir)))
        .collect();
    let mut findings = Vec::new();
    for (path, cf) in lexed.iter().filter(|(p, _)| p.starts_with("e2e/src/")) {
        let text = cf.code.join("\n");
        for (at, krate, names) in fiting_paths(&text) {
            let Some((known, scopes)) = exported.get(krate) else {
                continue;
            };
            let missing = names
                .into_iter()
                .filter(|&(name, scope)| !(if scope { scopes } else { known }).contains(name));
            for (name, _) in missing {
                findings.push(Finding {
                    file: (*path).to_string(),
                    line: text[..at].matches('\n').count() + 1,
                    rule: "e2e-import",
                    message: format!(
                        "`e2e` takes `{name}` from `{krate}`, which no longer declares or \
                         re-exports it `pub`; keep the name (`e2e/` changes only in a \
                         `benchmark` issue)"
                    ),
                });
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn files(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|&(p, s)| (p.to_string(), s.to_string()))
            .collect()
    }

    fn plr() -> Vec<(String, String)> {
        vec![("fiting-plr".to_string(), "crates/plr".to_string())]
    }

    #[test]
    fn pub_item_reads_the_declared_name_only() {
        assert_eq!(
            pub_item("    pub const fn len(&self) -> usize {"),
            Some(("fn", "len"))
        );
        assert_eq!(pub_item("pub const MAX: u8 = 1;"), Some(("const", "MAX")));
        assert_eq!(pub_item("pub unsafe fn raw() {}"), Some(("fn", "raw")));
        assert_eq!(pub_item("pub struct Tree<K> {"), Some(("struct", "Tree")));
        assert_eq!(pub_item("pub mod cost;"), Some(("mod", "cost")));
        for none in [
            "pub(crate) fn f() {}",
            "pub use a::B;",
            "    pub field: u8,",
            "fn f() {}",
        ] {
            assert_eq!(pub_item(none), None, "{none}");
        }
    }

    #[test]
    fn a_pub_fn_nothing_else_names_is_unnamed() {
        let ws = files(&[
            ("crates/plr/src/lib.rs", "pub fn used() {}\npub fn orphan() {}\n#[cfg(test)]\nmod tests {\n    pub fn helper() {}\n}\n"),
            ("crates/core/src/lib.rs", "fn f() { fiting_plr::used(); }\n"),
        ]);
        let rows = surface(&ws, &plr());
        assert_eq!(rows[0].items, 2, "the #[cfg(test)] item is not surface");
        assert_eq!(rows[0].unnamed, ["crates/plr/src/lib.rs:2 orphan"]);
    }

    #[test]
    fn a_name_only_the_crates_own_tests_use_is_unnamed() {
        let ws = files(&[
            (
                "crates/plr/src/lib.rs",
                "/// ```\n/// fiting_plr::probe();\n/// ```\npub fn probe() {}\n",
            ),
            (
                "crates/plr/tests/properties.rs",
                "fn t() { fiting_plr::probe(); }\n",
            ),
        ]);
        assert_eq!(
            surface(&ws, &plr())[0].unnamed,
            ["crates/plr/src/lib.rs:4 probe"]
        );
    }

    #[test]
    fn a_name_e2e_imports_is_named() {
        let ws = files(&[
            ("crates/plr/src/lib.rs", "pub struct ShrinkingCone;\n"),
            (
                "e2e/src/trace.rs",
                "use fiting_plr::{\n    ShrinkingCone,\n};\n",
            ),
        ]);
        let rows = surface(&ws, &plr());
        assert_eq!((rows[0].items, rows[0].unnamed.len()), (1, 0));
    }

    #[test]
    fn a_pub_method_of_a_crate_private_type_is_not_surface() {
        let ws = files(&[(
            "crates/plr/src/lib.rs",
            "pub(crate) struct Node<K>(K);\nimpl<K: Ord> Node<K> {\n    pub fn len(&self) {}\n}\n\
             pub struct Tree;\nimpl Tree {\n    pub fn height(&self) {}\n}\n",
        )]);
        let rows = surface(&ws, &plr());
        assert_eq!(
            rows[0].unnamed,
            [
                "crates/plr/src/lib.rs:5 Tree",
                "crates/plr/src/lib.rs:7 height"
            ]
        );
    }

    #[test]
    fn a_pub_use_binds_its_leaves_not_its_path() {
        assert_eq!(
            use_bindings("a::{b as c, d::{self, e}, f::*} "),
            ["c", "d", "e"]
        );
        assert_eq!(use_bindings("wal::Wal "), ["Wal"]);
        assert_eq!(impl_target("impl<K> Node<K> {"), Some("<K> Node<K> {"));
        assert_eq!(impl_target("impl fmt::Debug for Tree {"), Some("Tree {"));
        assert_eq!(impl_target("implode();"), None);
    }

    #[test]
    fn an_e2e_import_the_crate_no_longer_exports_is_a_finding() {
        let e2e = (
            "e2e/src/trace.rs",
            "use fiting_plr::{points as pts, Cone};\nfn f() { fiting_plr::Fit::new(); }\n",
        );
        let shipped = [
            (
                "crates/plr/src/lib.rs",
                "mod segment;\npub use segment::{Cone, Fit};\npub fn points() {}\n",
            ),
            (
                "crates/plr/src/segment.rs",
                "pub struct Cone;\npub struct Fit;\nimpl Fit {\n    pub fn new() {}\n}\n",
            ),
            e2e,
        ];

        // Mutation: `points` renamed under e2e's import.
        let mut renamed = shipped;
        renamed[0].1 = "mod segment;\npub use segment::{Cone, Fit};\npub fn point_set() {}\n";
        let f = check_e2e_imports(&files(&renamed), &plr());
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(
            (f[0].file.as_str(), f[0].line, f[0].rule),
            ("e2e/src/trace.rs", 1, "e2e-import")
        );
        assert!(f[0].message.contains("`points`"), "{f:?}");

        // Restoring the name clears it; a renamed type on an inline
        // path fires on that path's line.
        assert!(check_e2e_imports(&files(&shipped), &plr()).is_empty());
        renamed = shipped;
        renamed[0].1 = "mod segment;\npub use segment::{Cone, Fitted};\npub fn points() {}\n";
        renamed[1].1 =
            "pub struct Cone;\npub struct Fitted;\nimpl Fitted {\n    pub fn new() {}\n}\n";
        let f = check_e2e_imports(&files(&renamed), &plr());
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!((f[0].line, f[0].message.contains("`Fit`")), (2, true));

        // A path through a private module is a finding even though the
        // module's name appears in the `pub use` re-exporting from it,
        // or names a `pub fn` too; `pub mod` clears it.
        let mut through = shipped;
        through[2].1 = "use fiting_plr::{points, segment::Cone};\n";
        through[1].1 =
            "pub struct Cone;\npub struct Fit;\nimpl Fit {\n    pub fn segment() {}\n}\n";
        let f = check_e2e_imports(&files(&through), &plr());
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("`segment`"), "{f:?}");
        through[0].1 = "pub mod segment;\npub use segment::{Cone, Fit};\npub fn points() {}\n";
        assert!(check_e2e_imports(&files(&through), &plr()).is_empty());
    }
}
