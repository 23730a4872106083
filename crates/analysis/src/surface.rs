//! The public-surface budget `fiting-check --lines` prints beside the
//! line count.
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

use crate::lexer::{clean, CleanFile};
use std::collections::HashSet;

/// The crates whose `pub` items `--lines` counts: the product, not the
/// facade, the bench and checker tools, or the compat stand-ins.
pub(crate) const PRODUCT_CRATES: [&str; 9] = [
    "fiting-index-api",
    "fiting-index-service",
    "fiting-plr",
    "fiting-btree",
    "fiting-tree",
    "fiting-storage",
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

/// The identifier a line declares `pub`: `pub const fn len(` → `len`.
/// `pub(crate)`, `pub use` and fields declare none.
fn pub_item(line: &str) -> Option<&str> {
    let mut rest = words(line.trim_start().strip_prefix("pub ")?).peekable();
    while let Some(word) = rest.next() {
        if ITEM_KINDS.contains(&word) && !rest.peek().is_some_and(|w| ITEM_KINDS.contains(w)) {
            return rest.next();
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
    let public: HashSet<&str> = production().filter_map(pub_item).collect();
    production()
        .filter_map(private_type)
        .filter(|ty| !public.contains(ty))
        .collect()
}

/// One `pub` item: where it is declared and its name.
struct Item<'a> {
    path: &'a str,
    line: usize,
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
        if let Some(name) = pub_item(line).filter(|_| !hidden && cf.is_production(i + 1)) {
            items.push(Item {
                path,
                line: i + 1,
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

/// The surface row of each `(package name, directory)` in `crates`, in
/// order, over `files`: every workspace `.rs` file as (root-relative
/// path, source).
#[must_use]
pub(crate) fn surface(files: &[(String, String)], crates: &[(String, String)]) -> Vec<Surface> {
    let lexed: Vec<_> = files.iter().map(|(p, s)| (p.as_str(), clean(s))).collect();
    let mut rows = Vec::new();
    for (_, dir) in crates {
        let (own, others): (Vec<_>, Vec<_>) = lexed
            .iter()
            .map(|(path, cf)| (*path, cf))
            .partition(|(path, _)| path.starts_with(&format!("{dir}/")));
        let named: HashSet<&str> = others
            .iter()
            .flat_map(|(_, cf)| cf.code.iter().flat_map(|line| words(line)))
            .collect();
        // Every `pub` item the crate offers: not under `#[cfg(test)]`,
        // not a method of a private type.
        let private = private_types(&own);
        let items: Vec<_> = own
            .iter()
            .flat_map(|&(path, cf)| pub_items(path, cf, &private))
            .collect();
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
            Some("len")
        );
        assert_eq!(pub_item("pub const MAX: u8 = 1;"), Some("MAX"));
        assert_eq!(pub_item("pub unsafe fn raw() {}"), Some("raw"));
        assert_eq!(pub_item("pub struct Tree<K> {"), Some("Tree"));
        assert_eq!(pub_item("pub mod cost;"), Some("cost"));
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
        assert_eq!(impl_target("impl<K> Node<K> {"), Some("<K> Node<K> {"));
        assert_eq!(impl_target("impl fmt::Debug for Tree {"), Some("Tree {"));
        assert_eq!(impl_target("implode();"), None);
    }
}
