//! A deliberately small Rust "lexer": just enough source understanding
//! for line-oriented rule checking, with no syntax tree.
//!
//! [`clean`] walks the file once, character by character, and produces
//! a [`CleanFile`]: the source with every comment and every string /
//! char / raw-string literal blanked to spaces (so token searches never
//! match inside them), plus the comment text per line (so rules can
//! look for justification comments), function spans (brace-matched from
//! each `fn` keyword), and the line ranges covered by `#[cfg(test)]`
//! items (so rules can scope themselves to production code).
//!
//! Known approximations, acceptable for a rule checker that reviewers
//! back up: `macro_rules!` bodies are scanned like ordinary code, and a
//! `#[cfg(test)]` on an `impl` block hides the whole block.

/// One function's location: the line of its `fn` keyword and the
/// brace-matched body span (inclusive line range).
#[derive(Debug, Clone)]
pub struct FnSpan {
    /// Line (1-based) holding the `fn` keyword.
    pub decl_line: usize,
    /// First line of the body block.
    pub body_start: usize,
    /// Last line of the body block.
    pub body_end: usize,
}

/// The lexed view of one source file. All line numbers are 1-based.
#[derive(Debug)]
pub struct CleanFile {
    /// Source lines with comments and literal contents blanked to
    /// spaces; token searches on these never match inside a string or
    /// comment. Line count and column positions match the original.
    pub code: Vec<String>,
    /// Concatenated comment text per line (`//` and `/* */` content).
    pub comments: Vec<String>,
    /// Every function body found, in source order.
    pub fns: Vec<FnSpan>,
    /// `in_test[line - 1]` marks lines inside a `#[cfg(test)]` item.
    pub in_test: Vec<bool>,
}

impl CleanFile {
    /// The innermost function span containing `line`, if any.
    #[must_use]
    pub fn enclosing_fn(&self, line: usize) -> Option<&FnSpan> {
        self.fns
            .iter()
            .filter(|f| f.decl_line <= line && line <= f.body_end)
            .min_by_key(|f| f.body_end - f.decl_line)
    }

    /// Whether `line` is production code (not under `#[cfg(test)]`).
    #[must_use]
    pub fn is_production(&self, line: usize) -> bool {
        !self.in_test.get(line - 1).copied().unwrap_or(false)
    }
}

#[derive(PartialEq, Eq, Clone, Copy)]
enum Mode {
    Code,
    LineComment,
    BlockComment,
    Str,
    RawStr,
    Char,
}

/// Lexes `source` into its [`CleanFile`] view.
#[must_use]
pub fn clean(source: &str) -> CleanFile {
    let line_count = source.lines().count();
    let mut code: Vec<String> = Vec::with_capacity(line_count);
    let mut comments: Vec<String> = vec![String::new(); line_count.max(1)];
    let mut cur = String::new();

    let chars: Vec<char> = source.chars().collect();
    let mut i = 0;
    let mut line = 0usize; // 0-based while scanning
    let mut mode = Mode::Code;
    let mut block_depth = 0usize; // block comments nest in Rust
    let mut raw_hashes = 0usize;

    let push_line = |code: &mut Vec<String>, cur: &mut String| {
        code.push(std::mem::take(cur));
    };

    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        if c == '\n' {
            push_line(&mut code, &mut cur);
            line += 1;
            if mode == Mode::LineComment {
                mode = Mode::Code;
            }
            i += 1;
            continue;
        }
        match mode {
            Mode::Code => match c {
                '/' if next == Some('/') => {
                    mode = Mode::LineComment;
                    cur.push_str("  ");
                    i += 2;
                }
                '/' if next == Some('*') => {
                    mode = Mode::BlockComment;
                    block_depth = 1;
                    cur.push_str("  ");
                    i += 2;
                }
                '"' => {
                    // Keep the delimiter so `"..."` stays one token wide.
                    mode = Mode::Str;
                    cur.push('"');
                    i += 1;
                }
                'r' | 'b' => {
                    // Possible raw / byte-string prefix: r", r#", br"…
                    let mut j = i + 1;
                    if c == 'b' && chars.get(j) == Some(&'r') {
                        j += 1;
                    }
                    let mut hashes = 0;
                    while chars.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if chars.get(j) == Some(&'"') && (c == 'r' || chars.get(i + 1) != Some(&'"')) {
                        raw_hashes = hashes;
                        mode = Mode::RawStr;
                        for _ in i..=j {
                            cur.push(' ');
                        }
                        i = j + 1;
                    } else if c == 'b' && chars.get(i + 1) == Some(&'"') {
                        mode = Mode::Str;
                        cur.push_str(" \"");
                        i += 2;
                    } else {
                        cur.push(c);
                        i += 1;
                    }
                }
                '\'' => {
                    // Char literal vs. lifetime: a char closes within a
                    // couple of characters; a lifetime never closes.
                    let is_char = match next {
                        Some('\\') => true,
                        Some(_) => chars.get(i + 2) == Some(&'\''),
                        None => false,
                    };
                    if is_char {
                        mode = Mode::Char;
                        cur.push('\'');
                        i += 1;
                    } else {
                        cur.push('\'');
                        i += 1;
                    }
                }
                _ => {
                    cur.push(c);
                    i += 1;
                }
            },
            Mode::LineComment => {
                comments[line].push(c);
                cur.push(' ');
                i += 1;
            }
            Mode::BlockComment => {
                if c == '/' && next == Some('*') {
                    block_depth += 1;
                    cur.push_str("  ");
                    i += 2;
                } else if c == '*' && next == Some('/') {
                    block_depth -= 1;
                    cur.push_str("  ");
                    i += 2;
                    if block_depth == 0 {
                        mode = Mode::Code;
                    }
                } else {
                    comments[line].push(c);
                    cur.push(' ');
                    i += 1;
                }
            }
            Mode::Str => {
                if c == '\\' {
                    cur.push_str("  ");
                    i += 2;
                } else if c == '"' {
                    cur.push('"');
                    mode = Mode::Code;
                    i += 1;
                } else {
                    cur.push(' ');
                    i += 1;
                }
            }
            Mode::RawStr => {
                if c == '"' {
                    let mut ok = true;
                    for k in 0..raw_hashes {
                        if chars.get(i + 1 + k) != Some(&'#') {
                            ok = false;
                            break;
                        }
                    }
                    if ok {
                        for _ in 0..=raw_hashes {
                            cur.push(' ');
                        }
                        i += 1 + raw_hashes;
                        mode = Mode::Code;
                        continue;
                    }
                }
                cur.push(' ');
                i += 1;
            }
            Mode::Char => {
                if c == '\\' {
                    cur.push_str("  ");
                    i += 2;
                } else if c == '\'' {
                    cur.push('\'');
                    mode = Mode::Code;
                    i += 1;
                } else {
                    cur.push(' ');
                    i += 1;
                }
            }
        }
    }
    push_line(&mut code, &mut cur);
    while code.len() < comments.len() {
        code.push(String::new());
    }
    while comments.len() < code.len() {
        comments.push(String::new());
    }

    let fns = find_fns(&code);
    let in_test = find_test_regions(&code);
    CleanFile {
        code,
        comments,
        fns,
        in_test,
    }
}

/// Whether `code[pos..]` starts the identifier `word` on a word
/// boundary on both sides.
fn word_at(code: &str, pos: usize, word: &str) -> bool {
    if !code[pos..].starts_with(word) {
        return false;
    }
    let before_ok = pos == 0
        || !code[..pos]
            .chars()
            .next_back()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
    let after = code[pos + word.len()..].chars().next();
    before_ok && !after.is_some_and(|c| c.is_alphanumeric() || c == '_')
}

/// Finds `word` in `line` at a word boundary; returns the byte offset.
#[must_use]
pub fn find_word(line: &str, word: &str) -> Option<usize> {
    let mut from = 0;
    while let Some(rel) = line[from..].find(word) {
        let pos = from + rel;
        if word_at(line, pos, word) {
            return Some(pos);
        }
        from = pos + word.len();
    }
    None
}

/// Brace-matches every `fn` body in the cleaned code.
fn find_fns(code: &[String]) -> Vec<FnSpan> {
    let mut fns = Vec::new();
    let mut open: Vec<(usize, usize, isize)> = Vec::new(); // (decl, start, depth)
    let mut depth = 0isize;
    let mut awaiting: Option<usize> = None; // decl line seen, body `{` not yet
    for (ln0, line) in code.iter().enumerate() {
        let bytes = line.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            let c = bytes[i] as char;
            if c == 'f' && word_at(line, i, "fn") {
                awaiting = Some(ln0 + 1);
                i += 2;
                continue;
            }
            if c == ';' {
                // `fn ...;` — a trait method signature, no body.
                awaiting = None;
            } else if c == '{' {
                if let Some(decl) = awaiting.take() {
                    open.push((decl, ln0 + 1, depth));
                }
                depth += 1;
            } else if c == '}' {
                depth -= 1;
                if let Some(&(decl, start, d)) = open.last() {
                    if depth == d {
                        fns.push(FnSpan {
                            decl_line: decl,
                            body_start: start,
                            body_end: ln0 + 1,
                        });
                        open.pop();
                    }
                }
            }
            i += 1;
        }
    }
    fns.sort_by_key(|f| f.decl_line);
    fns
}

/// Marks the lines of every item annotated `#[cfg(test)]` (through the
/// end of its brace-matched block, or its `;` for a `use`, `const` or
/// `mod x;`).
fn find_test_regions(code: &[String]) -> Vec<bool> {
    let mut in_test = vec![false; code.len()];
    let mut pending_attr = false;
    let mut region_depth: Option<isize> = None;
    let mut depth = 0isize;
    let mut nest = 0isize; // `(` / `[` depth since the attribute
    for (ln0, line) in code.iter().enumerate() {
        if line.contains("#[cfg(test)]") {
            pending_attr = true;
            nest = 0;
        }
        for c in line.chars() {
            match c {
                '(' | '[' => nest += 1,
                ')' | ']' => nest -= 1,
                ';' if pending_attr && nest == 0 => {
                    pending_attr = false;
                    in_test[ln0] = true;
                }
                _ => {}
            }
            if c == '{' {
                if pending_attr && region_depth.is_none() {
                    region_depth = Some(depth);
                    pending_attr = false;
                }
                depth += 1;
            } else if c == '}' {
                depth -= 1;
                if region_depth == Some(depth) {
                    region_depth = None;
                    in_test[ln0] = true;
                }
            }
        }
        if region_depth.is_some() || pending_attr || line.contains("#[cfg(test)]") {
            in_test[ln0] = true;
        }
    }
    in_test
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blanks_strings_and_comments() {
        let f = clean("let x = \"unwrap() inside\"; // .expect(\"no\")\nlet c = 'a';\n");
        assert!(!f.code[0].contains("unwrap"));
        assert!(!f.code[0].contains("expect"));
        assert!(f.comments[0].contains(".expect("));
        assert!(f.code[1].contains("let c ="));
    }

    #[test]
    fn raw_strings_and_lifetimes() {
        let f = clean("fn f<'a>(x: &'a str) { let r = r#\"panic!()\"#; }\n");
        assert!(!f.code[0].contains("panic"));
        assert!(f.code[0].contains("fn f<'a>"));
        assert_eq!(f.fns.len(), 1);
    }

    #[test]
    fn fn_spans_cover_bodies() {
        let src = "fn a() {\n    let x = 1;\n}\nfn b() { }\n";
        let f = clean(src);
        assert_eq!(f.fns.len(), 2);
        assert_eq!((f.fns[0].decl_line, f.fns[0].body_end), (1, 3));
        assert_eq!((f.fns[1].decl_line, f.fns[1].body_end), (4, 4));
        assert!(f.enclosing_fn(2).is_some());
        assert!(f.enclosing_fn(2).unwrap().decl_line == 1);
    }

    #[test]
    fn cfg_test_regions() {
        let src = "fn prod() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn prod2() {}\n";
        let f = clean(src);
        assert!(f.is_production(1));
        assert!(!f.is_production(4));
        assert!(f.is_production(6));

        // A brace-less item ends at its `;`, not at the next item's body.
        let src =
            "#[cfg(test)]\nuse a::B;\n#[cfg(test)]\nconst N: [u8; 2] = [0; 2];\nfn prod() {}\n";
        let f = clean(src);
        assert!(!f.is_production(2) && !f.is_production(4));
        assert!(f.is_production(5));
    }

    #[test]
    fn nested_block_comments() {
        let f = clean("/* a /* b */ still comment */ fn x() {}\n");
        assert_eq!(f.fns.len(), 1);
        assert!(f.comments[0].contains("still comment"));
    }
}
