//! The docs describe the tree as it is: every backticked `*.rs` path in
//! DESIGN.md and README.md names a file that exists, every backticked
//! `exp_*` binary and `BENCH_*.json` record names one that exists, every
//! backticked `Type::item` names a type declared in the workspace that
//! has that member, and README's flag table lists exactly the flags
//! `pdtune help` prints. A change that deletes or renames a file, a
//! binary, a record, a type, a member or a flag without updating the
//! docs fails here.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::process::Command;

const ROOT: &str = env!("CARGO_MANIFEST_DIR");

fn read_doc(name: &str) -> String {
    std::fs::read_to_string(Path::new(ROOT).join(name))
        .unwrap_or_else(|e| panic!("reading {name}: {e}"))
}

/// Every `.rs` file under the repository root, as a `/`-separated path
/// relative to it. Build output and hidden directories are skipped.
fn source_files() -> Vec<String> {
    fn walk(dir: &Path, rel: &str, out: &mut Vec<String>) {
        let entries = std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
        for entry in entries {
            let entry = entry.unwrap();
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.starts_with('.') || (rel.is_empty() && name == "target") {
                continue;
            }
            let path = if rel.is_empty() {
                name.clone()
            } else {
                format!("{rel}/{name}")
            };
            let file_type = entry.file_type().unwrap();
            if file_type.is_dir() {
                walk(&entry.path(), &path, out);
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    let mut out = Vec::new();
    walk(Path::new(ROOT), "", &mut out);
    out
}

/// Every backticked span of `doc`, read line by line, outside fenced
/// code blocks.
fn spans(doc: &str) -> Vec<&str> {
    let mut fenced = false;
    let mut out = Vec::new();
    for line in doc.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
            continue;
        }
        if !fenced {
            out.extend(line.split('`').skip(1).step_by(2));
        }
    }
    out
}

/// The contents of every backticked span that names a `.rs` file, with
/// any `:line` suffix stripped.
fn rs_refs(doc: &str) -> Vec<String> {
    spans(doc)
        .into_iter()
        .map(|span| span.split(':').next().unwrap_or(span))
        .filter(|path| path.ends_with(".rs") && !path.contains(char::is_whitespace))
        .map(str::to_string)
        .collect()
}

/// `(Type, item)` of every backticked span that starts with
/// `Type::item` (a capitalised type name); what follows — an argument
/// list, a type ascription — is ignored.
fn member_refs(doc: &str) -> Vec<(String, String)> {
    let ident = |s: &str| -> String {
        s.chars()
            .take_while(|c| *c == '_' || c.is_ascii_alphanumeric())
            .collect()
    };
    spans(doc)
        .into_iter()
        .filter_map(|span| {
            let (ty, rest) = span.split_once("::")?;
            let item = ident(rest);
            let is_type = ty.starts_with(|c: char| c.is_ascii_uppercase()) && ident(ty) == ty;
            (is_type && !item.is_empty()).then(|| (ty.to_string(), item))
        })
        .collect()
}

/// `src` as tokens: identifiers and single punctuation characters, with
/// comments, string and char literals, and lifetimes dropped. `::` is
/// one token, so a lone `:` marks a field.
fn tokens(src: &str) -> Vec<String> {
    let chars: Vec<char> = src.chars().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        if c == '/' && next == Some('/') {
            while i < chars.len() && chars[i] != '\n' {
                i += 1;
            }
        } else if c == '/' && next == Some('*') {
            i += 2;
            while i + 1 < chars.len() && !(chars[i] == '*' && chars[i + 1] == '/') {
                i += 1;
            }
            i += 2;
        } else if c == '"' || (c == 'r' && matches!(next, Some('"' | '#'))) {
            // A (raw) string literal: skip to its closing quote and hashes.
            let raw = c == 'r';
            i += usize::from(raw);
            let hashes = chars[i..].iter().take_while(|c| **c == '#').count();
            i += hashes + 1;
            while i < chars.len() {
                if !raw && chars[i] == '\\' {
                    i += 2;
                } else if chars[i] == '"'
                    && chars[i + 1..].iter().take(hashes).all(|c| *c == '#')
                    && chars.len() > i + hashes
                {
                    i += hashes + 1;
                    break;
                } else {
                    i += 1;
                }
            }
        } else if c == '\'' {
            // A char literal ('x', '\n', '\u{..}') or a lifetime ('a).
            // An escape's first character may itself be a quote.
            let from = if next == Some('\\') { i + 3 } else { i + 2 };
            let close = (from..chars.len().min(i + 12)).find(|&j| chars[j] == '\'');
            match close {
                Some(j) if next == Some('\\') || j == i + 2 => i = j + 1,
                _ => {
                    i += 1;
                    while i < chars.len() && (chars[i] == '_' || chars[i].is_alphanumeric()) {
                        i += 1;
                    }
                }
            }
        } else if c == '_' || c.is_alphabetic() {
            let start = i;
            while i < chars.len() && (chars[i] == '_' || chars[i].is_alphanumeric()) {
                i += 1;
            }
            out.push(chars[start..i].iter().collect());
        } else if c == ':' && next == Some(':') {
            out.push("::".to_string());
            i += 2;
        } else {
            if !c.is_whitespace() {
                out.push(c.to_string());
            }
            i += 1;
        }
    }
    out
}

/// What a `{` block declares members of: a struct's or union's fields,
/// an enum's variants, or the items of an `impl` or a trait.
#[derive(Clone, Copy, PartialEq)]
enum Body {
    Fields,
    Variants,
    Items,
}

/// Every type declared in the workspace's sources, with its members:
/// a struct's fields, an enum's variants, and the `fn`s, `const`s and
/// associated `type`s of its `impl` blocks (trait impls included) and,
/// for a trait, of its own body. Members of nested blocks (a `fn`
/// inside a method body) do not count.
fn declared_members(files: &[String]) -> BTreeMap<String, BTreeSet<String>> {
    let mut types: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for file in files {
        let src = std::fs::read_to_string(Path::new(ROOT).join(file)).unwrap();
        let toks = tokens(&src);
        // Open `{` blocks: the type a block declares members of, or
        // `None`.
        let mut blocks: Vec<Option<(String, Body)>> = Vec::new();
        let mut pending: Option<(String, Body)> = None;
        // `(`/`[` depth inside the innermost block, and inside each
        // enclosing one where it opened.
        let (mut nest, mut outer_nest) = (0usize, Vec::new());
        let mut i = 0;
        while i < toks.len() {
            let t = toks[i].as_str();
            let owner = blocks.last().cloned().flatten();
            match t {
                "struct" | "enum" | "union" | "trait" => {
                    if let Some(name) = toks.get(i + 1) {
                        types.entry(name.clone()).or_default();
                        let body = match t {
                            "enum" => Body::Variants,
                            "trait" => Body::Items,
                            _ => Body::Fields,
                        };
                        pending = Some((name.clone(), body));
                    }
                }
                // An `impl` block, not `impl Trait` in a signature.
                "impl"
                    if i == 0
                        || matches!(toks[i - 1].as_str(), "}" | ";" | "]" | "{" | "unsafe") =>
                {
                    // The implemented type: the last path segment before
                    // its generics or the block, after `for` if present.
                    let mut j = i + 1;
                    let mut angle = 0i32;
                    let mut name = None;
                    while j < toks.len() && !(angle == 0 && (toks[j] == "{" || toks[j] == "where"))
                    {
                        match toks[j].as_str() {
                            "<" => angle += 1,
                            ">" if toks[j - 1] != "-" => angle -= 1,
                            "for" if angle == 0 => name = None,
                            s if angle == 0
                                && s.starts_with(|c: char| c.is_alphabetic())
                                && (name.is_none() || toks[j - 1] == "::") =>
                            {
                                name = Some(s.to_string());
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                    pending = name.map(|n| (n, Body::Items));
                    i = j;
                    continue;
                }
                ";" if nest == 0 => pending = None,
                "{" => {
                    blocks.push(pending.take());
                    outer_nest.push(std::mem::take(&mut nest));
                }
                "}" => {
                    blocks.pop();
                    nest = outer_nest.pop().unwrap_or(0);
                }
                "(" | "[" => nest += 1,
                ")" | "]" => nest = nest.saturating_sub(1),
                _ => {}
            }
            if let (Some((ty, body)), true) = (owner, nest == 0) {
                let next = toks.get(i + 1).map(String::as_str);
                let prev = toks[i - 1].as_str();
                let is_ident = t.starts_with(|c: char| c == '_' || c.is_alphabetic());
                let member = match body {
                    Body::Items if matches!(t, "fn" | "const" | "type") => next,
                    // `name: T`
                    Body::Fields if is_ident && next == Some(":") => Some(t),
                    // `Name`, `Name { .. }`, `Name(..)`, `Name = 3`, each
                    // after the `{`, a `,` or an attribute.
                    Body::Variants if is_ident && matches!(prev, "{" | "," | "]") => Some(t),
                    _ => None,
                };
                if let Some(m) = member {
                    types.entry(ty).or_default().insert(m.to_string());
                }
            }
            i += 1;
        }
    }
    types
}

#[test]
fn every_backticked_member_names_a_declared_member() {
    let members = declared_members(&source_files());
    let has = |ty: &str, item: &str| members.get(ty).is_some_and(|m| m.contains(item));
    assert!(
        has("CostCache", "insert") && has("Reference", "Costs") && has("SessionCtl", "reference"),
        "the member scan missed a method, a variant or a field"
    );
    // A local of a method body (`drain_through`'s) is not a member.
    assert!(
        !has("CostCache", "sealed"),
        "the member scan reads method bodies"
    );
    let mut stale = Vec::new();
    let mut checked = 0;
    for doc in ["DESIGN.md", "README.md"] {
        for (ty, item) in member_refs(&read_doc(doc)) {
            checked += 1;
            if !members.contains_key(&ty) {
                stale.push(format!("{doc}: `{ty}::{item}` — no type `{ty}`"));
            } else if !has(&ty, &item) {
                stale.push(format!("{doc}: `{ty}::{item}` — `{ty}` has no `{item}`"));
            }
        }
    }
    assert!(checked > 50, "only {checked} `Type::item` references found");
    assert!(
        stale.is_empty(),
        "stale member references:\n{}",
        stale.join("\n")
    );
}

#[test]
fn every_backticked_rs_path_names_a_file() {
    let files = source_files();
    assert!(
        files.iter().any(|f| f == "crates/core/src/search.rs"),
        "the tree walk found no sources"
    );
    let mut stale = Vec::new();
    for doc in ["DESIGN.md", "README.md"] {
        let refs = rs_refs(&read_doc(doc));
        assert!(!refs.is_empty(), "{doc} names no .rs file");
        for r in refs {
            let suffix = format!("/{r}");
            if !files.iter().any(|f| *f == r || f.ends_with(&suffix)) {
                stale.push(format!("{doc}: `{r}`"));
            }
        }
    }
    assert!(
        stale.is_empty(),
        "stale file references:\n{}",
        stale.join("\n")
    );
}

/// Every word of a backticked span of `doc` that starts with `prefix`,
/// where a word is a run of identifier characters and dots.
fn prefixed_words(doc: &str, prefix: &str) -> Vec<String> {
    spans(doc)
        .into_iter()
        .flat_map(|span| span.split(|c: char| !(c == '_' || c == '.' || c.is_alphanumeric())))
        .filter(|word| word.starts_with(prefix))
        .map(str::to_string)
        .collect()
}

/// The names in `dir` (relative to the repository root).
fn names_in(dir: &str) -> BTreeSet<String> {
    std::fs::read_dir(Path::new(ROOT).join(dir))
        .unwrap_or_else(|e| panic!("{dir}: {e}"))
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .collect()
}

#[test]
fn every_backticked_binary_and_record_exists() {
    let binaries = names_in("crates/bench/src/bin");
    let root = names_in(".");
    assert!(
        binaries.contains("exp_table1.rs"),
        "no experiment binaries found"
    );
    let mut stale = Vec::new();
    let mut binary_refs = 0;
    for doc in ["DESIGN.md", "README.md"] {
        let text = read_doc(doc);
        for word in prefixed_words(&text, "exp_") {
            binary_refs += 1;
            let name = word.strip_suffix(".rs").unwrap_or(&word);
            if !binaries.contains(&format!("{name}.rs")) {
                stale.push(format!(
                    "{doc}: `{name}` — no crates/bench/src/bin/{name}.rs"
                ));
            }
        }
        for name in prefixed_words(&text, "BENCH_") {
            if !name.ends_with(".json") || !root.contains(&name) {
                stale.push(format!(
                    "{doc}: `{name}` — no {name} at the repository root"
                ));
            }
        }
    }
    assert!(binary_refs > 0, "the docs name no experiment binary");
    assert!(
        stale.is_empty(),
        "stale binary and record references:\n{}",
        stale.join("\n")
    );
}

/// The leading `--name` of each line in `text` that starts with one
/// (after `indent`).
fn leading_flags<'a>(lines: impl Iterator<Item = &'a str>, indent: &str) -> BTreeSet<String> {
    lines
        .filter_map(|l| l.strip_prefix(indent))
        .filter(|l| l.starts_with("--"))
        .map(|l| {
            l.chars()
                .take_while(|c| *c == '-' || c.is_ascii_alphanumeric())
                .collect()
        })
        .collect()
}

#[test]
fn readme_flag_table_matches_help() {
    let out = Command::new(env!("CARGO_BIN_EXE_pdtune"))
        .arg("help")
        .output()
        .expect("pdtune runs");
    assert!(out.status.success(), "pdtune help failed");
    let help = String::from_utf8(out.stdout).unwrap();
    let options = help
        .lines()
        .skip_while(|l| *l != "OPTIONS:")
        .skip(1)
        .take_while(|l| !l.is_empty());
    let printed = leading_flags(options, "  ");
    assert!(printed.len() > 10, "no OPTIONS section in `pdtune help`");

    let readme = read_doc("README.md");
    let documented = leading_flags(readme.lines(), "| `");
    let undocumented: Vec<_> = printed.difference(&documented).collect();
    let unknown: Vec<_> = documented.difference(&printed).collect();
    assert!(
        undocumented.is_empty(),
        "flags `pdtune help` prints that README's table lacks: {undocumented:?}"
    );
    assert!(
        unknown.is_empty(),
        "README's table lists flags `pdtune help` does not print: {unknown:?}"
    );
}
