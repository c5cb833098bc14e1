//! The docs describe the tree as it is: every backticked `*.rs` path in
//! DESIGN.md and README.md names a file that exists, and README's flag
//! table lists exactly the flags `pdtune help` prints. A change that
//! deletes or renames a file or a flag without updating the docs fails
//! here.

use std::collections::BTreeSet;
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

/// The contents of every backticked span that names a `.rs` file, with
/// any `:line` suffix stripped. Spans are read line by line, outside
/// fenced code blocks.
fn rs_refs(doc: &str) -> Vec<String> {
    let mut fenced = false;
    let mut refs = Vec::new();
    for line in doc.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
            continue;
        }
        if fenced {
            continue;
        }
        for span in line.split('`').skip(1).step_by(2) {
            let path = span.split(':').next().unwrap_or(span);
            if path.ends_with(".rs") && !path.contains(char::is_whitespace) {
                refs.push(path.to_string());
            }
        }
    }
    refs
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
