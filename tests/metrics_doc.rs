//! `docs/METRICS.md` is the vocabulary of `common::obs`: every span and
//! counter the product emits has a row there — kind, layer, meaning — and
//! every row an emitter. The hooks are found by scanning `crates/*/src`
//! for `obs::span("…")` / `obs::counter("…")` outside comments and test
//! modules; a hook whose name is not a string literal fails the scan, so
//! the table cannot fall behind the code unnoticed.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// `(kind, name, layer)`: `("span", "lift", "core")`.
type Entry = (String, String, String);

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Every hook in the non-test, non-comment part of `source`.
fn hooks(source: &str, layer: &str, file: &Path, out: &mut BTreeSet<Entry>) {
    let code: String = source
        .lines()
        .take_while(|l| !l.contains("#[cfg(test)]"))
        .filter(|l| !l.trim_start().starts_with("//"))
        .collect::<Vec<_>>()
        .join("\n");
    for kind in ["span", "counter"] {
        let call = format!("obs::{kind}(");
        for (at, _) in code.match_indices(&call) {
            let arg = code[at + call.len()..].trim_start();
            let name = arg.strip_prefix('"').and_then(|rest| rest.split_once('"')).map(|(n, _)| n);
            let name = name.unwrap_or_else(|| {
                panic!("{}: the name of an obs::{kind} hook is not a literal", file.display())
            });
            out.insert((kind.to_string(), name.to_string(), layer.to_string()));
        }
    }
}

fn emitted() -> BTreeSet<Entry> {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut out = BTreeSet::new();
    for krate in std::fs::read_dir(crates).unwrap() {
        let krate = krate.unwrap().path();
        let layer = krate.file_name().unwrap().to_str().unwrap().to_string();
        let mut files = Vec::new();
        rust_files(&krate.join("src"), &mut files);
        for file in files {
            hooks(&std::fs::read_to_string(&file).unwrap(), &layer, &file, &mut out);
        }
    }
    out
}

/// The rows of the two tables: `` | `name` | layer | meaning | `` under
/// `## Spans` and `## Counters`.
fn documented() -> BTreeSet<Entry> {
    let doc = include_str!("../docs/METRICS.md");
    let mut kind = "";
    let mut out = BTreeSet::new();
    for line in doc.lines() {
        match line {
            "## Spans" => kind = "span",
            "## Counters" => kind = "counter",
            _ => {}
        }
        let cells: Vec<&str> = line.split('|').map(str::trim).collect();
        if let [_, name, layer, meaning, _] = cells[..] {
            if let Some(name) = name.strip_prefix('`').and_then(|n| n.strip_suffix('`')) {
                assert!(!kind.is_empty(), "row `{name}` sits above both tables");
                assert!(meaning.len() > 10, "row `{name}` does not say what it means");
                let fresh = out.insert((kind.to_string(), name.to_string(), layer.to_string()));
                assert!(fresh, "row `{name}` is listed twice");
            }
        }
    }
    out
}

#[test]
fn every_obs_name_is_documented_and_every_row_has_an_emitter() {
    let (emitted, documented) = (emitted(), documented());
    assert!(emitted.len() > 50, "the scan found only {} hooks", emitted.len());
    let missing: Vec<_> = emitted.difference(&documented).collect();
    let stale: Vec<_> = documented.difference(&emitted).collect();
    assert!(
        missing.is_empty() && stale.is_empty(),
        "docs/METRICS.md is out of step with the code\n  emitted, not documented (kind, name, \
         layer): {missing:?}\n  documented, not emitted: {stale:?}"
    );
}
