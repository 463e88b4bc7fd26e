//! Every result on record names the command that regenerates it.
//!
//! EXPERIMENTS.md tags each experiment with a line of the form
//! ``*binary: `name` · … · output: `results/…`*``. Every file in `results/`
//! must appear in the output part of some tag, every file a tag names must
//! exist, every tag's binary must be a file in `crates/bench/src/bin/`, and
//! every figure or table binary there (`fig*`, `tab*`) must have a tag.
//! The other binaries (`prof_report`, `trace_inspect`) are tools and write
//! no result of record.
//!
//! docs/OBSERVABILITY.md names the API it documents as `` `Type::item` ``;
//! every such name must still be defined under `crates/*/src`.
//!
//! `crates/netsim/src/compat.rs` holds inert names kept only for the
//! `benchmark` package; every item it defines must still be named somewhere
//! under `benchmark/src`.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("tests/ sits in the workspace root").to_path_buf()
}

/// Each tag's binary and the `results/` files its output part names.
fn tags(experiments: &str) -> Vec<(String, Vec<String>)> {
    experiments
        .lines()
        .filter_map(|line| {
            let (binary, rest) = line.strip_prefix("*binary: `")?.split_once('`')?;
            let (_, outputs) = rest.split_once("output:")?;
            let files = outputs
                .split('`')
                .skip(1)
                .step_by(2)
                .filter(|quoted| quoted.starts_with("results/"))
                .map(str::to_string)
                .collect();
            Some((binary.to_string(), files))
        })
        .collect()
}

/// The names of the files in `dir` with the given extension, or of all of
/// them when `ext` is `None`.
fn file_names(dir: &Path, ext: Option<&str>) -> BTreeSet<String> {
    std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| entry.expect("a directory entry").path())
        .filter(|path| path.is_file() && ext.is_none_or(|ext| path.extension().is_some_and(|x| x == ext)))
        .map(|path| {
            let name = if ext.is_some() { path.file_stem() } else { path.file_name() };
            name.expect("a file name").to_string_lossy().into_owned()
        })
        .collect()
}

/// Prefixes of the `results/` files the repository ignores (what a tool
/// writes there, as `/results/prof_kary*`), which no tag has to name.
fn ignored_result_prefixes(gitignore: &str) -> Vec<String> {
    gitignore
        .lines()
        .filter_map(|line| line.trim().strip_prefix("/results/"))
        .map(|pattern| pattern.trim_end_matches('*').to_string())
        .collect()
}

#[test]
fn every_result_names_the_binary_that_regenerates_it() {
    let root = root();
    let experiments = std::fs::read_to_string(root.join("EXPERIMENTS.md")).expect("EXPERIMENTS.md");
    let gitignore = std::fs::read_to_string(root.join(".gitignore")).expect(".gitignore");
    let tags = tags(&experiments);
    let binaries = file_names(&root.join("crates/bench/src/bin"), Some("rs"));

    let mut tagged_binaries = BTreeSet::new();
    let mut tagged_files = BTreeSet::new();
    for (binary, files) in &tags {
        assert!(binaries.contains(binary), "EXPERIMENTS.md tags `{binary}`, which is not in crates/bench/src/bin/");
        assert!(!files.is_empty(), "the tag of `{binary}` names no results/ file");
        for file in files {
            assert!(root.join(file).is_file(), "the tag of `{binary}` names `{file}`, which does not exist");
        }
        tagged_binaries.insert(binary.clone());
        tagged_files.extend(files.iter().cloned());
    }

    let ignored = ignored_result_prefixes(&gitignore);
    for name in file_names(&root.join("results"), None) {
        if ignored.iter().any(|prefix| name.starts_with(prefix.as_str())) {
            continue;
        }
        let file = format!("results/{name}");
        assert!(tagged_files.contains(&file), "`{file}` appears in no EXPERIMENTS.md `*binary: … · output: …*` tag");
    }
    for binary in binaries.iter().filter(|b| b.starts_with("fig") || b.starts_with("tab")) {
        assert!(tagged_binaries.contains(binary), "`{binary}` writes a figure or table but has no EXPERIMENTS.md tag");
    }
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.expect("a directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

/// `line` without a leading `pub`, `pub(…)`, `const`, `unsafe` or `async`.
fn strip_qualifiers(mut line: &str) -> &str {
    loop {
        let rest = if let Some(r) = line.strip_prefix("pub(") {
            r.split_once(") ").map_or(r, |(_, r)| r)
        } else if let Some(r) = ["pub ", "const ", "unsafe ", "async "].iter().find_map(|q| line.strip_prefix(q)) {
            r
        } else {
            return line;
        };
        line = rest;
    }
}

fn leading_ident(s: &str) -> &str {
    let end = s.find(|c: char| !(c.is_alphanumeric() || c == '_')).unwrap_or(s.len());
    &s[..end]
}

/// The type whose items a block-opening line holds: `Foo` of `pub struct
/// Foo {`, `enum Foo {`, `trait Foo {`, `impl<T> Foo<T> {` and `impl Bar
/// for Foo {`.
fn block_owner(line: &str) -> Option<&str> {
    let line = strip_qualifiers(line);
    let rest = match ["struct ", "enum ", "trait "].iter().find_map(|k| line.strip_prefix(k)) {
        Some(rest) => rest,
        None => {
            let mut rest = line.strip_prefix("impl")?;
            if rest.starts_with('<') {
                let mut depth = 0;
                let end = rest.find(|c| {
                    depth += match c {
                        '<' => 1,
                        '>' => -1,
                        _ => 0,
                    };
                    depth == 0
                })?;
                rest = &rest[end + 1..];
            }
            let rest = rest.rsplit_once(" for ").map_or(rest, |(_, ty)| ty).trim_start();
            let path = &rest[..rest.find(['<', ' ', '{']).unwrap_or(rest.len())];
            path.rsplit("::").next()?
        }
    };
    Some(leading_ident(rest)).filter(|name| !name.is_empty())
}

/// The item a line one indent inside a block defines: the name of a
/// `fn`, `type`, `const`, field or enum variant.
fn item_name(line: &str) -> Option<&str> {
    let line = strip_qualifiers(line);
    let line = line.strip_prefix("fn ").or_else(|| line.strip_prefix("type ")).unwrap_or(line);
    let name = leading_ident(line);
    let rest = &line[name.len()..];
    let defines = !rest.starts_with("::") && rest.chars().next().is_none_or(|c| ":,{(< ".contains(c));
    (!name.is_empty() && defines).then_some(name)
}

/// Every `(Type, item)` defined under `crates/*/src`: each `fn`, `type`,
/// `const`, field and variant written one indent inside a `struct`, `enum`,
/// `trait` or `impl` block of `Type`. The scan reads rustfmt's layout: a
/// block's items sit four spaces in and its closing brace at its own indent.
fn defined_items(root: &Path) -> BTreeSet<(String, String)> {
    let mut files = Vec::new();
    for krate in std::fs::read_dir(root.join("crates")).expect("crates/") {
        let src = krate.expect("a directory entry").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    let mut items = BTreeSet::new();
    for file in files {
        let text = std::fs::read_to_string(&file).unwrap_or_else(|e| panic!("{}: {e}", file.display()));
        let mut open: Vec<(usize, &str)> = Vec::new();
        for line in text.lines() {
            let code = line.trim_start();
            let indent = line.len() - code.len();
            if code.starts_with('}') && open.last().is_some_and(|&(at, _)| at == indent) {
                open.pop();
            }
            if let Some(&(at, owner)) = open.last() {
                if indent == at + 4 {
                    if let Some(name) = item_name(code) {
                        items.insert((owner.to_string(), name.to_string()));
                    }
                }
            }
            if code.ends_with('{') {
                if let Some(owner) = block_owner(code) {
                    open.push((indent, owner));
                }
            }
        }
    }
    items
}

/// Every `(Type, item)` a code span outside fenced blocks of `markdown`
/// names as `Type::item` (or `Type::{a, b}`), `Type` capitalised.
fn named_items(markdown: &str) -> BTreeSet<(String, String)> {
    let mut fenced = false;
    let prose: Vec<&str> = markdown
        .lines()
        .filter(|line| {
            fenced ^= line.starts_with("```");
            !fenced && !line.starts_with("```")
        })
        .collect();
    let mut named = BTreeSet::new();
    for span in prose.join("\n").split('`').skip(1).step_by(2) {
        for (at, _) in span.match_indices("::") {
            let before = &span[..at];
            let ty = &before[before.rfind(|c: char| !(c.is_alphanumeric() || c == '_')).map_or(0, |i| i + 1)..];
            if !ty.starts_with(|c: char| c.is_ascii_uppercase()) {
                continue;
            }
            let after = &span[at + 2..];
            let list = match after.strip_prefix('{') {
                Some(list) => list.split('}').next().unwrap_or(""),
                None => leading_ident(after),
            };
            for item in list.split(',').map(str::trim).filter(|item| !item.is_empty()) {
                named.insert((ty.to_string(), item.to_string()));
            }
        }
    }
    named
}

#[test]
fn every_documented_observability_item_is_defined() {
    let root = root();
    let doc = std::fs::read_to_string(root.join("docs/OBSERVABILITY.md")).expect("docs/OBSERVABILITY.md");
    let named = named_items(&doc);
    assert!(named.len() >= 20, "the scan found only {} `Type::item` names: {named:?}", named.len());
    let defined = defined_items(&root);
    let pair = |ty: &str, item: &str| defined.contains(&(ty.to_string(), item.to_string()));
    assert!(pair("TraceConfig", "capacity") && !pair("Metrics", "capacity"), "the scan pairs an item with its own type");
    let missing: Vec<String> = named.difference(&defined).map(|(ty, item)| format!("{ty}::{item}")).collect();
    assert!(missing.is_empty(), "docs/OBSERVABILITY.md names items no crate defines: {missing:?}");
}

/// Whether `text` holds `word` with no identifier character either side.
fn names_word(text: &str, word: &str) -> bool {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    text.match_indices(word).any(|(at, _)| {
        let before = text[..at].chars().next_back();
        let after = text[at + word.len()..].chars().next();
        !before.is_some_and(is_ident) && !after.is_some_and(is_ident)
    })
}

#[test]
fn compat_items_are_named_by_the_benchmark() {
    let root = root();
    let compat = std::fs::read_to_string(root.join("crates/netsim/src/compat.rs")).expect("crates/netsim/src/compat.rs");
    let defined: Vec<&str> = compat
        .lines()
        .filter_map(|line| {
            let code = strip_qualifiers(line.trim_start());
            let rest = ["fn ", "type ", "struct ", "enum ", "trait ", "const ", "static "].iter().find_map(|k| code.strip_prefix(k))?;
            Some(leading_ident(rest)).filter(|name| !name.is_empty())
        })
        .collect();
    assert!(!defined.is_empty(), "the scan found no item in compat.rs");
    let mut files = Vec::new();
    rust_files(&root.join("benchmark/src"), &mut files);
    let benchmark: String = files.iter().map(|f| std::fs::read_to_string(f).unwrap_or_else(|e| panic!("{}: {e}", f.display()))).collect();
    let unused: Vec<&str> = defined.into_iter().filter(|name| !names_word(&benchmark, name)).collect();
    assert!(unused.is_empty(), "compat.rs keeps items benchmark/src no longer names: {unused:?}");
}
