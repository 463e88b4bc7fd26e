//! Every result on record names the command that regenerates it.
//!
//! EXPERIMENTS.md tags each experiment with a line of the form
//! ``*binary: `name` · … · output: `results/…`*``. Every file in `results/`
//! must appear in the output part of some tag, every file a tag names must
//! exist, every tag's binary must be a file in `crates/bench/src/bin/`, and
//! every figure or table binary there (`fig*`, `tab*`) must have a tag.
//! The other binaries (`prof_report`, `trace_inspect`) are tools and write
//! no result of record.

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
