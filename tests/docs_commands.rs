//! Command drift between the docs and the tree: every `--bench X`,
//! `--test X`, `--example X`, `-p PKG` and `scripts/*.sh` that the README,
//! DESIGN, EXPERIMENTS, the scripts themselves or CI name must resolve to
//! something that exists. A line that keeps a retired command as history
//! says so with the literal marker `(retired in PR 18)` and is skipped.
//! The root manifest's `default-members` (what the tier-1 command covers)
//! must name every crate.

use std::fs;
use std::path::{Path, PathBuf};

const RETIRED: &str = "(retired in PR 18)";

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The root package's directory and every `crates/*` package directory.
fn package_dirs() -> Vec<PathBuf> {
    let mut dirs = vec![root()];
    for entry in fs::read_dir(root().join("crates")).expect("crates/ is readable") {
        let dir = entry.expect("crates/ entry").path();
        if dir.join("Cargo.toml").is_file() {
            dirs.push(dir);
        }
    }
    dirs
}

/// The `name` of the `[package]` table of the manifest in `dir`.
fn package_name(dir: &Path) -> String {
    let manifest = fs::read_to_string(dir.join("Cargo.toml")).expect("manifest is readable");
    let table = manifest.split("[package]").nth(1).expect("manifest has a [package] table");
    let name = table
        .lines()
        .find_map(|l| l.trim().strip_prefix("name = \""))
        .expect("[package] has a name");
    name.trim_end_matches('"').to_string()
}

/// The files whose commands are checked, relative to the repo root.
fn checked_files() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> =
        ["README.md", "DESIGN.md", "EXPERIMENTS.md", ".github/workflows/ci.yml"]
            .iter()
            .map(PathBuf::from)
            .collect();
    for entry in fs::read_dir(root().join("scripts")).expect("scripts/ is readable") {
        let path = entry.expect("scripts/ entry").path();
        if path.extension().is_some_and(|e| e == "sh") {
            files.push(Path::new("scripts").join(path.file_name().expect("a file name")));
        }
    }
    files
}

/// Strip the markdown and shell punctuation that clings to a word, keeping
/// a leading `$` or `<` so variables and placeholders stay recognisable.
fn bare(word: &str) -> &str {
    word.trim_start_matches(|c: char| !(c.is_ascii_alphanumeric() || "_-$<".contains(c)))
        .trim_end_matches(|c: char| !(c.is_ascii_alphanumeric() || "_-".contains(c)))
}

#[test]
fn every_command_the_docs_name_resolves_to_a_target_that_exists() {
    let dirs = package_dirs();
    let packages: Vec<String> = dirs.iter().map(|d| package_name(d)).collect();
    let target_exists = |kind: &str, name: &str| {
        dirs.iter().any(|d| d.join(kind).join(format!("{name}.rs")).is_file())
    };

    let mut missing = Vec::new();
    for file in checked_files() {
        let text = fs::read_to_string(root().join(&file)).expect("checked file is readable");
        // (line number, word), across line breaks: docs wrap `--test` away
        // from its name.
        let lines: Vec<&str> = text.lines().collect();
        let words: Vec<(usize, &str)> = lines
            .iter()
            .enumerate()
            .flat_map(|(i, line)| line.split_whitespace().map(move |w| (i, w)))
            .collect();
        let retired = |i: usize| lines[i].contains(RETIRED);

        for (at, &(line, word)) in words.iter().enumerate() {
            let mut report = |what: String| {
                missing.push(format!("{}:{}: {what}", file.display(), line + 1));
            };
            if let Some(script) = word.find("scripts/").map(|s| bare(&word[s..])) {
                // `scripts/*.sh` is a glob, not a script.
                let named = script.ends_with(".sh") && !script.contains('*');
                if named && !retired(line) && !root().join(script).is_file() {
                    report(format!("{script} does not exist"));
                }
            }
            let flag = bare(word);
            let Some(&(name_line, name)) = words.get(at + 1) else { continue };
            let name = bare(name);
            // A shell variable or a `<placeholder>` names nothing to check.
            let unnamed = name.is_empty() || name.starts_with(['$', '<']);
            if unnamed || retired(line) || retired(name_line) {
                continue;
            }
            let kind = match flag {
                "--bench" => "benches",
                "--test" => "tests",
                "--example" => "examples",
                "-p" => {
                    if !packages.iter().any(|p| p == name) {
                        report(format!("-p {name}: no such package in the workspace"));
                    }
                    continue;
                }
                _ => continue,
            };
            if !target_exists(kind, name) {
                report(format!("{flag} {name}: no {kind}/{name}.rs in any package"));
            }
        }
    }
    assert!(
        missing.is_empty(),
        "docs name commands that no longer exist (fix the doc, or mark the line `{RETIRED}`):\n{}",
        missing.join("\n")
    );
}

#[test]
fn default_members_are_every_crate() {
    let manifest = fs::read_to_string(root().join("Cargo.toml")).expect("root manifest");
    let list = manifest
        .split("default-members = [")
        .nth(1)
        .and_then(|rest| rest.split(']').next())
        .expect("root manifest has a default-members list");
    let mut listed: Vec<&str> = list.split('"').skip(1).step_by(2).collect();
    listed.sort();
    let mut expected: Vec<String> = package_dirs()[1..]
        .iter()
        .map(|d| d.strip_prefix(root()).expect("under the root").display().to_string())
        .collect();
    expected.push(".".into());
    expected.sort();
    assert_eq!(listed, expected, "root Cargo.toml default-members vs crates/*");
}
