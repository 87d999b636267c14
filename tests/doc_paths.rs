//! Every backticked `crates/…`, `tests/…` or `docs/…` path in the
//! top-level documents exists on disk, so a moved file or a renamed crate
//! directory cannot leave the paper map pointing at nothing; and every
//! count those documents give of the registries' managers and workloads
//! is the registries' count; DESIGN §4 lists exactly the crates
//! vendored under `vendor/`; and every gate ROADMAP.md names by a test's
//! name exists.
//!
//! Understood path forms: a trailing `::item` is dropped, `{a,b}` expands,
//! and a component with `*` checks the directory before it.

use std::path::Path;

use windowtm::harness::managers::{all_manager_names, classic_manager_names};
use windowtm::workloads::workload_names;

const DOCS: [&str; 4] = [
    "docs/paper-map.md",
    "README.md",
    "CONTRIBUTING.md",
    "DESIGN.md",
];

/// Expand the first `{a,b,…}` group (the documents nest none).
fn expand(path: &str) -> Vec<String> {
    match (path.find('{'), path.find('}')) {
        (Some(open), Some(close)) if open < close => path[open + 1..close]
            .split(',')
            .map(|alt| format!("{}{alt}{}", &path[..open], &path[close + 1..]))
            .collect(),
        _ => vec![path.to_string()],
    }
}

#[test]
fn backticked_repo_paths_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut checked = 0;
    let mut missing = Vec::new();
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc)).expect(doc);
        // Odd-numbered pieces of a split on '`' are the code spans.
        for span in text.split('`').skip(1).step_by(2) {
            if !["crates/", "tests/", "docs/"]
                .iter()
                .any(|p| span.starts_with(p))
            {
                continue;
            }
            let path = span.split("::").next().unwrap_or(span);
            let path = path.split_whitespace().next().unwrap_or(path);
            for candidate in expand(path) {
                let on_disk = match candidate.find('*') {
                    Some(star) => candidate[..star]
                        .rsplit_once('/')
                        .map_or("", |(dir, _)| dir),
                    None => candidate.as_str(),
                };
                checked += 1;
                if !root.join(on_disk).exists() {
                    missing.push(format!("{doc}: `{span}` -> {on_disk}"));
                }
            }
        }
    }
    assert!(missing.is_empty(), "dead paths:\n{}", missing.join("\n"));
    assert!(
        checked > 40,
        "only {checked} paths found; did the scan break?"
    );
}

/// The word with surrounding punctuation (`managers:` → `managers`)
/// stripped.
fn bare(word: &str) -> &str {
    word.trim_matches(|c: char| !c.is_alphanumeric())
}

/// The count `word` states, if it is one: `14` ahead of its noun, or `(9)`
/// after it (`windowtm list`'s `managers (8)`).
fn number(word: &str, parenthesized: bool) -> Option<usize> {
    let word = word.trim_end_matches([',', '.', ';', ':']);
    let word = if parenthesized {
        word.strip_prefix('(')?.strip_suffix(')')?
    } else {
        word
    };
    word.parse().ok()
}

/// Whether `name` occurs in `text` as a whole name: not inside a longer
/// word or hyphenated name (`Online` inside `Online-Dynamic` does not
/// count).
fn names(text: &str, name: &str) -> bool {
    let part_of_name = |c: Option<char>| c.is_some_and(|c| c.is_alphanumeric() || c == '-');
    text.match_indices(name).any(|(at, _)| {
        !part_of_name(text[..at].chars().next_back())
            && !part_of_name(text[at + name.len()..].chars().next())
    })
}

#[test]
fn registry_counts_in_the_documents_are_the_registries() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let counts = [
        ("classic managers", classic_manager_names().len()),
        ("managers", all_manager_names().len()),
        ("workloads", workload_names().len()),
    ];
    let mut checked = 0;
    let mut wrong = Vec::new();
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc)).expect(doc);
        let words: Vec<&str> = text.split_whitespace().collect();
        for (i, w) in words.iter().enumerate() {
            let noun = |from: usize, len: usize| {
                let noun = words.get(from..from + len)?.iter().map(|w| bare(w));
                Some(noun.collect::<Vec<_>>().join(" "))
            };
            // `<n> classic managers`, `<n> managers`, `<n> workloads`, and
            // `managers (<n>)`, `workloads (<n>)`.
            let claims = [
                (number(w, false), noun(i + 1, 2)),
                (number(w, false), noun(i + 1, 1)),
                (words.get(i + 1).and_then(|n| number(n, true)), noun(i, 1)),
            ];
            for (n, noun) in claims {
                let (Some(n), Some(noun)) = (n, noun) else {
                    continue;
                };
                if let Some(&(_, count)) = counts.iter().find(|(what, _)| *what == noun) {
                    checked += 1;
                    if n != count {
                        wrong.push(format!("{doc}: \"{n} {noun}\", the registry has {count}"));
                    }
                }
            }
        }
    }
    assert!(wrong.is_empty(), "stale counts:\n{}", wrong.join("\n"));
    assert!(
        checked >= 3,
        "only {checked} counts found; did the scan break?"
    );

    let readme = std::fs::read_to_string(root.join("README.md")).expect("README.md");
    let unnamed: Vec<&str> = all_manager_names()
        .into_iter()
        .chain(workload_names())
        .filter(|name| !names(&readme, name))
        .collect();
    assert!(unnamed.is_empty(), "README.md never names {unnamed:?}");
}

#[test]
fn design_lists_exactly_the_vendored_crates() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let design = std::fs::read_to_string(root.join("DESIGN.md")).expect("DESIGN.md");
    let (_, section) = design
        .split_once("\n## 4. Dependencies")
        .expect("DESIGN.md has a section 4, Dependencies");
    let section = section.split("\n## ").next().unwrap_or(section);
    // A bullet opens with its crate's name: "* `rand` — …".
    let mut listed: Vec<&str> = section
        .lines()
        .filter_map(|line| line.strip_prefix("* `")?.split('`').next())
        .collect();
    let mut vendored: Vec<String> = std::fs::read_dir(root.join("vendor"))
        .expect("vendor/")
        .map(|entry| entry.expect("vendor/ entry"))
        .filter(|entry| entry.path().is_dir())
        .map(|entry| entry.file_name().to_string_lossy().into_owned())
        .collect();
    listed.sort_unstable();
    vendored.sort_unstable();
    assert_eq!(
        listed, vendored,
        "DESIGN §4's bullets vs the directories under vendor/"
    );
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, into: &mut Vec<std::path::PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, into);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            into.push(path);
        }
    }
}

#[test]
fn gates_the_roadmap_names_exist() {
    // A bar such as "`fixed_path_shared_rmw_budget` passes unchanged" is
    // only a bar if the test exists: each backticked name ending in one of
    // these suffixes must be a `fn` or a test file under crates/ or tests/.
    const SUFFIXES: [&str; 4] = ["_budget", "_locks", "_allocs", "_stress"];
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_files(&root.join("crates"), &mut files);
    rust_files(&root.join("tests"), &mut files);
    let sources: Vec<(String, String)> = files
        .iter()
        .map(|path| {
            let stem = path.file_stem().expect("a file name");
            let text = std::fs::read_to_string(path).expect("a source file");
            (stem.to_string_lossy().into_owned(), text)
        })
        .collect();
    let roadmap = std::fs::read_to_string(root.join("ROADMAP.md")).expect("ROADMAP.md");
    let mut checked = 0;
    let mut missing = Vec::new();
    for span in roadmap.split('`').skip(1).step_by(2) {
        let is_name = span.chars().all(|c| c.is_ascii_alphanumeric() || c == '_');
        if !is_name || !SUFFIXES.iter().any(|suffix| span.ends_with(suffix)) {
            continue;
        }
        checked += 1;
        let defined = sources.iter().any(|(stem, text)| {
            stem == span
                || text.match_indices(&format!("fn {span}")).any(|(at, m)| {
                    !text[at + m.len()..]
                        .starts_with(|c: char| c == '_' || c.is_ascii_alphanumeric())
                })
        });
        if !defined {
            missing.push(span.to_string());
        }
    }
    assert!(
        missing.is_empty(),
        "ROADMAP.md names gates nobody defines: {missing:?}"
    );
    assert!(
        checked >= 5,
        "only {checked} gate names found; did the scan break?"
    );
}
