//! Every backticked `crates/…`, `tests/…` or `docs/…` path in the
//! top-level documents exists on disk, so a moved file or a renamed crate
//! directory cannot leave the paper map pointing at nothing; and every
//! count those documents give of the registries' managers and workloads
//! is the registries' count.
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
