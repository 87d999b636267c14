//! Every backticked `crates/…`, `tests/…` or `docs/…` path in the
//! top-level documents exists on disk, so a moved file or a renamed crate
//! directory cannot leave the paper map pointing at nothing.
//!
//! Understood forms: a trailing `::item` is dropped, `{a,b}` expands, and
//! a component with `*` checks the directory before it.

use std::path::Path;

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
