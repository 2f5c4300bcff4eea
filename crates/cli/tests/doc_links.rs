//! Documentation link checker: every relative markdown link in README.md
//! and docs/*.md must point at a file that exists in the repository, so
//! the docs index can't rot as files move. Run by CI's lint job.

use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root")
}

/// Pull `](target)` link targets out of markdown, skipping fenced code
/// blocks (``` ... ```) where `](` is just text.
fn extract_links(text: &str) -> Vec<String> {
    let mut links = Vec::new();
    let mut in_fence = false;
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence {
            continue;
        }
        let mut rest = line;
        while let Some(p) = rest.find("](") {
            let after = &rest[p + 2..];
            let Some(end) = after.find(')') else { break };
            // A `[text](path "title")` link keeps only the path token.
            let target = after[..end]
                .split_whitespace()
                .next()
                .unwrap_or("")
                .to_string();
            links.push(target);
            rest = &after[end + 1..];
        }
    }
    links
}

#[test]
fn relative_doc_links_resolve() {
    let root = repo_root();
    let mut files = vec![root.join("README.md")];
    for entry in std::fs::read_dir(root.join("docs")).expect("docs dir") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "md") {
            files.push(path);
        }
    }
    assert!(files.len() > 5, "expected README plus several docs");

    let mut broken = Vec::new();
    let mut checked = 0usize;
    for file in &files {
        let text = std::fs::read_to_string(file).expect("read doc");
        let dir = file.parent().expect("doc dir");
        for target in extract_links(&text) {
            if target.contains("://") || target.starts_with('#') || target.starts_with("mailto:") {
                continue; // external or intra-page
            }
            // Drop a trailing `#anchor`; we check file existence only.
            let path_part = target.split('#').next().unwrap_or("");
            if path_part.is_empty() {
                continue;
            }
            checked += 1;
            if !dir.join(path_part).exists() {
                broken.push(format!("{}: {target}", file.display()));
            }
        }
    }
    assert!(checked > 10, "link extraction found only {checked} links");
    assert!(
        broken.is_empty(),
        "broken relative links:\n{}",
        broken.join("\n")
    );
}
