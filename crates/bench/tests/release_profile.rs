//! The end-to-end benchmark (`benchmark/`, a package outside this
//! workspace) must build its binary the way the workspace builds the
//! shipped ones, or its numbers measure a different program: its
//! `[profile.release]` table must equal the root manifest's, line for line.

use std::path::Path;

/// The lines of `manifest`'s `[profile.release]` table, without blank and
/// comment lines, up to the next table header.
fn release_profile(manifest: &Path) -> Vec<String> {
    let text = std::fs::read_to_string(manifest)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", manifest.display()));
    text.lines()
        .map(str::trim)
        .skip_while(|l| *l != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(String::from)
        .collect()
}

#[test]
fn benchmark_builds_with_the_workspace_release_profile() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let workspace = release_profile(&root.join("Cargo.toml"));
    let benchmark = release_profile(&root.join("benchmark/Cargo.toml"));
    assert!(
        !workspace.is_empty(),
        "the root manifest has no [profile.release] settings"
    );
    assert_eq!(
        benchmark, workspace,
        "benchmark/Cargo.toml's [profile.release] differs from the root manifest's"
    );
}
