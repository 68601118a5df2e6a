//! The workspace obeys the source rules clippy cannot express (see
//! `smr_testkit::rules`): no `static mut`, and no `Relaxed` load cast to a
//! raw pointer without an `// ORDERING:` justification. And every package
//! opts into the workspace lints that the clippy gate enforces, and every
//! example asserts what it shows.

use std::path::Path;

use smr_testkit::rules::{check, workspace_sources};

fn workspace_root() -> &'static Path {
    // crates/smr-testkit -> crates -> workspace root
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .unwrap()
}

#[test]
fn workspace_obeys_source_rules() {
    let files = workspace_sources(workspace_root()).expect("walk the workspace");
    assert!(
        files
            .iter()
            .any(|f| f.ends_with("crates/hyaline/src/domain.rs")),
        "the walk must reach the scheme crates"
    );
    let mut found = String::new();
    for file in &files {
        let src = std::fs::read_to_string(file).expect("read a source file");
        for v in check(&src) {
            found.push_str(&format!("  {}:{}: {:?}\n", file.display(), v.line, v.rule));
        }
    }
    assert!(found.is_empty(), "source rule violations:\n{found}");
}

/// A package without `[lints] workspace = true` would pass the clippy gate
/// with none of the safety lints on.
#[test]
fn every_package_opts_into_workspace_lints() {
    let root = workspace_root();
    let mut manifests = vec![root.join("Cargo.toml")];
    for group in ["crates", "shims"] {
        for entry in std::fs::read_dir(root.join(group)).expect("list packages") {
            let manifest = entry.expect("package dir").path().join("Cargo.toml");
            if manifest.is_file() {
                manifests.push(manifest);
            }
        }
    }
    assert!(manifests.len() > 10, "the scan must reach every member");
    let missing: Vec<_> = manifests
        .iter()
        .filter(|m| {
            let toml = std::fs::read_to_string(m).expect("read a manifest");
            !toml.contains("[lints]\nworkspace = true\n")
        })
        .collect();
    assert!(
        missing.is_empty(),
        "no `[lints] workspace = true` in {missing:?}"
    );
}

/// An example stays only where it self-checks a claim, so one that merely
/// prints would fail nothing when the claim breaks.
#[test]
fn every_example_asserts() {
    let dir = workspace_root().join("examples");
    let mut examples = 0;
    for entry in std::fs::read_dir(&dir).expect("list examples") {
        let path = entry.expect("example file").path();
        if path.extension().is_some_and(|ext| ext == "rs") {
            examples += 1;
            let src = std::fs::read_to_string(&path).expect("read an example");
            assert!(src.contains("assert"), "{} asserts nothing", path.display());
        }
    }
    assert!(examples > 0, "the scan must reach the examples");
}
