//! The two source rules clippy cannot express, checked over the whole
//! workspace by `tests/source_rules.rs`:
//!
//! * **`static mut`** is forbidden: use an atomic or interior mutability.
//! * **A `Relaxed` load cast to a raw pointer** in one statement needs an
//!   adjacent `// ORDERING:` comment saying why relaxed suffices (for
//!   example, a later acquire CAS validates the pointer). The paper's
//!   reference and adjustment handoffs (§4) go wrong exactly where a pointer
//!   read from an atomic is used unsynchronized.
//!
//! Both read the [`lex`]ed view of a file, so comments and string literals
//! never count. Everything else is clippy's: the root `Cargo.toml`'s
//! `[workspace.lints.clippy]` denies undocumented `unsafe`, `thread::sleep`
//! and `mem::forget`.

use std::path::{Path, PathBuf};

use crate::lexer::{lex, Lexed};

/// The rule a [`Violation`] breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// A `static mut` item.
    StaticMut,
    /// A `Relaxed` load cast to a raw pointer without `// ORDERING:`.
    RelaxedPointerLoad,
}

/// One broken rule at a 1-indexed source line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Violation {
    /// The rule broken.
    pub rule: Rule,
    /// The line it is broken on.
    pub line: usize,
}

/// Checks one file's source, returning its violations in line order.
pub fn check(src: &str) -> Vec<Violation> {
    let lexed = lex(src);
    let mut out: Vec<Violation> = (1..=lexed.line_count())
        .filter(|&line| has_static_mut(lexed.code_line(line)))
        .map(|line| Violation {
            rule: Rule::StaticMut,
            line,
        })
        .collect();
    for (text, first, last) in statements(&lexed) {
        let flat: String = text.split_whitespace().collect();
        // `.load(Relaxed)`, whatever path names the ordering.
        let relaxed_load = flat.match_indices(".load(").any(|(i, _)| {
            flat[i..]
                .split(')')
                .next()
                .is_some_and(|a| a.ends_with("Relaxed"))
        });
        let ptr_cast = flat.contains("as*mut") || flat.contains("as*const");
        if relaxed_load && ptr_cast && !has_ordering_note(&lexed, first, last) {
            out.push(Violation {
                rule: Rule::RelaxedPointerLoad,
                line: first,
            });
        }
    }
    out.sort_by_key(|v| v.line);
    out
}

/// Every `.rs` file under `root`'s `src`, `crates`, `shims`, `tests` and
/// `examples` directories, skipping `target` directories, in sorted order.
pub fn workspace_sources(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            if path.is_dir() {
                if !path.ends_with("target") {
                    walk(&path, out)?;
                }
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
        Ok(())
    }
    let mut out = Vec::new();
    for top in ["src", "crates", "shims", "tests", "examples"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, &mut out)?;
        }
    }
    out.sort();
    Ok(out)
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// `static mut` as two words (`static MUTEX` and `static_mutation` are fine).
fn has_static_mut(code: &str) -> bool {
    code.match_indices("static").any(|(pos, _)| {
        let before = code[..pos].chars().next_back();
        let after = &code[pos + "static".len()..];
        let tail = after.trim_start();
        before.is_none_or(|c| !is_ident_char(c))
            && tail.len() < after.len()
            && tail.starts_with("mut")
            && tail["mut".len()..]
                .chars()
                .next()
                .is_none_or(|c| !is_ident_char(c))
    })
}

/// The code between statement and block boundaries (`;`, `{`, `}`), with
/// its first and last line.
fn statements(lexed: &Lexed) -> Vec<(String, usize, usize)> {
    let mut out = Vec::new();
    let mut text = String::new();
    let mut first = 0;
    for line in 1..=lexed.line_count() {
        for c in lexed.code_line(line).chars() {
            if matches!(c, ';' | '{' | '}') {
                if first != 0 {
                    out.push((std::mem::take(&mut text), first, line));
                }
                text.clear();
                first = 0;
            } else {
                if first == 0 && !c.is_whitespace() {
                    first = line;
                }
                text.push(c);
            }
        }
        text.push(' ');
    }
    if first != 0 {
        out.push((text, first, lexed.line_count()));
    }
    out
}

/// True if an `// ORDERING:` comment sits on lines `first..=last` or in the
/// run of comment-only or attribute lines directly above them. A blank or
/// code line ends the run.
fn has_ordering_note(lexed: &Lexed, first: usize, last: usize) -> bool {
    if (first..=last).any(|l| lexed.comment_line(l).contains("ORDERING:")) {
        return true;
    }
    for l in (1..first).rev() {
        let comment = lexed.comment_line(l);
        if comment.contains("ORDERING:") {
            return true;
        }
        let code = lexed.code_line(l).trim();
        let comment_only = !comment.is_empty() && code.is_empty();
        if !(comment_only || code.starts_with("#[")) {
            break;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count(src: &str, rule: Rule) -> usize {
        check(src).iter().filter(|v| v.rule == rule).count()
    }

    #[test]
    fn static_mut_is_forbidden() {
        assert_eq!(count("static mut COUNTER: u64 = 0;\n", Rule::StaticMut), 1);
        let ok = "static MUTEX: Mutex<u64> = Mutex::new(0);\nlet static_mutation = 1;\n";
        assert!(check(ok).is_empty());
    }

    #[test]
    fn static_mut_in_strings_and_comments_is_ignored() {
        let src = "// static mut X\nlet s = \"static mut Y\";\nlet r = r#\"static mut Z\"#;\n";
        assert!(check(src).is_empty());
    }

    #[test]
    fn relaxed_pointer_cast_is_caught() {
        let src = "fn next(h: &H) -> *mut N {\n    h.word.load(Ordering::Relaxed) as *mut N\n}\n";
        assert_eq!(
            check(src),
            [Violation {
                rule: Rule::RelaxedPointerLoad,
                line: 2
            }]
        );
        let qualified = "let p = w.load(std::sync::atomic::Ordering::Relaxed) as *mut N;\n";
        assert_eq!(count(qualified, Rule::RelaxedPointerLoad), 1);
    }

    #[test]
    fn ordering_comment_permits_relaxed_cast() {
        let src = "fn next(h: &H) -> *mut N {\n    // ORDERING: pointer validated by the later acquire CAS.\n    h.word.load(Ordering::Relaxed) as *mut N\n}\n";
        assert!(check(src).is_empty());
        let trailing = "let p = w.load(Relaxed) as *const N; // ORDERING: owner-only word.\n";
        assert!(check(trailing).is_empty());
    }

    #[test]
    fn load_and_cast_in_separate_statements_pass() {
        // The heuristic looks at one statement at a time.
        assert!(check("let n = c.load(Ordering::Relaxed);\nlet p = n as *mut u8;\n").is_empty());
    }

    #[test]
    fn acquire_cast_is_fine() {
        assert!(check("let p = c.load(Ordering::Acquire) as *mut u8;\n").is_empty());
    }

    #[test]
    fn multiline_statement_is_one_run() {
        let src = "let p = head\n    .word(W)\n    .load(Ordering::Relaxed)\n    as *mut Node;\n";
        assert_eq!(count(src, Rule::RelaxedPointerLoad), 1);
    }

    #[test]
    fn violations_sorted_by_line() {
        let src =
            "static mut A: u8 = 0;\nlet p = c.load(Relaxed) as *mut u8;\nstatic mut B: u8 = 0;\n";
        let lines: Vec<usize> = check(src).iter().map(|v| v.line).collect();
        assert_eq!(lines, [1, 2, 3]);
    }

    #[test]
    fn workspace_sources_skip_target_dirs_and_other_files() {
        let root = std::env::temp_dir().join(format!("smr-rules-walk-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        for f in [
            "src/lib.rs",
            "crates/a/src/deep/x.rs",
            "crates/a/tests/t.rs",
            "crates/a/target/gen.rs",
            "crates/a/README.md",
            "examples/e.rs",
            "benchmark/src/main.rs",
        ] {
            let path = root.join(f);
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, "fn f() {}\n").unwrap();
        }
        let found: Vec<String> = workspace_sources(&root)
            .unwrap()
            .iter()
            .map(|p| {
                p.strip_prefix(&root)
                    .unwrap()
                    .to_string_lossy()
                    .replace('\\', "/")
            })
            .collect();
        assert_eq!(
            found,
            [
                "crates/a/src/deep/x.rs",
                "crates/a/tests/t.rs",
                "examples/e.rs",
                "src/lib.rs"
            ]
        );
        let _ = std::fs::remove_dir_all(&root);
    }
}
