//! The SMR safety/ordering rules, applied to a [`Lexed`] file view.
//!
//! Three rules, mirroring the debt classes that hide reclamation bugs:
//!
//! * **safety** — every `unsafe` site must justify itself. An `unsafe fn`
//!   needs a `# Safety` doc section (or a `// SAFETY:` comment) in the
//!   contiguous doc/attribute run above it; an `unsafe impl` or
//!   `unsafe trait` needs a `// SAFETY:` comment immediately above; an
//!   `unsafe { … }` block needs a `// SAFETY:` comment adjacent to it (the
//!   contiguous comment run above, a trailing comment on the same line, or
//!   a comment on the block's first inner line).
//! * **ordering** — every `Ordering::*` site is inventoried, and a
//!   `Relaxed` load whose result is cast to a raw pointer **in the same
//!   statement run** is rejected unless an adjacent `// ORDERING:` comment
//!   explains why relaxed suffices (e.g. the pointer is validated by a
//!   later acquire CAS). This is the heuristic for "pointer-bearing atomic
//!   read used unsynchronized" — the REF/ADJ handoff bugs of PAPER.md §4
//!   start exactly there.
//! * **forbidden** — `static mut` (anywhere), `std::thread::sleep` outside
//!   bench crates and test code, `mem::forget` applied to a handle/guard
//!   expression (leaking a handle silently pins reclamation), and any
//!   `thread::sleep`/`thread::park` inside `crates/smr-async/src` (the
//!   async service layer's worker threads are shared by every task, so
//!   blocking one stalls the fleet — reclaimers must yield, not block).
//!
//! Test code is *not* exempt from the safety rule — a wrong justification
//! in a test is still a wrong justification — but `thread::sleep` is
//! permitted inside `#[cfg(test)]` modules and `bench*` crates. The
//! `smr-async` blocking ban has no such carve-out: a test that parks a
//! shared worker deadlocks the executor exactly like production code.
//!
//! The `thread::sleep` ban's scope, precisely: it covers production code
//! in every non-`bench*` crate — above all the scheme crates whose
//! progress claims the rule protects. `hyaline` advertises lock-free
//! operations and `crystalline` a *wait-free* retire; a single timed
//! block on either's retire/protect path would silently void the bound
//! the crate exists for, which is why those crates carry a zero
//! `forbidden` baseline and must stay there. The carve-outs are `bench*`
//! crates (sleeping is the measured workload — the stalled-reader and
//! robustness sweeps park readers on purpose), `tests/` directories, and
//! `#[cfg(test)]` regions; none of them apply inside
//! `crates/smr-async/src`, where blocking a shared worker stalls every
//! task multiplexed onto it.

use crate::lexer::{lex, Lexed};

/// Which rule a violation belongs to. The serialized names (`as_str`) are
/// the baseline-file keys, so they are part of the on-disk format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// Unjustified `unsafe` site.
    Safety,
    /// Unjustified `Relaxed` pointer load.
    Ordering,
    /// Forbidden API use.
    Forbidden,
}

impl Rule {
    /// Stable serialized name (baseline key).
    pub fn as_str(self) -> &'static str {
        match self {
            Rule::Safety => "safety",
            Rule::Ordering => "ordering",
            Rule::Forbidden => "forbidden",
        }
    }

    /// All rules, in baseline order.
    pub const ALL: [Rule; 3] = [Rule::Safety, Rule::Ordering, Rule::Forbidden];

    /// Parses a serialized rule name.
    pub fn parse(s: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.as_str() == s)
    }
}

/// One rule violation at a source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Violated rule.
    pub rule: Rule,
    /// 1-indexed source line.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

/// Per-file memory-ordering inventory (every `Ordering::X` mention in code).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OrderingInventory {
    /// `Ordering::Relaxed` sites.
    pub relaxed: usize,
    /// `Ordering::Acquire` sites.
    pub acquire: usize,
    /// `Ordering::Release` sites.
    pub release: usize,
    /// `Ordering::AcqRel` sites.
    pub acq_rel: usize,
    /// `Ordering::SeqCst` sites.
    pub seq_cst: usize,
}

impl OrderingInventory {
    /// Total ordering sites.
    pub fn total(&self) -> usize {
        self.relaxed + self.acquire + self.release + self.acq_rel + self.seq_cst
    }
}

/// The analysis result for one file.
#[derive(Debug, Clone, Default)]
pub struct FileAnalysis {
    /// All violations, in line order.
    pub violations: Vec<Violation>,
    /// Ordering-site inventory.
    pub orderings: OrderingInventory,
    /// Number of `unsafe` sites seen (annotated or not).
    pub unsafe_sites: usize,
}

impl FileAnalysis {
    /// Violation count for one rule.
    pub fn count(&self, rule: Rule) -> usize {
        self.violations.iter().filter(|v| v.rule == rule).count()
    }
}

/// Analyzes one file. `rel_path` (workspace-relative, `/`-separated) drives
/// the path-based exemptions of the forbidden rule.
pub fn analyze(rel_path: &str, src: &str) -> FileAnalysis {
    let lexed = lex(src);
    let mut out = FileAnalysis::default();
    let test_region_start = test_region_start(&lexed);
    check_unsafe_sites(&lexed, &mut out);
    check_orderings(&lexed, &mut out);
    check_forbidden(rel_path, &lexed, test_region_start, &mut out);
    out.violations.sort_by_key(|v| (v.line, v.rule));
    out
}

/// First line (1-indexed) of the trailing `#[cfg(test)] mod …` region, if
/// any. Convention-based: the test module is the last item of the file, so
/// everything from the attribute to EOF counts as test code.
fn test_region_start(lexed: &Lexed) -> Option<usize> {
    for line in 1..=lexed.line_count() {
        let code = nospace(lexed.code_line(line));
        if code.contains("#[cfg(test)]") {
            // Must actually introduce a module (not e.g. a use-declaration
            // gate) within the next few lines.
            for ahead in line..=(line + 3).min(lexed.line_count()) {
                if lexed.code_line(ahead).contains("mod ") {
                    return Some(line);
                }
            }
        }
    }
    None
}

fn nospace(s: &str) -> String {
    s.chars().filter(|c| !c.is_whitespace()).collect()
}

/// True if `line` (or the contiguous comment/attribute run directly above
/// it) carries a comment containing `marker`. Blank lines or lines with
/// unrelated code break the run: the justification must be *adjacent*.
fn annotated_above(lexed: &Lexed, line: usize, marker: &str) -> bool {
    if lexed.comment_line(line).contains(marker) {
        return true;
    }
    let mut l = line;
    while l > 1 {
        l -= 1;
        let comment = lexed.comment_line(l);
        let code = lexed.code_line(l).trim();
        let attr_only = code.starts_with("#[") || code.starts_with("#!");
        if comment.contains(marker) {
            return true;
        }
        let comment_only = !comment.is_empty() && code.is_empty();
        if comment_only || attr_only {
            continue;
        }
        break;
    }
    false
}

/// The `safety` rule: find every `unsafe` keyword in code, classify the
/// site, and demand the matching justification.
fn check_unsafe_sites(lexed: &Lexed, out: &mut FileAnalysis) {
    // Flatten code into (char, line) pairs so classification can look past
    // line breaks (e.g. `unsafe\nfn`, `pub const unsafe extern "C" fn`).
    let mut flat: Vec<(char, usize)> = Vec::new();
    for line in 1..=lexed.line_count() {
        for c in lexed.code_line(line).chars() {
            flat.push((c, line));
        }
        flat.push(('\n', line));
    }
    let mut i = 0;
    while i < flat.len() {
        if !is_word_at(&flat, i, "unsafe") {
            i += 1;
            continue;
        }
        let line = flat[i].1;
        out.unsafe_sites += 1;
        // Classify by the next significant word/char.
        let mut j = i + "unsafe".len();
        let mut kind = SiteKind::Block; // `unsafe {`
        let mut brace_line = line;
        loop {
            while j < flat.len() && flat[j].0.is_whitespace() {
                j += 1;
            }
            if j >= flat.len() {
                break;
            }
            if flat[j].0 == '{' {
                brace_line = flat[j].1;
                break;
            }
            let word_end = word_end(&flat, j);
            let word: String = flat[j..word_end].iter().map(|&(c, _)| c).collect();
            match word.as_str() {
                "fn" => {
                    kind = SiteKind::Fn;
                    break;
                }
                "impl" => {
                    kind = SiteKind::Impl;
                    break;
                }
                "trait" => {
                    kind = SiteKind::Trait;
                    break;
                }
                // `unsafe extern "C" fn` — skip the qualifier and rescan.
                "extern" => {
                    j = word_end;
                    // The ABI string was blanked to `""` by the lexer.
                    while j < flat.len() && (flat[j].0.is_whitespace() || flat[j].0 == '"') {
                        j += 1;
                    }
                    continue;
                }
                _ if word.is_empty() => {
                    // Punctuation (e.g. `)` in `unsafe fn` pointer types
                    // never reaches here because `fn` matched first); treat
                    // anything unrecognized as a block-less site and move on.
                    break;
                }
                _ => break,
            }
        }
        match kind {
            SiteKind::Fn => {
                let ok = annotated_above(lexed, line, "# Safety")
                    || annotated_above(lexed, line, "SAFETY:");
                if !ok {
                    out.violations.push(Violation {
                        rule: Rule::Safety,
                        line,
                        message: "`unsafe fn` without a `# Safety` doc section or `// SAFETY:` \
                                  comment"
                            .into(),
                    });
                }
            }
            SiteKind::Impl | SiteKind::Trait => {
                if !annotated_above(lexed, line, "SAFETY:") {
                    let what = if kind == SiteKind::Impl {
                        "`unsafe impl`"
                    } else {
                        "`unsafe trait`"
                    };
                    out.violations.push(Violation {
                        rule: Rule::Safety,
                        line,
                        message: format!("{what} without an adjacent `// SAFETY:` comment"),
                    });
                }
            }
            SiteKind::Block => {
                let ok = annotated_above(lexed, line, "SAFETY:")
                    || lexed.comment_line(brace_line).contains("SAFETY:")
                    || lexed.comment_line(brace_line + 1).contains("SAFETY:");
                if !ok {
                    out.violations.push(Violation {
                        rule: Rule::Safety,
                        line,
                        message: "`unsafe` block without an adjacent `// SAFETY:` comment".into(),
                    });
                }
            }
        }
        i += "unsafe".len();
    }
}

#[derive(PartialEq, Clone, Copy)]
enum SiteKind {
    Fn,
    Impl,
    Trait,
    Block,
}

fn is_word_at(flat: &[(char, usize)], i: usize, word: &str) -> bool {
    let chars: Vec<char> = word.chars().collect();
    if i + chars.len() > flat.len() {
        return false;
    }
    for (k, &c) in chars.iter().enumerate() {
        if flat[i + k].0 != c {
            return false;
        }
    }
    let before_ok = i == 0 || !is_ident_char(flat[i - 1].0);
    let after_ok = flat
        .get(i + chars.len())
        .is_none_or(|&(c, _)| !is_ident_char(c));
    before_ok && after_ok
}

fn word_end(flat: &[(char, usize)], start: usize) -> usize {
    let mut j = start;
    while j < flat.len() && is_ident_char(flat[j].0) {
        j += 1;
    }
    j
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// One code "statement run": the text between statement/block boundaries
/// (`;`, `{`, `}`), with the lines it spans.
struct Statement {
    text: String,
    first_line: usize,
    last_line: usize,
}

fn statements(lexed: &Lexed) -> Vec<Statement> {
    let mut out = Vec::new();
    let mut text = String::new();
    let mut first_line = 0usize;
    for line in 1..=lexed.line_count() {
        for c in lexed.code_line(line).chars() {
            if c == ';' || c == '{' || c == '}' {
                if !text.trim().is_empty() {
                    out.push(Statement {
                        text: std::mem::take(&mut text),
                        first_line,
                        last_line: line,
                    });
                } else {
                    text.clear();
                }
                first_line = 0;
                continue;
            }
            if first_line == 0 && !c.is_whitespace() {
                first_line = line;
            }
            text.push(c);
        }
        text.push(' ');
    }
    if !text.trim().is_empty() && first_line != 0 {
        out.push(Statement {
            text,
            first_line,
            last_line: lexed.line_count(),
        });
    }
    out
}

/// The `ordering` rule: inventory plus the Relaxed-pointer-load heuristic.
fn check_orderings(lexed: &Lexed, out: &mut FileAnalysis) {
    for line in 1..=lexed.line_count() {
        let code = nospace(lexed.code_line(line));
        out.orderings.relaxed += code.matches("Ordering::Relaxed").count();
        out.orderings.acquire += code.matches("Ordering::Acquire").count();
        out.orderings.release += code.matches("Ordering::Release").count();
        out.orderings.acq_rel += code.matches("Ordering::AcqRel").count();
        out.orderings.seq_cst += code.matches("Ordering::SeqCst").count();
    }
    for stmt in statements(lexed) {
        let flat = nospace(&stmt.text);
        let has_relaxed_load =
            flat.contains(".load(Ordering::Relaxed)") || flat.contains(".load(Relaxed)");
        if !has_relaxed_load {
            continue;
        }
        let casts_to_ptr = flat.contains("as*mut") || flat.contains("as*const");
        if !casts_to_ptr {
            continue;
        }
        let annotated = (stmt.first_line..=stmt.last_line)
            .any(|l| lexed.comment_line(l).contains("ORDERING:"))
            || annotated_above(lexed, stmt.first_line, "ORDERING:");
        if !annotated {
            out.violations.push(Violation {
                rule: Rule::Ordering,
                line: stmt.first_line,
                message: "`Relaxed` load cast to a raw pointer in the same statement \
                          without an `// ORDERING:` justification"
                    .into(),
            });
        }
    }
}

/// The `forbidden` rule.
fn check_forbidden(
    rel_path: &str,
    lexed: &Lexed,
    test_region_start: Option<usize>,
    out: &mut FileAnalysis,
) {
    // bench* crates run timed phases; sleeping there is the workload.
    let bench_crate = rel_path
        .split('/')
        .nth(1)
        .is_some_and(|crate_dir| crate_dir.starts_with("bench"));
    let in_tests_dir = rel_path.split('/').any(|seg| seg == "tests");
    // The async service layer's workers are shared by every task: one
    // blocked worker stalls the whole fleet, so time-based or parking
    // blocking is forbidden there with NO test/bench exemption — a test
    // that parks a worker deadlocks the executor just as surely as
    // production code would. Reclaimers and guards must yield instead.
    let async_crate = rel_path.starts_with("crates/smr-async/src");
    for line in 1..=lexed.line_count() {
        let code = lexed.code_line(line);
        let flat = nospace(code);
        if flat.contains("staticmut") && is_word_boundary_static_mut(code) {
            out.violations.push(Violation {
                rule: Rule::Forbidden,
                line,
                message: "`static mut` is forbidden (use an atomic or interior mutability)"
                    .into(),
            });
        }
        if flat.contains("thread::sleep(") {
            let in_test_region = test_region_start.is_some_and(|start| line >= start);
            if async_crate {
                out.violations.push(Violation {
                    rule: Rule::Forbidden,
                    line,
                    message: "`thread::sleep` inside crates/smr-async (workers are shared \
                              by all tasks; yield with `yield_now().await` instead)"
                        .into(),
                });
            } else if !(bench_crate || in_tests_dir || in_test_region) {
                out.violations.push(Violation {
                    rule: Rule::Forbidden,
                    line,
                    message: "`thread::sleep` outside bench crates/tests (hot paths must \
                              never block on time)"
                        .into(),
                });
            }
        }
        if async_crate && flat.contains("thread::park") {
            out.violations.push(Violation {
                rule: Rule::Forbidden,
                line,
                message: "`thread::park` inside crates/smr-async (park a future on a waker, \
                          never the worker thread)"
                    .into(),
            });
        }
        if let Some(pos) = flat.find("mem::forget(") {
            let arg = &flat[pos + "mem::forget(".len()..];
            let arg_lower = arg.to_ascii_lowercase();
            if arg_lower.contains("handle") || arg_lower.contains("guard") {
                out.violations.push(Violation {
                    rule: Rule::Forbidden,
                    line,
                    message: "`mem::forget` on a handle/guard: a leaked handle pins \
                              reclamation forever (drop or check it in instead)"
                        .into(),
                });
            }
        }
    }
}

/// `static mut` with real word boundaries (`static mutex` must not match —
/// `nospace` would glue them, so re-check on the spaced text).
fn is_word_boundary_static_mut(code: &str) -> bool {
    let mut rest = code;
    while let Some(pos) = rest.find("static") {
        let after = &rest[pos + "static".len()..];
        let before_ok = rest[..pos]
            .chars()
            .next_back()
            .is_none_or(|c| !is_ident_char(c));
        let tail = after.trim_start();
        if before_ok && tail.starts_with("mut") {
            let after_mut = tail["mut".len()..].chars().next();
            if after_mut.is_none_or(|c| !is_ident_char(c)) {
                return true;
            }
        }
        rest = after;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyze_src(src: &str) -> FileAnalysis {
        analyze("crates/example/src/lib.rs", src)
    }

    #[test]
    fn unannotated_block_is_caught() {
        let a = analyze_src("fn f(p: *mut u8) { unsafe { *p = 1 }; }\n");
        assert_eq!(a.count(Rule::Safety), 1);
        assert_eq!(a.unsafe_sites, 1);
    }

    #[test]
    fn comment_above_satisfies_block() {
        let a = analyze_src("fn f(p: *mut u8) {\n    // SAFETY: p is valid.\n    unsafe { *p = 1 };\n}\n");
        assert_eq!(a.count(Rule::Safety), 0);
    }

    #[test]
    fn trailing_comment_satisfies_block() {
        let a = analyze_src("fn f(p: *mut u8) {\n    unsafe { *p = 1 }; // SAFETY: p is valid.\n}\n");
        assert_eq!(a.count(Rule::Safety), 0);
    }

    #[test]
    fn first_inner_line_comment_satisfies_block() {
        let a = analyze_src("fn f(p: *mut u8) {\n    unsafe {\n        // SAFETY: p is valid.\n        *p = 1\n    };\n}\n");
        assert_eq!(a.count(Rule::Safety), 0);
    }

    #[test]
    fn blank_line_breaks_adjacency() {
        let a = analyze_src("// SAFETY: stale justification far away.\n\nfn f(p: *mut u8) { unsafe { *p = 1 }; }\n");
        assert_eq!(a.count(Rule::Safety), 1);
    }

    #[test]
    fn unsafe_fn_needs_safety_doc() {
        let bad = analyze_src("pub unsafe fn f() {}\n");
        assert_eq!(bad.count(Rule::Safety), 1);
        let good = analyze_src("/// Does a thing.\n///\n/// # Safety\n///\n/// Caller must hold X.\npub unsafe fn f() {}\n");
        assert_eq!(good.count(Rule::Safety), 0);
    }

    #[test]
    fn attribute_between_doc_and_fn_is_transparent() {
        let a = analyze_src("/// # Safety\n/// Caller must hold X.\n#[inline]\npub unsafe fn f() {}\n");
        assert_eq!(a.count(Rule::Safety), 0);
    }

    #[test]
    fn unsafe_extern_fn_classified_as_fn() {
        let a = analyze_src("/// # Safety\n/// ffi.\npub unsafe extern \"C\" fn f() {}\n");
        assert_eq!(a.count(Rule::Safety), 0);
        let bad = analyze_src("pub unsafe extern \"C\" fn f() {}\n");
        assert_eq!(bad.count(Rule::Safety), 1);
    }

    #[test]
    fn unsafe_impl_needs_comment() {
        let bad = analyze_src("unsafe impl Send for X {}\n");
        assert_eq!(bad.count(Rule::Safety), 1);
        let good = analyze_src("// SAFETY: X owns no thread-affine state.\nunsafe impl Send for X {}\n");
        assert_eq!(good.count(Rule::Safety), 0);
    }

    #[test]
    fn doc_safety_section_does_not_satisfy_impl() {
        // Impls have no caller contract; they need an explicit SAFETY: note.
        let a = analyze_src("/// # Safety\nunsafe impl Send for X {}\n");
        assert_eq!(a.count(Rule::Safety), 1);
    }

    #[test]
    fn unsafe_in_string_or_comment_is_ignored() {
        let a = analyze_src("// unsafe { }\nlet s = \"unsafe impl Send\";\nlet r = r#\"unsafe {\"#;\n");
        assert_eq!(a.unsafe_sites, 0);
        assert_eq!(a.count(Rule::Safety), 0);
    }

    #[test]
    fn relaxed_pointer_cast_is_caught() {
        let a = analyze_src(
            "fn next(h: &H) -> *mut N {\n    h.word.load(Ordering::Relaxed) as *mut N\n}\n",
        );
        assert_eq!(a.count(Rule::Ordering), 1);
        assert_eq!(a.orderings.relaxed, 1);
    }

    #[test]
    fn ordering_comment_permits_relaxed_cast() {
        let a = analyze_src(
            "fn next(h: &H) -> *mut N {\n    // ORDERING: pointer validated by the later acquire CAS.\n    h.word.load(Ordering::Relaxed) as *mut N\n}\n",
        );
        assert_eq!(a.count(Rule::Ordering), 0);
        assert_eq!(a.orderings.relaxed, 1);
    }

    #[test]
    fn relaxed_without_cast_is_inventory_only() {
        let a = analyze_src("let n = c.load(Ordering::Relaxed);\nlet p = n as *mut u8;\n");
        // Load and cast are separate statements: heuristic does not fire.
        assert_eq!(a.count(Rule::Ordering), 0);
        assert_eq!(a.orderings.relaxed, 1);
    }

    #[test]
    fn acquire_cast_is_fine() {
        let a = analyze_src("let p = c.load(Ordering::Acquire) as *mut u8;\n");
        assert_eq!(a.count(Rule::Ordering), 0);
        assert_eq!(a.orderings.acquire, 1);
    }

    #[test]
    fn multiline_statement_is_one_run() {
        let a = analyze_src(
            "let p = head\n    .word(W)\n    .load(Ordering::Relaxed)\n    as *mut Node;\n",
        );
        assert_eq!(a.count(Rule::Ordering), 1);
    }

    #[test]
    fn inventory_counts_all_variants() {
        let a = analyze_src(
            "a.load(Ordering::Acquire);\nb.store(1, Ordering::Release);\nc.fetch_add(1, Ordering::AcqRel);\nd.load(Ordering::SeqCst);\ne.load(Ordering::Relaxed);\n",
        );
        assert_eq!(a.orderings.acquire, 1);
        assert_eq!(a.orderings.release, 1);
        assert_eq!(a.orderings.acq_rel, 1);
        assert_eq!(a.orderings.seq_cst, 1);
        assert_eq!(a.orderings.relaxed, 1);
        assert_eq!(a.orderings.total(), 5);
    }

    #[test]
    fn static_mut_is_forbidden() {
        let a = analyze_src("static mut COUNTER: u64 = 0;\n");
        assert_eq!(a.count(Rule::Forbidden), 1);
        let ok = analyze_src("static MUTEX: Mutex<u64> = Mutex::new(0);\nlet static_mutation = 1;\n");
        assert_eq!(ok.count(Rule::Forbidden), 0);
    }

    #[test]
    fn sleep_forbidden_outside_bench_and_tests() {
        let src = "fn spin() { std::thread::sleep(d); }\n";
        assert_eq!(analyze("crates/smr-core/src/pool.rs", src).count(Rule::Forbidden), 1);
        assert_eq!(analyze("crates/bench-harness/src/driver.rs", src).count(Rule::Forbidden), 0);
        assert_eq!(analyze("crates/bench-harness/src/bin/sweep.rs", src).count(Rule::Forbidden), 0);
    }

    #[test]
    fn sleep_allowed_in_cfg_test_module() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn t() { std::thread::sleep(d); }\n}\n";
        assert_eq!(analyze("crates/smr-core/src/x.rs", src).count(Rule::Forbidden), 0);
        let before = "fn f() { std::thread::sleep(d); }\n#[cfg(test)]\nmod tests {}\n";
        assert_eq!(
            analyze("crates/smr-core/src/x.rs", before).count(Rule::Forbidden),
            1,
            "sleep before the test module is still production code"
        );
    }

    #[test]
    fn async_crate_bans_sleep_and_park_even_in_tests() {
        let sleep = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn t() { std::thread::sleep(d); }\n}\n";
        assert_eq!(
            analyze("crates/smr-async/src/executor.rs", sleep).count(Rule::Forbidden),
            1,
            "the test-module exemption must not apply inside smr-async"
        );
        let park = "fn wait() { std::thread::park(); }\n";
        assert_eq!(
            analyze("crates/smr-async/src/queue.rs", park).count(Rule::Forbidden),
            1
        );
        let park_timeout = "fn wait() { std::thread::park_timeout(d); }\n";
        assert_eq!(
            analyze("crates/smr-async/src/reclaimer.rs", park_timeout).count(Rule::Forbidden),
            1
        );
        // Elsewhere `thread::park` stays legal (the blocking pool uses a
        // condvar, but parking a dedicated OS thread is not a lint matter).
        assert_eq!(analyze("crates/smr-core/src/pool.rs", park).count(Rule::Forbidden), 0);
        // Comments and docs never trip the rule.
        let comment = "// never call thread::sleep or thread::park here\nfn f() {}\n";
        assert_eq!(
            analyze("crates/smr-async/src/lib.rs", comment).count(Rule::Forbidden),
            0
        );
    }

    #[test]
    fn mem_forget_on_handles_is_forbidden() {
        let a = analyze_src("std::mem::forget(handle);\n");
        assert_eq!(a.count(Rule::Forbidden), 1);
        let g = analyze_src("std::mem::forget(pool_guard);\n");
        assert_eq!(g.count(Rule::Forbidden), 1);
        let ok = analyze_src("std::mem::forget(rollback);\n");
        assert_eq!(ok.count(Rule::Forbidden), 0);
    }

    #[test]
    fn violations_sorted_by_line() {
        let a = analyze_src("static mut A: u8 = 0;\nfn f(p: *mut u8) { unsafe { *p = 1 } }\nstatic mut B: u8 = 0;\n");
        let lines: Vec<usize> = a.violations.iter().map(|v| v.line).collect();
        let mut sorted = lines.clone();
        sorted.sort_unstable();
        assert_eq!(lines, sorted);
    }
}
