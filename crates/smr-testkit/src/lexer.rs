//! A comment- and literal-aware split view of a Rust source file, for the
//! line-oriented checks in [`crate::rules`].
//!
//! For every line, [`lex`] keeps the code text with comments and the
//! contents of string and char literals blanked to spaces, and separately the
//! comment text. Blanking instead of deleting keeps every surviving character
//! in its original line and column, so a finding points at a real source
//! line. Handled: line and doc comments, nested block comments, strings with
//! escapes, raw strings with any number of `#`s, the byte forms `b"…"` and
//! `br#"…"#`, and char literals (`'a'`, `'\n'`, `'\u{1F600}'`, `b'x'`) told
//! apart from lifetimes (`'a` in `&'a T`).

/// The split view of one source file, one entry per line.
#[derive(Debug, Clone)]
pub struct Lexed {
    /// Per-line code text, comments and literal contents blanked.
    pub code: Vec<String>,
    /// Per-line comment text (the bodies of every comment on that line).
    pub comments: Vec<String>,
}

/// What a source character is, for [`Lexed::push`].
#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Code,
    Comment,
    Literal,
}

impl Lexed {
    /// Number of lines in the file.
    pub fn line_count(&self) -> usize {
        self.code.len()
    }

    /// The code text of 1-indexed `line` (empty past either end).
    pub fn code_line(&self, line: usize) -> &str {
        line.checked_sub(1)
            .and_then(|i| self.code.get(i))
            .map_or("", String::as_str)
    }

    /// The comment text of 1-indexed `line` (empty past either end).
    pub fn comment_line(&self, line: usize) -> &str {
        line.checked_sub(1)
            .and_then(|i| self.comments.get(i))
            .map_or("", String::as_str)
    }

    fn push(&mut self, c: char, kind: Kind) {
        if c == '\n' {
            self.code.push(String::new());
            self.comments.push(String::new());
            return;
        }
        let code = self.code.last_mut().expect("one line at least");
        code.push(if kind == Kind::Code { c } else { ' ' });
        if kind == Kind::Comment {
            self.comments.last_mut().expect("one line at least").push(c);
        }
    }

    fn push_all(&mut self, chars: &[char], kind: Kind) {
        for &c in chars {
            self.push(c, kind);
        }
    }
}

/// Lexes one file into its code/comment split view.
pub fn lex(src: &str) -> Lexed {
    let chars: Vec<char> = src.chars().collect();
    let n = chars.len();
    let at = |i: usize| chars.get(i).copied();
    let mut out = Lexed {
        code: vec![String::new()],
        comments: vec![String::new()],
    };
    // True after a character that can end an identifier or a literal: `r`
    // or `b` then continues a word instead of opening a string prefix.
    let mut prev_ident = false;
    let mut i = 0;
    while i < n {
        let c = chars[i];
        let raw = if prev_ident {
            None
        } else {
            raw_string_start(&chars[i..])
        };
        if c == '/' && at(i + 1) == Some('/') {
            out.push_all(&[' ', ' '], Kind::Literal);
            i += 2;
            while i < n && chars[i] != '\n' {
                out.push(chars[i], Kind::Comment);
                i += 1;
            }
        } else if c == '/' && at(i + 1) == Some('*') {
            out.push_all(&[' ', ' '], Kind::Literal);
            i += 2;
            let mut depth = 1;
            while i < n {
                let pair = (chars[i], at(i + 1));
                if pair == ('/', Some('*')) || pair == ('*', Some('/')) {
                    depth += if pair.0 == '/' { 1 } else { -1 };
                    let kind = if depth == 0 {
                        Kind::Literal
                    } else {
                        Kind::Comment
                    };
                    out.push_all(&chars[i..i + 2], kind);
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    out.push(chars[i], Kind::Comment);
                    i += 1;
                }
            }
        } else if let Some((hashes, open)) = raw {
            out.push_all(&chars[i..i + open - 1], Kind::Literal);
            out.push('"', Kind::Code);
            i += open;
            while i < n && !(chars[i] == '"' && closes_raw(&chars[i + 1..], hashes)) {
                out.push(chars[i], Kind::Literal);
                i += 1;
            }
            if i < n {
                out.push('"', Kind::Code);
                let end = (i + 1 + hashes).min(n);
                out.push_all(&chars[i + 1..end], Kind::Literal);
                i = end;
            }
        } else if c == '"' || (!prev_ident && c == 'b' && at(i + 1) == Some('"')) {
            if c == 'b' {
                out.push(c, Kind::Literal);
                i += 1;
            }
            out.push('"', Kind::Code);
            i += 1;
            while i < n && chars[i] != '"' {
                // An escape covers the next character: `\"` does not close.
                let len = if chars[i] == '\\' { 2 } else { 1 };
                out.push_all(&chars[i..(i + len).min(n)], Kind::Literal);
                i += len;
            }
            if i < n {
                out.push('"', Kind::Code);
                i += 1;
            }
            prev_ident = false;
            continue;
        } else if c == '\'' && at(i + 1) == Some('\\') {
            // An escaped char literal runs to its closing quote.
            out.push('\'', Kind::Code);
            i += 1;
            let mut end = (i + 2).min(n);
            while end < n && chars[end] != '\'' && chars[end] != '\n' {
                end += 1;
            }
            out.push_all(&chars[i..end], Kind::Literal);
            i = end;
            if at(i) == Some('\'') {
                out.push('\'', Kind::Code);
                i += 1;
            }
            prev_ident = true;
            continue;
        } else if c == '\'' && at(i + 2) == Some('\'') && at(i + 1) != Some('\'') {
            out.push('\'', Kind::Code);
            out.push(chars[i + 1], Kind::Literal);
            out.push('\'', Kind::Code);
            i += 3;
            prev_ident = true;
            continue;
        } else {
            // Code, including a lifetime's quote.
            out.push(c, Kind::Code);
            prev_ident = c.is_alphanumeric() || c == '_';
            i += 1;
            continue;
        }
        prev_ident = false;
    }
    out
}

/// If `chars` opens a raw string (`r`, `br`, then zero or more `#`s and a
/// quote), returns `(hash_count, chars_through_the_quote)`.
fn raw_string_start(chars: &[char]) -> Option<(usize, usize)> {
    let r = usize::from(chars.first() == Some(&'b'));
    if chars.get(r) != Some(&'r') {
        return None;
    }
    let hashes = chars[r + 1..].iter().take_while(|&&c| c == '#').count();
    (chars.get(r + 1 + hashes) == Some(&'"')).then_some((hashes, r + 2 + hashes))
}

/// True when `rest` starts with `hashes` `#`s.
fn closes_raw(rest: &[char], hashes: usize) -> bool {
    rest.len() >= hashes && rest[..hashes].iter().all(|&c| c == '#')
}

#[cfg(test)]
mod tests {
    use super::*;

    fn joined_code(src: &str) -> String {
        lex(src).code.join("\n")
    }

    fn joined_comments(src: &str) -> String {
        lex(src).comments.join("\n")
    }

    #[test]
    fn line_comments_are_not_code() {
        let src = "let x = 1; // unsafe { }\n";
        assert!(!joined_code(src).contains("unsafe"));
        assert!(joined_comments(src).contains("unsafe { }"));
    }

    #[test]
    fn doc_comments_with_code_fences_are_comments() {
        let src = "/// ```\n/// unsafe { h.retire(node) };\n/// ```\nfn f() {}\n";
        assert!(!joined_code(src).contains("unsafe"));
        assert!(joined_comments(src).contains("unsafe { h.retire"));
    }

    #[test]
    fn nested_block_comments() {
        let src = "/* outer /* inner unsafe */ still comment */ unsafe {}\n";
        let code = joined_code(src);
        assert!(code.contains("unsafe {}"));
        assert_eq!(code.matches("unsafe").count(), 1, "only the real one");
        assert!(joined_comments(src).contains("inner unsafe"));
    }

    #[test]
    fn unterminated_block_comment_swallows_rest() {
        let src = "/* open\nunsafe {}\n";
        assert!(!joined_code(src).contains("unsafe"));
    }

    #[test]
    fn plain_strings_are_blanked() {
        let src = "let s = \"unsafe { // not a comment\"; unsafe {}\n";
        let code = joined_code(src);
        assert_eq!(code.matches("unsafe").count(), 1);
        assert!(!joined_comments(src).contains("not"));
    }

    #[test]
    fn escaped_quote_does_not_close_string() {
        let src = r#"let s = "a\"unsafe"; let t = 1;"#;
        assert!(!joined_code(src).contains("unsafe"));
        assert!(joined_code(src).contains("let t = 1;"));
    }

    #[test]
    fn raw_string_with_unsafe_inside() {
        let src = "let s = r#\"unsafe { static mut X }\"#; unsafe {}\n";
        let code = joined_code(src);
        assert_eq!(code.matches("unsafe").count(), 1);
        assert!(!code.contains("static mut"));
    }

    #[test]
    fn raw_string_hash_nesting() {
        // The `"#` inside must not close an `r##"…"##` string.
        let src = "let s = r##\"inner \"# unsafe \"##; let y = 2;\n";
        let code = joined_code(src);
        assert!(!code.contains("unsafe"));
        assert!(code.contains("let y = 2;"));
    }

    #[test]
    fn multi_line_raw_string() {
        let src = "let s = r#\"line one\nunsafe {\nline three\"#;\nlet z = 3;\n";
        let code = joined_code(src);
        assert!(!code.contains("unsafe"));
        assert!(code.contains("let z = 3;"));
        // Line structure preserved: 5 lines in, 5 lines out.
        assert_eq!(lex(src).code.len(), 5);
    }

    #[test]
    fn byte_strings_and_byte_raw_strings() {
        let src = "let a = b\"unsafe\"; let b2 = br#\"unsafe\"#; fn f() {}\n";
        let code = joined_code(src);
        assert!(!code.contains("unsafe"));
        assert!(code.contains("fn f() {}"));
    }

    #[test]
    fn identifier_ending_in_r_before_string() {
        // `bar` ends in `r`, but `bar, "…"` must not derail into a raw string.
        let src = "foo(bar, \"unsafe\");\n";
        assert!(!joined_code(src).contains("unsafe"));
    }

    #[test]
    fn char_literals_vs_lifetimes() {
        let src = "let c = '\"'; let q = '\\''; fn f<'a>(x: &'a str) {} let s = \"unsafe\";\n";
        let code = joined_code(src);
        assert!(
            !code.contains("unsafe"),
            "quote char literal must not open a string"
        );
        assert!(code.contains("fn f<'a>(x: &'a str) {}"));
    }

    #[test]
    fn unicode_escape_char_literal() {
        let src = "let c = '\\u{1F600}'; let s = \"unsafe\";\n";
        assert!(!joined_code(src).contains("unsafe"));
    }

    #[test]
    fn comment_markers_survive_per_line() {
        let src = "// ORDERING: fine\nunsafe { x() };\n";
        let l = lex(src);
        assert!(l.comment_line(1).contains("ORDERING:"));
        assert!(l.code_line(2).contains("unsafe {"));
        assert!(l.comment_line(2).is_empty());
    }

    #[test]
    fn columns_preserved_by_blanking() {
        let src = "let x = \"ab\"; unsafe {}\n";
        let l = lex(src);
        // The `unsafe` keyword must still start at its original column.
        assert_eq!(l.code_line(1).find("unsafe"), src.find("unsafe"));
    }
}
