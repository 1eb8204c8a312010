//! A minimal hand-rolled Rust lexer.
//!
//! The rule engine needs to know, for every interesting identifier, whether
//! it is *code* — a `println!` inside a string literal or a doc comment must
//! never trip the stdout-purity rule, and `// SAFETY:` rationales live in
//! comments that a token stream would otherwise discard. A grep cannot make
//! that distinction; this lexer exists precisely to make it.
//!
//! It is deliberately lossy about everything the rules do not need: numeric
//! literal values, multi-character operators (`::` is two `:` tokens) and
//! lifetimes all collapse into coarse token kinds. What it is *not* lossy
//! about is structure: comments (line, block, nested block), string literals
//! (cooked, raw `r#"…"#`, byte, byte-raw), char literals versus lifetimes,
//! and source line numbers are all tracked exactly.

/// Kind of a significant (non-trivia) token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword; the text is kept.
    Ident,
    /// A single punctuation character.
    Punct(char),
    /// Any literal: string, raw string, byte string, char, number, lifetime.
    Lit,
}

/// One significant token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Tok {
    /// What the token is.
    pub kind: TokKind,
    /// Identifier text; empty for punctuation and literals.
    pub text: String,
    /// 1-based line of the token's first character.
    pub line: u32,
}

/// A comment (line or block) with the lines it spans.
#[derive(Debug, Clone)]
pub struct Comment {
    /// 1-based line of the `//` or `/*`.
    pub line: u32,
    /// 1-based line of the comment's last character.
    pub end_line: u32,
    /// Full comment text including the delimiters.
    pub text: String,
}

/// Lexer output: the significant tokens and the comments, both in source
/// order.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Significant tokens (comments and whitespace removed).
    pub toks: Vec<Tok>,
    /// All comments, for annotation and `// SAFETY:` analysis.
    pub comments: Vec<Comment>,
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_char(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Lexes `src` into tokens and comments. Malformed input (an unterminated
/// string, say) never panics: the lexer consumes to end of input and the
/// caller sees whatever tokens came before.
pub fn lex(src: &str) -> Lexed {
    let b = src.as_bytes();
    let n = b.len();
    let mut i = 0usize;
    let mut line = 1u32;
    let mut out = Lexed::default();

    while i < n {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b' ' | b'\t' | b'\r' => i += 1,
            b'/' if i + 1 < n && b[i + 1] == b'/' => {
                let start = i;
                while i < n && b[i] != b'\n' {
                    i += 1;
                }
                out.comments.push(Comment {
                    line,
                    end_line: line,
                    text: src[start..i].to_string(),
                });
            }
            b'/' if i + 1 < n && b[i + 1] == b'*' => {
                let start = i;
                let start_line = line;
                i += 2;
                let mut depth = 1u32;
                while i < n && depth > 0 {
                    if b[i] == b'\n' {
                        line += 1;
                        i += 1;
                    } else if b[i] == b'/' && i + 1 < n && b[i + 1] == b'*' {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && i + 1 < n && b[i + 1] == b'/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                out.comments.push(Comment {
                    line: start_line,
                    end_line: line,
                    text: src[start..i].to_string(),
                });
            }
            b'"' => {
                let start_line = line;
                i = consume_cooked_string(b, i, &mut line);
                out.toks.push(lit(start_line));
            }
            b'\'' => {
                let start_line = line;
                i = consume_quote(b, i, &mut line);
                out.toks.push(lit(start_line));
            }
            b'r' | b'b' if starts_string_like(b, i) => {
                let start_line = line;
                i = consume_string_like(b, i, &mut line);
                out.toks.push(lit(start_line));
            }
            _ if is_ident_start(c) => {
                let start = i;
                while i < n && is_ident_char(b[i]) {
                    i += 1;
                }
                out.toks.push(Tok {
                    kind: TokKind::Ident,
                    text: src[start..i].to_string(),
                    line,
                });
            }
            _ if c.is_ascii_digit() => {
                i += 1;
                while i < n && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                // A fraction part: `1.5`, but not the range `0..n` or the
                // field access `tuple.0` (handled as separate tokens).
                if i + 1 < n && b[i] == b'.' && b[i + 1].is_ascii_digit() {
                    i += 1;
                    while i < n && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                        i += 1;
                    }
                }
                out.toks.push(lit(line));
            }
            _ => {
                out.toks.push(Tok {
                    kind: TokKind::Punct(c as char),
                    text: String::new(),
                    line,
                });
                i += 1;
            }
        }
    }
    out
}

fn lit(line: u32) -> Tok {
    Tok {
        kind: TokKind::Lit,
        text: String::new(),
        line,
    }
}

/// Does position `i` (at `r` or `b`) begin a raw/byte string or byte char?
fn starts_string_like(b: &[u8], i: usize) -> bool {
    let n = b.len();
    match b[i] {
        b'r' => {
            // r"…" or r#…"
            let mut j = i + 1;
            while j < n && b[j] == b'#' {
                j += 1;
            }
            j < n && b[j] == b'"' && (j > i + 1 || b[i + 1] == b'"')
        }
        b'b' => {
            if i + 1 >= n {
                return false;
            }
            match b[i + 1] {
                b'"' | b'\'' => true,
                b'r' => {
                    let mut j = i + 2;
                    while j < n && b[j] == b'#' {
                        j += 1;
                    }
                    j < n && b[j] == b'"'
                }
                _ => false,
            }
        }
        _ => false,
    }
}

/// Consumes a `r…`/`b…` string-like literal starting at `i`; returns the
/// index just past it.
fn consume_string_like(b: &[u8], i: usize, line: &mut u32) -> usize {
    let n = b.len();
    let mut j = i;
    if b[j] == b'b' {
        j += 1;
    }
    if j < n && b[j] == b'\'' {
        return consume_quote(b, j, line);
    }
    if j < n && b[j] == b'r' {
        j += 1;
        let mut hashes = 0usize;
        while j < n && b[j] == b'#' {
            hashes += 1;
            j += 1;
        }
        if j < n && b[j] == b'"' {
            j += 1;
            // Scan for `"` followed by `hashes` hash marks.
            while j < n {
                if b[j] == b'\n' {
                    *line += 1;
                    j += 1;
                } else if b[j] == b'"' && b[j + 1..].iter().take(hashes).filter(|&&h| h == b'#').count() == hashes {
                    return j + 1 + hashes;
                } else {
                    j += 1;
                }
            }
        }
        return j;
    }
    consume_cooked_string(b, j, line)
}

/// Consumes a cooked string starting at the opening `"` at `i`.
fn consume_cooked_string(b: &[u8], i: usize, line: &mut u32) -> usize {
    let n = b.len();
    let mut j = i + 1;
    while j < n {
        match b[j] {
            b'\\' => {
                // An escaped newline continues the string on the next line;
                // it is still a line.
                if b.get(j + 1) == Some(&b'\n') {
                    *line += 1;
                }
                j += 2;
            }
            b'\n' => {
                *line += 1;
                j += 1;
            }
            b'"' => return j + 1,
            _ => j += 1,
        }
    }
    j
}

/// Consumes a `'`-introduced token at `i`: a char literal or a lifetime.
fn consume_quote(b: &[u8], i: usize, line: &mut u32) -> usize {
    let n = b.len();
    let j = i + 1;
    if j >= n {
        return n;
    }
    if b[j] == b'\\' {
        // Escaped char literal: scan to the closing quote.
        let mut k = j + 2;
        while k < n && b[k] != b'\'' {
            if b[k] == b'\n' {
                *line += 1;
            }
            k += 1;
        }
        return (k + 1).min(n);
    }
    if is_ident_start(b[j]) {
        let mut k = j;
        while k < n && is_ident_char(b[k]) {
            k += 1;
        }
        if k < n && b[k] == b'\'' {
            return k + 1; // 'a'
        }
        return k; // 'lifetime
    }
    // A punctuation char literal like '(' — or a stray quote.
    if j + 1 < n && b[j + 1] == b'\'' {
        return j + 2;
    }
    i + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .toks
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn strings_and_comments_hide_identifiers() {
        let src = r###"
            // println! in a comment
            /* vec! in /* a nested */ block */
            let s = "println!(\"not code\")";
            let r = r#"dbg! "quoted" stuff"#;
            let b = b"format!";
            eprintln!("ok");
        "###;
        let ids = idents(src);
        assert!(ids.contains(&"eprintln".to_string()));
        assert!(!ids.contains(&"println".to_string()));
        assert!(!ids.contains(&"vec".to_string()));
        assert!(!ids.contains(&"dbg".to_string()));
        assert!(!ids.contains(&"format".to_string()));
    }

    #[test]
    fn char_literals_versus_lifetimes() {
        let src = "fn f<'a>(x: &'a str) { let c = 'x'; let q = '\\''; let nl = '\\n'; }";
        let ids = idents(src);
        // Lifetimes and char literals both collapse into opaque `Lit`
        // tokens; the identifiers around them must survive untouched.
        assert_eq!(
            ids,
            ["fn", "f", "x", "str", "let", "c", "let", "q", "let", "nl"]
        );
    }

    #[test]
    fn line_numbers_survive_multiline_constructs() {
        let src = "a\n/* two\nlines */\nb\n\"str\ning\"\nc";
        let toks = lex(src).toks;
        let a = toks.iter().find(|t| t.text == "a").unwrap();
        let b = toks.iter().find(|t| t.text == "b").unwrap();
        let c = toks.iter().find(|t| t.text == "c").unwrap();
        assert_eq!((a.line, b.line, c.line), (1, 4, 7));
    }

    #[test]
    fn continued_string_keeps_the_allow_on_its_fn() {
        let src = "const S: &str = \"one \\\n    two\";\n// an2-lint: allow(panic-freedom) reason\nfn f() {}\n";
        let lexed = lex(src);
        let allow = &lexed.comments[0];
        let f = lexed.toks.iter().find(|t| t.text == "f").unwrap();
        assert_eq!((allow.line, f.line), (3, 4));
    }

    #[test]
    fn comment_spans_are_recorded() {
        let src = "x\n// one\n/* a\nb */\ny";
        let com = lex(src).comments;
        assert_eq!(com.len(), 2);
        assert_eq!((com[0].line, com[0].end_line), (2, 2));
        assert_eq!((com[1].line, com[1].end_line), (3, 4));
        assert!(com[1].text.contains("a\nb"));
    }

    #[test]
    fn numbers_do_not_eat_ranges() {
        let src = "for i in 0..n { let x = 1.5e3; let y = t.0; }";
        let toks = lex(src);
        let dots = toks
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Punct('.'))
            .count();
        assert_eq!(dots, 3); // two from `..`, one from `t.0`
    }
}
