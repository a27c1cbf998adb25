//! A minimal Rust tokenizer — just enough syntax awareness for the four
//! invariant rules, and nothing more.
//!
//! The container is offline, so `syn` is not an option; it also is not
//! needed. The rules only have to distinguish *code* from comments and
//! string literals (so a `.unwrap()` in a doc example or an error message
//! never counts), resolve identifiers exactly (so banning `staircase` never
//! matches `staircase_next`), and keep line numbers for `file:line`
//! diagnostics. Everything structural (functions, impl headers, `#[cfg(test)]`
//! spans) is layered on top by [`crate::scanner`].
//!
//! Comments are not discarded: line comments are returned alongside the
//! token stream because the allowlist syntax
//! (`// lint:allow(rule): reason`) lives in them.

/// One lexed token.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// Classification (identifier, literal, single punctuation char, …).
    pub kind: TokenKind,
    /// Source text for identifiers and lifetimes; empty for the other kinds
    /// (rules never need literal or punctuation text beyond the kind).
    pub text: String,
    /// 1-indexed source line the token starts on.
    pub line: u32,
}

/// Token classification.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// Identifier or keyword (including raw `r#ident`, with the `r#` stripped).
    Ident,
    /// Numeric literal.
    Number,
    /// String, raw-string, byte-string or char literal.
    Literal,
    /// Lifetime such as `'a` (distinguished from char literals).
    Lifetime,
    /// A single punctuation character (`::` arrives as two `:` tokens).
    Punct(char),
}

/// A `//` comment with its line, used by the allowlist parser.
#[derive(Debug, Clone)]
pub struct LineComment {
    /// 1-indexed source line.
    pub line: u32,
    /// Comment text after the `//` (including any `/`/`!` doc markers).
    pub text: String,
}

/// The full lex of one file.
#[derive(Debug)]
pub struct Lexed {
    /// Code tokens in source order.
    pub tokens: Vec<Token>,
    /// Line comments in source order.
    pub comments: Vec<LineComment>,
}

/// Tokenizes Rust source. Unterminated literals/comments end the token at
/// end-of-file instead of failing: a lint must degrade gracefully on code
/// rustc itself would reject.
pub fn lex(src: &str) -> Lexed {
    let bytes: Vec<char> = src.chars().collect();
    let mut tokens = Vec::new();
    let mut comments = Vec::new();
    let mut line: u32 = 1;
    let mut i = 0usize;
    let n = bytes.len();

    let is_ident_start = |c: char| c.is_alphabetic() || c == '_';
    let is_ident_continue = |c: char| c.is_alphanumeric() || c == '_';

    while i < n {
        let c = bytes[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if i + 1 < n && bytes[i + 1] == '/' => {
                let start = i + 2;
                let mut j = start;
                while j < n && bytes[j] != '\n' {
                    j += 1;
                }
                comments.push(LineComment {
                    line,
                    text: bytes[start..j].iter().collect(),
                });
                i = j;
            }
            '/' if i + 1 < n && bytes[i + 1] == '*' => {
                // Nested block comments, tracking newlines for line counts.
                let mut depth = 1;
                let mut j = i + 2;
                while j < n && depth > 0 {
                    if bytes[j] == '\n' {
                        line += 1;
                        j += 1;
                    } else if bytes[j] == '/' && j + 1 < n && bytes[j + 1] == '*' {
                        depth += 1;
                        j += 2;
                    } else if bytes[j] == '*' && j + 1 < n && bytes[j + 1] == '/' {
                        depth -= 1;
                        j += 2;
                    } else {
                        j += 1;
                    }
                }
                i = j;
            }
            '"' => {
                let (j, newlines) = skip_string(&bytes, i);
                tokens.push(Token {
                    kind: TokenKind::Literal,
                    text: String::new(),
                    line,
                });
                line += newlines;
                i = j;
            }
            'r' | 'b' if raw_string_hashes(&bytes, i).is_some() => {
                let hashes = raw_string_hashes(&bytes, i).unwrap();
                let (j, newlines) = skip_raw_string(&bytes, i, hashes);
                tokens.push(Token {
                    kind: TokenKind::Literal,
                    text: String::new(),
                    line,
                });
                line += newlines;
                i = j;
            }
            '\'' => {
                // Lifetime or char literal. `'a` / `'static` are lifetimes;
                // `'x'`, `'\n'`, `'\u{7f}'` are char literals.
                if i + 1 < n && bytes[i + 1] == '\\' {
                    // Escaped char literal.
                    let mut j = i + 2;
                    while j < n && bytes[j] != '\'' {
                        j += 1;
                    }
                    tokens.push(Token {
                        kind: TokenKind::Literal,
                        text: String::new(),
                        line,
                    });
                    i = (j + 1).min(n);
                } else if i + 1 < n && is_ident_start(bytes[i + 1]) {
                    let mut j = i + 1;
                    while j < n && is_ident_continue(bytes[j]) {
                        j += 1;
                    }
                    if j < n && bytes[j] == '\'' {
                        // 'x' — single-ident-char literal closed by a quote.
                        tokens.push(Token {
                            kind: TokenKind::Literal,
                            text: String::new(),
                            line,
                        });
                        i = j + 1;
                    } else {
                        tokens.push(Token {
                            kind: TokenKind::Lifetime,
                            text: bytes[i + 1..j].iter().collect(),
                            line,
                        });
                        i = j;
                    }
                } else if i + 2 < n && bytes[i + 2] == '\'' {
                    // Non-ident char like '+'.
                    tokens.push(Token {
                        kind: TokenKind::Literal,
                        text: String::new(),
                        line,
                    });
                    i += 3;
                } else {
                    i += 1;
                }
            }
            c if is_ident_start(c) => {
                let start = if c == 'r' && i + 1 < n && bytes[i + 1] == '#' {
                    i + 2 // raw identifier r#ident
                } else {
                    i
                };
                let mut j = start.max(i);
                if start > i {
                    j = start;
                }
                while j < n && is_ident_continue(bytes[j]) {
                    j += 1;
                }
                if j == start && start > i {
                    // Lone `r#` — not an identifier after all.
                    tokens.push(Token {
                        kind: TokenKind::Punct('#'),
                        text: String::new(),
                        line,
                    });
                    i += 2;
                    continue;
                }
                tokens.push(Token {
                    kind: TokenKind::Ident,
                    text: bytes[start..j].iter().collect(),
                    line,
                });
                i = j;
            }
            c if c.is_ascii_digit() => {
                // Numbers including `1.5`, `1e-4`, `0xff`, `1_000u64`. A `.`
                // is part of the number only when followed by a digit, so
                // method calls like `1.0f64.ln()` still tokenize the `.ln`.
                let mut j = i + 1;
                while j < n {
                    let d = bytes[j];
                    if d.is_alphanumeric()
                        || d == '_'
                        || (d == '.' && j + 1 < n && bytes[j + 1].is_ascii_digit())
                    {
                        j += 1;
                    } else if (d == '+' || d == '-')
                        && matches!(bytes[j - 1], 'e' | 'E')
                        && bytes[i..j].iter().any(|&x| x == 'e' || x == 'E')
                    {
                        j += 1; // exponent sign in 1e-4
                    } else {
                        break;
                    }
                }
                tokens.push(Token {
                    kind: TokenKind::Number,
                    text: String::new(),
                    line,
                });
                i = j;
            }
            c => {
                tokens.push(Token {
                    kind: TokenKind::Punct(c),
                    text: String::new(),
                    line,
                });
                i += 1;
            }
        }
    }
    Lexed { tokens, comments }
}

/// If position `i` starts a raw (byte) string (`r"`, `r#"`, `br##"`, …),
/// returns the number of `#`s; otherwise `None`.
fn raw_string_hashes(bytes: &[char], i: usize) -> Option<usize> {
    let mut j = i;
    if bytes[j] == 'b' {
        j += 1;
    }
    if j >= bytes.len() || bytes[j] != 'r' {
        return None;
    }
    j += 1;
    let mut hashes = 0;
    while j < bytes.len() && bytes[j] == '#' {
        hashes += 1;
        j += 1;
    }
    (j < bytes.len() && bytes[j] == '"').then_some(hashes)
}

/// Skips a `"…"` literal starting at `i`; returns (index after the closing
/// quote, newlines inside).
fn skip_string(bytes: &[char], i: usize) -> (usize, u32) {
    let mut j = i + 1;
    let mut newlines = 0;
    while j < bytes.len() {
        match bytes[j] {
            '\\' => j += 2,
            '\n' => {
                newlines += 1;
                j += 1;
            }
            '"' => return (j + 1, newlines),
            _ => j += 1,
        }
    }
    (j, newlines)
}

/// Skips a raw string with `hashes` `#`s starting at `i` (at the `r`/`b`).
fn skip_raw_string(bytes: &[char], i: usize, hashes: usize) -> (usize, u32) {
    let mut j = i;
    while j < bytes.len() && bytes[j] != '"' {
        j += 1;
    }
    j += 1;
    let mut newlines = 0;
    while j < bytes.len() {
        if bytes[j] == '\n' {
            newlines += 1;
            j += 1;
        } else if bytes[j] == '"'
            && bytes[j + 1..]
                .iter()
                .take(hashes)
                .filter(|&&c| c == '#')
                .count()
                == hashes
        {
            return (j + 1 + hashes, newlines);
        } else {
            j += 1;
        }
    }
    (j, newlines)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn comments_and_strings_do_not_produce_idents() {
        let src = r##"
            // a comment mentioning unwrap() and panic!
            /* block with .expect("x") /* nested */ still comment */
            let s = "contains unwrap() inside";
            let r = r#"raw with .ln() inside"#;
            real_ident();
        "##;
        assert_eq!(idents(src), vec!["let", "s", "let", "r", "real_ident"]);
    }

    #[test]
    fn char_literals_vs_lifetimes() {
        let src = "fn f<'a>(x: &'a str) { let c = 'x'; let nl = '\\n'; }";
        let l = lex(src);
        let lifetimes: Vec<_> = l
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .map(|t| t.text.clone())
            .collect();
        assert_eq!(lifetimes, vec!["a", "a"]);
        let chars = l
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Literal)
            .count();
        assert_eq!(chars, 2);
    }

    #[test]
    fn line_numbers_survive_multiline_strings() {
        let src = "let a = \"line\nbreak\";\nmarker();";
        let l = lex(src);
        let marker = l
            .tokens
            .iter()
            .find(|t| t.text == "marker")
            .expect("marker token");
        assert_eq!(marker.line, 3);
    }

    #[test]
    fn line_comments_are_recorded() {
        let src = "code();\n// lint:allow(panic-freedom): reason\nmore();";
        let l = lex(src);
        assert_eq!(l.comments.len(), 1);
        assert_eq!(l.comments[0].line, 2);
        assert!(l.comments[0].text.contains("lint:allow"));
    }

    #[test]
    fn method_call_on_float_literal_keeps_ln_ident() {
        assert_eq!(idents("let x = 2.0f64.ln();"), vec!["let", "x", "ln"]);
    }

    #[test]
    fn numeric_exponents_do_not_eat_operators() {
        // `1e-4` is one number; `1 - 4` is three tokens.
        let l = lex("a(1e-4); b(1 - 4);");
        let minuses = l
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Punct('-'))
            .count();
        assert_eq!(minuses, 1);
    }
}
