//! A minimal Rust lexer: just enough token structure for the lint rule.
//!
//! Produces identifiers, string literals and punctuation with line/column
//! spans, and separately collects comments (for suppression parsing).
//! Deliberately not a parser: the rule matches token *sequences*, which is
//! robust to formatting and needs no `syn`.

/// Kind of a lexed token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// String literal (text carries the inner contents, escapes untouched).
    StrLit,
    /// Numeric literal (contents irrelevant to every rule).
    Number,
    /// Single punctuation character.
    Punct,
}

/// One lexed token with its source position (1-based line and column).
#[derive(Debug, Clone)]
pub struct Tok {
    /// What kind of token this is.
    pub kind: TokKind,
    /// The token text (for strings: inner contents without quotes).
    pub text: String,
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column.
    pub col: u32,
}

impl Tok {
    /// Whether this token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// Whether this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == 1 && self.text.starts_with(c)
    }
}

/// One comment (line or block), with the line it starts on.
#[derive(Debug, Clone)]
pub struct Comment {
    /// Comment text without the `//` / `/*` markers, trimmed.
    pub text: String,
    /// 1-based line the comment starts on.
    pub line: u32,
}

/// Lexed view of one source file.
#[derive(Debug)]
pub struct Lexed {
    /// Token stream in source order.
    pub toks: Vec<Tok>,
    /// All comments in source order.
    pub comments: Vec<Comment>,
}

struct Cursor<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
}

impl<'a> Cursor<'a> {
    fn peek(&self, ahead: usize) -> Option<u8> {
        self.src.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.src.get(self.pos).copied()?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }
}

fn is_ident_start(c: u8) -> bool {
    c.is_ascii_alphabetic() || c == b'_'
}

fn is_ident_cont(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// Lex `src` into tokens and comments.
pub fn lex(src: &str) -> Lexed {
    let mut cur = Cursor {
        src: src.as_bytes(),
        pos: 0,
        line: 1,
        col: 1,
    };
    let mut toks = Vec::new();
    let mut comments = Vec::new();

    while let Some(c) = cur.peek(0) {
        let (line, col) = (cur.line, cur.col);
        match c {
            b' ' | b'\t' | b'\r' | b'\n' => {
                cur.bump();
            }
            b'/' if cur.peek(1) == Some(b'/') => {
                let mut text = String::new();
                while let Some(c) = cur.peek(0) {
                    if c == b'\n' {
                        break;
                    }
                    text.push(cur.bump().unwrap() as char);
                }
                let trimmed = text.trim_start_matches('/').trim_start_matches('!');
                comments.push(Comment {
                    text: trimmed.trim().to_string(),
                    line,
                });
            }
            b'/' if cur.peek(1) == Some(b'*') => {
                // Block comments nest in Rust.
                let mut depth = 0usize;
                let mut text = String::new();
                while let Some(c) = cur.peek(0) {
                    if c == b'/' && cur.peek(1) == Some(b'*') {
                        depth += 1;
                        cur.bump();
                        cur.bump();
                    } else if c == b'*' && cur.peek(1) == Some(b'/') {
                        cur.bump();
                        cur.bump();
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    } else {
                        text.push(cur.bump().unwrap() as char);
                    }
                }
                comments.push(Comment {
                    text: text.trim_matches(['*', '!', ' ', '\n']).to_string(),
                    line,
                });
            }
            b'"' => {
                cur.bump();
                let mut text = String::new();
                while let Some(c) = cur.peek(0) {
                    if c == b'\\' {
                        text.push(cur.bump().unwrap() as char);
                        if cur.peek(0).is_some() {
                            text.push(cur.bump().unwrap() as char);
                        }
                    } else if c == b'"' {
                        cur.bump();
                        break;
                    } else {
                        text.push(cur.bump().unwrap() as char);
                    }
                }
                toks.push(Tok {
                    kind: TokKind::StrLit,
                    text,
                    line,
                    col,
                });
            }
            b'r' if matches!(cur.peek(1), Some(b'"') | Some(b'#')) => {
                // Raw string r"..." / r#"..."# (any hash depth); fall back
                // to an identifier when it is not actually a raw string.
                let mut hashes = 0usize;
                while cur.peek(1 + hashes) == Some(b'#') {
                    hashes += 1;
                }
                if cur.peek(1 + hashes) == Some(b'"') {
                    cur.bump(); // r
                    for _ in 0..hashes {
                        cur.bump();
                    }
                    cur.bump(); // opening quote
                    let mut text = String::new();
                    'raw: while let Some(c) = cur.peek(0) {
                        if c == b'"' {
                            let mut ok = true;
                            for i in 0..hashes {
                                if cur.peek(1 + i) != Some(b'#') {
                                    ok = false;
                                    break;
                                }
                            }
                            if ok {
                                cur.bump();
                                for _ in 0..hashes {
                                    cur.bump();
                                }
                                break 'raw;
                            }
                        }
                        text.push(cur.bump().unwrap() as char);
                    }
                    toks.push(Tok {
                        kind: TokKind::StrLit,
                        text,
                        line,
                        col,
                    });
                } else {
                    lex_ident(&mut cur, &mut toks, line, col);
                }
            }
            b'\'' => {
                // Lifetime ('a) vs char literal ('x', '\n'). A lifetime is
                // a quote followed by an identifier NOT closed by a quote.
                let is_lifetime =
                    cur.peek(1).map(is_ident_start).unwrap_or(false) && cur.peek(2) != Some(b'\'');
                cur.bump();
                if is_lifetime {
                    while cur.peek(0).map(is_ident_cont).unwrap_or(false) {
                        cur.bump();
                    }
                } else {
                    // Char literal: consume to the closing quote.
                    if cur.peek(0) == Some(b'\\') {
                        cur.bump();
                        cur.bump();
                    } else {
                        cur.bump();
                    }
                    if cur.peek(0) == Some(b'\'') {
                        cur.bump();
                    }
                }
            }
            c if is_ident_start(c) => lex_ident(&mut cur, &mut toks, line, col),
            c if c.is_ascii_digit() => {
                let mut text = String::new();
                while let Some(c) = cur.peek(0) {
                    let fractional_dot =
                        c == b'.' && cur.peek(1).map(|d| d.is_ascii_digit()).unwrap_or(false);
                    if is_ident_cont(c) || fractional_dot {
                        text.push(cur.bump().unwrap() as char);
                    } else {
                        break;
                    }
                }
                toks.push(Tok {
                    kind: TokKind::Number,
                    text,
                    line,
                    col,
                });
            }
            _ => {
                cur.bump();
                toks.push(Tok {
                    kind: TokKind::Punct,
                    text: (c as char).to_string(),
                    line,
                    col,
                });
            }
        }
    }

    Lexed { toks, comments }
}

fn lex_ident(cur: &mut Cursor<'_>, toks: &mut Vec<Tok>, line: u32, col: u32) {
    let mut text = String::new();
    while cur.peek(0).map(is_ident_cont).unwrap_or(false) {
        text.push(cur.bump().unwrap() as char);
    }
    toks.push(Tok {
        kind: TokKind::Ident,
        text,
        line,
        col,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexes_idents_strings_and_puncts() {
        let l = lex(r#"let x = obs.counter("aggbox.tasks_executed"); // note"#);
        let idents: Vec<&str> = l
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(idents, vec!["let", "x", "obs", "counter"]);
        let s: Vec<&str> = l
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::StrLit)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(s, vec!["aggbox.tasks_executed"]);
        assert_eq!(l.comments.len(), 1);
        assert_eq!(l.comments[0].text, "note");
    }

    #[test]
    fn comments_and_strings_hide_tokens() {
        let l = lex("// thread::spawn\n/* thread::spawn */\nlet s = \"thread::spawn\";");
        assert!(!l.toks.iter().any(|t| t.is_ident("thread")));
    }

    #[test]
    fn lifetimes_do_not_eat_source() {
        let l = lex("fn f<'a>(x: &'a str) -> &'a str { x }");
        assert!(l.toks.iter().any(|t| t.is_ident("str")));
        let l2 = lex("let c = 'x'; let n = '\\n'; let ident_after = 1;");
        assert!(l2.toks.iter().any(|t| t.is_ident("ident_after")));
    }

    #[test]
    fn raw_strings_lex_as_one_literal() {
        let l = lex(r##"let s = r#"with "quotes" inside"#; let after = 2;"##);
        assert!(l
            .toks
            .iter()
            .any(|t| t.kind == TokKind::StrLit && t.text.contains("quotes")));
        assert!(l.toks.iter().any(|t| t.is_ident("after")));
    }

    #[test]
    fn line_and_col_are_one_based_and_accurate() {
        let l = lex("a\n  b");
        assert_eq!((l.toks[0].line, l.toks[0].col), (1, 1));
        assert_eq!((l.toks[1].line, l.toks[1].col), (2, 3));
    }
}
