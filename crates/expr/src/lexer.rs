//! Lexer for Ark source text.
//!
//! Shared between the expression parser in this crate and the full language
//! parser in `ark-core`. The token set covers the grammar of Figure 6 of the
//! paper: identifiers, real/integer literals, hyphenated keywords
//! (`node-type`, `set-attr`, ...), punctuation, and operators.
//!
//! One deliberate deviation from the paper's surface syntax: user-defined
//! names (languages, functions, nodes) use `_` rather than `-` (`br_func`
//! instead of `br-func`), because `-` is the subtraction operator and the
//! paper itself writes expressions like `s.z-var(s)` where a hyphen-in-name
//! rule would be ambiguous. The hyphenated *keywords* of the grammar are
//! recognized explicitly.

use crate::error::ParseError;
use std::fmt;

/// Hyphenated keywords of the Ark grammar that the lexer fuses into a single
/// identifier token.
const HYPHEN_KEYWORDS: &[&str] = &[
    "node-type",
    "edge-type",
    "set-attr",
    "set-init",
    "set-switch",
    "set-edge",
    "extern-func",
    "init-val",
];

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    /// Identifier or keyword (keywords are distinguished by the parser).
    Ident(String),
    /// Numeric literal (integers and reals share a representation).
    Number(f64),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `,`
    Comma,
    /// `;`
    Semi,
    /// `:`
    Colon,
    /// `.`
    Dot,
    /// `<`
    Lt,
    /// `<=` (also the production-rule assignment `v <= e`)
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    EqEq,
    /// `!=`
    Ne,
    /// `=`
    Assign,
    /// `->`
    Arrow,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `^`
    Caret,
    /// End of input.
    Eof,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "{s}"),
            Tok::Number(x) => write!(f, "{x}"),
            Tok::LParen => write!(f, "("),
            Tok::RParen => write!(f, ")"),
            Tok::LBracket => write!(f, "["),
            Tok::RBracket => write!(f, "]"),
            Tok::LBrace => write!(f, "{{"),
            Tok::RBrace => write!(f, "}}"),
            Tok::Comma => write!(f, ","),
            Tok::Semi => write!(f, ";"),
            Tok::Colon => write!(f, ":"),
            Tok::Dot => write!(f, "."),
            Tok::Lt => write!(f, "<"),
            Tok::Le => write!(f, "<="),
            Tok::Gt => write!(f, ">"),
            Tok::Ge => write!(f, ">="),
            Tok::EqEq => write!(f, "=="),
            Tok::Ne => write!(f, "!="),
            Tok::Assign => write!(f, "="),
            Tok::Arrow => write!(f, "->"),
            Tok::Plus => write!(f, "+"),
            Tok::Minus => write!(f, "-"),
            Tok::Star => write!(f, "*"),
            Tok::Slash => write!(f, "/"),
            Tok::Caret => write!(f, "^"),
            Tok::Eof => write!(f, "<eof>"),
        }
    }
}

/// A token with its source position (1-based line and column).
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// The token kind and payload.
    pub tok: Tok,
    /// Line number (1-based).
    pub line: usize,
    /// Column number (1-based).
    pub col: usize,
}

/// Tokenize Ark source text.
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed numbers or unexpected characters.
///
/// # Examples
///
/// ```
/// use ark_expr::lexer::{tokenize, Tok};
/// let toks = tokenize("var(s) <= 1e-9")?;
/// assert_eq!(toks[0].tok, Tok::Ident("var".into()));
/// assert_eq!(toks.last().unwrap().tok, Tok::Eof);
/// # Ok::<(), ark_expr::ParseError>(())
/// ```
pub fn tokenize(src: &str) -> Result<Vec<Token>, ParseError> {
    let chars: Vec<char> = src.chars().collect();
    let mut toks = Vec::new();
    let mut i = 0;
    let mut line = 1;
    let mut col = 1;

    macro_rules! push {
        ($t:expr, $l:expr, $c:expr) => {
            toks.push(Token {
                tok: $t,
                line: $l,
                col: $c,
            })
        };
    }

    while i < chars.len() {
        let c = chars[i];
        let (tline, tcol) = (line, col);
        let advance = |i: &mut usize, line: &mut usize, col: &mut usize, n: usize| {
            for k in 0..n {
                if chars[*i + k] == '\n' {
                    *line += 1;
                    *col = 1;
                } else {
                    *col += 1;
                }
            }
            *i += n;
        };

        if c.is_whitespace() {
            advance(&mut i, &mut line, &mut col, 1);
            continue;
        }
        // Line comments: `//` and `#`.
        if c == '#' || (c == '/' && i + 1 < chars.len() && chars[i + 1] == '/') {
            while i < chars.len() && chars[i] != '\n' {
                advance(&mut i, &mut line, &mut col, 1);
            }
            continue;
        }
        // Block comments.
        if c == '/' && i + 1 < chars.len() && chars[i + 1] == '*' {
            advance(&mut i, &mut line, &mut col, 2);
            while i + 1 < chars.len() && !(chars[i] == '*' && chars[i + 1] == '/') {
                advance(&mut i, &mut line, &mut col, 1);
            }
            if i + 1 >= chars.len() {
                return Err(ParseError::new("unterminated block comment", tline, tcol));
            }
            advance(&mut i, &mut line, &mut col, 2);
            continue;
        }

        if c.is_ascii_digit() {
            let start = i;
            while i < chars.len() && chars[i].is_ascii_digit() {
                advance(&mut i, &mut line, &mut col, 1);
            }
            if i < chars.len()
                && chars[i] == '.'
                && i + 1 < chars.len()
                && chars[i + 1].is_ascii_digit()
            {
                advance(&mut i, &mut line, &mut col, 1);
                while i < chars.len() && chars[i].is_ascii_digit() {
                    advance(&mut i, &mut line, &mut col, 1);
                }
            }
            if i < chars.len() && (chars[i] == 'e' || chars[i] == 'E') {
                let mut j = i + 1;
                if j < chars.len() && (chars[j] == '+' || chars[j] == '-') {
                    j += 1;
                }
                if j < chars.len() && chars[j].is_ascii_digit() {
                    let n = j - i;
                    advance(&mut i, &mut line, &mut col, n);
                    while i < chars.len() && chars[i].is_ascii_digit() {
                        advance(&mut i, &mut line, &mut col, 1);
                    }
                }
            }
            let text: String = chars[start..i].iter().collect();
            let value: f64 = text
                .parse()
                .map_err(|_| ParseError::new(format!("malformed number `{text}`"), tline, tcol))?;
            push!(Tok::Number(value), tline, tcol);
            continue;
        }

        if c.is_alphabetic() || c == '_' {
            let start = i;
            while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                advance(&mut i, &mut line, &mut col, 1);
            }
            let mut word: String = chars[start..i].iter().collect();
            // Try to fuse hyphenated keywords (e.g. `set` + `-attr`).
            if i < chars.len() && chars[i] == '-' {
                let mut j = i + 1;
                while j < chars.len() && (chars[j].is_alphanumeric() || chars[j] == '_') {
                    j += 1;
                }
                let candidate: String = chars[start..j].iter().collect();
                if HYPHEN_KEYWORDS.contains(&candidate.as_str()) {
                    let n = j - i;
                    advance(&mut i, &mut line, &mut col, n);
                    word = candidate;
                }
            }
            push!(Tok::Ident(word), tline, tcol);
            continue;
        }

        let two: Option<Tok> = if i + 1 < chars.len() {
            match (c, chars[i + 1]) {
                ('<', '=') => Some(Tok::Le),
                ('>', '=') => Some(Tok::Ge),
                ('=', '=') => Some(Tok::EqEq),
                ('!', '=') => Some(Tok::Ne),
                ('-', '>') => Some(Tok::Arrow),
                _ => None,
            }
        } else {
            None
        };
        if let Some(t) = two {
            advance(&mut i, &mut line, &mut col, 2);
            push!(t, tline, tcol);
            continue;
        }

        let one = match c {
            '(' => Tok::LParen,
            ')' => Tok::RParen,
            '[' => Tok::LBracket,
            ']' => Tok::RBracket,
            '{' => Tok::LBrace,
            '}' => Tok::RBrace,
            ',' => Tok::Comma,
            ';' => Tok::Semi,
            ':' => Tok::Colon,
            '.' => Tok::Dot,
            '<' => Tok::Lt,
            '>' => Tok::Gt,
            '=' => Tok::Assign,
            '+' => Tok::Plus,
            '-' => Tok::Minus,
            '*' => Tok::Star,
            '/' => Tok::Slash,
            '^' => Tok::Caret,
            other => {
                return Err(ParseError::new(
                    format!("unexpected character `{other}`"),
                    tline,
                    tcol,
                ))
            }
        };
        advance(&mut i, &mut line, &mut col, 1);
        push!(one, tline, tcol);
    }
    toks.push(Token {
        tok: Tok::Eof,
        line,
        col,
    });
    Ok(toks)
}

/// A cursor over a token stream with save/restore for backtracking.
#[derive(Debug, Clone)]
pub struct Cursor<'a> {
    toks: &'a [Token],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Create a cursor at the start of a token stream.
    pub fn new(toks: &'a [Token]) -> Self {
        Cursor { toks, pos: 0 }
    }

    /// The current token.
    pub fn peek(&self) -> &Token {
        &self.toks[self.pos.min(self.toks.len() - 1)]
    }

    /// Advance and return the consumed token.
    ///
    /// Not an `Iterator`: the cursor never ends (it sticks at EOF) and
    /// supports save/restore, so `next` always yields a token.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Token {
        let t = self.peek().clone();
        if self.pos < self.toks.len() - 1 {
            self.pos += 1;
        }
        t
    }

    /// Current position, for [`Cursor::restore`].
    pub fn save(&self) -> usize {
        self.pos
    }

    /// Rewind to a previously saved position.
    pub fn restore(&mut self, pos: usize) {
        self.pos = pos;
    }

    /// True at end of input.
    pub fn at_eof(&self) -> bool {
        self.peek().tok == Tok::Eof
    }

    /// Consume a specific token or error.
    pub fn expect(&mut self, tok: &Tok) -> Result<Token, ParseError> {
        if &self.peek().tok == tok {
            Ok(self.next())
        } else {
            let t = self.peek();
            Err(ParseError::new(
                format!("expected `{tok}`, found `{}`", t.tok),
                t.line,
                t.col,
            ))
        }
    }

    /// Consume an identifier token and return its text.
    pub fn expect_ident(&mut self) -> Result<String, ParseError> {
        match self.peek().tok.clone() {
            Tok::Ident(s) => {
                self.next();
                Ok(s)
            }
            other => {
                let t = self.peek();
                Err(ParseError::new(
                    format!("expected identifier, found `{other}`"),
                    t.line,
                    t.col,
                ))
            }
        }
    }

    /// Consume a specific keyword (identifier with exact text) or error.
    pub fn expect_kw(&mut self, kw: &str) -> Result<(), ParseError> {
        match &self.peek().tok {
            Tok::Ident(s) if s == kw => {
                self.next();
                Ok(())
            }
            other => {
                let t = self.peek();
                Err(ParseError::new(
                    format!("expected `{kw}`, found `{other}`"),
                    t.line,
                    t.col,
                ))
            }
        }
    }

    /// If the current token equals `tok`, consume it and return true.
    pub fn eat(&mut self, tok: &Tok) -> bool {
        if &self.peek().tok == tok {
            self.next();
            true
        } else {
            false
        }
    }

    /// If the current token is the given keyword, consume it and return true.
    pub fn eat_kw(&mut self, kw: &str) -> bool {
        matches!(&self.peek().tok, Tok::Ident(s) if s == kw) && {
            self.next();
            true
        }
    }

    /// Build a [`ParseError`] at the current position.
    pub fn error(&self, msg: impl Into<String>) -> ParseError {
        let t = self.peek();
        ParseError::new(msg, t.line, t.col)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Tok> {
        tokenize(src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn lex_numbers() {
        assert_eq!(kinds("1"), vec![Tok::Number(1.0), Tok::Eof]);
        assert_eq!(kinds("1.5"), vec![Tok::Number(1.5), Tok::Eof]);
        assert_eq!(kinds("1e-9"), vec![Tok::Number(1e-9), Tok::Eof]);
        assert_eq!(kinds("1.5e+3"), vec![Tok::Number(1500.0), Tok::Eof]);
        // `1e` with no exponent digits lexes as number then ident.
        assert_eq!(
            kinds("1e"),
            vec![Tok::Number(1.0), Tok::Ident("e".into()), Tok::Eof]
        );
    }

    #[test]
    fn lex_hyphen_keywords() {
        assert_eq!(
            kinds("set-attr x"),
            vec![
                Tok::Ident("set-attr".into()),
                Tok::Ident("x".into()),
                Tok::Eof
            ]
        );
        assert_eq!(
            kinds("node-type edge-type extern-func"),
            vec![
                Tok::Ident("node-type".into()),
                Tok::Ident("edge-type".into()),
                Tok::Ident("extern-func".into()),
                Tok::Eof
            ]
        );
        // Non-keyword hyphens stay subtraction.
        assert_eq!(
            kinds("z-var"),
            vec![
                Tok::Ident("z".into()),
                Tok::Minus,
                Tok::Ident("var".into()),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn lex_operators() {
        assert_eq!(
            kinds("s<=-var(t)/s.c"),
            vec![
                Tok::Ident("s".into()),
                Tok::Le,
                Tok::Minus,
                Tok::Ident("var".into()),
                Tok::LParen,
                Tok::Ident("t".into()),
                Tok::RParen,
                Tok::Slash,
                Tok::Ident("s".into()),
                Tok::Dot,
                Tok::Ident("c".into()),
                Tok::Eof
            ]
        );
        assert_eq!(kinds("->"), vec![Tok::Arrow, Tok::Eof]);
        assert_eq!(
            kinds("== != >= <="),
            vec![Tok::EqEq, Tok::Ne, Tok::Ge, Tok::Le, Tok::Eof]
        );
    }

    #[test]
    fn lex_comments() {
        assert_eq!(
            kinds("1 // trailing\n2"),
            vec![Tok::Number(1.0), Tok::Number(2.0), Tok::Eof]
        );
        assert_eq!(kinds("# full line\n3"), vec![Tok::Number(3.0), Tok::Eof]);
        assert_eq!(
            kinds("1 /* x\ny */ 2"),
            vec![Tok::Number(1.0), Tok::Number(2.0), Tok::Eof]
        );
    }

    #[test]
    fn lex_error_reports_position() {
        let err = tokenize("a\n  $").unwrap_err();
        assert_eq!(err.line, 2);
        assert_eq!(err.col, 3);
    }

    #[test]
    fn unterminated_block_comment_errors() {
        assert!(tokenize("/* oops").is_err());
    }

    #[test]
    fn cursor_navigation() {
        let toks = tokenize("a b c").unwrap();
        let mut cur = Cursor::new(&toks);
        assert_eq!(cur.expect_ident().unwrap(), "a");
        let mark = cur.save();
        assert_eq!(cur.expect_ident().unwrap(), "b");
        cur.restore(mark);
        assert_eq!(cur.expect_ident().unwrap(), "b");
        assert!(cur.eat_kw("c"));
        assert!(cur.at_eof());
    }
}
