//! A hand-written, zero-copy Verilog lexer.
//!
//! The lexer recognises identifiers (plain, escaped and system), numeric
//! literals (decimal, based and real), string literals, the operator set of
//! the synthesisable subset, and skips whitespace, comments, attribute
//! instances `(* ... *)` and compiler directives (`` `define``, `` `include``
//! and friends are consumed to end of line; `` `timescale`` likewise).
//!
//! Unlike the retired reference frontend, tokens
//! carry no owned `String`s: identifiers are interned to `Copy`
//! [`Symbol`](crate::intern::Symbol) ids, numbers and strings are
//! `(offset, len)` [`Span`]s into the source, and operators are the
//! fieldless [`Op`] enum matched by a first-byte dispatch instead of a
//! linear scan over a string table. The only per-token allocation left is
//! the first interning of each distinct identifier spelling.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::intern::Interner;
use crate::token::{Keyword, Op, Span, Token, TokenKind};

/// Counts every full lex of a source buffer (the entry point of every
/// parse) since process start. The curation tests use the delta across a
/// pipeline run to assert the parse-once contract: syntax filter + lint
/// stage together perform exactly one lex+parse per file.
static LEX_PASSES: AtomicU64 = AtomicU64::new(0);

/// Byte-class table for the scanning hot loops: one unbranched load decides
/// whether a byte continues an identifier ( alnum, `_`, `$` ).
static IDENT_CONT: [bool; 256] = {
    let mut table = [false; 256];
    let mut b = 0usize;
    while b < 256 {
        let c = b as u8;
        table[b] = c.is_ascii_alphanumeric() || c == b'_' || c == b'$';
        b += 1;
    }
    table
};

/// Number of full lex passes (and therefore frontend parses, which always
/// start with one) performed by this process so far.
pub fn lex_passes() -> u64 {
    LEX_PASSES.load(Ordering::Relaxed)
}

/// An error produced while lexing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// Human-readable description of the problem.
    pub message: String,
    /// 1-based line where the error occurred.
    pub line: usize,
    /// 1-based column where the error occurred.
    pub column: usize,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "lex error at {}:{}: {}",
            self.line, self.column, self.message
        )
    }
}

impl std::error::Error for LexError {}

/// The output of a full lex: the token stream and the identifier interner
/// that resolves its [`TokenKind::Ident`] symbols. Spans resolve against
/// the source string the lexer was created over. The interner is frozen
/// behind an [`Arc`] so parsed [`Module`](crate::ast::Module)s can share it
/// without copying the name table.
#[derive(Debug, Clone, Default)]
pub struct LexedSource {
    /// The tokens, excluding the trailing `Eof`.
    pub tokens: Vec<Token>,
    /// Resolves the interned identifier symbols in `tokens`.
    pub interner: Arc<Interner>,
}

impl LexedSource {
    /// Number of tokens.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// Whether the source lexed to no tokens.
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }
}

/// Streaming Verilog lexer.
///
/// # Example
///
/// ```
/// use verilog::{Lexer, TokenKind, Keyword};
///
/// let lexed = Lexer::new("module m; endmodule").tokenize()?;
/// assert!(matches!(lexed.tokens[0].kind, TokenKind::Keyword(Keyword::Module)));
/// # Ok::<(), verilog::LexError>(())
/// ```
#[derive(Debug)]
pub struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: usize,
    column: usize,
    interner: Interner,
}

impl<'a> Lexer<'a> {
    /// Creates a lexer over `src`.
    pub fn new(src: &'a str) -> Self {
        Self {
            src: src.as_bytes(),
            pos: 0,
            line: 1,
            column: 1,
            interner: Interner::new(),
        }
    }

    /// Decodes a string-literal span (as produced in
    /// [`TokenKind::StringLit`]) into its value: escapes are processed by
    /// dropping the backslash and keeping the next character verbatim. The
    /// text between escapes is copied as UTF-8, so `"café"` decodes to
    /// `café`.
    pub fn string_value(src: &str, span: Span) -> String {
        let mut rest = span.text(src);
        let mut out = String::with_capacity(rest.len());
        while let Some(backslash) = rest.find('\\') {
            out.push_str(&rest[..backslash]);
            let mut escaped = rest[backslash + 1..].chars();
            out.extend(escaped.next());
            rest = escaped.as_str();
        }
        out.push_str(rest);
        out
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek_at(&self, offset: usize) -> Option<u8> {
        self.src.get(self.pos + offset).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
            self.column = 1;
        } else {
            self.column += 1;
        }
        Some(c)
    }

    /// Advances over `n` bytes known to not contain a newline.
    fn bump_n(&mut self, n: usize) {
        self.pos += n;
        self.column += n;
    }

    /// Advances over the maximal run of identifier-continuation bytes
    /// (which never contain a newline) in one batched scan.
    fn scan_ident_run(&mut self) {
        let n = self.src[self.pos..]
            .iter()
            .take_while(|&&b| IDENT_CONT[b as usize])
            .count();
        self.bump_n(n);
    }

    /// Advances over the maximal run of decimal digits and `_` separators.
    fn scan_digit_run(&mut self) {
        let n = self.src[self.pos..]
            .iter()
            .take_while(|&&b| b.is_ascii_digit() || b == b'_')
            .count();
        self.bump_n(n);
    }

    fn error(&self, message: impl Into<String>) -> LexError {
        LexError {
            message: message.into(),
            line: self.line,
            column: self.column,
        }
    }

    fn location(&self) -> (u32, u32) {
        (self.line as u32, self.column as u32)
    }

    fn skip_trivia(&mut self) -> Result<(), LexError> {
        loop {
            match self.peek() {
                Some(c) if c.is_ascii_whitespace() => {
                    // Batched scan: one load per byte instead of a
                    // peek/bump pair, with newline bookkeeping inline.
                    while let Some(&b) = self.src.get(self.pos) {
                        if b == b'\n' {
                            self.pos += 1;
                            self.line += 1;
                            self.column = 1;
                        } else if b.is_ascii_whitespace() {
                            self.pos += 1;
                            self.column += 1;
                        } else {
                            break;
                        }
                    }
                }
                Some(b'/') if self.peek_at(1) == Some(b'/') => {
                    // Line comment: scan straight to the newline (kept for
                    // the whitespace arm so line accounting stays in one
                    // place); comments cannot fail, so no per-byte checks.
                    let n = self.src[self.pos..]
                        .iter()
                        .take_while(|&&b| b != b'\n')
                        .count();
                    self.bump_n(n);
                }
                Some(b'/') if self.peek_at(1) == Some(b'*') => {
                    let (line, column) = (self.line, self.column);
                    self.bump();
                    self.bump();
                    let mut closed = false;
                    while let Some(c) = self.bump() {
                        if c == b'*' && self.peek() == Some(b'/') {
                            self.bump();
                            closed = true;
                            break;
                        }
                    }
                    if !closed {
                        return Err(LexError {
                            message: "unterminated block comment".into(),
                            line,
                            column,
                        });
                    }
                }
                Some(b'(') if self.peek_at(1) == Some(b'*') && self.peek_at(2) != Some(b')') => {
                    // Attribute instance (* keep = "true" *): skip to the
                    // matching *).
                    let (line, column) = (self.line, self.column);
                    self.bump();
                    self.bump();
                    let mut closed = false;
                    while let Some(c) = self.bump() {
                        if c == b'*' && self.peek() == Some(b')') {
                            self.bump();
                            closed = true;
                            break;
                        }
                    }
                    if !closed {
                        return Err(LexError {
                            message: "unterminated attribute instance".into(),
                            line,
                            column,
                        });
                    }
                }
                Some(b'`') => {
                    // Compiler directive: consume to end of line. `define
                    // bodies with line continuations are followed.
                    loop {
                        match self.peek() {
                            Some(b'\\') if self.peek_at(1) == Some(b'\n') => {
                                self.bump();
                                self.bump();
                            }
                            Some(b'\n') | None => break,
                            _ => {
                                self.bump();
                            }
                        }
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    fn lex_ident_or_keyword(&mut self) -> Token {
        let (line, column) = self.location();
        let start = self.pos;
        self.scan_ident_run();
        // Identifier characters are all ASCII, so the byte range is valid
        // UTF-8 within the (already valid) source string.
        let text = std::str::from_utf8(&self.src[start..self.pos]).unwrap_or_default();
        let kind = match Keyword::from_spelling(text) {
            Some(kw) => TokenKind::Keyword(kw),
            None => TokenKind::Ident(self.interner.intern(text)),
        };
        Token::new(kind, line, column)
    }

    fn lex_escaped_ident(&mut self) -> Token {
        let (line, column) = self.location();
        self.bump(); // consume backslash
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_whitespace() {
                break;
            }
            self.bump();
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).unwrap_or_default();
        Token::new(TokenKind::Ident(self.interner.intern(text)), line, column)
    }

    fn lex_number(&mut self) -> Token {
        let (line, column) = self.location();
        let start = self.pos;
        // Digits, then optionally 'base digits (possibly with x/z/?), or a
        // real-number suffix.
        self.scan_digit_run();
        if self.peek() == Some(b'\'') {
            self.bump();
            // Optional signed marker and base letter.
            if matches!(self.peek(), Some(b's') | Some(b'S')) {
                self.bump();
            }
            if matches!(
                self.peek(),
                Some(b'b')
                    | Some(b'B')
                    | Some(b'o')
                    | Some(b'O')
                    | Some(b'd')
                    | Some(b'D')
                    | Some(b'h')
                    | Some(b'H')
            ) {
                self.bump();
            }
            let n = self.src[self.pos..]
                .iter()
                .take_while(|&&b| IDENT_CONT[b as usize] || b == b'?')
                .count();
            self.bump_n(n);
        } else if self.peek() == Some(b'.') && self.peek_at(1).is_some_and(|c| c.is_ascii_digit()) {
            self.bump();
            while let Some(c) = self.peek() {
                if c.is_ascii_digit() || c == b'e' || c == b'E' || c == b'-' || c == b'+' {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        Token::new(
            TokenKind::Number(Span::new(start, self.pos - start)),
            line,
            column,
        )
    }

    fn lex_sized_based_number(&mut self) -> Token {
        // A based literal with no size prefix, e.g. 'b1010 or 'd42.
        let (line, column) = self.location();
        let start = self.pos;
        self.bump(); // consume '
        if matches!(self.peek(), Some(b's') | Some(b'S')) {
            self.bump();
        }
        if matches!(
            self.peek(),
            Some(b'b')
                | Some(b'B')
                | Some(b'o')
                | Some(b'O')
                | Some(b'd')
                | Some(b'D')
                | Some(b'h')
                | Some(b'H')
        ) {
            self.bump();
        }
        let n = self.src[self.pos..]
            .iter()
            .take_while(|&&b| IDENT_CONT[b as usize] || b == b'?')
            .count();
        self.bump_n(n);
        Token::new(
            TokenKind::Number(Span::new(start, self.pos - start)),
            line,
            column,
        )
    }

    fn lex_string(&mut self) -> Result<Token, LexError> {
        let (line, column) = self.location();
        self.bump(); // opening quote
        let start = self.pos;
        loop {
            match self.bump() {
                Some(b'"') => break,
                Some(b'\\') => {
                    // The escaped byte is kept raw; decoding happens in
                    // `Lexer::string_value` when the literal is consumed.
                    self.bump();
                }
                Some(b'\n') | None => {
                    return Err(LexError {
                        message: "unterminated string literal".into(),
                        line: line as usize,
                        column: column as usize,
                    });
                }
                Some(_) => {}
            }
        }
        // The span excludes both quotes.
        Ok(Token::new(
            TokenKind::StringLit(Span::new(start, self.pos - 1 - start)),
            line,
            column,
        ))
    }

    /// First-byte-dispatched operator match. Greedy: the longest operator
    /// starting at the current byte wins, mirroring the longest-first
    /// string-table scan of the original lexer.
    fn lex_symbol(&mut self) -> Result<Token, LexError> {
        let (line, column) = self.location();
        let c = self.peek().expect("caller checked non-empty");
        let b1 = self.peek_at(1);
        let b2 = self.peek_at(2);
        let multi = match c {
            b'<' => match (b1, b2) {
                (Some(b'<'), Some(b'<')) => Some(Op::AShl),
                (Some(b'<'), _) => Some(Op::Shl),
                (Some(b'='), _) => Some(Op::Le),
                _ => None,
            },
            b'>' => match (b1, b2) {
                (Some(b'>'), Some(b'>')) => Some(Op::AShr),
                (Some(b'>'), _) => Some(Op::Shr),
                (Some(b'='), _) => Some(Op::Ge),
                _ => None,
            },
            b'=' => match (b1, b2) {
                (Some(b'='), Some(b'=')) => Some(Op::CaseEq),
                (Some(b'='), _) => Some(Op::EqEq),
                _ => None,
            },
            b'!' => match (b1, b2) {
                (Some(b'='), Some(b'=')) => Some(Op::CaseNeq),
                (Some(b'='), _) => Some(Op::Neq),
                _ => None,
            },
            b'*' => match b1 {
                Some(b'*') => Some(Op::Pow),
                _ => None,
            },
            b'&' => match b1 {
                Some(b'&') => Some(Op::AndAnd),
                _ => None,
            },
            b'|' => match b1 {
                Some(b'|') => Some(Op::OrOr),
                _ => None,
            },
            b'~' => match b1 {
                Some(b'^') => Some(Op::TildeCaret),
                Some(b'&') => Some(Op::TildeAmp),
                Some(b'|') => Some(Op::TildePipe),
                _ => None,
            },
            b'^' => match b1 {
                Some(b'~') => Some(Op::CaretTilde),
                _ => None,
            },
            b'-' => match b1 {
                Some(b'>') => Some(Op::Arrow),
                Some(b':') => Some(Op::MinusColon),
                _ => None,
            },
            b'+' => match b1 {
                Some(b':') => Some(Op::PlusColon),
                _ => None,
            },
            _ => None,
        };
        if let Some(op) = multi {
            self.bump_n(op.len());
            return Ok(Token::new(TokenKind::Op(op), line, column));
        }
        match Op::from_single(c) {
            Some(op) => {
                self.bump();
                Ok(Token::new(TokenKind::Op(op), line, column))
            }
            None => {
                let single = c as char;
                self.bump();
                if single.is_ascii_graphic() {
                    // Every graphic byte that can reach here is covered by
                    // `Op::from_single`; this arm keeps the error behaviour
                    // total should the dispatch tables ever drift.
                    Err(self.error(format!("unhandled symbol `{single}`")))
                } else {
                    Err(LexError {
                        message: format!("unexpected byte 0x{c:02x}"),
                        line: line as usize,
                        column: column as usize,
                    })
                }
            }
        }
    }

    /// Lexes the next token, or `Eof` at the end of input.
    ///
    /// # Errors
    ///
    /// Returns a [`LexError`] on unterminated comments/strings or bytes that
    /// cannot start any token.
    pub fn next_token(&mut self) -> Result<Token, LexError> {
        self.skip_trivia()?;
        match self.peek() {
            None => Ok(Token::new(
                TokenKind::Eof,
                self.line as u32,
                self.column as u32,
            )),
            Some(c) if c.is_ascii_alphabetic() || c == b'_' || c == b'$' => {
                Ok(self.lex_ident_or_keyword())
            }
            Some(b'\\') => Ok(self.lex_escaped_ident()),
            Some(c) if c.is_ascii_digit() => Ok(self.lex_number()),
            Some(b'\'') if self.peek_at(1).is_some_and(|c| c.is_ascii_alphanumeric()) => {
                Ok(self.lex_sized_based_number())
            }
            Some(b'"') => self.lex_string(),
            Some(_) => self.lex_symbol(),
        }
    }

    /// Lexes the whole input into a [`LexedSource`] (tokens excluding the
    /// trailing `Eof`, plus the identifier interner).
    ///
    /// # Errors
    ///
    /// Returns the first [`LexError`] encountered.
    pub fn tokenize(mut self) -> Result<LexedSource, LexError> {
        LEX_PASSES.fetch_add(1, Ordering::Relaxed);
        let mut tokens = Vec::with_capacity(self.src.len() / 4);
        loop {
            let tok = self.next_token()?;
            if matches!(tok.kind, TokenKind::Eof) {
                return Ok(LexedSource {
                    tokens,
                    interner: Arc::new(self.interner),
                });
            }
            if self.pos > self.src.len() {
                return Err(self.error("lexer ran past end of input"));
            }
            tokens.push(tok);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lex(src: &str) -> LexedSource {
        Lexer::new(src).tokenize().expect("lex")
    }

    /// Renders a token kind back to comparable text.
    fn render(src: &str, lexed: &LexedSource, kind: TokenKind) -> String {
        match kind {
            TokenKind::Keyword(k) => k.as_str().to_string(),
            TokenKind::Ident(sym) => lexed.interner.resolve(sym).to_string(),
            TokenKind::Number(span) => span.text(src).to_string(),
            TokenKind::StringLit(span) => Lexer::string_value(src, span),
            TokenKind::Op(op) => op.as_str().to_string(),
            TokenKind::Eof => "<eof>".to_string(),
        }
    }

    fn texts(src: &str) -> Vec<String> {
        let lexed = lex(src);
        lexed
            .tokens
            .iter()
            .map(|t| render(src, &lexed, t.kind))
            .collect()
    }

    #[test]
    fn lexes_keywords_and_identifiers() {
        let src = "module foo; endmodule";
        let lexed = lex(src);
        assert!(matches!(
            lexed.tokens[0].kind,
            TokenKind::Keyword(Keyword::Module)
        ));
        assert!(matches!(lexed.tokens[1].kind, TokenKind::Ident(sym)
            if lexed.interner.resolve(sym) == "foo"));
        assert!(lexed.tokens[2].is_op(Op::Semi));
        assert!(lexed.tokens[3].is_keyword(Keyword::Endmodule));
    }

    #[test]
    fn interner_shares_repeated_identifiers() {
        let src = "wire a; assign a = a;";
        let lexed = lex(src);
        let syms: Vec<_> = lexed
            .tokens
            .iter()
            .filter_map(|t| match t.kind {
                TokenKind::Ident(sym) => Some(sym),
                _ => None,
            })
            .collect();
        assert_eq!(syms.len(), 3);
        assert!(syms.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(lexed.interner.len(), 1);
    }

    #[test]
    fn lexes_based_literals() {
        assert_eq!(
            texts("4'b1010 8'hFF 'd42 16'd1_000"),
            vec!["4'b1010", "8'hFF", "'d42", "16'd1_000"]
        );
    }

    #[test]
    fn lexes_multichar_operators_greedily() {
        let src = "a <= b == c <<< 2";
        let lexed = lex(src);
        let ops: Vec<Op> = lexed
            .tokens
            .iter()
            .filter_map(|t| match t.kind {
                TokenKind::Op(op) => Some(op),
                _ => None,
            })
            .collect();
        assert_eq!(ops, vec![Op::Le, Op::EqEq, Op::AShl]);
    }

    #[test]
    fn every_multichar_operator_lexes_to_itself() {
        for op in Op::MULTI_CHAR {
            let src = format!("a {} b", op.as_str());
            let lexed = lex(&src);
            assert!(
                lexed.tokens.iter().any(|t| t.is_op(*op)),
                "`{}` did not lex to {:?}",
                op.as_str(),
                op
            );
        }
    }

    #[test]
    fn skips_line_and_block_comments() {
        let lexed = lex("// Copyright Intel\nmodule /* hidden */ m;");
        assert_eq!(lexed.len(), 3);
        assert!(lexed.tokens[0].is_keyword(Keyword::Module));
    }

    #[test]
    fn skips_compiler_directives_and_attributes() {
        let lexed = lex("`timescale 1ns/1ps\n(* keep = \"true\" *) wire w;");
        assert!(lexed.tokens[0].is_keyword(Keyword::Wire));
    }

    #[test]
    fn unterminated_block_comment_is_an_error() {
        let err = Lexer::new("module m; /* oops").tokenize().unwrap_err();
        assert!(err.message.contains("unterminated block comment"));
        assert!(format!("{err}").contains("lex error"));
    }

    #[test]
    fn unterminated_string_is_an_error() {
        let err = Lexer::new("initial $display(\"hi").tokenize().unwrap_err();
        assert!(err.message.contains("unterminated string"));
    }

    #[test]
    fn escaped_identifiers_are_supported() {
        assert_eq!(texts("wire \\bus[0] ;")[1], "bus[0]");
    }

    #[test]
    fn system_identifiers_keep_dollar_prefix() {
        let t = texts("$display(\"x\");");
        assert_eq!(t[0], "$display");
        assert_eq!(t[2], "x");
    }

    #[test]
    fn string_escapes_drop_the_backslash() {
        let src = "initial $display(\"a\\\"b\\\\c\");";
        let lexed = lex(src);
        let value = lexed
            .tokens
            .iter()
            .find_map(|t| match t.kind {
                TokenKind::StringLit(span) => Some(Lexer::string_value(src, span)),
                _ => None,
            })
            .expect("a string literal");
        assert_eq!(value, "a\"b\\c");
    }

    #[test]
    fn non_ascii_string_literals_decode_as_utf8() {
        assert_eq!(texts("$display(\"caf\u{e9}\");")[2], "caf\u{e9}");
        // An escaped multi-byte character is kept whole.
        assert_eq!(texts("$display(\"\\\u{3bb}x\");")[2], "\u{3bb}x");
    }

    #[test]
    fn real_numbers_lex_as_single_token() {
        assert!(texts("parameter real T = 1.5;").contains(&"1.5".to_string()));
    }

    #[test]
    fn tracks_line_and_column() {
        let lexed = lex("module m;\n  assign y = 1;");
        let assign = lexed
            .tokens
            .iter()
            .find(|t| t.is_keyword(Keyword::Assign))
            .unwrap();
        assert_eq!(assign.line, 2);
        assert_eq!(assign.column, 3);
    }

    #[test]
    fn non_ascii_bytes_are_rejected() {
        let err = Lexer::new("module m; \u{00e9}").tokenize().unwrap_err();
        assert!(err.message.contains("unexpected byte"));
    }

    #[test]
    fn lex_pass_counter_increments_per_tokenize() {
        let before = lex_passes();
        let _ = lex("module m; endmodule");
        let _ = lex("module n; endmodule");
        assert!(lex_passes() >= before + 2);
    }
}
