//! Token definitions shared by the lexer and parser.
//!
//! Tokens are fully `Copy`: identifier payloads are interned [`Symbol`]s,
//! number and string payloads are [`Span`]s into the source text, and
//! operators are a fieldless [`Op`] enum instead of an owned `String`.

use std::fmt;

use crate::intern::Symbol;

/// Verilog keywords recognised by the front-end.
///
/// Only the keywords that occur in the synthesisable subset handled by the
/// parser are distinguished; all other keywords are lexed as identifiers and
/// rejected (or tolerated) by the parser where relevant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Keyword {
    Module,
    Endmodule,
    Input,
    Output,
    Inout,
    Wire,
    Reg,
    Integer,
    Parameter,
    Localparam,
    Assign,
    Always,
    Initial,
    Begin,
    End,
    If,
    Else,
    Case,
    Casez,
    Casex,
    Endcase,
    Default,
    Posedge,
    Negedge,
    Or,
    Signed,
    Generate,
    Endgenerate,
    For,
    Genvar,
    Function,
    Endfunction,
    Task,
    Endtask,
}

impl Keyword {
    /// Looks up a keyword from its source spelling.
    pub fn from_spelling(s: &str) -> Option<Keyword> {
        Some(match s {
            "module" => Keyword::Module,
            "endmodule" => Keyword::Endmodule,
            "input" => Keyword::Input,
            "output" => Keyword::Output,
            "inout" => Keyword::Inout,
            "wire" => Keyword::Wire,
            "reg" => Keyword::Reg,
            "integer" => Keyword::Integer,
            "parameter" => Keyword::Parameter,
            "localparam" => Keyword::Localparam,
            "assign" => Keyword::Assign,
            "always" => Keyword::Always,
            "initial" => Keyword::Initial,
            "begin" => Keyword::Begin,
            "end" => Keyword::End,
            "if" => Keyword::If,
            "else" => Keyword::Else,
            "case" => Keyword::Case,
            "casez" => Keyword::Casez,
            "casex" => Keyword::Casex,
            "endcase" => Keyword::Endcase,
            "default" => Keyword::Default,
            "posedge" => Keyword::Posedge,
            "negedge" => Keyword::Negedge,
            "or" => Keyword::Or,
            "signed" => Keyword::Signed,
            "generate" => Keyword::Generate,
            "endgenerate" => Keyword::Endgenerate,
            "for" => Keyword::For,
            "genvar" => Keyword::Genvar,
            "function" => Keyword::Function,
            "endfunction" => Keyword::Endfunction,
            "task" => Keyword::Task,
            "endtask" => Keyword::Endtask,
            _ => return None,
        })
    }

    /// The canonical source spelling of the keyword.
    pub fn as_str(&self) -> &'static str {
        match self {
            Keyword::Module => "module",
            Keyword::Endmodule => "endmodule",
            Keyword::Input => "input",
            Keyword::Output => "output",
            Keyword::Inout => "inout",
            Keyword::Wire => "wire",
            Keyword::Reg => "reg",
            Keyword::Integer => "integer",
            Keyword::Parameter => "parameter",
            Keyword::Localparam => "localparam",
            Keyword::Assign => "assign",
            Keyword::Always => "always",
            Keyword::Initial => "initial",
            Keyword::Begin => "begin",
            Keyword::End => "end",
            Keyword::If => "if",
            Keyword::Else => "else",
            Keyword::Case => "case",
            Keyword::Casez => "casez",
            Keyword::Casex => "casex",
            Keyword::Endcase => "endcase",
            Keyword::Default => "default",
            Keyword::Posedge => "posedge",
            Keyword::Negedge => "negedge",
            Keyword::Or => "or",
            Keyword::Signed => "signed",
            Keyword::Generate => "generate",
            Keyword::Endgenerate => "endgenerate",
            Keyword::For => "for",
            Keyword::Genvar => "genvar",
            Keyword::Function => "function",
            Keyword::Endfunction => "endfunction",
            Keyword::Task => "task",
            Keyword::Endtask => "endtask",
        }
    }
}

impl fmt::Display for Keyword {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A byte range into the lexed source text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Span {
    /// Byte offset of the first byte.
    pub start: u32,
    /// Length in bytes.
    pub len: u32,
}

impl Span {
    /// Creates a span.
    pub fn new(start: usize, len: usize) -> Self {
        Self {
            start: u32::try_from(start).expect("source larger than 4 GiB"),
            len: u32::try_from(len).expect("token larger than 4 GiB"),
        }
    }

    /// The spanned text within `src` (the source the span was lexed from).
    pub fn text<'a>(&self, src: &'a str) -> &'a str {
        &src[self.start as usize..(self.start + self.len) as usize]
    }
}

/// An operator or punctuation token.
///
/// The set is total over everything the lexer can produce: every ASCII
/// graphic character that is not consumed by identifiers, numbers, strings,
/// escaped identifiers or compiler directives, plus the multi-character
/// operator set. Matching is a first-byte dispatch in the lexer — there is
/// no string table scan and no allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// `<<<`
    AShl,
    /// `>>>`
    AShr,
    /// `===`
    CaseEq,
    /// `!==`
    CaseNeq,
    /// `**`
    Pow,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `<=`
    Le,
    /// `>=`
    Ge,
    /// `==`
    EqEq,
    /// `!=`
    Neq,
    /// `&&`
    AndAnd,
    /// `||`
    OrOr,
    /// `~^`
    TildeCaret,
    /// `^~`
    CaretTilde,
    /// `~&`
    TildeAmp,
    /// `~|`
    TildePipe,
    /// `->`
    Arrow,
    /// `+:`
    PlusColon,
    /// `-:`
    MinusColon,
    /// `!`
    Bang,
    /// `#`
    Hash,
    /// `%`
    Percent,
    /// `&`
    Amp,
    /// `'`
    Apostrophe,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `*`
    Star,
    /// `+`
    Plus,
    /// `,`
    Comma,
    /// `-`
    Minus,
    /// `.`
    Dot,
    /// `/`
    Slash,
    /// `:`
    Colon,
    /// `;`
    Semi,
    /// `<`
    Lt,
    /// `=`
    Eq,
    /// `>`
    Gt,
    /// `?`
    Question,
    /// `@`
    At,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `^`
    Caret,
    /// `{`
    LBrace,
    /// `|`
    Pipe,
    /// `}`
    RBrace,
    /// `~`
    Tilde,
}

impl Op {
    /// The source spelling of the operator.
    pub fn as_str(&self) -> &'static str {
        match self {
            Op::AShl => "<<<",
            Op::AShr => ">>>",
            Op::CaseEq => "===",
            Op::CaseNeq => "!==",
            Op::Pow => "**",
            Op::Shl => "<<",
            Op::Shr => ">>",
            Op::Le => "<=",
            Op::Ge => ">=",
            Op::EqEq => "==",
            Op::Neq => "!=",
            Op::AndAnd => "&&",
            Op::OrOr => "||",
            Op::TildeCaret => "~^",
            Op::CaretTilde => "^~",
            Op::TildeAmp => "~&",
            Op::TildePipe => "~|",
            Op::Arrow => "->",
            Op::PlusColon => "+:",
            Op::MinusColon => "-:",
            Op::Bang => "!",
            Op::Hash => "#",
            Op::Percent => "%",
            Op::Amp => "&",
            Op::Apostrophe => "'",
            Op::LParen => "(",
            Op::RParen => ")",
            Op::Star => "*",
            Op::Plus => "+",
            Op::Comma => ",",
            Op::Minus => "-",
            Op::Dot => ".",
            Op::Slash => "/",
            Op::Colon => ":",
            Op::Semi => ";",
            Op::Lt => "<",
            Op::Eq => "=",
            Op::Gt => ">",
            Op::Question => "?",
            Op::At => "@",
            Op::LBracket => "[",
            Op::RBracket => "]",
            Op::Caret => "^",
            Op::LBrace => "{",
            Op::Pipe => "|",
            Op::RBrace => "}",
            Op::Tilde => "~",
        }
    }

    /// Length of the spelling in bytes (1–3).
    pub fn len(&self) -> usize {
        self.as_str().len()
    }

    /// Operators are never empty; provided to pair with [`Op::len`].
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The single-character operator for a byte, if it is one.
    pub fn from_single(byte: u8) -> Option<Op> {
        Some(match byte {
            b'!' => Op::Bang,
            b'#' => Op::Hash,
            b'%' => Op::Percent,
            b'&' => Op::Amp,
            b'\'' => Op::Apostrophe,
            b'(' => Op::LParen,
            b')' => Op::RParen,
            b'*' => Op::Star,
            b'+' => Op::Plus,
            b',' => Op::Comma,
            b'-' => Op::Minus,
            b'.' => Op::Dot,
            b'/' => Op::Slash,
            b':' => Op::Colon,
            b';' => Op::Semi,
            b'<' => Op::Lt,
            b'=' => Op::Eq,
            b'>' => Op::Gt,
            b'?' => Op::Question,
            b'@' => Op::At,
            b'[' => Op::LBracket,
            b']' => Op::RBracket,
            b'^' => Op::Caret,
            b'{' => Op::LBrace,
            b'|' => Op::Pipe,
            b'}' => Op::RBrace,
            b'~' => Op::Tilde,
            _ => return None,
        })
    }

    /// All multi-character operators, longest first (the greedy lexing
    /// order), paired with their spellings. Used by differential tests and
    /// the lexer micro-asserts in `bench_parse`.
    pub const MULTI_CHAR: &'static [Op] = &[
        Op::AShl,
        Op::AShr,
        Op::CaseEq,
        Op::CaseNeq,
        Op::Pow,
        Op::Shl,
        Op::Shr,
        Op::Le,
        Op::Ge,
        Op::EqEq,
        Op::Neq,
        Op::AndAnd,
        Op::OrOr,
        Op::TildeCaret,
        Op::CaretTilde,
        Op::TildeAmp,
        Op::TildePipe,
        Op::Arrow,
        Op::PlusColon,
        Op::MinusColon,
    ];
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The kind of a lexed token. `Copy` — eight bytes of payload at most.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// A recognised keyword.
    Keyword(Keyword),
    /// An identifier (including escaped identifiers with the leading `\`
    /// removed and system identifiers such as `$display`), interned.
    Ident(Symbol),
    /// A numeric literal; the span covers its source spelling (`42`,
    /// `4'b1010`, `8'hFF`, `1_000`).
    Number(Span),
    /// A string literal; the span covers the raw contents between the
    /// quotes (escapes unprocessed — see `Lexer::string_value`).
    StringLit(Span),
    /// An operator or punctuation symbol, e.g. `+`, `<=`, `&&`, `(`.
    Op(Op),
    /// End of input.
    Eof,
}

/// A token with its source location.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    /// What was lexed.
    pub kind: TokenKind,
    /// 1-based line number.
    pub line: u32,
    /// 1-based column number.
    pub column: u32,
}

impl Token {
    /// Creates a token.
    pub fn new(kind: TokenKind, line: u32, column: u32) -> Self {
        Self { kind, line, column }
    }

    /// Whether the token is the given operator.
    pub fn is_op(&self, op: Op) -> bool {
        matches!(self.kind, TokenKind::Op(o) if o == op)
    }

    /// Whether the token is the given keyword.
    pub fn is_keyword(&self, kw: Keyword) -> bool {
        matches!(self.kind, TokenKind::Keyword(k) if k == kw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_round_trips() {
        for kw in [
            Keyword::Module,
            Keyword::Endmodule,
            Keyword::Assign,
            Keyword::Always,
            Keyword::Posedge,
            Keyword::Casez,
        ] {
            assert_eq!(Keyword::from_spelling(kw.as_str()), Some(kw));
        }
    }

    #[test]
    fn unknown_keyword_is_none() {
        assert_eq!(Keyword::from_spelling("nonsense"), None);
        assert_eq!(
            Keyword::from_spelling("Module"),
            None,
            "keywords are case sensitive"
        );
    }

    #[test]
    fn token_predicates() {
        let t = Token::new(TokenKind::Op(Op::Le), 3, 7);
        assert!(t.is_op(Op::Le));
        assert!(!t.is_op(Op::Eq));
        assert!(!t.is_keyword(Keyword::Module));
        let k = Token::new(TokenKind::Keyword(Keyword::Module), 1, 1);
        assert!(k.is_keyword(Keyword::Module));
    }

    #[test]
    fn tokens_are_copy_and_small() {
        fn assert_copy<T: Copy>() {}
        assert_copy::<Token>();
        assert_copy::<TokenKind>();
        assert!(std::mem::size_of::<Token>() <= 24);
    }

    #[test]
    fn op_spellings_round_trip() {
        for op in Op::MULTI_CHAR {
            assert!(op.len() >= 2, "{op:?} is not multi-char");
        }
        for byte in 0u8..=127 {
            if let Some(op) = Op::from_single(byte) {
                assert_eq!(op.as_str().as_bytes(), [byte]);
                assert!(!op.is_empty());
            }
        }
    }

    #[test]
    fn span_slices_the_source() {
        let src = "module m;";
        let span = Span::new(7, 1);
        assert_eq!(span.text(src), "m");
    }
}
