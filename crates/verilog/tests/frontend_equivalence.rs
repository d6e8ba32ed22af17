//! Lexer/parser round-trip properties: zero-copy tokens resolve back to
//! their source spelling, and parsing pre-lexed tokens equals parsing the
//! source directly.

use proptest::prelude::*;
use verilog::{Lexer, Parser, TokenKind};

/// The tokens a zero-copy lex resolves back to their source spelling: every
/// identifier symbol and every number/string span must round-trip through
/// the interner / the source text.
#[test]
fn lexed_tokens_round_trip_to_source_text() {
    let src = "module m(input [7:0] a, output reg [7:0] y);\n\
               always @(posedge clk) y <= a + 8'hFF; // trailing\nendmodule";
    let lexed = Lexer::new(src).tokenize().expect("lexes");
    for token in &lexed.tokens {
        match token.kind {
            TokenKind::Ident(sym) => {
                let text = lexed.interner.resolve(sym);
                assert!(!text.is_empty());
                assert!(src.contains(text), "identifier `{text}` not in source");
            }
            TokenKind::Number(span) | TokenKind::StringLit(span) => {
                let text = span.text(src);
                assert!(!text.is_empty());
                assert_eq!(
                    &src[span.start as usize..(span.start + span.len) as usize],
                    text
                );
            }
            _ => {}
        }
    }
}

fn simple_module_strategy() -> impl Strategy<Value = String> {
    let ops = prop_oneof![
        Just("&"),
        Just("|"),
        Just("^"),
        Just("+"),
        Just("-"),
        Just("<<"),
        Just(">>"),
        Just("=="),
        Just("!="),
    ];
    (1u32..=16, ops, any::<bool>(), any::<bool>()).prop_map(|(width, op, invert, clocked)| {
        let inv = if invert { "~" } else { "" };
        let msb = width - 1;
        if clocked {
            format!(
                "module gen(input clk, input [{msb}:0] a, input [{msb}:0] b, \
                 output reg [{msb}:0] y);\n\
                 always @(posedge clk) y <= {inv}(a {op} b);\nendmodule\n"
            )
        } else {
            format!(
                "module gen(input [{msb}:0] a, input [{msb}:0] b, output [{msb}:0] y);\n\
                 assign y = {inv}(a {op} b);\nendmodule\n"
            )
        }
    })
}

proptest! {
    /// Lex → parse round-trip over seeded corpora: a source re-lexes to the
    /// identical token stream (lexing is deterministic), and parsing those
    /// tokens gives the same modules as [`Parser::parse_source`].
    #[test]
    fn lex_parse_round_trip_is_deterministic(src in simple_module_strategy()) {
        let first = Lexer::new(&src).tokenize().expect("lexes");
        let second = Lexer::new(&src).tokenize().expect("lexes");
        prop_assert_eq!(&first.tokens, &second.tokens);
        let via_tokens = verilog::Parser::new(&src, &first).parse_modules().expect("parses");
        let via_source = Parser::parse_source(&src).expect("parses");
        prop_assert_eq!(via_tokens, via_source);
    }
}
