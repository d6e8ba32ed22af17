//! Property-based tests for the Verilog front-end and interpreter.

use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;
use verilog::interp::Value;
use verilog::{
    extract_header_comment, strip_comments, Lexer, Linter, ParsedFile, Parser, Severity,
    SyntaxChecker, TestVector, Testbench, TokenKind,
};

/// A strategy producing random (mostly valid) simple combinational modules.
fn simple_module_strategy() -> impl Strategy<Value = String> {
    let ops = prop_oneof![Just("&"), Just("|"), Just("^"), Just("+"), Just("-"),];
    (1u32..=16, ops, any::<bool>()).prop_map(|(width, op, invert)| {
        let inv = if invert { "~" } else { "" };
        format!(
            "module gen(input [{msb}:0] a, input [{msb}:0] b, output [{msb}:0] y);\n\
             assign y = {inv}(a {op} b);\nendmodule\n",
            msb = width - 1
        )
    })
}

/// Module items over a few shared names. Some declare, some drive, read or
/// connect names that may be undeclared, driven twice, looped, unknown
/// ports or non-lvalues, so every pass has something to find.
const LINT_PIECES: [&str; 18] = [
    "wire w;",
    "reg r;",
    "wire [3:0] v;",
    "assign y = a & b;",
    "assign y = w;",
    "assign w = y ^ a;",
    "assign w = ghost;",
    "assign v = {a, b, a, b, a};",
    "always @(*) r = a | w;",
    "always @(*) if (a) r = b;",
    "always @(posedge a) r <= b;",
    "always @(posedge a) r = b;",
    "always @(posedge a or posedge b) if (!b) r <= 0; else r <= a;",
    "always @(*) case (a) 1'b0: r = b; 1'b0: r = a; default: r = 0; endcase",
    "leaf u0(.a(a), .b(b), .y(w));",
    "leaf u1(.a(a), .bogus(b), .y(w));",
    "leaf u2(a, b);",
    "leaf u3(.a(a), .b(b), .y(a & b));",
];

/// One to three modules of random [`LINT_PIECES`], then the `leaf` module
/// their instances name. Every such source parses.
fn lintable_source() -> impl Strategy<Value = String> {
    proptest::collection::vec(proptest::collection::vec(0..LINT_PIECES.len(), 0..8), 1..4).prop_map(
        |modules| {
            let mut source = String::new();
            for (index, items) in modules.iter().enumerate() {
                source.push_str(&format!("module m{index}(input a, input b, output y);\n"));
                for &item in items {
                    source.push_str(LINT_PIECES[item]);
                    source.push('\n');
                }
                source.push_str("endmodule\n");
            }
            source.push_str(
                "module leaf(input a, input b, output y);\nassign y = a & b;\nendmodule\n",
            );
            source
        },
    )
}

/// Arbitrary printable-ASCII soup (to check nothing panics on garbage).
fn ascii_soup() -> impl Strategy<Value = String> {
    proptest::collection::vec(32u8..127, 0..300)
        .prop_map(|bytes| bytes.into_iter().map(|b| b as char).collect())
}

/// Pieces of Verilog-like text: code, comment markers, quotes, newlines,
/// letters whose case mapping changes their UTF-8 length (`İ`, `ẞ`, the
/// Kelvin sign) or keeps it (`Σ`, `é`, `λ`), and the words the copyright
/// scan looks for.
const UNICODE_PIECES: [&str; 22] = [
    "module m;",
    "assign y = a;",
    "endmodule",
    " ",
    "\n",
    "//",
    "/*",
    "*/",
    "/",
    "*",
    "\"",
    "\\",
    "\u{130}",
    "\u{1E9E}",
    "\u{212A}",
    "\u{3A3}",
    "\u{E9}",
    "\u{3BB}",
    "copyright",
    "COPYRIGHT",
    "proprietary",
    "(c)",
];

/// Text concatenated from [`UNICODE_PIECES`].
fn unicode_soup() -> impl Strategy<Value = String> {
    proptest::collection::vec(0..UNICODE_PIECES.len(), 0..60)
        .prop_map(|pieces| pieces.into_iter().map(|i| UNICODE_PIECES[i]).collect())
}

/// Whether `small`'s characters appear in `big` in the same order.
fn is_subsequence(small: &str, big: &str) -> bool {
    let mut big = big.chars();
    small.chars().all(|c| big.any(|b| b == c))
}

/// Every binary operator the interpreter folds in constant expressions.
const FOLDED_BINARY_OPS: [&str; 13] = [
    "+", "-", "*", "/", "%", "**", "<<", "<<<", ">>", ">>>", "&", "|", "^",
];

/// Every unary operator the interpreter folds in constant expressions.
const FOLDED_UNARY_OPS: [&str; 4] = ["-", "+", "!", "~"];

/// A 64-bit literal: an `i64`/`u64` overflow edge, or any value.
fn edge_literal() -> impl Strategy<Value = String> {
    let edge = prop_oneof![
        Just(0u64),
        Just(1),
        Just((1 << 31) - 1),
        Just(1 << 32),
        Just(i64::MAX as u64),
        Just(1 << 63),
        Just(u64::MAX),
    ];
    prop_oneof![edge, any::<u64>()].prop_map(|v| format!("64'h{v:x}"))
}

/// `<lit> <op> <lit>` or `<op><lit>` over the folded operators.
fn folded_constant() -> impl Strategy<Value = String> {
    prop_oneof![
        (edge_literal(), 0..FOLDED_BINARY_OPS.len(), edge_literal())
            .prop_map(|(a, op, b)| format!("{a} {} {b}", FOLDED_BINARY_OPS[op])),
        (0..FOLDED_UNARY_OPS.len(), edge_literal())
            .prop_map(|(op, a)| format!("{}{a}", FOLDED_UNARY_OPS[op])),
    ]
}

/// A part-select bound: inside or just past a 64-bit vector, or a 32-bit or
/// 64-bit edge, or any value.
fn select_bound() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..80,
        Just(u64::from(u32::MAX)),
        Just(1 << 32),
        Just(u64::MAX),
        any::<u64>(),
    ]
}

/// A module that reads, writes or splits a concatenation across the
/// part-select `[msb:lsb]` of 64-bit vectors.
fn part_select_module(msb: u64, lsb: u64, form: usize) -> String {
    let select = format!("[64'h{msb:x}:64'h{lsb:x}]");
    let body = match form {
        0 => format!("assign y = a{select};"),
        1 => format!("always @(*) begin r = 0; r{select} = a; end\nassign y = r;"),
        _ => format!("always @(*) {{r{select}, s}} = a;\nassign y = r ^ s;"),
    };
    format!(
        "module m(input [63:0] a, output [63:0] y);\nreg [63:0] r;\nreg [63:0] s;\n\
         {body}\nendmodule\n"
    )
}

/// The system functions the interpreter evaluates.
const SYSTEM_CALLS: [&str; 3] = ["$clog2", "$signed", "$unsigned"];

/// An expression at an edge of the interpreter's value model: a sized
/// literal 0 to 65 bits wide, a replication whose count sits at a 32-bit or
/// 64-bit edge, or a system call with zero to two arguments.
fn edge_expression() -> impl Strategy<Value = String> {
    let literal = (0u32..=65, any::<u64>()).prop_map(|(width, v)| format!("{width}'h{v:x}"));
    let count = prop_oneof![
        0u64..3,
        Just(u64::from(u32::MAX)),
        Just(1 << 32),
        Just(1 << 62),
        Just(1 << 63),
        Just(u64::MAX),
        any::<u64>(),
    ];
    let replication =
        (count, 1u32..=64).prop_map(|(n, width)| format!("{{64'h{n:x}{{{width}'h1}}}}"));
    let call = (0..SYSTEM_CALLS.len(), 0usize..=2)
        .prop_map(|(f, args)| format!("{}({})", SYSTEM_CALLS[f], vec!["a"; args].join(", ")));
    prop_oneof![literal, replication, call]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn elaborating_folded_constants_never_panics(expr in folded_constant()) {
        let src = format!(
            "module m(input a, output y);\nparameter P = {expr};\nwire [P:-1] w;\n\
             assign y = a;\nendmodule\n"
        );
        let modules = Parser::parse_source(&src);
        prop_assert!(modules.is_ok(), "did not parse:\n{}", src);
        let module = &modules.unwrap()[0];
        // Elaboration may reject the module; it must not panic.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            Testbench::combinational(Vec::new()).passes(module)
        }));
        prop_assert!(outcome.is_ok(), "panicked on:\n{}", src);
    }

    #[test]
    fn simulating_part_selects_never_panics(
        msb in select_bound(),
        lsb in select_bound(),
        form in 0usize..3,
    ) {
        let src = part_select_module(msb, lsb, form);
        let parsed = ParsedFile::parse(src.as_str());
        prop_assert!(parsed.is_ok(), "did not parse:\n{}", src);
        let parsed = parsed.unwrap();
        let bench = Testbench::combinational(vec![TestVector::combinational(
            vec![("a".into(), u64::MAX)],
            vec![("y".into(), 0)],
        )]);
        // Lint and simulation may reject the select; neither may panic.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let linter = Linter::new();
            linter.lint_parsed(&parsed);
            linter.has_error(&parsed);
            bench.passes(&parsed.modules()[0])
        }));
        prop_assert!(outcome.is_ok(), "panicked on:\n{}", src);
    }

    #[test]
    fn simulating_edge_expressions_never_panics(expr in edge_expression()) {
        let src = format!(
            "module m(input [63:0] a, output [63:0] y);\nassign y = {expr};\nendmodule\n"
        );
        let modules = Parser::parse_source(&src);
        prop_assert!(modules.is_ok(), "did not parse:\n{}", src);
        let module = &modules.unwrap()[0];
        let bench = Testbench::combinational(vec![TestVector::combinational(
            vec![("a".into(), u64::MAX)],
            vec![("y".into(), 0)],
        )]);
        // Simulation may reject the expression; it must not panic.
        let outcome = catch_unwind(AssertUnwindSafe(|| bench.passes(module)));
        prop_assert!(outcome.is_ok(), "panicked on:\n{}", src);
    }

    #[test]
    fn bit_selects_read_and_write_only_bits_inside_the_vector(
        a in any::<u64>(),
        index in select_bound(),
    ) {
        let select = format!("[64'h{index:x}]");
        let src = format!(
            "module m(input [63:0] a, output y, output [63:0] z);\nreg [63:0] r;\n\
             assign y = a{select};\nalways @(*) begin r = 0; r{select} = 1'b1; end\n\
             assign z = r;\nendmodule\n"
        );
        let modules = Parser::parse_source(&src);
        prop_assert!(modules.is_ok(), "did not parse:\n{}", src);
        let module = &modules.unwrap()[0];
        // Bits past the vector's width read as zero and drop writes.
        let (read, written) = if index < 64 {
            ((a >> index) & 1, 1 << index)
        } else {
            (0, 0)
        };
        let bench = Testbench::combinational(vec![TestVector::combinational(
            vec![("a".into(), a)],
            vec![("y".into(), read), ("z".into(), written)],
        )]);
        prop_assert_eq!(bench.passes(module), Ok(true), "a = {a:#x} on:\n{src}");
    }
}

proptest! {
    #[test]
    fn lexer_never_panics_on_ascii(text in ascii_soup()) {
        // Lexing may fail, but it must fail with an error, not a panic.
        let _ = Lexer::new(&text).tokenize();
    }

    #[test]
    fn parser_never_panics_on_ascii(text in ascii_soup()) {
        let _ = Parser::parse_source(&text);
    }

    #[test]
    fn strip_comments_is_idempotent(text in ascii_soup()) {
        let once = strip_comments(&text);
        let twice = strip_comments(&once);
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn strip_comments_is_idempotent_on_unicode(text in unicode_soup()) {
        let once = strip_comments(&text);
        let twice = strip_comments(&once);
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn strip_comments_is_the_identity_without_slashes(text in unicode_soup()) {
        let text = text.replace('/', "");
        prop_assert_eq!(strip_comments(&text), text);
    }

    #[test]
    fn comment_utilities_only_delete_text(text in unicode_soup()) {
        let stripped = catch_unwind(|| strip_comments(&text));
        prop_assert!(stripped.is_ok(), "strip_comments panicked on {:?}", text);
        let stripped = stripped.unwrap();
        prop_assert!(
            is_subsequence(&stripped, &text),
            "{:?} is not a subsequence of {:?}",
            stripped,
            text
        );
        let header = catch_unwind(|| extract_header_comment(&text));
        prop_assert!(header.is_ok(), "extract_header_comment panicked on {:?}", text);
        for line in header.unwrap().lines() {
            prop_assert!(text.contains(line), "{:?} is not in {:?}", line, text);
        }
    }

    #[test]
    fn string_literals_decode_to_their_text(text in unicode_soup()) {
        // A literal cannot span lines; escape what would end it early.
        let text = text.replace('\n', "");
        let mut src = String::from("\"");
        for c in text.chars() {
            if c == '"' || c == '\\' {
                src.push('\\');
            }
            src.push(c);
        }
        src.push('"');
        let lexed = Lexer::new(&src).tokenize();
        prop_assert!(lexed.is_ok(), "{:?} did not lex", src);
        let decoded = lexed.unwrap().tokens.iter().find_map(|token| match token.kind {
            TokenKind::StringLit(span) => Some(Lexer::string_value(&src, span)),
            _ => None,
        });
        prop_assert_eq!(decoded, Some(text));
    }

    #[test]
    fn has_error_equals_any_error_finding(src in lintable_source()) {
        let parsed = ParsedFile::parse(src.as_str());
        prop_assert!(parsed.is_ok(), "did not parse:\n{}", src);
        let parsed = parsed.unwrap();
        let linter = Linter::new();
        let any_error = linter
            .lint_parsed(&parsed)
            .iter()
            .any(|d| d.severity >= Severity::Error);
        prop_assert_eq!(linter.has_error(&parsed), any_error, "on:\n{}", src);
    }

    #[test]
    fn generated_simple_modules_parse_and_pass_the_syntax_check(src in simple_module_strategy()) {
        prop_assert!(SyntaxChecker::new().is_valid(&src), "rejected:\n{}", src);
        let modules = Parser::parse_source(&src).unwrap();
        prop_assert_eq!(modules.len(), 1);
        prop_assert_eq!(modules[0].input_names().len(), 2);
        prop_assert_eq!(modules[0].output_names(), vec!["y"]);
    }

    #[test]
    fn value_resize_roundtrip_preserves_low_bits(bits in any::<u64>(), width in 1u32..=64, wider in 0u32..=32) {
        let v = Value::new(bits, width);
        let grown = v.resize((width + wider).min(64));
        prop_assert_eq!(grown.resize(width), v);
    }

    #[test]
    fn value_concat_then_select_recovers_parts(hi_bits in any::<u64>(), lo_bits in any::<u64>(), hi_w in 1u32..=32, lo_w in 1u32..=32) {
        let hi = Value::new(hi_bits, hi_w);
        let lo = Value::new(lo_bits, lo_w);
        let joined = hi.concat(lo);
        prop_assert_eq!(joined.select_range(hi_w + lo_w - 1, lo_w), hi);
        prop_assert_eq!(joined.select_range(lo_w - 1, 0), lo);
    }

    #[test]
    fn value_sign_extension_preserves_signed_interpretation(bits in any::<u64>(), width in 1u32..=32, extra in 0u32..=31) {
        let v = Value::new(bits, width);
        let extended = v.sign_extend(width + extra);
        prop_assert_eq!(v.as_signed(), extended.as_signed());
    }
}
