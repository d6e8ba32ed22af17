//! Verilog front-end substrate for the Free and Fair Hardware reproduction.
//!
//! The paper leans on two external hardware tools that this crate replaces
//! with from-scratch implementations:
//!
//! * **Icarus Verilog 10.3** — used only as a *syntax* filter during dataset
//!   curation ("only syntax-specific errors were identified and removed",
//!   §III-D2). [`SyntaxChecker`] provides the same judgement: lex and parse a
//!   practical Verilog-2001 subset, accept files whose only problem is an
//!   unresolved reference to an external module.
//! * **Functional simulation for VerilogEval** — generated modules are judged
//!   functionally correct by simulating them against golden test vectors.
//!   The [`interp`] module implements a behavioural interpreter for the
//!   synthesisable subset (continuous assignments, combinational and
//!   clocked `always` blocks) that the [`sim`] module drives with testbench
//!   vectors.
//!
//! The crate also provides the comment utilities the curation framework and
//! the copyright benchmark need: stripping comments before prompting, and
//! extracting header comments for license/copyright keyword scanning.
//!
//! # Example
//!
//! ```
//! use verilog::SyntaxChecker;
//!
//! let checker = SyntaxChecker::new();
//! let good = "module inv(input a, output y); assign y = ~a; endmodule";
//! assert!(checker.check(good).is_ok());
//!
//! let bad = "module inv(input a output y); assign y = ~a; endmodule";
//! assert!(checker.check(bad).is_err());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod comments;
pub mod frontend;
pub mod intern;
pub mod interp;
pub mod lexer;
pub mod lint;
pub mod parser;
pub mod sim;
pub mod syntax;
pub mod token;

pub use ast::{
    AlwaysBlock, BinaryOp, CaseArm, Declaration, EdgeKind, Expr, ExprArena, ExprId, Module,
    ModuleItem, Net, NetKind, Port, PortDirection, Range, SensitivityList, Statement, UnaryOp,
};
pub use comments::{extract_header_comment, strip_comments};
pub use frontend::ParsedFile;
pub use intern::{Interner, Name, Symbol};
pub use lexer::{lex_passes, LexError, LexedSource, Lexer};
pub use lint::{LintConfig, LintDiagnostic, Linter, RuleId, Severity};
pub use parser::{ParseError, Parser};
pub use sim::{Simulator, TestVector, Testbench, VectorOutcome};
pub use syntax::{SyntaxChecker, SyntaxError, SyntaxReport};
pub use token::{Keyword, Op, Span, Token, TokenKind};
