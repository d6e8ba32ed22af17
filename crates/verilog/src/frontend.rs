//! Parse-once shared AST: [`ParsedFile`].
//!
//! Every consumer that needs the module list of a Verilog file — the syntax
//! filter, the lint engine, the VerilogEval judge, netlist tests — used to
//! lex and parse the text independently. A [`ParsedFile`] performs that
//! work exactly once and owns the result: the source text and the parsed
//! modules, each of which shares the file's identifier interner. The token
//! stream is dropped once the parse is done, so a cache of parses holds no
//! tokens.
//!
//! # Example
//!
//! ```
//! use verilog::ParsedFile;
//!
//! let parsed = ParsedFile::parse("module inv(input a, output y); assign y = ~a; endmodule")?;
//! assert_eq!(parsed.modules().len(), 1);
//! assert_eq!(parsed.first_module().unwrap().name, "inv");
//! # Ok::<(), verilog::ParseError>(())
//! ```

use crate::ast::Module;
use crate::lexer::Lexer;
use crate::parser::{ParseError, Parser};

/// The result of lexing and parsing one Verilog file, produced once and
/// shared by every downstream consumer.
#[derive(Debug, Clone)]
pub struct ParsedFile {
    source: String,
    modules: Vec<Module>,
}

impl ParsedFile {
    /// Lexes and parses `source` in a single pass over the text.
    ///
    /// # Errors
    ///
    /// Returns the first lexing or parsing error encountered.
    pub fn parse(source: impl Into<String>) -> Result<Self, ParseError> {
        let source = source.into();
        let lexed = Lexer::new(&source).tokenize()?;
        let modules = Parser::new(&source, &lexed).parse_modules()?;
        Ok(Self { source, modules })
    }

    /// The original source text.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// The parsed modules, in source order.
    pub fn modules(&self) -> &[Module] {
        &self.modules
    }

    /// The first module in the file, if any.
    pub fn first_module(&self) -> Option<&Module> {
        self.modules.first()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_produces_modules() {
        let parsed =
            ParsedFile::parse("module inv(input a, output y); assign y = ~a; endmodule").unwrap();
        assert_eq!(parsed.modules().len(), 1);
        assert_eq!(parsed.first_module().unwrap().name, "inv");
        assert!(parsed.source().starts_with("module"));
    }

    #[test]
    fn parse_errors_propagate() {
        assert!(ParsedFile::parse("module inv(input a output y); endmodule").is_err());
        assert!(ParsedFile::parse("module m; \"unterminated").is_err());
    }

    #[test]
    fn clone_shares_interned_names_cheaply() {
        let parsed =
            ParsedFile::parse("module m(input a, output y); assign y = a; endmodule").unwrap();
        let copy = parsed.clone();
        assert_eq!(parsed.modules(), copy.modules());
    }

    #[test]
    fn empty_source_has_no_modules() {
        let parsed = ParsedFile::parse("// just a comment\n").unwrap();
        assert!(parsed.modules().is_empty());
        assert!(parsed.first_module().is_none());
    }
}
