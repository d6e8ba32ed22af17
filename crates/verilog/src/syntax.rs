//! Syntax checking — the Icarus Verilog stand-in used by dataset curation.
//!
//! The paper runs `iverilog` over every candidate file and removes files
//! with *syntax-specific* errors, explicitly tolerating unresolved references
//! to modules defined in other files (§III-D2). [`SyntaxChecker`] reproduces
//! that judgement with the in-crate lexer and parser.

use std::fmt;

use crate::ast::Module;
use crate::parser::{ParseError, Parser};

/// Why a file failed the syntax check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SyntaxError {
    /// The file could not be lexed or parsed.
    Parse(ParseError),
    /// The file parsed but contains no module definition at all (the paper's
    /// corpus keeps only Verilog *design* files).
    NoModules,
}

impl fmt::Display for SyntaxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SyntaxError::Parse(e) => write!(f, "{e}"),
            SyntaxError::NoModules => write!(f, "file contains no module definitions"),
        }
    }
}

impl std::error::Error for SyntaxError {}

/// Summary of a successful syntax check.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntaxReport {
    /// Names of the modules defined in the file.
    pub module_names: Vec<String>,
    /// Names of modules that are instantiated but not defined in the file —
    /// tolerated, exactly as the paper tolerates missing dependencies.
    pub unresolved_instances: Vec<String>,
}

/// Checks Verilog files for syntax correctness.
///
/// # Example
///
/// ```
/// use verilog::SyntaxChecker;
///
/// let checker = SyntaxChecker::new();
/// let report = checker.check("module top(input a, output y); sub u0(.a(a), .y(y)); endmodule")?;
/// assert_eq!(report.module_names, vec!["top"]);
/// assert_eq!(report.unresolved_instances, vec!["sub"]); // tolerated
/// # Ok::<(), verilog::SyntaxError>(())
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SyntaxChecker;

impl SyntaxChecker {
    /// Creates a checker with the paper's policy: files must parse and must
    /// contain at least one module; unresolved instances are tolerated.
    pub fn new() -> Self {
        Self
    }

    /// Checks `src`, returning a [`SyntaxReport`] on success.
    ///
    /// # Errors
    ///
    /// Returns [`SyntaxError::Parse`] when the file cannot be lexed/parsed and
    /// [`SyntaxError::NoModules`] when it parses but defines no module.
    pub fn check(&self, src: &str) -> Result<SyntaxReport, SyntaxError> {
        let modules = Parser::parse_source(src).map_err(SyntaxError::Parse)?;
        if modules.is_empty() {
            return Err(SyntaxError::NoModules);
        }
        Ok(Self::report(&modules))
    }

    /// Checks an already-parsed file without re-lexing or re-parsing — the
    /// parse-once path used when a [`crate::ParsedFile`] is shared between
    /// the syntax filter and downstream consumers.
    ///
    /// # Errors
    ///
    /// Returns [`SyntaxError::NoModules`] when the file defines no module.
    /// (Parse errors cannot occur: a `ParsedFile` exists only if parsing
    /// succeeded.)
    pub fn check_parsed(&self, parsed: &crate::ParsedFile) -> Result<SyntaxReport, SyntaxError> {
        if parsed.modules().is_empty() {
            return Err(SyntaxError::NoModules);
        }
        Ok(Self::report(parsed.modules()))
    }

    /// Convenience predicate: does the file pass the syntax filter?
    pub fn is_valid(&self, src: &str) -> bool {
        self.check(src).is_ok()
    }

    fn report(modules: &[Module]) -> SyntaxReport {
        let module_names: Vec<String> = modules.iter().map(|m| m.name.to_string()).collect();
        let mut unresolved: Vec<String> = Vec::new();
        for module in modules {
            for inst in module.instances() {
                let target = module.resolve(inst.module);
                if !module_names.iter().any(|n| n == target)
                    && !unresolved.iter().any(|n| n == target)
                {
                    unresolved.push(target.to_string());
                }
            }
        }
        SyntaxReport {
            module_names,
            unresolved_instances: unresolved,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = "module inv(input a, output y); assign y = ~a; endmodule";

    #[test]
    fn accepts_valid_module() {
        let checker = SyntaxChecker::new();
        let report = checker.check(GOOD).unwrap();
        assert_eq!(report.module_names, vec!["inv"]);
        assert!(report.unresolved_instances.is_empty());
        assert!(checker.is_valid(GOOD));
    }

    #[test]
    fn rejects_missing_port_comma() {
        let checker = SyntaxChecker::new();
        let err = checker
            .check("module inv(input a output y); assign y = ~a; endmodule")
            .unwrap_err();
        assert!(matches!(err, SyntaxError::Parse(_)));
        assert!(format!("{err}").contains("parse error"));
    }

    #[test]
    fn rejects_truncated_file() {
        let checker = SyntaxChecker::new();
        assert!(!checker.is_valid("module inv(input a, output y); assign y = ~a;"));
    }

    #[test]
    fn tolerates_unresolved_submodules() {
        let checker = SyntaxChecker::new();
        let report = checker
            .check("module top(input a, output y); helper u (.a(a), .y(y)); endmodule")
            .unwrap();
        assert_eq!(report.unresolved_instances, vec!["helper"]);
    }

    #[test]
    fn resolved_submodules_are_not_reported() {
        let checker = SyntaxChecker::new();
        let src = "module helper(input a, output y); assign y = a; endmodule\n\
                   module top(input a, output y); helper u (.a(a), .y(y)); endmodule";
        let report = checker.check(src).unwrap();
        assert!(report.unresolved_instances.is_empty());
        assert_eq!(report.module_names.len(), 2);
    }

    #[test]
    fn module_free_file_fails() {
        assert!(matches!(
            SyntaxChecker::new().check("// just a comment\n"),
            Err(SyntaxError::NoModules)
        ));
    }

    #[test]
    fn non_verilog_text_is_rejected() {
        let checker = SyntaxChecker::new();
        assert!(!checker.is_valid("This is a README, not Verilog."));
        assert!(!checker.is_valid("{ \"json\": true }"));
    }
}
