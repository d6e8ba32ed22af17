//! Semantic lint engine: rule-based static analysis over parsed [`Module`]
//! ASTs.
//!
//! The curation funnel's syntax filter only asks "does it parse?". This
//! module asks the next question — "is it *plausible* hardware?" — with
//! eight analysis passes over the AST:
//!
//! 1. **Scope analysis** (`scope`): symbol resolution over ports, nets,
//!    parameters and genvars; undeclared/unused/redeclared identifiers and
//!    unknown, unconnected or direction-mismatched instance ports.
//! 2. **Driver analysis** (`drivers`): multiply-driven nets, undriven
//!    outputs, and regs assigned from multiple `always` blocks.
//! 3. **Width inference** (`width`): bit-width inference over [`Expr`](crate::ast::Expr)
//!    with parameter constant-folding; truncating assignments, width-unsafe
//!    port connections and unsized literals in concatenations.
//! 4. **Dependency graph** (`graph`): a net-dependency graph over the
//!    combinational logic with Tarjan SCC detection for combinational
//!    loops, plus incomplete sensitivity lists.
//! 5. **Procedural style** (`latch`): latch inference (incomplete
//!    `if`/`case` in combinational `always`) and blocking/non-blocking
//!    assignment misuse by edge kind.
//! 6. **Clock/reset domains** (`clock`): per-`always` clock and
//!    async-reset inference; unsynchronized clock-domain crossings,
//!    mixed clock edges, contradictory async-reset polarity, and resets
//!    used both sync and async.
//! 7. **Case semantics** (`case_analysis`): `casez`/`casex` wildcard
//!    subsumption over the ternary bit-lattice; duplicated and covered
//!    (unreachable) case arms.
//! 8. **Cross-module widths** (`xmodule`): instance connection widths
//!    folded under instantiation parameter overrides against the target
//!    port's declared width.
//!
//! Every rule is catalogued in [`RuleId`] with a stable kebab-case id and a
//! default [`Severity`]; diagnostics are deterministic — the same source
//! always yields the same [`LintDiagnostic`] list in the same order.
//!
//! Like [`crate::SyntaxChecker`], the linter tolerates references to modules
//! defined in other files: instance-port rules only fire for instances whose
//! target module is defined in the same source, and connections to
//! unresolved instances conservatively count as both reads and drives.
//!
//! # Example
//!
//! ```
//! use verilog::lint::{Linter, RuleId};
//!
//! let diags = Linter::new()
//!     .lint_source("module m(input a, output y);\nassign y = a;\nassign y = ~a;\nendmodule")
//!     .unwrap();
//! assert!(diags.iter().any(|d| d.rule == RuleId::MultiplyDriven));
//! ```

mod case_analysis;
mod clock;
mod drivers;
mod graph;
mod latch;
mod model;
mod scope;
mod width;
mod xmodule;

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::ast::Module;
use crate::parser::{ParseError, Parser};

pub(crate) use model::ModuleModel;

/// One analysis pass: appends its findings on one module.
type Pass = fn(&ModuleModel<'_>, &mut Vec<LintDiagnostic>);

/// The eight passes, in the fixed order every entry point runs them.
const PASSES: [Pass; 8] = [
    scope::check,
    drivers::check,
    width::check,
    graph::check,
    latch::check,
    clock::check,
    case_analysis::check,
    xmodule::check,
];

/// How serious a diagnostic is: every rule fires at its
/// [`RuleId::default_severity`].
///
/// Ordered: `Warning < Error`, so severity thresholds can be expressed with
/// comparisons.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub enum Severity {
    /// Suspicious but simulatable construct.
    #[default]
    Warning,
    /// Semantically broken hardware (would not synthesise or simulate
    /// meaningfully).
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// The stable identifier of one lint rule.
///
/// The enum order is the reporting order: diagnostics are sorted by module,
/// then rule, then locus, which keeps output deterministic and stable across
/// releases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum RuleId {
    /// An identifier is read or driven but never declared.
    UndeclaredIdent,
    /// A net or variable is declared twice.
    RedeclaredIdent,
    /// A declared signal is never read.
    UnusedSignal,
    /// A named connection targets a port the instantiated module lacks.
    UnknownPort,
    /// A positional instantiation's connection count differs from the
    /// instantiated module's port count.
    PortCountMismatch,
    /// An input port of an instantiated module is left unconnected.
    UnconnectedPort,
    /// An instance output drives something that cannot be driven.
    PortDirectionMismatch,
    /// A net has more than one driver.
    MultiplyDriven,
    /// An output port is never driven.
    UndrivenOutput,
    /// A reg is assigned from more than one `always` block.
    RegMultiAlways,
    /// An assignment or connection changes bit width in a lossy or
    /// ambiguous way.
    WidthMismatch,
    /// Combinational logic feeds back on itself.
    CombLoop,
    /// A level-sensitive `always` reads signals missing from its
    /// sensitivity list.
    IncompleteSensitivity,
    /// A combinational `always` leaves a target unassigned on some path,
    /// inferring a latch.
    InferredLatch,
    /// A blocking assignment inside an edge-triggered `always`.
    BlockingInSequential,
    /// A non-blocking assignment inside a combinational `always`.
    NonblockingInComb,
    /// A signal registered in one clock domain is sampled in another
    /// without a two-flop synchronizer chain.
    UnsynchronizedCdc,
    /// The same clock is used on both `posedge` and `negedge` across
    /// `always` blocks.
    MixedClockEdge,
    /// An async reset's sensitivity edge contradicts the polarity its
    /// reset branch tests, or its edge disagrees across blocks.
    AsyncResetPolarity,
    /// The same reset is used asynchronously in one `always` block and
    /// synchronously in another.
    MixedResetStyle,
    /// A later `case` arm is unreachable because an earlier arm's pattern
    /// duplicates or covers it.
    CaseArmOverlap,
    /// An instance connection's width disagrees with the target port's
    /// declared width (the non-lossy disagreements `width-mismatch` does
    /// not already report).
    PortWidthMismatch,
}

impl RuleId {
    /// Every rule, in reporting order.
    pub const ALL: [RuleId; 22] = [
        RuleId::UndeclaredIdent,
        RuleId::RedeclaredIdent,
        RuleId::UnusedSignal,
        RuleId::UnknownPort,
        RuleId::PortCountMismatch,
        RuleId::UnconnectedPort,
        RuleId::PortDirectionMismatch,
        RuleId::MultiplyDriven,
        RuleId::UndrivenOutput,
        RuleId::RegMultiAlways,
        RuleId::WidthMismatch,
        RuleId::CombLoop,
        RuleId::IncompleteSensitivity,
        RuleId::InferredLatch,
        RuleId::BlockingInSequential,
        RuleId::NonblockingInComb,
        RuleId::UnsynchronizedCdc,
        RuleId::MixedClockEdge,
        RuleId::AsyncResetPolarity,
        RuleId::MixedResetStyle,
        RuleId::CaseArmOverlap,
        RuleId::PortWidthMismatch,
    ];

    /// The stable kebab-case rule id (used in provenance categories and
    /// metric names).
    pub fn id(&self) -> &'static str {
        match self {
            RuleId::UndeclaredIdent => "undeclared-ident",
            RuleId::RedeclaredIdent => "redeclared-ident",
            RuleId::UnusedSignal => "unused-signal",
            RuleId::UnknownPort => "unknown-port",
            RuleId::PortCountMismatch => "port-count-mismatch",
            RuleId::UnconnectedPort => "unconnected-port",
            RuleId::PortDirectionMismatch => "port-direction-mismatch",
            RuleId::MultiplyDriven => "multiply-driven",
            RuleId::UndrivenOutput => "undriven-output",
            RuleId::RegMultiAlways => "reg-multi-always",
            RuleId::WidthMismatch => "width-mismatch",
            RuleId::CombLoop => "comb-loop",
            RuleId::IncompleteSensitivity => "incomplete-sensitivity",
            RuleId::InferredLatch => "inferred-latch",
            RuleId::BlockingInSequential => "blocking-in-sequential",
            RuleId::NonblockingInComb => "nonblocking-in-comb",
            RuleId::UnsynchronizedCdc => "unsynchronized-cdc",
            RuleId::MixedClockEdge => "mixed-clock-edge",
            RuleId::AsyncResetPolarity => "async-reset-polarity",
            RuleId::MixedResetStyle => "mixed-reset-style",
            RuleId::CaseArmOverlap => "case-arm-overlap",
            RuleId::PortWidthMismatch => "port-width-mismatch",
        }
    }

    /// The rule id with `-` replaced by `_` — a metric-safe key for
    /// FFH-METRIC lines.
    pub fn metric_key(&self) -> String {
        self.id().replace('-', "_")
    }

    /// The severity the rule fires at.
    pub fn default_severity(&self) -> Severity {
        match self {
            RuleId::UndeclaredIdent
            | RuleId::UnknownPort
            | RuleId::PortCountMismatch
            | RuleId::PortDirectionMismatch
            | RuleId::MultiplyDriven
            | RuleId::CombLoop
            | RuleId::AsyncResetPolarity => Severity::Error,
            RuleId::RedeclaredIdent
            | RuleId::UnusedSignal
            | RuleId::UnconnectedPort
            | RuleId::UndrivenOutput
            | RuleId::RegMultiAlways
            | RuleId::WidthMismatch
            | RuleId::IncompleteSensitivity
            | RuleId::InferredLatch
            | RuleId::BlockingInSequential
            | RuleId::NonblockingInComb
            | RuleId::UnsynchronizedCdc
            | RuleId::MixedClockEdge
            | RuleId::MixedResetStyle
            | RuleId::CaseArmOverlap
            | RuleId::PortWidthMismatch => Severity::Warning,
        }
    }

    /// One-line description of what the rule detects.
    pub fn summary(&self) -> &'static str {
        match self {
            RuleId::UndeclaredIdent => "identifier referenced but never declared",
            RuleId::RedeclaredIdent => "net or variable declared more than once",
            RuleId::UnusedSignal => "declared signal is never read",
            RuleId::UnknownPort => "named connection to a port the module does not have",
            RuleId::PortCountMismatch => "positional connection count differs from port count",
            RuleId::UnconnectedPort => "instance input port left unconnected",
            RuleId::PortDirectionMismatch => "instance output drives a non-drivable expression",
            RuleId::MultiplyDriven => "net has more than one driver",
            RuleId::UndrivenOutput => "output port is never driven",
            RuleId::RegMultiAlways => "reg assigned from more than one always block",
            RuleId::WidthMismatch => "assignment or connection loses or leaves ambiguous bits",
            RuleId::CombLoop => "combinational logic feeds back on itself",
            RuleId::IncompleteSensitivity => "level-sensitive always misses signals it reads",
            RuleId::InferredLatch => "combinational always leaves a target unassigned on some path",
            RuleId::BlockingInSequential => "blocking assignment in edge-triggered always",
            RuleId::NonblockingInComb => "non-blocking assignment in combinational always",
            RuleId::UnsynchronizedCdc => "signal crosses clock domains without a 2-FF synchronizer",
            RuleId::MixedClockEdge => "same clock used on both posedge and negedge",
            RuleId::AsyncResetPolarity => "async reset edge contradicts the tested polarity",
            RuleId::MixedResetStyle => "same reset used both synchronously and asynchronously",
            RuleId::CaseArmOverlap => "case arm duplicated or covered by an earlier arm",
            RuleId::PortWidthMismatch => "instance connection width differs from the port width",
        }
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.id())
    }
}

/// One finding of the lint engine.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LintDiagnostic {
    /// The rule that fired.
    pub rule: RuleId,
    /// Severity, the rule's [`RuleId::default_severity`].
    pub severity: Severity,
    /// Name of the module the finding is in.
    pub module: String,
    /// What the finding is anchored to — a net, port, instance or always
    /// block (e.g. `"net 'y'"`, `"always #2"`).
    pub locus: String,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for LintDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: [{}] {} ({}): {}",
            self.severity, self.rule, self.module, self.locus, self.message
        )
    }
}

/// The rule-based semantic analysis engine.
///
/// Every rule runs, at its default severity; all analysis state is
/// per-call.
#[derive(Debug, Clone, Default)]
pub struct Linter;

impl Linter {
    /// A linter with every rule enabled at its default severity.
    pub fn new() -> Self {
        Self
    }

    /// Parses `source` and lints every module in it.
    ///
    /// # Errors
    ///
    /// Returns the parse error if the source does not parse — syntax comes
    /// first; lint rules only apply to well-formed ASTs.
    pub fn lint_source(&self, source: &str) -> Result<Vec<LintDiagnostic>, ParseError> {
        let modules = Parser::parse_source(source)?;
        Ok(self.lint_modules(&modules))
    }

    /// Lints an already-parsed file without re-lexing or re-parsing — the
    /// parse-once path used when a [`crate::ParsedFile`] is shared between
    /// the syntax filter and the lint engine.
    pub fn lint_parsed(&self, parsed: &crate::ParsedFile) -> Vec<LintDiagnostic> {
        self.lint_modules(parsed.modules())
    }

    /// Whether an already-parsed file has an error-severity finding: the
    /// answer of `lint_parsed(parsed).iter().any(|d| d.severity >=
    /// Severity::Error)`, without sorting or keeping the findings.
    ///
    /// The passes run in [`Linter::lint_modules`]' order, module by module,
    /// and the check returns after the first pass that reports an error.
    pub fn has_error(&self, parsed: &crate::ParsedFile) -> bool {
        let modules = parsed.modules();
        let mut findings = Vec::new();
        modules.iter().any(|module| {
            let model = ModuleModel::build(module, modules);
            PASSES.iter().any(|pass| {
                findings.clear();
                pass(&model, &mut findings);
                findings.iter().any(|d| d.severity >= Severity::Error)
            })
        })
    }

    /// Lints a set of modules that share one source file (instances are
    /// resolved against the set; references to modules outside it are
    /// tolerated).
    pub fn lint_modules(&self, modules: &[Module]) -> Vec<LintDiagnostic> {
        let mut diagnostics = Vec::new();
        for module in modules {
            let model = ModuleModel::build(module, modules);
            let mut module_diags = Vec::new();
            for pass in PASSES {
                pass(&model, &mut module_diags);
            }
            // Deterministic order: rule, then locus, then message — the
            // passes already run in a fixed order, this pins ties.
            module_diags.sort_by(|a, b| {
                (a.rule, &a.locus, &a.message).cmp(&(b.rule, &b.locus, &b.message))
            });
            diagnostics.extend(module_diags.into_iter().map(|mut d| {
                d.module = module.name.to_string();
                d
            }));
        }
        diagnostics
    }
}

/// Convenience: a diagnostic with the rule's default severity.
pub(crate) fn diag(
    rule: RuleId,
    locus: impl Into<String>,
    message: impl Into<String>,
) -> LintDiagnostic {
    LintDiagnostic {
        rule,
        severity: rule.default_severity(),
        module: String::new(),
        locus: locus.into(),
        message: message.into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders_warning_below_error() {
        assert!(Severity::Warning < Severity::Error);
    }

    #[test]
    fn rule_ids_are_unique_and_kebab_case() {
        let mut seen = std::collections::HashSet::new();
        for rule in RuleId::ALL {
            assert!(seen.insert(rule.id()), "duplicate rule id {}", rule.id());
            assert!(rule
                .id()
                .chars()
                .all(|c| c.is_ascii_lowercase() || c == '-'));
            assert!(!rule.summary().is_empty());
        }
        assert_eq!(seen.len(), RuleId::ALL.len());
    }

    #[test]
    fn catalogue_has_twenty_two_rules() {
        assert_eq!(RuleId::ALL.len(), 22);
    }

    #[test]
    fn metric_keys_use_underscores() {
        assert_eq!(RuleId::CombLoop.metric_key(), "comb_loop");
        assert_eq!(RuleId::WidthMismatch.metric_key(), "width_mismatch");
    }

    #[test]
    fn clean_module_has_no_diagnostics() {
        let source = "module m(input a, input b, output y);\nassign y = a & b;\nendmodule";
        assert!(Linter::new().lint_source(source).unwrap().is_empty());
    }

    #[test]
    fn a_range_spanning_every_u64_lints_without_panicking() {
        let source = "module m(input a, output y);\nwire [64'hffffffffffffffff:0] w;\n\
                      assign w = a;\nassign y = a;\nendmodule";
        assert!(Linter::new().lint_source(source).is_ok());
    }

    /// `has_error` ≡ any error-severity finding of `lint_parsed`, asserted
    /// on `source`, whose answer must be `expected`.
    fn assert_has_error(source: &str, expected: bool) {
        let parsed = crate::ParsedFile::parse(source).unwrap();
        let linter = Linter::new();
        let any_error = linter
            .lint_parsed(&parsed)
            .iter()
            .any(|d| d.severity >= Severity::Error);
        assert_eq!(any_error, expected, "lint_parsed on:\n{source}");
        assert_eq!(
            linter.has_error(&parsed),
            expected,
            "has_error on:\n{source}"
        );
    }

    #[test]
    fn has_error_asks_only_for_error_severity() {
        assert_has_error("", false);
        assert_has_error(
            "module m(input a, output y);\nassign y = a;\nendmodule",
            false,
        );
        // An unused signal is a warning.
        assert_has_error(
            "module m(input a, input b, output y);\nassign y = a;\nendmodule",
            false,
        );
        assert_has_error(
            "module m(input a, output y);\nassign y = a & ghost;\nendmodule",
            true,
        );
    }

    #[test]
    fn has_error_finds_an_error_only_in_a_later_module() {
        // The first module carries warnings only; the second errs in a late
        // pass: a combinational loop (graph) or a reset polarity (clock).
        let warned = "module first(input a, input b, output y);\nassign y = a;\nendmodule\n";
        let looped = "module second(input a, output y);\nwire p, q;\n\
                      assign p = q & a;\nassign q = p;\nassign y = q;\nendmodule\n";
        let reset = "module third(input clk, input rst_n, input d, output reg q);\n\
                     always @(posedge clk or posedge rst_n)\n\
                     if (!rst_n) q <= 1'b0; else q <= d;\nendmodule\n";
        assert_has_error(warned, false);
        for late in [looped, reset] {
            assert_has_error(&format!("{warned}{late}"), true);
            assert_has_error(&format!("{warned}{warned}{late}"), true);
        }
    }

    #[test]
    fn lint_source_propagates_parse_errors() {
        assert!(Linter::new().lint_source("not verilog").is_err());
    }

    #[test]
    fn diagnostics_render_their_parts() {
        let d = LintDiagnostic {
            rule: RuleId::CombLoop,
            severity: Severity::Error,
            module: "m".into(),
            locus: "net 'y'".into(),
            message: "cycle".into(),
        };
        let text = d.to_string();
        assert!(text.contains("comb-loop"));
        assert!(text.contains("error"));
        assert!(text.contains("net 'y'"));
    }
}
