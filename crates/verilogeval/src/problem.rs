//! A single benchmark problem.

use serde::{Deserialize, Serialize};
use verilog::interp::EvalError;
use verilog::{ParsedFile, Testbench};

/// The design family of a problem, used for reporting per-family accuracy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum ProblemFamily {
    Gate,
    Mux,
    Arithmetic,
    Comparison,
    Encoding,
    Sequential,
    Fsm,
}

/// One VerilogEval-style problem: a natural-language specification, the
/// module interface the model must complete, a golden solution and a
/// functional testbench.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Problem {
    /// Stable identifier (e.g. `"and2"`).
    pub id: String,
    /// Design family.
    pub family: ProblemFamily,
    /// Human-written description of the desired behaviour.
    pub description: String,
    /// The module header the model must continue (up to and including the
    /// port list and `;`).
    pub module_header: String,
    /// A reference implementation that passes the testbench.
    pub golden_solution: String,
    /// Functional testbench applied to candidate solutions.
    pub testbench: Testbench,
}

impl Problem {
    /// The prompt presented to a model: the description as a comment block,
    /// then the module header on the next line (the paper's prompt format).
    pub fn prompt(&self) -> String {
        let mut out = String::new();
        for line in self.description.lines() {
            out.push_str("// ");
            out.push_str(line);
            out.push('\n');
        }
        out.push_str(&self.module_header);
        out.push('\n');
        out
    }

    /// Assembles a full candidate module from a model completion (the text
    /// generated after the prompt, expected to end with `endmodule`).
    pub fn assemble(&self, completion: &str) -> String {
        format!("{}\n{}\n", self.module_header, completion)
    }

    /// Parses the golden solution, which [`Problem::golden_passes`]
    /// simulates. Judging a candidate never needs it.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::Elaboration`] if the golden solution does not
    /// parse or holds no module.
    pub fn prepare(&self) -> Result<ParsedFile, EvalError> {
        match ParsedFile::parse(self.golden_solution.as_str()) {
            Ok(parsed) if parsed.first_module().is_none() => Err(EvalError::Elaboration(
                "golden solution has no module".into(),
            )),
            Ok(parsed) => Ok(parsed),
            Err(e) => Err(EvalError::Elaboration(format!(
                "golden solution parse error: {e}"
            ))),
        }
    }

    /// Judges a model completion (text after the prompt): the assembled
    /// module is lexed and parsed once, for both verdicts (see
    /// [`Problem::judge_source`]).
    pub fn judge_completion(&self, completion: &str, lint_gate: bool) -> CandidateVerdict {
        self.judge_source(&self.assemble(completion), lint_gate)
    }

    /// Judges one candidate source with a single lex + parse: functional
    /// correctness against the testbench and (when `lint_gate` is on)
    /// lint-cleanliness from the same parse, asked of
    /// [`verilog::Linter::has_error`], which returns after the first lint
    /// pass that reports an error.
    ///
    /// The verdict is a pure function of the problem and the source, so the
    /// runner judges each distinct candidate of a job once.
    pub fn judge_source(&self, source: &str, lint_gate: bool) -> CandidateVerdict {
        let Ok(parsed) = ParsedFile::parse(source) else {
            return CandidateVerdict {
                functional: false,
                lint_clean: false,
            };
        };
        let lint_clean = lint_gate && !verilog::Linter::new().has_error(&parsed);
        let functional = parsed
            .first_module()
            .is_some_and(|module| matches!(self.testbench.passes(module), Ok(true)));
        CandidateVerdict {
            functional,
            lint_clean,
        }
    }

    /// Whether a full module source is *lint-clean*: it parses and the
    /// semantic lint engine ([`verilog::lint`]) reports no error-severity
    /// findings. Warnings (style, latch inference, width truncation) do not
    /// disqualify a candidate.
    ///
    /// This is the pre-simulation gate: it judges the candidate's static
    /// plausibility independently of the testbench, so pass@k can be
    /// reported with and without lint-clean filtering. It asks
    /// [`verilog::Linter::has_error`], which returns after the first lint
    /// pass that reports an error. The runner asks the same question of each
    /// distinct candidate of a job once, from [`Problem::judge_source`]'s
    /// one parse.
    pub fn lint_clean(&self, source: &str) -> bool {
        ParsedFile::parse(source).is_ok_and(|parsed| !verilog::Linter::new().has_error(&parsed))
    }

    /// Verifies that the golden solution passes its own testbench.
    ///
    /// # Errors
    ///
    /// Returns the underlying simulation error if the golden solution cannot
    /// be parsed or simulated (a bug in the suite, caught by tests).
    pub fn golden_passes(&self) -> Result<bool, EvalError> {
        let golden = self.prepare()?;
        let module = golden
            .first_module()
            .expect("prepare() rejects module-free goldens");
        self.testbench.passes(module)
    }
}

/// Verdict on one candidate source, computed from a single lex + parse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CandidateVerdict {
    /// Whether the candidate passes the functional testbench.
    pub functional: bool,
    /// Whether the candidate is lint-clean (always `false` when judging
    /// with the lint gate disabled — the lint engine is not consulted).
    pub lint_clean: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use verilog::TestVector;

    fn and_problem() -> Problem {
        Problem {
            id: "and2".into(),
            family: ProblemFamily::Gate,
            description: "Implement a 2-input AND gate.".into(),
            module_header: "module top_module(input a, input b, output y);".into(),
            golden_solution:
                "module top_module(input a, input b, output y);\nassign y = a & b;\nendmodule\n"
                    .into(),
            testbench: Testbench::combinational(vec![
                TestVector::combinational(
                    vec![("a".into(), 0), ("b".into(), 1)],
                    vec![("y".into(), 0)],
                ),
                TestVector::combinational(
                    vec![("a".into(), 1), ("b".into(), 1)],
                    vec![("y".into(), 1)],
                ),
            ]),
        }
    }

    #[test]
    fn prompt_contains_description_and_header() {
        let p = and_problem();
        let prompt = p.prompt();
        assert!(prompt.starts_with("// Implement a 2-input AND gate."));
        assert!(prompt.trim_end().ends_with("output y);"));
    }

    #[test]
    fn golden_solution_passes() {
        assert!(and_problem().golden_passes().unwrap());
    }

    #[test]
    fn correct_completion_is_accepted() {
        let p = and_problem();
        assert!(
            p.judge_completion("assign y = a & b;\nendmodule", false)
                .functional
        );
        assert!(
            p.judge_completion("assign y = b & a; endmodule", false)
                .functional
        );
    }

    #[test]
    fn wrong_or_broken_completions_are_rejected() {
        let p = and_problem();
        for completion in [
            "assign y = a | b;\nendmodule",
            "assign y = a & b;", // missing endmodule
            "garbage <unk> tokens",
            "",
        ] {
            assert!(
                !p.judge_completion(completion, false).functional,
                "{completion}"
            );
        }
    }

    #[test]
    fn lint_gate_separates_clean_from_semantically_broken_candidates() {
        let p = and_problem();
        // The golden solution is lint-clean.
        assert!(p.lint_clean(&p.golden_solution));
        let lint_clean = |completion: &str| p.lint_clean(&p.assemble(completion));
        assert!(lint_clean("assign y = a & b;\nendmodule"));
        // A doubly-driven output is an error-severity finding.
        assert!(!lint_clean("assign y = a & b;\nassign y = a;\nendmodule"));
        // Unparsable candidates are never clean.
        assert!(!lint_clean("garbage <unk> tokens"));
        // Warning-severity findings do not disqualify: an unused
        // intermediate wire is tolerated.
        assert!(lint_clean(
            "wire t;\nassign t = a;\nassign y = t & b;\nendmodule"
        ));
    }

    #[test]
    fn judge_source_matches_the_lint_path_and_the_testbench() {
        let p = and_problem();
        let candidates = [
            (p.golden_solution.clone(), true),
            (p.assemble("assign y = a & b;\nendmodule"), true),
            (p.assemble("assign y = a | b;\nendmodule"), false), // wrong but clean
            // A lint error that still matches both vectors.
            (
                p.assemble("assign y = a & b;\nassign y = a;\nendmodule"),
                true,
            ),
            (p.assemble("assign y = a & b;"), false), // parse error
            (p.assemble("garbage <unk> tokens"), false), // parse error
            (String::new(), false),                   // parses, no modules
            ("// comment only\n".to_string(), false), // parses, no modules
        ];
        for (source, functional) in &candidates {
            let verdict = p.judge_source(source, true);
            assert_eq!(verdict.functional, *functional, "for:\n{source}");
            assert_eq!(verdict.lint_clean, p.lint_clean(source), "for:\n{source}");
            // With the gate off the lint engine is never consulted.
            let ungated = p.judge_source(source, false);
            assert_eq!(ungated.functional, verdict.functional);
            assert!(!ungated.lint_clean);
        }
        // Pinned edge case: a module-free source parses, so it is
        // lint-clean (no findings) but can never be functional.
        let empty = p.judge_source("// comment only\n", true);
        assert!(!empty.functional);
        assert!(empty.lint_clean);
        // And an unparsable source is neither.
        let broken = p.judge_source("module broken(", true);
        assert!(!broken.functional);
        assert!(!broken.lint_clean);
    }

    #[test]
    fn broken_goldens_keep_their_exact_error_strings() {
        let p = and_problem();
        let mut broken = p.clone();
        broken.golden_solution = "module broken(".into();
        let err = broken.golden_passes().unwrap_err();
        assert!(format!("{err:?}").contains("golden solution parse error"));
        let mut empty = p.clone();
        empty.golden_solution = "// nothing\n".into();
        let err = empty.golden_passes().unwrap_err();
        assert!(format!("{err:?}").contains("golden solution has no module"));
    }

    #[test]
    fn assemble_prepends_the_header() {
        let p = and_problem();
        let full = p.assemble("assign y = a & b;\nendmodule");
        assert!(full.starts_with("module top_module"));
        assert!(full.contains("endmodule"));
    }
}
