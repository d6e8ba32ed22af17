//! The runner's parse-once contract, asserted with the lexer's global pass
//! counter: `Runner::evaluate` lexes each sampled candidate exactly once,
//! for both its functional and its lint verdict, and never lexes a golden
//! solution. A round therefore lexes temperatures × problems × samples
//! times, in both execution modes.
//!
//! This file deliberately contains a single `#[test]` — the counter
//! ([`verilog::lex_passes`]) is process-global, and integration-test
//! binaries run their tests in parallel threads. One test per binary makes
//! the deltas exact.

use hwlm::parallel::ExecutionMode;
use hwlm::{NgramModel, TrainConfig};
use verilog::lex_passes;
use verilogeval::{EvalConfig, ProblemSuite, Runner};

#[test]
fn evaluation_lexes_each_candidate_once_and_no_golden() {
    let suite = ProblemSuite::verilog_eval_human().truncated(5);
    // Trained on the suite's own solutions, so candidates mix modules that
    // pass, modules that fail and sources that do not parse.
    let corpus: Vec<String> = suite
        .problems()
        .iter()
        .map(|p| format!("{}{}\n", p.prompt(), p.golden_solution))
        .collect();
    let model = NgramModel::train_named(
        "parse-once",
        &corpus,
        &TrainConfig {
            order: 8,
            ..Default::default()
        },
    );
    for execution in [ExecutionMode::Serial, ExecutionMode::Parallel] {
        let config = EvalConfig {
            samples_per_problem: 3,
            ks: vec![1, 3],
            temperatures: vec![0.2, 0.8],
            max_new_tokens: 60,
            lint_gate: true,
            execution,
            ..Default::default()
        };
        let expected =
            (config.temperatures.len() * suite.len() * config.samples_per_problem) as u64;
        let runner = Runner::new(suite.clone(), config);
        let before = lex_passes();
        let report = runner.evaluate(&model);
        let lexed = lex_passes() - before;
        assert_eq!(
            lexed, expected,
            "{execution:?}: {lexed} lex passes for {expected} candidates"
        );
        assert!(
            report.per_problem.iter().any(|r| r.correct > 0),
            "{execution:?}: no candidate passed, so the simulation path went untested"
        );
    }
}
