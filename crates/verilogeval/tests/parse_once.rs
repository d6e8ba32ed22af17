//! The runner's parse-once contract, asserted with the lexer's global pass
//! counter: `Runner::evaluate` lexes each distinct candidate of a
//! (problem, temperature) job exactly once, for both its functional and its
//! lint verdict, and never lexes a golden solution. A round therefore lexes
//! once per distinct completion per job, in both execution modes; the test
//! counts those from the same draws the runner makes.
//!
//! This file deliberately contains a single `#[test]` — the counter
//! ([`verilog::lex_passes`]) is process-global, and integration-test
//! binaries run their tests in parallel threads. One test per binary makes
//! the deltas exact.

use hwlm::parallel::ExecutionMode;
use hwlm::{derive_seed, LanguageModel, NgramModel, SamplerConfig, TrainConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use verilog::lex_passes;
use verilogeval::{EvalConfig, ProblemSuite, Runner};

/// The FNV-1a hash of a problem id: the seed lane documented on
/// [`EvalConfig::seed`].
fn fnv1a(id: &str) -> u64 {
    id.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The number of distinct completions in each (temperature, problem) job,
/// summed: the draws are the runner's, made longhand.
fn distinct_completions<M: LanguageModel>(
    model: &M,
    suite: &ProblemSuite,
    config: &EvalConfig,
) -> u64 {
    let mut distinct = 0;
    for (t_index, &temperature) in config.temperatures.iter().enumerate() {
        let sampler = SamplerConfig::with_temperature(temperature);
        for problem in suite.problems() {
            let seed = derive_seed(config.seed, fnv1a(&problem.id), t_index as u64);
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut seen: Vec<String> = Vec::new();
            for _ in 0..config.samples_per_problem {
                let completion = model.generate_text(
                    &problem.prompt(),
                    config.max_new_tokens,
                    &sampler,
                    &mut rng,
                );
                if !seen.contains(&completion) {
                    seen.push(completion);
                }
            }
            distinct += seen.len() as u64;
        }
    }
    distinct
}

#[test]
fn evaluation_lexes_each_distinct_candidate_once_and_no_golden() {
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
        let samples = (config.temperatures.len() * suite.len() * config.samples_per_problem) as u64;
        let expected = distinct_completions(&model, &suite, &config);
        // Repeats must occur, or the test would not tell a memoised runner
        // from one that judges every sample.
        assert!(
            expected < samples,
            "{execution:?}: all {samples} samples are distinct"
        );
        let runner = Runner::new(suite.clone(), config);
        let before = lex_passes();
        let report = runner.evaluate(&model);
        let lexed = lex_passes() - before;
        assert_eq!(
            lexed, expected,
            "{execution:?}: {lexed} lex passes for {expected} distinct candidates"
        );
        assert!(
            report.per_problem.iter().any(|r| r.correct > 0),
            "{execution:?}: no candidate passed, so the simulation path went untested"
        );
    }
}
