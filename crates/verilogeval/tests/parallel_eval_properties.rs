//! Property-based tests over the order-stable parallel evaluation harness:
//! for *any* base seed and sampling budget, the parallel [`EvalReport`] must
//! be byte-identical to the serial one, and — because every (problem,
//! temperature) pair derives its own RNG stream from the problem's identity
//! rather than its position — per-problem results must be invariant under
//! reordering the suite. Both equal a longhand runner that samples each
//! candidate with its own `generate_text` call and judges every one.

use hwlm::parallel::ExecutionMode;
use hwlm::{derive_seed, LanguageModel, NgramModel, SamplerConfig, TrainConfig};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use verilogeval::{mean_pass_at_k, EvalConfig, EvalReport, ProblemResult, ProblemSuite, Runner};

/// A small model trained on the golden solutions of the truncated suite, so
/// its samples exercise real token distributions (not just the unseen-token
/// fallback path).
fn model(suite: &ProblemSuite) -> NgramModel {
    let corpus: Vec<String> = suite
        .problems()
        .iter()
        .map(|p| format!("{}{}\n", p.prompt(), p.golden_solution))
        .collect();
    NgramModel::train_named(
        "prop",
        &corpus,
        &TrainConfig {
            order: 8,
            ..Default::default()
        },
    )
}

fn config(seed: u64, samples: usize, execution: ExecutionMode) -> EvalConfig {
    EvalConfig {
        samples_per_problem: samples,
        ks: vec![1, samples.max(1)],
        temperatures: vec![0.2, 0.8],
        max_new_tokens: 60,
        lint_gate: true,
        seed,
        execution,
    }
}

/// `Runner::evaluate` written out longhand: every sample is drawn by its own
/// `generate_text` call and judged, repeats included, and the temperature
/// with the strictly best pass@(largest k) is reported.
fn longhand_evaluate<M: LanguageModel>(
    suite: &ProblemSuite,
    config: &EvalConfig,
    model: &M,
) -> EvalReport {
    let rank_k = *config.ks.iter().max().expect("ks are non-empty");
    let mut best: Option<EvalReport> = None;
    for (t_index, &temperature) in config.temperatures.iter().enumerate() {
        let sampler = SamplerConfig::with_temperature(temperature);
        let mut per_problem = Vec::new();
        for problem in suite.problems() {
            let lane = problem
                .id
                .bytes()
                .fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
                    (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
                });
            let seed = derive_seed(config.seed, lane, t_index as u64);
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut result = ProblemResult {
                id: problem.id.clone(),
                samples: config.samples_per_problem,
                correct: 0,
                lint_clean: 0,
                correct_lint_clean: 0,
            };
            for _ in 0..config.samples_per_problem {
                let completion = model.generate_text(
                    &problem.prompt(),
                    config.max_new_tokens,
                    &sampler,
                    &mut rng,
                );
                let verdict = problem.judge_completion(&completion, config.lint_gate);
                result.correct += usize::from(verdict.functional);
                result.lint_clean += usize::from(verdict.lint_clean);
                result.correct_lint_clean += usize::from(verdict.functional && verdict.lint_clean);
            }
            per_problem.push(result);
        }
        let rows = |count: fn(&ProblemResult) -> usize| -> Vec<(usize, f64)> {
            let nc: Vec<(usize, usize)> =
                per_problem.iter().map(|r| (r.samples, count(r))).collect();
            config
                .ks
                .iter()
                .map(|&k| (k, 100.0 * mean_pass_at_k(&nc, k)))
                .collect()
        };
        let report = EvalReport {
            model: model.name().to_string(),
            best_temperature: temperature,
            pass_at_k_percent: rows(|r| r.correct),
            pass_at_k_lint_percent: if config.lint_gate {
                rows(|r| r.correct_lint_clean)
            } else {
                Vec::new()
            },
            per_problem,
        };
        let rank = |r: &EvalReport| r.pass_percent(rank_k).unwrap_or(0.0);
        if best
            .as_ref()
            .is_none_or(|current| rank(&report) > rank(current))
        {
            best = Some(report);
        }
    }
    best.expect("temperatures are non-empty")
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// The runner encodes each job's prompt once and judges each distinct
    /// candidate once; neither may change a count. With the lint gate on
    /// and off, in both execution modes, its report equals the longhand
    /// runner's.
    #[test]
    fn evaluate_equals_the_longhand_runner(
        seed in any::<u64>(),
        samples in 1usize..8,
        problems in 2usize..7,
    ) {
        let suite = ProblemSuite::verilog_eval_human().truncated(problems);
        let model = model(&suite);
        for (execution, lint_gate) in [
            (ExecutionMode::Serial, true),
            (ExecutionMode::Parallel, true),
            (ExecutionMode::Serial, false),
            (ExecutionMode::Parallel, false),
        ] {
            let config = EvalConfig { lint_gate, ..config(seed, samples, execution) };
            let longhand = longhand_evaluate(&suite, &config, &model);
            let report = Runner::new(suite.clone(), config).evaluate(&model);
            prop_assert_eq!(
                &report, &longhand,
                "{:?}, lint gate {}: reports diverged at seed {}", execution, lint_gate, seed
            );
        }
    }

    /// The tentpole invariant: parallelism is a wall-clock knob, not a
    /// semantics change. Any (seed, sampling budget) must produce the same
    /// report — per-problem counts, best temperature, pass@k rows — in both
    /// execution modes.
    #[test]
    fn parallel_report_is_byte_identical_to_serial(
        seed in any::<u64>(),
        samples in 1usize..4,
        problems in 2usize..7,
    ) {
        let suite = ProblemSuite::verilog_eval_human().truncated(problems);
        let model = model(&suite);
        let serial = Runner::new(suite.clone(), config(seed, samples, ExecutionMode::Serial))
            .evaluate(&model);
        let parallel = Runner::new(suite, config(seed, samples, ExecutionMode::Parallel))
            .evaluate(&model);
        prop_assert_eq!(&parallel, &serial, "reports diverged at seed {}", seed);
    }

    /// The determinism fix this harness was built around: a problem's result
    /// depends only on the base seed and the problem's own identity, so
    /// rotating the suite reorders the report's rows without changing any of
    /// them.
    #[test]
    fn per_problem_results_survive_suite_reordering(
        seed in any::<u64>(),
        samples in 1usize..3,
        rotation in 1usize..5,
    ) {
        let suite = ProblemSuite::verilog_eval_human().truncated(5);
        let model = model(&suite);
        let mut rotated_problems = suite.problems().to_vec();
        let split = rotation % rotated_problems.len();
        rotated_problems.rotate_left(split);
        let rotated = ProblemSuite::new(rotated_problems);

        let base = Runner::new(suite, config(seed, samples, ExecutionMode::Parallel))
            .evaluate(&model);
        let reordered = Runner::new(rotated, config(seed, samples, ExecutionMode::Parallel))
            .evaluate(&model);

        let mut base_rows = base.per_problem.clone();
        let mut reordered_rows = reordered.per_problem.clone();
        base_rows.sort_by(|a, b| a.id.cmp(&b.id));
        reordered_rows.sort_by(|a, b| a.id.cmp(&b.id));
        prop_assert_eq!(base_rows, reordered_rows, "rotation changed a problem's result");
        prop_assert_eq!(base.pass_at_k_percent, reordered.pass_at_k_percent);
    }
}
