//! The lint gate asks [`Linter::has_error`], which returns after the first
//! lint pass that reports an error. On the runner's own kind of candidates
//! (samples of a tiny model, assembled under each problem's header) it must
//! answer what the full diagnostic list does.

use hwlm::{derive_seed, LanguageModel, NgramModel, SamplerConfig, TrainConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use verilog::{Linter, ParsedFile, Severity};
use verilogeval::ProblemSuite;

#[test]
fn has_error_agrees_with_lint_parsed_on_sampled_candidates() {
    let suite = ProblemSuite::verilog_eval_human();
    // A short order mixes the problems' bodies, so candidates often read
    // signals of other designs, as a weak model's do.
    let corpus: Vec<String> = suite
        .problems()
        .iter()
        .map(|p| format!("{}{}\n", p.prompt(), p.golden_solution))
        .collect();
    let model = NgramModel::train_named(
        "lint-predicate",
        &corpus,
        &TrainConfig {
            order: 6,
            ..Default::default()
        },
    );
    let linter = Linter::new();
    let (mut parsed, mut erring) = (0, 0);
    for (t_index, temperature) in [0.2, 0.8].into_iter().enumerate() {
        let sampler = SamplerConfig::with_temperature(temperature);
        for (p_index, problem) in suite.problems().iter().enumerate() {
            let mut rng =
                ChaCha8Rng::seed_from_u64(derive_seed(0x11E7, p_index as u64, t_index as u64));
            for completion in model.generate_texts(&problem.prompt(), 5, 120, &sampler, &mut rng) {
                let source = problem.assemble(&completion);
                let Ok(file) = ParsedFile::parse(source.as_str()) else {
                    continue;
                };
                let any_error = linter
                    .lint_parsed(&file)
                    .iter()
                    .any(|d| d.severity >= Severity::Error);
                assert_eq!(
                    linter.has_error(&file),
                    any_error,
                    "has_error disagrees with lint_parsed on:\n{source}"
                );
                parsed += 1;
                erring += usize::from(any_error);
            }
        }
    }
    assert!(
        erring >= 20 && parsed - erring >= 20,
        "the candidates reach too few of each verdict: {erring} erring of {parsed} parsed"
    );
}
