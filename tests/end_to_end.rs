//! Cross-crate integration tests: the whole pipeline of Figure 1 exercised
//! through the public APIs of every crate, at a tiny deterministic scale.

use free_fair_hw::copyright_bench::{BenchmarkConfig, CopyrightBenchmark, CopyrightedReference};
use free_fair_hw::curation::{CopyrightDetector, CurationConfig, CurationPipeline};
use free_fair_hw::freeset::build_freeset;
use free_fair_hw::freeset::config::{ExperimentScale, FreeSetConfig};
use free_fair_hw::freeset::corpus::ScrapedCorpus;
use free_fair_hw::freeset::freev::FreeVBuilder;
use free_fair_hw::gh_sim::{GithubApi, RepoQuery, Scraper, Universe, UniverseConfig};
use free_fair_hw::hwlm::{LanguageModel, SamplerConfig};
use free_fair_hw::verilog::{Parser, SyntaxChecker};
use free_fair_hw::verilogeval::{pass_at_k, EvalConfig, ProblemSuite, Runner};
use rand::SeedableRng;

fn tiny_scale() -> ExperimentScale {
    ExperimentScale::tiny()
}

#[test]
fn scrape_curate_train_and_generate() {
    // 1. Scrape.
    let build = build_freeset(&FreeSetConfig::at_scale(&tiny_scale()));
    assert!(build.scraped.len() > 100, "scrape too small");
    let funnel = build.dataset.funnel();
    assert_eq!(funnel.initial(), build.scraped.len());
    assert!(funnel.final_count() > 0);
    assert!(funnel.final_count() < funnel.initial());

    // 2. Every curated file is syntactically valid and copyright-free.
    let checker = SyntaxChecker::new();
    let detector = CopyrightDetector::new();
    for file in build.dataset.files() {
        assert!(
            checker.is_valid(file.content()),
            "invalid file survived curation"
        );
        assert!(
            !detector.is_protected(file.content()),
            "protected file survived curation"
        );
    }

    // 3. Train FreeV and generate something parseable from a clean prompt.
    let corpus = build.training_corpus();
    let freev = FreeVBuilder::default().build(&build.scraped, &corpus);
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(11);
    let prompt = "module counter(input clk, input rst, input en, output reg [7:0] count);\n";
    let completion = freev.quantized_tuned().generate_text(
        prompt,
        150,
        &SamplerConfig::with_temperature(0.2),
        &mut rng,
    );
    assert!(!completion.trim().is_empty());
    // The continuation plus the header should at least lex/parse in most
    // cases; when it does parse it must contain a single module.
    if let Ok(modules) = Parser::parse_source(&format!("{prompt}{completion}")) {
        assert_eq!(modules.len(), 1);
    }
}

#[test]
fn github_api_and_scraper_respect_limits_end_to_end() {
    let universe = Universe::generate(&UniverseConfig {
        repo_count: 90,
        seed: 77,
        ..Default::default()
    });
    let api = GithubApi::with_rate_limit(&universe, 7);
    // Direct query under the cap works after granularisation by the scraper,
    // even with a very tight rate limit.
    let output = Scraper::new().run(&api).unwrap();
    assert_eq!(output.report.repositories_cloned, 90);
    assert!(output.report.rate_limit_waits > 0);
    assert_eq!(output.files.len(), universe.stats().verilog_files);
    // The API keeps functioning for ad-hoc queries afterwards.
    api.wait_for_rate_limit_reset();
    assert!(api.search(&RepoQuery::all()).is_ok());
}

#[test]
fn copyright_benchmark_separates_leaky_from_clean_models() {
    let scraped = ScrapedCorpus::build(&FreeSetConfig::at_scale(&tiny_scale()));
    let detector = CopyrightDetector::new();
    let protected: Vec<_> = scraped
        .files
        .iter()
        .filter(|f| f.repo_license.is_accepted_open_source() && detector.is_protected(&f.content))
        .cloned()
        .collect();
    assert!(!protected.is_empty(), "universe must plant protected files");

    let reference = CopyrightedReference::from_extracted(&protected);
    let benchmark = CopyrightBenchmark::new(reference, BenchmarkConfig::default());

    // A model fine-tuned on the *unfiltered* corpus regurgitates; a model
    // fine-tuned on FreeSet does not.
    let freeset_corpus: Vec<String> = CurationPipeline::new(CurationConfig::freeset())
        .run(scraped.files.clone())
        .contents()
        .map(str::to_string)
        .collect();
    let raw_corpus: Vec<String> = scraped.files.iter().map(|f| f.content.clone()).collect();

    let clean = FreeVBuilder::default().build(&scraped, &freeset_corpus);
    let leaky = FreeVBuilder::default().build(&scraped, &raw_corpus);

    let clean_rate = benchmark
        .evaluate(&clean.quantized_tuned())
        .violation_rate();
    let leaky_rate = benchmark
        .evaluate(&leaky.quantized_tuned())
        .violation_rate();
    assert!(
        leaky_rate > clean_rate,
        "unfiltered fine-tuning ({leaky_rate}) should violate more than FreeSet fine-tuning ({clean_rate})"
    );
}

#[test]
fn verilogeval_runner_works_with_freev_models() {
    let build = build_freeset(&FreeSetConfig::at_scale(&tiny_scale()));
    let freev = FreeVBuilder::default().build(&build.scraped, &build.training_corpus());
    let suite = ProblemSuite::verilog_eval_human().truncated(10);
    let runner = Runner::new(
        suite,
        EvalConfig {
            samples_per_problem: 3,
            ks: vec![1, 3],
            temperatures: vec![0.2],
            max_new_tokens: 150,
            lint_gate: true,
            seed: 5,
            execution: Default::default(),
        },
    );
    let base = runner.evaluate(&freev.quantized_base());
    let tuned = runner.evaluate(&freev.quantized_tuned());
    assert_eq!(base.per_problem.len(), 10);
    assert_eq!(tuned.per_problem.len(), 10);
    for report in [&base, &tuned] {
        for (_, percent) in &report.pass_at_k_percent {
            assert!((0.0..=100.0).contains(percent));
        }
    }
    // The estimator itself is consistent with the per-problem counts.
    for r in &tuned.per_problem {
        assert!(r.correct <= r.samples);
        let _ = pass_at_k(r.samples, r.correct, 1);
    }
}

#[test]
fn the_pipeline_is_deterministic_across_runs() {
    let a = build_freeset(&FreeSetConfig::at_scale(&tiny_scale()));
    let b = build_freeset(&FreeSetConfig::at_scale(&tiny_scale()));
    assert_eq!(a.len(), b.len());
    assert_eq!(a.dataset.funnel(), b.dataset.funnel());
    let contents_a: Vec<&str> = a.dataset.contents().collect();
    let contents_b: Vec<&str> = b.dataset.contents().collect();
    assert_eq!(contents_a, contents_b);

    // A different seed changes the corpus.
    let c = build_freeset(&FreeSetConfig::at_scale(&tiny_scale().with_seed(123)));
    assert_ne!(
        a.dataset.funnel().initial(),
        0,
        "sanity: non-empty funnels being compared"
    );
    assert_ne!(
        a.dataset.contents().collect::<Vec<_>>(),
        c.dataset.contents().collect::<Vec<_>>()
    );
}
