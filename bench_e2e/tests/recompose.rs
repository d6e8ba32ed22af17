//! Each traced recomposition must produce exactly what its library entry
//! point produces; a failure here means the library changed under the
//! benchmark's shims.

use std::collections::BTreeSet;
use std::sync::Arc;

use bench_e2e::shims::{
    span, timed_pipeline, traced_evaluate, traced_infringement, traced_scrape_and_curate,
};
use bench_e2e::trace::Recorder;
use copyright_bench::{
    BenchmarkConfig, CopyrightBenchmark, CopyrightedReference, SimilarityScorer,
};
use curation::{CurationConfig, CurationPipeline};
use freeset::corpus::ScrapedCorpus;
use freeset::dataset::scrape_and_curate;
use freeset::{ExperimentScale, FreeSetConfig, ZooEntry};
use gh_sim::fetch::FetchConfig;
use hwlm::parallel::ExecutionMode;
use hwlm::{NgramModel, TrainConfig};
use verilogeval::{EvalConfig, ProblemSuite, Runner};

fn recorder() -> Arc<Recorder> {
    Arc::new(Recorder::new())
}

fn span_names(recorder: &Recorder) -> BTreeSet<&'static str> {
    recorder.spans().iter().map(|s| s.name).collect()
}

fn policies() -> Vec<CurationConfig> {
    let mut policies = vec![CurationConfig::freeset(), CurationConfig::unfiltered("Raw")];
    policies.extend(ZooEntry::all().into_iter().map(|e| e.policy));
    policies
}

#[test]
fn traced_build_equals_scrape_and_curate() {
    let config = FreeSetConfig::at_scale(&ExperimentScale::tiny());
    let fetch = FetchConfig::default();
    let library = scrape_and_curate(&config, &fetch);
    let rec = recorder();
    let traced = traced_scrape_and_curate(&config, &fetch, &rec);
    assert_eq!(traced.scraped.files, library.scraped.files);
    assert_eq!(
        traced.scraped.universe_stats,
        library.scraped.universe_stats
    );
    assert_eq!(traced.dataset, library.dataset);
    let names = span_names(&rec);
    for name in [
        span::UNIVERSE,
        span::FETCH_WAIT,
        span::PUSH,
        span::FINISH,
        span::LICENSE,
        span::DEDUP,
        span::SYNTAX,
        span::LINT,
        span::COPYRIGHT,
    ] {
        assert!(names.contains(name), "no {name} span");
    }
}

#[test]
fn timed_pipelines_list_the_library_stages() {
    let rec = recorder();
    for policy in policies() {
        assert_eq!(
            timed_pipeline(&policy, &rec).stage_names(),
            CurationPipeline::new(policy.clone()).stage_names(),
            "policy {}",
            policy.name
        );
    }
}

#[test]
fn timed_pipelines_curate_like_the_library() {
    let scraped = ScrapedCorpus::build(&FreeSetConfig::at_scale(&ExperimentScale::tiny()));
    let rec = recorder();
    for policy in policies() {
        assert_eq!(
            timed_pipeline(&policy, &rec).run(scraped.files.clone()),
            CurationPipeline::new(policy.clone()).run(scraped.files.clone()),
            "policy {}",
            policy.name
        );
    }
}

/// A model trained on the suite itself, so that some candidates pass.
fn suite_model(suite: &ProblemSuite) -> NgramModel {
    let corpus: Vec<String> = suite
        .problems()
        .iter()
        .map(|p| format!("{}{}\n", p.prompt(), p.golden_solution))
        .collect();
    NgramModel::train_named(
        "suite",
        &corpus,
        &TrainConfig {
            order: 10,
            ..Default::default()
        },
    )
}

#[test]
fn traced_evaluate_equals_runner_evaluate() {
    let suite = ProblemSuite::verilog_eval_human().truncated(8);
    let model = suite_model(&suite);
    for execution in [ExecutionMode::Serial, ExecutionMode::Parallel] {
        for lint_gate in [true, false] {
            let runner = Runner::new(
                suite.clone(),
                EvalConfig {
                    samples_per_problem: 3,
                    ks: vec![1, 3],
                    temperatures: vec![0.2, 0.8],
                    max_new_tokens: 120,
                    lint_gate,
                    seed: 5,
                    execution,
                },
            );
            let rec = recorder();
            let traced = traced_evaluate(&runner, &model, &rec);
            assert_eq!(
                traced,
                runner.evaluate(&model),
                "{execution:?}, gate {lint_gate}"
            );
            let names = span_names(&rec);
            for name in [
                span::EVALUATE,
                span::JOB,
                span::SAMPLE,
                span::PARSE,
                span::SIMULATE,
            ] {
                assert!(names.contains(name), "no {name} span");
            }
            assert_eq!(names.contains(span::LINT_CANDIDATE), lint_gate);
        }
    }
}

#[test]
fn traced_infringement_equals_copyright_benchmark() {
    let texts: Vec<String> = (0..12)
        .map(|tag| {
            let mut body = format!(
                "// Copyright (C) 2019 Vendor Corp. All rights reserved.\n\
                 module vendor_core_{tag}(input clk, input [15:0] din, output reg [15:0] dout);\n"
            );
            for i in 0..8 {
                body.push_str(&format!(
                    "reg [15:0] pipe_{tag}_{i};\nalways @(posedge clk) pipe_{tag}_{i} <= din + 16'd{};\n",
                    i * 7 + tag
                ));
            }
            body.push_str("endmodule\n");
            body
        })
        .collect();
    let model = NgramModel::train_named(
        "leaky",
        &texts,
        &TrainConfig {
            order: 8,
            ..Default::default()
        },
    );
    let reference = CopyrightedReference::from_texts(&texts);
    let scorer = SimilarityScorer::new(&reference);
    for execution in [ExecutionMode::Serial, ExecutionMode::Parallel] {
        let benchmark = CopyrightBenchmark::new(
            reference.clone(),
            BenchmarkConfig {
                prompt_count: texts.len(),
                execution,
                ..Default::default()
            },
        );
        let rec = recorder();
        let traced = traced_infringement(&benchmark, &scorer, &model, &rec);
        assert_eq!(traced, benchmark.evaluate(&model), "{execution:?}");
        assert!(traced.violations > 0, "the leaky model should regurgitate");
        let names = span_names(&rec);
        assert!(names.contains(span::SAMPLE) && names.contains(span::SCORE));
    }
}
