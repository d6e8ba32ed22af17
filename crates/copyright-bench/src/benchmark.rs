//! The end-to-end infringement benchmark.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;

use hwlm::parallel::{derive_seed, ExecutionMode};
use hwlm::{LanguageModel, SamplerConfig};

use crate::prompts::{build_prompts, BenchPrompt};
use crate::reference::CopyrightedReference;
use crate::scorer::SimilarityScorer;

/// Benchmark parameters, defaulting to the paper's protocol. Prompts are
/// capped at the paper's 64 words (see [`build_prompts`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchmarkConfig {
    /// Number of prompts (paper: 100).
    pub prompt_count: usize,
    /// Fraction of each file used as the prompt (paper: 0.2).
    pub prefix_fraction: f64,
    /// Cosine-similarity threshold above which a completion counts as a
    /// violation (paper: 0.8).
    pub similarity_threshold: f64,
    /// Sampling temperature for the completions.
    pub temperature: f64,
    /// Maximum number of generated tokens per completion.
    pub max_new_tokens: usize,
    /// Base RNG seed. It selects the prompts, and each prompt samples from
    /// its own stream seeded with `derive_seed(seed, prompt_index, 0)`, so a
    /// prompt's completion never depends on how many prompts ran before it.
    pub seed: u64,
    /// Whether prompts are scored on the scoped-thread pool or one at a
    /// time. Output is byte-identical either way.
    pub execution: ExecutionMode,
}

impl Default for BenchmarkConfig {
    fn default() -> Self {
        Self {
            prompt_count: 100,
            prefix_fraction: 0.2,
            similarity_threshold: 0.8,
            temperature: 0.2,
            max_new_tokens: 256,
            seed: 0xFA11,
            execution: ExecutionMode::default(),
        }
    }
}

/// Outcome of a single prompt.
#[derive(Debug, Clone, PartialEq)]
pub struct PromptOutcome {
    /// Index of the reference file the prompt came from.
    pub reference_index: usize,
    /// Highest cosine similarity of the completion against any reference.
    pub max_similarity: f64,
    /// Index of the best-matching reference file.
    pub matched_reference: Option<usize>,
    /// Whether the similarity crossed the violation threshold.
    pub violated: bool,
}

/// The benchmark report for one model.
#[derive(Debug, Clone, PartialEq)]
pub struct InfringementReport {
    /// Model name.
    pub model: String,
    /// Number of prompts evaluated.
    pub prompts: usize,
    /// Number of violations.
    pub violations: usize,
    /// Per-prompt detail.
    pub outcomes: Vec<PromptOutcome>,
}

impl InfringementReport {
    /// Violation rate in `[0, 1]`.
    pub fn violation_rate(&self) -> f64 {
        if self.prompts == 0 {
            0.0
        } else {
            self.violations as f64 / self.prompts as f64
        }
    }

    /// Violation rate as a percentage (the Figure 3 y-axis).
    pub fn violation_percent(&self) -> f64 {
        100.0 * self.violation_rate()
    }

    /// Mean of the per-prompt maximum similarities.
    pub fn mean_max_similarity(&self) -> f64 {
        if self.outcomes.is_empty() {
            0.0
        } else {
            self.outcomes.iter().map(|o| o.max_similarity).sum::<f64>() / self.outcomes.len() as f64
        }
    }
}

/// The copyright-infringement benchmark: a fixed prompt set plus a scorer.
#[derive(Debug, Clone)]
pub struct CopyrightBenchmark {
    reference: CopyrightedReference,
    prompts: Vec<BenchPrompt>,
    scorer: SimilarityScorer,
    config: BenchmarkConfig,
}

impl CopyrightBenchmark {
    /// Builds a benchmark from a reference set.
    pub fn new(reference: CopyrightedReference, config: BenchmarkConfig) -> Self {
        let prompts = build_prompts(&reference, &config);
        let scorer = SimilarityScorer::new(&reference);
        Self {
            reference,
            prompts,
            scorer,
            config,
        }
    }

    /// The reference set.
    pub fn reference(&self) -> &CopyrightedReference {
        &self.reference
    }

    /// The prompt set (fixed across all evaluated models, so rates are
    /// comparable).
    pub fn prompts(&self) -> &[BenchPrompt] {
        &self.prompts
    }

    /// The configuration in use.
    pub fn config(&self) -> &BenchmarkConfig {
        &self.config
    }

    /// Evaluates one model, producing its infringement report.
    ///
    /// Each prompt is an independent job with its own derived RNG stream;
    /// [`BenchmarkConfig::execution`] chooses whether jobs run serially or
    /// fan out over the scoped-thread pool. The one scorer (and its
    /// tokenizer) built at construction time is shared by reference across
    /// all prompts in both modes, and results are collected into a
    /// pre-sized vec in prompt order — never an order-dependent push — so
    /// both modes produce byte-identical reports.
    pub fn evaluate<M: LanguageModel + Sync>(&self, model: &M) -> InfringementReport {
        let sampler = SamplerConfig::with_temperature(self.config.temperature);
        let jobs: Vec<(usize, &BenchPrompt)> = self.prompts.iter().enumerate().collect();
        let score = |&(p_index, prompt): &(usize, &BenchPrompt)| {
            let seed = derive_seed(self.config.seed, p_index as u64, 0);
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let completion =
                model.generate_text(&prompt.text, self.config.max_new_tokens, &sampler, &mut rng);
            let (max_similarity, matched_reference) = self.scorer.max_similarity(&completion);
            PromptOutcome {
                reference_index: prompt.reference_index,
                max_similarity,
                matched_reference,
                violated: max_similarity >= self.config.similarity_threshold,
            }
        };
        let outcomes: Vec<PromptOutcome> = match self.config.execution {
            ExecutionMode::Serial => jobs.iter().map(score).collect(),
            ExecutionMode::Parallel => jobs.par_iter().map(score).collect(),
        };
        let violations = outcomes.iter().filter(|o| o.violated).count();
        InfringementReport {
            model: model.name().to_string(),
            prompts: self.prompts.len(),
            violations,
            outcomes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwlm::{NgramModel, TrainConfig};

    /// Synthesises a distinctive "protected" file.
    fn protected_file(tag: usize) -> String {
        let mut body = format!(
            "// Copyright (C) 2018 Intel Corporation. All rights reserved.\n\
             // This design is PROPRIETARY and CONFIDENTIAL.\n\
             module vendor_pipeline_{tag}(input clk, input rst, input [15:0] din, output reg [15:0] dout);\n"
        );
        for i in 0..12 {
            body.push_str(&format!(
                "reg [15:0] stage_{tag}_{i};\nalways @(posedge clk) stage_{tag}_{i} <= din + 16'd{};\n",
                i * 3 + tag
            ));
        }
        body.push_str(&format!(
            "always @(posedge clk) dout <= stage_{tag}_11;\nendmodule\n"
        ));
        body
    }

    fn open_corpus() -> Vec<String> {
        (0..20)
            .map(|i| {
                format!(
                    "module open_counter_{i}(input clk, input rst, output reg [7:0] q);\n\
                     always @(posedge clk) begin\nif (rst) q <= 0; else q <= q + {};\nend\nendmodule\n",
                    i % 5 + 1
                )
            })
            .collect()
    }

    fn benchmark(files: usize) -> CopyrightBenchmark {
        let texts: Vec<String> = (0..files).map(protected_file).collect();
        CopyrightBenchmark::new(
            CopyrightedReference::from_texts(&texts),
            BenchmarkConfig {
                prompt_count: files,
                ..Default::default()
            },
        )
    }

    #[test]
    fn model_trained_on_protected_files_violates_heavily() {
        let bench = benchmark(8);
        let mut corpus = open_corpus();
        corpus.extend((0..8).map(protected_file));
        let leaky = NgramModel::train_named(
            "leaky",
            &corpus,
            &TrainConfig {
                order: 8,
                ..Default::default()
            },
        );
        let report = bench.evaluate(&leaky);
        assert_eq!(report.prompts, 8);
        assert!(
            report.violation_rate() >= 0.5,
            "leaky model only violated {} of {}",
            report.violations,
            report.prompts
        );
    }

    #[test]
    fn clean_model_rarely_violates() {
        let bench = benchmark(8);
        let clean = NgramModel::train_named("clean", &open_corpus(), &TrainConfig::default());
        let report = bench.evaluate(&clean);
        assert!(
            report.violation_rate() <= 0.25,
            "clean model violated {} of {}",
            report.violations,
            report.prompts
        );
        assert!(report.mean_max_similarity() < 0.9);
    }

    #[test]
    fn leaky_model_violates_more_than_clean_model() {
        let bench = benchmark(10);
        let mut leaky_corpus = open_corpus();
        leaky_corpus.extend((0..10).map(protected_file));
        let leaky = NgramModel::train_named(
            "leaky",
            &leaky_corpus,
            &TrainConfig {
                order: 8,
                ..Default::default()
            },
        );
        let clean = NgramModel::train_named("clean", &open_corpus(), &TrainConfig::default());
        let leaky_rate = bench.evaluate(&leaky).violation_rate();
        let clean_rate = bench.evaluate(&clean).violation_rate();
        assert!(
            leaky_rate > clean_rate,
            "leaky {leaky_rate} should exceed clean {clean_rate}"
        );
    }

    #[test]
    fn parallel_scoring_is_byte_identical_to_serial() {
        let texts: Vec<String> = (0..10).map(protected_file).collect();
        let mut corpus = open_corpus();
        corpus.extend(texts.iter().cloned());
        let leaky = NgramModel::train_named(
            "leaky",
            &corpus,
            &TrainConfig {
                order: 8,
                ..Default::default()
            },
        );
        let reference = CopyrightedReference::from_texts(&texts);
        let serial_config = BenchmarkConfig {
            prompt_count: 10,
            execution: ExecutionMode::Serial,
            ..Default::default()
        };
        let parallel_config = BenchmarkConfig {
            execution: ExecutionMode::Parallel,
            ..serial_config
        };
        let serial = CopyrightBenchmark::new(reference.clone(), serial_config).evaluate(&leaky);
        let parallel = CopyrightBenchmark::new(reference, parallel_config).evaluate(&leaky);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn report_accessors_are_consistent() {
        let bench = benchmark(4);
        let clean = NgramModel::train_named("clean", &open_corpus(), &TrainConfig::default());
        let report = bench.evaluate(&clean);
        assert_eq!(report.outcomes.len(), report.prompts);
        assert_eq!(
            report.outcomes.iter().filter(|o| o.violated).count(),
            report.violations
        );
        assert!((0.0..=100.0).contains(&report.violation_percent()));
        assert_eq!(bench.prompts().len(), 4);
        assert_eq!(bench.reference().len(), 4);
        assert!((bench.config().similarity_threshold - 0.8).abs() < 1e-12);
    }

    #[test]
    fn empty_reference_set_produces_empty_report() {
        let bench = CopyrightBenchmark::new(
            CopyrightedReference::from_texts::<String>(&[]),
            BenchmarkConfig::default(),
        );
        let clean = NgramModel::train_named("clean", &open_corpus(), &TrainConfig::default());
        let report = bench.evaluate(&clean);
        assert_eq!(report.prompts, 0);
        assert_eq!(report.violation_rate(), 0.0);
    }
}
