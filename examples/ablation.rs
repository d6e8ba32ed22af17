//! Ablations over the design choices the paper calls out in its discussion
//! (§V): the cosine-similarity violation threshold, the de-duplication
//! threshold, the prompt-prefix fraction and the quantisation width.
//!
//! ```text
//! cargo run --release --example ablation
//! ```
//!
//! Scrapes the simulated universe once at the small scale and prints each
//! sweep as a markdown table. The two copyright sweeps share one protected
//! reference set and one FreeV fine-tuned on the unfiltered scrape.

use free_fair_hw::copyright_bench::{BenchmarkConfig, CopyrightBenchmark, CopyrightedReference};
use free_fair_hw::curation::{CopyrightDetector, CurationConfig, CurationPipeline, DedupConfig};
use free_fair_hw::freeset::config::{ExperimentScale, FreeSetConfig};
use free_fair_hw::freeset::corpus::ScrapedCorpus;
use free_fair_hw::freeset::dataset::curate_with_policy;
use free_fair_hw::freeset::freev::{FreeVBuilder, FreeVModel};
use free_fair_hw::freeset::report::markdown_table;
use free_fair_hw::hwlm::QuantizedModel;
use free_fair_hw::verilogeval::{EvalConfig, ProblemSuite, Runner};

/// The copyright-protected files of accepted-license repositories: the
/// reference set the copyright benchmark prompts from.
fn protected_reference(scraped: &ScrapedCorpus) -> CopyrightedReference {
    let detector = CopyrightDetector::new();
    let protected: Vec<_> = scraped
        .files
        .iter()
        .filter(|f| f.repo_license.is_accepted_open_source() && detector.is_protected(&f.content))
        .cloned()
        .collect();
    CopyrightedReference::from_extracted(&protected)
}

/// Sweep 1: violation rate as a function of the cosine-similarity threshold.
fn sweep_similarity_threshold(reference: &CopyrightedReference, leaky: &FreeVModel) -> String {
    let mut rows = Vec::new();
    for threshold in [0.6, 0.7, 0.8, 0.9, 0.95] {
        let benchmark = CopyrightBenchmark::new(
            reference.clone(),
            BenchmarkConfig {
                similarity_threshold: threshold,
                ..Default::default()
            },
        );
        let report = benchmark.evaluate(&leaky.quantized_tuned());
        rows.push(vec![
            format!("{threshold:.2}"),
            format!("{:.1}", report.violation_percent()),
            format!("{:.3}", report.mean_max_similarity()),
        ]);
    }
    markdown_table(
        &[
            "similarity threshold",
            "violation % (unfiltered fine-tune)",
            "mean max similarity",
        ],
        &rows,
    )
}

/// Sweep 2: dataset size as a function of the de-duplication threshold.
fn sweep_dedup_threshold(scraped: &ScrapedCorpus) -> String {
    let mut rows = Vec::new();
    for threshold in [0.70, 0.80, 0.85, 0.90, 0.95] {
        let mut config = CurationConfig::freeset();
        config.dedup = DedupConfig {
            similarity_threshold: threshold,
            ..Default::default()
        };
        let dataset = CurationPipeline::new(config).run(scraped.files.clone());
        rows.push(vec![
            format!("{threshold:.2}"),
            dataset.len().to_string(),
            format!("{:.1}", 100.0 * dataset.funnel().dedup_removal_rate()),
        ]);
    }
    markdown_table(
        &["dedup threshold", "final dataset size", "dedup removal %"],
        &rows,
    )
}

/// Sweep 3: violation rate as a function of the prompt-prefix fraction.
fn sweep_prefix_fraction(reference: &CopyrightedReference, leaky: &FreeVModel) -> String {
    let mut rows = Vec::new();
    for fraction in [0.1, 0.2, 0.3, 0.4] {
        let benchmark = CopyrightBenchmark::new(
            reference.clone(),
            BenchmarkConfig {
                prefix_fraction: fraction,
                ..Default::default()
            },
        );
        let report = benchmark.evaluate(&leaky.quantized_tuned());
        rows.push(vec![
            format!("{fraction:.1}"),
            format!("{:.1}", report.violation_percent()),
        ]);
    }
    markdown_table(&["prompt prefix fraction", "violation %"], &rows)
}

/// Sweep 4: pass@k of FreeV as a function of the quantisation width.
fn sweep_quantization(scraped: &ScrapedCorpus) -> String {
    let build = curate_with_policy(scraped, CurationConfig::freeset());
    let corpus: Vec<String> = build.contents().map(str::to_string).collect();
    let freev = FreeVBuilder::default().build(scraped, &corpus);
    let runner = Runner::new(
        ProblemSuite::verilog_eval_human(),
        EvalConfig {
            samples_per_problem: 5,
            ks: vec![1, 5],
            temperatures: vec![0.2, 0.8],
            max_new_tokens: 200,
            lint_gate: true,
            seed: 21,
            execution: Default::default(),
        },
    );
    let mut rows = Vec::new();
    for bits in [2u32, 4, 8] {
        let report = runner.evaluate(&QuantizedModel::new(freev.tuned(), bits));
        rows.push(vec![
            format!("{bits}-bit"),
            format!("{:.1}", report.pass_percent(1).unwrap_or(0.0)),
            format!("{:.1}", report.pass_percent(5).unwrap_or(0.0)),
        ]);
    }
    markdown_table(&["quantisation", "pass@1 %", "pass@5 %"], &rows)
}

fn print_sweep(title: &str, table: &str) {
    println!("### Ablation — {title}\n\n{table}");
}

fn main() {
    let scale = ExperimentScale::small();
    println!(
        "running the §V ablations over {} simulated repositories…\n",
        scale.repo_count
    );
    let scraped = ScrapedCorpus::build(&FreeSetConfig::at_scale(&scale));
    let reference = protected_reference(&scraped);
    let raw_corpus: Vec<String> = scraped.files.iter().map(|f| f.content.clone()).collect();
    let leaky = FreeVBuilder::default().build(&scraped, &raw_corpus);

    print_sweep(
        "cosine-similarity violation threshold (paper uses 0.8)",
        &sweep_similarity_threshold(&reference, &leaky),
    );
    print_sweep(
        "MinHash/LSH de-duplication threshold (paper uses 0.85)",
        &sweep_dedup_threshold(&scraped),
    );
    print_sweep(
        "prompt prefix fraction (paper uses 20%)",
        &sweep_prefix_fraction(&reference, &leaky),
    );
    print_sweep(
        "quantisation width (paper uses 4-bit)",
        &sweep_quantization(&scraped),
    );
}
