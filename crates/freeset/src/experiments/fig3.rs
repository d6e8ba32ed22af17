//! Figure 3 — hardware copyright-infringement rates across models.

use copyright_bench::{BenchmarkConfig, CopyrightBenchmark, CopyrightedReference};
use curation::CopyrightDetector;

use crate::config::{ExperimentScale, FreeSetConfig};
use crate::corpus::ScrapedCorpus;
use crate::modelzoo::{ModelZoo, ZooEntry};
use crate::report::{
    json_array, json_number, json_object, json_string, markdown_table, opt_pct, pct,
};

/// One bar pair of Figure 3.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig3Row {
    /// Fine-tuned model name.
    pub model: String,
    /// Its base model name.
    pub base_model: String,
    /// Measured violation rate of the base model, percent.
    pub measured_base_percent: f64,
    /// Measured violation rate of the fine-tuned model, percent.
    pub measured_tuned_percent: f64,
    /// The paper's (approximate) base violation rate, percent.
    pub paper_base_percent: Option<f64>,
    /// The paper's (approximate) fine-tuned violation rate, percent.
    pub paper_tuned_percent: Option<f64>,
}

/// The Figure 3 experiment result.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig3Experiment {
    /// The scale the experiment ran at.
    pub scale: ExperimentScale,
    /// Number of copyright-protected reference files found in the scrape.
    pub reference_files: usize,
    /// Number of prompts evaluated per model.
    pub prompts: usize,
    /// One row per base/fine-tuned pair.
    pub rows: Vec<Fig3Row>,
}

impl Fig3Experiment {
    /// Runs Figure 3 at the given scale with the paper's benchmark settings
    /// (100 prompts, 0.8 threshold).
    pub fn run(scale: &ExperimentScale) -> Self {
        Self::run_with(scale, BenchmarkConfig::default(), usize::MAX)
    }

    /// Runs Figure 3 with an explicit benchmark configuration and a cap on
    /// the fine-tuning corpus size (for fast test runs).
    pub fn run_with(
        scale: &ExperimentScale,
        benchmark_config: BenchmarkConfig,
        max_finetune_files: usize,
    ) -> Self {
        let scraped = ScrapedCorpus::build(&FreeSetConfig::at_scale(scale));
        Self::run_on(scale, &scraped, benchmark_config, max_finetune_files)
    }

    /// Runs Figure 3 over an existing scrape.
    pub fn run_on(
        scale: &ExperimentScale,
        scraped: &ScrapedCorpus,
        benchmark_config: BenchmarkConfig,
        max_finetune_files: usize,
    ) -> Self {
        // Build the copyright-protected reference set the way §III-B/§III-C
        // do: scan the scrape for files whose headers declare proprietary
        // copyright even though their repository claims an open-source
        // license (the paper's ~2k Intel/Xilinx files).
        let detector = CopyrightDetector::new();
        let protected: Vec<_> = scraped
            .files
            .iter()
            .filter(|f| {
                f.repo_license.is_accepted_open_source() && detector.is_protected(&f.content)
            })
            .cloned()
            .collect();
        let reference = CopyrightedReference::from_extracted(&protected);
        let benchmark = CopyrightBenchmark::new(reference, benchmark_config);

        let zoo = ModelZoo::new(scraped.clone()).with_max_finetune_files(max_finetune_files);
        let mut rows = Vec::new();
        for entry in ZooEntry::figure3() {
            let model = zoo.build(&entry);
            let base_report = benchmark.evaluate(model.base());
            let tuned_report = benchmark.evaluate(&model.tuned);
            rows.push(Fig3Row {
                model: entry.name.clone(),
                base_model: entry.base_name.clone(),
                measured_base_percent: base_report.violation_percent(),
                measured_tuned_percent: tuned_report.violation_percent(),
                paper_base_percent: entry.paper.violation_base_percent,
                paper_tuned_percent: entry.paper.violation_tuned_percent,
            });
        }
        Self {
            scale: *scale,
            reference_files: benchmark.reference().len(),
            prompts: benchmark.prompts().len(),
            rows,
        }
    }

    /// The row for a given fine-tuned model.
    pub fn row(&self, model: &str) -> Option<&Fig3Row> {
        self.rows.iter().find(|r| r.model == model)
    }

    /// Renders the figure data as a markdown table.
    pub fn render_markdown(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.model.clone(),
                    r.base_model.clone(),
                    opt_pct(r.paper_base_percent),
                    opt_pct(r.paper_tuned_percent),
                    pct(r.measured_base_percent),
                    pct(r.measured_tuned_percent),
                ]
            })
            .collect();
        format!(
            "### Figure 3 — copyright infringement rates (% of prompts above 0.8 cosine similarity)\n\n\
             reference files: {}, prompts per model: {}\n\n{}",
            self.reference_files,
            self.prompts,
            markdown_table(
                &[
                    "model",
                    "base model",
                    "paper base %",
                    "paper tuned %",
                    "measured base %",
                    "measured tuned %",
                ],
                &rows
            )
        )
    }

    /// Renders the rows as a pretty-printed JSON array, one object per
    /// model pair; a paper value the paper does not report is `null`.
    pub fn render_json(&self) -> String {
        let percent = |value: Option<f64>| value.map_or_else(|| "null".to_string(), json_number);
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|row| {
                json_object(&[
                    ("model", json_string(&row.model)),
                    ("base_model", json_string(&row.base_model)),
                    (
                        "measured_base_percent",
                        json_number(row.measured_base_percent),
                    ),
                    (
                        "measured_tuned_percent",
                        json_number(row.measured_tuned_percent),
                    ),
                    ("paper_base_percent", percent(row.paper_base_percent)),
                    ("paper_tuned_percent", percent(row.paper_tuned_percent)),
                ])
            })
            .collect();
        json_array(&rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Fig3Experiment {
        Fig3Experiment::run_with(
            &ExperimentScale::tiny(),
            BenchmarkConfig {
                prompt_count: 25,
                max_new_tokens: 160,
                ..Default::default()
            },
            400,
        )
    }

    #[test]
    fn freev_has_the_lowest_tuned_violation_rate() {
        let result = quick();
        assert!(result.reference_files > 0, "no protected files were found");
        assert!(result.prompts > 0);
        let freev = result.row("FreeV-Llama3.1").expect("freev row");
        for row in &result.rows {
            if row.model != "FreeV-Llama3.1" {
                assert!(
                    freev.measured_tuned_percent <= row.measured_tuned_percent,
                    "FreeV ({}) should not violate more than {} ({})",
                    freev.measured_tuned_percent,
                    row.model,
                    row.measured_tuned_percent
                );
            }
        }
        // FreeV stays close to its base model (the paper reports a 1-point
        // gap); allow a modest margin at small scale.
        assert!(freev.measured_tuned_percent - freev.measured_base_percent <= 10.0);
    }

    #[test]
    fn unfiltered_fine_tuning_raises_the_violation_rate() {
        let result = quick();
        let verigen = result.row("VeriGen").expect("verigen row");
        assert!(
            verigen.measured_tuned_percent > verigen.measured_base_percent,
            "fine-tuning on unfiltered data should raise the rate ({} -> {})",
            verigen.measured_base_percent,
            verigen.measured_tuned_percent
        );
        let freev = result.row("FreeV-Llama3.1").unwrap();
        assert!(verigen.measured_tuned_percent > freev.measured_tuned_percent);
    }

    #[test]
    fn json_renders_an_unreported_paper_value_as_null() {
        let mut result = Fig3Experiment {
            scale: ExperimentScale::tiny(),
            reference_files: 0,
            prompts: 0,
            rows: Vec::new(),
        };
        assert_eq!(result.render_json(), "[]");
        result.rows.push(Fig3Row {
            model: "FreeV".to_string(),
            base_model: "Llama".to_string(),
            measured_base_percent: 9.0,
            measured_tuned_percent: 100.0 / 13.0,
            paper_base_percent: None,
            paper_tuned_percent: Some(3.0),
        });
        assert_eq!(
            result.render_json(),
            "[\n  {\n    \"model\": \"FreeV\",\n    \"base_model\": \"Llama\",\n    \"measured_base_percent\": 9.0,\n    \"measured_tuned_percent\": 7.6923076923076925,\n    \"paper_base_percent\": null,\n    \"paper_tuned_percent\": 3.0\n  }\n]"
        );
    }

    #[test]
    fn markdown_has_one_row_per_pair() {
        let result = quick();
        let text = result.render_markdown();
        assert!(text.contains("FreeV-Llama3.1"));
        assert!(text.contains("VeriGen"));
        assert_eq!(result.rows.len(), ZooEntry::figure3().len());
    }
}
