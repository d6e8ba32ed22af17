//! Table II — VerilogEval functional comparison.
//!
//! The paper measures the base `Llama-3.1-8B-Instruct` and FreeV (both
//! 4-bit quantised) on VerilogEval-Human and quotes prior works' published
//! numbers for the remaining rows. This driver does the same: it measures
//! the simulated base/FreeV pair on the built-in suite and carries the
//! paper-reported values for every other model.
use verilogeval::{EvalConfig, ProblemSuite, Runner};

use crate::config::{ExperimentScale, FreeSetConfig};
use crate::dataset::build_freeset;
use crate::freev::FreeVBuilder;
use crate::report::{markdown_table, pct};

/// Whether a row was measured here or reported by the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowSource {
    /// Measured with the in-repo evaluation harness.
    Measured,
    /// Copied from the paper's Table II.
    PaperReported,
}

/// Model grouping used by the paper's table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelGroup {
    /// General-purpose foundation models.
    Foundation,
    /// Prior Verilog-tuned models.
    VerilogTuned,
    /// The paper's own rows (base Llama and FreeV).
    ThisWork,
}

/// One row of Table II.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Row {
    /// Model group.
    pub group: ModelGroup,
    /// Model name.
    pub model: String,
    /// Whether the model is open source.
    pub open_source: Option<bool>,
    /// Parameter-count label.
    pub size: String,
    /// pass@1 / pass@5 / pass@10 in percent.
    pub pass_at: (f64, f64, f64),
    /// Where the numbers came from.
    pub source: RowSource,
}

/// The Table II experiment result.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Experiment {
    /// The scale the experiment ran at.
    pub scale: ExperimentScale,
    /// Number of benchmark problems evaluated.
    pub problems: usize,
    /// Samples drawn per problem.
    pub samples_per_problem: usize,
    /// All rows (paper-reported prior works plus the measured pair).
    pub rows: Vec<Table2Row>,
}

fn paper_rows() -> Vec<Table2Row> {
    let reported =
        |group, model: &str, open: Option<bool>, size: &str, p: (f64, f64, f64)| Table2Row {
            group,
            model: model.to_string(),
            open_source: open,
            size: size.to_string(),
            pass_at: p,
            source: RowSource::PaperReported,
        };
    vec![
        reported(
            ModelGroup::Foundation,
            "GPT-4",
            Some(false),
            "N/A",
            (43.5, 55.8, 58.9),
        ),
        reported(
            ModelGroup::Foundation,
            "Codellama",
            Some(true),
            "7B",
            (18.2, 22.7, 24.3),
        ),
        reported(
            ModelGroup::Foundation,
            "DeepSeek-Coder",
            Some(true),
            "6.7B",
            (30.2, 33.9, 34.9),
        ),
        reported(
            ModelGroup::Foundation,
            "CodeQwen",
            Some(true),
            "7B",
            (22.5, 26.1, 28.0),
        ),
        reported(
            ModelGroup::VerilogTuned,
            "VeriGen",
            Some(true),
            "16B",
            (30.3, 43.9, 49.6),
        ),
        reported(
            ModelGroup::VerilogTuned,
            "RTLCoder-DS",
            Some(true),
            "7B",
            (41.6, 50.1, 53.4),
        ),
        reported(
            ModelGroup::VerilogTuned,
            "BetterV-CodeQwen",
            Some(false),
            "7B",
            (46.1, 53.7, 58.2),
        ),
        reported(
            ModelGroup::VerilogTuned,
            "CodeV-CodeQwen",
            Some(true),
            "7B",
            (53.2, 65.1, 68.5),
        ),
        reported(
            ModelGroup::VerilogTuned,
            "OriGen-DS",
            Some(true),
            "7B",
            (54.4, 60.1, 64.2),
        ),
        reported(
            ModelGroup::VerilogTuned,
            "CraftRTL-StarCoder2",
            Some(false),
            "15B",
            (68.0, 72.4, 74.6),
        ),
        reported(
            ModelGroup::VerilogTuned,
            "OpenLLM-RTL",
            None,
            "6.7B",
            (42.8, 51.6, 55.0),
        ),
        reported(
            ModelGroup::ThisWork,
            "Llama-3.1-Instruct (4-bit), paper",
            Some(true),
            "8B",
            (14.8, 23.0, 25.9),
        ),
        reported(
            ModelGroup::ThisWork,
            "FreeV-Llama3.1 (4-bit), paper",
            Some(true),
            "8B",
            (15.5, 30.9, 36.0),
        ),
    ]
}

impl Table2Experiment {
    /// Runs Table II at the given scale with the paper's evaluation protocol
    /// (10 samples per problem, temperatures 0.2/0.8).
    pub fn run(scale: &ExperimentScale) -> Self {
        Self::run_with(
            scale,
            ProblemSuite::verilog_eval_human(),
            EvalConfig::default(),
        )
    }

    /// Runs Table II with an explicit suite and evaluation configuration.
    pub fn run_with(scale: &ExperimentScale, suite: ProblemSuite, eval: EvalConfig) -> Self {
        let build = build_freeset(&FreeSetConfig::at_scale(scale));
        let corpus = build.training_corpus();
        let freev = FreeVBuilder::default().build(&build.scraped, &corpus);

        let problems = suite.len();
        let samples_per_problem = eval.samples_per_problem;
        let runner = Runner::new(suite, eval);
        let base_report = runner.evaluate(&freev.quantized_base());
        let tuned_report = runner.evaluate(&freev.quantized_tuned());

        let mut rows = paper_rows();
        let measured = |model: &str, report: &verilogeval::EvalReport| Table2Row {
            group: ModelGroup::ThisWork,
            model: model.to_string(),
            open_source: Some(true),
            size: "8B (sim)".to_string(),
            pass_at: (
                report.pass_percent(1).unwrap_or(0.0),
                report
                    .pass_percent(5)
                    .or_else(|| report.pass_percent(2))
                    .unwrap_or(0.0),
                report
                    .pass_percent(10)
                    .or_else(|| report.pass_at_k_percent.last().map(|(_, v)| *v))
                    .unwrap_or(0.0),
            ),
            source: RowSource::Measured,
        };
        rows.push(measured(
            "Llama-3.1-Instruct (4-bit), measured",
            &base_report,
        ));
        rows.push(measured("FreeV-Llama3.1 (4-bit), measured", &tuned_report));

        Self {
            scale: *scale,
            problems,
            samples_per_problem,
            rows,
        }
    }

    /// Returns the measured rows `(base, freev)`.
    pub fn measured_pair(&self) -> Option<(&Table2Row, &Table2Row)> {
        let base = self
            .rows
            .iter()
            .find(|r| r.source == RowSource::Measured && r.model.starts_with("Llama"))?;
        let freev = self
            .rows
            .iter()
            .find(|r| r.source == RowSource::Measured && r.model.starts_with("FreeV"))?;
        Some((base, freev))
    }

    /// Renders the table as markdown.
    pub fn render_markdown(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    match r.group {
                        ModelGroup::Foundation => "Foundation".into(),
                        ModelGroup::VerilogTuned => "Verilog-Tuned".into(),
                        ModelGroup::ThisWork => "This Work".into(),
                    },
                    r.model.clone(),
                    match r.open_source {
                        Some(true) => "Yes".into(),
                        Some(false) => "No".into(),
                        None => "N/A".into(),
                    },
                    r.size.clone(),
                    pct(r.pass_at.0),
                    pct(r.pass_at.1),
                    pct(r.pass_at.2),
                    match r.source {
                        RowSource::Measured => "measured".into(),
                        RowSource::PaperReported => "paper".into(),
                    },
                ]
            })
            .collect();
        format!(
            "### Table II — VerilogEval pass@k (%)\n\nproblems: {}, samples/problem: {}\n\n{}",
            self.problems,
            self.samples_per_problem,
            markdown_table(
                &[
                    "type",
                    "model",
                    "open-source",
                    "size",
                    "pass@1",
                    "pass@5",
                    "pass@10",
                    "source"
                ],
                &rows
            )
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Table2Experiment {
        // Small scale with the paper's two temperatures; six samples keeps the
        // debug-mode test fast while still exercising the pass@k estimator at
        // several k values.
        Table2Experiment::run_with(
            &ExperimentScale::small(),
            ProblemSuite::verilog_eval_human(),
            EvalConfig {
                samples_per_problem: 6,
                ks: vec![1, 3, 6],
                temperatures: vec![0.2, 0.8],
                max_new_tokens: 200,
                lint_gate: true,
                seed: 9,
                execution: Default::default(),
            },
        )
    }

    #[test]
    fn freev_improves_over_its_base_at_large_k() {
        let result = quick();
        let (base, freev) = result.measured_pair().expect("measured rows present");
        // The paper's headline: pass@10 (largest k) improves by ~10 points and
        // pass@5 by ~8; at reproduction scale we require a clear improvement
        // at the largest evaluated k.
        assert!(
            freev.pass_at.2 >= base.pass_at.2,
            "FreeV pass@max ({:?}) should not be below the base ({:?})",
            freev.pass_at,
            base.pass_at
        );
        assert!(
            freev.pass_at.2 > 0.0,
            "FreeV should solve at least one problem"
        );
    }

    #[test]
    fn table_contains_paper_rows_and_measured_rows() {
        let result = quick();
        let paper_rows = result
            .rows
            .iter()
            .filter(|r| r.source == RowSource::PaperReported)
            .count();
        let measured_rows = result
            .rows
            .iter()
            .filter(|r| r.source == RowSource::Measured)
            .count();
        assert_eq!(paper_rows, 13);
        assert_eq!(measured_rows, 2);
        let text = result.render_markdown();
        assert!(text.contains("GPT-4"));
        assert!(text.contains("FreeV-Llama3.1 (4-bit), measured"));
        assert!(text.contains("CraftRTL-StarCoder2"));
    }

    #[test]
    fn paper_reference_rows_match_the_publication() {
        let rows = paper_rows();
        let freev = rows.iter().find(|r| r.model.starts_with("FreeV")).unwrap();
        assert_eq!(freev.pass_at, (15.5, 30.9, 36.0));
        let base = rows
            .iter()
            .find(|r| r.model.starts_with("Llama-3.1"))
            .unwrap();
        assert_eq!(base.pass_at, (14.8, 23.0, 25.9));
    }
}
