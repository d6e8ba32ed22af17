//! §IV-A — the dataset-minimisation funnel.

use curation::{stage_names, FunnelStats};
use gh_sim::{ScrapeReport, UniverseStats};

use crate::config::{ExperimentScale, FreeSetConfig};
use crate::dataset::build_freeset;
use crate::report::{json_array, json_object, json_string, markdown_table, pct};

/// The paper's reported funnel (absolute counts at GitHub scale).
pub fn paper_funnel() -> FunnelStats {
    FunnelStats::from_counts(
        1_300_000,
        &[
            (stage_names::LICENSE, 608_180),
            (stage_names::LENGTH, 608_180),
            // 62.5 % of the license-filtered corpus removed by LSH dedup.
            (stage_names::DEDUP, 228_068),
            // Syntax + copyright checks produce the final 222 624 files; the
            // paper reports them jointly, so the split is approximate.
            (stage_names::SYNTAX, 224_700),
            (stage_names::COPYRIGHT, 222_624),
        ],
    )
}

/// Result of running the funnel experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct FunnelExperiment {
    /// The scale the experiment ran at.
    pub scale: ExperimentScale,
    /// Measured stage-by-stage funnel.
    pub measured: FunnelStats,
    /// The paper's funnel, for side-by-side reporting.
    pub paper: FunnelStats,
    /// Universe statistics (ground truth about what was planted).
    pub universe: UniverseStats,
    /// Scraper statistics.
    pub scrape: ScrapeReport,
}

impl FunnelExperiment {
    /// Runs the funnel experiment at the given scale.
    pub fn run(scale: &ExperimentScale) -> Self {
        let build = build_freeset(&FreeSetConfig::at_scale(scale));
        Self {
            scale: *scale,
            measured: build.dataset.funnel().clone(),
            paper: paper_funnel(),
            universe: build.scraped.universe_stats,
            scrape: build.scraped.scrape_report,
        }
    }

    /// Renders the paper-versus-measured funnel as a markdown table.
    pub fn render_markdown(&self) -> String {
        let rows = vec![
            vec![
                "extracted files".to_string(),
                self.paper.initial().to_string(),
                self.measured.initial().to_string(),
            ],
            vec![
                "after license filter".to_string(),
                format!(
                    "{} ({}%)",
                    self.paper.after(stage_names::LICENSE),
                    pct(100.0 * self.paper.license_survival_rate())
                ),
                format!(
                    "{} ({}%)",
                    self.measured.after(stage_names::LICENSE),
                    pct(100.0 * self.measured.license_survival_rate())
                ),
            ],
            vec![
                "dedup removal rate".to_string(),
                format!("{}%", pct(100.0 * self.paper.dedup_removal_rate())),
                format!("{}%", pct(100.0 * self.measured.dedup_removal_rate())),
            ],
            vec![
                "after syntax filter".to_string(),
                self.paper.after(stage_names::SYNTAX).to_string(),
                self.measured.after(stage_names::SYNTAX).to_string(),
            ],
            vec![
                "after lint filter".to_string(),
                after_lint(&self.paper),
                after_lint(&self.measured),
            ],
            vec![
                "final dataset".to_string(),
                self.paper.final_count().to_string(),
                self.measured.final_count().to_string(),
            ],
            vec![
                "copyright removal rate".to_string(),
                format!("{}%", pct(100.0 * self.paper.copyright_removal_rate())),
                format!("{}%", pct(100.0 * self.measured.copyright_removal_rate())),
            ],
        ];
        format!(
            "### Dataset funnel (paper §IV-A)\n\n{}",
            markdown_table(&["stage", "paper", "measured"], &rows)
        )
    }

    /// Renders the measured funnel as pretty-printed JSON: the initial file
    /// count, then each stage's name, entering and surviving counts, and its
    /// `[category, count]` pairs.
    pub fn render_json(&self) -> String {
        funnel_json(&self.measured)
    }
}

fn funnel_json(funnel: &FunnelStats) -> String {
    let stages: Vec<String> = funnel
        .stages()
        .iter()
        .map(|stage| {
            let categories: Vec<String> = stage
                .categories
                .iter()
                .map(|(name, count)| json_array(&[json_string(name), count.to_string()]))
                .collect();
            json_object(&[
                ("stage", json_string(&stage.stage)),
                ("entering", stage.entering.to_string()),
                ("surviving", stage.surviving.to_string()),
                ("categories", json_array(&categories)),
            ])
        })
        .collect();
    json_object(&[
        ("initial", funnel.initial().to_string()),
        ("stages", json_array(&stages)),
    ])
}

/// Survivors of the lint stage, or "—" for a funnel without one: the
/// paper's has none, and [`FunnelStats::after`] would print its final count.
fn after_lint(funnel: &FunnelStats) -> String {
    funnel
        .stage(stage_names::LINT)
        .map_or_else(|| "—".to_string(), |lint| lint.surviving.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn funnel_shape_matches_the_paper() {
        let result = FunnelExperiment::run(&ExperimentScale::tiny());
        let m = &result.measured;
        assert!(m.initial() > m.final_count());
        assert!(m.is_monotone());
        // License survival and dedup removal land in the paper's ballpark.
        assert!((0.30..=0.80).contains(&m.license_survival_rate()));
        assert!((0.40..=0.80).contains(&m.dedup_removal_rate()));
        assert!(m.copyright_removal_rate() < 0.10);
        // The planted copyrighted files were actually caught.
        assert!(result.universe.planted_copyright_files > 0);
    }

    #[test]
    fn markdown_mentions_both_columns() {
        let result = FunnelExperiment::run(&ExperimentScale::tiny());
        let text = result.render_markdown();
        assert!(text.contains("| stage | paper | measured |"));
        assert!(text.contains("1300000"));
        assert!(text.contains("final dataset"));
        let lint = result
            .measured
            .stage(stage_names::LINT)
            .expect("the FreeSet policy runs the lint stage");
        assert!(text.contains(&format!("| after lint filter | — | {} |", lint.surviving)));
    }

    #[test]
    fn json_lists_every_stage_with_its_category_pairs() {
        let mut funnel = FunnelStats::new(12);
        funnel.record("license filter", 10);
        funnel.record_with_categories(
            "lint filter",
            7,
            vec![("undriven".to_string(), 1), ("comb-loop".to_string(), 2)],
        );
        assert_eq!(
            funnel_json(&funnel),
            "{\n  \"initial\": 12,\n  \"stages\": [\n    {\n      \"stage\": \"license filter\",\n      \"entering\": 12,\n      \"surviving\": 10,\n      \"categories\": []\n    },\n    {\n      \"stage\": \"lint filter\",\n      \"entering\": 10,\n      \"surviving\": 7,\n      \"categories\": [\n        [\n          \"comb-loop\",\n          2\n        ],\n        [\n          \"undriven\",\n          1\n        ]\n      ]\n    }\n  ]\n}"
        );
    }

    #[test]
    fn json_of_a_funnel_without_stages() {
        assert_eq!(
            funnel_json(&FunnelStats::new(5)),
            "{\n  \"initial\": 5,\n  \"stages\": []\n}"
        );
    }

    #[test]
    fn paper_reference_is_internally_consistent() {
        let p = paper_funnel();
        assert!((p.dedup_removal_rate() - 0.625).abs() < 0.01);
        assert_eq!(p.final_count(), 222_624);
    }
}
