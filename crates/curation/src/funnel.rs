//! Stage-by-stage dataset funnel statistics (§IV-A), keyed by stage name.
//!
//! The paper reports how each curation stage shrinks the corpus: 1.3 million
//! extracted files, 608 180 after the license filter, 62.5 % removed by LSH
//! de-duplication, and a final dataset of 222 624 files after the syntax and
//! copyright checks. [`FunnelStats`] captures the same funnel for a pipeline
//! run as an ordered list of per-stage counts, one entry per executed
//! [`crate::CurationStage`] — so custom policies with extra or missing stages
//! report a funnel of exactly the stages they ran, while the paper-shape
//! accessors ([`FunnelStats::license_survival_rate`] and friends) keep
//! working off the canonical stage names.

use std::fmt;

use crate::stage::stage_names;

/// One executed stage's contribution to the funnel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageCount {
    /// The stage's name (see [`stage_names`] for the canonical set).
    pub stage: String,
    /// Files entering the stage.
    pub entering: usize,
    /// Files surviving the stage.
    pub surviving: usize,
    /// Per-category removal counts, sorted by category name — e.g. the lint
    /// stage's per-rule reject counts, keyed by kebab-case rule id. Empty
    /// for stages that do not categorise their rejections.
    pub categories: Vec<(String, usize)>,
}

impl StageCount {
    /// Files the stage removed.
    pub fn removed(&self) -> usize {
        self.entering.saturating_sub(self.surviving)
    }

    /// Fraction of the stage's input that survived (1.0 for an empty input).
    pub fn survival_rate(&self) -> f64 {
        if self.entering == 0 {
            1.0
        } else {
            self.surviving as f64 / self.entering as f64
        }
    }

    /// Fraction of the stage's input that was removed.
    pub fn removal_rate(&self) -> f64 {
        1.0 - self.survival_rate()
    }
}

/// Ordered, stage-name-keyed counts of surviving files through a curation
/// run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FunnelStats {
    initial: usize,
    stages: Vec<StageCount>,
}

impl FunnelStats {
    /// Starts a funnel for a corpus of `initial` files.
    pub fn new(initial: usize) -> Self {
        Self {
            initial,
            stages: Vec::new(),
        }
    }

    /// Builds a funnel from `(stage, surviving)` pairs (each stage's input is
    /// the previous stage's survivors) — used for paper-reference funnels.
    pub fn from_counts(initial: usize, counts: &[(&str, usize)]) -> Self {
        let mut funnel = Self::new(initial);
        for &(stage, surviving) in counts {
            funnel.record(stage, surviving);
        }
        funnel
    }

    /// Records a stage's survivor count. The stage's input count is the
    /// previous stage's survivor count (or the initial size).
    pub fn record(&mut self, stage: &str, surviving: usize) {
        self.record_with_categories(stage, surviving, Vec::new());
    }

    /// Records a stage's survivor count together with per-category removal
    /// counts (see [`StageCount::categories`]). Categories are stored
    /// sorted by name so funnels compare bytewise regardless of the order
    /// rejections were tallied in.
    pub fn record_with_categories(
        &mut self,
        stage: &str,
        surviving: usize,
        mut categories: Vec<(String, usize)>,
    ) {
        let entering = self.final_count();
        categories.sort();
        self.stages.push(StageCount {
            stage: stage.to_string(),
            entering,
            surviving,
            categories,
        });
    }

    /// Files entering the pipeline (the raw scrape).
    pub fn initial(&self) -> usize {
        self.initial
    }

    /// The per-stage counts, in execution order.
    pub fn stages(&self) -> &[StageCount] {
        &self.stages
    }

    /// The count for a named stage, if that stage ran.
    pub fn stage(&self, name: &str) -> Option<&StageCount> {
        self.stages.iter().find(|s| s.stage == name)
    }

    /// Files surviving the named stage; when the stage did not run, the
    /// pipeline's final count (use [`Self::stage`] to distinguish "stage
    /// removed nothing" from "stage never ran").
    pub fn after(&self, name: &str) -> usize {
        self.stage(name)
            .map_or_else(|| self.final_count(), |s| s.surviving)
    }

    /// The final dataset size: survivors of the last stage (or the initial
    /// count when no stage ran).
    pub fn final_count(&self) -> usize {
        self.stages.last().map_or(self.initial, |s| s.surviving)
    }

    /// Whether survivor counts never increase stage over stage — the
    /// invariant every filter-only pipeline satisfies.
    pub fn is_monotone(&self) -> bool {
        let mut previous = self.initial;
        for stage in &self.stages {
            if stage.entering != previous || stage.surviving > stage.entering {
                return false;
            }
            previous = stage.surviving;
        }
        true
    }

    /// Fraction of the initial corpus that survived the license filter
    /// (paper: ~46.8 %). 1.0 when the policy ran no license stage (nothing
    /// was licensed away), 0.0 for an empty corpus.
    pub fn license_survival_rate(&self) -> f64 {
        if self.initial == 0 {
            return 0.0;
        }
        match self.stage(stage_names::LICENSE) {
            Some(stage) => stage.surviving as f64 / self.initial as f64,
            None => 1.0,
        }
    }

    /// Fraction of the de-duplication *input* removed as duplicates (the
    /// paper reports 62.5 %). 0.0 when the policy ran no dedup stage.
    pub fn dedup_removal_rate(&self) -> f64 {
        self.stage(stage_names::DEDUP)
            .map_or(0.0, StageCount::removal_rate)
    }

    /// Fraction of the copyright stage's input removed (the paper reports
    /// roughly 1 % of the original corpus; ~2k of ~228k deduplicated files).
    /// 0.0 when the policy ran no copyright stage.
    pub fn copyright_removal_rate(&self) -> f64 {
        self.stage(stage_names::COPYRIGHT)
            .map_or(0.0, StageCount::removal_rate)
    }

    /// Fraction of the initial corpus that made it into the final dataset.
    pub fn overall_survival_rate(&self) -> f64 {
        if self.initial == 0 {
            0.0
        } else {
            self.final_count() as f64 / self.initial as f64
        }
    }

    /// Files removed by each executed stage, as `(stage, removed)` rows.
    pub fn removals(&self) -> Vec<(&str, usize)> {
        self.stages
            .iter()
            .map(|s| (s.stage.as_str(), s.removed()))
            .collect()
    }
}

impl fmt::Display for FunnelStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "extracted files          : {:>10}", self.initial)?;
        for stage in &self.stages {
            writeln!(
                f,
                "after {:<18} : {:>10}  ({:.1}% removed)",
                stage.stage,
                stage.surviving,
                100.0 * stage.removal_rate()
            )?;
        }
        write!(
            f,
            "overall survival         : {:>9.1}%",
            100.0 * self.overall_survival_rate()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_like() -> FunnelStats {
        FunnelStats::from_counts(
            1_300_000,
            &[
                (stage_names::LICENSE, 608_180),
                (stage_names::LENGTH, 608_180),
                (stage_names::DEDUP, 228_068),
                (stage_names::SYNTAX, 224_700),
                (stage_names::COPYRIGHT, 222_624),
            ],
        )
    }

    #[test]
    fn rates_match_paper_figures() {
        let f = paper_like();
        assert!((f.license_survival_rate() - 0.468).abs() < 0.01);
        assert!((f.dedup_removal_rate() - 0.625).abs() < 0.01);
        assert!(f.copyright_removal_rate() < 0.02);
        assert_eq!(f.final_count(), 222_624);
        assert!(f.is_monotone());
    }

    #[test]
    fn removals_sum_to_total_loss() {
        let f = paper_like();
        let removed: usize = f.removals().iter().map(|(_, n)| n).sum();
        assert_eq!(removed, f.initial() - f.final_count());
    }

    #[test]
    fn stage_lookup_is_by_name() {
        let f = paper_like();
        assert_eq!(f.after(stage_names::DEDUP), 228_068);
        assert_eq!(f.stage(stage_names::DEDUP).unwrap().entering, 608_180);
        assert!(f.stage("no such stage").is_none());
        // A stage that did not run removes nothing.
        assert_eq!(f.after("no such stage"), f.final_count());
    }

    #[test]
    fn missing_stages_have_neutral_rates() {
        let f = FunnelStats::from_counts(100, &[(stage_names::SYNTAX, 90)]);
        assert_eq!(f.dedup_removal_rate(), 0.0);
        assert_eq!(f.copyright_removal_rate(), 0.0);
        // No license stage ran, so nothing was licensed away — the syntax
        // stage's removals must not be misattributed to it.
        assert_eq!(f.license_survival_rate(), 1.0);
        assert_eq!(f.final_count(), 90);
    }

    #[test]
    fn empty_funnel_has_zero_rates() {
        let f = FunnelStats::default();
        assert_eq!(f.license_survival_rate(), 0.0);
        assert_eq!(f.dedup_removal_rate(), 0.0);
        assert_eq!(f.overall_survival_rate(), 0.0);
        assert_eq!(f.final_count(), 0);
        assert!(f.is_monotone());
    }

    #[test]
    fn non_monotone_funnels_are_detected() {
        let grown = FunnelStats::from_counts(10, &[("augmenter", 15)]);
        assert!(!grown.is_monotone());
    }

    #[test]
    fn display_mentions_every_stage() {
        let text = paper_like().to_string();
        for needle in ["license", "deduplication", "syntax", "copyright", "overall"] {
            assert!(text.contains(needle), "missing {needle} in {text}");
        }
    }
}
