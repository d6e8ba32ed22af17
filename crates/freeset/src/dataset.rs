//! Building the FreeSet dataset (Figure 1's left half).
//!
//! The build runs on the **streaming path**: the scraper discovers the
//! repositories, then its clone phase streams into a
//! [`curation::CurationSession`] on the same thread, one repository per
//! pull ([`gh_sim::fetch::FetchEngine::run_streaming`]), so curation runs
//! *while the scrape is still cloning*. The session coalesces the
//! repositories into batches of about 256 KiB of file content, a few
//! hundred files each, and under the FreeSet policy runs every curation
//! stage on each batch as it fills — including de-duplication, which
//! resolves the batch against its persistent kept-index — so the paper's
//! largest funnel stage (~62% removal) runs alongside the scrape instead of
//! waiting for the full bank, and each stage's per-file fan-out splits a
//! few hundred files instead of one repository's dozen.
//! [`scrape_and_curate`] is tested to match the collect-then-curate
//! composition end to end.

use curation::{CuratedDataset, CurationPipeline};
use gh_sim::fetch::{FetchConfig, FetchEngine};
use gh_sim::{GithubApi, Universe};

use crate::config::FreeSetConfig;
use crate::corpus::ScrapedCorpus;

/// The outcome of a full FreeSet build: the raw scrape, the curated dataset
/// and every intermediate statistic the paper reports in §IV-A.
#[derive(Debug, Clone, PartialEq)]
pub struct FreeSetBuild {
    /// The raw scraped corpus.
    pub scraped: ScrapedCorpus,
    /// The curated FreeSet dataset (with its stage funnel).
    pub dataset: CuratedDataset,
}

impl FreeSetBuild {
    /// Number of files in the final dataset.
    pub fn len(&self) -> usize {
        self.dataset.len()
    }

    /// Whether the final dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.dataset.is_empty()
    }

    /// The training corpus view (file contents).
    pub fn training_corpus(&self) -> Vec<String> {
        self.dataset.contents().map(str::to_string).collect()
    }
}

/// Builds FreeSet end to end: generate the universe, scrape it, and curate
/// it while the scrape streams — [`scrape_and_curate`] with the default
/// [`gh_sim::fetch::FetchConfig`].
///
/// # Example
///
/// ```
/// use freeset::{build_freeset, FreeSetConfig};
/// use freeset::config::ExperimentScale;
///
/// let build = build_freeset(&FreeSetConfig::at_scale(&ExperimentScale::tiny()));
/// assert!(build.len() > 0);
/// assert!(build.dataset.funnel().initial() >= build.len());
/// ```
pub fn build_freeset(config: &FreeSetConfig) -> FreeSetBuild {
    scrape_and_curate(config, &FetchConfig::default())
}

/// Builds FreeSet on the streaming path: the scraper runs discovery, then
/// clones one repository per pull of its stream and the consumer pushes each
/// one's files into a [`curation::CurationSession`], all on the calling
/// thread. The session gathers the pushes into batches of about 256 KiB of
/// file content and runs every FreeSet stage, de-duplication included, on
/// each batch as it fills. Nothing is cloned ahead of the session, so the
/// scrape holds one repository in flight and the session holds its kept set
/// plus at most one batch that has not been flushed yet. (The raw file bank
/// is still accumulated alongside the session — [`FreeSetBuild::scraped`]
/// retains it so every policy comparison can reuse the same scrape — so
/// peak memory remains corpus-proportional; a scrape-once-curate-only
/// consumer could drop that accumulation.) `fetch` has no settings.
///
/// # Determinism
///
/// The raw file bank, curated dataset, funnel, rejection provenance and
/// scrape report are identical to the collect-then-curate composition
/// (`ScrapedCorpus::build` followed by `CurationPipeline::run`) and
/// byte-identical across runs.
///
/// # Panics
///
/// Panics if the scrape fails, which cannot happen with the simulated API at
/// supported universe sizes (granularisation always succeeds).
pub fn scrape_and_curate(config: &FreeSetConfig, fetch: &FetchConfig) -> FreeSetBuild {
    let universe = Universe::generate(&config.universe);
    let api = GithubApi::with_rate_limit(&universe, crate::corpus::SCRAPE_API_BUDGET);
    let pipeline = CurationPipeline::new(config.curation.clone());
    let engine = FetchEngine::new(*fetch);
    let ((raw_files, dataset), scrape_report) = engine
        .run_streaming(&api, config.scraper, |batches| {
            let mut session = pipeline.session();
            let mut raw_files = Vec::new();
            for batch in batches {
                raw_files.extend(batch.files.iter().cloned());
                session
                    .push(batch.files)
                    .expect("FreeSet's stages are in memory, so pushes never fail");
            }
            (
                raw_files,
                session
                    .finish()
                    .expect("FreeSet's stages are in memory, so finish never fails"),
            )
        })
        .expect("simulated scrape cannot fail at supported scales");
    FreeSetBuild {
        scraped: ScrapedCorpus {
            files: raw_files,
            universe_stats: universe.stats(),
            scrape_report,
        },
        dataset,
    }
}

/// Curates an already-scraped corpus under an arbitrary policy (used by the
/// model zoo to reproduce prior works' datasets from the same scrape).
pub fn curate_with_policy(
    scraped: &ScrapedCorpus,
    policy: curation::CurationConfig,
) -> CuratedDataset {
    CurationPipeline::new(policy).run(scraped.files.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExperimentScale;
    use curation::CurationConfig;

    #[test]
    fn freeset_build_produces_clean_dataset() {
        let build = build_freeset(&FreeSetConfig::at_scale(&ExperimentScale::tiny()));
        assert!(!build.is_empty());
        let detector = curation::CopyrightDetector::new();
        for content in build.dataset.contents() {
            assert!(!detector.is_protected(content));
        }
        assert_eq!(build.training_corpus().len(), build.len());
        assert!(build.dataset.funnel().dedup_removal_rate() > 0.2);
    }

    #[test]
    fn custom_stages_tighten_the_policy() {
        use curation::{CurationStage, FileBatch, RejectReason, StageOutcome};

        struct MaxModules(usize);

        impl CurationStage for MaxModules {
            fn name(&self) -> &str {
                "max-modules"
            }

            fn apply(&self, batch: FileBatch) -> StageOutcome {
                batch.partition("max-modules", RejectReason::Syntax, |f| {
                    f.content.matches("endmodule").count() <= self.0
                })
            }
        }

        let config = FreeSetConfig::at_scale(&ExperimentScale::tiny());
        let scraped = ScrapedCorpus::build(&config);
        let plain = curate_with_policy(&scraped, CurationConfig::freeset());
        let shaped = CurationPipeline::new(CurationConfig::freeset())
            .with_stage(Box::new(MaxModules(1)))
            .run(scraped.files.clone());
        assert!(shaped.len() <= plain.len());
        assert!(shaped
            .files()
            .iter()
            .all(|f| f.content.matches("endmodule").count() <= 1));
        // The funnel keys the custom stage by name and stays monotone.
        assert!(shaped.funnel().stage("max-modules").is_some());
        assert!(shaped.funnel().is_monotone());
        // Conservation with provenance intact.
        assert_eq!(shaped.len() + shaped.rejects().len(), scraped.len());
    }

    #[test]
    fn freeset_streaming_session_dedups_mid_scrape() {
        // The session used by scrape_and_curate must stream the whole
        // FreeSet stage list — dedup included — so no stage waits for the
        // scrape to end.
        let config = FreeSetConfig::at_scale(&ExperimentScale::tiny());
        let pipeline = CurationPipeline::new(config.curation.clone());
        let session = pipeline.session();
        assert_eq!(
            session.streaming_stage_count(),
            pipeline.stage_names().len()
        );
    }

    #[test]
    fn streaming_build_matches_the_serial_composition() {
        let config = FreeSetConfig::at_scale(&ExperimentScale::tiny());
        // The reference: collect the whole scrape, then one-shot curation.
        let scraped = ScrapedCorpus::build(&config);
        let reference = CurationPipeline::new(config.curation.clone()).run(scraped.files.clone());
        let build = scrape_and_curate(&config, &FetchConfig::default());
        assert_eq!(build.scraped.files, scraped.files);
        assert_eq!(build.dataset, reference);
        assert_eq!(build.dataset.funnel(), reference.funnel());
        assert_eq!(build.scraped.scrape_report, scraped.scrape_report);
    }

    #[test]
    fn streaming_build_is_deterministic_across_runs() {
        let config = FreeSetConfig::at_scale(&ExperimentScale::tiny());
        let a = scrape_and_curate(&config, &FetchConfig::default());
        let b = scrape_and_curate(&config, &FetchConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn policy_curation_reuses_the_same_scrape() {
        let config = FreeSetConfig::at_scale(&ExperimentScale::tiny());
        let scraped = ScrapedCorpus::build(&config);
        let raw = curate_with_policy(&scraped, CurationConfig::unfiltered("Raw"));
        let freeset = curate_with_policy(&scraped, CurationConfig::freeset());
        assert_eq!(raw.len(), scraped.len());
        assert!(freeset.len() < raw.len());
    }
}
