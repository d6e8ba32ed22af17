//! Building the FreeSet dataset (Figure 1's left half).
//!
//! The build runs on the **streaming path**: a concurrent
//! [`gh_sim::fetch::FetchEngine`] clones repositories from a worker pool and
//! hands each one's files off, in deterministic order, into a
//! [`curation::CurationSession`] *while the scrape is still running*. Under
//! the FreeSet policy every curation stage streams — including
//! de-duplication, which resolves each repository's files against its
//! persistent kept-index the moment they arrive — so the paper's largest
//! funnel stage (~62% removal) overlaps the network phase instead of
//! waiting for the full bank. Both halves are individually property-tested
//! to be byte-identical to their serial equivalents, and
//! [`scrape_and_curate`] is tested to match the serial scrape-then-curate
//! composition end to end.

use curation::{CuratedDataset, CurationPipeline};
use gh_sim::fetch::{FetchConfig, FetchEngine};
use gh_sim::{GithubApi, Universe};
use serde::{Deserialize, Serialize};

use crate::config::FreeSetConfig;
use crate::corpus::ScrapedCorpus;

/// The outcome of a full FreeSet build: the raw scrape, the curated dataset
/// and every intermediate statistic the paper reports in §IV-A.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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

/// Builds FreeSet end to end: generate the universe, scrape it concurrently,
/// and curate it while the scrape streams — the default
/// [`gh_sim::fetch::FetchConfig`] applied to [`scrape_and_curate`].
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

/// Builds FreeSet on the streaming path: the concurrent fetch engine clones
/// repositories from a worker pool and pushes each one's files into a
/// [`curation::CurationSession`] while the scrape is still in flight — all
/// four FreeSet stages, de-duplication included, run on each batch as it
/// arrives. The bounded handoff queue backpressures the workers against the
/// curation stages' pace, so *in-flight* scrape buffering stays proportional
/// to the queue and the session's residency tracks the kept set. (The raw
/// file bank is still accumulated alongside the session —
/// [`FreeSetBuild::scraped`] retains it so every policy comparison can
/// reuse the same scrape — so peak memory remains corpus-proportional; a
/// scrape-once-curate-only consumer could drop that accumulation.)
///
/// The result — raw file bank, curated dataset, funnel and rejection
/// provenance — is identical to the serial composition
/// (`ScrapedCorpus::build` followed by `CurationPipeline::run`) for every
/// worker count and scheduler seed.
///
/// # Determinism
///
/// The file bank, curated dataset, funnel and rejection provenance are
/// byte-identical across runs, worker counts and scheduler seeds. The
/// scrape report's *concurrency profile* (`max_in_flight`, and the
/// retry/wait counters whenever requests actually contend for the window)
/// describes the observed schedule, so it can vary run to run — at
/// supported scales the [`crate::corpus::SCRAPE_API_BUDGET`] is never
/// exhausted and every counter except `max_in_flight` is deterministic too.
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
                    .expect("FreeSet curation has no spill stage, so pushes never do IO");
            }
            (
                raw_files,
                session
                    .finish()
                    .expect("FreeSet curation has no spill stage, so finish never does IO"),
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
            .all(|f| f.content().matches("endmodule").count() <= 1));
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
        // The serial reference: blocking scrape, then one-shot curation.
        let scraped = ScrapedCorpus::build(&config);
        let reference = CurationPipeline::new(config.curation.clone()).run(scraped.files.clone());
        for workers in [1, 4] {
            let build = scrape_and_curate(&config, &FetchConfig::with_workers(workers));
            assert_eq!(
                build.scraped.files, scraped.files,
                "raw bank differs at {workers} workers"
            );
            assert_eq!(
                build.dataset, reference,
                "curated dataset differs at {workers} workers"
            );
            assert_eq!(build.dataset.funnel(), reference.funnel());
            assert_eq!(
                build.scraped.scrape_report.repositories_cloned,
                scraped.scrape_report.repositories_cloned
            );
            assert!(build.scraped.scrape_report.max_in_flight <= workers);
        }
    }

    #[test]
    fn spill_bounded_build_matches_the_resident_build() {
        // The full plumbing: FreeSetConfig → CurationConfig.dedup_spill →
        // DedupStage → StreamingDeduplicator. Bounding residency to 2 of 8
        // shards must not change a single byte of the built dataset.
        let scale = ExperimentScale::tiny();
        let reference = build_freeset(&FreeSetConfig::at_scale(&scale));
        let spilled = build_freeset(&FreeSetConfig::at_scale(&scale).with_dedup_spill(
            curation::DedupSpillConfig {
                shards: 8,
                resident_shards: 2,
                spill_dir: None,
            },
        ));
        assert_eq!(spilled.scraped.files, reference.scraped.files);
        assert_eq!(spilled.dataset, reference.dataset);
    }

    #[test]
    fn streaming_build_is_deterministic_across_seeds_and_runs() {
        let config = FreeSetConfig::at_scale(&ExperimentScale::tiny());
        let a = scrape_and_curate(&config, &FetchConfig::with_workers(3).with_seed(1));
        let b = scrape_and_curate(&config, &FetchConfig::with_workers(3).with_seed(2));
        assert_eq!(a.scraped.files, b.scraped.files);
        assert_eq!(a.dataset, b.dataset);
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
