//! The clone phase of a scrape, as a lazy stream of repositories: each
//! [`FetchBatches::next`] clones one discovered repository, waiting out an
//! exhausted rate-limit window in-line, so a consumer that stops after `n`
//! batches has issued exactly `n` clone requests. [`Scraper::run`] drains
//! the same stream that [`FetchEngine::run_streaming`] hands to a consumer.

use crate::api::{ApiError, GithubApi};
use crate::repo::ExtractedFile;
use crate::scraper::{ScrapeReport, Scraper, ScraperConfig};

/// Settings of a [`FetchEngine`]. There are none: the scrape runs on the
/// calling thread, one request at a time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FetchConfig {}

/// One cloned repository's extracted Verilog files.
#[derive(Debug, Clone, PartialEq)]
pub struct FetchBatch {
    /// The cloned repository's id.
    pub repo_id: u64,
    /// The repository's extracted Verilog files, in repository order.
    pub files: Vec<ExtractedFile>,
}

/// The clone phase of a scrape: each `next()` clones the next discovered
/// repository, in ascending id order. The stream ends after the last
/// repository, or early at a clone error, which
/// [`FetchEngine::run_streaming`] then returns instead of the consumer's
/// value.
pub struct FetchBatches<'a> {
    pub(crate) api: &'a GithubApi<'a>,
    pub(crate) ids: std::slice::Iter<'a, u64>,
    pub(crate) report: &'a mut ScrapeReport,
    pub(crate) error: &'a mut Option<ApiError>,
}

impl Iterator for FetchBatches<'_> {
    type Item = FetchBatch;

    fn next(&mut self) -> Option<FetchBatch> {
        if self.error.is_some() {
            return None;
        }
        let repo_id = *self.ids.next()?;
        let repo = loop {
            match self.api.clone_repository(repo_id) {
                Ok(repo) => break repo,
                Err(ApiError::RateLimited) => self.report.wait_for_reset(self.api),
                Err(other) => {
                    *self.error = Some(other);
                    return None;
                }
            }
        };
        self.report.repositories_cloned += 1;
        self.report.files_seen += repo.files.len();
        let files: Vec<ExtractedFile> = repo
            .verilog_files()
            .map(|file| ExtractedFile {
                repo_id: repo.id,
                repo_full_name: repo.full_name.clone(),
                owner: repo.owner.clone(),
                repo_license: repo.license,
                created_year: repo.created_year,
                path: file.path.clone(),
                content: file.content.clone(),
            })
            .collect();
        self.report.verilog_files_extracted += files.len();
        Some(FetchBatch { repo_id, files })
    }
}

/// Runs a scrape with its clone phase streamed to a consumer.
///
/// # Example
///
/// ```
/// use gh_sim::fetch::{FetchConfig, FetchEngine};
/// use gh_sim::{GithubApi, Scraper, ScraperConfig, Universe, UniverseConfig};
///
/// let universe = Universe::generate(&UniverseConfig { repo_count: 40, seed: 9, ..Default::default() });
/// let collected = Scraper::new().run(&GithubApi::new(&universe))?;
/// let (files, report) = FetchEngine::new(FetchConfig::default()).run_streaming(
///     &GithubApi::new(&universe),
///     ScraperConfig::default(),
///     |batches| batches.flat_map(|batch| batch.files).collect::<Vec<_>>(),
/// )?;
/// assert_eq!(files, collected.files);
/// assert_eq!(report, collected.report);
/// # Ok::<(), gh_sim::ApiError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchEngine;

impl FetchEngine {
    /// Creates an engine.
    pub fn new(_config: FetchConfig) -> Self {
        Self
    }

    /// Runs the scrape on the calling thread, one blocking request at a
    /// time; `_scraper` has no settings. Discovery comes first: whole-range
    /// queries, granularised by year and then by license wherever the result
    /// cap is hit. The clone phase is then handed to `consume` as a lazy
    /// [`FetchBatches`] stream, so the consumer's pace is the scrape's pace.
    ///
    /// # Errors
    ///
    /// Returns an [`ApiError`] only for conditions granularisation cannot fix
    /// (for example a single year × license bucket still exceeding the result
    /// cap, which cannot happen with generated universes at supported sizes).
    /// A discovery error is returned before `consume` is called; a clone
    /// error ends the stream and is returned instead of the consumer's value.
    pub fn run_streaming<T>(
        &self,
        api: &GithubApi<'_>,
        _scraper: ScraperConfig,
        consume: impl FnOnce(FetchBatches<'_>) -> T,
    ) -> Result<(T, ScrapeReport), ApiError> {
        Scraper::new().stream(api, consume)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::{Universe, UniverseConfig};

    fn universe(repos: usize, seed: u64) -> Universe {
        Universe::generate(&UniverseConfig {
            repo_count: repos,
            seed,
            ..Default::default()
        })
    }

    #[test]
    fn batches_arrive_in_ascending_repository_order() {
        let u = universe(80, 23);
        let api = GithubApi::with_rate_limit(&u, 10_000);
        let (batches, report) = FetchEngine::new(FetchConfig::default())
            .run_streaming(&api, ScraperConfig::default(), |b| b.collect::<Vec<_>>())
            .unwrap();
        assert_eq!(batches.len(), 80);
        assert!(batches.windows(2).all(|w| w[0].repo_id < w[1].repo_id));
        assert!(batches
            .iter()
            .all(|b| b.files.iter().all(|f| f.repo_id == b.repo_id)));
        let files: usize = batches.iter().map(|b| b.files.len()).sum();
        assert_eq!(files, report.verilog_files_extracted);
    }

    #[test]
    fn consumer_may_stop_early_without_deadlock_or_runaway_cloning() {
        let u = universe(60, 29);
        let api = GithubApi::with_rate_limit(&u, 10_000);
        let (taken, report) = FetchEngine::new(FetchConfig::default())
            .run_streaming(&api, ScraperConfig::default(), |batches| {
                batches.take(3).map(|b| b.repo_id).collect::<Vec<_>>()
            })
            .unwrap();
        assert_eq!(taken.len(), 3);
        // The stream is pulled, not pushed: nothing is cloned ahead.
        assert_eq!(api.usage().clone_requests, 3);
        assert_eq!(report.repositories_cloned, 3);
        assert_eq!(report.repositories_found, 60);
    }

    #[test]
    fn a_clone_error_ends_the_stream_and_is_kept() {
        let u = universe(5, 31);
        let api = GithubApi::new(&u);
        let ids = [u.repositories()[0].id, u64::MAX, u.repositories()[1].id];
        let mut report = ScrapeReport::default();
        let mut error = None;
        let batches = FetchBatches {
            api: &api,
            ids: ids.iter(),
            report: &mut report,
            error: &mut error,
        };
        assert_eq!(batches.count(), 1);
        assert_eq!(error, Some(ApiError::UnknownRepository(u64::MAX)));
        assert_eq!(report.repositories_cloned, 1);
    }
}
