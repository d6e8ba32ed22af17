//! The query-granularising scraper (the paper's "automated system
//! implementing the GitHub API").
//!
//! The scraper mirrors §III-B2 of the paper:
//!
//! 1. queries are granularised by repository-creation-date ranges (2008 to
//!    2024) and, when a date range still exceeds the 1 000-result cap, further
//!    split by license;
//! 2. every matching repository is cloned so author information is retained
//!    for accreditation;
//! 3. non-Verilog files are discarded and the Verilog files are condensed
//!    into one large bank of [`ExtractedFile`]s.
//!
//! [`Scraper`] drives the API on the calling thread, one blocking request
//! at a time, and waits out every rate limit in-line. [`Scraper::run`]
//! collects the whole bank; [`crate::fetch::FetchEngine::run_streaming`]
//! hands the clone phase to a consumer as a lazy
//! [`crate::fetch::FetchBatches`] stream instead, so curation can run while
//! the scrape is still cloning. Both drain the same stream.

use crate::api::{ApiError, GithubApi, RepoQuery};
use crate::fetch::FetchBatches;
use crate::license::License;
use crate::repo::ExtractedFile;

/// Settings of a scraping run. There are none: every scrape queries the
/// whole 2008–2024 creation range under every license.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScraperConfig {}

/// First creation year to query (GitHub was established in 2008).
const FROM_YEAR: u32 = 2008;

/// Last creation year to query.
const TO_YEAR: u32 = 2024;

/// Statistics describing a scraping run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScrapeReport {
    /// Search queries issued (including ones rejected for being too broad).
    pub queries_issued: usize,
    /// Queries that had to be split because they exceeded the result cap.
    pub queries_over_cap: usize,
    /// Times the client had to wait out the rate limit (window rollovers).
    pub rate_limit_waits: usize,
    /// Requests re-issued after a [`ApiError::RateLimited`] rejection. The
    /// scraper retries exactly once per wait, so this always equals
    /// [`ScrapeReport::rate_limit_waits`].
    pub rate_limit_retries: usize,
    /// Ticks spent backing off between retries. Always 0: the scraper waits
    /// for the window reset instead of backing off.
    pub backoff_ticks_waited: u64,
    /// Repositories discovered by the search phase.
    pub repositories_found: usize,
    /// Repositories successfully cloned.
    pub repositories_cloned: usize,
    /// Total files seen in cloned repositories (all kinds).
    pub files_seen: usize,
    /// Verilog files extracted.
    pub verilog_files_extracted: usize,
}

impl ScrapeReport {
    /// Waits out an exhausted rate-limit window, counting the wait and the
    /// retry that follows it.
    pub(crate) fn wait_for_reset(&mut self, api: &GithubApi<'_>) {
        self.rate_limit_waits += 1;
        self.rate_limit_retries += 1;
        api.wait_for_rate_limit_reset();
    }

    /// Checks the report's internal invariants; called (under
    /// `debug_assertions`) before a scrape returns.
    fn debug_validate(&self) {
        debug_assert!(
            self.repositories_cloned <= self.repositories_found,
            "cloned {} repositories but only {} were found",
            self.repositories_cloned,
            self.repositories_found
        );
        debug_assert!(
            self.verilog_files_extracted <= self.files_seen,
            "extracted {} Verilog files out of {} seen",
            self.verilog_files_extracted,
            self.files_seen
        );
    }
}

/// The result of a scraping run: the file bank plus its report.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScrapeOutput {
    /// Extracted Verilog files with provenance.
    pub files: Vec<ExtractedFile>,
    /// Run statistics.
    pub report: ScrapeReport,
}

/// The granularising scraper.
///
/// # Example
///
/// ```
/// use gh_sim::{GithubApi, Scraper, Universe, UniverseConfig};
///
/// let universe = Universe::generate(&UniverseConfig { repo_count: 50, seed: 2, ..Default::default() });
/// let api = GithubApi::new(&universe);
/// let output = Scraper::new().run(&api)?;
/// assert_eq!(output.report.repositories_cloned, 50);
/// # Ok::<(), gh_sim::ApiError>(())
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Scraper;

impl Scraper {
    /// Creates a scraper.
    pub fn new() -> Self {
        Self
    }

    /// Runs the scrape and collects every extracted file, draining the clone
    /// stream that [`crate::fetch::FetchEngine::run_streaming`] hands to its
    /// consumer.
    ///
    /// # Errors
    ///
    /// Returns an [`ApiError`] only for conditions granularisation cannot fix
    /// (for example a single year × license bucket still exceeding the result
    /// cap, which cannot happen with generated universes at supported sizes).
    pub fn run(&self, api: &GithubApi<'_>) -> Result<ScrapeOutput, ApiError> {
        let (files, report) = self.stream(api, |batches| {
            batches.flat_map(|batch| batch.files).collect()
        })?;
        Ok(ScrapeOutput { files, report })
    }

    /// Runs discovery, then hands the clone phase to `consume` (see
    /// [`crate::fetch::FetchEngine::run_streaming`]).
    pub(crate) fn stream<T>(
        &self,
        api: &GithubApi<'_>,
        consume: impl FnOnce(FetchBatches<'_>) -> T,
    ) -> Result<(T, ScrapeReport), ApiError> {
        let mut report = ScrapeReport::default();
        let mut repo_ids: Vec<u64> = Vec::new();
        let root = RepoQuery {
            created_between: Some((FROM_YEAR, TO_YEAR)),
            license: None,
            page: 0,
        };
        self.discover(api, root, &mut report, &mut repo_ids)?;
        repo_ids.sort_unstable();
        repo_ids.dedup();
        report.repositories_found = repo_ids.len();

        let mut error = None;
        let consumed = consume(FetchBatches {
            api,
            ids: repo_ids.iter(),
            report: &mut report,
            error: &mut error,
        });
        if let Some(error) = error {
            return Err(error);
        }
        report.debug_validate();
        Ok((consumed, report))
    }

    /// Recursively narrows `query` until every bucket fits under the result
    /// cap, accumulating matching repository ids.
    fn discover(
        &self,
        api: &GithubApi<'_>,
        query: RepoQuery,
        report: &mut ScrapeReport,
        out: &mut Vec<u64>,
    ) -> Result<(), ApiError> {
        let mut page = 0;
        loop {
            let paged = RepoQuery {
                page,
                ..query.clone()
            };
            report.queries_issued += 1;
            match api.search(&paged) {
                Ok(result) => {
                    out.extend(result.repo_ids);
                    if !result.has_more {
                        return Ok(());
                    }
                    page += 1;
                }
                Err(ApiError::RateLimited) => report.wait_for_reset(api),
                Err(ApiError::TooManyResults { matched }) => {
                    report.queries_over_cap += 1;
                    let Some(splits) = granularise(&query) else {
                        // A single year × single license bucket over the cap
                        // cannot be narrowed further; surface the real match
                        // count so callers can size their universes.
                        return Err(ApiError::TooManyResults { matched });
                    };
                    for split in splits {
                        self.discover(api, split, report, out)?;
                    }
                    return Ok(());
                }
                Err(other) => return Err(other),
            }
        }
    }
}

/// The paper's granularisation rule: an over-cap query is split into the two
/// halves of its creation-date range; a single-year query is split into one
/// query per license; a single year × single license bucket cannot be
/// narrowed further (`None`).
fn granularise(query: &RepoQuery) -> Option<Vec<RepoQuery>> {
    let (from, to) = query.created_between.unwrap_or((FROM_YEAR, TO_YEAR));
    if from < to {
        let mid = (from + to) / 2;
        Some(vec![
            RepoQuery {
                created_between: Some((from, mid)),
                page: 0,
                ..query.clone()
            },
            RepoQuery {
                created_between: Some((mid + 1, to)),
                page: 0,
                ..query.clone()
            },
        ])
    } else if query.license.is_none() {
        Some(
            License::ALL
                .into_iter()
                .map(|license| RepoQuery {
                    license: Some(license),
                    created_between: Some((from, to)),
                    page: 0,
                })
                .collect(),
        )
    } else {
        None
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
    fn scrapes_every_repository_and_only_verilog_files() {
        let u = universe(80, 11);
        let api = GithubApi::new(&u);
        let output = Scraper::new().run(&api).unwrap();
        assert_eq!(output.report.repositories_cloned, 80);
        assert_eq!(
            output.report.verilog_files_extracted,
            u.stats().verilog_files
        );
        assert_eq!(output.files.len(), u.stats().verilog_files);
        assert!(output.report.files_seen > output.report.verilog_files_extracted);
        for file in &output.files {
            assert!(file.path.ends_with(".v"));
        }
    }

    #[test]
    fn rate_limits_are_waited_out_not_fatal() {
        let u = universe(120, 13);
        let api = GithubApi::with_rate_limit(&u, 5);
        let output = Scraper::new().run(&api).unwrap();
        assert_eq!(output.report.repositories_cloned, 120);
        assert!(output.report.rate_limit_waits > 0);
        assert!(api.usage().rate_limit_resets > 0);
    }

    #[test]
    fn oversized_universes_force_query_granularisation() {
        let u = universe(1500, 17);
        let api = GithubApi::with_rate_limit(&u, 100_000);
        let output = Scraper::new().run(&api).unwrap();
        assert_eq!(output.report.repositories_cloned, 1500);
        assert!(
            output.report.queries_over_cap > 0,
            "the 1000-result cap should have been hit at least once"
        );
        assert!(output.report.queries_issued > 15);
    }

    #[test]
    fn provenance_is_preserved() {
        let u = universe(30, 23);
        let api = GithubApi::new(&u);
        let output = Scraper::new().run(&api).unwrap();
        for file in &output.files {
            let repo = u.repository(file.repo_id).unwrap();
            assert_eq!(repo.full_name, file.repo_full_name);
            assert_eq!(repo.owner, file.owner);
            assert_eq!(repo.license, file.repo_license);
        }
    }
}
