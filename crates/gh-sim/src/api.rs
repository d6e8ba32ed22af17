//! The simulated GitHub search/clone API.
//!
//! The real GitHub search API imposes two constraints the paper has to
//! engineer around (§III-B2): a hard cap of 1 000 results per query for
//! non-enterprise accounts, and request rate limits. This module models both
//! so that the scraper's query-granularisation logic is exercised for real.

use std::fmt;
use std::sync::Mutex;

use serde::{Deserialize, Serialize};

use crate::license::License;
use crate::repo::Repository;
use crate::universe::Universe;

/// The per-query result cap of the simulated search endpoint.
pub const SEARCH_RESULT_CAP: usize = 1_000;

/// Results per page returned by the search endpoint.
pub const PAGE_SIZE: usize = 100;

/// Errors returned by the simulated API.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ApiError {
    /// The query matches more repositories than the search cap allows; the
    /// caller must granularise the query.
    TooManyResults {
        /// Number of repositories the query matched.
        matched: usize,
    },
    /// The rate limit was exhausted; the caller must wait for a reset.
    RateLimited,
    /// An unknown repository id was requested.
    UnknownRepository(u64),
    /// A page beyond the last page was requested.
    PageOutOfRange {
        /// The requested page number.
        page: usize,
        /// Number of available pages.
        pages: usize,
    },
}

impl fmt::Display for ApiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApiError::TooManyResults { matched } => write!(
                f,
                "query matched {matched} repositories, exceeding the {SEARCH_RESULT_CAP}-result cap"
            ),
            ApiError::RateLimited => write!(f, "api rate limit exceeded"),
            ApiError::UnknownRepository(id) => write!(f, "unknown repository id {id}"),
            ApiError::PageOutOfRange { page, pages } => {
                write!(f, "page {page} out of range (only {pages} pages)")
            }
        }
    }
}

impl std::error::Error for ApiError {}

/// A repository search query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct RepoQuery {
    /// Restrict to repositories created in `[from, to]` (inclusive years).
    pub created_between: Option<(u32, u32)>,
    /// Restrict to repositories with this license (`None` in the option means
    /// no restriction; `Some(License::None)` means explicitly unlicensed).
    pub license: Option<License>,
    /// Page number (0-based).
    pub page: usize,
}

impl RepoQuery {
    /// A query over every repository (page 0).
    pub fn all() -> Self {
        Self::default()
    }

    /// Restricts the query to a creation-year range.
    pub fn created(mut self, from: u32, to: u32) -> Self {
        self.created_between = Some((from, to));
        self
    }

    /// Restricts the query to a license.
    pub fn with_license(mut self, license: License) -> Self {
        self.license = Some(license);
        self
    }

    /// Selects a result page.
    pub fn page(mut self, page: usize) -> Self {
        self.page = page;
        self
    }

    fn matches(&self, repo: &Repository) -> bool {
        if let Some((from, to)) = self.created_between {
            if repo.created_year < from || repo.created_year > to {
                return false;
            }
        }
        if let Some(license) = self.license {
            if repo.license != license {
                return false;
            }
        }
        true
    }
}

/// One page of search results.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SearchPage {
    /// Repository ids on this page, ordered by descending star count.
    pub repo_ids: Vec<u64>,
    /// Total number of matches for the query (across all pages).
    pub total_matches: usize,
    /// Whether further pages exist.
    pub has_more: bool,
}

/// Usage statistics of the simulated API.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct ApiUsage {
    /// Search requests served (including rejected ones).
    pub search_requests: usize,
    /// Clone requests served.
    pub clone_requests: usize,
    /// Requests rejected because of rate limiting.
    pub rate_limit_rejections: usize,
    /// Number of times the rate-limit window was reset.
    pub rate_limit_resets: usize,
}

/// The simulated GitHub API over a [`Universe`].
///
/// Interior mutability (a [`Mutex`] around the rate-limit window and the
/// usage counters) is used for the request accounting so that read-only API
/// handles can be shared freely: the [`crate::Scraper`] and its consumer
/// both hold `&GithubApi`, the type is `Sync`, and each request's admission
/// decision is atomic with respect to concurrent requests.
///
/// # Example
///
/// ```
/// use gh_sim::{GithubApi, RepoQuery, Universe, UniverseConfig};
///
/// let universe = Universe::generate(&UniverseConfig { repo_count: 30, seed: 3, ..Default::default() });
/// let api = GithubApi::new(&universe);
/// let page = api.search(&RepoQuery::all())?;
/// assert_eq!(page.total_matches, 30);
/// # Ok::<(), gh_sim::ApiError>(())
/// ```
#[derive(Debug)]
pub struct GithubApi<'a> {
    universe: &'a Universe,
    window_budget: usize,
    window_remaining: Mutex<usize>,
    usage: Mutex<ApiUsage>,
}

impl<'a> GithubApi<'a> {
    /// Default number of requests allowed per rate-limit window (the real
    /// GitHub search API allows 30 search requests per minute; we default to
    /// a looser budget so small experiments do not need to sleep).
    pub const DEFAULT_REQUESTS_PER_WINDOW: usize = 30;

    /// Creates an API over `universe` with the default rate limit.
    pub fn new(universe: &'a Universe) -> Self {
        Self::with_rate_limit(universe, Self::DEFAULT_REQUESTS_PER_WINDOW)
    }

    /// Creates an API with a custom per-window request budget.
    ///
    /// # Panics
    ///
    /// Panics if `window_budget` is zero.
    pub fn with_rate_limit(universe: &'a Universe, window_budget: usize) -> Self {
        assert!(
            window_budget > 0,
            "rate limit must allow at least one request"
        );
        Self {
            universe,
            window_budget,
            window_remaining: Mutex::new(window_budget),
            usage: Mutex::new(ApiUsage::default()),
        }
    }

    /// Usage statistics so far.
    pub fn usage(&self) -> ApiUsage {
        *self.usage.lock().expect("api usage lock poisoned")
    }

    /// Resets the rate-limit window (the simulated equivalent of waiting for
    /// the window to roll over).
    pub fn wait_for_rate_limit_reset(&self) {
        *self
            .window_remaining
            .lock()
            .expect("api window lock poisoned") = self.window_budget;
        self.usage
            .lock()
            .expect("api usage lock poisoned")
            .rate_limit_resets += 1;
    }

    fn consume_request(&self) -> Result<(), ApiError> {
        let mut remaining = self
            .window_remaining
            .lock()
            .expect("api window lock poisoned");
        if *remaining == 0 {
            self.usage
                .lock()
                .expect("api usage lock poisoned")
                .rate_limit_rejections += 1;
            return Err(ApiError::RateLimited);
        }
        *remaining -= 1;
        Ok(())
    }

    /// Searches repositories.
    ///
    /// # Errors
    ///
    /// * [`ApiError::TooManyResults`] when the query matches more than
    ///   [`SEARCH_RESULT_CAP`] repositories.
    /// * [`ApiError::RateLimited`] when the request budget is exhausted.
    /// * [`ApiError::PageOutOfRange`] for pages past the end.
    pub fn search(&self, query: &RepoQuery) -> Result<SearchPage, ApiError> {
        self.usage
            .lock()
            .expect("api usage lock poisoned")
            .search_requests += 1;
        self.consume_request()?;
        let mut matches: Vec<&Repository> = self
            .universe
            .repositories()
            .iter()
            .filter(|r| query.matches(r))
            .collect();
        let total = matches.len();
        if total > SEARCH_RESULT_CAP {
            return Err(ApiError::TooManyResults { matched: total });
        }
        matches.sort_by(|a, b| b.stars.cmp(&a.stars).then(a.id.cmp(&b.id)));
        let pages = total.div_ceil(PAGE_SIZE).max(1);
        if query.page >= pages {
            return Err(ApiError::PageOutOfRange {
                page: query.page,
                pages,
            });
        }
        let start = query.page * PAGE_SIZE;
        let end = (start + PAGE_SIZE).min(total);
        Ok(SearchPage {
            repo_ids: matches[start..end].iter().map(|r| r.id).collect(),
            total_matches: total,
            has_more: end < total,
        })
    }

    /// Clones a repository, returning its full contents.
    ///
    /// # Errors
    ///
    /// * [`ApiError::UnknownRepository`] when the id does not exist.
    /// * [`ApiError::RateLimited`] when the request budget is exhausted.
    pub fn clone_repository(&self, id: u64) -> Result<&'a Repository, ApiError> {
        self.usage
            .lock()
            .expect("api usage lock poisoned")
            .clone_requests += 1;
        self.consume_request()?;
        self.universe
            .repository(id)
            .ok_or(ApiError::UnknownRepository(id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::UniverseConfig;

    fn universe(repos: usize) -> Universe {
        Universe::generate(&UniverseConfig {
            repo_count: repos,
            seed: 5,
            ..Default::default()
        })
    }

    #[test]
    fn search_returns_paged_results() {
        let u = universe(250);
        let api = GithubApi::with_rate_limit(&u, 1000);
        let page0 = api.search(&RepoQuery::all()).unwrap();
        assert_eq!(page0.total_matches, 250);
        assert_eq!(page0.repo_ids.len(), PAGE_SIZE);
        assert!(page0.has_more);
        let page2 = api.search(&RepoQuery::all().page(2)).unwrap();
        assert_eq!(page2.repo_ids.len(), 50);
        assert!(!page2.has_more);
        assert!(api.search(&RepoQuery::all().page(3)).is_err());
    }

    #[test]
    fn result_cap_forces_granularisation() {
        let u = universe(1200);
        let api = GithubApi::with_rate_limit(&u, 10_000);
        let err = api.search(&RepoQuery::all()).unwrap_err();
        assert!(matches!(err, ApiError::TooManyResults { matched: 1200 }));
        // Narrowing by creation year brings the count under the cap.
        let narrowed = api.search(&RepoQuery::all().created(2008, 2015));
        assert!(narrowed.is_ok() || matches!(narrowed, Err(ApiError::TooManyResults { .. })));
    }

    #[test]
    fn license_filter_restricts_results() {
        let u = universe(300);
        let api = GithubApi::with_rate_limit(&u, 10_000);
        let all = api.search(&RepoQuery::all()).unwrap().total_matches;
        let mit = api
            .search(&RepoQuery::all().with_license(License::Mit))
            .unwrap()
            .total_matches;
        assert!(mit < all);
        let unlicensed = api
            .search(&RepoQuery::all().with_license(License::None))
            .unwrap()
            .total_matches;
        assert!(unlicensed > 0, "universe should contain unlicensed repos");
    }

    #[test]
    fn rate_limit_rejects_and_resets() {
        let u = universe(20);
        let api = GithubApi::with_rate_limit(&u, 2);
        assert!(api.search(&RepoQuery::all()).is_ok());
        assert!(api.clone_repository(0).is_ok());
        assert_eq!(
            api.search(&RepoQuery::all()).unwrap_err(),
            ApiError::RateLimited
        );
        api.wait_for_rate_limit_reset();
        assert!(api.search(&RepoQuery::all()).is_ok());
        let usage = api.usage();
        assert_eq!(usage.rate_limit_rejections, 1);
        assert_eq!(usage.rate_limit_resets, 1);
        assert!(usage.search_requests >= 3);
    }

    #[test]
    fn clone_unknown_repository_is_an_error() {
        let u = universe(5);
        let api = GithubApi::new(&u);
        assert!(matches!(
            api.clone_repository(999).unwrap_err(),
            ApiError::UnknownRepository(999)
        ));
    }

    #[test]
    fn results_are_ordered_by_stars() {
        let u = universe(50);
        let api = GithubApi::with_rate_limit(&u, 100);
        let page = api.search(&RepoQuery::all()).unwrap();
        let stars: Vec<u32> = page
            .repo_ids
            .iter()
            .map(|id| u.repository(*id).unwrap().stars)
            .collect();
        let mut sorted = stars.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(stars, sorted);
    }

    #[test]
    fn api_handles_are_shareable_across_threads() {
        fn assert_sync_send<T: Sync + Send>() {}
        assert_sync_send::<GithubApi<'static>>();
        // Concurrent requests against one handle never over-admit: with a
        // budget of 10, exactly 10 of the 40 racing requests may succeed.
        let u = universe(20);
        let api = GithubApi::with_rate_limit(&u, 10);
        let successes: usize = std::thread::scope(|scope| {
            (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        (0..10)
                            .filter(|_| api.search(&RepoQuery::all()).is_ok())
                            .count()
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().expect("search worker panicked"))
                .sum()
        });
        assert_eq!(successes, 10);
        assert_eq!(api.usage().rate_limit_rejections, 30);
    }

    #[test]
    fn page_out_of_range_on_exact_page_multiple() {
        // 200 matches fill exactly two pages: the last page reports no
        // further results, and the next page is an error (not an empty page).
        let u = universe(200);
        let api = GithubApi::with_rate_limit(&u, 1000);
        let last = api.search(&RepoQuery::all().page(1)).unwrap();
        assert_eq!(last.repo_ids.len(), PAGE_SIZE);
        assert!(!last.has_more);
        assert_eq!(
            api.search(&RepoQuery::all().page(2)).unwrap_err(),
            ApiError::PageOutOfRange { page: 2, pages: 2 }
        );
    }

    #[test]
    fn empty_result_set_still_has_one_page() {
        let u = universe(10);
        let api = GithubApi::with_rate_limit(&u, 1000);
        // No repository is created after 2030.
        let none = RepoQuery::all().created(2030, 2031);
        let page = api.search(&none).unwrap();
        assert!(page.repo_ids.is_empty());
        assert_eq!(page.total_matches, 0);
        assert!(!page.has_more);
        assert_eq!(
            api.search(&none.page(1)).unwrap_err(),
            ApiError::PageOutOfRange { page: 1, pages: 1 }
        );
    }

    #[test]
    fn error_display_is_informative() {
        let e = ApiError::TooManyResults { matched: 2000 };
        assert!(format!("{e}").contains("2000"));
        assert!(format!("{}", ApiError::RateLimited).contains("rate limit"));
    }
}
