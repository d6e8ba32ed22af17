//! Query-granularisation edge cases, driven through hand-built universes
//! ([`Universe::from_repositories`]) so the awkward populations — a single
//! year × license bucket over the result cap, result sets landing exactly on
//! page boundaries — actually occur.

use gh_sim::api::{ApiError, GithubApi, RepoQuery, PAGE_SIZE, SEARCH_RESULT_CAP};
use gh_sim::fetch::{FetchConfig, FetchEngine};
use gh_sim::{License, Repository, Scraper, ScraperConfig, SourceFile, Universe};

/// A minimal repository pinned to one creation year and license.
fn repo(id: u64, year: u32, license: License) -> Repository {
    Repository {
        id,
        full_name: format!("owner/repo-{id}"),
        owner: "owner".into(),
        created_year: year,
        license,
        stars: (id % 97) as u32,
        files: vec![SourceFile::verilog(
            "rtl/top.v",
            format!("module top_{id}(input clk); endmodule"),
        )],
    }
}

#[test]
fn single_year_single_license_over_cap_is_a_terminal_error() {
    // 1 100 unlicensed repositories all created in 2015: date splitting
    // bottoms out at (2015, 2015), license splitting isolates the
    // `License::None` bucket, and that bucket still exceeds the cap — the
    // one condition granularisation provably cannot fix.
    let count = SEARCH_RESULT_CAP + 100;
    let u = Universe::from_repositories(
        (0..count as u64)
            .map(|id| repo(id, 2015, License::None))
            .collect(),
    );
    let expected = ApiError::TooManyResults { matched: count };

    let collected = Scraper::new()
        .run(&GithubApi::with_rate_limit(&u, 1_000_000))
        .unwrap_err();
    assert_eq!(collected, expected);

    // The stream reports the identical terminal error from discovery,
    // before the consumer is ever called.
    let mut consumed = false;
    let streamed = FetchEngine::new(FetchConfig::default())
        .run_streaming(
            &GithubApi::with_rate_limit(&u, 1_000_000),
            ScraperConfig::default(),
            |_batches| consumed = true,
        )
        .unwrap_err();
    assert_eq!(streamed, expected);
    assert!(!consumed, "the consumer ran although discovery failed");
}

#[test]
fn single_year_over_cap_is_rescued_by_license_splitting() {
    // 1 100 repositories in one year, spread over every license: the year
    // bucket exceeds the cap but each license bucket stays under it.
    let count = SEARCH_RESULT_CAP + 100;
    let u = Universe::from_repositories(
        (0..count as u64)
            .map(|id| repo(id, 2015, License::ALL[id as usize % License::ALL.len()]))
            .collect(),
    );

    let serial = Scraper::new()
        .run(&GithubApi::with_rate_limit(&u, 1_000_000))
        .unwrap();
    assert_eq!(serial.report.repositories_found, count);
    assert_eq!(serial.report.repositories_cloned, count);
    assert!(
        serial.report.queries_over_cap > 0,
        "the cap must have forced splitting"
    );
}

#[test]
fn result_sets_on_exact_page_boundaries_are_paged_without_errors() {
    // Exactly two full pages: the last page must report `has_more = false`
    // so the scraper never requests the page past the end.
    let u = Universe::from_repositories(
        (0..(2 * PAGE_SIZE) as u64)
            .map(|id| repo(id, 2012, License::Mit))
            .collect(),
    );
    let api = GithubApi::with_rate_limit(&u, 1_000_000);
    let serial = Scraper::new().run(&api).unwrap();
    assert_eq!(serial.report.repositories_found, 2 * PAGE_SIZE);
    assert_eq!(serial.report.repositories_cloned, 2 * PAGE_SIZE);
}

#[test]
fn last_partial_page_is_fetched_and_the_page_after_it_is_an_error() {
    // 250 matches: pages of 100/100/50. The scraper stops after the partial
    // page; a direct request for the page past it is a PageOutOfRange.
    let count = 2 * PAGE_SIZE + PAGE_SIZE / 2;
    let u = Universe::from_repositories(
        (0..count as u64)
            .map(|id| repo(id, 2019, License::Apache2))
            .collect(),
    );
    let api = GithubApi::with_rate_limit(&u, 1_000_000);

    let last = api.search(&RepoQuery::all().page(2)).unwrap();
    assert_eq!(last.repo_ids.len(), PAGE_SIZE / 2);
    assert!(!last.has_more);
    assert_eq!(
        api.search(&RepoQuery::all().page(3)).unwrap_err(),
        ApiError::PageOutOfRange { page: 3, pages: 3 }
    );

    let serial = Scraper::new().run(&api).unwrap();
    assert_eq!(serial.report.repositories_found, count);
}

#[test]
fn serial_scraper_counts_retries_alongside_waits() {
    // Under a tight budget the serial scraper retries exactly once per wait.
    let u =
        Universe::from_repositories((0..40u64).map(|id| repo(id, 2016, License::Mit)).collect());
    let api = GithubApi::with_rate_limit(&u, 4);
    let output = Scraper::new().run(&api).unwrap();
    assert!(output.report.rate_limit_waits > 0);
    assert_eq!(
        output.report.rate_limit_retries,
        output.report.rate_limit_waits
    );
    // The scraper waits for the window reset instead of backing off.
    assert_eq!(output.report.backoff_ticks_waited, 0);
    assert!(output.report.repositories_cloned <= output.report.repositories_found);
}
