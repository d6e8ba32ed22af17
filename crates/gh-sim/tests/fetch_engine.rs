//! The streamed scrape equals the collected one: for any universe seed and
//! any API budget, the bank streamed through `FetchEngine::run_streaming` is
//! byte-identical to `Scraper::run`'s, with the same report, and both hold
//! every Verilog file of the universe in ascending repository-id order.

use gh_sim::fetch::{FetchConfig, FetchEngine};
use gh_sim::{GithubApi, Scraper, ScraperConfig, Universe, UniverseConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn streamed_bank_is_byte_identical_to_the_collected_bank(
        repo_count in 5usize..35,
        universe_seed in any::<u64>(),
        budget in prop_oneof![3usize..11, Just(100_000usize)],
    ) {
        let u = Universe::generate(&UniverseConfig {
            repo_count,
            seed: universe_seed,
            ..Default::default()
        });
        let collected = Scraper::new()
            .run(&GithubApi::with_rate_limit(&u, budget))
            .expect("the scraper waits out any finite rate limit");
        let (streamed, report) = FetchEngine::new(FetchConfig::default())
            .run_streaming(
                &GithubApi::with_rate_limit(&u, budget),
                ScraperConfig::default(),
                |batches| batches.flat_map(|batch| batch.files).collect::<Vec<_>>(),
            )
            .expect("the stream waits out any finite rate limit");

        // Structural equality plus the Debug rendering, which pins every
        // field, string contents included, byte for byte.
        prop_assert_eq!(&streamed, &collected.files);
        prop_assert_eq!(format!("{:?}", &streamed), format!("{:?}", &collected.files));
        prop_assert_eq!(report, collected.report);
        // An oracle independent of the scraper: the universe's own files.
        let mut repos: Vec<_> = u.repositories().iter().collect();
        repos.sort_by_key(|r| r.id);
        let expected = repos.iter().flat_map(|r| {
            r.verilog_files().map(move |f| (r.id, f.path.as_str(), f.content.as_str()))
        });
        let got = streamed.iter().map(|f| (f.repo_id, f.path.as_str(), f.content.as_str()));
        prop_assert!(got.eq(expected));
        if budget < 100_000 {
            prop_assert!(
                report.rate_limit_waits > 0,
                "a budget of {} must force window rollovers",
                budget
            );
        }
    }
}
