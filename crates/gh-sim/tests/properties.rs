//! Property-based tests for the synthetic GitHub substrate.

use gh_sim::{DesignKind, GithubApi, RepoQuery, Synthesizer, Universe, UniverseConfig};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use verilog::SyntaxChecker;

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn every_generated_design_parses(seed in any::<u64>(), kind_index in 0usize..DesignKind::ALL.len()) {
        let synth = Synthesizer::new();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let kind = DesignKind::ALL[kind_index];
        let design = synth.generate(kind, &format!("{}_prop", kind.tag()), &mut rng);
        prop_assert!(
            SyntaxChecker::new().is_valid(&design.source),
            "kind {:?} failed to parse:\n{}",
            kind,
            design.source
        );
    }

    #[test]
    fn universe_stats_are_internally_consistent(repo_count in 5usize..40, seed in any::<u64>()) {
        let universe = Universe::generate(&UniverseConfig {
            repo_count,
            seed,
            ..Default::default()
        });
        let stats = universe.stats();
        prop_assert_eq!(stats.repositories, repo_count);
        prop_assert_eq!(universe.repositories().len(), repo_count);
        let verilog: usize = universe.repositories().iter().map(|r| r.verilog_file_count()).sum();
        prop_assert_eq!(verilog, stats.verilog_files);
        prop_assert!(stats.accepted_license_repositories <= stats.repositories);
        prop_assert!(stats.verilog_files_in_licensed_repos <= stats.verilog_files);
        prop_assert!(stats.planted_copyright_files <= stats.verilog_files);
        for repo in universe.repositories() {
            prop_assert!((2008..=2025).contains(&repo.created_year));
        }
    }

    #[test]
    fn search_pagination_covers_every_matching_repo(repo_count in 5usize..60, seed in any::<u64>()) {
        let universe = Universe::generate(&UniverseConfig {
            repo_count,
            seed,
            ..Default::default()
        });
        let api = GithubApi::with_rate_limit(&universe, 10_000);
        let mut seen = std::collections::HashSet::new();
        let mut page = 0;
        loop {
            let result = api.search(&RepoQuery::all().page(page)).unwrap();
            for id in &result.repo_ids {
                prop_assert!(seen.insert(*id), "duplicate id {} across pages", id);
            }
            if !result.has_more {
                break;
            }
            page += 1;
        }
        prop_assert_eq!(seen.len(), repo_count);
    }
}
