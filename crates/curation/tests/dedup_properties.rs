//! Property-based tests over the streaming de-duplication engine: for any
//! batch split, execution mode and universe seed, the exact-hash pre-dedup
//! fast path must never change the kept set.

use curation::{DedupConfig, DedupOutcome, Deduplicator, ExecutionMode};
use gh_sim::{GithubApi, Scraper, Universe, UniverseConfig};
use proptest::prelude::*;

/// A scraped bank's contents: realistic Verilog with the universe's planted
/// forks and near-duplicates.
fn corpus_texts(repos: usize, seed: u64) -> Vec<String> {
    let universe = Universe::generate(&UniverseConfig {
        repo_count: repos,
        seed,
        ..Default::default()
    });
    let api = GithubApi::new(&universe);
    Scraper::new()
        .run(&api)
        .expect("scrape")
        .files
        .into_iter()
        .map(|f| f.content)
        .collect()
}

fn mode_of(parallel: bool) -> ExecutionMode {
    if parallel {
        ExecutionMode::Parallel
    } else {
        ExecutionMode::Serial
    }
}

fn push_chunked(
    mut stream: curation::StreamingDeduplicator,
    texts: &[String],
    batch: usize,
    mode: ExecutionMode,
) -> (DedupOutcome, curation::StreamingDedupStats) {
    let mut merged = DedupOutcome::default();
    for chunk in texts.chunks(batch.max(1)) {
        let outcome = stream.push_texts_with_mode(chunk, mode);
        merged.kept.extend(outcome.kept);
        merged.removed.extend(outcome.removed);
    }
    (merged, stream.stats())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// The exact-hash fast path replays the first occurrence's resolution
    /// for byte-identical (post comment-strip) repeats — disabling it must
    /// change nothing but the amount of signature work performed.
    #[test]
    fn exact_prededup_never_changes_the_kept_set(
        repos in 4usize..14,
        seed in any::<u64>(),
        batch in 1usize..40,
        parallel in any::<bool>(),
    ) {
        let texts = corpus_texts(repos, seed);
        let mode = mode_of(parallel);
        let with = Deduplicator::new(DedupConfig::default());
        let without = Deduplicator::new(DedupConfig {
            exact_prededup: false,
            ..Default::default()
        });
        let (fast, fast_stats) = push_chunked(with.streaming(), &texts, batch, mode);
        let (slow, slow_stats) = push_chunked(without.streaming(), &texts, batch, mode);
        prop_assert_eq!(&fast, &slow, "exact-hash fast path changed the outcome");
        prop_assert_eq!(slow_stats.exact_hits, 0);
        // The fast path never does *more* signature work than the full path.
        prop_assert!(fast_stats.pushed_hashes <= slow_stats.pushed_hashes);
        prop_assert_eq!(fast_stats.kept_hashes, slow_stats.kept_hashes);
    }
}
