//! Deterministic parallel training and the shared seed-derivation scheme.
//!
//! Training is a shard-and-merge map-reduce, the same shape as the curation
//! side's dedup shards: the corpus is split into contiguous document shards,
//! each worker folds its shard into a private [`NgramCounts`], and the
//! per-shard tables are merged in fixed shard order with
//! [`NgramCounts::merge`]. Because every count is a sum of per-document
//! contributions, the merged tables equal the serial fold for *any* worker
//! count or shard split — property-tested in `tests/parallel_training.rs`.
//!
//! The module also hosts [`derive_seed`], the splitmix64-style mixer that the
//! evaluation harnesses (`verilogeval`, `copyright-bench`) use to give every
//! (problem, temperature) or prompt its own RNG stream derived from
//! `(base_seed, lane, slot)`. Per-item seeds decouple sampling from
//! iteration order, which is what makes parallel evaluation byte-identical
//! to serial — and fixes the bug where reordering an eval suite silently
//! changed every later problem's samples.

use serde::{Deserialize, Serialize};

use crate::model::TrainConfig;
use crate::ngram::{NgramCounts, NgramModel};
use crate::tokenizer::HdlTokenizer;

/// Whether an evaluation driver fans work out across threads.
///
/// Mirrors the curation crate's execution toggle: `Parallel` output is
/// byte-identical to `Serial` by construction, so the mode only changes
/// wall-clock time, never results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ExecutionMode {
    /// Single-threaded; the reference behaviour.
    Serial,
    /// Multi-threaded with order-stable merging: output is byte-identical to
    /// [`ExecutionMode::Serial`].
    #[default]
    Parallel,
}

/// Derives an independent RNG seed for one work item from a base seed and
/// two lane/slot indices (splitmix64-style finalizer).
///
/// Evaluation drivers call this as
/// `derive_seed(base_seed, problem_index, temperature_index)` (or
/// `(base_seed, prompt_index, 0)`), so each item's sample stream depends
/// only on the base seed and the item's own indices — never on how many
/// items ran before it or on which thread it ran.
pub fn derive_seed(base_seed: u64, lane: u64, slot: u64) -> u64 {
    let mut z = base_seed
        ^ lane.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ slot.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Default worker count for the parallel drivers: the machine's available
/// parallelism (output never depends on this — only wall-clock time does).
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(4)
}

/// Deterministic size-balanced partition of `corpus` into at most `workers`
/// shards of document *indices*.
///
/// Longest-processing-time greedy: documents are considered in order of
/// descending byte length (ties by index), each assigned to the currently
/// least-loaded shard (ties by shard number). Within a shard the indices
/// are returned sorted, so workers still visit their documents in corpus
/// order. Empty shards are dropped. The partition depends only on the
/// document lengths and `workers`, never on thread scheduling — and since
/// every count the training fold produces is a sum of per-document
/// contributions, *any* partition merges to the same result; balance only
/// changes wall-clock time.
pub fn partition_by_size<S: AsRef<str>>(corpus: &[S], workers: usize) -> Vec<Vec<usize>> {
    if corpus.is_empty() {
        return Vec::new();
    }
    let workers = workers.clamp(1, corpus.len());
    let mut order: Vec<usize> = (0..corpus.len()).collect();
    order.sort_by(|&a, &b| {
        corpus[b]
            .as_ref()
            .len()
            .cmp(&corpus[a].as_ref().len())
            .then(a.cmp(&b))
    });
    let mut shards: Vec<Vec<usize>> = vec![Vec::new(); workers];
    let mut loads: Vec<usize> = vec![0; workers];
    for idx in order {
        let lightest = (0..workers)
            .min_by_key(|&s| (loads[s], s))
            .expect("workers >= 1");
        // Even an empty document costs one unit, so tiny corpora still
        // spread across shards instead of piling onto shard 0.
        loads[lightest] += corpus[idx].as_ref().len().max(1);
        shards[lightest].push(idx);
    }
    for shard in &mut shards {
        shard.sort_unstable();
    }
    shards.retain(|s| !s.is_empty());
    shards
}

/// Runs `work` once per [`partition_by_size`] shard of `corpus`, one scoped
/// thread per shard, and returns the results in shard order. A single shard
/// runs on the calling thread.
pub(crate) fn map_shards<S, T, F>(corpus: &[S], workers: usize, work: F) -> Vec<T>
where
    S: AsRef<str>,
    T: Send,
    F: Fn(&[usize]) -> T + Sync,
{
    let partition = partition_by_size(corpus, workers);
    if partition.len() <= 1 {
        return partition.iter().map(|indices| work(indices)).collect();
    }
    let work = &work;
    std::thread::scope(|scope| {
        let handles: Vec<_> = partition
            .iter()
            .map(|indices| scope.spawn(move || work(indices)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard worker panicked"))
            .collect()
    })
}

/// Folds `corpus` into [`NgramCounts`] of `order` on scoped threads, one
/// size-balanced document shard per worker (see [`partition_by_size`]),
/// merging per-shard counts in fixed shard order.
///
/// Equal to the serial fold (`encode → truncate → observe` per document)
/// for any worker count; `workers` is clamped to `1..=corpus.len()`.
pub fn sharded_counts<S: AsRef<str> + Sync>(
    tokenizer: &HdlTokenizer,
    corpus: &[S],
    order: usize,
    max_seq_len: usize,
    workers: usize,
) -> NgramCounts {
    let shards = map_shards(corpus, workers, |indices| {
        let mut counts = NgramCounts::new(order);
        for &i in indices {
            let mut ids = tokenizer.encode_document(corpus[i].as_ref());
            ids.truncate(max_seq_len.max(2));
            counts.observe_sequence(&ids);
        }
        counts
    });
    let mut merged = NgramCounts::new(order);
    for shard in shards {
        merged.merge(shard);
    }
    merged
}

/// Trains an [`NgramModel`] with the shard-and-merge driver over `workers`
/// threads. Both stages fan out: the vocabulary fit runs as a sharded tally
/// ([`HdlTokenizer::fit_sharded`]) and the n-gram counting as a sharded
/// fold, so the driver has no serial prefix. The result is byte-identical
/// to [`NgramModel::train_named`] for any worker count.
pub fn train_model_sharded<S: AsRef<str> + Sync>(
    name: impl Into<String>,
    corpus: &[S],
    config: &TrainConfig,
    workers: usize,
) -> NgramModel {
    let tokenizer = HdlTokenizer::fit_sharded(corpus, config.min_token_count, workers);
    let counts = sharded_counts(
        &tokenizer,
        corpus,
        config.order,
        config.max_seq_len,
        workers,
    );
    NgramModel::from_parts(name, tokenizer, counts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> Vec<String> {
        (0..13)
            .map(|i| {
                format!(
                    "module m{i}(input a, input b, output y);\n\
                     assign y = a {} b;\nendmodule",
                    if i % 2 == 0 { "&" } else { "|" }
                )
            })
            .collect()
    }

    #[test]
    fn sharded_training_matches_serial_for_many_worker_counts() {
        let corpus = corpus();
        let config = TrainConfig::default();
        let serial = NgramModel::train_named("m", &corpus, &config);
        for workers in [1, 2, 3, 5, 8, 13, 64] {
            let parallel = train_model_sharded("m", &corpus, &config, workers);
            assert_eq!(parallel, serial, "diverged at workers={workers}");
        }
    }

    #[test]
    fn empty_corpus_trains_empty_counts() {
        let empty: Vec<String> = Vec::new();
        let counts = sharded_counts(&HdlTokenizer::fit(&empty, 1), &empty, 4, 2048, 8);
        assert_eq!(counts.trained_tokens(), 0);
        assert_eq!(counts.context_count(), 0);
    }

    #[test]
    fn partition_covers_every_index_exactly_once() {
        let corpus = corpus();
        for workers in [1, 2, 3, 5, 13, 64] {
            let shards = partition_by_size(&corpus, workers);
            let mut seen: Vec<usize> = shards.iter().flatten().copied().collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..corpus.len()).collect::<Vec<_>>());
            assert!(shards.len() <= workers.min(corpus.len()));
            // Within a shard, documents stay in corpus order.
            for shard in &shards {
                assert!(shard.windows(2).all(|w| w[0] < w[1]));
            }
        }
        assert!(partition_by_size(&Vec::<String>::new(), 4).is_empty());
    }

    #[test]
    fn partition_balances_skewed_document_sizes() {
        // One huge document plus many small ones: contiguous chunking would
        // put the giant and half the corpus on one shard; LPT keeps the
        // giant alone and spreads the rest.
        let mut corpus = vec!["x".repeat(10_000)];
        corpus.extend((0..8).map(|i| format!("module m{i}(); endmodule")));
        let shards = partition_by_size(&corpus, 3);
        assert_eq!(shards.len(), 3);
        let load = |shard: &Vec<usize>| shard.iter().map(|&i| corpus[i].len()).sum::<usize>();
        let giant_shard = shards
            .iter()
            .find(|s| s.contains(&0))
            .expect("doc 0 placed");
        assert_eq!(
            giant_shard,
            &vec![0],
            "the giant document gets its own shard"
        );
        // The two remaining shards split the small documents about evenly.
        let small: Vec<usize> = shards
            .iter()
            .filter(|s| !s.contains(&0))
            .map(load)
            .collect();
        assert_eq!(small.len(), 2);
        assert!(small[0].abs_diff(small[1]) <= corpus[1].len() + 1);
    }

    #[test]
    fn partition_is_deterministic() {
        let corpus = corpus();
        assert_eq!(partition_by_size(&corpus, 4), partition_by_size(&corpus, 4));
    }

    #[test]
    fn derived_seeds_are_decorrelated_across_lanes_and_slots() {
        let mut seen = std::collections::HashSet::new();
        for lane in 0..50u64 {
            for slot in 0..4u64 {
                assert!(seen.insert(derive_seed(0xE7A1, lane, slot)), "collision");
            }
        }
        // Different base seeds move every lane.
        assert_ne!(derive_seed(1, 0, 0), derive_seed(2, 0, 0));
        // Deterministic.
        assert_eq!(derive_seed(9, 3, 1), derive_seed(9, 3, 1));
    }
}
