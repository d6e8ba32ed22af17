//! Deterministic parallel training and the shared seed-derivation scheme.
//!
//! Training is a shard-and-merge map-reduce, and it is the only trainer:
//! [`crate::NgramModel::train_named`], [`crate::HdlTokenizer::fit`],
//! [`crate::HdlTokenizer::extended_with`] and
//! [`crate::AdaptedModel::continual_pretrain`] all run it on the machine's
//! available parallelism. The corpus is split into size-balanced document
//! shards; each worker tallies the vocabulary, or folds its documents
//! (`encode → truncate → observe`) into a private [`NgramCounts`], and the
//! per-shard tables are summed into shard 0's in fixed shard order. Every
//! count is a sum of per-document contributions (Brants et al., "Large
//! Language Models in Machine Translation", EMNLP 2007, build the same
//! stupid-backoff counts as a MapReduce), so the merged tables equal a
//! serial fold for *any* worker count or shard split, and a model is the
//! same whichever machine trains it. The unit properties below check the
//! driver at 1 to 31 workers against longhand oracles that share no code
//! with it.
//!
//! The module also hosts [`derive_seed`], the splitmix64-style mixer that the
//! evaluation harnesses (`verilogeval`, `copyright-bench`) use to give every
//! (problem, temperature) or prompt its own RNG stream derived from
//! `(base_seed, lane, slot)`. Per-item seeds decouple sampling from
//! iteration order, which is what makes parallel evaluation byte-identical
//! to serial — and fixes the bug where reordering an eval suite silently
//! changed every later problem's samples.

use std::collections::HashMap;

use crate::model::TrainConfig;
use crate::ngram::{NgramCounts, NgramModel};
use crate::tokenizer::HdlTokenizer;

/// Whether an evaluation driver fans work out across threads.
///
/// Mirrors the curation crate's execution toggle: `Parallel` output is
/// byte-identical to `Serial` by construction, so the mode only changes
/// wall-clock time, never results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
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

/// The worker count the trainers run on: the machine's available
/// parallelism (output never depends on this — only wall-clock time does).
pub(crate) fn default_workers() -> usize {
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
fn partition_by_size<S: AsRef<str>>(corpus: &[S], workers: usize) -> Vec<Vec<usize>> {
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
fn map_shards<S, T, F>(corpus: &[S], workers: usize, work: F) -> Vec<T>
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

/// Occurrence count of every [`HdlTokenizer::split`] token in `corpus`,
/// tallied on `workers` shards and summed.
pub(crate) fn sharded_tally<S: AsRef<str> + Sync>(
    corpus: &[S],
    workers: usize,
) -> HashMap<String, usize> {
    let mut tallies = map_shards(corpus, workers, |indices| {
        let mut tally: HashMap<String, usize> = HashMap::new();
        for &i in indices {
            for token in HdlTokenizer::tokens(corpus[i].as_ref()) {
                match tally.get_mut(token) {
                    Some(count) => *count += 1,
                    None => {
                        tally.insert(token.to_owned(), 1);
                    }
                }
            }
        }
        tally
    })
    .into_iter();
    let mut merged = tallies.next().unwrap_or_default();
    for tally in tallies {
        for (token, count) in tally {
            *merged.entry(token).or_insert(0) += count;
        }
    }
    merged
}

/// Folds `corpus` into [`NgramCounts`] of `config.order` on `workers`
/// shards: each document is encoded, truncated to `config.max_seq_len`
/// tokens and observed, and the later shards' tables are merged into
/// shard 0's in shard order, so shard 0's contexts are never re-inserted.
pub(crate) fn sharded_counts<S: AsRef<str> + Sync>(
    tokenizer: &HdlTokenizer,
    corpus: &[S],
    config: &TrainConfig,
    workers: usize,
) -> NgramCounts {
    let mut shards = map_shards(corpus, workers, |indices| {
        let mut counts = NgramCounts::new(config.order);
        for &i in indices {
            let mut ids = tokenizer.encode_document(corpus[i].as_ref());
            ids.truncate(config.max_seq_len.max(2));
            counts.observe_sequence(&ids);
        }
        counts
    })
    .into_iter();
    let mut merged = shards
        .next()
        .unwrap_or_else(|| NgramCounts::new(config.order));
    for shard in shards {
        merged.merge(shard);
    }
    merged
}

/// The training driver behind [`NgramModel::train_named`]: a vocabulary fit
/// and an n-gram fold, both on `workers` shards, so it has no serial prefix.
pub(crate) fn train<S: AsRef<str> + Sync>(
    name: impl Into<String>,
    corpus: &[S],
    config: &TrainConfig,
    workers: usize,
) -> NgramModel {
    let tokenizer = HdlTokenizer::fit_on(corpus, workers);
    let counts = sharded_counts(&tokenizer, corpus, config, workers);
    NgramModel::from_parts(name, tokenizer, counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenizer::{TokenId, Vocabulary};
    use proptest::prelude::*;

    /// A deterministic pseudo-random Verilog-ish corpus: `docs` small
    /// modules whose shape (port mix, operator, body length) is derived from
    /// `seed`, so every proptest case explores a different token
    /// distribution without any ambient randomness.
    fn corpus(docs: usize, seed: u64) -> Vec<String> {
        let ops = ["&", "|", "^", "~&", "~|"];
        (0..docs)
            .map(|i| {
                let mix = seed
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add(i as u64);
                let op = ops[(mix % ops.len() as u64) as usize];
                let width = 1 + (mix >> 8) % 16;
                let stmts = 1 + (mix >> 16) % 5;
                let mut text = format!(
                    "module gen_{i}(input [{w}:0] a, input [{w}:0] b, output reg [{w}:0] y);\n",
                    w = width
                );
                for s in 0..stmts {
                    text.push_str(&format!("always @(*) y[{s}] = a[{s}] {op} b[{s}];\n"));
                }
                text.push_str("endmodule\n");
                text
            })
            .collect()
    }

    /// The count oracle: the `encode → truncate → observe` fold written out
    /// longhand over the whole corpus in order, so the expected value does
    /// not come from the driver under test.
    fn serial_fold(
        tokenizer: &HdlTokenizer,
        corpus: &[String],
        order: usize,
        max_seq_len: usize,
    ) -> NgramCounts {
        let mut counts = NgramCounts::new(order);
        for doc in corpus {
            let mut ids = tokenizer.encode_document(doc);
            ids.truncate(max_seq_len.max(2));
            counts.observe_sequence(&ids);
        }
        counts
    }

    /// The vocabulary oracle: every split token of `corpus`, tallied by hand
    /// and ordered by descending count, then lexicographically.
    fn tokens_by_count(corpus: &[String]) -> Vec<String> {
        let mut tally: Vec<(String, usize)> = Vec::new();
        for token in corpus.iter().flat_map(|doc| HdlTokenizer::split(doc)) {
            match tally.iter_mut().find(|(t, _)| *t == token) {
                Some((_, count)) => *count += 1,
                None => tally.push((token, 1)),
            }
        }
        tally.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        tally.into_iter().map(|(token, _)| token).collect()
    }

    /// Asserts that `vocab` holds exactly `base`'s tokens at their ids,
    /// followed by `appended` at consecutive ids.
    fn assert_ids(vocab: &Vocabulary, base: &Vocabulary, appended: &[String]) {
        assert_eq!(vocab.len(), base.len() + appended.len());
        for id in 0..base.len() as TokenId {
            assert_eq!(vocab.id(base.token(id)), id);
        }
        for (offset, token) in appended.iter().enumerate() {
            assert_eq!(vocab.id(token), (base.len() + offset) as TokenId, "{token}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

        /// The vocabulary side: the sharded tally interns the longhand
        /// tally's tokens, after the reserved ones, in its order; extending
        /// keeps every existing id and appends only the new tokens, in the
        /// same order.
        #[test]
        fn sharded_vocabulary_matches_the_longhand_tally(
            docs in 0usize..24,
            seed in any::<u64>(),
            workers in 1usize..32,
        ) {
            let corpus = corpus(docs, seed);
            let (base_docs, new_docs) = corpus.split_at(docs / 2);
            let fitted = HdlTokenizer::fit_on(&corpus, workers);
            assert_ids(fitted.vocab(), &Vocabulary::new(), &tokens_by_count(&corpus));
            let base = HdlTokenizer::fit_on(base_docs, workers);
            let extended = base.extended_with(new_docs);
            let appended: Vec<String> = tokens_by_count(new_docs)
                .into_iter()
                .filter(|t| base.vocab().id(t) == crate::tokenizer::UNK)
                .collect();
            assert_ids(extended.vocab(), base.vocab(), &appended);
        }

        /// The map side: fanning the fold out over any number of workers
        /// leaves the merged count tables byte-identical to the serial fold.
        #[test]
        fn sharded_counts_equal_the_serial_fold(
            docs in 0usize..24,
            seed in any::<u64>(),
            workers in 1usize..32,
            order in 2usize..6,
            max_seq_len in 8usize..256,
        ) {
            let corpus = corpus(docs, seed);
            let tokenizer = HdlTokenizer::fit(&corpus);
            let config = TrainConfig { order, max_seq_len };
            let sharded = sharded_counts(&tokenizer, &corpus, &config, workers);
            prop_assert_eq!(
                &sharded,
                &serial_fold(&tokenizer, &corpus, order, max_seq_len),
                "sharded counts diverged: {} docs, {} workers, order {}",
                docs, workers, order
            );
        }

        /// The reduce side: merging per-chunk tables in shard order
        /// reproduces the one-pass table for *any* contiguous split of the
        /// corpus — the associativity [`NgramCounts::merge`] is built on.
        #[test]
        fn merging_arbitrary_contiguous_splits_is_lossless(
            docs in 1usize..24,
            seed in any::<u64>(),
            chunk in 1usize..10,
            order in 2usize..6,
        ) {
            let corpus = corpus(docs, seed);
            let tokenizer = HdlTokenizer::fit(&corpus);
            let reference = serial_fold(&tokenizer, &corpus, order, 2048);
            let mut merged = NgramCounts::new(order);
            for shard in corpus.chunks(chunk) {
                merged.merge(serial_fold(&tokenizer, shard, order, 2048));
            }
            prop_assert_eq!(
                &merged, &reference,
                "merge diverged: {} docs in chunks of {}",
                docs, chunk
            );
        }

        /// End to end: the driver at any worker count, and
        /// [`NgramModel::train_named`] on the machine's, build the model the
        /// oracles assemble — same vocabulary, same counts.
        #[test]
        fn sharded_training_matches_the_longhand_model(
            docs in 0usize..16,
            seed in any::<u64>(),
            workers in 1usize..32,
            order in 2usize..6,
        ) {
            let corpus = corpus(docs, seed);
            let config = TrainConfig { order, ..Default::default() };
            let tokenizer = HdlTokenizer::fit(&corpus);
            let counts = serial_fold(&tokenizer, &corpus, order, config.max_seq_len);
            let expected = NgramModel::from_parts("m", tokenizer, counts);
            prop_assert_eq!(&train("m", &corpus, &config, workers), &expected, "workers={}", workers);
            prop_assert_eq!(&NgramModel::train_named("m", &corpus, &config), &expected);
        }
    }

    #[test]
    fn continual_pretrain_equals_the_longhand_adapter() {
        use crate::model::LanguageModel;
        use crate::AdaptedModel;

        let corpus = corpus(9, 0xADA9);
        let (base_docs, tune_docs) = corpus.split_at(3);
        let base = NgramModel::train_named("base", base_docs, &TrainConfig::default());
        let config = TrainConfig {
            order: 7,
            max_seq_len: 40,
        };
        let tuned = AdaptedModel::continual_pretrain("tuned", base.clone(), tune_docs, &config);
        let tokenizer = base.tokenizer().extended_with(tune_docs);
        let adapter = serial_fold(&tokenizer, tune_docs, 7, 40);
        assert_eq!(tuned.base(), &base);
        assert_eq!(tuned.tokenizer(), &tokenizer);
        assert_eq!(tuned.adapter_counts(), &adapter);
        // The adapter mixes in at 0.7, to the bit. (Its distributions are
        // checked against a longhand mix in `tests/properties.rs`.)
        let weight = f64::from_bits(0x3fe6_6666_6666_6666);
        for doc in tune_docs {
            let ids = tokenizer.encode_document(doc);
            for end in 1..ids.len() {
                let (context, token) = (&ids[..end], ids[end]);
                let mixed = (1.0 - weight) * base.counts().score(context, token)
                    + weight * adapter.score(context, token);
                assert_eq!(
                    tuned.log_prob(context, token).to_bits(),
                    mixed.max(crate::UNSEEN_SCORE_FLOOR).ln().to_bits()
                );
            }
        }
    }

    #[test]
    fn empty_corpus_trains_empty_counts() {
        let empty: Vec<String> = Vec::new();
        let counts = sharded_counts(
            &HdlTokenizer::fit(&empty),
            &empty,
            &TrainConfig::default(),
            8,
        );
        assert_eq!(counts.trained_tokens(), 0);
        assert_eq!(counts.context_count(), 0);
    }

    #[test]
    fn partition_covers_every_index_exactly_once() {
        let corpus = corpus(13, 7);
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
        let corpus = corpus(13, 7);
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
