//! Property-based tests over the shard-and-merge training driver: for *any*
//! corpus, shard split and worker count, the merged per-shard
//! [`NgramCounts`] — and the model built on top of them — must be
//! byte-identical to the serial fold. This is the invariant that lets
//! `hwlm::parallel` treat the worker count as a pure wall-clock knob.

use hwlm::parallel::{sharded_counts, train_model_sharded};
use hwlm::{HdlTokenizer, NgramCounts, NgramModel, TrainConfig};
use proptest::prelude::*;

/// A deterministic pseudo-random Verilog-ish corpus: `docs` small modules
/// whose shape (port mix, operator, body length) is derived from `seed`, so
/// every proptest case explores a different token distribution without any
/// ambient randomness.
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

/// The serial reference: the exact `encode → truncate → observe` fold the
/// parallel driver shards, written out longhand so the test does not depend
/// on the driver under test for its expected value.
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

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// The map side: fanning the fold out over any number of workers leaves
    /// the merged count tables byte-identical to the serial fold.
    #[test]
    fn sharded_counts_equal_the_serial_fold(
        docs in 0usize..24,
        seed in any::<u64>(),
        workers in 1usize..32,
        order in 2usize..6,
        max_seq_len in 8usize..256,
    ) {
        let corpus = corpus(docs, seed);
        let tokenizer = HdlTokenizer::fit(&corpus, 1);
        let reference = serial_fold(&tokenizer, &corpus, order, max_seq_len);
        let sharded = sharded_counts(&tokenizer, &corpus, order, max_seq_len, workers);
        prop_assert_eq!(
            &sharded, &reference,
            "sharded counts diverged: {} docs, {} workers, order {}",
            docs, workers, order
        );
    }

    /// The reduce side: merging per-chunk tables in shard order reproduces
    /// the one-pass table for *any* contiguous split of the corpus — the
    /// associativity [`NgramCounts::merge`] is built on.
    #[test]
    fn merging_arbitrary_contiguous_splits_is_lossless(
        docs in 1usize..24,
        seed in any::<u64>(),
        chunk in 1usize..10,
        order in 2usize..6,
    ) {
        let corpus = corpus(docs, seed);
        let tokenizer = HdlTokenizer::fit(&corpus, 1);
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

    /// End to end: the sharded trainer produces a model equal to
    /// [`NgramModel::train_named`] — same vocabulary, same counts — for any
    /// worker count.
    #[test]
    fn sharded_training_matches_serial_training(
        docs in 0usize..16,
        seed in any::<u64>(),
        workers in 1usize..32,
        order in 2usize..6,
    ) {
        let corpus = corpus(docs, seed);
        let config = TrainConfig { order, ..Default::default() };
        let serial = NgramModel::train_named("m", &corpus, &config);
        let sharded = train_model_sharded("m", &corpus, &config, workers);
        prop_assert_eq!(&sharded, &serial, "model diverged at workers={}", workers);
    }
}
