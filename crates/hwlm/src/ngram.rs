//! Backoff n-gram statistics and the base [`NgramModel`].

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::model::{Distribution, LanguageModel, TrainConfig};
use crate::tokenizer::{HdlTokenizer, TokenId};

/// Probability floor for events no backoff level has observed.
///
/// One constant shared by every scoring path — [`NgramCounts::score`]
/// bottoms out at this value and [`NgramModel::log_prob`] clamps to it
/// before taking the log, so an unseen token contributes exactly
/// `UNSEEN_SCORE_FLOOR.ln()` nats wherever it is scored. (The two paths
/// used to clamp at different floors, 1e-9 vs 1e-10, which made perplexity
/// and per-token scores disagree on unseen events.)
pub const UNSEEN_SCORE_FLOOR: f64 = 1e-9;

/// Hashes integer keys with one folded 64×64→128-bit multiply per integer
/// written: the low and high halves of the product are XORed, so every key
/// bit reaches the low bits the table takes its bucket index from.
///
/// The count tables' keys are context fingerprints and token ids of the
/// training corpus, not attacker-chosen strings, and the fingerprints are
/// unkeyed anyway, so SipHash's resistance to crafted collisions buys
/// nothing there. Identity hashing would be too weak: bit 0 of an FNV-1a
/// fingerprint is the XOR of bit 0 of every byte it has absorbed.
#[derive(Default)]
struct FoldHasher(u64);

impl Hasher for FoldHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        let product = u128::from(self.0 ^ n) * 0x9e37_79b9_7f4a_7c15;
        self.0 = (product as u64) ^ ((product >> 64) as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A hash map keyed through [`FoldHasher`].
type FoldMap<K, V> = HashMap<K, V, BuildHasherDefault<FoldHasher>>;

/// Counts for one observed context: `total` is the sum of the `next`
/// counts.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub(crate) struct ContextEntry {
    total: u64,
    next: FoldMap<TokenId, u64>,
}

impl ContextEntry {
    /// The probability of each continuation, `count / total`.
    ///
    /// That is the float [`Distribution::from_weights`] computes from the
    /// counts: integer counts below 2^53 sum exactly in any order, so its
    /// normalising sum is `total`.
    pub(crate) fn probabilities(&self) -> impl Iterator<Item = (TokenId, f64)> + '_ {
        let total = self.total as f64;
        self.next.iter().map(move |(&t, &c)| (t, c as f64 / total))
    }

    /// The probability of `token`, if this context was seen followed by it.
    pub(crate) fn probability(&self, token: TokenId) -> Option<f64> {
        self.next.get(&token).map(|&c| c as f64 / self.total as f64)
    }
}

/// n-gram count tables for context lengths `0..order`.
///
/// Prediction uses *stupid backoff*: the longest context with observations
/// supplies the distribution; shorter contexts are consulted (with a fixed
/// discount) only when longer ones are silent. This is the behaviour that
/// makes duplicated training spans get reproduced verbatim — the property the
/// copyright benchmark measures.
///
/// Contexts are stored by 64-bit FNV-1a fingerprint rather than by token
/// sequence, which keeps high-order tables (the orders that give the model
/// its long-range coherence) compact; fingerprint collisions are negligible
/// at the corpus sizes involved. A context is fingerprinted newest token
/// first, so extending a suffix by one older token extends its fingerprint
/// by one token: training keys a position's `order` contexts in O(order),
/// and a lookup keys every backoff suffix in one pass before probing them
/// longest first. The tables are keyed through a multiply-fold hasher
/// rather than SipHash: their keys come from the training corpus, never
/// from an adversary.
#[derive(Debug, Clone, PartialEq)]
pub struct NgramCounts {
    order: usize,
    tables: Vec<FoldMap<u64, ContextEntry>>,
    backoff: f64,
    trained_tokens: u64,
}

/// FNV-1a fingerprint of the empty context (the FNV offset basis).
const EMPTY_CONTEXT: u64 = 0xcbf2_9ce4_8422_2325;

/// Fingerprints of the suffixes of `context`, shortest (empty) first: each
/// extends the previous one by the next older token, with the four FNV-1a
/// steps of that token's bytes.
fn suffix_fingerprints(context: &[TokenId]) -> impl Iterator<Item = u64> + '_ {
    let older = context.iter().rev().scan(EMPTY_CONTEXT, |hash, token| {
        for byte in token.to_le_bytes() {
            *hash ^= u64::from(byte);
            *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Some(*hash)
    });
    std::iter::once(EMPTY_CONTEXT).chain(older)
}

/// The most suffix fingerprints [`with_suffix_keys`] keeps on the stack:
/// enough for every order up to 32. Longer keys go to the heap.
const STACK_KEYS: usize = 32;

/// Calls `f` with the fingerprints of `context`'s first `count` suffixes,
/// shortest first (fewer when `context` is shorter). A model that keys
/// several tables of different orders computes the keys once, for the
/// largest order, and hands each table its prefix.
pub(crate) fn with_suffix_keys<T>(
    context: &[TokenId],
    count: usize,
    f: impl FnOnce(&[u64]) -> T,
) -> T {
    let count = count.min(context.len() + 1);
    let mut stack = [0; STACK_KEYS];
    let mut heap = Vec::new();
    let keys = if count <= STACK_KEYS {
        &mut stack[..count]
    } else {
        heap.resize(count, 0);
        &mut heap[..]
    };
    for (slot, key) in keys.iter_mut().zip(suffix_fingerprints(context)) {
        *slot = key;
    }
    f(keys)
}

impl NgramCounts {
    /// Creates empty count tables of the given order.
    ///
    /// # Panics
    ///
    /// Panics if `order` is zero.
    pub fn new(order: usize) -> Self {
        assert!(order > 0, "n-gram order must be positive");
        Self {
            order,
            tables: vec![FoldMap::default(); order],
            backoff: 0.4,
            trained_tokens: 0,
        }
    }

    /// The n-gram order.
    pub fn order(&self) -> usize {
        self.order
    }

    /// Total number of training tokens observed.
    pub fn trained_tokens(&self) -> u64 {
        self.trained_tokens
    }

    /// Number of distinct contexts stored across all orders.
    pub fn context_count(&self) -> usize {
        self.tables.iter().map(HashMap::len).sum()
    }

    /// Accumulates counts from one token sequence.
    pub fn observe_sequence(&mut self, ids: &[TokenId]) {
        for (pos, &token) in ids.iter().enumerate() {
            self.trained_tokens += 1;
            for (table, key) in self.tables.iter_mut().zip(suffix_fingerprints(&ids[..pos])) {
                let entry = table.entry(key).or_default();
                entry.total += 1;
                *entry.next.entry(token).or_insert(0) += 1;
            }
        }
    }

    /// Merges another set of count tables into this one — the reduce step of
    /// shard-and-merge training ([`crate::parallel`]).
    ///
    /// Counts are summed per context fingerprint and continuation token, so
    /// folding per-shard counts in any grouping yields tables equal to the
    /// serial fold over the concatenated shards.
    ///
    /// # Panics
    ///
    /// Panics if the two tables have different n-gram orders.
    pub fn merge(&mut self, other: NgramCounts) {
        assert_eq!(
            self.order, other.order,
            "cannot merge n-gram counts of different orders"
        );
        self.trained_tokens += other.trained_tokens;
        for (table, other_table) in self.tables.iter_mut().zip(other.tables) {
            for (fingerprint, incoming) in other_table {
                match table.entry(fingerprint) {
                    Entry::Occupied(slot) => {
                        let entry = slot.into_mut();
                        entry.total += incoming.total;
                        for (token, count) in incoming.next {
                            *entry.next.entry(token).or_insert(0) += count;
                        }
                    }
                    Entry::Vacant(slot) => {
                        slot.insert(incoming);
                    }
                }
            }
        }
    }

    /// The entry of the longest context whose fingerprint is among `keys`
    /// (suffix fingerprints, shortest first; see [`with_suffix_keys`]),
    /// probing the tables longest first.
    pub(crate) fn longest_entry(&self, keys: &[u64]) -> Option<&ContextEntry> {
        self.tables
            .iter()
            .zip(keys)
            .rev()
            .find_map(|(table, key)| table.get(key))
    }

    /// Predictive distribution for `context` from the longest matching
    /// context, backing off to shorter ones when nothing was observed.
    pub fn distribution(&self, context: &[TokenId]) -> Distribution {
        let mut out = Distribution::default();
        self.distribution_into(context, &mut out);
        out
    }

    /// [`NgramCounts::distribution`], written into `out`.
    pub(crate) fn distribution_into(&self, context: &[TokenId], out: &mut Distribution) {
        let entry = with_suffix_keys(context, self.order, |keys| self.longest_entry(keys));
        match entry {
            Some(entry) => out.set_normalised(entry.probabilities()),
            None => out.set_normalised([]),
        }
    }

    /// Stupid-backoff score of `token` following `context` (a probability-like
    /// quantity in `(0, 1]`, not normalised across backoff levels).
    pub fn score(&self, context: &[TokenId], token: TokenId) -> f64 {
        with_suffix_keys(context, self.order, |keys| {
            let mut discount = 1.0;
            for (table, key) in self.tables.iter().zip(keys).rev() {
                if let Some(entry) = table.get(key) {
                    if let Some(count) = entry.next.get(&token) {
                        return discount * (*count as f64) / (entry.total as f64);
                    }
                }
                discount *= self.backoff;
            }
            UNSEEN_SCORE_FLOOR
        })
    }
}

/// A base n-gram language model: a tokenizer plus count tables.
///
/// # Example
///
/// ```
/// use hwlm::{LanguageModel, NgramModel, SamplerConfig, TrainConfig};
/// use rand::SeedableRng;
///
/// let corpus = vec!["module t(input a, output y); assign y = a; endmodule".to_string()];
/// let model = NgramModel::train(&corpus, &TrainConfig::default());
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
/// let out = model.generate_text("module t(input a, output y);", 24, &SamplerConfig::greedy(), &mut rng);
/// assert!(out.contains("endmodule"));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NgramModel {
    name: String,
    tokenizer: HdlTokenizer,
    counts: NgramCounts,
}

impl NgramModel {
    /// Trains a model on a corpus of documents.
    pub fn train<S: AsRef<str> + Sync>(corpus: &[S], config: &TrainConfig) -> Self {
        Self::train_named("ngram-base", corpus, config)
    }

    /// Trains a model with an explicit report name.
    ///
    /// The vocabulary fit and the n-gram fold both run sharded on the
    /// machine's available parallelism ([`crate::parallel`]); the model is
    /// the same for any worker count.
    pub fn train_named<S: AsRef<str> + Sync>(
        name: impl Into<String>,
        corpus: &[S],
        config: &TrainConfig,
    ) -> Self {
        crate::parallel::train(name, corpus, config, crate::parallel::default_workers())
    }

    /// Builds a model from a tokeniser and count tables trained with it.
    pub fn from_parts(
        name: impl Into<String>,
        tokenizer: HdlTokenizer,
        counts: NgramCounts,
    ) -> Self {
        Self {
            name: name.into(),
            tokenizer,
            counts,
        }
    }

    /// The underlying count tables.
    pub fn counts(&self) -> &NgramCounts {
        &self.counts
    }
}

impl LanguageModel for NgramModel {
    fn tokenizer(&self) -> &HdlTokenizer {
        &self.tokenizer
    }

    fn distribution_into(&self, context: &[TokenId], out: &mut Distribution) {
        self.counts.distribution_into(context, out)
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn log_prob(&self, context: &[TokenId], token: TokenId) -> f64 {
        self.counts
            .score(context, token)
            .max(UNSEEN_SCORE_FLOOR)
            .ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::SamplerConfig;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn corpus() -> Vec<String> {
        vec![
            "module and2(input a, input b, output y);\nassign y = a & b;\nendmodule".to_string(),
            "module or2(input a, input b, output y);\nassign y = a | b;\nendmodule".to_string(),
            "module xor2(input a, input b, output y);\nassign y = a ^ b;\nendmodule".to_string(),
        ]
    }

    #[test]
    fn counts_accumulate_and_report_sizes() {
        let mut counts = NgramCounts::new(3);
        counts.observe_sequence(&[1, 2, 3, 4]);
        assert_eq!(counts.order(), 3);
        assert_eq!(counts.trained_tokens(), 4);
        assert!(counts.context_count() > 4);
    }

    #[test]
    #[should_panic(expected = "order must be positive")]
    fn zero_order_is_rejected() {
        let _ = NgramCounts::new(0);
    }

    #[test]
    fn merging_shard_counts_equals_the_serial_fold() {
        let sequences: Vec<Vec<TokenId>> = vec![
            vec![1, 2, 3, 4],
            vec![2, 3, 4, 5, 6],
            vec![1, 2, 3],
            vec![9, 9, 9, 1],
        ];
        let mut serial = NgramCounts::new(3);
        for seq in &sequences {
            serial.observe_sequence(seq);
        }
        // Two uneven shards, merged in shard order.
        let mut merged = NgramCounts::new(3);
        for shard in [&sequences[..1], &sequences[1..]] {
            let mut counts = NgramCounts::new(3);
            for seq in shard {
                counts.observe_sequence(seq);
            }
            merged.merge(counts);
        }
        assert_eq!(merged, serial);
    }

    #[test]
    fn merging_into_empty_counts_is_identity() {
        let mut trained = NgramCounts::new(2);
        trained.observe_sequence(&[7, 8, 9]);
        let mut empty = NgramCounts::new(2);
        empty.merge(trained.clone());
        assert_eq!(empty, trained);
        trained.merge(NgramCounts::new(2));
        assert_eq!(empty, trained);
    }

    #[test]
    #[should_panic(expected = "different orders")]
    fn merging_mismatched_orders_panics() {
        let mut counts = NgramCounts::new(3);
        counts.merge(NgramCounts::new(2));
    }

    #[test]
    fn longest_context_dominates_prediction() {
        let mut counts = NgramCounts::new(3);
        // After [5, 6] the next token is always 7; after just [6] it is
        // usually 8.
        counts.observe_sequence(&[5, 6, 7]);
        counts.observe_sequence(&[9, 6, 8]);
        counts.observe_sequence(&[10, 6, 8]);
        let with_long_context = counts.distribution(&[5, 6]);
        assert_eq!(with_long_context.argmax(), Some(7));
        let with_short_context = counts.distribution(&[6]);
        assert_eq!(with_short_context.argmax(), Some(8));
    }

    #[test]
    fn unseen_context_backs_off_to_unigram() {
        let mut counts = NgramCounts::new(3);
        counts.observe_sequence(&[1, 2, 3]);
        let d = counts.distribution(&[42, 43]);
        assert!(!d.is_empty(), "unigram backoff should still offer tokens");
    }

    #[test]
    fn score_prefers_observed_continuations() {
        let mut counts = NgramCounts::new(3);
        counts.observe_sequence(&[1, 2, 3, 1, 2, 3]);
        assert!(counts.score(&[1, 2], 3) > counts.score(&[1, 2], 9));
        assert!(counts.score(&[1, 2], 3) > 0.9);
    }

    #[test]
    fn model_memorises_training_text_greedily() {
        let model = NgramModel::train(&corpus(), &TrainConfig::default());
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let out = model.generate_text(
            "module and2(input a, input b, output y);",
            40,
            &SamplerConfig::greedy(),
            &mut rng,
        );
        assert!(out.contains("assign y = a & b"), "got: {out}");
        assert!(out.trim_end().ends_with("endmodule"));
    }

    #[test]
    fn generation_stops_at_endmodule() {
        let model = NgramModel::train(&corpus(), &TrainConfig::default());
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let out = model.generate_text(
            "module or2(input a, input b, output y);",
            200,
            &SamplerConfig::with_temperature(0.2),
            &mut rng,
        );
        assert_eq!(out.matches("endmodule").count(), 1);
    }

    #[test]
    fn model_name_and_counts_are_accessible() {
        let model = NgramModel::train_named("freev-test", &corpus(), &TrainConfig::default());
        assert_eq!(LanguageModel::name(&model), "freev-test");
        assert!(model.counts().trained_tokens() > 0);
    }

    #[test]
    fn log_prob_is_higher_for_training_continuations() {
        let model = NgramModel::train(&corpus(), &TrainConfig::default());
        let ids = model.tokenizer().encode("assign y = a & b ;");
        let context = &ids[..3];
        let seen = ids[3];
        let unseen = model.tokenizer().vocab().id("xor2");
        assert!(model.log_prob(context, seen) > model.log_prob(context, unseen));
    }

    #[test]
    fn unseen_tokens_score_consistently_between_score_and_log_prob() {
        // Regression: `NgramCounts::score` used to floor at 1e-9 while
        // `NgramModel::log_prob` clamped at 1e-10, so the two paths
        // disagreed about how improbable an unseen token is.
        let model = NgramModel::train(&corpus(), &TrainConfig::default());
        let ids = model.tokenizer().encode("assign y = a & b ;");
        let context = &ids[..3];
        // A token id far outside anything the vocabulary assigned.
        let unseen: TokenId = 1_000_003;
        let score = model.counts().score(context, unseen);
        assert_eq!(score, UNSEEN_SCORE_FLOOR);
        assert_eq!(model.log_prob(context, unseen), score.ln());
        assert_eq!(model.log_prob(context, unseen), UNSEEN_SCORE_FLOOR.ln());
        // Seen continuations are unaffected by the floor.
        let seen = ids[3];
        assert!(model.log_prob(context, seen) > UNSEEN_SCORE_FLOOR.ln());
        assert!(
            (model.log_prob(context, seen) - model.counts().score(context, seen).ln()).abs()
                < 1e-12
        );
    }

    #[test]
    fn max_seq_len_truncates_training_documents() {
        let long_doc = vec!["a b c d e f g h i j k l m n o p".to_string()];
        let full = NgramModel::train(
            &long_doc,
            &TrainConfig {
                max_seq_len: 2048,
                ..Default::default()
            },
        );
        let truncated = NgramModel::train(
            &long_doc,
            &TrainConfig {
                max_seq_len: 4,
                ..Default::default()
            },
        );
        assert!(truncated.counts().trained_tokens() < full.counts().trained_tokens());
    }
}
