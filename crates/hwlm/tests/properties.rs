//! Property-based tests for the language-model substrate.

use std::collections::{BTreeMap, HashMap};

use proptest::prelude::*;

use hwlm::{
    Distribution, HdlTokenizer, LanguageModel, NgramCounts, NgramModel, SamplerConfig, TokenId,
    TrainConfig, UNSEEN_SCORE_FLOOR,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Stupid backoff written out longhand over tables keyed by the context
/// tokens themselves (oldest first), so it shares neither fingerprints nor
/// hashing with [`NgramCounts`].
struct LonghandBackoff {
    order: usize,
    tables: HashMap<Vec<TokenId>, BTreeMap<TokenId, u64>>,
}

impl LonghandBackoff {
    fn train(order: usize, sequences: &[Vec<TokenId>]) -> Self {
        let mut tables: HashMap<Vec<TokenId>, BTreeMap<TokenId, u64>> = HashMap::new();
        for ids in sequences {
            for pos in 0..ids.len() {
                for len in 0..order.min(pos + 1) {
                    let next = tables.entry(ids[pos - len..pos].to_vec()).or_default();
                    *next.entry(ids[pos]).or_insert(0) += 1;
                }
            }
        }
        Self { order, tables }
    }

    /// The observed continuations of each suffix of `context`, longest
    /// suffix first.
    fn suffixes<'a>(
        &'a self,
        context: &'a [TokenId],
    ) -> impl Iterator<Item = Option<&'a BTreeMap<TokenId, u64>>> + 'a {
        (0..self.order.min(context.len() + 1))
            .rev()
            .map(move |len| self.tables.get(&context[context.len() - len..]))
    }

    fn distribution(&self, context: &[TokenId]) -> Distribution {
        self.suffixes(context)
            .flatten()
            .next()
            .map(|next| {
                Distribution::from_weights(next.iter().map(|(&t, &c)| (t, c as f64)).collect())
            })
            .unwrap_or_default()
    }

    fn score(&self, context: &[TokenId], token: TokenId) -> f64 {
        let mut discount = 1.0;
        for next in self.suffixes(context) {
            if let Some(&count) = next.and_then(|next| next.get(&token)) {
                let total: u64 = next.into_iter().flat_map(BTreeMap::values).sum();
                return discount * count as f64 / total as f64;
            }
            discount *= 0.4;
        }
        UNSEEN_SCORE_FLOOR
    }
}

/// `count` sequences over a small alphabet, so contexts repeat.
fn token_sequences(rng: &mut ChaCha8Rng, count: usize, max_len: usize) -> Vec<Vec<TokenId>> {
    (0..count)
        .map(|_| {
            let len = rng.gen_range(0..=max_len);
            (0..len).map(|_| rng.gen_range(0..6)).collect()
        })
        .collect()
}

fn verilog_ish_doc() -> impl Strategy<Value = String> {
    let stmt = prop_oneof![
        Just("assign y = a & b;".to_string()),
        Just("assign y = a | b;".to_string()),
        Just("always @(posedge clk) q <= d;".to_string()),
        Just("wire [7:0] bus;".to_string()),
        Just("if (rst) q <= 0;".to_string()),
        "[a-z]{2,6} = [a-z]{2,6} \\+ [0-9]{1,2};",
    ];
    proptest::collection::vec(stmt, 1..12).prop_map(|stmts| {
        format!(
            "module gen(input clk, input a, input b, output y);\n{}\nendmodule",
            stmts.join("\n")
        )
    })
}

proptest! {
    #[test]
    fn distributions_are_normalised(weights in proptest::collection::vec((0u32..500, 0.0f64..10.0), 1..30)) {
        let d = Distribution::from_weights(weights.into_iter().collect());
        if !d.is_empty() {
            let sum: f64 = d.entries().iter().map(|(_, p)| p).sum();
            prop_assert!((sum - 1.0).abs() < 1e-9);
            for (_, p) in d.entries() {
                prop_assert!(*p > 0.0 && *p <= 1.0 + 1e-12);
            }
        }
    }

    #[test]
    fn temperature_preserves_normalisation(
        weights in proptest::collection::vec((0u32..100, 0.01f64..10.0), 2..20),
        temperature in prop_oneof![0.0f64..4.0, 1e-6f64..1e-3],
    ) {
        let d = Distribution::from_weights(weights);
        let shaped = SamplerConfig::with_temperature(temperature).shape(&d);
        let sum: f64 = shaped.entries().iter().map(|(_, p)| p).sum();
        prop_assert!((sum - 1.0).abs() < 1e-9, "T = {}: sum {}", temperature, sum);
    }

    #[test]
    fn sampling_stays_inside_the_support(
        weights in proptest::collection::vec((0u32..50, 0.01f64..5.0), 1..15),
        seed in any::<u64>(),
    ) {
        let d = Distribution::from_weights(weights);
        let support: std::collections::HashSet<u32> = d.entries().iter().map(|(t, _)| *t).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for _ in 0..20 {
            if let Some(token) = d.sample(&mut rng) {
                prop_assert!(support.contains(&token));
            }
        }
    }

    #[test]
    fn tokenizer_split_and_fit_are_stable(doc in verilog_ish_doc()) {
        let a = HdlTokenizer::split(&doc);
        let b = HdlTokenizer::split(&doc);
        prop_assert_eq!(&a, &b);
        let tok = HdlTokenizer::fit(std::slice::from_ref(&doc));
        // Every token of the fitting document is in vocabulary.
        for t in &a {
            prop_assert_ne!(tok.vocab().id(t), 0, "token {} missing", t);
        }
    }

    #[test]
    fn generation_respects_token_budget_and_stops_at_endmodule(
        docs in proptest::collection::vec(verilog_ish_doc(), 2..6),
        budget in 1usize..120,
        seed in any::<u64>(),
    ) {
        let model = NgramModel::train(&docs, &TrainConfig::default());
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let prompt = "module gen(input clk, input a, input b, output y);";
        let prompt_len = model.tokenizer().encode(prompt).len();
        let mut ids = vec![1u32]; // BOS
        ids.extend(model.tokenizer().encode(prompt));
        let generated = model.generate_ids(
            &ids,
            budget,
            &SamplerConfig::with_temperature(0.8),
            &mut rng,
            Some(model.tokenizer().vocab().id("endmodule")),
        );
        prop_assert!(generated.len() <= budget);
        let text = model.tokenizer().decode(&generated);
        prop_assert!(text.matches("endmodule").count() <= 1);
        prop_assert!(prompt_len > 0);
    }

    /// Fingerprinted, hashed count tables answer every query the longhand
    /// tables do: the same distribution entries and the same score bits, at
    /// every order, for contexts longer and shorter than the order, and for
    /// tokens never observed.
    #[test]
    fn ngram_counts_match_the_longhand_backoff(seed in any::<u64>(), order in 1usize..=20) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let documents = rng.gen_range(1..8);
        let sequences = token_sequences(&mut rng, documents, 60);
        let mut counts = NgramCounts::new(order);
        for ids in &sequences {
            counts.observe_sequence(ids);
        }
        let longhand = LonghandBackoff::train(order, &sequences);
        let mut contexts = token_sequences(&mut rng, 24, 25);
        contexts.extend(sequences.iter().map(|ids| ids[..ids.len() / 2].to_vec()));
        for context in &contexts {
            prop_assert_eq!(
                counts.distribution(context),
                longhand.distribution(context),
                "order {}, context {:?}", order, context
            );
            for token in 0..8 {
                prop_assert_eq!(
                    counts.score(context, token).to_bits(),
                    longhand.score(context, token).to_bits(),
                    "order {}, context {:?}, token {}", order, context, token
                );
            }
        }
    }

    #[test]
    fn training_is_deterministic(docs in proptest::collection::vec(verilog_ish_doc(), 1..5)) {
        let a = NgramModel::train(&docs, &TrainConfig::default());
        let b = NgramModel::train(&docs, &TrainConfig::default());
        prop_assert_eq!(a, b);
    }
}
