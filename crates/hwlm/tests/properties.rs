//! Property-based tests for the language-model substrate.

use std::collections::{BTreeMap, HashMap};

use proptest::prelude::*;
use proptest::TestCaseError;

use hwlm::tokenizer::{BOS, EOS};
use hwlm::{
    AdaptedModel, Distribution, HdlTokenizer, LanguageModel, NgramCounts, NgramModel,
    QuantizedModel, SamplerConfig, TokenId, TrainConfig, Vocabulary, UNSEEN_SCORE_FLOOR,
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

    /// The raw count weights of the longest observed suffix of `context`.
    fn weights(&self, context: &[TokenId]) -> Vec<(TokenId, f64)> {
        self.suffixes(context)
            .flatten()
            .next()
            .map(|next| next.iter().map(|(&t, &c)| (t, c as f64)).collect())
            .unwrap_or_default()
    }

    fn distribution(&self, context: &[TokenId]) -> Distribution {
        Distribution::from_weights(self.weights(context))
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

/// A distribution as a plain entry list, so the longhand sampling chain
/// below shares no code with [`Distribution`].
type Entries = Vec<(TokenId, f64)>;

/// `Distribution::from_weights` written out longhand, as a fresh vector.
fn longhand_from_weights(mut entries: Entries) -> Entries {
    entries.retain(|(_, w)| *w > 0.0);
    let total: f64 = entries.iter().map(|(_, w)| w).sum();
    if total > 0.0 {
        for (_, w) in &mut entries {
            *w /= total;
        }
    }
    entries.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
    entries
}

/// A longhand mix, `(1 - weight) * base + weight * other`,
/// summed per token with the base term first and normalised in ascending
/// token order.
fn longhand_mix(base: &Entries, other: &Entries, weight: f64) -> Entries {
    let weight = weight.clamp(0.0, 1.0);
    let mut terms: Entries = base
        .iter()
        .map(|&(t, p)| (t, (1.0 - weight) * p))
        .chain(other.iter().map(|&(t, p)| (t, weight * p)))
        .collect();
    terms.sort_by_key(|&(t, _)| t);
    let mut weights: Entries = Vec::with_capacity(terms.len());
    for (t, w) in terms {
        match weights.last_mut() {
            Some((last, sum)) if *last == t => *sum += w,
            _ => weights.push((t, w)),
        }
    }
    longhand_from_weights(weights)
}

/// `Distribution::with_temperature` written out longhand.
fn longhand_temperature(entries: &Entries, temperature: f64) -> Entries {
    let Some(&(argmax, _)) = entries.first() else {
        return Vec::new();
    };
    if temperature <= f64::EPSILON {
        return vec![(argmax, 1.0)];
    }
    let reweighted = longhand_from_weights(
        entries
            .iter()
            .map(|&(t, p)| (t, p.powf(1.0 / temperature)))
            .collect(),
    );
    if reweighted.is_empty() {
        vec![(argmax, 1.0)]
    } else {
        reweighted
    }
}

/// `Distribution::sample` written out longhand.
fn longhand_sample(entries: &Entries, rng: &mut ChaCha8Rng) -> Option<TokenId> {
    if entries.is_empty() {
        return None;
    }
    let roll: f64 = rng.gen();
    let mut acc = 0.0;
    for (t, p) in entries {
        acc += p;
        if roll < acc {
            return Some(*t);
        }
    }
    entries.last().map(|(t, _)| *t)
}

/// `QuantizedModel`'s quantisation written out longhand: snap, then
/// renormalise, or keep the input if every probability rounds to zero.
fn longhand_quantize(entries: &Entries, bits: u32) -> Entries {
    let levels = (1u32 << bits) - 1;
    let quantized = longhand_from_weights(
        entries
            .iter()
            .map(|(t, p)| (*t, (p * f64::from(levels)).round() / f64::from(levels)))
            .collect(),
    );
    if quantized.is_empty() {
        entries.clone()
    } else {
        quantized
    }
}

/// One of the models under test, written out longhand: stupid-backoff
/// tables keyed by tokens, the longhand mix at the adapter's 0.7, and
/// optionally the longhand quantisation.
struct LonghandModel<'a> {
    base: &'a LonghandBackoff,
    adapter: Option<&'a LonghandBackoff>,
    bits: Option<u32>,
}

impl LonghandModel<'_> {
    fn distribution(&self, context: &[TokenId]) -> Entries {
        let base = longhand_from_weights(self.base.weights(context));
        let mixed = match self.adapter {
            None => base,
            Some(adapter) => {
                let adapted = longhand_from_weights(adapter.weights(context));
                if adapted.is_empty() {
                    base
                } else if base.is_empty() {
                    adapted
                } else {
                    longhand_mix(&base, &adapted, 0.7)
                }
            }
        };
        match self.bits {
            Some(bits) => longhand_quantize(&mixed, bits),
            None => mixed,
        }
    }

    /// `generate_ids` written out longhand: distribution, temperature and
    /// draw, each in a fresh vector.
    fn generate_ids(
        &self,
        prompt: &[TokenId],
        max_new_tokens: usize,
        temperature: f64,
        rng: &mut ChaCha8Rng,
        stop_token: Option<TokenId>,
    ) -> Vec<TokenId> {
        let mut context = prompt.to_vec();
        let mut generated = Vec::new();
        for _ in 0..max_new_tokens {
            let shaped = longhand_temperature(&self.distribution(&context), temperature);
            let Some(next) = longhand_sample(&shaped, rng) else {
                break;
            };
            if next == EOS {
                break;
            }
            generated.push(next);
            context.push(next);
            if Some(next) == stop_token {
                break;
            }
        }
        generated
    }
}

/// The reference splitter: a walk over the text's `Vec<char>`
/// that allocates a `String` per token.
fn char_walk_split(text: &str) -> Vec<String> {
    const MULTI_CHAR_OPERATORS: &[&str] = &[
        "<<<", ">>>", "===", "!==", "<=", ">=", "==", "!=", "<<", ">>", "&&", "||", "~^", "^~",
        "~&", "~|", "**", "+:", "-:",
    ];
    let mut out = Vec::new();
    let chars: Vec<char> = text.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            out.push("<nl>".to_string());
            i += 1;
        } else if c.is_whitespace() {
            i += 1;
        } else if c.is_ascii_alphabetic() || c == '_' || c == '$' || c == '`' {
            let start = i;
            i += 1;
            while i < chars.len()
                && (chars[i].is_ascii_alphanumeric() || chars[i] == '_' || chars[i] == '$')
            {
                i += 1;
            }
            out.push(chars[start..i].iter().collect());
        } else if c.is_ascii_digit()
            || (c == '\'' && i + 1 < chars.len() && chars[i + 1].is_ascii_alphanumeric())
        {
            let start = i;
            i += 1;
            while i < chars.len()
                && (chars[i].is_ascii_alphanumeric()
                    || chars[i] == '\''
                    || chars[i] == '_'
                    || chars[i] == '.')
            {
                i += 1;
            }
            out.push(chars[start..i].iter().collect());
        } else {
            let rest: String = chars[i..chars.len().min(i + 3)].iter().collect();
            if let Some(op) = MULTI_CHAR_OPERATORS.iter().find(|op| rest.starts_with(*op)) {
                out.push((*op).to_string());
                i += op.len();
            } else {
                out.push(c.to_string());
                i += 1;
            }
        }
    }
    out
}

/// `doc` as a training sequence: BOS, the reference splitter's tokens looked up
/// in `vocab`, EOS, truncated to `max_seq_len` as training truncates.
fn longhand_document(vocab: &Vocabulary, doc: &str, max_seq_len: usize) -> Vec<TokenId> {
    let mut ids = vec![BOS];
    ids.extend(char_walk_split(doc).iter().map(|t| vocab.id(t)));
    ids.push(EOS);
    ids.truncate(max_seq_len.max(2));
    ids
}

/// Pieces of source text for the tokenizer oracle: identifier and number
/// fragments, every operator and its prefixes, ASCII and Unicode
/// whitespace (NBSP, U+2028, vertical tab), non-ASCII letters (`é`, `İ`,
/// whose lowercase is longer), an emoji and a lone quote.
const TEXT_PIECES: &[&str] = &[
    "a",
    "Zq",
    "_",
    "$",
    "`",
    "0",
    "9",
    "'",
    "'b",
    "'h1f",
    ".",
    "_x",
    "4'b10_1",
    "3.5",
    " ",
    "\t",
    "\n",
    "\r",
    "\u{b}",
    "\u{c}",
    "\u{a0}",
    "\u{2028}",
    "\u{3000}",
    "\u{e9}",
    "\u{130}",
    "\u{1f600}",
    "<",
    "<<",
    "<<<",
    ">",
    ">>",
    ">>>",
    "=",
    "==",
    "===",
    "!",
    "!=",
    "!==",
    "~",
    "^",
    "&",
    "&&",
    "|",
    "||",
    "*",
    "**",
    "+",
    "-",
    ":",
    ";",
    "(",
    ")",
    "[",
    "]",
    "{",
    "}",
    "@",
    "#",
    ",",
    "?",
    "\\",
    "\"",
    "/",
    "%",
];

/// Text drawn from [`TEXT_PIECES`] and arbitrary Unicode scalar values.
fn unicode_text() -> impl Strategy<Value = String> {
    let piece = prop_oneof![
        (0..TEXT_PIECES.len()).prop_map(|i| TEXT_PIECES[i].to_string()),
        (0..TEXT_PIECES.len()).prop_map(|i| TEXT_PIECES[i].to_string()),
        any::<u32>().prop_map(|n| char::from_u32(n % 0x11_0000)
            .unwrap_or('\u{fffd}')
            .to_string()),
    ];
    proptest::collection::vec(piece, 0..48).prop_map(|pieces| pieces.concat())
}

/// A random Verilog-ish document over a small word list, so contexts
/// repeat and branch.
fn random_document(rng: &mut ChaCha8Rng) -> String {
    const WORDS: &[&str] = &[
        "module",
        "m",
        "(",
        "input",
        "a",
        ",",
        "b",
        ")",
        ";",
        "assign",
        "y",
        "=",
        "&",
        "|",
        "~",
        "\n",
        "endmodule",
        "<=",
        "4'b1010",
        "always",
        "@",
        "posedge",
        "clk",
        "q",
        "d",
        "begin",
        "end",
    ];
    let len = rng.gen_range(0..120);
    let words: Vec<&str> = (0..len)
        .map(|_| WORDS[rng.gen_range(0..WORDS.len())])
        .collect();
    words.join(" ")
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

/// Weights from everyday ones to values near `f64::MAX` (whose sum
/// overflows) and non-finite or negative ones.
fn weight() -> impl Strategy<Value = f64> {
    prop_oneof![
        0.0f64..10.0,
        0.0f64..10.0,
        (0.25f64..1.0).prop_map(|fraction| fraction * f64::MAX),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(f64::NAN),
        Just(-1.0),
    ]
}

proptest! {
    #[test]
    fn distributions_are_normalised(weights in proptest::collection::vec((0u32..500, weight()), 1..30)) {
        let finite = weights.iter().filter(|(_, w)| *w > 0.0 && w.is_finite()).count();
        let d = Distribution::from_weights(weights.into_iter().collect());
        prop_assert!(d.entries().len() <= finite);
        if !d.is_empty() {
            let sum: f64 = d.entries().iter().map(|(_, p)| p).sum();
            prop_assert!((sum - 1.0).abs() < 1e-9, "sum {}: {:?}", sum, d.entries());
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

    /// The slice scan splits and encodes exactly as the reference `char` walk,
    /// over Unicode whitespace, non-ASCII letters, emoji, lone quotes and
    /// operators cut off at the end of the input.
    #[test]
    fn tokenizer_matches_the_char_walk_splitter(text in unicode_text(), vocab_text in unicode_text()) {
        let expected = char_walk_split(&text);
        prop_assert_eq!(&HdlTokenizer::split(&text), &expected, "text {:?}", text);
        let tokenizer = HdlTokenizer::fit(&[vocab_text, text.clone()]);
        let ids: Vec<TokenId> = expected.iter().map(|t| tokenizer.vocab().id(t)).collect();
        prop_assert_eq!(tokenizer.encode(&text), ids);
        for cut in (0..=text.len()).filter(|&i| text.is_char_boundary(i)) {
            prop_assert_eq!(HdlTokenizer::split(&text[..cut]), char_walk_split(&text[..cut]));
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

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Sampling in one reused buffer draws what the allocating chain
    /// draws (`distribution → mix → with_temperature → sample`, written out
    /// longhand above): the same tokens, and the same RNG state afterwards,
    /// for the base model, the adapted model and both quantised, at every
    /// temperature the sampler treats specially, for prompts shorter and
    /// longer than the order. Each prompt's predictive distribution must
    /// match the longhand one bit for bit, too.
    #[test]
    fn generation_matches_the_longhand_sampling_chain(
        seed in any::<u64>(),
        base_order in 1usize..=8,
        adapter_order in 1usize..=20,
        max_seq_len in 8usize..160,
        bits in 1u32..=8,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let base_docs: Vec<String> = (0..rng.gen_range(1..6)).map(|_| random_document(&mut rng)).collect();
        let tune_docs: Vec<String> = (0..rng.gen_range(0..6)).map(|_| random_document(&mut rng)).collect();
        let base_config = TrainConfig { order: base_order, max_seq_len };
        let tune_config = TrainConfig { order: adapter_order, max_seq_len };
        let base = NgramModel::train(&base_docs, &base_config);
        let tuned = AdaptedModel::continual_pretrain("tuned", base.clone(), &tune_docs, &tune_config);

        let train = |order: usize, vocab: &Vocabulary, docs: &[String]| {
            let sequences: Vec<Vec<TokenId>> = docs
                .iter()
                .map(|doc| longhand_document(vocab, doc, max_seq_len))
                .collect();
            LonghandBackoff::train(order, &sequences)
        };
        let base_tables = train(base_order, base.tokenizer().vocab(), &base_docs);
        let adapter_tables = train(adapter_order, tuned.tokenizer().vocab(), &tune_docs);
        let longhand = |adapter: bool, bits: Option<u32>| LonghandModel {
            base: &base_tables,
            adapter: adapter.then_some(&adapter_tables),
            bits,
        };
        let quantized_base = QuantizedModel::new(&base, bits);
        let quantized_tuned = QuantizedModel::new(&tuned, bits);

        let vocab_len = tuned.tokenizer().vocab().len() as TokenId;
        let stop = Some(tuned.tokenizer().vocab().id("endmodule")).filter(|_| rng.gen_bool(0.5));
        for _ in 0..3 {
            let prompt_len = rng.gen_range(0..=2 * adapter_order.max(base_order) + 2);
            let prompt: Vec<TokenId> = (0..prompt_len).map(|_| rng.gen_range(0..vocab_len + 2)).collect();
            for temperature in [0.0, 1e-4, f64::NAN, 0.2, 0.8, 1.0, 4.0] {
                let draw = Draw { prompt: &prompt, temperature, seed: rng.gen(), stop };
                draw.check(&base, &longhand(false, None))?;
                draw.check(&tuned, &longhand(true, None))?;
                draw.check(&quantized_base, &longhand(false, Some(bits)))?;
                draw.check(&quantized_tuned, &longhand(true, Some(bits)))?;
            }
        }
    }
}

/// One generation request of the sampler oracle.
struct Draw<'a> {
    prompt: &'a [TokenId],
    temperature: f64,
    seed: u64,
    stop: Option<TokenId>,
}

impl Draw<'_> {
    /// Generates up to 40 tokens from `model` and from `longhand` with
    /// equally seeded RNGs, and compares the tokens, the RNGs' next draws
    /// and the two distributions after the prompt.
    fn check<M: LanguageModel>(
        &self,
        model: &M,
        longhand: &LonghandModel,
    ) -> Result<(), TestCaseError> {
        let (mut fast, mut slow) = (
            ChaCha8Rng::seed_from_u64(self.seed),
            ChaCha8Rng::seed_from_u64(self.seed),
        );
        let sampler = SamplerConfig::with_temperature(self.temperature);
        let ids = model.generate_ids(self.prompt, 40, &sampler, &mut fast, self.stop);
        let expected =
            longhand.generate_ids(self.prompt, 40, self.temperature, &mut slow, self.stop);
        let name = model.name();
        prop_assert_eq!(
            &ids,
            &expected,
            "{} at T = {}, prompt {:?}",
            name,
            self.temperature,
            self.prompt
        );
        prop_assert_eq!(
            fast.gen::<u64>(),
            slow.gen::<u64>(),
            "{} at T = {}",
            name,
            self.temperature
        );
        let bits = |entries: &[(TokenId, f64)]| -> Vec<(TokenId, u64)> {
            entries.iter().map(|&(t, p)| (t, p.to_bits())).collect()
        };
        prop_assert_eq!(
            bits(model.distribution(self.prompt).entries()),
            bits(&longhand.distribution(self.prompt)),
            "{}, prompt {:?}",
            name,
            self.prompt
        );
        Ok(())
    }
}

/// The adapted model's distributions are the longhand mix of its base's
/// and its adapter's at 0.7, to the bit, and repeat bit for bit. (The mix
/// sums in token order, so it does not depend on hash-map order.)
#[test]
fn adapted_distributions_are_the_longhand_mix() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xADA9);
    let base_docs: Vec<String> = (0..4).map(|_| random_document(&mut rng)).collect();
    let tune_docs: Vec<String> = (0..4).map(|_| random_document(&mut rng)).collect();
    let base = NgramModel::train(&base_docs, &TrainConfig::default());
    let config = TrainConfig {
        order: 9,
        max_seq_len: 2048,
    };
    let tuned = AdaptedModel::continual_pretrain("tuned", base.clone(), &tune_docs, &config);
    let mut mixed_contexts = 0;
    for doc in &tune_docs {
        let ids = tuned.tokenizer().encode_document(doc);
        for end in 0..ids.len() {
            let context = &ids[..end];
            let base_dist = base.counts().distribution(context);
            let adapted = tuned.adapter_counts().distribution(context);
            let expected = if adapted.is_empty() {
                base_dist.entries().to_vec()
            } else if base_dist.is_empty() {
                adapted.entries().to_vec()
            } else {
                mixed_contexts += 1;
                longhand_mix(
                    &base_dist.entries().to_vec(),
                    &adapted.entries().to_vec(),
                    0.7,
                )
            };
            let actual = tuned.distribution(context);
            assert_eq!(actual.entries(), &expected[..], "context {context:?}");
            for _ in 0..3 {
                assert_eq!(tuned.distribution(context), actual);
            }
        }
    }
    assert!(mixed_contexts > 50, "only {mixed_contexts} mixed contexts");
}
