//! The [`LanguageModel`] trait, predictive distributions and training
//! configuration.

use std::cmp::Ordering;

use rand::Rng;

use crate::sampler::SamplerConfig;
use crate::tokenizer::{HdlTokenizer, TokenId, EOS};

/// A sparse predictive distribution over next tokens.
///
/// Entries are `(token, probability)` pairs, most probable first (ties by
/// ascending token id); probabilities sum to 1 (or the distribution is empty
/// when the model has no information at all).
///
/// Generation keeps one `Distribution` for a whole sequence (see
/// [`LanguageModel`]): a model writes each prediction into it,
/// [`Distribution::apply_temperature`] reshapes it in place and
/// [`Distribution::sample`] draws from it. The in-place methods and the
/// allocating ones ([`Distribution::from_weights`],
/// [`Distribution::with_temperature`]) normalise through the same code, so
/// their floats agree bit for bit. The canonical order is restored by a
/// sort only where a linear scan finds it broken; a sort moves entries but
/// changes no float.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Distribution {
    entries: Vec<(TokenId, f64)>,
}

/// The canonical entry order: descending probability, then ascending token.
/// Normalised probabilities are never NaN, so the total order agrees with
/// the numeric one.
fn canonical_order(a: &(TokenId, f64), b: &(TokenId, f64)) -> Ordering {
    b.1.total_cmp(&a.1).then(a.0.cmp(&b.0))
}

impl Distribution {
    /// Builds a distribution from raw non-negative weights, normalising them.
    ///
    /// Weights that are zero, negative or not finite (NaN or ±∞) carry no
    /// usable mass and are dropped. The rest are divided by their sum, added
    /// in the order given; when that sum overflows to ∞ (weights near
    /// `f64::MAX`), every weight is first divided by the largest one, so a
    /// non-empty result always sums to 1 (to rounding). No input panics.
    pub fn from_weights(entries: Vec<(TokenId, f64)>) -> Self {
        let mut distribution = Self { entries };
        distribution.normalise();
        distribution
    }

    /// The `(token, probability)` entries, most probable first.
    pub fn entries(&self) -> &[(TokenId, f64)] {
        &self.entries
    }

    /// Whether the distribution carries no information.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The probability assigned to `token` (0 when absent).
    pub fn probability(&self, token: TokenId) -> f64 {
        self.entries
            .iter()
            .find(|(t, _)| *t == token)
            .map(|(_, p)| *p)
            .unwrap_or(0.0)
    }

    /// The most probable token, if any.
    pub fn argmax(&self) -> Option<TokenId> {
        self.entries.first().map(|(t, _)| *t)
    }

    /// Returns a copy with the given softmax temperature applied; see
    /// [`Distribution::apply_temperature`].
    pub fn with_temperature(&self, temperature: f64) -> Distribution {
        let mut shaped = self.clone();
        shaped.apply_temperature(temperature);
        shaped
    }

    /// Applies the given softmax temperature in place (`p_i ∝ p_i^(1/T)`).
    /// Temperature 0 is greedy: the argmax keeps all mass. So is any
    /// temperature at which every reweighted entry underflows to 0 (a small
    /// positive `T`, or `NaN`), instead of leaving nothing to sample.
    ///
    /// A single entry of probability 1, the common case for a memorised
    /// context, is left as it is: `1^(1/T)` is 1 for every `T`.
    pub fn apply_temperature(&mut self, temperature: f64) {
        let Some(&(argmax, _)) = self.entries.first() else {
            return;
        };
        if matches!(self.entries[..], [(_, p)] if p == 1.0) {
            return;
        }
        if temperature <= f64::EPSILON {
            self.entries.clear();
        } else {
            let exponent = 1.0 / temperature;
            self.reweight(|p| p.powf(exponent));
        }
        if self.entries.is_empty() {
            self.entries.push((argmax, 1.0));
        }
    }

    /// Samples a token according to the distribution.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> Option<TokenId> {
        if self.entries.is_empty() {
            return None;
        }
        let roll: f64 = rng.gen();
        let mut acc = 0.0;
        for (t, p) in &self.entries {
            acc += p;
            if roll < acc {
                return Some(*t);
            }
        }
        self.entries.last().map(|(t, _)| *t)
    }

    /// Replaces the entries with probabilities that are already normalised,
    /// in any order, and puts them in the canonical order.
    pub(crate) fn set_normalised(&mut self, entries: impl IntoIterator<Item = (TokenId, f64)>) {
        self.entries.clear();
        self.entries.extend(entries);
        self.sort();
    }

    /// Replaces the entries with raw weights and normalises them as
    /// [`Distribution::from_weights`] does, summing them in ascending token
    /// order whatever order they come in. Tokens must be distinct.
    pub(crate) fn set_weights_by_token(
        &mut self,
        weights: impl IntoIterator<Item = (TokenId, f64)>,
    ) {
        self.entries.clear();
        self.entries.extend(weights);
        self.entries.sort_unstable_by_key(|&(t, _)| t);
        self.normalise();
    }

    /// Maps every probability through `f` and normalises the results in the
    /// current entry order, as [`Distribution::from_weights`] would.
    pub(crate) fn reweight(&mut self, f: impl Fn(f64) -> f64) {
        for (_, p) in &mut self.entries {
            *p = f(*p);
        }
        self.normalise();
    }

    /// The normalisation behind [`Distribution::from_weights`]: drop the
    /// weights that carry no mass, divide the rest by their sum, then sort.
    fn normalise(&mut self) {
        self.entries.retain(|&(_, w)| w > 0.0 && w.is_finite());
        let mut total: f64 = self.entries.iter().map(|&(_, w)| w).sum();
        if total.is_infinite() {
            let largest = self
                .entries
                .iter()
                .fold(0.0, |max: f64, &(_, w)| max.max(w));
            for (_, w) in &mut self.entries {
                *w /= largest;
            }
            self.entries.retain(|&(_, w)| w > 0.0);
            total = self.entries.iter().map(|&(_, w)| w).sum();
        }
        for (_, w) in &mut self.entries {
            *w /= total;
        }
        self.sort();
    }

    /// Puts the entries in the canonical order. A linear scan first, since
    /// a monotone reweighting (a temperature) can break the order only
    /// where two probabilities become equal, which is rare.
    fn sort(&mut self) {
        if !self
            .entries
            .is_sorted_by(|a, b| canonical_order(a, b) != Ordering::Greater)
        {
            self.entries.sort_unstable_by(canonical_order);
        }
    }
}

/// Training settings, shared by base training
/// ([`crate::NgramModel::train_named`]) and continual pre-training
/// ([`crate::AdaptedModel::continual_pretrain`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// n-gram order (context length + 1).
    pub order: usize,
    /// Maximum number of tokens taken from each training document (the
    /// max-sequence-length analogue; the paper trains with 2 048).
    pub max_seq_len: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            order: 6,
            max_seq_len: 2048,
        }
    }
}

/// A language model over HDL token sequences.
///
/// Only [`LanguageModel::distribution_into`] and the accessors are required;
/// generation and scoring are provided.
///
/// Generation allocates per sequence, not per token:
/// [`LanguageModel::generate_ids`] keeps one [`Distribution`] for the whole
/// sequence, and each step refills it with the model's prediction
/// ([`LanguageModel::distribution_into`]), tempers it in place
/// ([`Distribution::apply_temperature`]) and draws one uniform `f64` from
/// it. The tokens, and the RNG state after them, are bit-identical to the
/// allocating chain [`LanguageModel::distribution`] →
/// [`Distribution::with_temperature`] → [`Distribution::sample`], since
/// both normalise through the same code.
///
/// Generation also encodes per prompt, not per sample:
/// [`LanguageModel::generate_texts`] encodes a prompt once and draws its `n`
/// completions in turn from one RNG, exactly as `n`
/// [`LanguageModel::generate_text`] calls would. Samples drawn this way
/// often repeat byte for byte, so a caller that judges them (the
/// VerilogEval runner) needs to judge each distinct candidate only once.
pub trait LanguageModel {
    /// The tokeniser (and vocabulary) the model was trained with.
    fn tokenizer(&self) -> &HdlTokenizer;

    /// Writes the predictive distribution over the next token given
    /// `context` into `out`, replacing what it held and reusing its
    /// allocation. It must write what [`LanguageModel::distribution`]
    /// returns, bit for bit.
    fn distribution_into(&self, context: &[TokenId], out: &mut Distribution);

    /// Predictive distribution over the next token given `context`, in a
    /// fresh buffer.
    fn distribution(&self, context: &[TokenId]) -> Distribution {
        let mut out = Distribution::default();
        self.distribution_into(context, &mut out);
        out
    }

    /// A short human-readable name for reports.
    fn name(&self) -> &str {
        "model"
    }

    /// Log-probability (natural log) of `token` following `context`, clamped
    /// to [`crate::UNSEEN_SCORE_FLOOR`] so unseen events stay finite and
    /// score identically across every scoring path.
    fn log_prob(&self, context: &[TokenId], token: TokenId) -> f64 {
        let p = self.distribution(context).probability(token);
        p.max(crate::ngram::UNSEEN_SCORE_FLOOR).ln()
    }

    /// Generates up to `max_new_tokens` token ids continuing `prompt`.
    ///
    /// Generation stops early at the end-of-sequence token or when
    /// `stop_token` is produced (the stop token is included in the output).
    fn generate_ids<R: Rng>(
        &self,
        prompt: &[TokenId],
        max_new_tokens: usize,
        sampler: &SamplerConfig,
        rng: &mut R,
        stop_token: Option<TokenId>,
    ) -> Vec<TokenId> {
        let mut context: Vec<TokenId> = prompt.to_vec();
        let mut generated = Vec::new();
        let mut dist = Distribution::default();
        for _ in 0..max_new_tokens {
            self.distribution_into(&context, &mut dist);
            dist.apply_temperature(sampler.temperature);
            let Some(next) = dist.sample(rng) else {
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

    /// Generates text continuing `prompt`, stopping at the first
    /// `endmodule` (the paper's stopping rule) or after `max_new_tokens`.
    /// It is the `n = 1` case of [`LanguageModel::generate_texts`].
    fn generate_text<R: Rng>(
        &self,
        prompt: &str,
        max_new_tokens: usize,
        sampler: &SamplerConfig,
        rng: &mut R,
    ) -> String {
        let mut texts = self.generate_texts(prompt, 1, max_new_tokens, sampler, rng);
        texts.pop().expect("one completion requested")
    }

    /// Generates `n` texts continuing `prompt`, each as
    /// [`LanguageModel::generate_text`] would, drawn in turn from `rng`.
    ///
    /// The prompt is encoded, and the `endmodule` stop token looked up,
    /// once for all `n`. The texts, and the RNG state after them, equal
    /// those of `n` successive `generate_text` calls.
    fn generate_texts<R: Rng>(
        &self,
        prompt: &str,
        n: usize,
        max_new_tokens: usize,
        sampler: &SamplerConfig,
        rng: &mut R,
    ) -> Vec<String> {
        let tokenizer = self.tokenizer();
        let stop = {
            let id = tokenizer.vocab().id("endmodule");
            (id != crate::tokenizer::UNK).then_some(id)
        };
        let mut prompt_ids = vec![crate::tokenizer::BOS];
        prompt_ids.extend(tokenizer.ids(prompt));
        (0..n)
            .map(|_| {
                let generated = self.generate_ids(&prompt_ids, max_new_tokens, sampler, rng, stop);
                tokenizer.decode(&generated)
            })
            .collect()
    }
}

impl<M: LanguageModel + ?Sized> LanguageModel for &M {
    fn tokenizer(&self) -> &HdlTokenizer {
        (**self).tokenizer()
    }

    fn distribution_into(&self, context: &[TokenId], out: &mut Distribution) {
        (**self).distribution_into(context, out)
    }

    fn name(&self) -> &str {
        (**self).name()
    }

    fn log_prob(&self, context: &[TokenId], token: TokenId) -> f64 {
        (**self).log_prob(context, token)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn from_weights_normalises_and_sorts() {
        let d = Distribution::from_weights(vec![(5, 1.0), (7, 3.0), (9, 0.0)]);
        assert_eq!(d.entries().len(), 2);
        assert_eq!(d.argmax(), Some(7));
        assert!((d.probability(7) - 0.75).abs() < 1e-12);
        assert!((d.probability(5) - 0.25).abs() < 1e-12);
        assert_eq!(d.probability(9), 0.0);
    }

    #[test]
    fn from_weights_is_total() {
        // ∞ / ∞ used to be NaN, which panicked the sort's comparison.
        let d = Distribution::from_weights(vec![(1, f64::INFINITY), (2, 1.0)]);
        assert_eq!(d.entries(), &[(2, 1.0)]);
        // The sum of two f64::MAX used to overflow, leaving probabilities
        // of 0 that made `sample` always return the last entry.
        let d = Distribution::from_weights(vec![(1, f64::MAX), (2, f64::MAX)]);
        assert_eq!(d.entries(), &[(1, 0.5), (2, 0.5)]);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let ones = (0..400).filter(|_| d.sample(&mut rng) == Some(1)).count();
        assert!((120..280).contains(&ones), "{ones}");
        // NaN and −∞ carry no mass either.
        let none = vec![(1, f64::NAN), (2, f64::NEG_INFINITY), (3, f64::INFINITY)];
        assert!(Distribution::from_weights(none).is_empty());
    }

    #[test]
    fn a_certain_token_and_an_empty_distribution_are_temperature_fixed_points() {
        for temperature in [0.0, 1e-4, f64::NAN, 0.2, 1.0, f64::INFINITY] {
            let mut certain = Distribution::from_weights(vec![(4, 7.0)]);
            certain.apply_temperature(temperature);
            assert_eq!(certain.entries(), &[(4, 1.0)]);
            let mut empty = Distribution::default();
            empty.apply_temperature(temperature);
            assert!(empty.is_empty());
        }
        // Sampling from nothing leaves the RNG untouched.
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut twin = rng.clone();
        assert_eq!(Distribution::default().sample(&mut rng), None);
        assert_eq!(rng.gen::<u64>(), twin.gen::<u64>());
    }

    #[test]
    fn an_infinite_temperature_reorders_ties_by_token() {
        // Every p^0 is 1, so the probabilities tie and the token order
        // decides: the in-place path must re-sort, as the copy's did.
        let d = Distribution::from_weights(vec![(9, 3.0), (5, 2.0), (7, 1.0)]);
        let flat = d.with_temperature(f64::INFINITY);
        let third = 1.0 / 3.0;
        assert_eq!(flat.entries(), &[(5, third), (7, third), (9, third)]);
    }

    #[test]
    fn temperature_zero_is_greedy() {
        let d = Distribution::from_weights(vec![(1, 0.6), (2, 0.4)]);
        let g = d.with_temperature(0.0);
        assert_eq!(g.entries().len(), 1);
        assert_eq!(g.argmax(), Some(1));
    }

    #[test]
    fn high_temperature_flattens() {
        let d = Distribution::from_weights(vec![(1, 0.9), (2, 0.1)]);
        let hot = d.with_temperature(10.0);
        assert!(hot.probability(2) > d.probability(2));
        let cold = d.with_temperature(0.25);
        assert!(cold.probability(1) > d.probability(1));
    }

    #[test]
    fn vanishing_temperature_falls_back_to_the_argmax() {
        // At T = 1e-4 both 0.6^10000 and 0.4^10000 underflow to 0, and NaN
        // reweights to NaN; either used to leave an empty distribution,
        // which ends generation.
        let d = Distribution::from_weights(vec![(1, 0.4), (2, 0.6)]);
        for temperature in [1e-4, 1e-300, f64::NAN] {
            assert_eq!(d.with_temperature(temperature).entries(), &[(2, 1.0)]);
        }
        // Where any weight survives, the reweighting applies.
        let cold = d.with_temperature(0.2);
        assert_eq!(cold.entries().len(), 2);
        assert_eq!(cold.argmax(), Some(2));
        assert!(Distribution::default().with_temperature(1e-4).is_empty());
    }

    #[test]
    fn sampling_respects_probabilities() {
        let d = Distribution::from_weights(vec![(1, 0.99), (2, 0.01)]);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let ones = (0..500).filter(|_| d.sample(&mut rng) == Some(1)).count();
        assert!(ones > 450);
        assert!(Distribution::default().sample(&mut rng).is_none());
    }
}
