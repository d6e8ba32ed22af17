//! The [`LanguageModel`] trait, predictive distributions and training
//! configuration.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::sampler::SamplerConfig;
use crate::tokenizer::{HdlTokenizer, TokenId, EOS};

/// A sparse predictive distribution over next tokens.
///
/// Entries are `(token, probability)` pairs; probabilities sum to 1 (or the
/// distribution is empty when the model has no information at all).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct Distribution {
    entries: Vec<(TokenId, f64)>,
}

impl Distribution {
    /// Builds a distribution from raw non-negative weights, normalising them.
    pub fn from_weights(mut entries: Vec<(TokenId, f64)>) -> Self {
        entries.retain(|(_, w)| *w > 0.0);
        let total: f64 = entries.iter().map(|(_, w)| w).sum();
        if total > 0.0 {
            for (_, w) in &mut entries {
                *w /= total;
            }
        }
        // Deterministic order: by descending probability then token id.
        entries.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        Self { entries }
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

    /// Returns a copy with the given softmax temperature applied
    /// (`p_i ∝ p_i^(1/T)`). Temperature 0 is greedy: the argmax keeps all
    /// mass. So is any temperature at which every reweighted entry
    /// underflows to 0 (a small positive `T`, or `NaN`), instead of leaving
    /// nothing to sample.
    pub fn with_temperature(&self, temperature: f64) -> Distribution {
        let Some(&(argmax, _)) = self.entries.first() else {
            return Distribution::default();
        };
        let greedy = || Distribution {
            entries: vec![(argmax, 1.0)],
        };
        if temperature <= f64::EPSILON {
            return greedy();
        }
        let reweighted = Distribution::from_weights(
            self.entries
                .iter()
                .map(|&(t, p)| (t, p.powf(1.0 / temperature)))
                .collect(),
        );
        if reweighted.is_empty() {
            greedy()
        } else {
            reweighted
        }
    }

    /// Mixes two distributions: `(1 - weight) * self + weight * other`.
    pub fn mix(&self, other: &Distribution, weight: f64) -> Distribution {
        let weight = weight.clamp(0.0, 1.0);
        let mut terms: Vec<(TokenId, f64)> = self
            .entries
            .iter()
            .map(|&(t, p)| (t, (1.0 - weight) * p))
            .chain(other.entries.iter().map(|&(t, p)| (t, weight * p)))
            .collect();
        // Token order, self's term before other's (the sort is stable): the
        // normalising sum in `from_weights` then adds the same floats in the
        // same order on every call, so the probabilities repeat bit for bit.
        terms.sort_by_key(|&(t, _)| t);
        let mut weights: Vec<(TokenId, f64)> = Vec::with_capacity(terms.len());
        for (t, w) in terms {
            match weights.last_mut() {
                Some((last, sum)) if *last == t => *sum += w,
                _ => weights.push((t, w)),
            }
        }
        Distribution::from_weights(weights)
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
}

/// Training settings, shared by base training
/// ([`crate::NgramModel::train_named`]) and continual pre-training
/// ([`crate::AdaptedModel::continual_pretrain`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
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
/// Only [`LanguageModel::distribution`] and the accessors are required;
/// generation and scoring are provided.
pub trait LanguageModel {
    /// The tokeniser (and vocabulary) the model was trained with.
    fn tokenizer(&self) -> &HdlTokenizer;

    /// Predictive distribution over the next token given `context`.
    fn distribution(&self, context: &[TokenId]) -> Distribution;

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
        for _ in 0..max_new_tokens {
            let dist = sampler.shape(&self.distribution(&context));
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
    fn generate_text<R: Rng>(
        &self,
        prompt: &str,
        max_new_tokens: usize,
        sampler: &SamplerConfig,
        rng: &mut R,
    ) -> String {
        let tokenizer = self.tokenizer();
        let stop = {
            let id = tokenizer.vocab().id("endmodule");
            (id != crate::tokenizer::UNK).then_some(id)
        };
        let mut prompt_ids = vec![crate::tokenizer::BOS];
        prompt_ids.extend(tokenizer.encode(prompt));
        let generated = self.generate_ids(&prompt_ids, max_new_tokens, sampler, rng, stop);
        tokenizer.decode(&generated)
    }
}

impl<M: LanguageModel + ?Sized> LanguageModel for &M {
    fn tokenizer(&self) -> &HdlTokenizer {
        (**self).tokenizer()
    }

    fn distribution(&self, context: &[TokenId]) -> Distribution {
        (**self).distribution(context)
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
    fn mixing_weights_both_components() {
        let a = Distribution::from_weights(vec![(1, 1.0)]);
        let b = Distribution::from_weights(vec![(2, 1.0)]);
        let m = a.mix(&b, 0.25);
        assert!((m.probability(1) - 0.75).abs() < 1e-12);
        assert!((m.probability(2) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn mix_is_bitwise_repeatable() {
        // Irregular weights over partly overlapping token sets, so the
        // normalising sum depends on the order it adds them in.
        let dist = |offset: TokenId, scale: f64| {
            Distribution::from_weights(
                (0..64)
                    .map(|i: TokenId| (offset + i, scale / f64::from(i + 3) + f64::from(i).sqrt()))
                    .collect(),
            )
        };
        let (a, b) = (dist(0, 1.7), dist(40, 0.3));
        let bits = |d: &Distribution| -> Vec<(TokenId, u64)> {
            d.entries().iter().map(|&(t, p)| (t, p.to_bits())).collect()
        };
        let first = bits(&a.mix(&b, 0.37));
        assert_eq!(first.len(), 104);
        for _ in 0..50 {
            assert_eq!(bits(&a.mix(&b, 0.37)), first);
        }
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
