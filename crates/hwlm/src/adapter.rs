//! Adapter-based continual pre-training — the QLoRA analogue.
//!
//! The paper freezes the 4-bit-quantised base model and trains a LoRA
//! adapter of rank = alpha = 8 for one epoch over FreeSet, on sequences of
//! up to 2 048 tokens (batch 16, gradient accumulation 2). The structural
//! analogue here is exact: the base [`NgramModel`] is left untouched, a
//! second set of [`NgramCounts`] is trained on the new corpus *using the
//! base model's vocabulary*, and prediction mixes the two distributions
//! with a fixed adapter weight of 0.7 — a fine-tune that strongly steers the
//! model toward the new domain while retaining base behaviour.
//!
//! Of the paper's settings, only the sequence length changes what the
//! adapter predicts, so it is the one kept, as
//! [`TrainConfig::max_seq_len`], beside the adapter's n-gram order. Batch
//! size and gradient accumulation shape an optimiser's steps, which
//! counting does not take. LoRA scales its update by `alpha / rank`, which
//! is 1 at the paper's setting, and one epoch is one pass over the corpus,
//! so the adapter mixes in at its unscaled 0.7.

use crate::model::{Distribution, LanguageModel, TrainConfig};
use crate::ngram::{with_suffix_keys, NgramCounts, NgramModel};
use crate::parallel::{default_workers, sharded_counts};
use crate::tokenizer::{HdlTokenizer, TokenId};

/// Weight of the adapter distribution in the mix (see the module docs).
const ADAPTER_WEIGHT: f64 = 0.7;

/// A base model plus a trained adapter.
///
/// # Example
///
/// ```
/// use hwlm::{AdaptedModel, LanguageModel, NgramModel, TrainConfig};
///
/// let base_corpus = vec!["int main() { return 0; }".to_string()];
/// let verilog = vec!["module m(input a, output y); assign y = a; endmodule".to_string()];
/// let base = NgramModel::train(&base_corpus, &TrainConfig::default());
/// let tuned = AdaptedModel::continual_pretrain("freev", base, &verilog, &TrainConfig::default());
/// assert_eq!(tuned.name(), "freev");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptedModel {
    name: String,
    base: NgramModel,
    adapter: NgramCounts,
    tokenizer: HdlTokenizer,
}

impl AdaptedModel {
    /// Continually pre-trains `base` on `corpus`, producing an adapted model
    /// whose adapter counts have `config.order`.
    ///
    /// The base model's token ids are preserved and the vocabulary is
    /// extended with the fine-tuning corpus's tokens. (A real subword
    /// tokenizer is frozen during fine-tuning but has no out-of-vocabulary
    /// problem on the new domain; extending a word-level vocabulary is the
    /// behavioural equivalent.) Both the extension and the adapter fold run
    /// sharded on the machine's available parallelism
    /// ([`crate::parallel`]); the model is the same for any worker count.
    pub fn continual_pretrain<S: AsRef<str> + Sync>(
        name: impl Into<String>,
        base: NgramModel,
        corpus: &[S],
        config: &TrainConfig,
    ) -> Self {
        let tokenizer = base.tokenizer().extended_with(corpus);
        let adapter = sharded_counts(&tokenizer, corpus, config, default_workers());
        Self {
            name: name.into(),
            base,
            adapter,
            tokenizer,
        }
    }

    /// The frozen base model.
    pub fn base(&self) -> &NgramModel {
        &self.base
    }

    /// The adapter count tables.
    pub fn adapter_counts(&self) -> &NgramCounts {
        &self.adapter
    }
}

impl LanguageModel for AdaptedModel {
    fn tokenizer(&self) -> &HdlTokenizer {
        &self.tokenizer
    }

    /// The base and adapter predictions mixed as
    /// `(1 - 0.7) * p_base + 0.7 * p_adapter`; where only one of the two
    /// has seen a suffix of `context`, its prediction alone.
    ///
    /// The context is fingerprinted once for both count tables, and the mix
    /// is written straight from their two entries. Its floats are those of
    /// the longhand chain: each table's `count / total`, the base term
    /// first in each sum, the normalising sum added in ascending token order.
    fn distribution_into(&self, context: &[TokenId], out: &mut Distribution) {
        let base_counts = self.base.counts();
        let order = base_counts.order().max(self.adapter.order());
        with_suffix_keys(context, order, |keys| {
            match (
                base_counts.longest_entry(keys),
                self.adapter.longest_entry(keys),
            ) {
                (None, None) => out.set_normalised([]),
                (Some(only), None) | (None, Some(only)) => out.set_normalised(only.probabilities()),
                (Some(base), Some(adapted)) => {
                    let keep = 1.0 - ADAPTER_WEIGHT;
                    let mixed = base
                        .probabilities()
                        .map(|(t, p)| match adapted.probability(t) {
                            Some(q) => (t, keep * p + ADAPTER_WEIGHT * q),
                            None => (t, keep * p),
                        });
                    let adapter_only = adapted
                        .probabilities()
                        .filter(|&(t, _)| base.probability(t).is_none())
                        .map(|(t, q)| (t, ADAPTER_WEIGHT * q));
                    out.set_weights_by_token(mixed.chain(adapter_only));
                }
            }
        })
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn log_prob(&self, context: &[TokenId], token: TokenId) -> f64 {
        let base = self.base.counts().score(context, token);
        let adapted = self.adapter.score(context, token);
        ((1.0 - ADAPTER_WEIGHT) * base + ADAPTER_WEIGHT * adapted)
            .max(crate::ngram::UNSEEN_SCORE_FLOOR)
            .ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::SamplerConfig;
    use crate::tokenizer::UNK;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn base_corpus() -> Vec<String> {
        vec![
            "void main() { printf(\"hello\"); }".to_string(),
            "module legacy(input a, output y); assign y = a; endmodule".to_string(),
        ]
    }

    fn verilog_corpus() -> Vec<String> {
        vec![
            "module counter(input clk, input rst, output reg [7:0] q);\nalways @(posedge clk) begin\nif (rst) q <= 0; else q <= q + 1;\nend\nendmodule".to_string(),
            "module adder(input [3:0] a, input [3:0] b, output [4:0] sum);\nassign sum = a + b;\nendmodule".to_string(),
        ]
    }

    #[test]
    fn adapter_shifts_predictions_toward_new_corpus() {
        let base = NgramModel::train(&base_corpus(), &TrainConfig::default());
        let tuned = AdaptedModel::continual_pretrain(
            "freev",
            base.clone(),
            &verilog_corpus(),
            &TrainConfig::default(),
        );
        let ctx = tuned.tokenizer().encode("always @(posedge clk) begin");
        let tuned_dist = tuned.distribution(&ctx);
        let base_dist = base.distribution(&ctx);
        // The tuned model must have an opinion where the base model is clueless.
        assert!(!tuned_dist.is_empty());
        let nl = tuned.tokenizer().vocab().id("<nl>");
        let if_id = tuned.tokenizer().vocab().id("if");
        assert!(
            tuned_dist.probability(if_id) + tuned_dist.probability(nl)
                >= base_dist.probability(if_id) + base_dist.probability(nl)
        );
    }

    #[test]
    fn vocabulary_extends_but_preserves_base_ids() {
        let base = NgramModel::train(&base_corpus(), &TrainConfig::default());
        let module_id = base.tokenizer().vocab().id("module");
        assert_eq!(base.tokenizer().vocab().id("posedge"), UNK);
        let tuned = AdaptedModel::continual_pretrain(
            "freev",
            base,
            &verilog_corpus(),
            &TrainConfig::default(),
        );
        // Base ids survive; fine-tuning-corpus tokens are no longer <unk>.
        assert_eq!(tuned.tokenizer().vocab().id("module"), module_id);
        assert_ne!(tuned.tokenizer().vocab().id("posedge"), UNK);
    }

    #[test]
    fn tuned_model_generates_better_verilog_continuations() {
        let base = NgramModel::train(&base_corpus(), &TrainConfig::default());
        let tuned = AdaptedModel::continual_pretrain(
            "freev",
            base.clone(),
            &verilog_corpus(),
            &TrainConfig::default(),
        );
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let prompt = "module adder(input [3:0] a, input [3:0] b, output [4:0] sum);";
        let tuned_out = tuned.generate_text(prompt, 60, &SamplerConfig::greedy(), &mut rng);
        assert!(tuned_out.contains("assign"), "tuned output: {tuned_out}");
        assert!(tuned_out.contains("endmodule"));
    }
}
