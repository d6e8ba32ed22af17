//! Adapter-based continual pre-training — the QLoRA analogue.
//!
//! The paper freezes the 4-bit-quantised base model and trains a small LoRA
//! adapter (rank = alpha = 8) for one epoch over FreeSet with a maximum
//! sequence length of 2 048 tokens. The structural analogue here is exact:
//! the base [`NgramModel`] is left untouched, a second set of
//! [`NgramCounts`] is trained on the new corpus *using the base model's
//! vocabulary*, and prediction mixes the two distributions with a fixed
//! adapter weight.

use serde::{Deserialize, Serialize};

use crate::model::{Distribution, LanguageModel};
use crate::ngram::{NgramCounts, NgramModel};
use crate::tokenizer::{HdlTokenizer, TokenId};

/// Hyper-parameters of a continual pre-training run, mirroring §III-E1 of the
/// paper. Batch size and gradient accumulation do not change what an n-gram
/// adapter learns — they are recorded so experiment reports can state the
/// full configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ContinualPretrainConfig {
    /// Number of passes over the fine-tuning corpus (paper: 1).
    pub epochs: usize,
    /// Maximum sequence length per document (paper: 2 048 tokens).
    pub max_seq_len: usize,
    /// Per-device batch size (paper: 16) — recorded only.
    pub batch_size: usize,
    /// Gradient accumulation steps (paper: 2) — recorded only.
    pub gradient_accumulation: usize,
    /// LoRA rank (paper: 8).
    pub lora_rank: u32,
    /// LoRA alpha (paper: 8).
    pub lora_alpha: u32,
    /// n-gram order of the adapter counts.
    pub adapter_order: usize,
    /// Mixing weight given to the adapter distribution. The default of 0.7
    /// reflects a fine-tune that strongly steers the model toward the new
    /// domain while retaining base behaviour, scaled by `lora_alpha /
    /// lora_rank` at build time.
    pub adapter_weight: f64,
}

impl Default for ContinualPretrainConfig {
    fn default() -> Self {
        Self {
            epochs: 1,
            max_seq_len: 2048,
            batch_size: 16,
            gradient_accumulation: 2,
            lora_rank: 8,
            lora_alpha: 8,
            adapter_order: 6,
            adapter_weight: 0.7,
        }
    }
}

impl ContinualPretrainConfig {
    /// The effective mixing weight after LoRA scaling (`alpha / rank`) and
    /// epoch saturation are applied, clamped to `[0, 0.98]`.
    pub fn effective_weight(&self) -> f64 {
        if self.epochs == 0 {
            return 0.0;
        }
        let lora_scale = if self.lora_rank == 0 {
            1.0
        } else {
            f64::from(self.lora_alpha) / f64::from(self.lora_rank)
        };
        let epoch_saturation = 1.0 - 0.35f64.powi(self.epochs as i32);
        (self.adapter_weight * lora_scale * epoch_saturation / 0.65).clamp(0.0, 0.98)
    }
}

/// A base model plus a trained adapter.
///
/// # Example
///
/// ```
/// use hwlm::{AdaptedModel, ContinualPretrainConfig, LanguageModel, NgramModel, TrainConfig};
///
/// let base_corpus = vec!["int main() { return 0; }".to_string()];
/// let verilog = vec!["module m(input a, output y); assign y = a; endmodule".to_string()];
/// let base = NgramModel::train(&base_corpus, &TrainConfig::default());
/// let tuned = AdaptedModel::continual_pretrain("freev", base, &verilog, &ContinualPretrainConfig::default());
/// assert_eq!(tuned.name(), "freev");
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdaptedModel {
    name: String,
    base: NgramModel,
    adapter: NgramCounts,
    tokenizer: HdlTokenizer,
    weight: f64,
    config: ContinualPretrainConfig,
}

impl AdaptedModel {
    /// Continually pre-trains `base` on `corpus`, producing an adapted model.
    ///
    /// The base model's token ids are preserved and the vocabulary is
    /// extended with the fine-tuning corpus's tokens. (A real subword
    /// tokenizer is frozen during fine-tuning but has no out-of-vocabulary
    /// problem on the new domain; extending a word-level vocabulary is the
    /// behavioural equivalent.)
    pub fn continual_pretrain<S: AsRef<str>>(
        name: impl Into<String>,
        base: NgramModel,
        corpus: &[S],
        config: &ContinualPretrainConfig,
    ) -> Self {
        let tokenizer = base.tokenizer().extended_with(corpus, 1);
        let mut adapter = NgramCounts::new(config.adapter_order.max(1));
        for _ in 0..config.epochs {
            for doc in corpus {
                let mut ids = tokenizer.encode_document(doc.as_ref());
                ids.truncate(config.max_seq_len.max(2));
                adapter.observe_sequence(&ids);
            }
        }
        Self {
            name: name.into(),
            weight: config.effective_weight(),
            base,
            adapter,
            tokenizer,
            config: *config,
        }
    }

    /// Like [`AdaptedModel::continual_pretrain`] but folds each epoch with
    /// the shard-and-merge driver ([`crate::parallel::sharded_counts`]) over
    /// `workers` scoped threads. Byte-identical to the serial path for any
    /// worker count.
    pub fn continual_pretrain_sharded<S: AsRef<str> + Sync>(
        name: impl Into<String>,
        base: NgramModel,
        corpus: &[S],
        config: &ContinualPretrainConfig,
        workers: usize,
    ) -> Self {
        let tokenizer = base.tokenizer().extended_with(corpus, 1);
        let order = config.adapter_order.max(1);
        let mut adapter = NgramCounts::new(order);
        for _ in 0..config.epochs {
            adapter.merge(crate::parallel::sharded_counts(
                &tokenizer,
                corpus,
                order,
                config.max_seq_len,
                workers,
            ));
        }
        Self {
            name: name.into(),
            weight: config.effective_weight(),
            base,
            adapter,
            tokenizer,
            config: *config,
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

    /// The mixing weight in use.
    pub fn adapter_weight(&self) -> f64 {
        self.weight
    }

    /// The training configuration used.
    pub fn config(&self) -> &ContinualPretrainConfig {
        &self.config
    }
}

impl LanguageModel for AdaptedModel {
    fn tokenizer(&self) -> &HdlTokenizer {
        &self.tokenizer
    }

    fn distribution(&self, context: &[TokenId]) -> Distribution {
        let base = self.base.distribution(context);
        let adapted = self.adapter.distribution(context);
        if adapted.is_empty() {
            base
        } else if base.is_empty() {
            adapted
        } else {
            base.mix(&adapted, self.weight)
        }
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn log_prob(&self, context: &[TokenId], token: TokenId) -> f64 {
        let base = self.base.counts().score(context, token);
        let adapted = self.adapter.score(context, token);
        ((1.0 - self.weight) * base + self.weight * adapted)
            .max(crate::ngram::UNSEEN_SCORE_FLOOR)
            .ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::TrainConfig;
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
            &ContinualPretrainConfig::default(),
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
            &ContinualPretrainConfig::default(),
        );
        // Base ids survive; fine-tuning-corpus tokens are no longer <unk>.
        assert_eq!(tuned.tokenizer().vocab().id("module"), module_id);
        assert_ne!(tuned.tokenizer().vocab().id("posedge"), UNK);
    }

    #[test]
    fn zero_epochs_keeps_the_base_behaviour() {
        let base = NgramModel::train(&base_corpus(), &TrainConfig::default());
        let config = ContinualPretrainConfig {
            epochs: 0,
            ..Default::default()
        };
        let tuned =
            AdaptedModel::continual_pretrain("noop", base.clone(), &verilog_corpus(), &config);
        assert_eq!(tuned.adapter_weight(), 0.0);
        assert_eq!(tuned.adapter_counts().trained_tokens(), 0);
        let ctx = base.tokenizer().encode("assign y =");
        assert_eq!(
            tuned.distribution(&ctx).argmax(),
            base.distribution(&ctx).argmax()
        );
    }

    #[test]
    fn effective_weight_scales_with_lora_and_epochs() {
        let default = ContinualPretrainConfig::default();
        let more_epochs = ContinualPretrainConfig {
            epochs: 3,
            ..default
        };
        let bigger_alpha = ContinualPretrainConfig {
            lora_alpha: 16,
            ..default
        };
        assert!(more_epochs.effective_weight() > default.effective_weight());
        assert!(bigger_alpha.effective_weight() > default.effective_weight());
        assert!(bigger_alpha.effective_weight() <= 0.98);
    }

    #[test]
    fn tuned_model_generates_better_verilog_continuations() {
        let base = NgramModel::train(&base_corpus(), &TrainConfig::default());
        let tuned = AdaptedModel::continual_pretrain(
            "freev",
            base.clone(),
            &verilog_corpus(),
            &ContinualPretrainConfig::default(),
        );
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let prompt = "module adder(input [3:0] a, input [3:0] b, output [4:0] sum);";
        let tuned_out = tuned.generate_text(prompt, 60, &SamplerConfig::greedy(), &mut rng);
        assert!(tuned_out.contains("assign"), "tuned output: {tuned_out}");
        assert!(tuned_out.contains("endmodule"));
    }

    #[test]
    fn sharded_continual_pretrain_matches_serial_for_any_worker_count() {
        let base = NgramModel::train(&base_corpus(), &TrainConfig::default());
        let config = ContinualPretrainConfig {
            epochs: 2,
            ..Default::default()
        };
        let serial =
            AdaptedModel::continual_pretrain("freev", base.clone(), &verilog_corpus(), &config);
        for workers in [1, 2, 7] {
            let parallel = AdaptedModel::continual_pretrain_sharded(
                "freev",
                base.clone(),
                &verilog_corpus(),
                &config,
                workers,
            );
            assert_eq!(parallel, serial, "diverged at workers={workers}");
        }
    }
}
