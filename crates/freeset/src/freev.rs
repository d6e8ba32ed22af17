//! FreeV: continual pre-training of a base model on FreeSet (Figure 1's
//! right half), evaluated in 4-bit quantised form.

use hwlm::{AdaptedModel, NgramModel, QuantizedModel, TrainConfig};
use serde::{Deserialize, Serialize};

use crate::corpus::{general_code_corpus, ScrapedCorpus};

/// The FreeV build. It has no settings: the recipe is this module's
/// constants, which the model zoo shares.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct FreeVBuilder {}

/// Number of general-purpose documents in a base model's pre-training mix
/// (the software-heavy corpus of a foundation model).
pub(crate) const BASE_GENERAL_DOCUMENTS: usize = 400;

/// Fraction of the raw scrape mixed into FreeV's base-model pre-training —
/// foundation models have seen *some* public Verilog, which is why their
/// violation rates are non-zero even before fine-tuning.
const BASE_VERILOG_FRACTION: f64 = 0.10;

/// A base model's n-gram order. Its maximum sequence length is
/// [`TrainConfig`]'s default, the paper's 2 048 tokens.
pub(crate) const BASE_ORDER: usize = 8;

/// The continual pre-training adapter's n-gram order, at the same 2 048-token
/// maximum sequence length. The paper's other QLoRA settings (one epoch,
/// LoRA rank = alpha = 8) are what fix the adapter's mixing weight; see
/// [`hwlm::adapter`].
pub(crate) const PRETRAIN_ORDER: usize = 20;

/// Quantisation width used at inference time (paper: 4 bits).
const QUANTIZATION_BITS: u32 = 4;

/// Seed for the base-corpus mixing.
const SEED: u64 = 0x11A3A;

/// The trained pair: the frozen base model and the FreeV fine-tune, which
/// holds the one copy of the base.
#[derive(Debug, Clone)]
pub struct FreeVModel {
    tuned: AdaptedModel,
}

impl FreeVModel {
    /// The base model (full precision).
    pub fn base(&self) -> &NgramModel {
        self.tuned.base()
    }

    /// The fine-tuned model (full precision).
    pub fn tuned(&self) -> &AdaptedModel {
        &self.tuned
    }

    /// The base model in its quantised inference form
    /// ("Llama-3.1-Instruct (4-bit)" in Table II).
    pub fn quantized_base(&self) -> QuantizedModel<&NgramModel> {
        QuantizedModel::new(self.base(), QUANTIZATION_BITS)
    }

    /// FreeV in its quantised inference form ("FreeV-Llama3.1 (4-bit)").
    pub fn quantized_tuned(&self) -> QuantizedModel<&AdaptedModel> {
        QuantizedModel::new(&self.tuned, QUANTIZATION_BITS)
    }

    /// The quantisation width.
    pub fn quantization_bits(&self) -> u32 {
        QUANTIZATION_BITS
    }
}

impl FreeVBuilder {
    /// Builds the base model and continually pre-trains FreeV on the given
    /// FreeSet training corpus.
    pub fn build(&self, scraped: &ScrapedCorpus, freeset_corpus: &[String]) -> FreeVModel {
        build_with_base_verilog_fraction(scraped, freeset_corpus, BASE_VERILOG_FRACTION)
    }
}

/// [`FreeVBuilder::build`] with the share of the raw scrape in the base
/// model's pre-training mix as a parameter.
fn build_with_base_verilog_fraction(
    scraped: &ScrapedCorpus,
    freeset_corpus: &[String],
    base_verilog_fraction: f64,
) -> FreeVModel {
    let mut base_corpus = general_code_corpus(BASE_GENERAL_DOCUMENTS, SEED);
    base_corpus.extend(scraped.sample_fraction(base_verilog_fraction, SEED ^ 0x5A5A));
    let base = NgramModel::train_named(
        "Llama-3.1-8B-Instruct (sim)",
        &base_corpus,
        &TrainConfig {
            order: BASE_ORDER,
            ..Default::default()
        },
    );
    let tuned = AdaptedModel::continual_pretrain(
        "FreeV-Llama3.1 (sim)",
        base,
        freeset_corpus,
        &TrainConfig {
            order: PRETRAIN_ORDER,
            ..Default::default()
        },
    );
    FreeVModel { tuned }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ExperimentScale, FreeSetConfig};
    use crate::dataset::build_freeset;
    use hwlm::{perplexity, LanguageModel};

    #[test]
    fn freev_fits_verilog_better_than_its_base() {
        let build = build_freeset(&FreeSetConfig::at_scale(&ExperimentScale::tiny()));
        let corpus = build.training_corpus();
        let (train, held_out) = corpus.split_at(corpus.len() - corpus.len() / 10 - 1);
        // Use a base with little Verilog exposure so that the comparison is
        // not confounded by the two models' different vocabularies (the base
        // collapses most held-out identifiers to `<unk>`, which flatters its
        // perplexity).
        let model = build_with_base_verilog_fraction(&build.scraped, train, 0.01);
        let base_ppl = perplexity(model.base(), held_out);
        let tuned_ppl = perplexity(model.tuned(), held_out);
        assert!(
            tuned_ppl < base_ppl,
            "FreeV perplexity {tuned_ppl} should be below the base {base_ppl}"
        );
    }

    #[test]
    fn quantized_views_share_the_underlying_models() {
        let build = build_freeset(&FreeSetConfig::at_scale(&ExperimentScale::tiny()));
        let model = FreeVBuilder::default().build(&build.scraped, &build.training_corpus());
        assert_eq!(model.quantization_bits(), 4);
        assert!(model.quantized_base().name().contains("4-bit"));
        assert!(model.quantized_tuned().name().contains("4-bit"));
        assert_eq!(
            LanguageModel::name(model.base()),
            "Llama-3.1-8B-Instruct (sim)"
        );
        assert_eq!(LanguageModel::name(model.tuned()), "FreeV-Llama3.1 (sim)");
    }
}
