//! 4-bit quantisation of predictive distributions.
//!
//! The paper evaluates both the base Llama model and FreeV in 4-bit
//! quantised form (for GPU memory reasons) and notes that quantisation may
//! cost some functional accuracy. [`QuantizedModel`] reproduces the effect:
//! every predictive distribution is snapped to a small number of probability
//! levels before sampling, which blurs fine-grained preferences exactly the
//! way low-precision weights do.

use crate::model::{Distribution, LanguageModel};
use crate::tokenizer::{HdlTokenizer, TokenId};

/// A wrapper that quantises another model's predictive distributions.
///
/// # Example
///
/// ```
/// use hwlm::{LanguageModel, NgramModel, QuantizedModel, TrainConfig};
///
/// let corpus = vec!["module m(input a, output y); assign y = a; endmodule".to_string()];
/// let base = NgramModel::train(&corpus, &TrainConfig::default());
/// let quant = QuantizedModel::new(base, 4);
/// assert!(quant.name().contains("4-bit"));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedModel<M> {
    inner: M,
    bits: u32,
    name: String,
}

impl<M: LanguageModel> QuantizedModel<M> {
    /// Wraps `inner`, quantising its distributions to `bits` bits of
    /// probability resolution.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is zero or greater than 16.
    pub fn new(inner: M, bits: u32) -> Self {
        assert!(bits > 0 && bits <= 16, "bits must be in 1..=16");
        let name = format!("{} ({bits}-bit)", inner.name());
        Self { inner, bits, name }
    }

    /// The wrapped model.
    pub fn inner(&self) -> &M {
        &self.inner
    }

    /// The quantisation width in bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }
}

impl<M: LanguageModel> LanguageModel for QuantizedModel<M> {
    fn tokenizer(&self) -> &HdlTokenizer {
        self.inner.tokenizer()
    }

    /// The inner model's prediction with every probability snapped to the
    /// nearest multiple of `1 / (2^bits - 1)` and renormalised, in place. If every
    /// probability would round to zero (a very flat distribution), the
    /// prediction stays unquantised rather than going silent, mirroring how
    /// real quantised models still produce *some* logits; that is decided
    /// before any entry is overwritten.
    fn distribution_into(&self, context: &[TokenId], out: &mut Distribution) {
        self.inner.distribution_into(context, out);
        let levels = f64::from((1u32 << self.bits) - 1);
        let snap = |p: f64| (p * levels).round() / levels;
        if out.entries().iter().any(|&(_, p)| snap(p) > 0.0) {
            out.reweight(snap);
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::TrainConfig;
    use crate::ngram::NgramModel;

    fn model() -> NgramModel {
        let corpus = vec![
            "module a(input x, output y); assign y = x; endmodule".to_string(),
            "module b(input x, output y); assign y = ~x; endmodule".to_string(),
            "module c(input x, output y); assign y = x & x; endmodule".to_string(),
        ];
        NgramModel::train(&corpus, &TrainConfig::default())
    }

    #[test]
    fn quantisation_snaps_probabilities_to_levels() {
        let quant = QuantizedModel::new(model(), 2);
        let ctx = quant.tokenizer().encode("assign y =");
        let dist = quant.distribution(&ctx);
        for (_, p) in dist.entries() {
            // With 2 bits there are 3 levels before renormalisation; after
            // renormalisation probabilities are ratios of small integers.
            assert!(*p > 0.0 && *p <= 1.0);
        }
        assert!(!dist.is_empty());
    }

    #[test]
    fn higher_precision_stays_closer_to_the_original() {
        let base = model();
        let ctx = base.tokenizer().encode("assign y =");
        let original = base.distribution(&ctx);
        let q4 = QuantizedModel::new(base.clone(), 4).distribution(&ctx);
        let q12 = QuantizedModel::new(base, 12).distribution(&ctx);
        let err4: f64 = original
            .entries()
            .iter()
            .map(|(t, p)| (p - q4.probability(*t)).abs())
            .sum();
        let err12: f64 = original
            .entries()
            .iter()
            .map(|(t, p)| (p - q12.probability(*t)).abs())
            .sum();
        assert!(err12 <= err4 + 1e-12);
    }

    #[test]
    fn argmax_is_preserved_for_peaked_distributions() {
        let base = model();
        let ctx = base.tokenizer().encode("module a(input x, output");
        let quant = QuantizedModel::new(base.clone(), 4);
        assert_eq!(
            base.distribution(&ctx).argmax(),
            quant.distribution(&ctx).argmax()
        );
    }

    #[test]
    #[should_panic(expected = "bits must be in 1..=16")]
    fn zero_bits_rejected() {
        let _ = QuantizedModel::new(model(), 0);
    }

    #[test]
    fn accessors_expose_inner_and_bits() {
        let quant = QuantizedModel::new(model(), 4);
        assert_eq!(quant.bits(), 4);
        assert!(quant.inner().counts().trained_tokens() > 0);
        assert!(quant.name().ends_with("(4-bit)"));
    }
}
