//! Perplexity evaluation.

use crate::model::LanguageModel;

/// Computes the per-token perplexity of `model` over `corpus`.
///
/// Lower is better; a model continually pre-trained on Verilog should reach a
/// markedly lower perplexity on held-out Verilog than its base model, which
/// is the training-signal view of the Table II improvement.
///
/// Returns `f64::INFINITY` for an empty corpus.
///
/// # Example
///
/// ```
/// use hwlm::{perplexity, NgramModel, TrainConfig};
///
/// let train = vec!["module m(input a, output y); assign y = a; endmodule".to_string()];
/// let model = NgramModel::train(&train, &TrainConfig::default());
/// let on_train = perplexity(&model, &train);
/// let on_other = perplexity(&model, &["completely unrelated prose".to_string()]);
/// assert!(on_train < on_other);
/// ```
pub fn perplexity<M: LanguageModel, S: AsRef<str>>(model: &M, corpus: &[S]) -> f64 {
    let tokenizer = model.tokenizer();
    let mut total_log_prob = 0.0;
    let mut token_count = 0usize;
    for doc in corpus {
        let ids = tokenizer.encode_document(doc.as_ref());
        for pos in 1..ids.len() {
            let context = &ids[..pos];
            total_log_prob += model.log_prob(context, ids[pos]);
            token_count += 1;
        }
    }
    if token_count == 0 {
        return f64::INFINITY;
    }
    (-total_log_prob / token_count as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::AdaptedModel;
    use crate::model::TrainConfig;
    use crate::ngram::NgramModel;

    fn verilog_corpus() -> Vec<String> {
        vec![
            "module counter(input clk, input rst, output reg [3:0] q);\nalways @(posedge clk) begin\nif (rst) q <= 0; else q <= q + 1;\nend\nendmodule".to_string(),
            "module mux(input a, input b, input sel, output y);\nassign y = sel ? b : a;\nendmodule".to_string(),
            "module adder(input [3:0] a, input [3:0] b, output [4:0] s);\nassign s = a + b;\nendmodule".to_string(),
        ]
    }

    #[test]
    fn training_corpus_has_low_perplexity() {
        let corpus = verilog_corpus();
        let model = NgramModel::train(&corpus, &TrainConfig::default());
        let ppl = perplexity(&model, &corpus);
        assert!(
            ppl < 4.0,
            "perplexity on memorised data should be tiny, got {ppl}"
        );
    }

    #[test]
    fn empty_corpus_is_infinite() {
        let model = NgramModel::train(&verilog_corpus(), &TrainConfig::default());
        assert!(perplexity(&model, &Vec::<String>::new()).is_infinite());
    }

    #[test]
    fn continual_pretraining_reduces_perplexity_on_hardware_text() {
        let base_corpus = vec![
            "def main(): return 0".to_string(),
            "print('hello world')".to_string(),
            "module tiny(input a, output y); assign y = a; endmodule".to_string(),
        ];
        let base = NgramModel::train(&base_corpus, &TrainConfig::default());
        let held_out = vec![
            "module mux2(input a, input b, input sel, output y);\nassign y = sel ? b : a;\nendmodule".to_string(),
        ];
        let tuned = AdaptedModel::continual_pretrain(
            "freev",
            base.clone(),
            &verilog_corpus(),
            &TrainConfig::default(),
        );
        let base_ppl = perplexity(&base, &held_out);
        let tuned_ppl = perplexity(&tuned, &held_out);
        assert!(
            tuned_ppl < base_ppl,
            "tuned {tuned_ppl} should beat base {base_ppl}"
        );
    }
}
