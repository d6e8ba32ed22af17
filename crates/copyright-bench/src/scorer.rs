//! Cosine-similarity scoring of completions against the reference set.

use serde::{Deserialize, Serialize};
use textsim::{cosine_similarity_vectors, CodeTokenizer, TermVector};
use verilog::strip_comments;

use crate::reference::CopyrightedReference;

/// Scores model completions against every reference file with cosine
/// similarity over code-token term vectors (the paper's §III-A metric).
///
/// Reference vectors are precomputed once so that scoring a completion is a
/// single pass over the reference set, and the tokenizer is built once and
/// stored — scoring thousands of completions is the benchmark's hot loop,
/// and it must not reconstruct per-call state.
///
/// # Example
///
/// ```
/// use copyright_bench::{CopyrightedReference, SimilarityScorer};
///
/// let reference = CopyrightedReference::from_texts(&[
///     "module secret(input a, output y); assign y = ~a; endmodule",
/// ]);
/// let scorer = SimilarityScorer::new(&reference);
/// let (score, index) = scorer.max_similarity("module secret(input a, output y); assign y = ~a; endmodule");
/// assert_eq!(index, Some(0));
/// assert!(score > 0.99);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimilarityScorer {
    tokenizer: CodeTokenizer,
    reference_vectors: Vec<TermVector>,
}

impl SimilarityScorer {
    /// Builds a scorer over a reference set.
    pub fn new(reference: &CopyrightedReference) -> Self {
        let tokenizer = CodeTokenizer::new();
        let reference_vectors = reference
            .files()
            .iter()
            .map(|f| TermVector::from_text(&tokenizer, &f.code))
            .collect();
        Self {
            tokenizer,
            reference_vectors,
        }
    }

    /// Cosine similarity of `completion` against one reference file.
    pub fn similarity_to(&self, completion: &str, reference_index: usize) -> f64 {
        let v = TermVector::from_text(&self.tokenizer, &strip_comments(completion));
        self.reference_vectors
            .get(reference_index)
            .map(|r| cosine_similarity_vectors(&v, r))
            .unwrap_or(0.0)
    }

    /// The maximum cosine similarity of `completion` over the whole reference
    /// set, with the index of the best-matching file.
    pub fn max_similarity(&self, completion: &str) -> (f64, Option<usize>) {
        let v = TermVector::from_text(&self.tokenizer, &strip_comments(completion));
        let mut best = (0.0, None);
        for (i, r) in self.reference_vectors.iter().enumerate() {
            let score = cosine_similarity_vectors(&v, r);
            if score > best.0 {
                best = (score, Some(i));
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference() -> CopyrightedReference {
        CopyrightedReference::from_texts(&[
            "module mac8(input clk, input [7:0] a, input [7:0] b, output reg [15:0] acc);\n\
             always @(posedge clk) acc <= acc + {8'b0, a} * {8'b0, b};\nendmodule",
            "module crc16(input clk, input [7:0] data, output reg [15:0] crc);\n\
             always @(posedge clk) crc <= {crc[14:0], 1'b0} ^ {8'b0, data};\nendmodule",
        ])
    }

    #[test]
    fn verbatim_copy_scores_above_threshold() {
        let r = reference();
        let scorer = SimilarityScorer::new(&r);
        let (score, index) = scorer.max_similarity(&r.files()[1].code);
        assert_eq!(index, Some(1));
        assert!(score > 0.95);
    }

    #[test]
    fn unrelated_code_scores_low() {
        let scorer = SimilarityScorer::new(&reference());
        let (score, _) = scorer
            .max_similarity("module blink(input osc, output led); assign led = osc; endmodule");
        assert!(score < 0.8, "unrelated code scored {score}");
    }

    #[test]
    fn comments_do_not_inflate_the_score() {
        let r = reference();
        let scorer = SimilarityScorer::new(&r);
        let with_comment = format!("// totally new design\n{}", r.files()[0].code);
        let without = scorer.max_similarity(&r.files()[0].code).0;
        let with = scorer.max_similarity(&with_comment).0;
        assert!((with - without).abs() < 1e-9);
    }

    #[test]
    fn out_of_range_reference_index_scores_zero() {
        let scorer = SimilarityScorer::new(&reference());
        assert_eq!(scorer.similarity_to("module m; endmodule", 99), 0.0);
        assert!(scorer.similarity_to("module m; endmodule", 0) < 0.5);
    }

    #[test]
    fn scoring_is_stateless_across_repeated_calls() {
        // Regression: the scorer used to rebuild its tokenizer on every
        // call; now it stores one. Repeated scoring must stay bit-identical
        // (the stored tokenizer accumulates no state).
        let r = reference();
        let scorer = SimilarityScorer::new(&r);
        let completion = &r.files()[0].code;
        let first = scorer.max_similarity(completion);
        for _ in 0..5 {
            assert_eq!(scorer.max_similarity(completion), first);
            assert_eq!(
                scorer.similarity_to(completion, 0),
                scorer.similarity_to(completion, 0)
            );
        }
    }

    #[test]
    fn empty_completion_scores_zero() {
        let scorer = SimilarityScorer::new(&reference());
        let (score, index) = scorer.max_similarity("");
        assert_eq!(score, 0.0);
        assert_eq!(index, None);
    }
}
