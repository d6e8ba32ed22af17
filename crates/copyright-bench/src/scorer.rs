//! Cosine-similarity scoring of completions against the reference set.

use std::collections::HashMap;
use textsim::{CodeTokenizer, TermVector};
use verilog::strip_comments;

use crate::reference::CopyrightedReference;

/// Scores model completions against every reference file with cosine
/// similarity over code-token term vectors (the paper's §III-A metric).
///
/// The reference set is held as an inverted index: each term maps to the
/// `(reference index, weight)` postings of the references that contain it,
/// in ascending reference order, beside each reference's precomputed L2
/// norm. [`max_similarity`](Self::max_similarity) accumulates dot products
/// term at a time (Manning, Raghavan and Schütze, *Introduction to
/// Information Retrieval*, ch. 6–7), so it touches only the references that
/// share a term with the completion instead of walking the whole set.
///
/// Scores are bit-identical to [`textsim::cosine_similarity_vectors`]
/// against each reference's [`TermVector`]:
///
/// - the completion's terms are visited in the vector's lexicographic order,
///   so each reference's accumulator adds the products of the shared terms
///   in the order [`TermVector::dot`] sums them (a term the two do not share
///   adds `0.0` there, which changes no positive sum);
/// - IEEE multiplication is commutative, and each norm is the same sum
///   [`TermVector::norm`] takes;
/// - a reference that shares no term scores 0, which never beats the
///   initial 0.0, and references are compared in ascending index with a
///   strict `>`, so ties keep the lowest index.
///
/// The tokenizer is built once and stored: scoring thousands of completions
/// is the benchmark's hot loop, and it must not reconstruct per-call state.
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
#[derive(Debug, Clone, PartialEq)]
pub struct SimilarityScorer {
    tokenizer: CodeTokenizer,
    /// Term → `(reference index, weight)` of every reference holding the
    /// term, in ascending reference index.
    postings: HashMap<String, Vec<(usize, f64)>>,
    /// L2 norm of each reference's term vector, by reference index.
    norms: Vec<f64>,
}

impl SimilarityScorer {
    /// Builds a scorer over a reference set.
    pub fn new(reference: &CopyrightedReference) -> Self {
        let tokenizer = CodeTokenizer::new();
        let mut postings: HashMap<String, Vec<(usize, f64)>> = HashMap::new();
        let mut norms = Vec::with_capacity(reference.len());
        for (index, file) in reference.files().iter().enumerate() {
            let vector = TermVector::from_text(&tokenizer, &file.code);
            norms.push(vector.norm());
            for (term, weight) in vector.iter() {
                postings
                    .entry(term.to_string())
                    .or_default()
                    .push((index, weight));
            }
        }
        Self {
            tokenizer,
            postings,
            norms,
        }
    }

    /// The maximum cosine similarity of `completion` over the whole reference
    /// set, with the index of the best-matching file.
    pub fn max_similarity(&self, completion: &str) -> (f64, Option<usize>) {
        let vector = TermVector::from_text(&self.tokenizer, &strip_comments(completion));
        let norm = vector.norm();
        let mut dots = vec![0.0; self.norms.len()];
        for (term, weight) in vector.iter() {
            for &(index, reference_weight) in self.postings.get(term).into_iter().flatten() {
                dots[index] += weight * reference_weight;
            }
        }
        let mut best = (0.0, None);
        for (index, (&dot, &reference_norm)) in dots.iter().zip(&self.norms).enumerate() {
            // An untouched reference shares no term; a touched one has a
            // positive dot product and both norms positive.
            if dot > 0.0 {
                let score = (dot / (norm * reference_norm)).clamp(0.0, 1.0);
                if score > best.0 {
                    best = (score, Some(index));
                }
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
