//! Cosine similarity over sparse term vectors.
//!
//! The copyright-infringement benchmark (§III-A of the paper) compares each
//! model completion against every file of the copyrighted reference set with
//! cosine similarity and flags a violation at a score of `0.8` or above.

use crate::tokenize::Tokenizer;
use crate::vector::TermVector;

/// Cosine similarity between two pre-built term vectors.
///
/// Returns a value in `[0, 1]` for non-negative weight vectors; both-empty or
/// either-empty inputs yield `0.0` rather than `NaN`.
///
/// # Example
///
/// ```
/// use textsim::{cosine_similarity_vectors, CodeTokenizer, TermVector};
///
/// let tok = CodeTokenizer::new();
/// let a = TermVector::from_text(&tok, "assign y = a + b;");
/// let b = TermVector::from_text(&tok, "assign y = a + b;");
/// assert!((cosine_similarity_vectors(&a, &b) - 1.0).abs() < 1e-9);
/// ```
pub fn cosine_similarity_vectors(a: &TermVector, b: &TermVector) -> f64 {
    let denom = a.norm() * b.norm();
    if denom == 0.0 {
        return 0.0;
    }
    (a.dot(b) / denom).clamp(0.0, 1.0)
}

/// Cosine similarity between two texts, tokenised with `tokenizer`.
///
/// This is the convenience entry point used by the copyright benchmark when a
/// score against a single reference is needed; bulk comparisons should build
/// [`TermVector`]s once and reuse them.
///
/// # Example
///
/// ```
/// use textsim::{cosine_similarity, CodeTokenizer};
///
/// let tok = CodeTokenizer::new();
/// let s = cosine_similarity(&tok, "module a; endmodule", "module b; endmodule");
/// assert!(s > 0.0 && s < 1.0);
/// ```
pub fn cosine_similarity<T: Tokenizer>(tokenizer: &T, a: &str, b: &str) -> f64 {
    let va = TermVector::from_text(tokenizer, a);
    let vb = TermVector::from_text(tokenizer, b);
    cosine_similarity_vectors(&va, &vb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenize::CodeTokenizer;

    #[test]
    fn identical_texts_score_one() {
        let tok = CodeTokenizer::new();
        let text = "module m(input a, output y); assign y = ~a; endmodule";
        assert!((cosine_similarity(&tok, text, text) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disjoint_texts_score_zero() {
        let tok = CodeTokenizer::new();
        assert_eq!(cosine_similarity(&tok, "alpha beta", "gamma delta"), 0.0);
    }

    #[test]
    fn empty_text_scores_zero_not_nan() {
        let tok = CodeTokenizer::new();
        let s = cosine_similarity(&tok, "", "module m; endmodule");
        assert_eq!(s, 0.0);
        assert!(!s.is_nan());
    }

    #[test]
    fn similarity_is_symmetric() {
        let tok = CodeTokenizer::new();
        let a = "assign y = a & b;";
        let b = "assign y = a | b; assign z = c;";
        assert!((cosine_similarity(&tok, a, b) - cosine_similarity(&tok, b, a)).abs() < 1e-12);
    }

    #[test]
    fn partially_overlapping_texts_score_between_zero_and_one() {
        let tok = CodeTokenizer::new();
        let s = cosine_similarity(&tok, "a b c d", "a b x y");
        assert!(s > 0.0 && s < 1.0);
    }

    #[test]
    fn formatting_changes_do_not_change_score() {
        let tok = CodeTokenizer::new();
        let a = "assign y=a+b;";
        let b = "assign   y = a + b ;";
        assert!((cosine_similarity(&tok, a, b) - 1.0).abs() < 1e-12);
    }
}
