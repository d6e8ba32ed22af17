//! Sparse term vectors.

use std::collections::BTreeMap;

use crate::tokenize::Tokenizer;

/// A sparse bag-of-terms vector with `f64` weights.
///
/// Terms are kept in a [`BTreeMap`] so iteration order is deterministic,
/// which keeps every downstream similarity score reproducible.
///
/// # Example
///
/// ```
/// use textsim::{CodeTokenizer, TermVector};
///
/// let tok = CodeTokenizer::new();
/// let v = TermVector::from_text(&tok, "assign y = a & a;");
/// assert_eq!(v.weight("a"), 2.0);
/// assert_eq!(v.weight("xor"), 0.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TermVector {
    weights: BTreeMap<String, f64>,
}

impl TermVector {
    /// Creates an empty vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a raw term-frequency vector from `text` using `tokenizer`.
    pub fn from_text<T: Tokenizer>(tokenizer: &T, text: &str) -> Self {
        let mut weights = BTreeMap::new();
        for token in tokenizer.tokenize(text) {
            *weights.entry(token).or_insert(0.0) += 1.0;
        }
        Self { weights }
    }

    /// Adds `delta` to the weight of `term`.
    pub fn add(&mut self, term: impl Into<String>, delta: f64) {
        *self.weights.entry(term.into()).or_insert(0.0) += delta;
    }

    /// Returns the weight of `term` (0.0 when absent).
    pub fn weight(&self, term: &str) -> f64 {
        self.weights.get(term).copied().unwrap_or(0.0)
    }

    /// Number of distinct terms.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// Whether the vector has no terms.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Iterates over `(term, weight)` pairs in lexicographic term order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.weights.iter().map(|(t, w)| (t.as_str(), *w))
    }

    /// Euclidean (L2) norm of the vector.
    pub fn norm(&self) -> f64 {
        self.weights.values().map(|w| w * w).sum::<f64>().sqrt()
    }

    /// Dot product with another vector.
    ///
    /// Iterates over the smaller of the two vectors, so it is cheap when one
    /// side (e.g. a 64-word prompt completion) is much shorter than the other
    /// (a full copyrighted file).
    pub fn dot(&self, other: &TermVector) -> f64 {
        let (small, large) = if self.len() <= other.len() {
            (self, other)
        } else {
            (other, self)
        };
        small
            .weights
            .iter()
            .map(|(term, w)| w * large.weight(term))
            .sum()
    }
}

impl FromIterator<(String, f64)> for TermVector {
    fn from_iter<I: IntoIterator<Item = (String, f64)>>(iter: I) -> Self {
        let mut v = TermVector::new();
        for (term, w) in iter {
            v.add(term, w);
        }
        v
    }
}

impl Extend<(String, f64)> for TermVector {
    fn extend<I: IntoIterator<Item = (String, f64)>>(&mut self, iter: I) {
        for (term, w) in iter {
            self.add(term, w);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenize::CodeTokenizer;

    #[test]
    fn term_vector_counts_terms() {
        let tok = CodeTokenizer::new();
        let v = TermVector::from_text(&tok, "a b a c a");
        assert_eq!(v.weight("a"), 3.0);
        assert_eq!(v.weight("b"), 1.0);
        assert_eq!(v.weight("missing"), 0.0);
        assert_eq!(v.len(), 3);
        assert!(!v.is_empty());
    }

    #[test]
    fn empty_vector_has_zero_norm() {
        let v = TermVector::new();
        assert!(v.is_empty());
        assert_eq!(v.norm(), 0.0);
    }

    #[test]
    fn dot_product_is_symmetric() {
        let tok = CodeTokenizer::new();
        let a = TermVector::from_text(&tok, "x y z x");
        let b = TermVector::from_text(&tok, "x z w");
        assert_eq!(a.dot(&b), b.dot(&a));
        assert_eq!(a.dot(&b), 2.0 * 1.0 + 1.0 * 1.0);
    }

    #[test]
    fn from_iterator_and_extend_accumulate() {
        let mut v: TermVector = vec![("a".to_string(), 1.0), ("a".to_string(), 2.0)]
            .into_iter()
            .collect();
        v.extend(vec![("b".to_string(), 0.5)]);
        assert_eq!(v.weight("a"), 3.0);
        assert_eq!(v.weight("b"), 0.5);
    }
}
