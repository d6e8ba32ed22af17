//! Exact Jaccard similarity.
//!
//! The curation pipeline discards a file as a duplicate when its (estimated
//! or exact) Jaccard similarity with an already-kept file is at least 0.85
//! (§III-D). The LSH index uses MinHash to *find candidates* and this exact
//! computation to *verify* them.

use crate::shingle::ShingleSet;

/// Exact Jaccard similarity `|A ∩ B| / |A ∪ B|` between two shingle sets.
///
/// Two empty sets are defined to have similarity `1.0` (they are identical);
/// an empty set versus a non-empty set scores `0.0`.
///
/// # Example
///
/// ```
/// use textsim::{char_shingles, jaccard_similarity};
///
/// let a = char_shingles("assign y = a & b;", 4);
/// let b = char_shingles("assign y = a | b;", 4);
/// let j = jaccard_similarity(&a, &b);
/// assert!(j > 0.3 && j < 1.0);
/// ```
pub fn jaccard_similarity(a: &ShingleSet, b: &ShingleSet) -> f64 {
    jaccard_similarity_sorted(a.as_slice(), b.as_slice())
}

/// Jaccard similarity between two ascending, deduplicated `u64` slices.
///
/// This is the kernel behind [`jaccard_similarity`] (a [`ShingleSet`] is one
/// such slice) and the verification step of the de-duplicator, whose kept
/// shingle vectors are stored in the same shape; runs in `O(|a| + |b|)`.
///
/// # Panics
///
/// Does not panic, but the result is only meaningful if both slices are
/// sorted ascending and free of duplicates.
pub fn jaccard_similarity_sorted(a: &[u64], b: &[u64]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let intersection = sorted_intersection_size(a, b);
    let union = a.len() + b.len() - intersection;
    intersection as f64 / union as f64
}

/// `|a ∩ b|` for two ascending, deduplicated slices, by one merge pass.
pub(crate) fn sorted_intersection_size(a: &[u64], b: &[u64]) -> usize {
    let mut i = 0;
    let mut j = 0;
    let mut intersection = 0usize;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                intersection += 1;
                i += 1;
                j += 1;
            }
        }
    }
    intersection
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shingle::char_shingles;

    #[test]
    fn identical_sets_score_one() {
        let a = char_shingles("module m; endmodule", 4);
        assert_eq!(jaccard_similarity(&a, &a), 1.0);
    }

    #[test]
    fn both_empty_sets_score_one() {
        let a = ShingleSet::new();
        let b = ShingleSet::new();
        assert_eq!(jaccard_similarity(&a, &b), 1.0);
    }

    #[test]
    fn empty_versus_nonempty_scores_zero() {
        let a = ShingleSet::new();
        let b = char_shingles("module m; endmodule", 4);
        assert_eq!(jaccard_similarity(&a, &b), 0.0);
    }

    #[test]
    fn disjoint_sets_score_zero() {
        let a: ShingleSet = [1u64, 2, 3].into_iter().collect();
        let b: ShingleSet = [4u64, 5, 6].into_iter().collect();
        assert_eq!(jaccard_similarity(&a, &b), 0.0);
    }

    #[test]
    fn partial_overlap_scores_ratio() {
        let a: ShingleSet = [1u64, 2, 3, 4].into_iter().collect();
        let b: ShingleSet = [3u64, 4, 5, 6].into_iter().collect();
        assert!((jaccard_similarity(&a, &b) - 2.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn set_variant_normalises_before_the_sorted_merge() {
        // Unsorted, repeating input: the set sorts and dedups it first.
        let a: ShingleSet = [4u64, 1, 3, 2, 3].into_iter().collect();
        let b: ShingleSet = [6u64, 5, 4, 3, 6].into_iter().collect();
        assert_eq!(
            jaccard_similarity(&a, &b),
            jaccard_similarity_sorted(&[1, 2, 3, 4], &[3, 4, 5, 6])
        );
    }

    #[test]
    fn sorted_variant_handles_empty() {
        assert_eq!(jaccard_similarity_sorted(&[], &[]), 1.0);
        assert_eq!(jaccard_similarity_sorted(&[1], &[]), 0.0);
    }
}
