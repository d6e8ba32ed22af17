//! Shingling: converting documents into sets of hashed k-grams.
//!
//! MinHash de-duplication (§III-D of the paper, following VeriGen) operates
//! on the *set* of k-shingles of each file. We hash every shingle to a `u64`
//! so signatures and Jaccard estimates never need to keep the original
//! strings around.
//!
//! A [`ShingleSet`] is one ascending, de-duplicated `Vec<u64>`. The builders
//! push every window's hash, then sort and dedup once, which is several
//! times cheaper than an ordered-set insert per window and yields exactly
//! the same set in exactly the same order. Exact Jaccard is then a linear
//! merge of two such vectors ([`crate::jaccard_similarity_sorted`]), and the
//! de-duplicator stores kept sets in the same shape.

use std::hash::{Hash, Hasher};

use serde::Serialize;

use crate::jaccard::sorted_intersection_size;
use crate::tokenize::Tokenizer;

/// A deterministic 64-bit hash (FNV-1a) used for shingles.
///
/// `std::collections::hash_map::DefaultHasher` is not guaranteed stable
/// across releases, and dedup decisions must be reproducible, so we use our
/// own.
fn fnv1a(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// A hashed shingle set for one document: its distinct shingle hashes,
/// stored ascending in one vector.
///
/// Every constructor ([`char_shingles`], [`token_shingles`],
/// [`FromIterator`], [`Extend`]) sorts and dedups, so the vector is always
/// strictly ascending. The type derives no `Deserialize`, which would skip
/// that normalisation.
///
/// # Example
///
/// ```
/// use textsim::{char_shingles, jaccard_similarity};
///
/// let a = char_shingles("module adder; endmodule", 5);
/// let b = char_shingles("module adder; endmodule", 5);
/// assert_eq!(jaccard_similarity(&a, &b), 1.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct ShingleSet {
    hashes: Vec<u64>,
}

impl ShingleSet {
    /// Creates an empty shingle set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sorts and dedups raw window hashes into a set.
    fn from_raw(mut hashes: Vec<u64>) -> Self {
        hashes.sort_unstable();
        hashes.dedup();
        Self { hashes }
    }

    /// Number of distinct shingles.
    pub fn len(&self) -> usize {
        self.hashes.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.hashes.is_empty()
    }

    /// Whether `hash` is present.
    pub fn contains(&self, hash: u64) -> bool {
        self.hashes.binary_search(&hash).is_ok()
    }

    /// Iterates the shingle hashes in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.hashes.iter().copied()
    }

    /// The shingle hashes as a strictly ascending slice.
    pub fn as_slice(&self) -> &[u64] {
        &self.hashes
    }

    /// Size of the intersection with `other`.
    pub fn intersection_size(&self, other: &ShingleSet) -> usize {
        sorted_intersection_size(&self.hashes, &other.hashes)
    }

    /// Size of the union with `other`.
    pub fn union_size(&self, other: &ShingleSet) -> usize {
        self.len() + other.len() - self.intersection_size(other)
    }
}

impl FromIterator<u64> for ShingleSet {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        Self::from_raw(iter.into_iter().collect())
    }
}

impl Extend<u64> for ShingleSet {
    fn extend<I: IntoIterator<Item = u64>>(&mut self, iter: I) {
        let mut hashes = std::mem::take(&mut self.hashes);
        hashes.extend(iter);
        *self = Self::from_raw(hashes);
    }
}

impl Hash for ShingleSet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for h in &self.hashes {
            h.hash(state);
        }
    }
}

/// Builds the set of character `k`-shingles of `text`.
///
/// Whitespace runs are collapsed to a single space first so that formatting
/// differences do not break near-duplicate detection. If the text is shorter
/// than `k`, the whole text becomes a single shingle.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn char_shingles(text: &str, k: usize) -> ShingleSet {
    assert!(k > 0, "shingle size must be positive");
    let normalized: Vec<u8> = {
        let mut out = Vec::with_capacity(text.len());
        let mut last_space = false;
        for b in text.bytes() {
            if b.is_ascii_whitespace() {
                if !last_space {
                    out.push(b' ');
                }
                last_space = true;
            } else {
                out.push(b);
                last_space = false;
            }
        }
        out
    };
    if normalized.is_empty() {
        return ShingleSet::new();
    }
    if normalized.len() <= k {
        return ShingleSet::from_raw(vec![fnv1a(&normalized)]);
    }
    ShingleSet::from_raw(normalized.windows(k).map(fnv1a).collect())
}

/// Builds the set of token `k`-shingles of `text` using `tokenizer`.
///
/// Token shingles are the granularity used for source-code de-duplication:
/// a window of `k` consecutive code tokens becomes one shingle.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn token_shingles<T: Tokenizer>(tokenizer: &T, text: &str, k: usize) -> ShingleSet {
    assert!(k > 0, "shingle size must be positive");
    let tokens = tokenizer.tokenize(text);
    if tokens.is_empty() {
        return ShingleSet::new();
    }
    if tokens.len() <= k {
        return ShingleSet::from_raw(vec![fnv1a(tokens.join("\u{1f}").as_bytes())]);
    }
    ShingleSet::from_raw(
        tokens
            .windows(k)
            .map(|window| fnv1a(window.join("\u{1f}").as_bytes()))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenize::CodeTokenizer;

    #[test]
    fn identical_texts_have_identical_shingles() {
        let a = char_shingles("module foo; endmodule", 4);
        let b = char_shingles("module foo; endmodule", 4);
        assert_eq!(a, b);
    }

    #[test]
    fn whitespace_normalisation_makes_shingles_robust() {
        let a = char_shingles("module   foo;\n\nendmodule", 4);
        let b = char_shingles("module foo; endmodule", 4);
        assert_eq!(a, b);
    }

    #[test]
    fn short_text_yields_single_shingle() {
        let s = char_shingles("ab", 5);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn empty_text_yields_empty_set() {
        assert!(char_shingles("", 5).is_empty());
    }

    #[test]
    #[should_panic(expected = "shingle size must be positive")]
    fn zero_k_panics() {
        let _ = char_shingles("abc", 0);
    }

    #[test]
    fn token_shingles_whitespace_insensitive() {
        let tok = CodeTokenizer::default();
        let a = token_shingles(&tok, "assign y=a+b;", 3);
        let b = token_shingles(&tok, "assign y = a + b ;", 3);
        assert_eq!(a, b);
    }

    #[test]
    fn different_texts_produce_mostly_different_shingles() {
        let a = char_shingles("module adder(input a, b); assign s = a + b; endmodule", 6);
        let b = char_shingles("module fifo(input clk); reg [7:0] mem [0:15]; endmodule", 6);
        let inter = a.intersection_size(&b);
        assert!(inter * 2 < a.union_size(&b));
    }

    #[test]
    fn intersection_and_union_sizes_are_consistent() {
        let a: ShingleSet = [1u64, 2, 3, 4].into_iter().collect();
        let b: ShingleSet = [3u64, 4, 5].into_iter().collect();
        assert_eq!(a.intersection_size(&b), 2);
        assert_eq!(a.union_size(&b), 5);
        assert!(a.contains(1) && !a.contains(5));
    }
}
