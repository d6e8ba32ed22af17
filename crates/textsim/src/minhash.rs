//! MinHash signatures.
//!
//! A MinHash signature of a shingle set is a fixed-length vector whose
//! per-position agreement rate between two documents is an unbiased estimate
//! of their Jaccard similarity. The curation pipeline uses signatures of 128
//! permutations (the VeriGen-style setup the paper follows) combined with
//! banding LSH for candidate retrieval.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::shingle::ShingleSet;

/// A fixed-length MinHash signature.
///
/// # Example
///
/// ```
/// use textsim::{char_shingles, MinHasher};
///
/// let hasher = MinHasher::new(128, 42);
/// let a = hasher.signature(&char_shingles("module adder; endmodule", 5));
/// let b = hasher.signature(&char_shingles("module adder; endmodule", 5));
/// assert_eq!(a.estimate_jaccard(&b), 1.0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Signature {
    values: Vec<u64>,
}

impl Signature {
    /// The signature values (one minimum per hash permutation).
    pub fn values(&self) -> &[u64] {
        &self.values
    }

    /// Number of permutations in the signature.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the signature has zero permutations (only possible when a
    /// `MinHasher` was constructed with zero permutations, which is rejected).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Estimates Jaccard similarity as the fraction of agreeing positions.
    ///
    /// # Panics
    ///
    /// Panics if the two signatures have different lengths (they were built
    /// by differently-configured hashers and cannot be compared).
    pub fn estimate_jaccard(&self, other: &Signature) -> f64 {
        assert_eq!(
            self.values.len(),
            other.values.len(),
            "cannot compare signatures of different lengths"
        );
        if self.values.is_empty() {
            return 1.0;
        }
        let agree = self
            .values
            .iter()
            .zip(&other.values)
            .filter(|(a, b)| a == b)
            .count();
        agree as f64 / self.values.len() as f64
    }
}

/// Generates MinHash signatures with a fixed family of hash permutations.
///
/// Permutations are the classic `(a * x + b) mod p` family over a Mersenne
/// prime; the coefficients are drawn from a seeded ChaCha RNG so signatures
/// are reproducible across runs and machines.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MinHasher {
    coeffs: Vec<(u64, u64)>,
    seed: u64,
}

/// Mersenne prime 2^61 - 1, large enough to treat 64-bit shingle hashes as
/// residues with negligible collision probability.
const MERSENNE_61: u64 = (1 << 61) - 1;

impl MinHasher {
    /// Creates a hasher with `permutations` hash functions seeded by `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `permutations == 0`.
    pub fn new(permutations: usize, seed: u64) -> Self {
        assert!(permutations > 0, "at least one permutation is required");
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let coeffs = (0..permutations)
            .map(|_| {
                let a = rng.gen_range(1..MERSENNE_61);
                let b = rng.gen_range(0..MERSENNE_61);
                (a, b)
            })
            .collect();
        Self { coeffs, seed }
    }

    /// Number of permutations in generated signatures.
    pub fn permutations(&self) -> usize {
        self.coeffs.len()
    }

    /// The seed the permutation family was drawn from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    fn permute(&self, index: usize, x: u64) -> u64 {
        let (a, b) = self.coeffs[index];
        let x = x % MERSENNE_61;
        // 128-bit intermediate keeps the multiplication exact.
        let prod = (u128::from(a) * u128::from(x) + u128::from(b)) % u128::from(MERSENNE_61);
        prod as u64
    }

    /// Computes the MinHash signature of a shingle set.
    ///
    /// An empty shingle set maps every position to `u64::MAX`, so two empty
    /// documents estimate Jaccard 1.0 (matching the exact definition).
    pub fn signature(&self, shingles: &ShingleSet) -> Signature {
        let mut values = vec![u64::MAX; self.coeffs.len()];
        for shingle in shingles.iter() {
            for (i, value) in values.iter_mut().enumerate() {
                let h = self.permute(i, shingle);
                if h < *value {
                    *value = h;
                }
            }
        }
        Signature { values }
    }

    /// Computes signatures for a batch of shingle sets, serially, preserving
    /// input order.
    pub fn signatures(&self, sets: &[ShingleSet]) -> Vec<Signature> {
        sets.iter().map(|s| self.signature(s)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jaccard::jaccard_similarity;
    use crate::shingle::char_shingles;

    fn corpus_pair() -> (ShingleSet, ShingleSet) {
        let a = char_shingles(
            "module counter(input clk, input rst, output reg [7:0] q); \
             always @(posedge clk) begin if (rst) q <= 0; else q <= q + 1; end endmodule",
            5,
        );
        let b = char_shingles(
            "module counter(input clk, input rst, output reg [7:0] q); \
             always @(posedge clk) begin if (rst) q <= 0; else q <= q + 2; end endmodule",
            5,
        );
        (a, b)
    }

    #[test]
    fn identical_sets_estimate_one() {
        let hasher = MinHasher::new(64, 7);
        let (a, _) = corpus_pair();
        let sa = hasher.signature(&a);
        assert_eq!(sa.estimate_jaccard(&sa), 1.0);
        assert_eq!(sa.len(), 64);
        assert!(!sa.is_empty());
    }

    #[test]
    fn estimate_tracks_exact_jaccard() {
        let hasher = MinHasher::new(256, 11);
        let (a, b) = corpus_pair();
        let exact = jaccard_similarity(&a, &b);
        let estimate = hasher.signature(&a).estimate_jaccard(&hasher.signature(&b));
        assert!(
            (exact - estimate).abs() < 0.12,
            "estimate {estimate} too far from exact {exact}"
        );
    }

    #[test]
    fn disjoint_sets_estimate_near_zero() {
        let hasher = MinHasher::new(128, 3);
        let a = char_shingles("completely different text about turtles and rivers", 4);
        let b = char_shingles("module uart_tx(input clk, output reg txd); endmodule", 4);
        let est = hasher.signature(&a).estimate_jaccard(&hasher.signature(&b));
        assert!(est < 0.15, "estimate {est} should be near zero");
    }

    #[test]
    fn signatures_are_deterministic_for_a_seed() {
        let (a, _) = corpus_pair();
        let s1 = MinHasher::new(32, 99).signature(&a);
        let s2 = MinHasher::new(32, 99).signature(&a);
        assert_eq!(s1, s2);
    }

    #[test]
    fn different_seeds_give_different_permutations() {
        let h1 = MinHasher::new(32, 1);
        let h2 = MinHasher::new(32, 2);
        let (a, _) = corpus_pair();
        assert_ne!(h1.signature(&a), h2.signature(&a));
        assert_eq!(h1.permutations(), 32);
        assert_eq!(h1.seed(), 1);
    }

    #[test]
    fn empty_sets_estimate_one() {
        let hasher = MinHasher::new(16, 5);
        let empty = ShingleSet::new();
        let s = hasher.signature(&empty);
        assert_eq!(
            s.estimate_jaccard(&hasher.signature(&ShingleSet::new())),
            1.0
        );
    }

    #[test]
    #[should_panic(expected = "at least one permutation")]
    fn zero_permutations_rejected() {
        let _ = MinHasher::new(0, 0);
    }

    #[test]
    #[should_panic(expected = "different lengths")]
    fn mismatched_signature_lengths_panic() {
        let a = MinHasher::new(8, 1).signature(&ShingleSet::new());
        let b = MinHasher::new(16, 1).signature(&ShingleSet::new());
        let _ = a.estimate_jaccard(&b);
    }
}

#[cfg(test)]
mod batch_tests {
    use super::*;

    #[test]
    fn empty_batch_is_fine() {
        let hasher = MinHasher::new(8, 1);
        assert!(hasher.signatures(&[]).is_empty());
    }
}
