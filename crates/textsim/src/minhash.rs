//! MinHash signatures.
//!
//! A MinHash signature of a shingle set is a fixed-length vector whose
//! per-position agreement rate between two documents is an unbiased estimate
//! of their Jaccard similarity. The curation pipeline uses signatures of 128
//! permutations (the VeriGen-style setup the paper follows) combined with
//! banding LSH for candidate retrieval.
//!
//! Each permutation is `(a·x + b) mod p` over the Mersenne prime
//! `p = 2^61 − 1`. The product is exact in 128 bits, and the reduction is a
//! division-free fold: since `2^61 ≡ 1 (mod p)`, adding the bits above
//! position 61 to the bits below it preserves the residue, so two fold-adds
//! and one conditional subtract replace a 128-bit `%`. Each shingle is
//! reduced modulo `p` once, outside the permutation loop. Every signature
//! value is bit-identical to the textbook `u128 %` formulation, which the
//! tests check directly and pin on a fixed Verilog text.

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

/// `t mod (2^61 − 1)` for any `t < 2^122`, without a division. That covers
/// every `a·x + b` with `a, x, b < p`, whose largest value is
/// `(p − 1)² + (p − 1)`.
///
/// Writing `t = hi·2^61 + lo` and using `2^61 ≡ 1 (mod p)` gives
/// `t ≡ hi + lo`. With `t < 2^122` the first fold is below `2^62`, the
/// second is at most `p`, and one conditional subtract lands in `[0, p)`.
#[inline]
fn mod_mersenne_61(t: u128) -> u64 {
    let folded = (t as u64 & MERSENNE_61) + (t >> 61) as u64;
    let folded = (folded & MERSENNE_61) + (folded >> 61);
    if folded >= MERSENNE_61 {
        folded - MERSENNE_61
    } else {
        folded
    }
}

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

    /// Computes the MinHash signature of a shingle set.
    ///
    /// An empty shingle set maps every position to `u64::MAX`, so two empty
    /// documents estimate Jaccard 1.0 (matching the exact definition).
    pub fn signature(&self, shingles: &ShingleSet) -> Signature {
        let mut values = vec![u64::MAX; self.coeffs.len()];
        for shingle in shingles.iter() {
            // Reduce outside the permutation loop; the 128-bit product
            // keeps `a·x + b` exact for the fold.
            let x = u128::from(shingle % MERSENNE_61);
            for (value, &(a, b)) in values.iter_mut().zip(&self.coeffs) {
                let h = mod_mersenne_61(u128::from(a) * x + u128::from(b));
                *value = (*value).min(h);
            }
        }
        Signature { values }
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
mod kernel_tests {
    use super::*;
    use crate::shingle::char_shingles;

    /// The textbook reduction the fold replaces.
    fn reference(t: u128) -> u64 {
        (t % u128::from(MERSENNE_61)) as u64
    }

    #[test]
    fn fold_matches_the_remainder_at_the_edges() {
        let p = u128::from(MERSENNE_61);
        let largest_reachable = (p - 1) * (p - 1) + (p - 1);
        for t in [
            0,
            1,
            p - 1,
            p,
            p + 1, // 2^61
            2 * p - 1,
            2 * p,
            1 << 62,
            p * p,
            largest_reachable,
            (1 << 122) - 1,
        ] {
            assert_eq!(mod_mersenne_61(t), reference(t), "fold diverged at t = {t}");
        }
    }

    #[test]
    fn fold_matches_the_remainder_on_a_seeded_sweep() {
        let mut rng = ChaCha8Rng::seed_from_u64(0xF01D);
        for _ in 0..200_000 {
            let a = u128::from(rng.gen_range(0..MERSENNE_61));
            let x = u128::from(rng.gen_range(0..MERSENNE_61));
            let b = u128::from(rng.gen_range(0..MERSENNE_61));
            let t = a * x + b;
            assert_eq!(
                mod_mersenne_61(t),
                reference(t),
                "fold diverged at a = {a}, x = {x}, b = {b}"
            );
        }
    }

    /// A fixed multi-module text; whitespace runs collapse before shingling.
    const TEXT: &str =
        "module counter #(parameter W = 8) (input clk, input rst, output reg [W-1:0] q);\n\
    always @(posedge clk) begin\n\
        if (rst) q <= {W{1'b0}};\n\
        else q <= q + 1'b1;\n\
    end\n\
endmodule\n\
\n\
module mux4 (input [1:0] sel, input [3:0] d, output y);\n\
    assign y = d[sel];\n\
endmodule\n\
\n\
module top (input clk, input rst, output y);\n\
    wire [7:0] count;\n\
    counter #(.W(8)) u_counter (.clk(clk), .rst(rst), .q(count));\n\
    mux4 u_mux (.sel(count[1:0]), .d(count[7:4]), .y(y));\n\
endmodule\n";

    /// The signature of [`TEXT`] under the curation defaults (8-byte
    /// shingles, 128 permutations, seed `0x5EED`), computed with the
    /// textbook `u128 %` reduction that the fold must reproduce bit for bit.
    const PINNED: [u64; 128] = [
        0x0002e8822380bd68,
        0x004f66ba206b8faa,
        0x000c171a828b1a05,
        0x0021f5501724308d,
        0x002be8f8c7864fcb,
        0x0007ba8f600e3cd3,
        0x000070c468ee2233,
        0x000fff5480a89b1f,
        0x000f7140f3c8fd10,
        0x000e5456f599caec,
        0x0013f063ce818e13,
        0x000f5f0bea6fb748,
        0x001b02da83c9662b,
        0x0008e1c8e940a2ed,
        0x000a7c3c9c3405a3,
        0x0014efb334c8c961,
        0x0003f1f30620222b,
        0x0007c8b29e521759,
        0x0000edee9879c343,
        0x0022d3caa5f332d6,
        0x0008b1a27ea037b1,
        0x003a6aa1567ac3e8,
        0x000d800d9197d482,
        0x00054a5b988bc450,
        0x00030164d40ceed6,
        0x0008d6d20bbb2715,
        0x0026fedfaa482ab3,
        0x001a96d531b78b4f,
        0x004661c7d2f0dc18,
        0x000a40359f35b8f0,
        0x002072ebb881cf3b,
        0x0011926c8e5786a0,
        0x000cded981bffc5b,
        0x001ad7c53cada603,
        0x000cf38f6d3cf75c,
        0x00091fcdf0f2a4a1,
        0x000ff6ddf0ee87ae,
        0x00026858abf8d3fc,
        0x000133c51ca94d66,
        0x002dc5050690ab81,
        0x00263d1323e66f8f,
        0x000446b1aeb5d68a,
        0x0019a3ba2200160f,
        0x0011fca5ba8d7b9c,
        0x00486530d8249062,
        0x0002220552fb8adb,
        0x00096e26cf642c30,
        0x0005aaf08bf9a070,
        0x0008c4ea4a418925,
        0x00094dfdef07d06c,
        0x003d54e259c2bfb3,
        0x00116aa808e1d47a,
        0x000fdb4ab7d606d8,
        0x002f591a3125b080,
        0x002fb332342981cc,
        0x000c2a4ab9f15000,
        0x000dbb3f0be7df31,
        0x0003ba10e832a349,
        0x000701c1dc0a38b9,
        0x001b2d9866bf09fb,
        0x002a5fe2d6d8ec4d,
        0x000cbf3d05867aac,
        0x00010d9bd03c229a,
        0x00225cf513d64a49,
        0x00182c371db08c0d,
        0x0001a200911db487,
        0x00093b96c8d0a1ae,
        0x000f0f9e422dc9cf,
        0x0018ab24bdcd5f95,
        0x00108f94364940b4,
        0x00142a1e70014890,
        0x000ef624b918c14b,
        0x00054569737798b6,
        0x000b45c9628969c2,
        0x000347b4f56bb587,
        0x00022c449b6874ee,
        0x00164d136e9cd79b,
        0x0014e779fba9a3e7,
        0x0002b6b8aee9468f,
        0x0003f102411e7ed4,
        0x00042185d894ee3b,
        0x002c6a6442000c64,
        0x0012148b2926329e,
        0x000117757c93f741,
        0x000f5841c3740dcf,
        0x00057d1a7d09b653,
        0x0044b246e41251ba,
        0x000a464f46b4e40e,
        0x001efd495cfe4151,
        0x0007d38f1f1e0f5b,
        0x00002017362cf3f0,
        0x0014427e2e732b7c,
        0x00161a67de6cb882,
        0x0002b97f5b74592c,
        0x0011e2b9872dc105,
        0x00054feae3d8a69c,
        0x000c35f9c85fbeef,
        0x002409f00612fe41,
        0x003681ae42161bae,
        0x001b425145bdb47b,
        0x001184b6b9f3c448,
        0x00005c58ac316233,
        0x0018d19240ba15cb,
        0x0030593e417c2d8e,
        0x000c3b2962957ede,
        0x0006476814e025cf,
        0x0004f5dcaff1c0e4,
        0x00122272383171b6,
        0x0003784a5a9c169b,
        0x0009ef1127e05581,
        0x00091831f7d27634,
        0x001608a8c75884a1,
        0x0006fec1e7b1a308,
        0x000c18c572ba453f,
        0x000df2940dd3d8a1,
        0x0015bbb7b20ac5fc,
        0x0019f8432a5b38f5,
        0x00054994b3e3565e,
        0x002b38adc15ee15d,
        0x000bdf3ffb4a071c,
        0x0029e96583934fda,
        0x00134e5c0c0c4b4f,
        0x0002215da62e101f,
        0x001a63a465dec412,
        0x000612ebd368da6e,
        0x003765537cfb7d96,
        0x000dc852181bfb39,
        0x0000746e8ee67134,
    ];

    #[test]
    fn default_signature_values_are_pinned() {
        let shingles = char_shingles(TEXT, 8);
        assert_eq!(shingles.len(), 380);
        let signature = MinHasher::new(128, 0x5EED).signature(&shingles);
        assert_eq!(signature.values(), &PINNED[..]);
    }
}
