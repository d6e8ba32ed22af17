//! Locality-Sensitive Hashing (banding) over MinHash signatures.
//!
//! The curation framework needs to ask, for every incoming file, "have we
//! already kept something at least 0.85-similar?" without comparing against
//! every kept file. Banding LSH answers that: signatures are split into `b`
//! bands of `r` rows; documents colliding in *any* band become candidates and
//! only candidates are verified with the full signature estimate (and, in the
//! pipeline, exact Jaccard).

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::minhash::Signature;

/// Reusable buffers for candidate retrieval.
///
/// [`LshIndex::candidates`] (and its sharded sibling) must collect, sort and
/// de-duplicate the ids colliding with a query — allocating a fresh set and
/// vector per query. The de-duplication hot loop issues one query per file,
/// so it keeps one `CandidateScratch` alive and calls
/// [`LshIndex::candidates_into`] instead; the buffers are cleared, never
/// freed, between queries.
#[derive(Debug, Clone, Default)]
pub struct CandidateScratch {
    out: Vec<u64>,
}

impl CandidateScratch {
    /// Creates an empty scratch buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The candidates produced by the most recent query, ascending and
    /// unique.
    pub fn candidates(&self) -> &[u64] {
        &self.out
    }

    /// Consumes the scratch, returning the most recent query's candidates.
    pub fn into_vec(self) -> Vec<u64> {
        self.out
    }

    /// Resets the buffer for a new query.
    ///
    /// Public so that external band-at-a-time query drivers (the spill-aware
    /// de-duplicator walks bands one shard at a time, making shards resident
    /// as it goes) can bracket a sequence of
    /// [`crate::ShardedLshIndex::collect_band`] calls: `begin`, collect every
    /// band, then [`Self::finish`].
    pub fn begin(&mut self) {
        self.out.clear();
    }

    pub(crate) fn clear(&mut self) {
        self.out.clear();
    }

    /// Appends raw (possibly duplicated) colliding ids.
    pub(crate) fn extend(&mut self, ids: &[u64]) {
        self.out.extend_from_slice(ids);
    }

    /// Sorts and de-duplicates the collected ids, ending a query started with
    /// [`Self::begin`]. Internal retrieval calls this automatically; it is
    /// public for external band-at-a-time drivers.
    pub fn finish(&mut self) {
        self.out.sort_unstable();
        self.out.dedup();
    }
}

/// Banding parameters for an [`LshIndex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LshParams {
    /// Number of bands the signature is split into.
    pub bands: usize,
    /// Number of rows (signature positions) per band.
    pub rows_per_band: usize,
}

impl LshParams {
    /// Creates banding parameters.
    ///
    /// # Panics
    ///
    /// Panics if either value is zero.
    pub fn new(bands: usize, rows_per_band: usize) -> Self {
        assert!(bands > 0, "bands must be positive");
        assert!(rows_per_band > 0, "rows_per_band must be positive");
        Self {
            bands,
            rows_per_band,
        }
    }

    /// How far a full-coverage banding's threshold error may exceed the best
    /// achievable error before a row-discarding banding is preferred instead.
    /// The S-curve midpoint `(1/b)^(1/r)` is itself only an approximation of
    /// the effective retrieval threshold, so treating errors within a few
    /// hundredths as tied buys full use of every computed permutation. Kept
    /// deliberately small: a higher midpoint lowers candidate-retrieval
    /// probability for pairs sitting exactly at the target similarity (the
    /// exact-verification step downstream is unaffected), so the slack must
    /// stay in the same range as the midpoint approximation error itself.
    const FULL_COVERAGE_TOLERANCE: f64 = 0.03;

    /// Chooses `bands`/`rows` for a signature of `signature_len` positions so
    /// that the S-curve threshold `(1/b)^(1/r)` lands as close as possible to
    /// `target_threshold`.
    ///
    /// When `signature_len % rows != 0` the trailing `signature_len - b·r`
    /// positions take no part in candidate retrieval, wasting permutations
    /// that were computed for every document. Candidates whose error is tied
    /// with (within `FULL_COVERAGE_TOLERANCE`, 0.03, of) the best therefore
    /// prefer full coverage: a banding with `bands * rows == signature_len`
    /// wins unless a row-discarding banding is strictly closer to the target
    /// by more than the tolerance.
    ///
    /// # Panics
    ///
    /// Panics if `signature_len == 0` or the threshold is outside `(0, 1)`.
    pub fn for_threshold(signature_len: usize, target_threshold: f64) -> Self {
        assert!(signature_len > 0, "signature length must be positive");
        assert!(
            target_threshold > 0.0 && target_threshold < 1.0,
            "threshold must lie strictly between 0 and 1"
        );
        let mut best = Self::new(1, signature_len);
        let mut best_err = f64::INFINITY;
        let mut best_full = best;
        let mut best_full_err = (best.threshold() - target_threshold).abs();
        for rows in 1..=signature_len {
            let bands = signature_len / rows;
            if bands == 0 {
                continue;
            }
            let candidate = Self::new(bands, rows);
            let err = (candidate.threshold() - target_threshold).abs();
            if err < best_err {
                best_err = err;
                best = candidate;
            }
            if bands * rows == signature_len && err < best_full_err {
                best_full_err = err;
                best_full = candidate;
            }
        }
        if best_full_err <= best_err + Self::FULL_COVERAGE_TOLERANCE {
            best_full
        } else {
            best
        }
    }

    /// The approximate Jaccard threshold at which the probability of becoming
    /// a candidate crosses 1/2, `(1/b)^(1/r)`.
    pub fn threshold(&self) -> f64 {
        (1.0 / self.bands as f64).powf(1.0 / self.rows_per_band as f64)
    }

    /// Minimum signature length these parameters require.
    pub fn required_signature_len(&self) -> usize {
        self.bands * self.rows_per_band
    }
}

/// An LSH index mapping banded signature fragments to document ids.
///
/// Documents are identified by a caller-supplied `u64` id (the curation
/// pipeline uses its own stable file ids).
///
/// # Example
///
/// ```
/// use textsim::{char_shingles, LshIndex, LshParams, MinHasher};
///
/// let hasher = MinHasher::new(128, 7);
/// let params = LshParams::for_threshold(128, 0.85);
/// let mut index = LshIndex::new(params);
///
/// let a = hasher.signature(&char_shingles("module m(input a); assign y = a; endmodule", 5));
/// index.insert(1, &a);
/// let dup = hasher.signature(&char_shingles("module m(input a); assign y = a; endmodule", 5));
/// assert!(index.candidates(&dup).contains(&1));
/// ```
#[derive(Debug, Clone, Default)]
pub struct LshIndex {
    params: Option<LshParams>,
    buckets: Vec<HashMap<u64, Vec<u64>>>,
    len: usize,
}

impl LshIndex {
    /// Creates an empty index with the given banding parameters.
    pub fn new(params: LshParams) -> Self {
        Self {
            buckets: vec![HashMap::new(); params.bands],
            params: Some(params),
            len: 0,
        }
    }

    /// The banding parameters, if the index was constructed with `new`.
    pub fn params(&self) -> Option<LshParams> {
        self.params
    }

    /// Number of inserted documents.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no documents have been inserted.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Hash key of one band of a signature — shared with
    /// [`crate::ShardedLshIndex`] so both indexes bucket identically.
    pub(crate) fn band_key(signature: &Signature, band: usize, rows: usize) -> u64 {
        // FNV-1a over the band's signature values.
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut hash = OFFSET ^ (band as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let start = band * rows;
        for value in &signature.values()[start..start + rows] {
            for byte in value.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(PRIME);
            }
        }
        hash
    }

    fn check_signature(&self, signature: &Signature) -> LshParams {
        let params = self
            .params
            .expect("LshIndex must be constructed with LshIndex::new");
        assert!(
            signature.len() >= params.required_signature_len(),
            "signature has {} positions but the index requires at least {}",
            signature.len(),
            params.required_signature_len()
        );
        params
    }

    /// Inserts a document id with its signature.
    ///
    /// # Panics
    ///
    /// Panics if the signature is shorter than `bands * rows_per_band`.
    pub fn insert(&mut self, id: u64, signature: &Signature) {
        let params = self.check_signature(signature);
        for band in 0..params.bands {
            let key = Self::band_key(signature, band, params.rows_per_band);
            match self.buckets[band].entry(key) {
                Entry::Occupied(mut e) => e.get_mut().push(id),
                Entry::Vacant(e) => {
                    e.insert(vec![id]);
                }
            }
        }
        self.len += 1;
    }

    /// Returns the ids of all documents sharing at least one band with
    /// `signature`, in ascending order.
    ///
    /// # Panics
    ///
    /// Panics if the signature is shorter than `bands * rows_per_band`.
    pub fn candidates(&self, signature: &Signature) -> Vec<u64> {
        let mut scratch = CandidateScratch::new();
        self.candidates_into(signature, &mut scratch);
        scratch.into_vec()
    }

    /// Scratch-buffer variant of [`Self::candidates`]: produces the same
    /// ids into `scratch` (read them via [`CandidateScratch::candidates`])
    /// without allocating per query once the buffers have warmed up.
    ///
    /// # Panics
    ///
    /// Panics if the signature is shorter than `bands * rows_per_band`.
    pub fn candidates_into(&self, signature: &Signature, scratch: &mut CandidateScratch) {
        let params = self.check_signature(signature);
        scratch.clear();
        for band in 0..params.bands {
            let key = Self::band_key(signature, band, params.rows_per_band);
            if let Some(ids) = self.buckets[band].get(&key) {
                scratch.extend(ids);
            }
        }
        scratch.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minhash::MinHasher;
    use crate::shingle::char_shingles;

    fn sig(hasher: &MinHasher, text: &str) -> Signature {
        hasher.signature(&char_shingles(text, 5))
    }

    #[test]
    fn params_for_threshold_lands_near_target() {
        let p = LshParams::for_threshold(128, 0.85);
        assert!((p.threshold() - 0.85).abs() < 0.1);
        assert!(p.required_signature_len() <= 128);
    }

    #[test]
    fn paper_setup_uses_every_permutation() {
        // Regression: 128 permutations at the 0.85 threshold used to pick
        // 9 bands × 14 rows, silently discarding the last 2 signature rows.
        // Near-tied errors must prefer full coverage (8 × 16 = 128).
        let p = LshParams::for_threshold(128, 0.85);
        assert_eq!(
            p.required_signature_len(),
            128,
            "chose {} bands × {} rows, wasting {} of 128 permutations",
            p.bands,
            p.rows_per_band,
            128 - p.bands * p.rows_per_band
        );
    }

    #[test]
    fn awkward_signature_lengths_may_still_discard_rows() {
        // A prime length has no useful full factorisation; the search must
        // fall back to the closest row-discarding banding rather than pick
        // the degenerate 1-band or 1-row layouts.
        let p = LshParams::for_threshold(127, 0.85);
        assert!((p.threshold() - 0.85).abs() < 0.05);
        assert!(p.bands > 1 && p.rows_per_band > 1);
    }

    #[test]
    fn candidates_into_matches_candidates() {
        let hasher = MinHasher::new(128, 23);
        let params = LshParams::for_threshold(128, 0.85);
        let mut index = LshIndex::new(params);
        let texts = [
            "module a(input x, output y); assign y = ~x; endmodule",
            "module a(input x, output y); assign y = ~x; endmodule",
            "module fifo(input clk, input rst); reg [7:0] mem [0:15]; endmodule",
            "module uart(input clk, output txd); reg [3:0] s; endmodule",
        ];
        for (i, t) in texts.iter().enumerate() {
            index.insert(i as u64, &sig(&hasher, t));
        }
        let mut scratch = CandidateScratch::new();
        for t in &texts {
            let signature = sig(&hasher, t);
            index.candidates_into(&signature, &mut scratch);
            assert_eq!(scratch.candidates(), index.candidates(&signature));
        }
    }

    #[test]
    #[should_panic(expected = "bands must be positive")]
    fn zero_bands_rejected() {
        let _ = LshParams::new(0, 4);
    }

    #[test]
    #[should_panic(expected = "threshold must lie strictly between 0 and 1")]
    fn threshold_out_of_range_rejected() {
        let _ = LshParams::for_threshold(64, 1.5);
    }

    #[test]
    fn near_duplicates_become_candidates() {
        let hasher = MinHasher::new(128, 21);
        let params = LshParams::for_threshold(128, 0.85);
        let mut index = LshIndex::new(params);
        let base = "module counter(input clk, input rst, output reg [7:0] q); \
                    always @(posedge clk) begin if (rst) q <= 8'd0; else q <= q + 8'd1; end endmodule";
        index.insert(10, &sig(&hasher, base));
        // Exact duplicate: must be retrieved.
        let cands = index.candidates(&sig(&hasher, base));
        assert!(cands.contains(&10));
        assert_eq!(index.len(), 1);
        assert!(!index.is_empty());
    }

    #[test]
    fn dissimilar_documents_are_usually_not_candidates() {
        let hasher = MinHasher::new(128, 22);
        let params = LshParams::for_threshold(128, 0.85);
        let mut index = LshIndex::new(params);
        index.insert(
            1,
            &sig(
                &hasher,
                "module alu(input [3:0] a, b, output [3:0] y); assign y = a + b; endmodule",
            ),
        );
        let unrelated = sig(
            &hasher,
            "this text is entirely unrelated prose about gardens, rainfall and mountain trails",
        );
        assert!(index.candidates(&unrelated).is_empty());
    }

    #[test]
    fn candidates_are_sorted_and_unique() {
        let hasher = MinHasher::new(64, 5);
        let params = LshParams::for_threshold(64, 0.5);
        let mut index = LshIndex::new(params);
        let text = "module m; wire a; endmodule";
        index.insert(7, &sig(&hasher, text));
        index.insert(3, &sig(&hasher, text));
        let c = index.candidates(&sig(&hasher, text));
        assert_eq!(c, vec![3, 7]);
    }

    #[test]
    #[should_panic(expected = "signature has")]
    fn short_signature_rejected() {
        let params = LshParams::new(16, 8); // requires 128 positions
        let mut index = LshIndex::new(params);
        let hasher = MinHasher::new(32, 1);
        index.insert(1, &sig(&hasher, "module m; endmodule"));
    }
}
