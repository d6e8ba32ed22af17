//! A sharded LSH index for streaming, bounded-memory de-duplication.
//!
//! [`crate::LshIndex`] keeps one bucket map per band; at corpus scale those
//! maps grow without bound and can only live in one allocation arena. A
//! [`ShardedLshIndex`] routes every `(band, bucket key)` pair to one of `n`
//! shards by the bucket key's value — *merge-free* sharding: a bucket lives
//! in exactly one shard, so no cross-shard reconciliation is ever needed and
//! the candidate set for any query is byte-identical to the unsharded
//! index's, whatever the shard count. Shards are the unit a bounded-memory
//! engine accounts, compacts or spills to disk independently.
//!
//! The index exposes the incremental [`ShardedLshIndex::insert_or_match`]
//! primitive the streaming de-duplicator is built on: verify a query against
//! the colliding documents in ascending-id order and either report the first
//! confirmed match or insert the query as a newly kept document.
//!
//! # Spill mechanics
//!
//! Each shard can be detached into a deterministic byte serialization
//! ([`ShardedLshIndex::evict_shard`]) and re-attached later
//! ([`ShardedLshIndex::restore_shard`]); a non-resident shard occupies no
//! memory beyond its `Option` slot. The index itself enforces no residency
//! policy — that belongs to the engine driving it (see
//! `curation::StreamingDeduplicator`), which walks queries and insertions
//! *band by band* with [`ShardedLshIndex::shard_for_band`],
//! [`ShardedLshIndex::collect_band`] and [`ShardedLshIndex::insert_band`],
//! making each band's shard resident just before touching it, so at most
//! one shard needs to be loaded at a time and a resident-shard budget of 1
//! is already sufficient for byte-identical operation.

use std::collections::HashMap;
use std::io;

use crate::lsh::{CandidateScratch, LshIndex, LshParams};
use crate::minhash::Signature;

/// One shard's bucket map: inserted ids keyed by `(band, band key)`.
type ShardBuckets = HashMap<(u32, u64), Vec<u64>>;

/// Default shard count: enough shards that per-shard residency is a useful
/// accounting unit at realistic corpus sizes, few enough that empty-shard
/// overhead stays negligible for small inputs.
pub const DEFAULT_LSH_SHARDS: usize = 16;

/// An LSH index whose buckets are partitioned across shards by band hash.
///
/// Functionally equivalent to [`LshIndex`] — same banding, same bucket keys,
/// identical candidate sets — but the bucket space is split into independent
/// shards so memory can be tracked and spilled per shard.
///
/// # Example
///
/// ```
/// use textsim::{char_shingles, LshParams, MinHasher, ShardedLshIndex};
///
/// let hasher = MinHasher::new(128, 7);
/// let params = LshParams::for_threshold(128, 0.85);
/// let mut index = ShardedLshIndex::new(params);
///
/// let a = hasher.signature(&char_shingles("module m(input a); assign y = a; endmodule", 5));
/// index.insert(1, &a);
/// let dup = hasher.signature(&char_shingles("module m(input a); assign y = a; endmodule", 5));
/// assert!(index.candidates(&dup).contains(&1));
/// ```
#[derive(Debug, Clone)]
pub struct ShardedLshIndex {
    params: LshParams,
    /// One bucket map per shard, keyed by `(band, band key)`. Keying by the
    /// pair (rather than the salted key alone) keeps the semantics exactly
    /// those of the unsharded index's per-band maps. `None` marks a shard
    /// that has been evicted ([`Self::evict_shard`]) and whose bytes the
    /// caller is holding (typically on disk).
    shards: Vec<Option<ShardBuckets>>,
    /// Occupied-bucket count per shard, maintained across evictions so the
    /// residency profile stays reportable while a shard is cold.
    bucket_counts: Vec<usize>,
    len: usize,
}

/// The outcome of [`ShardedLshIndex::insert_or_match`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InsertOrMatch {
    /// No colliding document verified as a match; the query was inserted.
    Inserted,
    /// A previously inserted document matched: `(id, similarity)` of the
    /// first (lowest-id) confirmed match. The query was *not* inserted.
    Matched(u64, f64),
}

/// Appends one little-endian `u64` to a byte stream — the framing primitive
/// the shard serializer is built on, public so spill engines embedding
/// shard streams in their own files use the same framing.
pub fn write_u64_le(out: &mut Vec<u8>, value: u64) {
    out.extend_from_slice(&value.to_le_bytes());
}

/// Reads one little-endian `u64` at `*offset`, advancing it — the inverse
/// of [`write_u64_le`].
///
/// # Errors
///
/// Returns [`io::ErrorKind::InvalidData`] if fewer than 8 bytes remain;
/// `*offset` is then left as it was.
pub fn read_u64_le(bytes: &[u8], offset: &mut usize) -> io::Result<u64> {
    let end = offset.saturating_add(8);
    let word: [u8; 8] = bytes
        .get(*offset..end)
        .and_then(|word| word.try_into().ok())
        .ok_or_else(|| invalid_data("byte stream truncated"))?;
    *offset = end;
    Ok(u64::from_le_bytes(word))
}

/// Reads a length prefix with [`read_u64_le`] and checks it against the
/// bytes left, so a corrupt count is rejected before it sizes an allocation:
/// `count` items of at least `min_item_bytes` bytes each must fit in what
/// remains after the prefix.
///
/// # Errors
///
/// Returns [`io::ErrorKind::InvalidData`] if the prefix is truncated or the
/// count cannot fit.
pub fn read_count_le(bytes: &[u8], offset: &mut usize, min_item_bytes: usize) -> io::Result<usize> {
    let count = read_u64_le(bytes, offset)?;
    let remaining = bytes.len().saturating_sub(*offset);
    usize::try_from(count)
        .ok()
        .filter(|&count| count.saturating_mul(min_item_bytes) <= remaining)
        .ok_or_else(|| invalid_data(format!("count {count} overruns the {remaining} bytes left")))
}

/// An [`io::ErrorKind::InvalidData`] error for a malformed byte stream.
fn invalid_data(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
}

impl ShardedLshIndex {
    /// Creates an empty index with [`DEFAULT_LSH_SHARDS`] shards.
    pub fn new(params: LshParams) -> Self {
        Self::with_shards(params, DEFAULT_LSH_SHARDS)
    }

    /// Creates an empty index with an explicit shard count.
    ///
    /// # Panics
    ///
    /// Panics if `shard_count == 0`.
    pub fn with_shards(params: LshParams, shard_count: usize) -> Self {
        assert!(shard_count > 0, "shard count must be positive");
        Self {
            params,
            shards: vec![Some(HashMap::new()); shard_count],
            bucket_counts: vec![0; shard_count],
            len: 0,
        }
    }

    /// The banding parameters.
    pub fn params(&self) -> LshParams {
        self.params
    }

    /// Number of shards the bucket space is split across.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of inserted documents.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no documents have been inserted.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of occupied buckets in each shard — the residency profile a
    /// bounded-memory engine accounts against. Maintained across evictions:
    /// a spilled shard still reports the bucket count it will have once
    /// restored.
    pub fn shard_bucket_counts(&self) -> Vec<usize> {
        self.bucket_counts.clone()
    }

    /// Whether `shard` currently holds its bucket map in memory.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn shard_is_resident(&self, shard: usize) -> bool {
        self.shards[shard].is_some()
    }

    /// Number of shards currently resident in memory.
    pub fn resident_shard_count(&self) -> usize {
        self.shards.iter().filter(|s| s.is_some()).count()
    }

    /// Deterministic shard routing: Fibonacci-hash the (already salted) band
    /// key so consecutive keys spread evenly whatever the shard count.
    fn shard_of(&self, key: u64) -> usize {
        let mixed = key.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        (mixed % self.shards.len() as u64) as usize
    }

    fn check_signature(&self, signature: &Signature) {
        assert!(
            signature.len() >= self.params.required_signature_len(),
            "signature has {} positions but the index requires at least {}",
            signature.len(),
            self.params.required_signature_len()
        );
    }

    fn check_band(&self, band: usize) {
        assert!(
            band < self.params.bands,
            "band {band} out of range for {} bands",
            self.params.bands
        );
    }

    fn resident(&self, shard: usize) -> &ShardBuckets {
        self.shards[shard]
            .as_ref()
            .unwrap_or_else(|| panic!("shard {shard} is spilled; restore it before accessing"))
    }

    /// The shard holding `signature`'s bucket for `band` — where a
    /// band-at-a-time driver must ensure residency before calling
    /// [`Self::collect_band`] or [`Self::insert_band`].
    ///
    /// # Panics
    ///
    /// Panics if the signature is too short or `band` is out of range.
    pub fn shard_for_band(&self, signature: &Signature, band: usize) -> usize {
        self.check_signature(signature);
        self.check_band(band);
        self.shard_of(LshIndex::band_key(
            signature,
            band,
            self.params.rows_per_band,
        ))
    }

    /// Serializes `shard`'s bucket map into a deterministic byte stream
    /// (entries ascending by `(band, key)`) and drops it from memory. The
    /// caller owns the bytes — typically writing them to disk — and brings
    /// the shard back with [`Self::restore_shard`].
    ///
    /// # Panics
    ///
    /// Panics if the shard is already spilled or out of range.
    pub fn evict_shard(&mut self, shard: usize) -> Vec<u8> {
        let map = self.shards[shard]
            .take()
            .unwrap_or_else(|| panic!("shard {shard} is already spilled"));
        let mut entries: Vec<((u32, u64), Vec<u64>)> = map.into_iter().collect();
        entries.sort_unstable_by_key(|&(key, _)| key);
        let mut out = Vec::new();
        write_u64_le(&mut out, entries.len() as u64);
        for ((band, key), ids) in &entries {
            write_u64_le(&mut out, u64::from(*band));
            write_u64_le(&mut out, *key);
            write_u64_le(&mut out, ids.len() as u64);
            for id in ids {
                write_u64_le(&mut out, *id);
            }
        }
        out
    }

    /// Re-attaches a shard from bytes produced by [`Self::evict_shard`].
    /// Restoring then querying is byte-identical to never having evicted:
    /// bucket contents, id order within each bucket, and therefore candidate
    /// sets are all preserved.
    ///
    /// # Errors
    ///
    /// Returns [`io::ErrorKind::InvalidData`] if the bytes are malformed:
    /// truncated, followed by trailing bytes, carrying a count that overruns
    /// the stream, or holding a bucket count other than the one the index
    /// accounted at eviction. The shard then stays spilled.
    ///
    /// # Panics
    ///
    /// Panics if the shard is still resident or out of range.
    pub fn restore_shard(&mut self, shard: usize, bytes: &[u8]) -> io::Result<()> {
        assert!(
            self.shards[shard].is_none(),
            "shard {shard} is already resident"
        );
        let mut offset = 0usize;
        // Each entry is at least its band, key and id count.
        let entry_count = read_count_le(bytes, &mut offset, 24)?;
        let mut map = HashMap::with_capacity(entry_count);
        for _ in 0..entry_count {
            let band = u32::try_from(read_u64_le(bytes, &mut offset)?)
                .map_err(|_| invalid_data("band index out of range"))?;
            let key = read_u64_le(bytes, &mut offset)?;
            let id_count = read_count_le(bytes, &mut offset, 8)?;
            let mut ids = Vec::with_capacity(id_count);
            for _ in 0..id_count {
                ids.push(read_u64_le(bytes, &mut offset)?);
            }
            map.insert((band, key), ids);
        }
        if offset != bytes.len() {
            return Err(invalid_data("trailing bytes after shard stream"));
        }
        if map.len() != self.bucket_counts[shard] {
            return Err(invalid_data(format!(
                "restored shard {shard} holds {} buckets but {} were evicted",
                map.len(),
                self.bucket_counts[shard]
            )));
        }
        self.shards[shard] = Some(map);
        Ok(())
    }

    /// Inserts a document id with its signature.
    ///
    /// # Panics
    ///
    /// Panics if the signature is shorter than `bands * rows_per_band` or a
    /// touched shard is spilled.
    pub fn insert(&mut self, id: u64, signature: &Signature) {
        self.check_signature(signature);
        for band in 0..self.params.bands {
            self.insert_band(id, signature, band);
        }
        self.commit_insert();
    }

    /// Inserts `id` into the bucket of one band only — the spill-aware
    /// driver's primitive: make the band's shard resident, insert, move on.
    /// After inserting into *every* band, call [`Self::commit_insert`] to
    /// count the document. `insert` is exactly that loop.
    ///
    /// # Panics
    ///
    /// Panics if the signature is too short, `band` is out of range, or the
    /// band's shard is spilled.
    pub fn insert_band(&mut self, id: u64, signature: &Signature, band: usize) {
        self.check_signature(signature);
        self.check_band(band);
        let key = LshIndex::band_key(signature, band, self.params.rows_per_band);
        let shard = self.shard_of(key);
        let bucket = self.shards[shard]
            .as_mut()
            .unwrap_or_else(|| panic!("shard {shard} is spilled; restore it before accessing"))
            .entry((band as u32, key))
            .or_default();
        let new_bucket = bucket.is_empty();
        bucket.push(id);
        if new_bucket {
            self.bucket_counts[shard] += 1;
        }
    }

    /// Counts one document as inserted, after its id has been pushed into
    /// every band with [`Self::insert_band`].
    pub fn commit_insert(&mut self) {
        self.len += 1;
    }

    /// Returns the ids of all documents sharing at least one band with
    /// `signature`, ascending and unique — byte-identical to
    /// [`LshIndex::candidates`] over the same insertions.
    ///
    /// # Panics
    ///
    /// Panics if the signature is shorter than `bands * rows_per_band` or a
    /// touched shard is spilled.
    pub fn candidates(&self, signature: &Signature) -> Vec<u64> {
        let mut scratch = CandidateScratch::new();
        self.candidates_into(signature, &mut scratch);
        scratch.into_vec()
    }

    /// Scratch-buffer variant of [`Self::candidates`], for hot loops issuing
    /// one query per document.
    ///
    /// # Panics
    ///
    /// Panics if the signature is shorter than `bands * rows_per_band` or a
    /// touched shard is spilled.
    pub fn candidates_into(&self, signature: &Signature, scratch: &mut CandidateScratch) {
        self.check_signature(signature);
        scratch.clear();
        for band in 0..self.params.bands {
            self.collect_band(signature, band, scratch);
        }
        scratch.finish();
    }

    /// Appends the colliding ids of one band into `scratch` (no clear, no
    /// sort) — the spill-aware driver's retrieval primitive. Bracket a full
    /// query with [`CandidateScratch::begin`] and [`CandidateScratch::finish`]
    /// around one call per band; the result is byte-identical to
    /// [`Self::candidates_into`].
    ///
    /// # Panics
    ///
    /// Panics if the signature is too short, `band` is out of range, or the
    /// band's shard is spilled.
    pub fn collect_band(&self, signature: &Signature, band: usize, scratch: &mut CandidateScratch) {
        self.check_signature(signature);
        self.check_band(band);
        let key = LshIndex::band_key(signature, band, self.params.rows_per_band);
        let shard = self.shard_of(key);
        if let Some(ids) = self.resident(shard).get(&(band as u32, key)) {
            scratch.extend(ids);
        }
    }

    /// The incremental de-duplication primitive: retrieves the documents
    /// colliding with `signature`, verifies each in ascending-id order with
    /// `verify` (which returns `Some(similarity)` to confirm a match), and
    /// either reports the first confirmed match or inserts `id`.
    ///
    /// # Panics
    ///
    /// Panics if the signature is shorter than `bands * rows_per_band` or a
    /// touched shard is spilled.
    pub fn insert_or_match(
        &mut self,
        id: u64,
        signature: &Signature,
        scratch: &mut CandidateScratch,
        mut verify: impl FnMut(u64) -> Option<f64>,
    ) -> InsertOrMatch {
        self.candidates_into(signature, scratch);
        for &candidate in scratch.candidates() {
            if let Some(similarity) = verify(candidate) {
                return InsertOrMatch::Matched(candidate, similarity);
            }
        }
        self.insert(id, signature);
        InsertOrMatch::Inserted
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

    fn corpus() -> Vec<String> {
        (0..40)
            .map(|i| {
                if i % 4 == 0 {
                    "module dup(input a, output y); assign y = a; endmodule".to_string()
                } else {
                    format!("module m{i}(input a{i}, output y{i}); assign y{i} = a{i} ^ {i}'d1; endmodule")
                }
            })
            .collect()
    }

    #[test]
    fn sharded_candidates_match_unsharded_for_any_shard_count() {
        let hasher = MinHasher::new(128, 77);
        let params = LshParams::for_threshold(128, 0.85);
        let texts = corpus();
        let mut reference = LshIndex::new(params);
        for (i, t) in texts.iter().enumerate() {
            reference.insert(i as u64, &sig(&hasher, t));
        }
        for shard_count in [1, 2, 7, 16, 64] {
            let mut index = ShardedLshIndex::with_shards(params, shard_count);
            for (i, t) in texts.iter().enumerate() {
                index.insert(i as u64, &sig(&hasher, t));
            }
            assert_eq!(index.len(), reference.len());
            assert_eq!(index.shard_count(), shard_count);
            for t in &texts {
                let signature = sig(&hasher, t);
                assert_eq!(
                    index.candidates(&signature),
                    reference.candidates(&signature),
                    "candidate sets diverged at {shard_count} shards"
                );
            }
        }
    }

    #[test]
    fn buckets_spread_across_shards() {
        let hasher = MinHasher::new(128, 5);
        let params = LshParams::for_threshold(128, 0.85);
        let mut index = ShardedLshIndex::with_shards(params, 8);
        for (i, t) in corpus().iter().enumerate() {
            index.insert(i as u64, &sig(&hasher, t));
        }
        let counts = index.shard_bucket_counts();
        assert_eq!(counts.len(), 8);
        let occupied = counts.iter().filter(|&&c| c > 0).count();
        assert!(occupied > 1, "all buckets landed in one shard: {counts:?}");
        assert!(counts.iter().sum::<usize>() > 0, "no buckets recorded");
    }

    #[test]
    fn insert_or_match_finds_first_confirmed_duplicate() {
        let hasher = MinHasher::new(128, 9);
        let params = LshParams::for_threshold(128, 0.85);
        let mut index = ShardedLshIndex::new(params);
        let mut scratch = CandidateScratch::new();
        let text = "module dup(input a, output y); assign y = a; endmodule";
        let s = sig(&hasher, text);
        assert_eq!(
            index.insert_or_match(0, &s, &mut scratch, |_| None),
            InsertOrMatch::Inserted
        );
        assert_eq!(index.len(), 1);
        // Second identical document: candidate 0 verifies as a duplicate.
        let outcome = index.insert_or_match(1, &s, &mut scratch, |id| (id == 0).then_some(1.0));
        assert_eq!(outcome, InsertOrMatch::Matched(0, 1.0));
        assert_eq!(index.len(), 1, "matched documents must not be inserted");
        // Verification veto: if the verifier rejects every candidate, the
        // document is kept even though LSH retrieved collisions.
        let outcome = index.insert_or_match(2, &s, &mut scratch, |_| None);
        assert_eq!(outcome, InsertOrMatch::Inserted);
        assert_eq!(index.len(), 2);
    }

    #[test]
    fn evict_restore_roundtrip_preserves_candidates_and_accounting() {
        let hasher = MinHasher::new(128, 13);
        let params = LshParams::for_threshold(128, 0.85);
        let texts = corpus();
        let mut reference = ShardedLshIndex::with_shards(params, 8);
        let mut index = ShardedLshIndex::with_shards(params, 8);
        for (i, t) in texts.iter().enumerate() {
            reference.insert(i as u64, &sig(&hasher, t));
            index.insert(i as u64, &sig(&hasher, t));
        }
        let counts_before = index.shard_bucket_counts();
        // Evict every shard, hold the bytes, restore in a scrambled order.
        let bytes: Vec<Vec<u8>> = (0..8).map(|s| index.evict_shard(s)).collect();
        assert_eq!(index.resident_shard_count(), 0);
        assert!(!index.shard_is_resident(3));
        // Accounting survives eviction.
        assert_eq!(index.shard_bucket_counts(), counts_before);
        for s in [5, 0, 7, 2, 1, 6, 4, 3] {
            index
                .restore_shard(s, &bytes[s])
                .expect("evicted bytes restore");
        }
        assert_eq!(index.resident_shard_count(), 8);
        assert_eq!(index.shard_bucket_counts(), counts_before);
        for t in &texts {
            let signature = sig(&hasher, t);
            assert_eq!(
                index.candidates(&signature),
                reference.candidates(&signature),
                "candidates diverged after an evict/restore roundtrip"
            );
        }
    }

    #[test]
    fn band_at_a_time_query_and_insert_match_the_one_shot_paths() {
        let hasher = MinHasher::new(128, 21);
        let params = LshParams::for_threshold(128, 0.85);
        let texts = corpus();
        let mut reference = ShardedLshIndex::with_shards(params, 8);
        let mut index = ShardedLshIndex::with_shards(params, 8);
        for (i, t) in texts.iter().enumerate() {
            let signature = sig(&hasher, t);
            reference.insert(i as u64, &signature);
            for band in 0..params.bands {
                // The driver would ensure residency here, one shard at a time.
                let shard = index.shard_for_band(&signature, band);
                assert!(shard < index.shard_count());
                index.insert_band(i as u64, &signature, band);
            }
            index.commit_insert();
        }
        assert_eq!(index.len(), reference.len());
        let mut scratch = CandidateScratch::new();
        for t in &texts {
            let signature = sig(&hasher, t);
            scratch.begin();
            for band in 0..params.bands {
                index.collect_band(&signature, band, &mut scratch);
            }
            scratch.finish();
            assert_eq!(scratch.candidates(), reference.candidates(&signature));
        }
    }

    #[test]
    fn framing_reads_reject_truncated_and_overrunning_streams() {
        let mut bytes = Vec::new();
        write_u64_le(&mut bytes, 3);
        let mut offset = 0;
        assert_eq!(read_u64_le(&bytes, &mut offset).unwrap(), 3);
        let err = read_u64_le(&bytes, &mut offset).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(offset, 8, "a failed read must not advance");
        // Three 8-byte items need 24 bytes after the prefix; 16 are there.
        bytes.extend_from_slice(&[0; 16]);
        let err = read_count_le(&bytes, &mut 0, 8).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        bytes.extend_from_slice(&[0; 8]);
        assert_eq!(read_count_le(&bytes, &mut 0, 8).unwrap(), 3);
    }

    #[test]
    fn corrupt_shard_bytes_are_rejected_and_the_shard_stays_spilled() {
        let hasher = MinHasher::new(128, 13);
        let params = LshParams::for_threshold(128, 0.85);
        let mut index = ShardedLshIndex::with_shards(params, 2);
        for (i, t) in corpus().iter().enumerate() {
            index.insert(i as u64, &sig(&hasher, t));
        }
        let bytes = index.evict_shard(0);
        let mut trailing = bytes.clone();
        trailing.push(0);
        // A garbage entry count that would abort on allocation if trusted.
        let mut huge_count = bytes.clone();
        huge_count[..8].copy_from_slice(&u64::MAX.to_le_bytes());
        // One bucket short of what was evicted, framed correctly.
        let mut short = Vec::new();
        write_u64_le(&mut short, 0);
        for corrupt in [
            &bytes[..bytes.len() - 1],
            &bytes[..5],
            &[][..],
            &trailing,
            &huge_count,
            &short,
        ] {
            let err = index.restore_shard(0, corrupt).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
            assert!(!index.shard_is_resident(0));
        }
        index
            .restore_shard(0, &bytes)
            .expect("intact bytes restore");
        assert!(index.shard_is_resident(0));
    }

    #[test]
    #[should_panic(expected = "is spilled")]
    fn querying_a_spilled_shard_panics() {
        let hasher = MinHasher::new(128, 9);
        let params = LshParams::for_threshold(128, 0.85);
        let mut index = ShardedLshIndex::with_shards(params, 1);
        let s = sig(&hasher, "module m(input a); assign y = a; endmodule");
        index.insert(0, &s);
        let _ = index.evict_shard(0);
        let _ = index.candidates(&s);
    }

    #[test]
    #[should_panic(expected = "already spilled")]
    fn double_eviction_panics() {
        let params = LshParams::new(8, 16);
        let mut index = ShardedLshIndex::with_shards(params, 2);
        let _ = index.evict_shard(1);
        let _ = index.evict_shard(1);
    }

    #[test]
    #[should_panic(expected = "shard count must be positive")]
    fn zero_shards_rejected() {
        let params = LshParams::new(8, 16);
        let _ = ShardedLshIndex::with_shards(params, 0);
    }

    #[test]
    #[should_panic(expected = "signature has")]
    fn short_signature_rejected() {
        let params = LshParams::new(16, 8);
        let mut index = ShardedLshIndex::new(params);
        let hasher = MinHasher::new(32, 1);
        index.insert(1, &sig(&hasher, "module m; endmodule"));
    }
}
