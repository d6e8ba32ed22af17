//! MinHash + LSH near-duplicate removal (§III-D2).
//!
//! Following VeriGen's procedure as described in the paper, every file is
//! reduced to a MinHash signature of its shingle set, locality-sensitive
//! hashing retrieves previously-kept files that may be similar, and a file
//! is discarded when its similarity with any kept file reaches the 0.85
//! threshold. Candidates are verified with exact Jaccard similarity so LSH
//! false positives cannot evict distinct files.
//!
//! Two entry points share one engine. [`Deduplicator`] is the one-shot API:
//! hand it a complete bank, get the kept/removed partition back.
//! [`StreamingDeduplicator`] is the incremental engine underneath: batches
//! are pushed as they arrive (e.g. straight off the scraper's stream) and
//! resolved against the persistent kept-index immediately, so the corpus
//! never has to be buffered.
//!
//! The engine's state lives in memory: an [`LshIndex`] with one bucket table
//! per band, and the kept documents' shingle hashes in one flat vector
//! addressed by the ids the index returns. The largest benchmark build keeps
//! about 1.1 million hashes (9 MB). Under a [`crate::CurationSession`] the
//! batch in flight is one flush, which holds at most 256 KiB of file content
//! plus the push that filled it.
//!
//! **Exact-hash pre-dedup** (on by default, [`DedupConfig::exact_prededup`])
//! bounds the signature work by the number of *distinct* contents: every
//! file's shingle-normalized content (comment-stripped, exactly the text the
//! shingles are built from) is fingerprinted, and a repeat of previously
//! seen content short-circuits to the first occurrence's resolution *before*
//! any shingling or MinHash work — real scraped corpora are full of
//! byte-identical forks, and signature construction is the dominant cost.
//! The short-circuit is output-invariant: identical content ⇒ identical
//! shingle set ⇒ identical signature ⇒ the sequential resolution reaches the
//! very same verdict (pinned by the property tests). Repeats are recognised
//! by a 128-bit fingerprint plus length, so a false match is astronomically
//! unlikely rather than impossible.
//!
//! Each document that does reach the signature path costs one shingle build
//! and one 128-permutation signature. [`textsim::char_shingles`] returns a
//! [`ShingleSet`] that is one ascending, de-duplicated `Vec<u64>` (one sort
//! instead of an ordered-set insert per 8-byte window), and
//! [`MinHasher::signature`] reduces `a·x + b` modulo `2^61 − 1` with a
//! division-free Mersenne fold instead of a 128-bit `%`. Both produce
//! exactly the sets and signature values of the textbook formulation, so
//! candidate sets and verdicts do not change. Parallel mode builds a
//! document's shingles and signature in one fan-out, and a kept document's
//! hashes are copied into an exact-length vector on the resolving thread,
//! so the kept store carries no spare builder capacity.

use std::collections::HashMap;
use std::io;

use serde::{Deserialize, Serialize};
use textsim::{
    char_shingles, jaccard_similarity_sorted, CandidateScratch, LshIndex, LshParams, MinHasher,
    ShingleSet, Signature,
};

use crate::stage::ExecutionMode;

/// Configuration of the de-duplicator. The shingle size and the MinHash
/// permutation family are constants of this module.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DedupConfig {
    /// Jaccard similarity at or above which a file counts as a duplicate.
    pub similarity_threshold: f64,
    /// Short-circuit repeats of already-seen (comment-stripped) content to
    /// the first occurrence's resolution before building shingles or MinHash
    /// signatures. Output-invariant; disable only to benchmark the full
    /// signature path.
    pub exact_prededup: bool,
}

impl Default for DedupConfig {
    fn default() -> Self {
        Self {
            similarity_threshold: 0.85,
            exact_prededup: true,
        }
    }
}

/// Character shingle size.
const SHINGLE_SIZE: usize = 8;

/// Number of MinHash permutations.
const PERMUTATIONS: usize = 128;

/// Seed for the MinHash permutation family.
const MINHASH_SEED: u64 = 0x5EED;

/// A spill-to-disk policy for the de-duplicator's kept state. The type has
/// no values.
///
/// The engine keeps its whole state in memory, so there is no policy to
/// set: [`crate::CurationConfig::dedup_spill`] can only be `None`,
/// [`crate::DedupStage::spill_config`] always returns `None`, and
/// [`Deduplicator::streaming_with_spill`] cannot be called. The name stays
/// for callers that still pass the field through. A bounded-memory kept
/// store belongs with a persistent corpus service, which this crate does
/// not have.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub enum DedupSpillConfig {}

// Written out because the offline `serde` stand-in's derive matches on
// `self`, a reference, which the compiler does not treat as uninhabited.
impl Serialize for DedupSpillConfig {
    fn to_value(&self) -> serde::Value {
        match *self {}
    }
}

/// The result of de-duplicating a file bank.
///
/// Indices refer to the de-duplicator's input order: for a one-shot
/// [`Deduplicator`] call that is the input slice; for a
/// [`StreamingDeduplicator`] they are *global* positions across every batch
/// pushed so far (so a later batch's duplicate can point back at a file kept
/// from an earlier batch).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct DedupOutcome {
    /// Indices (into the input order) of the files that were kept.
    pub kept: Vec<usize>,
    /// `(dropped_index, kept_index_it_duplicates, similarity)` for removals.
    pub removed: Vec<(usize, usize, f64)>,
}

impl DedupOutcome {
    /// Fraction of the input that was removed.
    pub fn removal_rate(&self) -> f64 {
        let total = self.kept.len() + self.removed.len();
        if total == 0 {
            0.0
        } else {
            self.removed.len() as f64 / total as f64
        }
    }
}

/// MinHash/LSH de-duplicator.
///
/// # Example
///
/// ```
/// use curation::{DedupConfig, Deduplicator};
///
/// let dedup = Deduplicator::new(DedupConfig::default());
/// let docs = vec![
///     "module a(input x, output y); assign y = ~x; endmodule".to_string(),
///     "module a(input x, output y); assign y = ~x; endmodule".to_string(),
///     "module fifo(input clk, input rst); reg [7:0] mem [0:15]; endmodule".to_string(),
/// ];
/// let outcome = dedup.dedup_texts(&docs);
/// assert_eq!(outcome.kept.len(), 2);
/// assert_eq!(outcome.removed.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Deduplicator {
    config: DedupConfig,
    hasher: MinHasher,
    lsh_params: LshParams,
}

impl Deduplicator {
    /// Creates a de-duplicator.
    ///
    /// # Panics
    ///
    /// Panics if the similarity threshold lies outside `(0, 1)`.
    pub fn new(config: DedupConfig) -> Self {
        let hasher = MinHasher::new(PERMUTATIONS, MINHASH_SEED);
        let lsh_params = LshParams::for_threshold(PERMUTATIONS, config.similarity_threshold);
        Self {
            config,
            hasher,
            lsh_params,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> DedupConfig {
        self.config
    }

    /// Opens a stateful streaming engine with this de-duplicator's
    /// configuration (sharing its already-built permutation family).
    pub fn streaming(&self) -> StreamingDeduplicator {
        StreamingDeduplicator {
            config: self.config,
            hasher: self.hasher.clone(),
            index: LshIndex::new(self.lsh_params),
            kept: Vec::new(),
            exact: HashMap::new(),
            scratch: CandidateScratch::new(),
            seen: 0,
            kept_hashes: 0,
            pushed_hashes: 0,
            peak_batch_hashes: 0,
            exact_hits: 0,
        }
    }

    /// Opens a streaming engine under a spill policy. [`DedupSpillConfig`]
    /// has no values, so this cannot be called; use [`Self::streaming`].
    pub fn streaming_with_spill(
        &self,
        spill: &DedupSpillConfig,
    ) -> io::Result<StreamingDeduplicator> {
        match *spill {}
    }

    /// De-duplicates a slice of raw texts, keeping the first occurrence of
    /// each near-duplicate group. Runs single-threaded; see
    /// [`Self::dedup_texts_with_mode`] for the parallel variant.
    pub fn dedup_texts<S: AsRef<str> + Sync>(&self, texts: &[S]) -> DedupOutcome {
        self.dedup_texts_with_mode(texts, ExecutionMode::Serial)
    }

    /// De-duplicates a slice of raw texts with the given execution mode — a
    /// single-push [`StreamingDeduplicator`], so the one-shot and streamed
    /// paths cannot diverge.
    ///
    /// The keep/drop loop is inherently sequential (a file is compared
    /// against previously *kept* files), but shingling and signature
    /// construction — the dominant cost — are embarrassingly parallel:
    /// parallel mode computes them for the whole batch up front (order
    /// stable), while serial mode streams them per file so its peak memory
    /// stays proportional to the *kept* set. The outcome is identical in
    /// both modes.
    pub fn dedup_texts_with_mode<S: AsRef<str> + Sync>(
        &self,
        texts: &[S],
        mode: ExecutionMode,
    ) -> DedupOutcome {
        self.streaming().push_texts_with_mode(texts, mode)
    }
}

/// Counters of a [`StreamingDeduplicator`]: how much it has been fed, how
/// often the exact-hash fast path answered, and how many shingle hashes it
/// holds and has built.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct StreamingDedupStats {
    /// Total documents pushed so far.
    pub pushed: usize,
    /// Documents short-circuited by the exact-hash table without building
    /// shingles or a signature.
    pub exact_hits: usize,
    /// Documents currently kept.
    pub kept_docs: usize,
    /// Total shingle hashes stored for the kept documents — the dominant
    /// kept-state term, one `u64` per hash.
    pub kept_hashes: usize,
    /// Total shingle hashes across every *signature-built* document (exact
    /// hits never materialise shingles) — what a corpus-buffering
    /// implementation without the exact-hash fast path would have had to
    /// construct and hold at once.
    pub pushed_hashes: usize,
    /// Shingle hashes built for the largest single push — the batch-shaped
    /// transient working-set bound, identical in both execution modes
    /// (serial mode actually materialises only one file of it at a time).
    /// Under a [`crate::CurationSession`] each push is one flushed batch, so
    /// this stays at or under the session's 256 KiB flush budget plus its
    /// largest single push: a file never has more shingles than bytes.
    pub peak_batch_hashes: usize,
}

/// Exact-table key: a 128-bit fingerprint (two independent 64-bit mixes
/// over the same byte stream) plus the content length. A single 64-bit hash
/// would make an accidental collision — which silently drops a unique
/// document — reachable at very large corpus scales and constructible for
/// adversarial inputs; with 128 bits + length the birthday bound is ~2⁶⁴
/// *distinct contents*, negligible at any realistic scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct ContentFingerprint {
    fnv: u64,
    mix: u64,
    len: u64,
}

/// Fingerprint of normalized content, for the exact-hash table.
fn content_fingerprint(bytes: &[u8]) -> ContentFingerprint {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut fnv = OFFSET;
    // A structurally different second mix (rotate-xor-multiply), so the two
    // lanes do not collide together.
    let mut mix: u64 = 0x243f_6a88_85a3_08d3;
    for &b in bytes {
        fnv ^= u64::from(b);
        fnv = fnv.wrapping_mul(PRIME);
        mix = (mix.rotate_left(13) ^ u64::from(b)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
    ContentFingerprint {
        fnv,
        mix,
        len: bytes.len() as u64,
    }
}

/// How the first occurrence of a piece of content resolved — replayed for
/// every later byte-identical repeat. Caching the *resolution* (not just
/// kept content) is exact: an identical document has an identical signature,
/// retrieves a superset of the original's candidates in which every
/// lower-slot candidate already verified below threshold, so the sequential
/// first-match scan can only reach the same verdict.
#[derive(Debug, Clone, Copy)]
enum ExactSeen {
    /// First occurrence was kept at this global input index; repeats are
    /// duplicates of it at similarity 1.0.
    Kept { kept_input: usize },
    /// First occurrence was removed as a duplicate of `kept_input` at this
    /// similarity; repeats resolve identically.
    Removed { kept_input: usize, similarity: f64 },
}

/// The incremental MinHash/LSH de-duplication engine.
///
/// Batches are pushed in arrival order; each document is resolved against
/// the persistent kept-index immediately (exact-hash short-circuit first,
/// then LSH candidates from an [`LshIndex`] verified with exact Jaccard)
/// and either recorded as a duplicate of an earlier *kept* document or
/// inserted as newly kept. Pushing batches b₁…bₙ yields exactly the
/// outcomes of one-shot de-duplication over b₁ ⧺ … ⧺ bₙ, split along the
/// same boundaries — the one-shot [`Deduplicator`] API is literally a
/// single-push stream.
///
/// Kept shingle sets are stored as compact ascending `Vec<u64>`s (verified
/// with [`jaccard_similarity_sorted`]) and candidate retrieval reuses one
/// [`CandidateScratch`], so steady-state memory is the kept documents plus
/// the batch in flight. A [`crate::CurationSession`] pushes one flushed
/// batch at a time, and a flush holds at most 256 KiB of file content plus
/// the push that filled it, so the batch term stays bounded whatever the
/// corpus size.
///
/// # Example
///
/// ```
/// use curation::{DedupConfig, Deduplicator, ExecutionMode};
///
/// let dedup = Deduplicator::new(DedupConfig::default());
/// let mut stream = dedup.streaming();
/// let first = stream.push_texts(&["module a(input x); assign y = ~x; endmodule"]);
/// assert_eq!(first.kept, vec![0]);
/// // The duplicate arrives in a later batch but still points back at the
/// // kept file's global index.
/// let second = stream.push_texts(&["module a(input x); assign y = ~x; endmodule"]);
/// assert_eq!(second.removed, vec![(1, 0, 1.0)]);
/// ```
#[derive(Debug)]
pub struct StreamingDeduplicator {
    config: DedupConfig,
    hasher: MinHasher,
    /// LSH buckets over the kept documents' signatures; a kept document's id
    /// is its slot in `kept`.
    index: LshIndex,
    /// Each kept document's global input index and ascending shingle hashes,
    /// in slot order.
    kept: Vec<(usize, Vec<u64>)>,
    /// First-occurrence resolutions keyed by content fingerprint. Bounded by
    /// distinct contents seen at ~32 bytes each — three orders of magnitude
    /// lighter than the shingle sets it saves rebuilding.
    exact: HashMap<ContentFingerprint, ExactSeen>,
    scratch: CandidateScratch,
    seen: usize,
    kept_hashes: usize,
    pushed_hashes: usize,
    peak_batch_hashes: usize,
    exact_hits: usize,
}

impl StreamingDeduplicator {
    /// Creates a streaming engine from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the similarity threshold lies outside `(0, 1)`.
    pub fn new(config: DedupConfig) -> Self {
        Deduplicator::new(config).streaming()
    }

    /// The configuration in use.
    pub fn config(&self) -> DedupConfig {
        self.config
    }

    /// Total documents pushed so far (the next document's global index).
    pub fn seen(&self) -> usize {
        self.seen
    }

    /// Number of documents currently kept.
    pub fn kept_len(&self) -> usize {
        self.kept.len()
    }

    /// Current counters.
    pub fn stats(&self) -> StreamingDedupStats {
        StreamingDedupStats {
            pushed: self.seen,
            exact_hits: self.exact_hits,
            kept_docs: self.kept.len(),
            kept_hashes: self.kept_hashes,
            pushed_hashes: self.pushed_hashes,
            peak_batch_hashes: self.peak_batch_hashes,
        }
    }

    /// Pushes one batch single-threaded; see
    /// [`Self::push_texts_with_mode`].
    pub fn push_texts<S: AsRef<str> + Sync>(&mut self, texts: &[S]) -> DedupOutcome {
        self.push_texts_with_mode(texts, ExecutionMode::Serial)
    }

    /// Pushes one batch of raw texts through the engine, resolving each
    /// against everything kept so far. Returned indices are global (across
    /// all pushes); parallel mode fans the batch's comment-stripping and
    /// shingle/signature construction across threads with order-stable
    /// results, so both modes produce identical outcomes. Only the first
    /// occurrence of each distinct content builds a signature — repeats are
    /// short-circuited by the exact-hash table in both modes.
    pub fn push_texts_with_mode<S: AsRef<str> + Sync>(
        &mut self,
        texts: &[S],
        mode: ExecutionMode,
    ) -> DedupOutcome {
        let mut outcome = DedupOutcome::default();
        let mut batch_hashes = 0usize;
        match mode {
            ExecutionMode::Serial => {
                for text in texts {
                    let code = verilog::strip_comments(text.as_ref());
                    let fingerprint = content_fingerprint(code.as_bytes());
                    if self.config.exact_prededup {
                        if let Some(&seen) = self.exact.get(&fingerprint) {
                            self.record_exact(seen, &mut outcome);
                            continue;
                        }
                    }
                    let (shingles, signature) = self.shingle_and_sign(&code);
                    batch_hashes += shingles.len();
                    self.resolve(fingerprint, &shingles, &signature, &mut outcome);
                }
            }
            ExecutionMode::Parallel => {
                use rayon::prelude::*;
                let stripped: Vec<(String, ContentFingerprint)> = texts
                    .par_iter()
                    .map(|t| {
                        let code = verilog::strip_comments(t.as_ref());
                        let fingerprint = content_fingerprint(code.as_bytes());
                        (code, fingerprint)
                    })
                    .collect();
                // Only the first in-batch occurrence of content the exact
                // table has not seen builds shingles and a signature — the
                // same set of documents the serial path would build for.
                let mut batch_first = std::collections::HashSet::new();
                let to_build: Vec<bool> = stripped
                    .iter()
                    .map(|&(_, fp)| {
                        !self.config.exact_prededup
                            || (!self.exact.contains_key(&fp) && batch_first.insert(fp))
                    })
                    .collect();
                let build_texts: Vec<&str> = stripped
                    .iter()
                    .zip(&to_build)
                    .filter_map(|((code, _), &b)| b.then_some(code.as_str()))
                    .collect();
                // One fan-out builds each document's shingles and signature
                // together; every fan-out spawns its own scoped threads.
                let built: Vec<(ShingleSet, Signature)> = build_texts
                    .par_iter()
                    .map(|code| self.shingle_and_sign(code))
                    .collect();
                batch_hashes = built.iter().map(|(set, _)| set.len()).sum();
                let mut built = built.into_iter();
                for (&(_, fingerprint), &build) in stripped.iter().zip(&to_build) {
                    if build {
                        let (set, signature) = built.next().expect("one build per flagged doc");
                        self.resolve(fingerprint, &set, &signature, &mut outcome);
                    } else {
                        // Either pre-seen or a repeat of an earlier in-batch
                        // first occurrence, which resolve() has recorded by
                        // now — the exact table must hit.
                        let seen = *self
                            .exact
                            .get(&fingerprint)
                            .expect("pre-scanned exact repeat missing from the table");
                        self.record_exact(seen, &mut outcome);
                    }
                }
            }
        }
        self.pushed_hashes += batch_hashes;
        self.peak_batch_hashes = self.peak_batch_hashes.max(batch_hashes);
        outcome
    }

    /// Builds one comment-stripped document's shingle set and signature.
    fn shingle_and_sign(&self, code: &str) -> (ShingleSet, Signature) {
        let shingles = char_shingles(code, SHINGLE_SIZE);
        let signature = self.hasher.signature(&shingles);
        (shingles, signature)
    }

    /// Replays the first occurrence's resolution for an exact repeat.
    fn record_exact(&mut self, seen: ExactSeen, outcome: &mut DedupOutcome) {
        let input_index = self.seen;
        self.seen += 1;
        self.exact_hits += 1;
        match seen {
            ExactSeen::Kept { kept_input } => outcome.removed.push((input_index, kept_input, 1.0)),
            ExactSeen::Removed {
                kept_input,
                similarity,
            } => outcome.removed.push((input_index, kept_input, similarity)),
        }
    }

    /// The sequential first-occurrence-wins resolution of one document: the
    /// LSH candidates are verified with exact Jaccard in ascending slot
    /// order, the first at or above the threshold makes the document its
    /// duplicate, and a document no candidate matches is kept and inserted
    /// under the next slot. A kept document's hashes are copied into an
    /// exact-length vector here, on the resolving thread.
    fn resolve(
        &mut self,
        fingerprint: ContentFingerprint,
        shingles: &ShingleSet,
        signature: &Signature,
        outcome: &mut DedupOutcome,
    ) {
        let input_index = self.seen;
        self.seen += 1;
        let hashes = shingles.as_slice();
        let threshold = self.config.similarity_threshold;
        self.index.candidates_into(signature, &mut self.scratch);
        let duplicate = self.scratch.candidates().iter().find_map(|&slot| {
            let (kept_input, kept_hashes) = &self.kept[slot as usize];
            let similarity = jaccard_similarity_sorted(hashes, kept_hashes);
            (similarity >= threshold).then_some((*kept_input, similarity))
        });
        let resolution = match duplicate {
            Some((kept_input, similarity)) => {
                outcome.removed.push((input_index, kept_input, similarity));
                ExactSeen::Removed {
                    kept_input,
                    similarity,
                }
            }
            None => {
                self.index.insert(self.kept.len() as u64, signature);
                self.kept.push((input_index, hashes.to_vec()));
                self.kept_hashes += hashes.len();
                outcome.kept.push(input_index);
                ExactSeen::Kept {
                    kept_input: input_index,
                }
            }
        };
        if self.config.exact_prededup {
            self.exact.entry(fingerprint).or_insert(resolution);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn distinct_docs() -> Vec<String> {
        vec![
            "module alu(input [3:0] a, input [3:0] b, input [1:0] op, output reg [3:0] y);\n\
             always @* case (op) 2'd0: y = a + b; 2'd1: y = a - b; 2'd2: y = a & b; default: y = a | b; endcase endmodule"
                .to_string(),
            "module fifo(input clk, input rst, input wr, input rd, input [7:0] din, output [7:0] dout);\n\
             reg [7:0] mem [0:15]; reg [4:0] wp, rp; assign dout = mem[rp[3:0]]; endmodule"
                .to_string(),
            "module uart_tx(input clk, input start, input [7:0] data, output reg txd);\n\
             reg [3:0] state; always @(posedge clk) if (start) state <= 1; endmodule"
                .to_string(),
        ]
    }

    #[test]
    fn exact_duplicates_are_removed() {
        let dedup = Deduplicator::new(DedupConfig::default());
        let mut docs = distinct_docs();
        docs.push(docs[0].clone());
        docs.push(docs[1].clone());
        let outcome = dedup.dedup_texts(&docs);
        assert_eq!(outcome.kept.len(), 3);
        assert_eq!(outcome.removed.len(), 2);
        assert!((outcome.removal_rate() - 0.4).abs() < 1e-9);
        // The duplicates point back at the originals.
        assert!(outcome
            .removed
            .iter()
            .any(|(d, k, s)| *d == 3 && *k == 0 && *s >= 0.85));
    }

    #[test]
    fn near_duplicates_with_banner_comments_are_removed() {
        let dedup = Deduplicator::new(DedupConfig::default());
        let base = distinct_docs()[0].clone();
        let variant =
            format!("// imported from a vendor reference design\n{base}\n// end of file\n");
        let outcome = dedup.dedup_texts(&[base, variant]);
        assert_eq!(
            outcome.kept.len(),
            1,
            "banner-comment variant should be deduplicated"
        );
    }

    #[test]
    fn distinct_designs_are_all_kept() {
        let dedup = Deduplicator::new(DedupConfig::default());
        let outcome = dedup.dedup_texts(&distinct_docs());
        assert_eq!(outcome.kept.len(), 3);
        assert!(outcome.removed.is_empty());
        assert_eq!(outcome.removal_rate(), 0.0);
    }

    #[test]
    fn first_occurrence_wins() {
        let dedup = Deduplicator::new(DedupConfig::default());
        let docs = distinct_docs();
        let dupes = vec![docs[2].clone(), docs[0].clone(), docs[2].clone()];
        let outcome = dedup.dedup_texts(&dupes);
        assert_eq!(outcome.kept, vec![0, 1]);
        assert_eq!(outcome.removed[0].0, 2);
        assert_eq!(outcome.removed[0].1, 0);
    }

    #[test]
    fn threshold_controls_aggressiveness() {
        let strict = Deduplicator::new(DedupConfig {
            similarity_threshold: 0.98,
            ..Default::default()
        });
        let loose = Deduplicator::new(DedupConfig {
            similarity_threshold: 0.30,
            ..Default::default()
        });
        let base = distinct_docs()[0].clone();
        // A moderately edited variant.
        let variant = base.replace("2'd0: y = a + b;", "2'd0: y = a + b + 1;");
        let docs = vec![base, variant];
        assert_eq!(strict.dedup_texts(&docs).kept.len(), 2);
        assert_eq!(loose.dedup_texts(&docs).kept.len(), 1);
    }

    #[test]
    fn parallel_mode_is_identical_to_serial() {
        let dedup = Deduplicator::new(DedupConfig::default());
        let docs = distinct_docs();
        let many: Vec<String> = (0..60)
            .map(|i| {
                let base = &docs[i % docs.len()];
                if i % 5 == 0 {
                    base.clone() // planted duplicates
                } else {
                    format!("// file {i}\n{base}\nmodule pad_{i}(input p{i}); endmodule")
                }
            })
            .collect();
        let serial = dedup.dedup_texts_with_mode(&many, ExecutionMode::Serial);
        let parallel = dedup.dedup_texts_with_mode(&many, ExecutionMode::Parallel);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_input_is_fine() {
        let dedup = Deduplicator::new(DedupConfig::default());
        let outcome = dedup.dedup_texts::<String>(&[]);
        assert!(outcome.kept.is_empty());
        assert!(outcome.removed.is_empty());
        assert_eq!(outcome.removal_rate(), 0.0);
    }

    /// Pins the semantics of comment-only files, which shingle to the empty
    /// set after comment stripping: `jaccard(∅, ∅) == 1.0`, so the first
    /// comment-only file is kept and every later one — byte-identical or
    /// not — is removed as its duplicate. Code is what the similarity
    /// judgement is about; files with no code are all "the same nothing".
    #[test]
    fn comment_only_files_deduplicate_to_the_first() {
        let dedup = Deduplicator::new(DedupConfig::default());
        let docs = vec![
            "// just a banner comment\n/* and a block comment */\n".to_string(),
            "// just a banner comment\n/* and a block comment */\n".to_string(), // byte-identical
            "// an entirely different comment\n".to_string(), // different text, still no code
            distinct_docs()[0].clone(),                       // real code survives alongside
        ];
        let outcome = dedup.dedup_texts(&docs);
        assert_eq!(outcome.kept, vec![0, 3]);
        assert_eq!(outcome.removed.len(), 2);
        for &(dropped, kept, similarity) in &outcome.removed {
            assert_eq!(
                kept, 0,
                "comment-only file {dropped} must point at the first"
            );
            assert_eq!(similarity, 1.0);
        }
    }

    #[test]
    fn comment_only_files_never_absorb_real_code() {
        let dedup = Deduplicator::new(DedupConfig::default());
        let docs = vec!["// comment-only\n".to_string(), distinct_docs()[0].clone()];
        let outcome = dedup.dedup_texts(&docs);
        assert_eq!(
            outcome.kept,
            vec![0, 1],
            "an empty shingle set must not match non-empty code"
        );
    }

    #[test]
    fn streamed_batches_match_one_shot_for_any_split() {
        let dedup = Deduplicator::new(DedupConfig::default());
        let docs = distinct_docs();
        let many: Vec<String> = (0..48)
            .map(|i| {
                let base = &docs[i % docs.len()];
                if i % 4 == 0 {
                    base.clone()
                } else {
                    format!("// file {i}\n{base}\nmodule pad_{i}(input p{i}); endmodule")
                }
            })
            .collect();
        let one_shot = dedup.dedup_texts_with_mode(&many, ExecutionMode::Parallel);
        for batch_size in [1, 5, 16, 48, 100] {
            for mode in [ExecutionMode::Serial, ExecutionMode::Parallel] {
                let mut stream = dedup.streaming();
                let mut merged = DedupOutcome::default();
                for chunk in many.chunks(batch_size) {
                    let outcome = stream.push_texts_with_mode(chunk, mode);
                    merged.kept.extend(outcome.kept);
                    merged.removed.extend(outcome.removed);
                }
                assert_eq!(
                    merged, one_shot,
                    "streamed outcome diverged at batch size {batch_size} in {mode:?} mode"
                );
                assert_eq!(stream.seen(), many.len());
                assert_eq!(stream.kept_len(), one_shot.kept.len());
            }
        }
    }

    #[test]
    fn exact_prededup_short_circuits_without_changing_the_outcome() {
        let docs = distinct_docs();
        // 40 files, heavy byte-identical forking plus light edits.
        let many: Vec<String> = (0..40)
            .map(|i| {
                let base = &docs[i % docs.len()];
                match i % 4 {
                    0 | 1 => base.clone(),                            // byte-identical forks
                    2 => format!("// fork banner {}\n{base}", i % 8), // strip-identical forks
                    _ => format!("{base}\nmodule pad_{i}(input p{i}); endmodule"),
                }
            })
            .collect();
        let with = Deduplicator::new(DedupConfig::default());
        let without = Deduplicator::new(DedupConfig {
            exact_prededup: false,
            ..Default::default()
        });
        for mode in [ExecutionMode::Serial, ExecutionMode::Parallel] {
            assert_eq!(
                with.dedup_texts_with_mode(&many, mode),
                without.dedup_texts_with_mode(&many, mode),
                "exact-hash fast path changed the outcome in {mode:?} mode"
            );
        }
        // The fast path actually fires, and skips signature construction:
        // it builds hashes only for first occurrences.
        let mut fast = with.streaming();
        fast.push_texts_with_mode(&many, ExecutionMode::Parallel);
        let fast_stats = fast.stats();
        assert!(fast_stats.exact_hits > 0, "no exact hits on forked corpus");
        let mut slow = without.streaming();
        slow.push_texts_with_mode(&many, ExecutionMode::Parallel);
        assert_eq!(slow.stats().exact_hits, 0);
        assert!(
            fast_stats.pushed_hashes < slow.stats().pushed_hashes,
            "exact hits must not build shingles"
        );
    }

    #[test]
    fn exact_repeat_of_a_removed_document_replays_its_resolution() {
        let dedup = Deduplicator::new(DedupConfig::default());
        let base = distinct_docs()[0].clone();
        let near = format!("// vendor banner\n{base}\n// eof\n"); // near-dup of base
        let docs = vec![base, near.clone(), near];
        let outcome = dedup.dedup_texts(&docs);
        assert_eq!(outcome.kept, vec![0]);
        assert_eq!(outcome.removed.len(), 2);
        // Both removals point at the same kept file with the same similarity.
        assert_eq!(outcome.removed[0].1, 0);
        assert_eq!(outcome.removed[1].1, 0);
        assert_eq!(outcome.removed[0].2, outcome.removed[1].2);
    }

    #[test]
    fn streaming_residency_tracks_the_kept_set() {
        let dedup = Deduplicator::new(DedupConfig::default());
        let docs = distinct_docs();
        // 90 files, only 3 distinct: the kept set stays tiny.
        let many: Vec<String> = (0..90).map(|i| docs[i % docs.len()].clone()).collect();
        let mut stream = dedup.streaming();
        for chunk in many.chunks(10) {
            stream.push_texts_with_mode(chunk, ExecutionMode::Parallel);
        }
        let stats = stream.stats();
        assert_eq!(stats.pushed, 90);
        assert_eq!(stats.kept_docs, docs.len());
        assert!(stats.kept_hashes > 0);
        // Residency invariant: after 90 pushes the engine holds exactly what
        // it would hold having seen only the 3 distinct files — the kept
        // set, not the corpus.
        let mut reference = dedup.streaming();
        reference.push_texts(&docs);
        assert_eq!(stats.kept_hashes, reference.stats().kept_hashes);
        assert_eq!(stats.kept_docs, reference.stats().kept_docs);
        // With exact-hash pre-dedup, only the 3 first occurrences ever built
        // shingles: 87 of 90 pushes were short-circuited before signature
        // construction.
        assert_eq!(stats.exact_hits, 87);
        assert_eq!(stats.pushed_hashes, stats.kept_hashes);
        assert!(stats.peak_batch_hashes <= stats.kept_hashes);
    }
}
