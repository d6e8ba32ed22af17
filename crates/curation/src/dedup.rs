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
//! are pushed as they arrive (e.g. straight off the concurrent scraper) and
//! resolved against the persistent kept-index immediately, so the corpus
//! never has to be buffered.
//!
//! Two mechanisms bound the engine's cost by *policy* rather than corpus
//! size:
//!
//! * **Exact-hash pre-dedup** (on by default, [`DedupConfig::exact_prededup`]):
//!   every file's shingle-normalized content (comment-stripped, exactly the
//!   text the shingles are built from) is fingerprinted, and a repeat of
//!   previously seen content short-circuits to the first occurrence's
//!   resolution *before* any shingling or MinHash work — real scraped
//!   corpora are full of byte-identical forks, and signature construction
//!   is the dominant cost. The short-circuit is output-invariant: identical
//!   content ⇒ identical shingle set ⇒ identical signature ⇒ the sequential
//!   resolution reaches the very same verdict (pinned by the property
//!   tests). Repeats are recognised by a 128-bit fingerprint plus length
//!   ([`ContentFingerprint`]), so a false match is astronomically unlikely
//!   rather than impossible.
//! * **Per-shard spill-to-disk** ([`DedupSpillConfig`]): the kept state —
//!   LSH buckets *and* kept shingle vectors — is partitioned into the
//!   [`ShardedLshIndex`]'s shards (a kept document is homed to shard
//!   `slot % shards`), and at most `resident_shards` of them are held in
//!   memory; the rest live in per-shard spill files. Queries and insertions
//!   walk bands one shard at a time, reloading on touch with
//!   LRU-by-last-touch eviction, so peak kept-state residency tracks the
//!   budget plus the batch in flight instead of the kept set — and the
//!   output stays byte-identical to the fully resident engine for any
//!   shard count and any budget ≥ 1.

use std::collections::HashMap;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use serde::{Deserialize, Serialize};
use textsim::{
    char_shingles, jaccard_similarity_sorted, read_u64_le, write_u64_le, CandidateScratch,
    InsertOrMatch, LshParams, MinHasher, ShardedLshIndex, ShingleSet, Signature,
    DEFAULT_LSH_SHARDS,
};

use crate::stage::ExecutionMode;

/// Configuration of the de-duplicator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DedupConfig {
    /// Jaccard similarity at or above which a file counts as a duplicate.
    pub similarity_threshold: f64,
    /// Character shingle size.
    pub shingle_size: usize,
    /// Number of MinHash permutations.
    pub permutations: usize,
    /// Seed for the MinHash permutation family.
    pub seed: u64,
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
            shingle_size: 8,
            permutations: 128,
            seed: 0x5EED,
            exact_prededup: true,
        }
    }
}

/// Spill-to-disk policy for a [`StreamingDeduplicator`].
///
/// The kept state is partitioned into `shards`; at most `resident_shards`
/// are held in memory, the rest serialized into per-shard files under a
/// private directory (removed when the engine is dropped). Smaller budgets
/// trade reload traffic for a lower memory ceiling; the kept/removed outcome
/// is byte-identical whatever the budget.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DedupSpillConfig {
    /// Number of shards the kept state (LSH buckets + kept shingle vectors)
    /// is partitioned into.
    pub shards: usize,
    /// Maximum number of shards resident in memory at once (≥ 1).
    pub resident_shards: usize,
    /// Parent directory for the engine's private spill directory; `None`
    /// uses the system temp dir. Each engine creates (and on drop removes)
    /// its own unique subdirectory, so engines never collide.
    pub spill_dir: Option<String>,
}

impl Default for DedupSpillConfig {
    fn default() -> Self {
        Self {
            shards: DEFAULT_LSH_SHARDS,
            resident_shards: 4,
            spill_dir: None,
        }
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
    /// Panics if the configuration requests zero permutations or a threshold
    /// outside `(0, 1)`.
    pub fn new(config: DedupConfig) -> Self {
        let hasher = MinHasher::new(config.permutations, config.seed);
        let lsh_params = LshParams::for_threshold(config.permutations, config.similarity_threshold);
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
        StreamingDeduplicator::from_parts(self.config, self.hasher.clone(), self.lsh_params, None)
            .expect("in-memory streaming engine performs no IO")
    }

    /// Opens a streaming engine whose kept state spills to disk under the
    /// given policy. Output is byte-identical to [`Self::streaming`] for any
    /// shard count and resident budget.
    ///
    /// # Errors
    ///
    /// Returns the underlying IO error if the spill directory cannot be
    /// created or the initial shard eviction cannot be written.
    ///
    /// # Panics
    ///
    /// Panics if the policy requests zero shards or a zero resident budget.
    pub fn streaming_with_spill(
        &self,
        spill: &DedupSpillConfig,
    ) -> io::Result<StreamingDeduplicator> {
        StreamingDeduplicator::from_parts(
            self.config,
            self.hasher.clone(),
            self.lsh_params,
            Some(spill),
        )
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
        self.streaming()
            .push_texts_with_mode(texts, mode)
            .expect("in-memory dedup performs no IO")
    }
}

/// Residency statistics of a [`StreamingDeduplicator`] — what the engine is
/// actually holding and how hard each bounding mechanism is working, so
/// benchmarks (and capacity planning) can verify that memory tracks the
/// spill budget instead of the corpus.
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
    /// kept-state term, one `u64` per hash (resident or spilled).
    pub kept_hashes: usize,
    /// Total shingle hashes across every *signature-built* document (exact
    /// hits never materialise shingles) — what a corpus-buffering
    /// implementation without the exact-hash fast path would have had to
    /// construct and hold at once.
    pub pushed_hashes: usize,
    /// Shingle hashes built for the largest single push — the batch-shaped
    /// transient working-set bound, identical in both execution modes
    /// (serial mode actually materialises only one file of it at a time).
    pub peak_batch_hashes: usize,
    /// Shards currently resident in memory (equals the shard count when
    /// spilling is disabled).
    pub resident_shards: usize,
    /// Most shards ever resident at once — stays at or under the configured
    /// budget when spilling is enabled.
    pub peak_resident_shards: usize,
    /// Kept shingle hashes currently resident in memory.
    pub resident_kept_hashes: usize,
    /// Most kept shingle hashes ever resident at once — the bounded-memory
    /// headline: with a spill budget this stays well under `kept_hashes`.
    pub peak_resident_kept_hashes: usize,
    /// Shard spill (serialize + write) events.
    pub shard_spills: usize,
    /// Shard reload (read + restore) events.
    pub shard_reloads: usize,
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

/// One kept document: its global input index and compact ascending shingle
/// hashes.
type KeptDoc = (usize, Vec<u64>);

/// Where the kept shingle vectors live.
#[derive(Debug)]
enum KeptStore {
    /// Fully resident, addressed by kept slot.
    Flat(Vec<KeptDoc>),
    /// Partitioned by home shard (`slot % shards`, position `slot / shards`);
    /// `None` marks a shard spilled to disk alongside its LSH buckets.
    Sharded(Vec<Option<Vec<KeptDoc>>>),
}

/// Spill bookkeeping: the LRU clock, residency accounting and file plumbing.
#[derive(Debug)]
struct SpillBook {
    dir: PathBuf,
    budget: usize,
    clock: u64,
    last_touch: Vec<u64>,
    /// Total kept shingle hashes homed to each shard, resident or not.
    shard_kept_hashes: Vec<usize>,
    resident_kept_hashes: usize,
    peak_resident_kept_hashes: usize,
    peak_resident_shards: usize,
    spills: usize,
    reloads: usize,
}

static SPILL_DIR_COUNTER: AtomicUsize = AtomicUsize::new(0);

impl SpillBook {
    fn new(config: &DedupSpillConfig) -> io::Result<Self> {
        assert!(config.shards > 0, "spill shard count must be positive");
        assert!(
            config.resident_shards > 0,
            "resident shard budget must be positive"
        );
        let parent = config
            .spill_dir
            .as_ref()
            .map(PathBuf::from)
            .unwrap_or_else(std::env::temp_dir);
        let dir = parent.join(format!(
            "ffh-dedup-spill-{}-{}",
            std::process::id(),
            SPILL_DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir)?;
        Ok(Self {
            dir,
            budget: config.resident_shards,
            clock: 0,
            last_touch: vec![0; config.shards],
            shard_kept_hashes: vec![0; config.shards],
            resident_kept_hashes: 0,
            peak_resident_kept_hashes: 0,
            peak_resident_shards: 0,
            spills: 0,
            reloads: 0,
        })
    }

    fn shard_file(&self, shard: usize) -> PathBuf {
        self.dir.join(format!("shard-{shard}.bin"))
    }
}

impl Drop for SpillBook {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Serializes one spilled shard: the LSH shard bytes (as produced by
/// [`ShardedLshIndex::evict_shard`]) followed by the shard's kept documents.
fn encode_shard(lsh_bytes: &[u8], docs: &[KeptDoc]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + lsh_bytes.len());
    write_u64_le(&mut out, lsh_bytes.len() as u64);
    out.extend_from_slice(lsh_bytes);
    write_u64_le(&mut out, docs.len() as u64);
    for (input_index, hashes) in docs {
        write_u64_le(&mut out, *input_index as u64);
        write_u64_le(&mut out, hashes.len() as u64);
        for h in hashes {
            write_u64_le(&mut out, *h);
        }
    }
    out
}

/// Parses the output of [`encode_shard`] back into LSH bytes + kept docs.
fn decode_shard(bytes: &[u8]) -> (Vec<u8>, Vec<KeptDoc>) {
    let mut offset = 0usize;
    let lsh_len = read_u64_le(bytes, &mut offset) as usize;
    let lsh_bytes = bytes[offset..offset + lsh_len].to_vec();
    offset += lsh_len;
    let doc_count = read_u64_le(bytes, &mut offset) as usize;
    let mut docs = Vec::with_capacity(doc_count);
    for _ in 0..doc_count {
        let input_index = read_u64_le(bytes, &mut offset) as usize;
        let hash_count = read_u64_le(bytes, &mut offset) as usize;
        let mut hashes = Vec::with_capacity(hash_count);
        for _ in 0..hash_count {
            hashes.push(read_u64_le(bytes, &mut offset));
        }
        docs.push((input_index, hashes));
    }
    assert_eq!(offset, bytes.len(), "trailing bytes in spill file");
    (lsh_bytes, docs)
}

/// Evicts `victim` — LSH buckets and kept docs — into its spill file.
fn spill_shard(
    index: &mut ShardedLshIndex,
    kept_shards: &mut [Option<Vec<KeptDoc>>],
    book: &mut SpillBook,
    victim: usize,
) -> io::Result<()> {
    let lsh_bytes = index.evict_shard(victim);
    let docs = kept_shards[victim]
        .take()
        .expect("kept shard residency out of sync with the LSH index");
    let path = book.shard_file(victim);
    std::fs::write(&path, encode_shard(&lsh_bytes, &docs))?;
    book.resident_kept_hashes -= book.shard_kept_hashes[victim];
    book.spills += 1;
    Ok(())
}

/// Makes `shard` resident, evicting least-recently-touched shards down to
/// the budget first. The reload path is the "transparent reload on candidate
/// hit": callers just touch the shard they are about to read.
fn ensure_resident(
    index: &mut ShardedLshIndex,
    kept_shards: &mut [Option<Vec<KeptDoc>>],
    book: &mut SpillBook,
    shard: usize,
) -> io::Result<()> {
    book.clock += 1;
    book.last_touch[shard] = book.clock;
    if index.shard_is_resident(shard) {
        return Ok(());
    }
    while index.resident_shard_count() >= book.budget {
        let victim = (0..index.shard_count())
            .filter(|&s| s != shard && index.shard_is_resident(s))
            .min_by_key(|&s| book.last_touch[s])
            .expect("budget overflow with no evictable shard");
        spill_shard(index, kept_shards, book, victim)?;
    }
    let bytes = std::fs::read(book.shard_file(shard))?;
    let (lsh_bytes, docs) = decode_shard(&bytes);
    index.restore_shard(shard, &lsh_bytes);
    book.resident_kept_hashes += book.shard_kept_hashes[shard];
    book.peak_resident_kept_hashes = book
        .peak_resident_kept_hashes
        .max(book.resident_kept_hashes);
    kept_shards[shard] = Some(docs);
    book.reloads += 1;
    book.peak_resident_shards = book.peak_resident_shards.max(index.resident_shard_count());
    Ok(())
}

/// The verdict of resolving one document against the kept set.
enum Resolution {
    Kept,
    Duplicate { kept_input: usize, similarity: f64 },
}

/// The incremental MinHash/LSH de-duplication engine.
///
/// Batches are pushed in arrival order; each document is resolved against
/// the persistent kept-index immediately (exact-hash short-circuit first,
/// then LSH candidates from a [`ShardedLshIndex`] verified with exact
/// Jaccard) and either recorded as a duplicate of an earlier *kept* document
/// or inserted as newly kept. Pushing batches b₁…bₙ yields exactly the
/// outcomes of one-shot de-duplication over b₁ ⧺ … ⧺ bₙ, split along the
/// same boundaries — the one-shot [`Deduplicator`] API is literally a
/// single-push stream.
///
/// Kept shingle sets are stored as compact ascending `Vec<u64>`s (verified
/// with [`jaccard_similarity_sorted`]) and candidate retrieval reuses one
/// [`CandidateScratch`], so steady-state memory is the kept documents plus
/// the batch in flight — or, with a [`DedupSpillConfig`], the resident-shard
/// budget plus the batch in flight.
///
/// # Example
///
/// ```
/// use curation::{DedupConfig, Deduplicator, ExecutionMode};
///
/// let dedup = Deduplicator::new(DedupConfig::default());
/// let mut stream = dedup.streaming();
/// let first = stream.push_texts(&["module a(input x); assign y = ~x; endmodule"])?;
/// assert_eq!(first.kept, vec![0]);
/// // The duplicate arrives in a later batch but still points back at the
/// // kept file's global index.
/// let second = stream.push_texts(&["module a(input x); assign y = ~x; endmodule"])?;
/// assert_eq!(second.removed, vec![(1, 0, 1.0)]);
/// # Ok::<(), std::io::Error>(())
/// ```
#[derive(Debug)]
pub struct StreamingDeduplicator {
    config: DedupConfig,
    hasher: MinHasher,
    index: ShardedLshIndex,
    kept: KeptStore,
    /// First-occurrence resolutions keyed by content fingerprint. Bounded by
    /// distinct contents seen at ~32 bytes each — three orders of magnitude
    /// lighter than the shingle sets it saves rebuilding.
    exact: HashMap<ContentFingerprint, ExactSeen>,
    scratch: CandidateScratch,
    spill: Option<SpillBook>,
    seen: usize,
    kept_docs: usize,
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
    /// Panics if the configuration requests zero permutations or a threshold
    /// outside `(0, 1)`.
    pub fn new(config: DedupConfig) -> Self {
        Deduplicator::new(config).streaming()
    }

    fn from_parts(
        config: DedupConfig,
        hasher: MinHasher,
        lsh_params: LshParams,
        spill: Option<&DedupSpillConfig>,
    ) -> io::Result<Self> {
        let (index, kept, book) = match spill {
            None => (
                ShardedLshIndex::new(lsh_params),
                KeptStore::Flat(Vec::new()),
                None,
            ),
            Some(policy) => {
                let mut book = SpillBook::new(policy)?;
                let mut index = ShardedLshIndex::with_shards(lsh_params, policy.shards);
                let mut shards: Vec<Option<Vec<KeptDoc>>> = vec![Some(Vec::new()); policy.shards];
                // Trim the (empty) initial state down to the budget so peak
                // residency respects it from the first document on.
                for victim in policy.resident_shards..policy.shards {
                    spill_shard(&mut index, &mut shards, &mut book, victim)?;
                }
                book.peak_resident_shards = index.resident_shard_count();
                (index, KeptStore::Sharded(shards), Some(book))
            }
        };
        Ok(Self {
            config,
            hasher,
            index,
            kept,
            exact: HashMap::new(),
            scratch: CandidateScratch::new(),
            spill: book,
            seen: 0,
            kept_docs: 0,
            kept_hashes: 0,
            pushed_hashes: 0,
            peak_batch_hashes: 0,
            exact_hits: 0,
        })
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
        self.kept_docs
    }

    /// Current residency statistics.
    pub fn stats(&self) -> StreamingDedupStats {
        let (
            resident_shards,
            peak_resident_shards,
            resident_kept_hashes,
            peak_resident_kept_hashes,
            shard_spills,
            shard_reloads,
        ) = match &self.spill {
            None => (
                self.index.shard_count(),
                self.index.shard_count(),
                self.kept_hashes,
                self.kept_hashes,
                0,
                0,
            ),
            Some(book) => (
                self.index.resident_shard_count(),
                book.peak_resident_shards,
                book.resident_kept_hashes,
                book.peak_resident_kept_hashes,
                book.spills,
                book.reloads,
            ),
        };
        StreamingDedupStats {
            pushed: self.seen,
            exact_hits: self.exact_hits,
            kept_docs: self.kept_docs,
            kept_hashes: self.kept_hashes,
            pushed_hashes: self.pushed_hashes,
            peak_batch_hashes: self.peak_batch_hashes,
            resident_shards,
            peak_resident_shards,
            resident_kept_hashes,
            peak_resident_kept_hashes,
            shard_spills,
            shard_reloads,
        }
    }

    /// Per-shard occupied-bucket counts of the underlying LSH index
    /// (maintained across spills).
    pub fn shard_bucket_counts(&self) -> Vec<usize> {
        self.index.shard_bucket_counts()
    }

    /// Pushes one batch single-threaded; see
    /// [`Self::push_texts_with_mode`].
    pub fn push_texts<S: AsRef<str> + Sync>(&mut self, texts: &[S]) -> io::Result<DedupOutcome> {
        self.push_texts_with_mode(texts, ExecutionMode::Serial)
    }

    /// Pushes one batch of raw texts through the engine, resolving each
    /// against everything kept so far. Returned indices are global (across
    /// all pushes); parallel mode fans the batch's comment-stripping and
    /// shingle/signature construction across threads with order-stable
    /// results, so both modes produce identical outcomes. Only the first
    /// occurrence of each distinct content builds a signature — repeats are
    /// short-circuited by the exact-hash table in both modes.
    ///
    /// # Errors
    ///
    /// Returns the underlying IO error when a spill-backed engine fails to
    /// write or read a shard file. A fully resident engine never errors.
    /// After an error the engine's residency bookkeeping may be out of sync
    /// with its spill files; discard it rather than pushing further batches.
    pub fn push_texts_with_mode<S: AsRef<str> + Sync>(
        &mut self,
        texts: &[S],
        mode: ExecutionMode,
    ) -> io::Result<DedupOutcome> {
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
                    let shingles = char_shingles(&code, self.config.shingle_size);
                    let signature = self.hasher.signature(&shingles);
                    batch_hashes += shingles.len();
                    self.resolve(fingerprint, shingles, signature, &mut outcome)?;
                }
            }
            ExecutionMode::Parallel => {
                use rayon::prelude::*;
                let stripped: Vec<String> = texts
                    .par_iter()
                    .map(|t| verilog::strip_comments(t.as_ref()))
                    .collect();
                let fingerprints: Vec<ContentFingerprint> = stripped
                    .iter()
                    .map(|code| content_fingerprint(code.as_bytes()))
                    .collect();
                // Only the first in-batch occurrence of content the exact
                // table has not seen builds shingles and a signature — the
                // same set of documents the serial path would build for.
                let mut batch_first = std::collections::HashSet::new();
                let build: Vec<bool> = fingerprints
                    .iter()
                    .map(|&fp| {
                        !self.config.exact_prededup
                            || (!self.exact.contains_key(&fp) && batch_first.insert(fp))
                    })
                    .collect();
                let build_texts: Vec<&str> = stripped
                    .iter()
                    .zip(&build)
                    .filter_map(|(code, &b)| b.then_some(code.as_str()))
                    .collect();
                let size = self.config.shingle_size;
                let shingles: Vec<ShingleSet> = build_texts
                    .par_iter()
                    .map(|code| char_shingles(code, size))
                    .collect();
                let signatures: Vec<_> = shingles
                    .par_iter()
                    .map(|set| self.hasher.signature(set))
                    .collect();
                batch_hashes = shingles.iter().map(ShingleSet::len).sum();
                let mut built = shingles.into_iter().zip(signatures);
                for (i, &fingerprint) in fingerprints.iter().enumerate() {
                    if build[i] {
                        let (set, signature) = built.next().expect("one build per flagged doc");
                        self.resolve(fingerprint, set, signature, &mut outcome)?;
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
        Ok(outcome)
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

    /// The sequential first-occurrence-wins resolution of one document.
    fn resolve(
        &mut self,
        fingerprint: ContentFingerprint,
        shingles: ShingleSet,
        signature: Signature,
        outcome: &mut DedupOutcome,
    ) -> io::Result<()> {
        let input_index = self.seen;
        self.seen += 1;
        let hashes: Vec<u64> = shingles.iter().collect();
        let hash_count = hashes.len();
        let resolution = if self.spill.is_some() {
            self.resolve_sharded(input_index, hashes, &signature)?
        } else {
            self.resolve_flat(input_index, hashes, &signature)
        };
        match resolution {
            Resolution::Duplicate {
                kept_input,
                similarity,
            } => {
                outcome.removed.push((input_index, kept_input, similarity));
                if self.config.exact_prededup {
                    self.exact.entry(fingerprint).or_insert(ExactSeen::Removed {
                        kept_input,
                        similarity,
                    });
                }
            }
            Resolution::Kept => {
                self.kept_docs += 1;
                self.kept_hashes += hash_count;
                outcome.kept.push(input_index);
                if self.config.exact_prededup {
                    self.exact.entry(fingerprint).or_insert(ExactSeen::Kept {
                        kept_input: input_index,
                    });
                }
            }
        }
        Ok(())
    }

    /// Fully-resident resolution: one [`ShardedLshIndex::insert_or_match`]
    /// call against the flat kept store.
    fn resolve_flat(
        &mut self,
        input_index: usize,
        hashes: Vec<u64>,
        signature: &Signature,
    ) -> Resolution {
        let threshold = self.config.similarity_threshold;
        let KeptStore::Flat(kept) = &self.kept else {
            unreachable!("flat resolve with a sharded kept store");
        };
        let verdict = self.index.insert_or_match(
            kept.len() as u64,
            signature,
            &mut self.scratch,
            |candidate| {
                let (_, kept_hashes) = &kept[candidate as usize];
                let similarity = jaccard_similarity_sorted(&hashes, kept_hashes);
                (similarity >= threshold).then_some(similarity)
            },
        );
        match verdict {
            InsertOrMatch::Matched(slot, similarity) => {
                let KeptStore::Flat(kept) = &self.kept else {
                    unreachable!();
                };
                Resolution::Duplicate {
                    kept_input: kept[slot as usize].0,
                    similarity,
                }
            }
            InsertOrMatch::Inserted => {
                let KeptStore::Flat(kept) = &mut self.kept else {
                    unreachable!();
                };
                kept.push((input_index, hashes));
                Resolution::Kept
            }
        }
    }

    /// Spill-aware resolution: walk bands one shard at a time (reloading on
    /// touch), verify candidates in ascending slot order, and home a newly
    /// kept document to shard `slot % shards`. Byte-identical to
    /// [`Self::resolve_flat`] — same candidate set, same scan order, same
    /// verdicts — for any shard count and any budget.
    fn resolve_sharded(
        &mut self,
        input_index: usize,
        hashes: Vec<u64>,
        signature: &Signature,
    ) -> io::Result<Resolution> {
        let slot = self.kept_docs;
        let bands = self.index.params().bands;
        let shard_count = self.index.shard_count();
        let threshold = self.config.similarity_threshold;
        let mut scratch = std::mem::take(&mut self.scratch);
        // The fallible body runs in a closure so the scratch buffer is
        // restored on the error path too (the engine stays droppable).
        let resolution = (|| {
            let index = &mut self.index;
            let KeptStore::Sharded(kept_shards) = &mut self.kept else {
                unreachable!("sharded resolve with a flat kept store");
            };
            let book = self.spill.as_mut().expect("sharded resolve without spill");
            scratch.begin();
            for band in 0..bands {
                let shard = index.shard_for_band(signature, band);
                ensure_resident(index, kept_shards, book, shard)?;
                index.collect_band(signature, band, &mut scratch);
            }
            scratch.finish();
            let mut matched = None;
            for &candidate in scratch.candidates() {
                let home = candidate as usize % shard_count;
                ensure_resident(index, kept_shards, book, home)?;
                let (kept_input, kept_hashes) = &kept_shards[home]
                    .as_ref()
                    .expect("just made resident")[candidate as usize / shard_count];
                let similarity = jaccard_similarity_sorted(&hashes, kept_hashes);
                if similarity >= threshold {
                    matched = Some(Resolution::Duplicate {
                        kept_input: *kept_input,
                        similarity,
                    });
                    break;
                }
            }
            match matched {
                Some(resolution) => Ok(resolution),
                None => {
                    for band in 0..bands {
                        let shard = index.shard_for_band(signature, band);
                        ensure_resident(index, kept_shards, book, shard)?;
                        index.insert_band(slot as u64, signature, band);
                    }
                    index.commit_insert();
                    let home = slot % shard_count;
                    ensure_resident(index, kept_shards, book, home)?;
                    let hash_count = hashes.len();
                    kept_shards[home]
                        .as_mut()
                        .expect("just made resident")
                        .push((input_index, hashes));
                    book.shard_kept_hashes[home] += hash_count;
                    book.resident_kept_hashes += hash_count;
                    book.peak_resident_kept_hashes = book
                        .peak_resident_kept_hashes
                        .max(book.resident_kept_hashes);
                    Ok(Resolution::Kept)
                }
            }
        })();
        self.scratch = scratch;
        resolution
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
                    let outcome = stream
                        .push_texts_with_mode(chunk, mode)
                        .expect("in-memory push performs no IO");
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
        fast.push_texts_with_mode(&many, ExecutionMode::Parallel)
            .expect("in-memory push performs no IO");
        let fast_stats = fast.stats();
        assert!(fast_stats.exact_hits > 0, "no exact hits on forked corpus");
        let mut slow = without.streaming();
        slow.push_texts_with_mode(&many, ExecutionMode::Parallel)
            .expect("in-memory push performs no IO");
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
    fn spilled_engine_matches_the_resident_engine_for_any_budget() {
        let dedup = Deduplicator::new(DedupConfig::default());
        let docs = distinct_docs();
        let many: Vec<String> = (0..60)
            .map(|i| {
                let base = &docs[i % docs.len()];
                if i % 5 == 0 {
                    base.clone()
                } else {
                    format!("// file {i}\n{base}\nmodule pad_{i}(input p{i}); endmodule")
                }
            })
            .collect();
        let reference = dedup.dedup_texts_with_mode(&many, ExecutionMode::Parallel);
        for (shards, budget) in [(1, 1), (4, 1), (16, 2), (16, 4), (8, 32)] {
            let mut stream = dedup
                .streaming_with_spill(&DedupSpillConfig {
                    shards,
                    resident_shards: budget,
                    spill_dir: None,
                })
                .expect("spill engine opens");
            let mut merged = DedupOutcome::default();
            for chunk in many.chunks(7) {
                let outcome = stream
                    .push_texts_with_mode(chunk, ExecutionMode::Parallel)
                    .expect("spill IO succeeds");
                merged.kept.extend(outcome.kept);
                merged.removed.extend(outcome.removed);
            }
            assert_eq!(
                merged, reference,
                "spilled outcome diverged at {shards} shards, budget {budget}"
            );
            let stats = stream.stats();
            assert!(
                stats.peak_resident_shards <= budget.min(shards),
                "peak residency {} exceeded budget {budget} ({shards} shards)",
                stats.peak_resident_shards
            );
            if budget < shards {
                assert!(stats.shard_spills > 0, "bounded run never spilled");
                assert!(stats.shard_reloads > 0, "bounded run never reloaded");
                assert!(
                    stats.peak_resident_kept_hashes < stats.kept_hashes,
                    "kept-hash residency was never bounded"
                );
            }
            assert_eq!(stats.kept_docs, reference.kept.len());
        }
    }

    #[test]
    fn spill_directory_is_removed_on_drop() {
        let dedup = Deduplicator::new(DedupConfig::default());
        let stream = dedup
            .streaming_with_spill(&DedupSpillConfig {
                shards: 8,
                resident_shards: 2,
                spill_dir: None,
            })
            .expect("spill engine opens");
        let dir = stream.spill.as_ref().expect("spill enabled").dir.clone();
        assert!(
            dir.exists(),
            "spill dir should exist while the engine lives"
        );
        drop(stream);
        assert!(!dir.exists(), "spill dir must be removed on drop");
    }

    #[test]
    fn streaming_residency_tracks_the_kept_set() {
        let dedup = Deduplicator::new(DedupConfig::default());
        let docs = distinct_docs();
        // 90 files, only 3 distinct: the kept set stays tiny.
        let many: Vec<String> = (0..90).map(|i| docs[i % docs.len()].clone()).collect();
        let mut stream = dedup.streaming();
        for chunk in many.chunks(10) {
            stream
                .push_texts_with_mode(chunk, ExecutionMode::Parallel)
                .expect("in-memory push performs no IO");
        }
        let stats = stream.stats();
        assert_eq!(stats.pushed, 90);
        assert_eq!(stats.kept_docs, docs.len());
        assert!(stats.kept_hashes > 0);
        // Residency invariant: after 90 pushes the engine holds exactly what
        // it would hold having seen only the 3 distinct files — the kept
        // set, not the corpus.
        let mut reference = dedup.streaming();
        reference
            .push_texts(&docs)
            .expect("in-memory push performs no IO");
        assert_eq!(stats.kept_hashes, reference.stats().kept_hashes);
        assert_eq!(stats.kept_docs, reference.stats().kept_docs);
        // With exact-hash pre-dedup, only the 3 first occurrences ever built
        // shingles: 87 of 90 pushes were short-circuited before signature
        // construction.
        assert_eq!(stats.exact_hits, 87);
        assert_eq!(stats.pushed_hashes, stats.kept_hashes);
        assert!(stats.peak_batch_hashes <= stats.kept_hashes);
        // The sharded index spread its buckets.
        assert!(stream.shard_bucket_counts().iter().sum::<usize>() > 0);
    }
}
