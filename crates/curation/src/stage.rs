//! The curation stage engine: first-class, composable pipeline stages.
//!
//! Each curation policy is a sequence of [`CurationStage`]s. A stage consumes
//! a [`FileBatch`], keeps some files and rejects the rest with per-file
//! provenance ([`RejectedFile`] carrying a [`RejectReason`]). The pipeline
//! threads the survivors of one stage into the next and aggregates the
//! rejections, so any policy — the paper's FreeSet funnel, a prior work's
//! weaker policy, or a custom experiment — is just a different stage list.
//!
//! Stages whose per-file decisions are independent (license, length cap,
//! syntax, copyright) fan out across threads when the batch runs in
//! [`ExecutionMode::Parallel`]; verdicts are computed in parallel but files
//! are partitioned in input order, so parallel output is identical to serial
//! output. De-duplication is inherently sequential (first occurrence wins)
//! but parallelises its MinHash signature construction — see
//! [`crate::dedup::Deduplicator`].

use std::io;

use gh_sim::ExtractedFile;
use serde::{Deserialize, Serialize};

/// Whether per-file work fans out across threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ExecutionMode {
    /// Single-threaded; the reference behaviour.
    Serial,
    /// Multi-threaded with order-stable merging: output is byte-identical to
    /// [`ExecutionMode::Serial`].
    #[default]
    Parallel,
}

/// Why a file was removed from the corpus (§III-C/D's filter taxonomy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RejectReason {
    /// The repository carries no accepted open-source license.
    License,
    /// The file exceeds the policy's maximum length.
    LengthCap,
    /// The file is a near-duplicate of an earlier file.
    Duplicate,
    /// The file does not lex/parse.
    Syntax,
    /// The file parses but fails the semantic lint policy (see
    /// [`crate::LintStage`]; the offending rule id is recorded in
    /// [`RejectedFile::category`]).
    Lint,
    /// The file's header carries proprietary-copyright language.
    Copyright,
}

/// A rejected file with full provenance: which stage removed it, why, and
/// any stage-specific detail (e.g. the matched copyright keywords).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RejectedFile {
    /// The file that was removed.
    pub file: ExtractedFile,
    /// Name of the stage that removed it.
    pub stage: String,
    /// The reject reason.
    pub reason: RejectReason,
    /// Optional machine-readable sub-category of the reason — e.g. the
    /// kebab-case lint rule id ("comb-loop") that condemned the file. The
    /// funnel folds these into per-rule counts
    /// ([`crate::StageCount::categories`]).
    pub category: Option<String>,
    /// Optional human-readable detail.
    pub detail: Option<String>,
}

/// A batch of files flowing through the pipeline, tagged with the execution
/// mode stages should use for their per-file work.
#[derive(Debug, Clone)]
pub struct FileBatch {
    files: Vec<ExtractedFile>,
    mode: ExecutionMode,
}

impl FileBatch {
    /// Wraps files in a batch with the given execution mode.
    pub fn new(files: Vec<ExtractedFile>, mode: ExecutionMode) -> Self {
        Self { files, mode }
    }

    /// The files in the batch.
    pub fn files(&self) -> &[ExtractedFile] {
        &self.files
    }

    /// Unwraps the files.
    pub fn into_files(self) -> Vec<ExtractedFile> {
        self.files
    }

    /// Number of files.
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// The execution mode stages should honour.
    pub fn mode(&self) -> ExecutionMode {
        self.mode
    }

    /// Maps every file through `f`, in parallel when the batch mode asks for
    /// it, always returning results in input order.
    pub fn map_files<R: Send>(&self, f: impl Fn(&ExtractedFile) -> R + Sync) -> Vec<R> {
        match self.mode {
            ExecutionMode::Serial => self.files.iter().map(f).collect(),
            ExecutionMode::Parallel => {
                use rayon::prelude::*;
                self.files.par_iter().map(f).collect()
            }
        }
    }

    /// Splits the batch with a per-file predicate: files for which `keep`
    /// returns `true` survive, the rest are rejected under `stage`/`reason`.
    ///
    /// Verdicts are computed per-file (in parallel when the mode asks for it)
    /// and the partition preserves input order, so the outcome is identical
    /// in both execution modes.
    pub fn partition(
        self,
        stage: &str,
        reason: RejectReason,
        keep: impl Fn(&ExtractedFile) -> bool + Sync,
    ) -> StageOutcome {
        let verdicts = self.map_files(|f| keep(f));
        let mut outcome = StageOutcome::with_capacity(self.files.len());
        for (file, keep) in self.files.into_iter().zip(verdicts) {
            if keep {
                outcome.kept.push(file);
            } else {
                outcome.reject(file, stage, reason, None);
            }
        }
        outcome
    }
}

/// The result of applying one stage to a batch.
#[derive(Debug, Clone, Default)]
pub struct StageOutcome {
    /// Files surviving the stage, in input order.
    pub kept: Vec<ExtractedFile>,
    /// Files the stage removed, in input order, with provenance.
    pub rejected: Vec<RejectedFile>,
}

impl StageOutcome {
    /// An outcome with capacity reserved for `n` keeps.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            kept: Vec::with_capacity(n),
            rejected: Vec::new(),
        }
    }

    /// An outcome that keeps every file.
    pub fn keep_all(files: Vec<ExtractedFile>) -> Self {
        Self {
            kept: files,
            rejected: Vec::new(),
        }
    }

    /// Records a rejection.
    pub fn reject(
        &mut self,
        file: ExtractedFile,
        stage: &str,
        reason: RejectReason,
        detail: Option<String>,
    ) {
        self.reject_with_category(file, stage, reason, None, detail);
    }

    /// Records a rejection carrying a machine-readable sub-category (e.g.
    /// the lint rule id).
    pub fn reject_with_category(
        &mut self,
        file: ExtractedFile,
        stage: &str,
        reason: RejectReason,
        category: Option<String>,
        detail: Option<String>,
    ) {
        self.rejected.push(RejectedFile {
            file,
            stage: stage.to_string(),
            reason,
            category,
            detail,
        });
    }

    /// Total files that entered the stage (kept + rejected).
    pub fn total(&self) -> usize {
        self.kept.len() + self.rejected.len()
    }
}

/// A stateful, per-session instance of a stage consuming a stream of
/// batches.
///
/// Obtained from [`CurationStage::open_stream`]; a [`crate::CurationSession`]
/// feeds its pushed files through the stream in arrival order, coalesced
/// into batches of about 256 KiB of content. A stream must be
/// *prefix-consistent*: after pushing batches `b₁ … bₙ`, the concatenation
/// of the returned outcomes must equal the outcome of the stage's one-shot
/// [`CurationStage::apply`] over `b₁ ⧺ … ⧺ bₙ` — same kept files, same
/// rejections, same provenance text. That is what lets the
/// session guarantee streamed output byte-identical to a one-shot run.
pub trait StageStream: Send {
    /// Feeds one batch through the stage, carrying state forward to the next
    /// push.
    ///
    /// # Errors
    ///
    /// Streams backed by spill files (see [`crate::DedupSpillConfig`])
    /// surface their IO failures here instead of panicking; purely in-memory
    /// streams never error. After an error the stream's carried state is
    /// suspect — discard the session rather than pushing further batches.
    fn push(&mut self, batch: FileBatch) -> io::Result<StageOutcome>;
}

/// How a stage participates in a [`crate::CurationSession`]'s streaming
/// intake — the result of [`CurationStage::open_stream`].
pub enum StageStreaming {
    /// The stage cannot stream: the session defers it, and every stage after
    /// it, to `finish()`. The conservative answer, always correct.
    Deferred,
    /// The stage is batch-invariant: per-batch `apply` needs no carried
    /// state, so the session simply applies it to each batch it flushes.
    Stateless,
    /// The stage streams through per-session state (e.g. de-duplication
    /// against the persistent kept-index).
    Stateful(Box<dyn StageStream>),
}

/// A curation stage: a named transformation that partitions a batch into
/// survivors and provenance-tagged rejections.
///
/// Implementations must be deterministic in their input (the pipeline's
/// serial/parallel equivalence guarantee relies on it) and must conserve
/// files: every input file appears exactly once in `kept` or `rejected`.
///
/// The pipeline executor re-stamps every rejection's `stage` field with
/// [`CurationStage::name`], so funnel counts and rejection provenance always
/// key identically even if `apply` tags rejections with a different label.
pub trait CurationStage: Send + Sync {
    /// The stage's name — the key under which the funnel records its counts.
    fn name(&self) -> &str;

    /// Applies the stage to a batch.
    fn apply(&self, batch: FileBatch) -> StageOutcome;

    /// Whether the stage's per-file verdicts are independent of the rest of
    /// the batch, so that applying it to a stream of batches produces the
    /// same result as applying it to their concatenation.
    ///
    /// Defaults to `false` — the conservative answer, always correct.
    fn batch_invariant(&self) -> bool {
        false
    }

    /// Opens this stage's streaming form for one [`crate::CurationSession`].
    ///
    /// The default derives the answer from [`Self::batch_invariant`]:
    /// invariant stages stream statelessly, everything else is deferred.
    /// Stages that are order-dependent but can carry their cross-batch state
    /// explicitly (de-duplication against a persistent kept-index) override
    /// this to return [`StageStreaming::Stateful`], which lets the session
    /// run them incrementally while the scrape is still in flight.
    ///
    /// # Errors
    ///
    /// Stages whose streaming state lives partly on disk (spill-backed
    /// de-duplication) return the IO error that prevented opening it; all
    /// other stages — including this default — never error.
    fn open_stream(&self) -> io::Result<StageStreaming> {
        Ok(if self.batch_invariant() {
            StageStreaming::Stateless
        } else {
            StageStreaming::Deferred
        })
    }
}

/// Canonical stage names, shared by the stage implementations, the funnel's
/// paper-rate accessors and the experiment reports.
pub mod stage_names {
    /// Repository license filter.
    pub const LICENSE: &str = "license filter";
    /// Maximum-file-length filter.
    pub const LENGTH: &str = "length filter";
    /// MinHash/LSH de-duplication.
    pub const DEDUP: &str = "deduplication";
    /// Syntax check.
    pub const SYNTAX: &str = "syntax filter";
    /// Semantic lint check.
    pub const LINT: &str = "lint filter";
    /// Per-file copyright check.
    pub const COPYRIGHT: &str = "copyright filter";
}

#[cfg(test)]
mod tests {
    use super::*;
    use gh_sim::License;

    fn file(i: usize, content: &str) -> ExtractedFile {
        ExtractedFile {
            repo_id: i as u64,
            repo_full_name: format!("o/r{i}"),
            owner: "o".into(),
            repo_license: License::Mit,
            created_year: 2020,
            path: format!("f{i}.v"),
            content: content.into(),
        }
    }

    #[test]
    fn partition_is_order_stable_and_conserving() {
        for mode in [ExecutionMode::Serial, ExecutionMode::Parallel] {
            let files: Vec<ExtractedFile> = (0..100)
                .map(|i| file(i, if i % 3 == 0 { "keep" } else { "drop" }))
                .collect();
            let outcome =
                FileBatch::new(files.clone(), mode)
                    .partition("test", RejectReason::Syntax, |f| f.content == "keep");
            assert_eq!(outcome.total(), 100);
            assert_eq!(outcome.kept.len(), 34);
            assert!(outcome.kept.windows(2).all(|w| w[0].repo_id < w[1].repo_id));
            assert!(outcome
                .rejected
                .windows(2)
                .all(|w| w[0].file.repo_id < w[1].file.repo_id));
            assert!(outcome
                .rejected
                .iter()
                .all(|r| r.reason == RejectReason::Syntax));
            assert!(outcome.rejected.iter().all(|r| r.stage == "test"));
        }
    }

    #[test]
    fn serial_and_parallel_partitions_agree() {
        let files: Vec<ExtractedFile> = (0..257)
            .map(|i| file(i, &format!("content {}", i % 7)))
            .collect();
        let serial = FileBatch::new(files.clone(), ExecutionMode::Serial).partition(
            "s",
            RejectReason::LengthCap,
            |f| f.content.len() % 2 == 0,
        );
        let parallel = FileBatch::new(files, ExecutionMode::Parallel).partition(
            "s",
            RejectReason::LengthCap,
            |f| f.content.len() % 2 == 0,
        );
        assert_eq!(serial.kept, parallel.kept);
        assert_eq!(serial.rejected, parallel.rejected);
    }

    #[test]
    fn map_files_preserves_order_in_both_modes() {
        let files: Vec<ExtractedFile> = (0..64).map(|i| file(i, "x")).collect();
        let serial = FileBatch::new(files.clone(), ExecutionMode::Serial).map_files(|f| f.repo_id);
        let parallel = FileBatch::new(files, ExecutionMode::Parallel).map_files(|f| f.repo_id);
        assert_eq!(serial, parallel);
        assert_eq!(serial, (0..64).collect::<Vec<u64>>());
    }
}
