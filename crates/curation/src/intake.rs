//! Streaming batch intake for the curation stage engine.
//!
//! A [`CurationSession`] accepts the corpus incrementally — e.g. one
//! repository at a time, straight off the scraper's clone stream — instead
//! of requiring the whole file bank up front. Pushed files gather in a
//! pending buffer. Once it holds at least `FLUSH_BYTES` (256 KiB) of file
//! content, the session flushes it as one batch through the leading
//! *streamable* prefix of the stage list: batch-invariant stages (license,
//! length, syntax, copyright) apply statelessly, and stateful streaming
//! stages (de-duplication, which resolves each batch against its persistent
//! kept-index — see [`CurationStage::open_stream`]) carry their state across
//! flushes. [`CurationSession::finish`] flushes the remainder, then runs the
//! deferred suffix — a custom stage without a streaming form and the stages
//! after it — over the prefix's survivors in arrival order. Under the
//! paper's FreeSet policy every stage streams, so nothing is deferred.
//!
//! Flushing at batch grain is what lets the per-stage fan-outs pay off: a
//! scraped repository holds about a dozen files, too few to amortise
//! starting worker threads six times, while a flush holds a few hundred. The
//! budget counts content bytes rather than files or workers, so flush
//! boundaries depend only on the pushed files, and de-duplication's in-flight
//! working set stays bounded by `FLUSH_BYTES` plus the largest single push.
//!
//! The session is *exactly* equivalent to the one-shot path: for any split
//! of a corpus into batches,
//! `session.push(batch₁); …; session.push(batchₙ); session.finish()`
//! produces the same [`CuratedDataset`] — files, funnel and rejection
//! provenance — as `pipeline.run(batch₁ ⧺ … ⧺ batchₙ)` (property-tested in
//! `tests/stage_properties.rs`), because every streaming stage is
//! prefix-consistent for any split. [`crate::CurationPipeline::run`] is in
//! fact implemented as a single-batch session.

use std::io;

use gh_sim::ExtractedFile;

use crate::funnel::FunnelStats;
use crate::pipeline::{CuratedDataset, CurationPipeline};
use crate::stage::{CurationStage, FileBatch, RejectedFile, StageOutcome, StageStreaming};

/// File content, in bytes, the pending buffer gathers before the session
/// runs the streaming prefix over it: a few hundred scraped files, enough to
/// amortise each stage's fan-out, and a small fraction of the kept set the
/// de-duplicator holds anyway.
const FLUSH_BYTES: usize = 256 * 1024;

/// Per-stage tallies accumulated across flushed batches.
#[derive(Default)]
struct StageTally {
    entering: usize,
    surviving: usize,
    rejects: Vec<RejectedFile>,
}

/// Looks up a stage across the configured and custom stage lists.
///
/// A free function (not a method) so `flush` can borrow the stage while the
/// per-stage streams are borrowed mutably — the borrows are disjoint fields.
fn stage_at<'a>(
    configured: &'a [Box<dyn CurationStage>],
    custom: &'a [Box<dyn CurationStage>],
    index: usize,
) -> &'a dyn CurationStage {
    if index < configured.len() {
        configured[index].as_ref()
    } else {
        custom[index - configured.len()].as_ref()
    }
}

/// An in-progress curation run accepting the corpus batch by batch.
///
/// Created by [`CurationPipeline::session`]; see the module docs for the
/// equivalence guarantee.
///
/// # Example
///
/// ```
/// use curation::{CurationConfig, CurationPipeline};
///
/// let pipeline = CurationPipeline::new(CurationConfig::freeset());
/// let mut session = pipeline.session();
/// session.push(vec![])?; // batches arrive as the scrape progresses
/// let dataset = session.finish()?;
/// assert!(dataset.is_empty());
/// # Ok::<(), std::io::Error>(())
/// ```
pub struct CurationSession<'p> {
    pipeline: &'p CurationPipeline,
    /// The stages built from the pipeline's configuration (custom stages are
    /// borrowed from the pipeline and run after these).
    configured: Vec<Box<dyn CurationStage>>,
    /// Index (into the configured ⧺ custom stage list) of the first stage
    /// with no streaming form; stages before it run once per flushed batch.
    split: usize,
    /// One streaming form per stage in the prefix (`Stateless` entries apply
    /// the stage directly; `Stateful` entries carry cross-batch state).
    streams: Vec<StageStreaming>,
    /// One tally per streaming stage.
    tallies: Vec<StageTally>,
    /// Pushed files the streaming prefix has not run over yet, in arrival
    /// order.
    pending: Vec<ExtractedFile>,
    /// Total content bytes of `pending`.
    pending_bytes: usize,
    /// Survivors of the streaming prefix, in arrival order.
    survivors: Vec<ExtractedFile>,
    /// Total files pushed (the funnel's initial count).
    pushed: usize,
}

impl<'p> CurationSession<'p> {
    pub(crate) fn new(pipeline: &'p CurationPipeline) -> io::Result<Self> {
        let configured = pipeline.configured_stages();
        let custom = pipeline.custom_stage_list();
        let total = configured.len() + custom.len();
        let mut streams = Vec::new();
        let mut split = total;
        for index in 0..total {
            match stage_at(&configured, custom, index).open_stream()? {
                StageStreaming::Deferred => {
                    split = index;
                    break;
                }
                stream => streams.push(stream),
            }
        }
        Ok(Self {
            pipeline,
            configured,
            split,
            streams,
            tallies: (0..split).map(|_| StageTally::default()).collect(),
            pending: Vec::new(),
            pending_bytes: 0,
            survivors: Vec::new(),
            pushed: 0,
        })
    }

    fn stage_at(&self, index: usize) -> &dyn CurationStage {
        stage_at(&self.configured, self.pipeline.custom_stage_list(), index)
    }

    fn stage_count(&self) -> usize {
        self.configured.len() + self.pipeline.custom_stage_list().len()
    }

    /// Number of leading stages applied incrementally, once per flushed
    /// batch. Under the FreeSet policy this is *every* stage —
    /// de-duplication streams against its persistent kept-index.
    pub fn streaming_stage_count(&self) -> usize {
        self.split
    }

    /// Total files pushed so far.
    pub fn pushed(&self) -> usize {
        self.pushed
    }

    /// Queues one batch for the streaming stage prefix. The files join the
    /// pending buffer; once it holds at least 256 KiB of content, the whole
    /// buffer runs through the prefix as one batch and its survivors are
    /// kept for the deferred stages (if any). Most pushes are plain appends.
    ///
    /// # Errors
    ///
    /// Returns the IO error of a spill-backed streaming stage (see
    /// [`crate::DedupSpillConfig`]) when this push flushes. A flush carries
    /// the files of every push since the previous one, so the error can
    /// surface at a later push than the files that caused it, or only at
    /// [`Self::finish`]. Sessions without spill never error. After an error
    /// the session's carried state is suspect — discard it.
    pub fn push(&mut self, files: Vec<ExtractedFile>) -> io::Result<()> {
        self.pushed += files.len();
        self.pending_bytes += files.iter().map(|f| f.content.len()).sum::<usize>();
        self.pending.extend(files);
        if self.pending_bytes >= FLUSH_BYTES {
            self.flush()?;
        }
        Ok(())
    }

    /// Runs the pending files through the streaming prefix as one batch and
    /// appends the prefix's survivors to `survivors`.
    fn flush(&mut self) -> io::Result<()> {
        let mut files = std::mem::take(&mut self.pending);
        self.pending_bytes = 0;
        let mode = self.pipeline.mode();
        for index in 0..self.split {
            let mut outcome = match &mut self.streams[index] {
                StageStreaming::Stateful(stream) => stream.push(FileBatch::new(files, mode))?,
                StageStreaming::Stateless => {
                    stage_at(&self.configured, self.pipeline.custom_stage_list(), index)
                        .apply(FileBatch::new(files, mode))
                }
                StageStreaming::Deferred => {
                    unreachable!("deferred stages are never part of the streaming prefix")
                }
            };
            let stage = self.stage_at(index);
            restamp(stage, &mut outcome);
            let tally = &mut self.tallies[index];
            tally.entering += outcome.total();
            tally.surviving += outcome.kept.len();
            tally.rejects.append(&mut outcome.rejected);
            files = outcome.kept;
        }
        self.survivors.extend(files);
        Ok(())
    }

    /// Flushes the pending files through the streaming prefix, runs the
    /// deferred stages over the survivors and assembles the dataset:
    /// identical, batch split notwithstanding, to a one-shot
    /// [`CurationPipeline::run`] over the concatenated input.
    ///
    /// # Errors
    ///
    /// Returns the IO error of a spill-backed streaming stage (see
    /// [`crate::DedupSpillConfig`]) hit by the final flush, which carries
    /// every file pushed since the last flush. Sessions without spill never
    /// error; the deferred stages run through the infallible
    /// [`CurationStage::apply`].
    pub fn finish(mut self) -> io::Result<CuratedDataset> {
        self.flush()?;
        let mut funnel = FunnelStats::new(self.pushed);
        let mut rejects: Vec<RejectedFile> = Vec::new();
        // The streaming prefix: fold the per-batch tallies into the funnel.
        let tallies = std::mem::take(&mut self.tallies);
        for (index, mut tally) in tallies.into_iter().enumerate() {
            funnel.record_with_categories(
                self.stage_at(index).name(),
                tally.surviving,
                reject_categories(&tally.rejects),
            );
            debug_assert_eq!(
                funnel.stages().last().map(|s| s.entering),
                Some(tally.entering),
                "streamed tallies must chain like a one-shot funnel"
            );
            rejects.append(&mut tally.rejects);
        }
        // The deferred suffix: ordinary stage-at-a-time execution.
        let mut files = std::mem::take(&mut self.survivors);
        for index in self.split..self.stage_count() {
            let stage = self.stage_at(index);
            let mut outcome = stage.apply(FileBatch::new(files, self.pipeline.mode()));
            restamp(stage, &mut outcome);
            funnel.record_with_categories(
                stage.name(),
                outcome.kept.len(),
                reject_categories(&outcome.rejected),
            );
            rejects.extend(outcome.rejected);
            files = outcome.kept;
        }
        Ok(self.pipeline.assemble_dataset(files, funnel, rejects))
    }
}

/// Folds a stage's categorised rejections into sorted `(category, count)`
/// rows for the funnel. Stages that never categorise produce an empty list.
/// Because the rows are derived from the rejection list itself, streamed
/// and one-shot runs — whose rejection lists are identical — get identical
/// category counts.
fn reject_categories(rejects: &[RejectedFile]) -> Vec<(String, usize)> {
    let mut counts = std::collections::BTreeMap::new();
    for reject in rejects {
        if let Some(category) = &reject.category {
            *counts.entry(category.clone()).or_insert(0) += 1;
        }
    }
    counts.into_iter().collect()
}

/// Stamps every rejection with the stage's canonical name so provenance
/// always keys the same way as the funnel, even when a stage's `apply`
/// tagged rejections inconsistently.
fn restamp(stage: &dyn CurationStage, outcome: &mut StageOutcome) {
    for reject in &mut outcome.rejected {
        if reject.stage != stage.name() {
            reject.stage = stage.name().to_string();
        }
    }
}
