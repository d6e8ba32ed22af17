//! Streaming batch intake for the curation stage engine.
//!
//! A [`CurationSession`] accepts the corpus incrementally — e.g. one
//! repository at a time, straight off a concurrent scraper's handoff queue —
//! instead of requiring the whole file bank up front. The session runs the
//! leading *streamable* prefix of the stage list on each batch as it
//! arrives: batch-invariant stages (license, length, syntax, copyright)
//! apply statelessly, and stateful streaming stages (de-duplication, which
//! resolves each batch against its persistent kept-index — see
//! [`CurationStage::open_stream`]) carry their state across pushes. Under
//! the paper's FreeSet policy every stage streams, so nothing is buffered
//! and curation — dedup included — fully overlaps the scrape. Only a custom
//! stage without a streaming form (and the stages after it) is deferred to
//! [`CurationSession::finish`], which runs the deferred suffix over the
//! buffered survivors in arrival order.
//!
//! The session is *exactly* equivalent to the one-shot path: for any split
//! of a corpus into batches,
//! `session.push(batch₁); …; session.push(batchₙ); session.finish()`
//! produces the same [`CuratedDataset`] — files, funnel and rejection
//! provenance — as `pipeline.run(batch₁ ⧺ … ⧺ batchₙ)` (property-tested in
//! `tests/stage_properties.rs`). [`crate::CurationPipeline::run`] is in fact
//! implemented as a single-batch session.

use std::io;

use gh_sim::ExtractedFile;

use crate::funnel::FunnelStats;
use crate::pipeline::{CuratedDataset, CurationPipeline};
use crate::stage::{CurationStage, FileBatch, RejectedFile, StageOutcome, StageStreaming};

/// Per-stage tallies accumulated across pushed batches.
#[derive(Default)]
struct StageTally {
    entering: usize,
    surviving: usize,
    rejects: Vec<RejectedFile>,
}

/// Looks up a stage across the configured and custom stage lists.
///
/// A free function (not a method) so `push` can borrow the stage while the
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
    /// with no streaming form; stages before it run per batch.
    split: usize,
    /// One streaming form per stage in the prefix (`Stateless` entries apply
    /// the stage directly; `Stateful` entries carry cross-batch state).
    streams: Vec<StageStreaming>,
    /// One tally per streaming stage.
    tallies: Vec<StageTally>,
    /// Survivors of the streaming prefix, in arrival order.
    buffered: Vec<ExtractedFile>,
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
            buffered: Vec::new(),
            pushed: 0,
        })
    }

    fn stage_at(&self, index: usize) -> &dyn CurationStage {
        stage_at(&self.configured, self.pipeline.custom_stage_list(), index)
    }

    fn stage_count(&self) -> usize {
        self.configured.len() + self.pipeline.custom_stage_list().len()
    }

    /// Number of leading stages applied incrementally per pushed batch.
    /// Under the FreeSet policy this is *every* stage — de-duplication
    /// streams against its persistent kept-index.
    pub fn streaming_stage_count(&self) -> usize {
        self.split
    }

    /// Total files pushed so far.
    pub fn pushed(&self) -> usize {
        self.pushed
    }

    /// Feeds one batch through the streaming stage prefix, buffering its
    /// survivors for the deferred stages (if any).
    ///
    /// # Errors
    ///
    /// Returns the IO error of a spill-backed streaming stage (see
    /// [`crate::DedupSpillConfig`]); sessions without spill never error.
    /// After an error the session's carried state is suspect — discard it.
    pub fn push(&mut self, files: Vec<ExtractedFile>) -> io::Result<()> {
        self.pushed += files.len();
        let mode = self.pipeline.mode();
        let mut files = files;
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
        self.buffered.extend(files);
        Ok(())
    }

    /// Runs the deferred stages over the buffered survivors and assembles
    /// the dataset: identical, batch split notwithstanding, to a one-shot
    /// [`CurationPipeline::run`] over the concatenated input.
    ///
    /// # Errors
    ///
    /// Never returns `Err` today: the deferred stages run through
    /// [`CurationStage::apply`], which is infallible. The `io::Result` is
    /// reserved for a deferred stage that spills to disk.
    pub fn finish(mut self) -> io::Result<CuratedDataset> {
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
        let mut files = std::mem::take(&mut self.buffered);
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
