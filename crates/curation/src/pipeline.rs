//! The end-to-end curation pipeline: an executor over a [`CurationStage`]
//! list.
//!
//! [`CurationPipeline::new`] assembles the stage list a [`CurationConfig`]'s
//! toggles describe (the compatibility path every Table I policy uses);
//! [`CurationPipeline::with_stage`] appends arbitrary custom stages, so
//! experiments can curate with policies the paper never shipped. The
//! pipeline runs each stage in order, records a stage-keyed [`FunnelStats`],
//! and retains every rejection with provenance in the produced
//! [`CuratedDataset`]. [`CurationPipeline::try_run`] and
//! [`CurationPipeline::try_session`] return the error of a custom stage's
//! stream; [`CurationPipeline::run`] and [`CurationPipeline::session`]
//! panic on it, and the built-in stages never produce one.

use std::io;

use gh_sim::ExtractedFile;
use serde::{Deserialize, Serialize};

use crate::copyright::CopyrightDetector;
use crate::dedup::{DedupConfig, DedupSpillConfig};
use crate::funnel::FunnelStats;
use crate::intake::CurationSession;
use crate::license_filter::LicenseFilter;
use crate::lint_stage::{LintRejectPolicy, LintStage};
use crate::parse_cache::ParseCache;
use crate::stage::{CurationStage, ExecutionMode, RejectReason, RejectedFile};
use crate::stages::{CopyrightStage, DedupStage, LengthCapStage, LicenseStage, SyntaxStage};

/// How the curated dataset is meant to be consumed downstream — mirrored from
/// Table I's "Dataset Structure" column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DatasetStructure {
    /// Raw files for continual (causal) pre-training — FreeSet and VeriGen.
    ContinualPretraining,
    /// Prompt/response pairs for instruction tuning — RTLCoder, CodeV, ….
    InstructionTuning,
}

/// Configuration of a curation run. Stage toggles exist so that prior works'
/// weaker policies can be reproduced for the comparison experiments; the
/// pipeline turns them into the equivalent [`CurationStage`] list.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CurationConfig {
    /// Human-readable policy name (e.g. `"FreeSet"`, `"VeriGen"`).
    pub name: String,
    /// Whether to drop files from repositories without an accepted license.
    pub check_repository_license: bool,
    /// Whether to run the per-file copyright keyword filter.
    pub check_file_copyright: bool,
    /// Whether to run MinHash/LSH de-duplication.
    pub deduplicate: bool,
    /// Whether to drop files that fail the syntax check.
    pub check_syntax: bool,
    /// Semantic lint policy: when set, files whose lint findings reach the
    /// policy's severity threshold are dropped (with the offending rule id
    /// recorded as the rejection's category). `None` disables the stage.
    pub lint: Option<LintRejectPolicy>,
    /// Optional maximum file length in characters (CodeV-style truncation of
    /// the corpus; `None` keeps everything).
    pub max_file_chars: Option<usize>,
    /// De-duplication parameters.
    pub dedup: DedupConfig,
    /// Always `None`: [`DedupSpillConfig`] has no values, and the
    /// de-duplicator keeps its state in memory.
    pub dedup_spill: Option<DedupSpillConfig>,
    /// Dataset structure produced by the policy.
    pub structure: DatasetStructure,
    /// Whether the policy augments the corpus with synthetic/LLM-generated
    /// data (recorded for Table I; this pipeline never fabricates files).
    pub augmented: bool,
}

impl CurationConfig {
    /// The paper's FreeSet policy: license check, copyright check,
    /// de-duplication and syntax check all enabled, no length cap.
    pub fn freeset() -> Self {
        Self {
            name: "FreeSet".into(),
            check_repository_license: true,
            check_file_copyright: true,
            deduplicate: true,
            check_syntax: true,
            lint: Some(LintRejectPolicy::default()),
            max_file_chars: None,
            dedup: DedupConfig::default(),
            dedup_spill: None,
            structure: DatasetStructure::ContinualPretraining,
            augmented: false,
        }
    }

    /// A policy that applies no filtering at all (the raw scrape).
    pub fn unfiltered(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            check_repository_license: false,
            check_file_copyright: false,
            deduplicate: false,
            check_syntax: false,
            lint: None,
            max_file_chars: None,
            dedup: DedupConfig::default(),
            dedup_spill: None,
            structure: DatasetStructure::ContinualPretraining,
            augmented: false,
        }
    }
}

/// One file of a curated dataset.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CuratedFile {
    /// The extracted file, with provenance.
    pub file: ExtractedFile,
}

impl CuratedFile {
    /// File length in characters.
    pub fn char_len(&self) -> usize {
        self.file.char_len()
    }

    /// The file contents.
    pub fn content(&self) -> &str {
        &self.file.content
    }
}

/// The output of a curation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CuratedDataset {
    name: String,
    structure: DatasetStructure,
    augmented: bool,
    files: Vec<CuratedFile>,
    funnel: FunnelStats,
    rejects: Vec<RejectedFile>,
}

impl CuratedDataset {
    /// Policy name that produced the dataset.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Declared dataset structure.
    pub fn structure(&self) -> DatasetStructure {
        self.structure
    }

    /// Whether the producing policy augments its data.
    pub fn augmented(&self) -> bool {
        self.augmented
    }

    /// The curated files.
    pub fn files(&self) -> &[CuratedFile] {
        &self.files
    }

    /// Number of files (Table I's "Size (Rows)").
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// Total size in characters (the proxy for Table I's on-disk size).
    pub fn total_chars(&self) -> usize {
        self.files.iter().map(CuratedFile::char_len).sum()
    }

    /// The stage-by-stage funnel.
    pub fn funnel(&self) -> &FunnelStats {
        &self.funnel
    }

    /// Every rejected file with full provenance (stage, reason, detail), in
    /// rejection order.
    pub fn rejects(&self) -> &[RejectedFile] {
        &self.rejects
    }

    /// The rejected files removed for a specific reason.
    pub fn rejects_for(&self, reason: RejectReason) -> impl Iterator<Item = &RejectedFile> {
        self.rejects.iter().filter(move |r| r.reason == reason)
    }

    /// Files the copyright filter rejected — the raw material for the
    /// copyrighted reference set of the infringement benchmark.
    pub fn copyright_rejects(&self) -> Vec<&ExtractedFile> {
        self.rejects_for(RejectReason::Copyright)
            .map(|r| &r.file)
            .collect()
    }

    /// Iterates over file contents (training corpus view).
    pub fn contents(&self) -> impl Iterator<Item = &str> {
        self.files.iter().map(|f| f.file.content.as_str())
    }
}

/// Runs a curation policy as a sequence of [`CurationStage`]s.
///
/// # Example
///
/// ```
/// use curation::{CurationConfig, CurationPipeline};
///
/// let pipeline = CurationPipeline::new(CurationConfig::freeset());
/// assert_eq!(pipeline.config().name, "FreeSet");
/// assert_eq!(
///     pipeline.stage_names(),
///     vec!["license filter", "deduplication", "syntax filter", "lint filter", "copyright filter"],
/// );
/// ```
pub struct CurationPipeline {
    config: CurationConfig,
    custom_stages: Vec<Box<dyn CurationStage>>,
    mode: ExecutionMode,
}

impl CurationPipeline {
    /// Creates a pipeline whose stage list mirrors the policy's toggles, in
    /// the paper's order: license filter → (length filter) → de-duplication →
    /// syntax check → (semantic lint) → per-file copyright check.
    pub fn new(config: CurationConfig) -> Self {
        Self {
            config,
            custom_stages: Vec::new(),
            mode: ExecutionMode::default(),
        }
    }

    /// Appends a custom stage, run after the policy's configured stages (in
    /// registration order). This is how experiments express curation steps
    /// the paper's toggle set cannot.
    pub fn with_stage(mut self, stage: Box<dyn CurationStage>) -> Self {
        self.custom_stages.push(stage);
        self
    }

    /// Sets the execution mode (the default is [`ExecutionMode::Parallel`];
    /// both modes produce identical output).
    pub fn with_mode(mut self, mode: ExecutionMode) -> Self {
        self.mode = mode;
        self
    }

    /// Convenience for `with_mode(ExecutionMode::Serial)`.
    pub fn serial(self) -> Self {
        self.with_mode(ExecutionMode::Serial)
    }

    /// The configuration in use.
    pub fn config(&self) -> &CurationConfig {
        &self.config
    }

    /// The execution mode in use.
    pub fn mode(&self) -> ExecutionMode {
        self.mode
    }

    /// Builds the stage list the configuration's toggles describe (without
    /// the appended custom stages).
    pub(crate) fn configured_stages(&self) -> Vec<Box<dyn CurationStage>> {
        let mut stages: Vec<Box<dyn CurationStage>> = Vec::new();
        if self.config.check_repository_license {
            stages.push(Box::new(LicenseStage::new(LicenseFilter::paper_default())));
        }
        if let Some(cap) = self.config.max_file_chars {
            stages.push(Box::new(LengthCapStage::new(cap)));
        }
        if self.config.deduplicate {
            stages.push(Box::new(DedupStage::new(self.config.dedup)));
        }
        // When the syntax filter feeds straight into the lint stage, the
        // pair shares a ParseCache: syntax parses each file exactly once
        // and lint reuses that parse instead of re-parsing.
        let parse_cache = (self.config.check_syntax && self.config.lint.is_some())
            .then(|| std::sync::Arc::new(ParseCache::new()));
        if self.config.check_syntax {
            stages.push(Box::new(match &parse_cache {
                Some(cache) => SyntaxStage::with_cache(std::sync::Arc::clone(cache)),
                None => SyntaxStage::new(),
            }));
        }
        if let Some(policy) = &self.config.lint {
            stages.push(Box::new(match parse_cache {
                Some(cache) => LintStage::with_cache(policy.clone(), cache),
                None => LintStage::new(policy.clone()),
            }));
        }
        if self.config.check_file_copyright {
            stages.push(Box::new(CopyrightStage::new(CopyrightDetector::new())));
        }
        stages
    }

    /// The appended custom stages, in registration order.
    pub(crate) fn custom_stage_list(&self) -> &[Box<dyn CurationStage>] {
        &self.custom_stages
    }

    /// The names of the stages this pipeline will run, in order.
    pub fn stage_names(&self) -> Vec<String> {
        self.configured_stages()
            .iter()
            .map(|s| s.name().to_string())
            .chain(self.custom_stages.iter().map(|s| s.name().to_string()))
            .collect()
    }

    /// Opens a streaming intake session: the corpus can be pushed batch by
    /// batch (e.g. straight off the scraper's clone stream) and the result
    /// is identical to a one-shot [`CurationPipeline::run`] over the
    /// concatenated batches. See [`CurationSession`].
    ///
    /// # Panics
    ///
    /// Panics if a custom stage's [`CurationStage::open_stream`] fails; use
    /// [`CurationPipeline::try_session`] to handle that error instead. The
    /// built-in stages never fail.
    pub fn session(&self) -> CurationSession<'_> {
        self.try_session().expect("curation session opens")
    }

    /// [`CurationPipeline::session`], returning the error of a custom
    /// stage's [`CurationStage::open_stream`] instead of panicking.
    pub fn try_session(&self) -> io::Result<CurationSession<'_>> {
        CurationSession::new(self)
    }

    /// Runs the pipeline over a bank of extracted files — a single-batch
    /// [`CurationSession`], so the streaming and one-shot paths share one
    /// executor.
    ///
    /// # Panics
    ///
    /// Panics if a custom stage's stream fails to open or to take a batch;
    /// use [`CurationPipeline::try_run`] to handle that error instead. The
    /// built-in stages never fail.
    pub fn run(&self, files: Vec<ExtractedFile>) -> CuratedDataset {
        self.try_run(files).expect("curation stages succeed")
    }

    /// [`CurationPipeline::run`], returning the error of a custom stage's
    /// stream instead of panicking.
    pub fn try_run(&self, files: Vec<ExtractedFile>) -> io::Result<CuratedDataset> {
        let mut session = self.try_session()?;
        session.push(files)?;
        session.finish()
    }

    /// Assembles the run's output (the session's final step).
    pub(crate) fn assemble_dataset(
        &self,
        files: Vec<ExtractedFile>,
        funnel: FunnelStats,
        rejects: Vec<RejectedFile>,
    ) -> CuratedDataset {
        CuratedDataset {
            name: self.config.name.clone(),
            structure: self.config.structure,
            augmented: self.config.augmented,
            files: files.into_iter().map(|file| CuratedFile { file }).collect(),
            funnel,
            rejects,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage::{FileBatch, StageOutcome};
    use gh_sim::{GithubApi, License, Scraper, Universe, UniverseConfig};

    fn scraped_corpus(repos: usize, seed: u64) -> Vec<ExtractedFile> {
        let universe = Universe::generate(&UniverseConfig {
            repo_count: repos,
            seed,
            ..Default::default()
        });
        let api = GithubApi::new(&universe);
        Scraper::new().run(&api).expect("scrape").files
    }

    #[test]
    fn freeset_pipeline_shrinks_the_corpus_stage_by_stage() {
        let files = scraped_corpus(120, 31);
        let dataset = CurationPipeline::new(CurationConfig::freeset()).run(files);
        let funnel = dataset.funnel();
        assert!(funnel.initial() > funnel.after("license filter"));
        assert!(funnel.after("license filter") >= funnel.after("deduplication"));
        assert!(funnel.after("deduplication") >= funnel.after("syntax filter"));
        assert!(funnel.after("syntax filter") >= funnel.after("copyright filter"));
        assert!(funnel.is_monotone());
        assert_eq!(funnel.final_count(), dataset.len());
        assert!(!dataset.is_empty());
        assert!(dataset.total_chars() > 0);
    }

    #[test]
    fn funnel_shape_tracks_the_paper() {
        let files = scraped_corpus(250, 5);
        let dataset = CurationPipeline::new(CurationConfig::freeset()).run(files);
        let funnel = dataset.funnel();
        // License survival near ~47%, dedup removal near ~62%.
        assert!(
            (0.30..=0.75).contains(&funnel.license_survival_rate()),
            "license survival {}",
            funnel.license_survival_rate()
        );
        assert!(
            (0.40..=0.80).contains(&funnel.dedup_removal_rate()),
            "dedup removal {}",
            funnel.dedup_removal_rate()
        );
        assert!(
            funnel.copyright_removal_rate() < 0.08,
            "copyright removal {}",
            funnel.copyright_removal_rate()
        );
    }

    #[test]
    fn parallel_output_is_identical_to_serial() {
        let files = scraped_corpus(100, 17);
        let serial = CurationPipeline::new(CurationConfig::freeset())
            .serial()
            .run(files.clone());
        let parallel = CurationPipeline::new(CurationConfig::freeset())
            .with_mode(ExecutionMode::Parallel)
            .run(files);
        // Structural equality covers files, funnel and all rejections…
        assert_eq!(serial, parallel);
        // …and the Debug rendering pins byte-identical output.
        assert_eq!(format!("{serial:?}"), format!("{parallel:?}"));
    }

    #[test]
    fn rejects_carry_stage_provenance() {
        let files = scraped_corpus(150, 77);
        let count = files.len();
        let dataset = CurationPipeline::new(CurationConfig::freeset()).run(files);
        // Conservation: every input file is either kept or rejected.
        assert_eq!(dataset.len() + dataset.rejects().len(), count);
        // Every enabled reason appears with its canonical stage name.
        for (reason, stage) in [
            (RejectReason::License, "license filter"),
            (RejectReason::Duplicate, "deduplication"),
            (RejectReason::Syntax, "syntax filter"),
            (RejectReason::Copyright, "copyright filter"),
        ] {
            let rejected: Vec<_> = dataset.rejects_for(reason).collect();
            assert!(!rejected.is_empty(), "no {reason:?} rejections");
            assert!(rejected.iter().all(|r| r.stage == stage));
        }
        // Duplicates carry their similarity detail.
        assert!(dataset.rejects_for(RejectReason::Duplicate).all(|r| r
            .detail
            .as_deref()
            .unwrap_or("")
            .contains("jaccard")));
    }

    #[test]
    fn copyright_rejects_are_reported_and_protected() {
        let files = scraped_corpus(200, 77);
        let dataset = CurationPipeline::new(CurationConfig::freeset()).run(files);
        assert!(
            !dataset.copyright_rejects().is_empty(),
            "the planted proprietary files should be caught"
        );
        let detector = CopyrightDetector::new();
        for f in dataset.copyright_rejects() {
            assert!(detector.is_protected(&f.content));
            assert!(f.repo_license.is_accepted_open_source());
        }
        // And none of the kept files are protected.
        for f in dataset.files() {
            assert!(!detector.is_protected(f.content()));
        }
    }

    #[test]
    fn unfiltered_policy_keeps_everything() {
        let files = scraped_corpus(60, 3);
        let count = files.len();
        let dataset = CurationPipeline::new(CurationConfig::unfiltered("Raw")).run(files);
        assert_eq!(dataset.len(), count);
        assert_eq!(dataset.funnel().overall_survival_rate(), 1.0);
        assert!(dataset.rejects().is_empty());
    }

    #[test]
    fn length_cap_drops_large_files() {
        let files = scraped_corpus(60, 9);
        let mut config = CurationConfig::unfiltered("Capped");
        config.max_file_chars = Some(600);
        let dataset = CurationPipeline::new(config).run(files.clone());
        assert!(dataset.len() < files.len());
        assert!(dataset.files().iter().all(|f| f.char_len() <= 600));
        assert!(dataset
            .rejects()
            .iter()
            .all(|r| r.reason == RejectReason::LengthCap && r.stage == "length filter"));
    }

    #[test]
    fn curated_files_only_come_from_accepted_repos() {
        let files = scraped_corpus(100, 21);
        let dataset = CurationPipeline::new(CurationConfig::freeset()).run(files);
        for f in dataset.files() {
            assert!(f.file.repo_license.is_accepted_open_source());
            assert_ne!(f.file.repo_license, License::Proprietary);
        }
    }

    #[test]
    fn dataset_metadata_reflects_config() {
        let dataset = CurationPipeline::new(CurationConfig::freeset()).run(vec![]);
        assert_eq!(dataset.name(), "FreeSet");
        assert_eq!(dataset.structure(), DatasetStructure::ContinualPretraining);
        assert!(!dataset.augmented());
        assert!(dataset.is_empty());
    }

    /// A custom stage: drops files under a minimum length.
    struct MinLengthStage {
        min_chars: usize,
    }

    impl CurationStage for MinLengthStage {
        fn name(&self) -> &str {
            "min-length"
        }

        fn apply(&self, batch: FileBatch) -> StageOutcome {
            batch.partition("min-length", RejectReason::LengthCap, |f| {
                f.char_len() >= self.min_chars
            })
        }
    }

    #[test]
    fn custom_stages_run_after_configured_stages() {
        let files = scraped_corpus(80, 41);
        let pipeline = CurationPipeline::new(CurationConfig::freeset())
            .with_stage(Box::new(MinLengthStage { min_chars: 200 }));
        assert_eq!(pipeline.stage_names().last().unwrap(), "min-length");
        let dataset = pipeline.run(files.clone());
        assert!(dataset.files().iter().all(|f| f.char_len() >= 200));
        // The funnel records the custom stage under its own name.
        assert!(dataset.funnel().stage("min-length").is_some());
        assert!(dataset.funnel().is_monotone());
        // And the reference run without the stage keeps shorter files.
        let plain = CurationPipeline::new(CurationConfig::freeset()).run(files);
        assert!(plain.files().iter().any(|f| f.char_len() < 200));
    }

    #[test]
    fn stage_list_matches_toggles() {
        let mut config = CurationConfig::unfiltered("Partial");
        config.deduplicate = true;
        config.max_file_chars = Some(1_000);
        let pipeline = CurationPipeline::new(config);
        assert_eq!(
            pipeline.stage_names(),
            vec!["length filter", "deduplication"]
        );
    }
}
