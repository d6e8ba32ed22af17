//! The FreeSet dataset-curation framework (§III-B/C/D of the paper).
//!
//! The framework turns a raw bank of scraped Verilog files into a curated,
//! fair-use training corpus through a sequence of [`CurationStage`]s. The
//! paper's FreeSet policy runs these stages, in pipeline order:
//!
//! 1. **License filtering** ([`LicenseStage`] over [`LicenseFilter`]): only
//!    repositories carrying one of the accepted open-source licenses are
//!    kept; unlicensed repositories are a legal grey area and are dropped.
//! 2. **Length capping** ([`LengthCapStage`]) — *optional*: prior-work
//!    policies such as CodeV truncate their corpus at a maximum file length;
//!    FreeSet itself applies no cap. The stage only runs when
//!    [`CurationConfig::max_file_chars`] is set.
//! 3. **De-duplication** ([`DedupStage`] over [`Deduplicator`]): MinHash
//!    signatures with locality-sensitive hashing retrieve near-duplicate
//!    candidates, which are verified with exact Jaccard similarity at a 0.85
//!    threshold. The [`StreamingDeduplicator`] behind it keeps its kept set
//!    and LSH index in memory and resolves each batch as it arrives.
//! 4. **Syntax filtering** ([`SyntaxStage`] over [`verilog::SyntaxChecker`]):
//!    files that do not lex/parse are removed (unresolved cross-file module
//!    references are tolerated).
//! 5. **Semantic lint filtering** ([`LintStage`] over [`verilog::lint`]):
//!    files whose static analysis findings reach the policy's severity
//!    threshold (by default, error-severity findings such as combinational
//!    loops or multiply-driven nets) are removed, with the offending rule
//!    id recorded as the rejection's category.
//! 6. **Per-file copyright filtering** ([`CopyrightStage`] over
//!    [`CopyrightDetector`]): header comments are scanned for
//!    proprietary-copyright keyword combinations so that protected files
//!    hidden inside "open-source" repositories are removed.
//!
//! [`CurationPipeline`] chains the stages and records a stage-keyed
//! [`FunnelStats`] describing how much each stage removed — the quantity
//! reported in §IV-A of the paper. Every removed file is retained in the
//! dataset with provenance (a [`RejectedFile`] carrying its [`RejectReason`]
//! and the rejecting stage's name). Stage toggles in [`CurationConfig`] let
//! the model zoo reproduce *prior works'* weaker policies (e.g. VeriGen's
//! no-license-check curation), and arbitrary custom [`CurationStage`]s can
//! be appended with [`CurationPipeline::with_stage`].
//!
//! Per-file stages fan out across threads ([`ExecutionMode::Parallel`], the
//! default) with order-stable merging, so parallel runs produce output
//! identical to serial runs.
//!
//! # Example
//!
//! ```
//! use curation::{CurationConfig, CurationPipeline};
//! use gh_sim::{GithubApi, Scraper, Universe, UniverseConfig};
//!
//! let universe = Universe::generate(&UniverseConfig { repo_count: 30, seed: 9, ..Default::default() });
//! let api = GithubApi::new(&universe);
//! let scraped = Scraper::new().run(&api)?;
//! let dataset = CurationPipeline::new(CurationConfig::freeset()).run(scraped.files);
//! assert!(dataset.len() > 0);
//! assert!(dataset.funnel().initial() >= dataset.len());
//! # Ok::<(), gh_sim::ApiError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod copyright;
pub mod dedup;
pub mod funnel;
pub mod intake;
pub mod license_filter;
pub mod lint_stage;
pub mod parse_cache;
pub mod pipeline;
pub mod report;
pub mod stage;
pub mod stages;

pub use copyright::{CopyrightDetector, CopyrightFinding};
pub use dedup::{
    DedupConfig, DedupOutcome, DedupSpillConfig, Deduplicator, StreamingDedupStats,
    StreamingDeduplicator,
};
pub use funnel::{FunnelStats, StageCount};
pub use intake::CurationSession;
pub use license_filter::LicenseFilter;
pub use lint_stage::{LintRejectPolicy, LintStage};
pub use parse_cache::ParseCache;
pub use pipeline::{CuratedDataset, CurationConfig, CurationPipeline, DatasetStructure};
pub use report::{DatasetSummary, LengthHistogram};
pub use stage::{
    stage_names, CurationStage, ExecutionMode, FileBatch, RejectReason, RejectedFile, StageOutcome,
    StageStream, StageStreaming,
};
pub use stages::{
    CopyrightStage, DedupStage, DedupStream, LengthCapStage, LicenseStage, SyntaxStage,
};
