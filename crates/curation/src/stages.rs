//! [`CurationStage`] implementations for the paper's four filters plus the
//! prior-work length cap.
//!
//! Each stage wraps one of the reusable filter components
//! ([`LicenseFilter`], [`Deduplicator`], [`SyntaxChecker`],
//! [`CopyrightDetector`]) and adapts it to the batch-in/outcome-out stage
//! interface with provenance-tagged rejections. De-duplication is the only
//! stage that streams with carried state ([`DedupStream`]); that state is in
//! memory, so none of these stages ever returns an error.

use std::io;
use std::sync::Arc;

use verilog::{ParsedFile, SyntaxChecker};

use crate::copyright::CopyrightDetector;
use crate::dedup::{DedupConfig, DedupSpillConfig, Deduplicator, StreamingDeduplicator};
use crate::license_filter::LicenseFilter;
use crate::parse_cache::ParseCache;
use crate::stage::{
    stage_names, CurationStage, FileBatch, RejectReason, StageOutcome, StageStream, StageStreaming,
};

/// Drops files from repositories without an accepted license
/// ([`stage_names::LICENSE`]).
#[derive(Debug, Clone, Default)]
pub struct LicenseStage {
    filter: LicenseFilter,
}

impl LicenseStage {
    /// Stage over the paper's accepted-license set.
    pub fn new(filter: LicenseFilter) -> Self {
        Self { filter }
    }

    /// The wrapped filter.
    pub fn filter(&self) -> &LicenseFilter {
        &self.filter
    }
}

impl CurationStage for LicenseStage {
    fn name(&self) -> &str {
        stage_names::LICENSE
    }

    fn apply(&self, batch: FileBatch) -> StageOutcome {
        batch.partition(stage_names::LICENSE, RejectReason::License, |f| {
            self.filter.accepts(f)
        })
    }

    fn batch_invariant(&self) -> bool {
        true
    }
}

/// Drops files longer than a maximum character count
/// ([`stage_names::LENGTH`]) — prior-work policies such as CodeV truncate
/// their corpus this way.
#[derive(Debug, Clone, Copy)]
pub struct LengthCapStage {
    max_chars: usize,
}

impl LengthCapStage {
    /// Stage keeping only files of at most `max_chars` characters.
    pub fn new(max_chars: usize) -> Self {
        Self { max_chars }
    }

    /// The cap in characters.
    pub fn max_chars(&self) -> usize {
        self.max_chars
    }
}

impl CurationStage for LengthCapStage {
    fn name(&self) -> &str {
        stage_names::LENGTH
    }

    fn apply(&self, batch: FileBatch) -> StageOutcome {
        batch.partition(stage_names::LENGTH, RejectReason::LengthCap, |f| {
            f.char_len() <= self.max_chars
        })
    }

    fn batch_invariant(&self) -> bool {
        true
    }
}

/// Removes near-duplicates with MinHash/LSH ([`stage_names::DEDUP`]).
///
/// The keep/drop decision is order-dependent (first occurrence wins) and runs
/// sequentially; the expensive per-file shingling and MinHash signature
/// construction fans out across threads in parallel mode. The stage streams:
/// [`CurationStage::open_stream`] returns a stateful [`DedupStream`] that
/// resolves each pushed batch against the persistent kept-index, so a
/// [`crate::CurationSession`] de-duplicates while the scrape is still in
/// flight. One-shot `apply` is a single-push stream — byte-identical by
/// construction. The engine is in memory, so neither path can fail.
#[derive(Debug, Clone)]
pub struct DedupStage {
    dedup: Deduplicator,
}

impl DedupStage {
    /// Stage with the given de-duplication parameters.
    pub fn new(config: DedupConfig) -> Self {
        Self {
            dedup: Deduplicator::new(config),
        }
    }

    /// [`Self::new`], for callers that pass a
    /// [`crate::CurationConfig::dedup_spill`] through. [`DedupSpillConfig`]
    /// has no values, so `spill` is always `None`.
    pub fn with_spill(config: DedupConfig, spill: Option<DedupSpillConfig>) -> Self {
        match spill {
            None => Self::new(config),
            Some(policy) => match policy {},
        }
    }

    /// The wrapped de-duplicator.
    pub fn deduplicator(&self) -> &Deduplicator {
        &self.dedup
    }

    /// Always `None`: [`DedupSpillConfig`] has no values.
    pub fn spill_config(&self) -> Option<&DedupSpillConfig> {
        None
    }
}

impl CurationStage for DedupStage {
    fn name(&self) -> &str {
        stage_names::DEDUP
    }

    /// One-shot application — a single-push stream.
    fn apply(&self, batch: FileBatch) -> StageOutcome {
        DedupStream::new(self.dedup.streaming()).resolve(batch)
    }

    fn open_stream(&self) -> io::Result<StageStreaming> {
        Ok(StageStreaming::Stateful(Box::new(DedupStream::new(
            self.dedup.streaming(),
        ))))
    }
}

/// The stateful streaming form of [`DedupStage`]: a thin adapter mapping the
/// [`StreamingDeduplicator`]'s global-index outcomes back onto each batch's
/// files, with the same rejection provenance text as the one-shot path
/// (duplicate pointers are global indices into the stage's input stream, so
/// a file can be rejected as the duplicate of a file kept batches earlier).
pub struct DedupStream {
    inner: StreamingDeduplicator,
}

impl DedupStream {
    /// Wraps a streaming engine.
    pub fn new(inner: StreamingDeduplicator) -> Self {
        Self { inner }
    }

    /// The engine, for reading its [`crate::StreamingDedupStats`].
    pub fn engine(&self) -> &StreamingDeduplicator {
        &self.inner
    }

    /// Resolves one batch against everything the stream has kept so far.
    fn resolve(&mut self, batch: FileBatch) -> StageOutcome {
        let mode = batch.mode();
        let files = batch.into_files();
        let base = self.inner.seen();
        let contents: Vec<&str> = files.iter().map(|f| f.content.as_str()).collect();
        let result = self.inner.push_texts_with_mode(&contents, mode);
        // Map the engine's global indices back onto this batch's files: the
        // engine records removals in input order, so one pass pairs them up.
        let mut removed = result.removed.into_iter().peekable();
        let mut outcome = StageOutcome::with_capacity(files.len());
        for (index, file) in (base..).zip(files) {
            match removed.next_if(|&(dropped, _, _)| dropped == index) {
                None => outcome.kept.push(file),
                Some((_, kept_index, similarity)) => outcome.reject(
                    file,
                    stage_names::DEDUP,
                    RejectReason::Duplicate,
                    Some(format!(
                        "duplicate of kept file #{kept_index} (jaccard {similarity:.3})"
                    )),
                ),
            }
        }
        outcome
    }
}

impl StageStream for DedupStream {
    fn push(&mut self, batch: FileBatch) -> io::Result<StageOutcome> {
        Ok(self.resolve(batch))
    }
}

/// Removes files that fail the syntax check ([`stage_names::SYNTAX`]).
///
/// Each file is lexed and parsed exactly once via [`verilog::ParsedFile`].
/// When a [`ParseCache`] is attached ([`SyntaxStage::with_cache`]), the
/// parsed form of every surviving file is deposited there so a downstream
/// [`crate::LintStage`] sharing the cache lints without re-parsing — the
/// pipeline's parse-once contract.
#[derive(Debug, Clone, Default)]
pub struct SyntaxStage {
    checker: SyntaxChecker,
    cache: Option<Arc<ParseCache>>,
}

impl SyntaxStage {
    /// Stage over the standard syntax checker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stage that deposits the parsed form of every kept file into `cache`.
    pub fn with_cache(cache: Arc<ParseCache>) -> Self {
        Self {
            checker: SyntaxChecker::new(),
            cache: Some(cache),
        }
    }

    /// Whether the file passes; on success the parse is kept for reuse.
    fn passes(&self, content: &str) -> bool {
        let Ok(parsed) = ParsedFile::parse(content) else {
            return false;
        };
        if self.checker.check_parsed(&parsed).is_err() {
            return false;
        }
        if let Some(cache) = &self.cache {
            cache.insert(Arc::new(parsed));
        }
        true
    }
}

impl CurationStage for SyntaxStage {
    fn name(&self) -> &str {
        stage_names::SYNTAX
    }

    fn apply(&self, batch: FileBatch) -> StageOutcome {
        batch.partition(stage_names::SYNTAX, RejectReason::Syntax, |f| {
            self.passes(&f.content)
        })
    }

    fn batch_invariant(&self) -> bool {
        true
    }
}

/// Removes files whose headers carry proprietary-copyright language
/// ([`stage_names::COPYRIGHT`]). Rejections record the matched keywords and
/// parsed holder as detail.
#[derive(Debug, Clone, Default)]
pub struct CopyrightStage {
    detector: CopyrightDetector,
}

impl CopyrightStage {
    /// Stage over the given detector.
    pub fn new(detector: CopyrightDetector) -> Self {
        Self { detector }
    }

    /// The wrapped detector.
    pub fn detector(&self) -> &CopyrightDetector {
        &self.detector
    }
}

impl CurationStage for CopyrightStage {
    fn name(&self) -> &str {
        stage_names::COPYRIGHT
    }

    fn apply(&self, batch: FileBatch) -> StageOutcome {
        // Scan in parallel (order-stable), partition serially so rejections
        // keep their detail.
        let findings = batch.map_files(|f| self.detector.scan(&f.content));
        let mut outcome = StageOutcome::with_capacity(batch.len());
        for (file, finding) in batch.into_files().into_iter().zip(findings) {
            match finding {
                None => outcome.kept.push(file),
                Some(finding) => {
                    let detail = match &finding.holder {
                        Some(holder) => {
                            format!("matched {:?}, holder {holder}", finding.matched_keywords)
                        }
                        None => format!("matched {:?}", finding.matched_keywords),
                    };
                    outcome.reject(
                        file,
                        stage_names::COPYRIGHT,
                        RejectReason::Copyright,
                        Some(detail),
                    );
                }
            }
        }
        outcome
    }

    fn batch_invariant(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage::ExecutionMode;
    use gh_sim::{ExtractedFile, License};

    fn file(i: usize, license: License, content: &str) -> ExtractedFile {
        ExtractedFile {
            repo_id: i as u64,
            repo_full_name: format!("o/r{i}"),
            owner: "o".into(),
            repo_license: license,
            created_year: 2020,
            path: format!("f{i}.v"),
            content: content.into(),
        }
    }

    fn batch(files: Vec<ExtractedFile>) -> FileBatch {
        FileBatch::new(files, ExecutionMode::Parallel)
    }

    #[test]
    fn license_stage_tags_rejections() {
        let stage = LicenseStage::new(LicenseFilter::paper_default());
        let outcome = stage.apply(batch(vec![
            file(0, License::Mit, "module m; endmodule"),
            file(1, License::None, "module m; endmodule"),
            file(2, License::Proprietary, "module m; endmodule"),
        ]));
        assert_eq!(outcome.kept.len(), 1);
        assert_eq!(outcome.rejected.len(), 2);
        assert!(outcome
            .rejected
            .iter()
            .all(|r| r.reason == RejectReason::License));
        assert_eq!(stage.name(), "license filter");
    }

    #[test]
    fn length_stage_caps() {
        let stage = LengthCapStage::new(10);
        let outcome = stage.apply(batch(vec![
            file(0, License::Mit, "short"),
            file(1, License::Mit, "much longer than ten characters"),
        ]));
        assert_eq!(outcome.kept.len(), 1);
        assert_eq!(outcome.rejected[0].reason, RejectReason::LengthCap);
        assert_eq!(stage.max_chars(), 10);
    }

    #[test]
    fn dedup_stage_records_duplicate_provenance() {
        let stage = DedupStage::new(DedupConfig::default());
        let body =
            "module alu(input [3:0] a, input [3:0] b, output [3:0] y); assign y = a + b; endmodule";
        let outcome = stage.apply(batch(vec![
            file(0, License::Mit, body),
            file(1, License::Mit, body),
        ]));
        assert_eq!(outcome.kept.len(), 1);
        assert_eq!(outcome.rejected.len(), 1);
        let r = &outcome.rejected[0];
        assert_eq!(r.reason, RejectReason::Duplicate);
        assert!(r
            .detail
            .as_deref()
            .unwrap()
            .contains("duplicate of kept file #0"));
    }

    #[test]
    fn syntax_stage_drops_broken_files() {
        let stage = SyntaxStage::new();
        let contents = [
            "module m(input a, output y); assign y = a; endmodule",
            "not verilog",
            "module b(input x, output y) assign y = x; endmodule", // missing `;`
            "// just a comment",
            "module c(input clk); always @(posedge clk) ; endmodule",
            // Unresolved instances of modules defined elsewhere are tolerated.
            "module soc(input clk); cpu u_cpu(.clk(clk)); endmodule",
        ];
        let files = contents.iter().enumerate();
        let outcome = stage.apply(batch(
            files.map(|(i, c)| file(i, License::Mit, c)).collect(),
        ));
        let kept: Vec<u64> = outcome.kept.iter().map(|f| f.repo_id).collect();
        assert_eq!(kept, vec![0, 4, 5]);
        assert_eq!(outcome.rejected.len(), 3);
        assert!(outcome
            .rejected
            .iter()
            .all(|r| r.reason == RejectReason::Syntax));
    }

    #[test]
    fn copyright_stage_carries_match_detail() {
        let stage = CopyrightStage::new(CopyrightDetector::new());
        let outcome = stage.apply(batch(vec![
            file(0, License::Mit, "// Copyright (C) 2019 Intel Corporation. All rights reserved.\n// PROPRIETARY and CONFIDENTIAL.\nmodule m; endmodule"),
            file(1, License::Mit, "module m; endmodule"),
        ]));
        assert_eq!(outcome.kept.len(), 1);
        let r = &outcome.rejected[0];
        assert_eq!(r.reason, RejectReason::Copyright);
        let detail = r.detail.as_deref().unwrap();
        assert!(detail.contains("proprietary"), "detail: {detail}");
        assert!(detail.contains("Intel"), "detail: {detail}");
    }
}
