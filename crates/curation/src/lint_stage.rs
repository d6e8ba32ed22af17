//! Semantic lint stage: rejects files the [`verilog::lint`] engine condemns.
//!
//! The syntax filter asks "does it parse?"; this stage asks "is it
//! *plausible* hardware?". Each file is parsed and run through the full
//! rule catalogue ([`verilog::RuleId`]); a [`LintRejectPolicy`] decides
//! which findings condemn the file. Rejections carry the offending rule's
//! kebab-case id as their [`crate::RejectedFile::category`], so the funnel
//! reports per-rule removal counts ([`crate::StageCount::categories`]).
//!
//! Verdicts are per-file and stateless, so the stage is batch-invariant:
//! it streams through a [`crate::CurationSession`] and its parallel output
//! is byte-identical to serial output.

use std::sync::Arc;
use verilog::{LintDiagnostic, Linter, Severity};

use crate::parse_cache::ParseCache;
use crate::stage::{stage_names, CurationStage, FileBatch, RejectReason, StageOutcome};

/// Which lint findings condemn a file.
///
/// The default rejects only [`Severity::Error`] findings — semantically
/// broken hardware (combinational loops, multiply-driven nets, undeclared
/// identifiers, malformed instantiations) — and keeps files that merely
/// carry style warnings. Lowering `min_severity` to [`Severity::Warning`]
/// turns the stage into a strict cleanliness gate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintRejectPolicy {
    /// Findings at or above this severity reject the file.
    pub min_severity: Severity,
}

impl Default for LintRejectPolicy {
    fn default() -> Self {
        Self {
            min_severity: Severity::Error,
        }
    }
}

impl LintRejectPolicy {
    /// A policy rejecting on warnings as well as errors.
    pub fn strict() -> Self {
        Self {
            min_severity: Severity::Warning,
        }
    }
}

/// Removes files that fail semantic lint analysis
/// ([`stage_names::LINT`]).
///
/// Files that do not parse at all are also rejected (category
/// `"parse-error"`) — under the FreeSet policy the syntax filter runs
/// first so this path is normally unreachable, but the stage stays safe
/// when composed into policies without a syntax check.
#[derive(Debug, Clone)]
pub struct LintStage {
    policy: LintRejectPolicy,
    cache: Option<Arc<ParseCache>>,
}

impl LintStage {
    /// Stage enforcing the given policy.
    pub fn new(policy: LintRejectPolicy) -> Self {
        Self {
            policy,
            cache: None,
        }
    }

    /// Stage that reuses parses deposited in `cache` by an upstream
    /// [`crate::SyntaxStage`] instead of re-parsing — the pipeline's
    /// parse-once contract. Files absent from the cache (e.g. when the
    /// stage runs without a syntax filter upstream) are parsed here as a
    /// fallback.
    pub fn with_cache(policy: LintRejectPolicy, cache: Arc<ParseCache>) -> Self {
        let mut stage = Self::new(policy);
        stage.cache = Some(cache);
        stage
    }

    /// The policy in force.
    pub fn policy(&self) -> &LintRejectPolicy {
        &self.policy
    }

    /// Judges one file: `None` keeps it, `Some((category, detail))`
    /// rejects it.
    fn verdict(&self, content: &str) -> Option<(String, String)> {
        let cached = self.cache.as_ref().and_then(|cache| cache.take(content));
        let diagnostics = match cached {
            Some(parsed) => Linter::new().lint_parsed(&parsed),
            None => match Linter::new().lint_source(content) {
                Ok(diagnostics) => diagnostics,
                Err(error) => {
                    return Some(("parse-error".into(), format!("does not parse: {error}")))
                }
            },
        };
        let offending: Vec<&LintDiagnostic> = diagnostics
            .iter()
            .filter(|d| d.severity >= self.policy.min_severity)
            .collect();
        // Lead with the worst finding; ties break to the first in the
        // linter's deterministic (rule, locus, message) order.
        let max = offending.iter().map(|d| d.severity).max()?;
        let worst = *offending.iter().find(|d| d.severity == max)?;
        let detail = if offending.len() == 1 {
            worst.to_string()
        } else {
            format!("{} findings; worst: {worst}", offending.len())
        };
        Some((worst.rule.id().to_string(), detail))
    }
}

impl Default for LintStage {
    fn default() -> Self {
        Self::new(LintRejectPolicy::default())
    }
}

impl CurationStage for LintStage {
    fn name(&self) -> &str {
        stage_names::LINT
    }

    fn apply(&self, batch: FileBatch) -> StageOutcome {
        // Lint in parallel (order-stable), partition serially so each
        // rejection keeps its rule category and detail.
        let verdicts = batch.map_files(|f| self.verdict(&f.content));
        let mut outcome = StageOutcome::with_capacity(batch.len());
        for (file, verdict) in batch.into_files().into_iter().zip(verdicts) {
            match verdict {
                None => outcome.kept.push(file),
                Some((category, detail)) => outcome.reject_with_category(
                    file,
                    stage_names::LINT,
                    RejectReason::Lint,
                    Some(category),
                    Some(detail),
                ),
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
    use gh_sim::{DefectKind, ExtractedFile, License};

    fn file(i: usize, content: &str) -> ExtractedFile {
        ExtractedFile {
            repo_id: i as u64,
            repo_full_name: format!("o/r{i}"),
            owner: "o".into(),
            repo_license: License::Mit,
            created_year: 2021,
            path: format!("f{i}.v"),
            content: content.into(),
        }
    }

    const CLEAN: &str = "module ok(input a, input b, output y);\nassign y = a & b;\nendmodule\n";

    #[test]
    fn default_policy_rejects_errors_and_keeps_warnings() {
        let stage = LintStage::default();
        // Error-severity defect: combinational loop.
        assert!(stage.verdict(&DefectKind::CombLoop.source("bad")).is_some());
        // Warning-severity defect: inferred latch — kept by default.
        assert!(stage
            .verdict(&DefectKind::IncompleteIf.source("warned"))
            .is_none());
        assert!(stage.verdict(CLEAN).is_none());
    }

    #[test]
    fn strict_policy_rejects_warnings_too() {
        let stage = LintStage::new(LintRejectPolicy::strict());
        assert!(stage
            .verdict(&DefectKind::IncompleteIf.source("warned"))
            .is_some());
        assert!(stage.verdict(CLEAN).is_none());
    }

    #[test]
    fn rejections_carry_rule_category_and_detail() {
        let stage = LintStage::default();
        let batch = FileBatch::new(
            vec![
                file(0, CLEAN),
                file(1, &DefectKind::CombLoop.source("looped")),
                file(2, &DefectKind::MultiplyDriven.source("fought")),
            ],
            ExecutionMode::Serial,
        );
        let outcome = stage.apply(batch);
        assert_eq!(outcome.kept.len(), 1);
        assert_eq!(outcome.rejected.len(), 2);
        assert_eq!(outcome.rejected[0].category.as_deref(), Some("comb-loop"));
        assert_eq!(
            outcome.rejected[1].category.as_deref(),
            Some("multiply-driven")
        );
        for reject in &outcome.rejected {
            assert_eq!(reject.reason, RejectReason::Lint);
            assert_eq!(reject.stage, stage_names::LINT);
            assert!(reject.detail.as_deref().unwrap_or("").contains("error"));
        }
    }

    #[test]
    fn unparsable_files_are_rejected_not_panicked() {
        let stage = LintStage::default();
        let (category, detail) = stage.verdict("module broken(").expect("must reject");
        assert_eq!(category, "parse-error");
        assert!(detail.contains("does not parse"));
    }

    #[test]
    fn serial_and_parallel_verdicts_agree() {
        let files: Vec<ExtractedFile> = DefectKind::ALL
            .iter()
            .enumerate()
            .map(|(i, kind)| file(i, &kind.source(&format!("bad_{}", kind.tag()))))
            .chain(std::iter::once(file(99, CLEAN)))
            .collect();
        let stage = LintStage::new(LintRejectPolicy::strict());
        let serial = stage.apply(FileBatch::new(files.clone(), ExecutionMode::Serial));
        let parallel = stage.apply(FileBatch::new(files, ExecutionMode::Parallel));
        assert_eq!(serial.kept, parallel.kept);
        assert_eq!(serial.rejected, parallel.rejected);
        assert_eq!(serial.kept.len(), 1);
    }
}
