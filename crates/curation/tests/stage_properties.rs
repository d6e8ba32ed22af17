//! Property-based tests over the stage engine: for *any* subset of stages,
//! any length cap and any universe seed, the funnel must narrow
//! monotonically, every input file must be conserved as either a survivor or
//! a provenance-tagged rejection, and parallel execution must be
//! indistinguishable from serial execution.

use curation::{
    CurationConfig, CurationPipeline, CurationStage, ExecutionMode, FileBatch, RejectReason,
    StageOutcome,
};
use gh_sim::{ExtractedFile, GithubApi, Scraper, Universe, UniverseConfig};
use proptest::prelude::*;

fn corpus(repos: usize, seed: u64) -> Vec<ExtractedFile> {
    let universe = Universe::generate(&UniverseConfig {
        repo_count: repos,
        seed,
        ..Default::default()
    });
    let api = GithubApi::new(&universe);
    Scraper::new().run(&api).expect("scrape").files
}

/// An arbitrary stage-subset policy: every toggle combination plus an
/// optional length cap and an optional lint policy (default or strict).
fn policy_strategy() -> impl Strategy<Value = CurationConfig> {
    (
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        prop_oneof![Just(0usize), 200usize..2_000],
        prop_oneof![
            Just(None),
            Just(Some(curation::LintRejectPolicy::default())),
            Just(Some(curation::LintRejectPolicy::strict())),
        ],
    )
        .prop_map(|(license, copyright, dedup, syntax, cap, lint)| {
            let mut config = CurationConfig::unfiltered("Arbitrary");
            config.check_repository_license = license;
            config.check_file_copyright = copyright;
            config.deduplicate = dedup;
            config.check_syntax = syntax;
            config.lint = lint;
            config.max_file_chars = (cap > 0).then_some(cap);
            config
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn funnel_is_monotone_for_any_stage_subset(
        policy in policy_strategy(),
        repos in 5usize..20,
        seed in any::<u64>(),
    ) {
        let files = corpus(repos, seed);
        let initial = files.len();
        let dataset = CurationPipeline::new(policy).run(files);
        let funnel = dataset.funnel();
        prop_assert_eq!(funnel.initial(), initial);
        prop_assert!(funnel.is_monotone(), "funnel not monotone: {:?}", funnel);
        // Explicitly: each stage's survivor count never exceeds its input.
        let mut previous = initial;
        for stage in funnel.stages() {
            prop_assert!(stage.surviving <= previous,
                "stage {} grew the corpus ({} -> {})", stage.stage, previous, stage.surviving);
            previous = stage.surviving;
        }
        prop_assert_eq!(funnel.final_count(), dataset.len());
    }

    #[test]
    fn rejection_provenance_is_conserved(
        policy in policy_strategy(),
        repos in 5usize..20,
        seed in any::<u64>(),
    ) {
        let files = corpus(repos, seed);
        let initial = files.len();
        let enabled_license = policy.check_repository_license;
        let enabled_copyright = policy.check_file_copyright;
        let enabled_dedup = policy.deduplicate;
        let enabled_syntax = policy.check_syntax;
        let enabled_lint = policy.lint.is_some();
        let enabled_cap = policy.max_file_chars.is_some();
        let dataset = CurationPipeline::new(policy).run(files);

        // kept + all rejects == initial.
        prop_assert_eq!(dataset.len() + dataset.rejects().len(), initial);

        // Rejects only carry reasons whose stage actually ran.
        for reject in dataset.rejects() {
            let allowed = match reject.reason {
                RejectReason::License => enabled_license,
                RejectReason::LengthCap => enabled_cap,
                RejectReason::Duplicate => enabled_dedup,
                RejectReason::Syntax => enabled_syntax,
                RejectReason::Lint => enabled_lint,
                RejectReason::Copyright => enabled_copyright,
            };
            prop_assert!(allowed, "reason {:?} from disabled stage {}", reject.reason, reject.stage);
        }

        // Per-stage removals in the funnel equal the per-stage reject counts.
        for stage in dataset.funnel().stages() {
            let tagged = dataset
                .rejects()
                .iter()
                .filter(|r| r.stage == stage.stage)
                .count();
            prop_assert_eq!(stage.removed(), tagged,
                "funnel says stage {} removed {} but {} rejects are tagged with it",
                &stage.stage, stage.removed(), tagged);
        }
    }

    #[test]
    fn parallel_equals_serial_for_any_policy(
        policy in policy_strategy(),
        repos in 5usize..15,
        seed in any::<u64>(),
    ) {
        let files = corpus(repos, seed);
        let serial = CurationPipeline::new(policy.clone())
            .with_mode(ExecutionMode::Serial)
            .run(files.clone());
        let parallel = CurationPipeline::new(policy)
            .with_mode(ExecutionMode::Parallel)
            .run(files);
        prop_assert_eq!(&serial, &parallel);
        prop_assert_eq!(format!("{serial:?}"), format!("{parallel:?}"));
    }

    #[test]
    fn streamed_batches_equal_one_shot_for_any_split(
        policy in policy_strategy(),
        repos in 5usize..15,
        seed in any::<u64>(),
        batch_size in 1usize..40,
        parallel in any::<bool>(),
    ) {
        let files = corpus(repos, seed);
        let mode = if parallel { ExecutionMode::Parallel } else { ExecutionMode::Serial };
        let pipeline = CurationPipeline::new(policy).with_mode(mode);
        let one_shot = pipeline.run(files.clone());
        // Feed the same corpus through a streaming session in arbitrary
        // fixed-size batches (including a ragged final batch and, when
        // batch_size exceeds the corpus, a single batch).
        let mut session = pipeline.session();
        for chunk in files.chunks(batch_size) {
            session.push(chunk.to_vec()).expect("push succeeds");
        }
        let streamed = session.finish().expect("finish succeeds");
        prop_assert_eq!(&streamed, &one_shot);
        prop_assert_eq!(format!("{streamed:?}"), format!("{one_shot:?}"));
    }

    #[test]
    fn streamed_per_repo_batches_equal_one_shot(
        repos in 5usize..15,
        seed in any::<u64>(),
    ) {
        // The shape the fetch engine actually delivers: one batch per
        // repository, under the full FreeSet policy.
        let files = corpus(repos, seed);
        let pipeline = CurationPipeline::new(CurationConfig::freeset());
        let one_shot = pipeline.run(files.clone());
        let mut session = pipeline.session();
        prop_assert_eq!(session.streaming_stage_count(), 5,
            "every FreeSet stage — dedup included — must stream");
        let mut remaining = files.as_slice();
        while !remaining.is_empty() {
            let repo_id = remaining[0].repo_id;
            let split = remaining
                .iter()
                .position(|f| f.repo_id != repo_id)
                .unwrap_or(remaining.len());
            let (batch, rest) = remaining.split_at(split);
            session.push(batch.to_vec()).expect("push succeeds");
            remaining = rest;
        }
        prop_assert_eq!(session.pushed(), files.len());
        let streamed = session.finish().expect("finish succeeds");
        prop_assert_eq!(&streamed, &one_shot);
    }

    #[test]
    fn lint_stage_is_batch_and_mode_invariant(
        rotation in 0usize..40,
        batch_size in 1usize..13,
        strict in any::<bool>(),
    ) {
        // A corpus salted with every planted semantic defect plus clean
        // files, in an arbitrary rotation: a lint-only pipeline must produce
        // byte-identical output serial vs parallel and one-shot vs streamed
        // under any batch split.
        let clean =
            "module ok(input a, input b, output y); assign y = a & b; endmodule";
        let mut files: Vec<ExtractedFile> = gh_sim::DefectKind::ALL
            .iter()
            .enumerate()
            .map(|(i, kind)| {
                handmade_file(
                    i,
                    gh_sim::License::Mit,
                    &kind.source(&format!("bad_{}", kind.tag())),
                )
            })
            .chain((100..108).map(|i| handmade_file(i, gh_sim::License::Mit, clean)))
            .collect();
        let pivot = rotation % files.len();
        files.rotate_left(pivot);

        let mut config = CurationConfig::unfiltered("LintOnly");
        config.lint = Some(if strict {
            curation::LintRejectPolicy::strict()
        } else {
            curation::LintRejectPolicy::default()
        });
        let serial = CurationPipeline::new(config.clone())
            .with_mode(ExecutionMode::Serial)
            .run(files.clone());
        let parallel = CurationPipeline::new(config.clone())
            .with_mode(ExecutionMode::Parallel)
            .run(files.clone());
        prop_assert_eq!(&serial, &parallel);
        prop_assert_eq!(format!("{serial:?}"), format!("{parallel:?}"));

        let pipeline = CurationPipeline::new(config);
        let mut session = pipeline.session();
        prop_assert_eq!(session.streaming_stage_count(), 1,
            "the lint stage is batch-invariant and must stream");
        for chunk in files.chunks(batch_size) {
            session.push(chunk.to_vec()).expect("push succeeds");
        }
        let streamed = session.finish().expect("finish succeeds");
        prop_assert_eq!(&streamed, &serial);
        prop_assert_eq!(format!("{streamed:?}"), format!("{serial:?}"));

        // The funnel's per-rule categories are exactly the reject list's
        // category multiset, and every planted defect of rejectable
        // severity is caught.
        let lint_count = streamed.rejects_for(RejectReason::Lint).count();
        let stage = streamed.funnel().stage("lint filter").expect("lint ran");
        prop_assert_eq!(stage.removed(), lint_count);
        let tallied: usize = stage.categories.iter().map(|(_, n)| n).sum();
        prop_assert_eq!(tallied, lint_count);
        if strict {
            prop_assert_eq!(lint_count, gh_sim::DefectKind::ALL.len());
        } else {
            prop_assert!(lint_count > 0, "error-severity defects must be rejected");
        }
        for (category, count) in &stage.categories {
            let matching = streamed
                .rejects_for(RejectReason::Lint)
                .filter(|r| r.category.as_deref() == Some(category.as_str()))
                .count();
            prop_assert_eq!(matching, *count);
        }
    }
}

fn handmade_file(i: usize, license: gh_sim::License, content: &str) -> ExtractedFile {
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

#[test]
fn freeset_session_streams_every_stage_including_dedup() {
    let pipeline = CurationPipeline::new(CurationConfig::freeset());
    let session = pipeline.session();
    assert_eq!(pipeline.stage_names().len(), 5);
    assert_eq!(
        session.streaming_stage_count(),
        5,
        "license, dedup, syntax, lint and copyright must all run per batch"
    );
}

/// An order-dependent custom stage with no streaming form: keeps only the
/// first `N` files it ever sees, so its verdicts depend on everything before
/// the batch — the session must defer it.
struct TakeFirst(usize);

impl CurationStage for TakeFirst {
    fn name(&self) -> &str {
        "take-first"
    }

    fn apply(&self, batch: FileBatch) -> StageOutcome {
        let mut outcome = StageOutcome::default();
        for (i, file) in batch.into_files().into_iter().enumerate() {
            if i < self.0 {
                outcome.kept.push(file);
            } else {
                outcome.reject(file, "take-first", RejectReason::LengthCap, None);
            }
        }
        outcome
    }
}

#[test]
fn non_streamable_custom_stage_before_dedup_defers_the_rest() {
    // Stage order: license (streams) → take-first (cannot stream) → dedup.
    // The split must land on take-first, and dedup — although streamable —
    // must be deferred behind it, with output still equal to one-shot.
    let mut config = CurationConfig::unfiltered("CustomOrder");
    config.check_repository_license = true;
    let files = corpus(8, 99);
    let build = || {
        CurationPipeline::new(config.clone())
            .with_stage(Box::new(TakeFirst(25)))
            .with_stage(Box::new(curation::DedupStage::new(
                curation::DedupConfig::default(),
            )))
    };
    let pipeline = build();
    let one_shot = pipeline.run(files.clone());
    let mut session = pipeline.session();
    assert_eq!(
        session.streaming_stage_count(),
        1,
        "only the license stage may stream ahead of the order-dependent custom stage"
    );
    for chunk in files.chunks(7) {
        session.push(chunk.to_vec()).expect("push succeeds");
    }
    let streamed = session.finish().expect("finish succeeds");
    assert_eq!(streamed, one_shot);
    assert!(one_shot.funnel().stage("take-first").is_some());
    assert!(one_shot.len() <= 25);
}

#[test]
fn empty_batches_between_non_empty_ones_are_neutral() {
    let files = corpus(8, 41);
    let pipeline = CurationPipeline::new(CurationConfig::freeset());
    let one_shot = pipeline.run(files.clone());
    let mut session = pipeline.session();
    session.push(vec![]).expect("push succeeds");
    let mid = files.len() / 2;
    session.push(files[..mid].to_vec()).expect("push succeeds");
    session.push(vec![]).expect("push succeeds");
    session.push(vec![]).expect("push succeeds");
    session.push(files[mid..].to_vec()).expect("push succeeds");
    session.push(vec![]).expect("push succeeds");
    assert_eq!(session.pushed(), files.len());
    let streamed = session.finish().expect("finish succeeds");
    assert_eq!(streamed, one_shot);
    assert_eq!(format!("{streamed:?}"), format!("{one_shot:?}"));
}

#[test]
fn batches_after_total_rejection_still_stream_and_dedup() {
    let body =
        "module alu(input [3:0] a, input [3:0] b, output [3:0] y); assign y = a + b; endmodule";
    // Batch 1 is wiped out by the license filter; batch 2 must still reach
    // the (stateful) dedup stream, and its own duplicate must point at the
    // first *kept* file — not at anything from the rejected batch.
    let rejected_batch: Vec<ExtractedFile> = (0..4)
        .map(|i| handmade_file(i, gh_sim::License::Proprietary, body))
        .collect();
    let kept_batch: Vec<ExtractedFile> = (4..7)
        .map(|i| handmade_file(i, gh_sim::License::Mit, body))
        .collect();
    let all: Vec<ExtractedFile> = rejected_batch
        .iter()
        .chain(kept_batch.iter())
        .cloned()
        .collect();
    let pipeline = CurationPipeline::new(CurationConfig::freeset());
    let one_shot = pipeline.run(all);
    let mut session = pipeline.session();
    session.push(rejected_batch).expect("push succeeds");
    session.push(kept_batch).expect("push succeeds");
    let streamed = session.finish().expect("finish succeeds");
    assert_eq!(streamed, one_shot);
    assert_eq!(streamed.len(), 1, "only the first licensed copy survives");
    let dupes: Vec<_> = streamed.rejects_for(RejectReason::Duplicate).collect();
    assert_eq!(dupes.len(), 2);
    for dupe in dupes {
        assert_eq!(
            dupe.detail.as_deref(),
            Some("duplicate of kept file #0 (jaccard 1.000)"),
            "duplicates must reference the dedup stream's first kept file"
        );
    }
}

/// A growing "stage" violates the filter contract; the monotonicity check
/// must catch it (regression guard for the `is_monotone` invariant itself).
#[test]
fn monotonicity_check_catches_growing_stages() {
    struct Duplicator2x;

    impl CurationStage for Duplicator2x {
        fn name(&self) -> &str {
            "doubler"
        }

        fn apply(&self, batch: FileBatch) -> StageOutcome {
            let mut files = batch.into_files();
            let copies: Vec<ExtractedFile> = files.clone();
            files.extend(copies);
            StageOutcome::keep_all(files)
        }
    }

    let files = corpus(5, 77);
    let dataset = CurationPipeline::new(CurationConfig::unfiltered("Growing"))
        .with_stage(Box::new(Duplicator2x))
        .run(files);
    assert!(!dataset.funnel().is_monotone());
}
