//! Benchmarks the semantic lint engine as a curation stage: throughput
//! (files/sec, serial vs parallel), per-rule hit rates over a corpus
//! salted with planted defects, and the reject fraction under both the
//! FreeSet default policy (error severity only) and the strict policy
//! (warnings too). Every run re-asserts the stage contracts: parallel
//! output identical to serial, and every rule in the catalogue firing on
//! its planted defect.
//!
//! With `FFH_BENCH_FAST=1` only the tiny scale runs. The run exits non-zero
//! when a metric of [`required_metrics`] was not printed; the per-rule
//! names come from [`RuleId::ALL`], so a rule is covered as soon as it joins
//! the catalogue.

use std::collections::BTreeMap;
use std::time::Instant;

use bench::{fast_mode, print_artifact, MetricLog};
use curation::{CurationStage, ExecutionMode, FileBatch, LintRejectPolicy, LintStage};
use freeset::config::{ExperimentScale, FreeSetConfig};
use freeset::corpus::ScrapedCorpus;
use gh_sim::{DefectKind, ExtractedFile, License};
use verilog::RuleId;

const BENCH: &str = "bench_lint";

/// The metrics this bench must print: a hit rate per rule, the reject
/// fraction under both policies and the serial throughput.
fn required_metrics() -> Vec<String> {
    RuleId::ALL
        .iter()
        .map(|rule| format!("hit_rate_{}", rule.metric_key()))
        .chain(
            [
                "reject_fraction_strict",
                "reject_fraction_default",
                "serial_files_per_sec",
            ]
            .map(String::from),
        )
        .collect()
}

/// How many copies of each planted defect the corpus is salted with —
/// enough that every rule's hit count is visibly non-zero without the
/// defects dominating the scraped files.
const DEFECT_COPIES: usize = 3;

/// A defect file shaped like a scraped one, so it flows through the stage
/// exactly as corpus traffic does.
fn defect_file(kind: DefectKind, copy: usize) -> ExtractedFile {
    let name = format!("planted_{}_{copy}", kind.tag());
    ExtractedFile {
        repo_id: u64::MAX - copy as u64,
        repo_full_name: format!("planted/{}", kind.tag()),
        owner: "planted".into(),
        repo_license: License::Mit,
        created_year: 2021,
        path: format!("{name}.v"),
        content: kind.source(&name),
    }
}

/// The scraped corpus at `scale`, salted with [`DEFECT_COPIES`] instances
/// of every [`DefectKind`] so each lint rule has real traffic to hit.
fn salted_corpus(scale: &ExperimentScale) -> Vec<ExtractedFile> {
    let scraped = ScrapedCorpus::build(&FreeSetConfig::at_scale(scale));
    let mut files = scraped.files;
    for copy in 0..DEFECT_COPIES {
        for kind in DefectKind::ALL {
            files.push(defect_file(kind, copy));
        }
    }
    files
}

fn apply(
    stage: &LintStage,
    files: &[ExtractedFile],
    mode: ExecutionMode,
) -> curation::StageOutcome {
    stage.apply(FileBatch::new(files.to_vec(), mode))
}

/// Per-category reject tallies of one stage outcome.
fn category_counts(outcome: &curation::StageOutcome) -> BTreeMap<String, usize> {
    let mut counts = BTreeMap::new();
    for reject in &outcome.rejected {
        if let Some(category) = &reject.category {
            *counts.entry(category.clone()).or_insert(0usize) += 1;
        }
    }
    counts
}

/// Regenerates the lint artefact at one scale and emits the metric lines.
/// Asserts the stage contracts on every run: serial and parallel outcomes
/// identical, every rule firing on its planted defects, strict policy
/// rejecting at least as much as the default.
fn report_scale(log: &mut MetricLog, label: &str, files: &[ExtractedFile]) {
    let strict = LintStage::new(LintRejectPolicy::strict());
    let default = LintStage::default();
    let total = files.len();

    let serial_start = Instant::now();
    let serial = apply(&strict, files, ExecutionMode::Serial);
    let serial_secs = serial_start.elapsed().as_secs_f64();
    let parallel_start = Instant::now();
    let parallel = apply(&strict, files, ExecutionMode::Parallel);
    let parallel_secs = parallel_start.elapsed().as_secs_f64();
    assert_eq!(
        format!("{serial:?}"),
        format!("{parallel:?}"),
        "parallel lint diverged from serial"
    );

    let hits = category_counts(&serial);
    for rule in RuleId::ALL {
        assert!(
            hits.get(rule.id()).copied().unwrap_or(0) >= DEFECT_COPIES,
            "rule {} missed its planted defects",
            rule.id()
        );
    }

    let default_outcome = apply(&default, files, ExecutionMode::Parallel);
    assert!(
        default_outcome.rejected.len() <= serial.rejected.len(),
        "the default policy rejected more than the strict policy"
    );

    let strict_fraction = serial.rejected.len() as f64 / total.max(1) as f64;
    let default_fraction = default_outcome.rejected.len() as f64 / total.max(1) as f64;
    print_artifact(
        &format!("Semantic lint at scale `{label}`"),
        &format!(
            "{total} files linted ({} planted defects across {} rules): strict policy rejects {} ({:.1}%), default error-only policy rejects {} ({:.1}%)\n\
             serial pass {:.0} files/sec, parallel pass {:.0} files/sec — outcomes byte-identical\n\
             per-rule hits: {}",
            DEFECT_COPIES * DefectKind::ALL.len(),
            RuleId::ALL.len(),
            serial.rejected.len(),
            100.0 * strict_fraction,
            default_outcome.rejected.len(),
            100.0 * default_fraction,
            total as f64 / serial_secs.max(f64::EPSILON),
            total as f64 / parallel_secs.max(f64::EPSILON),
            hits.iter()
                .map(|(rule, n)| format!("{rule}={n}"))
                .collect::<Vec<_>>()
                .join(" "),
        ),
    );

    log.emit(BENCH, label, "files_linted", total as f64, "files");
    log.emit(
        BENCH,
        label,
        "serial_files_per_sec",
        total as f64 / serial_secs.max(f64::EPSILON),
        "files_per_sec",
    );
    log.emit(
        BENCH,
        label,
        "parallel_files_per_sec",
        total as f64 / parallel_secs.max(f64::EPSILON),
        "files_per_sec",
    );
    log.emit(
        BENCH,
        label,
        "reject_fraction_strict",
        strict_fraction,
        "fraction",
    );
    log.emit(
        BENCH,
        label,
        "reject_fraction_default",
        default_fraction,
        "fraction",
    );
    for rule in RuleId::ALL {
        let count = hits.get(rule.id()).copied().unwrap_or(0);
        log.emit(
            BENCH,
            label,
            &format!("hits_{}", rule.metric_key()),
            count as f64,
            "files",
        );
        log.emit(
            BENCH,
            label,
            &format!("hit_rate_{}", rule.metric_key()),
            count as f64 / total.max(1) as f64,
            "fraction",
        );
    }
}

fn main() {
    let scales: Vec<(&str, ExperimentScale)> = if fast_mode() {
        vec![("tiny", ExperimentScale::tiny())]
    } else {
        vec![
            ("tiny", ExperimentScale::tiny()),
            ("small", ExperimentScale::small()),
        ]
    };
    let mut log = MetricLog::default();
    for (label, scale) in &scales {
        report_scale(&mut log, label, &salted_corpus(scale));
    }
    log.require(BENCH, &required_metrics());
}
