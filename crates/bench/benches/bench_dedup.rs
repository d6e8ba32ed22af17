//! The de-duplication engine's metric contract. Dedup is the paper's single
//! largest funnel stage (§III-D2, ~62% removal under FreeSet). Every run
//! streams the scraped corpus through the engine and asserts that the
//! streamed and no-fast-path variants both equal the one-shot outcome. It
//! then records the exact-hash short-circuit rate and the kept and
//! per-batch shingle hashes as `FFH-METRIC` lines.
//!
//! With `FFH_BENCH_FAST=1` only the tiny scale runs. The run exits non-zero
//! when a metric in [`REQUIRED`] was not printed.

use bench::{fast_mode, print_artifact, MetricLog};
use curation::{DedupConfig, DedupOutcome, Deduplicator, ExecutionMode};
use freeset::config::{ExperimentScale, FreeSetConfig};
use freeset::corpus::ScrapedCorpus;

const BENCH: &str = "bench_dedup";

/// The metrics this bench must print.
const REQUIRED: [&str; 3] = ["exact_hit_rate", "kept_hashes", "peak_batch_hashes"];

/// The batch size the streamed variants push — roughly one repository's
/// worth of files at the bench scales.
const STREAM_BATCH: usize = 32;

fn corpus_texts(scale: &ExperimentScale) -> Vec<String> {
    let scraped = ScrapedCorpus::build(&FreeSetConfig::at_scale(scale));
    scraped.files.into_iter().map(|f| f.content).collect()
}

fn stream_all(
    mut stream: curation::StreamingDeduplicator,
    texts: &[String],
) -> (DedupOutcome, curation::StreamingDedupStats) {
    let mut merged = DedupOutcome::default();
    for chunk in texts.chunks(STREAM_BATCH) {
        let outcome = stream.push_texts_with_mode(chunk, ExecutionMode::Parallel);
        merged.kept.extend(outcome.kept);
        merged.removed.extend(outcome.removed);
    }
    (merged, stream.stats())
}

/// Regenerates the equivalence artefact at one scale and emits the
/// trajectory metrics. Asserts on every run that the streamed and
/// no-fast-path outcomes are byte-identical to the one-shot outcome.
fn report_scale(log: &mut MetricLog, label: &str, texts: &[String]) {
    let dedup = Deduplicator::new(DedupConfig::default());
    let one_shot = dedup.dedup_texts_with_mode(texts, ExecutionMode::Parallel);
    let (streamed, stats) = stream_all(dedup.streaming(), texts);
    assert_eq!(streamed, one_shot, "streamed dedup diverged from one-shot");

    // What the engine would have built without the exact-hash fast path.
    let no_exact = Deduplicator::new(DedupConfig {
        exact_prededup: false,
        ..Default::default()
    });
    let (full, full_stats) = stream_all(no_exact.streaming(), texts);
    assert_eq!(
        full, one_shot,
        "disabling exact pre-dedup changed the outcome"
    );

    let exact_hit_rate = stats.exact_hits as f64 / stats.pushed.max(1) as f64;
    print_artifact(
        &format!("Streaming dedup at scale `{label}`"),
        &format!(
            "{} files pushed in batches of {STREAM_BATCH}: {} kept, {} removed ({:.1}% removal) — identical to one-shot\n\
             exact-hash pre-dedup: {} of {} pushes short-circuited ({:.1}%); signature work {} hashes vs {} without the fast path\n\
             kept state: {} hashes across {} kept docs; largest push built {} hashes",
            stats.pushed,
            streamed.kept.len(),
            streamed.removed.len(),
            100.0 * streamed.removed.len() as f64 / stats.pushed.max(1) as f64,
            stats.exact_hits,
            stats.pushed,
            100.0 * exact_hit_rate,
            stats.pushed_hashes,
            full_stats.pushed_hashes,
            stats.kept_hashes,
            stats.kept_docs,
            stats.peak_batch_hashes,
        ),
    );
    log.emit(BENCH, label, "files_pushed", stats.pushed as f64, "files");
    log.emit(BENCH, label, "kept_docs", stats.kept_docs as f64, "files");
    log.emit(
        BENCH,
        label,
        "kept_hashes",
        stats.kept_hashes as f64,
        "hashes",
    );
    log.emit(
        BENCH,
        label,
        "peak_batch_hashes",
        stats.peak_batch_hashes as f64,
        "hashes",
    );
    log.emit(BENCH, label, "exact_hit_rate", exact_hit_rate, "fraction");
    log.emit(
        BENCH,
        label,
        "signature_hashes_built",
        stats.pushed_hashes as f64,
        "hashes",
    );
    log.emit(
        BENCH,
        label,
        "signature_hashes_without_exact",
        full_stats.pushed_hashes as f64,
        "hashes",
    );
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
        report_scale(&mut log, label, &corpus_texts(scale));
    }
    log.require(BENCH, &REQUIRED);
}
