//! Benchmarks the curation stage engine: serial versus parallel execution of
//! the full FreeSet pipeline at the tiny and small scales, plus the isolated
//! MinHash signature build. Later PRs optimising the pipeline have this as
//! their baseline trajectory.

use bench::{print_artifact, timing_scale};
use criterion::{black_box, Criterion};
use curation::{CurationConfig, CurationPipeline, ExecutionMode};
use freeset::config::{ExperimentScale, FreeSetConfig};
use freeset::corpus::ScrapedCorpus;
use rayon::prelude::*;
use textsim::{char_shingles, MinHasher, ShingleSet};

fn bench_scale(c: &mut Criterion, label: &str, scale: &ExperimentScale) {
    let scraped = ScrapedCorpus::build(&FreeSetConfig::at_scale(scale));
    let mut group = c.benchmark_group(format!("pipeline_{label}"));
    group.sample_size(10);
    for (mode_label, mode) in [
        ("serial", ExecutionMode::Serial),
        ("parallel", ExecutionMode::Parallel),
    ] {
        group.bench_function(format!("freeset_{mode_label}"), |b| {
            b.iter(|| {
                let dataset = CurationPipeline::new(CurationConfig::freeset())
                    .with_mode(mode)
                    .run(black_box(scraped.files.clone()));
                black_box(dataset.len())
            })
        });
    }
    group.finish();
}

fn bench_signatures(c: &mut Criterion) {
    let scraped = ScrapedCorpus::build(&FreeSetConfig::at_scale(&timing_scale()));
    let hasher = MinHasher::new(128, 0x5EED);
    let sets: Vec<ShingleSet> = scraped
        .files
        .iter()
        .map(|f| char_shingles(&f.content, 8))
        .collect();
    let mut group = c.benchmark_group("minhash_batch");
    group.sample_size(10);
    group.bench_function("signatures_serial", |b| {
        b.iter(|| black_box(hasher.signatures(black_box(&sets))))
    });
    group.bench_function("signatures_parallel", |b| {
        b.iter(|| {
            black_box(
                black_box(&sets)
                    .par_iter()
                    .map(|s| hasher.signature(s))
                    .collect::<Vec<_>>(),
            )
        })
    });
    group.finish();
}

fn main() {
    let scraped = ScrapedCorpus::build(&FreeSetConfig::at_scale(&timing_scale()));
    let serial = CurationPipeline::new(CurationConfig::freeset())
        .serial()
        .run(scraped.files.clone());
    let parallel = CurationPipeline::new(CurationConfig::freeset()).run(scraped.files.clone());
    assert_eq!(serial, parallel, "parallel output must be byte-identical");
    print_artifact(
        "Stage engine: serial/parallel equivalence",
        &format!(
            "{} files in, {} kept, {} rejected - identical in both modes\n\n{}",
            scraped.files.len(),
            parallel.len(),
            parallel.rejects().len(),
            parallel.funnel()
        ),
    );

    let mut criterion = Criterion::default().configure_from_args();
    bench_scale(&mut criterion, "tiny", &ExperimentScale::tiny());
    bench_scale(&mut criterion, "small", &ExperimentScale::small());
    bench_signatures(&mut criterion);
    criterion.final_summary();
}
