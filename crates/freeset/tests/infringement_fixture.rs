//! Pins the copyright benchmark at tiny scale, byte for byte.
//!
//! The reference set is filtered the way the end-to-end benchmark builds
//! it: every scraped file in an accepted-license repository that carries a
//! proprietary notice. From it come the benchmark's prompts, and from
//! sampling and scoring come the infringement reports of FreeV's base and
//! fine-tune and of one zoo pair (VeriGen). The reports print with `{:#?}`,
//! so every `max_similarity` is pinned to the last digit: a change to the
//! reference filter, the prompt cut, the models' training recipe, sampling
//! or the scorer shows up here.
//!
//! Regenerate with `FFH_REGEN_FIXTURES=1 cargo test`.

use copyright_bench::{BenchmarkConfig, CopyrightBenchmark, CopyrightedReference};
use curation::CopyrightDetector;
use freeset::build_freeset;
use freeset::config::{ExperimentScale, FreeSetConfig};
use freeset::freev::FreeVBuilder;
use freeset::modelzoo::{ModelZoo, ZooEntry};
use hwlm::parallel::ExecutionMode;

fn check_snapshot(rel: &str, actual: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    if std::env::var_os("FFH_REGEN_FIXTURES").is_some() {
        std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("mkdir fixtures");
        std::fs::write(&path, actual).expect("write fixture");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); regenerate with FFH_REGEN_FIXTURES=1",
            path.display()
        )
    });
    assert_eq!(
        expected, actual,
        "the copyright benchmark diverged from the pinned snapshot ({rel}); \
         if the change is intentional, regenerate with FFH_REGEN_FIXTURES=1"
    );
}

/// FNV-1a over a reference file's bytes, so the render pins its contents.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn tiny_infringement_reports_match_pinned_snapshot() {
    let build = build_freeset(&FreeSetConfig::at_scale(&ExperimentScale::tiny()));
    let detector = CopyrightDetector::new();
    let protected: Vec<_> = build
        .scraped
        .files
        .iter()
        .filter(|f| f.repo_license.is_accepted_open_source() && detector.is_protected(&f.content))
        .cloned()
        .collect();
    let reference = CopyrightedReference::from_extracted(&protected);
    let benchmark = CopyrightBenchmark::new(
        reference,
        BenchmarkConfig {
            prompt_count: 25,
            max_new_tokens: 160,
            execution: ExecutionMode::Serial,
            ..Default::default()
        },
    );

    let mut out = String::new();
    for (index, file) in benchmark.reference().files().iter().enumerate() {
        out.push_str(&format!(
            "reference {index}: {} holder={:?} raw_chars={} raw_fnv={:#018x} code_words={}\n",
            file.identity,
            file.holder,
            file.raw.len(),
            fnv1a(&file.raw),
            file.code_word_count()
        ));
    }
    for prompt in benchmark.prompts() {
        out.push_str(&format!(
            "prompt ref={}: {}\n",
            prompt.reference_index, prompt.text
        ));
    }

    let freev = FreeVBuilder::default().build(&build.scraped, &build.training_corpus());
    out.push_str(&format!("{:#?}\n", benchmark.evaluate(freev.base())));
    out.push_str(&format!("{:#?}\n", benchmark.evaluate(freev.tuned())));

    let zoo = ModelZoo::new(build.scraped.clone()).with_max_finetune_files(400);
    let verigen = zoo.build(&ZooEntry::by_name("VeriGen").expect("VeriGen is a zoo entry"));
    out.push_str(&format!("{:#?}\n", benchmark.evaluate(verigen.base())));
    out.push_str(&format!("{:#?}\n", benchmark.evaluate(&verigen.tuned)));

    check_snapshot("tests/fixtures/infringement_tiny.txt", &out);
}
