//! Benchmarks the shard-and-merge training driver (`hwlm::parallel`):
//! tokens/sec for the serial reference fold vs the parallel map-reduce over
//! scoped worker threads. Every run re-asserts the driver's contract — the
//! sharded model is byte-identical to [`NgramModel::train_named`] — and
//! that fanning the count fold out actually pays for itself
//! (`speedup_vs_serial > 1`).
//!
//! With `FFH_BENCH_FAST=1` only the tiny scale runs. The run exits non-zero
//! when a metric in [`REQUIRED`] was not printed.

use std::time::Instant;

use bench::{fast_mode, print_artifact, MetricLog};
use gh_sim::{DesignKind, SynthConfig, Synthesizer};
use hwlm::parallel::{default_workers, train_model_sharded};
use hwlm::{NgramModel, TrainConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const BENCH: &str = "bench_train";

/// The metrics this bench must print.
const REQUIRED: [&str; 3] = [
    "train_tokens_per_sec_serial",
    "train_tokens_per_sec_parallel",
    "speedup_vs_serial",
];

/// A synthesized training corpus: `files` generated designs cycling over
/// every design kind, the same traffic shape the model zoo trains on.
fn corpus(files: usize) -> Vec<String> {
    let synth = Synthesizer::new(SynthConfig::default());
    let mut rng = ChaCha8Rng::seed_from_u64(0x7A11);
    (0..files)
        .map(|i| {
            let kind = DesignKind::ALL[i % DesignKind::ALL.len()];
            synth
                .generate(kind, &format!("{}_{i}", kind.tag()), &mut rng)
                .source
        })
        .collect()
}

/// Wall-clock seconds for one invocation of `pass`.
fn time_once<T, F: FnOnce() -> T>(pass: F) -> (f64, T) {
    let start = Instant::now();
    let out = pass();
    (start.elapsed().as_secs_f64().max(f64::EPSILON), out)
}

fn report_scale(log: &mut MetricLog, label: &str, files: &[String]) {
    let config = TrainConfig::default();
    let workers = default_workers();
    let reps = 7;

    // Serial and parallel passes run interleaved, best-of-N each, so a
    // system-wide slowdown mid-run penalises both equally.
    let mut serial_secs = f64::INFINITY;
    let mut parallel_secs = f64::INFINITY;
    let mut serial_model = None;
    let mut parallel_model = None;
    for _ in 0..reps {
        let (secs, model) = time_once(|| NgramModel::train_named("bench", files, &config));
        serial_secs = serial_secs.min(secs);
        serial_model = Some(model);

        let (secs, model) = time_once(|| train_model_sharded("bench", files, &config, workers));
        parallel_secs = parallel_secs.min(secs);
        parallel_model = Some(model);
    }
    let serial_model = serial_model.expect("at least one rep ran");
    let parallel_model = parallel_model.expect("at least one rep ran");

    // The driver's contract: identical models (PartialEq over the vocabulary
    // and every count table), and a real speedup.
    assert_eq!(
        parallel_model, serial_model,
        "sharded training diverged from the serial fold"
    );
    let tokens = serial_model.counts().trained_tokens();
    let speedup = serial_secs / parallel_secs;
    // On a single-core machine the sharded driver degenerates to the serial
    // fold plus thread overhead, so the speedup contract only binds when
    // there is parallelism to exploit.
    assert!(
        workers == 1 || speedup > 1.0,
        "sharded training ({parallel_secs:.4}s on {workers} workers) must beat \
         the serial fold ({serial_secs:.4}s)"
    );

    print_artifact(
        &format!("Shard-and-merge training at scale `{label}`"),
        &format!(
            "{} files, {tokens} trained tokens: serial {:.2}M tokens/sec, \
             {workers}-worker sharded {:.2}M tokens/sec — models byte-identical, \
             speedup {speedup:.2}x",
            files.len(),
            tokens as f64 / serial_secs / 1.0e6,
            tokens as f64 / parallel_secs / 1.0e6,
        ),
    );

    log.emit(BENCH, label, "files", files.len() as f64, "files");
    log.emit(BENCH, label, "trained_tokens", tokens as f64, "tokens");
    log.emit(BENCH, label, "workers", workers as f64, "threads");
    log.emit(
        BENCH,
        label,
        "train_tokens_per_sec_serial",
        tokens as f64 / serial_secs,
        "tokens_per_sec",
    );
    log.emit(
        BENCH,
        label,
        "train_tokens_per_sec_parallel",
        tokens as f64 / parallel_secs,
        "tokens_per_sec",
    );
    log.emit(BENCH, label, "speedup_vs_serial", speedup, "ratio");
}

fn main() {
    let scales: Vec<(&str, usize)> = if fast_mode() {
        vec![("tiny", 400)]
    } else {
        vec![("tiny", 400), ("small", 1200)]
    };
    let mut log = MetricLog::default();
    for (label, files) in &scales {
        report_scale(&mut log, label, &corpus(*files));
    }
    log.require(BENCH, &REQUIRED);
}
