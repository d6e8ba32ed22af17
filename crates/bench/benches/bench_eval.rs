//! Benchmarks the order-stable parallel evaluation harness: problems/sec
//! for the serial vs parallel `verilogeval` runner and prompts/sec for the
//! serial vs parallel copyright scorer. Every run re-asserts the harness
//! contract — parallel reports byte-identical to serial — and that the
//! (problem, temperature) fan-out actually pays for itself
//! (`speedup_vs_serial > 1`).
//!
//! With `FFH_BENCH_FAST=1` only the untruncated suite runs (scale `small`),
//! sampled [`SAMPLES_PER_PROBLEM`] times per temperature so that the speedup
//! times the fan-out rather than thread start-up. On a shared 2-vCPU host,
//! over 8 runs, its serial evaluation took 22–33 ms (median 24 ms) and the
//! speedup read 1.46–1.93×. The run exits non-zero when a metric in
//! [`REQUIRED`] was not printed.

use std::time::Instant;

use bench::{fast_mode, print_artifact, MetricLog};
use copyright_bench::{BenchmarkConfig, CopyrightBenchmark, CopyrightedReference};
use hwlm::parallel::ExecutionMode;
use hwlm::{NgramModel, TrainConfig};
use verilogeval::{EvalConfig, ProblemSuite, Runner};

const BENCH: &str = "bench_eval";

/// The metrics this bench must print.
const REQUIRED: [&str; 5] = [
    "eval_problems_per_sec_serial",
    "eval_problems_per_sec_parallel",
    "speedup_vs_serial",
    "copyright_prompts_per_sec_serial",
    "copyright_prompts_per_sec_parallel",
];

/// Samples drawn per problem and temperature.
const SAMPLES_PER_PROBLEM: usize = 32;

/// The evaluated model: trained on the suite's prompts and golden bodies so
/// its samples follow real token distributions (a pure-fallback model would
/// make the timed generation loop unrepresentatively cheap).
fn eval_model(suite: &ProblemSuite) -> NgramModel {
    let corpus: Vec<String> = suite
        .problems()
        .iter()
        .map(|p| format!("{}{}\n", p.prompt(), p.golden_solution))
        .collect();
    NgramModel::train_named(
        "bench",
        &corpus,
        &TrainConfig {
            order: 10,
            ..Default::default()
        },
    )
}

fn eval_config(execution: ExecutionMode) -> EvalConfig {
    EvalConfig {
        samples_per_problem: SAMPLES_PER_PROBLEM,
        ks: vec![1, 4],
        temperatures: vec![0.2, 0.8],
        max_new_tokens: 120,
        lint_gate: true,
        seed: 0xE7A1,
        execution,
    }
}

/// Wall-clock seconds for one invocation of `pass`.
fn time_once<T, F: FnOnce() -> T>(pass: F) -> (f64, T) {
    let start = Instant::now();
    let out = pass();
    (start.elapsed().as_secs_f64().max(f64::EPSILON), out)
}

fn report_verilogeval(log: &mut MetricLog, label: &str, suite: &ProblemSuite, model: &NgramModel) {
    let problems = suite.len();
    let reps = 7;

    let mut serial_secs = f64::INFINITY;
    let mut parallel_secs = f64::INFINITY;
    let mut serial_report = None;
    let mut parallel_report = None;
    for _ in 0..reps {
        let runner = Runner::new(suite.clone(), eval_config(ExecutionMode::Serial));
        let (secs, report) = time_once(|| runner.evaluate(model));
        serial_secs = serial_secs.min(secs);
        serial_report = Some(report);

        let runner = Runner::new(suite.clone(), eval_config(ExecutionMode::Parallel));
        let (secs, report) = time_once(|| runner.evaluate(model));
        parallel_secs = parallel_secs.min(secs);
        parallel_report = Some(report);
    }
    let serial_report = serial_report.expect("at least one rep ran");
    let parallel_report = parallel_report.expect("at least one rep ran");

    assert_eq!(
        parallel_report, serial_report,
        "parallel evaluation diverged from serial"
    );
    let speedup = serial_secs / parallel_secs;
    // On a single-core machine the fan-out degenerates to serial execution
    // plus thread overhead, so the speedup contract only binds when there is
    // parallelism to exploit.
    let workers = rayon::current_num_threads();
    assert!(
        workers == 1 || speedup > 1.0,
        "parallel evaluation ({parallel_secs:.4}s on {workers} workers) must \
         beat serial ({serial_secs:.4}s)"
    );

    print_artifact(
        &format!("Parallel evaluation at scale `{label}`"),
        &format!(
            "{problems} problems x 2 temperatures x {SAMPLES_PER_PROBLEM} samples: serial \
             {:.1} problems/sec, parallel {:.1} problems/sec — reports byte-identical, \
             speedup {speedup:.2}x (best temperature {:.1}, pass@1 {:.1}%)",
            problems as f64 / serial_secs,
            problems as f64 / parallel_secs,
            serial_report.best_temperature,
            serial_report.pass_percent(1).unwrap_or(0.0),
        ),
    );

    log.emit(BENCH, label, "problems", problems as f64, "problems");
    log.emit(
        BENCH,
        label,
        "eval_problems_per_sec_serial",
        problems as f64 / serial_secs,
        "problems_per_sec",
    );
    log.emit(
        BENCH,
        label,
        "eval_problems_per_sec_parallel",
        problems as f64 / parallel_secs,
        "problems_per_sec",
    );
    log.emit(BENCH, label, "speedup_vs_serial", speedup, "ratio");
}

/// The copyright side of the harness: same contract, prompt-level fan-out.
fn report_copyright(log: &mut MetricLog, label: &str) {
    let texts: Vec<String> = (0..24)
        .map(|tag| {
            let mut body = format!(
                "// Copyright (C) 2019 Vendor Corp. All rights reserved.\n\
                 module vendor_core_{tag}(input clk, input [15:0] din, output reg [15:0] dout);\n"
            );
            for i in 0..10 {
                body.push_str(&format!(
                    "reg [15:0] pipe_{tag}_{i};\nalways @(posedge clk) pipe_{tag}_{i} <= din + 16'd{};\n",
                    i * 7 + tag
                ));
            }
            body.push_str(&format!(
                "always @(posedge clk) dout <= pipe_{tag}_9;\nendmodule\n"
            ));
            body
        })
        .collect();
    let model = NgramModel::train_named(
        "leaky",
        &texts,
        &TrainConfig {
            order: 8,
            ..Default::default()
        },
    );
    let reference = CopyrightedReference::from_texts(&texts);
    let config = |execution| BenchmarkConfig {
        prompt_count: texts.len(),
        execution,
        ..Default::default()
    };
    let prompts = texts.len();
    let reps = 7;

    let mut serial_secs = f64::INFINITY;
    let mut parallel_secs = f64::INFINITY;
    let mut serial_report = None;
    let mut parallel_report = None;
    for _ in 0..reps {
        let bench = CopyrightBenchmark::new(reference.clone(), config(ExecutionMode::Serial));
        let (secs, report) = time_once(|| bench.evaluate(&model));
        serial_secs = serial_secs.min(secs);
        serial_report = Some(report);

        let bench = CopyrightBenchmark::new(reference.clone(), config(ExecutionMode::Parallel));
        let (secs, report) = time_once(|| bench.evaluate(&model));
        parallel_secs = parallel_secs.min(secs);
        parallel_report = Some(report);
    }
    let serial_report = serial_report.expect("at least one rep ran");
    let parallel_report = parallel_report.expect("at least one rep ran");

    assert_eq!(
        parallel_report, serial_report,
        "parallel copyright scoring diverged from serial"
    );
    print_artifact(
        &format!("Parallel copyright scoring at scale `{label}`"),
        &format!(
            "{prompts} prompts: serial {:.1} prompts/sec, parallel {:.1} prompts/sec — \
             reports byte-identical ({} violations either way)",
            prompts as f64 / serial_secs,
            prompts as f64 / parallel_secs,
            serial_report.violations,
        ),
    );
    log.emit(
        BENCH,
        label,
        "copyright_prompts_per_sec_serial",
        prompts as f64 / serial_secs,
        "prompts_per_sec",
    );
    log.emit(
        BENCH,
        label,
        "copyright_prompts_per_sec_parallel",
        prompts as f64 / parallel_secs,
        "prompts_per_sec",
    );
}

fn main() {
    let scales: Vec<(&str, Option<usize>)> = if fast_mode() {
        vec![("small", None)]
    } else {
        vec![("tiny", Some(12)), ("small", None)]
    };
    let mut log = MetricLog::default();
    for (label, truncate) in &scales {
        let full = ProblemSuite::verilog_eval_human();
        let suite = match truncate {
            Some(n) => full.truncated(*n),
            None => full,
        };
        let model = eval_model(&suite);
        report_verilogeval(&mut log, label, &suite, &model);
        report_copyright(&mut log, label);
    }
    log.require(BENCH, &REQUIRED);
}
