//! One benchmark run: set-up, reference, warm-up, then passes for the
//! measured window, every output checked.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::measure::{median, peak_rss_mb, reset_peak_rss, tail_percentile};
use crate::shims::{counter, span};
use crate::trace::{LayerTotals, Recorder};
use crate::workloads::Workload;

/// Fewest times set-up is repeated; `setup_s` is the median of the repeats.
pub const MIN_SETUPS: usize = 3;

/// Most times set-up is repeated.
pub const MAX_SETUPS: usize = 15;

/// Set-up is repeated, up to [`MAX_SETUPS`] times, until the repeats have
/// taken this long, so that a set-up of a tenth of a second still gets a
/// median of many samples.
pub const SETUP_BUDGET: Duration = Duration::from_secs(2);

/// Fewest measured passes however long they take, so that a median exists.
pub const MIN_PASSES: usize = 3;

/// Fewest untraced/traced pass pairs of a traced run.
pub const MIN_PAIRS: usize = 1;

/// What one run is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Seed the workload's inputs are made from.
    pub seed: u64,
    /// How long to keep starting measured passes.
    pub window: Duration,
    /// Whether to run traced passes and report per-layer metrics.
    pub trace: bool,
}

/// What one run measured.
#[derive(Debug)]
pub struct Outcome {
    /// Passes whose output was checked.
    pub attempted: usize,
    /// Passes that panicked or whose output differed from the reference.
    pub failed: usize,
    /// Metric values by name: the end-to-end metrics, or the per-layer ones
    /// when tracing.
    pub values: BTreeMap<&'static str, f64>,
    /// The first traced pass, kept for the trace file.
    pub first_trace: Option<Arc<Recorder>>,
}

/// Compares pass outputs with the reference, counting failures.
struct Checker<O> {
    reference: Vec<O>,
    attempted: usize,
    failed: usize,
}

impl<O: PartialEq> Checker<O> {
    fn check(&mut self, index: usize, output: std::thread::Result<O>) {
        self.attempted += 1;
        let ok = match output {
            Err(_) => {
                eprintln!("pass {index} panicked");
                false
            }
            Ok(output) => self.reference[index % self.reference.len()] == output,
        };
        if !ok {
            eprintln!("pass {index} failed its output check");
            self.failed += 1;
        }
    }
}

/// Runs `pass`, returning its wall time and its output or panic.
fn timed<O>(pass: impl FnOnce() -> O) -> (f64, std::thread::Result<O>) {
    let start = Instant::now();
    let output = catch_unwind(AssertUnwindSafe(pass));
    (start.elapsed().as_secs_f64(), output)
}

/// Runs `workload` as `options` ask.
pub fn run<W: Workload>(workload: &W, options: &Options) -> Outcome {
    let mut setup_s = Vec::with_capacity(MAX_SETUPS);
    let mut state = None;
    let setups = Instant::now();
    while setup_s.len() < MIN_SETUPS
        || (setup_s.len() < MAX_SETUPS && setups.elapsed() < SETUP_BUDGET)
    {
        // Free the previous state first, so peak memory holds one state.
        drop(state.take());
        let start = Instant::now();
        let fresh = workload.setup(options.seed);
        setup_s.push(start.elapsed().as_secs_f64());
        state = Some(fresh);
    }
    let state = state.expect("set-up runs at least once");

    let reference = workload.reference(&state);
    assert_eq!(
        reference.len(),
        workload.variants(),
        "one reference output per variant"
    );
    let mut checker = Checker {
        reference,
        attempted: 0,
        failed: 0,
    };
    // `peak_rss_mb` covers the passes: repeated set-ups and the serial
    // reference leave a heap whose high-water mark varies run to run.
    reset_peak_rss();
    // Warm-up: one discarded pass per variant.
    for index in 0..workload.variants() {
        checker.check(index, timed(|| workload.pass(&state, index)).1);
    }
    let mut index = workload.variants();
    let start = Instant::now();
    let mut values = BTreeMap::new();
    let mut first_trace = None;

    if options.trace {
        let mut totals = LayerTotals::default();
        let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
        while plain_s.len() < MIN_PAIRS || start.elapsed() < options.window {
            // Alternate which kind goes first, so neither always runs warm.
            let traced_first = plain_s.len() % 2 == 1;
            for traced in [traced_first, !traced_first] {
                if traced {
                    let recorder = Arc::new(Recorder::new());
                    let (secs, output) = timed(|| {
                        let _pass = recorder.span(span::PASS);
                        workload.traced_pass(&state, index, &recorder)
                    });
                    checker.check(index, output);
                    traced_s.push(secs);
                    totals.absorb(&recorder);
                    first_trace.get_or_insert(recorder);
                } else {
                    let (secs, output) = timed(|| workload.pass(&state, index));
                    checker.check(index, output);
                    plain_s.push(secs);
                }
                index += 1;
            }
        }
        let overhead = match (median(&traced_s), median(&plain_s)) {
            (Some(traced), Some(plain)) if plain > 0.0 => traced / plain - 1.0,
            _ => f64::NAN,
        };
        values = layer_values(&totals, overhead);
    } else {
        let (mut pass_s, mut rates) = (Vec::new(), Vec::new());
        while pass_s.len() < MIN_PASSES || start.elapsed() < options.window {
            let (secs, output) = timed(|| workload.pass(&state, index));
            checker.check(index, output);
            pass_s.push(secs);
            rates.push(workload.items(&state, index) / secs);
            index += 1;
        }
        let mut put = |name, value: Option<f64>| {
            values.insert(name, value.unwrap_or(f64::NAN));
        };
        put("setup_s", median(&setup_s));
        put("pass_p50_s", median(&pass_s));
        put("items_per_s", median(&rates));
        put("peak_rss_mb", peak_rss_mb());
    }
    Outcome {
        attempted: checker.attempted,
        failed: checker.failed,
        values,
        first_trace,
    }
}

/// p99 over median of a span's durations; 0 where the span is absent or
/// too rare for a p99 with ten samples beyond it.
fn tail_ratio(durations: Option<&Vec<f64>>) -> f64 {
    durations
        .and_then(|d| Some((tail_percentile(d, 0.99)?.value, median(d)?)))
        .filter(|&(_, p50)| p50 > 0.0)
        .map_or(0.0, |(p99, p50)| p99 / p50)
}

/// The per-layer metrics, from the folded traced passes.
fn layer_values(t: &LayerTotals, overhead: f64) -> BTreeMap<&'static str, f64> {
    let mut v = BTreeMap::new();
    v.insert("gh_sim.universe.busy_pct", t.self_pct(span::UNIVERSE));
    v.insert("gh_sim.fetch.wait_pct", t.self_pct(span::FETCH_WAIT));
    v.insert("gh_sim.fetch.batches", t.per_pass(counter::FETCH_BATCHES));
    v.insert("gh_sim.fetch.queries", t.per_pass(counter::FETCH_QUERIES));
    v.insert(
        "gh_sim.fetch.rate_limit_retries",
        t.per_pass(counter::FETCH_RETRIES),
    );
    v.insert(
        "gh_sim.fetch.backoff_ticks",
        t.per_pass(counter::FETCH_BACKOFF_TICKS),
    );
    let stages: [(&str, [&'static str; 3]); 5] = [
        (
            span::LICENSE,
            [
                "curation.license.busy_pct",
                "curation.license.files_in",
                "curation.license.files_out",
            ],
        ),
        (
            span::DEDUP,
            [
                "curation.dedup.busy_pct",
                "curation.dedup.files_in",
                "curation.dedup.files_out",
            ],
        ),
        (
            span::SYNTAX,
            [
                "curation.syntax.busy_pct",
                "curation.syntax.files_in",
                "curation.syntax.files_out",
            ],
        ),
        (
            span::LINT,
            [
                "curation.lint.busy_pct",
                "curation.lint.files_in",
                "curation.lint.files_out",
            ],
        ),
        (
            span::COPYRIGHT,
            [
                "curation.copyright.busy_pct",
                "curation.copyright.files_in",
                "curation.copyright.files_out",
            ],
        ),
    ];
    for (stage, [busy, files_in, files_out]) in stages {
        v.insert(busy, t.self_pct(stage));
        v.insert(files_in, t.items_in_per_pass(stage));
        v.insert(files_out, t.items_out_per_pass(stage));
    }
    let pushes = t.durations_ns.get(span::PUSH);
    v.insert(
        "curation.session.pushes",
        pushes.map_or(0, Vec::len) as f64 / t.passes.max(1) as f64,
    );
    v.insert("curation.session.push_p99_over_p50", tail_ratio(pushes));
    v.insert("curation.session.finish_pct", t.self_pct(span::FINISH));
    v.insert(
        "curation.dedup.exact_hit_rate",
        t.ratio(counter::DEDUP_EXACT_HITS, counter::DEDUP_PUSHED),
    );
    v.insert(
        "curation.dedup.kept_hashes",
        t.per_pass(counter::DEDUP_KEPT_HASHES),
    );
    v.insert(
        "curation.dedup.peak_batch_hashes",
        t.per_pass(counter::DEDUP_PEAK_BATCH_HASHES),
    );
    v.insert("hwlm.sample.busy_pct", t.self_pct(span::SAMPLE));
    v.insert("hwlm.sample.calls", t.per_pass(counter::SAMPLE_CALLS));
    v.insert("verilog.parse.busy_pct", t.self_pct(span::PARSE));
    v.insert(
        "verilog.parse.ok_rate",
        t.ratio(counter::PARSES_OK, counter::PARSES),
    );
    v.insert("verilog.lint.busy_pct", t.self_pct(span::LINT_CANDIDATE));
    v.insert(
        "verilog.lint.clean_rate",
        t.ratio(counter::LINTS_CLEAN, counter::LINTS),
    );
    v.insert("verilog.simulate.busy_pct", t.self_pct(span::SIMULATE));
    v.insert(
        "verilog.simulate.pass_rate",
        t.ratio(counter::SIMULATIONS_PASSED, counter::SIMULATIONS),
    );
    v.insert(
        "verilog.simulate.errors",
        t.per_pass(counter::SIMULATION_ERRORS),
    );
    let jobs = t.durations_ns.get(span::JOB);
    v.insert(
        "verilogeval.jobs",
        jobs.map_or(0, Vec::len) as f64 / t.passes.max(1) as f64,
    );
    v.insert("verilogeval.job.busy_pct", t.self_pct(span::JOB));
    v.insert("verilogeval.job_p99_over_p50", tail_ratio(jobs));
    v.insert("copyright_bench.score.busy_pct", t.self_pct(span::SCORE));
    v.insert("copyright_bench.prompts", t.per_pass(counter::PROMPTS));
    v.insert(
        "copyright_bench.violation_rate",
        t.ratio(counter::VIOLATIONS, counter::PROMPTS),
    );
    v.insert("trace.overhead_fraction", overhead);
    v.insert("trace.unattributed_pct", t.self_pct(span::PASS));
    v.insert(
        "trace.spans_per_pass",
        t.spans as f64 / t.passes.max(1) as f64,
    );
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{required, END_TO_END, PER_LAYER};

    /// A workload whose passes echo their index, failing on request.
    struct Echo {
        panic_at: Option<usize>,
        wrong_at: Option<usize>,
    }

    impl Workload for Echo {
        type State = ();
        type Output = usize;

        fn setup(&self, _seed: u64) {}

        fn variants(&self) -> usize {
            2
        }

        fn items(&self, _state: &(), _index: usize) -> f64 {
            10.0
        }

        fn reference(&self, _state: &()) -> Vec<usize> {
            vec![0, 1]
        }

        fn pass(&self, _state: &(), index: usize) -> usize {
            assert!(Some(index) != self.panic_at, "planted panic");
            if Some(index) == self.wrong_at {
                99
            } else {
                index % 2
            }
        }

        fn traced_pass(&self, state: &(), index: usize, recorder: &Arc<Recorder>) -> usize {
            let _span = recorder.span(span::SAMPLE);
            self.pass(state, index)
        }
    }

    fn options(trace: bool) -> Options {
        Options {
            seed: 1,
            window: Duration::ZERO,
            trace,
        }
    }

    #[test]
    fn clean_runs_emit_every_metric() {
        let echo = Echo {
            panic_at: None,
            wrong_at: None,
        };
        let plain = run(&echo, &options(false));
        assert_eq!((plain.attempted, plain.failed), (2 + MIN_PASSES, 0));
        required(END_TO_END, &plain.values).expect("every end-to-end metric");
        let traced = run(&echo, &options(true));
        assert_eq!(traced.failed, 0);
        assert!(traced.first_trace.is_some());
        required(PER_LAYER, &traced.values).expect("every per-layer metric");
        assert!(traced.values["hwlm.sample.busy_pct"] > 0.0);
    }

    #[test]
    fn panics_and_mismatches_count_as_failures() {
        let echo = Echo {
            panic_at: Some(3),
            wrong_at: Some(4),
        };
        let outcome = run(&echo, &options(false));
        assert_eq!((outcome.attempted, outcome.failed), (2 + MIN_PASSES, 2));
    }
}
