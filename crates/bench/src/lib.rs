//! Shared helpers for the metric-contract benches.
//!
//! Five bench targets each exercise one layer and re-assert its contracts:
//! `bench_dedup` (streamed and spill-budgeted dedup equal one-shot, peak
//! residency inside the budget), `bench_parse` (operator dispatch, serial ≡
//! parallel parse), `bench_lint` (serial ≡ parallel lint, every rule firing
//! on its planted defect), `bench_train` (sharded ≡ serial training) and
//! `bench_eval` (parallel ≡ serial eval and copyright reports). Each prints
//! its headline numbers as [`format_metric`] lines through a [`MetricLog`],
//! declares the metric names it must print, and exits non-zero, naming the
//! metric, when one is missing.
//!
//! The paper's tables and figures are regenerated by the root package's
//! examples, and the end-to-end benchmark is the `bench_e2e` package, which
//! prints its metrics through [`format_metric`].

/// Whether the harness runs in fast (smoke) mode: the benches run one small
/// pass only — the tiny scale, except in `bench_eval`, which times the
/// untruncated suite so that its serial run is long enough to measure a
/// speedup against. CI sets `FFH_BENCH_FAST=1` to check the contracts
/// on every push without the larger scale, whose timings would be noise on
/// shared runners.
pub fn fast_mode() -> bool {
    matches!(
        std::env::var("FFH_BENCH_FAST").as_deref(),
        Ok("1") | Ok("true")
    )
}

/// Prints a regenerated artefact with a banner, so `cargo bench` output
/// doubles as the experiment log.
pub fn print_artifact(title: &str, body: &str) {
    println!("\n==================================================================");
    println!("{title}");
    println!("==================================================================");
    println!("{body}");
}

/// Formats one machine-readable benchmark metric line.
///
/// Every bench target that tracks a trajectory (times, residency, removal
/// rates) emits its headline numbers in this stable shape so later PRs can
/// grep `FFH-METRIC` out of `cargo bench` logs and diff them run over run:
///
/// ```text
/// FFH-METRIC bench=<target> scale=<label> metric=<name> value=<number> unit=<unit>
/// ```
pub fn format_metric(bench: &str, scale: &str, metric: &str, value: f64, unit: &str) -> String {
    format!("FFH-METRIC bench={bench} scale={scale} metric={metric} value={value} unit={unit}")
}

/// The metrics a bench target printed, so it can check before it exits that
/// it printed every metric it promises.
#[derive(Debug, Default)]
pub struct MetricLog {
    /// `(bench, metric)` of every line printed, in print order.
    printed: Vec<(String, String)>,
}

impl MetricLog {
    /// Prints one [`format_metric`] line and records it.
    pub fn emit(&mut self, bench: &str, scale: &str, metric: &str, value: f64, unit: &str) {
        println!("{}", format_metric(bench, scale, metric, value, unit));
        self.printed.push((bench.to_string(), metric.to_string()));
    }

    /// Checks that `bench` printed each name in `required`, at any scale. A
    /// metric printed under another bench's label does not count.
    ///
    /// # Errors
    ///
    /// Returns a message naming every required metric `bench` did not print.
    pub fn check<S: AsRef<str>>(&self, bench: &str, required: &[S]) -> Result<(), String> {
        let missing: Vec<&str> = required
            .iter()
            .map(AsRef::as_ref)
            .filter(|&name| !self.printed.iter().any(|(b, m)| b == bench && m == name))
            .collect();
        if missing.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "{bench} did not print the required FFH-METRIC metric(s): {}",
                missing.join(", ")
            ))
        }
    }

    /// Runs [`Self::check`] and, when a required metric is missing, prints
    /// the message to stderr and exits the process with status 1.
    pub fn require<S: AsRef<str>>(&self, bench: &str, required: &[S]) {
        if let Err(message) = self.check(bench, required) {
            eprintln!("{message}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_lines_have_a_stable_greppable_shape() {
        let line = format_metric("bench_dedup", "small", "kept_hashes", 123.0, "hashes");
        assert!(line.starts_with("FFH-METRIC "));
        assert_eq!(
            line,
            "FFH-METRIC bench=bench_dedup scale=small metric=kept_hashes value=123 unit=hashes"
        );
    }

    #[test]
    fn a_run_missing_a_required_metric_fails_and_names_it() {
        let mut log = MetricLog::default();
        log.emit(
            "bench_parse",
            "tiny",
            "files_per_sec",
            10.0,
            "files_per_sec",
        );
        log.emit("bench_parse", "tiny", "tokens", 99.0, "tokens");
        assert_eq!(
            log.check(
                "bench_parse",
                &[
                    "files_per_sec",
                    "lex_tokens_per_sec",
                    "parallel_files_per_sec"
                ]
            ),
            Err(
                "bench_parse did not print the required FFH-METRIC metric(s): \
                 lex_tokens_per_sec, parallel_files_per_sec"
                    .to_string()
            )
        );
    }

    #[test]
    fn a_metric_printed_under_another_bench_does_not_count() {
        let mut log = MetricLog::default();
        log.emit("bench_train", "tiny", "speedup_vs_serial", 1.5, "ratio");
        assert_eq!(
            log.check("bench_eval", &["speedup_vs_serial"]),
            Err(
                "bench_eval did not print the required FFH-METRIC metric(s): speedup_vs_serial"
                    .to_string()
            )
        );
        assert_eq!(log.check("bench_train", &["speedup_vs_serial"]), Ok(()));
    }

    #[test]
    fn a_run_printing_every_required_metric_passes() {
        let required: Vec<String> = ["exact_hit_rate", "peak_resident_hashes"]
            .iter()
            .map(|name| name.to_string())
            .collect();
        let mut log = MetricLog::default();
        log.emit("bench_dedup", "tiny", "exact_hit_rate", 0.2, "fraction");
        log.emit(
            "bench_dedup",
            "small",
            "peak_resident_hashes",
            7.0,
            "hashes",
        );
        assert_eq!(log.check("bench_dedup", &required), Ok(()));
    }
}
