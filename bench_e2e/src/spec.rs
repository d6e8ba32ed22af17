//! The benchmark's definition: workloads, metrics and their bounds.
//!
//! `BENCHMARK.json` at the repository root is rendered from these tables
//! ([`benchmark_json`]); `tests/contract.rs` fails when the two disagree, and
//! a run exits non-zero when it does not emit every metric listed here.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::measure::valid_metric_name;
use Better::{Higher, Lower};

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric the benchmark reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: &'static str,
    /// Unit the value is reported in.
    pub unit: &'static str,
    /// Which direction is an improvement.
    pub better: Better,
    /// For end-to-end metrics, the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

/// One workload and why the benchmark runs it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadSpec {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Why it was chosen.
    pub why: &'static str,
}

/// How to run the benchmark from the repository root.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--manifest-path",
    "bench_e2e/Cargo.toml",
    "--",
];

/// The directories holding the benchmark.
pub const PATHS: &[&str] = &["bench_e2e"];

/// Seconds one run measures for.
pub const RUN_SECONDS: u64 = 30;

/// The workloads.
pub const WORKLOADS: &[WorkloadSpec] = &[
    WorkloadSpec {
        name: "build-dup",
        why: "FreeSet build at paper proportions: 58% planted duplicates, so dedup dominates and its exact-hash fast path fires",
    },
    WorkloadSpec {
        name: "build-unique",
        why: "the same build with no planted duplicates: the exact-hash fast path is bypassed and twice the files reach syntax, lint and copyright",
    },
    WorkloadSpec {
        name: "verilogeval",
        why: "Table II and copyright rounds on FreeV trained in set-up: per-candidate sampling, parse, lint and simulation",
    },
];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
    }
}

/// Metrics of an untraced run (`--trace 0`). The timing bounds are wide
/// because work on a shared 2-vCPU host runs up to a third slower for ten
/// seconds at a time; see `README.md` for the measured spreads.
pub const END_TO_END: &[MetricSpec] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("pass_p50_s", "s", Lower, 0.25),
    e2e("items_per_s", "1/s", Higher, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.2),
];

/// Metrics of a traced run (`--trace 1`). `_pct` values are shares of the
/// traced busy time (the summed self time of every span); counts are per
/// traced pass.
pub const PER_LAYER: &[MetricSpec] = &[
    layer("gh_sim.universe.busy_pct", "%", Lower),
    layer("gh_sim.fetch.wait_pct", "%", Lower),
    layer("gh_sim.fetch.batches", "count", Lower),
    layer("gh_sim.fetch.queries", "count", Lower),
    layer("gh_sim.fetch.rate_limit_retries", "count", Lower),
    layer("gh_sim.fetch.backoff_ticks", "count", Lower),
    layer("curation.license.busy_pct", "%", Lower),
    layer("curation.license.files_in", "count", Lower),
    layer("curation.license.files_out", "count", Lower),
    layer("curation.dedup.busy_pct", "%", Lower),
    layer("curation.dedup.files_in", "count", Lower),
    layer("curation.dedup.files_out", "count", Lower),
    layer("curation.syntax.busy_pct", "%", Lower),
    layer("curation.syntax.files_in", "count", Lower),
    layer("curation.syntax.files_out", "count", Lower),
    layer("curation.lint.busy_pct", "%", Lower),
    layer("curation.lint.files_in", "count", Lower),
    layer("curation.lint.files_out", "count", Lower),
    layer("curation.copyright.busy_pct", "%", Lower),
    layer("curation.copyright.files_in", "count", Lower),
    layer("curation.copyright.files_out", "count", Lower),
    layer("curation.session.pushes", "count", Lower),
    layer("curation.session.push_p99_over_p50", "ratio", Lower),
    layer("curation.session.finish_pct", "%", Lower),
    layer("curation.dedup.exact_hit_rate", "ratio", Higher),
    layer("curation.dedup.kept_hashes", "count", Lower),
    layer("curation.dedup.peak_batch_hashes", "count", Lower),
    layer("hwlm.sample.busy_pct", "%", Lower),
    layer("hwlm.sample.calls", "count", Lower),
    layer("verilog.parse.busy_pct", "%", Lower),
    layer("verilog.parse.ok_rate", "ratio", Higher),
    layer("verilog.lint.busy_pct", "%", Lower),
    layer("verilog.lint.clean_rate", "ratio", Higher),
    layer("verilog.simulate.busy_pct", "%", Lower),
    layer("verilog.simulate.pass_rate", "ratio", Higher),
    layer("verilog.simulate.errors", "count", Lower),
    layer("verilogeval.jobs", "count", Lower),
    layer("verilogeval.job.busy_pct", "%", Lower),
    layer("verilogeval.job_p99_over_p50", "ratio", Lower),
    layer("copyright_bench.score.busy_pct", "%", Lower),
    layer("copyright_bench.prompts", "count", Lower),
    layer("copyright_bench.violation_rate", "ratio", Lower),
    layer("trace.overhead_fraction", "ratio", Lower),
    layer("trace.unattributed_pct", "%", Lower),
    layer("trace.spans_per_pass", "count", Lower),
];

fn quoted(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn list(items: impl IntoIterator<Item = String>, indent: &str) -> String {
    let items: Vec<String> = items.into_iter().collect();
    format!(
        "[\n{indent}  {}\n{indent}]",
        items.join(&format!(",\n{indent}  "))
    )
}

/// The `BENCHMARK.json` this benchmark is run by.
pub fn benchmark_json() -> String {
    let strings = |items: &[&str]| {
        let items: Vec<String> = items.iter().map(|s| quoted(s)).collect();
        format!("[{}]", items.join(", "))
    };
    let metric = |m: &MetricSpec| {
        let bound = m
            .bound
            .map_or(String::new(), |b| format!(", \"bound\": {b}"));
        format!(
            "{{\"name\": {}, \"unit\": {}, \"better\": \"{}\"{bound}}}",
            quoted(m.name),
            quoted(m.unit),
            m.better.as_str()
        )
    };
    let workloads = WORKLOADS.iter().map(|w| {
        format!(
            "{{\"name\": {}, \"why\": {}}}",
            quoted(w.name),
            quoted(w.why)
        )
    });
    format!(
        "{{\n  \"command\": {},\n  \"paths\": {},\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        strings(COMMAND),
        strings(PATHS),
        list(workloads, "  "),
        list(END_TO_END.iter().map(metric), "  "),
        list(PER_LAYER.iter().map(metric), "  "),
    )
}

/// Picks every metric `specs` lists out of `values`, or names the ones that
/// are missing, not finite, or badly named.
pub fn required<'s>(
    specs: &'s [MetricSpec],
    values: &BTreeMap<&str, f64>,
) -> Result<Vec<(&'s MetricSpec, f64)>, Vec<&'static str>> {
    let mut found = Vec::new();
    let mut missing = Vec::new();
    for spec in specs {
        match values.get(spec.name) {
            Some(&v) if v.is_finite() && valid_metric_name(spec.name) => found.push((spec, v)),
            _ => missing.push(spec.name),
        }
    }
    if missing.is_empty() {
        Ok(found)
    } else {
        Err(missing)
    }
}

/// The result line a run ends with.
pub fn result_json(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(&MetricSpec, f64)],
) -> String {
    let metrics: Vec<String> = metrics
        .iter()
        .map(|(spec, value)| {
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                quoted(spec.name),
                quoted(spec.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name));
        for name in names {
            assert!(valid_metric_name(name), "{name}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }

    #[test]
    fn units_and_bounds_follow_the_contract() {
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        for m in END_TO_END {
            assert!(unit_ok(m.unit), "{}", m.name);
            assert!(m.bound.is_some_and(|b| b > 0.0 && b <= 0.25), "{}", m.name);
        }
        for m in PER_LAYER {
            assert!(unit_ok(m.unit), "{}", m.name);
            assert!(m.bound.is_none(), "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let largest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest), "set-up has the largest bound");
    }

    #[test]
    fn required_names_what_is_missing() {
        let specs = &END_TO_END[..2];
        let mut values = BTreeMap::new();
        values.insert("setup_s", 1.5);
        assert_eq!(required(specs, &values), Err(vec!["pass_p50_s"]));
        values.insert("pass_p50_s", f64::NAN);
        assert_eq!(required(specs, &values), Err(vec!["pass_p50_s"]));
        values.insert("pass_p50_s", 2.0);
        let found = required(specs, &values).expect("both present");
        assert_eq!(
            found.iter().map(|(_, v)| *v).collect::<Vec<_>>(),
            vec![1.5, 2.0]
        );
    }

    #[test]
    fn result_json_has_the_contract_shape() {
        let line = result_json(true, 3, 0, &[(&END_TO_END[0], 0.8127)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn quoting_escapes_json_specials() {
        assert_eq!(quoted("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
