//! End-to-end and per-layer benchmark of the FreeSet paper pipeline.
//!
//! * [`workloads`] — the three workloads, each an untraced pass through the
//!   library's public entry points, a traced twin and an independent
//!   reference;
//! * [`shims`] — the traced twins, recomposed from public functions with a
//!   span around every call into a layer;
//! * [`run`] — set-up, warm-up, the measured window and output checks;
//! * [`trace`] — the in-memory span recorder and self-time folding;
//! * [`measure`] — medians, tail percentiles, peak RSS, metric names;
//! * [`spec`] — the metric and workload tables `BENCHMARK.json` is rendered
//!   from.
//!
//! See `README.md` for how to run it and how to compare two commits.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod measure;
pub mod run;
pub mod shims;
pub mod spec;
pub mod trace;
pub mod workloads;
