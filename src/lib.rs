//! Free and Fair Hardware — a from-scratch Rust reproduction of the DAC 2025
//! paper *"Free and Fair Hardware: A Pathway to Copyright Infringement-Free
//! Verilog Generation using LLMs"*.
//!
//! This umbrella crate re-exports the workspace's crates so that examples and
//! downstream users can depend on a single package:
//!
//! * [`verilog`] — Verilog lexer/parser/syntax checker and a behavioural
//!   interpreter (the Icarus Verilog and simulation stand-in);
//! * [`textsim`] — cosine similarity, MinHash and LSH;
//! * [`gh_sim`] — the simulated GitHub universe, search API and scraper;
//! * [`curation`] — the FreeSet curation framework (license, dedup,
//!   syntax, lint and copyright filters);
//! * [`hwlm`] — the trainable language-model substrate with adapter-based
//!   continual pre-training and 4-bit quantisation;
//! * [`verilogeval`] — the VerilogEval-style functional benchmark and
//!   pass@k;
//! * [`copyright_bench`] — the copyright-infringement benchmark;
//! * [`freeset`] — the end-to-end pipeline, model zoo and one experiment
//!   driver per table/figure of the paper.
//!
//! # Quick start
//!
//! ```
//! use freeset::config::{ExperimentScale, FreeSetConfig};
//! use freeset::build_freeset;
//!
//! // Build FreeSet at a tiny scale: generate the synthetic GitHub universe,
//! // scrape it, and run the five-stage curation pipeline.
//! let build = build_freeset(&FreeSetConfig::at_scale(&ExperimentScale::tiny()));
//! println!("{}", build.dataset.funnel());
//! assert!(build.len() > 0);
//! ```
//!
//! The runnable examples in `examples/` walk through each experiment:
//! `quickstart`, `curation_pipeline`, `custom_stage`, `copyright_audit`,
//! `verilogeval_run`, `dataset_comparison` and `ablation`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use copyright_bench;
pub use curation;
pub use freeset;
pub use gh_sim;
pub use hwlm;
pub use textsim;
pub use verilog;
pub use verilogeval;

/// The version of the reproduction, matching the workspace version.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

#[cfg(test)]
mod tests {
    #[test]
    fn version_is_exposed() {
        assert!(!super::VERSION.is_empty());
    }
}
