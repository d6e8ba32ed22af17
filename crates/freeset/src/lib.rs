//! FreeSet / FreeV — the paper's primary contribution, end to end.
//!
//! This crate wires the substrates together into the pipeline of Figure 1
//! and the experiments of §IV:
//!
//! * [`corpus`] — scrape the (simulated) GitHub universe once and reuse the
//!   raw file bank for every policy, plus the general-purpose code corpus
//!   the base models are pre-trained on;
//! * [`dataset`] — build FreeSet with the full curation policy;
//! * [`freev`] — continually pre-train a base model on FreeSet, with 4-bit
//!   quantisation, producing FreeV;
//! * [`modelzoo`] — reproduce the prior works the paper compares against
//!   (VeriGen, RTLCoder, CodeV, OriGen, BetterV, …) as the *same* model
//!   architecture trained under *their* curation policies;
//! * [`experiments`] — one driver per table/figure: the §IV-A dataset
//!   funnel, Table I, Figure 2, Figure 3 and Table II;
//! * [`report`] — the markdown and JSON pieces the experiments render their
//!   results with.
//!
//! # Example
//!
//! ```no_run
//! use freeset::config::ExperimentScale;
//! use freeset::experiments::funnel::FunnelExperiment;
//!
//! let result = FunnelExperiment::run(&ExperimentScale::small());
//! println!("{}", result.render_markdown());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod corpus;
pub mod dataset;
pub mod experiments;
pub mod freev;
pub mod modelzoo;
pub mod report;

pub use config::{ExperimentScale, FreeSetConfig};
pub use corpus::{general_code_corpus, ScrapedCorpus};
pub use dataset::{build_freeset, FreeSetBuild};
pub use freev::{FreeVBuilder, FreeVModel};
pub use modelzoo::{ModelZoo, ZooEntry, ZooModel};
