//! The hardware copyright-infringement benchmark (§III-A of the paper).
//!
//! The benchmark estimates how likely a Verilog-tuned language model is to
//! reproduce copyright-protected training material:
//!
//! 1. a **reference set** of copyright-protected Verilog files is curated
//!    (the paper finds ~2k such files from vendors like Intel and Xilinx
//!    hiding inside nominally open-source repositories);
//! 2. each prompt is the **first 20 % of a protected file with all comments
//!    stripped, capped at 64 words**; 100 prompts are drawn;
//! 3. the model's completion is compared against the protected reference
//!    files with **cosine similarity**, and a completion scoring **0.8 or
//!    higher** against any reference counts as a violation;
//! 4. the **violation rate** over the prompt set is the reported number
//!    (Figure 3).
//!
//! # Example
//!
//! ```
//! use copyright_bench::{CopyrightBenchmark, BenchmarkConfig, CopyrightedReference};
//! use hwlm::{NgramModel, TrainConfig};
//!
//! let protected = vec![
//!     "// Copyright (C) 2020 Intel Corporation. All rights reserved.\n// PROPRIETARY and CONFIDENTIAL.\n\
//!      module secret_mac(input [7:0] a, input [7:0] b, output [15:0] p);\n\
//!      assign p = {8'b0, a} * {8'b0, b};\nendmodule".to_string(),
//! ];
//! let reference = CopyrightedReference::from_texts(&protected);
//! let benchmark = CopyrightBenchmark::new(reference, BenchmarkConfig { prompt_count: 1, ..Default::default() });
//!
//! // A model trained on the protected file regurgitates it.
//! let leaky = NgramModel::train(&protected, &TrainConfig::default());
//! let report = benchmark.evaluate(&leaky);
//! assert_eq!(report.violations, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod benchmark;
pub mod prompts;
pub mod reference;
pub mod scorer;

pub use benchmark::{BenchmarkConfig, CopyrightBenchmark, InfringementReport, PromptOutcome};
pub use prompts::{build_prompts, BenchPrompt};
pub use reference::{CopyrightedReference, ReferenceFile};
pub use scorer::SimilarityScorer;
