//! Hardware language-model substrate.
//!
//! The paper fine-tunes `Llama-3.1-8B-Instruct` with QLoRA (4-bit quantised
//! weights plus a small trainable adapter) on the FreeSet corpus, then
//! measures two behaviours of the resulting model:
//!
//! * how often it **regurgitates copyright-protected training text** when
//!   prompted with the beginning of a protected file (§III-A / Figure 3), and
//! * how well it **completes Verilog modules functionally** on a
//!   VerilogEval-style benchmark (§III-E / Table II).
//!
//! Both behaviours are properties of *how well the model fits its training
//! distribution*, not of the transformer architecture per se, so this crate
//! substitutes a stupid-backoff n-gram language model (Brants et al., EMNLP
//! 2007) over code tokens: it memorises duplicated training spans (driving
//! the copyright benchmark) and improves its continuations when continually
//! pre-trained on in-domain Verilog (driving the functional benchmark),
//! while training in milliseconds on a laptop.
//!
//! The fine-tuning mechanics are mirrored structurally: a frozen **base
//! model** ([`NgramModel`]), an **adapter** holding the delta statistics
//! learned from the new corpus ([`adapter::AdaptedModel`]), and an optional
//! **4-bit quantisation** of the predictive distributions
//! ([`quant::QuantizedModel`]).
//!
//! Every trainer ([`NgramModel::train_named`], [`HdlTokenizer::fit`],
//! [`HdlTokenizer::extended_with`], [`AdaptedModel::continual_pretrain`])
//! runs one shard-and-merge driver on the machine's available parallelism
//! ([`parallel`]) and builds the same model for any worker count. A
//! [`TrainConfig`] holds the two settings that change what is learned: the
//! n-gram order and the maximum sequence length. A [`SamplerConfig`] holds
//! one: the temperature.
//!
//! Generation samples every token of a sequence in one reused
//! [`Distribution`]: the model writes its prediction straight from its count
//! tables into it ([`LanguageModel::distribution_into`]), and the
//! temperature and the draw work in place, with no allocation per token and
//! no sort where the order provably holds. The tokens drawn are
//! bit-identical to the allocating chain (predict, temper a copy, sample);
//! see [`LanguageModel`].
//!
//! # Example
//!
//! ```
//! use hwlm::{LanguageModel, NgramModel, SamplerConfig, TrainConfig};
//! use rand::SeedableRng;
//!
//! let corpus = vec![
//!     "module inv(input a, output y); assign y = ~a; endmodule".to_string(),
//!     "module buf2(input a, output y); assign y = a; endmodule".to_string(),
//! ];
//! let base = NgramModel::train(&corpus, &TrainConfig::default());
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
//! let text = base.generate_text("module inv(input a, output y);", 32, &SamplerConfig::greedy(), &mut rng);
//! assert!(text.contains("assign"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adapter;
pub mod model;
pub mod ngram;
pub mod parallel;
pub mod perplexity;
pub mod quant;
pub mod sampler;
pub mod tokenizer;

pub use adapter::AdaptedModel;
pub use model::{Distribution, LanguageModel, TrainConfig};
pub use ngram::{NgramCounts, NgramModel, UNSEEN_SCORE_FLOOR};
pub use parallel::{derive_seed, ExecutionMode};
pub use perplexity::perplexity;
pub use quant::QuantizedModel;
pub use sampler::SamplerConfig;
pub use tokenizer::{HdlTokenizer, TokenId, Vocabulary};
