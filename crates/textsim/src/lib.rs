//! Text-similarity substrate used throughout the Free and Fair Hardware
//! reproduction.
//!
//! The paper relies on two distinct text-similarity mechanisms:
//!
//! * **Cosine similarity over term vectors** — the copyright-infringement
//!   benchmark declares a violation when a model completion scores `>= 0.8`
//!   against any file in the copyrighted reference set (§III-A).
//! * **MinHash / LSH near-duplicate detection** — the FreeSet curation
//!   framework de-duplicates the scraped corpus with MinHash signatures and
//!   Locality-Sensitive Hashing at a Jaccard threshold of `0.85` (§III-D).
//!   [`MinHasher`] builds the signatures and [`LshIndex`] bands them, one
//!   hash table per band.
//!
//! This crate implements both from scratch, plus the shared building blocks
//! (code-aware tokenisation, shingling and sparse term vectors).
//!
//! # Example
//!
//! ```
//! use textsim::{cosine_similarity, CodeTokenizer, Tokenizer};
//!
//! let tok = CodeTokenizer::new();
//! let a = "module adder(input a, input b, output y); assign y = a + b; endmodule";
//! let b = "module adder(input a, input b, output y); assign y = a + b; endmodule";
//! let c = "module fifo(input clk); endmodule";
//!
//! assert!(cosine_similarity(&tok, a, b) > 0.99);
//! assert!(cosine_similarity(&tok, a, c) < 0.8);
//! ```

// `deny` rather than `forbid`, so that one item can allow `unsafe`: the
// MinHash kernel's run-time dispatch calls its AVX-512 and AVX2 builds,
// which are `#[target_feature]` functions, only after detecting the
// feature on the running CPU.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod cosine;
mod jaccard;
mod lsh;
mod minhash;
mod shingle;
mod tokenize;
mod vector;

pub use cosine::{cosine_similarity, cosine_similarity_vectors};
pub use jaccard::{jaccard_similarity, jaccard_similarity_sorted};
pub use lsh::{CandidateScratch, LshIndex, LshParams};
pub use minhash::{MinHasher, Signature};
pub use shingle::{char_shingles, ShingleSet};
pub use tokenize::{CodeTokenizer, Tokenizer};
pub use vector::TermVector;
