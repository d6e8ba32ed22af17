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
//!
//! This crate implements both from scratch, plus the shared building blocks
//! (code-aware tokenisation, shingling, sparse term vectors and TF-IDF).
//!
//! # Example
//!
//! ```
//! use textsim::{cosine_similarity, CodeTokenizer, Tokenizer};
//!
//! let tok = CodeTokenizer::default();
//! let a = "module adder(input a, input b, output y); assign y = a + b; endmodule";
//! let b = "module adder(input a, input b, output y); assign y = a + b; endmodule";
//! let c = "module fifo(input clk); endmodule";
//!
//! assert!(cosine_similarity(&tok, a, b) > 0.99);
//! assert!(cosine_similarity(&tok, a, c) < 0.8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cosine;
mod jaccard;
mod lsh;
mod minhash;
mod sharded;
mod shingle;
mod tokenize;
mod vector;

pub use cosine::{cosine_similarity, cosine_similarity_vectors};
pub use jaccard::{jaccard_similarity, jaccard_similarity_sorted};
pub use lsh::{CandidateScratch, LshIndex, LshParams};
pub use minhash::{MinHasher, Signature};
pub use sharded::{
    read_count_le, read_u64_le, write_u64_le, InsertOrMatch, ShardedLshIndex, DEFAULT_LSH_SHARDS,
};
pub use shingle::{char_shingles, token_shingles, ShingleSet};
pub use tokenize::{CodeTokenizer, Tokenizer, WordTokenizer};
pub use vector::{IdfModel, TermVector};
