//! The inverted-index [`SimilarityScorer`] against a brute-force oracle: for
//! any reference set and completion, `max_similarity` must return the score
//! bits and the index of a scan that takes `cosine_similarity_vectors`
//! against every reference's own [`TermVector`], in index order, keeping
//! the first strict maximum.

use copyright_bench::{CopyrightedReference, SimilarityScorer};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use textsim::{cosine_similarity_vectors, CodeTokenizer, TermVector};
use verilog::strip_comments;

/// Tokens any reference or completion may draw from, space-separated.
const SHARED: &str =
    "module input output assign wire reg always @ posedge clk a b y = & | + ; ( ) [7:0] endmodule";

/// The brute-force scan: one cosine per reference, no shared state.
fn brute_force(reference: &CopyrightedReference, completion: &str) -> (f64, Option<usize>) {
    let tokenizer = CodeTokenizer::new();
    let vector = TermVector::from_text(&tokenizer, &strip_comments(completion));
    let mut best = (0.0, None);
    for (index, file) in reference.files().iter().enumerate() {
        let score =
            cosine_similarity_vectors(&vector, &TermVector::from_text(&tokenizer, &file.code));
        if score > best.0 {
            best = (score, Some(index));
        }
    }
    best
}

/// `count` tokens drawn from `SHARED` and, with probability `own_share`,
/// from a vocabulary of its own named by `own`.
fn text(rng: &mut ChaCha8Rng, count: usize, own: &str, own_share: f64) -> String {
    let shared: Vec<&str> = SHARED.split_whitespace().collect();
    (0..count)
        .map(|_| {
            if rng.gen_bool(own_share) {
                format!("{own}_{}", rng.gen_range(0..6))
            } else {
                shared[rng.gen_range(0..shared.len())].to_string()
            }
        })
        .collect::<Vec<_>>()
        .join(" ")
}

/// A reference set mixing shared-vocabulary files, files with a vocabulary
/// no other file uses, empty and comment-only files, and duplicates of
/// earlier files.
fn reference_texts(rng: &mut ChaCha8Rng) -> Vec<String> {
    let files = rng.gen_range(0..12);
    let mut texts: Vec<String> = Vec::with_capacity(files);
    for i in 0..files {
        let words = rng.gen_range(1..60);
        let file = match rng.gen_range(0..6) {
            0 => String::new(),
            1 => "// nothing but a comment\n/* and a block */".to_string(),
            2 => text(rng, words, &format!("disjoint{i}"), 1.0),
            3 if !texts.is_empty() => texts[rng.gen_range(0..texts.len())].clone(),
            _ => text(rng, words, &format!("ref{i}"), 0.2),
        };
        texts.push(file);
    }
    texts
}

/// Completions: empty, comment-only, copies and prefixes of references
/// with new tokens, and mixes that include terms no reference has.
fn completions(rng: &mut ChaCha8Rng, references: &[String]) -> Vec<String> {
    (0..16)
        .map(|_| {
            let words = rng.gen_range(1..40);
            match rng.gen_range(0..5) {
                0 => String::new(),
                1 => "// only a comment".to_string(),
                2 | 3 if !references.is_empty() => {
                    let copied = &references[rng.gen_range(0..references.len())];
                    let words: Vec<&str> = copied.split_whitespace().collect();
                    let keep = rng.gen_range(0..=words.len());
                    format!("{} {}", words[..keep].join(" "), text(rng, 3, "novel", 0.5))
                }
                _ => text(rng, words, "novel", 0.3),
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn max_similarity_equals_the_brute_force_scan(seed in any::<u64>()) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let texts = reference_texts(&mut rng);
        let reference = CopyrightedReference::from_texts(&texts);
        let scorer = SimilarityScorer::new(&reference);
        for completion in completions(&mut rng, &texts) {
            let (score, index) = scorer.max_similarity(&completion);
            let (expected, expected_index) = brute_force(&reference, &completion);
            prop_assert_eq!(
                (score.to_bits(), index),
                (expected.to_bits(), expected_index),
                "completion {:?} over {} references",
                completion,
                texts.len()
            );
        }
    }
}

#[test]
fn a_tie_between_duplicate_files_goes_to_the_lowest_index() {
    let file = "module dup(input a, output y); assign y = a; endmodule";
    let reference =
        CopyrightedReference::from_texts(&["module other(input q); endmodule", file, file]);
    let scorer = SimilarityScorer::new(&reference);
    let (score, index) = scorer.max_similarity(file);
    assert_eq!(index, Some(1));
    assert_eq!(score.to_bits(), brute_force(&reference, file).0.to_bits());
}
