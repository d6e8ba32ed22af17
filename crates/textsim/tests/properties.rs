//! Property-based tests over the similarity primitives.

use std::collections::BTreeSet;

use proptest::prelude::*;
use textsim::{
    char_shingles, cosine_similarity, jaccard_similarity, jaccard_similarity_sorted, CodeTokenizer,
    LshIndex, LshParams, MinHasher, ShingleSet, TermVector, Tokenizer,
};

fn text_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![
            Just("module".to_string()),
            Just("endmodule".to_string()),
            Just("assign".to_string()),
            Just("wire".to_string()),
            Just("reg".to_string()),
            Just("input".to_string()),
            Just("output".to_string()),
            Just("clk".to_string()),
            Just("rst".to_string()),
            "[a-z]{1,6}",
            "[0-9]{1,3}",
            Just(";".to_string()),
            Just("=".to_string()),
            Just("+".to_string()),
        ],
        0..60,
    )
    .prop_map(|tokens| tokens.join(" "))
}

/// Shingle hashes drawn half from a small pool, so inputs repeat values,
/// and half from the full `u64` range.
fn hash_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..48, any::<u64>()]
}

/// `|A ∩ B| / |A ∪ B|` from ordered sets, with two empty sets scoring 1.
fn btree_jaccard(a: &BTreeSet<u64>, b: &BTreeSet<u64>) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    a.intersection(b).count() as f64 / a.union(b).count() as f64
}

proptest! {
    #[test]
    fn cosine_is_bounded_and_symmetric(a in text_strategy(), b in text_strategy()) {
        let tok = CodeTokenizer::default();
        let ab = cosine_similarity(&tok, &a, &b);
        let ba = cosine_similarity(&tok, &b, &a);
        prop_assert!((0.0..=1.0).contains(&ab));
        prop_assert!((ab - ba).abs() < 1e-12);
    }

    #[test]
    fn cosine_self_similarity_is_one_for_nonempty(a in text_strategy()) {
        let tok = CodeTokenizer::default();
        prop_assume!(!tok.tokenize(&a).is_empty());
        let s = cosine_similarity(&tok, &a, &a);
        prop_assert!((s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn jaccard_is_bounded_and_symmetric(a in text_strategy(), b in text_strategy()) {
        let sa = char_shingles(&a, 4);
        let sb = char_shingles(&b, 4);
        let ab = jaccard_similarity(&sa, &sb);
        let ba = jaccard_similarity(&sb, &sa);
        prop_assert!((0.0..=1.0).contains(&ab));
        prop_assert!((ab - ba).abs() < 1e-12);
    }

    /// A `ShingleSet` built from unsorted, repeating hashes — collected, or
    /// extended onto a non-empty set — holds exactly the input's distinct
    /// values in strictly ascending order, and both Jaccard entry points
    /// return the `BTreeSet` ratio bit for bit.
    #[test]
    fn jaccard_sorted_matches_set_version(
        a in proptest::collection::vec(hash_strategy(), 0..60),
        b_head in proptest::collection::vec(hash_strategy(), 1..30),
        b_tail in proptest::collection::vec(hash_strategy(), 0..30),
    ) {
        let sa: ShingleSet = a.iter().copied().collect();
        let mut sb: ShingleSet = b_head.iter().copied().collect();
        sb.extend(b_tail.iter().copied());
        let ra: BTreeSet<u64> = a.into_iter().collect();
        let rb: BTreeSet<u64> = b_head.into_iter().chain(b_tail).collect();
        for (set, reference) in [(&sa, &ra), (&sb, &rb)] {
            prop_assert!(set.as_slice().windows(2).all(|w| w[0] < w[1]));
            prop_assert!(set.as_slice().iter().eq(reference.iter()));
        }
        let expected = btree_jaccard(&ra, &rb).to_bits();
        prop_assert_eq!(jaccard_similarity(&sa, &sb).to_bits(), expected);
        prop_assert_eq!(
            jaccard_similarity_sorted(sa.as_slice(), sb.as_slice()).to_bits(),
            expected
        );
    }

    #[test]
    fn minhash_estimate_is_bounded(a in text_strategy(), b in text_strategy()) {
        let hasher = MinHasher::new(64, 17);
        let sa = hasher.signature(&char_shingles(&a, 4));
        let sb = hasher.signature(&char_shingles(&b, 4));
        let est = sa.estimate_jaccard(&sb);
        prop_assert!((0.0..=1.0).contains(&est));
    }

    #[test]
    fn minhash_estimate_tracks_exact_jaccard_loosely(a in text_strategy(), b in text_strategy()) {
        let hasher = MinHasher::new(256, 29);
        let sha = char_shingles(&a, 4);
        let shb = char_shingles(&b, 4);
        let exact = jaccard_similarity(&sha, &shb);
        let est = hasher.signature(&sha).estimate_jaccard(&hasher.signature(&shb));
        // 256 permutations: standard error <= 1/sqrt(256) ~ 0.0625; allow 5 sigma.
        prop_assert!((exact - est).abs() < 0.32, "exact {} vs estimate {}", exact, est);
    }

    #[test]
    fn lsh_always_retrieves_exact_duplicates(a in text_strategy()) {
        prop_assume!(!a.trim().is_empty());
        let hasher = MinHasher::new(128, 31);
        let params = LshParams::for_threshold(128, 0.85);
        let mut index = LshIndex::new(params);
        let sig = hasher.signature(&char_shingles(&a, 4));
        index.insert(42, &sig);
        prop_assert!(index.candidates(&sig).contains(&42));
    }

    #[test]
    fn term_vector_norm_is_nonnegative_and_dot_bounded(a in text_strategy(), b in text_strategy()) {
        let tok = CodeTokenizer::default();
        let va = TermVector::from_text(&tok, &a);
        let vb = TermVector::from_text(&tok, &b);
        prop_assert!(va.norm() >= 0.0);
        // Cauchy-Schwarz
        prop_assert!(va.dot(&vb) <= va.norm() * vb.norm() + 1e-9);
    }
}
