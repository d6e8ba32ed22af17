//! Prompt construction (§III-A).
//!
//! Each prompt is the leading 20 % of a protected file's *code* (comments
//! already stripped), capped at 64 words; 100 prompts are drawn from the
//! reference set. The count, the fraction and the selection seed are
//! [`BenchmarkConfig`] fields; the word cap is the paper's constant.

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::benchmark::BenchmarkConfig;
use crate::reference::CopyrightedReference;

/// Maximum number of words per prompt (paper: 64).
const MAX_WORDS: usize = 64;

/// One benchmark prompt, tied back to the reference file it was cut from.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BenchPrompt {
    /// Index of the source file in the reference set.
    pub reference_index: usize,
    /// The prompt text (a prefix of the comment-stripped file).
    pub text: String,
}

/// Builds the prompt set from a reference set: `config.prompt_count` files
/// drawn with `config.seed`, each cut to its leading
/// `config.prefix_fraction` of code words, at most 64.
///
/// Files shorter than ten words of code are skipped (a two-line stub cannot
/// meaningfully test regurgitation). If fewer eligible files exist than
/// `prompt_count`, every eligible file yields one prompt.
///
/// # Example
///
/// ```
/// use copyright_bench::{build_prompts, BenchmarkConfig, CopyrightedReference};
///
/// let reference = CopyrightedReference::from_texts(&[
///     "module m(input clk, input rst, input [7:0] d, output reg [7:0] q);\n\
///      always @(posedge clk) begin if (rst) q <= 0; else q <= d; end endmodule",
/// ]);
/// let prompts = build_prompts(&reference, &BenchmarkConfig::default());
/// assert_eq!(prompts.len(), 1);
/// assert!(prompts[0].text.split_whitespace().count() <= 64);
/// ```
pub fn build_prompts(
    reference: &CopyrightedReference,
    config: &BenchmarkConfig,
) -> Vec<BenchPrompt> {
    let mut eligible: Vec<usize> = reference
        .files()
        .iter()
        .enumerate()
        .filter(|(_, f)| f.code_word_count() >= 10)
        .map(|(i, _)| i)
        .collect();
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    eligible.shuffle(&mut rng);
    eligible.truncate(config.prompt_count.max(1));
    eligible.sort_unstable();

    eligible
        .into_iter()
        .map(|index| {
            let file = &reference.files()[index];
            let words: Vec<&str> = file.code.split_whitespace().collect();
            let prefix_len = ((words.len() as f64 * config.prefix_fraction).ceil() as usize)
                .clamp(1, MAX_WORDS)
                .min(words.len());
            BenchPrompt {
                reference_index: index,
                text: words[..prefix_len].join(" "),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn long_file(tag: usize) -> String {
        let mut body = format!(
            "// Copyright (C) 2020 Intel Corporation. All rights reserved.\n\
             module vendor_block_{tag}(input clk, input rst, input [7:0] din, output reg [7:0] dout);\n"
        );
        for i in 0..40 {
            body.push_str(&format!(
                "wire [7:0] stage_{i};\nassign stage_{i} = din + {i};\n"
            ));
        }
        body.push_str("always @(posedge clk) dout <= stage_9;\nendmodule\n");
        body
    }

    fn reference(n: usize) -> CopyrightedReference {
        let texts: Vec<String> = (0..n).map(long_file).collect();
        CopyrightedReference::from_texts(&texts)
    }

    #[test]
    fn prompts_respect_word_cap_and_prefix_fraction() {
        let r = reference(5);
        let prompts = build_prompts(&r, &BenchmarkConfig::default());
        assert_eq!(prompts.len(), 5);
        for p in &prompts {
            let words = p.text.split_whitespace().count();
            assert!(words <= 64, "prompt has {words} words");
            assert!(words >= 1);
            let file = &r.files()[p.reference_index];
            assert!(file.code.starts_with(&p.text[..10.min(p.text.len())]));
            assert!(!p.text.contains("Copyright"), "comments must be stripped");
        }
    }

    #[test]
    fn prompt_count_is_honoured_when_enough_files_exist() {
        let r = reference(30);
        let prompts = build_prompts(
            &r,
            &BenchmarkConfig {
                prompt_count: 10,
                ..Default::default()
            },
        );
        assert_eq!(prompts.len(), 10);
        // Indices are unique.
        let distinct: std::collections::HashSet<_> =
            prompts.iter().map(|p| p.reference_index).collect();
        assert_eq!(distinct.len(), 10);
    }

    #[test]
    fn tiny_files_are_skipped() {
        let r = CopyrightedReference::from_texts(&["module m; endmodule", &long_file(0)]);
        let prompts = build_prompts(&r, &BenchmarkConfig::default());
        assert_eq!(prompts.len(), 1);
        assert_eq!(prompts[0].reference_index, 1);
    }

    #[test]
    fn selection_is_deterministic_in_the_seed() {
        let r = reference(20);
        let c = BenchmarkConfig {
            prompt_count: 5,
            ..Default::default()
        };
        assert_eq!(build_prompts(&r, &c), build_prompts(&r, &c));
        let other = build_prompts(&r, &BenchmarkConfig { seed: 999, ..c });
        assert_ne!(build_prompts(&r, &c), other);
    }

    #[test]
    fn short_prefix_fraction_shortens_prompts() {
        let r = reference(3);
        let short = build_prompts(
            &r,
            &BenchmarkConfig {
                prefix_fraction: 0.05,
                ..Default::default()
            },
        );
        let long = build_prompts(&r, &BenchmarkConfig::default());
        assert!(short[0].text.split_whitespace().count() < long[0].text.split_whitespace().count());
    }
}
