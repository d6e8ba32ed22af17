//! Pins the token ids a tiny-scale FreeV generates, byte for byte.
//!
//! Every sample is seed-derived, so the ids that FreeV's four inference
//! forms (the full-precision base and fine-tune, and both 4-bit views)
//! generate for a few prompts at temperatures 0, 0.2 and 0.8 are a stable
//! fingerprint of the whole sampling path: tokenizer, count tables, backoff,
//! adapter mix, quantisation, temperature and the draw. Each line also
//! records the RNG's next `u64` after the generation, so a change in how
//! many uniform draws the sampler consumes shows up even where the ids
//! agree.
//!
//! Regenerate with `FFH_REGEN_FIXTURES=1 cargo test`.

use freeset::build_freeset;
use freeset::config::{ExperimentScale, FreeSetConfig};
use freeset::freev::{FreeVBuilder, FreeVModel};
use hwlm::{derive_seed, LanguageModel, SamplerConfig, TokenId};
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn check_snapshot(rel: &str, actual: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    if std::env::var_os("FFH_REGEN_FIXTURES").is_some() {
        std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("mkdir fixtures");
        std::fs::write(&path, actual).expect("write fixture");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); regenerate with FFH_REGEN_FIXTURES=1",
            path.display()
        )
    });
    assert_eq!(
        expected, actual,
        "generated token ids diverged from the pinned snapshot ({rel}); \
         if the change is intentional, regenerate with FFH_REGEN_FIXTURES=1"
    );
}

/// A VerilogEval-style header, a bare keyword, a software prompt the base
/// model knows best, and text made of tokens no vocabulary holds (so every
/// lookup backs off to the unigram table).
const PROMPTS: &[&str] = &[
    "module counter(input clk, input rst, input en, output reg [7:0] count);\n",
    "module",
    "int main() {",
    "\u{e9}\u{e9} zzqx_unseen_name \u{1f600}",
];

const TEMPERATURES: &[f64] = &[0.0, 0.2, 0.8];

/// One line per temperature and prompt: the generated ids, then the RNG's
/// next `u64`.
fn render<M: LanguageModel>(label: &str, model: &M, out: &mut String) {
    let tokenizer = model.tokenizer();
    let stop = Some(tokenizer.vocab().id("endmodule"));
    for (t_index, &temperature) in TEMPERATURES.iter().enumerate() {
        let sampler = SamplerConfig::with_temperature(temperature);
        for (p_index, prompt) in PROMPTS.iter().enumerate() {
            let mut ids: Vec<TokenId> = vec![hwlm::tokenizer::BOS];
            ids.extend(tokenizer.encode(prompt));
            let seed = derive_seed(0x6E4F, p_index as u64, t_index as u64);
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let generated = model.generate_ids(&ids, 96, &sampler, &mut rng, stop);
            out.push_str(&format!(
                "{label} T={temperature} prompt={p_index} next_u64={:#018x} ids={generated:?}\n",
                rng.next_u64()
            ));
        }
    }
}

/// `generate_texts` ≡ `n` successive `generate_text` calls on one RNG: the
/// texts, and the RNG's next `u64` after them.
fn assert_generate_texts_is_repeated_generate_text<M: LanguageModel>(label: &str, model: &M) {
    for (t_index, &temperature) in [0.0, 0.2, 0.8, f64::NAN].iter().enumerate() {
        let sampler = SamplerConfig::with_temperature(temperature);
        for (p_index, prompt) in PROMPTS.iter().enumerate() {
            for n in [0, 1, 10] {
                let seed = derive_seed(0x7E47, p_index as u64, t_index as u64);
                let mut batched_rng = ChaCha8Rng::seed_from_u64(seed);
                let mut single_rng = batched_rng.clone();
                let batched = model.generate_texts(prompt, n, 96, &sampler, &mut batched_rng);
                let single: Vec<String> = (0..n)
                    .map(|_| model.generate_text(prompt, 96, &sampler, &mut single_rng))
                    .collect();
                let at = format!("{label} T={temperature} prompt={p_index} n={n}");
                assert_eq!(batched, single, "{at}: texts differ");
                assert_eq!(
                    batched_rng.next_u64(),
                    single_rng.next_u64(),
                    "{at}: RNG states differ"
                );
            }
        }
    }
}

fn tiny_freev() -> FreeVModel {
    let build = build_freeset(&FreeSetConfig::at_scale(&ExperimentScale::tiny()));
    FreeVBuilder::default().build(&build.scraped, &build.training_corpus())
}

#[test]
fn generate_texts_equals_repeated_generate_text() {
    let freev = tiny_freev();
    assert_generate_texts_is_repeated_generate_text("base", freev.base());
    assert_generate_texts_is_repeated_generate_text("tuned", freev.tuned());
    assert_generate_texts_is_repeated_generate_text("quantized_base", &freev.quantized_base());
    assert_generate_texts_is_repeated_generate_text("quantized_tuned", &freev.quantized_tuned());
}

#[test]
fn tiny_freev_generations_match_pinned_snapshot() {
    let freev = tiny_freev();
    let mut rendered = String::new();
    render("base", freev.base(), &mut rendered);
    render("tuned", freev.tuned(), &mut rendered);
    render("quantized_base", &freev.quantized_base(), &mut rendered);
    render("quantized_tuned", &freev.quantized_tuned(), &mut rendered);
    check_snapshot("tests/fixtures/generations_tiny.txt", &rendered);
}
