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
use freeset::freev::FreeVBuilder;
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

#[test]
fn tiny_freev_generations_match_pinned_snapshot() {
    let build = build_freeset(&FreeSetConfig::at_scale(&ExperimentScale::tiny()));
    let freev = FreeVBuilder::default().build(&build.scraped, &build.training_corpus());
    let mut rendered = String::new();
    render("base", freev.base(), &mut rendered);
    render("tuned", freev.tuned(), &mut rendered);
    render("quantized_base", &freev.quantized_base(), &mut rendered);
    render("quantized_tuned", &freev.quantized_tuned(), &mut rendered);
    check_snapshot("tests/fixtures/generations_tiny.txt", &rendered);
}
