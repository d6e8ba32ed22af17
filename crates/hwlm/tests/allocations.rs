//! Generation allocates per sequence, not per token.
//!
//! A counting global allocator (this test binary's own) tallies the heap
//! allocations of one `generate_ids` call on the calling thread. A call
//! that generates 64 times as many tokens may allocate only for the
//! amortised growth of its context and output vectors (and of the reused
//! distribution buffer, if it meets a larger prediction): a few doublings,
//! never an allocation per token.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hwlm::{
    AdaptedModel, HdlTokenizer, LanguageModel, NgramCounts, NgramModel, QuantizedModel,
    SamplerConfig, TokenId, TrainConfig,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the slot may be gone while a thread is torn down.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds `GlobalAlloc`'s contract; counting touches only a thread-local
// integer and never the memory handed out.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

const SHORT: usize = 64;
const LONG: usize = 64 * SHORT;
/// Each of the two growing vectors doubles log2(LONG / SHORT) = 6 more
/// times; the slack covers the distribution buffer.
const GROWTH: usize = 2 * 6 + 4;

/// Allocations made on this thread while generating `budget` tokens, which
/// the generation must reach (so the comparison is between lengths).
fn allocations<M: LanguageModel>(model: &M, prompt: &[TokenId], budget: usize, t: f64) -> usize {
    let sampler = SamplerConfig::with_temperature(t);
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let before = ALLOCATIONS.with(Cell::get);
    let generated = model.generate_ids(prompt, budget, &sampler, &mut rng, None);
    let after = ALLOCATIONS.with(Cell::get);
    let name = model.name();
    assert_eq!(generated.len(), budget, "{name} at T = {t} stopped early");
    after - before
}

/// Asserts that generating [`LONG`] tokens allocates at most [`GROWTH`]
/// more times than generating [`SHORT`], at each temperature.
fn assert_allocations_are_per_sequence<M: LanguageModel>(
    model: &M,
    prompt: &[TokenId],
    temperatures: &[f64],
) {
    for &t in temperatures {
        let short = allocations(model, prompt, SHORT, t);
        let long = allocations(model, prompt, LONG, t);
        let name = model.name();
        assert!(
            long <= short + GROWTH,
            "{name} at T = {t}: {short} -> {long}"
        );
    }
}

#[test]
fn generation_allocations_do_not_grow_per_token() {
    // A base model whose counts come from a random walk over five words and
    // hold no end-of-sequence token, so it never stops and its predictions
    // branch.
    let words = ["a", "b", "c", "d", "e"];
    let tokenizer = HdlTokenizer::fit(&[words.join(" ")]);
    let ids: Vec<TokenId> = words.iter().map(|w| tokenizer.vocab().id(w)).collect();
    let mut walk = ChaCha8Rng::seed_from_u64(3);
    let sequence: Vec<TokenId> = (0..4_000)
        .map(|_| ids[walk.gen_range(0..ids.len())])
        .collect();
    let mut counts = NgramCounts::new(4);
    counts.observe_sequence(&sequence);
    let base = NgramModel::from_parts("walk", tokenizer, counts);
    // An adapter trained on a periodic text, whose one end-of-sequence
    // continuation is too rare to be drawn at T = 0.2.
    let periodic = vec!["a b c ".repeat(600)];
    let config = TrainConfig {
        order: 6,
        max_seq_len: 2048,
    };
    let tuned = AdaptedModel::continual_pretrain("tuned", base.clone(), &periodic, &config);
    let prompt = base.tokenizer().encode("a b c");

    let any_temperature = [0.0, 0.2, 0.8, 4.0];
    assert_allocations_are_per_sequence(&base, &prompt, &any_temperature);
    assert_allocations_are_per_sequence(&QuantizedModel::new(&base, 4), &prompt, &any_temperature);
    assert_allocations_are_per_sequence(&tuned, &prompt, &[0.0, 0.2]);
    assert_allocations_are_per_sequence(&QuantizedModel::new(&tuned, 4), &prompt, &[0.0, 0.2]);
}
