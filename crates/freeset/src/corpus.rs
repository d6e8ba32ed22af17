//! Shared corpora: the raw scrape and the general-purpose code corpus.

use gh_sim::{ExtractedFile, GithubApi, ScrapeReport, Scraper, Universe, UniverseStats};
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::config::FreeSetConfig;

/// The per-window request budget every scrape (collected, streamed or
/// benchmarked) runs against. Generous enough that supported experiment
/// scales never exhaust a window — which keeps every scrape-report counter
/// deterministic — while still finite, so the rate-limit machinery stays on
/// the request path.
pub const SCRAPE_API_BUDGET: usize = 10_000;

/// The raw scraped corpus, reused by every curation policy so that dataset
/// comparisons (Table I) and model comparisons (Figures 2/3, Table II) all
/// see the same underlying population.
#[derive(Debug, Clone, PartialEq)]
pub struct ScrapedCorpus {
    /// The extracted Verilog files.
    pub files: Vec<ExtractedFile>,
    /// Universe generation statistics.
    pub universe_stats: UniverseStats,
    /// Scraper statistics.
    pub scrape_report: ScrapeReport,
}

impl ScrapedCorpus {
    /// Generates the universe and scrapes it according to `config`.
    ///
    /// # Panics
    ///
    /// Panics if the scrape fails, which cannot happen with the simulated
    /// API at supported universe sizes (granularisation always succeeds).
    pub fn build(config: &FreeSetConfig) -> Self {
        let universe = Universe::generate(&config.universe);
        let api = GithubApi::with_rate_limit(&universe, SCRAPE_API_BUDGET);
        let output = Scraper::new()
            .run(&api)
            .expect("simulated scrape cannot fail at supported scales");
        Self {
            files: output.files,
            universe_stats: universe.stats(),
            scrape_report: output.report,
        }
    }

    /// Number of scraped Verilog files.
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// Whether the scrape produced no files.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// A deterministic random sample of `fraction` of the raw files (used to
    /// give base models a small amount of in-the-wild Verilog exposure,
    /// copyrighted files included — which is why base models already show
    /// non-zero violation rates in Figure 3).
    pub fn sample_fraction(&self, fraction: f64, seed: u64) -> Vec<String> {
        let fraction = fraction.clamp(0.0, 1.0);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut indices: Vec<usize> = (0..self.files.len()).collect();
        indices.shuffle(&mut rng);
        let keep = ((self.files.len() as f64) * fraction).round() as usize;
        indices.truncate(keep);
        indices.sort_unstable();
        indices
            .into_iter()
            .map(|i| self.files[i].content.clone())
            .collect()
    }
}

/// Generates a deterministic general-purpose (non-Verilog) code corpus — the
/// stand-in for the software-dominated pre-training data of foundation
/// models such as Llama, CodeGen and DeepSeek-Coder.
///
/// # Example
///
/// ```
/// use freeset::general_code_corpus;
///
/// let corpus = general_code_corpus(200, 1);
/// assert_eq!(corpus.len(), 200);
/// assert!(corpus.iter().any(|d| d.contains("return")));
/// ```
pub fn general_code_corpus(documents: usize, seed: u64) -> Vec<String> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..documents)
        .map(|i| general_document(i, &mut rng))
        .collect()
}

fn general_document<R: Rng>(index: usize, rng: &mut R) -> String {
    const FUNCS: &[&str] = &[
        "compute",
        "process",
        "update",
        "transform",
        "handle",
        "parse",
    ];
    const VARS: &[&str] = &[
        "value", "count", "total", "buffer", "index", "result", "size",
    ];
    let func = FUNCS[rng.gen_range(0..FUNCS.len())];
    let var_a = VARS[rng.gen_range(0..VARS.len())];
    let var_b = VARS[rng.gen_range(0..VARS.len())];
    let constant: u32 = rng.gen_range(1..100);
    match index % 4 {
        0 => format!(
            "int {func}_{index}(int {var_a}, int {var_b}) {{\n    int {var_a}_out = {var_a} + {var_b} * {constant};\n    if ({var_a}_out > {constant}) {{\n        return {var_a}_out;\n    }}\n    return {var_b};\n}}\n"
        ),
        1 => format!(
            "def {func}_{index}({var_a}, {var_b}):\n    {var_b} = {var_a} * {constant}\n    for i in range({constant}):\n        {var_b} += i\n    return {var_b}\n"
        ),
        2 => format!(
            "fn {func}_{index}({var_a}: u32) -> u32 {{\n    let mut {var_b} = {var_a};\n    while {var_b} < {constant} {{\n        {var_b} += 1;\n    }}\n    {var_b}\n}}\n"
        ),
        _ => format!(
            "function {func}_{index}({var_a}) {{\n    let {var_b} = {var_a} % {constant};\n    return {var_b} ? {var_a} : {constant};\n}}\n"
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExperimentScale;

    #[test]
    fn scraped_corpus_matches_universe_stats() {
        let config = FreeSetConfig::at_scale(&ExperimentScale::tiny());
        let corpus = ScrapedCorpus::build(&config);
        assert_eq!(corpus.len(), corpus.universe_stats.verilog_files);
        assert_eq!(
            corpus.scrape_report.repositories_cloned,
            corpus.universe_stats.repositories
        );
        assert!(!corpus.is_empty());
    }

    #[test]
    fn sampling_is_deterministic_and_bounded() {
        let config = FreeSetConfig::at_scale(&ExperimentScale::tiny());
        let corpus = ScrapedCorpus::build(&config);
        let a = corpus.sample_fraction(0.1, 7);
        let b = corpus.sample_fraction(0.1, 7);
        assert_eq!(a, b);
        assert!(a.len() <= corpus.len() / 5);
        assert!(corpus.sample_fraction(0.0, 7).is_empty());
        assert_eq!(corpus.sample_fraction(1.0, 7).len(), corpus.len());
        assert_ne!(corpus.sample_fraction(0.1, 8), a);
    }

    #[test]
    fn general_corpus_is_deterministic_and_non_verilog() {
        let a = general_code_corpus(50, 3);
        let b = general_code_corpus(50, 3);
        assert_eq!(a, b);
        assert!(a.iter().all(|d| !d.contains("endmodule")));
        let distinct: std::collections::HashSet<_> = a.iter().collect();
        assert!(distinct.len() > 30);
    }
}
