//! Traced recompositions of the library's entry points.
//!
//! Each function here redoes the work of one public entry point from the
//! public functions it is built of, wrapping every call into a layer in a
//! [`Recorder`] span. The results must equal the entry point's own, which
//! `tests/recompose.rs` checks at tiny scale so that library drift shows up
//! as a failing test rather than as a silently different workload.

use std::io;
use std::sync::Arc;

use copyright_bench::{CopyrightBenchmark, InfringementReport, PromptOutcome, SimilarityScorer};
use curation::{
    CopyrightDetector, CopyrightStage, CurationConfig, CurationPipeline, CurationStage, DedupStage,
    DedupStream, FileBatch, LengthCapStage, LicenseFilter, LicenseStage, LintStage, ParseCache,
    StageOutcome, StageStream, StageStreaming, SyntaxStage,
};
use freeset::corpus::{ScrapedCorpus, SCRAPE_API_BUDGET};
use freeset::{FreeSetBuild, FreeSetConfig};
use gh_sim::fetch::{FetchConfig, FetchEngine};
use gh_sim::{GithubApi, Universe};
use hwlm::parallel::{derive_seed, ExecutionMode};
use hwlm::{LanguageModel, SamplerConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;
use verilog::{Linter, ParsedFile, Severity};
use verilogeval::{mean_pass_at_k, EvalReport, Problem, ProblemResult, Runner};

use crate::trace::{Recorder, SpanId};

/// Span names, one per layer boundary the benchmark records.
pub mod span {
    /// One traced pass; its self time is work no other span covers.
    pub const PASS: &str = "pass";
    /// `gh_sim::Universe::generate`.
    pub const UNIVERSE: &str = "gh_sim.universe";
    /// The consumer blocked in `FetchBatches::next`.
    pub const FETCH_WAIT: &str = "gh_sim.fetch.wait";
    /// `CurationSession::push` of one fetched repository.
    pub const PUSH: &str = "curation.session.push";
    /// `CurationSession::finish`.
    pub const FINISH: &str = "curation.session.finish";
    /// The license stage.
    pub const LICENSE: &str = "curation.license";
    /// The length-cap stage (prior-work policies only).
    pub const LENGTH: &str = "curation.length";
    /// The de-duplication stage.
    pub const DEDUP: &str = "curation.dedup";
    /// The syntax stage.
    pub const SYNTAX: &str = "curation.syntax";
    /// The lint stage.
    pub const LINT: &str = "curation.lint";
    /// The copyright stage.
    pub const COPYRIGHT: &str = "curation.copyright";
    /// One `generate_text` call.
    pub const SAMPLE: &str = "hwlm.sample";
    /// `ParsedFile::parse` of a candidate or golden solution.
    pub const PARSE: &str = "verilog.parse";
    /// `Linter::lint_parsed` of a candidate.
    pub const LINT_CANDIDATE: &str = "verilog.lint";
    /// `Testbench::passes` of a candidate.
    pub const SIMULATE: &str = "verilog.simulate";
    /// One `Runner::evaluate` of one model.
    pub const EVALUATE: &str = "verilogeval.evaluate";
    /// One (model, temperature, problem) job.
    pub const JOB: &str = "verilogeval.job";
    /// One `CopyrightBenchmark::evaluate` of one model.
    pub const INFRINGEMENT: &str = "copyright_bench.evaluate";
    /// `SimilarityScorer::max_similarity` of one completion.
    pub const SCORE: &str = "copyright_bench.score";
}

/// Counter names recorded next to the spans.
pub mod counter {
    /// Batches the fetch engine handed to the consumer.
    pub const FETCH_BATCHES: &str = "gh_sim.fetch.batches";
    /// Search queries issued.
    pub const FETCH_QUERIES: &str = "gh_sim.fetch.queries";
    /// Requests retried after a rate-limit rejection.
    pub const FETCH_RETRIES: &str = "gh_sim.fetch.rate_limit_retries";
    /// Virtual ticks spent in retry backoff.
    pub const FETCH_BACKOFF_TICKS: &str = "gh_sim.fetch.backoff_ticks";
    /// Documents pushed into de-duplication engines.
    pub const DEDUP_PUSHED: &str = "curation.dedup.pushed";
    /// Documents resolved by the exact-hash fast path.
    pub const DEDUP_EXACT_HITS: &str = "curation.dedup.exact_hits";
    /// Shingle hashes held for kept documents at the end of each engine.
    pub const DEDUP_KEPT_HASHES: &str = "curation.dedup.kept_hashes";
    /// Largest per-push shingle working set of any engine.
    pub const DEDUP_PEAK_BATCH_HASHES: &str = "curation.dedup.peak_batch_hashes";
    /// Sampling calls.
    pub const SAMPLE_CALLS: &str = "hwlm.sample.calls";
    /// Candidate parse attempts.
    pub const PARSES: &str = "verilog.parse.calls";
    /// Candidate parses that succeeded.
    pub const PARSES_OK: &str = "verilog.parse.ok";
    /// Candidates linted.
    pub const LINTS: &str = "verilog.lint.calls";
    /// Candidates with no error-severity finding.
    pub const LINTS_CLEAN: &str = "verilog.lint.clean";
    /// Candidates simulated.
    pub const SIMULATIONS: &str = "verilog.simulate.calls";
    /// Simulated candidates that passed their testbench.
    pub const SIMULATIONS_PASSED: &str = "verilog.simulate.passed";
    /// Simulations that failed with an evaluation error.
    pub const SIMULATION_ERRORS: &str = "verilog.simulate.errors";
    /// Prompts scored by the copyright benchmark.
    pub const PROMPTS: &str = "copyright_bench.prompts";
    /// Prompts whose completion crossed the violation threshold.
    pub const VIOLATIONS: &str = "copyright_bench.violations";
}

/// A curation stage whose every call is recorded as a span.
pub struct Timed<S> {
    inner: S,
    span: &'static str,
    recorder: Arc<Recorder>,
}

impl<S: CurationStage> Timed<S> {
    /// Wraps `inner`, recording its calls under `span`.
    pub fn new(inner: S, span: &'static str, recorder: &Arc<Recorder>) -> Self {
        Self {
            inner,
            span,
            recorder: Arc::clone(recorder),
        }
    }
}

impl<S: CurationStage> CurationStage for Timed<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn apply(&self, batch: FileBatch) -> StageOutcome {
        let mut span = self.recorder.span(self.span);
        let entering = batch.len();
        let outcome = self.inner.apply(batch);
        span.items(entering, outcome.kept.len());
        outcome
    }

    fn batch_invariant(&self) -> bool {
        self.inner.batch_invariant()
    }

    fn open_stream(&self) -> io::Result<StageStreaming> {
        Ok(match self.inner.open_stream()? {
            StageStreaming::Stateful(inner) => StageStreaming::Stateful(Box::new(TimedStream {
                inner,
                span: self.span,
                recorder: Arc::clone(&self.recorder),
            })),
            other => other,
        })
    }
}

/// The stream of a stateful [`Timed`] stage.
struct TimedStream {
    inner: Box<dyn StageStream>,
    span: &'static str,
    recorder: Arc<Recorder>,
}

impl StageStream for TimedStream {
    fn push(&mut self, batch: FileBatch) -> io::Result<StageOutcome> {
        let mut span = self.recorder.span(self.span);
        let entering = batch.len();
        let outcome = self.inner.push(batch)?;
        span.items(entering, outcome.kept.len());
        Ok(outcome)
    }
}

/// [`DedupStage`] streaming through a [`DedupStream`] the benchmark owns, so
/// that the engine's `StreamingDedupStats` can be read when the stream ends.
struct CountedDedup {
    stage: DedupStage,
    recorder: Arc<Recorder>,
}

impl CurationStage for CountedDedup {
    fn name(&self) -> &str {
        self.stage.name()
    }

    fn apply(&self, batch: FileBatch) -> StageOutcome {
        self.stage.apply(batch)
    }

    fn open_stream(&self) -> io::Result<StageStreaming> {
        let dedup = self.stage.deduplicator();
        let engine = match self.stage.spill_config() {
            None => dedup.streaming(),
            Some(policy) => dedup.streaming_with_spill(policy)?,
        };
        Ok(StageStreaming::Stateful(Box::new(CountedDedupStream {
            inner: DedupStream::new(engine),
            recorder: Arc::clone(&self.recorder),
        })))
    }
}

struct CountedDedupStream {
    inner: DedupStream,
    recorder: Arc<Recorder>,
}

impl StageStream for CountedDedupStream {
    fn push(&mut self, batch: FileBatch) -> io::Result<StageOutcome> {
        self.inner.push(batch)
    }
}

impl Drop for CountedDedupStream {
    fn drop(&mut self) {
        let stats = self.inner.engine().stats();
        let r = &self.recorder;
        r.add(counter::DEDUP_PUSHED, stats.pushed as f64);
        r.add(counter::DEDUP_EXACT_HITS, stats.exact_hits as f64);
        r.add(counter::DEDUP_KEPT_HASHES, stats.kept_hashes as f64);
        r.raise(
            counter::DEDUP_PEAK_BATCH_HASHES,
            stats.peak_batch_hashes as f64,
        );
    }
}

/// The stage list `CurationPipeline::new(policy.clone())` would build, from
/// the stages' public constructors, each wrapped in a [`Timed`] span.
pub fn timed_stages(
    policy: &CurationConfig,
    recorder: &Arc<Recorder>,
) -> Vec<Box<dyn CurationStage>> {
    let mut stages: Vec<Box<dyn CurationStage>> = Vec::new();
    if policy.check_repository_license {
        let stage = LicenseStage::new(LicenseFilter::paper_default());
        stages.push(Box::new(Timed::new(stage, span::LICENSE, recorder)));
    }
    if let Some(cap) = policy.max_file_chars {
        let stage = LengthCapStage::new(cap);
        stages.push(Box::new(Timed::new(stage, span::LENGTH, recorder)));
    }
    if policy.deduplicate {
        let stage = CountedDedup {
            stage: DedupStage::with_spill(policy.dedup, policy.dedup_spill.clone()),
            recorder: Arc::clone(recorder),
        };
        stages.push(Box::new(Timed::new(stage, span::DEDUP, recorder)));
    }
    let cache = (policy.check_syntax && policy.lint.is_some()).then(|| Arc::new(ParseCache::new()));
    if policy.check_syntax {
        let stage = match &cache {
            Some(cache) => SyntaxStage::with_cache(Arc::clone(cache)),
            None => SyntaxStage::new(),
        };
        stages.push(Box::new(Timed::new(stage, span::SYNTAX, recorder)));
    }
    if let Some(lint) = &policy.lint {
        let stage = match cache {
            Some(cache) => LintStage::with_cache(lint.clone(), cache),
            None => LintStage::new(lint.clone()),
        };
        stages.push(Box::new(Timed::new(stage, span::LINT, recorder)));
    }
    if policy.check_file_copyright {
        let stage = CopyrightStage::new(CopyrightDetector::new());
        stages.push(Box::new(Timed::new(stage, span::COPYRIGHT, recorder)));
    }
    stages
}

/// A pipeline equivalent to `CurationPipeline::new(policy.clone())` whose
/// stages are [`timed_stages`]: the policy's own toggles are cleared so that
/// only the appended timed stages run, while the dataset keeps the policy's
/// name and metadata.
pub fn timed_pipeline(policy: &CurationConfig, recorder: &Arc<Recorder>) -> CurationPipeline {
    let bare = CurationConfig {
        check_repository_license: false,
        check_file_copyright: false,
        deduplicate: false,
        check_syntax: false,
        lint: None,
        max_file_chars: None,
        ..policy.clone()
    };
    timed_stages(policy, recorder)
        .into_iter()
        .fold(CurationPipeline::new(bare), CurationPipeline::with_stage)
}

/// `freeset::dataset::scrape_and_curate`, traced.
///
/// # Panics
///
/// Panics where `scrape_and_curate` does: if the simulated scrape fails.
pub fn traced_scrape_and_curate(
    config: &FreeSetConfig,
    fetch: &FetchConfig,
    recorder: &Arc<Recorder>,
) -> FreeSetBuild {
    let universe = {
        let _span = recorder.span(span::UNIVERSE);
        Universe::generate(&config.universe)
    };
    let api = GithubApi::with_rate_limit(&universe, SCRAPE_API_BUDGET);
    let pipeline = timed_pipeline(&config.curation, recorder);
    let engine = FetchEngine::new(*fetch);
    let ((raw_files, dataset), scrape_report) = engine
        .run_streaming(&api, config.scraper, |mut batches| {
            let mut session = pipeline.session();
            let mut raw_files = Vec::new();
            loop {
                let batch = {
                    let _span = recorder.span(span::FETCH_WAIT);
                    batches.next()
                };
                let Some(batch) = batch else { break };
                recorder.add(counter::FETCH_BATCHES, 1.0);
                raw_files.extend(batch.files.iter().cloned());
                let mut push = recorder.span(span::PUSH);
                push.items(batch.files.len(), 0);
                session
                    .push(batch.files)
                    .expect("FreeSet curation has no spill stage, so pushes never do IO");
            }
            let _span = recorder.span(span::FINISH);
            let dataset = session
                .finish()
                .expect("FreeSet curation has no spill stage, so finish never does IO");
            (raw_files, dataset)
        })
        .expect("simulated scrape cannot fail at supported scales");
    recorder.add(counter::FETCH_QUERIES, scrape_report.queries_issued as f64);
    recorder.add(
        counter::FETCH_RETRIES,
        scrape_report.rate_limit_retries as f64,
    );
    recorder.add(
        counter::FETCH_BACKOFF_TICKS,
        scrape_report.backoff_ticks_waited as f64,
    );
    FreeSetBuild {
        scraped: ScrapedCorpus {
            files: raw_files,
            universe_stats: universe.stats(),
            scrape_report,
        },
        dataset,
    }
}

/// The seed lane `verilogeval` derives a problem's sample stream from: an
/// FNV-1a hash of its id.
fn problem_lane(problem: &Problem) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in problem.id.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// One (temperature, problem) job of `Runner::evaluate`, traced down to
/// each candidate's sample, parse, lint and simulation.
fn traced_job<M: LanguageModel>(
    runner: &Runner,
    model: &M,
    (t_index, temperature, problem): (usize, f64, &Problem),
    parent: SpanId,
    recorder: &Recorder,
) -> ProblemResult {
    let config = runner.config();
    let _job = recorder.child_of(span::JOB, parent);
    let seed = derive_seed(config.seed, problem_lane(problem), t_index as u64);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let sampler = SamplerConfig::with_temperature(temperature);
    let prompt = problem.prompt();
    // `Runner` parses the golden solution once per job.
    drop({
        let _span = recorder.span(span::PARSE);
        problem.prepare()
    });
    let (mut correct, mut lint_clean, mut correct_lint_clean) = (0, 0, 0);
    let (mut parsed_ok, mut linted, mut simulated, mut errors) = (0, 0, 0, 0);
    for _ in 0..config.samples_per_problem {
        let completion = {
            let _span = recorder.span(span::SAMPLE);
            model.generate_text(&prompt, config.max_new_tokens, &sampler, &mut rng)
        };
        let source = problem.assemble(&completion);
        let parsed = {
            let _span = recorder.span(span::PARSE);
            ParsedFile::parse(source.as_str())
        };
        let Ok(parsed) = parsed else { continue };
        parsed_ok += 1;
        let clean = config.lint_gate && {
            let _span = recorder.span(span::LINT_CANDIDATE);
            linted += 1;
            Linter::new()
                .lint_parsed(&parsed)
                .iter()
                .all(|d| d.severity < Severity::Error)
        };
        let functional = parsed.first_module().is_some_and(|module| {
            let _span = recorder.span(span::SIMULATE);
            simulated += 1;
            match problem.testbench.passes(module) {
                Ok(passed) => passed,
                Err(_) => {
                    errors += 1;
                    false
                }
            }
        });
        correct += usize::from(functional);
        lint_clean += usize::from(clean);
        correct_lint_clean += usize::from(clean && functional);
    }
    let samples = config.samples_per_problem;
    recorder.add(counter::SAMPLE_CALLS, samples as f64);
    recorder.add(counter::PARSES, samples as f64);
    recorder.add(counter::PARSES_OK, f64::from(parsed_ok));
    recorder.add(counter::LINTS, f64::from(linted));
    recorder.add(counter::LINTS_CLEAN, lint_clean as f64);
    recorder.add(counter::SIMULATIONS, f64::from(simulated));
    recorder.add(counter::SIMULATIONS_PASSED, correct as f64);
    recorder.add(counter::SIMULATION_ERRORS, f64::from(errors));
    ProblemResult {
        id: problem.id.clone(),
        samples,
        correct,
        lint_clean,
        correct_lint_clean,
    }
}

/// `Runner::evaluate`, traced.
pub fn traced_evaluate<M: LanguageModel + Sync>(
    runner: &Runner,
    model: &M,
    recorder: &Recorder,
) -> EvalReport {
    let evaluate = recorder.span(span::EVALUATE);
    let parent = evaluate.id();
    let config = runner.config();
    let rank_k = *config.ks.iter().max().expect("Runner::new checks ks");
    let problems = runner.suite().problems();
    let jobs: Vec<(usize, f64, &Problem)> = config
        .temperatures
        .iter()
        .enumerate()
        .flat_map(|(t_index, &temperature)| problems.iter().map(move |p| (t_index, temperature, p)))
        .collect();
    let solve = |&job: &(usize, f64, &Problem)| traced_job(runner, model, job, parent, recorder);
    let results: Vec<ProblemResult> = match config.execution {
        ExecutionMode::Serial => jobs.iter().map(solve).collect(),
        ExecutionMode::Parallel => jobs.par_iter().map(solve).collect(),
    };
    let mut best: Option<EvalReport> = None;
    for (t_index, &temperature) in config.temperatures.iter().enumerate() {
        let per_problem =
            results[t_index * problems.len()..(t_index + 1) * problems.len()].to_vec();
        let pass_at = |correct: fn(&ProblemResult) -> usize| -> Vec<(usize, f64)> {
            let nc: Vec<(usize, usize)> = per_problem
                .iter()
                .map(|r| (r.samples, correct(r)))
                .collect();
            config
                .ks
                .iter()
                .map(|&k| (k, 100.0 * mean_pass_at_k(&nc, k)))
                .collect()
        };
        let report = EvalReport {
            model: model.name().to_string(),
            best_temperature: temperature,
            pass_at_k_percent: pass_at(|r| r.correct),
            pass_at_k_lint_percent: if config.lint_gate {
                pass_at(|r| r.correct_lint_clean)
            } else {
                Vec::new()
            },
            per_problem,
        };
        let better = best.as_ref().is_none_or(|current| {
            report.pass_percent(rank_k).unwrap_or(0.0) > current.pass_percent(rank_k).unwrap_or(0.0)
        });
        if better {
            best = Some(report);
        }
    }
    best.expect("Runner::new checks temperatures")
}

/// `CopyrightBenchmark::evaluate`, traced. `scorer` must be
/// `SimilarityScorer::new(benchmark.reference())`: the benchmark keeps its
/// own scorer private.
pub fn traced_infringement<M: LanguageModel + Sync>(
    benchmark: &CopyrightBenchmark,
    scorer: &SimilarityScorer,
    model: &M,
    recorder: &Recorder,
) -> InfringementReport {
    let infringement = recorder.span(span::INFRINGEMENT);
    let parent = infringement.id();
    let config = benchmark.config();
    let sampler = SamplerConfig::with_temperature(config.temperature);
    let jobs: Vec<(usize, &copyright_bench::BenchPrompt)> =
        benchmark.prompts().iter().enumerate().collect();
    let score = |&(p_index, prompt): &(usize, &copyright_bench::BenchPrompt)| {
        let seed = derive_seed(config.seed, p_index as u64, 0);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let completion = {
            let _span = recorder.child_of(span::SAMPLE, parent);
            model.generate_text(&prompt.text, config.max_new_tokens, &sampler, &mut rng)
        };
        let (max_similarity, matched_reference) = {
            let _span = recorder.child_of(span::SCORE, parent);
            scorer.max_similarity(&completion)
        };
        PromptOutcome {
            reference_index: prompt.reference_index,
            max_similarity,
            matched_reference,
            violated: max_similarity >= config.similarity_threshold,
        }
    };
    let outcomes: Vec<PromptOutcome> = match config.execution {
        ExecutionMode::Serial => jobs.iter().map(score).collect(),
        ExecutionMode::Parallel => jobs.par_iter().map(score).collect(),
    };
    let violations = outcomes.iter().filter(|o| o.violated).count();
    recorder.add(counter::SAMPLE_CALLS, outcomes.len() as f64);
    recorder.add(counter::PROMPTS, outcomes.len() as f64);
    recorder.add(counter::VIOLATIONS, violations as f64);
    InfringementReport {
        model: model.name().to_string(),
        prompts: benchmark.prompts().len(),
        violations,
        outcomes,
    }
}
