//! The three workloads: inputs made from the seed, the untraced pass through
//! the library's entry points, its traced twin, and an independent
//! reference to check outputs against.

use std::sync::Arc;

use copyright_bench::{
    BenchmarkConfig, CopyrightBenchmark, CopyrightedReference, InfringementReport, SimilarityScorer,
};
use curation::{CopyrightDetector, CuratedDataset, CurationPipeline};
use freeset::corpus::ScrapedCorpus;
use freeset::dataset::scrape_and_curate;
use freeset::{
    build_freeset, ExperimentScale, FreeSetBuild, FreeSetConfig, FreeVBuilder, FreeVModel,
};
use gh_sim::fetch::FetchConfig;
use gh_sim::{ExtractedFile, Universe, UniverseConfig, UniverseStats};
use hwlm::parallel::{derive_seed, ExecutionMode};
use verilogeval::{EvalConfig, EvalReport, ProblemSuite, Runner};

use crate::run::{run, Options, Outcome};
use crate::shims::{traced_evaluate, traced_infringement, traced_scrape_and_curate};
use crate::trace::Recorder;

/// Repositories in each build workload's universe.
pub const BUILD_REPOS: usize = 1_000;

/// Repositories in the universe FreeSet is built from for the evaluation
/// rounds: the smallest scale whose scrape yields the paper's 100 copyright
/// prompts.
pub const EVAL_REPOS: usize = 1_500;

/// Distinct round seeds of the evaluation workload.
pub const ROUND_SEEDS: usize = 8;

/// The workloads by the names `--workload` takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Named {
    /// `build-dup`.
    BuildDup,
    /// `build-unique`.
    BuildUnique,
    /// `verilogeval`.
    VerilogEval,
}

impl Named {
    /// The workload called `name`.
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "build-dup" => Self::BuildDup,
            "build-unique" => Self::BuildUnique,
            "verilogeval" => Self::VerilogEval,
            _ => return None,
        })
    }

    /// Runs the workload.
    pub fn run(self, options: &Options) -> Outcome {
        match self {
            Self::BuildDup => run(
                &Build {
                    repos: BUILD_REPOS,
                    duplicate_fraction: UniverseConfig::default().duplicate_fraction,
                },
                options,
            ),
            Self::BuildUnique => run(
                &Build {
                    repos: BUILD_REPOS,
                    duplicate_fraction: 0.0,
                },
                options,
            ),
            Self::VerilogEval => run(
                &VerilogEval {
                    scale: ExperimentScale {
                        repo_count: EVAL_REPOS,
                        ..ExperimentScale::paper_default()
                    },
                    round_seeds: ROUND_SEEDS,
                },
                options,
            ),
        }
    }
}

/// One benchmark workload.
pub trait Workload {
    /// Everything the passes read, made by [`Workload::setup`].
    type State;
    /// What a pass produces, compared against the reference.
    type Output: PartialEq;

    /// Makes the workload's inputs from `seed`.
    fn setup(&self, seed: u64) -> Self::State;

    /// Number of distinct pass inputs: pass `i` runs input `i % variants`.
    fn variants(&self) -> usize {
        1
    }

    /// Items of work pass `index` does, the unit of `items_per_s`.
    fn items(&self, state: &Self::State, index: usize) -> f64;

    /// One output per variant, computed by a path independent of the
    /// measured one.
    fn reference(&self, state: &Self::State) -> Vec<Self::Output>;

    /// One pass through the library entry points users call.
    fn pass(&self, state: &Self::State, index: usize) -> Self::Output;

    /// The same pass recomposed from public functions, every layer call
    /// recorded in `recorder`.
    fn traced_pass(
        &self,
        state: &Self::State,
        index: usize,
        recorder: &Arc<Recorder>,
    ) -> Self::Output;
}

/// `scrape_and_curate` over a universe of `repos` repositories generated
/// from the seed, at the paper's proportions except for the planted
/// duplicate fraction.
#[derive(Debug, Clone, Copy)]
pub struct Build {
    /// Repositories in the universe.
    pub repos: usize,
    /// `UniverseConfig::duplicate_fraction`.
    pub duplicate_fraction: f64,
}

/// The configuration a [`Build`] pass builds from.
#[derive(Debug, Clone)]
pub struct BuildState {
    config: FreeSetConfig,
    raw_chars: usize,
}

/// The deterministic part of a `FreeSetBuild`: the scrape report's
/// concurrency profile may differ run to run and is left out.
#[derive(Debug, Clone, PartialEq)]
pub struct BuildOutput {
    files: Vec<ExtractedFile>,
    universe: UniverseStats,
    dataset: CuratedDataset,
}

impl From<FreeSetBuild> for BuildOutput {
    fn from(build: FreeSetBuild) -> Self {
        Self {
            files: build.scraped.files,
            universe: build.scraped.universe_stats,
            dataset: build.dataset,
        }
    }
}

impl Workload for Build {
    type State = BuildState;
    type Output = BuildOutput;

    fn setup(&self, seed: u64) -> BuildState {
        let mut config = FreeSetConfig::at_scale(&ExperimentScale {
            repo_count: self.repos,
            seed,
        });
        config.universe.duplicate_fraction = self.duplicate_fraction;
        let universe = Universe::generate(&config.universe);
        let raw_chars = universe
            .repositories()
            .iter()
            .map(|r| r.verilog_char_count())
            .sum();
        BuildState { config, raw_chars }
    }

    /// Characters of raw Verilog scraped: the universe's two huge outlier
    /// files make its file count a poor measure of its work.
    fn items(&self, state: &BuildState, _index: usize) -> f64 {
        state.raw_chars as f64
    }

    /// The serial scraper followed by serial one-shot curation.
    fn reference(&self, state: &BuildState) -> Vec<BuildOutput> {
        let scraped = ScrapedCorpus::build(&state.config);
        let dataset = CurationPipeline::new(state.config.curation.clone())
            .serial()
            .run(scraped.files.clone());
        vec![BuildOutput {
            files: scraped.files,
            universe: scraped.universe_stats,
            dataset,
        }]
    }

    fn pass(&self, state: &BuildState, _index: usize) -> BuildOutput {
        scrape_and_curate(&state.config, &FetchConfig::default()).into()
    }

    fn traced_pass(
        &self,
        state: &BuildState,
        _index: usize,
        recorder: &Arc<Recorder>,
    ) -> BuildOutput {
        traced_scrape_and_curate(&state.config, &FetchConfig::default(), recorder).into()
    }
}

/// Rounds of the Table II protocol plus the copyright benchmark on the base
/// model and FreeV, trained in set-up on FreeSet built from the universe at
/// `scale`. The seed derives every round's sampling seeds; the universe
/// stays fixed, because each universe trains a different model whose
/// completions differ in length and so in cost.
///
/// The models run in full precision. Sampling the 4-bit FreeV is not
/// repeatable: `Distribution::mix` sums its weights in `HashMap` order, so
/// the normalised probabilities differ in the last bit from call to call,
/// and 4-bit rounding of a probability that lies exactly on a half level
/// then flips. About one round in 75 failed its output check that way.
#[derive(Debug, Clone, Copy)]
pub struct VerilogEval {
    /// The universe FreeSet is built from.
    pub scale: ExperimentScale,
    /// Distinct round seeds; round `r` samples with seeds derived from the
    /// run's seed and `r % round_seeds`.
    pub round_seeds: usize,
}

/// The evaluation settings of one round seed.
#[derive(Debug, Clone)]
pub struct Round {
    runner: Runner,
    benchmark: CopyrightBenchmark,
}

/// The trained models and the per-round-seed evaluators.
#[derive(Debug, Clone)]
pub struct EvalState {
    /// The run seed, from which the reference rebuilds the rounds serially.
    seed: u64,
    freev: FreeVModel,
    rounds: Vec<Round>,
    /// The traced passes' scorer: each benchmark keeps its own private.
    scorer: SimilarityScorer,
}

/// The reports of one round.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundOutput {
    evals: Vec<EvalReport>,
    infringements: Vec<InfringementReport>,
}

impl VerilogEval {
    fn round(
        reference: &CopyrightedReference,
        seed: u64,
        variant: usize,
        execution: ExecutionMode,
    ) -> Round {
        let lane = variant as u64;
        Round {
            runner: Runner::new(
                ProblemSuite::verilog_eval_human(),
                EvalConfig {
                    seed: derive_seed(seed, lane, 0),
                    execution,
                    ..Default::default()
                },
            ),
            benchmark: CopyrightBenchmark::new(
                reference.clone(),
                BenchmarkConfig {
                    seed: derive_seed(seed, lane, 1),
                    execution,
                    ..Default::default()
                },
            ),
        }
    }

    fn run_round(freev: &FreeVModel, round: &Round) -> RoundOutput {
        let (base, tuned) = (freev.base(), freev.tuned());
        RoundOutput {
            evals: vec![round.runner.evaluate(base), round.runner.evaluate(tuned)],
            infringements: vec![
                round.benchmark.evaluate(base),
                round.benchmark.evaluate(tuned),
            ],
        }
    }
}

impl Workload for VerilogEval {
    type State = EvalState;
    type Output = RoundOutput;

    fn setup(&self, seed: u64) -> EvalState {
        let build = build_freeset(&FreeSetConfig::at_scale(&self.scale));
        let freev = FreeVBuilder::default().build(&build.scraped, &build.training_corpus());
        let detector = CopyrightDetector::new();
        let protected: Vec<_> = build
            .scraped
            .files
            .iter()
            .filter(|f| {
                f.repo_license.is_accepted_open_source() && detector.is_protected(&f.content)
            })
            .cloned()
            .collect();
        let reference = CopyrightedReference::from_extracted(&protected);
        EvalState {
            seed,
            freev,
            rounds: (0..self.round_seeds)
                .map(|v| Self::round(&reference, seed, v, ExecutionMode::default()))
                .collect(),
            scorer: SimilarityScorer::new(&reference),
        }
    }

    fn variants(&self) -> usize {
        self.round_seeds
    }

    /// Candidates judged plus prompts scored, over both models.
    fn items(&self, state: &EvalState, index: usize) -> f64 {
        let round = &state.rounds[index % self.round_seeds];
        let config = round.runner.config();
        let candidates =
            round.runner.suite().len() * config.samples_per_problem * config.temperatures.len();
        (2 * (candidates + round.benchmark.prompts().len())) as f64
    }

    /// Each round seed evaluated in `ExecutionMode::Serial`.
    fn reference(&self, state: &EvalState) -> Vec<RoundOutput> {
        let reference = state.rounds[0].benchmark.reference();
        (0..self.round_seeds)
            .map(|v| {
                let round = Self::round(reference, state.seed, v, ExecutionMode::Serial);
                Self::run_round(&state.freev, &round)
            })
            .collect()
    }

    fn pass(&self, state: &EvalState, index: usize) -> RoundOutput {
        Self::run_round(&state.freev, &state.rounds[index % self.round_seeds])
    }

    fn traced_pass(
        &self,
        state: &EvalState,
        index: usize,
        recorder: &Arc<Recorder>,
    ) -> RoundOutput {
        let round = &state.rounds[index % self.round_seeds];
        let (base, tuned) = (state.freev.base(), state.freev.tuned());
        RoundOutput {
            evals: vec![
                traced_evaluate(&round.runner, base, recorder),
                traced_evaluate(&round.runner, tuned, recorder),
            ],
            infringements: vec![
                traced_infringement(&round.benchmark, &state.scorer, base, recorder),
                traced_infringement(&round.benchmark, &state.scorer, tuned, recorder),
            ],
        }
    }
}
