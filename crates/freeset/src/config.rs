//! Experiment configuration and scaling presets.

use curation::CurationConfig;
use gh_sim::{ScraperConfig, UniverseConfig};

/// How large a synthetic universe the experiments run against.
///
/// The paper operates at GitHub scale (≈50k repositories, 1.3M Verilog
/// files); this reproduction scales the population down while keeping every
/// proportion intact, so funnel percentages, violation rates and pass@k
/// trends remain comparable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExperimentScale {
    /// Number of repositories in the synthetic universe.
    pub repo_count: usize,
    /// Master seed; every stochastic component derives from it.
    pub seed: u64,
}

impl ExperimentScale {
    /// Tiny scale for unit tests (seconds).
    pub fn tiny() -> Self {
        Self {
            repo_count: 60,
            seed: 0xF5EE,
        }
    }

    /// Small scale for integration tests and quick runs.
    pub fn small() -> Self {
        Self {
            repo_count: 150,
            seed: 0xF5EE,
        }
    }

    /// The default experiment scale used by the benchmark harness
    /// (roughly 1:200 of the paper's corpus).
    pub fn paper_default() -> Self {
        Self {
            repo_count: 300,
            seed: 0xF5EE,
        }
    }

    /// A different seed at the same scale (for seed-sensitivity checks).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

impl Default for ExperimentScale {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Full configuration of a FreeSet build.
#[derive(Debug, Clone, PartialEq)]
pub struct FreeSetConfig {
    /// Synthetic-universe parameters.
    pub universe: UniverseConfig,
    /// Scraper settings; there are none.
    pub scraper: ScraperConfig,
    /// Curation policy (defaults to the paper's FreeSet policy).
    pub curation: CurationConfig,
}

impl FreeSetConfig {
    /// The paper's configuration at a given scale.
    pub fn at_scale(scale: &ExperimentScale) -> Self {
        Self {
            universe: UniverseConfig {
                repo_count: scale.repo_count,
                seed: scale.seed,
                ..Default::default()
            },
            scraper: ScraperConfig::default(),
            curation: CurationConfig::freeset(),
        }
    }
}

impl Default for FreeSetConfig {
    fn default() -> Self {
        Self::at_scale(&ExperimentScale::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use curation::{CurationPipeline, LintRejectPolicy};

    #[test]
    fn scales_increase_monotonically() {
        assert!(ExperimentScale::tiny().repo_count < ExperimentScale::small().repo_count);
        assert!(ExperimentScale::small().repo_count < ExperimentScale::paper_default().repo_count);
        assert_eq!(ExperimentScale::default(), ExperimentScale::paper_default());
    }

    #[test]
    fn with_seed_changes_only_the_seed() {
        let a = ExperimentScale::small();
        let b = a.with_seed(42);
        assert_eq!(a.repo_count, b.repo_count);
        assert_ne!(a.seed, b.seed);
    }

    #[test]
    fn lint_policy_toggles_only_the_lint_stage() {
        let mut config = FreeSetConfig::at_scale(&ExperimentScale::tiny());
        assert_eq!(
            config.curation.lint,
            Some(LintRejectPolicy::default()),
            "FreeSet lints by default"
        );
        let linted = CurationPipeline::new(config.curation.clone()).stage_names();
        config.curation.lint = None;
        let unlinted = CurationPipeline::new(config.curation).stage_names();
        assert_eq!(
            linted
                .into_iter()
                .filter(|name| name != "lint filter")
                .collect::<Vec<_>>(),
            unlinted
        );
    }

    #[test]
    fn config_propagates_scale_into_universe() {
        let scale = ExperimentScale::small().with_seed(7);
        let config = FreeSetConfig::at_scale(&scale);
        assert_eq!(config.universe.repo_count, scale.repo_count);
        assert_eq!(config.universe.seed, 7);
        assert_eq!(config.curation.name, "FreeSet");
    }
}
