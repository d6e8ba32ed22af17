//! Experiment drivers, one per table/figure of the paper's evaluation:
//!
//! | Module | Paper artefact |
//! |---|---|
//! | [`funnel`] | §IV-A dataset-minimisation funnel (1.3M → 608k → dedup → 222k) |
//! | [`table1`] | Table I — dataset comparison across prior works |
//! | [`fig2`] | Figure 2 — file-length distribution, FreeSet vs VeriGen |
//! | [`fig3`] | Figure 3 — copyright-infringement rates across models |
//! | [`table2`] | Table II — VerilogEval pass@k comparison |
//!
//! Every driver follows the same shape: `run(&ExperimentScale)` performs the
//! experiment deterministically, and `render_markdown()` produces the
//! table/figure data as text with the paper's reported values alongside the
//! measured ones. The funnel and Figure 3 also print their data as JSON
//! (`render_json()`).

pub mod fig2;
pub mod fig3;
pub mod funnel;
pub mod table1;
pub mod table2;

use crate::corpus::ScrapedCorpus;

/// Cut-off year modelling the stale BigQuery snapshot behind VeriGen's data.
const VERIGEN_SNAPSHOT_LAST_YEAR: u32 = 2016;

/// The files of `scraped` that VeriGen's snapshot could hold. Table I and
/// Figure 2 both curate VeriGen's dataset from this subset, so they model
/// the same data.
pub(crate) fn snapshot_subset(scraped: &ScrapedCorpus) -> ScrapedCorpus {
    ScrapedCorpus {
        files: scraped
            .files
            .iter()
            .filter(|f| f.created_year <= VERIGEN_SNAPSHOT_LAST_YEAR)
            .cloned()
            .collect(),
        universe_stats: scraped.universe_stats,
        scrape_report: scraped.scrape_report,
    }
}
