//! Figure 2 — distribution of Verilog file lengths, FreeSet vs VeriGen.

use curation::{CurationConfig, LengthHistogram};

use super::snapshot_subset;
use crate::config::{ExperimentScale, FreeSetConfig};
use crate::corpus::ScrapedCorpus;
use crate::dataset::curate_with_policy;
use crate::modelzoo::ZooEntry;
use crate::report::markdown_table;

/// The Figure 2 experiment result.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig2Experiment {
    /// The scale the experiment ran at.
    pub scale: ExperimentScale,
    /// File-length histogram of FreeSet (one bin per decade of characters).
    pub freeset: LengthHistogram,
    /// File-length histogram of the VeriGen-policy dataset.
    pub verigen: LengthHistogram,
    /// Length of the single largest FreeSet file in characters (the paper
    /// notes a >90M-character outlier at GitHub scale).
    pub freeset_max_chars: usize,
}

impl Fig2Experiment {
    /// Runs the experiment at the given scale.
    pub fn run(scale: &ExperimentScale) -> Self {
        let scraped = ScrapedCorpus::build(&FreeSetConfig::at_scale(scale));
        Self::run_on(scale, &scraped)
    }

    /// Runs the experiment over an existing scrape.
    pub fn run_on(scale: &ExperimentScale, scraped: &ScrapedCorpus) -> Self {
        let freeset = curate_with_policy(scraped, CurationConfig::freeset());
        let verigen_entry = ZooEntry::by_name("VeriGen").expect("VeriGen entry exists");
        let verigen = curate_with_policy(&snapshot_subset(scraped), verigen_entry.policy);

        let freeset_lengths: Vec<usize> = freeset.files().iter().map(|f| f.char_len()).collect();
        let freeset_max_chars = freeset_lengths.iter().copied().max().unwrap_or(0);
        Self {
            scale: *scale,
            freeset: LengthHistogram::from_lengths(freeset_lengths),
            verigen: LengthHistogram::from_lengths(verigen.files().iter().map(|f| f.char_len())),
            freeset_max_chars,
        }
    }

    /// Renders the histogram series as a markdown table (one row per decade).
    pub fn render_markdown(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .freeset
            .rows()
            .iter()
            .zip(self.verigen.rows())
            .map(|((lower, freeset_count), (_, verigen_count))| {
                vec![
                    format!("10^{}", (*lower as f64).log10() as u32),
                    freeset_count.to_string(),
                    verigen_count.to_string(),
                ]
            })
            .collect();
        format!(
            "### Figure 2 — file-length distribution (files per decade of characters)\n\n{}\n\nlargest FreeSet file: {} characters\n",
            markdown_table(&["file length ≥", "FreeSet", "VeriGen"], &rows),
            self.freeset_max_chars
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn freeset_has_more_files_and_dominant_small_file_mass() {
        let result = Fig2Experiment::run(&ExperimentScale::tiny());
        assert!(
            result.freeset.total() > result.verigen.total(),
            "FreeSet ({}) should be larger than the VeriGen analogue ({})",
            result.freeset.total(),
            result.verigen.total()
        );
        // The bulk of files sits between 10 and 10,000 characters, as in the
        // paper's Figure 2.
        let counts = result.freeset.counts();
        let small_mass: usize = counts[1..4].iter().sum();
        assert!(small_mass * 10 >= result.freeset.total() * 8);
        assert!(result.freeset.modal_decade() >= 10);
        assert!(result.freeset.modal_decade() <= 10_000);
    }

    #[test]
    fn histograms_cover_the_same_decades_and_render() {
        let result = Fig2Experiment::run(&ExperimentScale::tiny());
        assert_eq!(result.freeset.counts().len(), result.verigen.counts().len());
        let text = result.render_markdown();
        assert!(text.contains("| file length ≥ | FreeSet | VeriGen |"));
        assert!(text.contains("largest FreeSet file"));
        assert!(result.freeset_max_chars > 0);
    }
}
