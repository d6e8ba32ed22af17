//! Dataset summaries and the file-length histogram behind Figure 2.

use serde::{Deserialize, Serialize};

use crate::pipeline::{CuratedDataset, DatasetStructure};

/// A logarithmically-binned histogram over file lengths in characters.
///
/// Figure 2 of the paper plots file-length frequency on a log-scaled x axis
/// from 10¹ to 10⁸ characters; each bin here covers one decade.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LengthHistogram {
    /// `counts[i]` is the number of files with length in `[10^i, 10^(i+1))`.
    counts: Vec<usize>,
}

impl LengthHistogram {
    /// Number of decades covered (10⁰ up to 10⁸ by default).
    pub const DEFAULT_DECADES: usize = 9;

    /// Builds a histogram over an iterator of file lengths.
    pub fn from_lengths<I: IntoIterator<Item = usize>>(lengths: I) -> Self {
        let mut counts = vec![0usize; Self::DEFAULT_DECADES];
        for len in lengths {
            let decade = if len == 0 {
                0
            } else {
                (len as f64).log10().floor() as usize
            };
            let decade = decade.min(Self::DEFAULT_DECADES - 1);
            counts[decade] += 1;
        }
        Self { counts }
    }

    /// The per-decade counts.
    pub fn counts(&self) -> &[usize] {
        &self.counts
    }

    /// Total number of files represented.
    pub fn total(&self) -> usize {
        self.counts.iter().sum()
    }

    /// `(lower_bound, count)` rows, one per decade.
    pub fn rows(&self) -> Vec<(usize, usize)> {
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &c)| (10usize.pow(i as u32), c))
            .collect()
    }

    /// The decade (as a lower bound) with the most files.
    pub fn modal_decade(&self) -> usize {
        let (idx, _) = self
            .counts
            .iter()
            .enumerate()
            .max_by_key(|(_, c)| **c)
            .unwrap_or((0, &0));
        10usize.pow(idx as u32)
    }
}

/// Row-level summary of a curated dataset, mirroring Table I's columns.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetSummary {
    /// Policy / dataset name.
    pub name: String,
    /// Number of files ("Size (Rows)").
    pub rows: usize,
    /// Total size in characters (stand-in for "Size (Disk)").
    pub total_chars: usize,
    /// Dataset structure.
    pub structure: DatasetStructure,
    /// Whether the dataset is augmented with generated data.
    pub augmented: bool,
    /// Whether the producing policy checked repository licenses.
    pub open_source_check: bool,
    /// Whether the producing policy checked per-file copyright.
    pub license_copyright_check: bool,
    /// File-length histogram (Figure 2's series for this dataset).
    pub length_histogram: LengthHistogram,
}

impl DatasetSummary {
    /// Builds a summary from a curated dataset and its policy's check flags.
    pub fn from_dataset(
        dataset: &CuratedDataset,
        open_source_check: bool,
        license_copyright_check: bool,
    ) -> Self {
        Self {
            name: dataset.name().to_string(),
            rows: dataset.len(),
            total_chars: dataset.total_chars(),
            structure: dataset.structure(),
            augmented: dataset.augmented(),
            open_source_check,
            license_copyright_check,
            length_histogram: LengthHistogram::from_lengths(
                dataset.files().iter().map(|f| f.char_len()),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{CurationConfig, CurationPipeline};
    use gh_sim::{GithubApi, Scraper, Universe, UniverseConfig};

    #[test]
    fn histogram_bins_by_decade() {
        let h = LengthHistogram::from_lengths(vec![5, 50, 500, 5_000, 50_000, 5_000_000, 0]);
        assert_eq!(h.total(), 7);
        assert_eq!(h.counts()[0], 2); // 5 and 0
        assert_eq!(h.counts()[1], 1); // 50
        assert_eq!(h.counts()[2], 1);
        assert_eq!(h.counts()[3], 1);
        assert_eq!(h.counts()[4], 1);
        assert_eq!(h.counts()[6], 1);
    }

    #[test]
    fn histogram_clamps_extreme_outliers() {
        let h = LengthHistogram::from_lengths(vec![10usize.pow(12)]);
        assert_eq!(*h.counts().last().unwrap(), 1);
    }

    #[test]
    fn rows_and_modal_decade() {
        let h = LengthHistogram::from_lengths(vec![100, 150, 900, 20]);
        let rows = h.rows();
        assert_eq!(rows[2], (100, 3));
        assert_eq!(h.modal_decade(), 100);
    }

    #[test]
    fn summary_reflects_dataset() {
        let universe = Universe::generate(&UniverseConfig {
            repo_count: 50,
            seed: 8,
            ..Default::default()
        });
        let api = GithubApi::new(&universe);
        let files = Scraper::new().run(&api).unwrap().files;
        let dataset = CurationPipeline::new(CurationConfig::freeset()).run(files);
        let summary = DatasetSummary::from_dataset(&dataset, true, true);
        assert_eq!(summary.rows, dataset.len());
        assert_eq!(summary.length_histogram.total(), dataset.len());
        assert_eq!(summary.total_chars, dataset.total_chars());
        assert!(summary.open_source_check && summary.license_copyright_check);
    }
}
