//! The model zoo: prior Verilog-tuned models reproduced under their own
//! dataset-curation policies.
//!
//! The paper compares FreeV against VeriGen, RTLCoder, CodeV, OriGen,
//! BetterV and CraftRTL. Their published checkpoints obviously cannot be
//! re-trained here; instead every zoo entry is the *same* model substrate
//! trained on a dataset curated from the *same* scrape under *that work's*
//! policy (license checks or not, per-file copyright checks or not, length
//! caps, augmentation flags). That isolates exactly the variable Figure 3
//! studies: what the curation policy does to copyright regurgitation.

use curation::{CurationConfig, DatasetStructure};
use hwlm::{AdaptedModel, NgramModel, TrainConfig};
use serde::{Deserialize, Serialize};

use crate::corpus::{general_code_corpus, ScrapedCorpus};
use crate::dataset::curate_with_policy;
use crate::freev::{BASE_GENERAL_DOCUMENTS, BASE_ORDER, PRETRAIN_ORDER};

/// Reference numbers reported by the paper for one model (used to print
/// "paper vs measured" tables; absolute values are not expected to match,
/// only the ordering/shape).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct PaperReference {
    /// Figure 3 violation rate of the base model, percent (approximate —
    /// read off the bar chart).
    pub violation_base_percent: Option<f64>,
    /// Figure 3 violation rate of the fine-tuned model, percent.
    pub violation_tuned_percent: Option<f64>,
    /// Table II pass@1 / pass@5 / pass@10, percent.
    pub pass_at_k_percent: Option<(f64, f64, f64)>,
}

/// One model family in the zoo.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ZooEntry {
    /// Fine-tuned model name (e.g. `"VeriGen"`).
    pub name: String,
    /// Base model name (e.g. `"codegen-6B-multi (sim)"`).
    pub base_name: String,
    /// The dataset-curation policy the fine-tune uses.
    pub policy: CurationConfig,
    /// Fraction of the raw scrape mixed into the base model's pre-training.
    pub base_verilog_fraction: f64,
    /// Whether the original work released its model openly (Table II column).
    pub open_source: bool,
    /// Parameter-count label from the paper (reporting only).
    pub size_label: String,
    /// Paper-reported reference numbers.
    pub paper: PaperReference,
}

impl ZooEntry {
    /// The five base/fine-tuned pairs evaluated in Figure 3, plus the
    /// additional dataset policies of Table I.
    pub fn all() -> Vec<ZooEntry> {
        vec![
            ZooEntry {
                name: "VeriGen".into(),
                base_name: "codegen-6B-multi (sim)".into(),
                policy: CurationConfig {
                    name: "VeriGen's Dataset".into(),
                    check_repository_license: false,
                    check_file_copyright: false,
                    deduplicate: true,
                    check_syntax: false,
                    lint: None,
                    max_file_chars: None,
                    dedup: Default::default(),
                    dedup_spill: None,
                    structure: DatasetStructure::ContinualPretraining,
                    augmented: false,
                },
                base_verilog_fraction: 0.12,
                open_source: true,
                size_label: "16B".into(),
                paper: PaperReference {
                    violation_base_percent: Some(9.0),
                    violation_tuned_percent: Some(15.0),
                    pass_at_k_percent: Some((30.3, 43.9, 49.6)),
                },
            },
            ZooEntry {
                name: "RTLCoder-DS".into(),
                base_name: "deepseek-coder-6.7b (sim)".into(),
                policy: CurationConfig {
                    name: "RTLCoder".into(),
                    check_repository_license: false,
                    check_file_copyright: false,
                    deduplicate: true,
                    check_syntax: true,
                    lint: None,
                    max_file_chars: None,
                    dedup: Default::default(),
                    dedup_spill: None,
                    structure: DatasetStructure::InstructionTuning,
                    augmented: true,
                },
                base_verilog_fraction: 0.10,
                open_source: true,
                size_label: "7B".into(),
                paper: PaperReference {
                    violation_base_percent: Some(5.0),
                    violation_tuned_percent: Some(8.0),
                    pass_at_k_percent: Some((41.6, 50.1, 53.4)),
                },
            },
            ZooEntry {
                name: "CodeV-DS".into(),
                base_name: "deepseek-coder-6.7b (sim)".into(),
                policy: CurationConfig {
                    name: "CodeV".into(),
                    check_repository_license: false,
                    check_file_copyright: false,
                    deduplicate: true,
                    check_syntax: true,
                    lint: None,
                    max_file_chars: Some(2096),
                    dedup: Default::default(),
                    dedup_spill: None,
                    structure: DatasetStructure::InstructionTuning,
                    augmented: true,
                },
                base_verilog_fraction: 0.10,
                open_source: true,
                size_label: "6.7B".into(),
                paper: PaperReference {
                    violation_base_percent: Some(5.0),
                    violation_tuned_percent: Some(12.0),
                    pass_at_k_percent: Some((53.2, 65.1, 68.5)),
                },
            },
            ZooEntry {
                name: "OriGen-DS".into(),
                base_name: "deepseek-coder-6.7b (sim)".into(),
                policy: CurationConfig {
                    name: "OriGen".into(),
                    check_repository_license: false,
                    check_file_copyright: false,
                    deduplicate: true,
                    check_syntax: true,
                    lint: None,
                    max_file_chars: None,
                    dedup: Default::default(),
                    dedup_spill: None,
                    structure: DatasetStructure::InstructionTuning,
                    augmented: true,
                },
                base_verilog_fraction: 0.10,
                open_source: true,
                size_label: "7B".into(),
                paper: PaperReference {
                    violation_base_percent: Some(5.0),
                    violation_tuned_percent: Some(7.0),
                    pass_at_k_percent: Some((54.4, 60.1, 64.2)),
                },
            },
            ZooEntry {
                name: "BetterV-CodeQwen".into(),
                base_name: "CodeQwen-7B (sim)".into(),
                policy: CurationConfig {
                    name: "BetterV".into(),
                    check_repository_license: true,
                    check_file_copyright: false,
                    deduplicate: true,
                    check_syntax: true,
                    lint: None,
                    max_file_chars: None,
                    dedup: Default::default(),
                    dedup_spill: None,
                    structure: DatasetStructure::InstructionTuning,
                    augmented: true,
                },
                base_verilog_fraction: 0.10,
                open_source: false,
                size_label: "7B".into(),
                paper: PaperReference {
                    violation_base_percent: None,
                    violation_tuned_percent: None,
                    pass_at_k_percent: Some((46.1, 53.7, 58.2)),
                },
            },
            ZooEntry {
                name: "FreeV-Llama3.1".into(),
                base_name: "Llama-3.1-8B-Instruct (sim)".into(),
                policy: CurationConfig::freeset(),
                base_verilog_fraction: 0.08,
                open_source: true,
                size_label: "8B".into(),
                paper: PaperReference {
                    violation_base_percent: Some(2.0),
                    violation_tuned_percent: Some(3.0),
                    pass_at_k_percent: Some((15.5, 30.9, 36.0)),
                },
            },
        ]
    }

    /// The entries evaluated in Figure 3 (those with a reported base/tuned
    /// violation pair).
    pub fn figure3() -> Vec<ZooEntry> {
        Self::all()
            .into_iter()
            .filter(|e| e.paper.violation_tuned_percent.is_some())
            .collect()
    }

    /// Looks up an entry by fine-tuned model name.
    pub fn by_name(name: &str) -> Option<ZooEntry> {
        Self::all().into_iter().find(|e| e.name == name)
    }
}

/// A trained base/fine-tuned pair for one zoo entry.
#[derive(Debug, Clone)]
pub struct ZooModel {
    /// The entry this model realises.
    pub entry: ZooEntry,
    /// The fine-tuned model, which holds the simulated base (foundation)
    /// model; see [`ZooModel::base`].
    pub tuned: AdaptedModel,
    /// Number of files in the fine-tuning dataset.
    pub dataset_rows: usize,
    /// Total characters in the fine-tuning dataset.
    pub dataset_chars: usize,
}

impl ZooModel {
    /// The simulated base (foundation) model.
    pub fn base(&self) -> &NgramModel {
        self.tuned.base()
    }
}

/// Trains zoo models from a single shared scrape, with FreeV's training
/// recipe (see [`crate::freev`]).
#[derive(Debug, Clone)]
pub struct ModelZoo {
    scraped: ScrapedCorpus,
    max_finetune_files: usize,
}

impl ModelZoo {
    /// Creates a zoo over a scraped corpus, fine-tuning on at most 1 500
    /// files per entry.
    pub fn new(scraped: ScrapedCorpus) -> Self {
        Self {
            scraped,
            max_finetune_files: 1_500,
        }
    }

    /// Limits the fine-tuning corpus size (keeps large-scale runs bounded).
    pub fn with_max_finetune_files(mut self, max: usize) -> Self {
        self.max_finetune_files = max.max(1);
        self
    }

    /// The shared scrape.
    pub fn scraped(&self) -> &ScrapedCorpus {
        &self.scraped
    }

    /// Builds the base model for an entry.
    pub fn build_base(&self, entry: &ZooEntry) -> NgramModel {
        let seed = stable_seed(&entry.base_name);
        let mut corpus = general_code_corpus(BASE_GENERAL_DOCUMENTS, seed);
        corpus.extend(
            self.scraped
                .sample_fraction(entry.base_verilog_fraction, seed ^ 0xB45E),
        );
        let train = TrainConfig {
            order: BASE_ORDER,
            ..Default::default()
        };
        NgramModel::train_named(entry.base_name.clone(), &corpus, &train)
    }

    /// Builds the base + fine-tuned pair for an entry.
    pub fn build(&self, entry: &ZooEntry) -> ZooModel {
        let base = self.build_base(entry);
        let dataset = curate_with_policy(&self.scraped, entry.policy.clone());
        // When the dataset exceeds the fine-tuning budget, take an evenly
        // spaced sample rather than a prefix so the corpus keeps its mix of
        // repositories (and, for unfiltered policies, its protected files).
        let stride = (dataset.len() / self.max_finetune_files).max(1);
        let corpus: Vec<String> = dataset
            .contents()
            .step_by(stride)
            .take(self.max_finetune_files)
            .map(str::to_string)
            .collect();
        let pretrain = TrainConfig {
            order: PRETRAIN_ORDER,
            ..Default::default()
        };
        let tuned = AdaptedModel::continual_pretrain(entry.name.clone(), base, &corpus, &pretrain);
        ZooModel {
            entry: entry.clone(),
            tuned,
            dataset_rows: dataset.len(),
            dataset_chars: dataset.total_chars(),
        }
    }
}

fn stable_seed(name: &str) -> u64 {
    // FNV-1a over the name keeps base-model corpora distinct but reproducible.
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ExperimentScale, FreeSetConfig};
    use hwlm::LanguageModel;

    #[test]
    fn zoo_entries_cover_the_papers_comparisons() {
        let all = ZooEntry::all();
        assert!(all.len() >= 6);
        let fig3 = ZooEntry::figure3();
        assert!(fig3.len() >= 5);
        assert!(ZooEntry::by_name("VeriGen").is_some());
        assert!(ZooEntry::by_name("FreeV-Llama3.1").is_some());
        assert!(ZooEntry::by_name("GPT-7").is_none());
        // Only FreeV checks per-file copyright.
        let copyright_checkers: Vec<_> = all
            .iter()
            .filter(|e| e.policy.check_file_copyright)
            .collect();
        assert_eq!(copyright_checkers.len(), 1);
        assert_eq!(copyright_checkers[0].name, "FreeV-Llama3.1");
    }

    #[test]
    fn zoo_builds_distinct_base_and_tuned_models() {
        let scraped = ScrapedCorpus::build(&FreeSetConfig::at_scale(&ExperimentScale::tiny()));
        let zoo = ModelZoo::new(scraped).with_max_finetune_files(200);
        let entry = ZooEntry::by_name("FreeV-Llama3.1").unwrap();
        let model = zoo.build(&entry);
        assert_eq!(LanguageModel::name(model.base()), entry.base_name);
        assert_eq!(LanguageModel::name(&model.tuned), "FreeV-Llama3.1");
        assert!(model.dataset_rows > 0);
        assert!(model.dataset_chars > 0);
        assert!(model.tuned.adapter_counts().trained_tokens() > 0);
        assert!(!zoo.scraped().is_empty());
    }

    #[test]
    fn different_policies_produce_different_dataset_sizes() {
        let scraped = ScrapedCorpus::build(&FreeSetConfig::at_scale(&ExperimentScale::tiny()));
        let zoo = ModelZoo::new(scraped);
        let verigen = zoo.build(&ZooEntry::by_name("VeriGen").unwrap());
        let freev = zoo.build(&ZooEntry::by_name("FreeV-Llama3.1").unwrap());
        assert!(
            verigen.dataset_rows > freev.dataset_rows,
            "the unfiltered VeriGen policy should keep more files ({} vs {})",
            verigen.dataset_rows,
            freev.dataset_rows
        );
    }
}
