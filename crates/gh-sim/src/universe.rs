//! Deterministic generation of the synthetic repository universe.
//!
//! The universe is the stand-in for public GitHub. Its population is
//! calibrated so that every stage of the curation pipeline has realistic work
//! to do, with proportions chosen to land near the paper's funnel
//! (§IV-A):
//!
//! * roughly half of all Verilog files live in repositories without an
//!   accepted open-source license (paper: 1.3M → 608k after the license
//!   filter),
//! * a large majority of the surviving files are near-duplicates of popular
//!   "standard" modules copied from repo to repo (paper: LSH removes 62.5 %),
//! * about one percent of files carry a proprietary copyright header even
//!   though their repository claims an open license (paper: ~2k such files,
//!   from vendors such as Intel and Xilinx),
//! * a small fraction of files are syntactically broken.

use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::corruption::corrupt;
use crate::license::License;
use crate::repo::{FileKind, Repository, SourceFile};
use crate::synth::Synthesizer;

/// Configuration of the synthetic universe. The population's other
/// proportions are calibrated constants of this module.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UniverseConfig {
    /// Number of repositories to generate.
    pub repo_count: usize,
    /// RNG seed — the same seed always produces the identical universe.
    pub seed: u64,
    /// Probability that a Verilog file is a copy of a popular shared module
    /// rather than an original design.
    pub duplicate_fraction: f64,
}

impl Default for UniverseConfig {
    fn default() -> Self {
        Self {
            repo_count: 150,
            seed: 0xF5EE,
            duplicate_fraction: 0.58,
        }
    }
}

/// Fraction of repositories with no license at all.
const UNLICENSED_REPO_FRACTION: f64 = 0.46;

/// Fraction of repositories with an explicitly proprietary license.
const PROPRIETARY_REPO_FRACTION: f64 = 0.04;

/// Probability that a Verilog file inside an *open-source* repository
/// nevertheless carries a proprietary vendor copyright header.
const EMBEDDED_COPYRIGHT_FRACTION: f64 = 0.012;

/// Probability that a Verilog file is syntactically broken.
const BROKEN_FRACTION: f64 = 0.03;

/// Size of the shared pool of popular modules that get copied around.
const SHARED_POOL_SIZE: usize = 48;

/// Number of extremely large outlier files across the whole universe
/// (Figure 2 notes a >90M character outlier; ours are smaller but still
/// orders of magnitude above the median).
const HUGE_FILE_COUNT: usize = 2;

/// Summary statistics of a generated universe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct UniverseStats {
    /// Total repositories.
    pub repositories: usize,
    /// Repositories carrying an accepted open-source license.
    pub accepted_license_repositories: usize,
    /// Total files of any kind.
    pub total_files: usize,
    /// Total Verilog files.
    pub verilog_files: usize,
    /// Verilog files inside accepted-license repositories.
    pub verilog_files_in_licensed_repos: usize,
    /// Verilog files that were copied from the shared pool (planted
    /// duplicates).
    pub planted_duplicates: usize,
    /// Verilog files carrying an embedded proprietary copyright header inside
    /// an open-source repository.
    pub planted_copyright_files: usize,
    /// Verilog files that were deliberately corrupted.
    pub planted_broken_files: usize,
}

/// The synthetic GitHub universe.
///
/// # Example
///
/// ```
/// use gh_sim::{Universe, UniverseConfig};
///
/// let universe = Universe::generate(&UniverseConfig { repo_count: 20, seed: 1, ..Default::default() });
/// assert_eq!(universe.repositories().len(), 20);
/// assert!(universe.stats().verilog_files > 50);
/// ```
#[derive(Debug, Clone)]
pub struct Universe {
    config: UniverseConfig,
    repositories: Vec<Repository>,
    stats: UniverseStats,
}

const OWNERS: &[&str] = &[
    "fpga-hobbyist",
    "riscv-collective",
    "opencores-mirror",
    "chipforge",
    "hdl-union",
    "silicon-garage",
    "bitstream-labs",
    "logic-foundry",
    "async-circuits",
    "verilog-guild",
    "embedded-arts",
    "tapeout-club",
    "rtl-kitchen",
    "wavefront-eda",
    "gatelevel-io",
];

const VENDORS: &[&str] = &[
    "Intel Corporation",
    "Xilinx Inc.",
    "Altera Corporation",
    "Lattice Semiconductor",
    "Synopsys Inc.",
];

impl Universe {
    /// Generates a universe from its configuration. Deterministic in the
    /// seed.
    pub fn generate(config: &UniverseConfig) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        let synth = Synthesizer::new();

        // Shared pool of popular modules that will be copied into many
        // repositories (the raw material for the dedup stage).
        let pool: Vec<String> = (0..SHARED_POOL_SIZE)
            .map(|i| {
                let kind = synth.random_kind(&mut rng);
                synth
                    .generate(kind, &format!("{}_{i}", kind.tag()), &mut rng)
                    .source
            })
            .collect();

        let mut stats = UniverseStats::default();
        let mut repositories = Vec::with_capacity(config.repo_count);
        let mut huge_remaining = HUGE_FILE_COUNT;

        for id in 0..config.repo_count as u64 {
            let owner = OWNERS[rng.gen_range(0..OWNERS.len())].to_string();
            let project = format!("{}-{}", pick_project_word(&mut rng), id);
            let full_name = format!("{owner}/{project}");
            let created_year = sample_year(&mut rng);
            let license = sample_license(&mut rng);
            let stars = (rng.gen_range(0.0f64..4.0).exp() as u32).min(5000);

            let mut files = Vec::new();
            // Non-Verilog clutter: README, LICENSE, build scripts, binaries.
            files.push(SourceFile {
                path: "README.md".into(),
                content: format!("# {project}\n\nHardware blocks maintained by {owner}.\n"),
                kind: FileKind::Readme,
            });
            if license != License::None {
                files.push(SourceFile {
                    path: "LICENSE".into(),
                    content: license.header_text(&owner, created_year),
                    kind: FileKind::LicenseFile,
                });
            }
            for b in 0..rng.gen_range(0..4) {
                files.push(SourceFile {
                    path: format!("sim/dump_{b}.bin"),
                    content: "<binary waveform data>".into(),
                    kind: FileKind::Binary,
                });
            }
            if rng.gen_bool(0.6) {
                files.push(SourceFile {
                    path: "synth/constraints.xdc".into(),
                    content: "set_property PACKAGE_PIN W5 [get_ports clk]\n".into(),
                    kind: FileKind::Other,
                });
            }

            // Verilog payload.
            let file_count = sample_file_count(&mut rng);
            for file_index in 0..file_count {
                // Decide up front whether this file is a proprietary vendor
                // file hidden inside an open-source repository. Such files
                // are *distinctive* IP (their analogue here carries a unique
                // calibration ROM), never copies of the community pool, and
                // never corrupted — they are the reference set of the
                // copyright benchmark.
                let is_embedded_copyright =
                    license.is_accepted_open_source() && rng.gen_bool(EMBEDDED_COPYRIGHT_FRACTION);

                let (header, body, may_corrupt) = if is_embedded_copyright {
                    stats.planted_copyright_files += 1;
                    let vendor = VENDORS[rng.gen_range(0..VENDORS.len())];
                    let header = proprietary_vendor_header(vendor, created_year, &mut rng);
                    let body = vendor_proprietary_design(&synth, vendor, &mut rng);
                    (header, body, false)
                } else {
                    let is_duplicate = rng.gen_bool(config.duplicate_fraction);
                    let mut body = if is_duplicate {
                        stats.planted_duplicates += 1;
                        let base = pool.choose(&mut rng).expect("pool non-empty").clone();
                        maybe_lightly_edit(base, &mut rng)
                    } else {
                        synth.generate_random(&mut rng).source
                    };

                    // Rare gigantic file: replicate many bodies (vendor
                    // netlists and generated megafiles are the real-world
                    // analogue). Planted only in accepted-license repos so
                    // Figure 2's length-distribution outliers survive the
                    // curation funnel at every experiment scale.
                    if huge_remaining > 0 && license.is_accepted_open_source() && rng.gen_bool(0.05)
                    {
                        huge_remaining -= 1;
                        body = make_huge(&synth, &mut rng);
                    }

                    let header = if license == License::Proprietary {
                        License::Proprietary.header_text(&owner, created_year)
                    } else if license != License::None && rng.gen_bool(0.8) {
                        license.header_text(&owner, created_year)
                    } else {
                        String::new()
                    };
                    (header, body, true)
                };

                let mut content = format!("{header}{body}");
                if may_corrupt && rng.gen_bool(BROKEN_FRACTION) {
                    stats.planted_broken_files += 1;
                    content = corrupt(&content, &mut rng);
                }

                let dir = ["rtl", "src", "hdl", "cores"][rng.gen_range(0..4usize)];
                files.push(SourceFile::verilog(
                    format!("{dir}/design_{file_index}.v"),
                    content,
                ));
            }

            let repo = Repository {
                id,
                full_name,
                owner,
                created_year,
                license,
                stars,
                files,
            };
            stats.repositories += 1;
            if repo.has_accepted_license() {
                stats.accepted_license_repositories += 1;
                stats.verilog_files_in_licensed_repos += repo.verilog_file_count();
            }
            stats.total_files += repo.files.len();
            stats.verilog_files += repo.verilog_file_count();
            repositories.push(repo);
        }

        Self {
            config: *config,
            repositories,
            stats,
        }
    }

    /// Builds a universe from hand-constructed repositories, recomputing the
    /// derivable statistics (the `planted_*` counters stay zero: nothing was
    /// planted). This is how tests and custom workloads shape populations the
    /// generator cannot express — for example more than [`crate::api::SEARCH_RESULT_CAP`]
    /// repositories sharing one creation year and license, the configuration
    /// under which query granularisation provably cannot succeed.
    pub fn from_repositories(repositories: Vec<Repository>) -> Self {
        let mut stats = UniverseStats {
            repositories: repositories.len(),
            ..Default::default()
        };
        for repo in &repositories {
            if repo.has_accepted_license() {
                stats.accepted_license_repositories += 1;
                stats.verilog_files_in_licensed_repos += repo.verilog_file_count();
            }
            stats.total_files += repo.files.len();
            stats.verilog_files += repo.verilog_file_count();
        }
        Self {
            config: UniverseConfig {
                repo_count: repositories.len(),
                ..Default::default()
            },
            repositories,
            stats,
        }
    }

    /// The configuration used to generate the universe (nominal for
    /// universes built with [`Universe::from_repositories`]).
    pub fn config(&self) -> &UniverseConfig {
        &self.config
    }

    /// All repositories.
    pub fn repositories(&self) -> &[Repository] {
        &self.repositories
    }

    /// Looks up a repository by id.
    ///
    /// Generated universes assign `id == index`, making the lookup O(1) —
    /// this sits on the clone path of every scrape, where a linear scan made
    /// large universes quadratic. Hand-built universes with arbitrary ids
    /// fall back to a scan.
    pub fn repository(&self, id: u64) -> Option<&Repository> {
        if let Some(repo) = self.repositories.get(id as usize) {
            if repo.id == id {
                return Some(repo);
            }
        }
        self.repositories.iter().find(|r| r.id == id)
    }

    /// Generation statistics.
    pub fn stats(&self) -> UniverseStats {
        self.stats
    }
}

fn pick_project_word<R: Rng>(rng: &mut R) -> &'static str {
    const WORDS: &[&str] = &[
        "uart-core",
        "riscv-soc",
        "fifo-lib",
        "dsp-blocks",
        "crypto-engine",
        "video-pipeline",
        "can-controller",
        "ddr-phy",
        "axi-fabric",
        "neural-accel",
        "fpga-primitives",
        "sdram-ctrl",
        "i2c-suite",
        "pcie-bridge",
        "eth-mac",
    ];
    WORDS[rng.gen_range(0..WORDS.len())]
}

fn sample_year<R: Rng>(rng: &mut R) -> u32 {
    // GitHub opened in 2008; activity is weighted toward recent years (the
    // square root skews the uniform draw upward), which is why a stale 2021
    // snapshot misses a large share of today's corpus.
    let r: f64 = rng.gen::<f64>().sqrt();
    2008 + (r * 16.99) as u32
}

fn sample_license<R: Rng>(rng: &mut R) -> License {
    let roll: f64 = rng.gen();
    if roll < UNLICENSED_REPO_FRACTION {
        return License::None;
    }
    if roll < UNLICENSED_REPO_FRACTION + PROPRIETARY_REPO_FRACTION {
        return License::Proprietary;
    }
    // Weighted toward MIT/Apache/GPL like real GitHub.
    let open_roll: f64 = rng.gen();
    match open_roll {
        r if r < 0.30 => License::Mit,
        r if r < 0.50 => License::Apache2,
        r if r < 0.62 => License::Gpl3,
        r if r < 0.70 => License::Gpl2,
        r if r < 0.76 => License::Bsd3,
        r if r < 0.82 => License::Bsd2,
        r if r < 0.88 => License::Lgpl,
        r if r < 0.93 => License::Mpl2,
        r if r < 0.97 => License::CreativeCommons,
        _ => License::Eclipse,
    }
}

fn sample_file_count<R: Rng>(rng: &mut R) -> usize {
    // Log-normal-ish: most repos hold a handful of Verilog files, a few hold
    // dozens.
    let base: f64 = rng.gen_range(0.8f64..3.6).exp();
    base.round().clamp(1.0, 120.0) as usize
}

fn maybe_lightly_edit<R: Rng>(source: String, rng: &mut R) -> String {
    // Real-world copies often differ only in a banner comment or a tweaked
    // timestamp, which should still be caught by MinHash at 0.85.
    match rng.gen_range(0..4) {
        0 => source,
        1 => format!("// imported from a vendor reference design\n{source}"),
        2 => source.replace("\t", "    "),
        _ => format!("{source}\n// end of file\n"),
    }
}

fn make_huge<R: Rng>(synth: &Synthesizer, rng: &mut R) -> String {
    // Concatenate many generated modules, the way auto-generated netlists or
    // vendor megafiles look. Kept in the hundreds of kilobytes so the default
    // experiments stay fast while still being an extreme outlier.
    let copies = rng.gen_range(150..300);
    let mut out = String::new();
    for i in 0..copies {
        let kind = synth.random_kind(rng);
        out.push_str(
            &synth
                .generate(kind, &format!("{}_gen_{i}", kind.tag()), rng)
                .source,
        );
        out.push('\n');
    }
    out
}

/// Generates a distinctive proprietary design: an ordinary block followed by
/// a vendor calibration ROM full of unique magic constants. Real vendor IP is
/// exactly this kind of lexically-unique material — it cannot be confused
/// with community code by a similarity metric, and a language model can only
/// reproduce its constants if the file was in its training data.
fn vendor_proprietary_design<R: Rng>(synth: &Synthesizer, vendor: &str, rng: &mut R) -> String {
    let vendor_tag: String = vendor
        .split_whitespace()
        .next()
        .unwrap_or("vendor")
        .to_ascii_lowercase()
        .chars()
        .filter(|c| c.is_ascii_alphanumeric())
        .collect();
    let uid: u32 = rng.gen_range(0..1_000_000);
    let kind = synth.random_kind(rng);
    let front = synth
        .generate(kind, &format!("{vendor_tag}_{}_{uid}", kind.tag()), rng)
        .source;
    let entries = rng.gen_range(16..40);
    let mut rom = format!(
        "module {vendor_tag}_calib_rom_{uid}(input [5:0] addr, output reg [31:0] data);\n\
         always @* begin\n\tcase (addr)\n"
    );
    for i in 0..entries {
        rom.push_str(&format!(
            "\t\t6'd{i}: data = 32'h{:08X};\n",
            rng.gen::<u32>()
        ));
    }
    rom.push_str("\t\tdefault: data = 32'h00000000;\n\tendcase\nend\nendmodule\n");
    format!("{front}\n{rom}")
}

fn proprietary_vendor_header<R: Rng>(vendor: &str, year: u32, rng: &mut R) -> String {
    let mut header = format!(
        "// Copyright (C) {year} {vendor}. All rights reserved.\n\
         // This design is PROPRIETARY and CONFIDENTIAL to {vendor}.\n\
         // Unauthorized reproduction or distribution is strictly prohibited.\n"
    );
    if rng.gen_bool(0.15) {
        // The paper reports finding "possible encryption keys and other
        // critical information" in such files.
        header.push_str(&format!(
            "// encryption_key = 0x{:016x}{:016x}\n",
            rng.gen::<u64>(),
            rng.gen::<u64>()
        ));
    }
    header
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> UniverseConfig {
        UniverseConfig {
            repo_count: 60,
            seed: 42,
            ..Default::default()
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Universe::generate(&small_config());
        let b = Universe::generate(&small_config());
        assert_eq!(a.repositories(), b.repositories());
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn different_seeds_differ() {
        let a = Universe::generate(&small_config());
        let b = Universe::generate(&UniverseConfig {
            seed: 43,
            ..small_config()
        });
        assert_ne!(a.repositories(), b.repositories());
    }

    #[test]
    fn stats_are_consistent_with_contents() {
        let u = Universe::generate(&small_config());
        let s = u.stats();
        assert_eq!(s.repositories, 60);
        let verilog: usize = u
            .repositories()
            .iter()
            .map(|r| r.verilog_file_count())
            .sum();
        assert_eq!(verilog, s.verilog_files);
        let accepted = u
            .repositories()
            .iter()
            .filter(|r| r.has_accepted_license())
            .count();
        assert_eq!(accepted, s.accepted_license_repositories);
        assert!(s.verilog_files_in_licensed_repos <= s.verilog_files);
    }

    #[test]
    fn population_mix_covers_every_filter_stage() {
        let u = Universe::generate(&UniverseConfig {
            repo_count: 200,
            seed: 7,
            ..Default::default()
        });
        let s = u.stats();
        assert!(s.planted_duplicates > 0, "no duplicates planted");
        assert!(
            s.planted_copyright_files > 0,
            "no copyrighted files planted"
        );
        assert!(s.planted_broken_files > 0, "no broken files planted");
        assert!(
            s.accepted_license_repositories < s.repositories,
            "every repository is licensed — the license filter would be a no-op"
        );
        // Roughly half of the corpus should survive the license filter, as in
        // the paper's 1.3M -> 608k reduction.
        let ratio = s.verilog_files_in_licensed_repos as f64 / s.verilog_files as f64;
        assert!(
            (0.25..=0.80).contains(&ratio),
            "licensed-file ratio {ratio} is far from the paper's ~0.47"
        );
    }

    #[test]
    fn licensed_repos_have_license_files() {
        let u = Universe::generate(&small_config());
        for repo in u.repositories() {
            if repo.license != License::None {
                assert!(
                    repo.files.iter().any(|f| f.kind == FileKind::LicenseFile),
                    "repo {} has license {} but no LICENSE file",
                    repo.full_name,
                    repo.license
                );
            }
        }
    }

    #[test]
    fn repository_lookup_by_id() {
        let u = Universe::generate(&small_config());
        assert!(u.repository(0).is_some());
        assert!(u.repository(59).is_some());
        assert!(u.repository(60).is_none());
        assert_eq!(u.config().repo_count, 60);
    }

    #[test]
    fn hand_built_universes_recompute_stats() {
        let repos: Vec<Repository> = (0..5u64)
            .map(|id| Repository {
                id,
                full_name: format!("o/r{id}"),
                owner: "o".into(),
                created_year: 2015,
                license: if id % 2 == 0 {
                    License::Mit
                } else {
                    License::None
                },
                stars: 1,
                files: vec![SourceFile::verilog("a.v", "module m; endmodule")],
            })
            .collect();
        let u = Universe::from_repositories(repos);
        let s = u.stats();
        assert_eq!(s.repositories, 5);
        assert_eq!(s.verilog_files, 5);
        assert_eq!(s.accepted_license_repositories, 3);
        assert_eq!(s.verilog_files_in_licensed_repos, 3);
        assert_eq!(s.planted_duplicates, 0);
        assert!(u.repository(4).is_some());
        assert!(u.repository(5).is_none());
    }

    #[test]
    fn lookup_falls_back_for_non_sequential_ids() {
        let repo = Repository {
            id: 40,
            full_name: "o/r40".into(),
            owner: "o".into(),
            created_year: 2015,
            license: License::Mit,
            stars: 0,
            files: vec![],
        };
        let u = Universe::from_repositories(vec![repo]);
        assert_eq!(u.repository(40).unwrap().full_name, "o/r40");
        assert!(u.repository(0).is_none());
    }

    #[test]
    fn created_years_are_in_github_era() {
        let u = Universe::generate(&small_config());
        for repo in u.repositories() {
            assert!((2008..=2025).contains(&repo.created_year));
        }
    }
}
