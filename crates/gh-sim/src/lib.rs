//! Simulated GitHub substrate for the Free and Fair Hardware reproduction.
//!
//! The paper's dataset curation framework scrapes ~50k public GitHub
//! repositories (1.3 million Verilog files) through the GitHub REST API,
//! working around its 1 000-results-per-query cap and rate limits by
//! granularising queries over repository creation dates and licenses
//! (§III-B). Reproducing that requires a GitHub: this crate provides one.
//!
//! * [`synth`] procedurally generates realistic Verilog designs (ALUs,
//!   counters, FIFOs, FSMs, UARTs, register files, …) so that the corpus has
//!   real structure for the parser, de-duplicator and language model to work
//!   on.
//! * [`Universe`] builds a deterministic population of repositories with a
//!   calibrated mix of licenses, unlicensed repositories, proprietary
//!   copyright headers hidden inside "open-source" repositories, heavy
//!   file duplication and syntactically broken files — each of which one of
//!   the curation stages must catch.
//! * [`GithubApi`] exposes that universe behind a thread-safe search/clone
//!   API that enforces the same pagination cap and rate-limiting behaviour
//!   the real API does; [`Scraper`] is the paper's query-granularisation
//!   client. It runs serially on the calling thread, and
//!   [`fetch::FetchEngine::run_streaming`] streams its clone phase, one
//!   repository per pull, into a consumer such as a curation session.
//!
//! # Example
//!
//! ```
//! use gh_sim::{Universe, UniverseConfig, GithubApi, Scraper};
//!
//! let universe = Universe::generate(&UniverseConfig { repo_count: 40, seed: 7, ..Default::default() });
//! let api = GithubApi::new(&universe);
//! let scrape = Scraper::new().run(&api)?;
//! assert!(scrape.files.len() > 100);
//! # Ok::<(), gh_sim::ApiError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod corruption;
pub mod fetch;
pub mod license;
pub mod repo;
pub mod scraper;
pub mod synth;
pub mod universe;

pub use api::{ApiError, ApiUsage, GithubApi, RepoQuery, SearchPage};
pub use fetch::{FetchBatch, FetchConfig, FetchEngine};
pub use license::License;
pub use repo::{ExtractedFile, FileKind, Repository, SourceFile};
pub use scraper::{ScrapeOutput, ScrapeReport, Scraper, ScraperConfig};
pub use synth::{DefectKind, DesignKind, GeneratedDesign, Synthesizer};
pub use universe::{Universe, UniverseConfig, UniverseStats};
