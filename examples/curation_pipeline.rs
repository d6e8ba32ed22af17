//! The dataset-curation pipeline, stage by stage (§III-B/C/D and §IV-A).
//!
//! ```text
//! cargo run --release --example curation_pipeline [--full]
//! ```
//!
//! Scrapes the simulated GitHub universe through the rate-limited,
//! result-capped search API, then runs the five curation stages (license,
//! dedup, syntax, lint and copyright) and prints the funnel next to the
//! paper's reported numbers. `--full` runs at the default (paper-shaped)
//! scale instead of the small one.

use free_fair_hw::freeset::config::ExperimentScale;
use free_fair_hw::freeset::experiments::funnel::FunnelExperiment;
use free_fair_hw::freeset::report::to_json_string;

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let scale = if full {
        ExperimentScale::paper_default()
    } else {
        ExperimentScale::small()
    };
    println!(
        "running the curation pipeline over {} simulated repositories…\n",
        scale.repo_count
    );
    let result = FunnelExperiment::run(&scale);

    println!("scraper statistics:");
    println!("  search queries issued : {}", result.scrape.queries_issued);
    println!(
        "  queries over the cap  : {}",
        result.scrape.queries_over_cap
    );
    println!(
        "  rate-limit waits      : {}",
        result.scrape.rate_limit_waits
    );
    println!(
        "  repositories cloned   : {}",
        result.scrape.repositories_cloned
    );
    println!(
        "  files seen / Verilog  : {} / {}",
        result.scrape.files_seen, result.scrape.verilog_files_extracted
    );
    println!();
    println!("universe ground truth (what was planted):");
    println!(
        "  duplicates            : {}",
        result.universe.planted_duplicates
    );
    println!(
        "  copyrighted files     : {}",
        result.universe.planted_copyright_files
    );
    println!(
        "  broken files          : {}",
        result.universe.planted_broken_files
    );
    println!();
    println!("{}", result.render_markdown());
    println!();
    println!(
        "machine-readable result:\n{}",
        to_json_string(&result.measured)
    );
}
