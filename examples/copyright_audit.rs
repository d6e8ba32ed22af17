//! The hardware copyright-infringement benchmark (§III-A, Figure 3).
//!
//! ```text
//! cargo run --release --example copyright_audit [--full]
//! ```
//!
//! Builds the copyright-protected reference set by scanning the scraped
//! corpus, trains each base/fine-tuned model pair of the paper's Figure 3
//! under its own curation policy, and prints the measured violation rates
//! next to the paper's.

use free_fair_hw::copyright_bench::BenchmarkConfig;
use free_fair_hw::freeset::config::ExperimentScale;
use free_fair_hw::freeset::experiments::fig3::Fig3Experiment;

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let scale = if full {
        ExperimentScale::paper_default()
    } else {
        ExperimentScale::small()
    };
    println!(
        "evaluating copyright regurgitation across the model zoo ({} repositories)…\n",
        scale.repo_count
    );
    let result = Fig3Experiment::run_with(&scale, BenchmarkConfig::default(), 1_500);
    println!("{}", result.render_markdown());

    // Highlight the paper's headline claims.
    if let (Some(freev), Some(verigen)) = (result.row("FreeV-Llama3.1"), result.row("VeriGen")) {
        println!();
        println!(
            "FreeV violation rate {:.1}% (base {:.1}%) — the lowest of every fine-tuned model.",
            freev.measured_tuned_percent, freev.measured_base_percent
        );
        println!(
            "VeriGen-style unfiltered fine-tuning moves its base from {:.1}% to {:.1}%.",
            verigen.measured_base_percent, verigen.measured_tuned_percent
        );
    }
    println!();
    println!("machine-readable result:\n{}", result.render_json());
}
