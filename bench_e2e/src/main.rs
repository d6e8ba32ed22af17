//! Runs one workload of the end-to-end benchmark and prints its metrics.
//!
//! ```text
//! cargo run --release --manifest-path bench_e2e/Cargo.toml -- \
//!     --workload <build-dup|build-unique|verilogeval> \
//!     --seed <u64> --seconds <n> --trace <0|1>
//! ```
//!
//! Prints one `FFH-METRIC` line per metric, then a JSON result line. Exits
//! non-zero if any pass failed its output check or a listed metric is
//! missing. With `--trace 1` the first traced pass's spans are written to
//! `$CARGO_TARGET_DIR/bench_e2e/<workload>-<seed>.trace.json` (`target/` when
//! the variable is unset).

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use bench_e2e::run::Options;
use bench_e2e::spec::{required, result_json, END_TO_END, PER_LAYER};
use bench_e2e::trace::trace_json;
use bench_e2e::workloads::Named;

const USAGE: &str = "usage: bench_e2e --workload <name> --seed <u64> --seconds <n> --trace <0|1>";

struct Args {
    workload: String,
    named: Named,
    options: Options,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let slot = match flag.as_str() {
            "--workload" => &mut workload,
            "--seed" => &mut seed,
            "--seconds" => &mut seconds,
            "--trace" => &mut trace,
            _ => return Err(format!("unknown argument {flag}")),
        };
        *slot = Some(value);
    }
    let workload = workload.ok_or("--workload is required")?;
    let named = Named::from_name(&workload).ok_or(format!("unknown workload {workload}"))?;
    let number = |value: Option<String>, flag: &str| -> Result<u64, String> {
        value
            .ok_or(format!("{flag} is required"))?
            .parse()
            .map_err(|e| format!("{flag}: {e}"))
    };
    let seed = number(seed, "--seed")?;
    let seconds = number(seconds, "--seconds")?;
    let trace = match trace.as_deref() {
        Some("0") => false,
        Some("1") => true,
        _ => return Err("--trace takes 0 or 1".into()),
    };
    Ok(Args {
        workload,
        named,
        options: Options {
            seed,
            window: Duration::from_secs(seconds),
            trace,
        },
    })
}

fn trace_path(workload: &str, seed: u64) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    PathBuf::from(target)
        .join("bench_e2e")
        .join(format!("{workload}-{seed}.trace.json"))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = args.named.run(&args.options);
    let mut ok = outcome.failed == 0;

    if let Some(recorder) = &outcome.first_trace {
        let path = trace_path(&args.workload, args.options.seed);
        let json = trace_json(&args.workload, args.options.seed, recorder);
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, json));
        if let Err(e) = written {
            eprintln!("cannot write {}: {e}", path.display());
            ok = false;
        }
    }

    let specs = if args.options.trace {
        PER_LAYER
    } else {
        END_TO_END
    };
    let metrics = required(specs, &outcome.values).unwrap_or_else(|missing| {
        eprintln!("metrics not emitted: {}", missing.join(", "));
        ok = false;
        Vec::new()
    });
    for (spec, value) in &metrics {
        println!(
            "{}",
            bench::format_metric("bench_e2e", &args.workload, spec.name, *value, spec.unit)
        );
    }
    println!(
        "{}",
        result_json(
            outcome.failed == 0,
            outcome.attempted,
            outcome.failed,
            &metrics
        )
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
