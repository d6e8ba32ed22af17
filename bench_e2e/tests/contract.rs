//! `BENCHMARK.json` must be exactly what the benchmark's own tables render,
//! so its names, units, bounds and workloads cannot drift from the code
//! that emits them. Set `FFH_REGEN_FIXTURES=1` to rewrite it from the tables.

use std::path::PathBuf;

use bench_e2e::spec::{benchmark_json, COMMAND, PATHS, WORKLOADS};
use bench_e2e::workloads::Named;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..")
}

#[test]
fn benchmark_json_is_rendered_from_the_spec() {
    let path = repo_root().join("BENCHMARK.json");
    if std::env::var_os("FFH_REGEN_FIXTURES").is_some() {
        std::fs::write(&path, benchmark_json()).expect("BENCHMARK.json is writable");
    }
    let on_disk = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        on_disk,
        benchmark_json(),
        "BENCHMARK.json differs from bench_e2e::spec; rerun with FFH_REGEN_FIXTURES=1"
    );
}

#[test]
fn the_command_builds_this_package_from_the_listed_paths() {
    let manifest = COMMAND
        .iter()
        .skip_while(|arg| **arg != "--manifest-path")
        .nth(1)
        .expect("the command names the manifest");
    assert!(PATHS.iter().any(|p| manifest.starts_with(&format!("{p}/"))));
    assert_eq!(
        std::fs::canonicalize(repo_root().join(manifest)).expect("manifest exists"),
        std::fs::canonicalize(PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("Cargo.toml"))
            .expect("own manifest")
    );
}

#[test]
fn every_listed_workload_runs_by_name() {
    for workload in WORKLOADS {
        assert!(
            Named::from_name(workload.name).is_some(),
            "{}",
            workload.name
        );
    }
    assert!(Named::from_name("all").is_none());
}
