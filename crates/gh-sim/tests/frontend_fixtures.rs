//! Pinned-snapshot fixtures over every synthetic generator family.
//!
//! The synth generators and the planted-defect catalogue exercise the full
//! grammar the corpus uses — parameterised headers, non-ANSI ports, FSMs,
//! memories, generate-style loops, every lint-relevant defect shape. The
//! generation recipes are seed-deterministic, so the fixture stores only
//! the frontend's *outputs* (parse verdicts and rendered lint diagnostics),
//! captured from the pre-arena frontend; every later refactor must
//! reproduce them byte-identically.
//!
//! Regenerate with `FFH_REGEN_FIXTURES=1 cargo test`.

use std::fmt::Write as _;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use gh_sim::{DefectKind, DesignKind, Synthesizer};
use verilog::{Linter, Parser};

/// Renders one generated source's parse verdict and lint diagnostics.
fn render_case(out: &mut String, name: &str, src: &str) {
    writeln!(out, "==== case {name}").unwrap();
    match Parser::parse_source(src) {
        Ok(modules) => {
            let names: Vec<String> = modules.iter().map(|m| m.name.to_string()).collect();
            writeln!(out, "parse: ok modules=[{}]", names.join(", ")).unwrap();
            let linter = Linter::new();
            let diags = linter.lint_modules(&modules);
            writeln!(out, "lint: {} findings", diags.len()).unwrap();
            for d in diags {
                writeln!(out, "  {d}").unwrap();
            }
        }
        Err(e) => writeln!(out, "parse: err {e}").unwrap(),
    }
}

fn check_snapshot(rel: &str, actual: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    if std::env::var_os("FFH_REGEN_FIXTURES").is_some() {
        std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("mkdir fixtures");
        std::fs::write(&path, actual).expect("write fixture");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); regenerate with FFH_REGEN_FIXTURES=1",
            path.display()
        )
    });
    assert_eq!(
        expected, actual,
        "frontend output diverged from the pinned pre-arena snapshot \
         ({rel}); if the change is intentional, regenerate with \
         FFH_REGEN_FIXTURES=1"
    );
}

#[test]
fn every_defect_kind_matches_pinned_oracle() {
    let mut out = String::new();
    for kind in DefectKind::ALL {
        let src = kind.source(&format!("defect_{}", kind.tag()));
        render_case(&mut out, &format!("defect_{}", kind.tag()), &src);
    }
    check_snapshot("tests/fixtures/oracle_defects.txt", &out);
}

#[test]
fn every_design_family_matches_pinned_oracle() {
    let synth = Synthesizer::new();
    let mut out = String::new();
    for kind in DesignKind::ALL {
        // Several seeds per family: the generators vary widths, coding
        // style (parameterised vs concrete, folded vs flat port lists) and
        // structure with the RNG.
        for seed in 0..5u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed * 31 + kind as u64);
            let design = synth.generate(kind, &format!("{}_{seed}", kind.tag()), &mut rng);
            render_case(
                &mut out,
                &format!("family_{}_{seed}", kind.tag()),
                &design.source,
            );
        }
    }
    check_snapshot("tests/fixtures/oracle_families.txt", &out);
}

#[test]
fn random_design_stream_matches_pinned_oracle() {
    let synth = Synthesizer::new();
    let mut rng = ChaCha8Rng::seed_from_u64(0xF00D);
    let mut out = String::new();
    for i in 0..40 {
        let design = synth.generate_random(&mut rng);
        render_case(
            &mut out,
            &format!("random_{i:02}_{}", design.kind.tag()),
            &design.source,
        );
    }
    check_snapshot("tests/fixtures/oracle_random_stream.txt", &out);
}
