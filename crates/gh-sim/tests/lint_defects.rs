//! Sensitivity and specificity of the semantic lint engine against the
//! synthetic corpus.
//!
//! Two directions:
//! * every planted defect ([`DefectKind`]) is caught by exactly the rule it
//!   plants — and nothing else fires on those sources;
//! * every clean generated design, across all families and many seeds, lints
//!   with zero findings (no false positives).
//!
//! The lint gate's predicate, [`Linter::has_error`], must also answer what
//! the full diagnostic list does, on every family with every defect planted
//! and on near-miss mutations of random designs.

use gh_sim::{DefectKind, DesignKind, Synthesizer};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use verilog::{Linter, ParsedFile, RuleId, Severity, SyntaxChecker};

#[test]
fn planted_defects_are_syntactically_valid() {
    let checker = SyntaxChecker::new();
    for kind in DefectKind::ALL {
        let source = kind.source(&format!("bad_{}", kind.tag()));
        assert!(
            checker.is_valid(&source),
            "defect {kind:?} must still parse:\n{source}"
        );
    }
}

#[test]
fn each_defect_triggers_exactly_its_rule() {
    let linter = Linter::new();
    for kind in DefectKind::ALL {
        let source = kind.source(&format!("bad_{}", kind.tag()));
        let diags = linter
            .lint_source(&source)
            .unwrap_or_else(|e| panic!("defect {kind:?} does not parse: {e}"));
        assert!(
            !diags.is_empty(),
            "defect {kind:?} was not caught:\n{source}"
        );
        for d in &diags {
            assert_eq!(
                d.rule,
                kind.expected_rule(),
                "defect {kind:?} triggered unexpected rule {}: {d}\n{source}",
                d.rule.id()
            );
        }
        assert_eq!(
            diags.len(),
            1,
            "defect {kind:?} fired {} times, expected once:\n{}",
            diags.len(),
            diags
                .iter()
                .map(|d| format!("  {d}"))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}

#[test]
fn every_lint_rule_has_a_planted_defect() {
    // The defect set must exercise the whole rule catalogue, so a new rule
    // without a planted counterexample fails this test.
    let covered: std::collections::HashSet<RuleId> =
        DefectKind::ALL.iter().map(|d| d.expected_rule()).collect();
    for rule in RuleId::ALL {
        assert!(
            covered.contains(&rule),
            "rule {} has no planted defect",
            rule.id()
        );
    }
}

#[test]
fn clean_designs_never_trigger_generation_2_rules() {
    // The clock/case/cross-module passes are heuristic; sweep every design
    // family across more seeds than the zero-findings test to pin down
    // that none of the six new rules ever false-positives on clean output.
    const NEW_RULES: [RuleId; 6] = [
        RuleId::UnsynchronizedCdc,
        RuleId::MixedClockEdge,
        RuleId::AsyncResetPolarity,
        RuleId::MixedResetStyle,
        RuleId::CaseArmOverlap,
        RuleId::PortWidthMismatch,
    ];
    let synth = Synthesizer::new();
    let linter = Linter::new();
    for kind in DesignKind::ALL {
        let mut rng = ChaCha8Rng::seed_from_u64(0xD0_5EED ^ kind as u64);
        for trial in 0..32 {
            let d = synth.generate(kind, &format!("{}_g2_{trial}", kind.tag()), &mut rng);
            let diags = linter
                .lint_source(&d.source)
                .unwrap_or_else(|e| panic!("{kind:?} trial {trial} does not parse: {e}"));
            let offending: Vec<_> = diags
                .iter()
                .filter(|d| NEW_RULES.contains(&d.rule))
                .collect();
            assert!(
                offending.is_empty(),
                "generation-2 false positive on clean {kind:?} trial {trial}:\n{}\n{}",
                offending
                    .iter()
                    .map(|d| format!("  {d}"))
                    .collect::<Vec<_>>()
                    .join("\n"),
                d.source
            );
        }
    }
}

#[test]
fn clean_designs_have_zero_findings() {
    let synth = Synthesizer::new();
    let linter = Linter::new();
    for kind in DesignKind::ALL {
        let mut rng = ChaCha8Rng::seed_from_u64(0xC0FFEE);
        for trial in 0..12 {
            let d = synth.generate(kind, &format!("{}_{trial}", kind.tag()), &mut rng);
            let diags = linter
                .lint_source(&d.source)
                .unwrap_or_else(|e| panic!("{kind:?} trial {trial} does not parse: {e}"));
            assert!(
                diags.is_empty(),
                "false positive on clean {kind:?} trial {trial}:\n{}\n{}",
                diags
                    .iter()
                    .map(|d| format!("  {d}"))
                    .collect::<Vec<_>>()
                    .join("\n"),
                d.source
            );
        }
    }
}

/// Whether `source` has an error-severity finding, asserting that
/// [`Linter::has_error`] agrees with [`Linter::lint_parsed`]; `None` when it
/// does not parse.
fn has_error_agreeing_with_lint_parsed(source: &str) -> Option<bool> {
    let parsed = ParsedFile::parse(source).ok()?;
    let linter = Linter::new();
    let any_error = linter
        .lint_parsed(&parsed)
        .iter()
        .any(|d| d.severity >= Severity::Error);
    assert_eq!(
        linter.has_error(&parsed),
        any_error,
        "has_error disagrees with lint_parsed on:\n{source}"
    );
    Some(any_error)
}

#[test]
fn has_error_agrees_on_every_family_with_every_defect_planted() {
    let synth = Synthesizer::new();
    let mut rng = ChaCha8Rng::seed_from_u64(0x4A5_E880);
    for design in DesignKind::ALL {
        let host = synth.generate(design, &format!("{}_host", design.tag()), &mut rng);
        assert_eq!(
            has_error_agreeing_with_lint_parsed(&host.source),
            Some(false)
        );
        for defect in DefectKind::ALL {
            let planted = defect.source(&format!("bad_{}", defect.tag()));
            let errs = defect.expected_rule().default_severity() >= Severity::Error;
            // Planted after the clean design, the defect's error (if its
            // rule has one) is the only one, in a later module.
            for source in [
                format!("{}{planted}", host.source),
                format!("{planted}{}", host.source),
            ] {
                assert_eq!(
                    has_error_agreeing_with_lint_parsed(&source),
                    Some(errs),
                    "{design:?} with {defect:?} planted:\n{source}"
                );
            }
        }
    }
}

#[test]
fn has_error_agrees_on_mutated_random_designs() {
    // Random designs with one line deleted, duplicated or swapped with
    // another: near-miss Verilog, much of which still parses and errs.
    let synth = Synthesizer::new();
    let mut rng = ChaCha8Rng::seed_from_u64(0x4A5_3A7E);
    let (mut parsed, mut erring) = (0, 0);
    for _ in 0..400 {
        let source = synth.generate_random(&mut rng).source;
        let mut lines: Vec<&str> = source.lines().collect();
        let i = rng.gen_range(0..lines.len());
        match rng.gen_range(0..3) {
            0 => {
                lines.remove(i);
            }
            1 => lines.insert(i, lines[i]),
            _ => {
                let j = rng.gen_range(0..lines.len());
                lines.swap(i, j);
            }
        }
        if let Some(errs) = has_error_agreeing_with_lint_parsed(&lines.join("\n")) {
            parsed += 1;
            erring += usize::from(errs);
        }
    }
    assert!(
        erring >= 20 && parsed - erring >= 20,
        "the mutations reach too few of each verdict: {erring} erring of {parsed} parsed"
    );
}
