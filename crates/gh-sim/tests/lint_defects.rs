//! Sensitivity and specificity of the semantic lint engine against the
//! synthetic corpus.
//!
//! Two directions:
//! * every planted defect ([`DefectKind`]) is caught by exactly the rule it
//!   plants — and nothing else fires on those sources;
//! * every clean generated design, across all families and many seeds, lints
//!   with zero findings (no false positives).

use gh_sim::{DefectKind, DesignKind, Synthesizer};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use verilog::{Linter, RuleId, SyntaxChecker};

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
