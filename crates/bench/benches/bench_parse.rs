//! Benchmarks the arena-allocating Verilog frontend: lexing throughput
//! (tokens/sec) and end-to-end parse throughput (files/sec, serial vs
//! parallel) over a small/large file mix.
//! Every run re-asserts the frontend contracts: the first-byte-dispatched
//! operator table lexes every operator to its own token, and parallel parse
//! output is identical to serial.
//!
//! With `FFH_BENCH_FAST=1` only the tiny-scale artefact/metric pass runs
//! (no Criterion timing loops) — CI uses this to fail the build if any
//! `FFH-METRIC` line ever disappears.

use std::time::Instant;

use bench::{fast_mode, print_artifact, print_metric};
use criterion::{black_box, Criterion};
use gh_sim::{DesignKind, SynthConfig, Synthesizer};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;
use verilog::{Lexer, Op, Parser, TokenKind};

/// The lexer's operator dispatch table, verified head-on: every multi-char
/// operator (longest-first table scanned by first byte) and every
/// single-char operator (direct byte dispatch) must lex to exactly its own
/// token. This pins the greedy longest-match behaviour — `<<<` is one
/// arithmetic shift, not `<<` + `<`.
fn assert_operator_dispatch() {
    for &op in Op::MULTI_CHAR {
        let lexed = Lexer::new(op.as_str()).tokenize().expect("operator lexes");
        assert_eq!(
            lexed.tokens.len(),
            1,
            "`{op}` must lex to exactly one token"
        );
        assert_eq!(
            lexed.tokens[0].kind,
            TokenKind::Op(op),
            "`{op}` split apart"
        );
    }
    let singles: Vec<Op> = (0u8..=255).filter_map(Op::from_single).collect();
    assert!(singles.len() >= 25, "single-char dispatch table shrank");
    for op in singles {
        let lexed = Lexer::new(op.as_str()).tokenize().expect("operator lexes");
        assert_eq!(lexed.tokens[0].kind, TokenKind::Op(op));
    }
}

/// A corpus mixing many small single-module files with a few large
/// concatenated multi-module files — the shape of scraped traffic.
fn corpus(small: usize, large: usize) -> Vec<String> {
    let synth = Synthesizer::new(SynthConfig::default());
    let mut rng = ChaCha8Rng::seed_from_u64(0xB1A5);
    let mut files = Vec::with_capacity(small + large);
    for i in 0..small {
        let kind = DesignKind::ALL[i % DesignKind::ALL.len()];
        files.push(
            synth
                .generate(kind, &format!("{}_{i}", kind.tag()), &mut rng)
                .source,
        );
    }
    for i in 0..large {
        let mut blob = String::new();
        for j in 0..30 {
            let kind = DesignKind::ALL[(i + j) % DesignKind::ALL.len()];
            blob.push_str(
                &synth
                    .generate(kind, &format!("big{i}_{}_{j}", kind.tag()), &mut rng)
                    .source,
            );
            blob.push('\n');
        }
        files.push(blob);
    }
    files
}

/// Wall-clock seconds for one invocation of `pass`.
fn time_once<F: FnOnce() -> usize>(pass: F) -> (f64, usize) {
    let start = Instant::now();
    let work = pass();
    (start.elapsed().as_secs_f64().max(f64::EPSILON), work)
}

fn report_scale(label: &str, files: &[String]) {
    let total = files.len();
    let reps = 7;

    // The three timed passes run interleaved, best-of-N each: a system-wide
    // slowdown mid-run then penalises every pass equally instead of
    // skewing whichever one it happened to land on.
    let mut lex_secs = f64::INFINITY;
    let mut tokens = 0usize;
    let mut serial_secs = f64::INFINITY;
    let mut parallel_secs = f64::INFINITY;
    for _ in 0..reps {
        // Pure lexing: tokens/sec over the zero-copy lexer.
        let (secs, work) = time_once(|| {
            files
                .iter()
                .map(|f| Lexer::new(f).tokenize().map_or(0, |l| l.tokens.len()))
                .sum()
        });
        lex_secs = lex_secs.min(secs);
        tokens = work;

        // End-to-end lex + parse, serial.
        let (secs, _) = time_once(|| {
            files
                .iter()
                .map(|f| Parser::parse_source(f).map_or(0, |m| m.len()))
                .sum()
        });
        serial_secs = serial_secs.min(secs);

        // End-to-end lex + parse, parallel.
        let (secs, _) = time_once(|| {
            files
                .par_iter()
                .map(|f| Parser::parse_source(f).map_or(0, |m| m.len()))
                .collect::<Vec<_>>()
                .into_iter()
                .sum()
        });
        parallel_secs = parallel_secs.min(secs);
    }

    // Parallel parse output must agree with serial exactly.
    let serial_modules: Vec<_> = files.iter().map(|f| Parser::parse_source(f)).collect();
    let parallel_modules: Vec<_> = files.par_iter().map(|f| Parser::parse_source(f)).collect();
    assert_eq!(
        format!("{serial_modules:?}"),
        format!("{parallel_modules:?}"),
        "parallel parse diverged from serial"
    );

    print_artifact(
        &format!("Verilog frontend at scale `{label}`"),
        &format!(
            "{total} files, {tokens} tokens: lex {:.2}M tokens/sec; \
             parse serial {:.0} files/sec, parallel {:.0} files/sec — outputs byte-identical",
            tokens as f64 / lex_secs / 1.0e6,
            total as f64 / serial_secs,
            total as f64 / parallel_secs,
        ),
    );

    print_metric("bench_parse", label, "files", total as f64, "files");
    print_metric("bench_parse", label, "tokens", tokens as f64, "tokens");
    print_metric(
        "bench_parse",
        label,
        "lex_tokens_per_sec",
        tokens as f64 / lex_secs,
        "tokens_per_sec",
    );
    print_metric(
        "bench_parse",
        label,
        "files_per_sec",
        total as f64 / serial_secs,
        "files_per_sec",
    );
    print_metric(
        "bench_parse",
        label,
        "parallel_files_per_sec",
        total as f64 / parallel_secs,
        "files_per_sec",
    );
}

fn bench_modes(c: &mut Criterion, label: &str, files: &[String]) {
    let mut group = c.benchmark_group(format!("parse_{label}"));
    group.sample_size(10);
    group.bench_function("lex_serial", |b| {
        b.iter(|| {
            black_box(
                files
                    .iter()
                    .map(|f| {
                        Lexer::new(black_box(f))
                            .tokenize()
                            .map_or(0, |l| l.tokens.len())
                    })
                    .sum::<usize>(),
            )
        })
    });
    group.bench_function("parse_serial", |b| {
        b.iter(|| {
            black_box(
                files
                    .iter()
                    .map(|f| Parser::parse_source(black_box(f)).map_or(0, |m| m.len()))
                    .sum::<usize>(),
            )
        })
    });
    group.bench_function("parse_parallel", |b| {
        b.iter(|| {
            black_box(
                files
                    .par_iter()
                    .map(|f| Parser::parse_source(black_box(f)).map_or(0, |m| m.len()))
                    .collect::<Vec<_>>()
                    .into_iter()
                    .sum::<usize>(),
            )
        })
    });
    group.finish();
}

fn main() {
    assert_operator_dispatch();

    let scales: Vec<(&str, usize, usize)> = if fast_mode() {
        vec![("tiny", 120, 4)]
    } else {
        vec![("tiny", 120, 4), ("small", 600, 20)]
    };
    let mut criterion = Criterion::default().configure_from_args();
    for (label, small, large) in &scales {
        let files = corpus(*small, *large);
        report_scale(label, &files);
        if !fast_mode() {
            bench_modes(&mut criterion, label, &files);
        }
    }
    if !fast_mode() {
        criterion.final_summary();
    }
}
