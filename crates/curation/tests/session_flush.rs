//! Integration tests for a `CurationSession` that flushes more than once:
//! pushed files are coalesced into 256 KiB batches before the streaming
//! stage prefix runs, so a corpus several times that size, pushed one
//! repository at a time, must run the prefix a few times before `finish`,
//! once more inside it, and still equal the one-shot run byte for byte. A
//! custom stage whose stream fails must surface the error from the push that
//! runs the failing flush, from `finish` when only the final flush fails,
//! and from `try_session` and `try_run` when the stream cannot open.

use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use curation::{
    CurationConfig, CurationPipeline, CurationStage, FileBatch, StageOutcome, StageStream,
    StageStreaming,
};
use gh_sim::{ExtractedFile, GithubApi, License, Scraper, Universe, UniverseConfig};

/// The session's flush budget, as its docs state it.
const FLUSH_BYTES: usize = 256 * 1024;

fn corpus(repos: usize, seed: u64) -> Vec<ExtractedFile> {
    let universe = Universe::generate(&UniverseConfig {
        repo_count: repos,
        seed,
        ..Default::default()
    });
    let api = GithubApi::new(&universe);
    Scraper::new().run(&api).expect("scrape").files
}

fn content_bytes(files: &[ExtractedFile]) -> usize {
    files.iter().map(|f| f.content.len()).sum()
}

/// Splits a scraped corpus into one batch per repository, the shape the
/// fetch engine delivers.
fn per_repository(files: &[ExtractedFile]) -> Vec<Vec<ExtractedFile>> {
    files
        .chunk_by(|a, b| a.repo_id == b.repo_id)
        .map(<[ExtractedFile]>::to_vec)
        .collect()
}

/// A pass-through stage whose stateful stream counts the batches it is fed,
/// i.e. how many times the session ran its streaming prefix.
struct CountFlushes(Arc<AtomicUsize>);

impl CurationStage for CountFlushes {
    fn name(&self) -> &str {
        "count-flushes"
    }

    fn apply(&self, batch: FileBatch) -> StageOutcome {
        StageOutcome::keep_all(batch.into_files())
    }

    fn open_stream(&self) -> io::Result<StageStreaming> {
        Ok(StageStreaming::Stateful(Box::new(FlushCounter(
            Arc::clone(&self.0),
        ))))
    }
}

struct FlushCounter(Arc<AtomicUsize>);

impl StageStream for FlushCounter {
    fn push(&mut self, batch: FileBatch) -> io::Result<StageOutcome> {
        self.0.fetch_add(1, Ordering::Relaxed);
        Ok(StageOutcome::keep_all(batch.into_files()))
    }
}

#[test]
fn per_repository_pushes_flush_several_times_and_equal_one_shot() {
    let files = corpus(150, 23);
    let bytes = content_bytes(&files);
    assert!(
        bytes >= 3 * FLUSH_BYTES,
        "the corpus holds {bytes} bytes, too few for three flushes"
    );
    let flushes = Arc::new(AtomicUsize::new(0));
    let pipeline = CurationPipeline::new(CurationConfig::freeset())
        .with_stage(Box::new(CountFlushes(Arc::clone(&flushes))));
    let mut session = pipeline.session();
    assert_eq!(
        session.streaming_stage_count(),
        6,
        "the five FreeSet stages and the counter all stream"
    );
    let batches = per_repository(&files);
    for batch in &batches {
        session.push(batch.clone()).expect("push succeeds");
    }
    let before_finish = flushes.load(Ordering::Relaxed);
    assert!(
        before_finish >= 3,
        "{} pushes of {bytes} bytes ran the prefix only {before_finish} times",
        batches.len()
    );
    assert!(
        before_finish <= bytes / FLUSH_BYTES,
        "{before_finish} flushes of {bytes} bytes: some flush carried less than 256 KiB"
    );
    let streamed = session.finish().expect("finish succeeds");
    assert_eq!(
        flushes.load(Ordering::Relaxed),
        before_finish + 1,
        "finish flushes the remainder exactly once"
    );
    let one_shot = pipeline.run(files);
    assert_eq!(streamed, one_shot);
    assert_eq!(format!("{streamed:?}"), format!("{one_shot:?}"));
}

/// A pass-through stage whose stream fails on its `fail_on`-th batch
/// (counting from 1), or, with `fail_open`, refuses to open at all.
struct Faulty {
    fail_open: bool,
    fail_on: usize,
}

impl CurationStage for Faulty {
    fn name(&self) -> &str {
        "faulty"
    }

    fn apply(&self, batch: FileBatch) -> StageOutcome {
        StageOutcome::keep_all(batch.into_files())
    }

    fn open_stream(&self) -> io::Result<StageStreaming> {
        if self.fail_open {
            return Err(io::Error::new(
                io::ErrorKind::PermissionDenied,
                "the stream cannot open",
            ));
        }
        Ok(StageStreaming::Stateful(Box::new(FaultyStream {
            fail_on: self.fail_on,
            batches: 0,
        })))
    }
}

struct FaultyStream {
    fail_on: usize,
    batches: usize,
}

impl StageStream for FaultyStream {
    fn push(&mut self, batch: FileBatch) -> io::Result<StageOutcome> {
        self.batches += 1;
        if self.batches == self.fail_on {
            return Err(io::Error::other(format!("batch {} failed", self.batches)));
        }
        Ok(StageOutcome::keep_all(batch.into_files()))
    }
}

fn failing_on(fail_on: usize) -> CurationPipeline {
    CurationPipeline::new(CurationConfig::freeset()).with_stage(Box::new(Faulty {
        fail_open: false,
        fail_on,
    }))
}

#[test]
fn a_failing_flush_surfaces_from_the_push_that_runs_it() {
    let batches = per_repository(&corpus(150, 23));
    // The pushes that flush, by the documented rule: the one that brings the
    // pending content to 256 KiB or more.
    let mut pending = 0;
    let mut flushing = Vec::new();
    for (index, batch) in batches.iter().enumerate() {
        pending += content_bytes(batch);
        if pending >= FLUSH_BYTES {
            flushing.push(index);
            pending = 0;
        }
    }
    assert!(flushing.len() >= 3, "too few flushes: {flushing:?}");
    let pipeline = failing_on(2);
    let mut session = pipeline.session();
    for (index, batch) in batches.iter().enumerate() {
        let result = session.push(batch.clone());
        if index < flushing[1] {
            result.expect("the pushes before the second flush succeed");
        } else {
            let err = result.expect_err("the push that runs the second flush fails");
            assert_eq!(index, flushing[1]);
            assert_eq!(err.to_string(), "batch 2 failed");
            return;
        }
    }
    unreachable!("the second flush never ran");
}

#[test]
fn an_error_in_only_the_final_flush_surfaces_from_finish() {
    let files = corpus(40, 5);
    assert!(content_bytes(&files) >= FLUSH_BYTES, "one push must flush");
    let pipeline = failing_on(2);
    let mut session = pipeline.session();
    session.push(files).expect("the first flush succeeds");
    // Fresh licensed content far below the budget: only `finish` runs it.
    let remainder: Vec<ExtractedFile> = (0..8)
        .map(|i| ExtractedFile {
            repo_id: 1_000_000 + i,
            repo_full_name: format!("o/pad{i}"),
            owner: "o".into(),
            repo_license: License::Mit,
            created_year: 2020,
            path: format!("pad{i}.v"),
            content: format!("module pad_{i}(input p, output q); assign q = ~p ^ {i}; endmodule"),
        })
        .collect();
    session
        .push(remainder)
        .expect("a push below the budget only appends");
    let err = session
        .finish()
        .expect_err("the final flush's error must surface from finish");
    assert_eq!(err.to_string(), "batch 2 failed");
}

#[test]
fn a_stream_that_cannot_open_fails_try_session_and_try_run() {
    let pipeline = CurationPipeline::new(CurationConfig::freeset()).with_stage(Box::new(Faulty {
        fail_open: true,
        fail_on: 0,
    }));
    let Err(err) = pipeline.try_session() else {
        panic!("try_session opened a stream that cannot open");
    };
    assert_eq!(err.kind(), io::ErrorKind::PermissionDenied, "{err}");
    let err = pipeline
        .try_run(corpus(10, 3))
        .expect_err("try_run must return the open error");
    assert_eq!(err.kind(), io::ErrorKind::PermissionDenied, "{err}");
}
