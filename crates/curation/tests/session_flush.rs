//! Integration tests for a `CurationSession` that flushes more than once:
//! pushed files are coalesced into 256 KiB batches before the streaming
//! stage prefix runs, so a corpus several times that size, pushed one
//! repository at a time, must run the prefix a few times before `finish`,
//! once more inside it, and still equal the one-shot run byte for byte. A
//! spill error met by the final flush must surface from `finish`.

use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use curation::{
    CurationConfig, CurationPipeline, CurationStage, DedupSpillConfig, FileBatch, StageOutcome,
    StageStream, StageStreaming,
};
use gh_sim::{ExtractedFile, GithubApi, License, Scraper, ScraperConfig, Universe, UniverseConfig};

/// The session's flush budget, as its docs state it.
const FLUSH_BYTES: usize = 256 * 1024;

fn corpus(repos: usize, seed: u64) -> Vec<ExtractedFile> {
    let universe = Universe::generate(&UniverseConfig {
        repo_count: repos,
        seed,
        ..Default::default()
    });
    let api = GithubApi::new(&universe);
    Scraper::new(ScraperConfig::default())
        .run(&api)
        .expect("scrape")
        .files
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

#[test]
fn a_spill_error_in_the_final_flush_surfaces_from_finish() {
    let spill_parent =
        std::env::temp_dir().join(format!("ffh-session-flush-test-{}", std::process::id()));
    std::fs::create_dir_all(&spill_parent).expect("create the spill parent");
    let mut config = CurationConfig::freeset();
    config.dedup_spill = Some(DedupSpillConfig {
        resident_shards: 1,
        spill_dir: Some(spill_parent.to_string_lossy().into_owned()),
        ..DedupSpillConfig::default()
    });
    let pipeline = CurationPipeline::new(config);
    let mut session = pipeline.session();

    let files = corpus(40, 5);
    assert!(content_bytes(&files) >= FLUSH_BYTES, "one push must flush");
    session
        .push(files)
        .expect("the first flush reads intact spill files");
    let mut shard_files = Vec::new();
    for engine_dir in std::fs::read_dir(&spill_parent).expect("list the spill parent") {
        let engine_dir = engine_dir.expect("spill entry").path();
        for shard in std::fs::read_dir(&engine_dir).expect("list the engine's spill dir") {
            shard_files.push(shard.expect("shard entry").path());
        }
    }
    assert!(
        !shard_files.is_empty(),
        "the flush left no spilled shard to corrupt"
    );
    for path in &shard_files {
        let bytes = std::fs::read(path).expect("read a shard file");
        std::fs::write(path, &bytes[..bytes.len() / 2]).expect("truncate a shard file");
    }

    // Fresh licensed content: its band walk has to reload a spilled shard.
    // The push is far below the budget, so only `finish` runs it.
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
        .expect_err("a truncated spill file must surface from finish");
    assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    std::fs::remove_dir_all(&spill_parent).expect("remove the spill parent");
}
