//! The deterministic concurrent fetch engine.
//!
//! [`FetchEngine`] runs the paper's scrape (§III-B2) from a pool of scoped
//! worker threads instead of the serial [`Scraper`]'s single blocking loop,
//! while guaranteeing the exact same output:
//!
//! * **Discovery** drains a shared work queue of search queries. A worker
//!   that hits the 1 000-result cap pushes the query's splits (the shared
//!   `granularise` rule) back onto the queue, so the granularisation tree
//!   is explored concurrently but produces the same leaf buckets in every
//!   run. The discovered id set is sorted and de-duplicated at the phase
//!   barrier, which erases any scheduling-dependent discovery order.
//! * **Cloning** hands each worker the next repository index from an atomic
//!   cursor. Finished repositories pass through a reorder buffer that
//!   releases them strictly in index order into a bounded handoff queue, so
//!   the downstream consumer observes the same byte sequence the serial
//!   scraper would have produced — regardless of worker count, seed or
//!   thread interleaving (property-tested in `tests/fetch_engine.rs`).
//!
//! Requests are paced by a shared [`TokenBucket`] over a virtual
//! [`SimClock`]; server-side [`ApiError::RateLimited`] rejections are
//! retried with seeded exponential backoff. Per-worker [`FetchStats`] are
//! merged in worker order into the extended [`ScrapeReport`].

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use super::clock::SimClock;
use super::limiter::TokenBucket;
use super::queue::BoundedQueue;
use super::stats::FetchStats;
use crate::api::{ApiError, GithubApi, RepoQuery};
use crate::repo::ExtractedFile;
use crate::scraper::{
    extract_file, granularise, ScrapeOutput, ScrapeReport, Scraper, ScraperConfig,
};

/// Configuration of a concurrent fetch run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchConfig {
    /// Number of worker threads (clamped to at least 1).
    pub workers: usize,
    /// Capacity of the bounded handoff queue, in repository batches. A full
    /// queue blocks the workers — backpressure from a slow consumer.
    pub queue_capacity: usize,
    /// Scheduler seed; drives the per-worker backoff jitter. Output is
    /// byte-identical across seeds — the seed only shifts *when* workers
    /// retry, never what they produce.
    pub seed: u64,
    /// Client-side pacing budget per rate-limit window. `None` mirrors the
    /// API's own per-window budget (the well-behaved default, under which
    /// server-side rejections are contention artifacts only); `Some(n)` with
    /// `n` above the API budget deliberately overcommits to exercise the
    /// retry path.
    pub pacing_tokens: Option<usize>,
    /// Attempts per request before a persistent [`ApiError::RateLimited`] is
    /// treated as fatal (guards against pathological pacing overcommit).
    pub max_attempts: usize,
    /// Base backoff duration in virtual ticks; attempt `n` waits
    /// `base << min(n, 6)` plus seeded jitter of up to one base interval.
    pub base_backoff_ticks: u64,
    /// Virtual length of one rate-limit window.
    pub window_ticks: u64,
}

impl Default for FetchConfig {
    fn default() -> Self {
        Self {
            workers: std::thread::available_parallelism()
                .map(|n| n.get().min(8))
                .unwrap_or(1),
            queue_capacity: 32,
            seed: 0xF7C4,
            pacing_tokens: None,
            max_attempts: 100,
            base_backoff_ticks: 4,
            window_ticks: 1_000,
        }
    }
}

impl FetchConfig {
    /// A configuration with `workers` threads and defaults elsewhere.
    pub fn with_workers(workers: usize) -> Self {
        Self {
            workers,
            ..Self::default()
        }
    }

    /// Overrides the scheduler seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// One cloned repository's extracted files, tagged with its position in the
/// deterministic output order.
#[derive(Debug, Clone, PartialEq)]
pub struct FetchBatch {
    /// Position of the repository in the sorted discovered-id order; batches
    /// are delivered with strictly increasing `seq`.
    pub seq: usize,
    /// The cloned repository's id.
    pub repo_id: u64,
    /// The repository's extracted Verilog files, in repository order.
    pub files: Vec<ExtractedFile>,
}

/// The consumer's view of the handoff queue: a blocking iterator over
/// [`FetchBatch`]es in `seq` order. Ends when every repository has been
/// delivered — or early, when a worker hit a fatal error (which
/// [`FetchEngine::run_streaming`] then returns instead of the consumer's
/// value).
pub struct FetchBatches<'q> {
    queue: &'q BoundedQueue<FetchBatch>,
}

impl Iterator for FetchBatches<'_> {
    type Item = FetchBatch;

    fn next(&mut self) -> Option<FetchBatch> {
        self.queue.pop()
    }
}

/// Shared work queue for the discovery phase: pending queries plus the
/// number of queries currently being processed (whose splits may yet arrive).
struct DiscoveryQueue {
    state: Mutex<(VecDeque<RepoQuery>, usize)>,
    wake: Condvar,
}

impl DiscoveryQueue {
    fn new(roots: Vec<RepoQuery>) -> Self {
        Self {
            state: Mutex::new((roots.into(), 0)),
            wake: Condvar::new(),
        }
    }

    /// Claims the next query, blocking while other workers might still push
    /// splits. Returns `None` when discovery is complete or aborting.
    fn claim(&self, abort: &AtomicBool) -> Option<RepoQuery> {
        let mut state = self.state.lock().expect("discovery queue lock poisoned");
        loop {
            if abort.load(Ordering::SeqCst) {
                return None;
            }
            if let Some(query) = state.0.pop_front() {
                state.1 += 1;
                return Some(query);
            }
            if state.1 == 0 {
                return None;
            }
            state = self
                .wake
                .wait(state)
                .expect("discovery queue lock poisoned");
        }
    }

    /// Pushes an over-cap query's splits (called while the split query is
    /// still claimed, so the queue cannot drain prematurely).
    fn push_splits(&self, splits: Vec<RepoQuery>) {
        let mut state = self.state.lock().expect("discovery queue lock poisoned");
        state.0.extend(splits);
        self.wake.notify_all();
    }

    /// Releases a claimed query; wakes waiters so they can re-check for
    /// completion.
    fn release(&self) {
        let mut state = self.state.lock().expect("discovery queue lock poisoned");
        state.1 -= 1;
        self.wake.notify_all();
    }

    /// Wakes every waiter (used when aborting on error).
    fn wake_all(&self) {
        let _guard = self.state.lock().expect("discovery queue lock poisoned");
        self.wake.notify_all();
    }
}

/// Tracks the number of requests currently in flight and the high-water mark.
#[derive(Default)]
struct InFlightGauge {
    current: AtomicUsize,
    max: AtomicUsize,
}

impl InFlightGauge {
    fn enter(&self) {
        let now = self.current.fetch_add(1, Ordering::SeqCst) + 1;
        self.max.fetch_max(now, Ordering::SeqCst);
    }

    fn exit(&self) {
        self.current.fetch_sub(1, Ordering::SeqCst);
    }

    fn high_water(&self) -> usize {
        self.max.load(Ordering::SeqCst)
    }
}

/// Everything the workers share for one run.
struct EngineShared<'a, 'u> {
    api: &'a GithubApi<'u>,
    clock: SimClock,
    bucket: TokenBucket,
    gauge: InFlightGauge,
    abort: AtomicBool,
    error: Mutex<Option<ApiError>>,
    max_attempts: usize,
    base_backoff_ticks: u64,
}

impl EngineShared<'_, '_> {
    /// Records the first fatal error and flips the abort flag.
    fn record_error(&self, error: ApiError) {
        let mut slot = self.error.lock().expect("error slot lock poisoned");
        if slot.is_none() {
            *slot = Some(error);
        }
        self.abort.store(true, Ordering::SeqCst);
    }

    fn take_error(&self) -> Option<ApiError> {
        self.error.lock().expect("error slot lock poisoned").take()
    }

    /// Issues one request under token-bucket pacing, retrying server-side
    /// rate-limit rejections with seeded exponential backoff.
    fn request<T>(
        &self,
        stats: &mut FetchStats,
        rng: &mut ChaCha8Rng,
        count_query: bool,
        issue: impl Fn() -> Result<T, ApiError>,
    ) -> Result<T, ApiError> {
        let mut attempt: u32 = 0;
        loop {
            let grant = self.bucket.acquire(&self.clock);
            if grant.rolled {
                // This worker rolled the window (possibly waiting zero ticks,
                // when backoff advances already passed the deadline); refresh
                // the server budget the way the serial scraper's in-line wait
                // does.
                stats.rate_limit_waits += 1;
                self.api.wait_for_rate_limit_reset();
            }
            if count_query {
                stats.queries_issued += 1;
            }
            self.gauge.enter();
            let outcome = issue();
            self.gauge.exit();
            match outcome {
                Ok(value) => return Ok(value),
                Err(ApiError::RateLimited) => {
                    attempt += 1;
                    stats.rate_limit_retries += 1;
                    if attempt as usize >= self.max_attempts {
                        return Err(ApiError::RateLimited);
                    }
                    // One worker per window refreshes the budget; the rest
                    // just back off and retry against it.
                    if self
                        .bucket
                        .roll_if_stale(&self.clock, grant.generation)
                        .is_some()
                    {
                        stats.rate_limit_waits += 1;
                        self.api.wait_for_rate_limit_reset();
                    }
                    let base = self.base_backoff_ticks.max(1);
                    let backoff = (base << attempt.min(6)) + rng.gen_range(0..base);
                    self.clock.advance(backoff);
                    stats.backoff_waits += 1;
                    stats.backoff_ticks_waited += backoff;
                }
                Err(other) => return Err(other),
            }
        }
    }
}

/// Reorder buffer releasing clone results strictly in sequence order, with
/// a bounded run-ahead window so backpressure reaches *every* worker.
///
/// Without the window, only the worker releasing the next contiguous batch
/// ever blocks on the full handoff queue; everyone else would park their
/// out-of-order batches in `pending` and keep cloning — one slow worker and
/// the "bounded" handoff buffers the rest of the universe in memory.
/// [`ReorderBuffer::wait_for_turn`] caps how far past the released frontier
/// a worker may even *start* a clone.
struct ReorderBuffer<'q> {
    state: Mutex<ReorderState>,
    /// Signalled when `next_seq` advances (or the run is aborting), waking
    /// workers gated on the run-ahead window.
    turn: Condvar,
    /// How far past `next_seq` a worker may start cloning.
    runahead: usize,
    queue: &'q BoundedQueue<FetchBatch>,
}

struct ReorderState {
    next_seq: usize,
    pending: BTreeMap<usize, FetchBatch>,
}

impl ReorderBuffer<'_> {
    /// Blocks until `seq` is within the run-ahead window of the release
    /// frontier. Returns `false` when the queue closed while waiting (the
    /// run is over; the caller should stop).
    fn wait_for_turn(&self, seq: usize) -> bool {
        let mut state = self.state.lock().expect("reorder buffer lock poisoned");
        loop {
            if self.queue.is_closed() {
                return false;
            }
            if seq < state.next_seq + self.runahead {
                return true;
            }
            state = self.turn.wait(state).expect("reorder buffer lock poisoned");
        }
    }

    /// Wakes every gated worker so it can observe a close. Called after
    /// closing the queue; without it, workers parked in
    /// [`ReorderBuffer::wait_for_turn`] would sleep forever.
    fn wake_waiters(&self) {
        let _guard = self.state.lock().expect("reorder buffer lock poisoned");
        self.turn.notify_all();
    }

    /// Submits one finished batch; pushes every now-contiguous batch into
    /// the handoff queue (in order, under the buffer lock — backpressure on
    /// the queue therefore pauses all submitters, by design). Returns `false`
    /// when the queue closed underneath us (consumer gone / run aborting),
    /// including on the out-of-order path.
    fn submit(&self, batch: FetchBatch) -> bool {
        let mut state = self.state.lock().expect("reorder buffer lock poisoned");
        if self.queue.is_closed() {
            return false;
        }
        if batch.seq != state.next_seq {
            state.pending.insert(batch.seq, batch);
            return true;
        }
        let mut current = batch;
        loop {
            state.next_seq += 1;
            if self.queue.push(current).is_err() {
                return false;
            }
            let next_seq = state.next_seq;
            match state.pending.remove(&next_seq) {
                Some(next) => current = next,
                None => {
                    // The frontier moved: wake workers gated on the window.
                    self.turn.notify_all();
                    return true;
                }
            }
        }
    }
}

/// Closes the handoff queue and wakes run-ahead waiters when dropped —
/// keeps producers from deadlocking if the consumer unwinds or exits early.
struct CloseOnDrop<'q, 'r>(&'q BoundedQueue<FetchBatch>, &'r ReorderBuffer<'q>);

impl Drop for CloseOnDrop<'_, '_> {
    fn drop(&mut self) {
        self.0.close();
        self.1.wake_waiters();
    }
}

/// The concurrent scrape client.
///
/// # Example
///
/// ```
/// use gh_sim::fetch::{FetchConfig, FetchEngine};
/// use gh_sim::{GithubApi, Scraper, ScraperConfig, Universe, UniverseConfig};
///
/// let universe = Universe::generate(&UniverseConfig { repo_count: 40, seed: 9, ..Default::default() });
/// let serial = Scraper::new(ScraperConfig::default())
///     .run(&GithubApi::new(&universe))?;
/// let concurrent = FetchEngine::new(FetchConfig::with_workers(4))
///     .run(&GithubApi::new(&universe), ScraperConfig::default())?;
/// assert_eq!(serial.files, concurrent.files);
/// assert!(concurrent.report.max_in_flight >= 1);
/// # Ok::<(), gh_sim::ApiError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchEngine {
    config: FetchConfig,
}

impl FetchEngine {
    /// Creates an engine.
    pub fn new(config: FetchConfig) -> Self {
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> FetchConfig {
        self.config
    }

    /// Runs the full concurrent scrape, collecting every extracted file.
    /// The file bank is byte-identical to `Scraper::new(scraper).run(api)`.
    ///
    /// # Errors
    ///
    /// Propagates the first fatal [`ApiError`] any worker encountered (the
    /// same conditions under which the serial scraper fails, plus a
    /// persistent rate limit outlasting [`FetchConfig::max_attempts`]).
    pub fn run(
        &self,
        api: &GithubApi<'_>,
        scraper: ScraperConfig,
    ) -> Result<ScrapeOutput, ApiError> {
        let (files, report) = self.run_streaming(api, scraper, |batches| {
            let mut files = Vec::new();
            for batch in batches {
                files.extend(batch.files);
            }
            files
        })?;
        Ok(ScrapeOutput { files, report })
    }

    /// Runs the concurrent scrape, streaming [`FetchBatch`]es to `consume`
    /// (on the calling thread) *while the workers are still cloning*.
    /// Batches arrive in deterministic `seq` order; the consumer's pace
    /// backpressures the worker pool through the bounded handoff queue.
    ///
    /// # Errors
    ///
    /// Propagates the first fatal [`ApiError`] any worker encountered; the
    /// consumer's (partial) value is discarded in that case.
    pub fn run_streaming<T>(
        &self,
        api: &GithubApi<'_>,
        scraper: ScraperConfig,
        consume: impl FnOnce(FetchBatches<'_>) -> T,
    ) -> Result<(T, ScrapeReport), ApiError> {
        let workers = self.config.workers.max(1);
        let pacing = self
            .config
            .pacing_tokens
            .unwrap_or_else(|| api.requests_per_window());
        let shared = EngineShared {
            api,
            clock: SimClock::new(),
            bucket: TokenBucket::new(pacing.max(1), self.config.window_ticks.max(1)),
            gauge: InFlightGauge::default(),
            abort: AtomicBool::new(false),
            error: Mutex::new(None),
            max_attempts: self.config.max_attempts.max(1),
            base_backoff_ticks: self.config.base_backoff_ticks,
        };

        // Phase 1: concurrent discovery over the granularisation work queue.
        let discovery = DiscoveryQueue::new(Scraper::new(scraper).root_queries());
        let discovered: Mutex<Vec<u64>> = Mutex::new(Vec::new());
        let year_range = (scraper.from_year, scraper.to_year);
        let mut merged = FetchStats::default();
        let discovery_stats: Vec<FetchStats> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|worker| {
                    let shared = &shared;
                    let discovery = &discovery;
                    let discovered = &discovered;
                    scope.spawn(move || {
                        let mut stats = FetchStats::default();
                        let mut rng = worker_rng(self.config.seed, 0, worker);
                        while let Some(query) = discovery.claim(&shared.abort) {
                            let result = discover_one(
                                shared, discovery, discovered, year_range, &query, &mut stats,
                                &mut rng,
                            );
                            discovery.release();
                            if let Err(error) = result {
                                shared.record_error(error);
                                discovery.wake_all();
                                break;
                            }
                        }
                        stats
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("discovery worker panicked"))
                .collect()
        });
        for stats in &discovery_stats {
            merged.merge(stats);
        }
        if let Some(error) = shared.take_error() {
            return Err(error);
        }
        let mut repo_ids = discovered
            .into_inner()
            .expect("discovered ids lock poisoned");
        repo_ids.sort_unstable();
        repo_ids.dedup();
        let repositories_found = repo_ids.len();

        // Phase 2: concurrent cloning with in-order streaming handoff.
        let queue = BoundedQueue::new(self.config.queue_capacity.max(1));
        let reorder = ReorderBuffer {
            state: Mutex::new(ReorderState {
                next_seq: 0,
                pending: BTreeMap::new(),
            }),
            turn: Condvar::new(),
            // Enough slack that no worker ever idles on the gate in the
            // steady state (one batch in hand each, plus a full queue), but
            // buffered run-ahead stays bounded by the pool, not the corpus.
            runahead: workers + self.config.queue_capacity.max(1),
            queue: &queue,
        };
        let cursor = AtomicUsize::new(0);
        let producers_left = AtomicUsize::new(workers);
        let (consumed, clone_stats) = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|worker| {
                    let shared = &shared;
                    let reorder = &reorder;
                    let cursor = &cursor;
                    let producers_left = &producers_left;
                    let queue = &queue;
                    let repo_ids = repo_ids.as_slice();
                    scope.spawn(move || {
                        let mut stats = FetchStats::default();
                        let mut rng = worker_rng(self.config.seed, 1, worker);
                        let result =
                            clone_worker(shared, reorder, cursor, repo_ids, &mut stats, &mut rng);
                        if let Err(error) = result {
                            shared.record_error(error);
                            // Abort the stream so the consumer stops early
                            // and gated workers observe the close.
                            queue.close();
                            reorder.wake_waiters();
                        }
                        if producers_left.fetch_sub(1, Ordering::SeqCst) == 1 {
                            queue.close();
                        }
                        stats
                    })
                })
                .collect();
            // The consumer runs on the calling thread, overlapping the
            // clone work; the drop guard closes the queue even if it
            // unwinds, so blocked producers always finish.
            let close_guard = CloseOnDrop(&queue, &reorder);
            let consumed = consume(FetchBatches { queue: &queue });
            drop(close_guard);
            let stats: Vec<FetchStats> = handles
                .into_iter()
                .map(|h| h.join().expect("clone worker panicked"))
                .collect();
            (consumed, stats)
        });
        for stats in &clone_stats {
            merged.merge(stats);
        }
        if let Some(error) = shared.take_error() {
            return Err(error);
        }
        let report = merged.into_report(repositories_found, shared.gauge.high_water());
        report.debug_validate();
        Ok((consumed, report))
    }
}

/// A deterministic per-worker RNG: a function of the engine seed, the phase
/// and the worker index only — never of thread scheduling.
fn worker_rng(seed: u64, phase: u64, worker: usize) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(
        seed ^ (phase << 56) ^ (worker as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
    )
}

/// Pages through one discovery query, pushing its splits back onto the work
/// queue when it proves too broad.
fn discover_one(
    shared: &EngineShared<'_, '_>,
    discovery: &DiscoveryQueue,
    discovered: &Mutex<Vec<u64>>,
    year_range: (u32, u32),
    query: &RepoQuery,
    stats: &mut FetchStats,
    rng: &mut ChaCha8Rng,
) -> Result<(), ApiError> {
    let mut page = 0;
    loop {
        if shared.abort.load(Ordering::SeqCst) {
            return Ok(());
        }
        let paged = RepoQuery {
            page,
            ..query.clone()
        };
        match shared.request(stats, rng, true, || shared.api.search(&paged)) {
            Ok(result) => {
                discovered
                    .lock()
                    .expect("discovered ids lock poisoned")
                    .extend(result.repo_ids);
                if !result.has_more {
                    return Ok(());
                }
                page += 1;
            }
            Err(ApiError::TooManyResults { matched }) => {
                stats.queries_over_cap += 1;
                match granularise(query, year_range) {
                    Some(splits) => {
                        discovery.push_splits(splits);
                        return Ok(());
                    }
                    // Same terminal condition as the serial scraper: a single
                    // year × license bucket that cannot be narrowed further.
                    None => return Err(ApiError::TooManyResults { matched }),
                }
            }
            Err(other) => return Err(other),
        }
    }
}

/// Clones repositories from the shared cursor until the work (or the run)
/// ends, submitting each batch to the reorder buffer.
fn clone_worker(
    shared: &EngineShared<'_, '_>,
    reorder: &ReorderBuffer<'_>,
    cursor: &AtomicUsize,
    repo_ids: &[u64],
    stats: &mut FetchStats,
    rng: &mut ChaCha8Rng,
) -> Result<(), ApiError> {
    loop {
        if shared.abort.load(Ordering::SeqCst) {
            return Ok(());
        }
        let seq = cursor.fetch_add(1, Ordering::SeqCst);
        let Some(&repo_id) = repo_ids.get(seq) else {
            return Ok(());
        };
        // Backpressure reaches every worker: do not even start a clone more
        // than the run-ahead window past the released frontier. (The worker
        // holding the frontier's own seq is never gated, so progress is
        // guaranteed.)
        if !reorder.wait_for_turn(seq) {
            return Ok(());
        }
        let repo = shared.request(stats, rng, false, || shared.api.clone_repository(repo_id))?;
        stats.repositories_cloned += 1;
        stats.files_seen += repo.files.len();
        let files: Vec<ExtractedFile> = repo
            .verilog_files()
            .map(|file| extract_file(repo, file))
            .collect();
        stats.verilog_files_extracted += files.len();
        let delivered = reorder.submit(FetchBatch {
            seq,
            repo_id,
            files,
        });
        if !delivered {
            // The consumer is gone (early exit or abort): stop producing.
            return Ok(());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::{Universe, UniverseConfig};

    fn universe(repos: usize, seed: u64) -> Universe {
        Universe::generate(&UniverseConfig {
            repo_count: repos,
            seed,
            ..Default::default()
        })
    }

    fn serial_files(u: &Universe) -> Vec<ExtractedFile> {
        Scraper::new(ScraperConfig::default())
            .run(&GithubApi::with_rate_limit(u, 10_000))
            .expect("serial scrape")
            .files
    }

    #[test]
    fn single_worker_matches_serial_exactly() {
        let u = universe(50, 3);
        let engine = FetchEngine::new(FetchConfig::with_workers(1));
        let output = engine
            .run(
                &GithubApi::with_rate_limit(&u, 10_000),
                ScraperConfig::default(),
            )
            .unwrap();
        assert_eq!(output.files, serial_files(&u));
        assert_eq!(output.report.repositories_cloned, 50);
        assert_eq!(output.report.max_in_flight, 1);
        output.report.debug_validate();
    }

    #[test]
    fn worker_pool_matches_serial_and_overlaps_requests() {
        let u = universe(120, 7);
        let engine = FetchEngine::new(FetchConfig::with_workers(4));
        let output = engine
            .run(
                &GithubApi::with_rate_limit(&u, 10_000),
                ScraperConfig::default(),
            )
            .unwrap();
        assert_eq!(output.files, serial_files(&u));
        assert_eq!(output.report.repositories_found, 120);
        assert_eq!(output.report.repositories_cloned, 120);
        assert!(output.report.max_in_flight >= 1);
        assert!(output.report.max_in_flight <= 4);
    }

    #[test]
    fn tight_rate_limit_is_survived_with_retries() {
        let u = universe(60, 13);
        let api = GithubApi::with_rate_limit(&u, 5);
        let engine = FetchEngine::new(FetchConfig::with_workers(3));
        let output = engine.run(&api, ScraperConfig::default()).unwrap();
        assert_eq!(output.files, serial_files(&u));
        assert!(
            output.report.rate_limit_waits > 0,
            "a 5-request window must force waits"
        );
        assert!(api.usage().rate_limit_resets > 0);
    }

    #[test]
    fn overcommitted_pacing_exercises_backoff() {
        let u = universe(40, 17);
        let api = GithubApi::with_rate_limit(&u, 10);
        let engine = FetchEngine::new(FetchConfig {
            workers: 4,
            // Twice the server budget: the surplus is rejected server-side
            // and must be absorbed by retry-with-backoff.
            pacing_tokens: Some(20),
            ..FetchConfig::default()
        });
        let output = engine.run(&api, ScraperConfig::default()).unwrap();
        assert_eq!(output.files, serial_files(&u));
        assert!(
            output.report.rate_limit_retries > 0,
            "overcommit must provoke server-side rejections"
        );
        assert!(output.report.backoff_waits > 0);
        assert!(output.report.backoff_ticks_waited > 0);
        assert!(api.usage().rate_limit_rejections > 0);
    }

    #[test]
    fn streaming_batches_arrive_in_sequence_order() {
        let u = universe(80, 23);
        let engine = FetchEngine::new(FetchConfig {
            workers: 4,
            queue_capacity: 2, // tiny queue: exercise backpressure
            ..FetchConfig::default()
        });
        let ((seqs, total_files), report) = engine
            .run_streaming(
                &GithubApi::with_rate_limit(&u, 10_000),
                ScraperConfig::default(),
                |batches| {
                    let mut seqs = Vec::new();
                    let mut total = 0usize;
                    for batch in batches {
                        seqs.push(batch.seq);
                        total += batch.files.len();
                    }
                    (seqs, total)
                },
            )
            .unwrap();
        assert_eq!(seqs, (0..80).collect::<Vec<_>>());
        assert_eq!(total_files, report.verilog_files_extracted);
        assert_eq!(report.repositories_cloned, 80);
    }

    #[test]
    fn consumer_may_stop_early_without_deadlock_or_runaway_cloning() {
        let u = universe(60, 29);
        let api = GithubApi::with_rate_limit(&u, 10_000);
        let workers = 4;
        let engine = FetchEngine::new(FetchConfig {
            workers,
            queue_capacity: 1,
            ..FetchConfig::default()
        });
        let (taken, _report) = engine
            .run_streaming(&api, ScraperConfig::default(), |batches| {
                batches.take(3).map(|b| b.seq).collect::<Vec<_>>()
            })
            .unwrap();
        assert_eq!(taken, vec![0, 1, 2]);
        // Run-ahead is bounded: a clone only starts for seq < frontier +
        // runahead, and the frontier can advance at most `taken + queued`
        // before the close — the pool must not clone the rest of the
        // universe into the reorder buffer.
        let queue_capacity = 1;
        let runahead = workers + queue_capacity;
        let bound = taken.len() + queue_capacity + runahead;
        assert!(
            api.usage().clone_requests <= bound,
            "{} clones issued for 3 consumed batches (bound {bound})",
            api.usage().clone_requests
        );
    }

    #[test]
    fn accepted_license_scrapes_match_serial_too() {
        let u = universe(90, 31);
        let config = ScraperConfig {
            accepted_licenses_only: true,
            ..Default::default()
        };
        let serial = Scraper::new(config)
            .run(&GithubApi::with_rate_limit(&u, 10_000))
            .unwrap();
        let concurrent = FetchEngine::new(FetchConfig::with_workers(3))
            .run(&GithubApi::with_rate_limit(&u, 10_000), config)
            .unwrap();
        assert_eq!(serial.files, concurrent.files);
        assert_eq!(
            serial.report.repositories_found,
            concurrent.report.repositories_found
        );
    }
}
