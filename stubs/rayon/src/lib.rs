//! Offline stand-in for `rayon`.
//!
//! Implements the small parallel-iterator subset the workspace uses —
//! `par_iter()` / `into_par_iter()` followed by `map(...).collect()` — on top
//! of `std::thread::scope`. Items are split into about 16 contiguous chunks
//! per worker, and each worker takes the next chunk from a shared queue when
//! it finishes its last, so a slow item or a slowed worker holds up only its
//! own chunk rather than half of the input (real rayon balances load by work
//! stealing). Results are reassembled in chunk order, so `collect` output is
//! always in input order regardless of thread scheduling (the property the
//! curation pipeline's serial/parallel equivalence relies on).

use std::num::NonZeroUsize;
use std::sync::Mutex;

pub mod prelude {
    //! Traits to bring parallel-iterator methods into scope.
    pub use crate::{IntoParallelIterator, IntoParallelRefIterator, ParIter};
}

/// Number of worker threads used by parallel operations.
pub fn current_num_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Runs two closures, potentially in parallel, returning both results.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    std::thread::scope(|scope| {
        let handle = scope.spawn(b);
        let ra = a();
        (ra, handle.join().expect("rayon stub: join worker panicked"))
    })
}

/// An eager parallel iterator over an owned list of items.
pub struct ParIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParIter<T> {
    /// Maps every item in parallel, preserving input order, and collects.
    ///
    /// Mapping and collection are fused (this stub is eager): `map` returns a
    /// lazily-collectable handle whose only consumer is [`MappedParIter::collect`].
    pub fn map<R, F>(self, f: F) -> MappedParIter<T, F>
    where
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        MappedParIter {
            items: self.items,
            f,
        }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the iterator is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

/// The result of [`ParIter::map`]: a parallel map pending collection.
pub struct MappedParIter<T, F> {
    items: Vec<T>,
    f: F,
}

impl<T: Send, R: Send, F: Fn(T) -> R + Sync> MappedParIter<T, F> {
    /// Runs the map on a scoped thread pool and collects results in input
    /// order.
    pub fn collect<C: FromIterator<R>>(self) -> C {
        parallel_map(self.items, &self.f).into_iter().collect()
    }
}

/// Chunks per worker: enough that the workers still finishing their last
/// chunk leave the others little to wait for, few enough that taking a chunk
/// costs nothing next to running it.
const CHUNKS_PER_WORKER: usize = 16;

/// Order-stable parallel map: contiguous chunks handed out on demand from a
/// shared queue, results put back in chunk order.
fn parallel_map<T: Send, R: Send>(items: Vec<T>, f: &(impl Fn(T) -> R + Sync)) -> Vec<R> {
    let len = items.len();
    let workers = current_num_threads().min(len);
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }
    let chunk_size = len.div_ceil(workers * CHUNKS_PER_WORKER);
    let mut items = items.into_iter();
    let chunks = std::iter::from_fn(move || {
        let chunk: Vec<T> = items.by_ref().take(chunk_size).collect();
        (!chunk.is_empty()).then_some(chunk)
    });
    let queue = Mutex::new(chunks.enumerate());
    let next_chunk = || {
        queue
            .lock()
            .expect("rayon stub: a worker panicked while taking a chunk")
            .next()
    };
    let mut done: Vec<(usize, Vec<R>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut mapped = Vec::new();
                    while let Some((index, chunk)) = next_chunk() {
                        mapped.push((index, chunk.into_iter().map(f).collect::<Vec<R>>()));
                    }
                    mapped
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("rayon stub: map worker panicked"))
            .collect()
    });
    done.sort_unstable_by_key(|&(index, _)| index);
    done.into_iter().flat_map(|(_, results)| results).collect()
}

/// Conversion into an owned parallel iterator.
pub trait IntoParallelIterator {
    /// Item type produced.
    type Item: Send;

    /// Converts `self` into a [`ParIter`].
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;

    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

impl<T: Send> IntoParallelIterator for ParIter<T> {
    type Item = T;

    fn into_par_iter(self) -> ParIter<T> {
        self
    }
}

/// Borrowing conversion into a parallel iterator of references.
pub trait IntoParallelRefIterator<'a> {
    /// Reference item type produced.
    type Item: Send + 'a;

    /// Returns a [`ParIter`] over references to the elements.
    fn par_iter(&'a self) -> ParIter<Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;

    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;

    fn par_iter(&'a self) -> ParIter<&'a T> {
        self.as_slice().par_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let input: Vec<u64> = (0..10_000).collect();
        let doubled: Vec<u64> = input.clone().into_par_iter().map(|x| x * 2).collect();
        assert_eq!(doubled, input.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_iter_borrows() {
        let words = vec!["a".to_string(), "bb".to_string(), "ccc".to_string()];
        let lens: Vec<usize> = words.par_iter().map(|w| w.len()).collect();
        assert_eq!(lens, vec![1, 2, 3]);
    }

    #[test]
    fn join_returns_both() {
        let (a, b) = join(|| 1 + 1, || "two");
        assert_eq!(a, 2);
        assert_eq!(b, "two");
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<u32> = Vec::new();
        let out: Vec<u32> = empty.into_par_iter().map(|x| x).collect();
        assert!(out.is_empty());
        let one: Vec<u32> = vec![7].into_par_iter().map(|x| x + 1).collect();
        assert_eq!(one, vec![8]);
    }

    /// Spins for a number of rounds that varies wildly by item, so chunks
    /// finish out of order.
    fn uneven_work(x: u64) -> u64 {
        let rounds = (x * 7919) % 5_000;
        (0..rounds).fold(x, |acc, i| std::hint::black_box(acc.wrapping_mul(31) ^ i)) ^ x
    }

    #[test]
    fn collect_keeps_input_order_under_uneven_work() {
        for len in [0u64, 1, 2, 31, 32, 33, 1_000] {
            let input: Vec<u64> = (0..len).collect();
            let expected: Vec<u64> = input.iter().map(|&x| uneven_work(x)).collect();
            let owned: Vec<u64> = input.clone().into_par_iter().map(uneven_work).collect();
            assert_eq!(owned, expected, "into_par_iter, len {len}");
            let borrowed: Vec<u64> = input.par_iter().map(|&x| uneven_work(x)).collect();
            assert_eq!(borrowed, expected, "par_iter, len {len}");
        }
    }

    #[test]
    fn a_panicking_item_panics_the_caller() {
        let input: Vec<u64> = (0..100).collect();
        let outcome = std::panic::catch_unwind(|| {
            input
                .par_iter()
                .map(|&x| {
                    assert_ne!(x, 57, "item 57 fails");
                    uneven_work(x)
                })
                .collect::<Vec<u64>>()
        });
        assert!(outcome.is_err());
    }

    #[test]
    fn num_threads_positive() {
        assert!(current_num_threads() >= 1);
    }
}
