//! Deterministic parallel runtime: a scoped worker pool whose results are
//! bit-identical for a given seed **regardless of thread count**.
//!
//! The contract that makes this safe to drop into a reproducible pipeline:
//!
//! 1. **Fixed chunking by index.** Work is split into chunks whose
//!    boundaries depend only on the input length (and an explicit chunk
//!    size), never on how many workers exist. A 1-thread run and an
//!    8-thread run process the exact same chunks.
//! 2. **Chunk-local state.** Each chunk's computation sees only its items
//!    (plus read-only shared state). Callers that need randomness derive a
//!    per-chunk stream with [`crate::rng::Rng::fork`] keyed by the chunk
//!    index — never by a worker id.
//! 3. **Ordered merge.** Chunk results are merged in ascending chunk
//!    order on the calling thread, so floating-point accumulation order —
//!    and therefore every bit of the output — is scheduling-independent.
//!
//! Threads only decide *when* a chunk runs, never *what* it computes or
//! *where* its result lands. At `threads == 1` the calling thread runs
//! every chunk itself, producing the identical merge sequence.

/// Upper bound on chunks produced by the default chunking, keeping
/// per-chunk scheduling overhead negligible for large inputs.
const MAX_DEFAULT_CHUNKS: usize = 64;

/// Smallest default chunk worth scheduling as a unit.
const MIN_DEFAULT_CHUNK: usize = 16;

/// Default chunk size for `len` items: a pure function of the input
/// length (never of thread count), so chunk boundaries are reproducible.
pub fn default_chunk_size(len: usize) -> usize {
    len.div_ceil(MAX_DEFAULT_CHUNKS).max(MIN_DEFAULT_CHUNK)
}

/// A deterministic worker pool. Cheap to construct; spawns scoped threads
/// per call (no idle workers linger between calls) and holds no lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    threads: usize,
}

impl Default for Pool {
    fn default() -> Self {
        Pool::new(1)
    }
}

impl Pool {
    /// A pool running work on `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Pool {
        Pool {
            threads: threads.max(1),
        }
    }

    /// Number of worker threads this pool uses.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `work(0..n_tasks)` across the pool and returns results in task
    /// order. The scheduling backbone of every other method: results are
    /// reassembled by task index, so output order never depends on which
    /// worker ran what.
    pub fn run_tasks<R, W>(&self, n_tasks: usize, work: W) -> Vec<R>
    where
        R: Send,
        W: Fn(usize) -> R + Sync,
    {
        self.scatter((0..n_tasks).collect(), |t, _| work(t))
    }

    /// Runs `work(t, task)` for every task and returns the results in task
    /// order. Task `t` goes to worker `t % workers`, and each worker hands
    /// its results back through its join handle, so workers share nothing
    /// but `work`. The calling thread is worker 0. A panic in `work`
    /// reaches the caller with its original payload.
    fn scatter<I, R, W>(&self, tasks: Vec<I>, work: W) -> Vec<R>
    where
        I: Send,
        R: Send,
        W: Fn(usize, I) -> R + Sync,
    {
        let n = tasks.len();
        let workers = self.threads.min(n);
        let mut queues: Vec<Vec<(usize, I)>> = (0..workers).map(|_| Vec::new()).collect();
        for (t, task) in tasks.into_iter().enumerate() {
            queues[t % workers].push((t, task));
        }
        let run = |queue: Vec<(usize, I)>| -> Vec<(usize, R)> {
            queue
                .into_iter()
                .map(|(t, task)| (t, work(t, task)))
                .collect()
        };
        let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
        std::thread::scope(|scope| {
            let mut queues = queues.into_iter();
            let own = queues.next().unwrap_or_default();
            let handles: Vec<_> = queues.map(|q| scope.spawn(move || run(q))).collect();
            let mut done = run(own);
            for handle in handles {
                done.extend(
                    handle
                        .join()
                        .unwrap_or_else(|p| std::panic::resume_unwind(p)),
                );
            }
            for (t, result) in done {
                slots[t] = Some(result);
            }
        });
        slots
            .into_iter()
            .map(|r| r.expect("every task ran"))
            .collect()
    }

    /// Maps `f` over `items` in parallel; equivalent to
    /// `items.iter().map(f).collect()` bit-for-bit, at any thread count.
    ///
    /// The item lifetime `'i` is explicit so results may borrow from the
    /// input slice (the workers run under a scope that `items` outlives).
    pub fn par_map<'i, T, U, F>(&self, items: &'i [T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(&'i T) -> U + Sync,
    {
        self.par_map_chunked(default_chunk_size(items.len()), items, f)
    }

    /// [`Pool::par_map`] with an explicit chunk size (must be nonzero).
    /// Chunk `c` covers items `[c*chunk_size, (c+1)*chunk_size)`.
    pub fn par_map_chunked<'i, T, U, F>(&self, chunk_size: usize, items: &'i [T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(&'i T) -> U + Sync,
    {
        assert!(chunk_size > 0, "chunk_size must be nonzero");
        let n_chunks = items.len().div_ceil(chunk_size);
        let per_chunk: Vec<Vec<U>> = self.run_tasks(n_chunks, |c| {
            let lo = c * chunk_size;
            let hi = (lo + chunk_size).min(items.len());
            items[lo..hi].iter().map(&f).collect()
        });
        per_chunk.into_iter().flatten().collect()
    }

    /// Runs `f` over disjoint mutable chunks of `items` (chunk `c` covers
    /// `[c*chunk_size, (c+1)*chunk_size)`), returning per-chunk results in
    /// chunk order. The mutable analogue of [`Pool::par_map_chunked`] for
    /// algorithms that update chunk-local state in place (e.g. Gibbs
    /// sweeps mutating per-document topic assignments).
    pub fn par_chunks_mut<T, R, F>(&self, chunk_size: usize, items: &mut [T], f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, &mut [T]) -> R + Sync,
    {
        assert!(chunk_size > 0, "chunk_size must be nonzero");
        self.scatter(items.chunks_mut(chunk_size).collect(), f)
    }

    /// Sharded fold: each chunk folds `fold` over its items (with global
    /// item index) starting from `init()`, then the per-chunk accumulators
    /// are combined with `merge` in ascending chunk order — so even
    /// non-associative merges (floating point) are reproducible.
    pub fn par_fold<T, A, I, F, M>(&self, items: &[T], init: I, fold: F, merge: M) -> A
    where
        T: Sync,
        A: Send,
        I: Fn() -> A + Sync,
        F: Fn(A, usize, &T) -> A + Sync,
        M: Fn(A, A) -> A,
    {
        let chunk_size = default_chunk_size(items.len());
        let n_chunks = items.len().div_ceil(chunk_size);
        let accs: Vec<A> = self.run_tasks(n_chunks, |c| {
            let lo = c * chunk_size;
            let hi = (lo + chunk_size).min(items.len());
            items[lo..hi]
                .iter()
                .enumerate()
                .fold(init(), |acc, (j, item)| fold(acc, lo + j, item))
        });
        accs.into_iter().reduce(merge).unwrap_or_else(init)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_matches_serial_at_any_thread_count() {
        let items: Vec<u64> = (0..1000).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for threads in [1, 2, 3, 8] {
            let pool = Pool::new(threads);
            assert_eq!(
                pool.par_map(&items, |x| x * x + 1),
                serial,
                "{threads} threads"
            );
        }
    }

    #[test]
    fn chunk_boundaries_do_not_depend_on_threads() {
        let items: Vec<usize> = (0..100).collect();
        // f records its item; order of output must be input order always.
        for chunk in [1, 7, 16, 100, 1000] {
            for threads in [1, 2, 8] {
                let out = Pool::new(threads).par_map_chunked(chunk, &items, |&x| x);
                assert_eq!(out, items, "chunk={chunk} threads={threads}");
            }
        }
    }

    #[test]
    fn par_fold_is_bit_identical_across_thread_counts() {
        // Floating-point sums are order-sensitive; the ordered merge must
        // make every thread count produce the same bits.
        let items: Vec<f64> = (0..5000).map(|i| 1.0 / (i as f64 + 1.0)).collect();
        let fold = |acc: f64, _i: usize, x: &f64| acc + x;
        let reference = Pool::new(1).par_fold(&items, || 0.0, fold, |a, b| a + b);
        for threads in [2, 4, 8] {
            let sum = Pool::new(threads).par_fold(&items, || 0.0, fold, |a, b| a + b);
            assert_eq!(sum.to_bits(), reference.to_bits(), "{threads} threads");
        }
    }

    #[test]
    fn empty_input_yields_init() {
        let pool = Pool::new(4);
        let out: Vec<u32> = pool.par_map(&[] as &[u32], |x| *x);
        assert!(out.is_empty());
        let acc = pool.par_fold(&[] as &[u32], || 42u64, |a, _, _| a + 1, |a, b| a + b);
        assert_eq!(acc, 42);
    }

    #[test]
    fn par_chunks_mut_mutates_every_chunk_once() {
        // 200 items in chunks of 32: seven chunks, the last one short.
        let reference: Vec<u64> = (0..200u64).map(|x| x + 1000 * (x / 32)).collect();
        for threads in [1, 2, 8] {
            let pool = Pool::new(threads);
            let mut items: Vec<u64> = (0..200).collect();
            let lens = pool.par_chunks_mut(32, &mut items, |c, chunk| {
                for x in chunk.iter_mut() {
                    *x += 1000 * c as u64;
                }
                chunk.len()
            });
            assert_eq!(items, reference, "{threads} threads");
            assert_eq!(lens, [32, 32, 32, 32, 32, 32, 8]);
            assert!(pool.par_chunks_mut(4, &mut [0u64; 0], |c, _| c).is_empty());
        }
    }

    #[test]
    fn run_tasks_returns_in_task_order() {
        // Fewer tasks than threads, and many more.
        for n in [3, 50] {
            let out = Pool::new(8).run_tasks(n, |t| t * 2);
            assert_eq!(out, (0..n).map(|t| t * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    #[should_panic(expected = "task 3 failed")]
    fn a_panicking_task_reaches_the_caller() {
        Pool::new(2).run_tasks(8, |t| assert_ne!(t, 3, "task 3 failed"));
    }

    #[test]
    fn pool_clamps_zero_threads() {
        assert_eq!(Pool::new(0).threads(), 1);
    }
}
