//! The workspace's one worker pool: indexed jobs fanned out over scoped
//! threads, their outputs returned in index order.
//!
//! [`crate::split`] parses the segments of a large input on it for the
//! DEFLATE tokenizer and the LZ4 block compressor, and `pedal::parallel`
//! compresses and decompresses chunks on it. A job that already runs on a
//! worker does not fan out again: [`on_worker`] tells [`crate::split`] to
//! keep the parse sequential there, so chunk workers never spawn helpers
//! of their own.

use std::cell::Cell;
use std::sync::OnceLock;

thread_local! {
    static ON_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// The host's core count, read once.
pub fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Whether the calling thread is one of this pool's workers.
pub fn on_worker() -> bool {
    ON_WORKER.with(Cell::get)
}

/// Run `make(i)` for every `i in 0..jobs` across `threads` workers
/// (strided assignment) and return the outputs in index order. With at
/// most one thread every job runs on the calling thread.
///
/// Deterministic by construction: each output depends only on its index,
/// and placement is by index.
pub fn fan_out<T: Send>(jobs: usize, threads: usize, make: impl Fn(usize) -> T + Sync) -> Vec<T> {
    if threads <= 1 {
        return (0..jobs).map(make).collect();
    }
    fan_out_beside(jobs, threads, make, || ()).1
}

/// [`fan_out`] on `threads` spawned workers (at least one) while the
/// calling thread runs `beside`; returns `beside`'s result and the jobs'
/// outputs once every job is done.
pub fn fan_out_beside<T: Send, R>(
    jobs: usize,
    threads: usize,
    make: impl Fn(usize) -> T + Sync,
    beside: impl FnOnce() -> R,
) -> (R, Vec<T>) {
    let threads = threads.clamp(1, jobs.max(1));
    let make = &make;
    let (ours, mut done) = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || {
                    ON_WORKER.with(|w| w.set(true));
                    (t..jobs).step_by(threads).map(|i| (i, make(i))).collect::<Vec<_>>()
                })
            })
            .collect();
        let ours = beside();
        let done: Vec<_> =
            workers.into_iter().flat_map(|w| w.join().expect("pool worker panicked")).collect();
        (ours, done)
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    (ours, done.into_iter().map(|(_, out)| out).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outputs_arrive_in_index_order_for_every_thread_count() {
        for threads in 0..6 {
            let out = fan_out(11, threads, |i| (i, on_worker()));
            assert_eq!(
                out.iter().map(|&(i, _)| i).collect::<Vec<_>>(),
                (0..11).collect::<Vec<_>>()
            );
            // Jobs run on workers exactly when there is more than one thread.
            assert!(out.iter().all(|&(_, w)| w == (threads > 1)), "threads {threads}");
        }
    }

    #[test]
    fn beside_runs_on_the_caller_while_workers_run() {
        let (ours, theirs) = fan_out_beside(3, 2, |i| (i * 10, on_worker()), on_worker);
        assert!(!ours, "the calling thread is not a worker");
        assert_eq!(theirs, [(0, true), (10, true), (20, true)]);
        let (ours, none) = fan_out_beside(0, 4, |i| i, || 7);
        assert_eq!((ours, none), (7, Vec::<usize>::new()));
    }
}
