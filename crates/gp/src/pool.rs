//! The evaluation pool: one round of independent jobs at a time, run on
//! scoped threads.
//!
//! Per-item cost spans orders of magnitude — deriving a phenotype is cheap
//! next to simulating it, a short-circuited evaluation aborts after a few
//! simulated days, a full one integrates the whole training horizon — so
//! static chunking would leave most workers idle behind the unluckiest
//! chunk. Work is therefore **claimed dynamically**: a round hands out
//! chunks of `K` items from one shared, mutex-guarded iterator, and a
//! worker that drains its chunk simply claims another ("steals" work a
//! static split would have assigned elsewhere).
//!
//! Each round spawns its workers as scoped threads — up to `threads − 1`,
//! never more than there are chunks; the coordinating thread claims chunks
//! too — and joins them before it returns, so a round borrows its items
//! and its task like any other call. A one-worker pool, or a one-item
//! round, runs inline on the coordinator.
//!
//! Determinism: the pool only decides *which worker* runs an item, never
//! *what* it computes — tasks receive the global item index, and the
//! engine hands the pool pure jobs that share nothing mutable. See
//! DESIGN.md, "Evaluation pool & determinism contract".

use std::cell::RefCell;
use std::panic::resume_unwind;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// What one worker did over the pool's lifetime.
#[derive(Debug, Clone, Default)]
pub struct WorkerStats {
    /// Worker index (0 is the coordinating thread).
    pub worker: usize,
    /// Items processed.
    pub candidates: u64,
    /// Chunk claims made.
    pub claims: u64,
    /// Time spent running items.
    pub busy: Duration,
    /// Time within rounds spent not running items: starting up, waiting
    /// for the round's last chunk, or sitting out a round too small to
    /// need this worker.
    pub idle: Duration,
}

/// Aggregate pool statistics for a run.
#[derive(Debug, Clone, Default)]
pub struct PoolStats {
    /// Per-worker records, sorted by worker index.
    pub workers: Vec<WorkerStats>,
    /// Rounds dispatched.
    pub rounds: u64,
}

impl PoolStats {
    /// Total candidates processed across workers.
    pub fn total_candidates(&self) -> u64 {
        self.workers.iter().map(|w| w.candidates).sum()
    }

    /// Total idle time across workers.
    pub fn total_idle(&self) -> Duration {
        self.workers.iter().map(|w| w.idle).sum()
    }

    /// Total busy time across workers.
    pub fn total_busy(&self) -> Duration {
        self.workers.iter().map(|w| w.busy).sum()
    }
}

/// Handle the engine's coordinating thread dispatches rounds through.
/// Created by [`with_pool`]; not `Sync` — only the coordinator drives it.
pub struct EvalPool {
    threads: usize,
    stats: RefCell<PoolStats>,
}

/// A round must at least outlast this before an idle worker counts as
/// stalled — fast rounds legitimately finish before a spawned worker starts.
const STALL_MIN_ROUND: Duration = Duration::from_millis(20);

impl EvalPool {
    /// Rounds dispatched so far.
    pub fn rounds(&self) -> u64 {
        self.stats.borrow().rounds
    }

    /// The pool's cumulative statistics so far. Exact: every round's
    /// per-worker accounting is added up before the round returns.
    pub fn snapshot(&self) -> PoolStats {
        self.stats.borrow().clone()
    }

    /// Chunk size for a round: all of it for a lone worker; otherwise small
    /// enough to balance heterogeneous item costs, large enough to amortise
    /// the claim.
    fn chunk_for(&self, len: usize) -> usize {
        if self.threads == 1 {
            len
        } else {
            (len / (self.threads * 8)).clamp(1, 16)
        }
    }

    /// Run `f(index, item)` over `items`, one call per item, distributed
    /// over the pool by dynamic chunk claiming. Blocks until every item is
    /// processed; a panic in a task is re-raised here with its own payload.
    pub fn for_each_mut<T: Send>(&self, items: &mut [T], f: impl Fn(usize, &mut T) + Sync) {
        let len = items.len();
        if len == 0 {
            return;
        }
        let round = {
            let mut stats = self.stats.borrow_mut();
            stats.rounds += 1;
            stats.rounds
        };
        let t0 = Instant::now();
        let chunk = self.chunk_for(len);
        let spawned = self.threads.min(len.div_ceil(chunk)) - 1;
        let queue = Mutex::new(items.chunks_mut(chunk).enumerate());
        let drain = || {
            let _sp = gmr_obsv::span_fine!("pool.drain", round);
            let start = Instant::now();
            let mut me = WorkerStats::default();
            loop {
                let next = queue
                    .lock()
                    .expect("tasks run outside the claim lock")
                    .next();
                let Some((c, part)) = next else { break };
                for (j, item) in part.iter_mut().enumerate() {
                    f(c * chunk + j, item);
                }
                me.candidates += part.len() as u64;
                me.claims += 1;
            }
            me.busy = start.elapsed();
            me
        };
        let done = std::thread::scope(|s| {
            let handles: Vec<_> = (0..spawned).map(|_| s.spawn(drain)).collect();
            // The coordinator is worker 0 and claims chunks like any other.
            // A panic — its own, or a worker's re-raised from the join —
            // leaves the scope with its payload once every worker is joined.
            let mut done = vec![drain()];
            done.extend(
                handles
                    .into_iter()
                    .map(|h| h.join().unwrap_or_else(|p| resume_unwind(p))),
            );
            done
        });
        self.finish_round(round, len, t0.elapsed(), &done);
    }

    /// Add one round's per-worker accounting (index = worker) to the
    /// cumulative records and journal any spawned worker that claimed
    /// nothing in a long, well-stocked round.
    fn finish_round(&self, round: u64, len: usize, wall: Duration, done: &[WorkerStats]) {
        let mut stats = self.stats.borrow_mut();
        for (w, total) in stats.workers.iter_mut().enumerate() {
            let me = done.get(w).cloned().unwrap_or_default();
            total.candidates += me.candidates;
            total.claims += me.claims;
            total.busy += me.busy;
            total.idle += wall.saturating_sub(me.busy);
        }
        if gmr_obsv::enabled() && len >= 2 * self.threads && wall >= STALL_MIN_ROUND {
            for (w, me) in done.iter().enumerate().skip(1) {
                if me.candidates == 0 {
                    gmr_obsv::emit(gmr_obsv::Event::Stall {
                        round,
                        worker: w as u32,
                        round_us: wall.as_micros() as u64,
                    });
                }
            }
        }
    }
}

/// Make a pool of `threads` workers (counting the calling thread), run `f`
/// with it, and return `f`'s result plus the collected [`PoolStats`].
pub fn with_pool<R>(threads: usize, f: impl FnOnce(&EvalPool) -> R) -> (R, PoolStats) {
    let threads = threads.max(1);
    let pool = EvalPool {
        threads,
        stats: RefCell::new(PoolStats {
            workers: (0..threads)
                .map(|worker| WorkerStats {
                    worker,
                    ..WorkerStats::default()
                })
                .collect(),
            rounds: 0,
        }),
    };
    let result = f(&pool);
    (result, pool.stats.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn visit_counts(threads: usize, n: usize) -> Vec<u32> {
        let counts: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        let ((), stats) = with_pool(threads, |pool| {
            let mut items: Vec<usize> = (0..n).collect();
            pool.for_each_mut(&mut items, |i, it| {
                assert_eq!(*it, i, "index/item pairing preserved");
                counts[i].fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(stats.total_candidates(), n as u64);
        counts.into_iter().map(|c| c.into_inner()).collect()
    }

    #[test]
    fn empty_round_is_a_no_op() {
        assert!(visit_counts(8, 0).is_empty());
    }

    #[test]
    fn single_item_runs_inline() {
        assert_eq!(visit_counts(8, 1), vec![1]);
    }

    #[test]
    fn fewer_items_than_threads_each_visited_once() {
        assert_eq!(visit_counts(8, 3), vec![1, 1, 1]);
    }

    #[test]
    fn every_index_visited_exactly_once() {
        for threads in [1, 2, 4, 8] {
            let counts = visit_counts(threads, 257);
            assert!(
                counts.iter().all(|&c| c == 1),
                "threads={threads}: {counts:?}"
            );
        }
    }

    #[test]
    fn rounds_reuse_the_same_workers() {
        // Every round runs on freshly spawned scoped threads, but its work
        // is accounted to the same `threads` worker records: ten rounds of
        // 64 items plus one inline single-item round fold into four records
        // whose round, candidate and claim counts add up exactly.
        let (sum, stats) = with_pool(4, |pool| {
            let mut total = 0u64;
            for round in 0..10u64 {
                let mut items = vec![0u64; 64];
                pool.for_each_mut(&mut items, |i, it| *it = round * 1000 + i as u64);
                total += items.iter().sum::<u64>();
                assert_eq!(pool.rounds(), round + 1);
            }
            let before = pool.snapshot().workers[0].candidates;
            pool.for_each_mut(&mut [0u8], |_, _| {});
            assert_eq!(pool.snapshot().workers[0].candidates, before + 1);
            total
        });
        let expected: u64 = (0..10u64)
            .map(|r| (0..64u64).map(|i| r * 1000 + i).sum::<u64>())
            .sum();
        assert_eq!(sum, expected);
        assert_eq!(stats.rounds, 11);
        assert_eq!(stats.total_candidates(), 641);
        assert_eq!(stats.workers.len(), 4, "{:?}", stats.workers);
        for (i, w) in stats.workers.iter().enumerate() {
            assert_eq!(w.worker, i);
        }
        let claims: u64 = stats.workers.iter().map(|w| w.claims).sum();
        assert!(claims >= 11, "every round claims at least once: {claims}");
    }

    #[test]
    fn imbalanced_work_is_stolen() {
        // One pathologically slow item at index 0; with static halves the
        // second worker would finish ~immediately while the first serially
        // grinds the rest. Dynamic claiming lets the free worker take them.
        let ((), stats) = with_pool(2, |pool| {
            let mut items = vec![0u8; 64];
            pool.for_each_mut(&mut items, |i, _| {
                if i == 0 {
                    std::thread::sleep(Duration::from_millis(30));
                }
            });
        });
        // The worker stuck on item 0 cannot have processed everything.
        let max_share = stats
            .workers
            .iter()
            .map(|w| w.candidates)
            .max()
            .unwrap_or(0);
        assert!(max_share < 64, "one worker did all the work: {stats:?}");
    }

    #[test]
    fn snapshot_is_exact_at_round_boundaries() {
        // The old stats path only materialised numbers at shutdown; the
        // live accounting must be readable — and exact for candidates —
        // after every round.
        with_pool(4, |pool| {
            for round in 1..=3u64 {
                let mut items = vec![0u8; 128];
                pool.for_each_mut(&mut items, |_, _| {
                    std::hint::black_box(());
                });
                let snap = pool.snapshot();
                assert_eq!(snap.rounds, round);
                assert_eq!(snap.total_candidates(), 128 * round);
                assert_eq!(snap.workers.len(), 4);
            }
        });
    }

    #[test]
    fn worker_panic_propagates() {
        let caught = std::panic::catch_unwind(|| {
            with_pool(4, |pool| {
                let mut items = vec![0u8; 32];
                pool.for_each_mut(&mut items, |i, _| {
                    if i == 17 {
                        panic!("injected failure");
                    }
                });
            });
        });
        let err = caught.expect_err("panic must propagate");
        let msg = err
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("<non-str payload>");
        assert!(msg.contains("injected failure"), "{msg}");
    }

    #[test]
    fn stats_account_claims_and_steals() {
        let ((), stats) = with_pool(4, |pool| {
            let mut items = vec![0u8; 512];
            pool.for_each_mut(&mut items, |_, _| {
                std::hint::black_box(());
            });
        });
        let claims: u64 = stats.workers.iter().map(|w| w.claims).sum();
        assert!(claims >= 2, "512 items must take several claims");
    }
}
