//! The scan pool: how a statement's partitions (or any indexed tasks)
//! run on several threads.
//!
//! One process-wide set of helper threads, one per core, is spawned on
//! first use and never torn down. A caller posts its job, wakes up to
//! `workers − 1` helpers, and then works through the tasks itself,
//! claiming them from one atomic counter just as the helpers do. When
//! the counter runs out it retracts the job and waits only for the
//! helpers that already joined it, so a statement that finishes before
//! any helper wakes never waits, and no statement spawns a thread: on a
//! 2-vCPU host two scoped thread spawns and joins cost about 62 µs,
//! against 11 µs for a whole bounded scoring statement on one thread.

use std::any::Any;
use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

use crate::{Result, Row, Table};

/// Runs `worker` once per table partition on the scan pool and returns
/// the per-partition results in partition order.
///
/// This is the execution skeleton of the paper's parallel DBMS: each
/// thread scans its horizontal partition of `X` independently, and a
/// master merges the partial results afterwards (the aggregate-UDF
/// "partial result aggregation" phase). `workers` caps how many
/// threads, the caller included, scan at once; each claims the next
/// unscanned partition until none is left.
pub fn parallel_scan<R, F>(table: &Table, workers: usize, worker: F) -> Vec<R>
where
    R: Send,
    F: Fn(&mut dyn Iterator<Item = Result<Row>>) -> R + Sync,
{
    parallel_scan_indexed(table, workers, |_, iter| worker(iter))
}

/// Like [`parallel_scan`], but the callback also receives the
/// partition index (useful for deterministic seeding and diagnostics).
pub fn parallel_scan_indexed<R, F>(table: &Table, workers: usize, worker: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize, &mut dyn Iterator<Item = Result<Row>>) -> R + Sync,
{
    parallel_scan_partitions(table, workers, |p| {
        let mut iter = table.scan_partition(p);
        worker(p, &mut iter)
    })
}

/// Runs `worker(p)` once per partition index on the scan pool,
/// without pre-opening a row iterator — the worker chooses its own
/// access path (row scan, [`Table::scan_partition_blocks`], ...).
pub fn parallel_scan_partitions<R, F>(table: &Table, workers: usize, worker: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    run_indexed(table.partition_count(), workers, worker)
}

/// Runs `f(i)` once for every `i` in `0..tasks` and returns the results
/// in index order. Up to `workers` threads share the tasks: the calling
/// thread, which always takes part, and idle scan-pool helpers. A task
/// may itself call `run_indexed`.
///
/// # Panics
/// Re-raises the first panic of a task that ran on a helper, once
/// every helper has left the job; a task that panics on the calling
/// thread unwinds as usual.
pub fn run_indexed<R, F>(tasks: usize, workers: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let helpers = workers.min(tasks).saturating_sub(1);
    if helpers == 0 {
        return (0..tasks).map(f).collect();
    }
    // One slot per task; threads claim tasks through the counter and
    // fill disjoint slots.
    let slots: Vec<Mutex<Option<R>>> = (0..tasks).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let work = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= tasks {
            break;
        }
        let r = f(i);
        *slots[i].lock().expect("slot lock") = Some(r);
    };
    pool().run(&work, helpers);
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot lock")
                .expect("every task produced a result")
        })
        .collect()
}

/// A posted job as helpers see it: the caller's borrowed closure with
/// its lifetime erased (see the `SAFETY` argument in [`Pool::run`]).
type Job = &'static (dyn Fn() + Sync);

/// One posted job's meeting point between its caller and the helpers.
struct Ticket {
    state: Mutex<TicketState>,
    /// Signalled when the last helper inside the job leaves it.
    left: Condvar,
}

struct TicketState {
    /// The job, until the caller retracts it.
    job: Option<Job>,
    /// Helpers registered with the job and not yet out of it.
    running: usize,
    /// The first panic a helper caught inside the job.
    panic: Option<Box<dyn Any + Send>>,
}

/// The process-wide helper threads and their queue of posted jobs.
struct Pool {
    /// One entry per helper a job asked for.
    queue: Mutex<VecDeque<Arc<Ticket>>>,
    /// Signalled once per queue entry.
    posted: Condvar,
    /// How many helper threads exist.
    helpers: usize,
}

/// Locks `m`, recovering it from poisoning: nothing panics while
/// holding the pool's locks, and every update leaves their data valid.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The pool, spawning its helpers on first use.
fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let helpers = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        for i in 0..helpers {
            // Detached on purpose: a helper never returns and never
            // unwinds (it catches every task's panic), so there is
            // nothing to join. Its first `pool()` blocks until this
            // initialiser has returned.
            std::thread::Builder::new()
                .name(format!("nlq-scan-{i}"))
                .spawn(|| pool().serve())
                .expect("spawn scan pool helper");
        }
        Pool {
            queue: Mutex::new(VecDeque::new()),
            posted: Condvar::new(),
            helpers,
        }
    })
}

impl Pool {
    /// Runs `work` on the calling thread and on up to `helpers` idle
    /// helpers at once, returning when every copy has returned.
    /// `work` must itself share out what there is to do.
    fn run(&self, work: &(dyn Fn() + Sync), helpers: usize) {
        // SAFETY: the transmute only extends the lifetime of `work`;
        // no helper calls it after this function returns or unwinds:
        // - A helper reads the job and registers (`running += 1`) under
        //   the ticket's mutex, and the caller retracts it
        //   (`job = None`) under the same mutex. So every helper
        //   either registered before the retraction, and is waited
        //   for, or finds the job gone and never calls it.
        // - The retraction and the wait sit in `Retract::drop`, so
        //   they also run when `work` panics on this thread and
        //   unwinds out of here.
        // - Helpers call the job inside `catch_unwind` and deregister
        //   afterwards whatever happened; the caller re-raises a
        //   caught payload with `resume_unwind` only after the wait.
        // - Helper threads never exit, so a registered helper always
        //   reaches its deregistration and the wait always ends.
        let job: Job = unsafe { std::mem::transmute::<&(dyn Fn() + Sync), Job>(work) };
        let ticket = Arc::new(Ticket {
            state: Mutex::new(TicketState {
                job: Some(job),
                running: 0,
                panic: None,
            }),
            left: Condvar::new(),
        });
        let retract = Retract {
            pool: self,
            ticket: &ticket,
        };
        let wake = helpers.min(self.helpers);
        lock(&self.queue).extend(std::iter::repeat_n(&ticket, wake).cloned());
        // Notified after the unlock, a helper wakes straight into the
        // queue instead of onto the caller's lock.
        for _ in 0..wake {
            self.posted.notify_one();
        }
        work();
        drop(retract);
        let caught = lock(&ticket.state).panic.take();
        if let Some(payload) = caught {
            panic::resume_unwind(payload);
        }
    }

    /// A helper's loop: take the oldest queue entry, join its job if
    /// the job is still posted, and leave it when the job returns.
    fn serve(&self) -> ! {
        loop {
            let ticket = {
                let mut queue = lock(&self.queue);
                loop {
                    if let Some(ticket) = queue.pop_front() {
                        break ticket;
                    }
                    queue = self
                        .posted
                        .wait(queue)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            let job = {
                let mut state = lock(&ticket.state);
                if state.job.is_some() {
                    state.running += 1;
                }
                state.job
            };
            let Some(job) = job else { continue };
            let outcome = panic::catch_unwind(AssertUnwindSafe(job));
            let mut state = lock(&ticket.state);
            state.running -= 1;
            if let Err(payload) = outcome {
                state.panic.get_or_insert(payload);
            }
            if state.running == 0 {
                ticket.left.notify_one();
            }
        }
    }
}

/// Retracts a posted job when dropped, then waits until every helper
/// that registered with it has left.
struct Retract<'a> {
    pool: &'a Pool,
    ticket: &'a Arc<Ticket>,
}

impl Drop for Retract<'_> {
    fn drop(&mut self) {
        // Unclaimed entries would only wake helpers for nothing.
        lock(&self.pool.queue).retain(|t| !Arc::ptr_eq(t, self.ticket));
        let mut state = lock(&self.ticket.state);
        state.job = None;
        while state.running > 0 {
            state = self
                .ticket
                .left
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Schema, Value};

    fn table_with(n: usize, partitions: usize) -> Table {
        let mut t = Table::new(Schema::points(1, false), partitions);
        for i in 0..n {
            t.insert(vec![Value::Int(i as i64), Value::Float(1.0)])
                .unwrap();
        }
        t
    }

    #[test]
    fn partial_counts_sum_to_total() {
        let t = table_with(1003, 20);
        let partials = parallel_scan(&t, 8, |iter| iter.count());
        assert_eq!(partials.len(), 20);
        assert_eq!(partials.iter().sum::<usize>(), 1003);
    }

    #[test]
    fn results_are_in_partition_order() {
        let t = table_with(100, 10);
        let firsts = parallel_scan_indexed(&t, 4, |p, iter| {
            let first = iter.next().map(|r| r.unwrap()[0].as_i64().unwrap());
            (p, first)
        });
        for (idx, (p, first)) in firsts.iter().enumerate() {
            assert_eq!(idx, *p);
            // Round-robin: partition p's first row has id p.
            assert_eq!(*first, Some(*p as i64));
        }
    }

    #[test]
    fn single_worker_path_matches_parallel() {
        let t = table_with(500, 16);
        let serial: f64 = parallel_scan(&t, 1, |iter| {
            iter.map(|r| r.unwrap()[1].as_f64().unwrap()).sum::<f64>()
        })
        .iter()
        .sum();
        let parallel: f64 = parallel_scan(&t, 16, |iter| {
            iter.map(|r| r.unwrap()[1].as_f64().unwrap()).sum::<f64>()
        })
        .iter()
        .sum();
        assert_eq!(serial, parallel);
        assert_eq!(serial, 500.0);
    }

    #[test]
    fn more_workers_than_partitions_is_fine() {
        let t = table_with(10, 2);
        let partials = parallel_scan(&t, 64, |iter| iter.count());
        assert_eq!(partials.iter().sum::<usize>(), 10);
    }

    #[test]
    fn results_come_back_in_index_order_far_above_the_core_count() {
        let out = run_indexed(1000, 64, |i| {
            // Uneven task lengths shuffle which thread finishes when.
            (0..(i % 7) * 100).fold(i, |acc, _| std::hint::black_box(acc))
        });
        assert_eq!(out, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn a_helper_panic_is_re_raised_on_the_caller() {
        let caller = std::thread::current().id();
        let (ran_on_helper, helper_ran) = std::sync::mpsc::channel::<()>();
        let ran_on_helper = Mutex::new(ran_on_helper);
        let helper_ran = Mutex::new(helper_ran);
        // The caller's task holds on until a helper has run one, so
        // one task is sure to run, and panic, on a helper.
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            run_indexed(2, 2, |_| {
                if std::thread::current().id() == caller {
                    helper_ran.lock().unwrap().recv().unwrap();
                } else {
                    ran_on_helper.lock().unwrap().send(()).unwrap();
                    panic!("task failed on a helper");
                }
            })
        }));
        let payload = outcome.expect_err("the helper's panic reaches the caller");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"task failed on a helper")
        );
        assert_eq!(run_indexed(4, 4, |i| i * 2), vec![0, 2, 4, 6]);
    }

    #[test]
    fn a_task_may_run_a_nested_call() {
        let out = run_indexed(6, 4, |i| {
            run_indexed(5, 4, |j| i * 10 + j).iter().sum::<usize>()
        });
        let want: Vec<usize> = (0..6).map(|i| (0..5).map(|j| i * 10 + j).sum()).collect();
        assert_eq!(out, want);
    }
}
