//! Fixed-size worker thread pool with a bounded job queue.
//!
//! Query execution is decoupled from connection handling so a slow
//! query on one connection cannot starve frame I/O on the others, and
//! so admission control has a natural backpressure point: when the
//! queue is full, [`WorkerPool::submit`] refuses immediately and the
//! connection reports `Busy` instead of piling work up.
//!
//! Shutdown is graceful by construction: [`WorkerPool::shutdown`]
//! stops admission, then workers drain every job already queued before
//! exiting — in-flight queries complete and their responses are
//! delivered.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A unit of work for the pool.
pub type Job = Box<dyn FnOnce() + Send + 'static>;

/// A queued unit of work, optionally guarded by a cancel token.
struct QueuedJob {
    job: Job,
    /// When set and already flipped by the time a worker dequeues the
    /// job, the worker runs `on_skip` instead of `job` — the query is
    /// answered as cancelled without ever occupying the worker.
    token: Option<Arc<AtomicBool>>,
    on_skip: Option<Job>,
}

struct Queue {
    jobs: VecDeque<QueuedJob>,
    shutting_down: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    /// Signaled when a job arrives or shutdown begins.
    available: Condvar,
    capacity: usize,
    /// Workers currently inside a job.
    busy: AtomicUsize,
}

/// Fixed worker threads pulling from one bounded queue.
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

/// Refusal from [`WorkerPool::submit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is at capacity.
    Full,
    /// The pool no longer accepts work.
    ShuttingDown,
}

impl WorkerPool {
    /// Spawns `workers` threads servicing a queue of at most
    /// `capacity` pending jobs.
    pub fn new(workers: usize, capacity: usize) -> WorkerPool {
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                shutting_down: false,
            }),
            available: Condvar::new(),
            capacity: capacity.max(1),
            busy: AtomicUsize::new(0),
        });
        let workers = (0..workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("nlq-pool-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool { shared, workers }
    }

    /// Enqueues a job, refusing when full or shutting down.
    pub fn submit(&self, job: Job) -> Result<(), SubmitError> {
        self.enqueue(QueuedJob {
            job,
            token: None,
            on_skip: None,
        })
    }

    /// Enqueues a job guarded by a cancel token. If the token is
    /// already flipped when a worker dequeues the job, the worker runs
    /// the cheap `on_skip` instead — a queued-but-not-started query
    /// answers its cancel without burning the worker on a scan it
    /// would immediately abandon.
    pub fn submit_with_token(
        &self,
        token: Arc<AtomicBool>,
        job: Job,
        on_skip: Job,
    ) -> Result<(), SubmitError> {
        self.enqueue(QueuedJob {
            job,
            token: Some(token),
            on_skip: Some(on_skip),
        })
    }

    fn enqueue(&self, queued: QueuedJob) -> Result<(), SubmitError> {
        let mut q = self.shared.queue.lock().expect("pool queue");
        if q.shutting_down {
            return Err(SubmitError::ShuttingDown);
        }
        if q.jobs.len() >= self.shared.capacity {
            return Err(SubmitError::Full);
        }
        q.jobs.push_back(queued);
        drop(q);
        self.shared.available.notify_one();
        Ok(())
    }

    /// Number of jobs waiting (not yet picked up by a worker).
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.lock().expect("pool queue").jobs.len()
    }

    /// Number of workers currently executing a job. A cancelled query
    /// shows up here as the count dropping once the scan notices the
    /// token.
    pub fn workers_busy(&self) -> usize {
        self.shared.busy.load(Ordering::Relaxed)
    }

    /// Stops admission, drains every queued job, and joins the
    /// workers.
    pub fn shutdown(&mut self) {
        {
            let mut q = self.shared.queue.lock().expect("pool queue");
            if q.shutting_down {
                return;
            }
            q.shutting_down = true;
        }
        self.shared.available.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let queued = {
            let mut q = shared.queue.lock().expect("pool queue");
            loop {
                if let Some(queued) = q.jobs.pop_front() {
                    break queued;
                }
                if q.shutting_down {
                    return;
                }
                q = shared.available.wait(q).expect("pool queue");
            }
        };
        // A job whose cancel token flipped while it sat in the queue
        // never starts: answer it with the cheap skip path instead.
        if let Some(token) = &queued.token {
            if token.load(Ordering::SeqCst) {
                if let Some(on_skip) = queued.on_skip {
                    on_skip();
                }
                continue;
            }
        }
        shared.busy.fetch_add(1, Ordering::Relaxed);
        // A job that panics fails alone: the worker and the busy count
        // outlive it.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(queued.job));
        shared.busy.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;

    #[test]
    fn jobs_run_and_results_come_back() {
        let pool = WorkerPool::new(4, 16);
        let (tx, rx) = mpsc::channel();
        for i in 0..10u64 {
            let tx = tx.clone();
            pool.submit(Box::new(move || tx.send(i * i).unwrap()))
                .unwrap();
        }
        drop(tx);
        let mut got: Vec<u64> = rx.iter().collect();
        got.sort_unstable();
        assert_eq!(got, (0..10).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn bounded_queue_refuses_when_full() {
        let pool = WorkerPool::new(1, 2);
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        // Occupy the single worker...
        pool.submit(Box::new(move || {
            let _ = gate_rx.recv();
        }))
        .unwrap();
        // ...then fill the queue. Depending on pickup timing the first
        // submit may still be queued, so allow one refusal early.
        let mut refused = 0;
        for _ in 0..3 {
            if pool.submit(Box::new(|| {})).is_err() {
                refused += 1;
            }
        }
        assert!(refused >= 1, "third queued job must be refused");
        gate_tx.send(()).unwrap();
    }

    #[test]
    fn pre_cancelled_queued_job_is_skipped_at_dequeue() {
        let pool = WorkerPool::new(1, 8);
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        // Occupy the single worker and wait until it is really inside
        // the job, so the next submit definitely sits in the queue.
        pool.submit(Box::new(move || {
            started_tx.send(()).unwrap();
            let _ = gate_rx.recv();
        }))
        .unwrap();
        started_rx.recv().unwrap();

        let token = Arc::new(AtomicBool::new(false));
        let ran = Arc::new(AtomicUsize::new(0));
        let skipped = Arc::new(AtomicUsize::new(0));
        let (ran2, skipped2) = (Arc::clone(&ran), Arc::clone(&skipped));
        pool.submit_with_token(
            Arc::clone(&token),
            Box::new(move || {
                ran2.fetch_add(1, Ordering::SeqCst);
            }),
            Box::new(move || {
                skipped2.fetch_add(1, Ordering::SeqCst);
            }),
        )
        .unwrap();

        // Cancel while queued, then release the worker.
        token.store(true, Ordering::SeqCst);
        gate_tx.send(()).unwrap();

        // The skip path must run; the job body must not.
        for _ in 0..200 {
            if skipped.load(Ordering::SeqCst) == 1 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert_eq!(skipped.load(Ordering::SeqCst), 1);
        assert_eq!(ran.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn a_panicking_job_leaves_the_worker_serving() {
        let pool = Arc::new(WorkerPool::new(1, 8));
        pool.submit(Box::new(|| panic!("job failed"))).unwrap();
        let (tx, rx) = mpsc::channel();
        let inner = Arc::clone(&pool);
        pool.submit(Box::new(move || tx.send(inner.workers_busy()).unwrap()))
            .unwrap();
        // The lone worker survived, and only the reporting job itself
        // counts as busy: the panicked one gave its count back.
        let busy = rx.recv_timeout(std::time::Duration::from_secs(10));
        assert_eq!(busy, Ok(1));
    }

    #[test]
    fn shutdown_drains_queued_jobs() {
        let done = Arc::new(AtomicUsize::new(0));
        let mut pool = WorkerPool::new(2, 64);
        for _ in 0..32 {
            let done = Arc::clone(&done);
            pool.submit(Box::new(move || {
                std::thread::sleep(std::time::Duration::from_millis(1));
                done.fetch_add(1, Ordering::SeqCst);
            }))
            .unwrap();
        }
        pool.shutdown();
        assert_eq!(done.load(Ordering::SeqCst), 32, "drain must finish all");
        assert!(matches!(
            pool.submit(Box::new(|| {})),
            Err(SubmitError::ShuttingDown)
        ));
    }
}
