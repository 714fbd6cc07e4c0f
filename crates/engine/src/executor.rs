//! Where a shard's work runs, and what it has done.
//!
//! At S = 1 the lone shard has no thread of its own: jobs run inline on
//! the caller's thread, so a single-node engine pays no hop. At S > 1
//! each shard owns a long-lived worker thread, pinned to a disjoint
//! slice of the machine's cores, that drains a FIFO job queue: a gather
//! can then block on every shard without any risk of exhausting the
//! serving layer's pool. A job's parallel scans run on the job's own
//! thread plus helpers from the process-wide scan pool
//! (`nlq_storage::run_indexed`), which are not pinned.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Instant;

use nlq_obs::{thread_cpu_nanos, Phase, Span, Trace};

use crate::db::ShardMetricsSnapshot;
use crate::shard::Shard;
use crate::{EngineError, Result};

/// One piece of a statement, run against shard `i`.
pub(crate) type Job<T> = Arc<dyn Fn(usize, &Shard) -> Result<T> + Send + Sync>;

type Task = Box<dyn FnOnce() + Send>;

/// A shard's worker thread and its queue.
struct Worker {
    tx: Option<mpsc::Sender<Task>>,
    handle: Option<JoinHandle<()>>,
}

impl Drop for Worker {
    fn drop(&mut self) {
        // Closing the channel ends the worker's loop.
        drop(self.tx.take());
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// A started job: finished already (inline) or queued on a worker.
/// Either way it yields the result and the job's wall time.
pub(crate) enum Pending<T> {
    Done(Result<T>, u64),
    Queued(mpsc::Receiver<(Result<T>, u64)>),
}

impl<T> Pending<T> {
    pub fn wait(self) -> (Result<T>, u64) {
        match self {
            Pending::Done(res, nanos) => (res, nanos),
            Pending::Queued(rx) => rx.recv().expect("shard worker alive"),
        }
    }
}

/// One shard as the router holds it: its state, the thread its jobs
/// run on (none at S = 1), and its activity counters.
pub(crate) struct Lane {
    pub shard: Arc<Shard>,
    worker: Option<Worker>,
    queue_depth: Arc<AtomicU64>,
    queries: AtomicU64,
    rows_scanned: AtomicU64,
    busy_nanos: AtomicU64,
}

impl Lane {
    /// Shard `i` of `shards`; it gets a worker thread only when
    /// `shards > 1`.
    pub fn new(i: usize, shards: usize, workers: usize) -> Lane {
        let queue_depth = Arc::new(AtomicU64::new(0));
        let worker = (shards > 1).then(|| {
            let ncpu = std::thread::available_parallelism().map_or(1, |n| n.get());
            let cores = cores_for_shard(i, shards, ncpu);
            let (tx, rx) = mpsc::channel::<Task>();
            let handle = std::thread::Builder::new()
                .name(format!("shard-{i}"))
                .spawn(move || {
                    pin_current_thread(&cores);
                    for task in rx {
                        task();
                    }
                })
                .expect("spawn shard worker");
            Worker {
                tx: Some(tx),
                handle: Some(handle),
            }
        });
        Lane {
            shard: Arc::new(Shard::new(workers)),
            worker,
            queue_depth,
            queries: AtomicU64::new(0),
            rows_scanned: AtomicU64::new(0),
            busy_nanos: AtomicU64::new(0),
        }
    }

    /// Starts `job` for shard `i`: runs it now on the caller's thread
    /// when the shard has no worker, else queues it there, recording a
    /// per-shard `scatter` span into `trace`.
    pub fn start<T: Send + 'static>(
        &self,
        i: usize,
        job: Job<T>,
        trace: &Option<Trace>,
        rows_of: fn(&T) -> u64,
    ) -> Pending<T> {
        let Some(worker) = &self.worker else {
            let started = Instant::now();
            let res = job(i, &self.shard);
            return Pending::Done(res, started.elapsed().as_nanos() as u64);
        };
        let (done_tx, done_rx) = mpsc::sync_channel(1);
        self.queue_depth.fetch_add(1, Ordering::Relaxed);
        let depth = Arc::clone(&self.queue_depth);
        let shard = Arc::clone(&self.shard);
        let trace = trace.clone();
        let task: Task = Box::new(move || {
            depth.fetch_sub(1, Ordering::Relaxed);
            let started = Instant::now();
            let out = shard_span(&trace, i, rows_of, || job(i, &shard));
            // The gather may have given up (error on another shard); a
            // closed receiver is not an error here.
            let _ = done_tx.send((out, started.elapsed().as_nanos() as u64));
        });
        worker
            .tx
            .as_ref()
            .expect("worker alive")
            .send(task)
            .expect("shard worker alive");
        Pending::Queued(done_rx)
    }

    /// Counts one finished job against this shard.
    pub fn count<T>(&self, res: &Result<T>, nanos: u64, rows_of: fn(&T) -> u64) {
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.busy_nanos.fetch_add(nanos, Ordering::Relaxed);
        let rows = match res {
            Ok(v) => rows_of(v),
            Err(EngineError::Cancelled { rows_scanned }) => *rows_scanned,
            Err(_) => 0,
        };
        self.rows_scanned.fetch_add(rows, Ordering::Relaxed);
    }

    pub fn metrics(&self, shard: usize) -> ShardMetricsSnapshot {
        ShardMetricsSnapshot {
            shard,
            queries: self.queries.load(Ordering::Relaxed),
            rows_scanned: self.rows_scanned.load(Ordering::Relaxed),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            busy_nanos: self.busy_nanos.load(Ordering::Relaxed),
        }
    }
}

/// Runs one shard's piece of a scattered statement on its worker,
/// recording a per-shard `scatter` span — wall time, rows, and the
/// worker's CPU sample — into the statement's trace and summing the CPU
/// into the per-query total. Sampling happens inside the job, on the
/// shard thread, so `CLOCK_THREAD_CPUTIME_ID` reads the right clock.
fn shard_span<T>(
    trace: &Option<Trace>,
    shard: usize,
    rows_of: fn(&T) -> u64,
    job: impl FnOnce() -> Result<T>,
) -> Result<T> {
    let cpu_started = thread_cpu_nanos();
    let wall = Instant::now();
    let res = job();
    if let Some(t) = trace {
        let cpu = thread_cpu_nanos().saturating_sub(cpu_started);
        let rows = res.as_ref().map(rows_of).unwrap_or(0);
        t.record(
            Span::new(Phase::Scatter, wall.elapsed().as_nanos() as u64)
                .rows(rows)
                .cpu_nanos(cpu)
                .on_shard(shard),
        );
        t.add_cpu_nanos(cpu);
    }
    res
}

// ---------------------------------------------------------------------
// Best-effort CPU pinning. Pinning is strictly an optimization: on
// non-Linux targets, or when `sched_setaffinity` fails, execution
// proceeds unpinned.
// ---------------------------------------------------------------------

/// Maximum CPUs representable in our hand-rolled `cpu_set_t` (16
/// 64-bit words, matching glibc's 1024-bit default).
const MAX_CPUS: usize = 1024;

#[cfg(target_os = "linux")]
mod sys {
    /// Mirror of glibc's `cpu_set_t`: a 1024-bit CPU mask.
    #[repr(C)]
    pub struct CpuSet {
        pub bits: [u64; 16],
    }

    extern "C" {
        /// `sched_setaffinity(2)`; pid 0 targets the calling thread.
        pub fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
    }
}

/// Pins the calling thread to the given core ids (best effort). Cores
/// beyond [`MAX_CPUS`] are ignored; an empty effective set is a no-op.
#[cfg(target_os = "linux")]
fn pin_current_thread(cores: &[usize]) {
    let mut set = sys::CpuSet { bits: [0; 16] };
    let mut any = false;
    for &c in cores {
        if c < MAX_CPUS {
            set.bits[c / 64] |= 1u64 << (c % 64);
            any = true;
        }
    }
    if any {
        // Failure leaves the thread unpinned, which is always safe.
        // SAFETY: `set` is a live, initialized `CpuSet` with the layout
        // of glibc's `cpu_set_t`, and the size passed is its own, so the
        // kernel reads only memory this frame owns.
        unsafe { sys::sched_setaffinity(0, std::mem::size_of::<sys::CpuSet>(), &set) };
    }
}

/// No-op fallback for non-Linux targets.
#[cfg(not(target_os = "linux"))]
fn pin_current_thread(_cores: &[usize]) {}

/// Splits `ncpu` cores into `shards` disjoint contiguous slices,
/// returning the slice for `shard`. With fewer cores than shards the
/// assignment wraps (shard *i* gets core *i* mod `ncpu`).
fn cores_for_shard(shard: usize, shards: usize, ncpu: usize) -> Vec<usize> {
    if ncpu == 0 || shards == 0 {
        return Vec::new();
    }
    let per = ncpu / shards;
    if per == 0 {
        return vec![shard % ncpu];
    }
    (shard * per..(shard + 1) * per).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(f: fn(usize) -> u64) -> Job<u64> {
        Arc::new(move |i, _| Ok(f(i)))
    }

    #[test]
    fn threaded_lane_runs_jobs_in_submission_order() {
        let lane = Lane::new(0, 2, 1);
        let a = lane.start(0, job(|_| 1), &None, |_| 0);
        let b = lane.start(0, job(|_| 2), &None, |_| 0);
        assert_eq!(a.wait().0.unwrap(), 1);
        assert_eq!(b.wait().0.unwrap(), 2);
        assert_eq!(lane.metrics(0).queue_depth, 0);
    }

    #[test]
    fn lone_lane_runs_inline() {
        let lane = Lane::new(0, 1, 1);
        let caller = std::thread::current().id();
        let on: Job<bool> = Arc::new(move |_, _| Ok(std::thread::current().id() == caller));
        assert!(matches!(
            lane.start(0, on, &None, |_| 0),
            Pending::Done(Ok(true), _)
        ));
    }

    #[test]
    fn disjoint_contiguous_slices() {
        assert_eq!(cores_for_shard(0, 4, 8), vec![0, 1]);
        assert_eq!(cores_for_shard(1, 4, 8), vec![2, 3]);
    }

    #[test]
    fn wraps_when_oversubscribed() {
        assert_eq!(cores_for_shard(5, 8, 4), vec![1]);
    }

    #[test]
    fn pin_is_best_effort() {
        // Must not panic even for out-of-range or empty sets.
        pin_current_thread(&[]);
        pin_current_thread(&[usize::MAX]);
        pin_current_thread(&cores_for_shard(0, 1, 2));
    }
}
