//! A fixed-size worker pool: requests are executed off the connection
//! threads so N connections contend for `workers` mining slots instead
//! of spawning unbounded work. A panicking job is caught on its worker,
//! so one bad request never shrinks the pool.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed-size thread pool. Jobs run in submission order as workers
/// free up; a job that panics is caught and its worker takes the next
/// one. Dropping the pool finishes queued jobs and joins every worker.
#[derive(Debug)]
pub struct WorkerPool {
    jobs: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `workers` threads (at least one).
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let (tx, rx) = channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let handles = (0..workers)
            .map(|i| {
                let rx = Arc::clone(&rx);
                thread::Builder::new()
                    .name(format!("k2-serve-{i}"))
                    .spawn(move || loop {
                        // Hold the receiver lock only for the dequeue;
                        // the job itself runs unlocked.
                        let job = {
                            let guard = rx.lock().expect("pool queue lock");
                            guard.recv()
                        };
                        match job {
                            Ok(job) => {
                                let _ = panic::catch_unwind(AssertUnwindSafe(job));
                            }
                            Err(_) => break, // queue hung up
                        }
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        Self {
            jobs: Some(tx),
            workers: handles,
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Enqueues a job for execution on some worker.
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) {
        self.jobs
            .as_ref()
            .expect("job queue open until drop")
            .send(Box::new(job))
            .expect("pool workers alive");
    }

    /// Runs `job` on a worker and blocks for its result — the
    /// request/response shape both clients use. A job that panics
    /// returns `Err` with the panic message; the worker survives.
    pub fn run<R: Send + 'static>(
        &self,
        job: impl FnOnce() -> R + Send + 'static,
    ) -> Result<R, String> {
        let (tx, rx) = channel::<Result<R, String>>();
        self.execute(move || {
            let _ = tx.send(panic::catch_unwind(AssertUnwindSafe(job)).map_err(panic_message));
        });
        rx.recv().expect("pool job completes")
    }
}

/// The message of a caught panic payload (`panic!` with a literal or a
/// formatted string); anything else is reported generically.
fn panic_message(payload: Box<dyn Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => payload
            .downcast_ref::<&str>()
            .map_or_else(|| "non-string panic payload".to_string(), |s| s.to_string()),
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.jobs.take(); // hang up: workers drain the queue and exit
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn pool_runs_every_job() {
        let pool = WorkerPool::new(4);
        let hits = Arc::new(AtomicU64::new(0));
        for _ in 0..100 {
            let hits = hits.clone();
            pool.execute(move || {
                hits.fetch_add(1, Ordering::Relaxed);
            });
        }
        drop(pool); // joins after draining
        assert_eq!(hits.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn run_returns_the_job_result() {
        let pool = WorkerPool::new(2);
        assert_eq!(pool.run(|| 6 * 7), Ok(42));
    }

    #[test]
    fn a_panicking_job_does_not_kill_its_worker() {
        let pool = WorkerPool::new(1);
        let err = pool.run(|| -> u32 { panic!("bad request {}", 7) });
        assert_eq!(err, Err("bad request 7".to_string()));
        pool.execute(|| panic!("fire and forget"));
        // The one worker survived both panics.
        assert_eq!(pool.run(|| 42), Ok(42));
    }
}
