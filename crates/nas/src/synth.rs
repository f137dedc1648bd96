//! Synthetic microworkloads: the NetPIPE-style ping-pong used for the
//! §5.4 platform characterization, plus a token ring for tests.

use std::sync::{Arc, Mutex};

use ftmpi_mpi::{app_fn, AppFn};

/// One NetPIPE sample: message size and measured one-way time.
#[derive(Debug, Clone, Copy)]
pub struct PingPongSample {
    /// Message size in bytes.
    pub bytes: u64,
    /// Measured one-way latency in seconds (round trip / 2).
    pub one_way_secs: f64,
    /// Effective bandwidth in bytes/second.
    pub bandwidth: f64,
}

/// Shared result sink for [`netpipe_app`]. A `Mutex` because the app
/// function that captures it is `Send + Sync` (a sweep worker runs it).
pub type PingPongResults = Arc<Mutex<Vec<PingPongSample>>>;

/// NetPIPE: rank 0 and rank 1 ping-pong messages of exponentially growing
/// sizes (with small perturbations, as the original tool does), recording
/// one-way latency and bandwidth into `results`. Other ranks idle.
pub fn netpipe_app(max_bytes: u64, reps: usize, results: PingPongResults) -> AppFn {
    app_fn(move |mut mpi| {
        let results = Arc::clone(&results);
        async move {
            if mpi.rank() > 1 || mpi.size() < 2 {
                return mpi;
            }
            let mut sizes = vec![1u64];
            let mut b = 2u64;
            while b <= max_bytes {
                // Perturbations around each power of two.
                sizes.push(b - 1);
                sizes.push(b);
                sizes.push(b + 1);
                b *= 2;
            }
            for (si, &bytes) in sizes.iter().enumerate() {
                let tag = (si % 1000) as i32;
                let t0 = mpi.wtime();
                for _ in 0..reps {
                    if mpi.rank() == 0 {
                        mpi.send(1, tag, bytes).await;
                        mpi.recv(Some(1), Some(tag)).await;
                    } else {
                        mpi.recv(Some(0), Some(tag)).await;
                        mpi.send(0, tag, bytes).await;
                    }
                }
                let t1 = mpi.wtime();
                if mpi.rank() == 0 {
                    let one_way = (t1 - t0) / (2.0 * reps as f64);
                    let mut sink = results
                        .lock()
                        .expect("ping-pong sink poisoned by a panicking rank");
                    sink.push(PingPongSample {
                        bytes,
                        one_way_secs: one_way,
                        bandwidth: bytes as f64 / one_way,
                    });
                }
            }
            mpi
        }
    })
}

/// Token ring: `iters` laps of a single token — strict serialization,
/// useful for ordering tests.
pub fn token_ring(iters: usize, bytes: u64) -> AppFn {
    app_fn(move |mut mpi| async move {
        let n = mpi.size();
        if n < 2 {
            return mpi;
        }
        let right = (mpi.rank() + 1) % n;
        let left = (mpi.rank() + n - 1) % n;
        for i in 0..iters {
            let tag = (i % 1000) as i32;
            if mpi.rank() == 0 {
                mpi.send(right, tag, bytes).await;
                mpi.recv(Some(left), Some(tag)).await;
            } else {
                mpi.recv(Some(left), Some(tag)).await;
                mpi.send(right, tag, bytes).await;
            }
        }
        mpi
    })
}
