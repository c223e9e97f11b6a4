//! Proves that pool workers are persistent: once a pool is built, running
//! more parallel regions must never spawn another OS thread.
//!
//! This file holds exactly one test because it asserts on the process-wide
//! [`rayon::worker_threads_spawned`] counter; concurrent tests building
//! their own pools would perturb it.

use rayon::prelude::*;
use rayon::{worker_threads_spawned, ThreadPoolBuilder};

#[test]
fn workers_spawn_once_per_pool_not_per_region() {
    let before = worker_threads_spawned();
    let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
    let after_build = worker_threads_spawned();
    assert_eq!(
        after_build - before,
        3,
        "a 4-wide pool spawns exactly 3 workers (the caller is the 4th participant)"
    );

    // Hammer the pool with regions of every adapter shape; the spawn
    // counter must not move.
    for round in 0..50usize {
        let v: Vec<usize> = pool.install(|| (0..300).into_par_iter().map(|i| i + round).collect());
        assert_eq!(v[299], 299 + round);
        let mut data = vec![0u8; 257];
        pool.install(|| data.par_chunks_mut(16).for_each(|c| c.fill(1)));
        assert!(data.iter().all(|&x| x == 1));
        let total: usize = pool.install(|| {
            (0..128)
                .into_par_iter()
                .map(|_| 1)
                .reduce(|| 0, |a, b| a + b)
        });
        assert_eq!(total, 128);
    }
    assert_eq!(
        worker_threads_spawned(),
        after_build,
        "parallel regions must reuse the persistent workers"
    );

    // A second pool spawns its own workers once.
    let second = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
    assert_eq!(worker_threads_spawned(), after_build + 1);
    second.install(|| (0..64).into_par_iter().for_each(|_| {}));
    assert_eq!(worker_threads_spawned(), after_build + 1);
}
