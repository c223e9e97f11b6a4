//! Concurrency stress tests for the persistent pool: nested `install`,
//! concurrent `install` from many user threads, panic propagation without
//! deadlock or pool poisoning, `join`/`scope` under contention, and
//! clean pool teardown.

use rayon::prelude::*;
use rayon::{current_num_threads, join, scope, ThreadPoolBuilder};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

#[test]
fn nested_install_switches_pools() {
    let outer = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
    let inner = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
    outer.install(|| {
        assert_eq!(current_num_threads(), 4);
        let sum: usize = inner.install(|| {
            assert_eq!(current_num_threads(), 2);
            (0..1000).into_par_iter().map(|i| i).sum()
        });
        assert_eq!(sum, 1000 * 999 / 2);
        // The outer scope is restored after the inner install returns.
        assert_eq!(current_num_threads(), 4);
        let v: Vec<usize> = (0..100).into_par_iter().map(|i| i + 1).collect();
        assert_eq!(v[99], 100);
    });
}

#[test]
fn install_from_inside_a_parallel_region_still_works() {
    // A span body opening a fresh install on another pool submits a nested
    // job; the submitting participant drains it itself, so this must
    // complete rather than deadlock even though all outer workers are busy.
    let outer = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
    let inner = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
    let totals: Vec<usize> = outer.install(|| {
        (0..6usize)
            .into_par_iter()
            .map(|k| inner.install(|| (0..50).into_par_iter().map(|i| i + k).sum::<usize>()))
            .collect()
    });
    for (k, total) in totals.iter().enumerate() {
        assert_eq!(*total, (0..50).map(|i| i + k).sum::<usize>());
    }
}

#[test]
fn concurrent_installs_from_many_user_threads() {
    // One shared pool, many simultaneous caller threads: every job must
    // complete with correct, correctly ordered results.
    let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
    std::thread::scope(|s| {
        for t in 0..6usize {
            let pool = &pool;
            s.spawn(move || {
                for round in 0..20 {
                    let offset = t * 1000 + round;
                    let v: Vec<usize> =
                        pool.install(|| (0..200).into_par_iter().map(|i| i + offset).collect());
                    assert_eq!(v, (0..200).map(|i| i + offset).collect::<Vec<_>>());
                }
            });
        }
    });
}

#[test]
fn panic_in_parallel_region_propagates_without_poisoning() {
    let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
    for round in 0..3 {
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.install(|| {
                (0..500usize).into_par_iter().for_each(|i| {
                    if i == 137 {
                        panic!("intentional test panic in round {round}");
                    }
                });
            });
        }));
        let payload = result.expect_err("panic must propagate to the caller");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(message.contains("intentional test panic"), "{message}");
        // The pool survives and produces correct results afterwards.
        let sum: usize = pool.install(|| (0..100).into_par_iter().map(|i| i).sum());
        assert_eq!(sum, 4950);
    }
}

#[test]
fn panic_in_mut_slice_region_propagates() {
    let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
    let mut data = vec![0u32; 300];
    let result = catch_unwind(AssertUnwindSafe(|| {
        pool.install(|| {
            data.par_iter_mut().enumerate().for_each(|(i, x)| {
                if i == 250 {
                    panic!("slice panic");
                }
                *x = 1;
            });
        });
    }));
    assert!(result.is_err());
    // Still usable for a clean second pass.
    pool.install(|| data.par_iter_mut().for_each(|x| *x = 2));
    assert!(data.iter().all(|&x| x == 2));
}

#[test]
fn join_runs_both_sides_and_propagates_panics() {
    let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
    let (a, b) = pool.install(|| {
        join(
            || (0..100).map(|i| i * i).sum::<usize>(),
            || "right".to_string(),
        )
    });
    assert_eq!(a, (0..100).map(|i| i * i).sum::<usize>());
    assert_eq!(b, "right");

    let caught = catch_unwind(AssertUnwindSafe(|| {
        pool.install(|| join(|| 1, || panic!("right side panic")))
    }));
    assert!(caught.is_err());
    // And the pool is still healthy.
    let (x, y) = pool.install(|| join(|| 3, || 4));
    assert_eq!((x, y), (3, 4));
}

#[test]
fn nested_joins_do_not_deadlock() {
    let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
    fn fib(n: u64) -> u64 {
        if n < 2 {
            return n;
        }
        let (a, b) = join(|| fib(n - 1), || fib(n - 2));
        a + b
    }
    assert_eq!(pool.install(|| fib(18)), 2584);
}

#[test]
fn scope_tasks_see_borrowed_state() {
    let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
    let counter = AtomicUsize::new(0);
    let values: Vec<AtomicUsize> = (0..32).map(|_| AtomicUsize::new(0)).collect();
    pool.install(|| {
        scope(|s| {
            for (i, slot) in values.iter().enumerate() {
                let counter = &counter;
                s.spawn(move |_| {
                    slot.store(i + 1, Ordering::SeqCst);
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
    });
    assert_eq!(counter.load(Ordering::SeqCst), 32);
    for (i, slot) in values.iter().enumerate() {
        assert_eq!(slot.load(Ordering::SeqCst), i + 1);
    }
}

#[test]
fn dropping_a_pool_joins_workers_cleanly() {
    for _ in 0..10 {
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let sum: usize = pool.install(|| (0..1000).into_par_iter().map(|i| i).sum());
        assert_eq!(sum, 1000 * 999 / 2);
        drop(pool); // must not hang or panic
    }
}

#[test]
fn single_thread_pool_runs_on_the_calling_thread() {
    let pool = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
    let caller = std::thread::current().id();
    let ids: Vec<std::thread::ThreadId> = pool.install(|| {
        (0..16)
            .into_par_iter()
            .map(|_| std::thread::current().id())
            .collect()
    });
    assert!(ids.iter().all(|&id| id == caller));
}
