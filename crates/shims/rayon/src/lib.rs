//! Offline stand-in for the `rayon` crate.
//!
//! The build environment has no access to crates.io, so the workspace ships
//! this data-parallelism runtime with the subset of the rayon API the
//! repository uses: `par_iter_mut`, `par_chunks_mut`, `into_par_iter` on
//! ranges and vectors (with `map`/`collect`/`reduce`/`for_each_init`),
//! [`current_num_threads`], [`join`], [`scope`], and [`ThreadPoolBuilder`] /
//! [`ThreadPool`] with `install`.
//!
//! Unlike a mock, this is a *real* parallel runtime — and since the rewrite
//! in [`pool`] it is a **persistent work-stealing one**: a pool's worker
//! threads are spawned once at build time and every parallel region reuses
//! them; each region's index space is cut into chunked spans dealt to
//! per-participant deques, and idle participants steal from busy ones.  On
//! the skewed update-list distributions of this workspace's tensors (the
//! paper's Delicious/Flickr profiles) that dynamic scheduling is what keeps
//! all threads busy.
//!
//! The thread count of a region is taken from the innermost
//! [`ThreadPool::install`] scope (the implicit machine-default global pool
//! otherwise), and a pool built with `num_threads(1)` executes the *same
//! code path* fully sequentially on the calling thread — exactly the
//! property the workspace's thread-scaling experiments need.  Nested
//! parallel adapters inside a span run sequentially instead of
//! oversubscribing; a nested `install` on a pool opens a fresh parallel
//! region on that pool (safe because a region's submitter always
//! participates in draining it).

pub mod iter;
pub mod pool;

pub use iter::{
    IntoParallelIterator, ParChunksMut, ParChunksMutEnumerate, ParIterMut, ParIterMutEnumerate,
    ParRange, ParRangeMap, ParVec, ParVecMap, ParallelSliceMut,
};
pub use pool::{
    current_num_threads, join, scope, weighted_span_boundaries, worker_threads_spawned, Scope,
    ThreadPool, ThreadPoolBuildError, ThreadPoolBuilder,
};

/// Glob-import module (mirrors `rayon::prelude`).
pub mod prelude {
    pub use crate::{IntoParallelIterator, ParallelSliceMut};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn range_map_collect_preserves_order() {
        let v: Vec<usize> = (0..1000).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(v, (0..1000).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_iter_mut_enumerate_writes_all() {
        let mut v = vec![0usize; 777];
        v.par_iter_mut().enumerate().for_each(|(i, x)| *x = i + 1);
        assert!(v.iter().enumerate().all(|(i, &x)| x == i + 1));
    }

    #[test]
    fn par_chunks_mut_for_each_init_covers_every_chunk_once() {
        let mut v = vec![0u32; 103]; // deliberately not a multiple of 10
        v.par_chunks_mut(10).enumerate().for_each_init(
            || 0u32,
            |state, (c, chunk)| {
                *state += 1;
                for x in chunk.iter_mut() {
                    *x += 1 + c as u32;
                }
            },
        );
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(x, 1 + (i / 10) as u32, "element {i}");
        }
    }

    #[test]
    fn vec_into_par_iter_map_collect() {
        let items: Vec<String> = vec!["a", "bb", "ccc"]
            .into_iter()
            .map(String::from)
            .collect();
        let lens: Vec<usize> = items.into_par_iter().map(|s| s.len()).collect();
        assert_eq!(lens, vec![1, 2, 3]);
    }

    #[test]
    fn install_controls_current_num_threads() {
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        assert_eq!(pool.current_num_threads(), 3);
        let inside = pool.install(current_num_threads);
        assert_eq!(inside, 3);
        let single = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        assert_eq!(single.install(current_num_threads), 1);
    }

    #[test]
    fn nested_parallelism_in_spans_is_sequential() {
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        pool.install(|| {
            // Every span — including ones the calling thread executes —
            // sees a single-thread scope, so nested parallel calls never
            // oversubscribe.
            let observed: Vec<usize> = (0..4usize)
                .into_par_iter()
                .map(|_| current_num_threads())
                .collect();
            assert_eq!(observed, vec![1; 4]);
            // The scope is restored once the parallel call finishes.
            assert_eq!(current_num_threads(), 4);
        });
    }

    #[test]
    fn empty_inputs_are_fine() {
        let v: Vec<usize> = (0..0).into_par_iter().map(|i| i).collect();
        assert!(v.is_empty());
        let mut empty: Vec<f64> = Vec::new();
        empty.par_iter_mut().enumerate().for_each(|(_, x)| *x = 1.0);
        empty.par_chunks_mut(8).enumerate().for_each(|(_, _)| {});
    }

    #[test]
    fn reduce_with_nontrivial_identity() {
        let concat = |mut a: Vec<usize>, mut b: Vec<usize>| {
            a.append(&mut b);
            a
        };
        let acc = (0..257)
            .into_par_iter()
            .map(|i| vec![i])
            .reduce(Vec::new, concat);
        assert_eq!(acc, (0..257).collect::<Vec<_>>());
    }

    #[test]
    fn order_sensitive_collect_is_input_ordered() {
        // Concatenating per-chunk markers must reproduce the input order
        // even though spans complete in an arbitrary order.
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        pool.install(|| {
            let v: Vec<String> = (0..100usize)
                .into_par_iter()
                .map(|i| i.to_string())
                .collect();
            let expected: Vec<String> = (0..100).map(|i| i.to_string()).collect();
            assert_eq!(v, expected);
        });
    }

    #[test]
    fn join_returns_both_results() {
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let (a, b) = pool.install(|| join(|| 6 * 7, || "ok".to_string()));
        assert_eq!(a, 42);
        assert_eq!(b, "ok");
        // Sequential fallback inside a single-thread pool.
        let single = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        let (a, b) = single.install(|| join(|| 1, || 2));
        assert_eq!((a, b), (1, 2));
    }

    #[test]
    fn scope_runs_all_spawned_tasks() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        let hits = AtomicUsize::new(0);
        pool.install(|| {
            scope(|s| {
                for _ in 0..10 {
                    s.spawn(|s| {
                        hits.fetch_add(1, Ordering::SeqCst);
                        // Tasks may spawn further tasks.
                        s.spawn(|_| {
                            hits.fetch_add(1, Ordering::SeqCst);
                        });
                    });
                }
            });
        });
        assert_eq!(hits.load(Ordering::SeqCst), 20);
    }

    #[test]
    fn weighted_boundaries_partition_exactly_once() {
        // Heavy skew: one index carries almost all the cost.
        let mut costs = vec![1u64; 100];
        costs[7] = 1_000_000;
        for max_spans in [1usize, 2, 3, 16, 99, 100, 5000] {
            let bounds = weighted_span_boundaries(&costs, max_spans);
            assert_eq!(bounds[0], 0);
            assert_eq!(*bounds.last().unwrap(), costs.len());
            assert!(bounds.windows(2).all(|w| w[0] < w[1]), "{bounds:?}");
            assert!(bounds.len() - 1 <= max_spans.min(costs.len()));
        }
        // Degenerate inputs.
        assert_eq!(weighted_span_boundaries(&[], 4), vec![0]);
        assert_eq!(weighted_span_boundaries(&[0, 0, 0], 4), vec![0, 3]);
        assert_eq!(weighted_span_boundaries(&[5], 4), vec![0, 1]);
    }

    #[test]
    fn weighted_boundaries_balance_skewed_costs() {
        // 8 cheap indices then 8 expensive ones: equal-length splitting into
        // two spans would put all the cost in the second; weighted splitting
        // must move the boundary right of the midpoint.
        let costs: Vec<u64> = (0..16).map(|i| if i < 8 { 1 } else { 100 }).collect();
        let bounds = weighted_span_boundaries(&costs, 2);
        assert_eq!(bounds.len(), 3);
        assert!(
            bounds[1] > 8,
            "boundary {} not past the cheap prefix",
            bounds[1]
        );
    }

    #[test]
    fn for_each_init_weighted_covers_every_chunk_once() {
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        pool.install(|| {
            let mut v = vec![0u32; 103]; // deliberately not a multiple of 10
            let costs: Vec<u64> = (0..v.len().div_ceil(10))
                .map(|c| if c == 3 { 10_000 } else { 1 })
                .collect();
            v.par_chunks_mut(10).enumerate().for_each_init_weighted(
                &costs,
                || 0u32,
                |state, (c, chunk)| {
                    *state += 1;
                    for x in chunk.iter_mut() {
                        *x += 1 + c as u32;
                    }
                },
            );
            for (i, &x) in v.iter().enumerate() {
                assert_eq!(x, 1 + (i / 10) as u32, "element {i}");
            }
        });
    }

    #[test]
    fn build_error_carries_a_reason() {
        let err = ThreadPoolBuilder::new()
            .num_threads(usize::MAX)
            .build()
            .unwrap_err();
        let message = err.to_string();
        assert!(message.contains("at most"), "unhelpful error: {message}");
    }
}
