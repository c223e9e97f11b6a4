//! Property tests for the work-stealing runtime: for arbitrary input
//! lengths, chunk sizes, and pool widths, every `par_*` adapter must
//! produce results identical to its serial equivalent — including the
//! order-sensitive `collect`s, whose output must match input order no
//! matter which worker executed which span.

use proptest::prelude::*;
use rayon::prelude::*;
use rayon::{ThreadPool, ThreadPoolBuilder};

fn pool_with(threads: usize) -> ThreadPool {
    ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool build")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn range_map_collect_matches_serial(len in 0usize..400, threads in 1usize..9) {
        let parallel: Vec<u64> = pool_with(threads)
            .install(|| (0..len).into_par_iter().map(|i| (i as u64).wrapping_mul(2654435761)).collect());
        let serial: Vec<u64> = (0..len).map(|i| (i as u64).wrapping_mul(2654435761)).collect();
        prop_assert_eq!(parallel, serial);
    }

    #[test]
    fn range_for_each_visits_every_index_once(len in 0usize..400, threads in 1usize..9) {
        let hits: Vec<std::sync::atomic::AtomicU32> =
            (0..len).map(|_| std::sync::atomic::AtomicU32::new(0)).collect();
        pool_with(threads).install(|| {
            (0..len).into_par_iter().for_each(|i| {
                hits[i].fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            });
        });
        for (i, h) in hits.iter().enumerate() {
            prop_assert_eq!(h.load(std::sync::atomic::Ordering::SeqCst), 1, "index {}", i);
        }
    }

    #[test]
    fn range_map_reduce_matches_serial(len in 0usize..600, threads in 1usize..9) {
        let parallel: u64 = pool_with(threads).install(|| {
            (0..len)
                .into_par_iter()
                .map(|i| (i as u64) * (i as u64))
                .reduce(|| 0, |a, b| a + b)
        });
        let serial: u64 = (0..len).map(|i| (i as u64) * (i as u64)).sum();
        prop_assert_eq!(parallel, serial);
    }

    #[test]
    fn vec_map_collect_preserves_order(len in 0usize..400, threads in 1usize..9) {
        let items: Vec<String> = (0..len).map(|i| format!("item-{i}")).collect();
        let expected: Vec<usize> = items.iter().map(|s| s.len()).collect();
        let parallel: Vec<usize> =
            pool_with(threads).install(|| items.into_par_iter().map(|s| s.len()).collect());
        prop_assert_eq!(parallel, expected);
    }

    #[test]
    fn par_iter_mut_matches_serial(len in 0usize..500, threads in 1usize..9) {
        let mut parallel = vec![0usize; len];
        pool_with(threads).install(|| {
            parallel.par_iter_mut().enumerate().for_each(|(i, x)| *x = i * i + 1);
        });
        let serial: Vec<usize> = (0..len).map(|i| i * i + 1).collect();
        prop_assert_eq!(parallel, serial);
    }

    #[test]
    fn par_chunks_mut_covers_all_chunks(len in 0usize..500, chunk in 1usize..40, threads in 1usize..9) {
        let mut parallel = vec![0usize; len];
        pool_with(threads).install(|| {
            parallel
                .par_chunks_mut(chunk)
                .enumerate()
                .for_each(|(c, part)| {
                    for x in part.iter_mut() {
                        *x = c + 1;
                    }
                });
        });
        let serial: Vec<usize> = (0..len).map(|i| i / chunk + 1).collect();
        prop_assert_eq!(parallel, serial);
    }

    #[test]
    fn for_each_init_state_never_shared_concurrently(len in 0usize..400, chunk in 1usize..32, threads in 1usize..9) {
        // Every chunk bumps its checked-out state exactly once; since a
        // state is owned by one span at a time, the total across all states
        // must equal the chunk count, and every element must be written.
        let counter = std::sync::atomic::AtomicUsize::new(0);
        let mut data = vec![0u8; len];
        pool_with(threads).install(|| {
            data.par_chunks_mut(chunk).enumerate().for_each_init(
                || 0usize,
                |state, (_, part)| {
                    *state += 1;
                    counter.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                    for x in part.iter_mut() {
                        *x += 1;
                    }
                },
            );
        });
        prop_assert_eq!(
            counter.load(std::sync::atomic::Ordering::SeqCst),
            len.div_ceil(chunk)
        );
        prop_assert!(data.iter().all(|&x| x == 1));
    }

    #[test]
    fn reduce_is_deterministic_for_fixed_width(len in 0usize..300, threads in 1usize..9) {
        // Span boundaries are a pure function of (len, width), so two runs
        // on same-width pools must fold f64 values in the same order and
        // agree bitwise, no matter how stealing distributed the spans.
        let run = || -> f64 {
            pool_with(threads).install(|| {
                (0..len)
                    .into_par_iter()
                    .map(|i| 1.0 / (i as f64 + 1.7))
                    .reduce(|| 0.0, |a, b| a + b)
            })
        };
        let a = run();
        let b = run();
        prop_assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn order_sensitive_concat_reduce(len in 0usize..250, threads in 1usize..9) {
        // Concatenation is associative but not commutative: the reduce
        // contract (span-order fold) must reproduce the serial sequence.
        let parallel: Vec<usize> = pool_with(threads).install(|| {
            (0..len)
                .into_par_iter()
                .map(|i| vec![i])
                .reduce(Vec::new, |mut a, mut b| {
                    a.append(&mut b);
                    a
                })
        });
        prop_assert_eq!(parallel, (0..len).collect::<Vec<_>>());
    }
}
