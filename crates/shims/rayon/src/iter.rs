//! The `par_*` adapters, all funneled through the pool's span bridge.
//!
//! Every adapter turns its input into an index space, hands the pool
//! bridge (`pool::parallel_run`) a span body, and reassembles
//! per-span results **by span start**, so `collect` preserves input order
//! and `reduce` folds in a deterministic order no matter which participant
//! executed which span.  Mutable-slice adapters hand disjoint sub-slices to
//! spans through a raw base pointer; disjointness of the spans is what makes
//! that sound.

use crate::pool::{parallel_run, parallel_run_weighted};
use std::ops::Range;
use std::sync::Mutex;

/// A raw pointer that may cross threads because every span derived from it
/// touches a disjoint index range.
struct SendPtr<T>(*mut T);

unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Pointer to element `i`; going through `&self` (rather than the raw
    /// field) is what closures capture, keeping them `Sync`.
    ///
    /// # Safety
    /// `i` must be within the allocation the base pointer came from.
    unsafe fn at(&self, i: usize) -> *mut T {
        unsafe { self.0.add(i) }
    }
}

/// Runs `produce` over spans of `0..len` and concatenates the per-span
/// output vectors in span order — the order-preserving collect primitive.
fn collect_spans<T: Send>(len: usize, produce: impl Fn(Range<usize>) -> Vec<T> + Sync) -> Vec<T> {
    let parts: Mutex<Vec<(usize, Vec<T>)>> = Mutex::new(Vec::new());
    parallel_run(len, &|span| {
        let part = produce(span.clone());
        parts.lock().unwrap().push((span.start, part));
    });
    let mut parts = parts.into_inner().unwrap();
    parts.sort_unstable_by_key(|&(start, _)| start);
    let mut out = Vec::with_capacity(len);
    for (_, mut part) in parts {
        out.append(&mut part);
    }
    out
}

/// Runs `fold_span` over spans of `0..len` (each seeded with `identity()`)
/// and folds the per-span accumulators with `op` in span order.
fn reduce_spans<T: Send>(
    len: usize,
    identity: impl Fn() -> T + Sync,
    op: impl Fn(T, T) -> T + Sync,
    fold_span: impl Fn(T, Range<usize>) -> T + Sync,
) -> T {
    let parts: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::new());
    parallel_run(len, &|span| {
        let acc = fold_span(identity(), span.clone());
        parts.lock().unwrap().push((span.start, acc));
    });
    let mut parts = parts.into_inner().unwrap();
    parts.sort_unstable_by_key(|&(start, _)| start);
    parts
        .into_iter()
        .fold(identity(), |acc, (_, part)| op(acc, part))
}

/// Conversion into a parallel iterator (mirrors
/// `rayon::iter::IntoParallelIterator` for the types the workspace uses).
pub trait IntoParallelIterator {
    /// The parallel iterator type.
    type Iter;
    /// Converts `self`.
    fn into_par_iter(self) -> Self::Iter;
}

impl IntoParallelIterator for Range<usize> {
    type Iter = ParRange;
    fn into_par_iter(self) -> ParRange {
        ParRange { range: self }
    }
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Iter = ParVec<T>;
    fn into_par_iter(self) -> ParVec<T> {
        ParVec { items: self }
    }
}

/// Parallel iterator over `Range<usize>`.
pub struct ParRange {
    range: Range<usize>,
}

impl ParRange {
    /// Maps every index through `f`.
    pub fn map<T, F>(self, f: F) -> ParRangeMap<F>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        ParRangeMap {
            range: self.range,
            f,
        }
    }

    /// Runs `f` on every index.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(usize) + Sync,
    {
        let start = self.range.start;
        parallel_run(self.range.len(), &|span| {
            for i in span {
                f(start + i);
            }
        });
    }
}

/// `map` adapter over a parallel range.
pub struct ParRangeMap<F> {
    range: Range<usize>,
    f: F,
}

impl<F> ParRangeMap<F> {
    /// Collects the mapped values in index order.
    pub fn collect<T, C>(self) -> C
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
        C: From<Vec<T>>,
    {
        let start = self.range.start;
        let f = &self.f;
        C::from(collect_spans(self.range.len(), |span| {
            span.map(|i| f(start + i)).collect()
        }))
    }

    /// Folds the mapped values with `op`, seeding every span with
    /// `identity()` and folding span results in index order.
    pub fn reduce<T>(self, identity: impl Fn() -> T + Sync, op: impl Fn(T, T) -> T + Sync) -> T
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let start = self.range.start;
        let f = &self.f;
        reduce_spans(self.range.len(), &identity, &op, |mut acc, span| {
            for i in span {
                acc = op(acc, f(start + i));
            }
            acc
        })
    }

    /// Sums the mapped values.
    pub fn sum<T>(self) -> T
    where
        T: Send + std::iter::Sum<T> + std::ops::Add<Output = T> + Default,
        F: Fn(usize) -> T + Sync,
    {
        self.reduce(T::default, |a, b| a + b)
    }
}

/// Parallel iterator over an owned `Vec`.
pub struct ParVec<T> {
    items: Vec<T>,
}

impl<T: Send> ParVec<T> {
    /// Maps every element through `f` and collects in order.
    pub fn map<U, F>(self, f: F) -> ParVecMap<T, F>
    where
        U: Send,
        F: Fn(T) -> U + Sync,
    {
        ParVecMap {
            items: self.items,
            f,
        }
    }

    /// Runs `f` on every element.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(T) + Sync,
    {
        self.map(f).collect::<(), Vec<()>>();
    }
}

/// `map` adapter over an owned `Vec`.
pub struct ParVecMap<T, F> {
    items: Vec<T>,
    f: F,
}

impl<T: Send, F> ParVecMap<T, F> {
    /// Collects the mapped values in input order.
    pub fn collect<U, C>(self) -> C
    where
        U: Send,
        F: Fn(T) -> U + Sync,
        C: From<Vec<U>>,
    {
        let len = self.items.len();
        // Each span takes its own elements out of the slot vector through a
        // raw base pointer; spans are disjoint, and on a panic elsewhere the
        // untaken `Some` slots drop normally with the vector.
        let mut slots: Vec<Option<T>> = self.items.into_iter().map(Some).collect();
        let base = SendPtr(slots.as_mut_ptr());
        let f = &self.f;
        let out = collect_spans(len, |span| {
            span.map(|i| {
                let item = unsafe { (*base.at(i)).take() }.expect("element taken twice");
                f(item)
            })
            .collect()
        });
        C::from(out)
    }
}

/// Mutable-slice parallelism (mirrors `rayon::slice::ParallelSliceMut`).
pub trait ParallelSliceMut<T: Send> {
    /// Parallel iterator over `&mut` elements.
    fn par_iter_mut(&mut self) -> ParIterMut<'_, T>;
    /// Parallel iterator over non-overlapping `&mut` chunks of `chunk_size`
    /// (the last chunk may be shorter).
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_iter_mut(&mut self) -> ParIterMut<'_, T> {
        ParIterMut { slice: self }
    }

    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T> {
        assert!(chunk_size > 0, "chunk size must be positive");
        ParChunksMut {
            slice: self,
            chunk_size,
        }
    }
}

/// Parallel iterator over `&mut` elements of a slice.
pub struct ParIterMut<'a, T> {
    slice: &'a mut [T],
}

impl<'a, T: Send> ParIterMut<'a, T> {
    /// Pairs every element with its index.
    pub fn enumerate(self) -> ParIterMutEnumerate<'a, T> {
        ParIterMutEnumerate { slice: self.slice }
    }

    /// Runs `f` on every element.
    pub fn for_each(self, f: impl Fn(&mut T) + Sync) {
        self.enumerate().for_each(|(_, item)| f(item));
    }
}

/// Enumerated parallel iterator over `&mut` elements.
pub struct ParIterMutEnumerate<'a, T> {
    slice: &'a mut [T],
}

impl<T: Send> ParIterMutEnumerate<'_, T> {
    /// Runs `f` on every `(index, &mut element)` pair.
    pub fn for_each(self, f: impl Fn((usize, &mut T)) + Sync) {
        let base = SendPtr(self.slice.as_mut_ptr());
        parallel_run(self.slice.len(), &|span| {
            for i in span {
                let item = unsafe { &mut *base.at(i) };
                f((i, item));
            }
        });
    }
}

/// Parallel iterator over `&mut` chunks of a slice.
pub struct ParChunksMut<'a, T> {
    slice: &'a mut [T],
    chunk_size: usize,
}

impl<'a, T: Send> ParChunksMut<'a, T> {
    /// Pairs every chunk with its chunk index.
    pub fn enumerate(self) -> ParChunksMutEnumerate<'a, T> {
        ParChunksMutEnumerate {
            slice: self.slice,
            chunk_size: self.chunk_size,
        }
    }

    /// Runs `f` on every chunk.
    pub fn for_each(self, f: impl Fn(&mut [T]) + Sync) {
        self.enumerate().for_each(|(_, chunk)| f(chunk));
    }
}

/// Enumerated parallel iterator over `&mut` chunks.
pub struct ParChunksMutEnumerate<'a, T> {
    slice: &'a mut [T],
    chunk_size: usize,
}

impl<T: Send> ParChunksMutEnumerate<'_, T> {
    /// Runs `f` on every `(chunk_index, &mut chunk)` pair.
    pub fn for_each(self, f: impl Fn((usize, &mut [T])) + Sync) {
        self.for_each_init(|| (), |(), item| f(item));
    }

    /// Runs `f` on every `(chunk_index, &mut chunk)` pair with reusable
    /// `init()` states — the scratch-buffer amortization pattern.
    ///
    /// States live in a shared pool: a participant checks one out per span,
    /// runs all the span's chunks with it, and returns it, so at most one
    /// state exists per concurrently active participant and no chunk ever
    /// shares a state with a concurrently running chunk.  (Real rayon pins
    /// one state per worker thread; checkout gives the same amortization
    /// and additionally needs `S: Send`.)
    pub fn for_each_init<S: Send>(
        self,
        init: impl Fn() -> S + Sync,
        f: impl Fn(&mut S, (usize, &mut [T])) + Sync,
    ) {
        let len = self.slice.len();
        let chunk_size = self.chunk_size;
        let base = SendPtr(self.slice.as_mut_ptr());
        let states: Mutex<Vec<S>> = Mutex::new(Vec::new());
        parallel_run(len.div_ceil(chunk_size), &|span| {
            let checked_out = states.lock().unwrap().pop();
            let mut state = checked_out.unwrap_or_else(&init);
            for c in span {
                let lo = c * chunk_size;
                let hi = (lo + chunk_size).min(len);
                let chunk = unsafe { std::slice::from_raw_parts_mut(base.at(lo), hi - lo) };
                f(&mut state, (c, chunk));
            }
            states.lock().unwrap().push(state);
        });
    }

    /// Like [`for_each_init`](Self::for_each_init), but spans are cut by
    /// *chunk cost* rather than chunk count: `chunk_costs[c]` is the
    /// relative cost of chunk `c` (one entry per chunk), and the pool
    /// balances the summed cost per span instead of the number of chunks.
    /// Shim extension — this is the weighted-scheduling submission path the
    /// TTMc kernels feed their symbolic per-row flop counts through.
    ///
    /// # Panics
    /// Panics unless `chunk_costs` has exactly one entry per chunk.
    pub fn for_each_init_weighted<S: Send>(
        self,
        chunk_costs: &[u64],
        init: impl Fn() -> S + Sync,
        f: impl Fn(&mut S, (usize, &mut [T])) + Sync,
    ) {
        let len = self.slice.len();
        let chunk_size = self.chunk_size;
        assert_eq!(
            chunk_costs.len(),
            len.div_ceil(chunk_size),
            "need exactly one cost per chunk"
        );
        let base = SendPtr(self.slice.as_mut_ptr());
        let states: Mutex<Vec<S>> = Mutex::new(Vec::new());
        parallel_run_weighted(chunk_costs, &|span| {
            let checked_out = states.lock().unwrap().pop();
            let mut state = checked_out.unwrap_or_else(&init);
            for c in span {
                let lo = c * chunk_size;
                let hi = (lo + chunk_size).min(len);
                let chunk = unsafe { std::slice::from_raw_parts_mut(base.at(lo), hi - lo) };
                f(&mut state, (c, chunk));
            }
            states.lock().unwrap().push(state);
        });
    }
}
