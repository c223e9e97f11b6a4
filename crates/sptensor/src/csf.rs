//! Compressed sparse fiber (CSF) index structures.
//!
//! A [`CsfMode`] stores the nonzeros of one mode's update lists as a fiber
//! hierarchy: the root level enumerates the mode-`n` slices that own at least
//! one nonzero, each internal level groups runs of nonzeros that share a
//! prefix of foreign-mode indices into *fibers*, and the leaf level holds the
//! last foreign index plus the value.  Index arrays narrow to `u32` whenever
//! the foreign dimensions and the nonzero count permit, and the numeric
//! kernel hoists one factor-row lookup per fiber instead of one per nonzero.
//! It is the one per-mode index structure of the per-mode TTMc; without it
//! the kernel gathers each nonzero through its COO id.
//!
//! Fibers only compress *consecutive* equal prefixes, so building a
//! `CsfMode` from an arbitrary permutation of nonzeros is always correct —
//! the leaf level enumerates nonzeros in exactly the order of the supplied
//! permutation, which is what keeps CSF-driven TTMc bit-identical to the
//! COO-order kernels.  The compression ratio simply improves when the
//! permutation sorts lexicographically within each slice.

use crate::coo::SparseTensor;

/// Integer type used for fiber ids and intra-level pointers.
///
/// `u32` is chosen whenever every foreign dimension and the nonzero count fit;
/// `usize` otherwise.  Pointers index into the next level's fiber array (at
/// most `nnz` entries), so the same width works for both ids and pointers.
pub trait CsfIndex: Copy + Default + std::fmt::Debug + Send + Sync + 'static {
    /// Widens the stored id back to a `usize` index.
    fn to_usize(self) -> usize;
    /// Narrows an index; callers guarantee it fits.
    fn from_usize(i: usize) -> Self;
}

impl CsfIndex for u32 {
    #[inline(always)]
    fn to_usize(self) -> usize {
        self as usize
    }
    #[inline(always)]
    fn from_usize(i: usize) -> Self {
        debug_assert!(i <= u32::MAX as usize);
        i as u32
    }
}

impl CsfIndex for usize {
    #[inline(always)]
    fn to_usize(self) -> usize {
        self
    }
    #[inline(always)]
    fn from_usize(i: usize) -> Self {
        i
    }
}

/// One mode's fiber hierarchy with a concrete index width `I`.
///
/// Root slice `p` (aligned with the row order of the permutation the
/// structure was built from) owns the level-0 fibers
/// `root_range(p).0 .. root_range(p).1`; fiber `f` of internal level `l`
/// carries the foreign index [`fiber_id`](Self::fiber_id)`(l, f)` and owns
/// the child range [`fiber_range`](Self::fiber_range)`(l, f)` of level
/// `l + 1` (or of the leaves for the deepest internal level).  With
/// `arity == 1` there are no internal levels and root ranges index the
/// leaves directly.
#[derive(Debug, Clone, Default)]
pub struct CsfData<I> {
    mode: usize,
    arity: usize,
    root_ids: Vec<usize>,
    root_ptr: Vec<usize>,
    level_ids: Vec<Vec<I>>,
    level_ptr: Vec<Vec<I>>,
    leaf_ids: Vec<I>,
    values: Vec<f64>,
}

impl<I: CsfIndex> CsfData<I> {
    /// The mode this hierarchy is rooted at.
    #[inline]
    pub fn mode(&self) -> usize {
        self.mode
    }

    /// Number of foreign modes (`order - 1`); the hierarchy has
    /// `arity - 1` internal levels plus the leaf level.
    #[inline]
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of root slices (mode-`n` indices with at least one nonzero).
    #[inline]
    pub fn num_rows(&self) -> usize {
        self.root_ids.len()
    }

    /// Number of nonzeros stored.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The mode-`n` index of root slice `p`.
    #[inline]
    pub fn root_id(&self, p: usize) -> usize {
        self.root_ids[p]
    }

    /// The level-0 fiber range (or leaf range when `arity == 1`, or value
    /// range when `arity == 0`) owned by root slice `p`.
    #[inline]
    pub fn root_range(&self, p: usize) -> (usize, usize) {
        (self.root_ptr[p], self.root_ptr[p + 1])
    }

    /// The foreign-mode index of fiber `f` at internal level `level`.
    #[inline]
    pub fn fiber_id(&self, level: usize, f: usize) -> usize {
        self.level_ids[level][f].to_usize()
    }

    /// The child range of fiber `f` at internal level `level` — indices into
    /// level `level + 1`, or into the leaves for the deepest internal level.
    #[inline]
    pub fn fiber_range(&self, level: usize, f: usize) -> (usize, usize) {
        (
            self.level_ptr[level][f].to_usize(),
            self.level_ptr[level][f + 1].to_usize(),
        )
    }

    /// The last foreign-mode index of leaf `k`.
    #[inline]
    pub fn leaf_id(&self, k: usize) -> usize {
        self.leaf_ids[k].to_usize()
    }

    /// The value of leaf `k`.
    #[inline]
    pub fn value(&self, k: usize) -> f64 {
        self.values[k]
    }

    /// The contiguous leaf slices `(ids, values)` for positions `lo..hi` —
    /// the streaming view used by the innermost kernel loop.
    #[inline]
    pub fn leaves(&self, lo: usize, hi: usize) -> (&[I], &[f64]) {
        (&self.leaf_ids[lo..hi], &self.values[lo..hi])
    }

    /// Number of fibers at internal level `level`.
    pub fn num_fibers(&self, level: usize) -> usize {
        self.level_ids[level].len()
    }

    /// Approximate memory footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        let id = std::mem::size_of::<I>();
        let word = std::mem::size_of::<usize>();
        let mut bytes = self.root_ids.len() * word
            + self.root_ptr.len() * word
            + self.leaf_ids.len() * id
            + self.values.len() * std::mem::size_of::<f64>();
        for (ids, ptr) in self.level_ids.iter().zip(self.level_ptr.iter()) {
            bytes += ids.len() * id + ptr.len() * id;
        }
        bytes
    }

    /// Visits every stored nonzero in leaf order as
    /// `(root_index, foreign_coords, value)`, reconstructing the foreign
    /// coordinates (increasing mode order, this mode omitted) along the way.
    pub fn for_each_nonzero<F: FnMut(usize, &[usize], f64)>(&self, mut f: F) {
        let mut coords = vec![0usize; self.arity];
        for p in 0..self.num_rows() {
            let root = self.root_ids[p];
            let (lo, hi) = self.root_range(p);
            self.walk(0, lo, hi, root, &mut coords, &mut f);
        }
    }

    fn walk<F: FnMut(usize, &[usize], f64)>(
        &self,
        level: usize,
        lo: usize,
        hi: usize,
        root: usize,
        coords: &mut Vec<usize>,
        f: &mut F,
    ) {
        let internal = self.arity.saturating_sub(1);
        if self.arity == 0 {
            for k in lo..hi {
                f(root, &[], self.values[k]);
            }
        } else if level == internal {
            for k in lo..hi {
                coords[internal] = self.leaf_ids[k].to_usize();
                f(root, coords, self.values[k]);
            }
        } else {
            for fiber in lo..hi {
                coords[level] = self.fiber_id(level, fiber);
                let (clo, chi) = self.fiber_range(level, fiber);
                self.walk(level + 1, clo, chi, root, coords, f);
            }
        }
    }
}

/// Incremental fiber-hierarchy builder: rows in order, then each row's
/// nonzeros in leaf order.
#[derive(Debug)]
struct RawBuilder<I: CsfIndex> {
    mode: usize,
    arity: usize,
    root_ids: Vec<usize>,
    root_ptr: Vec<usize>,
    level_ids: Vec<Vec<I>>,
    level_ptr: Vec<Vec<I>>,
    leaf_ids: Vec<I>,
    values: Vec<f64>,
    prev: Vec<usize>,
    row_open: bool,
}

impl<I: CsfIndex> RawBuilder<I> {
    fn new(mode: usize, arity: usize, nnz_hint: usize) -> Self {
        let internal = arity.saturating_sub(1);
        RawBuilder {
            mode,
            arity,
            root_ids: Vec::new(),
            root_ptr: Vec::new(),
            level_ids: (0..internal).map(|_| Vec::new()).collect(),
            level_ptr: (0..internal).map(|_| Vec::new()).collect(),
            leaf_ids: Vec::with_capacity(if arity > 0 { nnz_hint } else { 0 }),
            values: Vec::with_capacity(nnz_hint),
            prev: vec![0; arity],
            row_open: false,
        }
    }

    fn start_row(&mut self, root: usize) {
        self.root_ids.push(root);
        self.root_ptr.push(self.child_count(0));
        self.row_open = false;
    }

    /// Number of entries currently in the array a level-`l` fiber (or the
    /// root, for `l == 0`) points into.
    fn child_count(&self, level: usize) -> usize {
        let internal = self.arity.saturating_sub(1);
        if level < internal {
            self.level_ids[level].len()
        } else if self.arity > 0 {
            self.leaf_ids.len()
        } else {
            self.values.len()
        }
    }

    fn push_foreign(&mut self, coords: &[usize], value: f64) {
        debug_assert_eq!(coords.len(), self.arity);
        debug_assert!(!self.root_ids.is_empty(), "push before start_row");
        if self.arity == 0 {
            self.values.push(value);
            self.row_open = true;
            return;
        }
        let internal = self.arity - 1;
        let first_diff = if !self.row_open {
            0
        } else {
            (0..internal)
                .find(|&l| self.prev[l] != coords[l])
                .unwrap_or(internal)
        };
        for l in first_diff..internal {
            let child_start = self.child_count(l + 1);
            self.level_ids[l].push(I::from_usize(coords[l]));
            self.level_ptr[l].push(I::from_usize(child_start));
        }
        self.leaf_ids.push(I::from_usize(coords[internal]));
        self.values.push(value);
        self.prev.copy_from_slice(coords);
        self.row_open = true;
    }

    fn finish(mut self) -> CsfData<I> {
        let internal = self.arity.saturating_sub(1);
        for l in 0..internal {
            let end = self.child_count(l + 1);
            self.level_ptr[l].push(I::from_usize(end));
        }
        self.root_ptr.push(self.child_count(0));
        CsfData {
            mode: self.mode,
            arity: self.arity,
            root_ids: self.root_ids,
            root_ptr: self.root_ptr,
            level_ids: self.level_ids,
            level_ptr: self.level_ptr,
            leaf_ids: self.leaf_ids,
            values: self.values,
        }
    }
}

/// One mode's compressed fiber hierarchy, with the index width erased.
///
/// Kernels match on the variant once per row batch and run a generic body,
/// so the `u32` narrowing costs no branches in the inner loops.
#[derive(Debug, Clone)]
pub enum CsfMode {
    /// `u32` ids and pointers — every foreign dimension and the nonzero
    /// count fit in 32 bits.
    Small(CsfData<u32>),
    /// `usize` ids and pointers for tensors beyond the 32-bit range.
    Wide(CsfData<usize>),
}

macro_rules! dispatch {
    ($self:expr, $d:ident => $body:expr) => {
        match $self {
            CsfMode::Small($d) => $body,
            CsfMode::Wide($d) => $body,
        }
    };
}

impl CsfMode {
    /// Whether `u32` ids suffice for a tensor with the given dimensions
    /// (`mode`'s own extent is irrelevant — root ids stay `usize`) and
    /// nonzero count.
    pub fn fits_u32(dims: &[usize], mode: usize, nnz: usize) -> bool {
        nnz <= u32::MAX as usize
            && dims
                .iter()
                .enumerate()
                .all(|(t, &d)| t == mode || d <= u32::MAX as usize)
    }

    /// Builds the hierarchy for `mode` from a permutation of nonzero ids and
    /// the row pointers delimiting each root slice's update list — the same
    /// `(perm, row_ptr)` pair the symbolic TTMc data carries.  Position `p`
    /// of the leaf level holds nonzero `perm[p]`, so the leaf order *is* the
    /// permutation order.
    ///
    /// # Panics
    /// Panics if `perm` does not cover every nonzero exactly once per
    /// `row_ptr`'s final entry, or if `row_ptr` is not monotone.
    pub fn build(tensor: &SparseTensor, mode: usize, perm: &[usize], row_ptr: &[usize]) -> CsfMode {
        assert!(mode < tensor.order());
        assert_eq!(
            perm.len(),
            tensor.nnz(),
            "permutation must cover every nonzero"
        );
        assert_eq!(*row_ptr.last().expect("row_ptr has a sentinel"), perm.len());
        if Self::fits_u32(tensor.dims(), mode, tensor.nnz()) {
            CsfMode::Small(build_from_perm::<u32>(tensor, mode, perm, row_ptr))
        } else {
            CsfMode::Wide(build_from_perm::<usize>(tensor, mode, perm, row_ptr))
        }
    }

    /// The mode this hierarchy is rooted at.
    pub fn mode(&self) -> usize {
        dispatch!(self, d => d.mode())
    }

    /// Number of foreign modes (`order - 1`).
    pub fn arity(&self) -> usize {
        dispatch!(self, d => d.arity())
    }

    /// Number of root slices.
    pub fn num_rows(&self) -> usize {
        dispatch!(self, d => d.num_rows())
    }

    /// Number of nonzeros stored.
    pub fn nnz(&self) -> usize {
        dispatch!(self, d => d.nnz())
    }

    /// The mode-`n` index of root slice `p`.
    pub fn root_id(&self, p: usize) -> usize {
        dispatch!(self, d => d.root_id(p))
    }

    /// Number of fibers at internal level `level`.
    pub fn num_fibers(&self, level: usize) -> usize {
        dispatch!(self, d => d.num_fibers(level))
    }

    /// Approximate memory footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        dispatch!(self, d => d.memory_bytes())
    }

    /// True when the structure stores `u32` ids.
    pub fn is_narrow(&self) -> bool {
        matches!(self, CsfMode::Small(_))
    }

    /// Visits every stored nonzero in leaf order as
    /// `(root_index, foreign_coords, value)`.
    pub fn for_each_nonzero<F: FnMut(usize, &[usize], f64)>(&self, f: F) {
        dispatch!(self, d => d.for_each_nonzero(f))
    }
}

fn build_from_perm<I: CsfIndex>(
    tensor: &SparseTensor,
    mode: usize,
    perm: &[usize],
    row_ptr: &[usize],
) -> CsfData<I> {
    let arity = tensor.order() - 1;
    let mut b = RawBuilder::<I>::new(mode, arity, tensor.nnz());
    let mut coords = vec![0usize; arity];
    for w in row_ptr.windows(2) {
        let (lo, hi) = (w[0], w[1]);
        if lo == hi {
            continue;
        }
        b.start_row(tensor.index(perm[lo])[mode]);
        for &id in &perm[lo..hi] {
            let index = tensor.index(id);
            let mut c = 0;
            for (t, &i) in index.iter().enumerate() {
                if t != mode {
                    coords[c] = i;
                    c += 1;
                }
            }
            b.push_foreign(&coords, tensor.value(id));
        }
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SparseTensor {
        SparseTensor::from_entries(
            vec![4, 3, 5],
            &[
                (vec![0, 0, 0], 1.0),
                (vec![0, 0, 2], 2.0),
                (vec![0, 1, 2], 2.5),
                (vec![2, 1, 2], 3.0),
                (vec![2, 2, 4], 4.0),
                (vec![3, 0, 0], 5.0),
            ],
        )
    }

    /// Builds `mode`'s hierarchy in update-list order: ids stably sorted by
    /// their mode-`mode` index, one row per non-empty slice.
    fn build_sorted(t: &SparseTensor, mode: usize) -> (CsfMode, Vec<usize>) {
        let mut perm: Vec<usize> = (0..t.nnz()).collect();
        perm.sort_by_key(|&id| t.index(id)[mode]);
        let mut row_ptr = vec![0];
        for k in 1..=perm.len() {
            if k == perm.len() || t.index(perm[k])[mode] != t.index(perm[k - 1])[mode] {
                row_ptr.push(k);
            }
        }
        (CsfMode::build(t, mode, &perm, &row_ptr), perm)
    }

    #[test]
    fn leaf_order_is_permutation_order() {
        let t = sample();
        for mode in 0..t.order() {
            let (csf, perm) = build_sorted(&t, mode);
            assert_eq!(csf.nnz(), t.nnz());
            let mut seen = Vec::new();
            csf.for_each_nonzero(|root, foreign, value| {
                let mut full = Vec::with_capacity(t.order());
                full.extend_from_slice(&foreign[..mode]);
                full.push(root);
                full.extend_from_slice(&foreign[mode..]);
                seen.push((full, value));
            });
            let expect: Vec<(Vec<usize>, f64)> = perm
                .iter()
                .map(|&id| (t.index(id).to_vec(), t.value(id)))
                .collect();
            assert_eq!(seen, expect, "mode {mode}");
        }
    }

    #[test]
    fn fibers_compress_shared_prefixes() {
        let t = sample();
        let (csf, _) = build_sorted(&t, 0);
        // Mode 0: slices {0, 2, 3}; slice 0 has leaves (0,0) (0,2) (1,2):
        // two level-0 fibers (j=0 with two leaves, j=1 with one).
        assert_eq!(csf.num_rows(), 3);
        assert_eq!(csf.num_fibers(0), 5);
        assert_eq!(csf.nnz(), 6);
        assert!(csf.is_narrow());
    }

    #[test]
    fn wide_indices_used_when_dims_exceed_u32() {
        let huge = (u32::MAX as usize) + 2;
        assert!(!CsfMode::fits_u32(&[4, huge, 5], 0, 10));
        assert!(CsfMode::fits_u32(&[4, huge, 5], 1, 10));
        let t = SparseTensor::from_entries(
            vec![4, huge, 5],
            &[(vec![0, huge - 1, 1], 1.5), (vec![2, 3, 0], -1.0)],
        );
        let csf = CsfMode::build(&t, 0, &[0, 1], &[0, 1, 2]);
        assert!(!csf.is_narrow());
        let mut coords = Vec::new();
        csf.for_each_nonzero(|r, c, v| coords.push((r, c.to_vec(), v)));
        assert_eq!(coords[0], (0, vec![huge - 1, 1], 1.5));
        assert_eq!(coords[1], (2, vec![3, 0], -1.0));
    }

    #[test]
    fn order_two_hierarchy_has_no_internal_levels() {
        let t = SparseTensor::from_entries(
            vec![3, 4],
            &[(vec![0, 1], 1.0), (vec![0, 3], 2.0), (vec![2, 0], 3.0)],
        );
        let (csf, _) = build_sorted(&t, 0);
        assert_eq!(csf.arity(), 1);
        assert_eq!(csf.num_rows(), 2);
        let mut leaves = Vec::new();
        csf.for_each_nonzero(|r, c, v| leaves.push((r, c[0], v)));
        assert_eq!(leaves, vec![(0, 1, 1.0), (0, 3, 2.0), (2, 0, 3.0)]);
    }
}
