//! Order-`N` sparse tensors in coordinate (COO) format.
//!
//! Nonzero indices are stored flattened in a single `Vec<usize>` of length
//! `nnz * order` (indices of nonzero `t` occupy
//! `indices[t * order .. (t + 1) * order]`), which keeps each nonzero's
//! coordinates contiguous — the access pattern of the nonzero-based TTMc.

use crate::hash::FxHashMap;

/// An order-`N` sparse tensor in coordinate format with `f64` values.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseTensor {
    dims: Vec<usize>,
    /// Flattened indices: nonzero `t` occupies `indices[t*order..(t+1)*order]`.
    indices: Vec<usize>,
    values: Vec<f64>,
}

impl SparseTensor {
    /// Creates an empty sparse tensor with the given mode sizes.
    ///
    /// # Panics
    /// Panics if `dims` is empty or any dimension is zero.
    pub fn new(dims: Vec<usize>) -> Self {
        assert!(!dims.is_empty(), "a tensor needs at least one mode");
        assert!(
            dims.iter().all(|&d| d > 0),
            "all mode sizes must be positive"
        );
        SparseTensor {
            dims,
            indices: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Creates an empty sparse tensor and reserves space for `nnz` nonzeros.
    pub fn with_capacity(dims: Vec<usize>, nnz: usize) -> Self {
        let mut t = SparseTensor::new(dims);
        t.indices.reserve(nnz * t.order());
        t.values.reserve(nnz);
        t
    }

    /// Wraps flat index and value buffers whose indices the caller has
    /// already checked against `dims` (the `.tns` reader validates every
    /// index as it parses), without copying them.
    pub(crate) fn from_validated_parts(
        dims: Vec<usize>,
        indices: Vec<usize>,
        values: Vec<f64>,
    ) -> Self {
        let tensor = SparseTensor {
            dims,
            indices,
            values,
        };
        debug_assert!(tensor.validate().is_ok(), "{:?}", tensor.validate());
        tensor
    }

    /// Builds a tensor from parallel slices of index tuples and values.
    ///
    /// # Panics
    /// Panics if lengths disagree or any index is out of bounds.
    pub fn from_entries(dims: Vec<usize>, entries: &[(Vec<usize>, f64)]) -> Self {
        let mut t = SparseTensor::with_capacity(dims, entries.len());
        for (idx, val) in entries {
            t.push(idx, *val);
        }
        t
    }

    /// Number of modes (`N`).
    #[inline]
    pub fn order(&self) -> usize {
        self.dims.len()
    }

    /// Mode sizes `I_1, …, I_N`.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of stored nonzeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Whether the tensor stores no nonzeros.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Appends a nonzero.
    ///
    /// # Panics
    /// Panics if the index tuple has the wrong length or is out of bounds.
    pub fn push(&mut self, index: &[usize], value: f64) {
        assert_eq!(index.len(), self.order(), "index arity mismatch");
        for (m, (&i, &d)) in index.iter().zip(self.dims.iter()).enumerate() {
            assert!(i < d, "index {i} out of bounds for mode {m} of size {d}");
        }
        self.indices.extend_from_slice(index);
        self.values.push(value);
    }

    /// The index tuple of nonzero `t`.
    // Not `std::ops::Index`: that trait cannot return a computed sub-slice
    // of a flat buffer by value semantics this API needs, and `index` is the
    // paper's name for a nonzero's coordinate tuple.
    #[allow(clippy::should_implement_trait)]
    #[inline]
    pub fn index(&self, t: usize) -> &[usize] {
        let n = self.order();
        &self.indices[t * n..(t + 1) * n]
    }

    /// The value of nonzero `t`.
    #[inline]
    pub fn value(&self, t: usize) -> f64 {
        self.values[t]
    }

    /// Mutable access to the value of nonzero `t`.
    #[inline]
    pub fn value_mut(&mut self, t: usize) -> &mut f64 {
        &mut self.values[t]
    }

    /// All values.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Iterator over `(index_tuple, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&[usize], f64)> + '_ {
        let n = self.order();
        self.indices
            .chunks_exact(n)
            .zip(self.values.iter().copied())
    }

    /// Frobenius norm `sqrt(Σ x²)` (assumes the tensor is coalesced; duplicate
    /// coordinates would be counted separately).
    pub fn frobenius_norm(&self) -> f64 {
        self.values.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Density `nnz / Π I_n`.
    pub fn density(&self) -> f64 {
        let total: f64 = self.dims.iter().map(|&d| d as f64).product();
        if total == 0.0 {
            0.0
        } else {
            self.nnz() as f64 / total
        }
    }

    /// Merges duplicate coordinates by summing their values and drops exact
    /// zeros.  Returns the number of nonzeros removed.
    pub fn coalesce(&mut self) -> usize {
        let n = self.order();
        let before = self.nnz();
        // Hash on the linearized index (fits in u128 for realistic sizes; use
        // a tuple of the raw index slice otherwise).  We use the index slice
        // as the key via a map from Vec<usize>.
        let mut map: FxHashMap<Vec<usize>, f64> = FxHashMap::default();
        map.reserve(self.nnz());
        for t in 0..self.nnz() {
            let key = self.indices[t * n..(t + 1) * n].to_vec();
            *map.entry(key).or_insert(0.0) += self.values[t];
        }
        let mut entries: Vec<(Vec<usize>, f64)> =
            map.into_iter().filter(|(_, v)| *v != 0.0).collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        self.indices.clear();
        self.values.clear();
        for (idx, val) in entries {
            self.indices.extend_from_slice(&idx);
            self.values.push(val);
        }
        before - self.nnz()
    }

    /// Returns the nonzeros whose positions are listed in `which`, as a new
    /// tensor with the same mode sizes.  Used to split a tensor across
    /// simulated processes.
    pub fn subset(&self, which: &[usize]) -> SparseTensor {
        let n = self.order();
        let mut out = SparseTensor::with_capacity(self.dims.clone(), which.len());
        for &t in which {
            out.indices
                .extend_from_slice(&self.indices[t * n..(t + 1) * n]);
            out.values.push(self.values[t]);
        }
        out
    }

    /// Number of nonzeros in each mode-`mode` slice (a histogram of length
    /// `I_mode`).  Slice `i` of mode `n` is the set of nonzeros with
    /// `i_n = i`; its size drives the cost of the coarse-grain task `t^n_i`.
    pub fn slice_nnz(&self, mode: usize) -> Vec<usize> {
        assert!(mode < self.order());
        let mut counts = vec![0usize; self.dims[mode]];
        let n = self.order();
        for t in 0..self.nnz() {
            counts[self.indices[t * n + mode]] += 1;
        }
        counts
    }

    /// Number of non-empty slices in the given mode (the `|J_n|` of the
    /// paper's symbolic TTMc).
    pub fn nonempty_slices(&self, mode: usize) -> usize {
        self.slice_nnz(mode).iter().filter(|&&c| c > 0).count()
    }

    /// Scales every value by `alpha`.
    pub fn scale(&mut self, alpha: f64) {
        self.values.iter_mut().for_each(|v| *v *= alpha);
    }

    /// Returns the maximum index used in each mode (or `None` for an empty
    /// tensor); useful to validate generated data.
    pub fn max_indices(&self) -> Option<Vec<usize>> {
        if self.is_empty() {
            return None;
        }
        let n = self.order();
        let mut maxes = vec![0usize; n];
        for t in 0..self.nnz() {
            for m in 0..n {
                maxes[m] = maxes[m].max(self.indices[t * n + m]);
            }
        }
        Some(maxes)
    }

    /// Checks internal consistency (index arity, bounds); returns an error
    /// string describing the first violation found.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.order();
        if self.indices.len() != self.values.len() * n {
            return Err(format!(
                "index buffer length {} does not equal nnz {} * order {}",
                self.indices.len(),
                self.values.len(),
                n
            ));
        }
        for t in 0..self.nnz() {
            for m in 0..n {
                let i = self.indices[t * n + m];
                if i >= self.dims[m] {
                    return Err(format!(
                        "nonzero {t}: index {i} out of bounds for mode {m} (size {})",
                        self.dims[m]
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample3() -> SparseTensor {
        SparseTensor::from_entries(
            vec![3, 4, 5],
            &[
                (vec![0, 0, 0], 1.0),
                (vec![2, 3, 4], 2.0),
                (vec![1, 2, 3], 3.0),
                (vec![0, 1, 1], -1.0),
            ],
        )
    }

    #[test]
    fn new_empty() {
        let t = SparseTensor::new(vec![2, 3]);
        assert_eq!(t.order(), 2);
        assert_eq!(t.dims(), &[2, 3]);
        assert_eq!(t.nnz(), 0);
        assert!(t.is_empty());
    }

    #[test]
    #[should_panic]
    fn zero_dim_rejected() {
        let _ = SparseTensor::new(vec![2, 0]);
    }

    #[test]
    fn push_and_access() {
        let t = sample3();
        assert_eq!(t.nnz(), 4);
        assert_eq!(t.index(1), &[2, 3, 4]);
        assert_eq!(t.value(1), 2.0);
    }

    #[test]
    #[should_panic]
    fn push_out_of_bounds() {
        let mut t = SparseTensor::new(vec![2, 2]);
        t.push(&[0, 2], 1.0);
    }

    #[test]
    #[should_panic]
    fn push_wrong_arity() {
        let mut t = SparseTensor::new(vec![2, 2]);
        t.push(&[0], 1.0);
    }

    #[test]
    fn iter_matches_contents() {
        let t = sample3();
        let collected: Vec<_> = t.iter().map(|(i, v)| (i.to_vec(), v)).collect();
        assert_eq!(collected.len(), 4);
        assert_eq!(collected[2], (vec![1, 2, 3], 3.0));
    }

    #[test]
    fn frobenius_norm_known() {
        let t = sample3();
        let expected = (1.0f64 + 4.0 + 9.0 + 1.0).sqrt();
        assert!((t.frobenius_norm() - expected).abs() < 1e-12);
    }

    #[test]
    fn density_small() {
        let t = sample3();
        assert!((t.density() - 4.0 / 60.0).abs() < 1e-12);
    }

    #[test]
    fn coalesce_merges_duplicates() {
        let mut t = SparseTensor::from_entries(
            vec![2, 2],
            &[
                (vec![0, 0], 1.0),
                (vec![0, 0], 2.0),
                (vec![1, 1], 5.0),
                (vec![1, 0], 3.0),
                (vec![1, 0], -3.0),
            ],
        );
        let removed = t.coalesce();
        assert_eq!(removed, 3);
        assert_eq!(t.nnz(), 2);
        // Survivors come out in lexicographic index order.
        assert_eq!(t.index(0), &[0, 0]);
        assert_eq!(t.value(0), 3.0);
        assert_eq!(t.index(1), &[1, 1]);
    }

    #[test]
    fn subset_extracts_in_order() {
        let t = sample3();
        let s = t.subset(&[2, 0]);
        assert_eq!(s.nnz(), 2);
        assert_eq!(s.index(0), &[1, 2, 3]);
        assert_eq!(s.index(1), &[0, 0, 0]);
        assert_eq!(s.dims(), t.dims());
    }

    #[test]
    fn slice_nnz_histogram() {
        let t = sample3();
        assert_eq!(t.slice_nnz(0), vec![2, 1, 1]);
        assert_eq!(t.nonempty_slices(0), 3);
        assert_eq!(t.nonempty_slices(1), 4);
    }

    #[test]
    fn scale_values() {
        let mut t = sample3();
        t.scale(2.0);
        assert_eq!(t.value(0), 2.0);
        assert_eq!(t.value(3), -2.0);
    }

    #[test]
    fn max_indices_and_validate() {
        let t = sample3();
        assert_eq!(t.max_indices(), Some(vec![2, 3, 4]));
        assert!(t.validate().is_ok());
        let empty = SparseTensor::new(vec![2, 2]);
        assert_eq!(empty.max_indices(), None);
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        let t = SparseTensor::with_capacity(vec![4, 4], 100);
        assert_eq!(t.nnz(), 0);
        assert_eq!(t.dims(), &[4, 4]);
    }
}
