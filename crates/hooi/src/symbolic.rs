//! Symbolic TTMc — the preprocessing step of the paper (§III-A1).
//!
//! For each mode `n`, the nonzero-based TTMc adds one scaled Kronecker
//! product per nonzero to row `i_n` of the matricized result.  Two threads
//! processing nonzeros with the same `i_n` would race; instead of locks, the
//! paper performs one pass over the data *before* the HOOI iterations to
//! build, for every mode, the *update list* `ul_n(i)`: the nonzeros whose
//! mode-`n` index is `i`.  The set `J_n` of rows with non-empty lists is
//! kept alongside.  During the numeric TTMc each row is then an independent
//! task — embarrassingly parallel, lock-free, and the index arithmetic is
//! done exactly once regardless of how many HOOI iterations (or how many
//! different rank configurations) follow.
//!
//! The update lists store nonzero *ids* (positions in the COO arrays), not
//! copies of the nonzeros, exactly as the paper describes.  Only the
//! per-mode kernel reads them: a dimension-tree plan keeps each mode's row
//! set `J_n` alone, read off the tree's leaves, which already hold it.

use crate::dimtree::DimTree;
use crate::error::{try_filled, TuckerError};
use rayon::prelude::*;
use sptensor::csf::CsfMode;
use sptensor::SparseTensor;

/// Update lists for one mode, in CSR-like form.
///
/// On dimension-tree plans only the row set is held, read off the tree's
/// leaves: [`row_ptr`](Self::row_ptr) and
/// [`nonzero_ids`](Self::nonzero_ids) are empty, and everything that reads
/// the update lists ([`update_list`](Self::update_list), the per-mode
/// kernel) panics naming that requirement instead of indexing them.
#[derive(Debug, Clone)]
pub struct SymbolicMode {
    /// The mode this structure describes.
    pub mode: usize,
    /// Sorted list of row indices with at least one nonzero (`J_n`).
    pub rows: Vec<usize>,
    /// Offsets into [`nonzero_ids`](Self::nonzero_ids); `row_ptr[p]..row_ptr[p+1]`
    /// is the update list of `rows[p]`.  Empty when the update lists were
    /// not built (dimension-tree plans).
    pub row_ptr: Vec<usize>,
    /// Nonzero ids grouped by row.  Empty when the update lists were not
    /// built (dimension-tree plans).
    pub nonzero_ids: Vec<usize>,
    /// Dense inverse map from a global row index to its position in
    /// [`rows`](Self::rows); `usize::MAX` marks an empty row.  One `Vec`
    /// lookup per nonzero in the build and per `position_of` call, replacing
    /// the previous hash-map probe on both hot paths.
    row_pos: Vec<usize>,
    /// Compressed fiber hierarchy for this mode — the per-mode index
    /// structure the numeric TTMc streams.  Only materialized where that
    /// kernel runs: `None` on dimension-tree plans (the tree streams its own
    /// per-node contract-index arrays instead, and holds no update lists
    /// either) and on [`SymbolicTtmc::build_without_layout`]'s update lists,
    /// which [`crate::ttmc`] gathers through COO ids.  Built from
    /// [`nonzero_ids`](Self::nonzero_ids) / [`row_ptr`](Self::row_ptr), so
    /// its leaf order *is* the update-list order and the CSF kernel
    /// accumulates bit-identically to the COO gather.
    csf: Option<CsfMode>,
}

impl SymbolicMode {
    /// Builds the update lists for `mode`, then the CSF hierarchy the
    /// per-mode numeric kernel streams.
    ///
    /// # Panics
    /// With the [`TuckerError::BufferTooLarge`] message when a table of the
    /// mode's size cannot be allocated.
    pub fn build(tensor: &SparseTensor, mode: usize) -> Self {
        Self::try_build(tensor, mode).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Self::build`], with a per-index table the allocator refuses
    /// returned as the [`TuckerError::BufferTooLarge`] naming the mode.
    fn try_build(tensor: &SparseTensor, mode: usize) -> Result<Self, TuckerError> {
        let mut symbolic = SymbolicMode::update_lists(tensor, mode)?;
        symbolic.attach_csf(tensor);
        Ok(symbolic)
    }

    /// The update lists for `mode` alone, with a counting pass followed by a
    /// filling pass (two passes over the nonzeros, no sort) — the form
    /// [`SymbolicTtmc::build_without_layout`] returns, which the per-mode
    /// kernel reads through its COO-gather fallback.
    fn update_lists(tensor: &SparseTensor, mode: usize) -> Result<Self, TuckerError> {
        assert!(mode < tensor.order());
        let dim = tensor.dims()[mode];
        // Pass 1: count nonzeros per row.
        let mut counts = try_filled(dim, 0usize, || row_table_name(mode))?;
        for t in 0..tensor.nnz() {
            counts[tensor.coords(t)[mode] as usize] += 1;
        }
        // Compact to nonempty rows.
        let rows: Vec<usize> = (0..dim).filter(|&i| counts[i] > 0).collect();
        let row_pos = row_positions(mode, &rows, dim)?;
        let mut row_ptr = Vec::with_capacity(rows.len() + 1);
        row_ptr.push(0usize);
        for &i in &rows {
            row_ptr.push(row_ptr.last().unwrap() + counts[i]);
        }
        // Pass 2: fill the ids.
        let mut cursor: Vec<usize> = row_ptr[..rows.len()].to_vec();
        let mut nonzero_ids = vec![0usize; tensor.nnz()];
        for t in 0..tensor.nnz() {
            let p = row_pos[tensor.coords(t)[mode] as usize];
            nonzero_ids[cursor[p]] = t;
            cursor[p] += 1;
        }
        Ok(SymbolicMode {
            mode,
            rows,
            row_ptr,
            nonzero_ids,
            row_pos,
            csf: None,
        })
    }

    /// The row set of `mode` alone — `rows` is `J_n`, ascending — with the
    /// inverse map [`position_of`](Self::position_of) reads and no update
    /// lists: what a dimension-tree plan holds, since the tree serves TTMc
    /// from its own node structures and the TRSVD scatter and the core read
    /// only the rows.
    fn from_rows(mode: usize, rows: Vec<usize>, dim: usize) -> Result<Self, TuckerError> {
        let row_pos = row_positions(mode, &rows, dim)?;
        Ok(SymbolicMode {
            mode,
            rows,
            row_ptr: Vec::new(),
            nonzero_ids: Vec::new(),
            row_pos,
            csf: None,
        })
    }

    /// Panics unless the update lists were built: on a dimension-tree plan's
    /// row-set-only data, `row_ptr` and `nonzero_ids` are empty, and reading
    /// them as offsets would index nothing meaningful.  (A built mode always
    /// has `row_ptr.len() == num_rows() + 1 ≥ 1`.)
    fn require_update_lists(&self) {
        assert!(
            !self.row_ptr.is_empty(),
            "mode {}: this symbolic data holds row sets only (a dimension-tree \
             plan); update lists and the per-mode kernel need \
             SymbolicTtmc::build or build_without_layout",
            self.mode
        );
    }

    /// Number of non-empty rows (`|J_n|`).
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// The update list (nonzero ids) of the `p`-th non-empty row.
    ///
    /// # Panics
    /// Panics on row-set-only data (dimension-tree plans), which has no
    /// update lists.
    pub fn update_list(&self, p: usize) -> &[usize] {
        self.require_update_lists();
        &self.nonzero_ids[self.row_ptr[p]..self.row_ptr[p + 1]]
    }

    /// Position of global row `i` in [`rows`](Self::rows), if non-empty.
    pub fn position_of(&self, i: usize) -> Option<usize> {
        match self.row_pos.get(i).copied() {
            Some(usize::MAX) | None => None,
            p => p,
        }
    }

    /// The compressed fiber hierarchy for this mode.  `None` on a
    /// dimension-tree plan's row sets and on
    /// [`SymbolicTtmc::build_without_layout`]'s update lists; on the latter
    /// the per-mode kernel gathers through COO ids instead, in the same
    /// accumulation order.
    #[inline]
    pub fn csf(&self) -> Option<&CsfMode> {
        self.csf.as_ref()
    }

    /// Per-row scheduling weights: `costs[p]` is the update-list length of
    /// the `p`-th non-empty row.  Every nonzero contributes the same
    /// `2·Π_{t≠n} R_t` flops to its row, so the list length *is* the row's
    /// relative flop count — exactly what the weighted chunked-span
    /// scheduler needs to balance spans by work instead of by row count.
    pub fn row_costs(&self) -> Vec<u64> {
        self.require_update_lists();
        (0..self.num_rows())
            .map(|p| (self.row_ptr[p + 1] - self.row_ptr[p]) as u64)
            .collect()
    }

    /// Builds and attaches the compressed fiber hierarchy if absent — the
    /// upgrade path for an `Auto` plan that built its symbolic data
    /// structure-free for the cost comparison and then resolved to the
    /// per-mode strategy.  The hierarchy is built from the update-list
    /// permutation, so root slice `p` aligns with [`rows`](Self::rows)`[p]`
    /// and the leaf order matches the COO-gather accumulation order exactly.
    pub fn attach_csf(&mut self, tensor: &SparseTensor) {
        if self.csf.is_none() {
            self.require_update_lists();
            self.csf = Some(CsfMode::build(
                tensor,
                self.mode,
                &self.nonzero_ids,
                &self.row_ptr,
            ));
        }
    }
}

/// Names the per-index tables of `mode` in [`TuckerError::BufferTooLarge`].
fn row_table_name(mode: usize) -> String {
    format!("row table of mode {mode}")
}

/// The inverse of `rows` over `0..dim`: each row's position, `usize::MAX`
/// for the empty ones.
fn row_positions(mode: usize, rows: &[usize], dim: usize) -> Result<Vec<usize>, TuckerError> {
    let mut row_pos = try_filled(dim, usize::MAX, || row_table_name(mode))?;
    for (p, &i) in rows.iter().enumerate() {
        row_pos[i] = p;
    }
    Ok(row_pos)
}

/// Symbolic TTMc data for every mode of a tensor.
#[derive(Debug, Clone)]
pub struct SymbolicTtmc {
    /// One [`SymbolicMode`] per mode, in mode order.
    pub modes: Vec<SymbolicMode>,
}

impl SymbolicTtmc {
    /// Builds the update lists and CSF hierarchies of all modes; modes are
    /// processed in parallel (the "symbolic TTMc of each dimension can be
    /// performed independently" observation of the paper).
    ///
    /// # Panics
    /// With the [`TuckerError::BufferTooLarge`] message when a per-index
    /// table is larger than the allocator grants.
    pub fn build(tensor: &SparseTensor) -> Self {
        Self::try_build(tensor).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Self::build`], with a per-index table the allocator refuses
    /// returned as the [`TuckerError::BufferTooLarge`] naming its mode.
    pub(crate) fn try_build(tensor: &SparseTensor) -> Result<Self, TuckerError> {
        let modes: Vec<Result<SymbolicMode, TuckerError>> = (0..tensor.order())
            .into_par_iter()
            .map(|m| SymbolicMode::try_build(tensor, m))
            .collect();
        Ok(SymbolicTtmc {
            modes: modes.into_iter().collect::<Result<_, _>>()?,
        })
    }

    /// [`build`](Self::build) without the CSF hierarchies: the update lists
    /// alone.  No plan holds this form — per-mode plans stream CSF, and
    /// dimension-tree plans keep row sets only — but the per-mode kernel accepts it through its COO gather, which
    /// is the accumulation order the CSF walk is checked against, and
    /// [`attach_csf_layouts`](Self::attach_csf_layouts) upgrades it to
    /// [`build`](Self::build)'s result.
    pub fn build_without_layout(tensor: &SparseTensor) -> Self {
        let modes: Vec<SymbolicMode> = (0..tensor.order())
            .into_par_iter()
            .map(|m| SymbolicMode::update_lists(tensor, m).unwrap_or_else(|e| panic!("{e}")))
            .collect();
        SymbolicTtmc { modes }
    }

    /// The row sets of every mode read off a dimension tree's leaves, with
    /// no pass over the nonzeros and no update lists: the leaf of mode `n`
    /// holds one entry per row of `J_n`, ascending, which is all a
    /// dimension-tree plan's solves read here (the TRSVD scatters through
    /// the rows, the core selects factor rows by them).  `dims` are the
    /// tensor's mode sizes, which size the [`SymbolicMode::position_of`]
    /// maps, which the allocator may refuse
    /// ([`TuckerError::BufferTooLarge`]).
    pub(crate) fn from_tree(tree: &DimTree, dims: &[usize]) -> Result<Self, TuckerError> {
        let modes: Vec<Result<SymbolicMode, TuckerError>> = (0..tree.order())
            .into_par_iter()
            .map(|m| {
                let rows = tree.leaf_rows(m).iter().map(|&i| i as usize).collect();
                SymbolicMode::from_rows(m, rows, dims[m])
            })
            .collect();
        Ok(SymbolicTtmc {
            modes: modes.into_iter().collect::<Result<_, _>>()?,
        })
    }

    /// The symbolic data for one mode.
    pub fn mode(&self, mode: usize) -> &SymbolicMode {
        &self.modes[mode]
    }

    /// Attaches the compressed fiber hierarchies to every mode that lacks
    /// one (see [`SymbolicMode::attach_csf`]); modes are processed in
    /// parallel like the build itself.
    pub fn attach_csf_layouts(&mut self, tensor: &SparseTensor) {
        let modes = std::mem::take(&mut self.modes);
        self.modes = modes
            .into_par_iter()
            .map(|mut m| {
                m.attach_csf(tensor);
                m
            })
            .collect::<SymbolicMode, Vec<SymbolicMode>>();
    }

    /// Forwards to [`attach_csf_layouts`](Self::attach_csf_layouts).  Kept
    /// because the repository benchmark's traced replay calls it, and that
    /// replay is part of the benchmark: this forward stays as long as the
    /// benchmark does.
    #[doc(hidden)]
    pub fn attach_layouts(&mut self, tensor: &SparseTensor) {
        self.attach_csf_layouts(tensor);
    }

    /// Number of modes.
    pub fn order(&self) -> usize {
        self.modes.len()
    }

    /// Total memory footprint of the symbolic structures in bytes
    /// (approximate; used in the experiment reports).
    pub fn memory_bytes(&self) -> usize {
        self.modes
            .iter()
            .map(|m| {
                (m.rows.len() + m.row_ptr.len() + m.nonzero_ids.len() + m.row_pos.len())
                    * std::mem::size_of::<usize>()
                    + m.csf.as_ref().map_or(0, |c| c.memory_bytes())
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SparseTensor {
        SparseTensor::from_entries(
            vec![4, 3, 5],
            &[
                (vec![0, 0, 0], 1.0),
                (vec![0, 1, 2], 2.0),
                (vec![2, 1, 2], 3.0),
                (vec![2, 2, 4], 4.0),
                (vec![3, 0, 0], 5.0),
            ],
        )
    }

    #[test]
    fn rows_are_nonempty_and_sorted() {
        let t = sample();
        let s = SymbolicMode::build(&t, 0);
        assert_eq!(s.rows, vec![0, 2, 3]);
        assert_eq!(s.num_rows(), 3);
    }

    #[test]
    fn update_lists_cover_all_nonzeros_exactly_once() {
        let t = sample();
        for mode in 0..3 {
            let s = SymbolicMode::build(&t, mode);
            let mut all: Vec<usize> = Vec::new();
            for p in 0..s.num_rows() {
                all.extend_from_slice(s.update_list(p));
            }
            all.sort_unstable();
            assert_eq!(all, (0..t.nnz()).collect::<Vec<_>>());
        }
    }

    #[test]
    fn update_list_members_have_matching_index() {
        let t = sample();
        for mode in 0..3 {
            let s = SymbolicMode::build(&t, mode);
            for (p, &row) in s.rows.iter().enumerate() {
                for &id in s.update_list(p) {
                    assert_eq!(t.coords(id)[mode] as usize, row);
                }
            }
        }
    }

    #[test]
    fn position_of_maps_back() {
        let t = sample();
        let s = SymbolicMode::build(&t, 0);
        assert_eq!(s.position_of(2), Some(1));
        assert_eq!(s.position_of(1), None);
        assert_eq!(s.position_of(3), Some(2));
    }

    #[test]
    fn structure_free_build_matches_update_lists() {
        let t = sample();
        let bare = SymbolicTtmc::build_without_layout(&t);
        let full = SymbolicTtmc::build(&t);
        for mode in 0..3 {
            let (with, without) = (full.mode(mode), bare.mode(mode));
            assert!(with.csf().is_some() && without.csf().is_none());
            assert_eq!(with.rows, without.rows);
            assert_eq!(with.row_ptr, without.row_ptr);
            assert_eq!(with.nonzero_ids, without.nonzero_ids);
        }
        assert!(bare.memory_bytes() < full.memory_bytes());
    }

    #[test]
    fn attached_csf_mirrors_update_list_order() {
        let t = sample();
        for mode in 0..3 {
            let mut s = SymbolicMode::update_lists(&t, mode).unwrap();
            assert!(s.csf().is_none());
            s.attach_csf(&t);
            let csf = s.csf().expect("csf attached");
            assert_eq!(csf.num_rows(), s.num_rows());
            assert_eq!(csf.nnz(), t.nnz());
            let mut seen: Vec<(usize, Vec<usize>, f64)> = Vec::new();
            csf.for_each_nonzero(|root, foreign, value| {
                seen.push((root, foreign.to_vec(), value));
            });
            let expect: Vec<(usize, Vec<usize>, f64)> = s
                .nonzero_ids
                .iter()
                .map(|&id| {
                    let full = t.index(id);
                    let foreign: Vec<usize> = full
                        .iter()
                        .enumerate()
                        .filter(|&(m, _)| m != mode)
                        .map(|(_, &i)| i)
                        .collect();
                    (full[mode], foreign, t.value(id))
                })
                .collect();
            assert_eq!(seen, expect, "mode {mode}");
        }
    }

    #[test]
    fn attach_csf_layouts_grows_memory_and_covers_all_modes() {
        let t = sample();
        let mut s = SymbolicTtmc::build_without_layout(&t);
        let bare = s.memory_bytes();
        s.attach_csf_layouts(&t);
        assert!(s.memory_bytes() > bare);
        for m in 0..s.order() {
            assert!(s.mode(m).csf().is_some());
        }
    }

    #[test]
    fn mode_parallel_build_matches_per_mode_builds() {
        let t = sample();
        let a = SymbolicTtmc::build(&t);
        assert_eq!(a.order(), 3);
        for m in 0..3 {
            let b = SymbolicMode::build(&t, m);
            assert_eq!(a.mode(m).rows, b.rows);
            assert_eq!(a.mode(m).row_ptr, b.row_ptr);
            assert_eq!(a.mode(m).nonzero_ids, b.nonzero_ids);
        }
    }

    #[test]
    fn empty_tensor_symbolic() {
        let t = SparseTensor::new(vec![3, 3]);
        let s = SymbolicTtmc::build(&t);
        assert_eq!(s.mode(0).num_rows(), 0);
    }

    #[test]
    fn memory_bytes_nonzero_for_nonempty() {
        let t = sample();
        let s = SymbolicTtmc::build(&t);
        assert!(s.memory_bytes() > 0);
    }
}
