//! Reusable scratch state for the HOOI iteration loop.
//!
//! Per iteration, every mode `n` produces a compact TTMc result of shape
//! `|J_n| × Π_{t≠n} R_t`, runs a TRSVD on it, and the last mode's result is
//! folded into the core tensor.  All of that scratch depends only on the
//! symbolic data and the (clamped) Tucker ranks — neither changes across
//! iterations, and across *solves* of one planned [`crate::TuckerSolver`]
//! only the ranks can change — so the workspace owns it all and hands the
//! same buffers to every sweep:
//!
//! * the per-mode compact TTMc result matrices
//!   ([`crate::ttmc::ttmc_mode_into_isa`] writes into them),
//! * the TRSVD scratch ([`linalg::lanczos::LanczosWorkspace`]: the short
//!   Krylov basis vectors and the one `|J_n|`-long product vector),
//! * the core tensor buffer
//!   ([`crate::core_tensor::core_from_last_ttmc_into`] folds into it).
//!
//! [`ensure`](HooiWorkspace::ensure) reshapes lazily: solving the same
//! configuration twice reallocates nothing, switching ranks reallocates only
//! the buffers whose shape actually changed.  Every size is computed in
//! checked arithmetic and every buffer allocated fallibly, so ranks whose
//! products no machine can hold are a [`TuckerError::BufferTooLarge`], not
//! an overflow panic or an allocation abort.

use crate::dimtree::DimTree;
use crate::error::TuckerError;
use crate::symbolic::SymbolicTtmc;
use linalg::lanczos::LanczosWorkspace;
use linalg::Matrix;
use sptensor::DenseTensor;

/// Preallocated scratch for a HOOI run, reused across iterations and across
/// the solves of one planned solver session.
#[derive(Debug)]
pub struct HooiWorkspace {
    pub(crate) compact: Vec<Matrix>,
    trsvd: LanczosWorkspace,
    core: DenseTensor,
    /// Per-node value matrices of the dimension tree (empty for the root,
    /// for canonical leaves — those compute straight into `compact` — and
    /// whenever the per-mode strategy runs).
    pub(crate) tree_values: Vec<Matrix>,
    /// Whether each tree node's values are current w.r.t. the factors; the
    /// root (the tensor itself) is always valid.
    pub(crate) tree_valid: Vec<bool>,
    /// Per-node privatized partial rows for segmented (split) member groups:
    /// one row per segment of the node, merged in ascending segment order by
    /// [`crate::dimtree::DimTree::compute_node_into_isa`].  Nodes whose groups
    /// are all below the segmentation grain have zero rows here.
    pub(crate) tree_partials: Vec<Matrix>,
    /// Column permutation serving each mode's leaf into canonical order
    /// (empty for canonical leaves).
    pub(crate) leaf_perms: Vec<Vec<usize>>,
    /// The ranks the tree buffers and permutations are currently shaped
    /// for; same-rank solves skip the reshaping entirely.
    tree_ranks: Vec<usize>,
}

impl HooiWorkspace {
    /// Creates an empty workspace for an order-`order` tensor; buffers are
    /// shaped on the first [`ensure`](Self::ensure).
    pub fn for_order(order: usize) -> Self {
        assert!(order > 0, "workspace needs at least one mode");
        HooiWorkspace {
            compact: (0..order).map(|_| Matrix::zeros(0, 0)).collect(),
            trsvd: LanczosWorkspace::new(),
            core: DenseTensor::zeros(vec![0; order]),
            tree_values: Vec::new(),
            tree_valid: Vec::new(),
            tree_partials: Vec::new(),
            leaf_perms: Vec::new(),
            tree_ranks: Vec::new(),
        }
    }

    /// Allocates the buffers for the given symbolic data and (clamped)
    /// Tucker ranks.
    ///
    /// # Panics
    /// Panics where [`ensure`](Self::ensure) does.
    pub fn new(symbolic: &SymbolicTtmc, ranks: &[usize]) -> Self {
        let mut ws = HooiWorkspace::for_order(symbolic.order());
        ws.ensure(symbolic, ranks);
        ws
    }

    /// Checks, without allocating, that every buffer a solve at `ranks`
    /// shapes — the compact TTMc results, the dimension-tree nodes and their
    /// partial rows when `tree` is given, and the core — has an element
    /// count `usize` can hold: the overflow half of solve validation.
    pub(crate) fn check_sizes(
        symbolic: &SymbolicTtmc,
        tree: Option<&DimTree>,
        ranks: &[usize],
    ) -> Result<(), TuckerError> {
        for mode in 0..ranks.len() {
            compact_shape(symbolic, ranks, mode)?;
        }
        if let Some(tree) = tree {
            for id in 1..tree.num_nodes() {
                node_shapes(tree, id, ranks)?;
            }
        }
        core_len(ranks).map(drop)
    }

    /// Shapes the buffers for a solve at `ranks`, reallocating only those
    /// whose shape changed since the previous solve.  The core buffer is
    /// zeroed so no state can leak between solves.
    ///
    /// # Panics
    /// Panics with the [`TuckerError::BufferTooLarge`] message when a buffer
    /// cannot be allocated at these ranks; the solver takes the error as a
    /// value instead.
    pub fn ensure(&mut self, symbolic: &SymbolicTtmc, ranks: &[usize]) {
        if let Err(e) = self.try_ensure(symbolic, ranks) {
            panic!("{e}");
        }
    }

    /// [`ensure`](Self::ensure) with the allocation failure as a value.
    pub(crate) fn try_ensure(
        &mut self,
        symbolic: &SymbolicTtmc,
        ranks: &[usize],
    ) -> Result<(), TuckerError> {
        assert_eq!(symbolic.order(), self.compact.len());
        assert_eq!(ranks.len(), self.compact.len());
        for mode in 0..self.compact.len() {
            let shape = compact_shape(symbolic, ranks, mode)?;
            if self.compact[mode].shape() != shape {
                self.compact[mode] = try_matrix(shape, || compact_name(mode))?;
            }
        }
        if self.core.dims() == ranks {
            self.core.as_mut_slice().fill(0.0);
        } else {
            let data = try_zeros(core_len(ranks)?, || CORE.to_string())?;
            self.core = DenseTensor::from_vec(ranks.to_vec(), data);
        }
        Ok(())
    }

    /// Shapes the dimension-tree node buffers for a solve at `ranks` (called
    /// in addition to [`ensure`](Self::ensure) when the
    /// [`DimensionTree`](crate::config::TtmcStrategy::DimensionTree)
    /// strategy runs), recomputes the leaf column permutations, and marks
    /// every node stale so the first sweep rebuilds the tree against the
    /// fresh factors.  Same-shape solves reallocate nothing.
    ///
    /// # Panics
    /// Panics where [`ensure`](Self::ensure) does.
    pub fn ensure_tree(&mut self, tree: &DimTree, ranks: &[usize]) {
        if let Err(e) = self.try_ensure_tree(tree, ranks) {
            panic!("{e}");
        }
    }

    /// [`ensure_tree`](Self::ensure_tree) with the allocation failure as a
    /// value.
    pub(crate) fn try_ensure_tree(
        &mut self,
        tree: &DimTree,
        ranks: &[usize],
    ) -> Result<(), TuckerError> {
        let nodes = tree.num_nodes();
        if self.tree_values.len() != nodes {
            self.tree_values = (0..nodes).map(|_| Matrix::zeros(0, 0)).collect();
            self.tree_partials = (0..nodes).map(|_| Matrix::zeros(0, 0)).collect();
            self.tree_valid = vec![false; nodes];
            self.tree_ranks.clear();
        }
        // Buffer shapes and leaf permutations depend only on the tree and
        // the ranks; a same-rank solve reuses both untouched.
        if self.tree_ranks != ranks {
            // Half-reshaped buffers must not pass for shaped ones if an
            // allocation below fails.
            self.tree_ranks.clear();
            for id in 1..nodes {
                let (values, partials) = node_shapes(tree, id, ranks)?;
                // Canonical leaves compute straight into the compact
                // buffers; only internal nodes and permuted leaves need
                // storage here.
                let needs_buffer = !tree.is_leaf(id) || !tree.leaf_is_canonical(tree.leaf_mode(id));
                let values = if needs_buffer { values } else { (0, 0) };
                if self.tree_values[id].shape() != values {
                    self.tree_values[id] = try_matrix(values, || node_name(id))?;
                }
                // Privatized partial rows for split member groups, one row
                // per segment; nodes with no segments keep an empty matrix.
                if self.tree_partials[id].shape() != partials {
                    self.tree_partials[id] =
                        try_matrix(partials, || format!("partial rows of {}", node_name(id)))?;
                }
            }
            self.leaf_perms = (0..tree.order())
                .map(|mode| tree.leaf_permutation(mode, ranks).unwrap_or_default())
                .collect();
            self.tree_ranks = ranks.to_vec();
        }
        self.tree_valid.fill(false);
        self.tree_valid[0] = true; // the root is the tensor itself
        Ok(())
    }

    /// Total number of `f64` entries held by the dimension-tree node
    /// buffers (zero while the per-mode strategy runs).
    pub fn tree_len(&self) -> usize {
        self.tree_values.iter().map(|m| m.as_slice().len()).sum()
    }

    /// The compact TTMc buffer of `mode`, for writing.
    pub fn compact_mut(&mut self, mode: usize) -> &mut Matrix {
        &mut self.compact[mode]
    }

    /// The compact TTMc buffer of `mode`, for reading (e.g. the core-tensor
    /// extraction from the last mode's result).
    pub fn compact(&self, mode: usize) -> &Matrix {
        &self.compact[mode]
    }

    /// The compact TTMc result of `mode` together with the TRSVD scratch —
    /// what one factor update reads and mutates.
    pub fn trsvd_buffers(&mut self, mode: usize) -> (&Matrix, &mut LanczosWorkspace) {
        (&self.compact[mode], &mut self.trsvd)
    }

    /// The compact TTMc result of `mode` together with the core buffer —
    /// what the core extraction reads and writes.
    pub fn core_buffers(&mut self, mode: usize) -> (&Matrix, &mut DenseTensor) {
        (&self.compact[mode], &mut self.core)
    }

    /// The core tensor written by the most recent iteration.
    pub fn core(&self) -> &DenseTensor {
        &self.core
    }

    /// Total number of `f64` entries held by the compact TTMc buffers.
    pub fn len(&self) -> usize {
        self.compact.iter().map(|m| m.as_slice().len()).sum()
    }

    /// Measured memory footprint of all scratch owned by this workspace, in
    /// bytes: the compact TTMc buffers, the dimension-tree node values and
    /// privatized partials, the leaf permutations, the core buffer, and the
    /// pooled Lanczos basis and product vector (the TRSVD's per-call
    /// results and kernel partials are freed before it returns and are not
    /// held).  This is the
    /// workspace's share of a plan's cache footprint
    /// ([`crate::TuckerSession::memory_bytes`]); it grows on the first
    /// solve at each rank shape and is stable afterwards.
    pub fn memory_bytes(&self) -> usize {
        let floats = self.len()
            + self.tree_len()
            + self
                .tree_partials
                .iter()
                .map(|m| m.as_slice().len())
                .sum::<usize>()
            + self.core.as_slice().len()
            + self.trsvd.pooled_floats();
        let indices = self.leaf_perms.iter().map(Vec::len).sum::<usize>() + self.tree_ranks.len();
        floats * std::mem::size_of::<f64>()
            + indices * std::mem::size_of::<usize>()
            + self.tree_valid.len() * std::mem::size_of::<bool>()
    }

    /// Whether the compact TTMc buffers hold no data (all modes empty).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

const CORE: &str = "core tensor";

fn compact_name(mode: usize) -> String {
    format!("compact TTMc of mode {mode}")
}

fn node_name(id: usize) -> String {
    format!("dimension-tree node {id}")
}

fn too_large(buffer: String) -> TuckerError {
    TuckerError::BufferTooLarge { buffer }
}

/// `(|J_n|, Π_{t≠n} R_t)`, the shape of mode `mode`'s compact TTMc buffer,
/// in checked arithmetic.
fn compact_shape(
    symbolic: &SymbolicTtmc,
    ranks: &[usize],
    mode: usize,
) -> Result<(usize, usize), TuckerError> {
    let rows = symbolic.mode(mode).num_rows();
    (ranks.iter().enumerate())
        .filter(|&(t, _)| t != mode)
        .try_fold(1usize, |w, (_, &r)| w.checked_mul(r))
        .filter(|&width| rows.checked_mul(width).is_some())
        .map(|width| (rows, width))
        .ok_or_else(|| too_large(compact_name(mode)))
}

type NodeShapes = ((usize, usize), (usize, usize));

/// The shapes of tree node `id`'s value matrix (entries × width) and of its
/// partial rows (segments × width), in checked arithmetic.
fn node_shapes(tree: &DimTree, id: usize, ranks: &[usize]) -> Result<NodeShapes, TuckerError> {
    let (entries, segments) = (tree.node_entries(id), tree.node_segments(id));
    tree.checked_node_width(id, ranks)
        .filter(|&w| entries.checked_mul(w).is_some() && segments.checked_mul(w).is_some())
        .map(|w| ((entries, w), (segments, w)))
        .ok_or_else(|| too_large(node_name(id)))
}

/// `Π R_t`, the core's element count, in checked arithmetic.
fn core_len(ranks: &[usize]) -> Result<usize, TuckerError> {
    (ranks.iter())
        .try_fold(1usize, |n, &r| n.checked_mul(r))
        .ok_or_else(|| too_large(CORE.to_string()))
}

/// `len` zeros whose storage is reserved fallibly: a size the allocator
/// refuses is the [`TuckerError::BufferTooLarge`] naming `buffer`, not an
/// abort.
fn try_zeros(len: usize, buffer: impl FnOnce() -> String) -> Result<Vec<f64>, TuckerError> {
    let mut data = Vec::new();
    data.try_reserve_exact(len)
        .map_err(|_| too_large(buffer()))?;
    data.resize(len, 0.0);
    Ok(data)
}

/// A zeroed matrix of a shape the `*_shape` helpers checked, allocated by
/// [`try_zeros`].
fn try_matrix(
    (rows, cols): (usize, usize),
    buffer: impl FnOnce() -> String,
) -> Result<Matrix, TuckerError> {
    Ok(Matrix::from_vec(
        rows,
        cols,
        try_zeros(rows * cols, buffer)?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sptensor::SparseTensor;

    fn sample() -> SparseTensor {
        SparseTensor::from_entries(
            vec![4, 3, 5],
            &[
                (vec![0, 0, 0], 1.0),
                (vec![0, 1, 2], 2.0),
                (vec![2, 1, 2], 3.0),
                (vec![3, 2, 4], 4.0),
            ],
        )
    }

    #[test]
    fn buffers_have_compact_shapes() {
        let t = sample();
        let sym = SymbolicTtmc::build(&t);
        let ws = HooiWorkspace::new(&sym, &[2, 3, 4]);
        assert_eq!(ws.compact(0).shape(), (sym.mode(0).num_rows(), 12));
        assert_eq!(ws.compact(1).shape(), (sym.mode(1).num_rows(), 8));
        assert_eq!(ws.compact(2).shape(), (sym.mode(2).num_rows(), 6));
        assert_eq!(ws.core().dims(), &[2, 3, 4]);
        assert!(!ws.is_empty());
    }

    #[test]
    fn empty_tensor_gives_empty_workspace() {
        let t = SparseTensor::new(vec![3, 3, 3]);
        let sym = SymbolicTtmc::build(&t);
        let ws = HooiWorkspace::new(&sym, &[2, 2, 2]);
        assert!(ws.is_empty());
        assert_eq!(ws.compact(1).nrows(), 0);
    }

    #[test]
    fn buffers_are_writable_and_stable_across_reuse() {
        let t = sample();
        let sym = SymbolicTtmc::build(&t);
        let mut ws = HooiWorkspace::new(&sym, &[2, 2, 2]);
        let ptr_before = ws.compact(0).as_slice().as_ptr();
        ws.compact_mut(0).as_mut_slice().fill(7.0);
        let ptr_after = ws.compact(0).as_slice().as_ptr();
        assert_eq!(ptr_before, ptr_after, "reuse must not reallocate");
        assert!(ws.compact(0).as_slice().iter().all(|&x| x == 7.0));
    }

    #[test]
    fn ensure_with_same_ranks_keeps_allocations() {
        let t = sample();
        let sym = SymbolicTtmc::build(&t);
        let mut ws = HooiWorkspace::new(&sym, &[2, 2, 2]);
        ws.compact_mut(0).as_mut_slice().fill(3.0);
        let ptr_before = ws.compact(0).as_slice().as_ptr();
        ws.ensure(&sym, &[2, 2, 2]);
        assert_eq!(ws.compact(0).as_slice().as_ptr(), ptr_before);
        // The core buffer is zeroed between solves.
        assert!(ws.core().as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn ensure_tree_reuses_buffers_at_same_ranks() {
        let t = SparseTensor::from_entries(
            vec![4, 3, 5, 2],
            &[
                (vec![0, 0, 0, 0], 1.0),
                (vec![1, 1, 2, 1], 2.0),
                (vec![3, 2, 4, 0], 3.0),
                (vec![1, 0, 2, 1], 4.0),
            ],
        );
        let sym = SymbolicTtmc::build(&t);
        let tree = crate::dimtree::DimTree::build(&t);
        let mut ws = HooiWorkspace::new(&sym, &[2, 2, 2, 2]);
        ws.ensure_tree(&tree, &[2, 2, 2, 2]);
        assert!(ws.tree_len() > 0);
        // Mark a node valid, grab a buffer pointer, re-ensure at the same
        // ranks: allocations stay, validity resets.
        ws.tree_valid[1] = true;
        let ptr = ws.tree_values[1].as_slice().as_ptr();
        let perms_before: Vec<usize> = ws.leaf_perms.iter().map(|p| p.len()).collect();
        ws.ensure_tree(&tree, &[2, 2, 2, 2]);
        assert_eq!(ws.tree_values[1].as_slice().as_ptr(), ptr);
        assert!(!ws.tree_valid[1], "validity must reset per solve");
        assert!(ws.tree_valid[0], "the root is always valid");
        let perms_after: Vec<usize> = ws.leaf_perms.iter().map(|p| p.len()).collect();
        assert_eq!(perms_before, perms_after);
        // Rank change reshapes.
        ws.ensure_tree(&tree, &[2, 3, 2, 2]);
        assert_ne!(ws.tree_len(), 0);
    }

    #[test]
    fn memory_bytes_tracks_buffer_growth() {
        let t = sample();
        let sym = SymbolicTtmc::build(&t);
        let mut ws = HooiWorkspace::for_order(3);
        let empty = ws.memory_bytes();
        ws.ensure(&sym, &[2, 2, 2]);
        let small = ws.memory_bytes();
        assert!(small > empty, "shaping buffers must grow the footprint");
        ws.ensure(&sym, &[3, 3, 3]);
        assert!(ws.memory_bytes() > small, "larger ranks, larger footprint");
        // At minimum the compact buffers and core are counted as f64s.
        assert!(ws.memory_bytes() >= (ws.len() + ws.core().as_slice().len()) * 8);
    }

    #[test]
    fn ensure_reshapes_on_rank_change() {
        let t = sample();
        let sym = SymbolicTtmc::build(&t);
        let mut ws = HooiWorkspace::new(&sym, &[2, 2, 2]);
        ws.ensure(&sym, &[3, 2, 2]);
        // Mode 0 keeps width 4 = 2·2, but modes 1 and 2 now see rank 3.
        assert_eq!(ws.compact(0).ncols(), 4);
        assert_eq!(ws.compact(1).ncols(), 6);
        assert_eq!(ws.compact(2).ncols(), 6);
        assert_eq!(ws.core().dims(), &[3, 2, 2]);
    }
}
