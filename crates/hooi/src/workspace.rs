//! Reusable scratch state for the HOOI iteration loop.
//!
//! Per iteration, every mode `n` produces a compact TTMc result `Y` of
//! shape `|J_n| × Π_{t≠n} R_t`, runs a TRSVD on it, and the last mode's
//! result is folded into the core tensor.  All of that scratch depends only
//! on the symbolic data and the (clamped) Tucker ranks — neither changes
//! across iterations, and across *solves* of one planned
//! [`crate::TuckerSolver`] only the ranks can change — so the workspace
//! owns it all and hands the same buffers to every sweep:
//!
//! * **one** compact TTMc buffer, sized to the widest mode's `Y`: a sweep
//!   reads each mode's `Y` once, in its TRSVD, before the next mode's TTMc
//!   writes (and the core reads the last mode's, before the next sweep), so
//!   [`compact_mut`](HooiWorkspace::compact_mut) reshapes that one
//!   allocation to the mode asked for instead of keeping one buffer per
//!   mode.  The reshape neither reallocates nor fills: every kernel that
//!   writes `Y` ([`crate::ttmc::ttmc_mode_into_isa`],
//!   [`crate::dimtree::serve_mode_into_isa`]) overwrites its whole shape,
//!   so a fill would only cost a write of every entry per mode;
//! * on a tree plan, one node-value buffer per tree depth and one
//!   partial-rows scratch ([`ensure_tree`](HooiWorkspace::ensure_tree)),
//!   each reshaped in place to the node being computed;
//! * the TRSVD scratch ([`linalg::lanczos::LanczosWorkspace`]: the short
//!   Krylov basis vectors and the one `|J_n|`-long product vector),
//! * the core tensor buffer
//!   ([`crate::core_tensor::core_from_last_ttmc_into`] folds into it).
//!
//! [`ensure`](HooiWorkspace::ensure) reshapes lazily: solving the same
//! configuration twice reallocates nothing, switching ranks reallocates only
//! the buffers whose size actually changed.  Every size is computed in
//! checked arithmetic and every buffer allocated fallibly, so ranks whose
//! products no machine can hold are a [`TuckerError::BufferTooLarge`], not
//! an overflow panic or an allocation abort.

use crate::dimtree::DimTree;
use crate::error::{try_filled, TuckerError};
use crate::symbolic::SymbolicTtmc;
use linalg::lanczos::LanczosWorkspace;
use linalg::Matrix;
use sptensor::DenseTensor;

/// Preallocated scratch for a HOOI run, reused across iterations and across
/// the solves of one planned solver session.
#[derive(Debug)]
pub struct HooiWorkspace {
    /// The compact TTMc buffer, shaped as the `Y` of the mode it was last
    /// shaped for ([`shape_compact`](Self::shape_compact)) over one
    /// allocation as long as the widest mode's.
    pub(crate) compact: Matrix,
    /// `(|J_n|, Π_{t≠n} R_t)` of every mode at the ranks of the last
    /// [`ensure`](Self::ensure); all `(0, 0)` before the first.
    compact_shapes: Vec<(usize, usize)>,
    pub(crate) trsvd: LanczosWorkspace,
    core: DenseTensor,
    /// One value buffer per dimension-tree depth (all empty whenever the
    /// per-mode strategy runs).  Only internal nodes need one — a leaf's
    /// rows are its mode's compact rows, so it computes straight into
    /// `compact` — and entry `d` is as long as the largest internal node at
    /// depth `d` (entry 0, the root's, and the deepest, which holds only
    /// leaves, stay empty), reshaped in place to the node computing into
    /// it.  A sweep reads one root-to-leaf path at a time, and two
    /// nodes at one depth retain disjoint modes, so a node is overwritten
    /// only while a mode outside its range is served: a factor update that
    /// would mark it stale anyway follows.
    pub(crate) tree_values: Vec<Matrix>,
    /// The node whose values each depth's buffer holds (`usize::MAX` for
    /// none).
    tree_owner: Vec<usize>,
    /// Allocated length of each depth's buffer, whatever node it is shaped
    /// for.
    tree_values_lens: Vec<usize>,
    /// Whether each tree node's values are current w.r.t. the factors; the
    /// root (the tensor itself) is always valid, and a node with a buffer
    /// only while it owns its depth's.
    pub(crate) tree_valid: Vec<bool>,
    /// Privatized partial rows for segmented (split) member groups: one
    /// scratch as long as the largest node's `segments × width`, reshaped
    /// to one row per segment of the node being computed and merged in
    /// ascending segment order within the same
    /// [`crate::dimtree::DimTree::compute_node_into_isa`] call.
    tree_partials: Matrix,
    /// Allocated length of the partial-rows scratch.
    tree_partials_len: usize,
    /// The ranks the tree buffers are currently shaped for; same-rank
    /// solves skip the reshaping entirely.
    tree_ranks: Vec<usize>,
}

impl HooiWorkspace {
    /// Creates an empty workspace for an order-`order` tensor; buffers are
    /// shaped on the first [`ensure`](Self::ensure).
    pub fn for_order(order: usize) -> Self {
        assert!(order > 0, "workspace needs at least one mode");
        HooiWorkspace {
            compact: Matrix::zeros(0, 0),
            compact_shapes: vec![(0, 0); order],
            trsvd: LanczosWorkspace::new(),
            core: DenseTensor::zeros(vec![0; order]),
            tree_values: Vec::new(),
            tree_owner: Vec::new(),
            tree_values_lens: Vec::new(),
            tree_valid: Vec::new(),
            tree_partials: Matrix::zeros(0, 0),
            tree_partials_len: 0,
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
    /// whose size changed since the previous solve (the one compact buffer
    /// when the widest mode's `Y` did).  The core buffer is zeroed so no
    /// state can leak between solves.
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
        let order = self.compact_shapes.len();
        assert_eq!(symbolic.order(), order);
        assert_eq!(ranks.len(), order);
        let shapes = (0..order)
            .map(|mode| compact_shape(symbolic, ranks, mode))
            .collect::<Result<Vec<_>, _>>()?;
        // `compact_shape` checked every product.
        let widest = (0..order)
            .max_by_key(|&m| shapes[m].0 * shapes[m].1)
            .expect("a workspace has at least one mode");
        if shapes[widest].0 * shapes[widest].1 != self.len() {
            // A failed allocation must not leave shapes the buffer cannot
            // hold.
            self.compact = Matrix::zeros(0, 0);
            self.compact_shapes.fill((0, 0));
            self.compact = try_matrix(shapes[widest], || compact_name(widest))?;
        }
        self.compact_shapes = shapes;
        if self.core.dims() == ranks {
            self.core.as_mut_slice().fill(0.0);
        } else {
            let data = try_filled(core_len(ranks)?, 0.0, || CORE.to_string())?;
            self.core = DenseTensor::from_vec(ranks.to_vec(), data);
        }
        Ok(())
    }

    /// Shapes the dimension-tree buffers for a solve at `ranks` (called in
    /// addition to [`ensure`](Self::ensure) when the
    /// [`DimensionTree`](crate::config::TtmcStrategy::DimensionTree)
    /// strategy runs): one value buffer per tree depth, as long as the
    /// largest internal node at that depth (leaves compute into the compact
    /// buffer), and one partial-rows scratch, as long as the largest node's.
    /// It marks every node stale so the first sweep rebuilds the tree
    /// against the fresh factors.  Same-shape solves reallocate nothing.
    ///
    /// # Panics
    /// Panics where [`ensure`](Self::ensure) does.
    pub fn ensure_tree(&mut self, tree: &DimTree, ranks: &[usize]) {
        if let Err(e) = self.try_ensure_tree(tree, ranks) {
            panic!("{e}");
        }
    }

    /// [`ensure_tree`](Self::ensure_tree) with the allocation failure as a
    /// value, naming the node that sized the buffer.
    pub(crate) fn try_ensure_tree(
        &mut self,
        tree: &DimTree,
        ranks: &[usize],
    ) -> Result<(), TuckerError> {
        let nodes = tree.num_nodes();
        if self.tree_valid.len() != nodes {
            let depths = (0..nodes).map(|id| tree.node_depth(id)).max().unwrap_or(0) + 1;
            self.tree_values = (0..depths).map(|_| Matrix::zeros(0, 0)).collect();
            self.tree_owner = vec![usize::MAX; depths];
            self.tree_values_lens = vec![0; depths];
            self.tree_valid = vec![false; nodes];
            self.tree_ranks.clear();
        }
        // Buffer lengths depend only on the tree and the ranks; a same-rank
        // solve reuses them untouched.
        if self.tree_ranks != ranks {
            // Half-reshaped buffers must not pass for shaped ones if an
            // allocation below fails.
            self.tree_ranks.clear();
            // The node and shape sizing each depth's buffer, then the
            // partial scratch.
            let mut values = vec![(0, (0, 0)); self.tree_values.len()];
            let mut partials = (0, (0, 0));
            let len = |(rows, cols): (usize, usize)| rows * cols;
            for id in 1..nodes {
                let (shape, partial) = node_shapes(tree, id, ranks)?;
                let level = &mut values[tree.node_depth(id)];
                if !tree.is_leaf(id) && len(shape) > len(level.1) {
                    *level = (id, shape);
                }
                if len(partial) > len(partials.1) {
                    partials = (id, partial);
                }
            }
            for (d, &(id, shape)) in values.iter().enumerate() {
                if self.tree_values_lens[d] != len(shape) {
                    self.tree_values[d] = try_matrix(shape, || node_name(id))?;
                    self.tree_values_lens[d] = len(shape);
                }
            }
            let (id, shape) = partials;
            if self.tree_partials_len != len(shape) {
                self.tree_partials =
                    try_matrix(shape, || format!("partial rows of {}", node_name(id)))?;
                self.tree_partials_len = len(shape);
            }
            self.tree_ranks = ranks.to_vec();
        }
        self.tree_owner.fill(usize::MAX);
        self.tree_valid.fill(false);
        self.tree_valid[0] = true; // the root is the tensor itself
        Ok(())
    }

    /// The buffers computing tree node `id` reads and writes: its parent's
    /// values, one depth up (`None` for a child of the root, whose parent
    /// is the tensor); its own value buffer — for a leaf the compact
    /// buffer, which the caller shaped as the leaf's mode's `Y`, else its
    /// depth's, reshaped to it; and the partial-rows scratch, reshaped to
    /// it.  Taking a depth's buffer makes `id` its owner and marks the node
    /// that held it stale.
    pub(crate) fn tree_node_buffers(
        &mut self,
        tree: &DimTree,
        id: usize,
    ) -> (Option<&Matrix>, &mut Matrix, &mut Matrix) {
        let depth = tree.node_depth(id);
        let width = tree.node_width(id, &self.tree_ranks);
        self.tree_partials
            .reshape_in_place(tree.node_segments(id), width);
        let (above, level) = self.tree_values.split_at_mut(depth);
        let out = if tree.is_leaf(id) {
            &mut self.compact
        } else {
            let evicted = std::mem::replace(&mut self.tree_owner[depth], id);
            if let Some(valid) = self.tree_valid.get_mut(evicted) {
                *valid = false;
            }
            level[0].reshape_in_place(tree.node_entries(id), width);
            &mut level[0]
        };
        let parent_values = (depth > 1).then(|| &above[depth - 1]);
        (parent_values, out, &mut self.tree_partials)
    }

    /// Total number of `f64` entries allocated for the dimension-tree value
    /// buffers, one per depth, whatever node each is shaped for (zero while
    /// the per-mode strategy runs).
    pub fn tree_len(&self) -> usize {
        self.tree_values_lens.iter().sum()
    }

    /// Reshapes the compact buffer to `mode`'s `Y` over the same
    /// allocation ([`Matrix::reshape_in_place`]), without reallocating or
    /// writing: the entries are whatever the buffer last held, so a caller
    /// must overwrite the whole shape before reading it — as every TTMc
    /// kernel does.
    pub(crate) fn shape_compact(&mut self, mode: usize) {
        let (rows, cols) = self.compact_shapes[mode];
        self.compact.reshape_in_place(rows, cols);
    }

    /// The compact TTMc buffer shaped as `mode`'s `Y`, for writing.  The
    /// workspace holds one buffer for every mode, so this reshapes it — no
    /// reallocation, no fill: its entries are stale until the caller
    /// overwrites them, which every TTMc kernel does in full.
    pub fn compact_mut(&mut self, mode: usize) -> &mut Matrix {
        self.shape_compact(mode);
        &mut self.compact
    }

    /// The compact TTMc buffer, for reading: the `Y` of the mode most
    /// recently written or shaped (after a solve, the last mode's, which the
    /// core was extracted from).  One buffer serves every mode, so `_mode`
    /// selects nothing; an earlier mode's `Y` is gone once a later mode's
    /// TTMc ran.
    pub fn compact(&self, _mode: usize) -> &Matrix {
        &self.compact
    }

    /// The compact TTMc result of `mode` together with the TRSVD scratch —
    /// what one factor update reads and mutates.  Valid right after `mode`'s
    /// TTMc wrote the buffer.
    pub fn trsvd_buffers(&mut self, mode: usize) -> (&Matrix, &mut LanczosWorkspace) {
        self.shape_compact(mode);
        (&self.compact, &mut self.trsvd)
    }

    /// The compact TTMc result of `mode` together with the core buffer —
    /// what the core extraction reads and writes.  Valid right after
    /// `mode`'s TTMc wrote the buffer.
    pub fn core_buffers(&mut self, mode: usize) -> (&Matrix, &mut DenseTensor) {
        self.shape_compact(mode);
        (&self.compact, &mut self.core)
    }

    /// The core tensor written by the most recent iteration.
    pub fn core(&self) -> &DenseTensor {
        &self.core
    }

    /// Number of `f64` entries the compact TTMc buffer holds: the widest
    /// mode's `|J_n|·Π_{t≠n} R_t`, whichever mode it is shaped for.
    pub fn len(&self) -> usize {
        (self.compact_shapes.iter())
            .map(|&(rows, cols)| rows * cols)
            .max()
            .unwrap_or(0)
    }

    /// Measured memory footprint of all scratch owned by this workspace, in
    /// bytes: the one compact TTMc buffer at its full length (the widest
    /// mode's `Y`, whichever mode it is shaped for), the dimension tree's
    /// per-depth value buffers and partial-rows scratch (each at its
    /// allocated length) with their ranks, owners and validity flags, the
    /// core buffer, and the pooled Lanczos basis and product vector (the
    /// TRSVD's per-call results and kernel partials are freed before it
    /// returns and are not held).  This is the workspace's share of a plan's
    /// cache footprint ([`crate::TuckerSession::memory_bytes`]); it grows on
    /// the first solve at each rank shape and is stable afterwards.
    pub fn memory_bytes(&self) -> usize {
        let floats = self.len()
            + self.tree_len()
            + self.tree_partials_len
            + self.core.as_slice().len()
            + self.trsvd.pooled_floats();
        let indices = self.tree_ranks.len() + self.tree_owner.len();
        floats * std::mem::size_of::<f64>()
            + indices * std::mem::size_of::<usize>()
            + self.tree_valid.len() * std::mem::size_of::<bool>()
    }

    /// Whether the compact TTMc buffer holds no data (every mode's `Y` is
    /// empty).
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

/// A zeroed matrix of a shape the `*_shape` helpers checked, allocated by
/// [`try_filled`].
fn try_matrix(
    (rows, cols): (usize, usize),
    buffer: impl FnOnce() -> String,
) -> Result<Matrix, TuckerError> {
    Ok(Matrix::from_vec(
        rows,
        cols,
        try_filled(rows * cols, 0.0, buffer)?,
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
        let mut ws = HooiWorkspace::new(&sym, &[2, 3, 4]);
        let widths = [12, 8, 6];
        // One allocation, as long as the widest mode's `Y`, serves every
        // mode: shaping a mode neither moves nor regrows it, and `compact`
        // reads back the mode shaped last.
        let widest = (0..3).map(|m| sym.mode(m).num_rows() * widths[m]).max();
        assert_eq!(Some(ws.len()), widest);
        let ptr = ws.compact_mut(0).as_slice().as_ptr();
        for mode in [0, 1, 2, 1, 0, 2] {
            let shape = (sym.mode(mode).num_rows(), widths[mode]);
            assert_eq!(ws.compact_mut(mode).shape(), shape, "mode {mode}");
            assert_eq!(ws.compact(mode).shape(), shape, "mode {mode}");
            assert_eq!(ws.compact(mode).as_slice().as_ptr(), ptr, "mode {mode}");
            assert_eq!(ws.len(), widest.unwrap());
        }
        assert_eq!(ws.trsvd_buffers(1).0.shape(), (sym.mode(1).num_rows(), 8));
        assert_eq!(ws.core_buffers(0).0.shape(), (sym.mode(0).num_rows(), 12));
        assert_eq!(ws.core().dims(), &[2, 3, 4]);
        assert!(!ws.is_empty());
    }

    #[test]
    fn reshaping_keeps_what_the_buffer_held() {
        // Shrinking and regrowing the shape writes nothing: the entries a
        // narrower mode did not cover come back as they were left.
        let t = sample();
        let sym = SymbolicTtmc::build(&t);
        let mut ws = HooiWorkspace::new(&sym, &[2, 3, 4]);
        let (wide, narrow) = (0, 2);
        let n = ws.compact_mut(wide).as_slice().len();
        for (k, x) in ws.compact_mut(wide).as_mut_slice().iter_mut().enumerate() {
            *x = k as f64;
        }
        assert!(ws.compact_mut(narrow).as_slice().len() < n);
        ws.compact_mut(narrow).as_mut_slice().fill(-1.0);
        let back = ws.compact_mut(wide).as_slice();
        let m = sym.mode(narrow).num_rows() * 6;
        assert!(back[..m].iter().all(|&x| x == -1.0));
        assert!((m..n).all(|k| back[k] == k as f64));
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
        // Order 4: the internal nodes at depth 1; the leaves at depth 2
        // compute into the compact buffer, and the root is the tensor, so
        // their depths' buffers stay empty.
        let lens: Vec<usize> = ws.tree_values.iter().map(|m| m.as_slice().len()).collect();
        assert_eq!(lens.len(), 3);
        assert!(lens[0] == 0 && lens[1] > 0 && lens[2] == 0, "{lens:?}");
        let len = ws.tree_len();
        assert_eq!(len, lens.iter().sum::<usize>());
        // A node computed into a buffer owns it and reshapes it; the
        // footprint still counts the allocated length.
        ws.tree_valid[1] = true;
        ws.tree_owner[1] = 1;
        ws.tree_values[1].reshape_in_place(1, 1);
        ws.tree_partials.reshape_in_place(0, 0);
        assert_eq!(ws.tree_len(), len, "allocated length, not the shape");
        let bytes = ws.memory_bytes();
        // Re-ensure at the same ranks: allocations stay, validity and
        // ownership reset.
        let ptrs = |ws: &HooiWorkspace| -> Vec<*const f64> {
            (ws.tree_values.iter().chain([&ws.tree_partials]))
                .map(|m| m.as_slice().as_ptr())
                .collect()
        };
        let before = ptrs(&ws);
        ws.ensure_tree(&tree, &[2, 2, 2, 2]);
        assert_eq!(ptrs(&ws), before);
        assert_eq!((ws.tree_len(), ws.memory_bytes()), (len, bytes));
        assert!(!ws.tree_valid[1], "validity must reset per solve");
        assert!(ws.tree_valid[0], "the root is always valid");
        assert!(ws.tree_owner.iter().all(|&o| o == usize::MAX));
        // Rank change reshapes.
        ws.ensure_tree(&tree, &[2, 3, 2, 2]);
        assert!(ws.tree_len() > len);
    }

    /// A depth's buffer that no allocator grants is the typed error naming
    /// the node that sized it: the larger of the two at depth 1.
    #[test]
    fn an_oversized_depth_buffer_names_its_largest_node() {
        let t = SparseTensor::from_entries(
            vec![2, 2, 2, 2],
            &[(vec![0, 0, 0, 0], 1.0), (vec![1, 1, 1, 1], 2.0)],
        );
        let tree = crate::dimtree::DimTree::build(&t);
        // Node 4 retains modes 2 and 3: two entries of width 2⁶², more
        // bytes than an allocation may span.  Node 1, [0, 2), is one wide.
        let huge = 1 << 31;
        let mut ws = HooiWorkspace::for_order(4);
        match ws.try_ensure_tree(&tree, &[huge, huge, 1, 1]) {
            Err(TuckerError::BufferTooLarge { buffer }) => {
                assert_eq!(buffer, "dimension-tree node 4")
            }
            other => panic!("expected BufferTooLarge, got {other:?}"),
        }
        assert!(ws.tree_ranks.is_empty(), "nothing passes for shaped");
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
        // At minimum the compact buffer and core are counted as f64s.
        assert!(ws.memory_bytes() >= (ws.len() + ws.core().as_slice().len()) * 8);
    }

    #[test]
    fn ensure_reshapes_on_rank_change() {
        let t = sample();
        let sym = SymbolicTtmc::build(&t);
        let mut ws = HooiWorkspace::new(&sym, &[2, 2, 2]);
        ws.ensure(&sym, &[3, 2, 2]);
        // Mode 0 keeps width 4 = 2·2, but modes 1 and 2 now see rank 3.
        assert_eq!(ws.compact_mut(0).ncols(), 4);
        assert_eq!(ws.compact_mut(1).ncols(), 6);
        assert_eq!(ws.compact_mut(2).ncols(), 6);
        let widest = (0..3).map(|m| sym.mode(m).num_rows() * [4, 6, 6][m]);
        assert_eq!(Some(ws.len()), widest.max());
        assert_eq!(ws.core().dims(), &[3, 2, 2]);
    }
}
