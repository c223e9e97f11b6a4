//! Flop-sharing dimension-tree TTMc.
//!
//! The baseline HOOI loop recomputes `N` independent per-mode TTMc's per
//! iteration; the Kronecker factors of different modes overlap almost
//! entirely, so most of that work is repeated.  A *dimension tree* (Kaya &
//! Uçar's follow-up line of work) shares it: a binary tree over the modes
//! where node `ν` with contiguous mode range `[lo, hi)` holds the tensor
//! contracted with the factors of every mode *outside* the range —
//!
//! `T_ν[j] = Σ_{x : proj_{[lo,hi)}(x) = j} x · ⊗_t U_t(i_t^x)` over `t ∉ [lo, hi)`
//!
//! — stored sparsely: one row per *distinct projection* of the nonzeros onto
//! `[lo, hi)`, each row a dense vector of length `Π_{t ∉ [lo,hi)} R_t`.  The
//! root is the tensor itself; each child contracts the sibling range's
//! factor rows into the parent's rows (a single Kronecker-accumulate per
//! parent entry), and the leaf of mode `n` *is* the compact mode-`n` TTMc
//! result.  Two flop-sharing effects compound: a child reuses the parent's
//! already-contracted value vector instead of rebuilding the full Kronecker
//! product, and parent entries that collide under projection are contracted
//! once instead of once per nonzero.
//!
//! Column ordering: a node's value columns are the Kronecker product of the
//! contracted modes in *contraction order* along the root path (each
//! contracted range ascending internally), because appending new factors on
//! the right is what lets a child reuse `parent_value ⊗ K` with one
//! bilinear accumulate.  Leaves whose contraction order happens to be
//! ascending (every leaf for order ≤ 3, the two rightmost leaves in
//! general) are *canonical* and served by a straight copy; the rest get a
//! precomputed column permutation.  Column permutations do not change left
//! singular vectors, so the TRSVD that consumes the result is unaffected
//! either way; serving canonical layouts keeps the core extraction and all
//! downstream consumers oblivious to the strategy.
//!
//! Factor-version semantics match the per-mode Gauss–Seidel sweep exactly:
//! a node is recomputed lazily when a factor *outside* its range has been
//! updated since it was last built, so every leaf sees new factors for
//! already-visited modes and old factors for the rest — the same values the
//! per-mode path would use, up to floating-point reassociation.
//!
//! Node kernel: each entry's row is computed by one call of a group kernel
//! over the entry's member group — [`simd::scaled_outer2_group`] computing
//! `Σ x·(u ⊗ v)`, or its arity-1 twin [`simd::axpy_group`] — for the three
//! node shapes order-3 and order-4 trees have: a child of the root
//! contracting one mode or two (`x` = the nonzero value, `u`, `v` = factor
//! rows), and a deeper node contracting one (`x = 1`, `u` = the parent's
//! row).  Its AVX2 tier holds a tile of the row in registers across a group
//! of two or more members, so the row goes through memory once per entry —
//! what [`DimTree::costs`] counts — not once per member; both tiers return
//! the per-member loop's bits.  The deeper multi-mode contractions of order ≥ 5
//! trees materialize their Kronecker factor per member instead.  Children of
//! the root keep no member ids: they hold their members' nonzero values,
//! gathered once at build time in member order, in place of the ids that
//! only that gather read (the same 8 bytes per member).
//!
//! Building the grouping: a child groups its parent's entries by their
//! projection onto the child's range with stable LSD counting passes, one
//! per projected mode, fastest mode first and slowest last; each key is an
//! index below `dims[t]`, so no pass compares anything.  Stability keeps
//! members ascending within a group, so the groups come out in the sorted
//! unique order a comparison sort of `(projected tuple, entry id)` gives.
//! Below the root, a node's entries are stored in ascending tuple order,
//! so its left child — whose key is a prefix of that tuple — is grouped
//! already and takes a single run scan.  The root stores no tuples of its
//! own: its children key straight off the tensor's indices.
//!
//! [`DimTree::costs`] / [`per_mode_costs`] count the floating-point
//! operations and memory words each strategy performs per iteration as
//! deterministic functions of the sparsity structure and the ranks, so the
//! flop reduction is assertable in tests rather than inferred from wall
//! time.

use crate::symbolic::{SymbolicMode, SymbolicTtmc};
use crate::workspace::HooiWorkspace;
use linalg::Matrix;
use rayon::prelude::*;
use sptensor::kron::kron_rows;
use sptensor::simd::{self, KernelIsa};
use sptensor::SparseTensor;
use std::ops::Range;

/// Sentinel for "no node" in parent/child links.
const NONE: usize = usize::MAX;

/// Minimum members per segment when a node entry's member group is split
/// for privatized accumulation; groups at or below this size are never
/// split (the merge would cost more than the imbalance it cures).
const MIN_SEGMENT_MEMBERS: usize = 32;

/// Soft cap on the number of segments a node's schedule produces: the
/// grain grows with the node's total member count so the whole schedule
/// stays around this many tasks.  Together with [`MIN_SEGMENT_MEMBERS`]
/// this makes the grain — and therefore every segment boundary — a pure
/// function of the sparsity structure, independent of the thread count,
/// which is what keeps tree TTMc results bit-identical across pool widths.
const TARGET_SEGMENTS: usize = 1024;

/// One node of the dimension tree.
#[derive(Debug, Clone)]
struct Node {
    /// Contiguous mode range `[lo, hi)` this node retains.
    lo: usize,
    hi: usize,
    /// Parent node id (`NONE` for the root).
    parent: usize,
    /// Child node ids (`NONE` for leaves).
    children: [usize; 2],
    /// Modes of the value columns in contraction order (slowest first).
    col_modes: Vec<usize>,
    /// Modes contracted when computing this node from its parent
    /// (`parent range \ [lo, hi)`, ascending).  Empty only for the root.
    d_modes: Vec<usize>,
    /// CSR offsets over the node's members: group `g` (this node's entry
    /// `g`) covers members `group_ptr[g]..group_ptr[g+1]`.
    group_ptr: Vec<usize>,
    /// Parent entry ids grouped by projection onto `[lo, hi)`; groups are
    /// sorted by projected tuple, members ascending within a group.  Empty
    /// for children of the root, which keep [`values`](Self::values)
    /// instead.
    members: Vec<usize>,
    /// Children of the root only: each member's nonzero value, gathered once
    /// at build time in member order — the member ids served nothing else,
    /// so the values take their place (same 8 bytes per member).
    values: Vec<f64>,
    /// For each member, the `d_modes` indices of that parent entry
    /// (`d_modes.len()` entries per member, streamed by the kernel).
    contract_idx: Vec<usize>,
    /// Number of stored entries (distinct projections).
    entries: usize,
    /// Segmentation grain of this node's member groups (see
    /// [`MIN_SEGMENT_MEMBERS`] / [`TARGET_SEGMENTS`]); groups larger than
    /// the grain are split into `ceil(size / grain)` segments accumulated
    /// into private partial rows and merged in ascending segment order.
    seg_grain: usize,
    /// CSR offsets over the node's split-entry segments: entry `g` owns
    /// partial rows `seg_ptr[g]..seg_ptr[g+1]` (equal bounds mean the
    /// entry is unsplit and accumulates directly into the output row).
    seg_ptr: Vec<usize>,
    /// Owning entry of each segment (`seg_entry[s] = g`), for the parallel
    /// sweep over partial rows.
    seg_entry: Vec<usize>,
    /// The projected index tuple of each entry (`hi - lo` entries per
    /// entry).  Children group on these during the build; once a node's
    /// children exist the runtime kernels never read it again, so
    /// [`DimTree::split`] drops it for the root and internal nodes (the
    /// root's copy alone is a full `nnz × order` duplicate of the COO
    /// indices).  Leaves keep theirs: it is their sorted row set.
    entry_idx: Vec<usize>,
}

impl Node {
    fn span(&self) -> usize {
        self.hi - self.lo
    }

    fn num_entries(&self) -> usize {
        self.entries
    }

    fn is_leaf(&self) -> bool {
        self.children[0] == NONE
    }

    /// Total number of split-entry segments (partial rows) of this node.
    fn num_segments(&self) -> usize {
        self.seg_ptr.last().copied().unwrap_or(0)
    }

    /// Total number of members (parent entries) over all groups.
    fn num_members(&self) -> usize {
        self.group_ptr.last().copied().unwrap_or(0)
    }

    /// Member size of entry `g`'s group.
    fn group_size(&self, g: usize) -> usize {
        self.group_ptr[g + 1] - self.group_ptr[g]
    }

    /// Absolute member range (into the node's members) of segment
    /// `s`, which must belong to entry `g`.
    fn segment_members(&self, g: usize, s: usize) -> (usize, usize) {
        let local = s - self.seg_ptr[g];
        let klo = self.group_ptr[g] + local * self.seg_grain;
        let khi = (klo + self.seg_grain).min(self.group_ptr[g + 1]);
        (klo, khi)
    }
}

/// Builds a node's segment schedule from its member grouping: the grain is
/// `max(MIN_SEGMENT_MEMBERS, total_members / TARGET_SEGMENTS)` (a pure
/// function of structure), and only groups strictly larger than the grain
/// are split.  Returns `(grain, seg_ptr, seg_entry)`.
fn segment_schedule(group_ptr: &[usize]) -> (usize, Vec<usize>, Vec<usize>) {
    if group_ptr.is_empty() {
        return (MIN_SEGMENT_MEMBERS, Vec::new(), Vec::new());
    }
    let entries = group_ptr.len() - 1;
    let total = *group_ptr.last().unwrap();
    let grain = total.div_ceil(TARGET_SEGMENTS).max(MIN_SEGMENT_MEMBERS);
    let mut seg_ptr = Vec::with_capacity(entries + 1);
    let mut seg_entry = Vec::new();
    seg_ptr.push(0usize);
    for g in 0..entries {
        let size = group_ptr[g + 1] - group_ptr[g];
        let segs = if size > grain {
            size.div_ceil(grain)
        } else {
            0
        };
        for _ in 0..segs {
            seg_entry.push(g);
        }
        seg_ptr.push(seg_ptr[g] + segs);
    }
    (grain, seg_ptr, seg_entry)
}

/// Orders the entries `0..n` by their projected tuples — `key(e, t)` for
/// `t` in `modes`, each below `dims[t]` — ties by entry id: one stable
/// counting pass per mode, the fastest mode first and the slowest last —
/// the order a comparison sort of `(tuple, e)` gives, without comparing.
fn group_order(
    n: usize,
    modes: Range<usize>,
    dims: &[usize],
    key: impl Fn(usize, usize) -> usize,
) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut next = vec![0usize; n];
    let mut keys = vec![0usize; n];
    let mut offsets = Vec::new();
    for t in modes.rev() {
        offsets.clear();
        offsets.resize(dims[t] + 1, 0usize);
        for (k, &e) in keys.iter_mut().zip(&order) {
            *k = key(e, t);
            offsets[*k + 1] += 1;
        }
        for b in 1..offsets.len() {
            offsets[b] += offsets[b - 1];
        }
        for (&k, &e) in keys.iter().zip(&order) {
            next[offsets[k]] = e;
            offsets[k] += 1;
        }
        std::mem::swap(&mut order, &mut next);
    }
    order
}

/// A binary dimension tree over the modes of one sparse tensor: structure
/// plus the per-node symbolic grouping, built once at plan time and reused
/// by every iteration of every solve.
#[derive(Debug, Clone)]
pub struct DimTree {
    order: usize,
    nnz: usize,
    /// Preorder storage: a parent always precedes its children.
    nodes: Vec<Node>,
    leaf_of_mode: Vec<usize>,
}

/// Deterministic per-iteration cost of a TTMc strategy: floating-point
/// operations and memory words moved (reads of nonzero data, factor rows
/// and partial values, plus result writes), as executed by the kernels in
/// this crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TtmcCosts {
    /// Floating-point operations per HOOI iteration (all modes).
    pub flops: u64,
    /// Words read and written per HOOI iteration (all modes).
    pub words: u64,
}

/// Flops [`kron_rows`] spends materializing the product of rows with the
/// given lengths: the running prefix is expanded once per factor.
fn kron_materialize_flops(lens: &[usize]) -> u64 {
    let mut total = 0u64;
    let mut filled = 1u64;
    for &l in lens {
        filled *= l as u64;
        total += filled;
    }
    total
}

/// Flops [`accumulate_scaled_kron`](sptensor::kron::accumulate_scaled_kron)
/// spends adding `alpha · (⊗ rows)` into an accumulator, per its per-arity
/// branches (the order-3 micro-kernel in [`crate::ttmc`] performs exactly
/// the two-factor count).  SIMD dispatch does not change the count: the
/// vector bodies perform the same multiplies and adds, just four lanes at a
/// time.
fn accumulate_flops(lens: &[usize]) -> u64 {
    let width: u64 = lens.iter().map(|&l| l as u64).product();
    match lens.len() {
        0 => 1,
        1 => 2 * width,
        2 => lens[0] as u64 + 2 * width,
        _ => kron_materialize_flops(lens) + 2 * width,
    }
}

/// Per-iteration cost of the baseline per-mode strategy: every mode visits
/// every nonzero once, accumulating one scaled Kronecker product, reading
/// its value, foreign indices and factor rows (an upper bound for the CSF
/// walk, which shares index and factor-row reads per fiber) and writing the
/// compact result once.
pub fn per_mode_costs(symbolic: &SymbolicTtmc, nnz: usize, ranks: &[usize]) -> TtmcCosts {
    let order = ranks.len();
    let mut costs = TtmcCosts::default();
    for mode in 0..order {
        let lens: Vec<usize> = ranks
            .iter()
            .enumerate()
            .filter(|&(t, _)| t != mode)
            .map(|(_, &r)| r)
            .collect();
        let width: u64 = lens.iter().map(|&l| l as u64).product();
        let row_words: u64 = lens.iter().map(|&l| l as u64).sum();
        costs.flops += nnz as u64 * accumulate_flops(&lens);
        // Reads: value + (order-1) coords + factor rows per nonzero; writes:
        // the compact result once.
        costs.words +=
            nnz as u64 * (order as u64 + row_words) + symbolic.mode(mode).num_rows() as u64 * width;
    }
    costs
}

impl DimTree {
    /// Builds the tree and its symbolic grouping for a tensor.
    ///
    /// # Panics
    /// Panics if the tensor has fewer than two modes (callers fall back to
    /// the per-mode strategy there) or no nonzeros.
    pub fn build(tensor: &SparseTensor) -> Self {
        let order = tensor.order();
        assert!(order >= 2, "a dimension tree needs at least two modes");
        assert!(tensor.nnz() > 0, "a dimension tree needs nonzeros");
        // Root: one entry per nonzero, nothing contracted.  Its children
        // read the index tuples straight from the tensor.
        let root = Node {
            lo: 0,
            hi: order,
            parent: NONE,
            children: [NONE, NONE],
            col_modes: Vec::new(),
            d_modes: Vec::new(),
            group_ptr: Vec::new(),
            members: Vec::new(),
            values: Vec::new(),
            contract_idx: Vec::new(),
            entries: tensor.nnz(),
            seg_grain: MIN_SEGMENT_MEMBERS,
            seg_ptr: Vec::new(),
            seg_entry: Vec::new(),
            entry_idx: Vec::new(),
        };
        let mut tree = DimTree {
            order,
            nnz: tensor.nnz(),
            nodes: vec![root],
            leaf_of_mode: vec![NONE; order],
        };
        tree.split(0, tensor);
        debug_assert!(tree.leaf_of_mode.iter().all(|&id| id != NONE));
        tree
    }

    /// Recursively splits `node_id` (preorder, so parents precede children).
    /// Subtrees are built one after the other: building the root's two
    /// children at once doubles the transient sort buffers, and the
    /// benchmark's peak RSS rose with it.
    fn split(&mut self, node_id: usize, tensor: &SparseTensor) {
        let (lo, hi) = (self.nodes[node_id].lo, self.nodes[node_id].hi);
        if hi - lo == 1 {
            self.leaf_of_mode[lo] = node_id;
            return;
        }
        let mid = lo + (hi - lo) / 2;
        let left = self.make_child(node_id, lo, mid, tensor);
        let left_id = self.nodes.len();
        self.nodes.push(left);
        self.nodes[node_id].children[0] = left_id;
        self.split(left_id, tensor);
        let right = self.make_child(node_id, mid, hi, tensor);
        let right_id = self.nodes.len();
        self.nodes.push(right);
        self.nodes[node_id].children[1] = right_id;
        self.split(right_id, tensor);
        // Both children are grouped; the projected tuples have served their
        // purpose (see the field docs) — free them.
        self.nodes[node_id].entry_idx = Vec::new();
    }

    /// Builds the symbolic grouping of a child `[lo, hi)` of `parent_id`:
    /// the parent's entries grouped by their projection onto `[lo, hi)`,
    /// groups in ascending tuple order, members ascending within a group.
    fn make_child(&self, parent_id: usize, lo: usize, hi: usize, tensor: &SparseTensor) -> Node {
        let parent = &self.nodes[parent_id];
        let span = hi - lo;
        let off = lo - parent.lo;
        let d_modes: Vec<usize> = (parent.lo..parent.hi)
            .filter(|t| !(lo..hi).contains(t))
            .collect();
        let d_len = d_modes.len();
        // Positions of the contracted modes within the parent tuple: the
        // range split is contiguous, so they are a prefix (right child) or a
        // suffix (left child) of the parent tuple.
        let d_off = if lo == parent.lo { span } else { 0 };
        let n_parent = parent.num_entries();
        // A parent entry's tuple over `[parent.lo, parent.hi)`: the nonzero's
        // full index at the root, the stored projection below it.
        let span_p = parent.span();
        let is_root = parent_id == 0;
        let tuple = |e: usize| -> &[usize] {
            if is_root {
                tensor.index(e)
            } else {
                &parent.entry_idx[e * span_p..(e + 1) * span_p]
            }
        };
        let key = |e: usize| &tuple(e)[off..off + span];

        // Below the root, parent entries are in ascending tuple order, so a
        // left child — whose key is a prefix of that tuple — is grouped already.
        let by_key: Vec<usize> = if is_root || off > 0 {
            group_order(n_parent, lo..hi, tensor.dims(), |e, t| {
                tuple(e)[t - parent.lo]
            })
        } else {
            (0..n_parent).collect()
        };

        let mut group_ptr = vec![0usize];
        let mut entry_idx = Vec::new();
        let mut contract_idx = Vec::with_capacity(n_parent * d_len);
        for (pos, &e) in by_key.iter().enumerate() {
            if pos == 0 || key(by_key[pos - 1]) != key(e) {
                if pos > 0 {
                    group_ptr.push(pos);
                }
                entry_idx.extend_from_slice(key(e));
            }
            contract_idx.extend_from_slice(&tuple(e)[d_off..d_off + d_len]);
        }
        group_ptr.push(n_parent);
        if n_parent == 0 {
            group_ptr = Vec::new();
        }

        // A child of the root reads its members' nonzero values and nothing
        // else of their ids: gather them once here, in place of the ids (an
        // in-place collect — `usize` and `f64` share a layout).
        let (members, values) = if is_root {
            (
                Vec::new(),
                by_key.into_iter().map(|e| tensor.value(e)).collect(),
            )
        } else {
            (by_key, Vec::new())
        };
        let mut col_modes = parent.col_modes.clone();
        col_modes.extend_from_slice(&d_modes);
        let entries = entry_idx.len() / span;
        let (seg_grain, seg_ptr, seg_entry) = segment_schedule(&group_ptr);
        Node {
            lo,
            hi,
            parent: parent_id,
            children: [NONE, NONE],
            col_modes,
            d_modes,
            group_ptr,
            members,
            values,
            contract_idx,
            entries,
            seg_grain,
            seg_ptr,
            seg_entry,
            entry_idx,
        }
    }

    /// Number of modes the tree spans.
    pub fn order(&self) -> usize {
        self.order
    }

    /// Number of nonzeros of the tensor the tree was built for.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Number of nodes (`2·order − 1`).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Id of the leaf node of `mode`.
    pub fn leaf_of_mode(&self, mode: usize) -> usize {
        self.leaf_of_mode[mode]
    }

    /// Parent id of a node (`usize::MAX` for the root).
    pub fn parent_of(&self, id: usize) -> usize {
        self.nodes[id].parent
    }

    /// Whether `id` is a leaf.
    pub fn is_leaf(&self, id: usize) -> bool {
        self.nodes[id].is_leaf()
    }

    /// The mode a leaf node serves.
    ///
    /// # Panics
    /// Panics if `id` is not a leaf.
    pub fn leaf_mode(&self, id: usize) -> usize {
        assert!(self.nodes[id].is_leaf(), "node {id} is not a leaf");
        self.nodes[id].lo
    }

    /// Whether `id` retains `mode` (nodes retaining an updated mode stay
    /// valid; all others go stale).
    pub fn node_contains_mode(&self, id: usize, mode: usize) -> bool {
        (self.nodes[id].lo..self.nodes[id].hi).contains(&mode)
    }

    /// Number of stored entries (distinct projections) of a node.
    pub fn node_entries(&self, id: usize) -> usize {
        self.nodes[id].num_entries()
    }

    /// Width of a node's value vectors at the given ranks
    /// (`Π_{t ∉ [lo,hi)} R_t`).
    ///
    /// # Panics
    /// Panics if the product overflows `usize` (solve validation rejects
    /// such ranks first with [`crate::TuckerError::BufferTooLarge`]).
    pub fn node_width(&self, id: usize, ranks: &[usize]) -> usize {
        self.checked_node_width(id, ranks)
            .expect("dimension-tree node width overflows usize")
    }

    /// [`Self::node_width`], or `None` when the product overflows `usize`.
    pub(crate) fn checked_node_width(&self, id: usize, ranks: &[usize]) -> Option<usize> {
        (self.nodes[id].col_modes.iter()).try_fold(1usize, |w, &t| w.checked_mul(ranks[t]))
    }

    /// Whether `mode`'s leaf already produces the canonical (ascending
    /// foreign-mode) column order.
    pub fn leaf_is_canonical(&self, mode: usize) -> bool {
        self.nodes[self.leaf_of_mode[mode]]
            .col_modes
            .windows(2)
            .all(|w| w[0] < w[1])
    }

    /// Column permutation mapping `mode`'s leaf layout to the canonical
    /// compact layout (`perm[tree_col] = canonical_col`), or `None` when the
    /// leaf is already canonical.
    pub fn leaf_permutation(&self, mode: usize, ranks: &[usize]) -> Option<Vec<usize>> {
        if self.leaf_is_canonical(mode) {
            return None;
        }
        let leaf = self.leaf_of_mode[mode];
        let col_modes = &self.nodes[leaf].col_modes;
        let width = self.node_width(leaf, ranks);
        // Canonical strides: ascending foreign modes, last fastest.
        let mut sorted = col_modes.clone();
        sorted.sort_unstable();
        let mut canon_stride = vec![0usize; self.order];
        let mut stride = 1;
        for &t in sorted.iter().rev() {
            canon_stride[t] = stride;
            stride *= ranks[t];
        }
        let mut perm = vec![0usize; width];
        for (c, slot) in perm.iter_mut().enumerate() {
            let mut rem = c;
            let mut canonical = 0usize;
            for &t in col_modes.iter().rev() {
                let digit = rem % ranks[t];
                rem /= ranks[t];
                canonical += digit * canon_stride[t];
            }
            *slot = canonical;
        }
        Some(perm)
    }

    /// Per-iteration cost of the tree strategy at the given ranks: every
    /// non-root node is rebuilt once per iteration (one Kronecker-accumulate
    /// per member, sharing the parent's partial value), plus the copy
    /// serving non-canonical leaves into canonical order.
    pub fn costs(&self, ranks: &[usize]) -> TtmcCosts {
        let mut costs = TtmcCosts::default();
        for (id, node) in self.nodes.iter().enumerate().skip(1) {
            let d_lens: Vec<usize> = node.d_modes.iter().map(|&t| ranks[t]).collect();
            let wd: u64 = d_lens.iter().map(|&l| l as u64).product();
            let width = self.node_width(id, ranks) as u64;
            let wp = width / wd.max(1);
            let members = node.num_members() as u64;
            let entries = node.num_entries() as u64;
            let parent_is_root = node.parent == 0;
            let per_member_flops = if parent_is_root {
                accumulate_flops(&d_lens)
            } else if d_lens.len() == 1 {
                accumulate_flops(&[wp as usize, d_lens[0]])
            } else {
                kron_materialize_flops(&d_lens) + accumulate_flops(&[wp as usize, wd as usize])
            };
            costs.flops += members * per_member_flops;
            // Reads per member: contracted indices + factor rows + the
            // parent value (the nonzero value itself at the root); writes:
            // this node's entries once.
            let d_row_words: u64 = d_lens.iter().map(|&l| l as u64).sum();
            let parent_words = if parent_is_root { 1 } else { wp };
            costs.words += members * (node.d_modes.len() as u64 + d_row_words + parent_words)
                + entries * width;
            // Privatized segments: each partial row is written once by its
            // segment and read plus added once by the owning entry's merge.
            let segments = node.num_segments() as u64;
            costs.flops += segments * width;
            costs.words += 2 * segments * width;
            if node.is_leaf() {
                let mode = node.lo;
                if !self.leaf_is_canonical(mode) {
                    // Permuting into the canonical compact buffer reads and
                    // writes every entry once more.
                    costs.words += 2 * entries * width;
                }
            }
        }
        costs
    }

    /// Measured memory footprint of the tree's symbolic grouping in bytes:
    /// every node's member lists (ids, or the root children's gathered
    /// values), contract-index arrays, CSR offsets, segment schedules and
    /// retained projection tuples.  The per-node *value* matrices live in
    /// the [`crate::HooiWorkspace`] and are counted there; together the two
    /// make up a dimension-tree plan's cache footprint
    /// ([`crate::TuckerSession::memory_bytes`]).
    pub fn memory_bytes(&self) -> usize {
        let words: usize = self
            .nodes
            .iter()
            .map(|n| {
                n.col_modes.len()
                    + n.d_modes.len()
                    + n.group_ptr.len()
                    + n.members.len()
                    + n.values.len()
                    + n.contract_idx.len()
                    + n.seg_ptr.len()
                    + n.seg_entry.len()
                    + n.entry_idx.len()
            })
            .sum::<usize>()
            + self.leaf_of_mode.len();
        words * std::mem::size_of::<usize>()
    }

    /// Number of privatized partial rows node `id`'s computation needs —
    /// the height of the `partials` buffer [`compute_node_into_isa`] takes
    /// (zero when no entry's member group exceeds the segmentation grain).
    ///
    /// [`compute_node_into_isa`]: Self::compute_node_into_isa
    pub fn node_segments(&self, id: usize) -> usize {
        self.nodes[id].num_segments()
    }

    /// Computes node `id`'s value matrix from its parent's, parallel over
    /// the node's entries, at the given kernel tier (the solver threads its
    /// plan-resolved [`KernelIsa`] through, see
    /// [`crate::TuckerSolver::kernel_isa`]).  `parent_values` must be `None`
    /// exactly when the parent is the root (the tensor itself, whose values
    /// the root's children gathered at build time); `out` must be
    /// `num_entries × node_width` and is overwritten; `partials` must be
    /// `node_segments × node_width` scratch (see [`Self::node_segments`]).
    ///
    /// Entries whose member group exceeds the segmentation grain are
    /// *privatized*: each segment of the group accumulates into its own
    /// partial row (so several workers can share one hot output row without
    /// locks or false sharing), and the owning entry then merges its
    /// partial rows in ascending segment order.  Both parallel sweeps cut
    /// their spans by symbolic member-count weights, and every
    /// segment/merge boundary is a pure function of the sparsity structure
    /// — never of the thread count — so results stay bit-identical across
    /// pool widths.
    ///
    /// # Panics
    /// Panics on shape mismatches.
    pub fn compute_node_into_isa(
        &self,
        id: usize,
        factors: &[Matrix],
        parent_values: Option<&Matrix>,
        out: &mut Matrix,
        partials: &mut Matrix,
        isa: KernelIsa,
    ) {
        let node = &self.nodes[id];
        assert_ne!(id, 0, "the root is the tensor itself and is never computed");
        let ranks: Vec<usize> = factors.iter().map(|u| u.ncols()).collect();
        let width = self.node_width(id, &ranks);
        assert_eq!(
            out.shape(),
            (node.num_entries(), width),
            "dimension-tree node buffer has the wrong shape"
        );
        assert_eq!(
            partials.shape(),
            (node.num_segments(), width),
            "dimension-tree partials buffer has the wrong shape"
        );
        assert_eq!(
            parent_values.is_none(),
            node.parent == 0,
            "parent values must be supplied exactly for non-root parents"
        );
        if let Some(pv) = parent_values {
            let parent = &self.nodes[node.parent];
            assert_eq!(
                pv.shape(),
                (parent.num_entries(), self.node_width(node.parent, &ranks)),
                "parent value buffer has the wrong shape"
            );
        }
        if width == 0 || node.num_entries() == 0 {
            return;
        }
        // The group kernels contract one mode, or two at the root; only the
        // wider contractions of order ≥ 5 trees need per-worker scratch.
        let d_len = node.d_modes.len();
        let wide = d_len > if parent_values.is_none() { 2 } else { 1 };
        let kron_len = if wide {
            node.d_modes.iter().map(|&t| ranks[t]).product()
        } else {
            0
        };
        let scratch = || (Vec::with_capacity(d_len), vec![0.0; kron_len]);
        // Sweep 1: split-entry segments into private partial rows, spans
        // weighted by segment member counts.
        if node.num_segments() > 0 {
            let seg_costs: Vec<u64> = (0..node.num_segments())
                .map(|s| {
                    let (klo, khi) = node.segment_members(node.seg_entry[s], s);
                    (khi - klo) as u64
                })
                .collect();
            partials
                .as_mut_slice()
                .par_chunks_mut(width)
                .enumerate()
                .for_each_init_weighted(&seg_costs, scratch, |scratch, (s, seg_out)| {
                    let g = node.seg_entry[s];
                    let (klo, khi) = node.segment_members(g, s);
                    self.accumulate_members(
                        node,
                        klo..khi,
                        factors,
                        parent_values,
                        seg_out,
                        scratch,
                        isa,
                    );
                });
        }
        // Sweep 2: unsplit entries accumulate directly; split entries merge
        // their partial rows in ascending segment order.  Weights: member
        // count for direct entries, segment count for merges (a merge adds
        // one row per segment — a fraction of a member accumulate).
        let entry_costs: Vec<u64> = (0..node.num_entries())
            .map(|g| {
                let segs = node.seg_ptr[g + 1] - node.seg_ptr[g];
                let cost = if segs > 0 {
                    segs as u64
                } else {
                    node.group_size(g) as u64
                };
                cost.max(1)
            })
            .collect();
        let partials = &*partials;
        out.as_mut_slice()
            .par_chunks_mut(width)
            .enumerate()
            .for_each_init_weighted(&entry_costs, scratch, |scratch, (g, row_out)| {
                let (s0, s1) = (node.seg_ptr[g], node.seg_ptr[g + 1]);
                if s1 > s0 {
                    row_out.iter_mut().for_each(|v| *v = 0.0);
                    for s in s0..s1 {
                        for (a, &p) in row_out.iter_mut().zip(partials.row(s).iter()) {
                            *a += p;
                        }
                    }
                } else {
                    let members = node.group_ptr[g]..node.group_ptr[g + 1];
                    self.accumulate_members(
                        node,
                        members,
                        factors,
                        parent_values,
                        row_out,
                        scratch,
                        isa,
                    );
                }
            });
    }

    /// Overwrites `row_out` with the contributions of `members` (absolute
    /// indices into the node's member groups) — a whole entry for unsplit
    /// groups, one segment for split ones.  `scratch` (contracted rows and
    /// their Kronecker product) is only touched by the wide fallback.
    #[allow(clippy::too_many_arguments)]
    fn accumulate_members<'a>(
        &self,
        node: &Node,
        members: Range<usize>,
        factors: &'a [Matrix],
        parent_values: Option<&Matrix>,
        row_out: &mut [f64],
        (rows, kron): &mut (Vec<&'a [f64]>, Vec<f64>),
        isa: KernelIsa,
    ) {
        let (d, idx) = (&node.d_modes[..], &node.contract_idx[..]);
        match (parent_values, d.len()) {
            // Child of the root contracting one mode: `row = Σ x·U_t(i)`.
            (None, 1) => {
                let u = &factors[d[0]];
                let member = |k: usize| (node.values[k], u.row(idx[k]));
                simd::axpy_group(isa, members, member, row_out);
            }
            // Child of the root contracting two: `row = Σ x·(U_s(i) ⊗ U_t(j))`.
            (None, 2) => {
                let (u, v) = (&factors[d[0]], &factors[d[1]]);
                let member = |k: usize| (node.values[k], u.row(idx[2 * k]), v.row(idx[2 * k + 1]));
                simd::scaled_outer2_group(isa, members, (u.ncols(), v.ncols()), member, row_out);
            }
            // Deeper node contracting one mode: `row = Σ parent_row ⊗ U_t(i)`,
            // reusing everything the parent already contracted.
            (Some(pv), 1) => {
                let v = &factors[d[0]];
                let member = |k: usize| (1.0, pv.row(node.members[k]), v.row(idx[k]));
                simd::scaled_outer2_group(isa, members, (pv.ncols(), v.ncols()), member, row_out);
            }
            // Wider contractions (order ≥ 5 trees): materialize the
            // contracted rows' Kronecker product per member.
            (pv, d_len) => {
                row_out.fill(0.0);
                for k in members {
                    let d_idx = &idx[k * d_len..(k + 1) * d_len];
                    rows.clear();
                    rows.extend(d.iter().zip(d_idx).map(|(&t, &i)| factors[t].row(i)));
                    kron_rows(rows, kron);
                    match pv {
                        None => simd::axpy(isa, node.values[k], kron, row_out),
                        Some(pv) => {
                            simd::scaled_outer2(isa, 1.0, pv.row(node.members[k]), kron, row_out)
                        }
                    }
                }
            }
        }
    }

    /// Computes the compact TTMc of every mode with one *fixed* set of
    /// factors (no in-sweep updates), returning canonical compact matrices
    /// aligned with the symbolic row sets — the standalone entry used by
    /// equality tests and the strategy bench.
    pub fn ttmc_all_modes(
        &self,
        tensor: &SparseTensor,
        symbolic: &SymbolicTtmc,
        factors: &[Matrix],
    ) -> Vec<Matrix> {
        debug_assert_eq!(
            tensor.nnz(),
            self.nnz,
            "the tree was built for another tensor"
        );
        let ranks: Vec<usize> = factors.iter().map(|u| u.ncols()).collect();
        let isa = KernelIsa::resolved_default();
        let mut values: Vec<Matrix> = self
            .nodes
            .iter()
            .enumerate()
            .map(|(id, n)| {
                if id == 0 {
                    Matrix::zeros(0, 0)
                } else {
                    Matrix::zeros(n.num_entries(), self.node_width(id, &ranks))
                }
            })
            .collect();
        for id in 1..self.nodes.len() {
            let (before, rest) = values.split_at_mut(id);
            let parent = self.nodes[id].parent;
            let pv = if parent == 0 {
                None
            } else {
                Some(&before[parent])
            };
            let mut partials = Matrix::zeros(self.node_segments(id), self.node_width(id, &ranks));
            self.compute_node_into_isa(id, factors, pv, &mut rest[0], &mut partials, isa);
        }
        (0..self.order)
            .map(|mode| {
                let leaf = &values[self.leaf_of_mode[mode]];
                debug_assert_eq!(leaf.nrows(), symbolic.mode(mode).num_rows());
                match self.leaf_permutation(mode, &ranks) {
                    None => leaf.clone(),
                    Some(perm) => {
                        let mut out = Matrix::zeros(leaf.nrows(), leaf.ncols());
                        permute_columns(leaf, &perm, &mut out);
                        out
                    }
                }
            })
            .collect()
    }
}

/// Scatters `src`'s columns into `dst` at the permuted positions
/// (`dst[r][perm[c]] = src[r][c]`).
pub(crate) fn permute_columns(src: &Matrix, perm: &[usize], dst: &mut Matrix) {
    assert_eq!(src.shape(), dst.shape());
    assert_eq!(src.ncols(), perm.len());
    for p in 0..src.nrows() {
        let src_row = src.row(p);
        let dst_row = dst.row_mut(p);
        for (c, &v) in src_row.iter().enumerate() {
            dst_row[perm[c]] = v;
        }
    }
}

/// Recomputes the stale ancestors of `mode`'s leaf and serves the leaf's
/// compact TTMc (canonical column order) into the workspace's compact buffer
/// for `mode` — the dimension-tree replacement for
/// [`crate::ttmc::ttmc_mode_into_isa`] inside the HOOI sweep.
///
/// Node validity lives in the workspace ([`HooiWorkspace::ensure_tree`]
/// resets it per solve); after each factor update the caller must call
/// [`factor_updated`] so nodes contracted with the stale factor are rebuilt
/// on their next use.  `tensor` is only checked against the tree: the
/// values come from the tree's children of the root, gathered when it was
/// built, so `tensor` must be the one the tree was built for.  `isa` is the
/// plan-resolved kernel tier (see [`crate::TuckerSolver::kernel_isa`]).
///
/// # Panics
/// Panics if `tensor`'s nonzero count differs from the tree's.
#[allow(clippy::too_many_arguments)]
pub fn serve_mode_into_isa(
    tree: &DimTree,
    tensor: &SparseTensor,
    sym: &SymbolicMode,
    factors: &[Matrix],
    mode: usize,
    workspace: &mut HooiWorkspace,
    isa: KernelIsa,
) {
    let leaf = tree.leaf_of_mode(mode);
    assert_eq!(
        tree.nnz(),
        tensor.nnz(),
        "the tree was built for another tensor"
    );
    debug_assert_eq!(tree.node_entries(leaf), sym.num_rows());
    // Stale chain from the leaf upward; ancestors above the first valid node
    // are valid too (staleness propagates downward: a factor outside an
    // ancestor's range is also outside every descendant's range).
    let mut chain = vec![leaf];
    let mut id = tree.parent_of(leaf);
    while id != 0 && !workspace.tree_valid[id] {
        chain.push(id);
        id = tree.parent_of(id);
    }
    for &id in chain.iter().rev() {
        let parent = tree.parent_of(id);
        let canonical = id == leaf && tree.leaf_is_canonical(mode);
        // Split disjoint workspace fields: the parent's value buffer is read
        // while the target (tree buffer or compact matrix) is written.
        let ws = &mut *workspace;
        if canonical {
            // The leaf's entries are the compact rows in the same (sorted)
            // order — compute straight into the compact buffer.
            let parent_values = if parent == 0 {
                None
            } else {
                Some(&ws.tree_values[parent])
            };
            tree.compute_node_into_isa(
                id,
                factors,
                parent_values,
                &mut ws.compact[mode],
                &mut ws.tree_partials[id],
                isa,
            );
        } else {
            let (before, rest) = ws.tree_values.split_at_mut(id);
            let parent_values = if parent == 0 {
                None
            } else {
                Some(&before[parent])
            };
            tree.compute_node_into_isa(
                id,
                factors,
                parent_values,
                &mut rest[0],
                &mut ws.tree_partials[id],
                isa,
            );
        }
        ws.tree_valid[id] = true;
    }
    if !tree.leaf_is_canonical(mode) {
        let ws = &mut *workspace;
        permute_columns(
            &ws.tree_values[leaf],
            &ws.leaf_perms[mode],
            &mut ws.compact[mode],
        );
    }
}

/// Marks every node *not* retaining `mode` stale after `mode`'s factor was
/// updated; retained nodes (and the root) stay valid.
pub fn factor_updated(tree: &DimTree, mode: usize, workspace: &mut HooiWorkspace) {
    for id in 1..tree.num_nodes() {
        if !tree.node_contains_mode(id, mode) {
            workspace.tree_valid[id] = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ttmc::ttmc_mode;
    use datagen::random_tensor;

    fn factors_for(tensor: &SparseTensor, ranks: &[usize], seed: u64) -> Vec<Matrix> {
        tensor
            .dims()
            .iter()
            .zip(ranks.iter())
            .enumerate()
            .map(|(m, (&d, &r))| Matrix::random(d, r, seed + m as u64))
            .collect()
    }

    #[test]
    fn tree_shape_and_leaves() {
        let t = random_tensor(&[6, 5, 4, 3], 50, 1);
        let tree = DimTree::build(&t);
        assert_eq!(tree.num_nodes(), 7);
        assert_eq!(tree.order(), 4);
        for mode in 0..4 {
            let leaf = tree.leaf_of_mode(mode);
            assert!(tree.is_leaf(leaf));
            assert!(tree.node_contains_mode(leaf, mode));
        }
        // The rightmost leaves contract ascending ranges and are canonical.
        assert!(tree.leaf_is_canonical(2));
        assert!(tree.leaf_is_canonical(3));
        assert!(!tree.leaf_is_canonical(0));
        assert!(!tree.leaf_is_canonical(1));
    }

    #[test]
    fn order3_tree_is_fully_canonical() {
        let t = random_tensor(&[8, 7, 6], 60, 2);
        let tree = DimTree::build(&t);
        assert_eq!(tree.num_nodes(), 5);
        for mode in 0..3 {
            assert!(tree.leaf_is_canonical(mode), "mode {mode}");
            assert!(tree.leaf_permutation(mode, &[2, 3, 4]).is_none());
        }
    }

    #[test]
    fn groups_partition_parent_entries() {
        let t = random_tensor(&[9, 8, 7, 6], 120, 3);
        let tree = DimTree::build(&t);
        for id in 1..tree.num_nodes() {
            let node = &tree.nodes[id];
            let parent_entries = tree.nodes[node.parent].num_entries();
            assert_eq!(node.num_members(), parent_entries);
            assert_eq!(node.group_ptr.len(), node.num_entries() + 1);
            if node.parent != 0 {
                let mut seen: Vec<usize> = node.members.clone();
                seen.sort_unstable();
                assert_eq!(seen, (0..parent_entries).collect::<Vec<_>>());
                assert!(node.values.is_empty());
                continue;
            }
            // Children of the root keep their members' values instead of
            // their ids: the nonzeros ordered by (projection onto the
            // child's range, id), which is group order.
            assert!(node.members.is_empty());
            let mut order: Vec<usize> = (0..t.nnz()).collect();
            order.sort_by_key(|&e| (t.index(e)[node.lo..node.hi].to_vec(), e));
            let expected: Vec<u64> = order.iter().map(|&e| t.value(e).to_bits()).collect();
            let got: Vec<u64> = node.values.iter().map(|v| v.to_bits()).collect();
            assert_eq!(
                got, expected,
                "node {id}: gathered values out of group order"
            );
            let d_len = node.d_modes.len();
            for (k, &e) in order.iter().enumerate() {
                let contracted: Vec<usize> =
                    node.d_modes.iter().map(|&t_| t.index(e)[t_]).collect();
                assert_eq!(
                    node.contract_idx[k * d_len..(k + 1) * d_len],
                    contracted[..]
                );
            }
        }
    }

    #[test]
    fn leaf_entries_match_symbolic_rows() {
        let t = random_tensor(&[10, 9, 8, 7], 150, 4);
        let tree = DimTree::build(&t);
        let sym = SymbolicTtmc::build(&t);
        for mode in 0..4 {
            let node = &tree.nodes[tree.leaf_of_mode(mode)];
            assert_eq!(node.entry_idx, sym.mode(mode).rows, "mode {mode}");
        }
    }

    #[test]
    fn tree_ttmc_matches_per_mode_order3() {
        let t = random_tensor(&[12, 10, 8], 300, 5);
        let ranks = [3, 4, 2];
        let factors = factors_for(&t, &ranks, 11);
        let sym = SymbolicTtmc::build(&t);
        let tree = DimTree::build(&t);
        let tree_results = tree.ttmc_all_modes(&t, &sym, &factors);
        for mode in 0..3 {
            let per_mode = ttmc_mode(&t, sym.mode(mode), &factors, mode);
            assert_eq!(per_mode.shape(), tree_results[mode].shape());
            let dist = per_mode.frobenius_distance(&tree_results[mode]);
            assert!(
                dist < 1e-12 * per_mode.frobenius_norm().max(1.0),
                "mode {mode}: distance {dist}"
            );
        }
    }

    #[test]
    fn tree_ttmc_matches_per_mode_orders_4_and_5() {
        for (dims, ranks, nnz, seed) in [
            (vec![7, 6, 5, 4], vec![2, 3, 2, 2], 200usize, 7u64),
            (vec![6, 5, 4, 3, 4], vec![2, 2, 3, 2, 2], 150, 9),
        ] {
            let t = random_tensor(&dims, nnz, seed);
            let factors = factors_for(&t, &ranks, seed + 100);
            let sym = SymbolicTtmc::build(&t);
            let tree = DimTree::build(&t);
            let tree_results = tree.ttmc_all_modes(&t, &sym, &factors);
            for mode in 0..dims.len() {
                let per_mode = ttmc_mode(&t, sym.mode(mode), &factors, mode);
                assert_eq!(per_mode.shape(), tree_results[mode].shape());
                let dist = per_mode.frobenius_distance(&tree_results[mode]);
                assert!(
                    dist < 1e-12 * per_mode.frobenius_norm().max(1.0),
                    "order {} mode {mode}: distance {dist}",
                    dims.len()
                );
            }
        }
    }

    #[test]
    fn permutation_is_a_bijection() {
        let t = random_tensor(&[5, 5, 5, 5], 80, 13);
        let tree = DimTree::build(&t);
        let ranks = [2, 3, 4, 2];
        let perm = tree
            .leaf_permutation(0, &ranks)
            .expect("leaf 0 is permuted");
        assert_eq!(perm.len(), 3 * 4 * 2);
        let mut seen = vec![false; perm.len()];
        for &p in &perm {
            assert!(!seen[p]);
            seen[p] = true;
        }
    }

    #[test]
    fn tree_flops_strictly_below_per_mode_for_order_4_plus() {
        for (dims, ranks, nnz, seed) in [
            (vec![10, 9, 8, 7], vec![5, 5, 5, 5], 400usize, 1u64),
            (vec![8, 7, 6, 5], vec![2, 2, 2, 2], 250, 2),
            (vec![7, 6, 5, 4, 3], vec![3, 3, 3, 3, 3], 300, 3),
        ] {
            let t = random_tensor(&dims, nnz, seed);
            let sym = SymbolicTtmc::build(&t);
            let tree = DimTree::build(&t);
            let tree_costs = tree.costs(&ranks);
            let baseline = per_mode_costs(&sym, t.nnz(), &ranks);
            assert!(
                tree_costs.flops < baseline.flops,
                "order {}: tree {} !< per-mode {}",
                dims.len(),
                tree_costs.flops,
                baseline.flops
            );
        }
    }

    #[test]
    fn cost_counters_are_deterministic_and_scale_with_rank() {
        let t = random_tensor(&[10, 10, 10, 10], 500, 21);
        let tree = DimTree::build(&t);
        assert_eq!(tree.costs(&[4, 4, 4, 4]), tree.costs(&[4, 4, 4, 4]));
        assert!(tree.costs(&[6, 6, 6, 6]).flops > tree.costs(&[2, 2, 2, 2]).flops);
        assert!(tree.costs(&[4, 4, 4, 4]).words > 0);
    }

    #[test]
    fn memory_bytes_counts_node_structures() {
        let small = DimTree::build(&random_tensor(&[10, 10, 10], 200, 3));
        let large = DimTree::build(&random_tensor(&[10, 10, 10], 800, 3));
        assert!(small.memory_bytes() > 0);
        assert!(
            large.memory_bytes() > small.memory_bytes(),
            "more nonzeros, bigger grouping: {} vs {}",
            large.memory_bytes(),
            small.memory_bytes()
        );
        // At minimum the root's retained projection tuples are counted.
        assert!(large.memory_bytes() >= large.nnz() * large.order() * 8);
    }

    #[test]
    fn order2_tree_works() {
        let t = random_tensor(&[9, 7], 30, 17);
        let ranks = [3, 2];
        let factors = factors_for(&t, &ranks, 3);
        let sym = SymbolicTtmc::build(&t);
        let tree = DimTree::build(&t);
        let results = tree.ttmc_all_modes(&t, &sym, &factors);
        for mode in 0..2 {
            let per_mode = ttmc_mode(&t, sym.mode(mode), &factors, mode);
            assert!(per_mode.frobenius_distance(&results[mode]) < 1e-12);
        }
    }

    #[test]
    #[should_panic]
    fn order1_tree_rejected() {
        let t = SparseTensor::from_entries(vec![4], &[(vec![1], 1.0)]);
        let _ = DimTree::build(&t);
    }

    #[test]
    fn segment_schedule_splits_only_oversized_groups() {
        // Groups of sizes 10, 100, 32, 33: grain is MIN_SEGMENT_MEMBERS (32)
        // at this scale, so only the 100- and 33-member groups split.
        let group_ptr = [0usize, 10, 110, 142, 175];
        let (grain, seg_ptr, seg_entry) = segment_schedule(&group_ptr);
        assert_eq!(grain, MIN_SEGMENT_MEMBERS);
        assert_eq!(seg_ptr, vec![0, 0, 4, 4, 6]);
        assert_eq!(seg_entry, vec![1, 1, 1, 1, 3, 3]);
        // Segment member ranges tile each split group exactly.
        let node = Node {
            lo: 0,
            hi: 1,
            parent: NONE,
            children: [NONE; 2],
            col_modes: Vec::new(),
            d_modes: Vec::new(),
            group_ptr: group_ptr.to_vec(),
            members: Vec::new(),
            values: Vec::new(),
            contract_idx: Vec::new(),
            entries: 4,
            seg_grain: grain,
            seg_ptr,
            seg_entry,
            entry_idx: Vec::new(),
        };
        for g in [1usize, 3] {
            let (s0, s1) = (node.seg_ptr[g], node.seg_ptr[g + 1]);
            let mut cursor = node.group_ptr[g];
            for s in s0..s1 {
                let (klo, khi) = node.segment_members(g, s);
                assert_eq!(klo, cursor);
                assert!(khi > klo);
                cursor = khi;
            }
            assert_eq!(cursor, node.group_ptr[g + 1]);
        }
    }

    #[test]
    fn segmented_tree_matches_per_mode_and_is_thread_invariant() {
        // Every nonzero shares mode-0 index 0, so the mode-0 leaf has a
        // single entry whose member group (~500) far exceeds the grain (32):
        // its accumulation really runs through the privatized-partial path.
        let entries: Vec<(Vec<usize>, f64)> = (0..500usize)
            .map(|k| {
                let j = (k * 7 + 3) % 40;
                let l = (k * 13 + 5) % 30;
                (vec![0, j, l], 0.25 + (k % 17) as f64 * 0.125)
            })
            .collect();
        let t = SparseTensor::from_entries(vec![2, 40, 30], &entries);
        let ranks = [2, 4, 3];
        let factors = factors_for(&t, &ranks, 29);
        let sym = SymbolicTtmc::build(&t);
        let tree = DimTree::build(&t);
        assert!(
            (1..tree.num_nodes()).any(|id| tree.node_segments(id) > 1),
            "profile must actually trigger segmentation"
        );
        let reference = tree.ttmc_all_modes(&t, &sym, &factors);
        for mode in 0..3 {
            let per_mode = ttmc_mode(&t, sym.mode(mode), &factors, mode);
            let dist = per_mode.frobenius_distance(&reference[mode]);
            assert!(
                dist < 1e-12 * per_mode.frobenius_norm().max(1.0),
                "mode {mode}: distance {dist}"
            );
        }
        // Segment boundaries are a pure function of structure, so the merge
        // order — and therefore every bit — is thread-count independent.
        for threads in [1usize, 2, 4] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let results = pool.install(|| tree.ttmc_all_modes(&t, &sym, &factors));
            for mode in 0..3 {
                assert_eq!(
                    reference[mode].as_slice(),
                    results[mode].as_slice(),
                    "mode {mode} differs at {threads} threads"
                );
            }
        }
    }

    /// The grouping as the tree built it before the counting sorts: the
    /// root's index tuples copied out, every child grouped by a comparison
    /// sort of `(projected tuple, entry id)`, subtrees built in sequence.
    /// The test-only reference [`DimTree::build`] must match field for field.
    fn reference_tree(tensor: &SparseTensor) -> DimTree {
        let order = tensor.order();
        let mut root_idx = Vec::with_capacity(tensor.nnz() * order);
        for t in 0..tensor.nnz() {
            root_idx.extend_from_slice(tensor.index(t));
        }
        let root = Node {
            lo: 0,
            hi: order,
            parent: NONE,
            children: [NONE, NONE],
            col_modes: Vec::new(),
            d_modes: Vec::new(),
            group_ptr: Vec::new(),
            members: Vec::new(),
            values: Vec::new(),
            contract_idx: Vec::new(),
            entries: tensor.nnz(),
            seg_grain: MIN_SEGMENT_MEMBERS,
            seg_ptr: Vec::new(),
            seg_entry: Vec::new(),
            entry_idx: root_idx,
        };
        let mut tree = DimTree {
            order,
            nnz: tensor.nnz(),
            nodes: vec![root],
            leaf_of_mode: vec![NONE; order],
        };
        reference_split(&mut tree, 0, tensor);
        tree.nodes[0].entry_idx = Vec::new();
        tree
    }

    fn reference_split(tree: &mut DimTree, node_id: usize, tensor: &SparseTensor) {
        let (lo, hi) = (tree.nodes[node_id].lo, tree.nodes[node_id].hi);
        if hi - lo == 1 {
            tree.leaf_of_mode[lo] = node_id;
            return;
        }
        let mid = lo + (hi - lo) / 2;
        for (a, b, side) in [(lo, mid, 0), (mid, hi, 1)] {
            let child = reference_child(&tree.nodes[node_id], node_id, a, b, tensor);
            let child_id = tree.nodes.len();
            tree.nodes.push(child);
            tree.nodes[node_id].children[side] = child_id;
            reference_split(tree, child_id, tensor);
        }
        if node_id != 0 {
            tree.nodes[node_id].entry_idx = Vec::new();
        }
    }

    fn reference_child(
        parent: &Node,
        parent_id: usize,
        lo: usize,
        hi: usize,
        tensor: &SparseTensor,
    ) -> Node {
        let (span_p, span, off) = (parent.span(), hi - lo, lo - parent.lo);
        let d_modes: Vec<usize> = (parent.lo..parent.hi)
            .filter(|t| !(lo..hi).contains(t))
            .collect();
        let d_len = d_modes.len();
        let d_off = if lo == parent.lo { span } else { 0 };
        let n_parent = parent.num_entries();
        let key = |e: usize| &parent.entry_idx[e * span_p + off..e * span_p + off + span];
        let mut by_key: Vec<usize> = (0..n_parent).collect();
        by_key.sort_unstable_by(|&a, &b| key(a).cmp(key(b)).then(a.cmp(&b)));
        let mut group_ptr = vec![0usize];
        let mut entry_idx = Vec::new();
        let mut contract_idx = Vec::new();
        for (pos, &e) in by_key.iter().enumerate() {
            if pos == 0 || key(by_key[pos - 1]) != key(e) {
                if pos > 0 {
                    group_ptr.push(pos);
                }
                entry_idx.extend_from_slice(key(e));
            }
            let d_src = e * span_p + d_off;
            contract_idx.extend_from_slice(&parent.entry_idx[d_src..d_src + d_len]);
        }
        group_ptr.push(n_parent);
        let (members, values) = if parent_id == 0 {
            (
                Vec::new(),
                by_key.iter().map(|&e| tensor.value(e)).collect(),
            )
        } else {
            (by_key, Vec::new())
        };
        let mut col_modes = parent.col_modes.clone();
        col_modes.extend_from_slice(&d_modes);
        let (seg_grain, seg_ptr, seg_entry) = segment_schedule(&group_ptr);
        Node {
            lo,
            hi,
            parent: parent_id,
            children: [NONE, NONE],
            col_modes,
            d_modes,
            group_ptr,
            members,
            values,
            contract_idx,
            entries: entry_idx.len() / span,
            seg_grain,
            seg_ptr,
            seg_entry,
            entry_idx,
        }
    }

    fn assert_same_tree(got: &DimTree, want: &DimTree, what: &str) {
        assert_eq!(got.nodes.len(), want.nodes.len(), "{what}");
        assert_eq!(got.leaf_of_mode, want.leaf_of_mode, "{what}");
        assert_eq!((got.order, got.nnz), (want.order, want.nnz), "{what}");
        for (id, (g, w)) in got.nodes.iter().zip(&want.nodes).enumerate() {
            let at = format!("{what}, node {id}");
            assert_eq!(
                (g.lo, g.hi, g.parent, g.children),
                (w.lo, w.hi, w.parent, w.children),
                "{at}"
            );
            assert_eq!(
                (&g.col_modes, &g.d_modes),
                (&w.col_modes, &w.d_modes),
                "{at}"
            );
            assert_eq!(g.group_ptr, w.group_ptr, "{at}: group_ptr");
            assert_eq!(g.members, w.members, "{at}: members");
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&g.values), bits(&w.values), "{at}: values");
            assert_eq!(g.contract_idx, w.contract_idx, "{at}: contract_idx");
            assert_eq!(g.entry_idx, w.entry_idx, "{at}: entry_idx");
            assert_eq!(g.entries, w.entries, "{at}: entries");
            assert_eq!(
                (g.seg_grain, &g.seg_ptr, &g.seg_entry),
                (w.seg_grain, &w.seg_ptr, &w.seg_entry),
                "{at}: segments"
            );
        }
        assert_eq!(got.memory_bytes(), want.memory_bytes(), "{what}");
    }

    #[test]
    fn counting_sort_grouping_matches_the_comparison_sort_reference() {
        let mut tensors = Vec::new();
        let shapes: [&[usize]; 9] = [
            &[9, 7],
            &[1, 5],
            &[4, 1, 6],
            &[3, 3, 3],
            &[40, 2, 30],
            &[6, 5, 1, 4],
            &[2, 2, 2, 2],
            &[5, 1, 4, 3, 2],
            &[3, 4, 2, 5, 3],
        ];
        for (k, dims) in shapes.iter().enumerate() {
            let capacity: usize = dims.iter().product();
            // Sparse, and nearly full: full projections collide heavily.
            for nnz in [capacity.div_ceil(5), capacity * 9 / 10] {
                tensors.push(random_tensor(dims, nnz.max(1), 100 + k as u64));
            }
        }
        // Repeated coordinates tie on every key: the entry ids decide.
        let repeats: Vec<(Vec<usize>, f64)> = (0..300usize)
            .map(|k| (vec![k % 3, (k * 7) % 2, (k * 5) % 4, k % 2], k as f64 + 0.5))
            .collect();
        tensors.push(SparseTensor::from_entries(vec![3, 2, 4, 2], &repeats));
        // A large tensor, so the pool's parallel paths take part.
        tensors.push(random_tensor(&[60, 50, 40, 30], 20_000, 7));

        let pools: Vec<rayon::ThreadPool> = (1..=3)
            .map(|w| {
                rayon::ThreadPoolBuilder::new()
                    .num_threads(w)
                    .build()
                    .unwrap()
            })
            .collect();
        for t in &tensors {
            let want = reference_tree(t);
            for pool in &pools {
                let got = pool.install(|| DimTree::build(t));
                let what = format!(
                    "dims {:?}, nnz {}, width {}",
                    t.dims(),
                    t.nnz(),
                    pool.current_num_threads()
                );
                assert_same_tree(&got, &want, &what);
            }
        }
    }

    #[test]
    fn kron_and_accumulate_flop_formulas() {
        assert_eq!(kron_materialize_flops(&[3]), 3);
        assert_eq!(kron_materialize_flops(&[2, 3]), 2 + 6);
        assert_eq!(kron_materialize_flops(&[2, 3, 4]), 2 + 6 + 24);
        assert_eq!(accumulate_flops(&[]), 1);
        assert_eq!(accumulate_flops(&[5]), 10);
        assert_eq!(accumulate_flops(&[2, 3]), 2 + 12);
        assert_eq!(accumulate_flops(&[2, 3, 4]), (2 + 6 + 24) + 48);
    }
}
