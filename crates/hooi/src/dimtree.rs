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
//! the root keep no member ids: they hold their members' nonzero values
//! in member order, in place of the ids that would only be used to look
//! the values up (the same 8 bytes per member).
//!
//! Building the grouping: a child groups its parent's entries by their
//! projection onto the child's range with stable LSD counting passes that
//! move whole records, not entry ids to be gathered through afterwards.
//! A record is an entry's key, its contracted indices, and its payload:
//! the nonzero's value for a child of the root, the parent entry id below
//! it.  Every child takes one of two rules.  When its key space (the
//! product of its retained modes' sizes) is one mode, or no larger than
//! the parent's entry count, one pass by the whole key streams the
//! parent's entries in storage order straight into the node's final
//! arrays, and the non-empty buckets are the groups.  Otherwise records of
//! 32-bit words, the key packed into one word (more only when it needs
//! more bits; the root's 64-bit value payload, the one field wider than
//! 32 bits, takes two), take one pass per retained mode, fastest first,
//! between two alternating record sets; one sweep then fills the final
//! arrays and cuts the groups where the packed key changes — one compare
//! per member.  A stable sort's output is unique, so the groups come out
//! in the sorted unique order a comparison sort of `(projected tuple,
//! entry id)` gives, members ascending within a group, and every node is
//! the same at any pool width — although from 65 536 records per chunk
//! (`PASS_GRAIN`) each pass splits its histogram and its scatter across
//! the pool.  The root stores no tuples of its own: its children key
//! straight off the tensor's indices.
//!
//! Index width: every index array of a node — group offsets, member ids,
//! contracted indices, segment schedules and projected tuples — holds
//! `u32`, half the bytes of `usize`, and the kernels widen each word as
//! they read it (the README breaks a tree plan's resident footprint down
//! into these arrays, the gathered values and the workspace's buffers).
//! The build checks that every value fits before it allocates anything: a
//! tensor with more than `u32::MAX` nonzeros, or a mode larger than
//! `u32::MAX`, is a [`TuckerError::BufferTooLarge`] (the nonzero bound is
//! the one `sptensor`'s CSF uses for its 32-bit ids).  No plannable tensor is lost: such a tensor already
//! needs per-index tables of 32 GiB or more, and
//! [`TtmcStrategy::Auto`](crate::TtmcStrategy::Auto) plans it per-mode,
//! as `PerMode` does, without trying the tree (the check reads only the
//! shape).  Only an explicit `DimensionTree` request gets the error.
//!
//! [`DimTree::costs`] / [`per_mode_costs`] count the floating-point
//! operations and memory words each strategy performs per iteration as
//! deterministic functions of the sparsity structure and the ranks, so the
//! flop reduction is assertable in tests rather than inferred from wall
//! time.

use crate::error::{try_filled, TuckerError};
use crate::symbolic::{SymbolicMode, SymbolicTtmc};
use crate::workspace::HooiWorkspace;
use linalg::Matrix;
use rayon::prelude::*;
use sptensor::kron::kron_rows;
use sptensor::simd::{self, KernelIsa};
use sptensor::SparseTensor;
use std::marker::PhantomData;
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
    /// `g`) covers members `group_ptr[g]..group_ptr[g+1]`.  Like every
    /// index array of a node, 32-bit (see the module docs).
    group_ptr: Vec<u32>,
    /// Parent entry ids grouped by projection onto `[lo, hi)`; groups are
    /// sorted by projected tuple, members ascending within a group.  Empty
    /// for children of the root, which keep [`values`](Self::values)
    /// instead.
    members: Vec<u32>,
    /// Children of the root only: each member's nonzero value, in member
    /// order — the member ids served nothing else, so the values take their
    /// place.
    values: Vec<f64>,
    /// For each member, the `d_modes` indices of that parent entry
    /// (`d_modes.len()` entries per member, streamed by the kernel).
    contract_idx: Vec<u32>,
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
    seg_ptr: Vec<u32>,
    /// Owning entry of each segment (`seg_entry[s] = g`), for the parallel
    /// sweep over partial rows.
    seg_entry: Vec<u32>,
    /// The projected index tuple of each entry (`hi - lo` entries per
    /// entry).  Children group on these during the build; once a node's
    /// children exist the runtime kernels never read it again, so
    /// [`DimTree::split`] drops it for the root and internal nodes (the
    /// root's copy alone is a full `nnz × order` duplicate of the COO
    /// indices).  Leaves keep theirs: it is their sorted row set.
    entry_idx: Vec<u32>,
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
        self.seg_ptr.last().map_or(0, |&s| s as usize)
    }

    /// Total number of members (parent entries) over all groups.
    fn num_members(&self) -> usize {
        self.group_ptr.last().map_or(0, |&m| m as usize)
    }

    /// Member range (into the node's members) of entry `g`'s group.
    fn group(&self, g: usize) -> Range<usize> {
        self.group_ptr[g] as usize..self.group_ptr[g + 1] as usize
    }

    /// Partial-row range of entry `g`'s segments (empty when unsplit).
    fn segments(&self, g: usize) -> Range<usize> {
        self.seg_ptr[g] as usize..self.seg_ptr[g + 1] as usize
    }

    /// Absolute member range (into the node's members) of segment
    /// `s`, which must belong to entry `g`.
    fn segment_members(&self, g: usize, s: usize) -> (usize, usize) {
        let local = s - self.seg_ptr[g] as usize;
        let group = self.group(g);
        let klo = group.start + local * self.seg_grain;
        let khi = (klo + self.seg_grain).min(group.end);
        (klo, khi)
    }
}

/// Builds a node's segment schedule from its member grouping: the grain is
/// `max(MIN_SEGMENT_MEMBERS, total_members / TARGET_SEGMENTS)` (a pure
/// function of structure), and only groups strictly larger than the grain
/// are split.  Returns `(grain, seg_ptr, seg_entry)`.
fn segment_schedule(group_ptr: &[u32]) -> (usize, Vec<u32>, Vec<u32>) {
    let Some(&total) = group_ptr.last() else {
        return (MIN_SEGMENT_MEMBERS, Vec::new(), Vec::new());
    };
    let grain = (total as usize)
        .div_ceil(TARGET_SEGMENTS)
        .max(MIN_SEGMENT_MEMBERS);
    let mut seg_ptr = Vec::with_capacity(group_ptr.len());
    let mut seg_entry = Vec::new();
    seg_ptr.push(0u32);
    for (g, w) in group_ptr.windows(2).enumerate() {
        let size = (w[1] - w[0]) as usize;
        // At most one segment per member, so the counts fit in 32 bits.
        let segs = if size > grain {
            size.div_ceil(grain) as u32
        } else {
            0
        };
        seg_entry.extend(std::iter::repeat_n(g as u32, segs as usize));
        seg_ptr.push(seg_ptr[g] + segs);
    }
    (grain, seg_ptr, seg_entry)
}

/// Records per chunk below which a counting pass runs on one thread.  A
/// constant, not a knob: chunking pays only once the scatter outweighs the
/// extra histograms and the fork, and passes chunked regardless of size
/// ran slower on 10k–40k-nonzero trees.
const PASS_GRAIN: usize = 1 << 16;

/// Disjoint mutable access to one output buffer from the chunks of a
/// counting pass, which hands every output position to exactly one input.
struct Scatter<'a, T> {
    ptr: *mut T,
    len: usize,
    _buf: PhantomData<&'a mut [T]>,
}

// SAFETY: `ptr` and `len` describe a buffer borrowed mutably for `'a`, so
// nothing else reaches it while the `Scatter` lives; threads reach it only
// through `slot`, whose contract keeps their writes disjoint, and `T: Send`
// lets them write its elements.
unsafe impl<T: Send> Sync for Scatter<'_, T> {}

impl<'a, T> Scatter<'a, T> {
    fn new(buf: &'a mut [T]) -> Self {
        Scatter {
            ptr: buf.as_mut_ptr(),
            len: buf.len(),
            _buf: PhantomData,
        }
    }

    /// The `width` elements of record `pos`.
    ///
    /// # Safety
    /// No two slots in use at once may be the same record: call it only
    /// with the position [`counting_pass`] handed to one input.
    #[allow(clippy::mut_from_ref)]
    unsafe fn slot(&self, pos: usize, width: usize) -> &mut [T] {
        assert!((pos + 1) * width <= self.len, "scatter slot out of bounds");
        // SAFETY: in bounds (checked above) and exclusive (the caller's
        // contract).
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(pos * width), width) }
    }
}

/// One stable counting pass over the inputs `0..n` by `digit(i) < buckets`:
/// hands every input its output position through `put(i, pos)`, inputs of
/// one bucket in input order, and returns where every bucket ends.
/// From [`PASS_GRAIN`] records per chunk (and no more buckets than
/// records, which bounds the per-chunk histograms) contiguous chunks of
/// inputs count and scatter in parallel; a chunk's cursor in each bucket
/// starts where the chunks before it end, so every position — and the
/// pass's output — is the same at any pool width.  `digit` must be a pure
/// function of the input: positions are handed out once each only if it
/// names the same bucket when counting and when scattering.  The digit is
/// an index of `mode`; histograms the allocator refuses are the
/// [`TuckerError::BufferTooLarge`] naming it.
fn counting_pass(
    n: usize,
    buckets: usize,
    mode: usize,
    digit: impl Fn(usize) -> usize + Sync,
    put: impl Fn(usize, usize) + Sync,
) -> Result<Vec<usize>, TuckerError> {
    let chunks = if buckets <= n {
        (n / PASS_GRAIN).clamp(1, rayon::current_num_threads())
    } else {
        1
    };
    let inputs = |c: usize| n * c / chunks..n * (c + 1) / chunks;
    // Allocated here, not in the chunks: worker threads would take them
    // from their own allocator arenas, which keep the pages afterwards.
    let mut cursors: Vec<Vec<usize>> = (0..chunks)
        .map(|_| {
            try_filled(buckets, 0, || {
                format!("counting-pass histogram of mode {mode}")
            })
        })
        .collect::<Result<_, _>>()?;
    cursors.par_iter_mut().enumerate().for_each(|(c, counts)| {
        for i in inputs(c) {
            counts[digit(i)] += 1;
        }
    });
    let mut at = 0;
    if let [counts] = &mut cursors[..] {
        // One chunk (the common case): a plain exclusive scan.
        for count in counts.iter_mut() {
            (*count, at) = (at, at + *count);
        }
    } else {
        for b in 0..buckets {
            for chunk in cursors.iter_mut() {
                (chunk[b], at) = (at, at + chunk[b]);
            }
        }
    }
    cursors.par_iter_mut().enumerate().for_each(|(c, cursor)| {
        for i in inputs(c) {
            let b = digit(i);
            put(i, cursor[b]);
            cursor[b] += 1;
        }
    });
    // The last chunk's cursors have run to the end of every bucket.
    Ok(cursors
        .pop()
        .expect("a counting pass has at least one chunk"))
}

/// Bits an index below `dim` needs.
fn index_bits(dim: usize) -> u32 {
    usize::BITS - dim.saturating_sub(1).leading_zeros()
}

/// Where one field lives in a packed record of 32-bit words: its first
/// word, shift and mask.  A field wider than 32 bits starts a word and
/// takes two: that is the root's 64-bit value payload, since every index
/// fits 32 bits ([`DimTree::try_build`] checks it).
#[derive(Debug, Clone, Copy)]
struct Field {
    word: usize,
    shift: u32,
    mask: u64,
}

impl Field {
    fn is_wide(&self) -> bool {
        self.mask > u64::from(u32::MAX)
    }

    fn read(&self, record: &[u32]) -> u64 {
        let mut x = u64::from(record[self.word]);
        if self.is_wide() {
            x |= u64::from(record[self.word + 1]) << 32;
        }
        (x >> self.shift) & self.mask
    }

    /// ORs `value` in: the record must be zero there.
    fn write(&self, record: &mut [u32], value: u64) {
        let x = value << self.shift;
        record[self.word] |= x as u32;
        if self.is_wide() {
            record[self.word + 1] |= (x >> 32) as u32;
        }
    }
}

/// Packs fields of the given bit widths (at most 64) into 32-bit words
/// from word `first` on, in order: a field that does not fit in the rest
/// of the current word starts the next one, and one wider than 32 bits
/// takes two whole words.  Returns the fields and the first word after
/// them.
fn pack_fields(bits: &[u32], first: usize) -> (Vec<Field>, usize) {
    let (mut word, mut used) = (first, 0);
    let fields = bits
        .iter()
        .map(|&b| {
            if b == 0 {
                // Always zero: any word reads back as zero through an
                // empty mask.
                return Field {
                    word: 0,
                    shift: 0,
                    mask: 0,
                };
            }
            if used > 0 && used + b > 32 {
                (word, used) = (word + 1, 0);
            }
            let field = Field {
                word,
                shift: used,
                mask: u64::MAX >> (64 - b),
            };
            if b > 32 {
                word += 2;
            } else {
                used += b;
            }
            field
        })
        .collect();
    (fields, if used > 0 { word + 1 } else { word })
}

/// A child's member grouping as [`DimTree::make_child`] assembles it: CSR
/// offsets, the distinct projected tuples in order, every member's
/// contracted indices, and every member's payload — its nonzero value's
/// bits for a child of the root, its parent entry id below it.
struct Grouping {
    group_ptr: Vec<u32>,
    entry_idx: Vec<u32>,
    contract_idx: Vec<u32>,
    payload: Vec<u64>,
}

/// Where a child's grouping reads its parent's entries: a parent entry's
/// index tuple over the parent's range (the nonzero's full index at the
/// root, the stored 32-bit projection below it) and its payload.
struct Source<'a> {
    tensor: &'a SparseTensor,
    /// The parent's projection tuples, `span` per entry; `None` at the root.
    parent_idx: Option<&'a [u32]>,
    span: usize,
    entries: usize,
}

impl Source<'_> {
    /// Index `k` of entry `e`'s tuple.
    fn index(&self, e: usize, k: usize) -> usize {
        match self.parent_idx {
            None => self.tensor.coords(e)[k] as usize,
            Some(idx) => idx[e * self.span + k] as usize,
        }
    }

    fn payload(&self, e: usize) -> u64 {
        match self.parent_idx {
            None => self.tensor.value(e).to_bits(),
            Some(_) => e as u64,
        }
    }

    fn payload_bits(&self) -> u32 {
        match self.parent_idx {
            None => 64,
            Some(_) => index_bits(self.entries),
        }
    }
}

/// The positions, within a parent tuple, of a child's key (`span` indices
/// from `off`) and of its contracted indices (`d_len` from `d_off`).
#[derive(Debug, Clone, Copy)]
struct ChildShape {
    off: usize,
    span: usize,
    d_off: usize,
    d_len: usize,
}

/// A child whose key space — the product of its retained modes' sizes —
/// is one mode, or no larger than the parent's entry count: one counting
/// pass by the whole key (mixed radix, last mode fastest) streams the
/// parent's entries in storage order straight into the node's final
/// arrays, and the non-empty buckets are the groups.  `mode` is the key's
/// first mode.
fn single_pass_grouping(
    src: &Source,
    shape: ChildShape,
    key_dims: &[usize],
    mode: usize,
) -> Result<Grouping, TuckerError> {
    let ChildShape {
        off,
        span,
        d_off,
        d_len,
    } = shape;
    let n = src.entries;
    let buckets = key_dims.iter().product();
    let digit = |e: usize| {
        (off..off + span)
            .zip(key_dims)
            .fold(0, |b, (k, &d)| b * d + src.index(e, k))
    };
    let mut contract_idx = vec![0u32; n * d_len];
    let mut payload = vec![0u64; n];
    let ends = {
        let (contract, out) = (Scatter::new(&mut contract_idx), Scatter::new(&mut payload));
        counting_pass(n, buckets, mode, digit, |e, pos| {
            // SAFETY: `counting_pass` hands each position to one input.
            let (c, p) = unsafe { (contract.slot(pos, d_len), out.slot(pos, 1)) };
            for (c, k) in c.iter_mut().zip(d_off..) {
                *c = src.index(e, k) as u32;
            }
            p[0] = src.payload(e);
        })?
    };
    let mut group_ptr = vec![0u32];
    let mut entry_idx = Vec::new();
    for (b, &end) in ends.iter().enumerate() {
        if end > *group_ptr.last().expect("group_ptr starts at 0") as usize {
            group_ptr.push(end as u32);
            let at = entry_idx.len();
            entry_idx.resize(at + span, 0);
            let mut rest = b;
            for (slot, &d) in entry_idx[at..].iter_mut().zip(key_dims).rev() {
                *slot = (rest % d) as u32;
                rest /= d;
            }
        }
    }
    Ok(Grouping {
        group_ptr,
        entry_idx,
        contract_idx,
        payload,
    })
}

/// A child whose key space is larger than its parent's entry count: whole
/// records — the packed key, the contracted indices and the payload, in
/// 32-bit words — move through one stable counting pass per key mode,
/// fastest mode first.  The first pass streams the parent's entries in
/// storage order, each later pass the previous pass's records; one
/// sequential sweep over the sorted records then fills the node's final
/// arrays and cuts the groups where the packed key changes, one compare per
/// member while the key fits a word.  `dims` are the parent tuple's mode
/// sizes, the first of them mode `first_mode`'s.
fn multi_pass_grouping(
    src: &Source,
    shape: ChildShape,
    dims: &[usize],
    first_mode: usize,
) -> Result<Grouping, TuckerError> {
    let ChildShape {
        off,
        span,
        d_off,
        d_len,
    } = shape;
    let n = src.entries;
    // Record layout: key words, contracted-index words, payload words.
    let bits =
        |range: Range<usize>| -> Vec<u32> { dims[range].iter().map(|&d| index_bits(d)).collect() };
    let (key, key_words) = pack_fields(&bits(off..off + span), 0);
    // At least one key word, so every field (a zero-width one reads word
    // 0) lies inside the key the groups are cut by.
    let key_words = key_words.max(1);
    let (contract, at) = pack_fields(&bits(d_off..d_off + d_len), key_words);
    let (payload_field, width) = pack_fields(&[src.payload_bits()], at);
    let payload_field = payload_field[0];
    let record = |i: usize| i * width..(i + 1) * width;

    // The first pass: the parent's entries, by the fastest key mode.
    let mut records = vec![0u32; n * width];
    {
        let out = Scatter::new(&mut records);
        let fastest = off + span - 1;
        counting_pass(
            n,
            dims[fastest],
            first_mode + fastest,
            |e| src.index(e, fastest),
            |e, pos| {
                // SAFETY: `counting_pass` hands each position to one input.
                let r = unsafe { out.slot(pos, width) };
                r.fill(0);
                for (f, k) in key.iter().zip(off..) {
                    f.write(r, src.index(e, k) as u64);
                }
                for (f, k) in contract.iter().zip(d_off..) {
                    f.write(r, src.index(e, k) as u64);
                }
                payload_field.write(r, src.payload(e));
            },
        )?;
    }
    // The other passes, slower modes last: records to records.
    let mut sorted = vec![0u32; n * width];
    for k in (0..span - 1).rev() {
        {
            let out = Scatter::new(&mut sorted);
            let rs = &records;
            counting_pass(
                n,
                dims[off + k],
                first_mode + off + k,
                |i| key[k].read(&rs[record(i)]) as usize,
                // SAFETY: `counting_pass` hands each position to one input.
                |i, pos| unsafe { out.slot(pos, width) }.copy_from_slice(&rs[record(i)]),
            )?;
        }
        std::mem::swap(&mut records, &mut sorted);
    }
    drop(sorted);
    // One sweep in sorted order: final arrays, groups where the key changes.
    let mut group_ptr = vec![0u32];
    let mut entry_idx = Vec::new();
    let mut contract_idx = Vec::with_capacity(n * d_len);
    let mut payload = Vec::with_capacity(n);
    for (pos, r) in records.chunks_exact(width).enumerate() {
        if pos == 0 || records[record(pos - 1)][..key_words] != r[..key_words] {
            if pos > 0 {
                group_ptr.push(pos as u32);
            }
            entry_idx.extend(key.iter().map(|f| f.read(r) as u32));
        }
        contract_idx.extend(contract.iter().map(|f| f.read(r) as u32));
        payload.push(payload_field.read(r));
    }
    group_ptr.push(n as u32);
    Ok(Grouping {
        group_ptr,
        entry_idx,
        contract_idx,
        payload,
    })
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
    /// the per-mode strategy there) or no nonzeros, and with the
    /// [`TuckerError::BufferTooLarge`] message when an index does not fit
    /// the tree's 32-bit arrays or a per-index table is larger than the
    /// allocator grants.
    pub fn build(tensor: &SparseTensor) -> Self {
        Self::try_build(tensor).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Self::build`], returning a [`TuckerError::BufferTooLarge`] instead
    /// of aborting: for a tensor whose indices do not fit the nodes' 32-bit
    /// arrays (more than `u32::MAX` nonzeros, or a mode larger than
    /// `u32::MAX`, named), checked before anything is allocated; and for a
    /// counting-pass histogram — one word per index of a mode — that the
    /// allocator refuses, naming the mode.
    pub(crate) fn try_build(tensor: &SparseTensor) -> Result<Self, TuckerError> {
        let order = tensor.order();
        assert!(order >= 2, "a dimension tree needs at least two modes");
        assert!(tensor.nnz() > 0, "a dimension tree needs nonzeros");
        Self::check_index_width(tensor.dims(), tensor.nnz())?;
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
        tree.split(0, tensor)?;
        debug_assert!(tree.leaf_of_mode.iter().all(|&id| id != NONE));
        Ok(tree)
    }

    /// Whether every index a tree over a tensor of mode sizes `dims` with
    /// `nnz` nonzeros stores fits its 32-bit arrays: at most `u32::MAX`
    /// nonzeros and no mode larger than `u32::MAX`, else the
    /// [`TuckerError::BufferTooLarge`] naming the nonzero count or the mode.
    pub(crate) fn check_index_width(dims: &[usize], nnz: usize) -> Result<(), TuckerError> {
        let max = u32::MAX as usize;
        if nnz > max {
            return Err(TuckerError::BufferTooLarge {
                buffer: format!("dimension-tree ids of {nnz} nonzeros"),
            });
        }
        if let Some(mode) = dims.iter().position(|&d| d > max) {
            return Err(TuckerError::BufferTooLarge {
                buffer: format!("32-bit dimension-tree index of mode {mode}"),
            });
        }
        Ok(())
    }

    /// Recursively splits `node_id` (preorder, so parents precede children).
    /// Subtrees are built one after the other: building the root's two
    /// children at once doubles the transient sort buffers, and the
    /// benchmark's peak RSS rose with it.
    fn split(&mut self, node_id: usize, tensor: &SparseTensor) -> Result<(), TuckerError> {
        let (lo, hi) = (self.nodes[node_id].lo, self.nodes[node_id].hi);
        if hi - lo == 1 {
            self.leaf_of_mode[lo] = node_id;
            return Ok(());
        }
        let mid = lo + (hi - lo) / 2;
        let left = self.make_child(node_id, lo, mid, tensor)?;
        let left_id = self.nodes.len();
        self.nodes.push(left);
        self.nodes[node_id].children[0] = left_id;
        self.split(left_id, tensor)?;
        let right = self.make_child(node_id, mid, hi, tensor)?;
        let right_id = self.nodes.len();
        self.nodes.push(right);
        self.nodes[node_id].children[1] = right_id;
        self.split(right_id, tensor)?;
        // Both children are grouped; the projected tuples have served their
        // purpose (see the field docs) — free them.
        self.nodes[node_id].entry_idx = Vec::new();
        Ok(())
    }

    /// Builds the symbolic grouping of a child `[lo, hi)` of `parent_id`:
    /// the parent's entries grouped by their projection onto `[lo, hi)`,
    /// groups in ascending tuple order, members ascending within a group.
    fn make_child(
        &self,
        parent_id: usize,
        lo: usize,
        hi: usize,
        tensor: &SparseTensor,
    ) -> Result<Node, TuckerError> {
        let parent = &self.nodes[parent_id];
        let span = hi - lo;
        let off = lo - parent.lo;
        let d_modes: Vec<usize> = (parent.lo..parent.hi)
            .filter(|t| !(lo..hi).contains(t))
            .collect();
        // Positions of the contracted modes within the parent tuple: the
        // range split is contiguous, so they are a prefix (right child) or a
        // suffix (left child) of the parent tuple.
        let shape = ChildShape {
            off,
            span,
            d_off: if lo == parent.lo { span } else { 0 },
            d_len: d_modes.len(),
        };
        let is_root = parent_id == 0;
        let src = Source {
            tensor,
            parent_idx: (!is_root).then_some(&parent.entry_idx[..]),
            span: parent.span(),
            entries: parent.num_entries(),
        };
        let dims = &tensor.dims()[parent.lo..parent.hi];
        let key_space = (dims[off..off + span].iter()).try_fold(1usize, |b, &d| b.checked_mul(d));
        let Grouping {
            group_ptr,
            entry_idx,
            contract_idx,
            payload,
        } = if span == 1 || key_space.is_some_and(|b| b <= src.entries) {
            single_pass_grouping(&src, shape, &dims[off..off + span], lo)?
        } else {
            multi_pass_grouping(&src, shape, dims, parent.lo)?
        };
        // A child of the root reads its members' nonzero values and nothing
        // else of their ids, so the passes carried the values in place of
        // the ids (an in-place collect: the two share a layout); below it
        // the payloads are entry ids, narrowed to 32 bits.
        let (members, values) = if is_root {
            (
                Vec::new(),
                payload.into_iter().map(f64::from_bits).collect(),
            )
        } else {
            (payload.into_iter().map(|e| e as u32).collect(), Vec::new())
        };
        let mut col_modes = parent.col_modes.clone();
        col_modes.extend_from_slice(&d_modes);
        let entries = entry_idx.len() / span;
        let (seg_grain, seg_ptr, seg_entry) = segment_schedule(&group_ptr);
        Ok(Node {
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
        })
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
    pub(crate) fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The rows of `mode`'s leaf: the sorted set `J_n` of mode indices with
    /// at least one nonzero, one per leaf entry — a leaf's projected tuples
    /// are single indices, grouped in ascending order, and it is never
    /// split, so it keeps them.
    pub(crate) fn leaf_rows(&self, mode: usize) -> &[u32] {
        &self.nodes[self.leaf_of_mode[mode]].entry_idx
    }

    /// Parent id of a node (`usize::MAX` for the root).
    pub(crate) fn parent_of(&self, id: usize) -> usize {
        self.nodes[id].parent
    }

    /// Depth of a node: 0 for the root, one more than its parent's.
    pub(crate) fn node_depth(&self, mut id: usize) -> usize {
        let mut depth = 0;
        while id != 0 {
            id = self.nodes[id].parent;
            depth += 1;
        }
        depth
    }

    /// Whether `id` is a leaf.
    pub(crate) fn is_leaf(&self, id: usize) -> bool {
        self.nodes[id].is_leaf()
    }

    /// The mode a leaf node serves.
    ///
    /// # Panics
    /// Panics if `id` is not a leaf.
    pub(crate) fn leaf_mode(&self, id: usize) -> usize {
        assert!(self.nodes[id].is_leaf(), "node {id} is not a leaf");
        self.nodes[id].lo
    }

    /// Whether `id` retains `mode` (nodes retaining an updated mode stay
    /// valid; all others go stale).
    pub(crate) fn node_contains_mode(&self, id: usize, mode: usize) -> bool {
        (self.nodes[id].lo..self.nodes[id].hi).contains(&mode)
    }

    /// Number of stored entries (distinct projections) of a node.
    pub(crate) fn node_entries(&self, id: usize) -> usize {
        self.nodes[id].num_entries()
    }

    /// Width of a node's value vectors at the given ranks
    /// (`Π_{t ∉ [lo,hi)} R_t`).
    ///
    /// # Panics
    /// Panics if the product overflows `usize` (solve validation rejects
    /// such ranks first with [`crate::TuckerError::BufferTooLarge`]).
    pub(crate) fn node_width(&self, id: usize, ranks: &[usize]) -> usize {
        self.checked_node_width(id, ranks)
            .expect("dimension-tree node width overflows usize")
    }

    /// [`Self::node_width`], or `None` when the product overflows `usize`.
    pub(crate) fn checked_node_width(&self, id: usize, ranks: &[usize]) -> Option<usize> {
        (self.nodes[id].col_modes.iter()).try_fold(1usize, |w, &t| w.checked_mul(ranks[t]))
    }

    /// Whether `mode`'s leaf already produces the canonical (ascending
    /// foreign-mode) column order.
    pub(crate) fn leaf_is_canonical(&self, mode: usize) -> bool {
        self.nodes[self.leaf_of_mode[mode]]
            .col_modes
            .windows(2)
            .all(|w| w[0] < w[1])
    }

    /// Column permutation mapping `mode`'s leaf layout to the canonical
    /// compact layout (`perm[tree_col] = canonical_col`), or `None` when the
    /// leaf is already canonical.
    pub(crate) fn leaf_permutation(&self, mode: usize, ranks: &[usize]) -> Option<Vec<usize>> {
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
    /// every node's member lists (ids, or the root children's values),
    /// contract-index arrays, CSR offsets, segment schedules and retained
    /// projection tuples — 4 bytes per stored index, 8 per value — plus
    /// the 8-byte mode lists.  The node *values* live in the
    /// [`crate::HooiWorkspace`]'s per-depth buffers and are counted there; together the two
    /// make up a dimension-tree plan's cache footprint
    /// ([`crate::TuckerSession::memory_bytes`]).
    pub fn memory_bytes(&self) -> usize {
        let indices: usize = (self.nodes.iter())
            .map(|n| {
                n.group_ptr.len()
                    + n.members.len()
                    + n.contract_idx.len()
                    + n.seg_ptr.len()
                    + n.seg_entry.len()
                    + n.entry_idx.len()
            })
            .sum();
        let values: usize = self.nodes.iter().map(|n| n.values.len()).sum();
        let modes: usize = (self.nodes.iter())
            .map(|n| n.col_modes.len() + n.d_modes.len())
            .sum::<usize>()
            + self.leaf_of_mode.len();
        indices * std::mem::size_of::<u32>()
            + values * std::mem::size_of::<f64>()
            + modes * std::mem::size_of::<usize>()
    }

    /// Number of privatized partial rows node `id`'s computation needs —
    /// the height of the `partials` buffer the node kernel takes (zero when
    /// no entry's member group exceeds the segmentation grain).
    pub(crate) fn node_segments(&self, id: usize) -> usize {
        self.nodes[id].num_segments()
    }

    /// Computes node `id`'s value matrix from its parent's, parallel over
    /// the node's entries, at the given kernel tier (the solver threads the
    /// process tier through, see
    /// [`crate::TuckerSolver::kernel_isa`]).  `parent_values` must be `None`
    /// exactly when the parent is the root (the tensor itself, whose values
    /// the root's children copied at build time); `out` must be
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
    pub(crate) fn compute_node_into_isa(
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
                    let (klo, khi) = node.segment_members(node.seg_entry[s] as usize, s);
                    (khi - klo) as u64
                })
                .collect();
            partials
                .as_mut_slice()
                .par_chunks_mut(width)
                .enumerate()
                .for_each_init_weighted(&seg_costs, scratch, |scratch, (s, seg_out)| {
                    let g = node.seg_entry[s] as usize;
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
                let segs = node.segments(g).len();
                let cost = if segs > 0 {
                    segs as u64
                } else {
                    node.group(g).len() as u64
                };
                cost.max(1)
            })
            .collect();
        let partials = &*partials;
        out.as_mut_slice()
            .par_chunks_mut(width)
            .enumerate()
            .for_each_init_weighted(&entry_costs, scratch, |scratch, (g, row_out)| {
                let segments = node.segments(g);
                if !segments.is_empty() {
                    row_out.iter_mut().for_each(|v| *v = 0.0);
                    for s in segments {
                        for (a, &p) in row_out.iter_mut().zip(partials.row(s).iter()) {
                            *a += p;
                        }
                    }
                } else {
                    self.accumulate_members(
                        node,
                        node.group(g),
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
                let member = |k: usize| (node.values[k], u.row(idx[k] as usize));
                simd::axpy_group(isa, members, member, row_out);
            }
            // Child of the root contracting two: `row = Σ x·(U_s(i) ⊗ U_t(j))`.
            (None, 2) => {
                let (u, v) = (&factors[d[0]], &factors[d[1]]);
                let member = |k: usize| {
                    let (i, j) = (idx[2 * k] as usize, idx[2 * k + 1] as usize);
                    (node.values[k], u.row(i), v.row(j))
                };
                simd::scaled_outer2_group(isa, members, (u.ncols(), v.ncols()), member, row_out);
            }
            // Deeper node contracting one mode: `row = Σ parent_row ⊗ U_t(i)`,
            // reusing everything the parent already contracted.
            (Some(pv), 1) => {
                let v = &factors[d[0]];
                let member = |k: usize| {
                    let (e, i) = (node.members[k] as usize, idx[k] as usize);
                    (1.0, pv.row(e), v.row(i))
                };
                simd::scaled_outer2_group(isa, members, (pv.ncols(), v.ncols()), member, row_out);
            }
            // Wider contractions (order ≥ 5 trees): materialize the
            // contracted rows' Kronecker product per member.
            (pv, d_len) => {
                row_out.fill(0.0);
                for k in members {
                    let d_idx = &idx[k * d_len..(k + 1) * d_len];
                    rows.clear();
                    rows.extend((d.iter().zip(d_idx)).map(|(&t, &i)| factors[t].row(i as usize)));
                    kron_rows(rows, kron);
                    match pv {
                        None => simd::axpy(isa, node.values[k], kron, row_out),
                        Some(pv) => {
                            let e = node.members[k] as usize;
                            simd::scaled_outer2(isa, 1.0, pv.row(e), kron, row_out)
                        }
                    }
                }
            }
        }
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
/// compact TTMc (canonical column order) into the workspace's compact
/// buffer, shaped as `mode`'s `Y` — the dimension-tree replacement for
/// [`crate::ttmc::ttmc_mode_into_isa`] inside the HOOI sweep.
///
/// Node validity lives in the workspace ([`HooiWorkspace::ensure_tree`]
/// resets it per solve); after each factor update the caller must call
/// [`factor_updated`] so nodes contracted with the stale factor are rebuilt
/// on their next use.  The workspace holds one value buffer per tree depth,
/// so computing a node also marks the node that last held its depth's
/// buffer stale; in a sweep that calls [`factor_updated`] after every mode
/// that node was stale already, so no node is computed more often.
/// `tensor` is only checked against the tree: the values come from the
/// tree's children of the root, copied when it was built, so `tensor` must
/// be the one the tree was built for.  `isa` is the
/// kernel tier (the solver's is [`crate::TuckerSolver::kernel_isa`]).
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
    let leaf = tree.leaf_of_mode[mode];
    assert_eq!(
        tree.nnz(),
        tensor.nnz(),
        "the tree was built for another tensor"
    );
    debug_assert_eq!(tree.node_entries(leaf), sym.num_rows());
    // The one compact buffer becomes this mode's `Y`; the leaf's kernel or
    // its permutation overwrites all of it below.
    workspace.shape_compact(mode);
    // Stale chain from the leaf upward, up to the first valid node, whose
    // values are still in its depth's buffer: nothing above it is read.
    let mut chain = vec![leaf];
    let mut id = tree.parent_of(leaf);
    while id != 0 && !workspace.tree_valid[id] {
        chain.push(id);
        id = tree.parent_of(id);
    }
    for &id in chain.iter().rev() {
        // A canonical leaf's entries are the compact rows in the same
        // (sorted) order — it computes straight into the compact buffer.
        let canonical = id == leaf && tree.leaf_is_canonical(mode);
        let (parent_values, out, partials) = workspace.tree_node_buffers(tree, id, canonical);
        tree.compute_node_into_isa(id, factors, parent_values, out, partials, isa);
        workspace.tree_valid[id] = true;
    }
    if !tree.leaf_is_canonical(mode) {
        let ws = &mut *workspace;
        let leaf_values = &ws.tree_values[tree.node_depth(leaf)];
        permute_columns(leaf_values, &ws.leaf_perms[mode], &mut ws.compact);
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

    /// Every mode's compact TTMc with one fixed set of factors: each mode
    /// served through the tree with no factor update in between.
    fn tree_ttmc(
        tree: &DimTree,
        t: &SparseTensor,
        sym: &SymbolicTtmc,
        factors: &[Matrix],
    ) -> Vec<Matrix> {
        let ranks: Vec<usize> = factors.iter().map(|u| u.ncols()).collect();
        let mut ws = HooiWorkspace::new(sym, &ranks);
        ws.ensure_tree(tree, &ranks);
        let isa = KernelIsa::resolved_default();
        (0..t.order())
            .map(|mode| {
                serve_mode_into_isa(tree, t, sym.mode(mode), factors, mode, &mut ws, isa);
                ws.compact(mode).clone()
            })
            .collect()
    }

    /// A node's 32-bit index array, widened for comparison with `usize`
    /// indices.
    fn wide(v: &[u32]) -> Vec<usize> {
        v.iter().map(|&i| i as usize).collect()
    }

    /// `usize` indices narrowed to a node's 32-bit array; panics on any
    /// that does not fit.
    fn narrow(v: impl IntoIterator<Item = usize>) -> Vec<u32> {
        v.into_iter().map(|i| u32::try_from(i).unwrap()).collect()
    }

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
            let leaf = tree.leaf_of_mode[mode];
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
                let mut seen = wide(&node.members);
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
            order.sort_by_key(|&e| (t.coords(e)[node.lo..node.hi].to_vec(), e));
            let expected: Vec<u64> = order.iter().map(|&e| t.value(e).to_bits()).collect();
            let got: Vec<u64> = node.values.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, expected, "node {id}: values out of group order");
            let d_len = node.d_modes.len();
            for (k, &e) in order.iter().enumerate() {
                let contracted: Vec<usize> = node
                    .d_modes
                    .iter()
                    .map(|&t_| t.coords(e)[t_] as usize)
                    .collect();
                assert_eq!(
                    wide(&node.contract_idx[k * d_len..(k + 1) * d_len]),
                    contracted
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
            let node = &tree.nodes[tree.leaf_of_mode[mode]];
            assert_eq!(wide(&node.entry_idx), sym.mode(mode).rows, "mode {mode}");
        }
    }

    #[test]
    fn tree_ttmc_matches_per_mode_order3() {
        let t = random_tensor(&[12, 10, 8], 300, 5);
        let ranks = [3, 4, 2];
        let factors = factors_for(&t, &ranks, 11);
        let sym = SymbolicTtmc::build(&t);
        let tree = DimTree::build(&t);
        let tree_results = tree_ttmc(&tree, &t, &sym, &factors);
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

    /// Order-4 and order-5 inputs: dims, ranks, nonzeros and seed.
    fn orders_4_and_5() -> [(Vec<usize>, Vec<usize>, usize, u64); 2] {
        [
            (vec![7, 6, 5, 4], vec![2, 3, 2, 2], 200, 7),
            (vec![6, 5, 4, 3, 4], vec![2, 2, 3, 2, 2], 150, 9),
        ]
    }

    #[test]
    fn tree_ttmc_matches_per_mode_orders_4_and_5() {
        for (dims, ranks, nnz, seed) in orders_4_and_5() {
            let t = random_tensor(&dims, nnz, seed);
            let factors = factors_for(&t, &ranks, seed + 100);
            let sym = SymbolicTtmc::build(&t);
            let tree = DimTree::build(&t);
            let tree_results = tree_ttmc(&tree, &t, &sym, &factors);
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

    /// Nodes share one value buffer per depth, so serving a mode can evict
    /// a node another mode reads.  Serves in a scrambled order with repeats
    /// — with fixed factors and no [`factor_updated`], and with a new
    /// factor and [`factor_updated`] after every serve — each return the
    /// bits a fresh workspace serves with the same factors.
    #[test]
    fn evicted_nodes_are_never_served_stale() {
        let isa = KernelIsa::resolved_default();
        for (dims, ranks, nnz, seed) in orders_4_and_5() {
            let t = random_tensor(&dims, nnz, seed);
            let sym = SymbolicTtmc::build(&t);
            let tree = DimTree::build(&t);
            let fresh = |factors: &[Matrix], mode: usize| {
                let mut ws = HooiWorkspace::new(&sym, &ranks);
                ws.ensure_tree(&tree, &ranks);
                serve_mode_into_isa(&tree, &t, sym.mode(mode), factors, mode, &mut ws, isa);
                ws.compact(mode).clone()
            };
            for update in [false, true] {
                let mut factors = factors_for(&t, &ranks, seed + 100);
                let mut ws = HooiWorkspace::new(&sym, &ranks);
                ws.ensure_tree(&tree, &ranks);
                let serves = [3, 0, 2, 0, 1, 4, 3, 2, 4, 1];
                for (step, &mode) in serves.iter().filter(|&&m| m < dims.len()).enumerate() {
                    serve_mode_into_isa(&tree, &t, sym.mode(mode), &factors, mode, &mut ws, isa);
                    let at = format!("order {}, update {update}, step {step}", dims.len());
                    let want = fresh(&factors, mode);
                    assert_eq!(ws.compact(mode).shape(), want.shape(), "{at}");
                    let bits = |m: &Matrix| -> Vec<u64> {
                        m.as_slice().iter().map(|x| x.to_bits()).collect()
                    };
                    assert_eq!(bits(ws.compact(mode)), bits(&want), "{at}");
                    if update {
                        factors[mode] = Matrix::random(dims[mode], ranks[mode], seed + step as u64);
                        factor_updated(&tree, mode, &mut ws);
                    }
                }
            }
        }
    }

    /// Sharing the depth buffers recomputes nothing: a natural sweep with a
    /// factor update after every mode computes each non-root node once per
    /// iteration, as one buffer per node did.  A serve computes the leaf
    /// and its stale ancestors up to the first valid one.
    #[test]
    fn a_sweep_computes_each_node_once_per_iteration() {
        let isa = KernelIsa::resolved_default();
        let order3 = (vec![12, 10, 8], vec![3, 4, 2], 300, 5);
        for (dims, ranks, nnz, seed) in [order3].into_iter().chain(orders_4_and_5()) {
            let t = random_tensor(&dims, nnz, seed);
            let sym = SymbolicTtmc::build(&t);
            let tree = DimTree::build(&t);
            let mut factors = factors_for(&t, &ranks, seed + 100);
            let mut ws = HooiWorkspace::new(&sym, &ranks);
            ws.ensure_tree(&tree, &ranks);
            let iterations = 3;
            let mut computed = 0;
            for it in 0..iterations {
                for mode in 0..dims.len() {
                    let mut id = tree.leaf_of_mode[mode];
                    while id != 0 && !ws.tree_valid[id] {
                        computed += 1;
                        id = tree.parent_of(id);
                    }
                    serve_mode_into_isa(&tree, &t, sym.mode(mode), &factors, mode, &mut ws, isa);
                    factors[mode] = Matrix::random(dims[mode], ranks[mode], seed + it);
                    factor_updated(&tree, mode, &mut ws);
                }
            }
            assert_eq!(
                computed,
                iterations as usize * (tree.num_nodes() - 1),
                "order {}",
                dims.len()
            );
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
        // Nonzeros (0,0,0), (0,1,1), (1,1,0).  Preorder nodes: the root,
        // leaf [0,1), internal [1,3), leaves [1,2) and [2,3).
        let t = SparseTensor::from_entries(
            vec![2, 2, 2],
            &[
                (vec![0, 0, 0], 1.0),
                (vec![0, 1, 1], 2.0),
                (vec![1, 1, 0], 3.0),
            ],
        );
        let tree = DimTree::build(&t);
        let entries: Vec<usize> = (0..5).map(|id| tree.node_entries(id)).collect();
        assert_eq!(entries, [3, 2, 3, 2, 2]);
        // Stored indices of the non-root nodes: group_ptr, members,
        // contract_idx, seg_ptr, seg_entry and entry_idx.  The root stores
        // none; [1,3) drops its projections once its children are built;
        // children of the root keep values in place of member ids.
        let indices = [
            [3, 0, 3 * 2, 3, 0, 2], // [0,1): 3 members contracting modes 1, 2
            [4, 0, 3, 4, 0, 0],     // [1,3): 3 members contracting mode 0
            [3, 3, 3, 3, 0, 2],     // [1,2): 3 members contracting mode 2
            [3, 3, 3, 3, 0, 2],     // [2,3): 3 members contracting mode 1
        ];
        let stored: Vec<[usize; 6]> = (tree.nodes[1..].iter())
            .map(|n| {
                [
                    n.group_ptr.len(),
                    n.members.len(),
                    n.contract_idx.len(),
                    n.seg_ptr.len(),
                    n.seg_entry.len(),
                    n.entry_idx.len(),
                ]
            })
            .collect();
        assert_eq!(stored, indices);
        let indices: usize = indices.iter().flatten().sum();
        // Root-child values; col_modes + d_modes per node, and leaf_of_mode.
        let values = 3 + 3;
        let mode_words = (2 + 2) + (1 + 1) + (2 + 1) + (2 + 1) + 3;
        let expected = 4 * indices + 8 * values + 8 * mode_words;
        assert_eq!(expected, 380);
        assert_eq!(tree.memory_bytes(), expected);

        let small = DimTree::build(&random_tensor(&[10, 10, 10], 200, 3));
        let large = DimTree::build(&random_tensor(&[10, 10, 10], 800, 3));
        assert!(
            large.memory_bytes() > small.memory_bytes(),
            "more nonzeros, bigger grouping: {} vs {}",
            large.memory_bytes(),
            small.memory_bytes()
        );
    }

    /// The check `Auto` routes by: a mode of `u32::MAX` indices fits, the
    /// first larger mode is named.  Only shapes are checked, no tree built.
    #[test]
    fn index_width_check_names_the_first_mode_past_u32() {
        let max = u32::MAX as usize;
        assert!(DimTree::check_index_width(&[max, 3], 1).is_ok());
        match DimTree::check_index_width(&[3, max + 1, max + 2], 1) {
            Err(TuckerError::BufferTooLarge { buffer }) => {
                assert!(buffer.ends_with("of mode 1"), "{buffer}")
            }
            other => panic!("expected BufferTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn order2_tree_works() {
        let t = random_tensor(&[9, 7], 30, 17);
        let ranks = [3, 2];
        let factors = factors_for(&t, &ranks, 3);
        let sym = SymbolicTtmc::build(&t);
        let tree = DimTree::build(&t);
        let results = tree_ttmc(&tree, &t, &sym, &factors);
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
        let group_ptr = narrow([0, 10, 110, 142, 175]);
        let (grain, seg_ptr, seg_entry) = segment_schedule(&group_ptr);
        assert_eq!(grain, MIN_SEGMENT_MEMBERS);
        assert_eq!(wide(&seg_ptr), vec![0, 0, 4, 4, 6]);
        assert_eq!(wide(&seg_entry), vec![1, 1, 1, 1, 3, 3]);
        // Segment member ranges tile each split group exactly.
        let node = Node {
            lo: 0,
            hi: 1,
            parent: NONE,
            children: [NONE; 2],
            col_modes: Vec::new(),
            d_modes: Vec::new(),
            group_ptr,
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
            let mut cursor = node.group(g).start;
            for s in node.segments(g) {
                let (klo, khi) = node.segment_members(g, s);
                assert_eq!(klo, cursor);
                assert!(khi > klo);
                cursor = khi;
            }
            assert_eq!(cursor, node.group(g).end);
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
        let reference = tree_ttmc(&tree, &t, &sym, &factors);
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
            let results = pool.install(|| tree_ttmc(&tree, &t, &sym, &factors));
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
            root_idx.extend_from_slice(tensor.coords(t));
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
        let mut group_ptr = vec![0];
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
        let group_ptr = narrow(group_ptr);
        let (members, values) = if parent_id == 0 {
            (
                Vec::new(),
                by_key.iter().map(|&e| tensor.value(e)).collect(),
            )
        } else {
            (narrow(by_key), Vec::new())
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
        // Above the pass grain at every width (three chunks at width 3):
        // root children keyed in one pass ([0,1), and [0,2) by two modes
        // at once) and in one pass per mode ([1,3), [2,4): key spaces past
        // the nonzero count).
        tensors.push(random_tensor(&[300, 700, 800], 3 * PASS_GRAIN + 9, 8));
        tensors.push(random_tensor(&[20, 30, 500, 600], 3 * PASS_GRAIN + 9, 9));
        // Skewed past the segmentation grain: half the nonzeros share mode-0
        // index 0, so that slice's groups are split into segments.
        let skewed: Vec<(Vec<usize>, f64)> = (0..2 * PASS_GRAIN + 5)
            .map(|k| {
                let h = k.wrapping_mul(2_654_435_761);
                let i = if k % 2 == 0 { 0 } else { h % 400 };
                (vec![i, (h >> 9) % 500, (h >> 18) % 600], k as f64 * 0.25)
            })
            .collect();
        let skewed = SparseTensor::from_entries(vec![400, 500, 600], &skewed);
        let tree = DimTree::build(&skewed);
        assert!((1..tree.num_nodes()).any(|id| tree.node_segments(id) > 0));
        tensors.push(skewed);
        // Keys needing more bits than one 32-bit record word: two 17-bit
        // modes, and three 12-bit modes (three passes).
        tensors.push(random_tensor(&[5, 70_000, 70_000], 3_000, 10));
        tensors.push(random_tensor(&[3, 3, 3_000, 3_000, 3_000], 2_000, 11));
        // Order 6: a right child below the root keyed by two modes, so
        // records carry parent entry ids instead of values.
        tensors.push(random_tensor(&[3, 40, 50, 4, 30, 40], 600, 12));
        // Order 8: left children below the root keyed by two modes, [0,2)
        // in one pass and [4,6) (key space past its parent's entries) in
        // one pass per mode over records of parent entry ids.
        tensors.push(random_tensor(&[2, 3, 2, 2, 300, 400, 5, 6], 3_000, 14));

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
