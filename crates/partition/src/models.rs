//! Hypergraph models of the sparse Tucker computation (paper §III-B, based
//! on the authors' CP-ALS models).
//!
//! * **Fine-grain model** — one vertex per *nonzero* (unit weight: every
//!   nonzero costs the same `Π_{t≠n} R_t` Kronecker work in every mode) and
//!   one net per `(mode, index)` pair connecting the nonzeros that carry
//!   that index.  A net whose pins span λ parts forces λ−1 factor-row
//!   transfers per mode pair of the HOOI iteration, so the connectivity−1
//!   cutsize is proportional to the per-iteration communication volume, and
//!   it also equals the extra rows in the sum-distributed TRSVD operator
//!   (the redundant MxV/MTxV work the paper describes).
//!
//! * **Coarse-grain model** (per mode `n`) — one vertex per mode-`n` index
//!   (weighted by its slice's nonzero count, the TTMc work of the task
//!   `t^n_i`) and one net per index of the *other* modes connecting the
//!   mode-`n` vertices it co-occurs with.  Cut nets correspond to factor
//!   rows that must be replicated to several owners.

use crate::hypergraph::Hypergraph;
use sptensor::SparseTensor;

/// Builds the fine-grain hypergraph: vertices are nonzeros, nets are
/// `(mode, index)` pairs.
///
/// Net weights are 1 (each corresponds to one factor-matrix row of `R`
/// entries; the rank factor is constant across nets of a mode and is applied
/// by the simulator when converting to bytes).
pub fn fine_grain_hypergraph(tensor: &SparseTensor) -> Hypergraph {
    let order = tensor.order();
    let nnz = tensor.nnz();
    // Net id of (mode, index): offset[mode] + index, skipping empty nets at
    // the end (empty nets contribute nothing to the cutsize but waste
    // memory; keep them for simplicity of the id scheme).
    let mut offsets = vec![0usize; order + 1];
    for m in 0..order {
        offsets[m + 1] = offsets[m] + tensor.dims()[m];
    }
    let total_nets = offsets[order];

    // Count pins per net, then fill (CSR construction).
    let mut counts = vec![0usize; total_nets];
    for t in 0..nnz {
        let idx = tensor.coords(t);
        for m in 0..order {
            counts[offsets[m] + idx[m] as usize] += 1;
        }
    }
    let mut net_ptr = Vec::with_capacity(total_nets + 1);
    net_ptr.push(0usize);
    for j in 0..total_nets {
        net_ptr.push(net_ptr[j] + counts[j]);
    }
    let mut pins = vec![0usize; net_ptr[total_nets]];
    let mut cursor = net_ptr[..total_nets].to_vec();
    for t in 0..nnz {
        let idx = tensor.coords(t);
        for m in 0..order {
            let net = offsets[m] + idx[m] as usize;
            pins[cursor[net]] = t;
            cursor[net] += 1;
        }
    }

    Hypergraph {
        vertex_weights: vec![1; nnz],
        net_ptr,
        pins,
        net_weights: vec![1; total_nets],
    }
}

/// Builds the coarse-grain hypergraph for one mode: vertices are the
/// mode-`mode` indices (weighted by slice nonzero count), nets are the
/// indices of every other mode.
pub fn coarse_grain_hypergraph(tensor: &SparseTensor, mode: usize) -> Hypergraph {
    assert!(mode < tensor.order());
    let order = tensor.order();
    let dim = tensor.dims()[mode];
    let vertex_weights: Vec<u64> = tensor.slice_nnz(mode).iter().map(|&c| c as u64).collect();

    // Nets: one per (other mode, index).  Collect the set of distinct
    // mode-`mode` vertices per net; duplicates are removed with a "last
    // vertex seen" marker since pins arrive grouped by nonzero order.
    let mut offsets = vec![0usize; order + 1];
    for m in 0..order {
        offsets[m + 1] = offsets[m] + if m == mode { 0 } else { tensor.dims()[m] };
    }
    let total_nets = offsets[order];
    let mut pin_sets: Vec<Vec<usize>> = vec![Vec::new(); total_nets];
    for t in 0..tensor.nnz() {
        let idx = tensor.coords(t);
        let v = idx[mode] as usize;
        for m in 0..order {
            if m == mode {
                continue;
            }
            let net = offsets[m] + idx[m] as usize;
            // Most tensors list many nonzeros of the same slice in a row;
            // the final dedup below keeps correctness regardless.
            if pin_sets[net].last() != Some(&v) {
                pin_sets[net].push(v);
            }
        }
    }
    for set in pin_sets.iter_mut() {
        set.sort_unstable();
        set.dedup();
    }

    let mut h = Hypergraph::from_pin_lists(dim, &pin_sets);
    h.vertex_weights = vertex_weights;
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::random_tensor;

    fn sample() -> SparseTensor {
        SparseTensor::from_entries(
            vec![3, 4, 2],
            &[
                (vec![0, 0, 0], 1.0),
                (vec![0, 1, 1], 2.0),
                (vec![1, 1, 1], 3.0),
                (vec![2, 3, 0], 4.0),
            ],
        )
    }

    #[test]
    fn fine_grain_shape() {
        let t = sample();
        let h = fine_grain_hypergraph(&t);
        assert_eq!(h.num_vertices(), 4); // one per nonzero
        assert_eq!(h.num_nets(), 3 + 4 + 2); // one per (mode, index)
        assert_eq!(h.num_pins(), 4 * 3); // order pins per nonzero
    }

    #[test]
    fn fine_grain_nets_group_by_index() {
        let t = sample();
        let h = fine_grain_hypergraph(&t);
        // Net for (mode 0, index 0) must contain nonzeros 0 and 1.
        assert_eq!(h.net(0), &[0, 1]);
        // Net for (mode 1, index 1) = net 3 + 1 = 4 must contain 1 and 2.
        assert_eq!(h.net(3 + 1), &[1, 2]);
        // Net for (mode 2, index 0) = net 3 + 4 + 0 must contain 0 and 3.
        assert_eq!(h.net(3 + 4), &[0, 3]);
    }

    #[test]
    fn fine_grain_cutsize_zero_for_single_part() {
        let t = random_tensor(&[10, 10, 10], 200, 1);
        let h = fine_grain_hypergraph(&t);
        let parts = vec![0u32; h.num_vertices()];
        assert_eq!(h.connectivity_cutsize(&parts, 4), 0);
    }

    #[test]
    fn coarse_grain_vertex_weights_are_slice_sizes() {
        let t = sample();
        let h = coarse_grain_hypergraph(&t, 0);
        assert_eq!(h.num_vertices(), 3);
        assert_eq!(h.vertex_weights, vec![2, 1, 1]);
        // Nets: one per index of modes 1 and 2 = 4 + 2.
        assert_eq!(h.num_nets(), 6);
    }

    #[test]
    fn coarse_grain_nets_connect_cooccurring_slices() {
        let t = sample();
        let h = coarse_grain_hypergraph(&t, 0);
        // Net for (mode 1, index 1): nonzeros (0,1,1) and (1,1,1) → slices 0, 1.
        assert_eq!(h.net(1), &[0, 1]);
        // Net for (mode 2, index 0): nonzeros (0,0,0) and (2,3,0) → slices 0, 2.
        assert_eq!(h.net(4), &[0, 2]);
    }

    #[test]
    fn coarse_grain_no_duplicate_pins() {
        let t = random_tensor(&[6, 6, 6], 150, 7);
        for mode in 0..3 {
            let h = coarse_grain_hypergraph(&t, mode);
            for net in 0..h.num_nets() {
                let pins = h.net(net);
                let mut sorted = pins.to_vec();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(sorted.len(), pins.len(), "duplicate pins in net {net}");
            }
        }
    }

    #[test]
    fn fine_grain_on_4mode_tensor() {
        let t = random_tensor(&[5, 6, 7, 8], 100, 3);
        let h = fine_grain_hypergraph(&t);
        assert_eq!(h.num_vertices(), 100);
        assert_eq!(h.num_nets(), 5 + 6 + 7 + 8);
        assert_eq!(h.num_pins(), 400);
    }
}
