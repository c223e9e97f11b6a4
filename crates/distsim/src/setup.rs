//! Data distribution for the distributed-memory HOOI simulation.
//!
//! Mirrors the task definitions of the paper (§III-B):
//!
//! * **Coarse grain** — the atomic task of mode `n` is "compute row `i` of
//!   `Y_(n)` and `U_n(i, :)`"; its owner holds every nonzero of slice
//!   `X(…, i, …)`.  Nonzeros are therefore (logically) replicated: a nonzero
//!   participates in the local TTMc of the owner of its index in *every*
//!   mode.
//! * **Fine grain** — the atomic task is a single nonzero; each rank owns a
//!   set of nonzeros and produces *partial* rows of every `Y_(n)`, which are
//!   merged inside the TRSVD operator rather than assembled (the paper's
//!   key communication optimization).  Factor-row tasks `t^n_i` are assigned
//!   to the rank holding the most nonzeros of that slice.
//!
//! Partitioning methods map to the paper's configurations: `Random` =
//! `fine-rd`, `Block` = `coarse-bl` (contiguous slices / nonzeros),
//! `Hypergraph` = `*-hp` (the PaToH stand-in from the `partition` crate).

use partition::{
    block_partition, coarse_grain_hypergraph, fine_grain_hypergraph, partitioners,
    random_partition, Partition,
};
use sptensor::SparseTensor;

/// Task granularity of the distributed algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grain {
    /// One task per (mode, index): owner computes the whole row of `Y_(n)`.
    Coarse,
    /// One task per nonzero: rows of `Y_(n)` are computed in parts.
    Fine,
}

/// How tasks are assigned to ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionMethod {
    /// Uniform random assignment (`fine-rd`); for coarse grain this falls
    /// back to the blocked variant, as in the paper.
    Random,
    /// Contiguous blocks balanced by nonzero count (`coarse-bl`).
    Block,
    /// Greedy + FM hypergraph partitioning (`*-hp`, the PaToH substitute).
    Hypergraph,
}

impl PartitionMethod {
    /// The suffix used in the paper's tables (`hp`, `rd`, `bl`).
    pub fn suffix(&self) -> &'static str {
        match self {
            PartitionMethod::Random => "rd",
            PartitionMethod::Block => "bl",
            PartitionMethod::Hypergraph => "hp",
        }
    }
}

/// Configuration of a simulated distributed run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Number of MPI ranks (compute nodes).
    pub num_ranks: usize,
    /// Task granularity.
    pub grain: Grain,
    /// Partitioning method.
    pub method: PartitionMethod,
    /// Tucker ranks per mode.
    pub ranks: Vec<usize>,
    /// Threads per rank (the OpenMP threads of the hybrid implementation).
    pub threads_per_rank: usize,
    /// Seed for the partitioners.
    pub seed: u64,
}

impl SimConfig {
    /// Convenience constructor with the paper's default of 32 threads per
    /// node (2 per core on the 16-core BG/Q nodes).
    pub fn new(num_ranks: usize, grain: Grain, method: PartitionMethod, ranks: Vec<usize>) -> Self {
        SimConfig {
            num_ranks,
            grain,
            method,
            ranks,
            threads_per_rank: 32,
            seed: 0xd157_51b0,
        }
    }

    /// The label used in the paper's tables, e.g. `fine-hp` or `coarse-bl`.
    pub fn label(&self) -> String {
        let grain = match self.grain {
            Grain::Coarse => "coarse",
            Grain::Fine => "fine",
        };
        format!("{grain}-{}", self.method.suffix())
    }
}

/// The computed data distribution.
#[derive(Debug, Clone)]
pub struct DistributedSetup {
    /// The configuration this distribution was built for.
    pub config: SimConfig,
    /// Mode sizes of the tensor.
    pub dims: Vec<usize>,
    /// Total nonzeros of the tensor.
    pub nnz: usize,
    /// Fine grain only: owner rank of each nonzero.
    pub nonzero_owner: Option<Vec<u32>>,
    /// `row_owner[n][i]` = rank owning task `t^n_i` (`u32::MAX` for an empty
    /// slice in the fine-grain case).
    pub row_owner: Vec<Vec<u32>>,
    /// `local_nonzeros[n][r]` = ids of the nonzeros rank `r` processes in
    /// the TTMc of mode `n`.  For fine grain the inner vectors are identical
    /// across modes (the rank's owned nonzeros).
    pub local_nonzeros: Vec<Vec<Vec<usize>>>,
}

impl DistributedSetup {
    /// Builds the distribution for a tensor under the given configuration.
    pub fn build(tensor: &SparseTensor, config: &SimConfig) -> Self {
        assert_eq!(config.ranks.len(), tensor.order());
        assert!(config.num_ranks > 0);
        match config.grain {
            Grain::Fine => Self::build_fine(tensor, config),
            Grain::Coarse => Self::build_coarse(tensor, config),
        }
    }

    fn build_fine(tensor: &SparseTensor, config: &SimConfig) -> Self {
        let p = config.num_ranks;
        let order = tensor.order();
        let nnz = tensor.nnz();
        let part: Partition = match config.method {
            PartitionMethod::Random => random_partition(nnz, p, config.seed),
            PartitionMethod::Block => block_partition(&vec![1u64; nnz], p),
            PartitionMethod::Hypergraph => {
                let h = fine_grain_hypergraph(tensor);
                partitioners::hypergraph_partition(&h, p, config.seed)
            }
        };
        let owners = part.parts.clone();

        // Row ownership.  The owner of task `t^n_i` must hold nonzeros of
        // slice i (it computes the TRSVD update and seeds the merge), and it
        // pays for `λ_i − 1` partial-row merges plus the factor-row
        // broadcast — so ownership placement is what balances the per-rank
        // communication volume.  Among the ranks holding at least half as
        // many nonzeros of the slice as the best-localized rank, pick the
        // one with the lightest accumulated owner burden; rows with many
        // holders are assigned first so the heaviest merge costs spread out.
        let mut row_owner: Vec<Vec<u32>> = Vec::with_capacity(order);
        for mode in 0..order {
            let dim = tensor.dims()[mode];
            let mut counts: Vec<sptensor::hash::FxHashMap<u32, u32>> = Vec::new();
            counts.resize_with(dim, sptensor::hash::FxHashMap::default);
            for t in 0..nnz {
                let i = tensor.index(t)[mode];
                *counts[i].entry(owners[t]).or_insert(0) += 1;
            }
            let mut slices: Vec<usize> = (0..dim).filter(|&i| !counts[i].is_empty()).collect();
            slices.sort_by_key(|&i| std::cmp::Reverse(counts[i].len()));
            let mut burden = vec![0u64; p];
            let mut owner_of = vec![u32::MAX; dim];
            for &i in &slices {
                let holders = counts[i].len() as u64;
                let max_count = counts[i].values().copied().max().unwrap_or(0);
                let threshold = max_count.div_ceil(2);
                // Total order (burden, −count, rank id) keeps the choice
                // deterministic regardless of hash-map iteration order.
                let best = counts[i]
                    .iter()
                    .filter(|&(_, &c)| c >= threshold)
                    .min_by_key(|&(&r, &c)| (burden[r as usize], std::cmp::Reverse(c), r))
                    .map(|(&r, _)| r)
                    .expect("nonempty slice has a holder");
                owner_of[i] = best;
                burden[best as usize] += holders - 1;
            }
            row_owner.push(owner_of);
        }

        // Local nonzero lists: same per mode for fine grain.
        let mut per_rank: Vec<Vec<usize>> = vec![Vec::new(); p];
        for (t, &r) in owners.iter().enumerate() {
            per_rank[r as usize].push(t);
        }
        let local_nonzeros = vec![per_rank; order];

        DistributedSetup {
            config: config.clone(),
            dims: tensor.dims().to_vec(),
            nnz,
            nonzero_owner: Some(owners),
            row_owner,
            local_nonzeros,
        }
    }

    fn build_coarse(tensor: &SparseTensor, config: &SimConfig) -> Self {
        let p = config.num_ranks;
        let order = tensor.order();
        let nnz = tensor.nnz();
        let mut row_owner: Vec<Vec<u32>> = Vec::with_capacity(order);
        let mut local_nonzeros: Vec<Vec<Vec<usize>>> = Vec::with_capacity(order);

        for mode in 0..order {
            let weights: Vec<u64> = tensor.slice_nnz(mode).iter().map(|&c| c as u64).collect();
            let part = match config.method {
                // The paper uses a blocked variant of random assignment for
                // coarse-grain tasks; both non-hypergraph methods therefore
                // map to the weighted block partition.
                PartitionMethod::Random | PartitionMethod::Block => block_partition(&weights, p),
                PartitionMethod::Hypergraph => {
                    let h = coarse_grain_hypergraph(tensor, mode);
                    partitioners::hypergraph_partition(&h, p, config.seed ^ mode as u64)
                }
            };
            let owners = part.parts;
            let mut per_rank: Vec<Vec<usize>> = vec![Vec::new(); p];
            for t in 0..nnz {
                let i = tensor.index(t)[mode];
                per_rank[owners[i] as usize].push(t);
            }
            row_owner.push(owners);
            local_nonzeros.push(per_rank);
        }

        DistributedSetup {
            config: config.clone(),
            dims: tensor.dims().to_vec(),
            nnz,
            nonzero_owner: None,
            row_owner,
            local_nonzeros,
        }
    }

    /// Number of modes.
    pub fn order(&self) -> usize {
        self.dims.len()
    }

    /// The nonzeros rank `r` processes in the TTMc of `mode`.
    pub fn nonzeros_for(&self, mode: usize, rank: usize) -> &[usize] {
        &self.local_nonzeros[mode][rank]
    }

    /// Derives, for every mode and row, which ranks *hold* nonzeros of the
    /// row's slice (and how many) and which ranks *need* the corresponding
    /// factor row for their local TTMc of some other mode.  These two
    /// relations drive both the analytic communication predictions of
    /// [`crate::stats::iteration_stats`] and the executor's actual
    /// fold/expand message plan in [`crate::exec`] — sharing the derivation
    /// is what lets the tests assert measured traffic equals predicted
    /// traffic word for word.
    pub fn row_relations(&self, tensor: &SparseTensor) -> RowRelations {
        let order = self.order();
        let p = self.config.num_ranks;
        let mut modes = Vec::with_capacity(order);
        for mode in 0..order {
            let dim = self.dims[mode];
            let mut holder_counts: Vec<sptensor::hash::FxHashMap<u32, u32>> = Vec::new();
            holder_counts.resize_with(dim, sptensor::hash::FxHashMap::default);
            let mut needer_sets: Vec<sptensor::hash::FxHashSet<u32>> = Vec::new();
            needer_sets.resize_with(dim, sptensor::hash::FxHashSet::default);
            for m in 0..order {
                for r in 0..p {
                    for &id in self.nonzeros_for(m, r) {
                        let i = tensor.index(id)[mode];
                        if m == mode {
                            *holder_counts[i].entry(r as u32).or_insert(0) += 1;
                        } else {
                            needer_sets[i].insert(r as u32);
                        }
                    }
                }
            }
            let holders = holder_counts
                .into_iter()
                .map(|counts| {
                    let mut h: Vec<(u32, u32)> = counts.into_iter().collect();
                    h.sort_unstable();
                    h
                })
                .collect();
            let needers = needer_sets
                .into_iter()
                .map(|set| {
                    let mut n: Vec<u32> = set.into_iter().collect();
                    n.sort_unstable();
                    n
                })
                .collect();
            modes.push(ModeRelations { holders, needers });
        }
        RowRelations { modes }
    }
}

/// Holder/needer relations of one mode (see
/// [`DistributedSetup::row_relations`]).
#[derive(Debug, Clone)]
pub struct ModeRelations {
    /// `holders[i]` — the ranks holding nonzeros of slice `i` in this
    /// mode's TTMc, with their nonzero counts, sorted by rank.  Rows with
    /// more than one holder are the fine-grain algorithm's shared rows:
    /// their partial results must be folded at the row's owner.
    pub holders: Vec<Vec<(u32, u32)>>,
    /// `needers[i]` — the ranks that read factor row `U_mode(i, :)` during
    /// the TTMc of some *other* mode, sorted.  The owner sends the updated
    /// row to every needer but itself (Algorithm 4's expand).
    pub needers: Vec<Vec<u32>>,
}

/// Holder/needer relations for every mode of a distribution.
#[derive(Debug, Clone)]
pub struct RowRelations {
    /// One [`ModeRelations`] per mode, in mode order.
    pub modes: Vec<ModeRelations>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::random_tensor;

    fn tensor() -> SparseTensor {
        random_tensor(&[40, 30, 20], 1500, 7)
    }

    #[test]
    fn fine_setup_covers_all_nonzeros_once() {
        let t = tensor();
        let config = SimConfig::new(4, Grain::Fine, PartitionMethod::Random, vec![3, 3, 3]);
        let s = DistributedSetup::build(&t, &config);
        for mode in 0..3 {
            let total: usize = (0..4).map(|r| s.nonzeros_for(mode, r).len()).sum();
            assert_eq!(total, t.nnz());
        }
        assert!(s.nonzero_owner.is_some());
    }

    #[test]
    fn coarse_setup_assigns_whole_slices() {
        let t = tensor();
        let config = SimConfig::new(4, Grain::Coarse, PartitionMethod::Block, vec![3, 3, 3]);
        let s = DistributedSetup::build(&t, &config);
        for mode in 0..3 {
            for r in 0..4 {
                for &id in s.nonzeros_for(mode, r) {
                    let i = t.index(id)[mode];
                    assert_eq!(s.row_owner[mode][i] as usize, r);
                }
            }
            let total: usize = (0..4).map(|r| s.nonzeros_for(mode, r).len()).sum();
            assert_eq!(total, t.nnz());
        }
    }

    #[test]
    fn fine_row_owner_holds_local_nonzeros() {
        let t = tensor();
        let config = SimConfig::new(8, Grain::Fine, PartitionMethod::Hypergraph, vec![3, 3, 3]);
        let s = DistributedSetup::build(&t, &config);
        let owners = s.nonzero_owner.as_ref().unwrap();
        // The owner of row i in mode 0 must own at least one nonzero of
        // slice i.
        for i in 0..t.dims()[0] {
            let owner = s.row_owner[0][i];
            if owner == u32::MAX {
                continue;
            }
            let has_one = (0..t.nnz()).any(|k| t.index(k)[0] == i && owners[k] == owner);
            assert!(has_one, "row {i} owner {owner} holds none of its nonzeros");
        }
    }

    #[test]
    fn empty_slices_have_no_owner_in_fine_grain() {
        let t = SparseTensor::from_entries(
            vec![6, 3, 3],
            &[(vec![0, 0, 0], 1.0), (vec![5, 2, 2], 2.0)],
        );
        let config = SimConfig::new(2, Grain::Fine, PartitionMethod::Random, vec![2, 2, 2]);
        let s = DistributedSetup::build(&t, &config);
        for i in 1..5 {
            assert_eq!(s.row_owner[0][i], u32::MAX);
        }
        assert_ne!(s.row_owner[0][0], u32::MAX);
        assert_ne!(s.row_owner[0][5], u32::MAX);
    }

    #[test]
    fn fine_block_and_random_balance_nonzero_counts() {
        let t = tensor();
        for method in [PartitionMethod::Random, PartitionMethod::Block] {
            let config = SimConfig::new(8, Grain::Fine, method, vec![3, 3, 3]);
            let s = DistributedSetup::build(&t, &config);
            let counts: Vec<usize> = (0..8).map(|r| s.nonzeros_for(0, r).len()).collect();
            let max = *counts.iter().max().unwrap() as f64;
            let avg = t.nnz() as f64 / 8.0;
            assert!(max / avg < 1.3, "method {method:?}: counts {counts:?}");
        }
    }

    #[test]
    fn labels_match_paper_names() {
        let c = SimConfig::new(2, Grain::Fine, PartitionMethod::Hypergraph, vec![2, 2]);
        assert_eq!(c.label(), "fine-hp");
        let c = SimConfig::new(2, Grain::Coarse, PartitionMethod::Block, vec![2, 2]);
        assert_eq!(c.label(), "coarse-bl");
        let c = SimConfig::new(2, Grain::Fine, PartitionMethod::Random, vec![2, 2]);
        assert_eq!(c.label(), "fine-rd");
    }

    #[test]
    fn relations_are_sorted_and_cover_all_nonzeros() {
        let t = tensor();
        for (grain, method) in [
            (Grain::Fine, PartitionMethod::Hypergraph),
            (Grain::Coarse, PartitionMethod::Block),
        ] {
            let config = SimConfig::new(5, grain, method, vec![3, 3, 3]);
            let s = DistributedSetup::build(&t, &config);
            let rel = s.row_relations(&t);
            for mode in 0..3 {
                let m = &rel.modes[mode];
                let total: u64 = m
                    .holders
                    .iter()
                    .flat_map(|h| h.iter().map(|&(_, c)| c as u64))
                    .sum();
                assert_eq!(total, t.nnz() as u64, "{grain:?} mode {mode}");
                for h in &m.holders {
                    assert!(h.windows(2).all(|w| w[0].0 < w[1].0));
                }
                for n in &m.needers {
                    assert!(n.windows(2).all(|w| w[0] < w[1]));
                }
                // Coarse grain: the owner holds the whole slice, so every
                // nonempty row has exactly one holder.
                if grain == Grain::Coarse {
                    for (i, h) in m.holders.iter().enumerate() {
                        if !h.is_empty() {
                            assert_eq!(h.len(), 1);
                            assert_eq!(h[0].0, s.row_owner[mode][i]);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn fine_grain_holders_include_the_owner() {
        let t = tensor();
        let config = SimConfig::new(6, Grain::Fine, PartitionMethod::Random, vec![3, 3, 3]);
        let s = DistributedSetup::build(&t, &config);
        let rel = s.row_relations(&t);
        for mode in 0..3 {
            for (i, h) in rel.modes[mode].holders.iter().enumerate() {
                let owner = s.row_owner[mode][i];
                if owner != u32::MAX {
                    assert!(
                        h.iter().any(|&(r, _)| r == owner),
                        "mode {mode} row {i}: owner {owner} holds nothing"
                    );
                }
            }
        }
    }
}
