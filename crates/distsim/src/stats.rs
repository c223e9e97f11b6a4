//! Per-mode, per-rank computation and communication statistics of one HOOI
//! iteration — the raw material of the paper's Table III.
//!
//! For every mode `n` and rank `r` the simulator derives, directly from the
//! data distribution (no numerics needed):
//!
//! * `W_TTMc` — the number of nonzeros rank `r` processes in the TTMc of
//!   mode `n` (each costs `2 · Π_{t≠n} R_t` flops),
//! * `W_TRSVD` — the number of (possibly partial) rows of `Y_(n)` the rank
//!   holds, i.e. the rows it multiplies in every MxV/MTxV of the TRSVD
//!   solver; in the fine-grain algorithm rows held by λ ranks count λ times
//!   in total — the redundant work the paper ties to the hypergraph cutsize,
//! * `Comm. vol.` — the words sent plus received by the rank for this mode:
//!   the factor-matrix rows `U_n(i, :)` exchanged after the TRSVD update
//!   (Algorithm 4 line 14) and, for the fine-grain algorithm, the `y`-vector
//!   entries merged inside the TRSVD solver (one word per partially held row
//!   per solver application).

use crate::setup::{DistributedSetup, Grain};
use sptensor::SparseTensor;

/// Statistics of one mode for every rank.
#[derive(Debug, Clone)]
pub struct ModeRankStats {
    /// The mode these statistics describe.
    pub mode: usize,
    /// Nonzeros processed per rank in this mode's TTMc.
    pub ttmc_nonzeros: Vec<u64>,
    /// (Partial) rows of `Y_(mode)` held per rank.
    pub trsvd_rows: Vec<u64>,
    /// Words sent + received per rank for this mode.
    pub comm_volume: Vec<u64>,
    /// Predicted expand volume per rank (words sent + received): the
    /// updated factor rows `U_mode(i, :)` the row's owner ships to every
    /// other rank needing them, `R_mode` words each.  The executor's
    /// measured [`crate::comm::Phase::Expand`] float counters must equal
    /// this, times the number of iterations.
    pub expand_words: Vec<u64>,
    /// Predicted fold volume per rank (words sent + received) under the
    /// executor's bit-exact merge: each non-owner holder of a shared row
    /// ships one `Π_{t≠mode} R_t`-word contribution *per held nonzero* of
    /// that row to the owner, so the owner can replay the global
    /// accumulation order.  Zero for the coarse-grain distribution (rows
    /// are never split).  The executor's measured
    /// [`crate::comm::Phase::Fold`] float counters must equal this, times
    /// the number of iterations.
    pub fold_words: Vec<u64>,
}

impl ModeRankStats {
    /// Maximum over ranks of a per-rank metric.
    pub fn max(values: &[u64]) -> u64 {
        values.iter().copied().max().unwrap_or(0)
    }

    /// Average over ranks of a per-rank metric.
    pub fn avg(values: &[u64]) -> f64 {
        if values.is_empty() {
            0.0
        } else {
            values.iter().sum::<u64>() as f64 / values.len() as f64
        }
    }
}

/// Statistics of a full HOOI iteration (every mode).
#[derive(Debug, Clone)]
pub struct IterationStats {
    /// One entry per mode.
    pub modes: Vec<ModeRankStats>,
    /// Number of ranks.
    pub num_ranks: usize,
    /// Tucker ranks per mode.
    pub tucker_ranks: Vec<usize>,
    /// Number of operator applications assumed for the iterative TRSVD
    /// solver when accounting its merge communication.
    pub trsvd_applications: usize,
}

impl IterationStats {
    /// Total communication volume (words) across all ranks and modes.
    pub fn total_comm_volume(&self) -> u64 {
        self.modes
            .iter()
            .map(|m| m.comm_volume.iter().sum::<u64>())
            .sum()
    }

    /// Predicted expand words per rank, summed over modes — sent plus
    /// received, per HOOI iteration.
    pub fn expand_words_per_rank(&self) -> Vec<u64> {
        let mut out = vec![0u64; self.num_ranks];
        for m in &self.modes {
            for (o, &w) in out.iter_mut().zip(m.expand_words.iter()) {
                *o += w;
            }
        }
        out
    }

    /// Predicted fold words per rank, summed over modes — sent plus
    /// received, per HOOI iteration.
    pub fn fold_words_per_rank(&self) -> Vec<u64> {
        let mut out = vec![0u64; self.num_ranks];
        for m in &self.modes {
            for (o, &w) in out.iter_mut().zip(m.fold_words.iter()) {
                *o += w;
            }
        }
        out
    }
}

/// Default number of TRSVD operator applications assumed per mode: the
/// Lanczos solver builds a subspace of about `2R + 10` vectors and the paper
/// reports convergence in < 5 restarts, so a small constant multiple of the
/// rank; 20 keeps the accounting conservative.
pub const DEFAULT_TRSVD_APPLICATIONS: usize = 20;

/// Computes the per-mode statistics of one HOOI iteration for a given data
/// distribution.
pub fn iteration_stats(
    tensor: &SparseTensor,
    setup: &DistributedSetup,
    trsvd_applications: usize,
) -> IterationStats {
    let order = tensor.order();
    let p = setup.config.num_ranks;
    let ranks = setup.config.ranks.clone();
    let relations = setup.row_relations(tensor);
    let mut modes = Vec::with_capacity(order);

    for mode in 0..order {
        let dim = tensor.dims()[mode];
        // Holder/needer relations shared with the executor: a rank *needs*
        // row i of U_mode if it processes (in the TTMc of any mode m ≠
        // mode) a nonzero whose mode-`mode` index is i, and *holds* a
        // partial row i of Y_(mode) if it processes a nonzero of slice i in
        // the TTMc of `mode` itself.
        let rel = &relations.modes[mode];

        // W_TTMc and W_TRSVD.
        let mut ttmc_nonzeros = vec![0u64; p];
        for r in 0..p {
            ttmc_nonzeros[r] = setup.nonzeros_for(mode, r).len() as u64;
        }
        let mut trsvd_rows = vec![0u64; p];
        for holders in &rel.holders {
            for &(r, _) in holders {
                trsvd_rows[r as usize] += 1;
            }
        }

        // Communication volume (the paper's model) and the executor-facing
        // expand/fold predictions.
        let mut comm = vec![0u64; p];
        let mut expand = vec![0u64; p];
        let mut fold = vec![0u64; p];
        let r_mode = ranks[mode] as u64;
        let width: u64 = ranks
            .iter()
            .enumerate()
            .filter(|&(t, _)| t != mode)
            .map(|(_, &r)| r as u64)
            .product();
        for i in 0..dim {
            let owner = setup.row_owner[mode][i];
            if owner == u32::MAX {
                continue;
            }
            // Factor-row exchange after the TRSVD update: the owner sends
            // U_mode(i, :) to every other rank that needs it.
            for &need in &rel.needers[i] {
                if need != owner {
                    comm[owner as usize] += r_mode; // send
                    comm[need as usize] += r_mode; // receive
                    expand[owner as usize] += r_mode;
                    expand[need as usize] += r_mode;
                }
            }
            // Fine grain: partial rows of Y_(mode) are merged entry-wise in
            // the TRSVD solver (one word per application per partial copy).
            let lambda = rel.holders[i].len() as u64;
            if setup.config.grain == Grain::Fine && lambda > 1 {
                let per_application = lambda - 1;
                for &(h, _) in &rel.holders[i] {
                    if h != owner {
                        comm[h as usize] += trsvd_applications as u64;
                    }
                }
                comm[owner as usize] += per_application * trsvd_applications as u64;
            }
            // Executor fold: every non-owner holder ships one width-word
            // contribution per held nonzero of the row to the owner.
            if lambda > 1 {
                for &(h, cnt) in &rel.holders[i] {
                    if h != owner {
                        let w = cnt as u64 * width;
                        fold[h as usize] += w;
                        fold[owner as usize] += w;
                    }
                }
            }
        }

        modes.push(ModeRankStats {
            mode,
            ttmc_nonzeros,
            trsvd_rows,
            comm_volume: comm,
            expand_words: expand,
            fold_words: fold,
        });
    }

    IterationStats {
        modes,
        num_ranks: p,
        tucker_ranks: ranks,
        trsvd_applications,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::{PartitionMethod, SimConfig};
    use datagen::random_tensor;

    fn tensor() -> SparseTensor {
        random_tensor(&[30, 25, 20], 1200, 3)
    }

    fn stats_for(
        grain: Grain,
        method: PartitionMethod,
        p: usize,
    ) -> (SparseTensor, IterationStats) {
        let t = tensor();
        let config = SimConfig::new(p, grain, method, vec![4, 4, 4]);
        let setup = DistributedSetup::build(&t, &config);
        let stats = iteration_stats(&t, &setup, DEFAULT_TRSVD_APPLICATIONS);
        (t, stats)
    }

    #[test]
    fn fine_grain_ttmc_work_identical_across_modes() {
        let (_, stats) = stats_for(Grain::Fine, PartitionMethod::Random, 4);
        // Each rank processes its own nonzeros in every mode.
        for r in 0..4 {
            let w0 = stats.modes[0].ttmc_nonzeros[r];
            for m in 1..3 {
                assert_eq!(stats.modes[m].ttmc_nonzeros[r], w0);
            }
        }
    }

    #[test]
    fn ttmc_work_sums_to_nnz_fine() {
        let (t, stats) = stats_for(Grain::Fine, PartitionMethod::Hypergraph, 4);
        for m in 0..3 {
            let total: u64 = stats.modes[m].ttmc_nonzeros.iter().sum();
            assert_eq!(total, t.nnz() as u64);
        }
    }

    #[test]
    fn ttmc_work_sums_to_nnz_coarse() {
        let (t, stats) = stats_for(Grain::Coarse, PartitionMethod::Block, 4);
        for m in 0..3 {
            let total: u64 = stats.modes[m].ttmc_nonzeros.iter().sum();
            assert_eq!(total, t.nnz() as u64);
        }
    }

    #[test]
    fn coarse_trsvd_rows_equal_nonempty_slices() {
        let (t, stats) = stats_for(Grain::Coarse, PartitionMethod::Block, 4);
        for m in 0..3 {
            let total: u64 = stats.modes[m].trsvd_rows.iter().sum();
            assert_eq!(total, t.nonempty_slices(m) as u64);
        }
    }

    #[test]
    fn fine_trsvd_rows_at_least_nonempty_slices() {
        let (t, stats) = stats_for(Grain::Fine, PartitionMethod::Random, 8);
        for m in 0..3 {
            let total: u64 = stats.modes[m].trsvd_rows.iter().sum();
            assert!(total >= t.nonempty_slices(m) as u64);
        }
    }

    #[test]
    fn single_rank_has_no_communication() {
        let (_, stats) = stats_for(Grain::Fine, PartitionMethod::Random, 1);
        assert_eq!(stats.total_comm_volume(), 0);
        let (_, stats) = stats_for(Grain::Coarse, PartitionMethod::Block, 1);
        assert_eq!(stats.total_comm_volume(), 0);
    }

    #[test]
    fn hypergraph_partition_communicates_less_than_random() {
        let t = random_tensor(&[40, 35, 30], 3000, 11);
        let ranks = vec![4, 4, 4];
        let cfg_hp = SimConfig::new(8, Grain::Fine, PartitionMethod::Hypergraph, ranks.clone());
        let cfg_rd = SimConfig::new(8, Grain::Fine, PartitionMethod::Random, ranks);
        let s_hp = DistributedSetup::build(&t, &cfg_hp);
        let s_rd = DistributedSetup::build(&t, &cfg_rd);
        let st_hp = iteration_stats(&t, &s_hp, DEFAULT_TRSVD_APPLICATIONS);
        let st_rd = iteration_stats(&t, &s_rd, DEFAULT_TRSVD_APPLICATIONS);
        assert!(
            st_hp.total_comm_volume() < st_rd.total_comm_volume(),
            "hp volume {} not below rd volume {}",
            st_hp.total_comm_volume(),
            st_rd.total_comm_volume()
        );
    }

    #[test]
    fn coarse_grain_predicts_no_fold_and_expand_equals_comm() {
        // Coarse-grain rows are never split, so the executor folds nothing,
        // and the paper's comm volume is exactly the factor-row exchange.
        let (_, stats) = stats_for(Grain::Coarse, PartitionMethod::Hypergraph, 4);
        for m in &stats.modes {
            assert!(m.fold_words.iter().all(|&w| w == 0));
            assert_eq!(m.expand_words, m.comm_volume);
        }
    }

    #[test]
    fn fold_sends_match_fold_receives_globally() {
        let (_, stats) = stats_for(Grain::Fine, PartitionMethod::Random, 8);
        // Every predicted fold word is sent once and received once, so the
        // per-rank totals (send + receive) sum to an even number, and the
        // single-rank case predicts zero.
        let total: u64 = stats.fold_words_per_rank().iter().sum();
        assert_eq!(total % 2, 0);
        assert!(total > 0, "8 random ranks must split at least one row");
        let (_, solo) = stats_for(Grain::Fine, PartitionMethod::Random, 1);
        assert_eq!(solo.fold_words_per_rank().iter().sum::<u64>(), 0);
        assert_eq!(solo.expand_words_per_rank().iter().sum::<u64>(), 0);
    }

    #[test]
    fn max_and_avg_helpers() {
        let values = vec![1u64, 5, 3];
        assert_eq!(ModeRankStats::max(&values), 5);
        assert!((ModeRankStats::avg(&values) - 3.0).abs() < 1e-12);
        assert_eq!(ModeRankStats::max(&[]), 0);
        assert_eq!(ModeRankStats::avg(&[]), 0.0);
    }

    #[test]
    fn comm_volume_scaled_by_rank_width() {
        // Doubling the Tucker rank of a mode doubles the factor-row part of
        // its communication volume.
        let t = tensor();
        let c1 = SimConfig::new(4, Grain::Coarse, PartitionMethod::Hypergraph, vec![2, 2, 2]);
        let c2 = SimConfig::new(4, Grain::Coarse, PartitionMethod::Hypergraph, vec![4, 4, 4]);
        let s1 = DistributedSetup::build(&t, &c1);
        let s2 = DistributedSetup::build(&t, &c2);
        let st1 = iteration_stats(&t, &s1, 0);
        let st2 = iteration_stats(&t, &s2, 0);
        // Same distribution (coarse partitions ignore the Tucker ranks), so
        // volumes scale exactly by 2.
        assert_eq!(st1.total_comm_volume() * 2, st2.total_comm_volume());
    }
}
