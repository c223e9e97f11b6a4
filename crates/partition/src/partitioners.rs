//! Partitioners: random / block baselines and a greedy + FM-refinement
//! hypergraph partitioner standing in for PaToH.
//!
//! The paper evaluates each distributed algorithm under two partitionings:
//! a cheap one that only balances load (`fine-rd` random, `coarse-bl`
//! contiguous blocks) and a hypergraph partitioning (`*-hp`, PaToH) that
//! additionally minimizes the connectivity−1 cutsize, i.e. the
//! communication volume.  Any reasonable cutsize-aware partitioner
//! reproduces the qualitative gap; here a greedy hypergraph-growing pass
//! followed by FM-style refinement plays that role.

use crate::hypergraph::Hypergraph;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sptensor::hash::{FxHashMap, FxHashSet};
use std::collections::BinaryHeap;

/// A K-way partition of a set of items (vertices, tasks or nonzeros).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// Part id of each item.
    pub parts: Vec<u32>,
    /// Number of parts `K`.
    pub num_parts: usize,
}

impl Partition {
    /// Creates a partition, checking that every part id is `< num_parts`.
    pub fn new(parts: Vec<u32>, num_parts: usize) -> Self {
        assert!(num_parts > 0);
        assert!(
            parts.iter().all(|&p| (p as usize) < num_parts),
            "part id out of range"
        );
        Partition { parts, num_parts }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.parts.len()
    }

    /// Whether the partition covers no items.
    pub fn is_empty(&self) -> bool {
        self.parts.is_empty()
    }

    /// The items assigned to each part.
    pub fn members(&self) -> Vec<Vec<usize>> {
        let mut members = vec![Vec::new(); self.num_parts];
        for (i, &p) in self.parts.iter().enumerate() {
            members[p as usize].push(i);
        }
        members
    }

    /// Per-part total weight for externally supplied item weights.
    pub fn loads(&self, weights: &[u64]) -> Vec<u64> {
        assert_eq!(weights.len(), self.parts.len());
        let mut loads = vec![0u64; self.num_parts];
        for (i, &p) in self.parts.iter().enumerate() {
            loads[p as usize] += weights[i];
        }
        loads
    }
}

/// Uniform random assignment of items to parts (the paper's `fine-rd`).
pub fn random_partition(num_items: usize, num_parts: usize, seed: u64) -> Partition {
    assert!(num_parts > 0);
    let mut rng = SmallRng::seed_from_u64(seed);
    let parts = (0..num_items)
        .map(|_| rng.gen_range(0..num_parts as u32))
        .collect();
    Partition::new(parts, num_parts)
}

/// Contiguous block partition balanced by item weight (the paper's
/// `coarse-bl`): items are kept in order and split into `num_parts`
/// consecutive chunks of roughly equal total weight.
pub fn block_partition(weights: &[u64], num_parts: usize) -> Partition {
    assert!(num_parts > 0);
    let total: u64 = weights.iter().sum();
    let mut parts = vec![0u32; weights.len()];
    if weights.is_empty() {
        return Partition::new(parts, num_parts);
    }
    let target = (total as f64 / num_parts as f64).max(1.0);
    let mut acc = 0u64;
    let mut current = 0u32;
    for (i, &w) in weights.iter().enumerate() {
        // Move to the next part when the current one has reached its share,
        // keeping the last part as the catch-all.
        if (acc as f64) >= target * (current as f64 + 1.0) && (current as usize) < num_parts - 1 {
            current += 1;
        }
        parts[i] = current;
        acc += w;
    }
    Partition::new(parts, num_parts)
}

/// Greedy hypergraph-growing partition: parts are grown one at a time by
/// repeatedly absorbing the unassigned vertex with the largest number of
/// incident nets already touching the part, until the part reaches its
/// weight share.  Nets larger than `max_net_size_for_gain` are ignored for
/// gain propagation (they connect "everything to everything" and only slow
/// the heap down), matching standard practice.
pub fn greedy_partition(h: &Hypergraph, num_parts: usize, seed: u64) -> Partition {
    assert!(num_parts > 0);
    let n = h.num_vertices();
    if n == 0 {
        return Partition::new(vec![], num_parts);
    }
    let max_net_size_for_gain = 512usize;
    let (vptr, vnets) = h.vertex_to_nets();
    let total = h.total_vertex_weight();
    let target = (total as f64 / num_parts as f64) * 1.03;
    let mut rng = SmallRng::seed_from_u64(seed);

    let mut parts = vec![u32::MAX; n];
    let mut gains = vec![0i64; n];
    let mut unassigned = n;
    // No vertex below `fresh` is unassigned.
    let mut fresh = 0;

    for k in 0..num_parts as u32 {
        if unassigned == 0 {
            break;
        }
        let last_part = k as usize == num_parts - 1;
        let mut load = 0u64;
        // Reset gains for the new part.
        for g in gains.iter_mut() {
            *g = 0;
        }
        // Max-heap of (gain, vertex); stale entries are skipped lazily.
        let mut heap: BinaryHeap<(i64, usize)> = BinaryHeap::new();
        // Seed with a random unassigned vertex.
        let mut start = rng.gen_range(0..n);
        while parts[start] != u32::MAX {
            start = (start + 1) % n;
        }
        heap.push((0, start));

        while (load as f64) < target || last_part {
            // Pop the best candidate; refill from any unassigned vertex if
            // the frontier is exhausted (disconnected hypergraph).
            let v = loop {
                match heap.pop() {
                    Some((g, v)) => {
                        if parts[v] == u32::MAX && g == gains[v] {
                            break Some(v);
                        }
                    }
                    None => {
                        // Assignments are permanent, so the lowest
                        // unassigned vertex only moves up.
                        while fresh < n && parts[fresh] != u32::MAX {
                            fresh += 1;
                        }
                        if fresh == n {
                            break None;
                        }
                        heap.push((gains[fresh], fresh));
                    }
                }
            };
            let Some(v) = v else { break };
            parts[v] = k;
            load += h.vertex_weights[v];
            unassigned -= 1;
            if unassigned == 0 {
                break;
            }
            // Raise the gain of unassigned vertices sharing a (small) net.
            for &net in &vnets[vptr[v]..vptr[v + 1]] {
                let pins = h.net(net);
                if pins.len() > max_net_size_for_gain {
                    continue;
                }
                for &u in pins {
                    if parts[u] == u32::MAX {
                        gains[u] += h.net_weights[net] as i64;
                        heap.push((gains[u], u));
                    }
                }
            }
        }
    }
    // Any leftovers (possible when the target is hit early on the last
    // part's pass) go to the least-loaded part.
    if unassigned > 0 {
        let mut loads = vec![0u64; num_parts];
        for (v, &p) in parts.iter().enumerate() {
            if p != u32::MAX {
                loads[p as usize] += h.vertex_weights[v];
            }
        }
        for v in 0..n {
            if parts[v] == u32::MAX {
                let (best, _) = loads
                    .iter()
                    .enumerate()
                    .min_by_key(|&(_, &l)| l)
                    .expect("at least one part");
                parts[v] = best as u32;
                loads[best] += h.vertex_weights[v];
            }
        }
    }
    Partition::new(parts, num_parts)
}

/// FM-style refinement: repeated passes over the vertices, moving a vertex
/// whenever that strictly reduces the connectivity−1 cutsize — or, at equal
/// cutsize, strictly improves the load balance — while keeping every part
/// under `(1 + balance_eps) × average` load.  Zero-gain balance moves are
/// what lets a pass drain an overloaded part of an initially unbalanced
/// (e.g. random) partition without ever increasing the cut; they move
/// strictly from heavier to lighter parts, so the sum of squared loads
/// decreases monotonically and passes terminate.  Returns the number of
/// moves made.
pub fn refine_partition(
    h: &Hypergraph,
    partition: &mut Partition,
    balance_eps: f64,
    max_passes: usize,
) -> usize {
    let n = h.num_vertices();
    if n == 0 {
        return 0;
    }
    assert_eq!(partition.len(), n);
    let num_parts = partition.num_parts;
    let total = h.total_vertex_weight();
    let max_load = ((total as f64 / num_parts as f64) * (1.0 + balance_eps)).ceil() as u64;

    // Per-net part-count maps.
    let mut net_counts: Vec<FxHashMap<u32, u32>> = vec![FxHashMap::default(); h.num_nets()];
    for net in 0..h.num_nets() {
        for &p in h.net(net) {
            *net_counts[net].entry(partition.parts[p]).or_insert(0) += 1;
        }
    }
    let mut loads = vec![0u64; num_parts];
    for (v, &p) in partition.parts.iter().enumerate() {
        loads[p as usize] += h.vertex_weights[v];
    }
    let (vptr, vnets) = h.vertex_to_nets();

    let mut total_moves = 0usize;
    for _ in 0..max_passes {
        let mut moves_this_pass = 0usize;
        for v in 0..n {
            let from = partition.parts[v];
            let weight = h.vertex_weights[v];
            // Candidate targets: every part sharing a net with v.
            let mut connected: FxHashSet<u32> = FxHashSet::default();
            for &net in &vnets[vptr[v]..vptr[v + 1]] {
                for (&part, _) in net_counts[net].iter() {
                    connected.insert(part);
                }
            }
            // Exact connectivity−1 gain of moving v from `from` to `to`.
            let exact_gain = |to: u32| -> i64 {
                let mut gain = 0i64;
                for &net in &vnets[vptr[v]..vptr[v + 1]] {
                    let w = h.net_weights[net] as i64;
                    let cnt_from = *net_counts[net].get(&from).unwrap_or(&0);
                    let cnt_to = *net_counts[net].get(&to).unwrap_or(&0);
                    if cnt_from == 1 {
                        gain += w; // `from` disappears from the net
                    }
                    if cnt_to == 0 {
                        gain -= w; // `to` newly appears in the net
                    }
                }
                gain
            };
            // Evaluate every connected part: prefer the highest positive
            // cutsize gain; failing that, remember the lightest target for
            // a zero-gain balance move.
            let mut best_move: Option<(u32, i64)> = None;
            let mut balance_move: Option<u32> = None;
            for &to in connected.iter() {
                if to == from || loads[to as usize] + weight > max_load {
                    continue;
                }
                let gain = exact_gain(to);
                if gain > 0 {
                    if best_move.is_none_or(|(_, g)| gain > g) {
                        best_move = Some((to, gain));
                    }
                } else if gain == 0
                    && loads[from as usize] > loads[to as usize] + weight
                    && balance_move.is_none_or(|b| loads[to as usize] < loads[b as usize])
                {
                    balance_move = Some(to);
                }
            }
            let to = match best_move {
                Some((to, _)) => to,
                None => match balance_move {
                    Some(to) => to,
                    None => continue,
                },
            };
            // Execute the move.
            for &net in &vnets[vptr[v]..vptr[v + 1]] {
                let e = net_counts[net].entry(from).or_insert(0);
                *e -= 1;
                if *e == 0 {
                    net_counts[net].remove(&from);
                }
                *net_counts[net].entry(to).or_insert(0) += 1;
            }
            loads[from as usize] -= h.vertex_weights[v];
            loads[to as usize] += h.vertex_weights[v];
            partition.parts[v] = to;
            moves_this_pass += 1;
        }
        total_moves += moves_this_pass;
        if moves_this_pass == 0 {
            break;
        }
    }
    total_moves
}

/// Convenience: greedy growing followed by refinement — the `*-hp`
/// configuration of the experiments.
pub fn hypergraph_partition(h: &Hypergraph, num_parts: usize, seed: u64) -> Partition {
    let mut p = greedy_partition(h, num_parts, seed);
    // PaToH-like 3% balance tolerance: tight enough that the busiest rank's
    // TTMc load stays competitive with a random partition, loose enough to
    // leave the refiner room for cut-improving moves.
    refine_partition(h, &mut p, 0.03, 8);
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{coarse_grain_hypergraph, fine_grain_hypergraph};
    use datagen::{random_tensor, DatasetProfile, ProfileName};

    #[test]
    fn random_partition_in_range_and_deterministic() {
        let a = random_partition(100, 7, 3);
        let b = random_partition(100, 7, 3);
        assert_eq!(a, b);
        assert!(a.parts.iter().all(|&p| p < 7));
        assert_eq!(a.len(), 100);
    }

    #[test]
    fn block_partition_is_contiguous_and_balanced() {
        let weights = vec![1u64; 100];
        let p = block_partition(&weights, 4);
        // Contiguity: part ids never decrease.
        for w in p.parts.windows(2) {
            assert!(w[1] >= w[0]);
        }
        let loads = p.loads(&weights);
        assert_eq!(loads.iter().sum::<u64>(), 100);
        assert!(*loads.iter().max().unwrap() <= 26);
        assert!(*loads.iter().min().unwrap() >= 24);
    }

    #[test]
    fn block_partition_weighted() {
        // One heavy item at the front should not drag everything into part 0.
        let mut weights = vec![1u64; 99];
        weights.insert(0, 100);
        let p = block_partition(&weights, 4);
        assert_eq!(p.parts[0], 0);
        assert!(p.parts[99] == 3);
        let loads = p.loads(&weights);
        assert!(loads.iter().all(|&l| l > 0));
    }

    #[test]
    fn greedy_partition_covers_all_vertices() {
        let t = random_tensor(&[20, 20, 20], 600, 5);
        let h = fine_grain_hypergraph(&t);
        let p = greedy_partition(&h, 8, 1);
        assert_eq!(p.len(), 600);
        assert!(p.parts.iter().all(|&x| x < 8));
        // Every part should get something.
        let loads = h.part_loads(&p.parts, 8);
        assert!(loads.iter().all(|&l| l > 0), "{loads:?}");
    }

    #[test]
    fn greedy_partition_is_reasonably_balanced() {
        let t = random_tensor(&[30, 30, 30], 2000, 9);
        let h = fine_grain_hypergraph(&t);
        let p = greedy_partition(&h, 16, 2);
        let imb = h.imbalance(&p.parts, 16);
        assert!(imb < 1.35, "imbalance {imb}");
    }

    #[test]
    fn hypergraph_partition_beats_random_on_cutsize() {
        let t = random_tensor(&[25, 25, 25], 1500, 11);
        let h = fine_grain_hypergraph(&t);
        let hp = hypergraph_partition(&h, 8, 3);
        let rd = random_partition(h.num_vertices(), 8, 3);
        let cut_hp = h.connectivity_cutsize(&hp.parts, 8);
        let cut_rd = h.connectivity_cutsize(&rd.parts, 8);
        assert!(
            cut_hp < cut_rd,
            "hypergraph partition cut {cut_hp} not below random cut {cut_rd}"
        );
    }

    #[test]
    fn refinement_never_increases_cutsize() {
        let t = random_tensor(&[20, 15, 10], 800, 13);
        let h = fine_grain_hypergraph(&t);
        let mut p = random_partition(h.num_vertices(), 6, 1);
        let before = h.connectivity_cutsize(&p.parts, 6);
        let moves = refine_partition(&h, &mut p, 0.15, 3);
        let after = h.connectivity_cutsize(&p.parts, 6);
        assert!(after <= before, "cutsize increased {before} -> {after}");
        assert!(moves > 0, "refinement made no moves on a random partition");
    }

    #[test]
    fn refinement_respects_balance() {
        let t = random_tensor(&[20, 20, 20], 1000, 17);
        let h = fine_grain_hypergraph(&t);
        let mut p = random_partition(h.num_vertices(), 5, 2);
        refine_partition(&h, &mut p, 0.10, 3);
        let imb = h.imbalance(&p.parts, 5);
        assert!(
            imb <= 1.12,
            "imbalance {imb} exceeds the allowed 10% + rounding"
        );
    }

    #[test]
    fn partition_members_consistent() {
        let p = Partition::new(vec![0, 1, 0, 2], 3);
        let members = p.members();
        assert_eq!(members[0], vec![0, 2]);
        assert_eq!(members[1], vec![1]);
        assert_eq!(members[2], vec![3]);
    }

    #[test]
    #[should_panic]
    fn partition_rejects_out_of_range() {
        let _ = Partition::new(vec![0, 3], 3);
    }

    #[test]
    fn single_part_everything_in_part_zero() {
        let t = random_tensor(&[10, 10, 10], 100, 19);
        let h = fine_grain_hypergraph(&t);
        let p = greedy_partition(&h, 1, 5);
        assert!(p.parts.iter().all(|&x| x == 0));
        assert_eq!(h.connectivity_cutsize(&p.parts, 1), 0);
    }

    /// FNV-1a over a partition's part ids.
    fn digest(p: &Partition) -> u64 {
        p.parts.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &part| {
            (hash ^ u64::from(part)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// Both partitioners are pinned on the fine-grain and every coarse-grain
    /// hypergraph of an order-4 profile, so a speed-up cannot quietly change
    /// a partition.  A scaled profile's coarse-grain hypergraphs are mostly
    /// empty slices without nets, which the greedy pass reaches only by
    /// refilling its frontier.
    #[test]
    fn partitions_of_an_order4_profile_are_pinned() {
        let tensor = DatasetProfile::new(ProfileName::Delicious).generate(2_500, 7);
        let mut hypergraphs = vec![fine_grain_hypergraph(&tensor)];
        hypergraphs.extend((0..tensor.order()).map(|m| coarse_grain_hypergraph(&tensor, m)));
        let got: Vec<(u64, u64)> = (hypergraphs.iter())
            .map(|h| {
                let greedy = digest(&greedy_partition(h, 3, 5));
                (greedy, digest(&hypergraph_partition(h, 3, 5)))
            })
            .collect();
        // (greedy, greedy + refinement) for the fine grain, then modes 0–3.
        let pinned: [(u64, u64); 5] = [
            (0x9987_8b77_68af_81ae, 0x521e_8cb9_123f_cd3c),
            (0x617c_aaca_0730_13c5, 0x617c_aaca_0730_13c5),
            (0x95eb_935a_0ada_f6db, 0xf750_9628_112b_0c1b),
            (0x2b13_2ef3_e604_5765, 0x6762_d292_26c5_02b4),
            (0x2599_1483_665d_ce93, 0xd9f9_32e3_1223_17a5),
        ];
        assert_eq!(got, pinned);
    }

    #[test]
    fn empty_hypergraph_partition() {
        let h = Hypergraph::from_pin_lists(0, &[]);
        let p = greedy_partition(&h, 4, 1);
        assert!(p.is_empty());
    }
}
