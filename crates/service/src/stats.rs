//! Service-level counters, snapshotted per call.

use std::collections::BTreeMap;

/// A point-in-time snapshot of the service's counters, assembled by
/// [`DecompositionService::stats`](crate::DecompositionService::stats).
#[derive(Debug, Clone, Default)]
pub struct ServiceStats {
    /// Requests executed (successes and failures).
    pub completed: u64,
    /// Requests that returned an error.
    pub failed: u64,
    /// Completed requests per kind.
    pub ingests: u64,
    /// Completed decompositions.
    pub decomposes: u64,
    /// Completed predictions.
    pub predicts: u64,
    /// Completed evictions.
    pub evicts: u64,
    /// Decompositions flagged truncated by their deadline.
    pub truncated_decomposes: u64,
    /// Requests answered with [`hooi::TuckerError::SolvePanicked`] — a
    /// caught panic or a hit on an already-quarantined tensor.  Each one is
    /// also counted in `failed`.
    pub panicked: u64,
    /// Tensor ids currently quarantined after a panicking solve or
    /// predict, in key order.  A fresh ingest under the same id lifts the
    /// quarantine.
    pub quarantined_tensors: Vec<String>,
    /// Plan-cache lookups that found a cached session.
    pub plan_cache_hits: u64,
    /// Plan-cache lookups that had to re-plan.
    pub plan_cache_misses: u64,
    /// Bytes currently held by cached plans.
    pub plan_cache_bytes: usize,
    /// Number of currently cached plans.
    pub plan_cache_entries: usize,
    /// Tensor ids evicted from the plan cache under memory pressure, in
    /// eviction order — a deterministic function of the request history.
    pub evicted_plans: Vec<String>,
    /// Flops charged per tenant by the fairness cost model.
    pub charged_flops: BTreeMap<String, u64>,
}

impl ServiceStats {
    /// Fraction of plan lookups served from the cache (1.0 when there were
    /// no lookups).
    pub fn cache_hit_rate(&self) -> f64 {
        let lookups = self.plan_cache_hits + self.plan_cache_misses;
        if lookups == 0 {
            1.0
        } else {
            self.plan_cache_hits as f64 / lookups as f64
        }
    }

    /// Spread of charged work across tenants: `max / min` of the per-tenant
    /// flop accounts (1.0 with fewer than two tenants, infinite if a tenant
    /// was never charged).  Under a demand-balanced mix a fair scheduler
    /// keeps this close to 1; it says nothing by itself under a skewed mix,
    /// where the interesting quantity is the pick-time deficit (asserted by
    /// the request-mix replay test in `tests/service.rs` instead).
    pub fn fairness_spread(&self) -> f64 {
        let mut lo = u64::MAX;
        let mut hi = 0u64;
        for &f in self.charged_flops.values() {
            lo = lo.min(f);
            hi = hi.max(f);
        }
        if self.charged_flops.len() < 2 || hi == 0 {
            1.0
        } else if lo == 0 {
            f64::INFINITY
        } else {
            hi as f64 / lo as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_counts_lookups_only() {
        let stats = ServiceStats {
            plan_cache_hits: 3,
            plan_cache_misses: 1,
            ..ServiceStats::default()
        };
        assert!((stats.cache_hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(ServiceStats::default().cache_hit_rate(), 1.0);
    }

    #[test]
    fn fairness_spread_edge_cases() {
        let mut stats = ServiceStats::default();
        assert_eq!(stats.fairness_spread(), 1.0);
        stats.charged_flops.insert("a".into(), 100);
        assert_eq!(stats.fairness_spread(), 1.0);
        stats.charged_flops.insert("b".into(), 50);
        assert!((stats.fairness_spread() - 2.0).abs() < 1e-12);
        stats.charged_flops.insert("c".into(), 0);
        assert!(stats.fairness_spread().is_infinite());
    }
}
