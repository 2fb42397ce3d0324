//! The analytic sharding throughput model (paper §VI-A).
//!
//! "Sharding splits the network in K partitions, no longer forcing all
//! nodes in the network to process all incoming transactions. Every
//! shard k ∈ K, in its simplest form, has its own transaction history
//! … In a more complex scenario, cross shard communication is
//! available, meaning that … a transaction from k can trigger an event
//! in m."
//!
//! The model: each shard processes work at a fixed rate. A
//! single-shard transaction costs one work unit in its home shard; a
//! cross-shard transaction costs one unit in the source shard (debit +
//! outbound receipt) and then one unit in the destination shard
//! (credit), the standard two-phase scheme. Aggregate throughput
//! therefore scales with K but degrades with the cross-shard fraction
//! `f` as `K·C / (1 + f)`. Experiment `e13` prints this ceiling as its
//! theory column beside the throughput it measures through
//! `dlt-bench::shardnet`, which runs each shard as a simulated M/D/1
//! validator on the parallel shard executor.

/// Sharded-network parameters.
#[derive(Debug, Clone, Copy)]
pub struct ShardingParams {
    /// Number of shards (K).
    pub shards: usize,
    /// Work units (transaction phases) each shard processes per second.
    pub per_shard_rate: f64,
    /// Fraction of transactions whose recipient lives on another shard.
    pub cross_shard_fraction: f64,
}

impl ShardingParams {
    /// The analytic throughput ceiling: `K·C / (1 + f)` completed
    /// transactions per second (each cross-shard tx consumes two of
    /// the network's work units).
    pub fn theoretical_tps(&self) -> f64 {
        self.shards as f64 * self.per_shard_rate / (1.0 + self.cross_shard_fraction)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theoretical_tps_is_k_c_over_one_plus_f() {
        let p = ShardingParams {
            shards: 8,
            per_shard_rate: 50.0,
            cross_shard_fraction: 0.25,
        };
        assert_eq!(p.theoretical_tps(), 8.0 * 50.0 / 1.25);
    }

    fn params(shards: usize, rate: f64, f: f64) -> ShardingParams {
        ShardingParams {
            shards,
            per_shard_rate: rate,
            cross_shard_fraction: f,
        }
    }

    #[test]
    fn single_shard_processes_at_capacity() {
        assert_eq!(params(1, 100.0, 0.0).theoretical_tps(), 100.0);
    }

    #[test]
    fn cross_shard_traffic_costs_throughput() {
        let tps_f0 = params(8, 50.0, 0.0).theoretical_tps();
        let tps_f30 = params(8, 50.0, 0.3).theoretical_tps();
        let tps_f100 = params(8, 50.0, 1.0).theoretical_tps();
        assert!(tps_f30 < tps_f0, "{tps_f30} < {tps_f0}");
        // f=1 halves throughput (every tx costs two units).
        assert_eq!(tps_f100 / tps_f0, 0.5);
    }

    #[test]
    fn accounting_consistent() {
        // At the ceiling, local transactions (one work unit each) plus
        // cross-shard ones (two units each) use exactly K·C units.
        for (k, f) in [(1usize, 0.0), (2, 0.5), (4, 0.3), (16, 1.0)] {
            let tps = params(k, 40.0, f).theoretical_tps();
            let units = tps * (1.0 - f) + 2.0 * tps * f;
            assert!(
                (units - k as f64 * 40.0).abs() < 1e-9,
                "k={k} f={f}: {units}"
            );
        }
    }
}
