//! The semi-warm period (paper §6).
//!
//! Cold-page offloading alone leaves a large hot working set resident for
//! the whole keep-alive — memory that is very likely never used again
//! (Fig 1: 89.2% inactive at a 10-minute timeout). FaaSMem therefore adds
//! a *semi-warm* period: after a per-function, pessimistically chosen
//! idle threshold, even hot pages drain to the pool, gradually and under
//! global bandwidth control. 95% of requests still find a fully warm
//! container; the unlucky tail pays a bounded recall penalty.

use std::collections::HashMap;

use faasmem_faas::FunctionId;
use faasmem_metrics::Cdf;
use faasmem_sim::{SimDuration, SimTime};

use crate::config::SemiWarmConfig;

/// Per-function semi-warm timing derived from observed container-reuse
/// intervals, plus the gradual-offload rate computation.
///
/// # Examples
///
/// ```
/// use faasmem_core::{SemiWarm, SemiWarmConfig};
/// use faasmem_sim::SimDuration;
/// use faasmem_workload::FunctionId;
///
/// let mut sw = SemiWarm::new(SemiWarmConfig::default());
/// let f = FunctionId(0);
/// for secs in [1u64, 2, 3, 4, 30] {
///     sw.record_reuse_interval(f, SimDuration::from_secs(secs));
/// }
/// // The 99th percentile of the observed intervals: 30 s.
/// assert_eq!(sw.start_timing(f), SimDuration::from_secs(30));
/// ```
#[derive(Debug, Clone)]
pub struct SemiWarm {
    config: SemiWarmConfig,
    /// Each function's reuse intervals, kept sorted as they arrive so a
    /// maintenance tick's timing query is an index lookup, not a copy
    /// and re-sort of the whole history.
    intervals: HashMap<FunctionId, Cdf>,
}

impl SemiWarm {
    /// Creates the tracker.
    pub fn new(config: SemiWarmConfig) -> Self {
        SemiWarm {
            config,
            intervals: HashMap::new(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &SemiWarmConfig {
        &self.config
    }

    /// Records one observed container-reused interval for `function`.
    pub fn record_reuse_interval(&mut self, function: FunctionId, interval: SimDuration) {
        self.intervals
            .entry(function)
            .or_default()
            .insert(interval.as_secs_f64());
    }

    /// Number of reuse samples gathered for `function`.
    pub fn samples_for(&self, function: FunctionId) -> usize {
        self.intervals.get(&function).map_or(0, Cdf::len)
    }

    /// The semi-warm start timing for `function`: the configured
    /// percentile of the reuse-interval CDF once enough samples exist,
    /// else the configured default.
    pub fn start_timing(&self, function: FunctionId) -> SimDuration {
        match self.intervals.get(&function) {
            Some(cdf) if cdf.len() >= self.config.min_samples => {
                let secs = cdf
                    .quantile(self.config.start_percentile)
                    .expect("non-empty sample set");
                SimDuration::from_secs_f64(secs)
            }
            _ => self.config.default_start,
        }
    }

    /// Whether a container idle for `idle` should be in its semi-warm
    /// period.
    pub fn should_be_semi_warm(&self, function: FunctionId, idle: SimDuration) -> bool {
        idle >= self.start_timing(function)
    }

    /// How many whole pages to offload in one maintenance tick for a
    /// container with `resident_bytes`, applying the governor's uniform
    /// `throttle` factor (§6.2). Fractional page budgets accumulate in
    /// `carry` across ticks so slow rates still make progress.
    pub fn pages_this_tick(
        &self,
        resident_bytes: u64,
        page_size: u64,
        tick: SimDuration,
        throttle: f64,
        carry: &mut f64,
    ) -> u64 {
        debug_assert!(page_size > 0);
        let rate = self.config.rate.bytes_per_sec(resident_bytes) * throttle.clamp(0.0, 1.0);
        let budget_bytes = rate * tick.as_secs_f64() + *carry;
        let pages = (budget_bytes / page_size as f64).floor();
        *carry = budget_bytes - pages * page_size as f64;
        pages as u64
    }
}

/// A per-container semi-warm activity record, aggregated for the Fig 14
/// applicability analysis.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SemiWarmActivity {
    /// When the container most recently entered semi-warm, if it is in
    /// one now.
    pub entered_at: Option<SimTime>,
    /// Total time the container has spent semi-warm so far.
    pub total: SimDuration,
    /// Bytes offloaded by semi-warm drains.
    pub bytes_offloaded: u64,
    /// Fractional-page carry between ticks.
    pub carry: f64,
}

impl SemiWarmActivity {
    /// Marks entry into semi-warm (idempotent while already in one).
    pub fn enter(&mut self, now: SimTime) {
        if self.entered_at.is_none() {
            self.entered_at = Some(now);
        }
    }

    /// Marks exit (a request arrived or the container is recycled),
    /// folding the elapsed span into the total.
    pub fn exit(&mut self, now: SimTime) {
        if let Some(t0) = self.entered_at.take() {
            self.total += now.saturating_since(t0);
        }
        self.carry = 0.0;
    }

    /// `true` while the container is in a semi-warm period.
    pub fn is_active(&self) -> bool {
        self.entered_at.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OffloadRate;

    fn config() -> SemiWarmConfig {
        SemiWarmConfig::default()
    }

    #[test]
    fn default_timing_until_enough_samples() {
        let mut sw = SemiWarm::new(config());
        let f = FunctionId(1);
        assert_eq!(sw.start_timing(f), config().default_start);
        for _ in 0..4 {
            sw.record_reuse_interval(f, SimDuration::from_secs(5));
        }
        assert_eq!(sw.samples_for(f), 4);
        assert_eq!(
            sw.start_timing(f),
            config().default_start,
            "4 < min_samples"
        );
        sw.record_reuse_interval(f, SimDuration::from_secs(5));
        assert_eq!(sw.start_timing(f), SimDuration::from_secs(5));
    }

    #[test]
    fn percentile_is_pessimistic() {
        let mut sw = SemiWarm::new(config());
        let f = FunctionId(0);
        // 95 short intervals and five long ones: the 99th percentile
        // must pick up the tail, not the median.
        for _ in 0..95 {
            sw.record_reuse_interval(f, SimDuration::from_secs(2));
        }
        for _ in 0..5 {
            sw.record_reuse_interval(f, SimDuration::from_secs(120));
        }
        assert_eq!(sw.start_timing(f), SimDuration::from_secs(120));
    }

    #[test]
    fn per_function_isolation() {
        let mut sw = SemiWarm::new(config());
        for _ in 0..10 {
            sw.record_reuse_interval(FunctionId(0), SimDuration::from_secs(1));
            sw.record_reuse_interval(FunctionId(1), SimDuration::from_secs(100));
        }
        assert!(sw.start_timing(FunctionId(0)) < sw.start_timing(FunctionId(1)));
    }

    #[test]
    fn should_be_semi_warm_threshold() {
        let mut sw = SemiWarm::new(config());
        let f = FunctionId(0);
        for _ in 0..10 {
            sw.record_reuse_interval(f, SimDuration::from_secs(10));
        }
        assert!(!sw.should_be_semi_warm(f, SimDuration::from_secs(9)));
        assert!(sw.should_be_semi_warm(f, SimDuration::from_secs(10)));
    }

    #[test]
    fn incremental_timing_matches_batch_cdf_oracle() {
        // Random reuse streams over two functions, drawn from a small
        // value set so duplicates are common, with a share of censored
        // cold-start gaps pinned at the cap the policy clamps them to.
        // After every record the timing must equal the batch CDF over
        // the whole history, on both sides of `min_samples`.
        let censor_cap = SemiWarmConfig::default().cold_start_censor_cap;
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for (percentile, min_samples) in [(0.99, 5), (0.5, 1), (0.95, 12), (1.0, 3)] {
            let config = SemiWarmConfig {
                start_percentile: percentile,
                min_samples,
                ..config()
            };
            let mut sw = SemiWarm::new(config.clone());
            let mut history: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
            for _ in 0..400 {
                let r = next();
                let f = (r & 1) as usize;
                let interval = match (r >> 1) % 8 {
                    0 => censor_cap,
                    1 => SimDuration::ZERO,
                    _ => SimDuration::from_millis((r >> 8) % 40 * 250),
                };
                sw.record_reuse_interval(FunctionId(f as u32), interval);
                history[f].push(interval.as_secs_f64());
                for (g, samples) in history.iter().enumerate() {
                    let expected = if samples.len() >= min_samples {
                        let cdf = Cdf::from_samples(samples.iter().copied());
                        SimDuration::from_secs_f64(cdf.quantile(percentile).unwrap())
                    } else {
                        config.default_start
                    };
                    let id = FunctionId(g as u32);
                    assert_eq!(sw.samples_for(id), samples.len());
                    assert_eq!(
                        sw.start_timing(id),
                        expected,
                        "p={percentile}, n={}",
                        samples.len()
                    );
                }
            }
        }
    }

    #[test]
    fn page_budget_amount_based() {
        let sw = SemiWarm::new(SemiWarmConfig {
            rate: OffloadRate::MibPerSec(1.0),
            ..config()
        });
        let mut carry = 0.0;
        // 1 MiB/s on 64 KiB pages over 1 s = 16 pages.
        let pages = sw.pages_this_tick(
            1 << 30,
            64 * 1024,
            SimDuration::from_secs(1),
            1.0,
            &mut carry,
        );
        assert_eq!(pages, 16);
        assert_eq!(carry, 0.0);
    }

    #[test]
    fn page_budget_respects_throttle() {
        let sw = SemiWarm::new(SemiWarmConfig {
            rate: OffloadRate::MibPerSec(1.0),
            ..config()
        });
        let mut carry = 0.0;
        let pages = sw.pages_this_tick(
            1 << 30,
            64 * 1024,
            SimDuration::from_secs(1),
            0.5,
            &mut carry,
        );
        assert_eq!(pages, 8);
    }

    #[test]
    fn fractional_budget_carries_over() {
        let sw = SemiWarm::new(SemiWarmConfig {
            rate: OffloadRate::MibPerSec(0.03), // ~0.5 page/s at 64 KiB
            ..config()
        });
        let mut carry = 0.0;
        let mut total = 0;
        for _ in 0..10 {
            total += sw.pages_this_tick(
                1 << 30,
                64 * 1024,
                SimDuration::from_secs(1),
                1.0,
                &mut carry,
            );
        }
        // 0.03 MiB/s × 10 s = 0.3 MiB = 4.8 pages → 4 whole pages.
        assert_eq!(total, 4);
        assert!(carry > 0.0);
    }

    #[test]
    fn percent_rate_scales_with_resident() {
        let sw = SemiWarm::new(SemiWarmConfig {
            rate: OffloadRate::PercentPerSec(0.01),
            ..config()
        });
        let mut carry = 0.0;
        let big = sw.pages_this_tick(
            1 << 30,
            64 * 1024,
            SimDuration::from_secs(1),
            1.0,
            &mut carry,
        );
        carry = 0.0;
        let small = sw.pages_this_tick(
            1 << 24,
            64 * 1024,
            SimDuration::from_secs(1),
            1.0,
            &mut carry,
        );
        assert!(big > small);
    }

    #[test]
    fn activity_accumulates_across_periods() {
        let mut a = SemiWarmActivity::default();
        assert!(!a.is_active());
        a.enter(SimTime::from_secs(10));
        assert!(a.is_active());
        a.enter(SimTime::from_secs(11)); // idempotent
        a.exit(SimTime::from_secs(25));
        assert_eq!(a.total, SimDuration::from_secs(15));
        assert!(!a.is_active());
        a.enter(SimTime::from_secs(100));
        a.exit(SimTime::from_secs(110));
        assert_eq!(a.total, SimDuration::from_secs(25));
    }

    #[test]
    fn exit_without_enter_is_noop() {
        let mut a = SemiWarmActivity::default();
        a.exit(SimTime::from_secs(5));
        assert_eq!(a.total, SimDuration::ZERO);
    }
}
