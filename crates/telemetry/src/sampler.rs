//! Deterministic periodic sampling of platform gauges.
//!
//! A [`SampleSpec`] names an interval (in sim-time) and a set of
//! series groups; the platform owns the gauge values and calls
//! [`Sampler::record_due_rows`] after every event it processes. The
//! sampler materialises one row per interval boundary crossed since
//! the last event — so rows land exactly on `k * interval` ticks, but
//! no event is ever injected into the simulation queue. Between
//! events the platform state is constant (it is a discrete-event
//! simulation), so the value observed "late" at the next event equals
//! the value at the boundary; gauges that decay continuously with
//! time (link utilisation, backlogs) are evaluated *at* the boundary
//! timestamp by the platform's row closure.
//!
//! The handle is `Rc`-based and clonable, mirroring
//! [`faasmem_trace::Tracer`]: a disabled sampler is a `None` and costs
//! one branch per event.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::str::FromStr;

use faasmem_sim::time::{SimDuration, SimTime};

use crate::series::TimeSeries;

/// A family of series, switchable as a unit from `--series-select`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeriesGroup {
    /// Container lifecycle: counts per stage, warm/semi-warm split,
    /// keep-alive queue depth (`faas.*`).
    Faas,
    /// Page-table occupancy: resident/offloaded pages and bytes,
    /// generation-age histogram (`mem.*`).
    Mem,
    /// Remote-pool health: link busy fractions, backlogs, governor
    /// token level, breaker state (`pool.*`).
    Pool,
    /// Metrics-registry counter deltas per interval (`registry.*`).
    Registry,
}

impl SeriesGroup {
    fn bit(self) -> u8 {
        match self {
            SeriesGroup::Faas => 1 << 0,
            SeriesGroup::Mem => 1 << 1,
            SeriesGroup::Pool => 1 << 2,
            SeriesGroup::Registry => 1 << 3,
        }
    }
}

impl FromStr for SeriesGroup {
    type Err = String;

    fn from_str(s: &str) -> Result<SeriesGroup, String> {
        match s {
            "faas" => Ok(SeriesGroup::Faas),
            "mem" => Ok(SeriesGroup::Mem),
            "pool" => Ok(SeriesGroup::Pool),
            "registry" => Ok(SeriesGroup::Registry),
            other => Err(format!(
                "unknown series group {other:?} (expected faas, mem, pool or registry)"
            )),
        }
    }
}

/// Bit-set of enabled [`SeriesGroup`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeriesMask(u8);

impl SeriesMask {
    /// Every group enabled (the default for `--series`).
    pub const ALL: SeriesMask = SeriesMask(0b1111);
    /// No group enabled.
    pub const NONE: SeriesMask = SeriesMask(0);

    /// A mask with exactly one group enabled.
    pub fn only(group: SeriesGroup) -> SeriesMask {
        SeriesMask(group.bit())
    }

    /// This mask with `group` also enabled.
    pub fn with(self, group: SeriesGroup) -> SeriesMask {
        SeriesMask(self.0 | group.bit())
    }

    /// Whether `group` is enabled.
    pub fn contains(self, group: SeriesGroup) -> bool {
        self.0 & group.bit() != 0
    }

    /// Parses a comma-separated group list (`"faas,pool"`). Empty
    /// segments are ignored; an unknown name is an error.
    pub fn parse_list(list: &str) -> Result<SeriesMask, String> {
        let mut mask = SeriesMask::NONE;
        for part in list.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            mask = mask.with(part.parse::<SeriesGroup>()?);
        }
        Ok(mask)
    }
}

impl Default for SeriesMask {
    fn default() -> SeriesMask {
        SeriesMask::ALL
    }
}

/// What to sample: how often (in sim-time) and which groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleSpec {
    /// Sampling period. Rows land on multiples of this tick.
    pub interval: SimDuration,
    /// Which series groups to record.
    pub select: SeriesMask,
}

impl SampleSpec {
    /// All groups at the given interval.
    pub fn every(interval: SimDuration) -> SampleSpec {
        SampleSpec {
            interval,
            select: SeriesMask::ALL,
        }
    }

    /// Validation problems, if any (used by the harness at startup).
    pub fn validate(&self) -> Vec<String> {
        let mut problems = Vec::new();
        if self.interval.is_zero() {
            problems.push("sample spec: interval must be positive".into());
        }
        if self.select == SeriesMask::NONE {
            problems.push("sample spec: no series groups selected".into());
        }
        problems
    }
}

struct SamplerInner {
    spec: SampleSpec,
    series: TimeSeries,
    /// Next interval boundary not yet recorded. Starts at ZERO so
    /// every run opens with a baseline row at t=0.
    next_due: SimTime,
    /// Previous cumulative values for delta-valued series.
    last_counters: BTreeMap<String, f64>,
}

/// Clonable handle to a per-cell sampling session. A disabled sampler
/// (`Sampler::disabled()`) is a `None` inside and costs one branch
/// per event in the platform loop.
#[derive(Clone, Default)]
pub struct Sampler {
    inner: Option<Rc<RefCell<SamplerInner>>>,
}

impl Sampler {
    /// A sampler that records nothing.
    pub fn disabled() -> Sampler {
        Sampler { inner: None }
    }

    /// A sampler recording per `spec`.
    pub fn recording(spec: SampleSpec) -> Sampler {
        Sampler {
            inner: Some(Rc::new(RefCell::new(SamplerInner {
                spec,
                series: TimeSeries::new(),
                next_due: SimTime::ZERO,
                last_counters: BTreeMap::new(),
            }))),
        }
    }

    /// Whether any recording will happen.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Whether `group` is selected. Always false when disabled.
    pub fn wants(&self, group: SeriesGroup) -> bool {
        self.inner
            .as_ref()
            .is_some_and(|inner| inner.borrow().spec.select.contains(group))
    }

    /// The configured spec, if enabled.
    pub fn spec(&self) -> Option<SampleSpec> {
        self.inner.as_ref().map(|inner| inner.borrow().spec)
    }

    /// Records one row per interval boundary in `(last recorded, now]`
    /// — none if no boundary was crossed. `row` is called once per
    /// boundary with the exact boundary timestamp and must return the
    /// gauge values as of that instant (for a discrete-event sim,
    /// state gauges are constant since the previous event; only
    /// time-decaying gauges need the timestamp).
    pub fn record_due_rows<F>(&self, now: SimTime, mut row: F)
    where
        F: FnMut(SimTime) -> Vec<(&'static str, f64)>,
    {
        let Some(inner) = self.inner.as_ref() else {
            return;
        };
        loop {
            // The borrow is released around the `row` callback so it
            // may call back into this sampler (e.g. `counter_delta`).
            let due = {
                let inner = inner.borrow();
                if inner.next_due > now {
                    return;
                }
                inner.next_due
            };
            let values = row(due);
            let mut inner = inner.borrow_mut();
            inner.series.push_row(due.as_micros(), values);
            let interval = inner.spec.interval;
            debug_assert!(!interval.is_zero(), "validated at registration");
            inner.next_due = due.saturating_add(interval);
            if inner.next_due == due {
                return; // interval of zero despite validation: refuse to spin
            }
        }
    }

    /// Converts a cumulative counter reading into the delta since the
    /// previous call for `name` (the first call yields the full
    /// value). Lets the platform report monotone registry counters as
    /// per-interval rates.
    pub fn counter_delta(&self, name: &str, cumulative: f64) -> f64 {
        let Some(inner) = self.inner.as_ref() else {
            return 0.0;
        };
        let mut inner = inner.borrow_mut();
        // The key is allocated once per name, on its first call.
        let prev = match inner.last_counters.get_mut(name) {
            Some(last) => std::mem::replace(last, cumulative),
            None => {
                inner.last_counters.insert(name.to_string(), cumulative);
                0.0
            }
        };
        cumulative - prev
    }

    /// Drains the recorded series out of the handle. Plain data only;
    /// safe to send across threads.
    pub fn take_series(&self) -> TimeSeries {
        match self.inner.as_ref() {
            Some(inner) => inner.borrow_mut().series.take(),
            None => TimeSeries::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec_secs(secs: u64) -> SampleSpec {
        SampleSpec::every(SimDuration::from_secs(secs))
    }

    #[test]
    fn disabled_sampler_records_nothing() {
        let s = Sampler::disabled();
        s.record_due_rows(SimTime::from_secs(100), |_| vec![("x", 1.0)]);
        assert!(!s.is_enabled());
        assert!(s.take_series().is_empty());
    }

    #[test]
    fn rows_land_on_interval_boundaries_only() {
        let s = Sampler::recording(spec_secs(1));
        // Events at 0.4s, 2.5s: boundaries 0s (baseline), 1s, 2s.
        s.record_due_rows(SimTime::from_millis(400), |t| vec![("t", t.as_secs_f64())]);
        s.record_due_rows(SimTime::from_millis(2_500), |t| {
            vec![("t", t.as_secs_f64())]
        });
        let ts = s.take_series();
        assert_eq!(ts.ticks(), [0, 1_000_000, 2_000_000]);
        assert_eq!(ts.column("t").unwrap(), [0.0, 1.0, 2.0]);
    }

    #[test]
    fn boundary_exactly_at_event_time_is_recorded_once() {
        let s = Sampler::recording(spec_secs(1));
        s.record_due_rows(SimTime::from_secs(1), |_| vec![("x", 1.0)]);
        s.record_due_rows(SimTime::from_secs(1), |_| vec![("x", 2.0)]);
        let ts = s.take_series();
        // t=0 and t=1s from the first call; the second call sees no
        // new boundary.
        assert_eq!(ts.ticks(), [0, 1_000_000]);
    }

    #[test]
    fn counter_delta_reports_per_interval_rate() {
        let s = Sampler::recording(spec_secs(1));
        assert_eq!(s.counter_delta("req", 5.0), 5.0);
        assert_eq!(s.counter_delta("req", 7.0), 2.0);
        assert_eq!(s.counter_delta("req", 7.0), 0.0);
    }

    #[test]
    fn mask_parse_list_roundtrip() {
        let mask = SeriesMask::parse_list("faas, pool,").unwrap();
        assert!(mask.contains(SeriesGroup::Faas));
        assert!(mask.contains(SeriesGroup::Pool));
        assert!(!mask.contains(SeriesGroup::Mem));
        assert!(SeriesMask::parse_list("bogus").is_err());
        assert_eq!(SeriesMask::parse_list("").unwrap(), SeriesMask::NONE);
    }

    #[test]
    fn zero_interval_spec_fails_validation() {
        let spec = SampleSpec::every(SimDuration::ZERO);
        assert!(!spec.validate().is_empty());
        let none = SampleSpec {
            interval: SimDuration::from_secs(1),
            select: SeriesMask::NONE,
        };
        assert!(!none.validate().is_empty());
    }
}
