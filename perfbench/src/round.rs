//! One round: set up every cell of a workload, then run, summarize and
//! export each, timing set-up and the timed phase apart.
//!
//! Set-up is trace synthesis plus platform and policy build. The timed
//! phase is `PlatformSim::run`, `RunReport::summarize` and, when the
//! workload's instruments are on, the in-memory JSONL, Chrome and
//! series exports. Output checks and digests run outside both.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use faasmem_core::StatsHandle;
use faasmem_faas::{PlatformSim, RunReport, RunSummary, WasteComponent};
use faasmem_sim::SimDuration;
use faasmem_telemetry::{SampleSpec, Sampler};
use faasmem_trace::{chrome_trace, ChromeGroup, LayerMask, Tracer};
use faasmem_workload::{BenchmarkSpec, InvocationTrace};

use crate::timed::{PolicyTiming, TimedPolicy, TimingHandle};
use crate::workloads::{CellSpec, Group, Policy, Workload};

/// How a round runs its cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The end-to-end measurement: no benchmark spans, no policy wrapper.
    Plain,
    /// The per-layer measurement: every policy wrapped in
    /// [`TimedPolicy`], every call timed in its own span.
    Traced,
    /// Like `Plain`, with the workload's instruments forced off — the
    /// reference that prices them.
    Bare,
}

/// Host seconds of one cell's calls into each layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct Spans {
    /// `PlatformSim::run`.
    pub run: f64,
    /// `RunReport::summarize`.
    pub summarize: f64,
    /// Trace JSONL export.
    pub export_jsonl: f64,
    /// Trace Chrome export.
    pub export_chrome: f64,
    /// Telemetry series export.
    pub export_series: f64,
}

/// What a cell produced.
#[derive(Debug, Clone)]
pub struct CellData {
    /// The policy the cell ran.
    pub policy: Policy,
    /// Index of the cell's group in the workload.
    pub group: usize,
    /// The run summary.
    pub summary: RunSummary,
    /// Events the drive loop processed.
    pub events: u64,
    /// Per-request end-to-end latency, in completion order.
    pub latencies: Vec<SimDuration>,
    /// Registry counter `containers.created`.
    pub containers_created: u64,
    /// Registry counter `mem.demand_faults`.
    pub demand_faults: u64,
    /// FaaSMem's hot-pool rollbacks and semi-warm bytes, for FaaSMem cells.
    pub faasmem: Option<(u64, u64)>,
    /// The wrapper's record, in traced rounds.
    pub timing: Option<PolicyTiming>,
    /// Trace events recorded.
    pub trace_events: u64,
    /// Bytes of the JSONL and Chrome trace exports.
    pub trace_bytes: u64,
    /// Telemetry series rows.
    pub series_rows: u64,
    /// Host time of the cell's timed calls.
    pub spans: Spans,
    /// Digest of every simulated statistic the cell produced.
    pub digest: u64,
    /// Digest of the statistics that do not depend on the instruments.
    pub core_digest: u64,
}

impl CellData {
    /// Host seconds of the cell's timed phase.
    pub fn timed_secs(&self) -> f64 {
        let s = &self.spans;
        s.run + s.summarize + s.export_jsonl + s.export_chrome + s.export_series
    }
}

/// One cell's data, or why it failed (with its seed and coordinates).
pub type CellResult = Result<CellData, String>;

/// Host seconds of set-up a round gathers at least. A set-up takes about
/// a millisecond, so a round repeats it, back to back, until this much
/// has accumulated and at least [`SETUP_MIN_REPEATS`] times; the cells
/// run from the last repeat. Every repeat is one `setup_s` sample.
const SETUP_MIN_SECS: f64 = 0.25;
/// Set-ups per round however long a set-up takes.
const SETUP_MIN_REPEATS: usize = 5;

/// Everything one round measured.
#[derive(Debug, Clone)]
pub struct Round {
    /// How the round ran.
    pub mode: Mode,
    /// Per set-up repeat: host seconds of trace synthesis, and of
    /// platform and policy build.
    pub setups: Vec<(f64, f64)>,
    /// Host seconds of the timed phase over all cells.
    pub timed_s: f64,
    /// Invocations synthesized over all groups.
    pub invocations: u64,
    /// Per cell, in workload order.
    pub cells: Vec<CellResult>,
}

impl Round {
    /// Median host seconds of one of the round's set-ups.
    pub fn setup_s(&self) -> f64 {
        median(
            self.setups
                .iter()
                .map(|&(synth, build)| synth + build)
                .collect(),
        )
    }

    /// Simulated seconds the round completed.
    pub fn sim_s(&self) -> f64 {
        self.ok_cells().map(|c| c.summary.sim_secs).sum()
    }

    /// The cells that passed.
    pub fn ok_cells(&self) -> impl Iterator<Item = &CellData> + '_ {
        self.cells.iter().filter_map(|c| c.as_ref().ok())
    }

    /// Cells that panicked or failed a check.
    pub fn failed(&self) -> usize {
        self.cells.iter().filter(|c| c.is_err()).count()
    }

    /// Frees the per-request latency samples (the digests keep them).
    pub fn drop_samples(&mut self) {
        for data in self.cells.iter_mut().flatten() {
            data.latencies = Vec::new();
        }
    }

    /// Digest over every cell's digest (failed cells hash their message).
    pub fn digest(&self, core: bool) -> u64 {
        let mut h = Fnv::new();
        for cell in &self.cells {
            match cell {
                Ok(d) => h.u64(if core { d.core_digest } else { d.digest }),
                Err(e) => h.bytes(e.as_bytes()),
            }
        }
        h.finish()
    }
}

/// A cell between set-up and run.
struct Prepared {
    sim: PlatformSim,
    stats: Option<StatsHandle>,
    timing: Option<TimingHandle>,
    tracer: Tracer,
    sampler: Sampler,
}

/// One group's set-up: its trace and its built cells, or the panic of
/// its synthesis.
type GroupSetUp = std::thread::Result<(InvocationTrace, Vec<std::thread::Result<Prepared>>)>;

/// Runs one round of `workload`.
pub fn run_round(workload: &Workload, mode: Mode) -> Round {
    let instruments = workload.instruments && mode != Mode::Bare;
    let mut round = Round {
        mode,
        setups: Vec::new(),
        timed_s: 0.0,
        invocations: 0,
        cells: Vec::with_capacity(workload.cell_count()),
    };

    // Set-up: every trace and every platform, before any cell runs.
    let mut prepared = Vec::new();
    let mut setup_total = 0.0;
    while round.setups.len() < SETUP_MIN_REPEATS || setup_total < SETUP_MIN_SECS {
        let (mut synth_s, mut build_s) = (0.0, 0.0);
        prepared = Vec::with_capacity(workload.groups.len());
        round.invocations = 0;
        for group in &workload.groups {
            let start = Instant::now();
            let trace = catch_unwind(AssertUnwindSafe(|| group.synthesize()));
            synth_s += start.elapsed().as_secs_f64();
            let set_up: GroupSetUp = trace.map(|trace| {
                round.invocations += trace.len() as u64;
                let start = Instant::now();
                let cells = group
                    .cells
                    .iter()
                    .map(|cell| {
                        catch_unwind(AssertUnwindSafe(|| {
                            prepare(&group.spec, cell, mode == Mode::Traced, instruments)
                        }))
                    })
                    .collect();
                build_s += start.elapsed().as_secs_f64();
                (trace, cells)
            });
            prepared.push(set_up);
        }
        round.setups.push((synth_s, build_s));
        setup_total += synth_s + build_s;
    }

    // Timed phase, one cell at a time; checks and digests outside it.
    for (gi, (group, cells)) in workload.groups.iter().zip(prepared).enumerate() {
        let (trace, built) = match cells {
            Ok(ok) => ok,
            Err(payload) => {
                let why = format!("synthesis: {}", panic_text(&payload));
                for cell in &group.cells {
                    round.cells.push(Err(describe(group, cell, &why)));
                }
                continue;
            }
        };
        for (cell, built) in group.cells.iter().zip(built) {
            let outcome = match built {
                Ok(p) => {
                    let ran = catch_unwind(AssertUnwindSafe(|| {
                        run_cell(p, &trace, cell, gi, instruments)
                    }));
                    match ran {
                        Ok(data) => {
                            round.timed_s += data.timed_secs();
                            let problems = check(&data, trace.len(), instruments);
                            if problems.is_empty() {
                                Ok(data)
                            } else {
                                Err(describe(group, cell, &problems.join("; ")))
                            }
                        }
                        Err(payload) => Err(describe(group, cell, &panic_text(&payload))),
                    }
                }
                Err(payload) => Err(describe(
                    group,
                    cell,
                    &format!("build: {}", panic_text(&payload)),
                )),
            };
            round.cells.push(outcome);
        }
    }
    round
}

fn prepare(spec: &BenchmarkSpec, cell: &CellSpec, traced: bool, instruments: bool) -> Prepared {
    let (policy, stats) = cell.policy.build();
    let (policy, timing) = if traced {
        let (wrapped, handle) = TimedPolicy::wrap(policy);
        (Box::new(wrapped) as Box<_>, Some(handle))
    } else {
        (policy, None)
    };
    let (tracer, sampler) = if instruments {
        (
            Tracer::recording(LayerMask::ALL),
            Sampler::recording(SampleSpec::every(SimDuration::from_secs(1))),
        )
    } else {
        (Tracer::disabled(), Sampler::disabled())
    };
    let sim = PlatformSim::builder()
        .register_function(spec.clone())
        .config(cell.config.clone())
        .blame(instruments)
        .memory_anatomy(instruments)
        .tracer(tracer.clone())
        .sampler(sampler.clone())
        .policy(policy)
        .build();
    Prepared {
        sim,
        stats,
        timing,
        tracer,
        sampler,
    }
}

fn run_cell(
    mut p: Prepared,
    trace: &InvocationTrace,
    cell: &CellSpec,
    group: usize,
    instruments: bool,
) -> CellData {
    let mut spans = Spans::default();
    let t0 = Instant::now();
    let mut report = p.sim.run(trace);
    let t1 = Instant::now();
    let summary = report.summarize();
    let t2 = Instant::now();
    spans.run = (t1 - t0).as_secs_f64();
    spans.summarize = (t2 - t1).as_secs_f64();

    let mut digest = Fnv::new();
    let mut trace_events = 0;
    let mut trace_bytes = 0;
    let mut series_rows = 0;
    if instruments {
        // Each export is hashed and dropped before the next is built, so
        // at most one of them is resident at a time.
        let events = p.tracer.take_events();
        trace_events = events.len() as u64;
        let t3 = Instant::now();
        let mut jsonl = String::new();
        for event in &events {
            jsonl.push_str(&event.jsonl_line(Some(0)));
            jsonl.push('\n');
        }
        spans.export_jsonl = t3.elapsed().as_secs_f64();
        trace_bytes += jsonl.len() as u64;
        digest.bytes(jsonl.as_bytes());
        drop(jsonl);

        let t4 = Instant::now();
        let chrome = chrome_trace(&[ChromeGroup {
            pid: 0,
            name: cell.label.clone(),
            events,
        }])
        .to_pretty();
        spans.export_chrome = t4.elapsed().as_secs_f64();
        trace_bytes += chrome.len() as u64;
        drop(chrome);

        let t5 = Instant::now();
        let series = p.sampler.take_series();
        let series_json = series.to_json().to_compact();
        spans.export_series = t5.elapsed().as_secs_f64();
        series_rows = series.len() as u64;
        digest.bytes(series_json.as_bytes());
    }
    let faasmem = p.stats.map(|s| {
        let s = s.borrow();
        (s.rollbacks, s.semi_warm_bytes)
    });
    let core_digest = core_digest(&report, &summary, faasmem);
    digest.u64(core_digest);
    digest.str(&format!(
        "{:?}|{:?}|{:?}",
        summary.blame, summary.memory_anatomy, report.function_waste
    ));
    CellData {
        policy: cell.policy,
        group,
        events: report.events_processed,
        latencies: report.requests.iter().map(|r| r.latency).collect(),
        containers_created: report.registry.counter("containers.created"),
        demand_faults: report.registry.counter("mem.demand_faults"),
        faasmem,
        timing: p.timing.map(|t| t.borrow().clone()),
        trace_events,
        trace_bytes,
        series_rows,
        spans,
        digest: digest.finish(),
        core_digest,
        summary,
    }
}

/// Digest of the statistics every mode produces: the summary without
/// the instrument blocks, the registry, the event count, every request
/// and FaaSMem's mechanism counters.
fn core_digest(report: &RunReport, summary: &RunSummary, faasmem: Option<(u64, u64)>) -> u64 {
    let core = RunSummary {
        blame: None,
        memory_anatomy: None,
        ..*summary
    };
    let mut h = Fnv::new();
    h.str(&format!("{core:?}|{:?}|{faasmem:?}", report.registry));
    h.u64(report.events_processed);
    for r in &report.requests {
        h.str(&format!("{r:?}"));
    }
    h.finish()
}

/// The output checks: every invocation completes, and with the
/// instruments on the anatomy conserves bytes and the blame components
/// of every request sum to its measured latency.
fn check(data: &CellData, trace_len: usize, instruments: bool) -> Vec<String> {
    let mut problems = Vec::new();
    let s = &data.summary;
    if s.requests_completed != trace_len {
        problems.push(format!(
            "{} of {trace_len} invocations completed",
            s.requests_completed
        ));
    }
    if instruments {
        match &s.memory_anatomy {
            Some(a) if a.conservation_violations() == 0 => {}
            Some(a) => problems.push(format!(
                "{} memory-anatomy conservation violations",
                a.conservation_violations()
            )),
            None => problems.push("memory anatomy missing".to_string()),
        }
        match &s.blame {
            Some(b) => {
                let blamed: u64 = b.components.iter().map(|c| c.total.as_micros()).sum();
                let measured: u64 = data.latencies.iter().map(|l| l.as_micros()).sum();
                if b.conservation_violations != 0 || blamed != measured {
                    problems.push(format!(
                        "blame sums to {blamed} µs against {measured} µs measured \
                         ({} violating requests)",
                        b.conservation_violations
                    ));
                }
            }
            None => problems.push("latency blame missing".to_string()),
        }
    }
    problems
}

/// Time-mean repair backlog of a cell, MiB (0 without the anatomy).
pub fn mean_repair_backlog_mib(summary: &RunSummary) -> f64 {
    match &summary.memory_anatomy {
        Some(a) if summary.sim_secs > 0.0 => {
            a.waste.byte_secs(WasteComponent::RepairBacklog) / summary.sim_secs / MIB
        }
        _ => 0.0,
    }
}

/// Bytes per MiB.
pub const MIB: f64 = 1024.0 * 1024.0;

/// Median of `xs` (0 when empty).
pub fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

fn describe(group: &Group, cell: &CellSpec, what: &str) -> String {
    let fault_seed = cell
        .config
        .faults
        .as_ref()
        .map_or("none".to_string(), |f| f.spec.seed.to_string());
    format!(
        "cell[group={}, cell={}, policy={}] seed={} fault_seed={fault_seed}: {what}",
        group.label,
        cell.label,
        cell.policy.name(),
        group.seed,
    )
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(msg) = payload.downcast_ref::<&'static str>() {
        (*msg).to_string()
    } else if let Some(msg) = payload.downcast_ref::<String>() {
        msg.clone()
    } else {
        "panicked with a non-string payload".to_string()
    }
}

/// 64-bit FNV-1a, for output digests.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    /// A fresh digest.
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Hashes bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Hashes a string and a separator.
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.bytes(&[0xff]);
    }

    /// Hashes a number.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// The digest.
    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::NAMES;

    /// One cell of `name`: the first cell of the first group running
    /// `policy` (or the workload's first cell when none does).
    fn one_cell(name: &str, policy: Policy) -> Workload {
        let mut w = Workload::build(name, 12001).expect("known workload");
        let (gi, ci) = w
            .groups
            .iter()
            .enumerate()
            .find_map(|(gi, g)| {
                g.cells
                    .iter()
                    .position(|c| c.policy == policy)
                    .map(|ci| (gi, ci))
            })
            .unwrap_or((0, 0));
        let mut group = w.groups.swap_remove(gi);
        group.cells = vec![group.cells.swap_remove(ci)];
        w.groups = vec![group];
        w
    }

    #[test]
    fn timing_wrapper_leaves_the_simulation_unchanged() {
        for name in NAMES {
            let w = one_cell(name, Policy::FaasMem);
            let plain = run_round(&w, Mode::Plain);
            let traced = run_round(&w, Mode::Traced);
            assert_eq!(plain.failed(), 0, "{name}: {:?}", plain.cells);
            assert_eq!(traced.failed(), 0, "{name}: {:?}", traced.cells);
            assert_eq!(plain.digest(false), traced.digest(false), "{name}");
            let timing = traced.ok_cells().next().and_then(|c| c.timing.clone());
            assert!(
                timing.is_some(),
                "{name}: traced cells carry the wrapper's record"
            );
        }
    }

    #[test]
    fn instruments_change_only_their_own_report_blocks() {
        let w = one_cell("chaos_observed", Policy::FaasMem);
        let plain = run_round(&w, Mode::Plain);
        let bare = run_round(&w, Mode::Bare);
        assert_eq!(plain.digest(true), bare.digest(true));
        assert_ne!(plain.digest(false), bare.digest(false));
        let observed = plain.ok_cells().next().expect("cell passed");
        assert!(observed.trace_events > 0 && observed.series_rows > 0);
    }
}
