//! Micro-benchmark of the calendar-bucket event queue.
//!
//! Races [`EventQueue`] (the calendar queue every simulation drains)
//! against [`ReferenceEventQueue`] (the retired binary heap it
//! replaced) at 64k, 1M and 10M events across three timestamp mixes:
//!
//! - **clustered** — bursts of same-instant events on a fixed cadence,
//!   pushed as groups: the FaaSMem shape (Tick cadence, bursty traces
//!   seeded via `push_at_many`, window-aligned cross-shard flushes).
//! - **uniform** — independent uniform timestamps, the classic
//!   calendar-queue sort benchmark.
//! - **bimodal** — half near-term, half far-future, stressing the
//!   overflow tier and the self-tuning re-layout.
//!
//! Each run pushes the prepared population and drains it dry ("sort"
//! mode), plus two steady-state hold phases (pop one, push one at a
//! later time): **churn** at the 1M size, and **sparse_tick** — the
//! shape a platform run spends most of its pops in: a ring sized for
//! the whole trace at the default 1 ms width, only a couple of hundred
//! events pending (all but one of them minutes away), and a 1 s policy tick
//! that re-arms itself on every pop and so keeps the ring from ever
//! draining dry and re-tuning. Every phase runs a *fixed* number of
//! repetitions so the per-phase totals in `BENCH_queue.json` are
//! comparable across runs — the CI perf job diffs them with
//! `bench_compare` like the grid baselines.
//!
//! ```text
//! cargo run --release -p faasmem-bench --bin bench_queue -- \
//!     --profile --check-speedup --out perf
//! cargo run --release -p faasmem-bench --bin bench_compare -- \
//!     BENCH_queue.json perf/BENCH_queue.json --tolerance 0.25
//! ```
//!
//! `--check-speedup` exits non-zero unless the calendar queue beats the
//! heap by at least [`REQUIRED_SPEEDUP`]× on the clustered mix at 1M
//! events — the gate ISSUE 10 ships this queue under.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

use faasmem_bench::json::JsonValue;
use faasmem_bench::render_table;
use faasmem_sim::{EventQueue, ReferenceEventQueue, SimDuration, SimRng, SimTime};
use faasmem_telemetry::profiler;

/// Minimum calendar-vs-heap throughput ratio `--check-speedup` enforces
/// (clustered mix, 1M events).
const REQUIRED_SPEEDUP: f64 = 2.0;

/// Same-instant burst width of the clustered mix.
const BURST: usize = 64;

/// Microseconds between clustered bursts (the Tick-like cadence).
const BURST_STEP_US: u64 = 1_000;

/// The population sizes exercised, with fixed sort-mode repetition
/// counts `(events, reps)`. Constants, never scaled by wall time:
/// `bench_compare` needs cross-run totals.
const SIZES: [(usize, u32); 3] = [(64 * 1024, 8), (1 << 20, 2), (10 << 20, 1)];

/// Pop-one/push-one operations per churn reptition (hold model).
const CHURN_OPS: usize = 1 << 20;

/// Events resident during the churn phase.
const CHURN_HOLD: usize = 64 * 1024;

/// Pops per sparse-tick repetition.
const SPARSE_OPS: usize = 1 << 18;

/// Ring capacity the sparse-tick queue is created with (1024 buckets,
/// as `with_capacity` lays out for a trace of this many events).
const SPARSE_CAPACITY: usize = 1024;

/// Far events pending during the sparse-tick phase, besides the tick:
/// enough that the ring never shrinks (at least an eighth of the
/// buckets), far too few to fill it.
const SPARSE_HOLD: usize = 160;

/// The policy tick period of the sparse-tick phase.
const TICK_US: u64 = 1_000_000;

/// Payload of the sparse-tick phase's self-re-arming policy tick.
const TICK: u32 = u32::MAX;

struct Options {
    out_dir: PathBuf,
    profile: bool,
    check_speedup: bool,
}

fn usage() -> ! {
    eprintln!("usage: bench_queue [--profile] [--check-speedup] [--out DIR]");
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut opts = Options {
        out_dir: PathBuf::from("."),
        profile: false,
        check_speedup: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--profile" => opts.profile = true,
            "--check-speedup" => opts.check_speedup = true,
            "--out" => {
                let Some(dir) = args.next() else { usage() };
                opts.out_dir = PathBuf::from(dir);
            }
            _ => usage(),
        }
    }
    opts
}

#[derive(Clone, Copy, PartialEq)]
enum Mix {
    Clustered,
    Uniform,
    Bimodal,
}

impl Mix {
    fn name(self) -> &'static str {
        match self {
            Mix::Clustered => "clustered",
            Mix::Uniform => "uniform",
            Mix::Bimodal => "bimodal",
        }
    }
}

/// The prepared timestamp population for one (mix, size) cell, in push
/// order. Clustered times come as ascending same-instant runs (pushed
/// as groups); the other mixes are fully shuffled single pushes.
fn make_times(mix: Mix, n: usize) -> Vec<u64> {
    let mut rng = SimRng::seed_from(0xFAA5_0000 + n as u64);
    match mix {
        Mix::Clustered => (0..n).map(|i| (i / BURST) as u64 * BURST_STEP_US).collect(),
        Mix::Uniform => {
            let span = n as u64 * 100;
            (0..n).map(|_| rng.below(span)).collect()
        }
        Mix::Bimodal => {
            let span = n as u64 * 100;
            (0..n)
                .map(|_| {
                    if rng.chance(0.5) {
                        rng.below(span / 100)
                    } else {
                        span - span / 100 + rng.below(span / 100)
                    }
                })
                .collect()
        }
    }
}

/// Events per second pushing the whole population and draining it dry
/// through the calendar queue. Clustered runs use the grouped path.
fn calendar_sort(times: &[u64], reps: u32, grouped: bool, phase: &'static str) -> f64 {
    let start = Instant::now();
    {
        let _guard = profiler::enter(phase);
        for _ in 0..reps {
            let mut q: EventQueue<u32> = EventQueue::with_capacity(times.len());
            push_all_calendar(&mut q, times, grouped);
            let mut n = 0u64;
            while q.pop().is_some() {
                n += 1;
            }
            black_box(n);
        }
    }
    times.len() as f64 * reps as f64 / start.elapsed().as_secs_f64()
}

/// Events per second for the same script through the heap reference.
fn heap_sort(times: &[u64], reps: u32, grouped: bool, phase: &'static str) -> f64 {
    let start = Instant::now();
    {
        let _guard = profiler::enter(phase);
        for _ in 0..reps {
            let mut q: ReferenceEventQueue<u32> = ReferenceEventQueue::with_capacity(times.len());
            push_all_heap(&mut q, times, grouped);
            let mut n = 0u64;
            while q.pop().is_some() {
                n += 1;
            }
            black_box(n);
        }
    }
    times.len() as f64 * reps as f64 / start.elapsed().as_secs_f64()
}

fn push_all_calendar(q: &mut EventQueue<u32>, times: &[u64], grouped: bool) {
    if grouped {
        // Same-instant runs land as one group each, like trace seeding.
        let mut i = 0;
        while i < times.len() {
            let t = times[i];
            let run = times[i..].iter().take_while(|&&x| x == t).count();
            q.push_at_many(SimTime::from_micros(t), (i..i + run).map(|j| j as u32));
            i += run;
        }
    } else {
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_micros(t), i as u32);
        }
    }
}

fn push_all_heap(q: &mut ReferenceEventQueue<u32>, times: &[u64], grouped: bool) {
    if grouped {
        let mut i = 0;
        while i < times.len() {
            let t = times[i];
            let run = times[i..].iter().take_while(|&&x| x == t).count();
            q.push_at_many(SimTime::from_micros(t), (i..i + run).map(|j| j as u32));
            i += run;
        }
    } else {
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_micros(t), i as u32);
        }
    }
}

/// Steady-state hold model: the queue holds [`CHURN_HOLD`] events while
/// [`CHURN_OPS`] pop-one/push-one operations stream through, each
/// reinsertion a bounded step past the popped time (the event-loop
/// shape: a handler schedules its follow-up). Deltas are precomputed so
/// both queues replay the identical script.
fn churn_deltas() -> Vec<u64> {
    let mut rng = SimRng::seed_from(0xC0DE_CAFE);
    (0..CHURN_OPS)
        .map(|_| rng.below(BURST_STEP_US * 64) + 1)
        .collect()
}

/// Re-arm delays for the sparse-tick phase's far events: 1 min to
/// 1 h, like keep-alive deadlines and the trace's later arrivals — all
/// past the ring horizon. Precomputed so both queues replay the
/// identical script.
fn sparse_deltas() -> Vec<u64> {
    let mut rng = SimRng::seed_from(0x5EA5_71C4);
    (0..SPARSE_OPS)
        .map(|_| 60_000_000 + rng.below(3_540_000_000))
        .collect()
}

/// A hold phase through either queue: seeds `initial`, then pops one
/// event and pushes it back per delay. The tick (payload [`TICK`])
/// re-arms [`TICK_US`] later instead of taking the delay. Returns pops
/// per second.
fn hold<Q>(
    mut q: Q,
    initial: impl Iterator<Item = (SimTime, u32)>,
    deltas: &[u64],
    phase: &'static str,
    push: impl Fn(&mut Q, SimTime, u32),
    pop: impl Fn(&mut Q) -> Option<(SimTime, u32)>,
) -> f64 {
    for (at, ev) in initial {
        push(&mut q, at, ev);
    }
    let start = Instant::now();
    {
        let _guard = profiler::enter(phase);
        for &d in deltas {
            let (at, ev) = pop(&mut q).expect("hold population never drains");
            let delay = if ev == TICK { TICK_US } else { d };
            push(&mut q, at + SimDuration::from_micros(delay), ev);
        }
    }
    let rate = deltas.len() as f64 / start.elapsed().as_secs_f64();
    black_box(pop(&mut q));
    rate
}

/// The churn phase's resident population: [`CHURN_HOLD`] events in
/// clustered bursts.
fn churn_initial() -> impl Iterator<Item = (SimTime, u32)> {
    (0..CHURN_HOLD).map(|i| {
        let at = SimTime::from_micros((i / BURST) as u64 * BURST_STEP_US);
        (at, i as u32)
    })
}

/// The sparse-tick phase's resident population: [`SPARSE_HOLD`] far
/// events at the first delays, plus the tick.
fn sparse_initial(deltas: &[u64]) -> impl Iterator<Item = (SimTime, u32)> + '_ {
    let far = deltas.iter().take(SPARSE_HOLD).zip(0..);
    far.map(|(&d, i)| (SimTime::from_micros(d), i))
        .chain([(SimTime::from_micros(TICK_US), TICK)])
}

fn fmt_rate(events_per_sec: f64) -> String {
    format!("{:.1} Mev/s", events_per_sec / 1e6)
}

fn size_label(n: usize) -> String {
    if n >= 1 << 20 {
        format!("{}M", n >> 20)
    } else {
        format!("{}k", n >> 10)
    }
}

/// Static phase names per (impl, mix, size), so the profiler and the
/// BENCH diff aggregate identically across runs.
fn phase_names(mix: Mix, n: usize) -> (&'static str, &'static str) {
    match (mix, n) {
        (Mix::Clustered, 65_536) => ("cal_clustered_64k", "heap_clustered_64k"),
        (Mix::Clustered, 1_048_576) => ("cal_clustered_1m", "heap_clustered_1m"),
        (Mix::Clustered, _) => ("cal_clustered_10m", "heap_clustered_10m"),
        (Mix::Uniform, 65_536) => ("cal_uniform_64k", "heap_uniform_64k"),
        (Mix::Uniform, 1_048_576) => ("cal_uniform_1m", "heap_uniform_1m"),
        (Mix::Uniform, _) => ("cal_uniform_10m", "heap_uniform_10m"),
        (Mix::Bimodal, 65_536) => ("cal_bimodal_64k", "heap_bimodal_64k"),
        (Mix::Bimodal, 1_048_576) => ("cal_bimodal_1m", "heap_bimodal_1m"),
        (Mix::Bimodal, _) => ("cal_bimodal_10m", "heap_bimodal_10m"),
    }
}

/// The `BENCH_queue.json` document `bench_compare` diffs in CI.
fn bench_json(total_wall_secs: f64, phases: &[(&'static str, profiler::PhaseStat)]) -> JsonValue {
    let mut doc = JsonValue::obj();
    doc.push("schema_version", JsonValue::Num(1.0));
    doc.push("bench", JsonValue::Str("queue".to_string()));
    doc.push("git_rev", JsonValue::Str(git_rev()));
    doc.push("total_wall_secs", JsonValue::Num(total_wall_secs));
    let phase_docs: Vec<JsonValue> = phases
        .iter()
        .map(|(name, stat)| {
            let mut p = JsonValue::obj();
            p.push("name", JsonValue::Str((*name).to_string()));
            p.push("calls", JsonValue::Num(stat.calls as f64));
            p.push("total_secs", JsonValue::Num(stat.total_secs));
            p.push("self_secs", JsonValue::Num(stat.self_secs));
            p
        })
        .collect();
    doc.push("phases", JsonValue::Arr(phase_docs));
    doc
}

/// The checked-out short revision, for provenance. Best-effort:
/// "unknown" outside a git checkout.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|rev| rev.trim().to_string())
        .filter(|rev| !rev.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn write_bench(dir: &Path, doc: &JsonValue) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join("BENCH_queue.json");
    std::fs::write(&path, doc.to_pretty())?;
    Ok(path)
}

fn main() {
    let opts = parse_args();
    profiler::set_enabled(true);
    let started = Instant::now();

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut gate_speedup = 0.0;
    for mix in [Mix::Clustered, Mix::Uniform, Mix::Bimodal] {
        for &(n, reps) in &SIZES {
            let times = make_times(mix, n);
            let grouped = mix == Mix::Clustered;
            let (cal_phase, heap_phase) = phase_names(mix, n);
            let cal = calendar_sort(&times, reps, grouped, cal_phase);
            let heap = heap_sort(&times, reps, grouped, heap_phase);
            let speedup = cal / heap;
            if mix == Mix::Clustered && n == 1 << 20 {
                gate_speedup = speedup;
            }
            rows.push(vec![
                mix.name().to_string(),
                size_label(n),
                fmt_rate(cal),
                fmt_rate(heap),
                format!("{speedup:.1}x"),
            ]);
        }
    }

    let deltas = churn_deltas();
    let cal = hold(
        EventQueue::with_capacity(CHURN_HOLD),
        churn_initial(),
        &deltas,
        "cal_churn_1m",
        EventQueue::push,
        EventQueue::pop,
    );
    let heap = hold(
        ReferenceEventQueue::with_capacity(CHURN_HOLD),
        churn_initial(),
        &deltas,
        "heap_churn_1m",
        ReferenceEventQueue::push,
        ReferenceEventQueue::pop,
    );
    rows.push(vec![
        "churn (hold 64k)".to_string(),
        size_label(CHURN_OPS),
        fmt_rate(cal),
        fmt_rate(heap),
        format!("{:.1}x", cal / heap),
    ]);

    let deltas = sparse_deltas();
    let cal = hold(
        EventQueue::with_capacity(SPARSE_CAPACITY),
        sparse_initial(&deltas),
        &deltas,
        "cal_sparse_tick",
        EventQueue::push,
        EventQueue::pop,
    );
    let heap = hold(
        ReferenceEventQueue::with_capacity(SPARSE_CAPACITY),
        sparse_initial(&deltas),
        &deltas,
        "heap_sparse_tick",
        ReferenceEventQueue::push,
        ReferenceEventQueue::pop,
    );
    rows.push(vec![
        format!("sparse_tick (hold {})", SPARSE_HOLD + 1),
        size_label(SPARSE_OPS),
        fmt_rate(cal),
        fmt_rate(heap),
        format!("{:.1}x", cal / heap),
    ]);

    print!(
        "{}",
        render_table(&["mix", "events", "calendar", "heap", "speedup"], &rows)
    );
    println!("\ncalendar speedup over heap on the clustered 1M mix: {gate_speedup:.1}x");

    profiler::set_enabled(false);
    let phases = profiler::take_report();
    let total_wall_secs = started.elapsed().as_secs_f64();
    if opts.profile {
        let doc = bench_json(total_wall_secs, &phases);
        match write_bench(&opts.out_dir, &doc) {
            Ok(path) => eprintln!("[bench_queue] wrote {}", path.display()),
            Err(e) => {
                eprintln!(
                    "[bench_queue] could not write BENCH file under {}: {e}",
                    opts.out_dir.display()
                );
                std::process::exit(2);
            }
        }
    }

    if opts.check_speedup && gate_speedup < REQUIRED_SPEEDUP {
        eprintln!(
            "bench_queue: clustered-1M speedup {gate_speedup:.2}x below the required {REQUIRED_SPEEDUP}x"
        );
        std::process::exit(1);
    }
}
