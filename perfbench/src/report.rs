//! Folds a run's rounds into the end-to-end and per-layer metrics, the
//! correctness verdict and the human-readable report.

use faasmem_metrics::LatencyRecorder;
use faasmem_sim::SimDuration;

use crate::round::{mean_repair_backlog_mib, median, CellData, Mode, Round, MIB};
use crate::timed::{PolicyTiming, HOOKS};
use crate::workloads::{Policy, Workload};

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Extra context printed beside the value (never in the JSON line).
    pub note: String,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
        note: String::new(),
    }
}

/// The verdict and numbers of one benchmark run.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// Every check passed and every round produced the same statistics.
    pub correct: bool,
    /// Cells attempted over all rounds.
    pub attempted: u64,
    /// Cells that panicked or failed a check.
    pub failed: u64,
    /// The metrics for the JSON line.
    pub metrics: Vec<Metric>,
    /// Report lines printed before the JSON line.
    pub lines: Vec<String>,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn rounds_of(rounds: &[Round], mode: Mode) -> impl Iterator<Item = &Round> + '_ {
    rounds.iter().filter(move |r| r.mode == mode)
}

fn median_over(rounds: &[Round], mode: Mode, f: impl Fn(&Round) -> f64) -> f64 {
    median(rounds_of(rounds, mode).map(f).collect())
}

/// Median over every set-up of every `mode` round of `f(synth_s, build_s)`.
fn setup_median(rounds: &[Round], mode: Mode, f: impl Fn(f64, f64) -> f64) -> f64 {
    median(
        rounds_of(rounds, mode)
            .flat_map(|r| r.setups.iter().map(|&(synth, build)| f(synth, build)))
            .collect(),
    )
}

/// Evaluates the rounds of one run. `traced` selects the per-layer
/// metrics; otherwise the end-to-end ones.
pub fn evaluate(workload: &Workload, seed: u64, rounds: &[Round], traced: bool) -> Evaluation {
    let mut lines = Vec::new();
    let attempted: u64 = rounds.iter().map(|r| r.cells.len() as u64).sum();
    let failed: u64 = rounds.iter().map(|r| r.failed() as u64).sum();
    for round in rounds {
        for cell in &round.cells {
            if let Err(e) = cell {
                lines.push(format!("FAILED {e}"));
            }
        }
    }

    // Every round must reproduce the first plain round's statistics: the
    // wrapper and the benchmark spans observe only, and the instruments
    // change nothing but their own report blocks.
    let plain = rounds_of(rounds, Mode::Plain)
        .next()
        .expect("every run has a plain round");
    let mut consistent = true;
    for round in rounds {
        let same = match round.mode {
            Mode::Plain | Mode::Traced => round.digest(false) == plain.digest(false),
            Mode::Bare => round.digest(true) == plain.digest(true),
        };
        if !same {
            consistent = false;
            lines.push(format!(
                "FAILED a {:?} round's statistics differ from the first plain round's",
                round.mode
            ));
        }
    }

    let sim_s = plain.sim_s();
    lines.push(format!(
        "workload {} seed {seed}: {} cells, {} invocations, {:.0} simulated s per round; \
         {} rounds",
        workload.name,
        workload.cell_count(),
        plain.invocations,
        sim_s,
        rounds.len(),
    ));
    lines.push(format!(
        "cells_failed_pct {:.2} % ({failed} of {attempted} cells)",
        100.0 * ratio(failed as f64, attempted as f64)
    ));
    lines.push(format!(
        "digest {:016x} (core {:016x})",
        plain.digest(false),
        plain.digest(true)
    ));
    if workload.name == "offload_mix" {
        lines.extend(paper_context(workload, plain));
    }

    let metrics = if traced {
        per_layer(workload, rounds)
    } else {
        end_to_end(plain, rounds)
    };
    Evaluation {
        correct: failed == 0 && consistent,
        attempted,
        failed,
        metrics,
        lines,
    }
}

fn end_to_end(plain: &Round, rounds: &[Round]) -> Vec<Metric> {
    let cells: Vec<&CellData> = plain.ok_cells().collect();
    let mut latencies: LatencyRecorder = cells
        .iter()
        .flat_map(|c| c.latencies.iter().copied())
        .collect();
    let n = latencies.len();
    let p50 = latencies.percentile(0.50).unwrap_or(SimDuration::ZERO);
    let p99 = latencies.percentile(0.99).unwrap_or(SimDuration::ZERO);
    let tail_samples = latencies.samples().filter(|&l| l >= p99).count();
    let requests: usize = cells.iter().map(|c| c.summary.requests_completed).sum();
    let cold: usize = cells.iter().map(|c| c.summary.cold_starts).sum();
    let attempted: usize = rounds_of(rounds, Mode::Plain).map(|r| r.cells.len()).sum();
    let ok: usize = rounds_of(rounds, Mode::Plain)
        .map(|r| r.cells.len() - r.failed())
        .sum();
    let peak_rss_kb = faasmem_telemetry::rss::peak_rss_kb().unwrap_or(0);
    vec![
        metric(
            "sim_s_per_wall_s",
            median_over(rounds, Mode::Plain, |r| ratio(r.sim_s(), r.timed_s)),
            "sim_s/s",
        ),
        metric(
            "setup_s",
            setup_median(rounds, Mode::Plain, |synth, build| synth + build),
            "s",
        ),
        metric("peak_rss_mib", peak_rss_kb as f64 / 1024.0, "MiB"),
        metric(
            "cells_ok_pct",
            100.0 * ratio(ok as f64, attempted as f64),
            "%",
        ),
        metric(
            "avg_local_mib",
            ratio(
                cells.iter().map(|c| c.summary.avg_local_mib).sum(),
                cells.len() as f64,
            ),
            "MiB",
        ),
        Metric {
            note: format!("{n} samples"),
            ..metric("latency_p50_ms", p50.as_micros() as f64 / 1e3, "ms")
        },
        Metric {
            note: format!("{n} samples, {tail_samples} at or above"),
            ..metric("latency_p99_ms", p99.as_micros() as f64 / 1e3, "ms")
        },
        metric(
            "cold_start_pct",
            100.0 * ratio(cold as f64, requests as f64),
            "%",
        ),
    ]
}

/// Sums the wrapper records of every cell running `policy`.
fn timing_of(round: &Round, policy: Option<Policy>) -> PolicyTiming {
    let mut total = PolicyTiming::default();
    for cell in round.ok_cells() {
        if policy.is_none_or(|p| p == cell.policy) {
            if let Some(t) = &cell.timing {
                total.merge(t);
            }
        }
    }
    total
}

fn hook_metrics(prefix: &str, policy: Policy, rounds: &[Round], first: &Round) -> Vec<Metric> {
    let counts = timing_of(first, Some(policy));
    let mut out = Vec::new();
    for (i, hook) in HOOKS.iter().enumerate() {
        out.push(metric(
            format!("{prefix}.{hook}.calls"),
            counts.hooks[i].calls as f64,
            "count",
        ));
        out.push(metric(
            format!("{prefix}.{hook}.s"),
            median_over(rounds, Mode::Traced, |r| {
                timing_of(r, Some(policy)).hooks[i].secs
            }),
            "s",
        ));
    }
    out.push(metric(
        format!("{prefix}.on_tick.useful_ratio"),
        ratio(counts.useful_ticks as f64, counts.hooks[0].calls as f64),
        "ratio",
    ));
    out
}

fn sum_over(round: &Round, f: impl Fn(&CellData) -> f64) -> f64 {
    round.ok_cells().map(f).sum()
}

fn span_median(rounds: &[Round], f: impl Fn(&CellData) -> f64 + Copy) -> f64 {
    median_over(rounds, Mode::Traced, |r| sum_over(r, f))
}

fn per_layer(workload: &Workload, rounds: &[Round]) -> Vec<Metric> {
    // Counts repeat exactly in every round; the first traced round
    // still holds its per-request samples.
    let first = rounds_of(rounds, Mode::Traced)
        .next()
        .expect("a traced run has a traced round");
    let cells: Vec<&CellData> = first.ok_cells().collect();
    let faasmem_stats = |f: fn((u64, u64)) -> u64| -> f64 {
        cells.iter().filter_map(|c| c.faasmem).map(f).sum::<u64>() as f64
    };
    let run_s = span_median(rounds, |c| c.spans.run);
    let self_s = median_over(rounds, Mode::Traced, |r| {
        sum_over(r, |c| c.spans.run) - timing_of(r, None).total_secs()
    });
    let events = sum_over(first, |c| c.events as f64);
    let all = timing_of(first, None);
    let count = |f: fn(&CellData) -> u64| sum_over(first, |c| f(c) as f64);
    let faults = |f: fn(&faasmem_faas::FaultReport) -> u64| {
        sum_over(first, |c| c.summary.faults.as_ref().map_or(0, f) as f64)
    };
    let plain_timed = median_over(rounds, Mode::Plain, |r| r.timed_s);
    let instruments_overhead = if workload.instruments {
        100.0 * (plain_timed / median_over(rounds, Mode::Bare, |r| r.timed_s) - 1.0)
    } else {
        0.0
    };

    let mut out = hook_metrics("core.faasmem", Policy::FaasMem, rounds, first);
    out.extend(hook_metrics("baselines.tmo", Policy::Tmo, rounds, first));
    out.extend([
        metric("core.faasmem.rollbacks", faasmem_stats(|s| s.0), "count"),
        metric(
            "core.faasmem.semi_warm_mib",
            faasmem_stats(|s| s.1) / MIB,
            "MiB",
        ),
        metric(
            "core.faasmem.mem_saving_pct",
            mem_saving_pct(workload, first),
            "%",
        ),
        metric("faas.run_s", run_s, "s"),
        metric("faas.self_s", self_s, "s"),
        metric("faas.ns_per_event", 1e9 * ratio(run_s, events), "ns"),
        metric(
            "faas.build_s",
            setup_median(rounds, Mode::Traced, |_, build| build),
            "s",
        ),
        metric(
            "faas.containers_created",
            sum_over(first, |c| c.containers_created as f64),
            "count",
        ),
        metric(
            "faas.live_containers_mean",
            ratio(
                sum_over(first, |c| c.summary.avg_live_containers),
                cells.len() as f64,
            ),
            "count",
        ),
        metric("sim.events", events, "count"),
        metric("sim.events_per_s", ratio(events, run_s), "1/s"),
        metric("sim.sim_s", first.sim_s(), "sim_s"),
        metric("mem.pages_offloaded", all.pages_offloaded as f64, "count"),
        metric("mem.pages_recalled", all.pages_recalled as f64, "count"),
        metric("mem.demand_faults", count(|c| c.demand_faults), "count"),
        metric(
            "pool.out_ops",
            count(|c| c.summary.pool_stats.out_ops),
            "count",
        ),
        metric(
            "pool.in_ops",
            count(|c| c.summary.pool_stats.in_ops),
            "count",
        ),
        metric(
            "pool.bytes_out_mib",
            count(|c| c.summary.pool_stats.bytes_out) / MIB,
            "MiB",
        ),
        metric(
            "pool.bytes_in_mib",
            count(|c| c.summary.pool_stats.bytes_in) / MIB,
            "MiB",
        ),
        metric(
            "pool.recall_ratio",
            ratio(
                count(|c| c.summary.pool_stats.bytes_in),
                count(|c| c.summary.pool_stats.bytes_out),
            ),
            "ratio",
        ),
        metric(
            "pool.page_in_retries",
            faults(|f| f.page_in_retries),
            "count",
        ),
        metric(
            "pool.page_ins_gave_up",
            faults(|f| f.page_ins_gave_up),
            "count",
        ),
        metric(
            "pool.offloads_refused",
            faults(|f| f.offloads_refused),
            "count",
        ),
        metric("pool.breaker_opens", faults(|f| f.breaker_opens), "count"),
        metric(
            "pool.repair_backlog_mib",
            ratio(
                sum_over(first, |c| mean_repair_backlog_mib(&c.summary)),
                cells.len() as f64,
            ),
            "MiB",
        ),
        metric(
            "workload.synth_s",
            setup_median(rounds, Mode::Traced, |synth, _| synth),
            "s",
        ),
        metric("workload.invocations", first.invocations as f64, "count"),
        metric(
            "metrics.summarize_s",
            span_median(rounds, |c| c.spans.summarize),
            "s",
        ),
        metric(
            "metrics.anatomy_violations",
            sum_over(first, |c| {
                c.summary
                    .memory_anatomy
                    .map_or(0, |a| a.conservation_violations()) as f64
            }),
            "count",
        ),
        metric(
            "metrics.latency_samples",
            sum_over(first, |c| c.latencies.len() as f64),
            "count",
        ),
        metric("trace.events_recorded", count(|c| c.trace_events), "count"),
        metric("trace.bytes", count(|c| c.trace_bytes), "bytes"),
        metric(
            "trace.export_jsonl_s",
            span_median(rounds, |c| c.spans.export_jsonl),
            "s",
        ),
        metric(
            "trace.export_chrome_s",
            span_median(rounds, |c| c.spans.export_chrome),
            "s",
        ),
        metric("telemetry.series_rows", count(|c| c.series_rows), "count"),
        metric(
            "telemetry.series_export_s",
            span_median(rounds, |c| c.spans.export_series),
            "s",
        ),
        metric("instruments.overhead_pct", instruments_overhead, "%"),
        metric(
            "bench.trace_overhead_pct",
            100.0 * (median_over(rounds, Mode::Traced, |r| r.timed_s) / plain_timed - 1.0),
            "%",
        ),
    ]);
    out
}

/// A group's average local memory under `policy`, when that cell passed.
fn group_avg_local(round: &Round, group: usize, policy: Policy) -> Option<f64> {
    round
        .ok_cells()
        .find(|c| c.group == group && c.policy == policy)
        .map(|c| c.summary.avg_local_mib)
}

/// Summed Baseline and FaaSMem average local memory over the groups
/// `keep` selects that ran both.
fn local_totals(workload: &Workload, round: &Round, keep: impl Fn(&str) -> bool) -> (f64, f64) {
    let (mut base, mut faasmem) = (0.0, 0.0);
    for (g, group) in workload.groups.iter().enumerate() {
        if !keep(&group.label) {
            continue;
        }
        if let (Some(b), Some(f)) = (
            group_avg_local(round, g, Policy::Baseline),
            group_avg_local(round, g, Policy::FaasMem),
        ) {
            base += b;
            faasmem += f;
        }
    }
    (base, faasmem)
}

/// FaaSMem's pooled local-memory saving against Baseline on the same
/// traces: `1 - Σ FaaSMem avg local / Σ Baseline avg local`, over the
/// groups that ran both.
fn mem_saving_pct(workload: &Workload, round: &Round) -> f64 {
    let (base, faasmem) = local_totals(workload, round, |_| true);
    100.0 * ratio(base - faasmem, base)
}

/// FaaSMem's memory change against Baseline per function and load class,
/// beside the paper's Fig 12 ranges. Context only: not a gate.
fn paper_context(workload: &Workload, round: &Round) -> Vec<String> {
    let mut lines = Vec::new();
    let mut functions: Vec<&str> = workload.groups.iter().map(|g| g.spec.name).collect();
    functions.sort_unstable();
    functions.dedup();
    for (class, paper) in [("high", "-27.1%..-71.0%"), ("low", "-9.9%..-72.0%")] {
        let mut changes: Vec<f64> = functions
            .iter()
            .filter_map(|name| {
                let (base, faasmem) = local_totals(workload, round, |label| {
                    label.starts_with(&format!("{class}/")) && label.ends_with(&format!("/{name}"))
                });
                (base > 0.0).then(|| 100.0 * (faasmem / base - 1.0))
            })
            .collect();
        changes.sort_by(f64::total_cmp);
        if let (Some(lo), Some(hi)) = (changes.first(), changes.last()) {
            lines.push(format!(
                "paper context ({class} load): FaaSMem local memory {hi:+.1}%..{lo:+.1}% \
                 vs Baseline over {} functions; paper Fig 12: {paper}",
                changes.len()
            ));
        }
    }
    lines.push(
        "paper context: the model is checked only against these published ranges; \
         it has no other validation"
            .to_string(),
    );
    lines
}
