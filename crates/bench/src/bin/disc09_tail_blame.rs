//! Latency anatomy: where the tail comes from (observability study).
//!
//! Every earlier experiment reports *that* the P95/P99 moves; this one
//! reports *why*. With `PlatformConfig::blame` on, the platform splits
//! each invocation's end-to-end latency into named components — queue,
//! cold-start, exec, and the stall families the memory pool injects —
//! under an exact conservation invariant (components sum to the
//! measured latency, in integer microseconds, per invocation). The grid
//! sweeps memory pressure (a steady middle-load trace vs a bursty
//! high-load one) against pool redundancy (none, 2-way mirroring, and a
//! 2+1 erasure code on a 4-node fabric under seeded node losses, plus a
//! fault-free control) and prints the tail-attribution matrix: the mean
//! share of each component over the slowest 1% of invocations.
//!
//! The expected shift, asserted by CI's schema check: with no faults the
//! tail belongs to cold-starts and plain recall stalls; dropping
//! redundancy converts the recall-family tail (failover detours, recall
//! stalls) into forced cold rebuilds, because a dead primary without a
//! replica loses its tenants' state outright.
//!
//! Blame is pure observation — enabling it changes no event, no RNG
//! draw, no latency — so the grid is byte-identical across `--jobs` and
//! `--shards` like every other experiment (CI compares all three).
//!
//! `--quick` is deliberately ignored: the full grid takes about a
//! second, and a truncated run's slowest 1% is just the first cold
//! starts — a tail with no anatomy to report.

use faasmem_bench::harness::{
    self, BenchCase, ConfigCase, ExperimentGrid, HarnessOptions, TraceSpec,
};
use faasmem_bench::{render_table, PolicyKind};
use faasmem_faas::{BlameComponent, FaultConfig, PlatformConfig};
use faasmem_pool::{FabricConfig, RedundancyPolicy, RemoteFaultPolicy};
use faasmem_sim::{FaultSpec, SimDuration};
use faasmem_workload::{BenchmarkSpec, LoadClass};

/// Root seed of every injected fault plan; recorded in panic reports.
const FAULT_SEED: u64 = 0xD15C09;

/// Mean time between pool-node deaths. Aggressive enough that the
/// bursty trace sees several losses, so redundancy visibly reshapes
/// the tail.
const LOSS_MTBF: SimDuration = SimDuration::from_mins(8);

/// Mild link outages running concurrently, so the breaker/failover
/// paths contribute their own blame components.
const OUTAGE_MTBF: SimDuration = SimDuration::from_mins(12);

/// Mean link-outage length.
const OUTAGE_MEAN: SimDuration = SimDuration::from_secs(15);

/// Pool fabric size. Four nodes leave a spare under mirroring, so
/// repair can re-replicate after a loss instead of staying degraded.
const NODES: u32 = 4;

fn redundancy_axis() -> Vec<RedundancyPolicy> {
    vec![
        RedundancyPolicy::None,
        RedundancyPolicy::Mirror { k: 2 },
        // Degraded erasure-coded reads pay a reconstruction penalty, so
        // this scheme is the one that exercises the failover-detour
        // component (mirror failovers read a plain replica for free).
        RedundancyPolicy::ErasureCoded { data: 2, parity: 1 },
    ]
}

/// Grid configurations: the fault-free control first, then the
/// redundancy axis under the identical chaos schedule. Every case sets
/// `blame: true` — the whole point of the experiment — which adds the
/// `"blame"` block to each cell without perturbing the run.
fn configs() -> Vec<(String, ConfigCase)> {
    let mut cases = vec![(
        "no faults".to_string(),
        ConfigCase::new(
            "no faults",
            PlatformConfig {
                blame: true,
                ..PlatformConfig::default()
            },
        ),
    )];
    for scheme in redundancy_axis() {
        let label = format!("{NODES} nodes, losses~8min, {}", scheme.label());
        let config = PlatformConfig {
            blame: true,
            fabric: FabricConfig {
                nodes: NODES,
                redundancy: scheme,
                ..FabricConfig::default()
            },
            faults: Some(FaultConfig {
                spec: FaultSpec::new(FAULT_SEED)
                    .outages(OUTAGE_MTBF, OUTAGE_MEAN)
                    .pool_node_losses(LOSS_MTBF, NODES),
                // Hasty retries give up mid-outage, so the abandoned-wait
                // / forced-rebuild / failover-detour components actually
                // appear instead of hiding inside patient backoff.
                policy: RemoteFaultPolicy::hasty(),
                ..FaultConfig::default()
            }),
            ..PlatformConfig::default()
        };
        cases.push((label.clone(), ConfigCase::new(&label, config)));
    }
    cases
}

/// The pressure axis: a steady middle-load trace barely touches the
/// pool; the bursty high-load trace drives offload hard enough that
/// recall stalls reach the tail.
fn traces() -> Vec<TraceSpec> {
    vec![
        TraceSpec::synth("middle", 909, LoadClass::Middle),
        TraceSpec::synth("high-bursty", 909, LoadClass::High).bursty(true),
    ]
}

fn trace_names() -> [&'static str; 2] {
    ["middle", "high-bursty"]
}

fn pct(share: f64) -> String {
    format!("{:.1}%", share * 100.0)
}

fn main() {
    let mut opts = HarnessOptions::from_env();
    // Always run the full grid (about a second of wall time): the quick
    // window's slowest 1% is just the first cold starts, which says
    // nothing about the tail, and a fixed mode keeps the tracked
    // artifacts reproducible from `runall` with or without `--quick`.
    opts.quick = false;
    let grid = ExperimentGrid::new("disc09_tail_blame")
        .traces(traces())
        .bench(BenchCase::single(
            BenchmarkSpec::by_name("bert").expect("catalog"),
        ))
        .configs(configs().into_iter().map(|(_, case)| case))
        .policy_kinds([PolicyKind::Baseline, PolicyKind::FaasMem]);
    let run = harness::run_and_export(&grid, &opts);

    println!("=== bert, latency anatomy, chaos seed {FAULT_SEED:#x} ===");
    println!();

    // The tail-attribution matrix: one row per (trace, config, policy),
    // the mean share of each component over the slowest 1%.
    let columns = [
        BlameComponent::ColdStart,
        BlameComponent::Exec,
        BlameComponent::FaultCpu,
        BlameComponent::RecallStall,
        BlameComponent::FailoverDetour,
        BlameComponent::AbandonedWait,
        BlameComponent::ForcedRebuild,
    ];
    let mut rows = Vec::new();
    let mut cells = 0u64;
    let mut violations = 0u64;
    for trace in trace_names() {
        for (label, _) in configs() {
            for kind in [PolicyKind::Baseline, PolicyKind::FaasMem] {
                let outcome = run.outcome(trace, "bert", &label, kind.name());
                let blame = outcome
                    .summary
                    .blame
                    .as_deref()
                    .expect("blame enabled in every config");
                cells += 1;
                violations += blame.conservation_violations;
                let mut row = vec![
                    format!("{trace}, {label}, {}", kind.name()),
                    format!("{:.0}ms", blame.tail_cutoff.as_millis_f64()),
                    format!("{:.0}ms", blame.tail_mean_latency.as_millis_f64()),
                ];
                row.extend(columns.iter().map(|&c| pct(blame.tail_share(c))));
                rows.push(row);
            }
        }
    }
    let mut headers = vec!["cell", "tail cutoff", "tail mean"];
    headers.extend(columns.iter().map(|c| c.name()));
    println!("{}", render_table(&headers, &rows));
    println!();

    // The conservation invariant, stated on the output so a regression
    // is visible in the diff, not just in the JSON.
    println!(
        "conservation: blame components sum exactly to measured latency in all {cells} cells \
         ({violations} violations)"
    );
    println!();

    // The redundancy shift, quantified: under the identical chaos
    // schedule on the bursty trace, dropping the mirror converts the
    // recall-family tail into forced rebuilds.
    let tail = |scheme: &RedundancyPolicy, component: BlameComponent| {
        let label = format!("{NODES} nodes, losses~8min, {}", scheme.label());
        run.outcome("high-bursty", "bert", &label, PolicyKind::FaasMem.name())
            .summary
            .blame
            .as_deref()
            .expect("blame enabled")
            .tail_share(component)
    };
    let recall_family = |scheme: &RedundancyPolicy| {
        tail(scheme, BlameComponent::RecallStall)
            + tail(scheme, BlameComponent::FailoverDetour)
            + tail(scheme, BlameComponent::AbandonedWait)
    };
    let none = RedundancyPolicy::None;
    let mirror = RedundancyPolicy::Mirror { k: 2 };
    println!(
        "tail shift (high-bursty, faasmem): forced_rebuild {} (no redundancy) -> {} (mirror2); \
         recall family {} -> {}",
        pct(tail(&none, BlameComponent::ForcedRebuild)),
        pct(tail(&mirror, BlameComponent::ForcedRebuild)),
        pct(recall_family(&none)),
        pct(recall_family(&mirror)),
    );
    println!();
    println!("Shape: with no faults the tail belongs to cold-starts plus plain recall");
    println!("stalls; node losses without redundancy turn it into forced cold rebuilds,");
    println!("while 2-way mirroring converts those rebuilds back into the cheaper recall");
    println!("family (failover detours and retried recalls). The decomposition is exact:");
    println!("per invocation the components sum to the measured latency, so every point");
    println!("of P99 movement is attributed to a named cause - nothing is left over.");
}
