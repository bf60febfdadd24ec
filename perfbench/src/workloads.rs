//! The benchmark's workloads, each a fixed input made from a seed.
//!
//! A workload is a list of groups; a group is one function's synthesized
//! trace and the cells (platform configuration × policy) that replay it. The seed
//! is the only input: every trace and fault plan derives from it, and the
//! simulator sees only the generated traces. See `METRICS.md` for why
//! each workload is shaped the way it is.

use faasmem_baselines::{NoOffloadPolicy, TmoPolicy};
use faasmem_core::{FaasMemPolicy, StatsHandle};
use faasmem_faas::{FaultConfig, FunctionId, MemoryPolicy, PlatformConfig};
use faasmem_pool::{FabricConfig, RedundancyPolicy, RemoteFaultPolicy};
use faasmem_sim::{FaultSpec, SimDuration, SimRng, SimTime};
use faasmem_workload::{ArrivalModel, BenchmarkSpec, InvocationTrace, LoadClass, TraceSynthesizer};

/// Workload names, in the order the benchmark documents them.
pub const NAMES: [&str; 2] = ["offload_mix", "chaos_observed"];

/// The memory policy a cell runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// No offloading (the paper's Baseline).
    Baseline,
    /// TMO-like feedback offloading.
    Tmo,
    /// Full FaaSMem.
    FaasMem,
}

impl Policy {
    /// The name the platform reports for this policy.
    pub fn name(self) -> &'static str {
        match self {
            Policy::Baseline => "Baseline",
            Policy::Tmo => "TMO",
            Policy::FaasMem => "FaaSMem",
        }
    }

    /// Builds a fresh policy, plus FaaSMem's mechanism stats handle.
    pub fn build(self) -> (Box<dyn MemoryPolicy>, Option<StatsHandle>) {
        match self {
            Policy::Baseline => (Box::new(NoOffloadPolicy), None),
            Policy::Tmo => (Box::new(TmoPolicy::default()), None),
            Policy::FaasMem => {
                let policy = FaasMemPolicy::builder().build();
                let stats = policy.stats();
                (Box::new(policy), Some(stats))
            }
        }
    }
}

/// One platform configuration × policy replaying a group's trace.
#[derive(Debug, Clone)]
pub struct CellSpec {
    /// Cell label, unique within its group.
    pub label: String,
    /// Policy under test.
    pub policy: Policy,
    /// Platform configuration.
    pub config: PlatformConfig,
}

/// One function's synthesized trace and the cells that replay it.
#[derive(Debug, Clone)]
pub struct Group {
    /// Group label, unique within the workload.
    pub label: String,
    /// The function, registered as `FunctionId(0)`.
    pub spec: BenchmarkSpec,
    /// Synthesizer seed.
    pub seed: u64,
    /// Arrival process.
    pub model: ArrivalModel,
    /// Trace horizon.
    pub duration: SimTime,
    /// Cells replaying the trace.
    pub cells: Vec<CellSpec>,
}

impl Group {
    /// Synthesizes the group's trace.
    pub fn synthesize(&self) -> InvocationTrace {
        TraceSynthesizer::new(self.seed)
            .arrival_model(self.model)
            .duration(self.duration)
            .synthesize_for(FunctionId(0))
    }
}

/// A named workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Workload name (one of [`NAMES`]).
    pub name: &'static str,
    /// Groups, run in order.
    pub groups: Vec<Group>,
    /// Whether the cells run with the observation instruments on:
    /// latency blame, memory anatomy, the event tracer and the
    /// telemetry sampler, with their exports produced in memory.
    pub instruments: bool,
}

impl Workload {
    /// Builds the named workload from `seed`; `None` for an unknown name.
    pub fn build(name: &str, seed: u64) -> Option<Workload> {
        match name {
            "offload_mix" => Some(offload_mix(seed)),
            "chaos_observed" => Some(chaos_observed(seed)),
            _ => None,
        }
    }

    /// Cells over all groups.
    pub fn cell_count(&self) -> usize {
        self.groups.iter().map(|g| g.cells.len()).sum()
    }
}

fn cells(policies: &[Policy], config: &PlatformConfig) -> Vec<CellSpec> {
    policies
        .iter()
        .map(|&policy| CellSpec {
            label: policy.name().to_string(),
            policy,
            config: config.clone(),
        })
        .collect()
}

/// The synthesizer's arrival model for a load class at the class's
/// typical rate — its own recipe without the per-function rate jitter,
/// so the seed moves arrival times and bursts but not the rate.
fn class_model(load: LoadClass, bursty: bool) -> ArrivalModel {
    let mean = load.typical_mean_gap();
    if bursty {
        ArrivalModel::Bursty {
            idle_gap: mean * 4,
            burst_gap: (mean / 12).max(SimDuration::from_millis(200)),
            idle_period: SimDuration::from_mins(6),
            burst_period: SimDuration::from_mins(1),
        }
    } else {
        ArrivalModel::ParetoGaps {
            min_gap: mean.mul_f64(0.35),
            alpha: 1.5,
        }
    }
}

/// A bursty `model` with idle and burst periods a quarter of the
/// synthesizer's (90 s and 15 s): the same rates and duty cycle, but
/// about 34 burst cycles an hour instead of 9, so the statistics and the
/// host cost average over many more bursts per simulated hour. Other
/// models pass through unchanged.
fn short_bursts(model: ArrivalModel) -> ArrivalModel {
    match model {
        ArrivalModel::Bursty {
            idle_gap,
            burst_gap,
            idle_period,
            burst_period,
        } => ArrivalModel::Bursty {
            idle_gap,
            burst_gap,
            idle_period: idle_period / 4,
            burst_period: burst_period / 4,
        },
        other => other,
    }
}

/// Per load class of `offload_mix`: independent traces per function,
/// and each trace's horizon. High-load FaaSMem cells cost most of a
/// round, so two high-load traces per function keep a round to a few
/// host seconds. Low-load requests are mostly cold starts; two low-load
/// traces keep them few enough that the pooled P99 stays below the
/// cold-start latencies instead of jumping between them across seeds.
const MIX_CLASSES: [(&str, LoadClass, bool, u64, SimTime); 2] = [
    ("high", LoadClass::High, true, 2, SimTime::from_mins(60)),
    ("low", LoadClass::Low, false, 2, SimTime::from_mins(360)),
];

/// Fig 12's head-to-head: the 11 catalog functions, each alone on a
/// node, under a bursty high-load and a low-load trace, for Baseline,
/// TMO and FaaSMem. Few containers are live, so the policy hooks, the
/// page-table batch operations and the RDMA link do most of the work.
fn offload_mix(seed: u64) -> Workload {
    const HEAD_TO_HEAD: [Policy; 3] = [Policy::Baseline, Policy::Tmo, Policy::FaasMem];
    let config = PlatformConfig::default();
    let mut seeds = SimRng::seed_from(seed);
    let mut groups = Vec::new();
    for (class, load, bursty, replicas, horizon) in MIX_CLASSES {
        for replica in 0..replicas {
            for spec in BenchmarkSpec::catalog() {
                groups.push(Group {
                    label: format!("{class}/{replica}/{}", spec.name),
                    seed: seeds.next_u64(),
                    model: short_bursts(class_model(load, bursty)),
                    spec,
                    duration: horizon,
                    cells: cells(&HEAD_TO_HEAD, &config),
                });
            }
        }
    }
    Workload {
        name: "offload_mix",
        groups,
        instruments: false,
    }
}

/// Pool nodes of the chaos fabric.
const CHAOS_NODES: u32 = 4;
/// Independent trace and fault-plan seeds in `chaos_observed`.
const CHAOS_REPLICAS: u64 = 24;
/// Simulated horizon of each `chaos_observed` trace.
const CHAOS_HORIZON: SimTime = SimTime::from_mins(60);

/// bert on bursty high-load traces under Baseline and FaaSMem, on a
/// 4-node fabric with 2-way mirroring, while seeded link outages and
/// pool-node losses degrade it (disc07's and disc08's fault families
/// together), with every observation instrument on. Degraded links,
/// retries, replica writes and repair traffic replace plain page-out
/// and page-in.
fn chaos_observed(seed: u64) -> Workload {
    let bert = BenchmarkSpec::by_name("bert").expect("bert is in the catalog");
    let mut seeds = SimRng::seed_from(seed);
    let groups = (0..CHAOS_REPLICAS)
        .map(|replica| {
            let config = PlatformConfig {
                fabric: FabricConfig {
                    nodes: CHAOS_NODES,
                    redundancy: RedundancyPolicy::Mirror { k: 2 },
                    repair_bytes_per_sec: 32 << 20,
                    ..FabricConfig::default()
                },
                faults: Some(FaultConfig {
                    spec: FaultSpec::new(seeds.next_u64())
                        .outages(SimDuration::from_mins(5), SimDuration::from_secs(30))
                        .pool_node_losses(SimDuration::from_mins(10), CHAOS_NODES),
                    policy: RemoteFaultPolicy::hasty(),
                    slo: Some(SimDuration::from_secs(2)),
                    plan_override: None,
                }),
                ..PlatformConfig::default()
            };
            Group {
                label: format!("high-bursty/bert/{replica}"),
                spec: bert.clone(),
                seed: seeds.next_u64(),
                model: short_bursts(class_model(LoadClass::High, true)),
                duration: CHAOS_HORIZON,
                cells: cells(&[Policy::Baseline, Policy::FaasMem], &config),
            }
        })
        .collect();
    Workload {
        name: "chaos_observed",
        groups,
        instruments: true,
    }
}
