//! Pins the exact bytes of the instrument exports.
//!
//! The determinism tests compare serial against `--jobs` runs of the
//! same code, so a writer change that altered every byte the same way
//! on both sides would pass them. This test holds the JSONL trace, the
//! Chrome (pretty) trace and the compact series document of one short,
//! fault-heavy cell pair to recorded FNV-1a digests and lengths. A
//! writer rewrite must reproduce them exactly; a deliberate format
//! change updates the constants below together with the reason.

use faasmem_bench::harness::{
    run_grid, BenchCase, ConfigCase, ExperimentGrid, HarnessOptions, TraceSpec,
};
use faasmem_bench::PolicyKind;
use faasmem_faas::{FaultConfig, PlatformConfig};
use faasmem_pool::{FabricConfig, RedundancyPolicy, RemoteFaultPolicy};
use faasmem_sim::{FaultSpec, SimDuration};
use faasmem_workload::{BenchmarkSpec, LoadClass};

/// Sampling period of the pinned series.
const INTERVAL: SimDuration = SimDuration::from_secs(2);

/// 64-bit FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One bursty high-load trace (5 simulated minutes under `quick`) of
/// `web` under Baseline and FaaSMem, on a 4-node mirrored fabric with
/// link outages, pool-node losses and container crashes, and with
/// blame and memory anatomy on.
fn golden_grid() -> ExperimentGrid {
    let config = PlatformConfig {
        fabric: FabricConfig {
            nodes: 4,
            redundancy: RedundancyPolicy::Mirror { k: 2 },
            repair_bytes_per_sec: 32 << 20,
            ..FabricConfig::default()
        },
        faults: Some(FaultConfig {
            spec: FaultSpec::new(0x601D)
                .outages(SimDuration::from_mins(1), SimDuration::from_secs(20))
                .pool_node_losses(SimDuration::from_mins(2), 4)
                .crashes(SimDuration::from_mins(2)),
            policy: RemoteFaultPolicy::hasty(),
            slo: Some(SimDuration::from_secs(2)),
            plan_override: None,
        }),
        blame: true,
        memory_anatomy: true,
        ..PlatformConfig::default()
    };
    ExperimentGrid::new("export_golden")
        .trace(TraceSpec::synth("high-bursty", 6001, LoadClass::High).bursty(true))
        .bench(BenchCase::single(
            BenchmarkSpec::by_name("web").expect("catalog"),
        ))
        .config(ConfigCase::new("chaos-mirror", config))
        .policy_kinds([PolicyKind::Baseline, PolicyKind::FaasMem])
}

#[test]
fn instrument_exports_match_the_golden_digests() {
    let opts = HarnessOptions {
        jobs: 2,
        quick: true,
        trace: Some(std::path::PathBuf::from("unused.jsonl")),
        series: Some(std::path::PathBuf::from("unused.series.json")),
        series_interval: INTERVAL,
        ..HarnessOptions::default()
    };
    let run = run_grid(&golden_grid(), &opts);
    let jsonl = run.trace_jsonl();
    let chrome = run.chrome_json();
    let series = run.series_json(INTERVAL).to_compact();
    // The cell pair must keep exercising the fault paths it pins.
    for kind in [
        "exec_stall",
        "recall_retry",
        "recall_gave_up",
        "replica_recall",
        "repair_done",
        "pool_node_down",
        "container_crash",
        "fault_window",
    ] {
        assert!(
            jsonl.contains(&format!("\"kind\":\"{kind}\"")),
            "golden cell lost its {kind} events"
        );
    }
    let got = |text: &str| (text.len(), fnv1a(text.as_bytes()));
    assert_eq!(got(&jsonl), (322_948, 0x3b61_bfba_dd5d_7d0d), "JSONL trace");
    assert_eq!(
        got(&chrome),
        (648_146, 0x9d4c_87fd_928f_45cb),
        "Chrome trace"
    );
    assert_eq!(
        got(&series),
        (207_625, 0x0ad6_b830_8552_e47a),
        "series document"
    );
}
