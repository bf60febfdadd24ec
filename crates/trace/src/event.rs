//! The typed event model: layers, filter masks, event kinds and the
//! stamped [`TraceEvent`] record.
//!
//! Every event carries a `(sim_time, seq)` pair assigned by the
//! [`Tracer`](crate::Tracer) at emission. `seq` is strictly monotone
//! within one tracer, so the pair is a total order over the events of a
//! cell regardless of how many emitters interleave. Events never carry
//! wall-clock time — that is the core determinism rule (wall-clock
//! lives only in `.timing.json` files, which are never byte-compared).

use crate::json::{CompactObject, Fields, JsonValue};
use faasmem_sim::SimTime;

/// The subsystem an event originates from. Used for `--trace-filter`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TraceLayer {
    /// Harness cell boundaries (grid cell start/end).
    Harness,
    /// Container lifecycle and request execution (`faas::platform`).
    Container,
    /// Page-table events: scans, generations, offload, page-in (`mem`).
    Memory,
    /// Remote-pool transfers, faults, breaker transitions (`pool`).
    Pool,
}

impl TraceLayer {
    /// All layers, in a fixed order.
    pub const ALL: [TraceLayer; 4] = [
        TraceLayer::Harness,
        TraceLayer::Container,
        TraceLayer::Memory,
        TraceLayer::Pool,
    ];

    /// The stable lowercase name used in JSONL output and CLI filters.
    pub fn name(self) -> &'static str {
        match self {
            TraceLayer::Harness => "harness",
            TraceLayer::Container => "container",
            TraceLayer::Memory => "memory",
            TraceLayer::Pool => "pool",
        }
    }

    fn bit(self) -> u8 {
        1 << (self as u8)
    }
}

impl std::str::FromStr for TraceLayer {
    type Err = String;

    fn from_str(s: &str) -> Result<TraceLayer, String> {
        match s {
            "harness" => Ok(TraceLayer::Harness),
            "container" => Ok(TraceLayer::Container),
            "memory" => Ok(TraceLayer::Memory),
            "pool" => Ok(TraceLayer::Pool),
            other => Err(format!(
                "unknown trace layer '{other}' (expected harness, container, memory or pool)"
            )),
        }
    }
}

/// A set of [`TraceLayer`]s, used to filter emission at the source so
/// disabled layers cost one branch per event site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerMask(u8);

impl LayerMask {
    /// Every layer enabled (the default for `--trace`).
    pub const ALL: LayerMask = LayerMask(0b1111);
    /// No layer enabled.
    pub const NONE: LayerMask = LayerMask(0);

    /// A mask with exactly one layer enabled.
    pub fn only(layer: TraceLayer) -> LayerMask {
        LayerMask(layer.bit())
    }

    /// This mask with `layer` also enabled.
    pub fn with(self, layer: TraceLayer) -> LayerMask {
        LayerMask(self.0 | layer.bit())
    }

    /// Whether `layer` is enabled.
    pub fn contains(self, layer: TraceLayer) -> bool {
        self.0 & layer.bit() != 0
    }

    /// Parses a comma-separated layer list (`"container,pool"`).
    /// Empty segments are ignored; an unknown name is an error.
    pub fn parse_list(list: &str) -> Result<LayerMask, String> {
        let mut mask = LayerMask::NONE;
        for part in list.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            mask = mask.with(part.parse::<TraceLayer>()?);
        }
        Ok(mask)
    }
}

impl Default for LayerMask {
    fn default() -> LayerMask {
        LayerMask::ALL
    }
}

/// The stall family an [`EventKind::ExecStall`] span belongs to.
///
/// Mirrors the non-trivial blame components of
/// `faasmem-metrics::blame` (the trace crate stays dependency-free of
/// the metrics crate, so the names — not the types — are the contract:
/// each `name()` equals the matching `BlameComponent::name()`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StallCause {
    /// CPU cost of servicing page faults.
    FaultCpu,
    /// Wall time stalled on remote page transfers (incl. retry
    /// backoff).
    RecallStall,
    /// Extra penalty of a replica detour after primary loss or an open
    /// breaker.
    FailoverDetour,
    /// Time wasted on a recall attempt that ultimately gave up.
    AbandonedWait,
    /// Slow-path cold rebuild of remote state lost beyond recovery.
    ForcedRebuild,
}

impl StallCause {
    /// Every cause, in a fixed order.
    pub const ALL: [StallCause; 5] = [
        StallCause::FaultCpu,
        StallCause::RecallStall,
        StallCause::FailoverDetour,
        StallCause::AbandonedWait,
        StallCause::ForcedRebuild,
    ];

    /// Stable snake_case name used in JSONL payloads; equals the
    /// matching blame-component name.
    pub fn name(self) -> &'static str {
        match self {
            StallCause::FaultCpu => "fault_cpu",
            StallCause::RecallStall => "recall_stall",
            StallCause::FailoverDetour => "failover_detour",
            StallCause::AbandonedWait => "abandoned_wait",
            StallCause::ForcedRebuild => "forced_rebuild",
        }
    }

    /// Parses a cause from its canonical name.
    pub fn from_name(name: &str) -> Option<StallCause> {
        StallCause::ALL.into_iter().find(|c| c.name() == name)
    }
}

/// What happened. Each variant belongs to one [`TraceLayer`] and
/// carries a small, fully deterministic payload (counts, byte totals,
/// simulated durations in microseconds — never wall-clock).
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    // -- harness ------------------------------------------------------
    /// A grid cell began: the experiment labels and seeds for the run.
    CellStart {
        /// Trace label (workload trace name).
        trace: String,
        /// Benchmark label.
        bench: String,
        /// Config label.
        config: String,
        /// Policy label.
        policy: String,
        /// Deterministic cell seed.
        seed: u64,
    },
    /// A grid cell finished cleanly.
    CellEnd {
        /// Requests completed over the cell.
        requests: u64,
        /// Simulated duration of the run in seconds.
        sim_secs: f64,
    },

    // -- container lifecycle ------------------------------------------
    /// A request arrived for a function.
    RequestArrive {
        /// Function index within the registered spec set.
        function: u32,
    },
    /// A cold start began: a new container was created.
    ContainerLaunch {
        /// Function index the container serves.
        function: u32,
    },
    /// The container runtime finished loading.
    RuntimeLoaded,
    /// Language/runtime initialization completed.
    InitDone,
    /// Request execution began on a container.
    ExecStart {
        /// Whether this execution is the container's cold start.
        cold: bool,
    },
    /// Request execution finished.
    ExecEnd {
        /// End-to-end request latency in simulated microseconds.
        latency_us: u64,
        /// Demand page faults taken during this execution.
        faults: u64,
    },
    /// One named stall component charged to the executing request.
    ///
    /// The platform previously folded all stalls invisibly into the
    /// execution window; this is the begin marker of a synthetic child
    /// span. Stalls serialize at the head of the execution window, so
    /// the span covers `[t, t + us)` with consecutive `ExecStall`
    /// events of one request laid end to end — the matching
    /// [`EventKind::ExecEnd`] closes the chain.
    ExecStall {
        /// Which blame family the stall belongs to.
        cause: StallCause,
        /// Stalled simulated microseconds.
        us: u64,
    },
    /// The container went idle into the keep-alive pool.
    KeepAliveEnter,
    /// The container was recycled (keep-alive expiry or fault policy).
    ContainerRetire {
        /// Requests the container served over its lifetime.
        requests: u64,
    },
    /// The container was killed by an injected crash event.
    ContainerCrash,
    /// A memory-node loss event hit the pool.
    NodeLoss {
        /// Containers forcibly recycled by the loss.
        victims: u64,
        /// Remote bytes lost with the node.
        lost_bytes: u64,
    },

    // -- memory -------------------------------------------------------
    /// An access-bit scan over a container's pages.
    AccessScan {
        /// Pages resident (local + remote) at scan time.
        live: u64,
        /// Pages observed accessed since the previous scan.
        accessed: u64,
    },
    /// A new MGLRU generation was created (promote tip).
    GenerationCreate {
        /// The new generation number.
        generation: u64,
    },
    /// Generations were aged and idle pages collected (demote).
    GenerationAge {
        /// Generation threshold used for collection.
        threshold: u64,
        /// Pages collected as offload candidates.
        collected: u64,
    },
    /// Pages moved local → remote in the page table.
    MemOffload {
        /// Pages offloaded.
        pages: u64,
    },
    /// Pages moved remote → local in the page table.
    MemPageIn {
        /// Pages brought back.
        pages: u64,
        /// `true` for demand faults, `false` for prefetch.
        demand: bool,
    },

    // -- pool ---------------------------------------------------------
    /// A transfer to the memory pool completed.
    PoolPageOut {
        /// Bytes moved.
        bytes: u64,
        /// Transfer duration in simulated microseconds.
        stall_us: u64,
        /// Time spent queued behind earlier transfers (saturation).
        queued_us: u64,
    },
    /// A transfer back from the memory pool completed.
    PoolPageIn {
        /// Bytes moved.
        bytes: u64,
        /// Transfer duration in simulated microseconds.
        stall_us: u64,
        /// Time spent queued behind earlier transfers (saturation).
        queued_us: u64,
    },
    /// Remote bytes were discarded without transfer (container retire).
    PoolDiscard {
        /// Bytes released.
        bytes: u64,
    },
    /// A recall transfer was issued to the pool — the begin marker
    /// paired with the completing [`EventKind::PoolPageIn`] (which was
    /// previously the only, point, event of a recall).
    RecallBegin {
        /// Bytes requested back.
        bytes: u64,
    },
    /// An offload attempt was refused (suspension or link down).
    OffloadRefused,
    /// A resilient recall attempt timed out and scheduled a retry.
    RecallRetry {
        /// 1-based attempt number that failed.
        attempt: u64,
        /// Total simulated microseconds wasted so far in this recall.
        waited_us: u64,
    },
    /// A resilient recall exhausted its retry budget.
    RecallGaveUp {
        /// Attempts made.
        retries: u64,
        /// Total simulated microseconds wasted before giving up.
        wasted_us: u64,
    },
    /// The recall circuit breaker tripped open.
    BreakerOpen,
    /// The recall circuit breaker cooled down and closed.
    BreakerClose,
    /// A degraded-bandwidth window from the fault plan.
    FaultWindow {
        /// Window start, simulated microseconds.
        start_us: u64,
        /// Window end, simulated microseconds (`u64::MAX` = permanent).
        end_us: u64,
        /// Bandwidth multiplier in effect (0 = outage).
        factor: f64,
    },
    /// A resilient recall was abandoned and the container's lost pages
    /// are being rebuilt locally from a cold start (the previously
    /// silent give-up path after [`EventKind::RecallGaveUp`]).
    RecallAbandoned {
        /// Remote pages written off.
        pages: u64,
        /// Simulated microseconds wasted on the failed recall.
        wasted_us: u64,
        /// Simulated microseconds the local cold rebuild costs.
        rebuild_us: u64,
    },
    /// A recall was served from a surviving replica / fragment set after
    /// the primary pool node failed or the breaker forced a detour.
    ReplicaRecall {
        /// Pool node the recall was served from.
        node: u64,
        /// Bytes brought home.
        bytes: u64,
        /// Extra reconstruction latency charged (erasure-coded reads).
        reconstruct_us: u64,
    },
    /// The repair queue scheduled re-replication of one lost fragment.
    RepairStart {
        /// Target pool node receiving the new copy.
        node: u64,
        /// Bytes to re-replicate.
        bytes: u64,
        /// Repair-queue backlog (bytes) including this item.
        backlog_bytes: u64,
    },
    /// A repair item completed and the segment regained a fragment.
    RepairDone {
        /// Pool node that received the new copy.
        node: u64,
        /// Bytes re-replicated.
        bytes: u64,
        /// Time from the node loss to this repair, simulated µs.
        mttr_us: u64,
    },
    /// A whole pool node died; its replicas/fragments are gone.
    PoolNodeDown {
        /// Id of the dead pool node.
        node: u64,
        /// Segments that dropped below the recovery threshold (lost).
        lost_segments: u64,
        /// Segments that survived above threshold (degraded).
        degraded_segments: u64,
    },
}

impl EventKind {
    /// The layer this kind belongs to.
    pub fn layer(&self) -> TraceLayer {
        use EventKind::*;
        match self {
            CellStart { .. } | CellEnd { .. } => TraceLayer::Harness,
            RequestArrive { .. }
            | ContainerLaunch { .. }
            | RuntimeLoaded
            | InitDone
            | ExecStart { .. }
            | ExecStall { .. }
            | ExecEnd { .. }
            | KeepAliveEnter
            | ContainerRetire { .. }
            | ContainerCrash
            | NodeLoss { .. }
            | RecallAbandoned { .. } => TraceLayer::Container,
            AccessScan { .. }
            | GenerationCreate { .. }
            | GenerationAge { .. }
            | MemOffload { .. }
            | MemPageIn { .. } => TraceLayer::Memory,
            PoolPageOut { .. }
            | PoolPageIn { .. }
            | PoolDiscard { .. }
            | RecallBegin { .. }
            | OffloadRefused
            | RecallRetry { .. }
            | RecallGaveUp { .. }
            | BreakerOpen
            | BreakerClose
            | FaultWindow { .. }
            | ReplicaRecall { .. }
            | RepairStart { .. }
            | RepairDone { .. }
            | PoolNodeDown { .. } => TraceLayer::Pool,
        }
    }

    /// The stable snake_case kind name used in JSONL and Chrome output.
    pub fn name(&self) -> &'static str {
        use EventKind::*;
        match self {
            CellStart { .. } => "cell_start",
            CellEnd { .. } => "cell_end",
            RequestArrive { .. } => "request_arrive",
            ContainerLaunch { .. } => "container_launch",
            RuntimeLoaded => "runtime_loaded",
            InitDone => "init_done",
            ExecStart { .. } => "exec_start",
            ExecStall { .. } => "exec_stall",
            ExecEnd { .. } => "exec_end",
            KeepAliveEnter => "keep_alive_enter",
            ContainerRetire { .. } => "container_retire",
            ContainerCrash => "container_crash",
            NodeLoss { .. } => "node_loss",
            AccessScan { .. } => "access_scan",
            GenerationCreate { .. } => "generation_create",
            GenerationAge { .. } => "generation_age",
            MemOffload { .. } => "mem_offload",
            MemPageIn { .. } => "mem_page_in",
            PoolPageOut { .. } => "pool_page_out",
            PoolPageIn { .. } => "pool_page_in",
            PoolDiscard { .. } => "pool_discard",
            RecallBegin { .. } => "recall_begin",
            OffloadRefused => "offload_refused",
            RecallRetry { .. } => "recall_retry",
            RecallGaveUp { .. } => "recall_gave_up",
            BreakerOpen => "breaker_open",
            BreakerClose => "breaker_close",
            FaultWindow { .. } => "fault_window",
            RecallAbandoned { .. } => "recall_abandoned",
            ReplicaRecall { .. } => "replica_recall",
            RepairStart { .. } => "repair_start",
            RepairDone { .. } => "repair_done",
            PoolNodeDown { .. } => "pool_node_down",
        }
    }

    /// Writes the payload fields, in declaration order, to `f`. This is
    /// the one per-kind field list: the JSON tree
    /// ([`push_payload`](Self::push_payload)) and the direct JSONL
    /// writer ([`TraceEvent::write_jsonl`]) both go through it.
    pub fn write_payload<F: Fields>(&self, f: &mut F) {
        use EventKind::*;
        match self {
            CellStart {
                trace,
                bench,
                config,
                policy,
                seed,
            } => {
                f.str("trace", trace);
                f.str("bench", bench);
                f.str("config", config);
                f.str("policy", policy);
                f.u64("seed", *seed);
            }
            CellEnd { requests, sim_secs } => {
                f.u64("requests", *requests);
                f.f64("sim_secs", *sim_secs);
            }
            RequestArrive { function } | ContainerLaunch { function } => {
                f.u64("function", u64::from(*function));
            }
            RuntimeLoaded | InitDone | KeepAliveEnter | ContainerCrash | OffloadRefused
            | BreakerOpen | BreakerClose => {}
            ExecStart { cold } => {
                f.bool("cold", *cold);
            }
            ExecStall { cause, us } => {
                f.str("cause", cause.name());
                f.u64("us", *us);
            }
            ExecEnd { latency_us, faults } => {
                f.u64("latency_us", *latency_us);
                f.u64("faults", *faults);
            }
            ContainerRetire { requests } => {
                f.u64("requests", *requests);
            }
            NodeLoss {
                victims,
                lost_bytes,
            } => {
                f.u64("victims", *victims);
                f.u64("lost_bytes", *lost_bytes);
            }
            AccessScan { live, accessed } => {
                f.u64("live", *live);
                f.u64("accessed", *accessed);
            }
            GenerationCreate { generation } => {
                f.u64("generation", *generation);
            }
            GenerationAge {
                threshold,
                collected,
            } => {
                f.u64("threshold", *threshold);
                f.u64("collected", *collected);
            }
            MemOffload { pages } => {
                f.u64("pages", *pages);
            }
            MemPageIn { pages, demand } => {
                f.u64("pages", *pages);
                f.bool("demand", *demand);
            }
            PoolPageOut {
                bytes,
                stall_us,
                queued_us,
            }
            | PoolPageIn {
                bytes,
                stall_us,
                queued_us,
            } => {
                f.u64("bytes", *bytes);
                f.u64("stall_us", *stall_us);
                f.u64("queued_us", *queued_us);
            }
            PoolDiscard { bytes } | RecallBegin { bytes } => {
                f.u64("bytes", *bytes);
            }
            RecallRetry { attempt, waited_us } => {
                f.u64("attempt", *attempt);
                f.u64("waited_us", *waited_us);
            }
            RecallGaveUp { retries, wasted_us } => {
                f.u64("retries", *retries);
                f.u64("wasted_us", *wasted_us);
            }
            FaultWindow {
                start_us,
                end_us,
                factor,
            } => {
                f.u64("start_us", *start_us);
                f.u64("end_us", *end_us);
                f.f64("factor", *factor);
            }
            RecallAbandoned {
                pages,
                wasted_us,
                rebuild_us,
            } => {
                f.u64("pages", *pages);
                f.u64("wasted_us", *wasted_us);
                f.u64("rebuild_us", *rebuild_us);
            }
            ReplicaRecall {
                node,
                bytes,
                reconstruct_us,
            } => {
                f.u64("node", *node);
                f.u64("bytes", *bytes);
                f.u64("reconstruct_us", *reconstruct_us);
            }
            RepairStart {
                node,
                bytes,
                backlog_bytes,
            } => {
                f.u64("node", *node);
                f.u64("bytes", *bytes);
                f.u64("backlog_bytes", *backlog_bytes);
            }
            RepairDone {
                node,
                bytes,
                mttr_us,
            } => {
                f.u64("node", *node);
                f.u64("bytes", *bytes);
                f.u64("mttr_us", *mttr_us);
            }
            PoolNodeDown {
                node,
                lost_segments,
                degraded_segments,
            } => {
                f.u64("node", *node);
                f.u64("lost_segments", *lost_segments);
                f.u64("degraded_segments", *degraded_segments);
            }
        }
    }

    /// Appends the payload fields, in declaration order, to a JSON
    /// object. Payload keys come after the envelope keys so every line
    /// shares a stable prefix.
    pub fn push_payload(&self, doc: &mut JsonValue) {
        self.write_payload(doc);
    }
}

/// One stamped trace record. `(time, seq)` is a total order within a
/// cell; `container`/`request` are parent span ids linking a page or
/// pool operation back to the container and request that caused it.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Simulated timestamp at emission.
    pub time: SimTime,
    /// Strictly monotone per-tracer sequence number (tie-break).
    pub seq: u64,
    /// Owning container id, when the event is container-scoped.
    pub container: Option<u64>,
    /// Owning request index, when the event is request-scoped.
    pub request: Option<u64>,
    /// What happened.
    pub kind: EventKind,
}

impl TraceEvent {
    /// The `(sim_time_us, seq)` sort key.
    pub fn key(&self) -> (u64, u64) {
        (self.time.as_micros(), self.seq)
    }

    /// Writes the event's members to `f`: the envelope in fixed order
    /// (`cell`, `t`, `seq`, `layer`, `kind`, then `ctr` and `req` when
    /// present), followed by the payload.
    fn write_fields<F: Fields>(&self, cell: Option<u64>, f: &mut F) {
        if let Some(cell) = cell {
            f.u64("cell", cell);
        }
        f.u64("t", self.time.as_micros());
        f.u64("seq", self.seq);
        f.str("layer", self.kind.layer().name());
        f.str("kind", self.kind.name());
        if let Some(ctr) = self.container {
            f.u64("ctr", ctr);
        }
        if let Some(req) = self.request {
            f.u64("req", req);
        }
        self.kind.write_payload(f);
    }

    /// Renders the event as one JSONL object. Envelope keys come first
    /// in fixed order (`cell`, `t`, `seq`, `layer`, `kind`, then `ctr`
    /// and `req` when present), followed by the payload.
    pub fn to_json(&self, cell: Option<u64>) -> JsonValue {
        let mut doc = JsonValue::obj();
        self.write_fields(cell, &mut doc);
        doc
    }

    /// Appends the event as one compact JSONL line (no trailing
    /// newline) to `out`, with no JSON tree in between. The bytes equal
    /// `self.to_json(cell).to_compact()`.
    pub fn write_jsonl(&self, cell: Option<u64>, out: &mut String) {
        let mut obj = CompactObject::open(out);
        self.write_fields(cell, &mut obj);
        obj.close();
    }

    /// The event as one compact JSONL line (no trailing newline).
    pub fn jsonl_line(&self, cell: Option<u64>) -> String {
        // Most lines fit, so the line is usually allocated once.
        let mut line = String::with_capacity(128);
        self.write_jsonl(cell, &mut line);
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_names_roundtrip_through_fromstr() {
        for layer in TraceLayer::ALL {
            assert_eq!(layer.name().parse::<TraceLayer>().unwrap(), layer);
        }
        assert!("disk".parse::<TraceLayer>().is_err());
    }

    #[test]
    fn mask_parsing_and_membership() {
        let mask = LayerMask::parse_list("container, pool,").unwrap();
        assert!(mask.contains(TraceLayer::Container));
        assert!(mask.contains(TraceLayer::Pool));
        assert!(!mask.contains(TraceLayer::Memory));
        assert!(!mask.contains(TraceLayer::Harness));
        assert_eq!(LayerMask::parse_list("").unwrap(), LayerMask::NONE);
        assert!(LayerMask::parse_list("container,bogus").is_err());
        assert_eq!(LayerMask::default(), LayerMask::ALL);
        for layer in TraceLayer::ALL {
            assert!(LayerMask::ALL.contains(layer));
            assert!(!LayerMask::NONE.contains(layer));
            assert!(LayerMask::only(layer).contains(layer));
        }
    }

    #[test]
    fn stall_cause_names_roundtrip() {
        for cause in StallCause::ALL {
            assert_eq!(StallCause::from_name(cause.name()), Some(cause));
        }
        assert_eq!(StallCause::from_name("coffee_break"), None);
    }

    #[test]
    fn jsonl_envelope_key_order_is_fixed() {
        let event = TraceEvent {
            time: SimTime::from_secs(1),
            seq: 7,
            container: Some(3),
            request: Some(12),
            kind: EventKind::ExecEnd {
                latency_us: 4500,
                faults: 2,
            },
        };
        assert_eq!(
            event.jsonl_line(Some(0)),
            "{\"cell\":0,\"t\":1000000,\"seq\":7,\"layer\":\"container\",\
             \"kind\":\"exec_end\",\"ctr\":3,\"req\":12,\"latency_us\":4500,\"faults\":2}"
        );
    }

    #[test]
    fn optional_span_ids_are_omitted() {
        let event = TraceEvent {
            time: SimTime::ZERO,
            seq: 0,
            container: None,
            request: None,
            kind: EventKind::BreakerOpen,
        };
        assert_eq!(
            event.jsonl_line(None),
            "{\"t\":0,\"seq\":0,\"layer\":\"pool\",\"kind\":\"breaker_open\"}"
        );
    }

    /// One event of every kind, its integer fields set to `n`, its
    /// float fields to `x` and its strings to `s`.
    fn one_of_each(n: u64, x: f64, s: &str) -> Vec<EventKind> {
        use EventKind::*;
        let kinds = vec![
            CellStart {
                trace: s.into(),
                bench: format!("{s}/b"),
                config: String::new(),
                policy: s.chars().rev().collect(),
                seed: n,
            },
            CellEnd {
                requests: n,
                sim_secs: x,
            },
            RequestArrive { function: n as u32 },
            ContainerLaunch {
                function: (n >> 32) as u32,
            },
            RuntimeLoaded,
            InitDone,
            ExecStart {
                cold: n.is_multiple_of(2),
            },
            ExecStall {
                cause: StallCause::ALL[n as usize % StallCause::ALL.len()],
                us: n,
            },
            ExecEnd {
                latency_us: n,
                faults: n / 3,
            },
            KeepAliveEnter,
            ContainerRetire { requests: n },
            ContainerCrash,
            NodeLoss {
                victims: n,
                lost_bytes: n / 7,
            },
            AccessScan {
                live: n,
                accessed: n / 2,
            },
            GenerationCreate { generation: n },
            GenerationAge {
                threshold: n,
                collected: n / 5,
            },
            MemOffload { pages: n },
            MemPageIn {
                pages: n,
                demand: !n.is_multiple_of(2),
            },
            PoolPageOut {
                bytes: n,
                stall_us: n / 11,
                queued_us: n / 13,
            },
            PoolPageIn {
                bytes: n,
                stall_us: n / 13,
                queued_us: n / 11,
            },
            PoolDiscard { bytes: n },
            RecallBegin { bytes: n },
            OffloadRefused,
            RecallRetry {
                attempt: n,
                waited_us: n / 3,
            },
            RecallGaveUp {
                retries: n,
                wasted_us: n / 3,
            },
            BreakerOpen,
            BreakerClose,
            FaultWindow {
                start_us: n / 2,
                end_us: n,
                factor: x,
            },
            RecallAbandoned {
                pages: n,
                wasted_us: n / 3,
                rebuild_us: n / 9,
            },
            ReplicaRecall {
                node: n,
                bytes: n / 2,
                reconstruct_us: n / 4,
            },
            RepairStart {
                node: n,
                bytes: n / 2,
                backlog_bytes: n / 4,
            },
            RepairDone {
                node: n,
                bytes: n / 2,
                mttr_us: n / 4,
            },
            PoolNodeDown {
                node: n,
                lost_segments: n / 2,
                degraded_segments: n / 4,
            },
        ];
        // Fails to compile when a kind is added, until it is listed
        // above and here.
        let ordinal = |kind: &EventKind| match kind {
            CellStart { .. } => 0,
            CellEnd { .. } => 1,
            RequestArrive { .. } => 2,
            ContainerLaunch { .. } => 3,
            RuntimeLoaded => 4,
            InitDone => 5,
            ExecStart { .. } => 6,
            ExecStall { .. } => 7,
            ExecEnd { .. } => 8,
            KeepAliveEnter => 9,
            ContainerRetire { .. } => 10,
            ContainerCrash => 11,
            NodeLoss { .. } => 12,
            AccessScan { .. } => 13,
            GenerationCreate { .. } => 14,
            GenerationAge { .. } => 15,
            MemOffload { .. } => 16,
            MemPageIn { .. } => 17,
            PoolPageOut { .. } => 18,
            PoolPageIn { .. } => 19,
            PoolDiscard { .. } => 20,
            RecallBegin { .. } => 21,
            OffloadRefused => 22,
            RecallRetry { .. } => 23,
            RecallGaveUp { .. } => 24,
            BreakerOpen => 25,
            BreakerClose => 26,
            FaultWindow { .. } => 27,
            RecallAbandoned { .. } => 28,
            ReplicaRecall { .. } => 29,
            RepairStart { .. } => 30,
            RepairDone { .. } => 31,
            PoolNodeDown { .. } => 32,
        };
        assert!(kinds.iter().map(ordinal).eq(0..kinds.len()));
        kinds
    }

    #[test]
    fn direct_jsonl_matches_the_tree_for_every_kind() {
        let ints = [
            0,
            7,
            4500,
            999_999_999_999_999,
            1_000_000_000_000_000,
            1 << 53,
            (1 << 53) + 1,
            u64::MAX,
        ];
        let floats = [
            0.0,
            -0.0,
            1.0,
            0.5,
            1.0 / 3.0,
            -2.5e-7,
            1e15,
            1e21,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        let strings = ["bert", "", "a\"b\\c\nd\te\r\u{1}\u{1f}", "ünï—cødé"];
        let mut out = String::new();
        for (i, &n) in ints.iter().enumerate() {
            for (j, &x) in floats.iter().enumerate() {
                let s = strings[(i + j) % strings.len()];
                for kind in one_of_each(n, x, s) {
                    let event = TraceEvent {
                        time: SimTime::from_micros(n / 1_000_000),
                        seq: n,
                        container: (!j.is_multiple_of(3)).then_some(n / 2),
                        request: j.is_multiple_of(2).then_some(n / 3),
                        kind,
                    };
                    for cell in [None, Some(0), Some(n)] {
                        let tree = event.to_json(cell).to_compact();
                        assert_eq!(event.jsonl_line(cell), tree);
                        // Appending keeps what the buffer already holds.
                        out.clear();
                        out.push_str("{}\n");
                        event.write_jsonl(cell, &mut out);
                        assert_eq!(out[3..], tree);
                    }
                }
            }
        }
    }

    #[test]
    fn every_kind_reports_a_consistent_layer() {
        let kinds = one_of_each(1, 1.0, "t");
        for kind in &kinds {
            // Every kind serializes without panicking and its name is
            // non-empty; layer() must be stable with the JSONL field.
            let event = TraceEvent {
                time: SimTime::ZERO,
                seq: 0,
                container: None,
                request: None,
                kind: kind.clone(),
            };
            let line = event.jsonl_line(Some(1));
            assert!(line.contains(&format!("\"kind\":\"{}\"", kind.name())));
            assert!(line.contains(&format!("\"layer\":\"{}\"", kind.layer().name())));
        }
    }
}
