//! The benchmark's policy-timing decorator.
//!
//! [`TimedPolicy`] implements [`MemoryPolicy`] by forwarding every hook
//! to the boxed inner policy, and records per hook the call count and
//! the inclusive host time — inclusive because the mem and pool work a
//! policy triggers through its [`PolicyCtx`] runs inside the call. For
//! `on_tick` it also counts the calls that moved at least one page,
//! read from the container's page table before and after the call. It
//! observes only: the simulated run is the same with or without it.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use faasmem_faas::{MemoryPolicy, PageFlows, PolicyCtx};
use faasmem_sim::SimDuration;

/// The hooks of [`MemoryPolicy`], in report order.
pub const HOOKS: [&str; 6] = [
    "on_tick",
    "on_request_start",
    "on_request_end",
    "on_runtime_loaded",
    "on_init_done",
    "on_container_recycled",
];

const TICK: usize = 0;
const REQUEST_START: usize = 1;
const REQUEST_END: usize = 2;
const RUNTIME_LOADED: usize = 3;
const INIT_DONE: usize = 4;
const RECYCLED: usize = 5;

/// Calls and inclusive host time of one hook.
#[derive(Debug, Clone, Copy, Default)]
pub struct HookStat {
    /// Times the hook fired.
    pub calls: u64,
    /// Inclusive host seconds spent in the hook.
    pub secs: f64,
}

/// What one wrapped policy recorded over a run.
#[derive(Debug, Clone, Default)]
pub struct PolicyTiming {
    /// Per hook, in [`HOOKS`] order.
    pub hooks: [HookStat; 6],
    /// `on_tick` calls after which the container had moved a page.
    pub useful_ticks: u64,
    /// Pages offloaded over the lifetimes of the recycled containers.
    pub pages_offloaded: u64,
    /// Pages recalled (on demand or by prefetch) over those lifetimes.
    pub pages_recalled: u64,
}

impl PolicyTiming {
    /// Host seconds over all hooks.
    pub fn total_secs(&self) -> f64 {
        self.hooks.iter().map(|h| h.secs).sum()
    }

    /// Adds another run's record into this one.
    pub fn merge(&mut self, other: &PolicyTiming) {
        for (a, b) in self.hooks.iter_mut().zip(&other.hooks) {
            a.calls += b.calls;
            a.secs += b.secs;
        }
        self.useful_ticks += other.useful_ticks;
        self.pages_offloaded += other.pages_offloaded;
        self.pages_recalled += other.pages_recalled;
    }
}

/// Shared handle the benchmark keeps after the platform takes the policy.
pub type TimingHandle = Rc<RefCell<PolicyTiming>>;

/// Forwards every hook to `inner` and records into a [`TimingHandle`].
pub struct TimedPolicy {
    inner: Box<dyn MemoryPolicy>,
    timing: TimingHandle,
}

impl TimedPolicy {
    /// Wraps `inner`; the returned handle reads the record after the run.
    pub fn wrap(inner: Box<dyn MemoryPolicy>) -> (TimedPolicy, TimingHandle) {
        let timing = TimingHandle::default();
        (
            TimedPolicy {
                inner,
                timing: timing.clone(),
            },
            timing,
        )
    }

    fn record(&self, hook: usize, start: Instant) {
        let secs = start.elapsed().as_secs_f64();
        let mut t = self.timing.borrow_mut();
        t.hooks[hook].calls += 1;
        t.hooks[hook].secs += secs;
    }
}

/// Pages that changed residency so far: a tick that moved a page
/// changes this.
fn moved(flows: PageFlows) -> (u64, u64, u64) {
    (
        flows.offloaded,
        flows.recalled_demand,
        flows.recalled_prefetch,
    )
}

impl MemoryPolicy for TimedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn tick_interval(&self) -> Option<SimDuration> {
        self.inner.tick_interval()
    }

    fn on_runtime_loaded(&mut self, ctx: &mut PolicyCtx<'_>) {
        let start = Instant::now();
        self.inner.on_runtime_loaded(ctx);
        self.record(RUNTIME_LOADED, start);
    }

    fn on_init_done(&mut self, ctx: &mut PolicyCtx<'_>) {
        let start = Instant::now();
        self.inner.on_init_done(ctx);
        self.record(INIT_DONE, start);
    }

    fn on_request_start(&mut self, ctx: &mut PolicyCtx<'_>, idle: Option<SimDuration>) {
        let start = Instant::now();
        self.inner.on_request_start(ctx, idle);
        self.record(REQUEST_START, start);
    }

    fn on_request_end(&mut self, ctx: &mut PolicyCtx<'_>) {
        let start = Instant::now();
        self.inner.on_request_end(ctx);
        self.record(REQUEST_END, start);
    }

    fn on_tick(&mut self, ctx: &mut PolicyCtx<'_>) {
        let before = moved(ctx.container.table().flows());
        let start = Instant::now();
        self.inner.on_tick(ctx);
        self.record(TICK, start);
        if moved(ctx.container.table().flows()) != before {
            self.timing.borrow_mut().useful_ticks += 1;
        }
    }

    fn on_container_recycled(&mut self, ctx: &mut PolicyCtx<'_>) {
        let start = Instant::now();
        self.inner.on_container_recycled(ctx);
        self.record(RECYCLED, start);
        let flows = ctx.container.table().flows();
        let mut t = self.timing.borrow_mut();
        t.pages_offloaded += flows.offloaded;
        t.pages_recalled += flows.recalled_demand + flows.recalled_prefetch;
    }
}
