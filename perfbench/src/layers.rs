//! Outside-in instrumentation of the program's public seams.
//!
//! Nothing here changes program code: a [`ForwardingFactory`] plugs in
//! through `PolicySpec::Custom` and forwards all thirteen
//! `SchedulingPolicy` methods to the built-in policy it wraps, a
//! [`TimedService`] plugs in through `Simulation::with_model_service` and
//! forwards to the default in-process parameter server, and a
//! [`CountingSink`] attaches through `Simulation::with_telemetry`. Each
//! counts its calls exactly and times them, sampling the hot `decide` path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
// fedco-audit: allow(wall-clock): the benchmark measures host time; no wall-clock reading feeds a simulated result
use std::time::Instant;

use fedco_core::online::{SlotOutcome, WaitingSpanProbe};
use fedco_core::policy::{SchedulingPolicy, UserSlotContext, WindowPlan};
use fedco_core::spec::{PolicyBuildContext, PolicyFactory, PolicySpec};
use fedco_device::power::SlotDecision;
use fedco_fl::model_state::{LocalUpdate, ModelSnapshot};
use fedco_fl::server::{ParameterServer, ServerStats, ServerTelemetry};
use fedco_fl::service::ModelService;
use fedco_fl::staleness::Lag;
use fedco_neural::tensor::TensorError;
use fedco_telemetry::event::{Channel, Event};
use fedco_telemetry::sink::Telemetry;

/// Only every this many `decide` calls is timed; the call count stays
/// exact. A traced paper sweep makes ~10⁷ decisions, too many to time each.
pub const DECIDE_SAMPLE_EVERY: u64 = 32;

/// The cost of one `Instant::now()` pair around an empty call, in ns. It is
/// subtracted from every timed sample.
pub fn timer_overhead_ns() -> u64 {
    let mut samples: Vec<u64> = (0..2001)
        .map(|_| {
            // fedco-audit: allow(wall-clock): the benchmark measures host time; no wall-clock reading feeds a simulated result
            let t = Instant::now();
            std::hint::black_box(());
            t.elapsed().as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Call count, timed-sample count and timed nanoseconds of one seam,
/// accumulated locally and then folded into a shared [`Tally`].
#[derive(Debug, Default, Clone, Copy)]
struct LocalTally {
    calls: u64,
    sampled: u64,
    ns: u64,
}

impl LocalTally {
    fn run<R>(&mut self, every: u64, overhead_ns: u64, f: impl FnOnce() -> R) -> R {
        self.calls += 1;
        if self.calls % every != 0 {
            return f();
        }
        // fedco-audit: allow(wall-clock): the benchmark measures host time; no wall-clock reading feeds a simulated result
        let start = Instant::now();
        let out = f();
        self.ns += (start.elapsed().as_nanos() as u64).saturating_sub(overhead_ns);
        self.sampled += 1;
        out
    }
}

/// A shared, thread-safe tally of one seam. The counters are statistics
/// only and publish no other data, so `Relaxed` suffices.
#[derive(Debug, Default)]
pub struct Tally {
    calls: AtomicU64,
    sampled: AtomicU64,
    ns: AtomicU64,
}

impl Tally {
    fn absorb(&self, local: LocalTally) {
        self.calls.fetch_add(local.calls, Ordering::Relaxed);
        self.sampled.fetch_add(local.sampled, Ordering::Relaxed);
        self.ns.fetch_add(local.ns, Ordering::Relaxed);
    }

    /// Exact number of calls.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Seconds spent in the seam: the timed samples scaled up to all calls.
    pub fn seconds(&self) -> f64 {
        let sampled = self.sampled.load(Ordering::Relaxed);
        if sampled == 0 {
            return 0.0;
        }
        self.ns.load(Ordering::Relaxed) as f64 / sampled as f64 * self.calls() as f64 / 1e9
    }
}

/// What the forwarding policies of one factory observed, across every run
/// (and worker thread) that built a policy from it.
#[derive(Debug, Default)]
pub struct CoreStats {
    /// `decide`.
    pub decide: Tally,
    /// `decide` calls that returned `Idle`.
    pub idle_decides: AtomicU64,
    /// `end_of_slot`.
    pub end_of_slot: Tally,
    /// `fast_forward_waiting`.
    pub ff_waiting: Tally,
    /// `next_wakeup_after`.
    pub wakeup: Tally,
    /// `install_plan`.
    pub install_plan: Tally,
}

impl CoreStats {
    /// Total seconds spent inside the policy seam.
    pub fn seconds(&self) -> f64 {
        self.decide.seconds()
            + self.end_of_slot.seconds()
            + self.ff_waiting.seconds()
            + self.wakeup.seconds()
            + self.install_plan.seconds()
    }
}

/// A `PolicySpec::Custom` factory whose policies forward every call to the
/// policy `inner` builds, counting and timing them into `stats`.
#[derive(Debug)]
pub struct ForwardingFactory {
    inner: PolicySpec,
    stats: Arc<CoreStats>,
    overhead_ns: u64,
}

impl ForwardingFactory {
    /// Wraps `inner` as a custom spec reporting into `stats`. The spec keeps
    /// `inner`'s label, so reports and fleet job seeds do not change.
    pub fn spec(inner: PolicySpec, stats: Arc<CoreStats>, overhead_ns: u64) -> PolicySpec {
        PolicySpec::custom(ForwardingFactory {
            inner,
            stats,
            overhead_ns,
        })
    }
}

impl PolicyFactory for ForwardingFactory {
    fn label(&self) -> String {
        self.inner.label()
    }

    fn build(&self, ctx: &PolicyBuildContext) -> Box<dyn SchedulingPolicy> {
        Box::new(ForwardingPolicy {
            inner: self.inner.build(ctx),
            stats: self.stats.clone(),
            overhead_ns: self.overhead_ns,
            decide: LocalTally::default(),
            idle_decides: 0,
            end_of_slot: LocalTally::default(),
            ff_waiting: LocalTally::default(),
            install_plan: LocalTally::default(),
        })
    }
}

/// One run's forwarding policy. Tallies stay local while the run is hot
/// and are folded into the shared stats when the policy is dropped.
#[derive(Debug)]
struct ForwardingPolicy {
    inner: Box<dyn SchedulingPolicy>,
    stats: Arc<CoreStats>,
    overhead_ns: u64,
    decide: LocalTally,
    idle_decides: u64,
    end_of_slot: LocalTally,
    ff_waiting: LocalTally,
    install_plan: LocalTally,
}

impl Drop for ForwardingPolicy {
    fn drop(&mut self) {
        self.stats.decide.absorb(self.decide);
        self.stats
            .idle_decides
            .fetch_add(self.idle_decides, Ordering::Relaxed);
        self.stats.end_of_slot.absorb(self.end_of_slot);
        self.stats.ff_waiting.absorb(self.ff_waiting);
        self.stats.install_plan.absorb(self.install_plan);
    }
}

impl SchedulingPolicy for ForwardingPolicy {
    fn decide(&mut self, ctx: &UserSlotContext) -> SlotDecision {
        let inner = &mut self.inner;
        let decision = self
            .decide
            .run(DECIDE_SAMPLE_EVERY, self.overhead_ns, || inner.decide(ctx));
        if decision == SlotDecision::Idle {
            self.idle_decides += 1;
        }
        decision
    }

    fn end_of_slot(&mut self, outcome: &SlotOutcome) {
        let inner = &mut self.inner;
        self.end_of_slot
            .run(1, self.overhead_ns, || inner.end_of_slot(outcome));
    }

    fn queue_backlog(&self) -> f64 {
        self.inner.queue_backlog()
    }

    fn virtual_backlog(&self) -> f64 {
        self.inner.virtual_backlog()
    }

    fn round_barrier(&self) -> bool {
        self.inner.round_barrier()
    }

    fn wants_replanning(&self, slot: u64) -> bool {
        self.inner.wants_replanning(slot)
    }

    fn install_plan(&mut self, plan: &WindowPlan) {
        let inner = &mut self.inner;
        self.install_plan
            .run(1, self.overhead_ns, || inner.install_plan(plan));
    }

    fn notify_scheduled(&mut self, user_id: usize) {
        self.inner.notify_scheduled(user_id);
    }

    fn decision_energy_overhead(&self) -> f64 {
        self.inner.decision_energy_overhead()
    }

    fn next_wakeup_after(&self, slot: u64) -> Option<u64> {
        // A `&self` method: no local tally to write, so each query goes
        // straight to the shared one.
        // fedco-audit: allow(wall-clock): the benchmark measures host time; no wall-clock reading feeds a simulated result
        let start = Instant::now();
        let out = self.inner.next_wakeup_after(slot);
        let ns = (start.elapsed().as_nanos() as u64).saturating_sub(self.overhead_ns);
        self.stats.wakeup.absorb(LocalTally {
            calls: 1,
            sampled: 1,
            ns,
        });
        out
    }

    fn quiescent_while_waiting(&self) -> bool {
        self.inner.quiescent_while_waiting()
    }

    fn can_fast_forward_waiting(&self) -> bool {
        self.inner.can_fast_forward_waiting()
    }

    fn fast_forward_waiting(
        &mut self,
        probe: &WaitingSpanProbe<'_>,
        queue_sum: &mut f64,
        vq_sum: &mut f64,
    ) -> u64 {
        let inner = &mut self.inner;
        self.ff_waiting.run(1, self.overhead_ns, || {
            inner.fast_forward_waiting(probe, queue_sum, vq_sum)
        })
    }
}

/// What a [`TimedService`] observed.
#[derive(Debug, Default)]
pub struct FlStats {
    /// `apply_async`.
    pub apply_async: Tally,
    /// `apply_sync_round`.
    pub apply_sync: Tally,
    /// `download`.
    pub download: Tally,
}

impl FlStats {
    /// Total seconds spent inside the aggregation seam.
    pub fn seconds(&self) -> f64 {
        self.apply_async.seconds() + self.apply_sync.seconds() + self.download.seconds()
    }
}

/// A `ModelService` forwarding to the default in-process parameter server,
/// timing every aggregation call.
#[derive(Debug)]
pub struct TimedService {
    inner: ParameterServer,
    stats: Arc<FlStats>,
    overhead_ns: u64,
}

impl TimedService {
    /// Wraps `inner`, reporting into `stats`.
    pub fn new(inner: ParameterServer, stats: Arc<FlStats>, overhead_ns: u64) -> Self {
        TimedService {
            inner,
            stats,
            overhead_ns,
        }
    }

    fn time<R>(&self, tally: &Tally, f: impl FnOnce() -> R) -> R {
        let mut local = LocalTally::default();
        let out = local.run(1, self.overhead_ns, f);
        tally.absorb(local);
        out
    }
}

impl ModelService for TimedService {
    fn download(&self) -> ModelSnapshot {
        self.time(&self.stats.download, || self.inner.download())
    }

    fn momentum_norm(&self) -> f32 {
        self.inner.momentum_norm()
    }

    fn apply_async(&self, update: &LocalUpdate) -> Result<Lag, TensorError> {
        self.time(&self.stats.apply_async, || self.inner.apply_async(update))
    }

    fn apply_sync_round(&self, updates: &[LocalUpdate]) -> Result<(), TensorError> {
        self.time(&self.stats.apply_sync, || {
            self.inner.apply_sync_round(updates)
        })
    }

    fn stats(&self) -> ServerStats {
        self.inner.stats()
    }

    fn attach_telemetry(&self, telemetry: ServerTelemetry) {
        self.inner.attach_telemetry(telemetry);
    }
}

/// A telemetry sink that only counts events per channel.
#[derive(Debug, Default)]
pub struct CountingSink {
    semantic: AtomicU64,
    driver: AtomicU64,
    other: AtomicU64,
}

impl CountingSink {
    /// Semantic-channel events recorded.
    pub fn semantic(&self) -> u64 {
        self.semantic.load(Ordering::Relaxed)
    }

    /// Driver-channel events recorded.
    pub fn driver(&self) -> u64 {
        self.driver.load(Ordering::Relaxed)
    }
}

impl Telemetry for CountingSink {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&self, event: Event) {
        let counter = match event.channel() {
            Channel::Semantic => &self.semantic,
            Channel::Driver => &self.driver,
            _ => &self.other,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }
}
