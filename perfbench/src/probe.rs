//! Per-layer host-time attribution, measured from outside the program.
//!
//! [`Timed`] wraps any [`Actor`] and brackets its `on_event` with two
//! clock reads. Every call is aggregated into an index-addressed
//! accumulator for the actor's [`Layer`]; full spans are kept only for a
//! deterministic 1-in-[`SAMPLE_EVERY`] sample chosen by call index. The
//! time between one bracket's end and the next one's start is engine
//! time (event-queue pops, link departures, dispatch), so layer self
//! times plus engine time telescope exactly to the round's wall time;
//! [`Totals::balanced`] records that they did.

use crate::alloc;
use marnet_sim::engine::{Actor, Event, SimCtx};
use std::cell::{Cell, RefCell};
use std::hint::black_box;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The handler layers the workloads exercise, named after the crates and
/// types whose `on_event` they bracket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `marnet_core::endpoint::ArSender`.
    CoreSender,
    /// `marnet_core::endpoint::ArReceiver`.
    CoreReceiver,
    /// The 30 FPS reference-frame source of the recovery topology.
    AppSource,
    /// `marnet_transport::nic::Nic`.
    TransportNic,
    /// `marnet_transport::udp::{UdpSource, UdpSink}`.
    TransportUdp,
    /// `marnet_transport::tcp::{TcpSender, TcpReceiver}`.
    TransportTcp,
    /// `marnet_flow::fluid::FluidNetwork`.
    FlowFluid,
    /// `marnet_flow::workload::BackgroundWorkload`.
    FlowWorkload,
}

/// Number of [`Layer`]s.
pub const LAYERS: usize = 8;

impl Layer {
    /// Every layer, in accumulator order.
    pub const ALL: [Layer; LAYERS] = [
        Layer::CoreSender,
        Layer::CoreReceiver,
        Layer::AppSource,
        Layer::TransportNic,
        Layer::TransportUdp,
        Layer::TransportTcp,
        Layer::FlowFluid,
        Layer::FlowWorkload,
    ];

    /// Metric-name prefix.
    pub fn name(self) -> &'static str {
        match self {
            Layer::CoreSender => "core.sender",
            Layer::CoreReceiver => "core.receiver",
            Layer::AppSource => "app.source",
            Layer::TransportNic => "transport.nic",
            Layer::TransportUdp => "transport.udp",
            Layer::TransportTcp => "transport.tcp",
            Layer::FlowFluid => "flow.fluid",
            Layer::FlowWorkload => "flow.workload",
        }
    }
}

/// One call in [`SAMPLE_EVERY`] keeps a full span.
pub const SAMPLE_EVERY: u64 = 1024;

/// A recorded interval. Times are nanoseconds since the run's origin.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer or phase name.
    pub name: &'static str,
    /// Unique within the run.
    pub id: u64,
    /// The enclosing span's id (0 for a round).
    pub parent: u64,
    /// The round the span belongs to.
    pub round: u32,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
}

static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// A fresh span id.
pub fn span_id() -> u64 {
    NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed)
}

fn nanos(d: std::time::Duration) -> u64 {
    d.as_nanos() as u64
}

/// Aggregates of one layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotals {
    /// Bracketed nanoseconds, bracket cost included.
    pub ns: u64,
    /// Handler calls.
    pub calls: u64,
    /// Allocator calls made inside the handler.
    pub allocs: u64,
}

/// Everything one or more traced simulations measured.
#[derive(Debug, Clone)]
pub struct Totals {
    /// Per-layer aggregates, indexed like [`Layer::ALL`].
    pub layers: [LayerTotals; LAYERS],
    /// Time outside every bracket: the engine's own work.
    pub engine_ns: u64,
    /// Wall time of the traced simulations.
    pub wall_ns: u64,
    /// Sum of `SimCtx::pending_events()` over every handler call.
    pub pending_sum: u64,
    /// Simulator events processed.
    pub events: u64,
    /// Whether handler and engine ticks summed exactly to the wall ticks
    /// in every merged simulation.
    pub balanced: bool,
    /// Sampled spans.
    pub spans: Vec<Span>,
}

impl Default for Totals {
    fn default() -> Self {
        Totals {
            layers: [LayerTotals::default(); LAYERS],
            engine_ns: 0,
            wall_ns: 0,
            balanced: true,
            pending_sum: 0,
            events: 0,
            spans: Vec::new(),
        }
    }
}

impl Totals {
    /// Handler calls over every layer.
    pub fn calls(&self) -> u64 {
        self.layers.iter().map(|l| l.calls).sum()
    }

    /// Bracketed nanoseconds over every layer.
    pub fn handler_ns(&self) -> u64 {
        self.layers.iter().map(|l| l.ns).sum()
    }

    /// Adds `other` into `self`.
    pub fn merge(&mut self, mut other: Totals) {
        for (a, b) in self.layers.iter_mut().zip(other.layers) {
            a.ns += b.ns;
            a.calls += b.calls;
            a.allocs += b.allocs;
        }
        self.engine_ns += other.engine_ns;
        self.balanced &= other.balanced;
        self.wall_ns += other.wall_ns;
        self.pending_sum += other.pending_sum;
        self.events += other.events;
        self.spans.append(&mut other.spans);
    }
}

/// A cheap monotonic tick: the time-stamp counter on x86-64 (a few
/// nanoseconds to read, against tens for `Instant::now`), nanoseconds
/// since the first call elsewhere. A [`Probe`] converts ticks to
/// nanoseconds by the rate it measures against `Instant` over its own
/// lifetime.
#[inline(always)]
fn ticks() -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: `rdtsc` reads a counter; it has no memory effects and
        // no preconditions on x86-64.
        #[allow(unused_unsafe)]
        unsafe {
            std::arch::x86_64::_rdtsc()
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
        nanos(EPOCH.get_or_init(Instant::now).elapsed())
    }
}

#[derive(Default)]
struct LayerCell {
    ticks: Cell<u64>,
    calls: Cell<u64>,
    allocs: Cell<u64>,
}

/// A sampled span, still in ticks.
struct RawSpan {
    layer: Layer,
    id: u64,
    t0: u64,
    t1: u64,
}

/// The accumulators one traced simulation shares among its [`Timed`]
/// actors. Single-threaded by construction, like the simulator.
pub struct Probe {
    layers: [LayerCell; LAYERS],
    origin: Instant,
    start: Cell<(Instant, u64)>,
    last_end: Cell<u64>,
    gap: Cell<u64>,
    pending_sum: Cell<u64>,
    calls: Cell<u64>,
    spans: RefCell<Vec<RawSpan>>,
    parent: u64,
    round: u32,
}

impl std::fmt::Debug for Probe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Probe").field("calls", &self.calls.get()).finish()
    }
}

impl Probe {
    /// A probe whose clock starts now. Span times are relative to
    /// `origin`; sampled spans get `parent` and `round`.
    pub fn start(origin: Instant, parent: u64, round: u32) -> Rc<Probe> {
        let probe = Rc::new(Probe {
            layers: Default::default(),
            origin,
            start: Cell::new((Instant::now(), 0)),
            last_end: Cell::new(0),
            gap: Cell::new(0),
            pending_sum: Cell::new(0),
            calls: Cell::new(0),
            spans: RefCell::new(Vec::with_capacity(4096)),
            parent,
            round,
        });
        probe.restart();
        probe
    }

    /// Restarts the clock: time before this point (topology assembly) is
    /// neither engine nor handler time.
    pub fn restart(&self) {
        let t = ticks();
        self.start.set((Instant::now(), t));
        self.last_end.set(t);
        self.gap.set(0);
    }

    /// Runs `f` as one call of `layer`.
    #[inline(always)]
    pub fn bracket<R>(&self, layer: Layer, pending: usize, f: impl FnOnce() -> R) -> R {
        self.pending_sum.set(self.pending_sum.get() + pending as u64);
        let a0 = alloc::thread_calls();
        let t0 = ticks();
        let r = f();
        let t1 = ticks();
        let a1 = alloc::thread_calls();
        let acc = &self.layers[layer as usize];
        acc.ticks.set(acc.ticks.get() + (t1 - t0));
        acc.calls.set(acc.calls.get() + 1);
        acc.allocs.set(acc.allocs.get() + (a1 - a0));
        self.gap.set(self.gap.get() + (t0 - self.last_end.get()));
        self.last_end.set(t1);
        let n = self.calls.get();
        self.calls.set(n + 1);
        if n.is_multiple_of(SAMPLE_EVERY) {
            self.spans.borrow_mut().push(RawSpan { layer, id: span_id(), t0, t1 });
        }
        r
    }

    /// Ends the measurement now; `events` is the simulator's count.
    pub fn finish(&self, events: u64) -> Totals {
        let (t_end, end) = (ticks(), Instant::now());
        let (i_start, t_start) = self.start.get();
        let wall_ticks = t_end - t_start;
        let ns_per_tick = nanos(end - i_start) as f64 / wall_ticks.max(1) as f64;
        let ns = |t: u64| (t as f64 * ns_per_tick).round() as u64;
        let mut layers = [LayerTotals::default(); LAYERS];
        let mut handler_ticks = 0;
        for (t, c) in layers.iter_mut().zip(&self.layers) {
            handler_ticks += c.ticks.get();
            *t =
                LayerTotals { ns: ns(c.ticks.get()), calls: c.calls.get(), allocs: c.allocs.get() };
        }
        let engine_ticks = self.gap.get() + (t_end - self.last_end.get());
        let offset = nanos(i_start - self.origin);
        let spans = self
            .spans
            .borrow_mut()
            .drain(..)
            .map(|s| Span {
                name: s.layer.name(),
                id: s.id,
                parent: self.parent,
                round: self.round,
                start_ns: offset + ns(s.t0 - t_start),
                end_ns: offset + ns(s.t1 - t_start),
            })
            .collect();
        Totals {
            layers,
            engine_ns: ns(engine_ticks),
            wall_ns: ns(wall_ticks),
            balanced: handler_ticks + engine_ticks == wall_ticks,
            pending_sum: self.pending_sum.get(),
            events,
            spans,
        }
    }
}

/// An actor whose every `on_event` is bracketed into a [`Probe`].
pub struct Timed<A> {
    inner: A,
    layer: Layer,
    probe: Rc<Probe>,
}

impl<A> std::fmt::Debug for Timed<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Timed").field("layer", &self.layer).finish()
    }
}

impl<A: Actor> Timed<A> {
    /// Wraps `inner` as a member of `layer`.
    pub fn new(inner: A, layer: Layer, probe: &Rc<Probe>) -> Self {
        Timed { inner, layer, probe: Rc::clone(probe) }
    }
}

impl<A: Actor> Actor for Timed<A> {
    fn on_event(&mut self, ctx: &mut SimCtx, ev: Event) {
        let pending = ctx.pending_events();
        let inner = &mut self.inner;
        self.probe.bracket(self.layer, pending, || inner.on_event(ctx, ev));
    }
}

/// Measured cost of an empty bracket.
#[derive(Debug, Clone, Copy)]
pub struct BracketCost {
    /// What an empty handler reads as inside the bracket.
    pub inside_ns: f64,
    /// Everything one bracket adds to the wall time.
    pub total_ns: f64,
}

/// Times empty brackets: the median of several batches.
pub fn calibrate() -> BracketCost {
    const CALLS: u64 = 200_000;
    let mut inside = Vec::new();
    let mut total = Vec::new();
    for _ in 0..7 {
        let origin = Instant::now();
        let probe = Probe::start(origin, 0, 0);
        let t0 = Instant::now();
        for i in 0..CALLS {
            probe.bracket(Layer::CoreSender, black_box(i as usize), || black_box(()));
        }
        let wall = nanos(t0.elapsed());
        let t = probe.finish(0);
        inside.push(t.layers[0].ns as f64 / CALLS as f64);
        total.push(wall as f64 / CALLS as f64);
    }
    BracketCost { inside_ns: crate::median(&mut inside), total_ns: crate::median(&mut total) }
}
