//! The simulator workloads' topologies, re-assembled from public
//! constructors with every actor behind a [`Timed`] wrapper.
//!
//! Each builder mirrors the body of the `marnet_bench::scenarios` entry
//! point it is named after, actor for actor and link for link, and returns
//! that entry point's outcome type so the same digest covers both. The
//! harness compares the digests on every traced round: a topology that
//! drifts from its entry point fails the run instead of reporting a split
//! of some other simulation.

use crate::probe::{Layer, Probe, Timed, Totals};
use marnet_bench::scenarios::{
    CityscaleOutcome, QueueingOutcome, RecoveryMechanism, RecoveryOutcome, CITYSCALE_ACCESS_MBPS,
    CITYSCALE_CELL_MBPS, CITYSCALE_MAR_MBPS, CITYSCALE_MAR_PACKET_BYTES, CITYSCALE_THINK_MS,
    CITYSCALE_TRANSFER_BYTES,
};
use marnet_core::class::StreamKind;
use marnet_core::config::ArConfig;
use marnet_core::endpoint::{ArReceiver, ArSender, SenderPathConfig, Submit};
use marnet_core::message::ArMessage;
use marnet_core::multipath::PathRole;
use marnet_core::recovery::RecoveryPolicy;
use marnet_flow::fluid::FluidNetwork;
use marnet_flow::hybrid::Coupling;
use marnet_flow::workload::{BackgroundWorkload, WorkloadConfig};
use marnet_sim::engine::{Actor, Event, SimCtx, Simulator};
use marnet_sim::link::{Bandwidth, LinkId, LinkParams, LossModel};
use marnet_sim::packet::PayloadPool;
use marnet_sim::queue::QueueConfig;
use marnet_sim::region::{Fidelity, RegionMap};
use marnet_sim::time::{SimDuration, SimTime};
use marnet_transport::nic::{Nic, TxPath};
use marnet_transport::tcp::{Reno, TcpConfig, TcpReceiver, TcpSender};
use marnet_transport::udp::{UdpSink, UdpSource};
use std::rc::Rc;
use std::time::Instant;

/// Where the traced simulation's spans go.
#[derive(Debug, Clone, Copy)]
pub struct SpanCtx {
    /// Span-time origin of the run.
    pub origin: Instant,
    /// Enclosing span id.
    pub parent: u64,
    /// Round number.
    pub round: u32,
}

/// What a traced simulation measured besides its outcome.
#[derive(Debug, Default)]
pub struct Traced {
    /// Host-time attribution.
    pub totals: Totals,
    /// Packets transmitted over every link.
    pub link_tx: u64,
    /// Packets every link dropped, for any reason.
    pub link_drops: u64,
    /// FEC parity packets sent (recovery topology).
    pub parity_sent: u64,
    /// Packets recovered from parity (recovery topology).
    pub fec_recovered: u64,
    /// ARQ retransmissions (recovery topology).
    pub retransmits: u64,
    /// Max-min recomputations of the fluid tier.
    pub recomputes: u64,
}

fn run_traced(mut sim: Simulator, probe: &Rc<Probe>, links: &[LinkId], secs: u64) -> Traced {
    probe.restart();
    let events = sim.run_until(SimTime::from_secs(secs));
    let totals = probe.finish(events);
    let mut t = Traced { totals, ..Traced::default() };
    for &l in links {
        let st = sim.ctx().link_stats(l);
        t.link_tx += st.tx_packets;
        t.link_drops += st.drops_total();
    }
    t
}

/// The `ArConfig` `run_recovery_with_pooling` builds for `mechanism`
/// (pooling on).
pub fn recovery_config(mechanism: RecoveryMechanism) -> ArConfig {
    let off = RecoveryPolicy { enabled: false, ..Default::default() };
    let (recovery, fec_group, duplicate_recovery) = match mechanism {
        RecoveryMechanism::None => (off, None, false),
        RecoveryMechanism::ArqGated => (RecoveryPolicy::default(), None, false),
        RecoveryMechanism::ArqAlways => {
            (RecoveryPolicy { deadline_gated: false, ..Default::default() }, None, false)
        }
        RecoveryMechanism::FecK4 => (off, Some(4), false),
        RecoveryMechanism::FecK8 => (off, Some(8), false),
        RecoveryMechanism::ArqFecK8 => (RecoveryPolicy::default(), Some(8), false),
        RecoveryMechanism::Duplicate => (off, None, true),
    };
    ArConfig { recovery, fec_group, duplicate_recovery, pooling: true, ..ArConfig::default() }
}

/// 30 FPS of 6 KB reference frames with a 75 ms deadline, as the
/// recovery scenario's frame source submits them.
struct RefStream {
    sender: marnet_sim::engine::ActorId,
    next_id: u64,
    submit_pool: PayloadPool<Submit>,
}

impl Actor for RefStream {
    fn on_event(&mut self, ctx: &mut SimCtx, ev: Event) {
        if matches!(ev, Event::Start | Event::Timer { .. }) {
            let now = ctx.now();
            let m = ArMessage::new(self.next_id, StreamKind::VideoReference, 6_000, now)
                .with_deadline(now + SimDuration::from_millis(75));
            self.next_id += 1;
            let m = &m;
            let payload = self.submit_pool.prepare(|| Submit(m.clone()), |s| s.0 = m.clone());
            ctx.send_message(self.sender, payload);
            ctx.schedule_timer(SimDuration::from_millis(33), 0);
        }
    }
}

/// Traced `run_recovery(rtt_ms, loss, mechanism, secs, seed)`.
pub fn recovery(
    rtt_ms: u64,
    loss: f64,
    mechanism: RecoveryMechanism,
    secs: u64,
    seed: u64,
    spans: SpanCtx,
) -> (RecoveryOutcome, Traced) {
    let cfg = recovery_config(mechanism);
    let mut sim = Simulator::new(seed);
    let snd = sim.reserve_actor();
    let rcv = sim.reserve_actor();
    let one_way = SimDuration::from_millis_f64(rtt_ms as f64 / 2.0);
    let lossy = || {
        LinkParams::new(Bandwidth::from_mbps(20.0), one_way)
            .with_loss(LossModel::Bernoulli { p: loss })
    };
    let up = sim.add_link(snd, rcv, lossy());
    let up2 = sim.add_link(snd, rcv, lossy());
    let down = sim.add_link(rcv, snd, LinkParams::new(Bandwidth::from_mbps(20.0), one_way));
    let mut paths =
        vec![SenderPathConfig { role: PathRole::Wifi, tx: TxPath::Link(up), link: Some(up) }];
    if cfg.duplicate_recovery {
        paths.push(SenderPathConfig {
            role: PathRole::Cellular,
            tx: TxPath::Link(up2),
            link: Some(up2),
        });
    }
    let probe = Probe::start(spans.origin, spans.parent, spans.round);
    let sender = ArSender::new(1, cfg.clone(), paths);
    let sstats = sender.stats();
    sim.install_actor(snd, Timed::new(sender, Layer::CoreSender, &probe));
    let mut receiver =
        ArReceiver::new(1, cfg.feedback_interval, vec![TxPath::Link(down), TxPath::Link(down)]);
    receiver.set_pooling(cfg.pooling);
    let rstats = receiver.stats();
    sim.install_actor(rcv, Timed::new(receiver, Layer::CoreReceiver, &probe));
    let source = RefStream { sender: snd, next_id: 0, submit_pool: PayloadPool::new() };
    sim.add_actor(Timed::new(source, Layer::AppSource, &probe));
    let mut traced = run_traced(sim, &probe, &[up, up2, down], secs);

    let offered = (secs * 30) as f64;
    let r = rstats.borrow();
    let s = sstats.borrow();
    let ks = r.by_kind.get(&StreamKind::VideoReference);
    let delivered = ks.map_or(0, |k| k.delivered) as f64;
    let hits = ks.map_or(0, |k| k.deadline_hits) as f64;
    let goodput_bytes = delivered * 6_000.0;
    let outcome = RecoveryOutcome {
        delivered_in_budget_pct: hits / offered * 100.0,
        delivered_total_pct: delivered / offered * 100.0,
        overhead_pct: (s.total_sent_bytes() as f64 / goodput_bytes.max(1.0) - 1.0) * 100.0,
    };
    traced.parity_sent = s.parity_sent;
    traced.fec_recovered = r.fec_recovered;
    traced.retransmits = s.retransmits;
    (outcome, traced)
}

/// Traced `run_queueing(up_mbps, queue, mar_prio, n_mar, n_bulk, secs, seed)`.
#[allow(clippy::too_many_arguments)]
pub fn queueing(
    up_mbps: f64,
    queue: QueueConfig,
    mar_prio: u8,
    n_mar: usize,
    n_bulk: usize,
    secs: u64,
    seed: u64,
    spans: SpanCtx,
) -> (QueueingOutcome, Traced) {
    let mut sim = Simulator::new(seed);
    let probe = Probe::start(spans.origin, spans.parent, spans.round);
    let cpe = sim.reserve_actor();
    let isp = sim.reserve_actor();
    let up = sim.add_link(
        cpe,
        isp,
        LinkParams::new(Bandwidth::from_mbps(up_mbps), SimDuration::from_millis(10))
            .with_queue(queue),
    );
    let down = sim.add_link(
        isp,
        cpe,
        LinkParams::new(Bandwidth::from_mbps(up_mbps * 4.0), SimDuration::from_millis(10)),
    );
    let mut cpe_nic = Nic::new(up);
    let mut isp_nic = Nic::new(down);

    let mut mar = Vec::new();
    for i in 0..n_mar {
        let flow = 1 + i as u64;
        let src = sim.reserve_actor();
        let sink_id = sim.reserve_actor();
        let source =
            UdpSource::with_rate_mbps(flow, TxPath::Nic(cpe), 1200, 1.5).with_prio(mar_prio);
        sim.install_actor(src, Timed::new(source, Layer::TransportUdp, &probe));
        let sink = UdpSink::new(flow);
        mar.push(sink.stats());
        sim.install_actor(sink_id, Timed::new(sink, Layer::TransportUdp, &probe));
        isp_nic.add_route(flow, sink_id);
    }

    let mut bulk = Vec::new();
    for j in 0..n_bulk {
        let flow = 1 + n_mar as u64 + j as u64;
        let bulk_s = sim.reserve_actor();
        let bulk_r = sim.reserve_actor();
        let cfg = TcpConfig { prio: 3, ..TcpConfig::default() };
        let s = TcpSender::new(flow, TxPath::Nic(cpe), cfg, Box::new(Reno::new(1460)));
        sim.install_actor(bulk_s, Timed::new(s, Layer::TransportTcp, &probe));
        let r = TcpReceiver::new(flow, TxPath::Nic(isp));
        bulk.push(r.stats());
        sim.install_actor(bulk_r, Timed::new(r, Layer::TransportTcp, &probe));
        cpe_nic.add_route(flow, bulk_s);
        isp_nic.add_route(flow, bulk_r);
    }

    sim.install_actor(cpe, Timed::new(cpe_nic, Layer::TransportNic, &probe));
    sim.install_actor(isp, Timed::new(isp_nic, Layer::TransportNic, &probe));
    let traced = run_traced(sim, &probe, &[up, down], secs);
    (QueueingOutcome { mar, bulk }, traced)
}

/// Traced `run_cityscale(clients, backhaul_gbps, secs, seed)`.
pub fn cityscale(
    clients: u64,
    backhaul_gbps: f64,
    secs: u64,
    seed: u64,
    spans: SpanCtx,
) -> (CityscaleOutcome, Traced) {
    let mut sim = Simulator::new(seed);
    let probe = Probe::start(spans.origin, spans.parent, spans.round);
    let edge = sim.reserve_actor();
    let ue = sim.reserve_actor();
    let mar_src = sim.reserve_actor();
    let down = sim.add_link(
        edge,
        ue,
        LinkParams::new(Bandwidth::from_mbps(CITYSCALE_CELL_MBPS), SimDuration::from_millis(5))
            .with_queue(QueueConfig::DropTail { cap_packets: 400 }),
    );
    let source = UdpSource::with_rate_mbps(
        1,
        TxPath::Nic(edge),
        CITYSCALE_MAR_PACKET_BYTES,
        CITYSCALE_MAR_MBPS,
    );
    sim.install_actor(mar_src, Timed::new(source, Layer::TransportUdp, &probe));
    let sink = UdpSink::new(1);
    let mar = sink.stats();
    sim.install_actor(ue, Timed::new(sink, Layer::TransportUdp, &probe));
    sim.install_actor(edge, Timed::new(Nic::new(down), Layer::TransportNic, &probe));

    let net_id = sim.reserve_actor();
    let wl_id = sim.reserve_actor();
    let mut regions = RegionMap::new();
    let cell = regions.add_region("cell", Fidelity::Packet);
    let metro = regions.add_region("metro", Fidelity::Fluid);
    for actor in [edge, ue, mar_src] {
        regions.assign(actor, cell);
    }
    for actor in [net_id, wl_id] {
        regions.assign(actor, metro);
    }
    regions.mark_boundary(down);

    let mut net = FluidNetwork::new();
    let backhaul = net.add_link(Bandwidth::from_gbps(backhaul_gbps));
    let background = net.add_class(&[backhaul], Some(Bandwidth::from_mbps(CITYSCALE_ACCESS_MBPS)));
    let foreground = net.add_class(&[backhaul], Some(Bandwidth::from_mbps(CITYSCALE_CELL_MBPS)));
    net.add_standing_flows(foreground, 1);
    net.couple_class(foreground, Coupling::notify(down, edge));
    let fluid = net.stats();
    sim.install_actor(net_id, Timed::new(net, Layer::FlowFluid, &probe));

    let wl = BackgroundWorkload::new(WorkloadConfig {
        clients,
        class: background,
        network: net_id,
        think_mean: SimDuration::from_millis(CITYSCALE_THINK_MS),
        transfer_bytes: CITYSCALE_TRANSFER_BYTES,
        label: "cityscale/bg".into(),
    });
    let background_stats = wl.stats();
    sim.install_actor(wl_id, Timed::new(wl, Layer::FlowWorkload, &probe));

    let mut traced = run_traced(sim, &probe, &[down], secs);
    traced.recomputes = fluid.borrow().recomputes;
    (CityscaleOutcome { mar, background: background_stats, fluid, regions }, traced)
}
