//! Property-based tests for the simulator substrate: time arithmetic,
//! statistics, queue conservation and engine determinism.

use marnet_sim::prelude::*;
use marnet_sim::queue::{EnqueueOutcome, Queue};
use proptest::prelude::*;

fn packets(max: usize) -> impl Strategy<Value = Vec<(u64, u8, u32)>> {
    // (flow, prio, size)
    prop::collection::vec((0u64..8, 0u8..4, 40u32..2000), 1..max)
}

/// Conservation: every packet offered to a queue is either delivered by
/// dequeue, reported dropped, or still queued.
fn check_conservation(mut q: Box<dyn Queue>, pkts: Vec<(u64, u8, u32)>) {
    let n = pkts.len();
    let mut dropped = 0usize;
    for (i, (flow, prio, size)) in pkts.into_iter().enumerate() {
        let pkt = Packet::new(i as u64, flow, size, SimTime::from_micros(i as u64)).with_prio(prio);
        if let EnqueueOutcome::Dropped(_) = q.enqueue(pkt, SimTime::from_micros(i as u64)) {
            dropped += 1;
        }
    }
    let mut dequeued = 0usize;
    let mut aqm_drops = 0usize;
    loop {
        let out = q.dequeue(SimTime::from_secs(1000));
        aqm_drops += out.dropped.len();
        match out.packet {
            Some(_) => dequeued += 1,
            None => break,
        }
    }
    assert_eq!(dequeued + dropped + aqm_drops, n, "packet conservation violated");
    assert_eq!(q.len_packets(), 0);
    assert_eq!(q.len_bytes(), 0);
}

proptest! {
    #[test]
    fn droptail_conserves_packets(pkts in packets(300)) {
        check_conservation(
            QueueConfig::DropTail { cap_packets: 64 }.build(),
            pkts,
        );
    }

    #[test]
    fn codel_conserves_packets(pkts in packets(300)) {
        check_conservation(QueueConfig::codel_default().build(), pkts);
    }

    #[test]
    fn fq_codel_conserves_packets(pkts in packets(300)) {
        check_conservation(QueueConfig::fq_codel_default().build(), pkts);
    }

    #[test]
    fn strict_priority_conserves_packets(pkts in packets(300)) {
        check_conservation(
            QueueConfig::StrictPriority { bands: 4, cap_packets_per_band: 32 }.build(),
            pkts,
        );
    }

    #[test]
    fn strict_priority_never_inverts_bands(pkts in packets(200)) {
        let mut q = QueueConfig::StrictPriority { bands: 4, cap_packets_per_band: 1000 }.build();
        for (i, (flow, prio, size)) in pkts.iter().enumerate() {
            let pkt = Packet::new(i as u64, *flow, *size, SimTime::ZERO).with_prio(*prio);
            q.enqueue(pkt, SimTime::ZERO);
        }
        let mut last_band = 0u8;
        while let Some(p) = q.dequeue(SimTime::ZERO).packet {
            prop_assert!(p.prio >= last_band, "band inversion: {} after {}", p.prio, last_band);
            last_band = p.prio;
        }
    }

    #[test]
    fn time_addition_is_monotone(a in 0u64..u64::MAX / 4, b in 0u64..u64::MAX / 4) {
        let t = SimTime::from_nanos(a);
        let d = SimDuration::from_nanos(b);
        prop_assert!(t + d >= t);
        prop_assert_eq!((t + d) - t, d);
        prop_assert_eq!(t.saturating_add(d), t + d);
    }

    #[test]
    fn duration_saturating_sub_never_underflows(a in 0u64..u64::MAX, b in 0u64..u64::MAX) {
        let x = SimDuration::from_nanos(a).saturating_sub(SimDuration::from_nanos(b));
        prop_assert!(x.as_nanos() == a.saturating_sub(b));
    }

    #[test]
    fn online_stats_matches_naive(values in prop::collection::vec(-1e6f64..1e6, 2..200)) {
        let mut s = OnlineStats::new();
        for &v in &values {
            s.record(v);
        }
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1.0);
        prop_assert!((s.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
        prop_assert!((s.variance() - var).abs() < 1e-4 * (1.0 + var.abs()));
    }

    #[test]
    fn histogram_quantiles_are_monotone_and_bounded(
        values in prop::collection::vec(-1e9f64..1e9, 1..200),
        qs in prop::collection::vec(0.0f64..=1.0, 2..10),
    ) {
        let mut h = Histogram::new();
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for &v in &values {
            h.record(v);
            min = min.min(v);
            max = max.max(v);
        }
        let mut sorted_qs = qs.clone();
        sorted_qs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut last = f64::NEG_INFINITY;
        for q in sorted_qs {
            let v = h.quantile(q).unwrap();
            prop_assert!(v >= min - 1e-9 && v <= max + 1e-9);
            prop_assert!(v >= last - 1e-9);
            last = v;
        }
    }

    #[test]
    fn jain_index_is_in_range(alloc in prop::collection::vec(0.0f64..1e6, 1..20)) {
        let j = marnet_sim::stats::jain_index(&alloc);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&j));
    }

    #[test]
    fn bandwidth_serialization_time_scales(bytes in 1u32..100_000, mbps in 1u32..10_000) {
        let b = Bandwidth::from_mbps(f64::from(mbps));
        let t1 = b.serialization_time(bytes);
        let t2 = b.serialization_time(bytes * 2);
        // Twice the bytes never serializes faster, and roughly doubles.
        prop_assert!(t2 >= t1);
        let ratio = t2.as_nanos() as f64 / t1.as_nanos().max(1) as f64;
        prop_assert!((1.5..=2.5).contains(&ratio) || t1.as_nanos() < 100);
    }

    /// The engine is deterministic: identical seeds and topologies give
    /// identical delivery counts under random loss/jitter.
    #[test]
    fn engine_is_deterministic(seed in 0u64..1000, loss in 0.0f64..0.3) {
        fn run(seed: u64, loss: f64) -> (u64, u64) {
            use marnet_sim::engine::{Actor, Event, SimCtx, Simulator};
            struct Flood { link: LinkId, n: u32 }
            impl Actor for Flood {
                fn on_event(&mut self, ctx: &mut SimCtx, ev: Event) {
                    if matches!(ev, Event::Start | Event::Timer { .. }) {
                        if self.n == 0 { return; }
                        self.n -= 1;
                        let id = ctx.next_packet_id();
                        ctx.transmit(self.link, Packet::new(id, 0, 500, ctx.now()));
                        ctx.schedule_timer(SimDuration::from_micros(200), 0);
                    }
                }
            }
            struct Sink;
            impl Actor for Sink {
                fn on_event(&mut self, _: &mut SimCtx, _: Event) {}
            }
            let mut sim = Simulator::new(seed);
            let a = sim.reserve_actor();
            let b = sim.reserve_actor();
            let l = sim.add_link(a, b,
                LinkParams::new(Bandwidth::from_mbps(50.0), SimDuration::from_millis(2))
                    .with_loss(LossModel::Bernoulli { p: loss })
                    .with_jitter(Jitter::Uniform { max: SimDuration::from_micros(300) }));
            sim.install_actor(a, Flood { link: l, n: 200 });
            sim.install_actor(b, Sink);
            sim.run_to_completion();
            let st = sim.ctx().link_stats(l);
            (st.delivered_packets, st.drops_loss)
        }
        prop_assert_eq!(run(seed, loss), run(seed, loss));
    }

    /// Random interleavings of schedule / cancel / transmit drive the
    /// indexed event queue through its full API. Two properties: the
    /// observed event trace is identical across runs (the `(time, seq)`
    /// order is a function of the script alone), and a timer cancelled
    /// strictly before its deadline never fires.
    #[test]
    fn schedule_cancel_transmit_interleaving_is_deterministic(
        script in prop::collection::vec((0u8..3, 1u64..5_000, 0u8..8), 1..120),
    ) {
        use std::cell::RefCell;
        use std::collections::HashSet;
        use std::rc::Rc;

        use marnet_sim::engine::{Actor, Event, SimCtx, Simulator, TimerHandle};

        type Trace = Rc<RefCell<Vec<(u64, u8, u64)>>>;

        struct Driver {
            link: LinkId,
            script: Vec<(u8, u64, u8)>,
            pc: usize,
            next_tag: u64,
            // Live handles with their tag and absolute deadline.
            armed: Vec<(TimerHandle, u64, SimTime)>,
            // Tags cancelled strictly before their deadline: must never fire.
            forbidden: HashSet<u64>,
            trace: Trace,
        }

        impl Driver {
            /// Executes the next few script ops; called on every event so
            /// the ops interleave with timer fires and packet arrivals.
            fn step(&mut self, ctx: &mut SimCtx) {
                for _ in 0..3 {
                    let Some(&(kind, delay, extra)) = self.script.get(self.pc) else { return; };
                    self.pc += 1;
                    match kind {
                        0 => {
                            let tag = self.next_tag;
                            self.next_tag += 1;
                            let d = SimDuration::from_micros(delay);
                            let h = ctx.schedule_timer(d, tag);
                            self.armed.push((h, tag, ctx.now() + d));
                        }
                        1 if !self.armed.is_empty() => {
                            let i = delay as usize % self.armed.len();
                            let (h, tag, deadline) = self.armed.swap_remove(i);
                            ctx.cancel_timer(h);
                            if deadline > ctx.now() {
                                self.forbidden.insert(tag);
                            }
                        }
                        2 => {
                            let id = ctx.next_packet_id();
                            let size = 40 + u32::from(extra) * 100;
                            ctx.transmit(self.link, Packet::new(id, 0, size, ctx.now()));
                        }
                        _ => {}
                    }
                }
            }
        }

        impl Actor for Driver {
            fn on_event(&mut self, ctx: &mut SimCtx, ev: Event) {
                let now = ctx.now().as_nanos();
                match ev {
                    Event::Timer { tag } => {
                        assert!(!self.forbidden.contains(&tag), "cancelled timer {tag} fired");
                        self.armed.retain(|(_, t, _)| *t != tag);
                        self.trace.borrow_mut().push((now, 1, tag));
                    }
                    Event::Packet { packet, .. } => {
                        self.trace.borrow_mut().push((now, 2, packet.id));
                    }
                    _ => {}
                }
                self.step(ctx);
            }
        }

        fn run(script: &[(u8, u64, u8)]) -> Vec<(u64, u8, u64)> {
            let trace: Trace = Rc::new(RefCell::new(Vec::new()));
            let mut sim = Simulator::new(99);
            let a = sim.reserve_actor();
            // Self-loop link: transmitted packets come back to the driver,
            // so packet arrivals interleave with timer fires.
            let l = sim.add_link(
                a,
                a,
                LinkParams::new(Bandwidth::from_mbps(10.0), SimDuration::from_micros(500)),
            );
            sim.install_actor(a, Driver {
                link: l,
                script: script.to_vec(),
                pc: 0,
                next_tag: 0,
                armed: Vec::new(),
                forbidden: HashSet::new(),
                trace: Rc::clone(&trace),
            });
            sim.run_to_completion();
            drop(sim);
            Rc::try_unwrap(trace).expect("sim dropped").into_inner()
        }

        prop_assert_eq!(run(&script), run(&script));
    }
}

/// One transmission of the arrival-order script: `(gap_us, link, size)`.
type Send = (u64, usize, u32);
/// A delivery: `(packet id, arrival ns)`, per link.
type Deliveries = Vec<Vec<(u64, u64)>>;

const ORDER_LINKS: usize = 3;
const ORDER_RATE_MBPS: f64 = 100.0;
const ORDER_DELAY: SimDuration = SimDuration::from_millis(2);
const ORDER_JITTER_NS: u64 = 1_000_000;
/// Link 0's delay drops to this at `CUT_AT`, so later packets overtake.
const CUT_DELAY: SimDuration = SimDuration::from_micros(300);
// Off the microsecond grid the transmissions and departures fall on, so
// no control change ties with a packet event.
const CUT_AT: u64 = 2_000_003;
/// Link 1 is down over `(DOWN_AT, UP_AT)`.
const DOWN_AT: u64 = 1_500_007;
const UP_AT: u64 = 3_000_007;

/// Runs the script through the engine and returns each link's
/// deliveries in the order the receiver saw them.
fn arrival_order_run(seed: u64, policy: TieBreak, script: &[Send]) -> Deliveries {
    use std::cell::RefCell;
    use std::rc::Rc;

    const CUT: u64 = u64::MAX;
    const DOWN: u64 = u64::MAX - 1;
    const UP: u64 = u64::MAX - 2;

    struct Driver {
        links: Vec<LinkId>,
        script: Vec<Send>,
    }
    impl Actor for Driver {
        fn on_event(&mut self, ctx: &mut SimCtx, ev: Event) {
            match ev {
                Event::Start => {
                    let mut at = 0;
                    for (i, &(gap, _, _)) in self.script.iter().enumerate() {
                        at += gap * 1_000;
                        ctx.schedule_timer(SimDuration::from_nanos(at), i as u64);
                    }
                    ctx.schedule_timer(SimDuration::from_nanos(CUT_AT), CUT);
                    ctx.schedule_timer(SimDuration::from_nanos(DOWN_AT), DOWN);
                    ctx.schedule_timer(SimDuration::from_nanos(UP_AT), UP);
                }
                Event::Timer { tag: CUT } => ctx.set_link_delay(self.links[0], CUT_DELAY),
                Event::Timer { tag: DOWN } => ctx.set_link_up(self.links[1], false),
                Event::Timer { tag: UP } => ctx.set_link_up(self.links[1], true),
                Event::Timer { tag } => {
                    let (_, link, size) = self.script[tag as usize];
                    ctx.transmit(self.links[link], Packet::new(tag, 0, size, ctx.now()));
                }
                _ => {}
            }
        }
    }
    struct Sink {
        got: Rc<RefCell<Deliveries>>,
    }
    impl Actor for Sink {
        fn on_event(&mut self, ctx: &mut SimCtx, ev: Event) {
            if let Event::Packet { link, packet } = ev {
                self.got.borrow_mut()[link.index()].push((packet.id, ctx.now().as_nanos()));
            }
        }
    }

    let got = Rc::new(RefCell::new(vec![Vec::new(); ORDER_LINKS]));
    let mut sim = Simulator::with_config(&SimConfig::new(seed).tie_break(policy));
    let d = sim.reserve_actor();
    let k = sim.reserve_actor();
    let links = (0..ORDER_LINKS)
        .map(|_| {
            let params = LinkParams::new(Bandwidth::from_mbps(ORDER_RATE_MBPS), ORDER_DELAY)
                .with_jitter(Jitter::Uniform { max: SimDuration::from_nanos(ORDER_JITTER_NS) })
                .with_queue(QueueConfig::DropTail { cap_packets: 100_000 });
            sim.add_link(d, k, params)
        })
        .collect();
    sim.install_actor(d, Driver { links, script: script.to_vec() });
    sim.install_actor(k, Sink { got: Rc::clone(&got) });
    sim.run_to_completion();
    drop(sim);
    Rc::try_unwrap(got).expect("sim dropped").into_inner()
}

/// Brute-force reference: each link as a FIFO transmitter replayed by
/// hand — serialization, the down window, the delay cut and the link's
/// own jitter stream — with the deliveries sorted by the queue key
/// `(arrival, phase, departure seq)`. Every delay is positive, so every
/// arrival is in the `Carry` phase and the phase never decides. Also
/// returns how many packets arrive before one that departed earlier on
/// the same link.
fn arrival_order_reference(seed: u64, script: &[Send]) -> (Deliveries, usize) {
    use rand::Rng;

    let rate = Bandwidth::from_mbps(ORDER_RATE_MBPS);
    let down = |t: u64| DOWN_AT < t && t < UP_AT;
    let mut out = Vec::new();
    let mut overtakes = 0;
    for link in 0..ORDER_LINKS {
        let mut rng = derive_rng(seed, &format!("sim.link.{link}"));
        let mut busy_until = 0u64;
        let mut at = 0u64;
        // (arrival ns, departure seq on this link, packet id)
        let mut arrivals = Vec::new();
        for (id, &(gap, l, size)) in script.iter().enumerate() {
            at += gap * 1_000;
            if l != link || (link == 1 && down(at)) {
                continue;
            }
            let departs = at.max(busy_until) + rate.serialization_time(size).as_nanos();
            busy_until = departs;
            if link == 1 && down(departs) {
                continue;
            }
            let delay = if link == 0 && departs > CUT_AT { CUT_DELAY } else { ORDER_DELAY };
            let jitter = rng.gen_range(0..=ORDER_JITTER_NS);
            arrivals.push((departs + delay.as_nanos() + jitter, arrivals.len(), id as u64));
        }
        overtakes += arrivals.windows(2).filter(|w| w[1].0 < w[0].0).count();
        arrivals.sort_unstable();
        out.push(arrivals.into_iter().map(|(t, _, id)| (id, t)).collect());
    }
    (out, overtakes)
}

proptest! {
    /// Packets on one link are delivered in `(arrival, phase, departure
    /// seq)` order — through jitter, a mid-run delay cut (later packets
    /// overtaking the pipe's head) and a down/up window — at exactly the
    /// instants a hand replay of the link model gives, and every tie-break
    /// policy delivers the same packets at the same instants.
    #[test]
    fn link_deliveries_follow_arrival_key_order(
        seed in 0u64..1_000,
        script in prop::collection::vec((0u64..60, 0usize..ORDER_LINKS, 100u32..1_500), 1..150),
    ) {
        let (want, _) = arrival_order_reference(seed, &script);
        let fifo = arrival_order_run(seed, TieBreak::Fifo, &script);
        prop_assert_eq!(&fifo, &want);
        prop_assert_eq!(&arrival_order_run(seed, TieBreak::Lifo, &script), &fifo);
        prop_assert_eq!(&arrival_order_run(seed, TieBreak::Seeded(seed ^ 0xa5a5), &script), &fifo);
    }
}

#[test]
fn arrival_order_script_exercises_overtaking() {
    // The property above is only as strong as its inputs: a dense script
    // must make later packets overtake earlier ones, on link 0 across the
    // delay cut in particular.
    let script: Vec<Send> = (0..120).map(|i| (30, i % ORDER_LINKS, 1_200)).collect();
    let (want, overtakes) = arrival_order_reference(7, &script);
    assert!(overtakes > 20, "only {overtakes} overtakes");
    assert_eq!(arrival_order_run(7, TieBreak::Fifo, &script), want);
}
