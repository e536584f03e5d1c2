//! The schedule contract: one small case per scenario body whose event
//! count and outcome digest are pinned. The engine is deterministic, so any
//! change to how it orders events — a reordered same-instant tie, a lost or
//! extra event, a packet delivered at another instant — moves a pin. An
//! optimisation of the event core must leave every pin untouched; a change
//! that is meant to move outcomes re-pins and says why.
//!
//! Every case with a telemetry harness runs twice, with telemetry off and
//! with the flight recorder and metrics fully on, and both runs must hit
//! the same pin: recording is observationally inert.

use marnet::arcore::config::ArConfig;
use marnet::arcore::endpoint::{ArReceiverStats, ArSenderStats};
use marnet::arcore::multipath::MultipathPolicy;
use marnet::sim::queue::QueueConfig;
use marnet::sim::time::SimDuration;
use marnet::transport::tcp::TcpReceiverStats;
use marnet_bench::scenarios::{
    fairness_config, faults_config, run_cityscale_instrumented, run_fairness, run_faults, run_fig3,
    run_multipath_commute, run_queueing_counted, run_queueing_instrumented,
    run_recovery_config_instrumented, run_recovery_counted, run_table2, CityscaleOutcome,
    FaultScenario, FaultsOutcome, QueueingOutcome, RecoveryMechanism, RecoveryOutcome,
    Table2Scenario,
};
use marnet_telemetry::{TelemetryCapture, TelemetryOptions};
use std::cell::RefCell;

/// Ring capacity of the telemetry-on leg: small enough to wrap on the
/// larger cases, so the wrap path is covered too.
const TRACE_CAPACITY: usize = 1 << 14;

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn floats(&mut self, v: &[f64]) {
        self.word(v.len() as u64);
        for x in v {
            self.word(x.to_bits());
        }
    }

    fn tcp(&mut self, r: &RefCell<TcpReceiverStats>) {
        let r = r.borrow();
        self.word(r.goodput_bytes);
        self.word(r.out_of_order_segments);
        self.word(r.acks_sent);
    }

    fn ar_receiver(&mut self, r: &RefCell<ArReceiverStats>) {
        let r = r.borrow();
        for k in r.by_kind.values() {
            self.word(k.delivered);
            self.word(k.deadline_hits);
            self.word(k.deadline_misses);
            self.floats(k.latency_ms.values());
        }
        self.word(r.received_bytes);
        self.word(r.duplicates);
        self.word(r.fec_recovered);
        self.word(r.abandoned_holes);
        self.word(r.feedback_sent);
        self.word(r.stale_epoch_packets);
    }

    fn ar_sender(&mut self, s: &RefCell<ArSenderStats>) {
        let s = s.borrow();
        self.word(s.total_sent_bytes());
        self.word(s.retransmits);
        self.word(s.suppressed_retransmits);
        self.word(s.parity_sent);
        self.word(s.cellular_bytes);
        self.word(s.degrade_signals);
    }
}

/// Runs `case` with telemetry off and fully on; both must give `pin`
/// (events, digest), and only the second may capture anything.
fn assert_pinned(
    what: &str,
    pin: (u64, u64),
    case: impl Fn(&TelemetryOptions) -> (u64, u64, TelemetryCapture),
) {
    let (events, digest, capture) = case(&TelemetryOptions::disabled());
    assert_eq!((events, digest), pin, "{what} schedule moved");
    assert!(capture.events.is_empty() && capture.metrics.is_none(), "{what}: capture while off");
    let (events, digest, capture) = case(&TelemetryOptions::full(TRACE_CAPACITY));
    assert_eq!((events, digest), pin, "{what} schedule moved under full telemetry");
    assert!(!capture.events.is_empty(), "{what}: recorder captured nothing");
    assert!(capture.metrics.is_some(), "{what}: no metrics snapshot");
}

fn queueing_digest(o: &QueueingOutcome) -> u64 {
    let mut h = Fnv::new();
    for s in &o.mar {
        let s = s.borrow();
        h.word(s.packets);
        h.word(s.bytes);
        h.floats(s.latency_ms.values());
    }
    for r in &o.bulk {
        h.tcp(r);
    }
    h.0
}

fn recovery_digest(o: &RecoveryOutcome) -> u64 {
    let mut h = Fnv::new();
    h.floats(&[o.delivered_in_budget_pct, o.delivered_total_pct, o.overhead_pct]);
    h.0
}

fn faults_digest(o: &FaultsOutcome) -> u64 {
    let mut h = Fnv::new();
    h.floats(&[o.delivered_in_budget_pct, o.delivered_total_pct, o.qoe_under_fault_pct]);
    h.word(o.recovery_ms.map_or(u64::MAX, f64::to_bits));
    for w in [
        o.retransmits_during_fault,
        o.retransmits,
        o.outages_detected,
        o.recovery_probes,
        o.session_resyncs,
    ] {
        h.word(w);
    }
    h.0
}

fn cityscale_digest(o: &CityscaleOutcome) -> u64 {
    let mut h = Fnv::new();
    let mar = o.mar.borrow();
    h.word(mar.packets);
    h.word(mar.bytes);
    h.floats(mar.latency_ms.values());
    let bg = o.background.borrow();
    h.word(bg.offered);
    h.word(bg.completed);
    h.floats(bg.duration_ms.values());
    let fl = o.fluid.borrow();
    h.word(fl.started);
    h.word(fl.finished);
    h.word(fl.recomputes);
    h.word(o.regions.boundaries().len() as u64);
    h.0
}

#[test]
fn dense_cell_schedule_is_pinned() {
    // 90 paced MAR streams and 10 greedy TCP uploads on one bloated
    // 200 Mb/s uplink: hundreds of packets in flight and queued at once.
    let pin = (104_928, 0x00e3_5241_dacd_e1f5);
    let (o, events) = run_queueing_counted(200.0, QueueConfig::bloated_uplink(), 0, 90, 10, 1, 7);
    assert_eq!((events, queueing_digest(&o)), pin, "dense-cell schedule moved");
    assert_pinned("dense-cell", pin, |t| {
        let (o, events, capture) =
            run_queueing_instrumented(200.0, QueueConfig::bloated_uplink(), 0, 90, 10, 1, 7, t);
        (events, queueing_digest(&o), capture)
    });
}

#[test]
fn recovery_schedule_is_pinned() {
    // One lossy 40 ms AR session with ARQ + FEC(k=8): timers, retransmits
    // and feedback interleave on a handful of links.
    let pin = (28_353, 0x60fe_0fdd_75c5_1a91);
    let (o, events) = run_recovery_counted(40, 0.05, RecoveryMechanism::ArqFecK8, 30, 11);
    assert_eq!((events, recovery_digest(&o)), pin, "recovery schedule moved");
    let cfg = RecoveryMechanism::ArqFecK8.config();
    assert_pinned("recovery", pin, |t| {
        let (o, events, capture) = run_recovery_config_instrumented(40, 0.05, &cfg, 30, 11, t);
        (events, recovery_digest(&o), capture)
    });
}

#[test]
fn table2_schedule_is_pinned() {
    // The three-hop university path: forwarders on both directions.
    assert_pinned("table2", (786, 0x4181_836d_6104_2a09), |t| {
        let (stats, events, capture) =
            run_table2(Table2Scenario::UniversityServerWifi, 60, 400, 400, 3, t);
        let st = stats.borrow();
        let mut h = Fnv::new();
        h.word(st.sent);
        h.word(st.received);
        h.floats(st.rtt_ms.values());
        (events, h.0, capture)
    });
}

#[test]
fn fig3_outcome_is_pinned() {
    // Fig. 3 has no telemetry harness and reports no event count: only
    // its outcome is pinned.
    let out = run_fig3(10.0, 1.0, 1000, 2, 12, 5);
    let mut h = Fnv::new();
    h.tcp(&out.download);
    for u in &out.uploads {
        h.tcp(u);
    }
    h.floats(&out.upload_starts);
    assert_eq!(h.0, 0x2aed_7f37_5efc_855c, "fig3 outcome moved");
}

#[test]
fn fairness_schedule_is_pinned() {
    let cfg = fairness_config(10.0, true, SimDuration::from_millis(40));
    assert_pinned("fairness", (46_587, 0x8be1_c55d_9b96_df86), |t| {
        let (o, events, capture) = run_fairness(10.0, 2, &cfg, 8, 7, t);
        let mut h = Fnv::new();
        h.ar_receiver(&o.ar);
        h.ar_sender(&o.ar_sender);
        for r in &o.tcp {
            h.tcp(r);
        }
        (events, h.0, capture)
    });
}

#[test]
fn faults_schedules_are_pinned() {
    let pins = [
        (FaultScenario::LinkOutage, (5_955, 0xe6b6_e646_ee77_f4ce)),
        (FaultScenario::EdgeCrash, (6_419, 0x9eae_cd58_d6a4_3aaf)),
        (FaultScenario::EdgeReboot, (6_429, 0x51b5_6a3e_78e8_d525)),
    ];
    let cfg = faults_config(true);
    for (scenario, pin) in pins {
        assert_pinned(scenario.label(), pin, |t| {
            let (o, events, capture) = run_faults(scenario, &cfg, 500, 4, 42, t);
            (events, faults_digest(&o), capture)
        });
    }
}

#[test]
fn commute_schedule_is_pinned() {
    let cfg = ArConfig { policy: MultipathPolicy::WifiPreferred, ..ArConfig::default() };
    assert_pinned("commute", (29_819, 0x6a4f_8f51_7abd_7980), |t| {
        let (o, events, capture) = run_multipath_commute(&cfg, 20, 21, t);
        let mut h = Fnv::new();
        h.ar_receiver(&o.receiver);
        h.ar_sender(&o.sender);
        (events, h.0, capture)
    });
}

#[test]
fn cityscale_schedule_is_pinned() {
    assert_pinned("cityscale", (18_207, 0xede7_bc21_db49_dd15), |t| {
        let (o, events, capture) = run_cityscale_instrumented(2_000, 1.0, 3, 13, t);
        (events, cityscale_digest(&o), capture)
    });
}
