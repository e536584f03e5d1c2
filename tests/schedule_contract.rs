//! The schedule contract: two small scenarios whose event count and
//! outcome digest are pinned. The engine is deterministic, so any change
//! to how it orders events — a reordered same-instant tie, a lost or extra
//! event, a packet delivered at another instant — moves one of the pins.
//! An optimisation of the event core must leave both untouched; a change
//! that is meant to move outcomes re-pins them and says why.

use marnet::sim::queue::QueueConfig;
use marnet_bench::scenarios::{
    run_queueing_counted, run_recovery_counted, QueueingOutcome, RecoveryMechanism, RecoveryOutcome,
};

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
        let r = r.borrow();
        h.word(r.goodput_bytes);
        h.word(r.out_of_order_segments);
        h.word(r.acks_sent);
    }
    h.0
}

fn recovery_digest(o: &RecoveryOutcome) -> u64 {
    let mut h = Fnv::new();
    h.floats(&[o.delivered_in_budget_pct, o.delivered_total_pct, o.overhead_pct]);
    h.0
}

#[test]
fn dense_cell_schedule_is_pinned() {
    // 90 paced MAR streams and 10 greedy TCP uploads on one bloated
    // 200 Mb/s uplink: hundreds of packets in flight and queued at once.
    let (o, events) = run_queueing_counted(200.0, QueueConfig::bloated_uplink(), 0, 90, 10, 1, 7);
    assert_eq!(
        (events, queueing_digest(&o)),
        (104_928, 0x00e3_5241_dacd_e1f5),
        "dense-cell schedule moved"
    );
}

#[test]
fn recovery_schedule_is_pinned() {
    // One lossy 40 ms AR session with ARQ + FEC(k=8): timers, retransmits
    // and feedback interleave on a handful of links.
    let (o, events) = run_recovery_counted(40, 0.05, RecoveryMechanism::ArqFecK8, 30, 11);
    assert_eq!(
        (events, recovery_digest(&o)),
        (28_353, 0x60fe_0fdd_75c5_1a91),
        "recovery schedule moved"
    );
}
