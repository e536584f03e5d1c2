//! The four workloads: their fixed parameters, the public entry points
//! each round calls, the outcome digests and the pinned digests at each
//! workload's default seed.

use crate::assembly::{self, SpanCtx, Traced};
use crate::probe::{span_id, Span};
use marnet_bench::scenarios::{
    run_cityscale_counted, run_cityscale_instrumented, run_queueing_counted,
    run_queueing_instrumented, run_recovery_counted, run_recovery_instrumented, CityscaleOutcome,
    QueueingOutcome, RecoveryMechanism, RecoveryOutcome,
};
use marnet_lab::agg::aggregate_run;
use marnet_lab::artifact::Artifact;
use marnet_lab::experiments::{self, Experiment};
use marnet_lab::runner::{run_experiment, ExperimentRun, TrialReport};
use marnet_lab::spec::GridPoint;
use marnet_sim::queue::QueueConfig;
use marnet_telemetry::{TelemetryOptions, DEFAULT_TRACE_CAPACITY};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// `recovery-long`: path RTT in ms.
pub const RECOVERY_RTT_MS: u64 = 40;
/// `recovery-long`: Bernoulli loss on the uplinks.
pub const RECOVERY_LOSS: f64 = 0.05;
/// `recovery-long`: recovery mechanism.
pub const RECOVERY_MECHANISM: RecoveryMechanism = RecoveryMechanism::ArqFecK8;
/// `recovery-long`: virtual seconds per round.
pub const RECOVERY_SECS: u64 = 1800;
/// `cell-1k`: uplink rate in Mb/s.
pub const CELL_UP_MBPS: f64 = 2_000.0;
/// `cell-1k`: paced MAR UDP streams.
pub const CELL_MAR: usize = 900;
/// `cell-1k`: bulk TCP uploads.
pub const CELL_BULK: usize = 100;
/// `cell-1k`: virtual seconds per round.
pub const CELL_SECS: u64 = 2;
/// `cityscale-hybrid`: fluid background clients.
pub const CITY_CLIENTS: u64 = 100_000;
/// `cityscale-hybrid`: shared backhaul in Gb/s.
pub const CITY_BACKHAUL_GBPS: f64 = 10.0;
/// `cityscale-hybrid`: virtual seconds per round.
pub const CITY_SECS: u64 = 10;
/// `lab-sweep-recovery`: the lab experiment.
pub const LAB_EXPERIMENT: &str = "sweep_recovery";
/// `lab-sweep-recovery`: replicates per grid point.
pub const LAB_REPLICATES: u32 = 4;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One long loss-recovery session.
    RecoveryLong,
    /// A 1000-flow dense cell behind one bloated uplink.
    Cell1k,
    /// 100 k fluid clients around one packet-level cell.
    CityscaleHybrid,
    /// The lab's replicated recovery sweep, build to artifact JSON.
    LabSweepRecovery,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::RecoveryLong,
        Workload::Cell1k,
        Workload::CityscaleHybrid,
        Workload::LabSweepRecovery,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RecoveryLong => "recovery-long",
            Workload::Cell1k => "cell-1k",
            Workload::CityscaleHybrid => "cityscale-hybrid",
            Workload::LabSweepRecovery => "lab-sweep-recovery",
        }
    }

    /// Parses a [`Workload::name`].
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The seed the outcome digest is pinned at.
    pub fn default_seed(self) -> u64 {
        match self {
            Workload::RecoveryLong => 11,
            Workload::Cell1k => 7,
            Workload::CityscaleHybrid | Workload::LabSweepRecovery => 42,
        }
    }

    /// The outcome digest at [`Workload::default_seed`]: event count plus
    /// every outcome field, or the artifact JSON bytes for the lab.
    pub fn pinned_digest(self) -> u64 {
        match self {
            Workload::RecoveryLong => 0xde8c_06f1_7f97_335d,
            Workload::Cell1k => 0x116e_415d_d3af_159b,
            Workload::CityscaleHybrid => 0xf21b_da81_e4d5_c99f,
            // Equal to the digest of the file `marnet-lab sweep_recovery
            // --replicates 4 --seed 42` writes.
            Workload::LabSweepRecovery => 0x2c0f_d976_c5bb_60d4,
        }
    }
}

/// 64-bit FNV-1a.
#[derive(Debug)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Hashes `bytes`.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Hashes one word.
    pub fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    /// Hashes every value's bit pattern.
    pub fn floats(&mut self, v: &[f64]) {
        self.word(v.len() as u64);
        for x in v {
            self.word(x.to_bits());
        }
    }

    /// The digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest of a recovery run.
pub fn recovery_digest(events: u64, o: &RecoveryOutcome) -> u64 {
    let mut h = Fnv::default();
    h.word(events);
    h.floats(&[o.delivered_in_budget_pct, o.delivered_total_pct, o.overhead_pct]);
    h.finish()
}

/// Digest of a queueing run: every MAR sink's counts and latency samples
/// and every bulk receiver's counters.
pub fn queueing_digest(events: u64, o: &QueueingOutcome) -> u64 {
    let mut h = Fnv::default();
    h.word(events);
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
    h.finish()
}

/// Digest of a city-scale run: the MAR sink, the background population,
/// the fluid tier and the fidelity partition.
pub fn cityscale_digest(events: u64, o: &CityscaleOutcome) -> u64 {
    let mut h = Fnv::default();
    h.word(events);
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
    h.floats(fl.duration_ms.values());
    h.floats(fl.flow_mbps.values());
    h.word(o.regions.boundaries().len() as u64);
    h.finish()
}

/// Digest of a lab artifact's JSON bytes.
pub fn artifact_digest(json: &str) -> u64 {
    let mut h = Fnv::default();
    h.word(json.len() as u64);
    h.bytes(json.as_bytes());
    h.finish()
}

/// What one round produced.
#[derive(Debug, Clone, Copy, Default)]
pub struct Outcome {
    /// Outcome digest.
    pub digest: u64,
    /// Simulator events (for a lab round, the [`lab_census`] count it is
    /// given).
    pub events: u64,
    /// Simulations run: 1, or the lab's trial count.
    pub trials: u64,
    /// Lab trials that panicked.
    pub failed_trials: u64,
    /// Flight-recorder events captured.
    pub captured: u64,
}

fn recorder_options(recorder: bool) -> TelemetryOptions {
    if recorder {
        TelemetryOptions { trace_capacity: Some(DEFAULT_TRACE_CAPACITY), metrics: false }
    } else {
        TelemetryOptions::disabled()
    }
}

/// One round of a simulator workload through its public entry point, with
/// the flight recorder off or at [`DEFAULT_TRACE_CAPACITY`].
///
/// # Panics
///
/// Panics on the lab workload, which runs through [`lab_round`].
pub fn sim_round(w: Workload, seed: u64, recorder: bool) -> Outcome {
    let t = recorder_options(recorder);
    let (digest, events, captured) = match (w, recorder) {
        (Workload::RecoveryLong, false) => {
            let (o, ev) = run_recovery_counted(
                RECOVERY_RTT_MS,
                RECOVERY_LOSS,
                RECOVERY_MECHANISM,
                RECOVERY_SECS,
                seed,
            );
            (recovery_digest(ev, &o), ev, 0)
        }
        (Workload::RecoveryLong, true) => {
            let (o, ev, cap) = run_recovery_instrumented(
                RECOVERY_RTT_MS,
                RECOVERY_LOSS,
                RECOVERY_MECHANISM,
                RECOVERY_SECS,
                seed,
                &t,
            );
            (recovery_digest(ev, &o), ev, cap.events.len())
        }
        (Workload::Cell1k, false) => {
            let (o, ev) = run_queueing_counted(
                CELL_UP_MBPS,
                QueueConfig::bloated_uplink(),
                0,
                CELL_MAR,
                CELL_BULK,
                CELL_SECS,
                seed,
            );
            (queueing_digest(ev, &o), ev, 0)
        }
        (Workload::Cell1k, true) => {
            let (o, ev, cap) = run_queueing_instrumented(
                CELL_UP_MBPS,
                QueueConfig::bloated_uplink(),
                0,
                CELL_MAR,
                CELL_BULK,
                CELL_SECS,
                seed,
                &t,
            );
            (queueing_digest(ev, &o), ev, cap.events.len())
        }
        (Workload::CityscaleHybrid, false) => {
            let (o, ev) = run_cityscale_counted(CITY_CLIENTS, CITY_BACKHAUL_GBPS, CITY_SECS, seed);
            (cityscale_digest(ev, &o), ev, 0)
        }
        (Workload::CityscaleHybrid, true) => {
            let (o, ev, cap) =
                run_cityscale_instrumented(CITY_CLIENTS, CITY_BACKHAUL_GBPS, CITY_SECS, seed, &t);
            (cityscale_digest(ev, &o), ev, cap.events.len())
        }
        (Workload::LabSweepRecovery, _) => panic!("the lab workload runs through lab_round"),
    };
    Outcome { digest, events, trials: 1, failed_trials: 0, captured: captured as u64 }
}

/// One traced round of a simulator workload on its re-assembled topology.
///
/// # Panics
///
/// Panics on the lab workload, which runs through [`lab_traced`].
pub fn sim_traced(w: Workload, seed: u64, spans: SpanCtx) -> (Outcome, Traced) {
    let (digest, traced) = match w {
        Workload::RecoveryLong => {
            let (o, t) = assembly::recovery(
                RECOVERY_RTT_MS,
                RECOVERY_LOSS,
                RECOVERY_MECHANISM,
                RECOVERY_SECS,
                seed,
                spans,
            );
            (recovery_digest(t.totals.events, &o), t)
        }
        Workload::Cell1k => {
            let (o, t) = assembly::queueing(
                CELL_UP_MBPS,
                QueueConfig::bloated_uplink(),
                0,
                CELL_MAR,
                CELL_BULK,
                CELL_SECS,
                seed,
                spans,
            );
            (queueing_digest(t.totals.events, &o), t)
        }
        Workload::CityscaleHybrid => {
            let (o, t) =
                assembly::cityscale(CITY_CLIENTS, CITY_BACKHAUL_GBPS, CITY_SECS, seed, spans);
            (cityscale_digest(t.totals.events, &o), t)
        }
        Workload::LabSweepRecovery => panic!("the lab workload runs through lab_traced"),
    };
    let events = traced.totals.events;
    (Outcome { digest, events, trials: 1, failed_trials: 0, captured: 0 }, traced)
}

/// The lab experiment at `seed`, as `marnet-lab sweep_recovery
/// --replicates LAB_REPLICATES --seed <seed>` builds it.
pub fn lab_experiment(seed: u64, recorder: bool) -> Experiment {
    experiments::build(LAB_EXPERIMENT, LAB_REPLICATES, seed, &recorder_options(recorder))
        .expect("sweep_recovery is a built-in experiment")
}

fn lab_outcome(run: &ExperimentRun, json: &str, events: u64) -> Outcome {
    Outcome {
        digest: artifact_digest(json),
        events,
        trials: run.spec.trial_count() as u64,
        failed_trials: run.failures.len() as u64,
        captured: run.reports.iter().flatten().flatten().map(|r| r.events.len() as u64).sum(),
    }
}

/// One lab round: build → run on `threads` workers → artifact JSON.
/// `events` is the sweep's simulator event count from [`lab_census`].
pub fn lab_round(seed: u64, threads: usize, recorder: bool, events: u64) -> Outcome {
    let exp = lab_experiment(seed, recorder);
    let run = run_experiment(&exp.spec, threads, |p, c| (exp.trial)(p, c));
    lab_outcome(&run, &Artifact::from_run(&run).to_json(), events)
}

/// Host time of each public lab phase, in nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct LabPhases {
    /// `experiments::build`.
    pub build_ns: u64,
    /// `runner::run_experiment`, wall.
    pub runner_ns: u64,
    /// Sum of every trial's own time.
    pub trial_ns: u64,
    /// `agg::aggregate_run`.
    pub agg_ns: u64,
    /// `Artifact::from_run` + `to_json`, less one `aggregate_run`.
    pub artifact_ns: u64,
}

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// [`lab_round`] with every public phase timed, and each trial timed by
/// a wrapper around the experiment's trial function. Phase spans go to
/// `spans`.
pub fn lab_round_phased(
    seed: u64,
    threads: usize,
    events: u64,
    ctx: SpanCtx,
    spans: &mut Vec<Span>,
) -> (Outcome, LabPhases) {
    let mut ph = LabPhases::default();
    let phase = |name: &'static str, t0: Instant, spans: &mut Vec<Span>| {
        let end = Instant::now();
        spans.push(Span {
            name,
            id: span_id(),
            parent: ctx.parent,
            round: ctx.round,
            start_ns: (t0 - ctx.origin).as_nanos() as u64,
            end_ns: (end - ctx.origin).as_nanos() as u64,
        });
        (end - t0).as_nanos() as u64
    };
    let t0 = Instant::now();
    let exp = lab_experiment(seed, false);
    ph.build_ns = phase("lab.build", t0, spans);

    let trial_ns = AtomicU64::new(0);
    let t0 = Instant::now();
    let run = run_experiment(&exp.spec, threads, |p, c| {
        let t = Instant::now();
        let r = (exp.trial)(p, c);
        trial_ns.fetch_add(ns_since(t), Ordering::Relaxed);
        r
    });
    ph.runner_ns = phase("lab.runner", t0, spans);
    ph.trial_ns = trial_ns.into_inner();

    let t0 = Instant::now();
    std::hint::black_box(aggregate_run(&run));
    ph.agg_ns = phase("lab.agg", t0, spans);

    let t0 = Instant::now();
    let json = Artifact::from_run(&run).to_json();
    ph.artifact_ns = phase("lab.artifact", t0, spans).saturating_sub(ph.agg_ns);
    (lab_outcome(&run, &json, events), ph)
}

fn recovery_point(point: &GridPoint) -> (RecoveryMechanism, u64, f64, u64) {
    let mechanism = RecoveryMechanism::from_label(point.param("mechanism").as_str().expect("str"))
        .expect("known mechanism");
    let rtt = point.param("rtt_ms").as_int().expect("int") as u64;
    let loss = point.param("loss").as_float().expect("float");
    let secs = point.param("secs").as_int().expect("int") as u64;
    (mechanism, rtt, loss, secs)
}

fn recovery_report(o: &RecoveryOutcome) -> TrialReport {
    let mut report = TrialReport::new();
    report
        .scalar("delivered_in_budget_pct", o.delivered_in_budget_pct)
        .scalar("delivered_total_pct", o.delivered_total_pct)
        .scalar("overhead_pct", o.overhead_pct);
    report
}

/// Counts the sweep's simulator events by running every trial through
/// `run_recovery_counted` on the lab runner. Returns the count and the
/// digest of the artifact those trials give, which must equal the
/// public round's.
pub fn lab_census(seed: u64, threads: usize) -> (u64, u64) {
    let exp = lab_experiment(seed, false);
    let events = AtomicU64::new(0);
    let run = run_experiment(&exp.spec, threads, |p, c| {
        let (mechanism, rtt, loss, secs) = recovery_point(p);
        let (o, ev) = run_recovery_counted(rtt, loss, mechanism, secs, c.seed);
        events.fetch_add(ev, Ordering::Relaxed);
        recovery_report(&o)
    });
    let json = Artifact::from_run(&run).to_json();
    (events.into_inner(), artifact_digest(&json))
}

/// The lab sweep on the lab runner with every trial's topology traced.
/// Returns the outcome (whose digest must match the public round's), the
/// runner wall in nanoseconds, and the merged attribution.
pub fn lab_traced(seed: u64, threads: usize, ctx: SpanCtx) -> (Outcome, u64, Traced) {
    let exp = lab_experiment(seed, false);
    let merged = Mutex::new(Traced::default());
    let runner_span = span_id();
    let t0 = Instant::now();
    let run = run_experiment(&exp.spec, threads, |p, c| {
        let (mechanism, rtt, loss, secs) = recovery_point(p);
        let trial_span = span_id();
        let start = Instant::now();
        let spans = SpanCtx { parent: trial_span, ..ctx };
        let (o, mut t) = assembly::recovery(rtt, loss, mechanism, secs, c.seed, spans);
        t.totals.spans.push(Span {
            name: "lab.trial",
            id: trial_span,
            parent: runner_span,
            round: ctx.round,
            start_ns: (start - ctx.origin).as_nanos() as u64,
            end_ns: (Instant::now() - ctx.origin).as_nanos() as u64,
        });
        let mut m = merged.lock().expect("a traced trial panicked while merging");
        m.totals.merge(std::mem::take(&mut t.totals));
        m.link_tx += t.link_tx;
        m.link_drops += t.link_drops;
        m.parity_sent += t.parity_sent;
        m.fec_recovered += t.fec_recovered;
        m.retransmits += t.retransmits;
        drop(m);
        recovery_report(&o)
    });
    let runner_ns = ns_since(t0);
    let mut traced = merged.into_inner().expect("a traced trial panicked while merging");
    traced.totals.spans.push(Span {
        name: "lab.runner",
        id: runner_span,
        parent: ctx.parent,
        round: ctx.round,
        start_ns: (t0 - ctx.origin).as_nanos() as u64,
        end_ns: (t0 - ctx.origin).as_nanos() as u64 + runner_ns,
    });
    let json = Artifact::from_run(&run).to_json();
    let events = traced.totals.events;
    (lab_outcome(&run, &json, events), runner_ns, traced)
}
