//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload as a single-process, closed-loop series of rounds
//! (each round starts when the previous one ends) for `--seconds` of host
//! time and prints one metric per line, then a JSON summary as the last
//! line of standard output. `--trace 0` measures the end-to-end metrics
//! with tracing off; `--trace 1` measures the per-layer split. Every
//! round's outcome digest is checked: at the workload's default seed
//! against the pinned digest, at any other seed against the run's first
//! round, and the default-seed round is re-checked on every run. A
//! mismatch or a panic makes the run report `"correct": false` and exit
//! with code 1. Usage errors exit with code 2.

use marnet_perfbench::assembly::SpanCtx;
use marnet_perfbench::probe::{self, span_id, BracketCost, Layer, Span, Totals};
use marnet_perfbench::workloads::{self, LabPhases, Outcome, Workload};
use marnet_perfbench::{alloc, median};
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    note: String,
}

/// The run's state: what it is measuring and what it has checked.
struct Bench {
    workload: Workload,
    seed: u64,
    threads: usize,
    origin: Instant,
    /// Digest every round at `seed` must reproduce.
    expected: Option<u64>,
    /// Sweep event count at `seed` (lab only).
    lab_events: u64,
    /// Simulations per round.
    trials_per_round: u64,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    spans: Vec<Span>,
    round: u32,
}

/// A timed public round.
struct Timed {
    outcome: Outcome,
    wall_s: f64,
    allocs: u64,
    peak_bytes: i64,
}

impl Bench {
    fn is_lab(&self) -> bool {
        self.workload == Workload::LabSweepRecovery
    }

    /// Runs `f` as one checked round: counts it, catches a panic, and
    /// compares its digest with the expected one (the first round at a
    /// non-default seed sets it).
    fn checked<T>(&mut self, what: &str, f: impl FnOnce() -> (Outcome, T)) -> Option<(Outcome, T)> {
        self.round += 1;
        let weight = self.trials_per_round;
        self.attempted += weight;
        let (o, t) = match catch_unwind(AssertUnwindSafe(f)) {
            Ok(r) => r,
            Err(_) => {
                self.failed += weight;
                self.errors.push(format!("{what} round {} panicked", self.round));
                return None;
            }
        };
        let expected = *self.expected.get_or_insert(o.digest);
        if o.failed_trials > 0 {
            self.failed += o.failed_trials;
            self.errors
                .push(format!("{what} round {}: {} trials panicked", self.round, o.failed_trials));
        } else if o.digest != expected {
            self.failed += weight;
            self.errors.push(format!(
                "{what} round {}: outcome digest {:016x}, expected {expected:016x}",
                self.round, o.digest
            ));
        }
        Some((o, t))
    }

    /// One public round, recorder off or on, timed and metered.
    fn public(&mut self, recorder: bool) -> Option<Timed> {
        let (w, seed, threads, events) = (self.workload, self.seed, self.threads, self.lab_events);
        let what = if recorder { "recorded" } else { "public" };
        let base = alloc::live_bytes();
        alloc::reset_peak();
        let a0 = alloc::calls();
        let t0 = Instant::now();
        let (outcome, wall_s) = self.checked(what, || {
            let o = if w == Workload::LabSweepRecovery {
                workloads::lab_round(seed, threads, recorder, events)
            } else {
                workloads::sim_round(w, seed, recorder)
            };
            (o, t0.elapsed().as_secs_f64())
        })?;
        let allocs = alloc::calls() - a0;
        let peak_bytes = alloc::peak_bytes() - base;
        self.round_span(t0);
        Some(Timed { outcome, wall_s, allocs, peak_bytes })
    }

    fn round_span(&mut self, t0: Instant) {
        let origin = self.origin;
        self.spans.push(Span {
            name: "round",
            id: span_id(),
            parent: 0,
            round: self.round,
            start_ns: (t0 - origin).as_nanos() as u64,
            end_ns: origin.elapsed().as_nanos() as u64,
        });
    }

    /// Set-up: [`SETUPS`] cold rounds at the run's seed, the lab's event
    /// census, and the pinned default-seed check. Returns the set-up
    /// times.
    fn set_up(&mut self) -> Vec<f64> {
        let default_seed = self.workload.default_seed();
        if self.seed == default_seed {
            self.expected = Some(self.workload.pinned_digest());
        }
        let mut times = Vec::new();
        for _ in 0..SETUPS {
            let t0 = Instant::now();
            if self.public(false).is_some() {
                times.push(t0.elapsed().as_secs_f64());
            }
        }
        if self.is_lab() {
            let (seed, threads) = (self.seed, self.threads);
            match catch_unwind(|| workloads::lab_census(seed, threads)) {
                Ok((events, digest)) if Some(digest) == self.expected => self.lab_events = events,
                _ => {
                    self.failed += 1;
                    self.errors.push("lab event census does not reproduce the artifact".into());
                }
            }
        }
        if self.seed != default_seed {
            let w = self.workload;
            let threads = self.threads;
            self.attempted += 1;
            let pinned = catch_unwind(|| {
                if w == Workload::LabSweepRecovery {
                    workloads::lab_round(default_seed, threads, false, 0).digest
                } else {
                    workloads::sim_round(w, default_seed, false).digest
                }
            });
            if pinned.ok() != Some(w.pinned_digest()) {
                self.failed += 1;
                self.errors.push(format!(
                    "default seed {default_seed}: outcome differs from the pinned digest {:016x}",
                    w.pinned_digest()
                ));
            }
        }
        times
    }
}

fn f(v: u64) -> f64 {
    v as f64
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn spread(v: &[f64]) -> String {
    let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    format!("median of {} rounds, range {lo:.6}..{hi:.6}", v.len())
}

/// A rate metric: the fastest round's rate, with the median printed
/// beside it.
///
/// Other tenants of a shared host slow whole stretches of rounds: on a
/// 2-vCPU VM the median round of a 25 s run moved by up to 40% between
/// runs minutes apart, while the fastest round moved by a quarter of
/// that. A slowdown from contention only ever lengthens a round, so the
/// fastest one is the closest to the program's own speed.
fn best_rate(name: &str, mut v: Vec<f64>) -> Metric {
    let best = v.iter().copied().fold(0.0, f64::max);
    let note = format!("best of {} rounds; median {:.6}", v.len(), median(&mut v));
    Metric { name: name.into(), value: best, unit: "1/s", note }
}

/// The end-to-end run: palindromic recorder-off / recorder-on rounds.
fn end_to_end(b: &mut Bench, seconds: f64, setup: &mut [f64]) -> Vec<Metric> {
    let mut off: Vec<Timed> = Vec::new();
    let mut on: Vec<Timed> = Vec::new();
    let start = Instant::now();
    // Palindromic order (off, on, on, off) keeps a linear drift in machine
    // speed from favouring either side.
    let order = [false, true, true, false];
    let mut i = 0;
    while i < 2 * order.len() || start.elapsed().as_secs_f64() < seconds {
        let recorder = order[i % order.len()];
        if let Some(t) = b.public(recorder) {
            if recorder { &mut on } else { &mut off }.push(t);
        }
        i += 1;
    }
    let per = |v: &[Timed], g: &dyn Fn(&Timed) -> f64| v.iter().map(g).collect::<Vec<f64>>();
    let mut peak = per(&off, &|t| t.peak_bytes as f64 / 1e6);
    let allocs: u64 = off.iter().map(|t| t.allocs).sum();
    let events: u64 = off.iter().map(|t| t.outcome.events).sum();
    let trials: u64 = off.iter().map(|t| t.outcome.trials).sum();
    let peak_note = spread(&peak);
    vec![
        best_rate("events_per_s", per(&off, &|t| ratio(f(t.outcome.events), t.wall_s))),
        best_rate("trials_per_s", per(&off, &|t| ratio(f(t.outcome.trials), t.wall_s))),
        best_rate("recorded_events_per_s", per(&on, &|t| ratio(f(t.outcome.events), t.wall_s))),
        Metric {
            name: "allocs_per_event".into(),
            value: ratio(f(allocs), f(events)),
            unit: "allocs/event",
            note: format!("{allocs} allocator calls over {events} events"),
        },
        Metric {
            name: "allocs_per_trial".into(),
            value: ratio(f(allocs), f(trials)),
            unit: "allocs/trial",
            note: format!("{allocs} allocator calls over {trials} simulations"),
        },
        Metric {
            name: "peak_heap_mb".into(),
            value: median(&mut peak),
            unit: "MB",
            note: peak_note,
        },
        Metric { name: "setup_s".into(), value: median(setup), unit: "s", note: spread(setup) },
    ]
}

/// The traced run: cycles of a public round, a traced round and a
/// recorded round.
fn per_layer(b: &mut Bench, seconds: f64) -> Vec<Metric> {
    let cost: BracketCost = probe::calibrate();
    let mut totals = Totals::default();
    let (mut link_tx, mut link_drops, mut parity, mut fec, mut rtx, mut recomputes) =
        (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
    let mut overhead = Vec::new();
    let mut tax = Vec::new();
    let mut captured = Vec::new();
    let mut off_ms = Vec::new();
    let mut phases: Vec<LabPhases> = Vec::new();
    let mut traced_rounds = 0u64;
    let start = Instant::now();
    let mut cycle = 0u32;
    while cycle < 2 || start.elapsed().as_secs_f64() < seconds {
        // Off: the public round (phase-timed for the lab).
        let off_wall = if b.is_lab() {
            let (seed, threads, events) = (b.seed, b.threads, b.lab_events);
            let ctx = SpanCtx { origin: b.origin, parent: 0, round: b.round + 1 };
            let mut spans = Vec::new();
            let t0 = Instant::now();
            let r = b.checked("public", || {
                workloads::lab_round_phased(seed, threads, events, ctx, &mut spans)
            });
            b.round_span(t0);
            b.spans.append(&mut spans);
            r.map(|(_, ph)| {
                phases.push(ph);
                let s = |ns: u64| ns as f64 / 1e9;
                (s(ph.runner_ns), s(ph.build_ns + ph.runner_ns + ph.agg_ns + ph.artifact_ns))
            })
        } else {
            b.public(false).map(|t| (t.wall_s, t.wall_s))
        };
        // Traced: the re-assembled topology behind Timed wrappers.
        let (seed, threads, w) = (b.seed, b.threads, b.workload);
        let t0 = Instant::now();
        let ctx = SpanCtx { origin: b.origin, parent: 0, round: b.round + 1 };
        let traced = b.checked("traced", || {
            if w == Workload::LabSweepRecovery {
                let (o, runner_ns, t) = workloads::lab_traced(seed, threads, ctx);
                (o, (t, runner_ns as f64 / 1e9))
            } else {
                let (o, t) = workloads::sim_traced(w, seed, ctx);
                (o, (t, t0.elapsed().as_secs_f64()))
            }
        });
        b.round_span(t0);
        let recorded = b.public(true);
        // For the lab, the span overhead compares runner walls and the
        // recorder tax compares whole rounds.
        if let (Some((off, off_round)), Some((_, (t, wall))), Some(rec)) =
            (off_wall, traced, recorded)
        {
            traced_rounds += 1;
            let tt = &t.totals;
            if !tt.balanced {
                b.failed += 1;
                b.errors.push(format!(
                    "attribution: handlers {} + engine {} ns do not add up to the traced wall {} ns",
                    tt.handler_ns(),
                    tt.engine_ns,
                    tt.wall_ns
                ));
            }
            overhead.push((wall / off - 1.0) * 100.0);
            tax.push((rec.wall_s / off_round - 1.0) * 100.0);
            captured.push(f(rec.outcome.captured));
            off_ms.push(off * 1e3);
            link_tx += t.link_tx;
            link_drops += t.link_drops;
            parity += t.parity_sent;
            fec += t.fec_recovered;
            rtx += t.retransmits;
            recomputes += t.recomputes;
            totals.merge(t.totals);
        }
        cycle += 1;
    }
    b.spans.append(&mut totals.spans);

    let rounds = f(traced_rounds.max(1));
    let calls = totals.calls();
    let corrected_wall = f(totals.wall_ns) - f(calls) * cost.total_ns;
    let engine = f(totals.engine_ns) - f(calls) * (cost.total_ns - cost.inside_ns);
    let m = |name: &str, value: f64, unit: &'static str| Metric {
        name: name.to_string(),
        value,
        unit,
        note: String::new(),
    };
    let mut out = vec![
        m("sim.engine.self_ns_per_event", ratio(engine, f(totals.events)), "ns/event"),
        m("sim.engine.share", ratio(engine, corrected_wall) * 100.0, "%"),
        m("sim.eventq.pending_mean", ratio(f(totals.pending_sum), f(calls)), "count"),
        m(
            "sim.engine.internal_event_frac",
            ratio(f(totals.events.saturating_sub(calls)), f(totals.events)),
            "fraction",
        ),
        m("sim.link.drops_per_tx", ratio(f(link_drops), f(link_tx)), "fraction"),
        m("sim.events", f(totals.events) / rounds, "count"),
    ];
    for layer in Layer::ALL {
        let l = totals.layers[layer as usize];
        let self_ns = f(l.ns) - f(l.calls) * cost.inside_ns;
        let p = layer.name();
        let per_call = if l.calls == 0 { 0.0 } else { self_ns / f(l.calls) };
        out.push(m(&format!("{p}.ns_per_call"), per_call, "ns/call"));
        out.push(m(&format!("{p}.calls"), f(l.calls) / rounds, "count"));
        out.push(m(&format!("{p}.share"), ratio(self_ns, corrected_wall) * 100.0, "%"));
        out.push(m(&format!("{p}.allocs_per_call"), ratio(f(l.allocs), f(l.calls)), "allocs/call"));
    }
    let fluid = totals.layers[Layer::FlowFluid as usize];
    let fluid_ns = f(fluid.ns) - f(fluid.calls) * cost.inside_ns;
    out.extend([
        m("core.fec.yield", ratio(f(fec), f(parity)), "fraction"),
        m("core.recovery.retransmits", f(rtx) / rounds, "count"),
        m("flow.fluid.recomputes", f(recomputes) / rounds, "count"),
        m("flow.fluid.ns_per_recompute", ratio(fluid_ns, f(recomputes)), "ns/recompute"),
        m("telemetry.recorder.tax_pct", median(&mut tax), "%"),
        m("telemetry.recorder.events_captured", median(&mut captured), "count"),
    ]);
    if b.is_lab() {
        let n = f(phases.len() as u64).max(1.0);
        let sum = |g: &dyn Fn(&LabPhases) -> u64| f(phases.iter().map(g).sum::<u64>());
        let trials = f(b.trials_per_round) * n;
        let capacity = sum(&|p| p.runner_ns) * b.threads as f64;
        out.extend([
            m("lab.runner.trial_ms", sum(&|p| p.trial_ns) / trials / 1e6, "ms/trial"),
            m("lab.runner.busy_frac", ratio(sum(&|p| p.trial_ns), capacity), "fraction"),
            m("lab.runner.idle_s", (capacity - sum(&|p| p.trial_ns)) / n / 1e9, "s/round"),
            m("lab.build.ms", sum(&|p| p.build_ns) / n / 1e6, "ms/round"),
            m("lab.agg.ms", sum(&|p| p.agg_ns) / n / 1e6, "ms/round"),
            m("lab.artifact.ms", sum(&|p| p.artifact_ns) / n / 1e6, "ms/round"),
        ]);
    } else {
        // A simulator round is one trial run alone on one thread.
        out.extend([
            m("lab.runner.trial_ms", median(&mut off_ms), "ms/trial"),
            m("lab.runner.busy_frac", 1.0, "fraction"),
            m("lab.runner.idle_s", 0.0, "s/round"),
            m("lab.build.ms", 0.0, "ms/round"),
            m("lab.agg.ms", 0.0, "ms/round"),
            m("lab.artifact.ms", 0.0, "ms/round"),
        ]);
    }
    out.extend([
        m("bench.bracket_ns", cost.inside_ns, "ns/call"),
        m("bench.bracket_total_ns", cost.total_ns, "ns/call"),
        m("bench.span_overhead_pct", median(&mut overhead), "%"),
    ]);
    out
}

fn write_spans(b: &Bench) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{}-seed{}.tsv", b.workload.name(), b.seed));
    let mut body = String::from("round\tid\tparent\tname\tstart_ns\tend_ns\n");
    for s in &b.spans {
        let _ = writeln!(
            body,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.round, s.id, s.parent, s.name, s.start_ns, s.end_ns
        );
    }
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, body)) {
        Ok(()) => println!("spans        {} ({} spans)", path.display(), b.spans.len()),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut b = Bench {
        workload: args.workload,
        seed: args.seed,
        threads,
        origin: Instant::now(),
        expected: None,
        lab_events: 0,
        trials_per_round: if args.workload == Workload::LabSweepRecovery {
            workloads::lab_experiment(args.seed, false).spec.trial_count() as u64
        } else {
            1
        },
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        spans: Vec::new(),
        round: 0,
    };
    println!(
        "perfbench    workload {} seed {} ({} s, trace {}, {} threads available)",
        b.workload.name(),
        b.seed,
        args.seconds,
        u8::from(args.trace),
        threads
    );
    let mut setup = b.set_up();
    let metrics = if args.trace {
        let m = per_layer(&mut b, args.seconds);
        write_spans(&b);
        m
    } else {
        end_to_end(&mut b, args.seconds, &mut setup)
    };

    for e in &b.errors {
        eprintln!("perfbench: FAILED {e}");
    }
    // Numbers measured on a simulation that computed something else (or
    // a traced topology that drifted from its entry point) are not
    // reported.
    let correct = b.failed == 0 && b.errors.is_empty();
    let metrics = if correct { metrics } else { Vec::new() };
    for m in &metrics {
        println!("{:<40} {:>16.6} {:<14} {}", m.name, m.value, m.unit, m.note);
    }
    println!(
        "{:<40} {:>16.6} {:<14} {} of {} attempted",
        "fail_frac",
        ratio(f(b.failed), f(b.attempted)),
        "fraction",
        b.failed,
        b.attempted
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        b.attempted.max(1),
        b.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
