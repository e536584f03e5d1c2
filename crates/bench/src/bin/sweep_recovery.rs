//! E11 — sweeps the §VI-C loss-recovery trade-off: deadline-gated ARQ vs
//! XOR FEC vs duplication, over an RTT × loss grid, at 30 FPS with the
//! 75 ms budget. Includes the paper's analytic 37.5 ms rule and the
//! FEC overhead/residual-loss frontier.
//!
//! The topology lives in
//! [`marnet_bench::scenarios::run_recovery_config_instrumented`] so the
//! `marnet-lab` replicated version of this sweep runs the same code; this
//! binary is the single-seed quick look.

use marnet_bench::scenarios::{run_recovery_instrumented, RecoveryMechanism};
use marnet_bench::{fmt, parse_telemetry_flags, print_table, write_json, write_trace};
use marnet_core::fec;
use marnet_telemetry::MetricsSnapshot;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    mechanism: String,
    rtt_ms: u64,
    loss_pct: f64,
    delivered_in_budget_pct: f64,
    delivered_total_pct: f64,
    overhead_pct: f64,
}

#[derive(Serialize)]
struct MetricsRow {
    mechanism: String,
    rtt_ms: u64,
    metrics: MetricsSnapshot,
}

fn main() {
    let flags = parse_telemetry_flags();
    let rtts = [20u64, 36, 60, 120];
    let loss = 0.03;

    let mut all = Vec::new();
    let mut events = Vec::new();
    let mut metrics = Vec::new();
    for mechanism in RecoveryMechanism::ALL {
        for &rtt in &rtts {
            let (out, _, capture) =
                run_recovery_instrumented(rtt, loss, mechanism, 30, 11, &flags.options);
            events.extend(capture.events);
            if let Some(snap) = capture.metrics {
                metrics.push(MetricsRow {
                    mechanism: mechanism.label().to_string(),
                    rtt_ms: rtt,
                    metrics: snap,
                });
            }
            all.push(Row {
                mechanism: mechanism.label().to_string(),
                rtt_ms: rtt,
                loss_pct: loss * 100.0,
                delivered_in_budget_pct: out.delivered_in_budget_pct,
                delivered_total_pct: out.delivered_total_pct,
                overhead_pct: out.overhead_pct,
            });
        }
    }

    let table: Vec<Vec<String>> = all
        .iter()
        .map(|r| {
            vec![
                r.mechanism.clone(),
                format!("{} ms", r.rtt_ms),
                format!("{}%", fmt(r.delivered_in_budget_pct, 1)),
                format!("{}%", fmt(r.delivered_total_pct, 1)),
                format!("{}%", fmt(r.overhead_pct, 1)),
            ]
        })
        .collect();
    print_table(
        "E11 — recovery mechanisms at 3% loss, 30 FPS reference frames, 75 ms budget",
        &["Mechanism", "RTT", "In budget", "Delivered", "Byte overhead"],
        &table,
    );

    // The analytic §VI-C rule and FEC frontier.
    println!("\n§VI-C analytic checks:");
    println!(
        "  Retransmission viable iff RTT ≤ 37.5 ms (one retransmit within\n\
         a 75 ms budget at 30 FPS): gate passes at 20/36 ms, refuses at 60+."
    );
    println!("  XOR FEC frontier at p = {loss}:");
    for k in [1usize, 2, 4, 8, 16] {
        println!(
            "    k={k:>2}: overhead {:>5}%  residual message loss {:>6}%",
            fmt(fec::overhead(k) * 100.0, 1),
            fmt(fec::residual_loss(k, loss) * 100.0, 3)
        );
    }
    println!(
        "\nShape check: below 37.5 ms RTT the deadline-gated ARQ matches\n\
         always-ARQ; above it, gated ARQ stops wasting bytes on hopeless\n\
         retransmissions and FEC/duplication become the only ways to lift\n\
         in-budget delivery — at their respective byte costs."
    );
    write_json("sweep_recovery", &all);
    write_trace(&flags, &events);
    if flags.options.metrics {
        write_json("sweep_recovery_metrics", &metrics);
    }
}
