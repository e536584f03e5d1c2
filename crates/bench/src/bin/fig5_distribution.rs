//! E6 — regenerates **Fig. 5**: the four approaches to distributing MAR
//! computation (multipath multi-server, home-WiFi D2D, LTE-Direct D2D,
//! WiFi-Direct D2D), compared on loop latency, deadline compliance and
//! LTE usage, plus the §VI-E server-selection/synchronisation analysis.

use marnet_bench::{fmt, print_table, write_json};
use marnet_edge::scenarios::{run_scenario, DistributionScenario};
use marnet_edge::selection::{select_per_path, select_single, InterServerMatrix};
use marnet_sim::time::SimDuration;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    scenario: String,
    loops: usize,
    loop_median_ms: f64,
    loop_p95_ms: f64,
    within_75ms: f64,
    critical_median_ms: f64,
    cellular_mbytes: f64,
}

fn main() {
    let mut rows = Vec::new();
    for scenario in DistributionScenario::ALL {
        let mut out = run_scenario(scenario, 42, 30, None);
        let s = out.sender.borrow();
        let cellular = s.cellular_bytes as f64 / 1e6;
        drop(s);
        rows.push(Row {
            scenario: scenario.to_string(),
            loops: out.loop_latency_ms.count(),
            loop_median_ms: out.loop_latency_ms.median().unwrap_or(f64::NAN),
            loop_p95_ms: out.loop_latency_ms.p95().unwrap_or(f64::NAN),
            within_75ms: out.within_budget(),
            critical_median_ms: out.critical_latency_ms.median().unwrap_or(f64::NAN),
            cellular_mbytes: cellular,
        });
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.scenario.clone(),
                r.loops.to_string(),
                fmt(r.loop_median_ms, 1),
                fmt(r.loop_p95_ms, 1),
                format!("{}%", fmt(r.within_75ms * 100.0, 1)),
                fmt(r.critical_median_ms, 1),
                fmt(r.cellular_mbytes, 1),
            ]
        })
        .collect();
    print_table(
        "Fig. 5 — distribution architectures (30 s MAR session each)",
        &["Scenario", "Loops", "Loop med ms", "Loop p95 ms", "≤75 ms", "Critical med ms", "LTE MB"],
        &table,
    );

    // §VI-E: per-path servers vs one shared server, priced with a sync
    // round (using the 5a scenario's options).
    let out = run_scenario(DistributionScenario::MultipathMultiServer, 42, 5, None);
    let matrix = InterServerMatrix::new(
        vec!["university".into(), "cloud".into()],
        vec![
            vec![SimDuration::ZERO, SimDuration::from_millis(25)],
            vec![SimDuration::from_millis(25), SimDuration::ZERO],
        ],
    );
    // Make every server visible from every path for the single-server case.
    let mut options = out.options.clone();
    let all: Vec<_> = options.iter().flatten().cloned().collect();
    for per_path in &mut options {
        for o in &all {
            if !per_path.iter().any(|e| e.name == o.name) {
                let mut worse = o.clone();
                // Reaching the "other" path's server detours: +40 ms.
                worse.rtt += SimDuration::from_millis(40);
                per_path.push(worse);
            }
        }
    }
    let per_path = select_per_path(&options, &matrix);
    let single = select_single(&options);
    println!("\n§VI-E server selection on the 5a topology:");
    println!(
        "  per-path: {:?}, sync {} → fan-in {}",
        per_path.per_path,
        per_path.sync,
        per_path.fan_in_latency()
    );
    println!("  single:   {:?} → fan-in {}", single.per_path, single.fan_in_latency());

    println!(
        "\nShape check: nearby executors (5b home PC, then 5a university)\n\
         give the lowest critical-path latency; the D2D helpers keep LTE\n\
         bytes near zero for latency traffic; the weak phone helper (5c/5d)\n\
         still serves critical data fast but pushes heavy frames to the\n\
         cloud path."
    );
    write_json("fig5_distribution", &rows);
}
