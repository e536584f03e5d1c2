//! E2 — regenerates **Table II**: measured link RTT of the CloudRidAR
//! offloading platform in four scenarios, here reproduced with 200 probe
//! transactions per scenario over calibrated simulated paths.
//!
//! Flags (all off by default): `--trace <path>` writes a binary flight
//! recorder trace (all four scenarios concatenated in table order, so the
//! file is byte-identical however the runs are scheduled), `--metrics`
//! writes a per-scenario metrics artifact, `--threads <n>` runs the four
//! scenarios on up to `n` worker threads.

use marnet_bench::scenarios::{run_table2, Table2Scenario};
use marnet_bench::{fmt, parse_telemetry_flags, print_table, write_json, write_trace};
use marnet_telemetry::{MetricsSnapshot, TelemetryCapture};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    platform: String,
    connection: String,
    paper_rtt_ms: u64,
    measured_median_ms: f64,
    measured_mean_ms: f64,
    measured_p95_ms: f64,
    probes: u64,
    frames_per_second_supportable: f64,
}

#[derive(Serialize)]
struct MetricsRow {
    platform: String,
    connection: String,
    metrics: MetricsSnapshot,
}

fn run_one(
    scenario: Table2Scenario,
    flags: &marnet_bench::TelemetryFlags,
) -> (Row, TelemetryCapture) {
    let (platform, connection, paper_ms) = scenario.labels();
    let (stats, _events, capture) = run_table2(scenario, 200, 400, 400, 42, &flags.options);
    let st = stats.borrow();
    let mut h = st.rtt_ms.clone();
    let median = h.median().unwrap_or(f64::NAN);
    let mean = h.mean().unwrap_or(f64::NAN);
    let p95 = h.p95().unwrap_or(f64::NAN);
    let row = Row {
        platform: platform.to_string(),
        connection: connection.to_string(),
        paper_rtt_ms: paper_ms,
        measured_median_ms: median,
        measured_mean_ms: mean,
        measured_p95_ms: p95,
        probes: st.received,
        // The paper notes 36 ms "is enough to send more than 20 frames
        // per second": one transaction per RTT.
        frames_per_second_supportable: 1000.0 / median,
    };
    (row, capture)
}

fn main() {
    let flags = parse_telemetry_flags();

    // Each scenario is its own single-threaded simulator, so the grid is
    // embarrassingly parallel; results are merged in table order, which
    // keeps every artifact (including the trace) byte-identical whatever
    // `--threads` says.
    let mut results: Vec<Option<(Row, TelemetryCapture)>> = Vec::new();
    if flags.threads <= 1 {
        results = Table2Scenario::ALL.iter().map(|s| Some(run_one(*s, &flags))).collect();
    } else {
        results.resize_with(Table2Scenario::ALL.len(), || None);
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for (i, scenario) in Table2Scenario::ALL.into_iter().enumerate() {
                let flags = &flags;
                handles.push((i, scope.spawn(move || run_one(scenario, flags))));
            }
            for (i, h) in handles {
                results[i] = Some(h.join().expect("scenario worker panicked"));
            }
        });
    }

    let mut rows = Vec::new();
    let mut events = Vec::new();
    let mut metrics = Vec::new();
    for r in results.into_iter().flatten() {
        let (row, capture) = r;
        events.extend(capture.events);
        if let Some(snap) = capture.metrics {
            metrics.push(MetricsRow {
                platform: row.platform.clone(),
                connection: row.connection.clone(),
                metrics: snap,
            });
        }
        rows.push(row);
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.platform.clone(),
                r.connection.clone(),
                format!("{} ms", r.paper_rtt_ms),
                format!("{} ms", fmt(r.measured_median_ms, 1)),
                format!("{} ms", fmt(r.measured_p95_ms, 1)),
                fmt(r.frames_per_second_supportable, 1),
            ]
        })
        .collect();
    print_table(
        "Table II — offload link RTT in four scenarios (paper vs simulated)",
        &["Platform", "Connection", "Paper RTT", "Median (sim)", "p95 (sim)", "fps supportable"],
        &table,
    );
    println!(
        "\nShape check: local WiFi ≪ cloud-over-WiFi < university (middleboxes\n\
         double the latency despite the shorter distance) < cloud-over-LTE,\n\
         which exceeds the 75 ms MAR budget entirely."
    );
    write_json("table2_rtt", &rows);
    write_trace(&flags, &events);
    if flags.options.metrics {
        write_json("table2_rtt_metrics", &metrics);
    }
}
