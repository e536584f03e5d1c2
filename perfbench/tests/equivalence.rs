//! The traced run's re-assembled topologies reproduce the public entry
//! points exactly: same event count, same outcome digest, at each
//! workload's default seed and at a held-out seed.

use marnet_perfbench::assembly::SpanCtx;
use marnet_perfbench::workloads::{self, Workload};
use std::time::Instant;

const HELD_OUT_SEED: u64 = 20_251;

fn spans() -> SpanCtx {
    SpanCtx { origin: Instant::now(), parent: 0, round: 1 }
}

fn check_sim(w: Workload) {
    for seed in [w.default_seed(), HELD_OUT_SEED] {
        let public = workloads::sim_round(w, seed, false);
        let (traced, t) = workloads::sim_traced(w, seed, spans());
        assert_eq!(traced.events, public.events, "{} seed {seed}: event count", w.name());
        assert_eq!(traced.digest, public.digest, "{} seed {seed}: outcome digest", w.name());
        assert!(t.totals.balanced, "handler plus engine time telescopes to the wall");
        if seed == w.default_seed() {
            assert_eq!(public.digest, w.pinned_digest(), "{}: pinned digest", w.name());
        }
    }
}

#[test]
fn recovery_long_assembly_matches_run_recovery() {
    check_sim(Workload::RecoveryLong);
}

#[test]
fn cell_1k_assembly_matches_run_queueing() {
    check_sim(Workload::Cell1k);
}

#[test]
fn cityscale_assembly_matches_run_cityscale() {
    check_sim(Workload::CityscaleHybrid);
}

#[test]
fn lab_traced_sweep_and_census_reproduce_the_artifact() {
    let w = Workload::LabSweepRecovery;
    for seed in [w.default_seed(), HELD_OUT_SEED] {
        let public = workloads::lab_round(seed, 2, false, 0);
        let (traced, _, t) = workloads::lab_traced(seed, 2, spans());
        let (events, census_digest) = workloads::lab_census(seed, 2);
        assert_eq!(traced.digest, public.digest, "seed {seed}: traced artifact");
        assert_eq!(census_digest, public.digest, "seed {seed}: census artifact");
        assert_eq!(t.totals.events, events, "seed {seed}: traced vs census events");
        if seed == w.default_seed() {
            assert_eq!(public.digest, w.pinned_digest(), "pinned artifact digest");
        }
    }
}
