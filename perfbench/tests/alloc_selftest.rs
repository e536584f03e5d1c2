//! Counting-allocator self-test: on every simulator workload, the
//! allocator-call count and the event count of a round repeat exactly.
//!
//! One test per binary, so no concurrent test thread touches the
//! process-wide counter the benchmark reports.

use marnet_perfbench::alloc;
use marnet_perfbench::workloads::{self, Workload};

#[test]
fn allocs_per_event_and_events_repeat_exactly() {
    for w in [Workload::RecoveryLong, Workload::Cell1k, Workload::CityscaleHybrid] {
        let seed = w.default_seed();
        // Warm-up: lazily initialised state allocates once per process.
        workloads::sim_round(w, seed, false);
        let counted = || {
            let a0 = alloc::calls();
            let o = workloads::sim_round(w, seed, false);
            (alloc::calls() - a0, o.events)
        };
        let (a, b) = (counted(), counted());
        assert!(a.0 > 0 && a.1 > 0, "{}: nothing counted", w.name());
        assert_eq!(a, b, "{}: (allocs, events) must repeat", w.name());
    }
}
