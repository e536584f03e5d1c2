//! Closed-loop host-time benchmark of marnet.
//!
//! Each workload's timed rounds call the public entry points users run
//! (`marnet_bench::scenarios::run_*`, and the lab's `experiments::build` →
//! `runner::run_experiment` → `Artifact::from_run` → `to_json`); every
//! round's simulated outcome is checked against a pinned digest. The
//! per-layer split comes from a separate traced run that re-assembles each
//! topology from public constructors ([`assembly`]) and brackets every
//! actor from outside ([`probe`]). See `README.md` for the workloads and
//! metrics.

pub mod alloc;
pub mod assembly;
pub mod probe;
pub mod workloads;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Median of `v` (mean of the middle pair for an even count); 0 when
/// empty.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}
