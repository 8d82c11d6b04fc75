//! Dynamic-parallelism cost model (Section 2.1, Figure 1, Section 6).
//!
//! The paper measures two overheads of Kepler dynamic parallelism on a
//! K20c and we model both:
//!
//! 1. **Enabled-kernel overhead**: merely compiling with `-rdc` and linking
//!    the device runtime slows a kernel that never launches children
//!    (142 GB/s → 63 GB/s on the memcpy microbenchmark). Modelled as a
//!    multiplicative cycle tax.
//! 2. **Launch overhead**: every device-side kernel launch runs through the
//!    device runtime. Modelled as a fixed cost per launch, processed with
//!    bounded concurrency, plus a global-memory argument handoff per launch
//!    (parent/child threads may communicate only through global memory).
//!
//! The model is deliberately analytic: the paper itself treats dynamic
//! parallelism as a black-box overhead to be measured, not a mechanism to
//! be simulated.

use crate::config::DeviceConfig;

/// Description of a dynamic-parallelism execution pattern.
#[derive(Debug, Clone, Copy)]
pub struct DynParLaunchPlan {
    /// Number of child-kernel launches issued by the parent grid.
    pub num_launches: u64,
    /// Cycles of *useful* child work per launch (as measured by simulating
    /// one child kernel without dynamic parallelism).
    pub child_cycles: u64,
    /// Cycles the parent grid itself needs (excluding launches).
    pub parent_cycles: u64,
}

/// Total cycles for a dynamic-parallelism execution.
///
/// Launch processing overlaps child execution up to the device runtime's
/// `launch_parallelism`; the serialized launch pipeline establishes a floor
/// of `num_launches * (launch_overhead + handoff) / launch_parallelism`,
/// and total child work establishes the other floor.
pub fn dynpar_cycles(dev: &DeviceConfig, plan: &DynParLaunchPlan) -> u64 {
    let dp = &dev.dynpar;
    let per_launch = dp.launch_overhead_cycles + dp.global_handoff_cycles;
    let launch_pipeline =
        (plan.num_launches as u128 * per_launch as u128 / dp.launch_parallelism as u128) as u64;
    let child_work = plan.num_launches * plan.child_cycles;
    let busy = launch_pipeline.max(child_work) + plan.parent_cycles;
    // Everything, including the parent, pays the enabled-kernel tax.
    (busy as f64 * dp.enabled_overhead) as u64
}

/// Cycles for the *same* kernel merely compiled with dynamic parallelism
/// enabled but never launching children.
pub fn enabled_overhead_cycles(dev: &DeviceConfig, base_cycles: u64) -> u64 {
    (base_cycles as f64 * dev.dynpar.enabled_overhead) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enabled_overhead_matches_paper_ratio() {
        let d = DeviceConfig::k20c();
        let c = enabled_overhead_cycles(&d, 63_000);
        // 63 GB/s worth of time scaled back up to the 142 GB/s baseline.
        assert!((c as f64 / 63_000.0 - 142.0 / 63.0).abs() < 0.01);
    }

    #[test]
    fn few_large_children_amortize_launch_cost() {
        let d = DeviceConfig::k20c();
        let big = DynParLaunchPlan { num_launches: 4, child_cycles: 1_000_000, parent_cycles: 0 };
        let c = dynpar_cycles(&d, &big);
        let pure_work = (4.0 * 1_000_000.0 * d.dynpar.enabled_overhead) as u64;
        // Within 1% of pure child work: launches fully hidden.
        assert!(c <= pure_work + pure_work / 100);
    }

    #[test]
    fn many_tiny_children_are_launch_bound() {
        let d = DeviceConfig::k20c();
        let tiny =
            DynParLaunchPlan { num_launches: 100_000, child_cycles: 10, parent_cycles: 0 };
        let c = dynpar_cycles(&d, &tiny);
        let work = 100_000 * 10;
        assert!(c > 10 * work, "launch overhead must dominate: {c} vs work {work}");
    }

    #[test]
    fn monotone_in_launch_count_at_fixed_total_work() {
        // Figure 1's sweep: m*n fixed, increasing m (launch count) must
        // never improve total time.
        let d = DeviceConfig::k20c();
        let total_work: u64 = 1 << 26;
        let mut prev = 0u64;
        for log_m in [0u32, 4, 8, 12, 16] {
            let m = 1u64 << log_m;
            let plan = DynParLaunchPlan {
                num_launches: m,
                child_cycles: total_work / m,
                parent_cycles: 0,
            };
            let c = dynpar_cycles(&d, &plan);
            assert!(c >= prev, "m={m}: {c} < {prev}");
            prev = c;
        }
    }
}
