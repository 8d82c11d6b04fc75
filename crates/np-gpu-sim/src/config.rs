//! Device configurations for the simulated GPUs.
//!
//! The paper evaluates on an Nvidia GTX 680 (Kepler GK104) and uses a Tesla
//! K20c (GK110) for the dynamic-parallelism microbenchmark. The parameters
//! below are the published architectural limits of those parts; timing
//! parameters (latencies, issue width) are first-order Kepler figures chosen
//! so that the simulator reproduces the qualitative behaviour the paper
//! depends on, not any particular absolute GB/s.

/// Number of threads in a warp. Fixed at 32 for every Nvidia architecture
/// the paper considers; the code base assumes this constant throughout.
pub const WARP_SIZE: u32 = 32;

/// Ticks per simulated core cycle. The timing engine keeps time in *ticks*
/// rather than cycles so that sub-cycle service times (e.g. a 128-byte DRAM
/// transaction on a >128 B/cycle memory interface) stay integral.
pub const TICKS_PER_CYCLE: u64 = 16;

/// Timing and capacity description of one simulated device.
#[derive(Debug, Clone)]
pub struct DeviceConfig {
    /// Marketing name, used in reports. Owned so descriptors loaded from
    /// files (see [`crate::device`]) are first-class citizens next to the
    /// built-in presets.
    pub name: String,
    /// Number of streaming multiprocessors (SMX in Kepler terms).
    pub num_smx: u32,
    /// Hardware limit on threads per thread block.
    pub max_threads_per_block: u32,
    /// Maximum resident threads per SMX.
    pub max_threads_per_smx: u32,
    /// Maximum resident thread blocks per SMX.
    pub max_blocks_per_smx: u32,
    /// 32-bit registers per SMX.
    pub registers_per_smx: u32,
    /// Hardware cap on registers per thread (63 on GK104, 255 on GK110).
    pub max_registers_per_thread: u32,
    /// Register-file allocation granularity in registers (per warp).
    pub register_alloc_granularity: u32,
    /// Shared memory per SMX in bytes (48 KB configuration used by the paper).
    pub shared_mem_per_smx: u32,
    /// Shared-memory allocation granularity in bytes.
    pub shared_alloc_granularity: u32,
    /// L1 data cache per SMX in bytes (backs *local* memory on Kepler).
    pub l1_bytes: u32,
    /// L1 line size in bytes.
    pub l1_line: u32,
    /// L1 associativity.
    pub l1_assoc: u32,
    /// Read-only / texture cache per SMX in bytes (serves `tex1Dfetch`).
    pub tex_cache_bytes: u32,
    /// Device-wide L2 cache in bytes (in front of DRAM for all paths).
    pub l2_bytes: u32,
    /// L2 associativity.
    pub l2_assoc: u32,
    /// Latency of an L2 hit in cycles.
    pub l2_latency: u32,
    /// Long-latency memory operations a warp may have in flight before it
    /// stalls (models compiler load scheduling / unrolling: the warp blocks
    /// on the completion of the access issued `mem_queue_depth` ops ago).
    pub mem_queue_depth: u32,
    /// Warp-instruction issue slots per SMX per cycle (4 schedulers).
    pub issue_per_cycle: u32,
    /// Cycles until a warp may issue its next instruction after an ALU op.
    /// This is an *effective* dependent-issue latency: the raw Kepler
    /// pipeline is ~9-11 cycles, but compiler scheduling overlaps
    /// independent chains, so the exposed value per instruction is lower.
    /// It is what independent warps hide.
    pub alu_latency: u32,
    /// Like `alu_latency` but for the special-function unit (sqrt, exp, ...).
    pub sfu_latency: u32,
    /// Round-trip latency of a global-memory access in cycles (DRAM row hit).
    pub global_latency: u32,
    /// Bytes per core cycle of aggregate DRAM bandwidth.
    pub dram_bytes_per_cycle: u32,
    /// Size of one global-memory transaction segment in bytes.
    pub txn_bytes: u32,
    /// Latency of a shared-memory access (per conflict-free pass).
    pub shared_latency: u32,
    /// Extra cycles per additional bank-conflict replay pass.
    pub shared_replay_cost: u32,
    /// Latency of an L1 hit (local memory / read-only tex path).
    pub l1_hit_latency: u32,
    /// Latency of a constant-cache broadcast access.
    pub const_latency: u32,
    /// Extra cycles per additional distinct constant address in a warp.
    pub const_serialize_cost: u32,
    /// Latency of a `__shfl` register exchange.
    pub shfl_latency: u32,
    /// Whether the device supports the Kepler `__shfl` family at all.
    pub supports_shfl: bool,
    /// Cost in cycles for a warp to cross a `__syncthreads`.
    pub barrier_cost: u32,
    /// Fixed per-block launch overhead in cycles (front-end work).
    pub block_launch_cost: u32,
    /// Core clock in GHz — only used to convert cycles to wall time / GB/s.
    pub clock_ghz: f64,
    /// Dynamic-parallelism overhead model (Section 2.1 / Figure 1).
    pub dynpar: DynParConfig,
}

/// Overheads of CUDA dynamic parallelism, calibrated against the paper's
/// own measurements on a K20c (Section 2.1): enabling the device runtime
/// alone drops the memcpy microbenchmark from 142 GB/s to 63 GB/s, and each
/// device-side kernel launch has a large fixed cost.
#[derive(Debug, Clone)]
pub struct DynParConfig {
    /// Multiplicative slowdown applied to a kernel merely *compiled* with
    /// dynamic parallelism enabled (the "dynamic-parallelism-enabled kernel
    /// overhead" of \[27\]): 142/63 ≈ 2.25.
    pub enabled_overhead: f64,
    /// Fixed cycles consumed by the device runtime per child-kernel launch.
    pub launch_overhead_cycles: u64,
    /// Number of child launches the device runtime can process concurrently.
    pub launch_parallelism: u32,
    /// Cycles for a parent thread to marshal one argument block through
    /// global memory for its child (parent/child may only communicate via
    /// global memory).
    pub global_handoff_cycles: u64,
}

impl DeviceConfig {
    /// GTX 680 (GK104), the GPU used for all paper speedup results.
    pub fn gtx680() -> Self {
        DeviceConfig {
            name: "GTX 680 (GK104, simulated)".to_string(),
            num_smx: 8,
            max_threads_per_block: 1024,
            max_threads_per_smx: 2048,
            max_blocks_per_smx: 16,
            registers_per_smx: 65_536,
            max_registers_per_thread: 63,
            register_alloc_granularity: 256,
            shared_mem_per_smx: 48 * 1024,
            shared_alloc_granularity: 256,
            l1_bytes: 16 * 1024,
            l1_line: 128,
            l1_assoc: 4,
            tex_cache_bytes: 48 * 1024,
            l2_bytes: 512 * 1024,
            l2_assoc: 16,
            l2_latency: 160,
            mem_queue_depth: 4,
            issue_per_cycle: 4,
            alu_latency: 4,
            sfu_latency: 12,
            global_latency: 350,
            dram_bytes_per_cycle: 192, // ~192 GB/s at ~1 GHz
            txn_bytes: 128,
            shared_latency: 24,
            shared_replay_cost: 2,
            l1_hit_latency: 28,
            const_latency: 8,
            const_serialize_cost: 4,
            shfl_latency: 10,
            supports_shfl: true,
            barrier_cost: 8,
            block_launch_cost: 200,
            clock_ghz: 1.006,
            dynpar: DynParConfig::kepler(),
        }
    }

    /// Tesla K20c (GK110), used for the Figure 1 dynamic-parallelism
    /// microbenchmark (compute capability 3.5, 208 GB/s).
    pub fn k20c() -> Self {
        DeviceConfig {
            name: "Tesla K20c (GK110, simulated)".to_string(),
            num_smx: 13,
            max_registers_per_thread: 255,
            dram_bytes_per_cycle: 295, // ~208 GB/s at 0.706 GHz
            clock_ghz: 0.706,
            ..Self::gtx680()
        }
    }

    /// A deliberately tiny device for fast, exhaustive unit tests: 2 SMXs,
    /// short latencies, small caches. Keeps the same mechanisms at a scale
    /// where tests can enumerate behaviour.
    pub fn small_test() -> Self {
        DeviceConfig {
            name: "test device".to_string(),
            num_smx: 2,
            max_threads_per_block: 1024,
            max_threads_per_smx: 512,
            max_blocks_per_smx: 8,
            registers_per_smx: 16_384,
            max_registers_per_thread: 63,
            register_alloc_granularity: 64,
            shared_mem_per_smx: 16 * 1024,
            shared_alloc_granularity: 128,
            l1_bytes: 2 * 1024,
            l1_line: 128,
            l1_assoc: 2,
            tex_cache_bytes: 4 * 1024,
            l2_bytes: 16 * 1024,
            l2_assoc: 4,
            l2_latency: 30,
            mem_queue_depth: 2,
            issue_per_cycle: 2,
            alu_latency: 4,
            sfu_latency: 8,
            global_latency: 100,
            dram_bytes_per_cycle: 64,
            txn_bytes: 128,
            shared_latency: 10,
            shared_replay_cost: 2,
            l1_hit_latency: 10,
            const_latency: 4,
            const_serialize_cost: 2,
            shfl_latency: 4,
            supports_shfl: true,
            barrier_cost: 4,
            block_launch_cost: 20,
            clock_ghz: 1.0,
            dynpar: DynParConfig::kepler(),
        }
    }

    /// A Maxwell-generation device in the mould of a GTX 980 (GM204): more
    /// SMs than GK104 but the same warp-centric execution model, bigger
    /// shared memory and L2, a slightly wider per-thread register budget and
    /// cheaper shuffles. Used by the cross-device matrix to check the paper's
    /// claims off their home architecture. Transaction segment and L1 line
    /// sizes are kept at 128 bytes so traces captured on one registry device
    /// replay (timing-only) on any other.
    pub fn maxwell_like() -> Self {
        DeviceConfig {
            name: "GTX 980 (GM204-like, simulated)".to_string(),
            num_smx: 16,
            max_threads_per_block: 1024,
            max_threads_per_smx: 2048,
            max_blocks_per_smx: 32,
            registers_per_smx: 65_536,
            max_registers_per_thread: 255,
            register_alloc_granularity: 256,
            shared_mem_per_smx: 96 * 1024,
            shared_alloc_granularity: 256,
            l1_bytes: 24 * 1024,
            l1_line: 128,
            l1_assoc: 4,
            tex_cache_bytes: 24 * 1024,
            l2_bytes: 2048 * 1024,
            l2_assoc: 16,
            l2_latency: 194,
            mem_queue_depth: 6,
            issue_per_cycle: 4,
            alu_latency: 6,
            sfu_latency: 14,
            global_latency: 380,
            dram_bytes_per_cycle: 199, // ~224 GB/s at 1.126 GHz
            txn_bytes: 128,
            shared_latency: 22,
            shared_replay_cost: 2,
            l1_hit_latency: 24,
            const_latency: 8,
            const_serialize_cost: 4,
            shfl_latency: 8,
            supports_shfl: true,
            barrier_cost: 8,
            block_launch_cost: 180,
            clock_ghz: 1.126,
            dynpar: DynParConfig::kepler(),
        }
    }

    /// A pre-Kepler style device: identical resources but no `__shfl`
    /// support (compute capability < 3), used to test the sm_version pragma
    /// clause (Section 3.6).
    pub fn no_shfl() -> Self {
        DeviceConfig {
            name: "pre-Kepler (simulated)".to_string(),
            supports_shfl: false,
            ..Self::gtx680()
        }
    }

    /// Convert a cycle count on this device into microseconds.
    pub fn cycles_to_us(&self, cycles: u64) -> f64 {
        cycles as f64 / (self.clock_ghz * 1e3)
    }

    /// Effective bandwidth in GB/s for moving `bytes` in `cycles`.
    pub fn bandwidth_gbps(&self, bytes: u64, cycles: u64) -> f64 {
        if cycles == 0 {
            return 0.0;
        }
        bytes as f64 / (cycles as f64 / self.clock_ghz)
    }

    /// Peak DRAM bandwidth in GB/s implied by the config.
    pub fn peak_bandwidth_gbps(&self) -> f64 {
        self.dram_bytes_per_cycle as f64 * self.clock_ghz
    }
}

impl DynParConfig {
    /// Values calibrated to the paper's K20c measurements.
    pub fn kepler() -> Self {
        DynParConfig {
            enabled_overhead: 142.0 / 63.0,
            launch_overhead_cycles: 14_000,
            launch_parallelism: 32,
            global_handoff_cycles: 900,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gtx680_limits_match_hardware() {
        let d = DeviceConfig::gtx680();
        assert_eq!(d.num_smx, 8);
        assert_eq!(d.max_threads_per_block, 1024);
        assert_eq!(d.max_threads_per_smx, 2048);
        assert_eq!(d.shared_mem_per_smx, 49_152);
        assert_eq!(d.registers_per_smx, 65_536);
        assert!(d.supports_shfl);
    }

    #[test]
    fn k20c_differs_where_it_should() {
        let d = DeviceConfig::k20c();
        assert_eq!(d.num_smx, 13);
        assert_eq!(d.max_registers_per_thread, 255);
        assert!(d.peak_bandwidth_gbps() > 200.0);
    }

    #[test]
    fn cycle_time_conversions_are_consistent() {
        let d = DeviceConfig::gtx680();
        let us = d.cycles_to_us(1_006_000);
        assert!((us - 1000.0).abs() < 1e-6);
        // Moving dram_bytes_per_cycle bytes every cycle must equal peak bw.
        let bw = d.bandwidth_gbps(d.dram_bytes_per_cycle as u64 * 1000, 1000);
        assert!((bw - d.peak_bandwidth_gbps()).abs() < 1e-9);
    }

    #[test]
    fn dynpar_enabled_overhead_matches_paper_ratio() {
        let d = DynParConfig::kepler();
        assert!((d.enabled_overhead - 2.2539682).abs() < 1e-3);
    }
}
