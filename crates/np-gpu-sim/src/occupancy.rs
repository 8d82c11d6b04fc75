//! Occupancy calculation: how many thread blocks of a kernel fit on one SMX.
//!
//! This is the mechanism behind most of the paper's speedups: baseline
//! kernels with heavy per-thread register / per-block shared-memory usage run
//! few concurrent threads per SMX, exposing memory latency; CUDA-NP raises
//! thread-level parallelism without a proportional resource increase.

use crate::config::{DeviceConfig, WARP_SIZE};

/// Static resource demand of one kernel launch configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelResources {
    /// Threads per block.
    pub block_size: u32,
    /// 32-bit registers per thread.
    pub regs_per_thread: u32,
    /// Shared-memory bytes per block.
    pub shared_per_block: u32,
    /// Local-memory bytes per thread (spills / local arrays). Local memory
    /// does not limit occupancy on real hardware (it lives in device memory)
    /// but it does determine L1 pressure, so we carry it here.
    pub local_per_thread: u32,
}

/// Which resource capped the number of resident blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Limiter {
    /// The per-SMX block-slot limit.
    BlockSlots,
    /// The per-SMX thread limit.
    Threads,
    /// The register file.
    Registers,
    /// Shared-memory capacity.
    SharedMem,
}

/// Result of the occupancy calculation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Occupancy {
    pub blocks_per_smx: u32,
    pub warps_per_smx: u32,
    pub threads_per_smx: u32,
    /// threads_per_smx / device max, in [0, 1].
    pub fraction: f64,
    pub limiter: Limiter,
}

/// Reasons a kernel cannot launch at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OccupancyError {
    /// Block size exceeds the hardware maximum.
    BlockTooLarge { block_size: u32, max: u32 },
    /// Zero-thread blocks are not a thing.
    EmptyBlock,
    /// Per-thread register demand exceeds the hardware cap.
    TooManyRegisters { regs: u32, max: u32 },
    /// A single block's shared memory exceeds the SMX capacity.
    SharedMemTooLarge { bytes: u32, max: u32 },
    /// One block alone over-subscribes an SMX-wide resource (e.g. a
    /// 1024-thread block whose per-warp register allocation exceeds the
    /// whole register file): zero blocks can ever become resident, so the
    /// launch must fail instead of silently simulating nothing.
    ZeroResidency { limiter: Limiter },
}

impl std::fmt::Display for OccupancyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OccupancyError::BlockTooLarge { block_size, max } => {
                write!(f, "block size {block_size} exceeds device maximum {max}")
            }
            OccupancyError::EmptyBlock => write!(f, "block size must be non-zero"),
            OccupancyError::TooManyRegisters { regs, max } => {
                write!(f, "{regs} registers/thread exceeds device maximum {max}")
            }
            OccupancyError::SharedMemTooLarge { bytes, max } => {
                write!(f, "{bytes} B shared memory/block exceeds SMX capacity {max}")
            }
            OccupancyError::ZeroResidency { limiter } => {
                write!(f, "a single block over-subscribes the SMX ({limiter:?}-limited): zero resident blocks")
            }
        }
    }
}

impl std::error::Error for OccupancyError {}

fn round_up(v: u32, granularity: u32) -> u32 {
    if granularity == 0 {
        return v;
    }
    v.div_ceil(granularity) * granularity
}

/// Compute the occupancy of a kernel on `dev`, following the same rules as
/// the CUDA occupancy calculator: registers are allocated per warp at a
/// fixed granularity, shared memory per block at a fixed granularity, and
/// the resident-block count is the minimum over all four limiters.
pub fn occupancy(dev: &DeviceConfig, res: &KernelResources) -> Result<Occupancy, OccupancyError> {
    if res.block_size == 0 {
        return Err(OccupancyError::EmptyBlock);
    }
    if res.block_size > dev.max_threads_per_block {
        return Err(OccupancyError::BlockTooLarge {
            block_size: res.block_size,
            max: dev.max_threads_per_block,
        });
    }
    if res.regs_per_thread > dev.max_registers_per_thread {
        return Err(OccupancyError::TooManyRegisters {
            regs: res.regs_per_thread,
            max: dev.max_registers_per_thread,
        });
    }
    let shared = round_up(res.shared_per_block, dev.shared_alloc_granularity);
    if shared > dev.shared_mem_per_smx {
        return Err(OccupancyError::SharedMemTooLarge {
            bytes: res.shared_per_block,
            max: dev.shared_mem_per_smx,
        });
    }

    let warps_per_block = res.block_size.div_ceil(WARP_SIZE);
    // Registers are allocated per warp: block cost in registers.
    let regs_per_warp =
        round_up(res.regs_per_thread.max(1) * WARP_SIZE, dev.register_alloc_granularity);
    let regs_per_block = regs_per_warp * warps_per_block;

    let by_slots = dev.max_blocks_per_smx;
    let by_threads = dev.max_threads_per_smx / res.block_size;
    let by_regs = dev.registers_per_smx / regs_per_block;
    let by_shared = dev.shared_mem_per_smx.checked_div(shared).unwrap_or(u32::MAX);

    let mut blocks = by_slots;
    let mut limiter = Limiter::BlockSlots;
    for (b, l) in [
        (by_threads, Limiter::Threads),
        (by_regs, Limiter::Registers),
        (by_shared, Limiter::SharedMem),
    ] {
        if b < blocks {
            blocks = b;
            limiter = l;
        }
    }

    if blocks == 0 {
        // A residency of zero is not "low occupancy" — the block can never
        // be scheduled at all. Callers must see a launch failure, not a
        // zero-cycle simulation of an empty SMX.
        return Err(OccupancyError::ZeroResidency { limiter });
    }

    let threads = blocks * res.block_size;
    Ok(Occupancy {
        blocks_per_smx: blocks,
        warps_per_smx: blocks * warps_per_block,
        threads_per_smx: threads,
        fraction: threads as f64 / dev.max_threads_per_smx as f64,
        limiter,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn res(block: u32, regs: u32, shared: u32) -> KernelResources {
        KernelResources {
            block_size: block,
            regs_per_thread: regs,
            shared_per_block: shared,
            local_per_thread: 0,
        }
    }

    #[test]
    fn slot_limited_small_blocks() {
        // The paper's lud_perimeter example: 32-thread blocks, 3 kB shared.
        // 16 blocks fit per SMX (slot limited), exactly as Section 3 states.
        let dev = DeviceConfig::gtx680();
        let o = occupancy(&dev, &res(32, 11, 3 * 1024)).unwrap();
        assert_eq!(o.blocks_per_smx, 16);
        assert_eq!(o.limiter, Limiter::BlockSlots);
        assert_eq!(o.threads_per_smx, 512);
    }

    #[test]
    fn thread_limited_large_blocks() {
        let dev = DeviceConfig::gtx680();
        let o = occupancy(&dev, &res(1024, 16, 0)).unwrap();
        assert_eq!(o.blocks_per_smx, 2);
        assert_eq!(o.limiter, Limiter::Threads);
        assert!((o.fraction - 1.0).abs() < 1e-12);
    }

    #[test]
    fn register_limited() {
        let dev = DeviceConfig::gtx680();
        // 63 regs/thread, 256-thread blocks: 63*32 -> 2048/warp rounded,
        // 8 warps/block -> 16384 regs/block -> 4 blocks.
        let o = occupancy(&dev, &res(256, 63, 0)).unwrap();
        assert_eq!(o.limiter, Limiter::Registers);
        assert_eq!(o.blocks_per_smx, 4);
    }

    #[test]
    fn shared_limited() {
        let dev = DeviceConfig::gtx680();
        let o = occupancy(&dev, &res(256, 16, 24 * 1024)).unwrap();
        assert_eq!(o.blocks_per_smx, 2);
        assert_eq!(o.limiter, Limiter::SharedMem);
    }

    #[test]
    fn errors_reported() {
        let dev = DeviceConfig::gtx680();
        assert!(matches!(
            occupancy(&dev, &res(2048, 16, 0)),
            Err(OccupancyError::BlockTooLarge { .. })
        ));
        assert!(matches!(occupancy(&dev, &res(0, 16, 0)), Err(OccupancyError::EmptyBlock)));
        assert!(matches!(
            occupancy(&dev, &res(32, 200, 0)),
            Err(OccupancyError::TooManyRegisters { .. })
        ));
        assert!(matches!(
            occupancy(&dev, &res(32, 16, 64 * 1024)),
            Err(OccupancyError::SharedMemTooLarge { .. })
        ));
    }

    #[test]
    fn more_shared_memory_never_raises_occupancy() {
        let dev = DeviceConfig::gtx680();
        let mut prev = u32::MAX;
        for kb in [0u32, 1, 2, 4, 8, 16, 24, 48] {
            let o = occupancy(&dev, &res(128, 20, kb * 1024)).unwrap();
            assert!(o.blocks_per_smx <= prev);
            prev = o.blocks_per_smx;
        }
    }

    #[test]
    fn zero_residency_is_a_typed_error_not_a_zero_cycle_run() {
        // 1024 threads × 128 regs/thread = 131072 regs/block on a 65536-reg
        // SMX: no block can ever become resident. This used to return
        // Ok { blocks_per_smx: 0 }, which the engine "ran" in zero cycles —
        // the tuner then crowned an infinite-speedup winner (CFD s=8 on
        // k20c/maxwell). It must be a launch-time error.
        let dev = DeviceConfig::k20c();
        match occupancy(&dev, &res(1024, 128, 0)) {
            Err(OccupancyError::ZeroResidency { limiter }) => {
                assert_eq!(limiter, Limiter::Registers)
            }
            other => panic!("expected ZeroResidency, got {other:?}"),
        }
    }

    #[test]
    fn zero_register_kernels_still_charge_a_warp() {
        let dev = DeviceConfig::gtx680();
        // Even regs=0 must not divide by zero / report infinite blocks.
        let o = occupancy(&dev, &res(32, 0, 0)).unwrap();
        assert!(o.blocks_per_smx <= dev.max_blocks_per_smx);
    }
}
