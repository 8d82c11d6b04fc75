//! Property-based determinism tests for parallel per-block interpretation:
//! over random grid sizes and worker-pool sizes, a launch run with the
//! parallel interpreter must be byte-identical to the forced-sequential
//! run — output buffer bits, cycle counts, golden profile counters, and
//! race reports. Three kernel families stress the three interesting paths:
//!
//! 1. barrier-communication kernels (shared memory, no cross-block
//!    traffic) — the common fast path;
//! 2. a read-modify-write kernel whose global array is both loaded and
//!    stored (each block stays in its own slice) — exercises the
//!    copy-on-write overlay in the logged-memory journal;
//! 3. a cross-block-RAW kernel where every later block reads a slot that
//!    block 0 writes — the merge must detect the dependency and fall back
//!    to sequential re-execution with identical results;
//! 4. a racy shared-tile kernel under small finding caps — the merge must
//!    rebase each block's pcs and cut the cap across blocks exactly where
//!    one sequential recorder would have.
//!
//! A CUDA-NP transformed kernel rides along so the sweep covers the
//! master/slave remapping the paper is about, not just hand-written IR.

use cuda_np::{gating_policy, transform, tuner::alloc_extra_buffers, NpOptions};
use np_exec::{launch, Args, KernelReport, RaceCheckMode, SimOptions};
use np_gpu_sim::racecheck::{GatingPolicy, RaceCheckOptions};
use np_gpu_sim::DeviceConfig;
use np_kernel_ir::expr::dsl::*;
use np_kernel_ir::types::Dim3;
use np_kernel_ir::{Kernel, KernelBuilder, Scalar};
use proptest::prelude::*;

fn dev() -> DeviceConfig {
    DeviceConfig::gtx680()
}

fn armed(threads: Option<usize>, race: RaceCheckOptions) -> SimOptions {
    SimOptions::full()
        .with_race_check(RaceCheckMode::Record)
        .with_race_options(race)
        .with_interp_threads(threads)
}

/// The checker options for a launch gated by `policy`, uncapped.
fn gated(policy: Option<GatingPolicy>) -> RaceCheckOptions {
    RaceCheckOptions { max_findings: None, policy }
}

/// Launch and return (report, output bits) — bits, not floats, because the
/// contract is byte identity, not numeric closeness.
fn run_bits(
    kernel: &Kernel,
    grid: u32,
    mut args: Args,
    sim: &SimOptions,
    out: &str,
) -> (KernelReport, Vec<u32>) {
    let rep = launch(&dev(), kernel, Dim3::x1(grid), &mut args, sim)
        .expect("record mode never faults on races");
    let bits = args.get_f32(out).unwrap().iter().map(|x| x.to_bits()).collect();
    (rep, bits)
}

/// The actual property: serial (1 worker) and parallel (`pool` workers)
/// interpretation of the same launch agree on every observable byte.
fn assert_deterministic(
    kernel: &Kernel,
    grid: u32,
    make_args: &dyn Fn() -> Args,
    pool: usize,
    race: RaceCheckOptions,
    out: &str,
    ctx: &str,
) -> KernelReport {
    let (serial, serial_bits) =
        run_bits(kernel, grid, make_args(), &armed(Some(1), race.clone()), out);
    let (parallel, parallel_bits) =
        run_bits(kernel, grid, make_args(), &armed(Some(pool), race), out);
    assert_eq!(serial_bits, parallel_bits, "{ctx}: output bits differ");
    assert_eq!(serial.cycles, parallel.cycles, "{ctx}: cycles differ");
    assert_eq!(
        serial.profile.to_json(),
        parallel.profile.to_json(),
        "{ctx}: profile counters differ"
    );
    assert_eq!(serial.race.to_json(), parallel.race.to_json(), "{ctx}: race reports differ");
    assert_eq!(
        serial.race.narrative(),
        parallel.race.narrative(),
        "{ctx}: race narratives differ"
    );
    assert_eq!(
        serial.chrome_trace(),
        parallel.chrome_trace(),
        "{ctx}: chrome traces differ"
    );
    serial
}

/// Barrier communication through a shared tile: `rounds` write/sync/read
/// rounds, then each thread stores its accumulator to a private `out` slot.
fn comm_kernel(warps: u32, rounds: u32, offset: u32) -> Kernel {
    let n = warps * 32;
    let mut b = KernelBuilder::new("pcomm", n);
    b.param_global_f32("src");
    b.param_global_f32("out");
    b.shared_array("tile", Scalar::F32, n);
    b.decl_f32("acc", f(0.0));
    for r in 0..rounds {
        b.store("tile", tidx(), load("src", tidx() + i(r as i32)) + v("acc"));
        b.sync();
        b.assign(
            "acc",
            v("acc") + load("tile", (tidx() + i(offset as i32)) % i(n as i32)),
        );
        if r + 1 < rounds {
            b.sync();
        }
    }
    b.store("out", tidx() + bidx() * bdimx(), v("acc"));
    b.finish()
}

fn comm_args(warps: u32, grid: u32) -> Args {
    let n = (warps * 32) as usize;
    Args::new()
        .buf_f32("src", (0..n + 8).map(|i| ((i * 31 % 67) as f32 - 33.0) / 16.0).collect())
        .buf_f32("out", vec![0.0; n * grid as usize])
}

/// Read-modify-write on a global array: `data` is both loaded and stored,
/// but every block only touches its own slice, so the parallel path must
/// run all blocks through copy-on-write overlays and still merge cleanly.
fn rmw_kernel(block: u32) -> Kernel {
    let mut b = KernelBuilder::new("rmw", block);
    b.param_global_f32("data");
    b.decl_i32("gid", tidx() + bidx() * bdimx());
    b.decl_f32("x", load("data", v("gid")));
    b.store("data", v("gid"), v("x") * f(2.0) + f(1.0));
    b.finish()
}

/// A shared-tile exchange with its barrier dropped: every thread writes
/// `tile[tid]`, then the first `readers` threads read another thread's slot
/// with no barrier between. Each block files `readers` read-write races,
/// so small finding caps run out anywhere in the launch, block boundaries
/// included.
fn racy_tile_kernel(warps: u32, readers: u32, offset: u32) -> Kernel {
    let n = warps * 32;
    let mut b = KernelBuilder::new("racytile", n);
    b.param_global_f32("src");
    b.param_global_f32("out");
    b.shared_array("tile", Scalar::F32, n);
    b.store("tile", tidx(), load("src", tidx()));
    b.decl_f32("acc", f(0.0));
    b.if_(lt(tidx(), i(readers as i32)), |b| {
        b.assign("acc", load("tile", (tidx() + i(offset as i32)) % i(n as i32)));
    });
    b.store("out", tidx() + bidx() * bdimx(), v("acc"));
    b.finish()
}

/// Cross-block read-after-write: every block writes its own slot of `out`,
/// but blocks other than 0 first read `out[0]` — which block 0 writes. The
/// merge's RAW check must detect the intersection and fall back to
/// sequential execution, where block b really does observe block 0's store
/// (grid-sequential interpreter semantics), byte-identically to a forced
/// serial run.
fn raw_kernel(block: u32) -> Kernel {
    let mut b = KernelBuilder::new("crossraw", block);
    b.param_global_f32("out");
    b.decl_i32("gid", tidx() + bidx() * bdimx());
    b.decl_f32("seed", load("out", i(0)));
    b.store("out", v("gid"), v("seed") + cast(Scalar::F32, v("gid")) * f(0.5));
    b.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Shared-memory barrier kernels over random shapes: parallel blocks,
    /// no cross-block traffic — the common path.
    #[test]
    fn comm_kernels_are_pool_size_invariant(
        warps in 1u32..=3,
        rounds in 1u32..=3,
        offset in 1u32..=31,
        grid in 2u32..=9,
        pool in 2usize..=8,
    ) {
        let k = comm_kernel(warps, rounds, offset % (warps * 32 - 1) + 1);
        assert_deterministic(
            &k,
            grid,
            &|| comm_args(warps, grid),
            pool,
            gated(None),
            "out",
            &format!("comm warps={warps} rounds={rounds} grid={grid} pool={pool}"),
        );
    }

    /// A global array that is both loaded and stored (block-disjoint
    /// slices) exercises the copy-on-write overlay without triggering the
    /// sequential fallback.
    #[test]
    fn rmw_kernels_are_pool_size_invariant(
        warps in 1u32..=2,
        grid in 2u32..=9,
        pool in 2usize..=8,
    ) {
        let block = warps * 32;
        let k = rmw_kernel(block);
        let n = (block * grid) as usize;
        assert_deterministic(
            &k,
            grid,
            &|| Args::new().buf_f32("data", (0..n).map(|i| (i % 23) as f32 - 11.0).collect()),
            pool,
            gated(None),
            "data",
            &format!("rmw block={block} grid={grid} pool={pool}"),
        );
    }

    /// Genuine cross-block read-after-write forces the merge down the
    /// sequential-fallback path; results must still match a forced-serial
    /// run byte for byte.
    #[test]
    fn cross_block_raw_falls_back_deterministically(
        grid in 2u32..=9,
        pool in 2usize..=8,
        seed in -8i32..=8,
    ) {
        let k = raw_kernel(32);
        let n = (32 * grid) as usize;
        let make = || {
            let mut v = vec![0.0f32; n];
            v[0] = seed as f32 * 0.25;
            Args::new().buf_f32("out", v)
        };
        assert_deterministic(
            &k,
            grid,
            &make,
            pool,
            gated(None),
            "out",
            &format!("crossraw grid={grid} pool={pool} seed={seed}"),
        );
    }

    /// The transformed master/slave kernel (TMV, inter- and intra-warp)
    /// under random grids and pools: the paper's own workload shape stays
    /// deterministic through the parallel interpreter.
    #[test]
    fn transformed_tmv_is_pool_size_invariant(
        grid in 1u32..=6,
        pool in 2usize..=8,
        slave_pow in 1u32..=3,
        inter in any::<bool>(),
    ) {
        let s = 1u32 << slave_pow; // 2, 4, 8
        let mut b = KernelBuilder::new("tmv", 32);
        b.param_global_f32("a");
        b.param_global_f32("b");
        b.param_global_f32("out");
        b.param_scalar_i32("w");
        b.param_scalar_i32("h");
        b.decl_f32("sum", f(0.0));
        b.decl_i32("tx", tidx() + bidx() * bdimx());
        b.pragma_for("np parallel for reduction(+:sum)", "i", i(0), p("h"), |b| {
            b.assign("sum", v("sum") + load("a", v("i") * p("w") + v("tx")) * load("b", v("i")));
        });
        b.store("out", v("tx"), v("sum"));
        let k = b.finish();

        let opts = if inter { NpOptions::inter(s) } else { NpOptions::intra(s) };
        let t = transform(&k, &opts).expect("tmv accepts all swept configs");
        let w = (32 * grid) as usize;
        let h = 24usize;
        let make = || {
            let a: Vec<f32> = (0..w * h).map(|i| ((i * 37 % 101) as f32 - 50.0) / 25.0).collect();
            let bv: Vec<f32> = (0..h).map(|i| ((i * 13 % 53) as f32 - 26.0) / 13.0).collect();
            let args = Args::new()
                .buf_f32("a", a)
                .buf_f32("b", bv)
                .buf_f32("out", vec![0.0; w])
                .i32("w", w as i32)
                .i32("h", h as i32);
            alloc_extra_buffers(args, &t, Dim3::x1(grid))
        };
        assert_deterministic(
            &t.kernel,
            grid,
            &make,
            pool,
            gated(gating_policy(&t)),
            "out",
            &format!("tmv {:?} slave_size={s} grid={grid} pool={pool}", opts.np_type),
        );
    }

    /// Racy launches through the parallel merge: findings from several
    /// blocks under caps of 1 to 8, so the merge must rebase every block's
    /// pcs and may run out of room at any finding, at a block boundary or
    /// inside a block. Serial and parallel reports stay byte-identical.
    #[test]
    fn racy_kernels_merge_findings_like_one_recorder(
        warps in 1u32..=2,
        readers in 1u32..=3,
        offset in 1u32..=31,
        grid in 2u32..=9,
        pool in 2usize..=8,
        cap in 1usize..=8,
    ) {
        let k = racy_tile_kernel(warps, readers, offset);
        let race = RaceCheckOptions { max_findings: Some(cap), policy: None };
        let rep = assert_deterministic(
            &k,
            grid,
            &|| comm_args(warps, grid),
            pool,
            race,
            "out",
            &format!("racytile warps={warps} readers={readers} grid={grid} pool={pool} cap={cap}"),
        );
        prop_assert_eq!(rep.race.findings.len(), cap.min((readers * grid) as usize));
        prop_assert_eq!(rep.race.truncated, (readers * grid) as usize > cap);
    }
}
