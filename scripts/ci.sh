#!/usr/bin/env bash
# The CI gate, one named section per CI job:
#
#   ./scripts/ci.sh            run every section, in order
#   ./scripts/ci.sh SECTION    run one section; .github/workflows/ci.yml
#                              runs each job this way
#
# Every section builds what it needs, so each one also passes on its own.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# The smoke kernel the npcc checks below compile: TMV with one
# `#pragma np` reduction loop.
smoke_kernel() {
  cat > "$tmp/tmv.cu" <<'CU'
__global__ void tmv(const float* a, const float* x, float* out, int n) {
    int row = blockIdx.x * blockDim.x + threadIdx.x;
    float sum = 0.0f;
    #pragma np parallel for reduction(+:sum)
    for (int j = 0; j < n; j++) {
        sum += a[j * n + row] * x[j];
    }
    out[row] = sum;
}
CU
}

build_npcc() {
  cargo build --release -q -p cuda-np --bin npcc
}

# Release build, workspace tests, and lint-clean clippy.
core() {
  cargo build --release --workspace
  cargo test -q --workspace
  cargo clippy --workspace --all-targets -- -D warnings
}

# Profiler regression gates: golden counters must match the checked-in
# snapshots byte-for-byte, the interpreter's capture and output digests
# must match theirs on gtx680, k20c and maxwell, and every workload must
# stay equivalent to its scalar reference across the slave-size x np-type
# sweep.
golden-check() {
  cargo test --release -q --test golden_counters
  cargo test --release -q -p cuda-np --test interp_digests
  cargo test --release -q -p cuda-np --test equivalence
}

# Trace-replay gate: capture/replay must be byte-identical to direct
# launches for every workload x transform config, the tuner must interpret
# each candidate exactly once, the np-trace-v1 codec must round-trip and
# reject corruption with typed errors, the checked-in golden trace
# artifacts must match byte-for-byte, and `npcc --replay` of an emitted
# trace must print the same report twice.
trace-replay() {
  cargo test --release -q -p np-gpu-sim --test golden_traces
  cargo test --release -q -p np-gpu-sim --test trace_codec_properties
  cargo test --release -q -p cuda-np --test replay_equivalence
  build_npcc
  smoke_kernel
  ./target/release/npcc --np-type inter --slave-size 4 \
    --emit-trace "$tmp/smoke.nptrace" "$tmp/tmv.cu" > /dev/null
  ./target/release/npcc --replay "$tmp/smoke.nptrace" > "$tmp/replay1.json"
  ./target/release/npcc --replay "$tmp/smoke.nptrace" > "$tmp/replay2.json"
  cmp "$tmp/replay1.json" "$tmp/replay2.json" \
    || { echo "npcc --replay is not deterministic" >&2; exit 1; }
}

# Race-freedom gate, the checker end to end: the recorder's unit tests,
# the property suite (including the recorder against its reference model),
# serial and parallel race reports byte-identical through the per-block
# merge, every paper workload's transformed kernel passing the
# happens-before checker at slave sizes {2,4,8} (and its dropped-barrier /
# un-gated-broadcast mutants failing it), both through the test suites and
# through the npcc --check-races CLI exit codes; then the sanitizer tour,
# whose race case must fault under the fatal checker.
racecheck() {
  cargo test --release -q -p np-gpu-sim --lib racecheck
  cargo test --release -q --test racecheck_properties
  cargo test --release -q -p cuda-np --test parallel_determinism
  cargo test --release -q -p cuda-np --test conformance
  cargo test --release -q -p cuda-np --test npcc_cli
  cargo run --release -q --example fault_demo
}

# Bench-trajectory gate: regenerate the machine-readable perf record twice
# (it must be byte-identical — the simulator is deterministic), then diff it
# against the committed gtx680 baseline with a ±2% cycle tolerance.
bench-trajectory() {
  cargo run --release -q -p np-harness -- --test-scale --json BENCH_results.json
  cp BENCH_results.json "$tmp/BENCH_results.rerun.json"
  cargo run --release -q -p np-harness -- --test-scale --json BENCH_results.json \
    --check-bench BENCH_baseline.gtx680.json --tolerance 0.02
  cmp BENCH_results.json "$tmp/BENCH_results.rerun.json" \
    || { echo "BENCH_results.json is not deterministic" >&2; exit 1; }
}

# Parallel-interpretation determinism: per-block worker pools must not
# change a single output byte.
perf-smoke() {
  cargo test --release -q -p cuda-np --test parallel_determinism
  cargo test --release -q -p cuda-np --test equivalence \
    serial_and_parallel_interpretation_are_byte_identical
}

# Serve robustness gate: the suites cover shedding, deadlines, quarantine,
# and corruption recovery in-process; here the real `npcc serve` binary
# takes a 30-second seeded chaos soak — delays, worker panics, forced sim
# faults, cache corruption, and more clients than queue slots so overload
# shedding fires. The soak's own gate enforces exactly-once delivery,
# byte-identical ok payloads, and zero escaped worker panics (exit nonzero
# otherwise). The chaos harness corrupts the capture-artifact cache too,
# so the report must carry the trace-cache counters. Then the SIGTERM
# drain check: deliver a request over a held-open pipe, signal, and
# require a clean flush-and-exit.
serve-soak() {
  cargo test --release -q -p cuda-np --test serve --test serve_cache_properties
  build_npcc
  ./target/release/npcc serve --soak 30 --chaos 42 --workers 2 --queue 4 \
    --clients 8 --bench-out BENCH_serve.json
  grep -q '"schema":"np-serve-bench-v1"' BENCH_serve.json \
    || { echo "BENCH_serve.json missing or malformed" >&2; exit 1; }
  grep -q '"trace_replays"' BENCH_serve.json \
    || { echo "BENCH_serve.json missing trace-cache counters" >&2; exit 1; }
  ./scripts/serve_drain_check.sh
}

# Device-matrix gate: descriptor validation/round-trip properties, the
# cross-device invariance contract (functional outputs and race reports
# byte-identical across the registry; cycles must differ) with per-device
# golden metric snapshots, then the sharded sweep matrix: each device's
# trajectory gated against its own committed BENCH_baseline.<device>.json
# (the harness expands the BASE.json template), with a rerun cmp proving
# the matrix output is byte-deterministic and equal to the serial sweep.
device-matrix() {
  cargo test --release -q -p np-gpu-sim --test device_descriptor_properties
  cargo test --release -q -p cuda-np --test device_invariance
  local devices=gtx680,k20c,maxwell
  cargo run --release -q -p np-harness -- --test-scale --devices "$devices" \
    --json BENCH_results.json --check-bench BENCH_baseline.json --tolerance 0.02
  for d in ${devices//,/ }; do
    cp "BENCH_results.$d.json" "$tmp/BENCH_results.$d.rerun.json"
  done
  cargo run --release -q -p np-harness -- --test-scale --devices "$devices" \
    --json BENCH_results.json
  for d in ${devices//,/ }; do
    cmp "BENCH_results.$d.json" "$tmp/BENCH_results.$d.rerun.json" \
      || { echo "BENCH_results.$d.json is not deterministic" >&2; exit 1; }
  done
  cargo run --release -q -p np-harness -- --test-scale --json "$tmp/serial.json"
  cmp BENCH_results.gtx680.json "$tmp/serial.json" \
    || { echo "matrix gtx680 trajectory diverges from the serial sweep" >&2; exit 1; }
  build_npcc
  ./target/release/npcc --list-devices
}

# Observability gate: stripped np-obs logs and registry snapshots must be
# byte-identical across reruns (two workloads, including the tuner's
# thread pool), the obs property suite must pass, and a chaos soak with
# `--log` must keep correlation ids unique and on every request event.
obs-determinism() {
  cargo test --release -q -p np-obs
  cargo test --release -q -p cuda-np --test obs_determinism
  build_npcc
  ./scripts/obs_determinism_check.sh
}

# Tuner-policy gate: the cost model's pruned and predict policies must be
# *never slower* than the exhaustive sweep — bit-identical winner cycles
# across all ten workloads x the device registry, the exhaustive winner
# always inside the evaluated set, strictly fewer evaluations on at least
# half the workloads, and the measured winner inside the model's static
# top-2 on >=80% of workload x device cells. Then the CLI surface: a
# pruned or predict --explain must report the same winner as an
# exhaustive one.
tuner-policy() {
  cargo test --release -q -p cuda-np --lib costmodel
  cargo test --release -q -p np-harness --test tuner_policy
  build_npcc
  smoke_kernel
  for policy in exhaustive pruned predict; do
    ./target/release/npcc --explain --tune-policy "$policy" "$tmp/tmv.cu" \
      > /dev/null 2> "$tmp/tp_$policy.txt"
  done
  for policy in pruned predict; do
    cmp <(grep '^npcc: winner' "$tmp/tp_exhaustive.txt") \
      <(grep '^npcc: winner' "$tmp/tp_$policy.txt") \
      || { echo "--tune-policy $policy picked a different winner" >&2; exit 1; }
  done
}

# Benchmark-of-record build: perfbench/ is a package with a workspace of
# its own that builds against ../crates by path, so a crate change can
# break it while the repository workspace stays green. `--locked` keeps
# its committed Cargo.lock authoritative; the smoke tests run every
# workload but tune-paper once.
perfbench() {
  cargo build --release --offline --locked --manifest-path perfbench/Cargo.toml
  cargo test --offline --locked --manifest-path perfbench/Cargo.toml
}

# Work-unit gate: perfbench's deterministic per-pass work units (warp
# instructions, simulated cycles and blocks, capture bytes, tuner candidates
# and transforms) must equal BENCH_workunits.txt exactly on sweep-test,
# tune-paper and replay-matrix, so an interpretation, replay or candidate
# gained or lost fails here rather than passing as a speed change.
perf-units() {
  cargo build --release --offline --locked --manifest-path perfbench/Cargo.toml
  local failed=0 workload metric want got
  for workload in $(awk '!/^#/ && NF { print $1 }' BENCH_workunits.txt | uniq); do
    perfbench/target/release/np-perfbench --workload "$workload" --seed 1 --seconds 1 \
      --trace 1 > "$tmp/$workload.txt"
    while read -r _ metric want; do
      got=$(awk -v m="$metric" '$1 == m { printf "%.0f", $2 }' "$tmp/$workload.txt")
      if [ "$got" != "$want" ]; then
        echo "$workload $metric: $got per pass, BENCH_workunits.txt says $want" >&2
        failed=1
      fi
    done < <(awk -v w="$workload" '$1 == w' BENCH_workunits.txt)
  done
  [ "$failed" = 0 ] || { echo "work units differ from BENCH_workunits.txt" >&2; exit 1; }
}

sections=(core golden-check trace-replay racecheck bench-trajectory perf-smoke
  serve-soak device-matrix obs-determinism tuner-policy perfbench perf-units)
if [ $# -eq 0 ]; then
  for section in "${sections[@]}"; do
    "$section"
  done
elif [[ " ${sections[*]} " == *" $1 "* ]]; then
  "$1"
else
  echo "unknown section '$1' (sections: ${sections[*]})" >&2
  exit 2
fi
