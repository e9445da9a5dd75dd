#!/bin/sh
# Repository CI: build, run the full test suite, then smoke the two
# executable harnesses (microbenchmarks and the observability
# pipeline). Everything here must stay green on every commit.
set -eu
cd "$(dirname "$0")/.."

echo "== dune build =="
dune build

echo "== dune runtest =="
dune runtest

echo "== @bench-smoke (microbenchmark harness + split-kernel and CRC32C gates) =="
dune build @bench-smoke

echo "== micro bench per GF(2^8) kernel backend =="
# --list-kernels prints only the backends usable on this machine, so
# c_simd is skipped automatically where the SIMD stubs are gated off.
for k in $(dune exec bench/main.exe -- --list-kernels); do
  echo "-- FAB_GF_KERNEL=$k --"
  FAB_GF_KERNEL="$k" dune exec bench/main.exe -- micro --smoke
done

echo "== @obs-smoke (pipelined traced workload -> fab_sim explain) =="
dune build @obs-smoke

echo "== @bench-protocol-smoke (pipelining / elision / coalescing) =="
dune build @bench-protocol-smoke

echo "== @parallel-smoke (multicore backend, runtime assertions armed) =="
dune build @parallel-smoke

echo "== @chaos-smoke (fault plans clean, unsafe variant caught) =="
dune build @chaos-smoke

echo "== @chaos-mc-smoke (chaos under real parallelism, assertions armed) =="
dune build @chaos-mc-smoke

echo "== @report-smoke (geometry matrix report, deterministic + valid) =="
dune build @report-smoke

echo "== @vdbench-selftest (same-seed sim output identical, read-back checks fire) =="
dune build @vdbench-selftest

echo "== bench_diff self-test (exit codes 0 / 1 / 2) =="
# Four tiny fixtures: a baseline, a regressed copy (p99 doubled,
# throughput halved), and two incompatible copies (different gf_kernel;
# different CRC32C checksum kernel). bench_diff must pass the identical
# pair, fail the regressed pair, and refuse each incompatible pair —
# each with its documented exit code, since scripts/ci-style wiring
# keys off exactly those.
BD="$(pwd)/_build/default/scripts/bench_diff.exe"
dune build scripts/bench_diff.exe
T="$(mktemp -d)"
trap 'rm -rf "$T"' EXIT
cat > "$T/base.json" <<'EOF'
{"meta": {"date": "2026-01-01T00:00:00Z", "gf_kernel": "table", "simd_level": 0, "crc32c": "sse4.2", "seed": 1},
 "cells": [{"name": "rep-2/web", "latency": {"p50": 2.0, "p99": 6.0}, "throughput": 0.5, "slo": [{"name": "read p99 < 6", "compliant": true}]}]}
EOF
sed -e 's/"p99": 6.0/"p99": 12.0/' -e 's/"throughput": 0.5/"throughput": 0.2/' \
    -e 's/"compliant": true/"compliant": false/' "$T/base.json" > "$T/worse.json"
sed -e 's/"gf_kernel": "table"/"gf_kernel": "ref"/' "$T/base.json" > "$T/alien.json"
sed -e 's/"crc32c": "sse4.2"/"crc32c": "portable"/' "$T/base.json" > "$T/alien_crc.json"
"$BD" "$T/base.json" "$T/base.json" --exact
rc=0; "$BD" "$T/base.json" "$T/worse.json" --threshold 10 || rc=$?
[ "$rc" -eq 1 ] || { echo "bench_diff: expected exit 1 on regression, got $rc"; exit 1; }
rc=0; "$BD" "$T/base.json" "$T/alien.json" >/dev/null 2>&1 || rc=$?
[ "$rc" -eq 2 ] || { echo "bench_diff: expected exit 2 on meta mismatch, got $rc"; exit 1; }
rc=0; "$BD" "$T/base.json" "$T/alien_crc.json" >/dev/null 2>&1 || rc=$?
[ "$rc" -eq 2 ] || { echo "bench_diff: expected exit 2 on crc32c mismatch, got $rc"; exit 1; }
rc=0; "$BD" "$T/base.json" "$T/worse.json" --threshold 10 --rule p99:-1 --rule throughput:-1 --rule compliant:-1 >/dev/null || rc=$?
[ "$rc" -eq 0 ] || { echo "bench_diff: expected exit 0 with rules disabled, got $rc"; exit 1; }
echo "bench_diff self-test OK"

echo "== parallel contention gate (smoke run vs committed baseline) =="
# A debug-armed smoke run of the parallel section, diffed against the
# committed baseline. Wall-clock rates on a shared 1-core CI host are
# noisy, so the gate is deliberately generous (fail only when a rate
# drops by more than 75%) and skips the noisiest fields entirely:
# latency percentiles, speedup ratios, and the 2-domain mailbox cell
# (dominated by scheduler luck when domains exceed hardware cores).
# Per-op minor allocation is deterministic, so it gets a tight 25%.
FAB_RUNTIME_DEBUG=1 dune exec bench/main.exe -- parallel --smoke --json
"$BD" bench/baseline_parallel_smoke.json BENCH_parallel.smoke.json \
  --threshold 75 \
  --rule gc_minor_words_per_op:25 \
  --rule p50_ms:-1 --rule p99_ms:-1 --rule elapsed_s:-1 \
  --rule speedup:-1 \
  --rule micro_mailbox_d2:-1

echo "== chaos recovery-latency gate (smoke run vs committed baseline) =="
# Writes BENCH_chaos.smoke.json (never the committed BENCH_chaos.json
# baseline). The sim cells are deterministic (seeded engine, unit
# delays) and get the default threshold; the mc cells' time-to-recover
# percentiles are wall-clock on a shared host and are excluded from
# the gate (@chaos-mc-smoke already gates mc correctness). The
# faults-actually-bite property is not a bench_diff concern — it is
# pinned deterministically by the Faultnet-counter tests in
# test_chaos and by the sim cells' exact availability/ttr values.
dune exec bench/main.exe -- chaos --smoke --json
"$BD" bench/baseline_chaos_smoke.json BENCH_chaos.smoke.json \
  --rule mc_crash.ttr:-1 --rule mc_partition.ttr:-1

echo "CI OK"
