#!/usr/bin/env bash
# Reproducible microbenchmark run: builds the google-benchmark targets and
# writes machine-readable snapshots at the repo root so successive PRs have
# a perf trajectory to compare against.
#
#   tools/run_bench.sh [build-dir]
#
# Outputs:
#   BENCH_primitives.json   — bench_primitives_native (EC/field/hash/AES ops
#                             + kernel-tier rows: BM_MontMulModN[Portable]
#                             for the mod-n ADX path and
#                             BM_Mont8FieldMul[Portable] for the AVX-512
#                             IFMA 8-way lane; items/s = logical muls)
#   BENCH_protocols.json    — bench_protocols_native (STS/SCIANC/PorAmB etc.)
#   BENCH_fleet.json        — bench_fleet (session fabric: batch extraction,
#                             cached-table verify, ratchet vs full rekey,
#                             fleet seal/open throughput, the PR 7
#                             throughput rows: BM_FleetEnrollBatch certs/s,
#                             BM_EcdsaVerifyBatch/{64,256} verifies/s vs the
#                             cached single baseline, the worker-pool
#                             BM_EcdsaVerifyBatchWorkers window, and the
#                             record-layer rows: BM_RecordSealOpen per AEAD
#                             suite at 64/1500 B — gcm128 vs v2-ctr-hmac is
#                             the hardware-AEAD acceptance ratio — plus the
#                             BM_CtrXor1500 before/after rewrite rows)
#   BENCH_concurrency.json  — bench_concurrency (worker sweep over ideal +
#                             CAN-FD transports, sharded-store thread sweep;
#                             the JSON context records hardware_concurrency —
#                             compare speedups only across equal core counts)
#   BENCH_fig7.json         — bench_fig7_prototype_timeline (wire-derived
#                             Fig. 7 timeline, 2/100/1000-peer CAN-FD
#                             contention matrix — run under legacy v2
#                             records AND the negotiated aes128-ccm-8 v3
#                             suite, with fig7/stream/*/ccm8_delta_bus
#                             recording the bus-ms the leaner records save —
#                             and the loss-model sweep)
#   BENCH_chaos.json        — bench_chaos_soak (p50/p99 establishment
#                             latency at 0/1/5/20% datagram loss, virtual-
#                             clock milliseconds; fully deterministic and
#                             exits 1 on a stuck handshake)
#   BENCH_net.json          — bench_net_soak (100k concurrent sessions over
#                             a real UDP socket + epoll on loopback, 10k
#                             over one framed TCP stream; wall-clock — these
#                             rows vary run to run unlike the virtual-clock
#                             suites)
#
# Every JSON context embeds a "cpu" block (bmi2/adx/avx512ifma/aesni/pclmul
# feature flags + which dispatch tiers were live), so a snapshot always
# carries the provenance needed to compare it fairly against another machine.
#
# Compare against the committed BENCH_baseline.json (the same suite captured
# at the pre-fast-path seed) with e.g.:
#   python3 - <<'EOF'
#   import json
#   base = {b["name"]: b["real_time"] for b in json.load(open("BENCH_baseline.json"))["benchmarks"]}
#   cur  = {b["name"]: b["real_time"] for b in json.load(open("BENCH_primitives.json"))["benchmarks"]}
#   for name in sorted(base.keys() & cur.keys()):
#       print(f"{name:35s} {base[name]/cur[name]:6.2f}x")
#   EOF
set -euo pipefail

usage() {
  cat <<'EOF'
Usage: tools/run_bench.sh [build-dir]

Builds the benchmark targets in Release and refreshes the committed
snapshots at the repo root:

  BENCH_primitives.json    EC/field/hash/AES primitive timings + the
                           ADX-vs-portable, IFMA-lane and SHA-NI-vs-portable
                           (BM_Sha256Portable, BM_HmacSha256Portable) rows
  BENCH_protocols.json     STS/S-ECDSA/SCIANC/PorAmB handshakes
  BENCH_fleet.json         session fabric (batch extract, cached verify,
                           ratchet ladder, seal/open throughput, batch
                           enroll certs/s + batch verify verifies/s,
                           per-suite record seal/open + CTR rewrite rows)
  BENCH_concurrency.json   worker sweep (ideal + CAN-FD) + store threads
  BENCH_fig7.json          wire-derived Fig. 7 timeline + the CAN-FD
                           contention matrix (2/100/1000 peers) + loss sweep
  BENCH_chaos.json         p50/p99 establishment latency vs loss rate
                           (virtual-clock ms, deterministic seeded faults)
  BENCH_net.json           100k concurrent sessions over a real UDP socket
                           + 10k over one TCP stream (wall-clock loopback)

Multi-core capture procedure (ROADMAP item (h)):
  The committed BENCH_concurrency.json was captured inside a 1-core
  container ("hardware_concurrency": 1 in its context block), where the
  worker sweep is ~1.0x by physics. To capture the real scaling, run this
  script on a multi-core machine and check the refreshed JSON in ALONGSIDE
  the 1-core snapshot (keep both; the context block records the core
  count). Compare speedups only across captures with equal core counts —
  docs/PERF.md explains how to read the sweep.
EOF
}

case "${1:-}" in
  -h|--help) usage; exit 0 ;;
esac

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"

cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release
cmake --build "$build_dir" --target bench_primitives_native bench_protocols_native bench_fleet \
  bench_concurrency bench_fig7_prototype_timeline bench_chaos_soak bench_net_soak -j"$(nproc)"

"$build_dir/bench_primitives_native" \
  --benchmark_format=json \
  --benchmark_out="$repo_root/BENCH_primitives.json" \
  --benchmark_out_format=json

"$build_dir/bench_protocols_native" \
  --benchmark_format=json \
  --benchmark_out="$repo_root/BENCH_protocols.json" \
  --benchmark_out_format=json

"$build_dir/bench_fleet" "$repo_root/BENCH_fleet.json"

"$build_dir/bench_concurrency" "$repo_root/BENCH_concurrency.json"

"$build_dir/bench_fig7_prototype_timeline" "$repo_root/BENCH_fig7.json"

"$build_dir/bench_chaos_soak" "$repo_root/BENCH_chaos.json"

"$build_dir/bench_net_soak" "$repo_root/BENCH_net.json"

echo "Wrote $repo_root/BENCH_primitives.json, BENCH_protocols.json, BENCH_fleet.json, BENCH_concurrency.json, BENCH_fig7.json, BENCH_chaos.json and BENCH_net.json"
