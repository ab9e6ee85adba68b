#!/usr/bin/env bash
# CI entry point: tier-1 configure/build/test, then the same test suite
# under AddressSanitizer and ThreadSanitizer. Run from anywhere; builds
# land in build/, build-asan/ and build-tsan/ under the repo root.
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "${REPO_ROOT}"

JOBS="${JOBS:-$(nproc)}"

echo "== tier-1: configure + build + ctest =="
cmake -B build -S . >/dev/null
cmake --build build -j "${JOBS}"
ctest --test-dir build --output-on-failure -j "${JOBS}"

echo
echo "== workload smoke: declarative spec, open-loop, in-process cluster =="
# One tiny spec through the whole declarative path: parse -> node registry ->
# MiniCluster -> open-loop sweep (2 rates). Catches spec-format or runner
# breakage in seconds, before the heavier legs below.
build/tools/glider_load examples/specs/ci_smoke.spec

echo
echo "== perf gate: contention + batching + load-curve vs committed baselines =="
# Enforcing: a >10% regression on any contention metric (notably the
# 8-thread ops/s scalar) vs the committed BENCH_contention.json, or on the
# hot-path batching legs (TCP burst framing, spin-then-park wakeups) vs the
# committed BENCH_batching.json, fails CI. Runs only on the tier-1
# (unsanitized) build — sanitizer overheads would drown the signal. The
# benches write their BENCH_*.json into the working directory, so run them
# from a scratch dir to leave the committed repo-root baselines untouched.
# Set GLIDER_SKIP_PERF_GATE=1 to skip (e.g. on known-slow or heavily shared
# hosts where the noise floor exceeds 10%).
if [[ "${GLIDER_SKIP_PERF_GATE:-0}" == "1" ]]; then
  echo "perf gate skipped (GLIDER_SKIP_PERF_GATE=1)"
else
  mkdir -p build/perf
  DIFF_ARGS=()
  if [[ -f BENCH_contention.json ]]; then
    if (cd build/perf && ../bench/contention); then
      DIFF_ARGS+=(BENCH_contention.json build/perf/BENCH_contention.json)
    else
      echo "perf gate: FAIL — bench/contention did not run"
      exit 1
    fi
  else
    # Fresh checkouts / branches without a committed baseline get a report,
    # not a failure: there is nothing to diff against.
    echo "perf gate: no committed BENCH_contention.json baseline (skipping)"
  fi
  if [[ -f BENCH_batching.json ]]; then
    # Only the batching benchmarks: WriteBatchingJson emits its snapshot iff
    # all four legs ran, and the filter keeps this gate fast.
    if (cd build/perf && ../bench/micro_components \
          --benchmark_filter='BM_TcpRpcBurst(Unbatched|Batched)|BM_ThreadPoolWake(SpinThenPark|PurePark)'); then
      [[ -f build/perf/BENCH_batching.json ]] \
        || { echo "perf gate: FAIL — batching legs wrote no snapshot"; exit 1; }
      DIFF_ARGS+=(BENCH_batching.json build/perf/BENCH_batching.json)
    else
      echo "perf gate: FAIL — bench/micro_components did not run"
      exit 1
    fi
  else
    echo "perf gate: no committed BENCH_batching.json baseline (skipping)"
  fi
  if [[ -f BENCH_load_curve.json ]]; then
    # The open-loop latency curve from the declarative load harness. Diffed
    # separately at a 90% threshold: millisecond-scale tail latencies on a
    # shared CI box swing far more than the throughput scalars above, so
    # this gate guards collapse (achieved rate falling off offered, p50/p99
    # blowing up by an order of magnitude, shedding appearing), not
    # percent-level drift.
    if (cd build/perf && ../tools/glider_load --bench load_curve --trace \
          ../../examples/specs/load_curve.spec >/dev/null); then
      # --trace adds "<bucket>_us_p50/p99" per-component attribution
      # scalars; they are informational (reported, never gating) — the
      # split between client/net/server/queue/run/channel shifts with
      # scheduler noise far more than the e2e percentiles do.
      tools/bench_diff.py --threshold 0.9 --informational '_us_p(50|99)$' \
          BENCH_load_curve.json build/perf/BENCH_load_curve.json \
        || { echo "perf gate: FAIL — load-curve regression vs committed" \
                  "baseline (rerun on a quiet host, or" \
                  "GLIDER_SKIP_PERF_GATE=1 to bypass)";
             exit 1; }
    else
      echo "perf gate: FAIL — glider_load did not run"
      exit 1
    fi
  else
    echo "perf gate: no committed BENCH_load_curve.json baseline (skipping)"
  fi
  # 25% threshold: back-to-back runs of these benches on the 1-core CI box
  # spread ±10-15% around their median, so 10% flakes on noise alone. The
  # wins these gates actually guard (contention ~5x single- to multi-client,
  # batching 36-59%) sit far above 25%.
  if [[ ${#DIFF_ARGS[@]} -gt 0 ]]; then
    tools/bench_diff.py --threshold 0.25 "${DIFF_ARGS[@]}" \
      || { echo "perf gate: FAIL — regression vs committed baseline" \
                "(rerun on a quiet host, or GLIDER_SKIP_PERF_GATE=1 to" \
                "bypass; refresh the baseline only with a justified PR)";
           exit 1; }
  fi
fi

# Daemon boot shared by the smoke legs below. Starts a metadata, a storage
# and (unless its flags are "none") an active daemon from <build_dir>, each
# logging to <dir>/<role>.log, and waits until each has logged its address.
# The per-role flag strings split into words. Sets META_ADDR, METRICS_URL
# (empty without --metrics-listen), STORAGE_ADDR, STORAGE_PID and
# ACTIVE_ADDR, and appends every PID to DAEMON_PIDS for stop_daemons.
# Returns non-zero, naming the role, when a daemon does not come up.
#   boot_daemons <build_dir> <dir> <metadata flags> <storage flags> <active flags>
DAEMON_PIDS=()
stop_daemons() {
  kill "${DAEMON_PIDS[@]}" 2>/dev/null || true
  DAEMON_PIDS=()
}

# Polls <log> for up to 10 s until the sed script <expr> prints; echoes it.
wait_for_log() {
  local log="$1" expr="$2" value=""
  for _ in $(seq 100); do
    value="$(sed -n "${expr}" "${log}")"
    [[ -n "${value}" ]] && break
    sleep 0.1
  done
  printf '%s' "${value}"
}

boot_daemons() {
  local daemon="$1/tools/glider_daemon" dir="$2"
  local meta_flags="$3" storage_flags="$4" active_flags="$5"
  META_ADDR="" METRICS_URL="" STORAGE_ADDR="" STORAGE_PID="" ACTIVE_ADDR=""
  "${daemon}" metadata --listen 127.0.0.1:0 ${meta_flags} \
    >"${dir}/metadata.log" 2>&1 &
  DAEMON_PIDS+=($!)
  META_ADDR="$(wait_for_log "${dir}/metadata.log" \
    's/^metadata server listening at \(.*\)$/\1/p')"
  [[ -n "${META_ADDR}" ]] || { echo "metadata daemon did not come up"; return 1; }
  METRICS_URL="$(sed -n 's/^metrics at \(.*\)$/\1/p' "${dir}/metadata.log")"

  "${daemon}" storage --metadata "${META_ADDR}" ${storage_flags} \
    >"${dir}/storage.log" 2>&1 &
  STORAGE_PID=$!
  DAEMON_PIDS+=("${STORAGE_PID}")
  STORAGE_ADDR="$(wait_for_log "${dir}/storage.log" \
    's/^storage server (.*) at \([^,]*\), registered .*$/\1/p')"
  [[ -n "${STORAGE_ADDR}" ]] || { echo "storage daemon did not come up"; return 1; }

  [[ "${active_flags}" == "none" ]] && return 0
  "${daemon}" active --metadata "${META_ADDR}" ${active_flags} \
    >"${dir}/active.log" 2>&1 &
  DAEMON_PIDS+=($!)
  ACTIVE_ADDR="$(wait_for_log "${dir}/active.log" \
    's/^active server (.*) at \([^,]*\), registered .*$/\1/p')"
  [[ -n "${ACTIVE_ADDR}" ]] || { echo "active daemon did not come up"; return 1; }
}

echo
echo "== profiler smoke: daemon --profile + workload + glider_cli profile =="
# Boots a minimal TCP deployment with continuous profiling on, streams a
# merge workload through an action, then pulls collapsed stacks off the
# active server with `glider_cli profile`. Fails if the folded output is
# empty. Artifacts (daemon logs + folded stacks) land in
# build/profile-smoke/ for the CI system to archive.
SMOKE_DIR="build/profile-smoke"
rm -rf "${SMOKE_DIR}"
mkdir -p "${SMOKE_DIR}"
trap stop_daemons EXIT
# 997 Hz (vs the 99 Hz default) so even this short workload lands enough
# samples for a deterministic non-empty dump.
boot_daemons build "${SMOKE_DIR}" "" "--blocks 256" "--profile-hz 997" \
  || exit 1

build/tools/glider_cli --metadata "${META_ADDR}" action-create /smoke glider.merge
for _ in $(seq 10); do
  seq 1 2000 | sed 's/$/,1/' \
    | build/tools/glider_cli --metadata "${META_ADDR}" action-write /smoke
done
build/tools/glider_cli --metadata "${META_ADDR}" profile "${ACTIVE_ADDR}" \
  --seconds 1 --folded "${SMOKE_DIR}/active.folded"
[[ -s "${SMOKE_DIR}/active.folded" ]] \
  || { echo "profiler smoke: empty folded output"; exit 1; }
echo "profiler smoke: $(wc -l <"${SMOKE_DIR}/active.folded") folded stacks (archived in ${SMOKE_DIR})"
stop_daemons
trap - EXIT

echo
echo "== health smoke: daemon --health-ms + node kill + glider_cli health =="
# Boots metadata (heartbeating every 100 ms, Prometheus endpoint on) plus a
# storage daemon, hard-kills the storage daemon, and asserts that (a)
# `glider_cli health` against the metadata daemon's board reports it dead
# and (b) /metrics exposes the per-peer glider_health_phi gauges.
HEALTH_DIR="build/health-smoke"
rm -rf "${HEALTH_DIR}"
mkdir -p "${HEALTH_DIR}"
trap stop_daemons EXIT
boot_daemons build "${HEALTH_DIR}" \
  "--health-ms 100 --metrics-listen 127.0.0.1:0" "--blocks 64" none || exit 1
[[ -n "${METRICS_URL}" ]] || { echo "metadata daemon exposed no /metrics"; exit 1; }

# Let the monitor discover the storage server and mark it alive first.
ALIVE=0
for _ in $(seq 50); do
  if build/tools/glider_cli --metadata "${META_ADDR}" health "${META_ADDR}" \
       | grep -q "\"address\":\"${STORAGE_ADDR}\",\"state\":\"alive\""; then
    ALIVE=1
    break
  fi
  sleep 0.1
done
[[ "${ALIVE}" == "1" ]] \
  || { echo "health smoke: storage never reported alive"; exit 1; }

kill -9 "${STORAGE_PID}"
DEAD=0
for _ in $(seq 100); do
  if build/tools/glider_cli --metadata "${META_ADDR}" health "${META_ADDR}" \
       | grep -q "\"address\":\"${STORAGE_ADDR}\",\"state\":\"dead\""; then
    DEAD=1
    break
  fi
  sleep 0.1
done
[[ "${DEAD}" == "1" ]] \
  || { echo "health smoke: killed storage daemon never reported dead"; exit 1; }

python3 -c "import urllib.request,sys; sys.stdout.write(
    urllib.request.urlopen('${METRICS_URL}', timeout=10).read().decode())" \
  >"${HEALTH_DIR}/metrics.txt"
grep -q "glider_health_phi" "${HEALTH_DIR}/metrics.txt" \
  || { echo "health smoke: /metrics has no glider_health_phi gauges"; exit 1; }
echo "health smoke: dead peer detected, $(grep -c glider_health_phi \
  "${HEALTH_DIR}/metrics.txt") phi gauge lines on /metrics"
stop_daemons
trap - EXIT

# Trace-assembly smoke: boots a 3-daemon deployment with span tracing on,
# streams a traced workload through it, then assembles every server's
# kTraceDump into cross-node traces. `glider_trace --check` fails unless at
# least one trace assembled, its critical path is non-empty, and every
# trace's bucket sum lands within 5% of its end-to-end latency — the
# clock-alignment + tree-rebuild invariants, checked against live daemons
# (and again under ASan/TSan below, where data races in the span plumbing
# would surface). Takes the build dir so each sanitizer leg reuses it.
trace_smoke() {
  local build_dir="$1"
  local smoke_dir="${build_dir}/trace-smoke"
  rm -rf "${smoke_dir}"
  mkdir -p "${smoke_dir}"
  trap stop_daemons EXIT
  boot_daemons "${build_dir}" "${smoke_dir}" "--trace 1" "--blocks 256 --trace 1" \
    "--trace 1" || { echo "trace smoke: daemons did not come up"; return 1; }

  # A short traced open-loop workload: the request spans land in the
  # daemons' ring buffers (the client's own spans die with glider_load —
  # exactly the orphan-grafting path the assembler must handle).
  "${build_dir}/tools/glider_load" --trace --metadata "${META_ADDR}" \
    examples/specs/ci_smoke.spec >"${smoke_dir}/load.log" 2>&1 \
    || { echo "trace smoke: glider_load failed"; cat "${smoke_dir}/load.log"; return 1; }

  "${build_dir}/tools/glider_trace" assemble --metadata "${META_ADDR}" \
    --check --out "${smoke_dir}/merged_trace.json" \
    >"${smoke_dir}/assemble.log" 2>&1 \
    || { echo "trace smoke: glider_trace --check failed"; cat "${smoke_dir}/assemble.log"; return 1; }
  [[ -s "${smoke_dir}/merged_trace.json" ]] \
    || { echo "trace smoke: empty merged Perfetto JSON"; return 1; }
  echo "trace smoke: $(grep -o '"ph":"X"' "${smoke_dir}/merged_trace.json" \
    | wc -l) merged span events (archived in ${smoke_dir})"
  stop_daemons
  trap - EXIT
}

# Attribution smoke: boots a 3-daemon deployment with tracing on and the
# metadata daemon's Prometheus endpoint exposed, drives the two-principal
# ci_attr.spec (load workers split between tenants alpha and beta), then
# asserts (a) `glider_cli ledger` reports BOTH principals with nonzero
# cpu_us and nonzero bytes — the per-tenant resource ledgers survived the
# frame encoding, cross-thread propagation and the cluster-wide merge —
# and (b) an Accept-negotiated OpenMetrics scrape of /metrics carries at
# least one histogram exemplar ('# {trace_id=') linking a latency bucket
# to a live trace, while the classic 0.0.4 scrape stays exemplar-free.
# Takes the build dir so the sanitizer legs reuse it.
attr_smoke() {
  local build_dir="$1"
  local smoke_dir="${build_dir}/attr-smoke"
  rm -rf "${smoke_dir}"
  mkdir -p "${smoke_dir}"
  trap stop_daemons EXIT
  boot_daemons "${build_dir}" "${smoke_dir}" \
    "--trace 1 --metrics-listen 127.0.0.1:0" "--blocks 256 --trace 1" \
    "--trace 1" || { echo "attr smoke: daemons did not come up"; return 1; }
  [[ -n "${METRICS_URL}" ]] || { echo "attr smoke: metadata daemon exposed no /metrics"; return 1; }

  "${build_dir}/tools/glider_load" --trace --metadata "${META_ADDR}" \
    examples/specs/ci_attr.spec >"${smoke_dir}/load.log" 2>&1 \
    || { echo "attr smoke: glider_load failed"; cat "${smoke_dir}/load.log"; return 1; }

  "${build_dir}/tools/glider_cli" --metadata "${META_ADDR}" ledger \
    --by principal >"${smoke_dir}/ledger.txt" \
    || { echo "attr smoke: glider_cli ledger failed"; return 1; }
  local tenant
  for tenant in alpha beta; do
    awk -v p="${tenant}" '$1 == p && $2 > 0 && ($4 > 0 || $5 > 0) {found = 1}
                          END {exit !found}' "${smoke_dir}/ledger.txt" \
      || { echo "attr smoke: ledger has no nonzero cpu/bytes row for ${tenant}";
           cat "${smoke_dir}/ledger.txt"; return 1; }
  done

  # Exemplars are only legal in the OpenMetrics exposition format, so they
  # are negotiated via Accept: the classic (default) scrape must stay
  # exemplar-free or a stock Prometheus parser rejects the whole page.
  python3 -c "import urllib.request,sys; sys.stdout.write(
      urllib.request.urlopen('${METRICS_URL}', timeout=10).read().decode())" \
    >"${smoke_dir}/metrics_classic.txt"
  if grep -q '# {trace_id=' "${smoke_dir}/metrics_classic.txt"; then
    echo "attr smoke: classic /metrics leaks OpenMetrics exemplars"; return 1
  fi
  python3 -c "import urllib.request,sys; sys.stdout.write(
      urllib.request.urlopen(urllib.request.Request('${METRICS_URL}',
          headers={'Accept': 'application/openmetrics-text; version=1.0.0'}),
          timeout=10).read().decode())" \
    >"${smoke_dir}/metrics.txt"
  grep -q '# {trace_id=' "${smoke_dir}/metrics.txt" \
    || { echo "attr smoke: OpenMetrics /metrics has no histogram exemplars"; return 1; }
  grep -q '^# EOF' "${smoke_dir}/metrics.txt" \
    || { echo "attr smoke: OpenMetrics /metrics missing # EOF terminator"; return 1; }
  echo "attr smoke: both tenants billed, $(grep -c '# {trace_id=' \
    "${smoke_dir}/metrics.txt") exemplar lines on /metrics (archived in ${smoke_dir})"
  stop_daemons
  trap - EXIT
}

echo
echo "== trace smoke: daemons --trace + glider_load + glider_trace --check =="
trace_smoke build

echo
echo "== attribution smoke: two-principal load + glider_cli ledger + exemplars =="
attr_smoke build

echo
echo "== ASan: configure + build + ctest =="
cmake -B build-asan -S . -DGLIDER_SANITIZE=address >/dev/null
cmake --build build-asan -j "${JOBS}"
ctest --test-dir build-asan --output-on-failure -j "${JOBS}"

echo
echo "== trace smoke (ASan) =="
trace_smoke build-asan

echo
echo "== attribution smoke (ASan) =="
attr_smoke build-asan

echo
echo "== TSan: configure + build + ctest =="
cmake -B build-tsan -S . -DGLIDER_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "${JOBS}"
ctest --test-dir build-tsan --output-on-failure -j "${JOBS}"

echo
echo "== trace smoke (TSan) =="
trace_smoke build-tsan

echo
echo "== attribution smoke (TSan) =="
attr_smoke build-tsan

echo
echo "ci/check.sh: all checks passed"
