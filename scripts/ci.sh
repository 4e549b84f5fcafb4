#!/usr/bin/env bash
# CI gate: tier-1 build + tests with warnings as errors, every example
# binary run to a zero exit, a CLI smoke test
# that validates the emitted stats/trace JSON actually parses, a
# fault-injection smoke job (corruption harness under a nonzero fault seed,
# deadline and budget exit codes), and a sanitizer matrix (TSan + ASan +
# UBSan) over the concurrency- and corruption-sensitive tests.
#
# -Wno-error=restrict: GCC 12's libstdc++ emits known-false -Wrestrict
# warnings from std::string concatenation in a few test files.
#
# PPM_CI_SANITIZERS=0 skips the sanitizer matrix (each entry is a separate
# build tree; useful for quick local runs). PPM_CI_BENCH=0 skips the bench
# smoke + perf-regression gate.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build-ci}
SANITIZERS=${PPM_CI_SANITIZERS:-1}
BENCH_GATE=${PPM_CI_BENCH:-1}

cmake -B "$BUILD_DIR" -G Ninja \
  -DCMAKE_CXX_FLAGS="-Werror -Wno-error=restrict"
cmake --build "$BUILD_DIR"
ctest --test-dir "$BUILD_DIR" --output-on-failure

# Examples: every binary must run to a zero exit, so an example ported along
# with a library change cannot rot unnoticed.
EXAMPLES_RUN=0
for example in "$BUILD_DIR"/examples/*; do
  [[ -f "$example" && -x "$example" ]] || continue
  "$example" > /dev/null || { echo "example $example exited $?"; exit 1; }
  EXAMPLES_RUN=$((EXAMPLES_RUN + 1))
done
[[ "$EXAMPLES_RUN" -gt 0 ]] || { echo "no examples in $BUILD_DIR/examples"; exit 1; }
echo "examples OK: $EXAMPLES_RUN ran"

# CLI smoke: generate -> mine with reports -> validate the JSON.
SMOKE_DIR=$(mktemp -d)
trap 'rm -rf "$SMOKE_DIR"' EXIT
PPM="$BUILD_DIR/src/cli/ppm"

"$PPM" generate --output "$SMOKE_DIR/series.bin" \
  --length 20000 --period 50 --seed 7
"$PPM" mine --input "$SMOKE_DIR/series.bin" --period 50 --min-conf 0.8 \
  --stats-json "$SMOKE_DIR/stats.json" --trace-out "$SMOKE_DIR/trace.json" \
  --log-level info > "$SMOKE_DIR/mine.out"
grep -q "patterns=" "$SMOKE_DIR/mine.out"

python3 - "$SMOKE_DIR/stats.json" "$SMOKE_DIR/trace.json" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    stats = json.load(f)
assert stats["run"] == "mine", stats["run"]
assert stats["meta"]["algorithm"] == "hitset"
mining = stats["sections"]["mining_stats"]
assert mining["scans"] == 2, mining
assert mining["elapsed_seconds"] > 0, mining
counters = stats["metrics"]["counters"]
assert counters["ppm.source.scans"] == mining["scans"], counters
# Scan accounting: hit-set mining is exactly two logical database passes,
# one F1 scan plus one second scan (docs/OBSERVABILITY.md).
assert counters["ppm.scan.db_passes"] == 2, counters
assert counters["ppm.scan.passes.f1_scan"] == 1, counters
assert counters["ppm.scan.passes.second_scan"] == 1, counters
# Build fingerprint and resource accounting ride along in every report.
meta = stats["meta"]
assert meta["build.git_sha"], meta
assert meta["build.compiler"], meta
assert int(meta["machine.cores"]) >= 1, meta  # meta values are strings
gauges = stats["metrics"]["gauges"]
assert gauges["ppm.resource.rss_hwm_bytes"] > 0, gauges
# Every whole segment is either inserted as a hit or skipped (< 2 letters).
inserted = counters["ppm.hitset.hits_inserted"]
skipped = counters["ppm.hitset.segments_skipped"]
assert inserted + skipped == mining["num_periods"], counters
assert inserted >= mining["hit_store_entries"], counters
span_names = {s["name"] for s in stats["spans"]}
assert {"mine.hitset", "f1_scan", "second_scan"} <= span_names, span_names

with open(sys.argv[2]) as f:
    trace = json.load(f)
assert isinstance(trace, list) and trace, "trace must be a non-empty array"
for event in trace:
    assert event["ph"] == "X", event
    assert {"name", "ts", "dur"} <= event.keys(), event
trace_names = {e["name"] for e in trace}
assert {"f1_scan", "second_scan"} <= trace_names, trace_names

print("smoke OK: stats and trace JSON validate")
EOF

# db_passes must be thread-invariant: the parallel hit-set miner shards the
# same two logical passes, it does not add any.
"$PPM" mine --input "$SMOKE_DIR/series.bin" --period 50 --min-conf 0.8 \
  --threads 4 --stats-json "$SMOKE_DIR/stats-t4.json" > /dev/null
python3 - "$SMOKE_DIR/stats-t4.json" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    counters = json.load(f)["metrics"]["counters"]
assert counters["ppm.scan.db_passes"] == 2, counters
assert counters["ppm.scan.passes.f1_scan"] == 1, counters
assert counters["ppm.scan.passes.second_scan"] == 1, counters
print("smoke OK: db_passes == 2 at --threads 4")
EOF

# Perf-regression gate (docs/BENCHMARKING.md): a fresh ci-profile bench run
# must match the committed BENCH_*.json baselines on every exact field
# (scan counts, db passes, candidates, patterns, bytes read), and the
# intentionally-injected extra database scan must make the gate fail --
# proving the gate can actually catch a scan-discipline regression.
if [[ "$BENCH_GATE" == "1" ]]; then
  BENCH_DIR="$SMOKE_DIR/bench"
  mkdir -p "$BENCH_DIR"
  scripts/bench.sh --profile=ci --build-dir="$BUILD_DIR-bench" \
    --out-dir="$BENCH_DIR" > "$SMOKE_DIR/bench.out"
  python3 scripts/perf_gate.py --baseline . --candidate "$BENCH_DIR"

  INJECT_DIR="$SMOKE_DIR/bench-inject"
  mkdir -p "$INJECT_DIR"
  cp "$BENCH_DIR"/BENCH_table1.json "$BENCH_DIR"/BENCH_fig2.json \
     "$BENCH_DIR"/BENCH_parallel.json "$BENCH_DIR"/BENCH_incremental.json \
     "$BENCH_DIR"/BENCH_dist.json "$INJECT_DIR/"
  PPM_BENCH_PROFILE=ci PPM_BENCH_INJECT_EXTRA_SCAN=1 \
    "$BUILD_DIR-bench/bench/bench_scan_io" \
    "$INJECT_DIR/BENCH_scan_io.json" > /dev/null
  set +e
  python3 scripts/perf_gate.py --baseline . --candidate "$INJECT_DIR" \
    > "$SMOKE_DIR/gate-inject.out"
  GATE_EXIT=$?
  set -e
  [[ "$GATE_EXIT" == 1 ]] || {
    echo "perf gate did not catch the injected extra scan (exit $GATE_EXIT)"
    cat "$SMOKE_DIR/gate-inject.out"
    exit 1
  }
  grep -q "ppm.scan.db_passes" "$SMOKE_DIR/gate-inject.out"
  echo "perf gate OK: clean run passes, injected extra scan fails"
fi

# Fault-injection smoke: the corruption harness under a nonzero fault seed
# (different flipped bits than the default run), plus the robustness exit
# codes from a real binary -- a 1 ms deadline on a large series must exit 5
# and a 1 MB budget with --budget-policy fail must exit 6
# (docs/ROBUSTNESS.md). --num-f1 30 makes the Property 3.2 bound the number
# of periods (10000), so the predicted vertical-store bytes (~1.7 MB) exceed
# the 1 MB budget deterministically.
PPM_FAULT_SEED=20260806 ctest --test-dir "$BUILD_DIR" \
  -R 'tsdb_corruption_test' --output-on-failure
"$PPM" generate --output "$SMOKE_DIR/big.bin" \
  --length 500000 --period 50 --num-f1 30 --seed 11
set +e
"$PPM" mine --input "$SMOKE_DIR/big.bin" --period 50 --min-conf 0.8 \
  --deadline-ms 1 2> "$SMOKE_DIR/deadline.err"
DEADLINE_EXIT=$?
"$PPM" mine --input "$SMOKE_DIR/big.bin" --period 50 --min-conf 0.8 \
  --memory-budget-mb 1 --budget-policy fail 2> "$SMOKE_DIR/budget.err"
BUDGET_EXIT=$?
set -e
[[ "$DEADLINE_EXIT" == 5 ]] || { echo "deadline exit was $DEADLINE_EXIT, want 5"; exit 1; }
grep -q "DeadlineExceeded" "$SMOKE_DIR/deadline.err"
[[ "$BUDGET_EXIT" == 6 ]] || { echo "budget exit was $BUDGET_EXIT, want 6"; exit 1; }
grep -q "ResourceExhausted" "$SMOKE_DIR/budget.err"
echo "fault smoke OK: corruption harness, deadline exit 5, budget exit 6"

# Crash-recovery smoke: a `ppm stream` run killed mid-ingestion at a
# fault-injected WAL write site (torn half-frame + _Exit(137), like a
# SIGKILL mid-write) must, after `--resume`, report the same segment count
# and byte-identical pattern lines as an uninterrupted reference run
# (docs/ROBUSTNESS.md "Crash recovery"). --wal-fsync never is sufficient
# here: the kill is a process death, not a machine crash, so the page cache
# survives.
"$PPM" generate --output "$SMOKE_DIR/stream.bin" \
  --length 8000 --period 20 --seed 13
"$PPM" stream --input "$SMOKE_DIR/stream.bin" --period 20 --min-conf 0.8 \
  --checkpoint-dir "$SMOKE_DIR/ref-ckpt" --checkpoint-every 8 \
  --wal-fsync never > "$SMOKE_DIR/stream-ref.out"
set +e
"$PPM" stream --input "$SMOKE_DIR/stream.bin" --period 20 --min-conf 0.8 \
  --checkpoint-dir "$SMOKE_DIR/crash-ckpt" --checkpoint-every 8 \
  --wal-fsync never --crash-after-appends 3500 > /dev/null
CRASH_EXIT=$?
set -e
[[ "$CRASH_EXIT" == 137 ]] || { echo "crash exit was $CRASH_EXIT, want 137"; exit 1; }
"$PPM" stream --input "$SMOKE_DIR/stream.bin" --period 20 --min-conf 0.8 \
  --checkpoint-dir "$SMOKE_DIR/crash-ckpt" --checkpoint-every 8 \
  --wal-fsync never --resume > "$SMOKE_DIR/stream-resumed.out"
grep -q "(resumed)" "$SMOKE_DIR/stream-resumed.out"
grep '^  count=' "$SMOKE_DIR/stream-ref.out" > "$SMOKE_DIR/ref-patterns"
grep '^  count=' "$SMOKE_DIR/stream-resumed.out" > "$SMOKE_DIR/resumed-patterns"
diff "$SMOKE_DIR/ref-patterns" "$SMOKE_DIR/resumed-patterns"
grep '^period=' "$SMOKE_DIR/stream-ref.out" > "$SMOKE_DIR/ref-m"
grep '^period=' "$SMOKE_DIR/stream-resumed.out" > "$SMOKE_DIR/resumed-m"
diff "$SMOKE_DIR/ref-m" "$SMOKE_DIR/resumed-m"
echo "crash-recovery smoke OK: kill at append 3500, resume matches reference"

# Incremental-vs-batch smoke (docs/INCREMENTAL.md): mining a prefix, letting
# the series grow, and resuming must report byte-identical pattern lines to
# a one-shot stream over the final series -- and the catch-up must cost one
# O(WAL-tail) wal_replay pass, never a rescan of the already-mined history.
# The text codec interns features in first-appearance order, so a head-sliced
# prefix of a .txt series is an exact prefix with compatible feature ids.
"$PPM" generate --output "$SMOKE_DIR/grow.txt" \
  --length 12000 --period 20 --seed 17
head -n 8000 "$SMOKE_DIR/grow.txt" > "$SMOKE_DIR/grow-prefix.txt"
"$PPM" stream --input "$SMOKE_DIR/grow.txt" --period 20 --min-conf 0.8 \
  --window 100 --query-every 200 --checkpoint-dir "$SMOKE_DIR/oneshot-ckpt" \
  --wal-fsync never > "$SMOKE_DIR/oneshot.out"
grep -q '^query t=' "$SMOKE_DIR/oneshot.out"
grep -q 'effective_m=100' "$SMOKE_DIR/oneshot.out"
"$PPM" stream --input "$SMOKE_DIR/grow-prefix.txt" --period 20 \
  --min-conf 0.8 --window 100 --checkpoint-dir "$SMOKE_DIR/incr-ckpt" \
  --wal-fsync never > /dev/null
"$PPM" stream --input "$SMOKE_DIR/grow.txt" --period 20 --min-conf 0.8 \
  --window 100 --checkpoint-dir "$SMOKE_DIR/incr-ckpt" --wal-fsync never \
  --resume --stats-json "$SMOKE_DIR/incr-stats.json" > "$SMOKE_DIR/incr.out"
grep '^  count=' "$SMOKE_DIR/oneshot.out" > "$SMOKE_DIR/oneshot-patterns"
grep '^  count=' "$SMOKE_DIR/incr.out" > "$SMOKE_DIR/incr-patterns"
diff "$SMOKE_DIR/oneshot-patterns" "$SMOKE_DIR/incr-patterns"
grep '^period=' "$SMOKE_DIR/oneshot.out" > "$SMOKE_DIR/oneshot-m"
grep '^period=' "$SMOKE_DIR/incr.out" > "$SMOKE_DIR/incr-m"
diff "$SMOKE_DIR/oneshot-m" "$SMOKE_DIR/incr-m"
python3 - "$SMOKE_DIR/incr-stats.json" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    stats = json.load(f)
meta = stats["meta"]
assert meta["resumed"] == "true", meta
assert int(meta["window"]) == 100, meta
assert int(meta["effective_segments"]) == 100, meta
counters = stats["metrics"]["counters"]
# Catching up a resumed stream is exactly one database pass -- the WAL tail
# replay -- and it scans only the records past the checkpoint cursor, never
# the 8000-instant history (docs/INCREMENTAL.md "Query cost").
assert counters["ppm.scan.db_passes"] == 1, counters
assert counters["ppm.scan.passes.wal_replay"] == 1, counters
replayed = int(meta["recovery.wal_records_replayed"])
assert counters["ppm.scan.instants_scanned"] == replayed, counters
assert replayed < 8000, replayed
print("smoke OK: incremental resume matches one-shot stream, O(tail) catch-up")
EOF
echo "incremental smoke OK: resumed stream == one-shot stream"

# Serving smoke (docs/SERVING.md): a live ppmd daemon must answer
# put/append/mine/query over its unix socket, prove cache invalidation
# (miss -> hit -> append -> refresh) through the served outcome field and
# the ppm.server.cache.* counters, and drain cleanly (exit 0) on SIGTERM.
PPMD="$BUILD_DIR/src/cli/ppmd"
SERVE_SOCK="$SMOKE_DIR/ppmd.sock"
"$PPMD" --socket "$SERVE_SOCK" --db "$SMOKE_DIR/ppmd-db" \
  --wal-fsync never > "$SMOKE_DIR/ppmd.log" 2>&1 &
PPMD_PID=$!
for _ in $(seq 1 100); do [[ -S "$SERVE_SOCK" ]] && break; sleep 0.1; done
[[ -S "$SERVE_SOCK" ]] || { echo "ppmd did not come up"; cat "$SMOKE_DIR/ppmd.log"; exit 1; }
"$PPM" generate --output "$SMOKE_DIR/serve.bin" \
  --length 2000 --period 20 --seed 19
"$PPM" client put --socket "$SERVE_SOCK" --name served \
  --input "$SMOKE_DIR/serve.bin"
"$PPM" client mine --socket "$SERVE_SOCK" --name served \
  --period 20 --min-conf 0.8 > "$SMOKE_DIR/serve-mine.out"
grep -q "outcome=miss" "$SMOKE_DIR/serve-mine.out"
grep -q "patterns=" "$SMOKE_DIR/serve-mine.out"
"$PPM" client query --socket "$SERVE_SOCK" --name served \
  --period 20 --min-conf 0.8 > "$SMOKE_DIR/serve-hit.out"
grep -q "outcome=hit" "$SMOKE_DIR/serve-hit.out"
"$PPM" client append --socket "$SERVE_SOCK" --name served \
  --input "$SMOKE_DIR/serve.bin"
"$PPM" client query --socket "$SERVE_SOCK" --name served \
  --period 20 --min-conf 0.8 > "$SMOKE_DIR/serve-refresh.out"
grep -q "outcome=refresh" "$SMOKE_DIR/serve-refresh.out"
"$PPM" client stats --socket "$SERVE_SOCK" \
  --stats-json "$SMOKE_DIR/serve-stats.json" \
  --metrics-prom "$SMOKE_DIR/serve-metrics.prom" > /dev/null
grep -q 'ppm_server_cache_hits 1' "$SMOKE_DIR/serve-metrics.prom" || \
  grep -q '"ppm.server.cache.hits": 1' "$SMOKE_DIR/serve-stats.json" || {
    echo "cache hit not visible in served stats/metrics"
    cat "$SMOKE_DIR/serve-stats.json"; exit 1;
  }
kill -TERM "$PPMD_PID"
set +e
wait "$PPMD_PID"
PPMD_EXIT=$?
set -e
[[ "$PPMD_EXIT" == 0 ]] || { echo "ppmd SIGTERM drain exit was $PPMD_EXIT, want 0"; cat "$SMOKE_DIR/ppmd.log"; exit 1; }
[[ ! -S "$SERVE_SOCK" ]] || { echo "ppmd left its socket behind"; exit 1; }
echo "serving smoke OK: put/mine/query/append over ppmd, SIGTERM drain clean"

# Overload smoke (docs/SERVING.md "Overload protection"): a 2-worker ppmd
# with a per-tenant quota must shed a greedy tenant hammering at many times
# its rate (exit 6, ResourceExhausted) while a polite tenant's requests all
# succeed; --retry-budget-ms must wait out the shed and succeed; a
# slowloris connection holding half a frame header is reaped at the io
# deadline; health/ready probes answer inline; SIGTERM drains clean.
OVER_SOCK="$SMOKE_DIR/over.sock"
"$PPMD" --socket "$OVER_SOCK" --db "$SMOKE_DIR/over-db" --workers 2 \
  --queue-capacity 16 --io-timeout-ms 300 --tenant-quota 'greedy=1:1:0' \
  --wal-fsync never > "$SMOKE_DIR/over.log" 2>&1 &
OVER_PID=$!
for _ in $(seq 1 100); do [[ -S "$OVER_SOCK" ]] && break; sleep 0.1; done
[[ -S "$OVER_SOCK" ]] || { echo "overloaded ppmd did not come up"; cat "$SMOKE_DIR/over.log"; exit 1; }
"$PPM" client put --socket "$OVER_SOCK" --name over \
  --input "$SMOKE_DIR/serve.bin"
"$PPM" client health --socket "$OVER_SOCK" > "$SMOKE_DIR/over-health.out"
grep -q '"ready_state":"accepting"' "$SMOKE_DIR/over-health.out"
"$PPM" client ready --socket "$OVER_SOCK" | grep -q accepting

# Slowloris peer in the background: half a header, then a stall. It must
# observe EOF (the io deadline reaping it), never a hang.
python3 - "$OVER_SOCK" > "$SMOKE_DIR/slow.out" <<'EOF' &
import socket
import sys

s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
s.connect(sys.argv[1])
s.settimeout(10)
assert s.recv(8) == b"PPMRPC1\n"
s.sendall(b"PPMRPC1\n")
s.sendall(b"\x40\x00\x00")  # 3 of 8 header bytes, then silence
assert s.recv(1) == b"", "server never closed the stalled connection"
print("REAPED")
EOF
SLOW_PID=$!

# Greedy tenant at many times its 1 rps quota: some admitted, some shed.
GREEDY_OK=0
GREEDY_SHED=0
for _ in $(seq 1 15); do
  set +e
  "$PPM" client query --socket "$OVER_SOCK" --name over --period 20 \
    --min-conf 0.8 --tenant greedy > /dev/null 2>&1
  GREEDY_EXIT=$?
  set -e
  if [[ "$GREEDY_EXIT" == 0 ]]; then GREEDY_OK=$((GREEDY_OK + 1)); fi
  if [[ "$GREEDY_EXIT" == 6 ]]; then GREEDY_SHED=$((GREEDY_SHED + 1)); fi
done
[[ "$GREEDY_OK" -ge 1 ]] || { echo "greedy tenant never admitted"; exit 1; }
[[ "$GREEDY_SHED" -ge 1 ]] || { echo "greedy tenant at 15x quota was never shed"; exit 1; }

# The polite tenant is untouched by the greedy tenant's rejections.
for _ in $(seq 1 5); do
  "$PPM" client query --socket "$OVER_SOCK" --name over --period 20 \
    --min-conf 0.8 --tenant polite > /dev/null
done

# A shed greedy request succeeds once --retry-budget-ms covers the refill.
"$PPM" client query --socket "$OVER_SOCK" --name over --period 20 \
  --min-conf 0.8 --tenant greedy --retry-budget-ms 5000 > /dev/null

wait "$SLOW_PID"
grep -q "REAPED" "$SMOKE_DIR/slow.out"

kill -TERM "$OVER_PID"
set +e
wait "$OVER_PID"
OVER_EXIT=$?
set -e
[[ "$OVER_EXIT" == 0 ]] || { echo "overloaded ppmd SIGTERM drain exit was $OVER_EXIT, want 0"; cat "$SMOKE_DIR/over.log"; exit 1; }
[[ ! -S "$OVER_SOCK" ]] || { echo "overloaded ppmd left its socket behind"; exit 1; }
echo "overload smoke OK: greedy shed ($GREEDY_SHED/15), polite clean, slowloris reaped, drain clean"

# Distributed chaos smoke (docs/DISTRIBUTED.md): plan a 6-shard mine, kill
# two workers mid-shard on the first run (no retries, --partial ok), then
# resume with a transient worker failure and an injected transient read
# fault -- the resumed run must adopt the four completed shards, re-execute
# only the two failed ones (proven via the ppm.dist.* counters in the stats
# report), and the merged pattern lines must diff clean against a one-shot
# `ppm mine`. `timeout` guards the whole block against a hung coordinator.
DIST_TIMEOUT="timeout 180"
"$PPM" generate --output "$SMOKE_DIR/dist.bin" \
  --length 24000 --period 20 --seed 23
"$PPM" dist plan --inputs "$SMOKE_DIR/dist.bin" \
  --plan "$SMOKE_DIR/dist.plan" --period 20 --min-conf 0.8 \
  --shards-per-input 6 > /dev/null
$DIST_TIMEOUT "$PPM" dist run --plan "$SMOKE_DIR/dist.plan" \
  --results "$SMOKE_DIR/dist-results" --workers 3 --max-retries 0 \
  --partial ok --chaos-shards 1,4 --chaos-kill-after-segments 7 \
  > "$SMOKE_DIR/dist-broken.out"
grep -q "failed=2" "$SMOKE_DIR/dist-broken.out"
grep -q "PARTIAL" "$SMOKE_DIR/dist-broken.out"
$DIST_TIMEOUT "$PPM" dist run --plan "$SMOKE_DIR/dist.plan" \
  --results "$SMOKE_DIR/dist-results" --workers 3 --max-retries 2 \
  --chaos-shards 1 --chaos-exit 7 --chaos-until-attempt 1 \
  --inject-transient-reads 1 --top 100000 \
  --stats-json "$SMOKE_DIR/dist-stats.json" > "$SMOKE_DIR/dist-resumed.out"
"$PPM" mine --input "$SMOKE_DIR/dist.bin" --period 20 --min-conf 0.8 \
  --top 100000 > "$SMOKE_DIR/dist-oneshot.out"
grep '^  count=' "$SMOKE_DIR/dist-resumed.out" > "$SMOKE_DIR/dist-patterns"
grep '^  count=' "$SMOKE_DIR/dist-oneshot.out" > "$SMOKE_DIR/oneshot-dist-patterns"
diff "$SMOKE_DIR/dist-patterns" "$SMOKE_DIR/oneshot-dist-patterns"
python3 - "$SMOKE_DIR/dist-stats.json" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    stats = json.load(f)
assert stats["run"] == "dist", stats["run"]
meta = stats["meta"]
assert meta["shards_merged"] == "6", meta
assert meta["shards_missing"] == "0", meta
counters = stats["metrics"]["counters"]
# Resume re-executed only the two shards the chaos run lost: four adopted,
# shard 1 took two launches (transient exit then success), shard 4 one.
assert counters["ppm.dist.shards.adopted"] == 4, counters
assert counters["ppm.dist.shards.launched"] == 3, counters
assert counters["ppm.dist.shards.retried"] == 1, counters
assert counters["ppm.dist.shards.failed"] == 0, counters
assert counters["ppm.dist.failures.exit"] == 1, counters
print("smoke OK: dist resume adopted 4, relaunched 2, merge exact")
EOF
echo "dist chaos smoke OK: 2 workers killed mid-shard, resume + merge exact"

# Sanitizer matrix: the parallel miners, thread pool, streaming layer, and
# the corruption/fault-injection harnesses under TSan (data races), ASan
# (memory errors), and UBSan (undefined behaviour). Only the tests that
# exercise threads, tricky memory (core_tree_test: the vertical store's
# slot and column-word indexing), or hostile bytes are run -- a full suite
# per sanitizer would triple CI time for no extra coverage.
SANITIZER_TESTS='util_thread_pool_test|util_bytes_test|util_crc32c_test|format_golden_test|core_tree_test|core_letter_counts_test|core_f1_scan_test|core_maximal_miner_test|parallel_mine_test|differential_test|determinism_test|boundary_test|stream_test|tsdb_corruption_test|tsdb_fault_injection_test|fault_tolerance_test|tsdb_wal_test|stream_checkpoint_test|incremental_equivalence_test|cli_stream_test|service_store_test|service_cache_test|service_wire_test|service_admission_test|ppmd_server_test|serving_differential_test|serving_soak_test|service_robustness_test|dist_plan_test|dist_merge_test|dist_corruption_test|dist_coordinator_test'
if [[ "$SANITIZERS" == "1" ]]; then
  for sanitizer in thread address undefined; do
    SAN_DIR="$BUILD_DIR-$sanitizer"
    echo "=== sanitizer matrix: $sanitizer ==="
    cmake -B "$SAN_DIR" -G Ninja \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DPPM_SANITIZE="$sanitizer"
    cmake --build "$SAN_DIR"
    ctest --test-dir "$SAN_DIR" -R "$SANITIZER_TESTS" --output-on-failure
  done
fi

echo "CI OK"
