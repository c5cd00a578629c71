#!/usr/bin/env bash
# Smoke test: configure, build, run the unit/integration test suite,
# exercise the parallel experiment runner end-to-end with one quick
# bench sweep that must emit JSON/CSV results, record a trace and
# verify replaying it (standalone and through a bench grid) works,
# then start the simulation service on a Unix socket, submit a grid
# through it, and assert the results are byte-identical to the same
# grid run in-process.
#
# Usage: scripts/smoke.sh [build-dir]
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

echo "== configure =="
cmake -B "$BUILD_DIR" -S .

echo "== build =="
cmake --build "$BUILD_DIR" -j

echo "== ctest =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

echo "== shotgun-lint: tree green, unlisted members fail =="
# The tree must be lint-clean, and the linter must demonstrably
# still have teeth: in a scratch copy, add a member to Core beside
# the source and scheme (outside CoreState, which the clone
# constructor copies whole) without cloning it, and a member to the
# `done` frame without its wire key, and assert shotgun-lint fails
# with a clone-completeness finding (the exact
# silent-restore-divergence bug the check exists to catch) and a
# codec-coverage finding (a frame member no peer would ever see).
python3 tools/lint/shotgun_lint.py --root .

LINT_SCRATCH="$BUILD_DIR/smoke/lint_mutation"
rm -rf "$LINT_SCRATCH"
mkdir -p "$LINT_SCRATCH/tools"
cp -r src "$LINT_SCRATCH/src"
cp -r tools/lint "$LINT_SCRATCH/tools/lint"
grep -q '^    std::unique_ptr<Scheme> scheme_;$' \
    "$LINT_SCRATCH/src/cpu/core.hh" || {
    echo "Core's scheme_ member not found in core.hh" >&2
    exit 1
}
sed -i 's/^    std::unique_ptr<Scheme> scheme_;$/&\n    std::uint64_t uncloned_ = 0;/' \
    "$LINT_SCRATCH/src/cpu/core.hh"
DONE_MESSAGE='^    std::string message; ///< Failure detail for "error".$'
grep -q "$DONE_MESSAGE" "$LINT_SCRATCH/src/service/protocol.hh" || {
    echo "DoneEvent's message member not found in protocol.hh" >&2
    exit 1
}
sed -i "s|$DONE_MESSAGE|&\n    std::uint64_t unlisted_ = 0;|" \
    "$LINT_SCRATCH/src/service/protocol.hh"
LINT_RC=0
python3 tools/lint/shotgun_lint.py --root "$LINT_SCRATCH" \
    > "$LINT_SCRATCH/findings.txt" 2> /dev/null || LINT_RC=$?
test "$LINT_RC" -eq 1 || {
    echo "shotgun-lint exited $LINT_RC on the mutated tree" \
         "(expected 1)" >&2
    exit 1
}
grep -q "clone-completeness.*'uncloned_' of Core" \
    "$LINT_SCRATCH/findings.txt"
grep -q "codec-coverage.*'unlisted_' of DoneEvent" \
    "$LINT_SCRATCH/findings.txt"
rm -rf "$LINT_SCRATCH"

echo "== bench smoke (fig7, --quick --jobs 2) =="
OUT="$BUILD_DIR/smoke/fig7_speedup"
"$BUILD_DIR/bench_figures" fig7_speedup --quick --jobs 2 \
    --workload nutch --no-progress --out "$BUILD_DIR/smoke"

for ext in json csv; do
    test -s "$OUT.$ext" || {
        echo "missing result file $OUT.$ext" >&2
        exit 1
    }
done
grep -q '"experiment": "fig7_speedup"' "$OUT.json"
grep -q '"label": "shotgun"' "$OUT.json"

echo "== trace record -> replay -> verify =="
TRACE="$BUILD_DIR/smoke/nutch.trace"
"$BUILD_DIR/shotgun-trace" record nutch "$TRACE" \
    --warmup 100000 --instructions 200000
"$BUILD_DIR/shotgun-trace" info "$TRACE" | grep -q "workload.*nutch"
"$BUILD_DIR/shotgun-trace" replay "$TRACE" \
    --warmup 100000 --instructions 200000 --scheme shotgun

# Sweep the recorded trace through a bench grid...
TRACE_OUT="$BUILD_DIR/smoke/trace"
"$BUILD_DIR/bench_figures" fig7_speedup --workload "trace:$TRACE" \
    --warmup 100000 --instructions 200000 --jobs 2 --no-progress \
    --out "$TRACE_OUT"
grep -q '"workload": "nutch"' "$TRACE_OUT/fig7_speedup.json"

# ...and verify replay is bit-identical to live generation
# (trace_tools exits non-zero on divergence).
"$BUILD_DIR/trace_tools" nutch 100000 "$BUILD_DIR/smoke/verify.trace" \
    | grep -q "OK: file replay is bit-identical"

echo "== tool CLI conventions (--help 0 / --version 0 / bad usage 2) =="
expect_usage_error() { # expect_usage_error TOOL [args...]
    local rc=0
    "$BUILD_DIR/$1" "${@:2}" > /dev/null 2>&1 || rc=$?
    test "$rc" -eq 2 || {
        echo "$*: exited $rc, expected 2 (usage error)" >&2
        exit 1
    }
}
for tool in shotgun-trace shotgun-serve shotgun-submit shotgun-coord; do
    "$BUILD_DIR/$tool" --help > /dev/null
    "$BUILD_DIR/$tool" --version | grep -q "^$tool "
    expect_usage_error "$tool" --definitely-not-a-flag
done
# shotgun-submit takes exactly one of --server, --coordinator and
# --local; two (even two of the same) are a usage error, not
# last-wins. The option parser rejects them before any connect.
expect_usage_error shotgun-submit --server unix:a --coordinator unix:b
expect_usage_error shotgun-submit --server unix:a --server unix:b
expect_usage_error shotgun-submit --coordinator unix:a --local
# The examples answer --help and -h with their usage line on stdout
# and exit 0; they take no --version.
for example in quickstart btb_explorer trace_tools scheme_shootout \
        workload_studio; do
    for flag in --help -h; do
        "$BUILD_DIR/$example" "$flag" | grep -q "^usage: $example "
    done
done
# The examples parse their counts strictly: a malformed count or an
# extra argument is a usage error, never a run of some other length.
expect_usage_error quickstart nutch 10x6
expect_usage_error btb_explorer oracle 2000000 extra
expect_usage_error trace_tools apache 0
expect_usage_error scheme_shootout nutch abc
expect_usage_error workload_studio 6000 0.9x
# Each example runs once at a short length: it must exit 0 and print
# its table (workload_studio drives a conventional BTB table itself).
run_example() { # run_example NAME PATTERN [args...]
    local out="$BUILD_DIR/smoke/$1.out"
    "$BUILD_DIR/$1" "${@:3}" > "$out" 2> /dev/null
    grep -q "$2" "$out" || {
        echo "$1 ${*:3}: no '$2' line in its output" >&2
        exit 1
    }
}
run_example quickstart '^speedup over baseline: ' nutch 400000
run_example btb_explorer '^paper .*(U 1536, C 128, R 512)' oracle 200000
run_example scheme_shootout '^shotgun ' nutch 200000
run_example workload_studio '^pressure: BTB MPKI ' 6000 0.9 200000
grep -q '^  shotgun ' "$BUILD_DIR/smoke/workload_studio.out"

echo "== service: serve -> submit -> verify bitwise vs in-process =="
# Every spawned daemon registers its PID here; the EXIT trap kills
# whatever is still alive, so a failing mid-script step (set -e)
# can never leak a shotgun-serve orphan onto the CI machine.
DAEMON_PIDS=()
cleanup_daemons() {
    for pid in "${DAEMON_PIDS[@]}"; do
        kill "$pid" 2>/dev/null || true
    done
}
trap cleanup_daemons EXIT

start_serve() { # start_serve SOCKET [extra flags...]
    local sock="$1"
    shift
    "$BUILD_DIR/shotgun-serve" --listen "unix:$sock" --quiet "$@" &
    DAEMON_PIDS+=($!)
    for _ in $(seq 50); do
        [ -S "$sock" ] && return 0
        sleep 0.1
    done
    echo "daemon on $sock did not come up" >&2
    return 1
}

# A fleet step waits for its workers' slots to attach, not just for
# their sockets, so no step depends on how fast workers register.
await_parked() { # await_parked COORD_SOCKET N
    for _ in $(seq 100); do
        "$BUILD_DIR/shotgun-submit" --coordinator "unix:$1" --status \
            | grep -q "\"parked_slots\":$2," && return 0
        sleep 0.05
    done
    echo "the fleet on $1 never parked $2 slots" >&2
    return 1
}

SOCK="$BUILD_DIR/smoke/serve.sock"
GRID=(--workload nutch --schemes fdip,shotgun
      --warmup 100000 --instructions 200000 --no-progress)

start_serve "$SOCK"
"$BUILD_DIR/shotgun-submit" --server "unix:$SOCK" --ping

# The same grid through the service and fully in-process (--local):
# both must produce byte-identical JSON/CSV.
"$BUILD_DIR/shotgun-submit" --server "unix:$SOCK" "${GRID[@]}" \
    --out "$BUILD_DIR/smoke/svc_remote" > /dev/null
"$BUILD_DIR/shotgun-submit" --local "${GRID[@]}" \
    --out "$BUILD_DIR/smoke/svc_local" > /dev/null
# Resubmitted, the identical submit frame skips decoding (the
# daemon's submit memo) and every point is a result-cache hit: the
# output is still the in-process bytes.
"$BUILD_DIR/shotgun-submit" --server "unix:$SOCK" "${GRID[@]}" \
    --out "$BUILD_DIR/smoke/svc_resubmit" > /dev/null
for run in svc_remote svc_resubmit; do
    for ext in json csv; do
        cmp "$BUILD_DIR/smoke/$run.$ext" \
            "$BUILD_DIR/smoke/svc_local.$ext"
    done
done

# The 3-point grid's 3 distinct configs sit in the fingerprint
# cache, whose stats (and default 64 MiB budget) are surfaced in the
# status frame beside the submit memo's.
STATUS=$("$BUILD_DIR/shotgun-submit" --server "unix:$SOCK" --status)
echo "$STATUS" | grep -q '"cache_entries":3'
echo "$STATUS" | grep -q '"cache":{"entries":3'
echo "$STATUS" | grep -q '"cache":{[^}]*"budget_bytes":67108864,'
echo "$STATUS" | grep -q '"evictions":0'
echo "$STATUS" | grep -Eq '"submit_memo":\{[^}]*"hits":[1-9]'

# A corrupt trace fails its point, not the daemon: record 100's
# branch-type byte set to 238 (19-byte records, the type at byte 17)
# leaves the header and the file size intact, so the submit is
# admitted and the decode finds the damage. The submit exits 1
# naming the record and the daemon answers the next ping. The tools
# keep failing such a file with a fatal: line and exit 1.
CORRUPT="$BUILD_DIR/smoke/corrupt.trace"
CORRUPT_ERR="$BUILD_DIR/smoke/corrupt.err"
cp "$TRACE" "$CORRUPT"
RECORDS=$("$BUILD_DIR/shotgun-trace" info "$CORRUPT" \
              | awk '/^records/ {print $3}')
OFFSET=$(( $(stat -c %s "$CORRUPT") - RECORDS * 19 + 100 * 19 + 17 ))
printf '\356' | dd of="$CORRUPT" bs=1 seek="$OFFSET" conv=notrunc \
    status=none
expect_corrupt_failure() { # expect_corrupt_failure TOOL [args...]
    local rc=0
    "$BUILD_DIR/$1" "${@:2}" > /dev/null 2> "$CORRUPT_ERR" || rc=$?
    test "$rc" -eq 1 && grep -q "corrupt record 100" "$CORRUPT_ERR" || {
        echo "$*: exited $rc, expected 1 naming the corrupt record:" >&2
        cat "$CORRUPT_ERR" >&2
        exit 1
    }
}
expect_corrupt_failure shotgun-submit --server "unix:$SOCK" \
    --workload "trace:$CORRUPT" --schemes shotgun \
    --warmup 100000 --instructions 200000 --no-progress
"$BUILD_DIR/shotgun-submit" --server "unix:$SOCK" --ping
expect_corrupt_failure shotgun-trace replay "$CORRUPT" \
    --warmup 100000 --instructions 200000 --scheme shotgun
grep -q "^fatal:" "$CORRUPT_ERR"

"$BUILD_DIR/shotgun-submit" --server "unix:$SOCK" --shutdown
wait "${DAEMON_PIDS[0]}"

echo "== service: shutdown mid-job cancels the job, keeps its client =="
# A daemon shut down while a grid runs sends the unfinished job an
# honest `done:"cancelled"` frame, so the submit fails with that
# status (exit 1) instead of a dropped connection.
SOCK_X="$BUILD_DIR/smoke/serve_x.sock"
SUBMIT_X_ERR="$BUILD_DIR/smoke/shutdown_submit.err"
# --cache-bytes 0 lifts the default budget: an unbounded cache.
start_serve "$SOCK_X" --jobs 1 --cache-bytes 0
"$BUILD_DIR/shotgun-submit" --server "unix:$SOCK_X" --status \
    | grep -q '"cache":{[^}]*"budget_bytes":0,'
"$BUILD_DIR/shotgun-submit" --server "unix:$SOCK_X" --workload nutch \
    --schemes fdip,boomerang,confluence,shotgun,rdip \
    --warmup 100000 --instructions 4000000 --no-progress \
    > /dev/null 2> "$SUBMIT_X_ERR" &
SUBMIT_X_PID=$!
RUNNING=0
for _ in $(seq 200); do
    if "$BUILD_DIR/shotgun-submit" --server "unix:$SOCK_X" --status \
        | grep -q '"state":"running"'; then
        RUNNING=1
        break
    fi
    sleep 0.05
done
test "$RUNNING" -eq 1 || {
    echo "no running job to shut down" >&2
    exit 1
}
"$BUILD_DIR/shotgun-submit" --server "unix:$SOCK_X" --shutdown
SUBMIT_X_RC=0
wait "$SUBMIT_X_PID" || SUBMIT_X_RC=$?
test "$SUBMIT_X_RC" -eq 1 || {
    echo "submit exited $SUBMIT_X_RC, expected 1" >&2
    exit 1
}
grep -q "cancelled" "$SUBMIT_X_ERR" || {
    echo "submit did not report a cancelled job:" >&2
    cat "$SUBMIT_X_ERR" >&2
    exit 1
}

echo "== fleet: coord + 3 workers, kill one, verify bitwise =="
# A 6-point grid over a recorded trace (the baseline and five
# schemes) through the coordinator fleet: three one-slot
# shotgun-serve workers register with a shotgun-coord daemon and
# steal points from its global queue. One worker is killed once the
# first point is in, while every worker holds a point, and the
# coordinator must requeue its in-flight point on the survivors, with
# the CSV still matching the local run byte for byte. The points run
# 3M instructions each, so the kill lands mid-run. The coordinator
# writes every result through to an on-disk cache, exercised by the
# restart step below.
FTRACE="$BUILD_DIR/smoke/fleet.trace"
"$BUILD_DIR/shotgun-trace" record nutch "$FTRACE" \
    --warmup 100000 --instructions 3000000 > /dev/null
FGRID=(--workload "trace:$FTRACE" --schemes fdip,boomerang,confluence,shotgun,rdip
       --warmup 100000 --instructions 3000000)
"$BUILD_DIR/shotgun-submit" --local "${FGRID[@]}" --no-progress \
    --out "$BUILD_DIR/smoke/fleet_local" > /dev/null
COORD_SOCK="$BUILD_DIR/smoke/coord.sock"
FLEET_CACHE="$BUILD_DIR/smoke/fleet_cache"
rm -rf "$FLEET_CACHE"
"$BUILD_DIR/shotgun-coord" --listen "unix:$COORD_SOCK" --quiet \
    --heartbeat-ms 200 --cache-dir "$FLEET_CACHE" &
DAEMON_PIDS+=($!)
for _ in $(seq 50); do
    [ -S "$COORD_SOCK" ] && break
    sleep 0.1
done
[ -S "$COORD_SOCK" ] || {
    echo "shotgun-coord did not come up" >&2
    exit 1
}

SOCK_F1="$BUILD_DIR/smoke/serve_f1.sock"
SOCK_F2="$BUILD_DIR/smoke/serve_f2.sock"
SOCK_F3="$BUILD_DIR/smoke/serve_f3.sock"
for i in 1 2 3; do
    eval "sock=\$SOCK_F$i"
    start_serve "$sock" --coordinator "unix:$COORD_SOCK" \
        --name "smoke-w$i" --heartbeat-ms 200 --jobs 1
done
FLEET_VICTIM_PID="${DAEMON_PIDS[-1]}"
await_parked "$COORD_SOCK" 3

FLEET_PROGRESS="$BUILD_DIR/smoke/fleet_run.progress"
"$BUILD_DIR/shotgun-submit" --coordinator "unix:$COORD_SOCK" \
    "${FGRID[@]}" --out "$BUILD_DIR/smoke/fleet_run" > /dev/null \
    2> "$FLEET_PROGRESS" &
SUBMIT_PID=$!
for _ in $(seq 500); do
    grep -q "points complete" "$FLEET_PROGRESS" && break
    sleep 0.01
done
grep -q "\[6/6\] points complete" "$FLEET_PROGRESS" && {
    echo "the fleet grid finished before a worker was killed" >&2
    exit 1
}
kill "$FLEET_VICTIM_PID" 2>/dev/null || true
wait "$SUBMIT_PID"
cmp "$BUILD_DIR/smoke/fleet_run.csv" "$BUILD_DIR/smoke/fleet_local.csv"

# The metrics frame renders per-worker rows and fleet cache stats.
FLEET_STATUS=$("$BUILD_DIR/shotgun-submit" \
    --coordinator "unix:$COORD_SOCK" --fleet-status)
echo "$FLEET_STATUS" | grep -q "queue depth"
echo "$FLEET_STATUS" | grep -q "coordinator cache:"
echo "$FLEET_STATUS" | grep -q "smoke-w"

# The same grid again: the coordinator's submit memo skips decoding
# the identical frame, and the result cache answers every point.
"$BUILD_DIR/shotgun-submit" --coordinator "unix:$COORD_SOCK" \
    "${FGRID[@]}" --no-progress \
    --out "$BUILD_DIR/smoke/fleet_resubmit" > /dev/null
cmp "$BUILD_DIR/smoke/fleet_resubmit.csv" \
    "$BUILD_DIR/smoke/fleet_local.csv"
"$BUILD_DIR/shotgun-submit" --coordinator "unix:$COORD_SOCK" \
    --status | grep -Eq '"submit_memo":\{[^}]*"hits":[1-9]'

echo "== fleet: persistent cache answers across a coord restart =="
# Stop the whole fleet, then restart only the coordinator on the
# same --cache-dir with zero workers: the resubmitted grid must be
# answered entirely from the on-disk result cache, byte-identically.
"$BUILD_DIR/shotgun-submit" --server "unix:$SOCK_F1" --shutdown
"$BUILD_DIR/shotgun-submit" --server "unix:$SOCK_F2" --shutdown
"$BUILD_DIR/shotgun-submit" --coordinator "unix:$COORD_SOCK" --shutdown
sleep 0.3

"$BUILD_DIR/shotgun-coord" --listen "unix:$COORD_SOCK" --quiet \
    --heartbeat-ms 200 --cache-dir "$FLEET_CACHE" &
DAEMON_PIDS+=($!)
for _ in $(seq 50); do
    "$BUILD_DIR/shotgun-submit" --coordinator "unix:$COORD_SOCK" \
        --ping > /dev/null 2>&1 && break
    sleep 0.1
done
"$BUILD_DIR/shotgun-submit" --coordinator "unix:$COORD_SOCK" \
    "${FGRID[@]}" --no-progress \
    --out "$BUILD_DIR/smoke/fleet_cached" > /dev/null
cmp "$BUILD_DIR/smoke/fleet_cached.csv" "$BUILD_DIR/smoke/fleet_local.csv"
"$BUILD_DIR/shotgun-submit" --coordinator "unix:$COORD_SOCK" \
    --fleet-status | grep -q "(no workers registered)"
"$BUILD_DIR/shotgun-submit" --coordinator "unix:$COORD_SOCK" --shutdown

echo "== fleet: coord + 2 workers, one cross-process trace =="
# A traced fleet run: the client mints one trace id (--trace-out),
# the coordinator stamps it on every stolen point, and the workers
# ship their simulation spans back, so the coordinator's trace file
# holds spans from all three processes under the one id -- while the
# grid's CSV output stays byte-identical to the untraced local run
# (tracing is trajectory-invisible by contract, src/obs/README.md).
COORD_T_SOCK="$BUILD_DIR/smoke/coord_t.sock"
COORD_TRACE="$BUILD_DIR/smoke/coord_trace.json"
SUBMIT_TRACE="$BUILD_DIR/smoke/submit_trace.json"
"$BUILD_DIR/shotgun-coord" --listen "unix:$COORD_T_SOCK" --quiet \
    --heartbeat-ms 200 --trace-out "$COORD_TRACE" &
COORD_T_PID=$!
DAEMON_PIDS+=($COORD_T_PID)
for _ in $(seq 50); do
    [ -S "$COORD_T_SOCK" ] && break
    sleep 0.1
done
SOCK_T1="$BUILD_DIR/smoke/serve_t1.sock"
SOCK_T2="$BUILD_DIR/smoke/serve_t2.sock"
start_serve "$SOCK_T1" --coordinator "unix:$COORD_T_SOCK" \
    --name trace-w1 --heartbeat-ms 200 --jobs 1
start_serve "$SOCK_T2" --coordinator "unix:$COORD_T_SOCK" \
    --name trace-w2 --heartbeat-ms 200 --jobs 1
# Both slots must be parked (stealing) before the traced submit, so
# the coordinator hands each of them a point and both workers' lanes
# land in the trace.
await_parked "$COORD_T_SOCK" 2

"$BUILD_DIR/shotgun-submit" --coordinator "unix:$COORD_T_SOCK" \
    "${GRID[@]}" --trace-out "$SUBMIT_TRACE" \
    --out "$BUILD_DIR/smoke/traced_run" > /dev/null
cmp "$BUILD_DIR/smoke/traced_run.csv" "$BUILD_DIR/smoke/svc_local.csv"
grep -q '"timing"' "$BUILD_DIR/smoke/traced_run.json"

"$BUILD_DIR/shotgun-submit" --server "unix:$SOCK_T1" --shutdown
"$BUILD_DIR/shotgun-submit" --server "unix:$SOCK_T2" --shutdown
"$BUILD_DIR/shotgun-submit" --coordinator "unix:$COORD_T_SOCK" \
    --shutdown
wait "$COORD_T_PID" 2>/dev/null || true

# Both trace files are valid JSON...
python3 -m json.tool "$COORD_TRACE" > /dev/null
python3 -m json.tool "$SUBMIT_TRACE" > /dev/null
# ...the coordinator's holds lanes from all three processes and the
# full per-point phase span set...
for proc in coord trace-w1 trace-w2; do
    grep -q "\"name\":\"$proc\"" "$COORD_TRACE"
done
for span in decode measure queued emit; do
    grep -q "\"name\":\"$span\"" "$COORD_TRACE"
done
grep -Eq '"name":"(warmup|restore)"' "$COORD_TRACE"
# ...and every span everywhere carries the client's single trace id.
TRACE_IDS=$(grep -o '"trace_id":[0-9]*' "$COORD_TRACE" \
                "$SUBMIT_TRACE" | cut -d: -f3 | sort -u)
test "$(echo "$TRACE_IDS" | wc -l)" -eq 1 || {
    echo "expected one shared trace id, got: $TRACE_IDS" >&2
    exit 1
}

echo "== one-pass grid: shared decode + warmed checkpoints, bitwise =="
# A 6-scheme grid over one recorded trace must be byte-identical to
# running the six points one at a time in separate processes (where
# no cross-point reuse is possible): the gate/checkpoint machinery
# is trajectory-invisible by contract (src/sim/README.md).
ALL_SCHEMES=baseline,fdip,boomerang,confluence,shotgun,rdip
CGRID=(--workload "trace:$TRACE" --warmup 100000
       --instructions 200000 --no-progress)
"$BUILD_DIR/shotgun-submit" --local "${CGRID[@]}" \
    --schemes "$ALL_SCHEMES" \
    --out "$BUILD_DIR/smoke/cohort_grid" > /dev/null
head -n 1 "$BUILD_DIR/smoke/cohort_grid.csv" \
    > "$BUILD_DIR/smoke/point_grid.csv"
for scheme in ${ALL_SCHEMES//,/ }; do
    "$BUILD_DIR/shotgun-submit" --local "${CGRID[@]}" \
        --schemes "$scheme" \
        --out "$BUILD_DIR/smoke/point_$scheme" > /dev/null
    # Keep only the point's own row: a single-scheme submit also
    # simulates the implicit baseline for the speedup column.
    tail -n 1 "$BUILD_DIR/smoke/point_$scheme.csv" \
        >> "$BUILD_DIR/smoke/point_grid.csv"
done
cmp "$BUILD_DIR/smoke/cohort_grid.csv" "$BUILD_DIR/smoke/point_grid.csv"

# Through the service the status frame proves the reuse: the grid
# decoded the trace once and simulated each scheme's warmup once
# (6 misses, one per checkpoint key); a second grid with a shorter
# measure phase shares those keys and restores all six warmups.
SOCK_G="$BUILD_DIR/smoke/serve_g.sock"
start_serve "$SOCK_G"
"$BUILD_DIR/shotgun-submit" --server "unix:$SOCK_G" "${CGRID[@]}" \
    --schemes "$ALL_SCHEMES" \
    --out "$BUILD_DIR/smoke/cohort_svc" > /dev/null
cmp "$BUILD_DIR/smoke/cohort_svc.csv" "$BUILD_DIR/smoke/cohort_grid.csv"
"$BUILD_DIR/shotgun-submit" --server "unix:$SOCK_G" --status \
    | grep -q '"checkpoint":{"entries":6,[^}]*"hits":0,"misses":6'
"$BUILD_DIR/shotgun-submit" --server "unix:$SOCK_G" --status \
    | grep -q '"traces":{"entries":1,[^}]*"decodes":1'
# Stored state costs what the run touched: the six warmed cores are
# charged about 3.1 MB together (resident cache lines, scheme heaps,
# outcome logs). The bound sits midway to the ~15 MB that a
# capacity-sized LLC line array per core costs.
"$BUILD_DIR/shotgun-submit" --server "unix:$SOCK_G" --status \
    | python3 -c '
import json, sys
stored = json.load(sys.stdin)["server"]["checkpoint"]["bytes"]
if stored >= 9000000:
    sys.exit("6 warmed checkpoints charged %d bytes (bound 9000000)"
             % stored)
'
# The grid built one program image (nutch, the trace's program). In
# 20-byte basic-block records allocated once it holds about 29 bytes
# per static basic block with its indices; the bound sits midway to
# the ~72 bytes of 40-byte records grown by doubling, and a build
# reservation left unreleased would trip it too.
"$BUILD_DIR/shotgun-submit" --server "unix:$SOCK_G" --status \
    | python3 -c '
import json, sys
programs = json.load(sys.stdin)["server"]["programs"]
if programs["count"] != 1:
    sys.exit("expected one program image, status shows %d"
             % programs["count"])
per_bb = programs["bytes"] / programs["static_bbs"]
if per_bb >= 50:
    sys.exit("program image holds %.1f bytes per static basic block "
             "(bound 50)" % per_bb)
'
"$BUILD_DIR/shotgun-submit" --server "unix:$SOCK_G" "${CGRID[@]}" \
    --schemes "$ALL_SCHEMES" --instructions 100000 \
    --out "$BUILD_DIR/smoke/cohort_rerun" > /dev/null
"$BUILD_DIR/shotgun-submit" --server "unix:$SOCK_G" --status \
    | grep -q '"checkpoint":{"entries":6,[^}]*"hits":6,"misses":6'
"$BUILD_DIR/shotgun-submit" --server "unix:$SOCK_G" --shutdown

# A bounded cache on a live daemon evicts instead of growing: a
# result is charged about 570 bytes, so a 600-byte budget keeps one
# of the 3-point grid's results and evicts the other two.
SOCK_C="$BUILD_DIR/smoke/serve_c.sock"
start_serve "$SOCK_C" --cache-bytes 600
"$BUILD_DIR/shotgun-submit" --server "unix:$SOCK_C" "${GRID[@]}" \
    > /dev/null
"$BUILD_DIR/shotgun-submit" --server "unix:$SOCK_C" --status \
    | grep -q '"cache":{"entries":1,[^}]*"evictions":2'

echo "== uarch probes: report conserves, outputs trajectory-invisible =="
# Probed local run: --uarch-report must be valid JSON whose
# conservation flag holds (every measured cycle is active or charged
# to exactly one stall cause), the CSV must be byte-identical to the
# probe-free run of the same grid (probes are observer-only,
# src/obs/README.md "uarch probes"), and the row JSON gains its
# optional "uarch" member only when probed.
UARCH_REPORT="$BUILD_DIR/smoke/uarch_report.json"
"$BUILD_DIR/shotgun-submit" --local "${GRID[@]}" \
    --out "$BUILD_DIR/smoke/uarch_local" \
    --uarch-report "$UARCH_REPORT" > /dev/null
python3 -m json.tool "$UARCH_REPORT" > /dev/null
grep -q '"conserves":true' "$UARCH_REPORT"
if grep -q '"conserves":false' "$UARCH_REPORT"; then
    echo "uarch report has a non-conserved row" >&2
    exit 1
fi
cmp "$BUILD_DIR/smoke/uarch_local.csv" "$BUILD_DIR/smoke/svc_local.csv"
grep -q '"uarch"' "$BUILD_DIR/smoke/uarch_local.json"
if grep -q '"uarch"' "$BUILD_DIR/smoke/svc_local.json"; then
    echo "probe-free row JSON must not carry a uarch member" >&2
    exit 1
fi

# The same probed grid through a coordinator and two workers: the
# breakdown rides the result frames' optional "uarch" member home,
# so the fleet's report (and CSV) must match the local ones byte for
# byte.
COORD_U_SOCK="$BUILD_DIR/smoke/coord_u.sock"
"$BUILD_DIR/shotgun-coord" --listen "unix:$COORD_U_SOCK" --quiet \
    --heartbeat-ms 200 &
DAEMON_PIDS+=($!)
for _ in $(seq 50); do
    [ -S "$COORD_U_SOCK" ] && break
    sleep 0.1
done
SOCK_U1="$BUILD_DIR/smoke/serve_u1.sock"
SOCK_U2="$BUILD_DIR/smoke/serve_u2.sock"
start_serve "$SOCK_U1" --coordinator "unix:$COORD_U_SOCK" \
    --name uarch-w1 --heartbeat-ms 200 --jobs 1
start_serve "$SOCK_U2" --coordinator "unix:$COORD_U_SOCK" \
    --name uarch-w2 --heartbeat-ms 200 --jobs 1
await_parked "$COORD_U_SOCK" 2
"$BUILD_DIR/shotgun-submit" --coordinator "unix:$COORD_U_SOCK" \
    "${GRID[@]}" --out "$BUILD_DIR/smoke/uarch_fleet" \
    --uarch-report "$BUILD_DIR/smoke/uarch_fleet_report.json" \
    > /dev/null
cmp "$BUILD_DIR/smoke/uarch_fleet.csv" "$BUILD_DIR/smoke/svc_local.csv"
cmp "$BUILD_DIR/smoke/uarch_fleet_report.json" "$UARCH_REPORT"

"$BUILD_DIR/shotgun-submit" --server "unix:$SOCK_U1" --shutdown
"$BUILD_DIR/shotgun-submit" --server "unix:$SOCK_U2" --shutdown
"$BUILD_DIR/shotgun-submit" --coordinator "unix:$COORD_U_SOCK" \
    --shutdown
"$BUILD_DIR/shotgun-submit" --server "unix:$SOCK_C" --shutdown
wait "${DAEMON_PIDS[@]:1}" 2>/dev/null || true

echo "smoke OK"
