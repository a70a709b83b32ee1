#!/bin/sh
# Tier-1 verify: the exact line ROADMAP.md pins, wrapped so CI and
# humans run the same thing. Any argument is forwarded to ctest
# (e.g. `tools/tier1.sh -L inject`).
set -e
cd "$(dirname "$0")/.."
cmake -B build -S .
cmake --build build -j
cd build
ctest --output-on-failure -j "$@"

# Slowpath equivalence: rerun the hot-path checks with
# SIMALPHA_SLOWPATH=1, which executes the original per-cycle scans
# beside every cached wakeup/index value and asserts they agree
# (about 25 s).
SIMALPHA_SLOWPATH=1 ctest --output-on-failure -L perf

# Wait until the daemon on store $1 answers a health request, polling
# for up to 60 s: a slow host delays start-up, it does not fail it.
wait_healthy() {
    deadline=$(($(date +%s) + 60))
    until ./tools/simalpha submit --store "$1" --op health \
            > /dev/null 2>&1; do
        if [ "$(date +%s)" -ge "$deadline" ]; then
            echo "daemon on $1 not healthy after 60 s" >&2
            return 1
        fi
        sleep 0.1
    done
}

# Serve smoke: daemon up, one capped campaign through the socket,
# clean shutdown — the CLI path the ctest suite exercises in-process.
SERVE_DIR=$(mktemp -d /tmp/simalpha-tier1-serve-XXXXXX)
trap 'rm -rf "$SERVE_DIR"' EXIT
./tools/simalpha serve --store "$SERVE_DIR/store" --jobs 2 \
    > "$SERVE_DIR/serve.log" 2>&1 &
SERVE_PID=$!
wait_healthy "$SERVE_DIR/store"
./tools/simalpha submit --store "$SERVE_DIR/store" \
    --campaign smoke --max-insts 20000 --quiet --timeout 120
./tools/simalpha submit --store "$SERVE_DIR/store" --op shutdown \
    > /dev/null
wait "$SERVE_PID"
echo "serve smoke: OK"

# Fleet smoke: two loopback worker daemons behind a fleet front-end.
# The merged stream must be byte-identical to a single-host --jobs 1
# run — the fleet's spec-order merge barrier is exactly that order.
FLEET_DIR=$(mktemp -d /tmp/simalpha-tier1-fleet-XXXXXX)
trap 'rm -rf "$SERVE_DIR" "$FLEET_DIR"' EXIT
./tools/simalpha serve --store "$FLEET_DIR/ref" --jobs 1 \
    > "$FLEET_DIR/ref.log" 2>&1 &
REF_PID=$!
wait_healthy "$FLEET_DIR/ref"
./tools/simalpha submit --store "$FLEET_DIR/ref" --campaign smoke \
    --max-insts 20000 --out "$FLEET_DIR/ref.jsonl" --quiet \
    --timeout 120
./tools/simalpha submit --store "$FLEET_DIR/ref" --op shutdown \
    > /dev/null
wait "$REF_PID"
./tools/simalpha serve --store "$FLEET_DIR/w0" --jobs 2 \
    > "$FLEET_DIR/w0.log" 2>&1 &
W0_PID=$!
./tools/simalpha serve --store "$FLEET_DIR/w1" --jobs 2 \
    > "$FLEET_DIR/w1.log" 2>&1 &
W1_PID=$!
wait_healthy "$FLEET_DIR/w0"
wait_healthy "$FLEET_DIR/w1"
./tools/simalpha fleet --store "$FLEET_DIR/front" \
    --workers "$FLEET_DIR/w0/serve.sock,$FLEET_DIR/w1/serve.sock" \
    > "$FLEET_DIR/fleet.log" 2>&1 &
FLEET_PID=$!
wait_healthy "$FLEET_DIR/front"
./tools/simalpha submit --store "$FLEET_DIR/front" --campaign smoke \
    --max-insts 20000 --out "$FLEET_DIR/fleet.jsonl" --quiet \
    --timeout 120
./tools/simalpha submit --store "$FLEET_DIR/front" --op shutdown \
    > /dev/null
wait "$FLEET_PID"
./tools/simalpha submit --store "$FLEET_DIR/w0" --op shutdown \
    > /dev/null
./tools/simalpha submit --store "$FLEET_DIR/w1" --op shutdown \
    > /dev/null
wait "$W0_PID" "$W1_PID"
cmp "$FLEET_DIR/ref.jsonl" "$FLEET_DIR/fleet.jsonl"
echo "fleet smoke: OK (2-worker stream byte-identical)"

# Bench smoke: re-measure the detailed, abstract and emulator rows
# against the pinned baseline in BENCH_perf.json at the repo root and
# fail on a >20% ips regression. When the local build type differs
# from the baseline's, the ratios are reported but not enforced.
(cd .. && ./build/tools/simalpha bench --smoke)
echo "bench smoke: OK"
