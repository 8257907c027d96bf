#!/usr/bin/env bash
# Record (or gate against) the serving layer's metrics baseline.
#
# Stamp mode (default) runs a deterministic chaos drill three times —
# `wavm3-serve` with a seeded chaos profile and an effectively infinite
# breaker cooldown, `wavm3-loadgen` at concurrency 1 (total order, so
# breaker-coupled outcomes depend only on the request sequence) with
# `--truth` so the drift windows fill — scrapes `/metrics` (which
# materialises the SLO burn-rate gauges) followed by `/debug/metrics`,
# verifies every deterministic signal (counters, histogram ladders and
# counts) agrees across the three runs, and folds the snapshot plus
# provenance stamps into BENCH_serve.json at the repo root. It also
# regenerates scripts/serve_tolerances.json, which grants every
# histogram's wall-clock `.sum` a generous relative tolerance while the
# deterministic `.count`s stay at the exact-match default.
#
# Check mode (`--check`) re-runs the identical scenario once and diffs
# the snapshot against the committed BENCH_serve.json via
# `wavm3-experiments regress`, so CI needs exactly one command:
#
#   scripts/bench_serve.sh --check
#
# Usage: scripts/bench_serve.sh [--check]

set -euo pipefail
cd "$(dirname "$0")/.."

MODE=stamp
[ "${1:-}" = "--check" ] && MODE=check

REQUESTS=40
SEED=7
RUNS=3
TMPDIR="$(mktemp -d)"
trap 'rm -rf "$TMPDIR"' EXIT

cargo build --release -q -p wavm3-serve --bin wavm3-serve --bin wavm3-loadgen
if [ "$MODE" = check ]; then
    cargo build --release -q -p wavm3-experiments
fi

# One drill: chaos-heavy server, sequential seeded load, two scrapes.
# $1 = run tag; writes $TMPDIR/metrics$1.json.
run_scenario() {
    local tag="$1"
    local log="$TMPDIR/serve$tag.log"
    ./target/release/wavm3-serve --addr 127.0.0.1:0 \
        --chaos-seed 99 --chaos-latency 0.3 \
        --chaos-latency-min 1 --chaos-latency-max 5 \
        --chaos-error 0.15 --chaos-drop 0.05 \
        --breaker-threshold 3 --breaker-cooldown-ms 3600000 --breaker-probes 2 \
        --slo-p99-ms 60000 \
        > "$log" 2>&1 &
    local pid=$!
    local addr=""
    for _ in $(seq 1 100); do
        addr="$(sed -n 's/^listening on //p' "$log")"
        [ -n "$addr" ] && break
        sleep 0.1
    done
    [ -n "$addr" ] || { cat "$log"; echo "server never bound"; exit 1; }
    ./target/release/wavm3-loadgen --addr "$addr" \
        --requests "$REQUESTS" --concurrency 1 --seed "$SEED" \
        --deadline-ms 5000 --retries 4 \
        --backoff-ms 1 --multiplier 1 --jitter-ms 1 \
        --truth > "$TMPDIR/loadgen$tag.log"
    grep "^counts:" "$TMPDIR/loadgen$tag.log"
    # /metrics refreshes the SLO gauges into the registry; only then is
    # the /debug/metrics snapshot complete.
    curl -sf "http://$addr/metrics" > /dev/null
    curl -sf "http://$addr/debug/metrics" > "$TMPDIR/metrics$tag.json"
    kill -TERM "$pid"
    wait "$pid"
}

if [ "$MODE" = check ]; then
    run_scenario check
    ./target/release/wavm3-experiments regress \
        --baseline BENCH_serve.json --current "$TMPDIR/metricscheck.json" \
        --tolerances scripts/serve_tolerances.json
    exit 0
fi

for i in $(seq 1 "$RUNS"); do
    echo "drill $i/$RUNS"
    run_scenario "$i"
done

GIT_SHA="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
RUSTC="$(rustc --version)"

TMPDIR="$TMPDIR" RUNS="$RUNS" SEED="$SEED" REQUESTS="$REQUESTS" \
GIT_SHA="$GIT_SHA" RUSTC="$RUSTC" python3 - <<'PY'
import json, os

tmp = os.environ["TMPDIR"]
runs = int(os.environ["RUNS"])
snapshots = []
for i in range(1, runs + 1):
    with open(f"{tmp}/metrics{i}.json") as f:
        snapshots.append(json.load(f))

# Counters, histogram ladders and histogram *totals* are deterministic
# under the sequential drill (per-bucket distributions shift with
# wall-clock); refuse to stamp a baseline otherwise.
for i, snap in enumerate(snapshots[1:], start=2):
    if snap["counters"] != snapshots[0]["counters"]:
        raise SystemExit(f"non-deterministic counters: run 1 vs run {i}")
    shape = lambda s: {
        name: (h["bounds"], h["count"]) for name, h in s["histograms"].items()
    }
    if shape(snap) != shape(snapshots[0]):
        raise SystemExit(f"non-deterministic histogram counts: run 1 vs run {i}")

metrics = snapshots[0]
red = [name for name in metrics["histograms"] if name.startswith("serve.red.")]
if not red:
    raise SystemExit("drill recorded no serve.red.* families")
error_red = [n for n in red if any(c in n for c in (".429.", ".503.", ".5xx.", ".drop."))]
if not error_red:
    raise SystemExit("chaos drill produced no error-class RED families")

baseline = {
    "benchmark": "wavm3-serve chaos drill (%s requests, concurrency 1, "
    "chaos seed 99, breaker cooldown 1h; scripts/bench_serve.sh)"
    % os.environ["REQUESTS"],
    "git_sha": os.environ["GIT_SHA"],
    "rustc": os.environ["RUSTC"],
    "seed": int(os.environ["SEED"]),
    "requests": int(os.environ["REQUESTS"]),
    "bench_runs": runs,
    "metrics": metrics,
}
with open("BENCH_serve.json", "w") as f:
    json.dump(baseline, f, indent=2, sort_keys=True)
    f.write("\n")

# Histogram counts are gated exactly; their sums are wall-clock
# durations, so each gets a generous per-metric relative tolerance.
tolerances = {f"{name}.sum": 50.0 for name in sorted(metrics["histograms"])}
with open("scripts/serve_tolerances.json", "w") as f:
    json.dump(tolerances, f, indent=2, sort_keys=True)
    f.write("\n")

print(
    "wrote BENCH_serve.json (%d counters, %d RED families of which %d "
    "error-class, %d gauges) and scripts/serve_tolerances.json"
    % (len(metrics["counters"]), len(red), len(error_red), len(metrics["gauges"]))
)
PY
