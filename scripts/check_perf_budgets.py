#!/usr/bin/env python3
"""Gate per-stage self-time budgets for the analytic campaign path.

Reads the `profile.json` (call-tree snapshot) and `summary.json` written
by `wavm3-experiments profile --profile-out DIR`, aggregates self time by scope name,
normalises it to microseconds per profiled migration run, and compares
each stage against the budget table below. On any breach the full
hotspot diff is printed and the process exits non-zero, so the CI job
fails with the regression visible in the log.

The budgets are deliberately loose (~5x the locally measured release
numbers) to absorb shared-runner noise: they catch order-of-magnitude
regressions — an accidentally quadratic tick loop, a cache that stopped
hitting — not single-digit-percent drift, which `bench_baseline.sh` and
the throughput gate track instead.

Usage: check_perf_budgets.py <profile-dir>
"""

import json
import sys

# Self-time budgets in microseconds per profiled migration run, keyed by
# scope name (aggregated over every tree node with that name). Locally
# measured release values are in the comments.
BUDGETS_US_PER_RUN = {
    "analytic.tick_loop": 200.0,  # ~33 us/run locally
    "migration.run.analytic": 10.0,  # ~1.2 us/run locally (self, excl. children)
    "analytic.finalise": 10.0,  # ~0.9 us/run locally
    # The arena-reusing repetition engine: per-rep setup/teardown is gone,
    # so the repetition scope itself must stay within noise of zero.
    "runner.repetition": 2.0,  # ~0.2 us/run locally (self, excl. children)
    "runner.shard": 2.0,  # ~0.2 us/run locally (shard dispatch per scenario)
    "runner.merge": 2.0,  # ~0.3 us/run locally (deterministic drain per scenario)
}

# The profiler must account for nearly all of the campaign wall time on
# the single-threaded `profile` run (acceptance: within 5%).
COVERAGE_PCT_RANGE = (95.0, 105.0)


def aggregate_self_ns(profile):
    """scope name -> summed self_ns over every node with that name."""
    acc = {}

    def walk(node):
        acc[node["name"]] = acc.get(node["name"], 0) + node["self_ns"]
        for child in node.get("children", []):
            walk(child)

    for root in profile.get("roots", []):
        walk(root)
    return acc


def main():
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    prof_dir = sys.argv[1]
    with open(f"{prof_dir}/profile.json") as f:
        profile = json.load(f)
    with open(f"{prof_dir}/summary.json") as f:
        summary = json.load(f)

    runs = summary.get("runs", 0)
    if runs == 0:
        raise SystemExit("no profiled migration runs in summary.json")

    self_ns = aggregate_self_ns(profile)
    rows = []
    breached = []
    for stage, budget in sorted(BUDGETS_US_PER_RUN.items()):
        got = self_ns.get(stage, 0) / 1e3 / runs
        over = got > budget
        rows.append((stage, got, budget, over))
        if over:
            breached.append(stage)

    print(f"{'stage':<28} {'us/run':>10} {'budget':>10}  verdict")
    for stage, got, budget, over in rows:
        verdict = "OVER BUDGET" if over else "ok"
        print(f"{stage:<28} {got:>10.2f} {budget:>10.2f}  {verdict}")

    coverage = summary.get("coverage_pct", 0.0)
    lo, hi = COVERAGE_PCT_RANGE
    print(f"\nprofiler coverage: {coverage:.1f}% of wall (required {lo}-{hi}%)")

    ok = True
    if breached:
        ok = False
        print("\nper-stage budget regression — hotspot diff:")
        for stage, got, budget, _ in rows:
            delta = got - budget
            print(
                f"  {stage}: {got:.2f} us/run vs budget {budget:.2f} "
                f"({'+' if delta > 0 else ''}{delta:.2f})"
            )
    if not (lo <= coverage <= hi):
        ok = False
        print(
            f"\nprofiler coverage {coverage:.1f}% outside [{lo}, {hi}]%: "
            "the call tree no longer accounts for the campaign wall time"
        )
    if not ok:
        raise SystemExit(1)
    print("ok: all stage budgets respected")


if __name__ == "__main__":
    main()
