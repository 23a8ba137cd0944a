#!/usr/bin/env python3
"""Compare bench-smoke JSON reports against their checked-in baselines.

Usage: bench_regress.py <smoke.json> <baseline.json> [<smoke2.json> <baseline2.json> ...]

Arguments are (smoke, baseline) pairs — the hot-path benches gate against
``BENCH_hotpath.json`` and the scenario suite against
``BENCH_scenario.json`` in one invocation. Each file is the
machine-readable report the criterion shim writes under ``VIF_BENCH_JSON``
(a JSON array of ``{group, bench, ns_per_iter, ...}`` objects). Benchmarks
are matched on ``(group, bench)``; a smoke result more than its tolerance
factor times slower than its baseline fails the check.

Tolerances
----------
The default threshold is ``BENCH_REGRESS_FACTOR`` (default 2.0) and is
deliberately loose: CI runners are noisy and the smoke windows are short
(``VIF_BENCH_MS=25`` in the CI step that invokes this gate — see
``.github/workflows/ci.yml``; 5 ms proved too noisy for the ~20 ns
burst-1 cells) — the gate exists to catch order-of-magnitude hot-path
regressions (a dropped ``#[inline]``, an allocation sneaking back into
the decide or logging path), not 10 % drift.

Individual benches can carry a **tighter** (or looser) tolerance via
``OVERRIDES`` below, matched on the full ``group/bench`` name first and
then on the group alone. ``telemetry_overhead`` is held to 1.5x: its
whole reason to exist is pricing the recording hot path against a ≤5 %
budget, and a cost that needs the generic 2x window to pass has already
blown that budget many times over. ``BENCH_REGRESS_OVERRIDES`` extends
or replaces entries from the environment as comma-separated
``name=factor`` pairs (e.g. ``telemetry_overhead=1.3,decide/burst_1=3``).

Machine-readable summary
------------------------
Set ``BENCH_REGRESS_JSON=<path>`` to also write the full comparison as
JSON: ``{"default_factor", "overrides", "compared", "failures",
"results": [{"group", "bench", "smoke_ns", "baseline_ns", "ratio",
"factor", "status"}]}`` where ``status`` is ``ok``, ``fail``,
``missing-smoke``, or ``missing-baseline``; compared benches also carry
``oldest_ns``, ``oldest_commit`` and ``drift_vs_oldest`` (see Trajectory).
CI archives it so regression history can be graphed without scraping logs.

A benchmark present in only one of the two files FAILS the check, in
both directions: a baseline entry that was never smoked means the gate
silently stopped covering it (a renamed or deleted bench leaves a stale
baseline), and a smoked bench with no baseline means it is running
ungated. Adding a bench therefore requires adding its baseline entry in
the same commit, and renaming or removing one requires updating the
baseline file (the refresh workflow is documented in the README's
hot-path section).

Every compared bench prints its smoke/baseline speed ratio, pass or fail,
so a green run still shows where the time went (creeping 1.4x drift is
visible in the log well before it trips its gate).

Trajectory
----------
The baselines hold one overwritten row per bench; ``BENCH_history.jsonl``
(beside them, skipped if absent) keeps the trajectory: one
``{date, commit, group, bench, ns_per_iter}`` line per bench a
hot-path-touching PR measured, before and after, appended and never
rewritten (``commit`` is a short hash, or ``pr<N>`` for the rows a
PR writes about itself). Rows with a ``workload`` field in place of
``group`` record ``vifbench`` runs and are skipped here. Beside the
latest baseline, each compared bench also prints its drift against its
**oldest** history row, so a bench that
lost 10 % in each of five PRs reads 1.6x here while every single gate
stayed green. Informational: history never fails the check, and rows of
retired benches stay in the file as the record of what they cost.
"""

import json
import os
import sys

# Per-bench tolerance factors, keyed on "group/bench" (most specific) or
# bare group name. Anything not listed uses BENCH_REGRESS_FACTOR.
OVERRIDES = {
    # The observability-cost bench gates the ≤5 % recording budget; hold
    # it well inside the generic noise window.
    "telemetry_overhead": 1.5,
}


def load(path):
    with open(path) as f:
        return {(r["group"], r["bench"]): r["ns_per_iter"] for r in json.load(f)}


def load_overrides():
    overrides = dict(OVERRIDES)
    raw = os.environ.get("BENCH_REGRESS_OVERRIDES", "")
    for entry in filter(None, (e.strip() for e in raw.split(","))):
        name, _, factor = entry.partition("=")
        try:
            overrides[name.strip()] = float(factor)
        except ValueError:
            sys.exit(f"bad BENCH_REGRESS_OVERRIDES entry {entry!r}: want name=factor")
    return overrides


def load_history():
    """Oldest history row per (group, bench): {key: (ns_per_iter, commit)}."""
    path = os.path.join(os.path.dirname(__file__), "..", "BENCH_history.jsonl")
    oldest = {}
    if os.path.exists(path):
        with open(path) as f:
            for row in map(json.loads, filter(str.strip, f)):
                if "group" not in row:
                    continue  # a vifbench workload row, not a bench row
                key = (row["group"], row["bench"])
                oldest.setdefault(key, (row["ns_per_iter"], row["commit"]))
    return oldest


def factor_for(key, default, overrides):
    group, bench = key
    full = f"{group}/{bench}"
    if full in overrides:
        return overrides[full]
    return overrides.get(group, default)


def gate(smoke_path, baseline_path, default_factor, overrides, history, results):
    smoke, baseline = load(smoke_path), load(baseline_path)
    failures = []
    compared = 0
    for key, base_ns in sorted(baseline.items()):
        name = "/".join(key)
        if key not in smoke:
            print(f"FAIL {name}: in {baseline_path} but never smoked")
            failures.append(
                f"{name}: listed in {baseline_path} but absent from "
                f"{smoke_path} — the bench was renamed or removed without "
                f"updating the baseline, or its suite did not run; "
                f"update {baseline_path} or fix the bench invocation"
            )
            results.append(
                {
                    "group": key[0],
                    "bench": key[1],
                    "smoke_ns": None,
                    "baseline_ns": base_ns,
                    "ratio": None,
                    "factor": factor_for(key, default_factor, overrides),
                    "status": "missing-smoke",
                }
            )
            continue
        smoke_ns = smoke[key]
        compared += 1
        factor = factor_for(key, default_factor, overrides)
        ratio = smoke_ns / base_ns if base_ns > 0 else float("inf")
        failed = base_ns > 0 and smoke_ns > base_ns * factor
        flag = "FAIL" if failed else "ok"
        oldest_ns, oldest_commit = history.get(key, (None, None))
        drift = smoke_ns / oldest_ns if oldest_ns else None
        since = f"; {drift:.3g}x vs oldest {oldest_ns:.1f} ns @ {oldest_commit}" if drift else ""
        print(
            f"  {flag:>4} {name}: {smoke_ns:.1f} ns vs baseline "
            f"{base_ns:.1f} ns ({ratio:.2f}x, limit {factor}x){since}"
        )
        if failed:
            failures.append(
                f"{name}: {smoke_ns:.1f} ns vs baseline "
                f"{base_ns:.1f} ns ({ratio:.2f}x > {factor}x)"
            )
        results.append(
            {
                "group": key[0],
                "bench": key[1],
                "smoke_ns": smoke_ns,
                "baseline_ns": base_ns,
                "ratio": None if base_ns <= 0 else round(ratio, 4),
                "factor": factor,
                "status": "fail" if failed else "ok",
                "oldest_ns": oldest_ns,
                "oldest_commit": oldest_commit,
                "drift_vs_oldest": None if drift is None else round(drift, 4),
            }
        )
    for key in sorted(set(smoke) - set(baseline)):
        name = "/".join(key)
        print(f"FAIL {name}: smoked but missing from {baseline_path}")
        failures.append(
            f"{name}: present in {smoke_path} but has no entry in "
            f"{baseline_path} — a new bench is running ungated; add a "
            f"baseline entry for it (see the README's baseline-refresh "
            f"workflow) in the same commit that adds the bench"
        )
        results.append(
            {
                "group": key[0],
                "bench": key[1],
                "smoke_ns": smoke[key],
                "baseline_ns": None,
                "ratio": None,
                "factor": factor_for(key, default_factor, overrides),
                "status": "missing-baseline",
            }
        )
    print(
        f"compared {compared} benchmarks from {smoke_path} "
        f"against {baseline_path} at default threshold {default_factor}x"
    )
    return failures


def main():
    args = sys.argv[1:]
    if not args or len(args) % 2 != 0:
        sys.exit(__doc__)
    default_factor = float(os.environ.get("BENCH_REGRESS_FACTOR", "2.0"))
    overrides = load_overrides()
    history = load_history()
    failures = []
    results = []
    for smoke_path, baseline_path in zip(args[::2], args[1::2]):
        failures.extend(
            gate(smoke_path, baseline_path, default_factor, overrides, history, results)
        )
    summary_path = os.environ.get("BENCH_REGRESS_JSON")
    if summary_path:
        summary = {
            "default_factor": default_factor,
            "overrides": overrides,
            "compared": sum(r["status"] in ("ok", "fail") for r in results),
            "failures": len(failures),
            "results": results,
        }
        with open(summary_path, "w") as f:
            json.dump(summary, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"summary written to {summary_path}")
    if failures:
        print("\nREGRESSIONS:")
        for f in failures:
            print(f"  {f}")
        sys.exit(1)
    print("no regressions beyond threshold")


if __name__ == "__main__":
    main()
