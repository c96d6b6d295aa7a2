#!/usr/bin/env python3
"""Compare two BENCH_*.json files and fail on timing regressions.

The bench harnesses (SweepEngine / bench/micro) write
`bench/out/BENCH_<name>.json` with a list of named entries, each
carrying a flat metrics dict. This tool matches entries by name between
a baseline and a candidate run and:

  * fails (exit 1) when any *timing* metric regresses by more than
    --threshold (default 10%),
  * fails when any --exact metric differs at all (use for cpi /
    exec_beats: the sweep engine guarantees bit-identical results, so
    any drift is a correctness bug, not noise).

Timing metrics are those whose key matches --timing-regex
(default: wall_seconds / ns_per_*). Lower is better for all of them.

Usage:
  tools/bench_diff.py baseline.json candidate.json
  tools/bench_diff.py --threshold 0.05 --exact cpi,exec_beats a.json b.json
"""

import argparse
import json
import re
import sys


KNOWN_SCHEMAS = ("lsqca-bench-v1", "lsqca-bench-v2")


def load_entries(path):
    """Load a BENCH document (v1 or v2) as {entry name: flat metrics}.

    v2 entries carry a "breakdown" array (per-opcode latency splits,
    docs/OBSERVERS.md); it is flattened into dotted metric keys
    (breakdown.CX.pick, breakdown.CX.count, ...) so --exact can cover
    them. Comparing a v1 baseline against a v2 candidate (or vice
    versa) works: only metrics present on both sides are compared.
    """
    with open(path) as fh:
        doc = json.load(fh)
    schema = doc.get("schema")
    if schema is not None and schema not in KNOWN_SCHEMAS:
        sys.exit(f"bench_diff: {path}: unknown schema {schema!r} "
                 f"(expected one of {', '.join(KNOWN_SCHEMAS)})")
    entries = {}
    for position, entry in enumerate(doc.get("entries", [])):
        if "name" not in entry:
            sys.exit(f"bench_diff: {path}: entry {position} has no "
                     f"\"name\" (not a lsqca-bench document?)")
        metrics = dict(entry.get("metrics", {}))
        for row in entry.get("breakdown", []):
            prefix = f"breakdown.{row.get('op', '?')}"
            metrics[f"{prefix}.count"] = row.get("count", 0)
            metrics[f"{prefix}.beats"] = row.get("beats", 0)
            for component, beats in row.get("split", {}).items():
                metrics[f"{prefix}.{component}"] = beats
        entries[entry["name"]] = metrics
    return doc, entries


def main():
    parser = argparse.ArgumentParser(
        description="diff two BENCH_*.json files")
    parser.add_argument("baseline")
    parser.add_argument("candidate")
    parser.add_argument(
        "--threshold", type=float, default=0.10,
        help="allowed fractional regression on timing metrics "
             "(default 0.10 = 10%%)")
    parser.add_argument(
        "--timing-regex", default=r"wall_seconds|ns_per",
        help="metrics matching this regex are compared as timings "
             "(lower is better)")
    parser.add_argument(
        "--exact", default="",
        help="comma-separated metrics that must match exactly "
             "(e.g. cpi,exec_beats)")
    parser.add_argument(
        "--min-seconds", type=float, default=1e-4,
        help="skip timing comparisons when both sides are below this "
             "(too noisy to judge)")
    args = parser.parse_args()

    timing = re.compile(args.timing_regex)
    exact = {m for m in args.exact.split(",") if m}

    base_doc, base = load_entries(args.baseline)
    cand_doc, cand = load_entries(args.candidate)

    shared = sorted(set(base) & set(cand))
    if not shared:
        print("bench_diff: no shared entries between "
              f"{args.baseline} and {args.candidate}", file=sys.stderr)
        return 1

    # An entry on only one side means the two runs are not the same
    # experiment (renamed sweep point, truncated shard, partial
    # merge); name the culprits and fail instead of quietly comparing
    # the intersection.
    failures = []
    for name in sorted(set(base) - set(cand)):
        failures.append(f"entry \"{name}\" is in the baseline "
                        f"({args.baseline}) but missing from the "
                        f"candidate ({args.candidate})")
    for name in sorted(set(cand) - set(base)):
        failures.append(f"entry \"{name}\" is in the candidate "
                        f"({args.candidate}) but missing from the "
                        f"baseline ({args.baseline})")
    compared = 0
    for name in shared:
        b_metrics, c_metrics = base[name], cand[name]
        for key in sorted(set(b_metrics) & set(c_metrics)):
            b_val, c_val = b_metrics[key], c_metrics[key]
            if not isinstance(b_val, (int, float)) or isinstance(
                    b_val, bool):
                continue
            if key in exact:
                compared += 1
                if b_val != c_val:
                    failures.append(
                        f"{name}.{key}: expected exact match, "
                        f"baseline={b_val} candidate={c_val}")
                continue
            if not timing.search(key):
                continue
            # Noise guard: sub-threshold wall times are too jittery to
            # judge; derived ns_per_* metrics from the same measurement
            # inherit that jitter, so key the skip off the entry's wall
            # time in both cases.
            b_wall = b_metrics.get("wall_seconds", b_val
                                   if "seconds" in key else None)
            c_wall = c_metrics.get("wall_seconds", c_val
                                   if "seconds" in key else None)
            if (isinstance(b_wall, (int, float))
                    and isinstance(c_wall, (int, float))
                    and b_wall < args.min_seconds
                    and c_wall < args.min_seconds):
                continue
            compared += 1
            if b_val <= 0:
                continue
            change = (c_val - b_val) / b_val
            marker = ""
            if change > args.threshold:
                failures.append(
                    f"{name}.{key}: {b_val:.6g} -> {c_val:.6g} "
                    f"(+{change * 100:.1f}% > "
                    f"{args.threshold * 100:.0f}%)")
                marker = "  <-- REGRESSION"
            print(f"  {name}.{key}: {b_val:.6g} -> {c_val:.6g} "
                  f"({change * +100:+.1f}%){marker}")

    print(f"bench_diff: {len(shared)} shared entries, "
          f"{compared} metrics compared, {len(failures)} failures")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
