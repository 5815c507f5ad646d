#!/usr/bin/env python3
"""Compares two benchmark result files row by row.

Usage:
  tools/bench_diff.py OLD.json NEW.json

Both files are either merged `tools/run_benchmarks.sh` output
(`{"suites": {suite: [rows]}, ...}`, the committed BENCH_PR<n>.json files)
or a single google-benchmark `--benchmark_format=json` file
(`{"benchmarks": [rows]}`).

Rows are joined by a normalised name: the suite, then the benchmark name
without its aggregate suffix (`_mean`, `_median`, `_stddev`, `_cv`) or
run-setting fragments (`/real_time`, `/min_time:...`, `/repeats:...`).
A row's time is its median aggregate where present, else its mean, else the
median of its iteration rows, in nanoseconds of real time.

A delta is flagged only when it is larger than the row's noise: the larger
of the two files' coefficients of variation, taken from the `_cv` aggregate
rows that `BENCH_REPS` > 1 produces. A row without a `_cv` row in either
file is a single sample; it is flagged only past 10%, since single samples
on a shared host swing by about that much.

A thread row (one whose `threads` counter is above 1) measures scaling, and
a 1-CPU host cannot show scaling. Such rows are refused, neither compared
nor flagged, when either file comes from a single-core host: `host_cpus ==
1`, or, in files written before `run_benchmarks.sh` stamped `host_cpus`,
`context.num_cpus == 1`.

Prints one line per joined row and a summary; exits 0 after a successful
comparison (flagged rows included) and 2 when a file cannot be read.
"""

import json
import re
import statistics
import sys

# Flag threshold for rows with no `_cv` aggregate in either file.
SINGLE_SAMPLE_NOISE = 0.10

AGGREGATE_SUFFIX = re.compile(r"_(mean|median|stddev|cv)$")
SETTING_FRAGMENT = re.compile(r"/(real_time|min_time:[^/]*|repeats:[^/]*)")
NS_PER_UNIT = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def load(path):
    """Returns (suites, single_core) for one results file."""
    with open(path) as f:
        data = json.load(f)
    if "suites" in data:
        suites = data["suites"]
    elif "benchmarks" in data:
        suites = {"": data["benchmarks"]}
    else:
        raise ValueError(f"{path}: neither 'suites' nor 'benchmarks' found")
    cpus = data.get("host_cpus")
    if cpus is None:
        cpus = data.get("context", {}).get("num_cpus")
    return suites, cpus == 1


def normalise(suite, name):
    name = SETTING_FRAGMENT.sub("", AGGREGATE_SUFFIX.sub("", name))
    return f"{suite}/{name}" if suite else name


def rows(suites):
    """Maps normalised name -> {"ns": time, "cv": cv or None, "threads": n}."""
    grouped = {}
    for suite, benchmarks in suites.items():
        for row in benchmarks:
            key = normalise(suite, row["name"])
            entry = grouped.setdefault(
                key, {"iterations": [], "aggregates": {}, "threads": 1})
            scale = NS_PER_UNIT.get(row.get("time_unit", "ns"), 1.0)
            aggregate = row.get("aggregate_name")
            if aggregate == "cv":
                entry["aggregates"]["cv"] = row["real_time"]
            elif aggregate in ("mean", "median"):
                entry["aggregates"][aggregate] = row["real_time"] * scale
            elif aggregate is None and row.get("run_type") != "aggregate":
                entry["iterations"].append(row["real_time"] * scale)
            if aggregate in (None, "mean", "median"):
                entry["threads"] = max(entry["threads"],
                                       row.get("threads", 1) or 1)
    out = {}
    for key, entry in grouped.items():
        aggregates = entry["aggregates"]
        if "median" in aggregates:
            ns = aggregates["median"]
        elif "mean" in aggregates:
            ns = aggregates["mean"]
        elif entry["iterations"]:
            ns = statistics.median(entry["iterations"])
        else:
            continue  # only stddev/cv rows: nothing to compare
        out[key] = {"ns": ns, "cv": aggregates.get("cv"),
                    "threads": entry["threads"]}
    return out


def main(argv):
    if len(argv) != 3:
        print("usage: tools/bench_diff.py OLD.json NEW.json", file=sys.stderr)
        return 2
    try:
        old_suites, old_single = load(argv[1])
        new_suites, new_single = load(argv[2])
    except (OSError, ValueError, KeyError) as error:
        print(f"bench_diff: {error}", file=sys.stderr)
        return 2
    single_core = old_single or new_single
    old_rows, new_rows = rows(old_suites), rows(new_suites)
    flagged = refused = compared = 0
    for key in sorted(old_rows.keys() & new_rows.keys()):
        old, new = old_rows[key], new_rows[key]
        if single_core and max(old["threads"], new["threads"]) > 1:
            refused += 1
            print(f"  refused  {key}: thread row, single-core host")
            continue
        compared += 1
        delta = (new["ns"] - old["ns"]) / old["ns"] if old["ns"] else 0.0
        cvs = [cv for cv in (old["cv"], new["cv"]) if cv is not None]
        noise = max(cvs) if cvs else SINGLE_SAMPLE_NOISE
        mark = "FLAGGED" if abs(delta) > noise else "       "
        if mark == "FLAGGED":
            flagged += 1
        print(f"{mark}  {key}: {old['ns']:.1f} -> {new['ns']:.1f} ns "
              f"({delta:+.1%}, noise {noise:.1%})")
    only_old = len(old_rows.keys() - new_rows.keys())
    only_new = len(new_rows.keys() - old_rows.keys())
    print(f"{compared} rows compared, {flagged} flagged, {refused} thread rows "
          f"refused, {only_old} only in OLD, {only_new} only in NEW")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
