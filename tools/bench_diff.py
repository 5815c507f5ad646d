#!/usr/bin/env python3
"""Compares two benchmark result files row by row, or two directories of
end-to-end benchmark results metric by metric.

Usage:
  tools/bench_diff.py OLD.json NEW.json
  tools/bench_diff.py OLD_DIR NEW_DIR

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

Directory mode reads the `<workload>-seed<N>-trace0.json` files that
`e2ebench/run.py --trace 0` writes to `.bench_out/results/`, one directory
per checkout, and joins them by workload and seed into pairs. A pair is
refused when either side has `correct: false` or more than 0 failed
operations. For each end-to-end metric of `BENCHMARK.json` (at the
repository root) and each workload it prints the pairs the new side won
(judged by the metric's `better` direction), the median of each side with
its interquartile range, and the relative change of the medians. A change
worse than the metric's `bound` is marked REGRESSED; one that won at least
nine pairs in ten by a median difference larger than the old side's
interquartile range is marked GAIN. Exits 0 when no metric regressed, 1
when one did, and 2 when a file cannot be read or no pair is left.
"""

import glob
import json
import os
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


BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCHMARK.json")
E2E_RESULT = re.compile(r"^(.+)-seed(\d+)-trace0\.json$")
# A claimed gain must win at least this share of its pairs.
GAIN_PAIR_SHARE = 0.9


def load_e2e_dir(path):
    """Maps (workload, seed) -> result record for one results directory."""
    records = {}
    for file in sorted(glob.glob(os.path.join(path, "*-trace0.json"))):
        match = E2E_RESULT.match(os.path.basename(file))
        if match:
            with open(file) as f:
                records[(match.group(1), int(match.group(2)))] = json.load(f)
    return records


def quartiles(values):
    """Returns (q1, median, q3), interpolated within the observed range."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def diff_e2e(old_dir, new_dir):
    with open(BENCHMARK_JSON) as f:
        metrics = json.load(f)["end_to_end"]
    old_records, new_records = load_e2e_dir(old_dir), load_e2e_dir(new_dir)
    pairs = {}  # workload -> [(old record, new record)]
    refused = 0
    for key in sorted(old_records.keys() & new_records.keys()):
        old, new = old_records[key], new_records[key]
        bad = [side for side, record in (("OLD", old), ("NEW", new))
               if not record["correct"] or record["failed"] > 0]
        if bad:
            refused += 1
            print(f"  refused  {key[0]} seed {key[1]}: {', '.join(bad)} "
                  f"incorrect or with failed operations")
            continue
        pairs.setdefault(key[0], []).append((old, new))
    if not pairs:
        raise ValueError(f"no pair of e2ebench results in {old_dir} and "
                         f"{new_dir}")
    regressed = gains = 0
    for workload, joined in sorted(pairs.items()):
        print(f"{workload}: {len(joined)} pairs")
        for metric in metrics:
            name, higher = metric["name"], metric["better"] == "higher"
            olds = [o["metrics"][name]["value"] for o, _ in joined]
            news = [n["metrics"][name]["value"] for _, n in joined]
            won = sum((n > o) if higher else (n < o)
                      for o, n in zip(olds, news))
            old_q1, old_median, old_q3 = quartiles(olds)
            new_q1, new_median, new_q3 = quartiles(news)
            change = (new_median - old_median) / old_median if old_median else 0.0
            worse = -change if higher else change
            improved = change > 0 if higher else change < 0
            if worse > metric["bound"]:
                mark = "REGRESSED"
                regressed += 1
            elif (improved and won >= GAIN_PAIR_SHARE * len(joined) and
                  abs(new_median - old_median) > old_q3 - old_q1):
                mark = "GAIN"
                gains += 1
            else:
                mark = ""
            print(f"{mark:>9}  {name}: won {won}/{len(joined)}, "
                  f"{old_median:.4g} [{old_q1:.4g}, {old_q3:.4g}] -> "
                  f"{new_median:.4g} [{new_q1:.4g}, {new_q3:.4g}] "
                  f"{metric['unit']} ({change:+.1%}, bound "
                  f"{metric['bound']:.0%})")
    only = len(old_records.keys() ^ new_records.keys())
    print(f"{sum(map(len, pairs.values()))} pairs compared, {refused} "
          f"refused, {only} unpaired, {gains} gains, {regressed} regressed")
    return 1 if regressed else 0


def main(argv):
    if len(argv) != 3:
        print("usage: tools/bench_diff.py OLD.json NEW.json\n"
              "       tools/bench_diff.py OLD_DIR NEW_DIR", file=sys.stderr)
        return 2
    if os.path.isdir(argv[1]) and os.path.isdir(argv[2]):
        try:
            return diff_e2e(argv[1], argv[2])
        except (OSError, ValueError, KeyError) as error:
            print(f"bench_diff: {error}", file=sys.stderr)
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
