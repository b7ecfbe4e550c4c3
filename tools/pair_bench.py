"""Compare two checkouts on one perfbench workload under the pair protocol.

    python3 tools/pair_bench.py PARENT_DIR CHANGE_DIR --workload W \
        [--seed S] [--pairs 10] [--seconds S]

Runs `perfbench/run.py --workload W --seed S --trace 0` in the two
checkouts alternately, `--pairs` times each, the parent first in even
pairs and the change first in odd ones, and reads each run's last line
(one JSON object).  For each end-to-end metric of the parent's
BENCHMARK.json it prints the medians and quartiles of both sides, the
pairs the change wins in the metric's better direction, and the median
gap against the parent's quartile distance.  A gain is resolved when at
least 10 pairs ran, the change wins at least nine tenths of them, and
the median gap, in the better direction, is larger than that distance.
A run that is not `correct` is reported and stops the comparison.  The
last line printed is the whole summary as one JSON object.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout, workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: perfbench exited {out.returncode}\n"
                         f"{out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{checkout}: run not correct: {lines[-1]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarise(metric, better, parent, change):
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
    gap, spread = cm - pm, p3 - p1
    resolved = (len(parent) >= 10 and wins * 10 >= 9 * len(parent)
                and sign * gap > spread)
    return {"metric": metric, "better": better,
            "parent": {"median": pm, "q1": p1, "q3": p3},
            "change": {"median": cm, "q1": c1, "q3": c3},
            "change_over_parent_median": cm / pm if pm else None,
            "pairs_change_better": f"{wins}/{len(parent)}",
            "median_difference": gap, "parent_quartile_distance": spread,
            "resolved_gain": resolved,
            "parent_per_pair": parent, "change_per_pair": change}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")
    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(getattr(args, side), args.workload,
                                       args.seed, args.seconds))
        print(f"pair {i + 1}/{args.pairs}: " + "  ".join(
            f"{side} wall_s {runs[side][-1].get('wall_s', float('nan')):.4f}"
            for side in order), file=sys.stderr, flush=True)
    rows = [summarise(name, better[name], [r[name] for r in runs["parent"]],
                      [r[name] for r in runs["change"]])
            for name in better if all(name in r for r in runs["parent"])]
    print(f"{'metric':<16}{'parent median [q1, q3]':>34}"
          f"{'change median [q1, q3]':>34}{'wins':>7}{'gap':>12}{'parent IQR':>12}")
    for row in rows:
        p, c = row["parent"], row["change"]
        print(f"{row['metric']:<16}"
              f"{p['median']:>12.4f} [{p['q1']:.4f}, {p['q3']:.4f}]"
              f"{c['median']:>12.4f} [{c['q1']:.4f}, {c['q3']:.4f}]"
              f"{row['pairs_change_better']:>7}{row['median_difference']:>12.4f}"
              f"{row['parent_quartile_distance']:>12.4f}"
              f"{'  resolved gain' if row['resolved_gain'] else ''}")
    summary = {"workload": args.workload, "seed": args.seed,
               "pairs": args.pairs, "metrics": rows}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
