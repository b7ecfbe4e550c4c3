"""zetaflat benchmark: whole CLI sweeps, gated, with an optional layer trace.

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the program is the src/ tree there
and needs no build.  Every sweep is a fresh interpreter, so caches start
cold as in a user's invocation, and runs single-process (`--jobs 1`).

Every sweep runs with `--json` and is gated: exit 0, `PASS x/x` with the
expected x, every report with lhs == rhs, and for the default seed a hash of
every report (check_id, inputs, lhs, rhs, pass) equal to the one in
baseline.json.  For `--seconds`, the run makes

    --trace 0   plain sweeps; prints the end-to-end metrics, means over
                the run's sweeps with times scaled to the speed of a
                fixed reference loop timed before each sweep;
    --trace 1   untraced and traced sweeps in turn; prints the per-layer
                metrics computed from the traced sweeps' spans, after
                checking that their self times cover the traced wall time.

The last line of output is one JSON object: correct, attempted and failed
(checks), and the metrics by name with value and unit.  A sweep that fails
its gate counts its checks as failed and is not used as a timing.
"""

import argparse
import hashlib
import json
import marshal
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import reference
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
BASELINE = HERE / "baseline.json"
WORK = ROOT / ".perfbench_work"
DEADLINE_S = 170.0  # a run must end within 180 s
COVERAGE_TOLERANCE = 0.05
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


class Sweep:
    """One spawned CLI invocation and what was measured about it."""

    def __init__(self, cli_args, mode, deadline):
        self.mode = mode
        report_path = WORK / f"report-{mode}.bin"
        err_path = WORK / "stderr.txt"
        report_path.unlink(missing_ok=True)
        cmd = [sys.executable, str(CHILD), str(report_path), mode, "--",
               *cli_args]
        with open(err_path, "w+b") as err:
            self.t_spawn = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.PIPE, stderr=err)
            killer = threading.Timer(max(deadline - time.monotonic(), 1.0),
                                     proc.kill)
            killer.start()
            try:
                first = proc.stdout.readline()
                self.t_first = time.monotonic()
                self.stdout = first + proc.stdout.read()
                self.rc = proc.wait()
                self.t_end = time.monotonic()
            finally:
                killer.cancel()
                killer.join()
                proc.stdout.close()
            err.seek(0)
            self.stderr = err.read().decode(errors="replace")
        self.report = {}
        if report_path.exists():
            with open(report_path, "rb") as fh:
                try:
                    report = marshal.load(fh)
                    report["t_written"] = marshal.load(fh)
                    self.report = report
                except (EOFError, ValueError, TypeError):
                    pass  # cut short: the gate sees no report and fails
        self.peak_rss_mb = self.report.get("peak_rss_kb", 0) / 1024.0

    @property
    def wall_s(self):
        return self.t_end - self.t_spawn

    @property
    def setup_s(self):
        return self.report["t_setup"] - self.t_spawn

    @property
    def first_result_s(self):
        return self.t_first - self.t_spawn


def report_digest(reports):
    """sha256 over check_id, inputs, lhs, rhs and pass of every report."""
    h = hashlib.sha256()
    for r in reports:
        row = [r["check_id"], r["inputs"], r["lhs"], r["rhs"], r["pass"]]
        h.update(json.dumps(row, sort_keys=True).encode() + b"\n")
    return h.hexdigest()


def gate_json(sweep, expected, stored_digest):
    """Failed checks of a --json sweep, and a reason when it failed."""
    if sweep.rc != 0 or "t_setup" not in sweep.report:
        return expected, f"exit code {sweep.rc}: {sweep.stderr.strip()[-500:]}"
    summary = sweep.stderr.strip().splitlines()[-1:]
    if summary != [f"PASS {expected}/{expected}"]:
        return expected, f"summary {summary}, expected PASS {expected}/{expected}"
    try:
        reports = [json.loads(line) for line in sweep.stdout.splitlines()]
        bad = sum(1 for r in reports
                  if not (r["pass"] is True and r["lhs"] == r["rhs"]))
        sweep.digest = report_digest(reports)
    except (ValueError, KeyError, TypeError) as e:
        return expected, f"output is not one JSON report per line: {e!r}"
    if len(reports) != expected:
        return expected, f"{len(reports)} reports, expected {expected}"
    if bad:
        return bad, f"{bad} reports with lhs != rhs or pass false"
    if stored_digest is not None and sweep.digest != stored_digest:
        return expected, f"report hash {sweep.digest} differs from baseline.json"
    return 0, None


def stored_digest(workload, seed, argv):
    """The baseline hash for the default seed's grid; None for other seeds."""
    if seed != workloads.DEFAULT_SEED:
        return None
    entry = json.loads(BASELINE.read_text())["workloads"][workload]
    if entry["argv"] != argv:
        raise SystemExit(f"baseline.json argv for {workload} is stale: "
                         f"{entry['argv']} != {argv}")
    return entry["report_sha256"]


def layer_metrics(sweep):
    """Per-layer metrics of one traced sweep, from its spans."""
    rep = sweep.report
    stats = tracer.self_times(rep["spans"])
    layer_self, layer_calls = {}, {}
    for name, (calls, own, _) in stats.items():
        layer = name.partition(".")[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + own
        layer_calls[layer] = layer_calls.get(layer, 0) + calls

    def own(*names):
        return sum(stats[n][1] for n in names if n in stats)

    def calls(name):
        return stats[name][0] if name in stats else 0

    def ratio(num, den):
        return num / den if den else 0.0

    refine_calls, refine_hits = rep["spans"]["refines"]
    band = rep["spans"]["band_points"]
    zr_hits, zr_misses = rep["caches"]["zeta_residue"]
    cn_hits, cn_misses = rep["caches"]["connector"]
    m = {
        "process.startup_s": rep["t_imported"] - sweep.t_spawn,
        "process.exit_s": sweep.t_end - rep["t_written"],
        "cli.instances_s": stats.get("cli.verify_tasks", (0, 0.0, 0.0))[2],
        "cli.emit_s": own("cli.cmd_verify"),
        "index_algebra.calls": layer_calls.get("index_algebra", 0) + refine_calls,
        "index_algebra.refines_hit_ratio": ratio(refine_hits, refine_calls),
        "chainsum.plan_s": own("chainsum._plan"),
        "chainsum.plan_calls": calls("chainsum._plan"),
        "chainsum.normalise_s": own("chainsum.eval_dp", "chainsum.eval_dp_mod",
                                    "chainsum.eval_enum"),
        "backend.dp_sum_s": own("backend.dp_sum"),
        "backend.dp_sum_calls": calls("backend.dp_sum"),
        "backend.dp_sum_band_points": band["dp_sum"],
        "backend.dp_sum_mod_s": own("backend.dp_sum_mod"),
        "backend.dp_sum_mod_calls": calls("backend.dp_sum_mod"),
        "backend.dp_sum_mod_band_points": band["dp_sum_mod"],
        "finite_padic.zeta_residue_hit_ratio": ratio(zr_hits, zr_hits + zr_misses),
        "connected_sum.calls": layer_calls.get("connected_sum", 0),
        "connected_sum.connector_hit_ratio": ratio(cn_hits, cn_hits + cn_misses),
    }
    for layer in ("cli", "index_algebra", "chainsum", "finite_padic",
                  "connected_sum", "mzv_real", "reports"):
        m[f"{layer}.self_s"] = layer_self.get(layer, 0.0)
    covered = m["process.startup_s"] + m["process.exit_s"] + sum(layer_self.values())
    m["trace.coverage_ratio"] = covered / sweep.wall_s
    layers = dict(layer_self, **{"process.startup": m["process.startup_s"],
                                 "process.exit": m["process.exit_s"]})
    return m, layers


def coverage_miss(metrics):
    """Why a traced sweep's layer times do not add up to its wall time, or None."""
    coverage = metrics["trace.coverage_ratio"]
    if abs(coverage - 1.0) > COVERAGE_TOLERANCE:
        return (f"layer self times cover {coverage:.2%} of traced wall_s, "
                f"not within {COVERAGE_TOLERANCE:.0%}")
    return None


def median_of(rows, key):
    return statistics.median(r[key] for r in rows)


def run_workload(workload, seed, seconds, trace, out):
    """Run one workload; returns (metrics, attempted, failed, backend)."""
    deadline = time.monotonic() + DEADLINE_S
    argv, expected = workloads.grid(workload, seed)
    digest = stored_digest(workload, seed, argv)
    attempted = failed = 0
    reasons = []

    def gated(sweep, result):
        nonlocal attempted, failed
        bad, why = result
        attempted += expected
        failed += bad
        if why:
            reasons.append(f"{sweep.mode} sweep: {why}")
        sweep.stdout = None  # checked; a run keeps dozens of sweeps
        return not bad

    argv = argv + ["--json"]
    plain, traced, refs, backends = [], [], [], set()
    started = time.monotonic()
    # Sweep for --seconds: start another round only while it would end
    # within them, judged by the mean round so far, and well before the
    # deadline.  A sweep that fails its gate ends the measurement.
    step = 0.0
    while not failed:
        now = time.monotonic()
        if plain and (now - started + step > seconds
                      or now + 2 * step > deadline):
            break
        refs.append(reference.reference())
        sweep = Sweep(argv, "run", deadline)
        backends.add(sweep.report.get("backend", "unknown"))
        if not gated(sweep, gate_json(sweep, expected, digest)):
            break
        plain.append(sweep)
        if trace:
            sweep = Sweep(argv, "trace", deadline)
            if not gated(sweep, gate_json(sweep, expected, digest)):
                break
            traced.append(sweep)
        step = (time.monotonic() - started) / len(plain)
    backend = ",".join(sorted(backends))

    print(f"workload {workload}: {' '.join(argv)}  (seed {seed}, "
          f"{expected} checks, backend {backend})", file=out)
    for why in reasons:
        print(f"  GATE FAILED  {why}", file=out)
    print(f"  failed_ratio {failed / attempted:.4f}  ({failed}/{attempted} checks)",
          file=out)
    if failed or not plain:
        return {}, attempted, failed, backend

    if not trace:
        # Means over the run, not medians: the machine's speed drifts in
        # spells of seconds to minutes, and the mean weighs every part of
        # the run alike, where a median jumps between spells.  Times are
        # then scaled to the reference speed (see reference.py).
        scale = reference.REF_S / statistics.fmean(refs)
        times = ("wall_s", "setup_s", "first_result_s")
        raw = {k: statistics.fmean(getattr(s, k) for s in plain)
               for k in times + ("peak_rss_mb",)}
        raw["checks_per_s"] = expected / (raw["wall_s"] - raw["setup_s"])
        metrics = dict(raw, **{k: raw[k] * scale for k in times})
        metrics["checks_per_s"] = raw["checks_per_s"] / scale
        print(f"  reference loop {statistics.fmean(refs):.4f} s, mean of "
              f"{len(refs)}: times scaled by {scale:.4f}", file=out)
        for name, unit in END_TO_END_UNITS.items():
            print(f"  {name:16s} {metrics[name]:12.4f} {unit:5s} mean of "
                  f"{len(plain)}, unscaled {raw[name]:.4f}", file=out)
        return metrics, attempted, failed, backend

    per_sweep = [layer_metrics(s) for s in traced]
    misses = [why for why in (coverage_miss(m) for m, _ in per_sweep) if why]
    for why in misses:
        print(f"  TRACE CHECK FAILED  {why}", file=out)
    if misses:
        return {}, attempted, failed, backend
    rows = [m for m, _ in per_sweep]
    metrics = {k: median_of(rows, k) for k in rows[0]}
    traced_wall = statistics.median(s.wall_s for s in traced)
    plain_wall = statistics.median(s.wall_s for s in plain)
    # Each traced sweep runs right after an untraced one; the ratio within
    # a pair is less exposed to the machine's speed drifting over the run.
    metrics["trace.overhead_ratio"] = statistics.median(
        t.wall_s / u.wall_s for u, t in zip(plain, traced))
    layers = {k: statistics.median(ls.get(k, 0.0) for _, ls in per_sweep)
              for k in per_sweep[0][1]}
    print(f"  traced wall_s {traced_wall:.4f} s (median of {len(traced)}), "
          f"untraced {plain_wall:.4f} s (median of {len(plain)})", file=out)
    print("  layer self time, share of traced wall_s:", file=out)
    for layer, t in sorted(layers.items(), key=lambda kv: -kv[1]):
        print(f"    {layer:16s} {t:10.4f} s  {t / traced_wall:7.2%}", file=out)
    for name in LAYER_UNITS:
        print(f"  {name:38s} {metrics[name]:16.6g} {LAYER_UNITS[name]}", file=out)
    return metrics, attempted, failed, backend


def git_revision():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            path = git / ref
            if path.exists():
                return path.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
        return head
    except OSError:
        return "unknown"


def machine_record(seed, backends):
    return {"git_revision": git_revision(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "backend": ",".join(sorted(backends)),
            "seed": seed}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "zetaflat" / "cli.py").is_file():
        print(f"error: no zetaflat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    units = LAYER_UNITS if args.trace else END_TO_END_UNITS
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        metrics, attempted, failed = {}, 0, 0
        backends = set()
        for name in names:
            m, a, f, backend = run_workload(name, args.seed, args.seconds,
                                            args.trace, sys.stdout)
            backends.add(backend)
            attempted += a
            failed += f
            prefix = f"{name}." if len(names) > 1 else ""
            metrics.update({prefix + k: {"value": v, "unit": units[k]}
                            for k, v in m.items()})
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    correct = failed == 0 and len(metrics) == len(units) * len(names)
    print("machine " + json.dumps(machine_record(args.seed, backends)))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
