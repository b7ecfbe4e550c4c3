"""Self-check of the benchmark harness on tiny grids (a few seconds).

    python3 perfbench/selfcheck.py

Shows that the correctness gate passes real output and rejects corrupted
output (a changed lhs, and a consistent change to both sides that only the
stored hash can see); that a traced sweep reaches the layers its grid
exercises, and that its layer self times add up to within 5% of its wall
time while a sweep with untraced time fails that check; that the check
counts the benchmark computes for seeded grids match the instance lists the
CLI builds; and that the reference loop refuses to run once changed.
"""

import json
import shutil
import sys
import time

import reference
import run
import workloads

# (argv, expected checks, per-layer metrics the traced sweep must make nonzero)
TINY = (
    (["verify", "padic", "--max-weight", "2", "--primes", "3..13",
      "--n-values", "1,2,3"], 45,
     ("backend.dp_sum_mod_calls", "backend.dp_sum_mod_band_points",
      "chainsum.plan_calls", "finite_padic.self_s", "index_algebra.calls")),
    (["verify", "main", "--max-weight", "2", "--max-upper", "5"], 15,
     ("backend.dp_sum_calls", "backend.dp_sum_band_points",
      "chainsum.normalise_s", "mzv_real.self_s", "reports.self_s")),
    (["verify", "telescope", "--max-weight", "2", "--max-upper", "4"], 12,
     ("connected_sum.calls", "connected_sum.self_s")),
    (["verify", "duality-r", "--powers", "3..5"], 4,
     ("backend.dp_sum_calls",)),
)

failures = []


def expect(ok, what):
    print(f"  {'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def corrupt(stdout, edit):
    """The --json output with `edit` applied to the first report."""
    lines = stdout.splitlines()
    report = json.loads(lines[0])
    edit(report)
    lines[0] = json.dumps(report).encode()
    return b"\n".join(lines) + b"\n"


def check_gate(argv, expected, deadline):
    sweep = run.Sweep(argv + ["--json"], "run", deadline)
    bad, why = run.gate_json(sweep, expected, None)
    expect(bad == 0, f"--json sweep passes the gate ({why or 'clean'})")
    digest = sweep.digest
    expect(run.gate_json(sweep, expected, digest)[0] == 0,
           "the same output passes against its own hash")
    original = sweep.stdout

    def lhs_only(r):
        r["lhs"] += "0"

    sweep.stdout = corrupt(original, lhs_only)
    expect(run.gate_json(sweep, expected, None)[0] > 0,
           "a corrupted lhs fails the gate")

    def both_sides(r):
        r["lhs"] += "0"
        r["rhs"] += "0"

    sweep.stdout = corrupt(original, both_sides)
    expect(run.gate_json(sweep, expected, None)[0] == 0
           and run.gate_json(sweep, expected, digest)[0] > 0,
           "lhs and rhs changed alike fail only against the stored hash")
    sweep.stdout = original
    expect(run.gate_json(sweep, expected + 1, None)[0] > 0,
           "a wrong check count fails the gate")


def check_trace(argv, expected, reached, deadline):
    sweep = run.Sweep(argv + ["--json"], "trace", deadline)
    expect(run.gate_json(sweep, expected, None)[0] == 0,
           "traced sweep passes the gate")
    metrics, layers = run.layer_metrics(sweep)
    missed = [name for name in reached if not metrics[name] > 0]
    expect(not missed, f"the trace reaches {', '.join(reached)}"
                       + (f"; zero: {', '.join(missed)}" if missed else ""))
    coverage = metrics["trace.coverage_ratio"]
    expect(run.coverage_miss(metrics) is None,
           f"layer self times sum to {coverage:.2%} of traced wall_s")
    expect(min(layers.values()) > -1e-6, "no layer has negative self time")
    # Time outside every span, as a layer the tracer failed to wrap would
    # leave: a tenth of the sweep before the first span.
    sweep.report["t_imported"] -= 0.1 * sweep.wall_s
    expect(run.coverage_miss(run.layer_metrics(sweep)[0]) is not None,
           "a tenth of the sweep outside every span fails the coverage check")


def check_counts():
    sys.path.insert(0, str(run.ROOT / "src"))
    from zetaflat import cli

    for name in run.WORKLOADS:
        for seed in range(12):
            argv, expected = workloads.grid(name, seed)
            args = cli.build_parser().parse_args(argv)
            built = len(cli.verify_tasks(args, cli.caps_of(args)))
            if built != expected:
                expect(False, f"{name} seed {seed}: CLI builds {built} "
                              f"instances, benchmark expects {expected}")
                return
    expect(True, "seeded check counts match the CLI's instance lists")


def check_reference():
    expect(reference.reference() > 0, "the reference loop gives its checksum")
    saved = reference.CHECKSUM
    reference.CHECKSUM += 1
    try:
        reference.reference()
        refused = False
    except RuntimeError:
        refused = True
    finally:
        reference.CHECKSUM = saved
    expect(refused, "a reference loop with another result is refused")


def main():
    deadline = time.monotonic() + run.DEADLINE_S
    shutil.rmtree(run.WORK, ignore_errors=True)
    run.WORK.mkdir()
    try:
        for argv, expected, reached in TINY:
            print(" ".join(argv))
            check_gate(argv, expected, deadline)
            check_trace(argv, expected, reached, deadline)
        print("seeded grids")
        check_counts()
        print("reference loop")
        check_reference()
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)
    print(f"{len(failures)} failed" if failures else "all self-checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
