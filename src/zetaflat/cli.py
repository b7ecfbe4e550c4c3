"""Batch front end: evaluate objects, run verification suites over
(index, fence, prime) grids, and emit telescoping transcripts.

Exit codes are a stable contract: 0 all pass, 1 some check failed,
2 usage or parse problem, 3 a configured cap was exceeded, 141
(128 + SIGPIPE) the reader closed stdout before the output ended.
Reports stream one line per instance (text or JSON) as each check
returns; convergence tables can be dumped as CSV.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import dataclass
from functools import cmp_to_key
from itertools import groupby
from math import gcd, log10

from .connected_sum import (
    connected_sum,
    connector,
    telescope,
    telescope_report,
    telescope_sweep,
    transport_failures,
)
from .errors import CapExceededError
from .finite_padic import (
    PADIC_FIXTURES,
    SEKI_FIXTURES,
    antipode_duality_check,
    hoffman_duality_check,
    hoffman_identity_check,
    hoffman_identity_sweep,
    load_thresholds,
    padic_duality_check,
    primes_in,
    residue_sweep,
    seki_lifting_check,
)
from .index_algebra import (
    Index,
    dual,
    format_index,
    indices_up_to_weight,
    parse_index,
)
from .mzv_real import (
    duality_sweep,
    log2_discretization_check,
    main_identity_check,
    main_sweep,
    riemann_sum,
    scaled_column,
    zeta_flat,
    zeta_star_trunc,
    zeta_trunc,
)
from .reports import (VerificationReport, decimal_str, fraction_str,
                      make_report, ratio_str)

VERIFY_SUITES = ("main", "transport", "telescope", "duality-r", "duality-a",
                 "antipode", "hoffman-identity", "padic", "seki", "log2")

CONVERGENCE_INDICES = ((3,), (1, 2), (2, 2), (1, 1, 2))


@dataclass(frozen=True)
class Caps:
    weight: int = 8
    upper: int = 4096
    prime: int = 199
    exponent: int = 3

    def check_weight(self, k):
        if k.weight > self.weight:
            raise CapExceededError(
                f"index weight {k.weight} exceeds cap {self.weight}")

    def check_upper(self, n):
        if n > self.upper:
            raise CapExceededError(f"fence {n} exceeds cap {self.upper}")

    def check_power(self, j):
        """check_upper(2 ** j), naming 2^j in full only where it prints."""
        if 2 ** min(j, self.upper.bit_length()) <= self.upper:
            return
        digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        fence = 2 ** j if j * log10(2) < digits else f"2^{j}"
        raise CapExceededError(f"fence {fence} exceeds cap {self.upper}")

    def check_prime(self, p):
        if p > self.prime:
            raise CapExceededError(f"prime {p} exceeds cap {self.prime}")

    def check_exponent(self, n):
        if n > self.exponent:
            raise CapExceededError(f"exponent {n} exceeds cap {self.exponent}")


def parse_range(text):
    """'3..199' -> (3, 199); '13' -> (13, 13)."""
    lo, sep, hi = text.partition("..")
    try:
        if sep:
            return int(lo), int(hi)
        return int(text), int(text)
    except ValueError:
        raise ValueError(f"bad range {text!r}, expected LO..HI") from None


def parse_exponents(text):
    """'3,1,2' -> [1, 2, 3]: the --n-values lifting exponents, sorted."""
    try:
        values = sorted({int(t) for t in text.split(",")})
    except ValueError:
        raise ValueError(f"bad --n-values {text!r}, expected comma-separated "
                         f"positive integers") from None
    if values[0] < 1:
        raise ValueError(f"lifting exponents must be positive, got {values[0]}")
    return values


def parse_side(text):
    """Index argument for a connected sum; '-' or '' is the empty side."""
    if text in ("-", ""):
        return Index()
    return parse_index(text)


def add_cap_flags(ap):
    ap.add_argument("--cap-weight", type=int, default=Caps.weight,
                    help="largest allowed index weight")
    ap.add_argument("--cap-upper", type=int, default=Caps.upper,
                    help="largest allowed fence N")
    ap.add_argument("--cap-prime", type=int, default=Caps.prime,
                    help="largest allowed prime")
    ap.add_argument("--cap-exponent", type=int, default=Caps.exponent,
                    help="largest allowed lifting exponent")


def caps_of(args):
    return Caps(weight=args.cap_weight, upper=args.cap_upper,
                prime=args.cap_prime, exponent=args.cap_exponent)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="zetaflat",
        description="exact arithmetic for truncated multiple zeta sums, "
                    "their reflected block forms, and duality congruences")
    sub = ap.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("eval", help="evaluate one object exactly")
    evsub = ev.add_subparsers(dest="object", required=True)
    for name in ("zeta", "zeta-star", "zeta-flat", "riemann"):
        p = evsub.add_parser(name)
        p.add_argument("--index", required=True)
        p.add_argument("--upper", type=int, required=True)
        p.add_argument("--method", choices=("dp", "enum"), default="dp")
        p.add_argument("--decimal", type=int, default=None, metavar="PLACES")
        add_cap_flags(p)
    p = evsub.add_parser("connector")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--decimal", type=int, default=None, metavar="PLACES")
    add_cap_flags(p)
    p = evsub.add_parser("Z")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--left", default="-")
    p.add_argument("--right", default="-")
    p.add_argument("--decimal", type=int, default=None, metavar="PLACES")
    add_cap_flags(p)

    vf = sub.add_parser("verify", help="run a verification suite over a grid")
    vf.add_argument("suite", choices=VERIFY_SUITES)
    vf.add_argument("--max-weight", type=int, default=4)
    vf.add_argument("--max-upper", type=int, default=20)
    vf.add_argument("--primes", default="3..199", metavar="LO..HI")
    vf.add_argument("--n-values", default="1,2,3",
                    help="lifting exponents for padic/seki")
    vf.add_argument("--index", action="append", default=None,
                    help="restrict duality-r to these indices (repeatable)")
    vf.add_argument("--powers", default="4..12", metavar="LO..HI",
                    help="duality-r fences are 2^LO .. 2^HI")
    vf.add_argument("--method", choices=("dp", "enum"), default="dp")
    vf.add_argument("--json", action="store_true")
    vf.add_argument("--csv", action="store_true",
                    help="convergence table (duality-r with one --index)")
    vf.add_argument("--jobs", type=int, default=1, metavar="N",
                    help="accepted for compatibility (N >= 1); sweeps run "
                         "in one process")
    add_cap_flags(vf)

    tr = sub.add_parser("trace", help="print one telescoping transcript")
    tr.add_argument("--index", required=True)
    tr.add_argument("--N", type=int, required=True)
    tr.add_argument("--json", action="store_true")
    add_cap_flags(tr)
    return ap


def cmd_eval(args):
    caps = caps_of(args)
    if args.object == "connector":
        caps.check_upper(args.N)
        value = connector(args.N, args.n, args.m)
    elif args.object == "Z":
        caps.check_upper(args.N)
        left = parse_side(args.left)
        right = parse_side(args.right)
        caps.check_weight(left)
        caps.check_weight(right)
        value = connected_sum(args.N, left, right)
    else:
        k = parse_index(args.index)
        caps.check_weight(k)
        caps.check_upper(args.upper)
        fn = {"zeta": zeta_trunc, "zeta-star": zeta_star_trunc,
              "zeta-flat": zeta_flat, "riemann": riemann_sum}[args.object]
        value = fn(k, args.upper, method=args.method)
    out = fraction_str(value)
    if args.decimal is not None:
        out += "  " + decimal_str(value, args.decimal)
    print(out)
    return 0


def _telescope_report(k, upper):
    started = time.perf_counter()
    stages = [s.value.as_integer_ratio() for s in telescope(k, upper).stages]
    return telescope_report(format_index(k), upper, stages, started)


def _transport_sweep_report(which, upper):
    started = time.perf_counter()
    return make_report(f"transport{which}", {"N": upper},
                       transport_failures(which, upper), [], started)


def _duality_r_defects(k, lo, hi, *, column=scaled_column):
    """(defects, scales): |zeta_trunc(k, N) - zeta_trunc(dual(k), N)| =
    defect / scale at N = 2^lo..2^hi, from two `scaled_column`s."""
    fences = tuple(2 ** j for j in range(lo, hi + 1))
    (ours, scales), (theirs, _) = column(k, fences), column(dual(k), fences)
    return [abs(a - b) for a, b in zip(ours, theirs)], scales


def _duality_r_report(k, lo, hi, *, column=scaled_column):
    started = time.perf_counter()
    defects, scales = _duality_r_defects(k, lo, hi, column=column)
    return _convergence_report(k, lo, hi, defects, scales, started)


def _convergence_report(k, lo, hi, defects, scales, started):
    """The verdict on integer defects over their scales at 2^lo..2^hi,
    ordered by cross-multiplication and rendered by `ratio_str`."""
    decs = [ratio_str(d, s) for d, s in zip(defects, scales)]
    # At a fence N <= depth one truncated sum is still empty, so the
    # defect rises from 0 there: those rows are reported, not ranked.
    depth = max(k.depth, dual(k).depth)
    empty = sum(2 ** j <= depth for j in range(lo, hi + 1))
    held = list(zip(defects, scales))[empty:]
    passed = not any(defects) or all(
        d * t > e * s for (d, s), (e, t) in zip(held, held[1:]))
    want = decs
    if not passed:  # the distinct values, largest first
        value = cmp_to_key(lambda x, y: x[0] * y[1] - y[0] * x[1])
        want = decs[:empty] + [ratio_str(*v.obj) for v, _ in groupby(
            sorted(held, key=value, reverse=True), value)]
    return VerificationReport(
        "duality-r", {"k": format_index(k), "N": f"2^{lo}..2^{hi}"},
        "; ".join(decs), "; ".join(want), passed, time.perf_counter() - started)


def _missing_fixture_report(check_id, k, n):
    return make_report(check_id, {"k": format_index(k), "n": n},
                       "no pinned threshold", "fixtures record",
                       time.perf_counter())


def verify_tasks(args, caps):
    """The ordered instance list for one suite: (callable, kwargs) pairs."""
    suite = args.suite
    tasks = []
    if suite not in ("transport", "duality-r", "log2"):
        if args.max_weight < 1:
            raise ValueError(f"--max-weight must be positive, got {args.max_weight}")
        caps.check_weight(Index((args.max_weight,)))
    if suite in ("main", "telescope", "hoffman-identity"):
        caps.check_upper(args.max_upper)
        for k in indices_up_to_weight(args.max_weight):
            for n in range(1, args.max_upper + 1):
                if suite == "main":
                    tasks.append((main_identity_check,
                                  {"k": k, "upper": n, "method": args.method}))
                elif suite == "telescope":
                    tasks.append((_telescope_report, {"k": k, "upper": n}))
                else:
                    tasks.append((hoffman_identity_check, {"k": k, "upper": n}))
    elif suite == "transport":
        caps.check_upper(args.max_upper)
        for n in range(1, args.max_upper + 1):
            tasks.append((_transport_sweep_report, {"which": 1, "upper": n}))
            tasks.append((_transport_sweep_report, {"which": 2, "upper": n}))
    elif suite == "duality-r":
        lo, hi = parse_range(args.powers)
        if not 0 <= lo <= hi:
            raise ValueError(f"empty or negative fence range 2^{lo}..2^{hi}")
        caps.check_power(hi)
        if args.index:
            indices = [parse_index(t) for t in args.index]
        else:
            indices = [Index(t) for t in CONVERGENCE_INDICES]
        for k in indices:
            caps.check_weight(k)
        for k in indices:
            # The decrease is ranked only past the empty fences N <= depth
            # (see _convergence_report); it needs two fences there.
            depth = max(k.depth, dual(k).depth)
            if sum(2 ** j > depth for j in range(lo, hi + 1)) < 2:
                raise ValueError(
                    f"--powers {lo}..{hi} gives fewer than two fences above "
                    f"depth {depth} for index {format_index(k)}, so duality-r "
                    f"has nothing to compare")
            tasks.append((_duality_r_report, {"k": k, "lo": lo, "hi": hi}))
    elif suite in ("duality-a", "antipode", "padic", "seki"):
        lo, hi = parse_range(args.primes)
        caps.check_prime(hi)
        check = {"duality-a": hoffman_duality_check,
                 "antipode": antipode_duality_check,
                 "padic": padic_duality_check,
                 "seki": seki_lifting_check}[suite]
        # duality-a and antipode are the unlifted statements, exponent 1.
        lifted = suite in ("padic", "seki")
        n_values, fixtures = [1], None
        if lifted:
            n_values = parse_exponents(args.n_values)
            for n in n_values:
                caps.check_exponent(n)
                if n >= 2 and fixtures is None:
                    fixtures = load_thresholds(
                        PADIC_FIXTURES if suite == "padic" else SEKI_FIXTURES)
        # One prime list for the grid; each exponent's floor filters it.
        primes = primes_in(lo, hi)
        for k in indices_up_to_weight(args.max_weight):
            for n in n_values:
                if n == 1:
                    floor = max(lo, 3)
                else:
                    pinned = fixtures.get((k, n))
                    if pinned is None:
                        tasks.append((_missing_fixture_report,
                                      {"check_id": check.__name__
                                       .replace("_check", "")
                                       .replace("_", "-"),
                                       "k": k, "n": n}))
                        continue
                    floor = max(lo, pinned)
                for p in (q for q in primes if q >= floor):
                    tasks.append((check, {"k": k, "p": p, "n": n} if lifted
                                  else {"k": k, "p": p}))
    elif suite == "log2":
        caps.check_upper(args.max_upper)
        for n in range(1, args.max_upper + 1):
            tasks.append((log2_discretization_check, {"upper": n}))
    return tasks


def _sweeps(tasks):
    """The report of each task, in order: each run of consecutive tasks
    that one sweep serves goes to it in one call, which shares its tables
    across the run; any other task is called alone."""
    # Built at each call from the module's names, as a tracer rebinds them.
    sweeps = dict.fromkeys((hoffman_duality_check, antipode_duality_check,
                            padic_duality_check, seki_lifting_check,
                            _missing_fixture_report), residue_sweep)
    sweeps.update({main_identity_check: main_sweep,
                   hoffman_identity_check: hoffman_identity_sweep,
                   _telescope_report: telescope_sweep,
                   _duality_r_report: duality_sweep})
    for sweep, run in groupby(tasks, lambda task: sweeps.get(task[0])):
        if sweep is None:
            yield from (fn(**kwargs) for fn, kwargs in run)
        else:
            yield from sweep(run)


def cmd_verify(args):
    caps = caps_of(args)
    if args.csv and (args.suite != "duality-r" or not args.index
                     or len(args.index) != 1):
        raise ValueError("--csv needs suite duality-r with exactly one --index")
    if args.jobs < 1:
        raise ValueError(f"--jobs must be positive, got {args.jobs}")
    if args.method != "dp" and args.suite != "main":
        raise ValueError(f"--method {args.method} applies only to suite main")
    tasks = verify_tasks(args, caps)
    if not tasks:
        raise ValueError("the grid holds no instances to check")
    if args.csv:
        # --csv leaves one duality-r task; its defects feed table and verdict.
        (_, kwargs), = tasks
        started = time.perf_counter()
        defects, scales = _duality_r_defects(**kwargs)
        report = _convergence_report(**kwargs, defects=defects, scales=scales,
                                     started=started)
        print("N,diff_num,diff_den,diff_decimal")
        for j, (d, s) in enumerate(zip(defects, scales), kwargs["lo"]):
            g = gcd(d, s)
            print(f"{2 ** j},{d // g},{s // g},{ratio_str(d, s)}")
        good, total = int(report.passed), 1
    else:
        good = total = 0
        for r in _sweeps(tasks):
            print(r.json_line() if args.json else r.line())
            good += 1 if r.passed else 0
            total += 1
    verdict = "PASS" if good == total else "FAIL"
    print(f"{verdict} {good}/{total}",
          file=sys.stderr if args.json or args.csv else sys.stdout)
    return 0 if good == total else 1


def cmd_trace(args):
    caps = caps_of(args)
    k = parse_index(args.index)
    caps.check_weight(k)
    caps.check_upper(args.N)
    trace = telescope(k, args.N)
    if args.json:
        print(trace.to_json())
    else:
        print(trace.to_text())
    return 0 if trace.all_equal else 1


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.command == "eval":
        return cmd_eval(args)
    if args.command == "verify":
        return cmd_verify(args)
    return cmd_trace(args)


def entry(argv=None):
    try:
        # Exact values at large fences have numerators far beyond the
        # default int-to-str conversion limit.
        sys.set_int_max_str_digits(1_000_000)
    except AttributeError:
        pass
    try:
        rc = main(argv)
        sys.stdout.flush()
        return rc
    except BrokenPipeError:
        # The reader went away (say, `| head`).  Point stdout at devnull
        # so the flush at interpreter exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except CapExceededError as e:
        print(f"cap exceeded: {e}", file=sys.stderr)
        return 3
    except (ValueError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(entry())
