"""Verification reports and canonical value rendering.

Every check in the package returns a VerificationReport: the check id, the
rendered inputs, both sides as canonical strings, the verdict, and the
elapsed wall time.  The verdict is exact equality of the two canonical
strings or, by cross-multiplication, of two integer ratios (`ratio_report`),
so no tolerance hides anywhere; a rational renders as "num/den" in lowest
terms (always with the denominator), a residue as "value mod modulus".
"""

from __future__ import annotations

import json
import time
from fractions import Fraction
from math import gcd

from .chainsum import Residue


def fraction_str(q) -> str:
    if not isinstance(q, (Fraction, int)):
        q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def decimal_str(q, places=12) -> str:
    """Exact decimal rendering of a rational, round-half-even."""
    q = Fraction(q)
    return ratio_str(q.numerator, q.denominator, places)


def ratio_str(num, den, places=12) -> str:
    """`decimal_str` of num / den, den > 0, in lowest terms or not (a common
    factor scales remainder and divisor alike), in integer arithmetic."""
    if places < 0:
        raise ValueError("places must be non-negative")
    sign = "-" if num < 0 else ""
    quo, rem = divmod(abs(num) * 10 ** places, den)
    if 2 * rem > den or (2 * rem == den and quo % 2 == 1):
        quo += 1
    digits = str(quo).rjust(places + 1, "0")
    if places == 0:
        return sign + digits
    return f"{sign}{digits[:-places]}.{digits[-places:]}"


def render_value(x) -> str:
    """Canonical string for anything a check may output."""
    if isinstance(x, (Fraction, int)):
        return fraction_str(x)
    if isinstance(x, Residue):
        return str(x)
    if isinstance(x, str):
        return x
    if isinstance(x, (list, tuple)):
        return "[" + ", ".join(render_value(v) for v in x) + "]"
    raise TypeError(f"no canonical rendering for {x!r}")


class VerificationReport:
    """One check's outcome; `inputs` maps names to rendered values, and
    `notes` holds extra keys for the JSON form, written after the rest."""

    __slots__ = ("check_id", "inputs", "lhs", "rhs", "passed", "elapsed",
                 "notes")

    def __init__(self, check_id, inputs, lhs, rhs, passed, elapsed,
                 notes=None):
        self.check_id = check_id
        self.inputs = inputs
        self.lhs = lhs
        self.rhs = rhs
        self.passed = passed
        self.elapsed = elapsed
        self.notes = {} if notes is None else notes

    def to_json_dict(self) -> dict:
        out = {
            "check_id": self.check_id,
            "inputs": self.inputs,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "pass": self.passed,
            "elapsed_ms": round(self.elapsed * 1000.0, 3),
        }
        out.update(self.notes)
        return out

    def json_line(self) -> str:
        """`json.dumps(self.to_json_dict())`, written from a template when
        no string needs an escape (all printable ASCII, no quote or
        backslash), `passed` is a bool, every note an int and the time
        finite; otherwise by json.dumps."""
        inputs, notes = self.inputs, self.notes
        ms = round(self.elapsed * 1000.0, 3)
        try:  # equal sides are often one string: scan it once
            text = "".join((self.check_id, self.lhs, "" if self.rhs is self.lhs
                            else self.rhs, *inputs, *inputs.values(), *notes))
        except TypeError:  # some value is not a string
            text = "\\"
        if (not text.isascii() or not text.isprintable() or '"' in text
                or "\\" in text or type(self.passed) is not bool
                or ms - ms != 0.0
                or notes and any(type(v) is not int for v in notes.values())):
            return json.dumps(self.to_json_dict())
        fields = ", ".join([f'"{k}": "{v}"' for k, v in inputs.items()])
        extra = "".join([f', "{k}": {v}' for k, v in notes.items()]) if notes else ""
        return (f'{{"check_id": "{self.check_id}", "inputs": {{{fields}}}, '
                f'"lhs": "{self.lhs}", "rhs": "{self.rhs}", '
                f'"pass": {"true" if self.passed else "false"}, '
                f'"elapsed_ms": {ms!r}{extra}}}')

    def line(self) -> str:
        verdict = "ok  " if self.passed else "FAIL"
        args = " ".join(f"{k}={v}" for k, v in self.inputs.items())
        tail = "" if self.passed else f"  lhs={self.lhs}  rhs={self.rhs}"
        return f"{verdict} {self.check_id} {args}{tail}"


def make_report(check_id, inputs, lhs_value, rhs_value,
                started) -> VerificationReport:
    """Render both sides and compare them by string identity."""
    lhs = render_value(lhs_value)
    rhs = render_value(rhs_value)
    return VerificationReport(
        check_id, {k: str(v) for k, v in inputs.items()}, lhs, rhs,
        lhs == rhs, time.perf_counter() - started)


def ratio_report(check_id, inputs, lhs, rhs, started,
                 notes=None) -> VerificationReport:
    """`make_report` on rationals given as (num, den) sides, den > 0, in
    any terms: compared by cross-multiplication, and an equal pair
    rendered once, from the side with the smaller denominator.  A string
    rhs says why the check failed and is kept as it is."""
    passed = not isinstance(rhs, str) and lhs[0] * rhs[1] == rhs[0] * lhs[1]
    lhs = _lowest(*(rhs if passed and rhs[1] < lhs[1] else lhs))
    rhs = lhs if passed else rhs if isinstance(rhs, str) else _lowest(*rhs)
    return VerificationReport(
        check_id, {k: str(v) for k, v in inputs.items()}, lhs, rhs,
        passed, time.perf_counter() - started, notes)


def _lowest(num, den) -> str:
    g = gcd(num, den)
    return f"{num // g}/{den // g}"
