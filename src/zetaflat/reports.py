"""Verification reports and canonical value rendering.

Every check in the package returns a VerificationReport: the check id, the
rendered inputs, both sides as canonical strings, the verdict, and the
elapsed wall time.  The verdict is exactly string identity of the two
sides, so there is no tolerance hiding anywhere; a rational renders as
"num/den" (always with the denominator), a residue as "value mod modulus".
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction

from .chainsum import Residue


def fraction_str(q) -> str:
    if not isinstance(q, (Fraction, int)):
        q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def decimal_str(q, places=12) -> str:
    """Exact decimal rendering of a rational, round-half-even.

    Computed in integer arithmetic; no floats involved.
    """
    q = Fraction(q)
    if places < 0:
        raise ValueError("places must be non-negative")
    sign = "-" if q < 0 else ""
    q = abs(q)
    scaled = q.numerator * 10 ** places
    quo, rem = divmod(scaled, q.denominator)
    if 2 * rem > q.denominator or (2 * rem == q.denominator and quo % 2 == 1):
        quo += 1
    digits = str(quo).rjust(places + 1, "0")
    if places == 0:
        return sign + digits
    return f"{sign}{digits[:-places]}.{digits[-places:]}"


def render_value(x) -> str:
    """Canonical string for anything a check may output."""
    if isinstance(x, Residue):
        return str(x)
    if isinstance(x, (Fraction, int)):
        return fraction_str(x)
    if isinstance(x, str):
        return x
    if isinstance(x, (list, tuple)):
        return "[" + ", ".join(render_value(v) for v in x) + "]"
    raise TypeError(f"no canonical rendering for {x!r}")


@dataclass(frozen=True)
class VerificationReport:
    check_id: str
    inputs: dict
    lhs: str
    rhs: str
    passed: bool
    elapsed: float
    notes: dict = field(default_factory=dict)

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

    def line(self) -> str:
        verdict = "ok  " if self.passed else "FAIL"
        args = " ".join(f"{k}={v}" for k, v in self.inputs.items())
        tail = "" if self.passed else f"  lhs={self.lhs}  rhs={self.rhs}"
        return f"{verdict} {self.check_id} {args}{tail}"


def make_report(check_id, inputs, lhs_value, rhs_value, started,
                notes=None) -> VerificationReport:
    """Render both sides and compare them by string identity."""
    lhs = render_value(lhs_value)
    rhs = render_value(rhs_value)
    return VerificationReport(
        check_id=check_id,
        inputs={k: str(v) for k, v in inputs.items()},
        lhs=lhs,
        rhs=rhs,
        passed=lhs == rhs,
        elapsed=time.perf_counter() - started,
        notes=dict(notes or {}),
    )
