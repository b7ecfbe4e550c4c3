"""`VerificationReport.json_line` against `json.dumps` of the report's dict.

The template must give the very bytes json.dumps gives: key order,
separators, true/false, the float repr of elapsed_ms and the notes after
it.  A string that needs an escape sends the report to json.dumps.
"""

import json
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetaflat import cli, reports
from zetaflat.reports import VerificationReport, make_report

from test_cli import PINNED_RUNS


def dumps(report):
    return json.dumps(report.to_json_dict())


def grid_reports(argv):
    args = cli.build_parser().parse_args(["verify", *argv])
    return list(cli._sweeps(cli.verify_tasks(args, cli.caps_of(args))))


def refuse(*args, **kwargs):
    raise AssertionError("a plain report fell back to json.dumps")


@pytest.mark.parametrize("argv", [argv for argv, _, _ in PINNED_RUNS],
                         ids=[" ".join(argv) for argv, _, _ in PINNED_RUNS])
def test_template_line_of_every_suite(argv, monkeypatch):
    """One small grid per suite, the failing padic grid among them: every
    report takes the template, and its line is json.dumps's."""
    got = grid_reports(argv)
    monkeypatch.setattr(reports, "json", types.SimpleNamespace(dumps=refuse))
    lines = [r.json_line() for r in got]
    monkeypatch.undo()
    assert lines == [dumps(r) for r in got]
    if argv[0] == "telescope":
        assert all(list(json.loads(line))[-1] == "stages" for line in lines)
    if argv[0] == "padic" and "--n-values" in argv:
        assert not all(r.passed for r in got)


@pytest.mark.parametrize("elapsed", [0, 1e-7, 0.0125, 1e13, 2.5e-4, 123.4567])
def test_template_line_of_elapsed_times(elapsed):
    for notes in (None, {"stages": 3}):
        r = VerificationReport("main", {"k": "1,2", "N": "5"}, "1/2", "1/3",
                               False, elapsed, notes)
        assert r.json_line() == dumps(r)


@pytest.mark.parametrize("text", ['say "hi"', "back\\slash", "tab\there",
                                  "bell\x07", "del\x7f", "café",
                                  "∃ N", "\U0001d701"])
def test_strings_that_need_escapes_fall_back(text):
    plain = {"check_id": "main", "lhs": "1/1", "rhs": "1/1"}
    for field in plain:
        r = VerificationReport(**dict(plain, **{field: text}),
                               inputs={"k": "1"}, passed=True, elapsed=0.5)
        assert r.json_line() == dumps(r)
    for inputs in ({text: "1"}, {"k": text}):
        r = VerificationReport("main", inputs, "1/1", "1/1", True, 0.5,
                               {"stages": 2})
        assert r.json_line() == dumps(r)


def test_values_that_are_not_strings_fall_back():
    for r in (VerificationReport("main", {"N": 5}, "1/1", "1/1", True, 0.5),
              VerificationReport("main", {}, "1/1", "1/1", 1, 0.5),
              VerificationReport("main", {}, "1/1", "1/1", True, 0.5,
                                 {"stages": True, "why": "x"}),
              VerificationReport("main", {}, "1/1", "1/1", True,
                                 float("inf"))):
        assert r.json_line() == dumps(r)


@settings(max_examples=300, deadline=None)
@given(check_id=st.text(), lhs=st.text(), rhs=st.text(),
       inputs=st.dictionaries(st.text(), st.text(), max_size=3),
       notes=st.dictionaries(st.text(), st.integers(), max_size=2),
       elapsed=st.floats(min_value=0, max_value=1e15))
def test_template_line_of_any_text(check_id, lhs, rhs, inputs, notes, elapsed):
    r = VerificationReport(check_id, inputs, lhs, rhs, lhs == rhs, elapsed,
                           notes)
    assert r.json_line() == dumps(r)


def test_make_report_renders_inputs_and_keeps_notes():
    notes = {"stages": 4}
    r = make_report("telescope", {"k": "2,1", "N": 7}, 1, 1, 0.0, notes=notes)
    assert r.inputs == {"k": "2,1", "N": "7"} and r.notes is notes
    assert make_report("log2", {"upper": 3}, 1, 2, 0.0).notes == {}
