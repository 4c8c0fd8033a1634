"""The exit-code contract of the CLI over a grid of bandwidths.

Every argv gives a verified result (exit 0) or a typed refusal (exit 2),
never a FAIL (exit 1) that only says "this c is outside the method's range".
Inside each job's stated c-range a run must exit 0; outside it, it must exit
2 with ``error[out-of-range]``.  The ranges are those measured at the default
truncation and stated in ``verify --help`` and the ``cli`` docstring.

Cells that break the contract today are strict expected failures, each
naming the ROADMAP item that removes it: a cell that starts to pass fails
this test until its mark is taken out.  The list may only get shorter.
"""

import argparse
import re

import pytest

from prolate_calculus import cli

C_GRID = (0.5, 4, 8, 10, 12, 15, 18, 20, 22, 25, 30, 40)

# Job -> (argv before --c, c inside the stated range).
JOBS = {
    "pswf": (("pswf",), lambda c: c <= 20),
    "translation": (("verify", "--suite", "translation"), lambda c: c <= 12),
    "fourier folded": (("verify", "--suite", "fourier", "--variant", "folded"), lambda c: c <= 18),
    "fourier full": (("verify", "--suite", "fourier", "--variant", "full"), lambda c: c <= 18),
    "sinc folded": (("verify", "--suite", "sinc", "--variant", "folded"), lambda c: c <= 18),
    "sinc full": (("verify", "--suite", "sinc", "--variant", "full"), lambda c: c <= 18),
    "limits-large": (("verify", "--suite", "limits-large"), lambda c: c >= 4),
    "commutation": (("verify", "--suite", "commutation"), lambda c: c <= 40),
}

# ROADMAP item 3 predicts each path's range before any work and refuses
# past it; item 4 rebuilds limits-large so that it passes.
_OUT_OF_RANGE_FAIL = "exit 1 past the stated range; ROADMAP item 3 refuses it as out-of-range"
_XI_UNRESOLVED = "error[xi-quadrature-unresolved] past the stated range; ROADMAP item 3 refuses it first"
_LIMITS_LARGE = "limits-large FAILs at every c; ROADMAP item 4 rebuilds it"
EXPECTED_FAILURES = {
    **{("pswf", c): _OUT_OF_RANGE_FAIL for c in (22, 25, 30, 40)},
    **{("translation", c): _OUT_OF_RANGE_FAIL for c in (15, 18, 20, 22, 25, 30)},
    **{("sinc folded", c): _OUT_OF_RANGE_FAIL for c in (20, 22)},
    ("sinc full", 20): _OUT_OF_RANGE_FAIL,
    **{("limits-large", c): _LIMITS_LARGE for c in C_GRID if c >= 4},
    **{(job, c): _XI_UNRESOLVED for job in ("fourier folded", "fourier full") for c in (20, 22, 25, 30)},
    **{("sinc folded", c): _XI_UNRESOLVED for c in (25, 30)},
    **{("sinc full", c): _XI_UNRESOLVED for c in (22, 25, 30)},
}


def _cells():
    for job in JOBS:
        for c in C_GRID:
            reason = EXPECTED_FAILURES.get((job, c))
            marks = [pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason)] if reason else []
            yield pytest.param(job, c, marks=marks, id=f"{job}-{c:g}")


def test_expected_failures_are_the_listed_cells():
    assert len(EXPECTED_FAILURES) == 37
    assert sum(reason != _XI_UNRESOLVED for reason in EXPECTED_FAILURES.values()) == 24
    assert {job for job, _ in EXPECTED_FAILURES} <= set(JOBS)
    assert {c for _, c in EXPECTED_FAILURES} <= set(C_GRID)


@pytest.mark.parametrize("job, c", _cells())
def test_exit_code_contract(job, c, capsys):
    prefix, in_range = JOBS[job]
    code = cli.main([*prefix, "--c", str(c)])
    captured = capsys.readouterr()
    assert code != 1, captured.out
    if in_range(c):
        assert code == 0, captured.err
    else:
        assert code == 2
        assert captured.err.startswith("error[out-of-range]"), captured.err


def _suite_help() -> str:
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    (suite,) = [a for a in commands.choices["verify"]._actions if a.dest == "suite"]
    return suite.help


@pytest.mark.parametrize(
    "statement",
    ["translation c <= 12", "fourier c <= 18", "sinc c <= 18", "commutation c <= 40",
     "limits-small runs at c in [1e-6, 0.1]", "limits-large at c >= 4"],
)
def test_help_and_docstring_state_the_contract_ranges(statement):
    for text in (_suite_help(), cli.__doc__):
        assert statement in re.sub(r"\s+", " ", text)
