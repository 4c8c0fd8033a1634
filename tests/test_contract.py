"""The exit-code contract of the CLI over a grid of bandwidths.

Every argv gives a verified result (exit 0) or a typed refusal (exit 2),
never a FAIL (exit 1) that only says "this c is outside the method's range".
Inside each job's stated c-range a run must exit 0; outside it, it must exit
2 with ``error[out-of-range]``.  The ranges are those of ``verify.C_RANGES``,
measured at the default truncation, which ``verify --help`` prints.

Cells that break the contract today are strict expected failures, each
naming the ROADMAP item that removes it and the failure it shows: a cell
that starts to pass, or fails in another way than its reason names, fails
this test until its mark is taken out or corrected.  The list may only get
shorter.
"""

import argparse
import re

import pytest

from prolate_calculus import cli
from prolate_calculus.verify import C_RANGES, SUITES

C_GRID = (0.5, 4, 8, 10, 12, 15, 18, 20, 22, 25, 30, 40)

# Job -> (its row in C_RANGES, argv before --c).
JOBS = {
    "pswf": ("pswf", ("pswf",)),
    "translation": ("translation", ("verify", "--suite", "translation")),
    **{
        f"{suite} {variant}": (suite, ("verify", "--suite", suite, "--variant", variant))
        for suite in ("fourier", "sinc")
        for variant in ("folded", "full")
    },
    "limits-large": ("limits-large", ("verify", "--suite", "limits-large")),
    "commutation": ("commutation", ("verify", "--suite", "commutation")),
}

# ROADMAP item 4 rebuilds limits-large so that it passes.  Each reason
# names the failure it stands for: an exit code and the text that code's
# stream shows (a FAIL record on stdout, or an error kind on stderr).
_LIMITS_LARGE = "limits-large FAILs at every c; ROADMAP item 4 rebuilds it"
_NAMED_FAILURES = {_LIMITS_LARGE: (1, "  [FAIL] ")}
EXPECTED_FAILURES = {("limits-large", c): _LIMITS_LARGE for c in C_GRID if c >= 4}


def _cells():
    for job in JOBS:
        for c in C_GRID:
            reason = EXPECTED_FAILURES.get((job, c))
            marks = [pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason)] if reason else []
            yield pytest.param(job, c, marks=marks, id=f"{job}-{c:g}")


def test_expected_failures_are_the_listed_cells():
    assert len(EXPECTED_FAILURES) == 11
    assert sum(reason == _LIMITS_LARGE for reason in EXPECTED_FAILURES.values()) == 11
    assert set(EXPECTED_FAILURES.values()) <= set(_NAMED_FAILURES)
    assert {job for job, _ in EXPECTED_FAILURES} <= set(JOBS)
    assert {c for _, c in EXPECTED_FAILURES} <= set(C_GRID)


@pytest.mark.parametrize("job, c", _cells())
def test_exit_code_contract(job, c, capsys):
    row, prefix = JOBS[job]
    code = cli.main([*prefix, "--c", str(c)])
    captured = capsys.readouterr()
    reason = EXPECTED_FAILURES.get((job, c))
    if reason is not None:
        # Not an AssertionError, so the strict xfail does not absorb it.
        named_code, named_text = _NAMED_FAILURES[reason]
        stream = captured.out if named_code == 1 else captured.err
        if code != named_code or named_text not in stream:
            pytest.fail(f"{job} at c = {c:g} exits {code}, not as its reason names: {reason}\n"
                        f"{captured.out}{captured.err}")
    assert code != 1, captured.out
    if c in C_RANGES[row]:
        assert code == 0, captured.err
    else:
        assert code == 2
        assert captured.err.startswith(f"error[out-of-range]: {row} runs at c "), captured.err


def _commands() -> argparse._SubParsersAction:
    (commands,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return commands


def _flat(text: str) -> str:
    return re.sub(r"\s+", " ", text)


def test_help_and_docstring_state_the_contract_ranges():
    commands = _commands()
    (suite,) = [a for a in commands.choices["verify"]._actions if a.dest == "suite"]
    for name in SUITES:
        assert re.search(rf"\b{re.escape(f'{name} {C_RANGES[name]}')}[,.]", _flat(suite.help))
    (pswf,) = [a for a in commands._choices_actions if a.dest == "pswf"]
    assert pswf.help.endswith(f"at {C_RANGES['pswf']}")
    nystrom = _flat(commands.choices["nystrom"].description)
    assert f"Runs at {C_RANGES['nystrom']}, refusing any other c" in nystrom
    # The docstring points to the table instead of restating it.
    doc = _flat(cli.__doc__)
    assert "stated once, in ``verify.C_RANGES``" in doc
    assert not re.search(r"c <= \d", doc)
