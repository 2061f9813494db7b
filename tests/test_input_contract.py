"""The input contract over a fixed table of command lines, run in process.

Every case ends in exit 0, 1 or 2; no exception leaves ``main`` and no
warning is raised; a non-zero exit writes exactly one stderr line that
starts with ``gaqb: ``; and a usage error (exit 1) names a RunConfig field
or its flag.  Each command starts from a small base run, so the whole table
takes about a second.
"""
import re
import sys
import warnings

import pytest

from gaqb.cli import _COMMANDS, _FIELD_TYPES, _flag, main

FLOATS = ("0", "-0.0", "5e-324", "1e-300", "1e-12", "1", "1e12", "1e300", repr(sys.float_info.max),
          "inf", "-inf", "nan", "-1")
INTEGERS = ("0", "-1", "1", "2", str(10**7 + 1), str(10**18))
# gamma_max and tau_scaled, each over 5e-324 to the largest double
RATES = ("5e-324", "1e-312", "1e-300", "1e-12", "1", "1e12", "1e300", "1e308", repr(sys.float_info.max))
# tmax and dt, over the positive values of FLOATS
POSITIVE = ("5e-324", "1e-300", "1e-12", "1", "1e12", "1e300", repr(sys.float_info.max))
PHASES = ("-" + repr(sys.float_info.max), "-1", "0", "1", "1e300", repr(sys.float_info.max))

# small windows and coarse steps: a case that runs takes a few dozen steps
BASE = {
    "params": ["params", "--theta-steps", "3"],
    "charge": ["charge", "--tmax", "1", "--dt", "0.1", "--stride", "5"],
    "sweep": ["sweep", "--theta-steps", "3", "--tmax", "1", "--dt", "0.1", "--stride", "5"],
    "chiral": ["chiral", "--gamma-max", "1", "--tau-scaled", "1", "--dt", "0.1"],
}
_NAMES = [re.compile(rf"\b{re.escape(name)}\b|{re.escape(_flag(name))}\b") for name in _FIELD_TYPES]


def _breaches(argv, capsys):
    """How the command line ``argv`` breaks the contract, or None if it keeps it."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            rc = main(argv)
        except Exception as exc:  # an escaping exception is the finding
            return f"raised {type(exc).__name__}: {exc}"
    err = capsys.readouterr().err
    if caught:
        return f"warned {caught[0].category.__name__}: {caught[0].message}"
    if rc not in (0, 1, 2):
        return f"exit {rc!r}"
    lines = err.splitlines()
    if rc == 0:
        return f"exit 0 with stderr {err!r}" if err else None
    if len(lines) != 1 or not lines[0].startswith("gaqb: "):
        return f"exit {rc} with stderr {err!r}"
    if rc == 1 and not any(name.search(lines[0]) for name in _NAMES):
        return f"exit 1 names no field: {lines[0]!r}"
    return None


def _check(cases, capsys):
    breaches = [f"gaqb {' '.join(argv)}: {b}" for argv in cases if (b := _breaches(argv, capsys))]
    assert not breaches, "\n".join(breaches)


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_each_numeric_field_alone(command, capsys):
    cases = []
    for field in _COMMANDS[command][1]:
        kind = _FIELD_TYPES[field]
        values = FLOATS if kind is float else INTEGERS if kind is int else ()
        cases += [[*BASE[command], f"{_flag(field)}={value}"] for value in values]
    _check(cases, capsys)


@pytest.mark.parametrize("window", [[], ["--tmax", "1"]], ids=["three-tau", "tmax-1"])
def test_chiral_rates_by_protocol_time(window, capsys):
    # tau = tau_scaled / gamma_max spans subnormal to overflowing, and the
    # step the run takes is tau wherever tau is shorter than dt
    _check([["chiral", "--gamma-max", g, "--tau-scaled", s, "--dt", "0.1", *window]
            for g in RATES for s in RATES], capsys)


@pytest.mark.parametrize("command", ["charge", "sweep", "chiral"])
def test_window_by_step(command, capsys):
    _check([[*BASE[command], "--tmax", t, "--dt", h] for t in POSITIVE for h in POSITIVE], capsys)


def test_theta_range(capsys):
    _check([[*BASE["sweep"], f"--theta-min={lo}", f"--theta-max={hi}"] for lo in PHASES for hi in PHASES],
           capsys)
