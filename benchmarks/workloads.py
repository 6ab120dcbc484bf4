"""Seeded workloads: the CLI invocations of one pass and how to run them.

A workload is a fixed list of ``sharplp`` command lines built from the seed;
the program only ever sees those arguments.  One pass runs every invocation
of the list in order, in this process, through ``sharplp.cli.parse_config``
and ``sharplp.cli.run``, with stdout and stderr captured in memory.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import time
import traceback
from dataclasses import dataclass

# double: verify, contour and schatten at their default sizes, on the double
# path.  oracle: the sign-pattern audit and the 50-digit mpmath path.
WORKLOADS = ("double", "oracle")

PRECISION_ENV = "SHARPLP_PRECISION"

# `sharplp audit` sweeps this grid when no c is given; seed 0 of the oracle
# workload passes it explicitly so that it stays the default grid even if the
# program's own default changes.
DEFAULT_C_GRID = (
    -3.0, -1.0, -0.2, 0.05, 0.2, 0.35, 0.45, 0.55, 0.7, 0.9, 1.3, 2.0, 3.5, 8.0,
)

# Ranges the seeded c values are drawn from, with how many c each gets.  The
# ranges keep 0.05 away from the excluded points 0, 1/2 and 1 and from c = 2,
# where the informational extras of the audit change; the counts follow the
# default grid so that every seed audits a similar number of patterns.
C_RANGES = (
    ((-4.0, -0.05), 3),
    ((0.05, 0.45), 4),
    ((0.55, 0.95), 3),
    ((1.05, 1.95), 1),
    ((2.05, 8.0), 3),
)

DEFAULT_WINDOW = (0.5, 1.0, 2.0, 4.0)
GRID_SIZE = 400


@dataclass(frozen=True)
class Invocation:
    """One CLI command line and the precision mode it runs under."""

    args: tuple[str, ...]
    precision: str = "double"


@dataclass
class OpResult:
    """What one invocation produced."""

    invocation: Invocation
    exit_code: int | None
    stdout: str
    stderr: str
    error: str | None  # traceback text when the invocation raised
    seconds: float

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.stdout.encode("utf-8")).hexdigest()


def _num(x: float) -> str:
    return repr(float(x))


def contour_window(seed: int) -> tuple[float, float, float, float]:
    """(alpha_min, alpha_max, p_min, p_max) inside [0, 1] x [2, 8]."""
    if seed == 0:
        return DEFAULT_WINDOW
    r = random.Random(seed)
    a_lo = round(r.uniform(0.0, 0.8), 4)
    a_hi = round(r.uniform(a_lo + 0.1, 1.0), 4)
    p_lo = round(r.uniform(2.0, 7.0), 4)
    p_hi = round(r.uniform(p_lo + 0.5, 8.0), 4)
    return a_lo, a_hi, p_lo, p_hi


def c_grid(seed: int) -> tuple[float, ...]:
    if seed == 0:
        return DEFAULT_C_GRID
    r = random.Random(seed)
    cs = [round(r.uniform(lo, hi), 4) for (lo, hi), n in C_RANGES for _ in range(n)]
    return tuple(sorted(cs))


def invocations(workload: str, seed: int, tiny: bool = False) -> tuple[Invocation, ...]:
    """The command lines of one pass.  ``tiny`` shrinks every size for tests."""
    s = str(seed)
    if workload == "double":
        a_lo, a_hi, p_lo, p_hi = contour_window(seed)
        n = "4" if tiny else str(GRID_SIZE)
        return (
            Invocation(("verify", "--seed", s) + (("--trials", "3") if tiny else ())),
            Invocation((
                "contour",
                "--alpha-min", _num(a_lo), "--alpha-max", _num(a_hi),
                "--p-min", _num(p_lo), "--p-max", _num(p_hi),
                "--na", n, "--np", n,
            )),
            Invocation(("schatten", "--seed", s) + (("--trials", "2") if tiny else ())),
        )
    if workload == "oracle":
        cs = c_grid(seed)[:2] if tiny else c_grid(seed)
        # One audit per c (the program audits each c on its own either way):
        # short invocations let the fastest time of each be taken from the
        # brief moments when a shared host runs at full speed.  The = form
        # keeps argparse from reading a leading minus as an option.
        audits = tuple(
            Invocation(("audit", "--c-grid=" + _num(c)) + (("--points", "1000") if tiny else ()))
            for c in cs
        )
        return audits + (
            Invocation(("verify", "--seed", s, "--trials", "1" if tiny else "20"), "high"),
            Invocation(("means", "--seed", s) + (("--trials", "3") if tiny else ()), "high"),
            Invocation(("sharpness",), "high"),
        )
    raise ValueError(f"unknown workload {workload!r}")


def run_invocation(cli, inv: Invocation, stdout=None) -> OpResult:
    """Run one command line through ``cli`` with its output captured.

    ``stdout`` is the text sink; by default a ``StringIO`` whose text is
    returned in the result.
    """
    out = io.StringIO() if stdout is None else stdout
    err = io.StringIO()
    saved = os.environ.get(PRECISION_ENV)
    os.environ[PRECISION_ENV] = inv.precision
    code, error = None, None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(cli.parse_config(list(inv.args)))
    except SystemExit as exc:  # argparse rejected the arguments
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # the program raised: record it as a failed operation
        error = traceback.format_exc()
    finally:
        seconds = time.perf_counter() - t0
        if saved is None:
            del os.environ[PRECISION_ENV]
        else:
            os.environ[PRECISION_ENV] = saved
    text = out.getvalue() if isinstance(out, io.StringIO) else ""
    return OpResult(inv, code, text, err.getvalue(), error, seconds)


def run_pass(cli, invs) -> tuple[list[OpResult], float]:
    """Run every invocation once; returns the results and the pass wall time."""
    t0 = time.perf_counter()
    results = [run_invocation(cli, inv) for inv in invs]
    return results, time.perf_counter() - t0
