"""Evaluation-path selection and shared numeric helpers.

The environment variable ``SHARPLP_PRECISION`` selects between the default
double-precision path (``double``) and a slow high-precision path (``high``,
mpmath with 50 significant digits) behind the same operation signatures.  The
high path exists as an oracle: frozen expected values in the test suite were
produced with it.
"""
from __future__ import annotations

import math
import os
from contextlib import contextmanager

import mpmath as mp
import numpy as np

from .errors import NumericRange

PRECISION_ENV = "SHARPLP_PRECISION"
HIGH_DPS = 50

_VALID_MODES = ("double", "high")


def active_mode() -> str:
    """Return the current evaluation mode, validating the environment variable."""
    mode = os.environ.get(PRECISION_ENV, "double")
    if mode not in _VALID_MODES:
        raise ValueError(
            f"{PRECISION_ENV} must be one of {_VALID_MODES}, got {mode!r}"
        )
    return mode


def high_precision() -> bool:
    return active_mode() == "high"


@contextmanager
def mp_workdps():
    """mpmath context at the toolkit's high-precision digit count."""
    with mp.workdps(HIGH_DPS):
        yield mp


def require_finite(p: float, **sides: np.ndarray) -> None:
    """Raise NumericRange unless every entry of every named array is finite.

    Object arrays hold 50-digit mpf, which do not overflow.
    """
    for name, side in sides.items():
        if side.dtype == object:
            finite = all(mp.isfinite(v) for v in side.flat)
        else:
            finite = bool(np.isfinite(side).all())
        if not finite:
            raise NumericRange(
                f"{name} at exponent {p!r} is not finite in double precision; "
                "the exponent is beyond the range the double path evaluates"
            )


def logcosh(x: float) -> float:
    """log(cosh(x)), stable for all x (never overflows)."""
    ax = abs(x)
    return ax + math.log1p(math.exp(-2.0 * ax)) - math.log(2.0)


def logaddexp(a: float, b: float) -> float:
    """log(e^a + e^b) for scalars, tolerating -inf."""
    if a == -math.inf:
        return b
    if b == -math.inf:
        return a
    m = a if a > b else b
    return m + math.log1p(math.exp(-abs(a - b)))
