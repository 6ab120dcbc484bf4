"""One expression per quantity, two backends, one precision switch.

Each formula is written once against a namespace ``xp`` holding ``exp``,
``log``, ``log1p``, ``sqrt``, ``tanh``, ``logaddexp``, ``logcosh`` and
``asarray`` (float inputs to the backend's numbers):

- ``FLOAT`` evaluates doubles: numpy on arrays, libm (``math``) on scalars as
  the scalar kernels always have, so their results stay bit for bit.  Where
  libm raises, a scalar gets numpy's inf or nan instead, and scalars are
  float64, so ``**`` overflows to inf; ``require_finite`` turns a non-finite
  double into NumericRange.
- ``MP`` evaluates mpmath at 50 digits, on mpf scalars and, through
  ``np.frompyfunc``, on object arrays of mpf.  It also holds mpmath's
  ``isint`` and ``prec()``, the working precision in bits.

This is the only module that imports mpmath, and it does so on first
50-digit use: ``MP`` builds its functions at its first attribute read, and
``mp_workdps`` imports mpmath when it is entered.  A run that only computes in
doubles never loads it.

``SHARPLP_PRECISION`` (``double`` by default, or ``high``) picks the backend.
Each public call reads it once, in ``with backend() as xp:``, which also sets
mpmath to 50 digits for ``MP``; private kernels take ``xp`` as an argument.
Both backends run the same expressions, so ``tests/oracle.py`` keeps an
independent 50-digit reference written from the paper's formulas.
"""
from __future__ import annotations

import math
import os
from contextlib import contextmanager, nullcontext
from types import SimpleNamespace

import numpy as np

from .errors import NumericRange, UnknownPrecisionMode

PRECISION_ENV = "SHARPLP_PRECISION"
HIGH_DPS = 50

_VALID_MODES = ("double", "high")


def active_mode() -> str:
    """Return the current evaluation mode, validating the environment variable."""
    mode = os.environ.get(PRECISION_ENV, "double")
    if mode not in _VALID_MODES:
        raise UnknownPrecisionMode(
            f"{PRECISION_ENV} must be one of {_VALID_MODES}, got {mode!r}"
        )
    return mode


def high_precision() -> bool:
    return active_mode() == "high"


def _libm_or_numpy(math_fn, np_fn):
    def fn(x):
        if isinstance(x, np.ndarray):
            return np_fn(x)
        try:
            return math_fn(x)
        except (OverflowError, ValueError):
            with np.errstate(all="ignore"):
                return np_fn(np.float64(x))
    return fn


def _float_asarray(x):
    return np.asarray(x, dtype=float) if isinstance(x, np.ndarray) else np.float64(x)


def _float_logaddexp(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.logaddexp(a, b)
    if -math.inf in (a, b):
        return b if a == -math.inf else a
    m = a if a > b else b
    return m + math.log1p(math.exp(-abs(a - b)))


FLOAT = SimpleNamespace(
    **{
        name: _libm_or_numpy(getattr(math, name), getattr(np, name))
        for name in ("exp", "log", "log1p", "sqrt", "tanh")
    },
    logaddexp=_float_logaddexp,
    asarray=_float_asarray,
)
# log(cosh(x)), stable for all x (never overflows)
FLOAT.logcosh = lambda x: abs(x) + FLOAT.log1p(FLOAT.exp(-2.0 * abs(x))) - FLOAT.log(2.0)


def _mp_elementwise(fn, nin=1):
    """fn over object arrays through np.frompyfunc; called directly on scalars,
    which skips the ufunc machinery's few microseconds per call."""
    ufunc = np.frompyfunc(fn, nin, 1)
    return lambda *args: ufunc(*args) if isinstance(args[0], np.ndarray) else fn(*args)


class _Mp:
    """The ``MP`` namespace.  Its first attribute read imports mpmath and
    stores every function as a plain instance attribute, so later reads are
    ordinary lookups and never reach ``__getattr__`` again."""

    def __getattr__(self, name):
        if name.startswith("_"):  # copy, pickle and the like probe for these
            raise AttributeError(name)
        import mpmath as mp

        vars(self).update(
            {
                fn: _mp_elementwise(getattr(mp, fn))
                for fn in ("exp", "log", "sqrt", "tanh")
            },
            # log of the exact sum: as accurate as mp.log1p, in half its time
            log1p=_mp_elementwise(lambda x: mp.log(mp.fadd(1, x, exact=True))),
            logaddexp=_mp_elementwise(lambda a, b: mp.log(mp.exp(a) + mp.exp(b)), 2),
            logcosh=_mp_elementwise(lambda x: mp.log(mp.cosh(x))),
            asarray=_mp_elementwise(mp.mpf),
            isint=mp.isint,
            prec=lambda: mp.mp.prec,
        )
        return object.__getattribute__(self, name)


MP = _Mp()


@contextmanager
def mp_workdps():
    """The 50-digit backend, with mpmath at the toolkit's digit count."""
    import mpmath as mp

    with mp.workdps(HIGH_DPS):
        yield MP


def backend():
    """Context yielding the backend ``SHARPLP_PRECISION`` selects (read here)."""
    return mp_workdps() if high_precision() else nullcontext(FLOAT)


def require_finite(p, **sides) -> None:
    """Raise NumericRange unless every entry of every named value is finite.

    ``p`` is the exponent the message names (not named when it is an array).
    50-digit values (mpf, object arrays) pass: their exponent range is
    unbounded, so they do not overflow.
    """
    at = f" at exponent {float(p)!r}" if np.ndim(p) == 0 else ""
    for name, side in sides.items():
        side = np.asarray(side)
        if side.dtype != object and not np.isfinite(side).all():
            raise NumericRange(
                f"{name}{at} is not finite in double precision; "
                "the exponent is beyond the range the double path evaluates"
            )
