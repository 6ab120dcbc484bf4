"""Finite discrete measure spaces and weighted p-th power functionals.

A measure space here is a finite list of strictly positive point masses; a
simple function is a list of real values aligned to it.  The power functional
``sum_i w_i |f_i|^p`` and its 1/p-th root are defined for every real p != 0.
For p < 0 the root is a decreasing transform of the functional, not a norm;
the contract is the formula.

The ``*_rows`` kernels evaluate these over a stack of instances at once:
(instances, points) arrays of values and weights, zero-padded, with a mask
marking the points of each row.  The scalar functions wrap them with one row.
``masked_power_rows`` is the one formula for both backends of ``precision``:
the sum of w v^p over the masked entries of each row, in doubles or at 50
digits, from those entries alone, so a caller converts each value to the
backend once; only doubles switch to per-term logs above |p| = 8, to stay in
range.

Every check of the toolkit passes when ``relative_violation`` of its two
sides, in the direction ``forward_region`` gives, is at most ``SLACK``.
Every campaign reads its exponents through ``check_p_value``, which rejects
p = 0 and a near miss of 0, 1 or 2 that is not exactly on it.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    BadShape,
    ExponentOutOfRange,
    InvalidInstance,
    MisalignedFunction,
    NegativeInput,
    NonpositiveValueForNegativeP,
    ZeroExponent,
    ZeroSumPoint,
)
from .precision import FLOAT, backend, require_finite

# |p| above this threshold switches to per-term log-domain evaluation, which
# stays finite for |p| up to several hundred on double precision.
LOG_DOMAIN_THRESHOLD = 8.0

# Relative slack of every verdict: roundoff below it is not a violation.
SLACK = 1e-9

# The bound is undefined at p = 0 and an identity at 1 and 2; it flips at each.
_SPECIAL_PS = (0.0, 1.0, 2.0)


def _as_readonly(values: Sequence[float]) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim != 1:
        raise BadShape("expected a one-dimensional sequence of reals")
    arr.setflags(write=False)
    return arr


class MeasureSpace:
    """Finite list of strictly positive, finite point masses."""

    __slots__ = ("weights",)

    def __init__(self, weights: Sequence[float]):
        arr = _as_readonly(weights)
        check_stack(np.zeros((1, arr.size)), arr[None])  # the checks of one row
        self.weights = arr

    def __len__(self) -> int:
        return int(self.weights.size)

    def total(self) -> float:
        return float(self.weights.sum())

    def __repr__(self) -> str:
        return f"MeasureSpace({self.weights.tolist()!r})"


class SimpleFunction:
    """Real values aligned to the points of a MeasureSpace."""

    __slots__ = ("values",)

    def __init__(self, values: Sequence[float]):
        arr = _as_readonly(values)
        if not np.all(np.isfinite(arr)):
            raise InvalidInstance("function values must be finite")
        self.values = arr

    def __len__(self) -> int:
        return int(self.values.size)

    def __repr__(self) -> str:
        return f"SimpleFunction({self.values.tolist()!r})"


def forward_region(p: float) -> bool:
    """True where the bound reads lhs <= rhs, p in (0, 1] or [2, inf) (the
    identities p = 1, 2 included); False where it reverses, p < 0 or 1 < p < 2."""
    return 0.0 < p <= 1.0 or p >= 2.0


def relative_violation(lhs, rhs, forward: bool):
    """(lhs - rhs) / max(lhs, rhs, 1e-300), or (rhs - lhs) / ... where not
    ``forward``, as doubles, elementwise: > 0 is the wrong direction, and a
    check passes when it is at most SLACK (in absolute value for an identity).

    Every side checked is >= 0, so no abs() is taken: outside the 50-digit
    context mpmath's abs would round an mpf side to 53 bits.
    """
    scale = np.maximum(np.maximum(lhs, rhs), 1e-300)
    return np.asarray(((lhs - rhs) if forward else (rhs - lhs)) / scale, dtype=float)[()]


class RegionKind(enum.Enum):
    """Direction of the sharpened inequality as a function of the exponent."""

    FORWARD = "forward"          # p in (0,1) or (2,inf): lhs <= rhs
    REVERSE = "reverse"          # p in (-inf,0) or (1,2): lhs >= rhs
    BOUNDARY_P1 = "boundary_p1"  # p = 1: identity for nonnegative inputs
    BOUNDARY_P2 = "boundary_p2"  # p = 2: identity
    UNDEFINED_P0 = "undefined_p0"


@dataclass(frozen=True)
class ExponentRegion:
    p: float
    region: RegionKind

    @classmethod
    def from_p(cls, p: float) -> "ExponentRegion":
        p = float(p)
        if p == 0.0:
            kind = RegionKind.UNDEFINED_P0
        elif p == 1.0:
            kind = RegionKind.BOUNDARY_P1
        elif p == 2.0:
            kind = RegionKind.BOUNDARY_P2
        elif forward_region(p):
            kind = RegionKind.FORWARD
        else:
            kind = RegionKind.REVERSE
        return cls(p=p, region=kind)


def _check_aligned(f: SimpleFunction, space: MeasureSpace) -> None:
    if len(f) != len(space):
        raise MisalignedFunction(
            f"function has {len(f)} values but the space has {len(space)} points"
        )


def _check_exponent(p: float) -> float:
    p = float(p)
    if p == 0.0:
        raise ZeroExponent("p = 0 is not admissible")
    return p


def check_p_value(p: float) -> float:
    """The exponent rule of every campaign: p != 0, and p within 1e-9 of 0, 1
    or 2 only when exactly on it.  The kernels accept every p != 0."""
    p = _check_exponent(p)
    for s in _SPECIAL_PS:
        if p != s and abs(p - s) <= 1e-9:
            raise ExponentOutOfRange(
                f"p = {p!r} is within 1e-9 of {s} but not exactly equal; "
                "use the exact special value or move away from it"
            )
    return p


def _check_positive_for_negative_p(values: np.ndarray, p: float) -> None:
    if p < 0.0 and (values <= 0.0).any():
        raise NonpositiveValueForNegativeP(
            "p < 0 requires strictly positive function values"
        )


def check_stack(
    values: np.ndarray, weights: np.ndarray, mask: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validate a stack of instances and return (values, weights, mask).

    Row i is one instance: its points are the entries where ``mask[i]`` is
    True (all entries when ``mask`` is None); the rest is padding, whose
    values never reach a result.  Every row needs at least one point, finite
    values, and strictly positive finite weights, as MeasureSpace and
    SimpleFunction require.
    """
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if values.ndim != 2:
        raise BadShape("expected an (instances, points) stack of values")
    mask = np.ones(values.shape, dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    if weights.shape != values.shape or mask.shape != values.shape:
        raise MisalignedFunction(
            f"values {values.shape}, weights {weights.shape} and mask "
            f"{mask.shape} must have one shape"
        )
    if not mask.any(axis=1).all():
        raise InvalidInstance("a measure space needs at least one point")
    w = weights[mask]
    if not (np.isfinite(w) & (w > 0.0)).all():
        raise InvalidInstance("all point masses must be strictly positive and finite")
    if not np.isfinite(values[mask]).all():
        raise InvalidInstance("function values must be finite")
    return values, weights, mask


def _logsumexp_rows(logs: np.ndarray) -> np.ndarray:
    """Row-wise log(sum(exp(logs))), -inf for rows that are all -inf."""
    m = logs.max(axis=1)
    m = np.where(np.isfinite(m), m, 0.0)
    return m + np.log(np.exp(logs - m[:, None]).sum(axis=1))


def _log_functional_rows(v, w, mask, p: float) -> np.ndarray:
    """Row-wise log of the power functional from per-term logs
    log(w) + p*log(v) of the entries ``mask`` marks; -inf where it vanishes
    (only reachable for p > 0).  Zeros raise divide warnings unless the
    caller silences them."""
    logs = np.full(mask.shape, -np.inf)
    logs[mask] = np.log(w) + p * np.log(v)
    return _logsumexp_rows(logs)


def _checked_rows(values, weights, mask, p: float):
    p = _check_exponent(p)
    values, weights, mask = check_stack(values, weights, mask)
    _check_positive_for_negative_p(values[mask], p)
    return values, weights, mask, p


def power_rows(xp, values, weights, mask, p: float, root: bool = False) -> np.ndarray:
    """Row-wise power functional, or its 1/p-th root, of a stack that
    ``check_stack`` accepted, for p != 0 and (p < 0) positive values, in
    backend ``xp``: ``masked_power_rows`` of its entries."""
    v, w = np.abs(values[mask]), weights[mask]
    return masked_power_rows(xp, xp.asarray(v), xp.asarray(w), mask, p, root)


def masked_power_rows(xp, v, w, mask, p: float, root: bool = False) -> np.ndarray:
    """Row-wise sum of w v^p, or its 1/p-th root, from the entries of a
    stack alone: ``v`` >= 0 and ``w`` are the values and weights where
    ``mask`` is True, in row order, already in backend ``xp``.

    Padding never reaches the backend (0^p is infinite for p < 0).  In
    doubles, |p| > 8 is evaluated from per-term logs; at 50 digits the result
    is an object array of mpf.  Raises NumericRange when a double result is
    not finite.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if xp is FLOAT and abs(p) > LOG_DOMAIN_THRESHOLD:
            ls = _log_functional_rows(v, w, mask, p)
            out = np.exp(ls / p if root else ls)
        else:
            pw = xp.asarray(p)
            masked = w * v ** pw
            terms = np.zeros(mask.shape, dtype=masked.dtype)
            terms[mask] = masked
            total = terms.sum(axis=1)
            out = total ** (1.0 / pw) if root else total
    require_finite(p, functional=out)
    return out


def lp_functional_rows(
    values: np.ndarray, weights: np.ndarray, p: float, mask: np.ndarray | None = None
) -> np.ndarray:
    """Row-wise sum_j w_ij |v_ij|^p over a stack of instances, with every
    check of lp_functional (see check_stack and power_rows)."""
    with backend() as xp:
        return power_rows(xp, *_checked_rows(values, weights, mask, p))


def lp_norm_rows(
    values: np.ndarray, weights: np.ndarray, p: float, mask: np.ndarray | None = None
) -> np.ndarray:
    """Row-wise 1/p-th root of lp_functional_rows."""
    with backend() as xp:
        return power_rows(xp, *_checked_rows(values, weights, mask, p), root=True)


def overlap_norm_rows(
    f: np.ndarray, g: np.ndarray, weights: np.ndarray, p: float,
    mask: np.ndarray | None = None,
) -> np.ndarray:
    """Row-wise power-(p/2) root norm of the pointwise product fg.

    This is the coupling quantity measuring how far f and g are from having
    disjoint supports: it is 0 exactly when fg vanishes identically (p > 0).
    """
    with backend() as xp:
        return overlap_rows(xp, f, g, weights, p, mask)


def overlap_rows(xp, f, g, weights, p: float, mask=None) -> np.ndarray:
    """``overlap_norm_rows`` in backend ``xp``."""
    p = _check_exponent(p)
    f, g = np.asarray(f, dtype=float), np.asarray(g, dtype=float)
    _, weights, mask, half = _checked_rows(f * g, weights, mask, p / 2.0)
    # the product is checked in doubles and formed in the backend
    fm, gm = (xp.asarray(np.abs(a[mask])) for a in (f, g))
    wm = xp.asarray(weights[mask])
    return masked_power_rows(xp, fm * gm, wm, mask, half, root=True)


def lp_functional(f: SimpleFunction, space: MeasureSpace, p: float) -> float:
    """sum_i w_i |f_i|^p for real p != 0."""
    p = _check_exponent(p)
    _check_aligned(f, space)
    return lp_functional_rows(f.values[None], space.weights[None], p).item(0)


def lp_norm(f: SimpleFunction, space: MeasureSpace, p: float) -> float:
    """The 1/p-th root of lp_functional; a norm only for p >= 1."""
    p = _check_exponent(p)
    _check_aligned(f, space)
    return lp_norm_rows(f.values[None], space.weights[None], p).item(0)


def overlap_norm(
    f: SimpleFunction, g: SimpleFunction, space: MeasureSpace, p: float
) -> float:
    """Power-(p/2) root norm of the pointwise product fg (see overlap_norm_rows)."""
    p = _check_exponent(p)
    _check_aligned(f, space)
    _check_aligned(g, space)
    return overlap_norm_rows(
        f.values[None], g.values[None], space.weights[None], p
    ).item(0)


def reduce_to_probability(
    f: SimpleFunction, g: SimpleFunction, space: MeasureSpace, p: float
) -> tuple[SimpleFunction, MeasureSpace]:
    """Push the measure through (f+g)^p and normalize.

    Returns the ratio function alpha = f/(f+g) together with the probability
    space carrying weights w_i (f_i+g_i)^p / sum_j w_j (f_j+g_j)^p.  This turns
    the two-function inequality into a one-function statement on a probability
    space.
    """
    p = _check_exponent(p)
    _check_aligned(f, space)
    _check_aligned(g, space)
    if np.any(f.values < 0.0) or np.any(g.values < 0.0):
        raise NegativeInput("reduction requires f, g >= 0")
    s = f.values + g.values
    if np.any(s <= 0.0):
        raise ZeroSumPoint("f + g must be strictly positive at every point")
    alpha = SimpleFunction(f.values / s)
    logs = np.log(space.weights) + p * np.log(s)
    logs -= _logsumexp_rows(logs[None])[0]
    w = np.exp(logs)
    w /= w.sum()
    return alpha, MeasureSpace(w)
