"""Both sides of the sharpened two-function inequality and its equality cases.

For f, g >= 0 on a finite discrete measure space the sharpened bound reads

    int |f+g|^p  <=  (1 + gamma_tilde)^(p-1) * int (|f|^p + |g|^p),

with the coupling ratio gamma_tilde = ||fg||_{p/2} * ((||f||_p^p +
||g||_p^p)/2)^(-2/p).  The direction holds for p in (0,1] u [2,inf) and
reverses for p in (-inf,0) u (1,2); p = 1 (nonnegative inputs) and p = 2 are
identities.  The classical interpolation uses the larger ratio
gamma = ||fg||_{p/2} / (||f||_p ||g||_p) and is dominated for p >= 2.

``main_sides_batch`` evaluates both sides for a whole stack of instances in
one array pass; ``main_sides`` and ``gamma_pair`` are that kernel on one row.
The averaging step of the proof, ``jensen_audit``, is checked in ``audit``.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    MisalignedFunction,
    NegativeInput,
    NonpositiveValueForNegativeP,
    ZeroNorm,
    ZeroSumPoint,
)
from .measure import (
    SLACK,
    ExponentRegion,
    MeasureSpace,
    RegionKind,
    SimpleFunction,
    _check_aligned,
    _check_exponent,
    _checked_rows,
    check_stack,
    forward_region,
    masked_power_rows,
    relative_violation,
)
from .precision import backend, require_finite


class EqualityKind(enum.Enum):
    DISJOINT_SUPPORT = "disjoint_support"
    EQUAL_FUNCTIONS = "equal_functions"
    MAX_RATIO_CONSTANT = "max_ratio_constant"
    NONE = "none"


@dataclass(frozen=True)
class InequalityReport:
    lhs: float
    rhs: float
    carbery_rhs: float | None
    gamma: float
    gamma_tilde: float
    region: ExponentRegion
    satisfied: bool
    slack: float


@dataclass(frozen=True)
class EqualityCase:
    kind: EqualityKind
    constant: float | None


@dataclass(frozen=True)
class SidesBatch:
    """Both sides of the bound for a stack of instances, one entry per row.

    ``gamma`` and ``carbery_rhs`` are NaN on rows where f or g has a zero
    functional.  Under ``SHARPLP_PRECISION=high`` the arrays hold mpf.
    """

    lhs: np.ndarray
    rhs: np.ndarray
    carbery_rhs: np.ndarray
    gamma: np.ndarray
    gamma_tilde: np.ndarray


def _validate_pair(f: np.ndarray, g: np.ndarray, p: float) -> None:
    """Checks on the points (not the padding) of f and g."""
    _check_exponent(p)
    if (f < 0.0).any() or (g < 0.0).any():
        raise NegativeInput("f and g must be nonnegative")
    if not forward_region(p) and ((f == 0.0).any() or (g == 0.0).any()):
        raise NonpositiveValueForNegativeP(
            "p < 0 and the reverse range 1 < p < 2 require strictly positive values"
        )


def main_sides_batch(
    f: np.ndarray,
    g: np.ndarray,
    weights: np.ndarray,
    p: float,
    mask: np.ndarray | None = None,
) -> SidesBatch:
    """Both sides of the sharpened inequality for every row of a stack.

    f, g and weights are (instances, points) arrays, zero-padded, with
    ``mask`` marking the points of each row (see ``measure.check_stack``).
    Every check of the scalar path applies to every row; a side that is not
    a finite double raises NumericRange instead of giving a verdict.
    """
    p = float(p)
    f, weights, mask = check_stack(f, weights, mask)
    g, _, _ = check_stack(g, weights, mask)
    _validate_pair(f[mask], g[mask], p)
    with backend() as xp:
        # each point's values go to the backend once (padding never does), and
        # (f+g)^p, f^p, g^p and (fg)^(p/2) are its only powers
        fm, gm = (xp.asarray(np.abs(a[mask])) for a in (f, g))
        wm = xp.asarray(weights[mask])
        lhs = masked_power_rows(xp, fm + gm, wm, mask, p)
        F = masked_power_rows(xp, fm, wm, mask, p)
        G = masked_power_rows(xp, gm, wm, mask, p)
        S = F + G
        if np.any(S == 0.0):
            raise ZeroNorm("f and g cannot both vanish identically")
        # fg must be finite, and positive for p < 0, in doubles, as overlap_rows asks
        _checked_rows(f * g, weights, mask, p / 2.0)
        ov = masked_power_rows(xp, fm * gm, wm, mask, p / 2.0, root=True)
        with np.errstate(over="ignore", invalid="ignore"):
            pv = xp.asarray(p)  # exponents formed in the backend, too
            gamma_tilde = ov * (S / 2.0) ** (-2.0 / pv)
            rhs = (1.0 + gamma_tilde) ** (pv - 1.0) * S

            both = (F > 0.0) & (G > 0.0)
            gamma = np.full(lhs.shape, math.nan, dtype=lhs.dtype)
            carbery_rhs = gamma.copy()
            # the norms are the 1/p-th roots of the functionals (in doubles
            # above |p| = 8 they may differ from masked_power_rows' roots in
            # the last bit)
            root = 1.0 / pv
            gamma[both] = ov[both] / (F[both] ** root * G[both] ** root)
            carbery_rhs[both] = (1.0 + gamma[both]) ** (pv - 1.0) * S[both]
    require_finite(
        p, rhs=rhs, gamma_tilde=gamma_tilde,
        gamma=gamma[both], carbery_rhs=carbery_rhs[both],
    )
    return SidesBatch(
        lhs=lhs, rhs=rhs, carbery_rhs=carbery_rhs, gamma=gamma, gamma_tilde=gamma_tilde
    )


def _one_row(f: SimpleFunction, g: SimpleFunction, space: MeasureSpace, p: float) -> SidesBatch:
    if len(f) != len(space) or len(g) != len(space):
        raise MisalignedFunction(
            f"functions have {len(f)} and {len(g)} values but the space has "
            f"{len(space)} points"
        )
    return main_sides_batch(f.values[None], g.values[None], space.weights[None], p)


def gamma_pair(
    f: SimpleFunction, g: SimpleFunction, space: MeasureSpace, p: float
) -> tuple[float, float]:
    """Both coupling ratios (gamma, gamma_tilde); gamma_tilde <= gamma for p > 0."""
    sides = _one_row(f, g, space, p)
    gamma = sides.gamma.item(0)
    if math.isnan(gamma):  # f or g vanishes identically
        raise ZeroNorm("gamma needs nonzero norms of both functions")
    return gamma, sides.gamma_tilde.item(0)


def main_sides(
    f: SimpleFunction, g: SimpleFunction, space: MeasureSpace, p: float
) -> InequalityReport:
    """Evaluate both sides of the sharpened inequality and check its direction.

    ``carbery_rhs`` (the bound built from gamma) is populated only when both
    norms are nonzero; otherwise gamma is reported as NaN.  This is
    ``main_sides_batch`` on one row.
    """
    p = float(p)
    sides = _one_row(f, g, space, p)
    lhs, rhs, gamma = sides.lhs.item(0), sides.rhs.item(0), sides.gamma.item(0)
    carbery_rhs = None if math.isnan(gamma) else sides.carbery_rhs.item(0)

    region = ExponentRegion.from_p(p)
    forward = forward_region(p)
    violation = relative_violation(lhs, rhs, forward)
    if region.region in (RegionKind.BOUNDARY_P1, RegionKind.BOUNDARY_P2):
        violation = abs(violation)  # identities: either direction fails
    return InequalityReport(
        lhs=lhs,
        rhs=rhs,
        carbery_rhs=carbery_rhs,
        gamma=gamma,
        gamma_tilde=sides.gamma_tilde.item(0),
        region=region,
        satisfied=bool(violation <= SLACK),
        slack=rhs - lhs if forward else lhs - rhs,
    )


def detect_equality_case(
    f: SimpleFunction,
    g: SimpleFunction,
    space: MeasureSpace,
    tol: float = 1e-10,
) -> EqualityCase:
    """Classify the structure that makes the sharpened bound an equality.

    Checked in order: essentially disjoint supports, equal functions, and
    constant max{alpha, 1-alpha} (the two functions are pointwise a constant
    split of their sum, up to swapping roles).
    """
    _check_aligned(f, space)
    _check_aligned(g, space)
    if np.any(f.values < 0.0) or np.any(g.values < 0.0):
        raise NegativeInput("f and g must be nonnegative")
    s = f.values + g.values
    if np.any(s <= 0.0):
        raise ZeroSumPoint("f + g must be strictly positive at every point")
    if np.all(f.values * g.values <= tol * s * s):
        return EqualityCase(kind=EqualityKind.DISJOINT_SUPPORT, constant=None)
    if np.all(np.abs(f.values - g.values) <= tol * s):
        return EqualityCase(kind=EqualityKind.EQUAL_FUNCTIONS, constant=None)
    alpha = f.values / s
    m = np.maximum(alpha, 1.0 - alpha)
    if m.max() - m.min() <= tol:
        return EqualityCase(
            kind=EqualityKind.MAX_RATIO_CONSTANT, constant=float(m.mean())
        )
    return EqualityCase(kind=EqualityKind.NONE, constant=None)
