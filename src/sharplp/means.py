"""Two-argument power means, the constant-ratio factor, and exponent sharpness.

The central object is ``constant_factor``: the scalar right-hand side obtained
when the ratio alpha = f/(f+g) is constant,

    (1 + R^q)^(p-1) * (alpha^p + (1-alpha)^p),
    R = 2 alpha^(p/2) (1-alpha)^(p/2) / (alpha^p + (1-alpha)^p),

which is >= 1 on the forward exponent ranges and <= 1 on the reverse ranges,
with the natural exponent q = 2/p.  ``constant_factors`` evaluates it over
whole arrays (the contour grid) and ``constant_factor`` is that kernel on one
element.  ``sharpness_probe`` demonstrates that no power other than 2/p works,
by measuring the first-order slope of the substituted gap function near its
flat point and searching for sign witnesses.

Each quantity is one log-domain expression over a backend ``xp`` of
``precision``: doubles, or 50 digits under ``SHARPLP_PRECISION=high``.  The
private kernels are elementwise: on scalars they return scalars, and on
arrays of pairs or samples, arrays (object arrays of mpf at 50 digits).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EndpointWithNegativeP, ExponentOutOfRange, OutOfDomain, ZeroExponent
from .precision import backend, require_finite

# Sign witnesses are searched on (0, 0.1] with log-spaced samples, then the
# extremal violation is polished by golden-section; the flat point sits at
# s = 0, so violations concentrate near the left end.
_WITNESS_RANGE = (1e-6, 0.1)
_WITNESS_POINTS = 200
_WITNESS_THRESHOLD = 1e-12


@dataclass(frozen=True)
class AGMChain:
    """The four-term refinement chain between arithmetic and geometric means.

    Each field is one value per pair (x, y): a scalar for one pair, or an
    array, doubles or an object array of mpf, for arrays of pairs.
    """

    A: float
    G: float
    Mp: float
    Mp_dual: float
    terms: tuple[float, float, float, float]


@dataclass(frozen=True)
class SharpnessResult:
    slope_predicted: float
    slope_measured: float
    witness_s: float | None


def _log_mean_gap(xp, x, y):
    """(mid, d): the mean and the half-gap of log x and log y, for x, y > 0,
    from which ``_power_mean`` forms every power mean of x and y.  x and y
    are scalars or arrays; every kernel below is elementwise over them."""
    lx, ly = xp.log(xp.asarray(x)), xp.log(xp.asarray(y))
    return 0.5 * (lx + ly), 0.5 * (lx - ly)


def _power_mean(xp, logs, q):
    """((x^q + y^q)/2)^(1/q), the geometric mean at q = 0, as
    exp(mid + logcosh(q*d)/q) from ``logs`` = ``_log_mean_gap(xp, x, y)``.

    An mpf left of an object array first fails to convert it, and the failure
    formats the whole array at 50 digits, so each product here, in
    ``_log_eta`` and in ``_g_rp`` keeps the array left of the scalar."""
    mid, d = logs
    if q == 0.0:
        mean = xp.exp(mid)
    else:
        qv = xp.asarray(q)
        mean = xp.exp(mid + xp.logcosh(d * qv) / qv)
    require_finite(q, power_mean=mean)
    return mean


def constant_factors(alpha, p, q_exponent) -> np.ndarray:
    """``constant_factor`` elementwise over broadcast arrays of its arguments.

    One log-domain array evaluation, in doubles or, under
    ``SHARPLP_PRECISION=high``, at 50 digits as an object array of mpf.  The
    checks of the scalar function apply to every element, and a double
    result that is not finite raises NumericRange.
    """
    alpha, p, q = (np.asarray(v, dtype=float) for v in (alpha, p, q_exponent))
    if (p == 0.0).any():
        raise ZeroExponent("p = 0 is not admissible")
    outside = ~((alpha >= 0.0) & (alpha <= 1.0))
    if outside.any():
        raise OutOfDomain(f"alpha must lie in [0, 1], got {alpha[outside][0]}")
    endpoint = (alpha == 0.0) | (alpha == 1.0)
    if (endpoint & (p < 0.0)).any():
        raise EndpointWithNegativeP("alpha in {0,1} is not admissible for p < 0")
    with backend() as xp, np.errstate(divide="ignore", invalid="ignore"):
        a, pv, qv = xp.asarray(alpha), xp.asarray(p), xp.asarray(q)
        la, l1a = xp.log(a), xp.log1p(-a)  # -inf at the endpoints
        log_b = xp.logaddexp(pv * la, pv * l1a)
        log_R = xp.log(2.0) + 0.5 * pv * (la + l1a) - log_b  # R <= 1 always
        log_factor = (pv - 1.0) * xp.log1p(xp.exp(qv * log_R))
        values = np.where(endpoint, 1.0, xp.exp(log_factor + log_b))
    require_finite(p, factor=values)
    return values


def constant_factor(alpha: float, p: float, q_exponent: float) -> float:
    """(1 + R^q)^(p-1) * (alpha^p + (1-alpha)^p) for alpha in [0, 1].

    ``q_exponent = 2/p`` gives the factor of the sharpened inequality at
    constant ratio.  Endpoints alpha in {0, 1} return the continuity limit 1
    for p > 0 and are rejected for p < 0.  This is ``constant_factors`` on
    one element.
    """
    return constant_factors(float(alpha), float(p), float(q_exponent)).item()


def _agm_chain(xp, x, y, p, logs) -> AGMChain:
    """1-(A/Mp)^p' >= (1-(G/Mp)^2)/2 >= (1-(G/Mp')^2)/2 >= 1-(A/Mp')^p for
    x, y > 0 and p > 2, p' = p/(p-1); the terms vanish together at x = y.
    ``logs`` is ``_log_mean_gap(xp, x, y)``; x and y may be arrays, and so
    is then every field of the chain."""
    p_dual = p / (p - 1.0)
    x, y = xp.asarray(x), xp.asarray(y)
    A = 0.5 * (x + y)
    G = xp.sqrt(x * y)
    Mp = _power_mean(xp, logs, p)
    Mp_dual = _power_mean(xp, logs, p_dual)
    terms = (
        1.0 - (A / Mp) ** p_dual,
        0.5 * (1.0 - (G / Mp) ** 2),
        0.5 * (1.0 - (G / Mp_dual) ** 2),
        1.0 - (A / Mp_dual) ** p,
    )
    return AGMChain(A=A, G=G, Mp=Mp, Mp_dual=Mp_dual, terms=terms)


def _log_eta(xp, s, p):
    rs = xp.sqrt(s)
    return xp.logaddexp(xp.log1p(rs) * p, xp.log1p(-rs) * p) - xp.log(2.0)


def _g_rp(xp, s, r, p):
    """eta^(1/(p-1)) * (1 + ((1-s)/eta^(2/p))^r) - 2, eta = ((1+sqrt(s))^p +
    (1-sqrt(s))^p)/2.  At r = 1 this is the gap, >= 0 for p < 0 or p > 2 and
    <= 0 for 0 < p < 2; near s = 0 it is p(1-r)s, which drives sharpness."""
    s, r, pv = xp.asarray(s), xp.asarray(r), xp.asarray(p)
    log_eta = _log_eta(xp, s, pv)
    inner = (xp.log1p(-s) - log_eta * (2.0 / pv)) * r
    g = xp.exp(log_eta / (pv - 1.0) + xp.log1p(xp.exp(inner))) - 2.0
    require_finite(p, g_rp=g)
    return g


def _claimed_sign(p: float) -> int:
    """+1 where the gap is claimed nonnegative, -1 where nonpositive."""
    return 1 if (p > 2.0 or p < 0.0) else -1


def sharpness_probe(p: float, r: float) -> SharpnessResult:
    """Measure the slope of g_rp at s = 0 and search for a sign witness.

    The slope is Richardson-extrapolated from steps 1e-6 and 5e-7 and should
    match p(1-r).  A witness is a point s where the region's claimed sign of
    the gap fails by more than 1e-12; one exists exactly when the coupling
    power moves in the pinching direction (r > 1 for p > 2, r < 1 for p < 0
    or 0 < p < 2).

    The witness grid is one array evaluation of ``_g_rp``.  The two slope
    steps and the golden-section polish are sequential and stay scalar; in
    doubles the slope is a difference quotient, which would magnify the last
    bits by which numpy's functions differ from libm's.
    """
    p = float(p)
    if p in (0.0, 1.0, 2.0):
        raise ExponentOutOfRange("sharpness is probed away from p in {0, 1, 2}")
    claimed = _claimed_sign(p)
    with backend() as xp:
        h = 1e-6
        d1 = _g_rp(xp, h, r, p) / h
        d2 = _g_rp(xp, 0.5 * h, r, p) / (0.5 * h)
        slope_measured = 2.0 * d2 - d1
        slope_predicted = p * (1.0 - r)

        lo, hi = _WITNESS_RANGE
        grid = np.exp(np.linspace(math.log(lo), math.log(hi), _WITNESS_POINTS))
        violation = lambda s: -claimed * _g_rp(xp, float(s), r, p)  # > 0 where claim fails
        vals = -claimed * _g_rp(xp, grid, r, p)
        worst = int(np.argmax(vals))
        witness = None
        if vals[worst] > _WITNESS_THRESHOLD:
            # polish the extremal violation between the neighbors of the best sample
            a = grid[max(worst - 1, 0)]
            b = grid[min(worst + 1, len(grid) - 1)]
            witness = _golden_max(violation, float(a), float(b))
            if violation(witness) <= _WITNESS_THRESHOLD:
                witness = float(grid[worst])
    return SharpnessResult(
        slope_predicted=slope_predicted,
        slope_measured=float(slope_measured),
        witness_s=witness,
    )


def _golden_max(fn, a: float, b: float, iters: int = 60) -> float:
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - inv_phi * (b - a)
    x2 = a + inv_phi * (b - a)
    f1, f2 = fn(x1), fn(x2)
    for _ in range(iters):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + inv_phi * (b - a)
            f2 = fn(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - inv_phi * (b - a)
            f1 = fn(x1)
    return 0.5 * (a + b)
