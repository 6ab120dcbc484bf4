"""Numerical audit of the convexity step and the auxiliary derivative chain.

Two layers are covered.  First, the reparametrized coupling function: with
b(a) = a^p + (1-a)^p and h(a) = (a(1-a))^(p/2), the map b -> H(b) = h(a(b)) is
strictly convex for p > 2 and strictly concave for p < 2 (p not 0 or 1).  Its
derivatives have closed forms under the substitution e^(2x) = a/(1-a), which
``hyperbolic_point`` evaluates.

Second, the scalar chain behind the constant-ratio inequality: after the
substitution t = ((1-alpha)/alpha)^p, c = 1/p, a ladder of auxiliary functions
(f, f', g, h, v, v', v'', v''', w, ...) reduces the claim to one-sign-change
statements on (0, 1).  ``sign_changes`` locates crossings on a grid with
bisection refinement, escalating to high precision where double precision
cannot certify a sign, and ``audit_chain`` compares the observed patterns
against the claimed ones.  Both take c itself and hold it to one c rule
(``_check_c``): c != 0 with 1/c finite, 1e-5 <= |c| < 1e9, the exponent
rule of ``measure`` on p = 1/c, and c not in {1/2, 1}.

Each formula is written once against a backend ``xp`` of ``precision``.
``_CHAIN_FLOAT[name](samples)`` is a chain function on a ``_Samples``, which
holds c and t in the backend: doubles on a grid, or at 50 digits an object
array of mpf (``_mp_chain``), which is how ``sign_changes`` escalates its
samples; at 50 digits c is one mpf.  f', g and h share one formula for their
second factor F (``_Samples.fraction``).  Every
other chain function is a power sum, held as the table of its rows: a row
(a, i, j) is the term a t^(i + j c), its exponent kept exact as the small
integers i and j and its coefficient a formed from c in ``xp``.  The
exponent's value b = i + j c is formed once per (name, c), where the table
is cached.  Only v, w, p_quad and b_factor are written out.  From v's table
come v', v'', q = v''/(2c) and u = t^(3-2c) q; from w's,
v''' = 2c(1-2c)(c-1) t^(c-3) w and m = -t^(1-c) w.  The same rows also
evaluate over c as a ``fractions.Fraction``, which is the double c exactly
(``_exact_table``; fractions is imported there, on the audit's first exact
table).  Both limit signs of a power sum, at t -> 0+ and t -> 1-, are read
from its exact rows (``_limit_signs``).

A power sum's double value S comes with a forward error bound B
(``_enclosure``): exact coefficient and exponent errors, an assumed 4-ulp
bound on numpy's float64 power (``_POW_ERR``) and the running error of the
summation.  f', g and h take their signs from two such sums
(``_fraction_enclosures``): M = (F - 1)(t^c - t), a table, and
N = g (t^c - t) = A (1 - t^(1-c)) - M with A = ((1+t)/2)^(2c), whose bound
adds A's error.  In the edge guard bands the scan keeps a sign wherever the
sum it needs clears its bound (``_certified_signs``).

A 50-digit power is an exp and a log, so each is taken once: a samples
object takes t^c, X, X^c, F and each monomial t^i (t^c)^j once, on first use,
building the monomials from t^c by multiplication (an integer exponent stays
one t ** b).  The functions of one c mostly escalate the same samples, the
edge guard bands', so within one ``audit_chain`` call they share one samples
object until a function escalates another set; each value is the same mpf a
lone function would take, and nothing is kept once the call returns.
Doubles keep one numpy power t ** b per term and share nothing.
"""
from __future__ import annotations

import enum
import functools
import math
import operator
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping

import numpy as np

from .errors import (
    DomainError,
    EndpointWithNegativeP,
    ExponentOutOfRange,
    NameRequiresC,
    NumericRange,
    OutOfDomain,
    SingularPoint,
    TargetOutOfRange,
    TooCoarse,
    ZeroExponent,
)
from .measure import check_p_value
from .precision import FLOAT, MP, backend, mp_workdps, require_finite

DEFAULT_DELTA = 1e-6
# Samples this close to either end of (0, 1) get their sign confirmed at high
# precision: several chain functions vanish to second or third order at t = 1,
# where double-precision evaluation is roundoff-dominated.
_EDGE_GUARD = 1e-3
# Crossings that fall below the truncated domain are refined down to here.
_LEFT_FLOOR = 1e-18
_ZERO_REL = 1e-13
_BRACKET_WIDTH = 1e-10
# From here on p = 1/c is within 1e-9 of 0, which the exponent rule rejects
# too; the audit raises NumericRange first: t^c underflows or overflows on the
# whole double grid, so every sample would go to 50 digits.
_C_MAX = 1e9
# Below this |c| (p = 1/c beyond 1e5) the audit raises NumericRange: t^c is
# within |c log t| of 1, and near t = 1 f', g and h (and v) cancel to roundoff
# that the ambiguity test misses.  A scan of 81 log-spaced |c| per sign in
# [1e-8, 1e-4] at 1,000, 10,000 and 100,000 points found mismatched patterns
# up to |c| = 2.24e-6 and none from 2.51e-6 on; at 50 digits f', g, h and v
# keep one sign on [0.99, 1) at c = +-1e-8, 1e-7 and -2.24e-6.
_C_MIN = 1e-5
# The assumed bound on the relative error of numpy's float64 power, 4 ulp:
# the documented bound of the AVX-512 SVML pow numpy runs on arrays where the
# CPU has it (glibc's pow is within 1 ulp).  Measured at most 0.56 * 2^-52
# on 40,000 (t, b) pairs against mpmath, on an AVX-512 Xeon.  The double
# edge-band signs of the power sums rest on it (``_enclosure``).
_POW_ERR = 2.0 ** -50
_U = 2.0 ** -53  # the unit roundoff of doubles
# A power sum's interior samples below this get their sign from its error
# bound too: at c = 1e4 v_tprime has samples of about 1e-306 that pass the
# local-scale test with the wrong sign.
_NEAR_UNDERFLOW = 2.0 ** -900


# ---------------------------------------------------------------------------
# coupling function b, h and the hyperbolic parametrization
# ---------------------------------------------------------------------------


def _check_a(a: float, p: float) -> bool:
    """Validate (a, p) for b and h; True at the endpoints a in {0, 1}."""
    if p == 0.0:
        raise ZeroExponent("p = 0 is not admissible")
    if not 0.0 <= a <= 1.0:
        raise OutOfDomain(f"a must lie in [0, 1], got {a}")
    if a in (0.0, 1.0) and p < 0.0:
        raise EndpointWithNegativeP("a in {0,1} is not admissible for p < 0")
    return a in (0.0, 1.0)


def _b(xp, a, p):
    """b(a) = a^p + (1-a)^p for a in (0, 1)."""
    a, pv = xp.asarray(a), xp.asarray(p)
    b = xp.exp(xp.logaddexp(pv * xp.log(a), pv * xp.log1p(-a)))
    require_finite(p, b=b)
    return b


def h_of_a(a: float, p: float) -> float:
    """h(a) = (a(1-a))^(p/2) on [0, 1] (endpoints give 0 for p > 0)."""
    a, p = float(a), float(p)
    if _check_a(a, p):
        return 0.0
    with backend() as xp:
        a, pv = xp.asarray(a), xp.asarray(p)
        h = xp.exp(0.5 * pv * (xp.log(a) + xp.log1p(-a)))
    require_finite(p, h=h)
    return h


def invert_b(b_target: float, p: float) -> float:
    """The unique a in [1/2, 1) (closed at 1 for the limit) with b(a) = b_target.

    b is monotone on [1/2, 1): increasing for p > 1 and p < 0, decreasing for
    0 < p < 1.  Bisection converges to |b(a) - b_target| <= 1e-14*max(1, b)
    wherever double precision can represent a preimage that accurately (b is
    steep near a = 1 for p < 0, where the nearest representable a is
    returned); for p < 0 the upper bracket expands toward 1 until it encloses
    the target.
    """
    b_target, p = float(b_target), float(p)
    if p == 0.0:
        raise ZeroExponent("p = 0 is not admissible")
    if p == 1.0:
        raise ExponentOutOfRange("b is identically 1 at p = 1; nothing to invert")
    with backend() as xp:
        tol = 1e-14 * max(1.0, abs(b_target))
        b_half = _b(xp, 0.5, p)  # 2^(1-p), the symmetric extremum
        if b_target == b_half:
            return 0.5

        if p > 0.0:
            lo_val, hi_val = (b_half, 1.0) if p > 1.0 else (1.0, b_half)
            lo_b, hi_b = min(lo_val, hi_val), max(lo_val, hi_val)
            slack = 1e-9 * max(1.0, hi_b)
            if not lo_b - slack <= b_target <= hi_b + slack:
                raise TargetOutOfRange(
                    f"b_target={b_target} outside attainable range [{lo_b}, {hi_b}]"
                )
            b_target = min(max(b_target, lo_b), hi_b)
            if b_target == 1.0:
                return 1.0
            lo, hi = 0.5, 1.0 - 1e-16
            increasing = p > 1.0
        else:
            if b_target < b_half * (1.0 - 1e-12):
                raise TargetOutOfRange(
                    f"b_target={b_target} below the minimum {b_half} for p={p}"
                )
            b_target = max(b_target, b_half)
            lo, hi = 0.5, 0.75
            while _b(xp, hi, p) < b_target:
                hi = 0.5 * (1.0 + hi)
                if 1.0 - hi < 1e-15:
                    if _b(xp, hi, p) < b_target:
                        raise TargetOutOfRange(
                            f"b_target={b_target} needs a closer to 1 than double "
                            "precision can represent"
                        )
                    break
            increasing = True

        for _ in range(200):
            a = 0.5 * (lo + hi)
            val = _b(xp, a, p)
            if abs(val - b_target) <= tol or hi - lo <= 1e-17:
                break
            if (val < b_target) == increasing:
                lo = a
            else:
                hi = a
        return a


@dataclass(frozen=True)
class HyperbolicPoint:
    """Values and derivatives of b, h, H at the point e^(2x) = a/(1-a).

    The quotient fields are None at x = 0, where db/dx vanishes; use x > 0
    for curvature data.
    """

    x: float
    a: float
    b: float
    h: float
    db_dx: float
    dh_dx: float
    dH_db: float | None = None
    ddx_dH_db: float | None = None
    d2H_db2: float | None = None


def _logsinh(xp, u):
    """log(sinh(u)) for u > 0, stable for large u."""
    return u + xp.log1p(-xp.exp(-2.0 * u)) - xp.log(2.0)


def hyperbolic_point(x: float, p: float) -> HyperbolicPoint:
    """Evaluate the closed-form derivative chain of H at parameter x >= 0."""
    x, p = float(x), float(p)
    if x < 0.0:
        raise OutOfDomain("x must be >= 0 (the parametrization is symmetric)")
    if p == 1.0:
        raise SingularPoint("p = 1 makes the derivative quotients identically singular")
    if p == 0.0:
        raise ZeroExponent("p = 0 is not admissible")

    with backend() as xp:
        xv, pv, log2 = xp.asarray(x), xp.asarray(p), xp.log(2.0)
        a = 1.0 / (1.0 + xp.exp(-2.0 * xv))
        log_2cosh = xp.logcosh(xv) + log2
        h = xp.exp(-pv * log_2cosh)
        b = xp.exp(log2 + xp.logcosh(pv * xv) - pv * log_2cosh)
        dh_dx = -pv * xp.tanh(xv) * h
        fields = dict(x=x, a=a, b=b, h=h, db_dx=0.0, dh_dx=0.0)
        if x > 0.0:
            u = abs(pv - 1.0) * xv
            sign_s = 1.0 if p > 1.0 else -1.0  # sign of sinh((p-1)x) for x > 0
            log_db = (1.0 - pv) * log2 + xp.log(abs(pv)) + _logsinh(xp, u) - (
                (pv + 1.0) * xp.logcosh(xv)
            )
            sign_db = 1.0 if p * sign_s > 0.0 else -1.0
            db_dx = sign_db * xp.exp(log_db)
            dH_db = -sign_s * xp.exp(_logsinh(xp, xv) - log2 - _logsinh(xp, u))

            gap = (pv - 1.0) * xp.tanh(xv) - xp.tanh((pv - 1.0) * xv)
            # sinh((p-1)x) * tanh((p-1)x) = sinh(u) * tanh(u) > 0
            log_den = log2 + _logsinh(xp, u) + xp.log(xp.tanh(u))
            # log|ddx| is -inf where gap = 0.  d2H/db2 = ddx/db_dx is taken
            # in logs: db/dx underflows to 0 long before d2H/db2 overflows
            sign_gap = int(gap > 0.0) - int(gap < 0.0)
            log_ddx = xp.logcosh(xv) + xp.log(abs(gap)) - log_den
            fields.update(
                db_dx=db_dx, dh_dx=dh_dx, dH_db=dH_db, ddx_dH_db=sign_gap * xp.exp(log_ddx),
                d2H_db2=sign_gap * sign_db * xp.exp(log_ddx - log_db),
            )
    require_finite(p, **fields)
    return HyperbolicPoint(**fields)


def curvature(x: float, p: float) -> float:
    """d2H/db2 at x > 0; positive exactly where H is convex."""
    if x <= 0.0:
        raise SingularPoint("curvature needs x > 0")
    point = hyperbolic_point(x, p)
    assert point.d2H_db2 is not None
    return point.d2H_db2


# ---------------------------------------------------------------------------
# the substituted scalar chain on t in (0, 1), c = 1/p
# ---------------------------------------------------------------------------

CHAIN_NAMES = (
    "f", "f_prime", "g", "h", "h0", "v", "v_prime", "v_dprime", "v_tprime",
    "w", "p_quad", "m", "u", "b_factor", "q_factor",
)


def _as_c(c: float) -> float:
    """c as a float, for a c that names an exponent: c != 0 with p = 1/c
    finite and nonzero.  This is all ``chain_eval`` asks of c."""
    c = float(c)
    if c == 0.0:
        raise ZeroExponent("c = 0 is not admissible")
    p = 1.0 / c
    if not math.isfinite(p) or p == 0.0:
        raise ExponentOutOfRange(f"c = {c!r}: p = 1/c is not a finite nonzero number")
    return c


def _check_c(c: float) -> float:
    """The c rule of the audit: ``_as_c``; 1e-5 <= |c| < 1e9; the exponent
    rule of ``measure.check_p_value`` on p = 1/c; and c not in {1/2, 1}."""
    c = _as_c(c)
    if abs(c) >= _C_MAX:
        raise NumericRange(
            f"c = {c!r}: |c| >= 1e9 puts p = 1/c within 1e-9 of 0, where "
            "t^c is not a usable double on the grid"
        )
    if abs(c) < _C_MIN:
        raise NumericRange(
            f"c = {c!r}: |c| < 1e-5 leaves t^c within |c log t| of 1, where "
            "f', g and h cancel to roundoff in doubles near t = 1 and the "
            "scan's signs are not trustworthy"
        )
    try:
        check_p_value(1.0 / c)
    except ExponentOutOfRange as exc:
        raise ExponentOutOfRange(f"c = {c!r}: {exc}") from None
    if c in (0.5, 1.0):
        raise ExponentOutOfRange(
            f"c = {c!r}: the chain degenerates at c in {{1/2, 1}} (p in {{2, 1}}), "
            "where f', g and h vanish or divide by 1 - c; no sign pattern is claimed"
        )
    return c


class _Samples:
    """c and the samples t in the backend ``xp``, with what the chain formulas
    share on them, each taken once, on first use: t^c, X = (1+t)^2/(4t), X^c,
    F and each monomial t^(i + j c)."""

    def __init__(self, xp, c, t):
        self.xp, self.c, self.t = xp, xp.asarray(c), xp.asarray(t)
        self._monomials: dict = {}

    @functools.cached_property
    def tc(self):
        return self.t ** self.c

    @functools.cached_property
    def x_big(self):
        return (1.0 + self.t) ** 2 / (4.0 * self.t)

    @functools.cached_property
    def x_big_c(self):
        return self.x_big ** self.c

    @functools.cached_property
    def fraction(self):
        """F = (1-c)(t^c+1)(1-t)/(t^c-t), the always-greater-than-1 second factor."""
        return (self.tc + 1.0) * (1.0 - self.c) * (1.0 - self.t) / (self.tc - self.t)

    def monomial(self, b, i, j):
        """t^b for b = i + j c.  Doubles take one numpy power.  At 50 digits a
        power is an exp and a log, so t^b is t^i (t^c)^j, built by
        multiplication from the one t^c and kept by (i, j).  An integer-valued
        b stays one t ** b, which rounds once where the product rounds twice;
        when c is an integer, so is every b, and t^c is not taken at all."""
        xp, t = self.xp, self.t
        if xp is FLOAT:
            return t ** b
        if (i, j) not in self._monomials:
            if xp.isint(self.c) or xp.isint(b):
                self._monomials[i, j] = t ** b
            else:
                tcj = self.tc if j == 1 else self.tc ** j  # (t^c)^1 and t^0 are exact
                self._monomials[i, j] = tcj if i == 0 else t ** i * tcj
        return self._monomials[i, j]


def _fraction_double(c: float, t: np.ndarray) -> np.ndarray:
    """F on doubles, divided through by t^c where t^c overflows."""
    with np.errstate(all="ignore"):
        fraction = _Samples(FLOAT, c, t).fraction
        lost = ~np.isfinite(fraction)
        tl = t[lost]
        fraction[lost] = (1.0 - c) * (1.0 + tl ** -c) * (1.0 - tl) / (1.0 - tl ** (1.0 - c))
    return fraction


# f, f', g and h keep the array left of c (see ``_mp_chain``)
def _chain_f(s):
    c = s.c
    return (
        -s.xp.log1p(s.tc) / c
        + s.xp.log1p(s.t)
        + s.xp.log1p((1.0 / s.x_big) ** c) * ((1.0 - c) / c)
    )


def _chain_f_prime(s):
    t, c = s.t, s.c
    bracket = 1.0 / (s.x_big_c + 1.0) - 1.0 / s.fraction
    return (1.0 - t) * (1.0 - c) / (t * (1.0 + t)) * bracket


def _chain_g(s):
    return s.x_big_c - (s.fraction - 1.0)


def _chain_h(s):
    return s.xp.log(s.x_big) * s.c - s.xp.log(s.fraction - 1.0)


def _d(rows, c):
    """d/dt of a table at c: a t^b becomes a b t^(b-1), and a constant term
    drops out."""
    exponents = (i + j * c for _, i, j in rows)
    return tuple((a * b, i - 1, j) for (a, i, j), b in zip(rows, exponents) if b != 0.0)


def _times(rows, k, i, j):
    """k t^(i + j c) times a table."""
    return tuple((a * k, ri + i, rj + j) for a, ri, rj in rows)


# name -> the table of a power sum at c: its rows (a, i, j), the sum of
# a t^(i + j c) over them.  (i, j) are small integers, the exact exponent;
# the coefficient a is formed from c in the backend, and the exponent's value
# b = i + j c once per (name, c), in ``_cached_table``.  Only v, w, p_quad
# and b_factor are written out; the rest is derived from v and w.  For c = 2,
# q = v''/(2c) factors as (t-1)(5t^2-16t+8).
_TABLES: Mapping[str, Callable] = {
    "v": lambda c: (
        (2 * c * c - 1, 1, 0),
        (-c * c, 2, 0),
        (2 * c * (1 - 2 * c), 0, 1),
        (-2 * c * (1 - 2 * c), 1, 1),
        (1 - 2 * c * c, 0, 2),
        ((1 - c) ** 2, 1, 2),
        (-((1 - c) ** 2), 0, 0),
        (c * c, -1, 2),
    ),
    "v_prime": lambda c: _d(_TABLES["v"](c), c),
    "v_dprime": lambda c: _d(_TABLES["v_prime"](c), c),
    "q_factor": lambda c: _times(_TABLES["v_dprime"](c), 1 / (2 * c), 0, 0),
    "u": lambda c: _times(_TABLES["q_factor"](c), 1, 3, -2),
    "w": lambda c: (
        (c * (c - 2), 0, 0),
        (-(c + 1) * c, 1, 0),
        (-2 * (1 - 2 * c * c), 0, 1),
        ((1 - c) * (1 + 2 * c), 1, 1),
        (-c * (2 * c - 3), -1, 1),
    ),
    "v_tprime": lambda c: _times(_TABLES["w"](c), 2 * c * (1 - 2 * c) * (c - 1), -3, 1),
    "m": lambda c: _times(_TABLES["w"](c), -1, 1, -1),
    "p_quad": lambda c: (
        ((c + 1) * (1 + 2 * c), 2, 0),
        (2 * (1 - 2 * c * c), 1, 0),
        (2 * c * c - 7 * c + 6, 0, 0),
    ),
    "b_factor": lambda c: (
        (c ** 3 - c, 0, 0),
        (-c * (c + 1) * (c - 2), 1, 0),
        (2 * (2 * c - 3), 2, -1),
    ),
}

# The two sums that decide the signs of f', g and h (``_fraction_enclosures``),
# in the same rows: M = (F - 1)(t^c - t) and 1 - t^(1-c), from which
# N = g (t^c - t) = A (1 - t^(1-c)) - M with A = ((1+t)/2)^(2c).  They are no
# chain functions; ``_SUMS`` holds every table by name.
_SUMS: Mapping[str, Callable] = {
    **_TABLES,
    "fraction_gap": lambda c: ((1 - c, 0, 0), (-c, 0, 1), (c, 1, 0), (c - 1, 1, 1)),
    "fraction_weight": lambda c: ((1, 0, 0), (-1, 1, -1)),
}


def _table(name: str, xp, c) -> tuple:
    """The terms (a, b, i, j) of ``name`` at c: its rows with a and
    b = i + j c formed in the backend ``xp``, built once per (name, c) and
    backend."""
    return _cached_table(name, c, MP.prec() if xp is MP else None)


@functools.lru_cache(maxsize=256)
def _cached_table(name: str, c, prec: int | None) -> tuple:
    xp = FLOAT if prec is None else MP  # an MP caller works at precision prec
    c = xp.asarray(c)
    return tuple((xp.asarray(a), xp.asarray(i + j * c), i, j) for a, i, j in _SUMS[name](c))


@functools.lru_cache(maxsize=256)
def _exact_table(name: str, c: float) -> tuple:
    """The rows of ``name`` at the double c taken exactly, as
    ``fractions.Fraction``: (a, b, i, j) with b = i + j c."""
    from fractions import Fraction

    c = Fraction(c)
    return tuple((a, i + j * c, i, j) for a, i, j in _SUMS[name](c))


@functools.lru_cache(maxsize=256)
def _term_errors(name: str, c: float) -> tuple:
    """What the double terms of ``name`` at c carry into ``_bounded_sum``:
    per term |fl(a) - a|, |fl(a)| + |fl(a) - a| and |fl(b) - b|, from the
    exact rows.  The two tables list the same rows: ``_d`` drops a row where
    b = 0, and for the j in {0, 1, 2} of the rows it differentiates j c is
    exact, so fl(i + j c) is 0 exactly where i + j c is."""
    from fractions import Fraction

    per_term = []
    for (a, b, _, _), (a_x, b_x, _, _) in zip(_table(name, FLOAT, c), _exact_table(name, c)):
        da = float(abs(Fraction(float(a)) - a_x))
        per_term.append((da, abs(float(a)) + da, float(abs(Fraction(float(b)) - b_x))))
    return tuple(per_term)


def _rows(name: str, c: float, t: np.ndarray, log_t: np.ndarray) -> list:
    """The double terms of ``name`` on t as ``_bounded_sum`` takes them: per
    row fl(t^fl(b)), fl(a), |fl(a) - a|, |fl(a)| + |fl(a) - a| and the
    power's relative error eps_pow + |fl(b) - b| |log t| (eps_pow =
    ``_POW_ERR``; |log t| is ``log_t``)."""
    return [
        (t ** b, a, da, a_hi, _POW_ERR + db * log_t)
        for (a, b, _, _), (da, a_hi, db) in zip(_table(name, FLOAT, c), _term_errors(name, c))
    ]


def _bounded_sum(rows: list) -> tuple[np.ndarray, np.ndarray]:
    """The sum S of fl(m fl(a)) over the rows (m, fl(a), |fl(a) - a|,
    |fl(a)| + |fl(a) - a|, rel), left to right, where m is a computed
    monomial within rel of its exact value; and a bound B on |S - the exact
    sum| (inf where none is given).

    Row k errs by |fl(a) - a| m plus |a m| (rel + u), the product's u; the
    sum adds gamma_(n-1) times the sum of |terms| (Higham, Accuracy and
    Stability of Numerical Algorithms, sections 3-4).  A power or product
    that falls below the normal range errs by up to 4 of its ulps 2^-1074
    absolutely, not relatively; 2^-1068 (1 + |a|) per row covers it.  The
    factor 2 covers the second-order terms and the rounding of B itself
    while the first-order relative part stays below 2^-20; beyond that B is
    inf.
    """
    total = mags = bound = worst = tiny = 0.0
    for m, a, da, a_hi, rel in rows:
        term = m * a
        total = total + term
        mags = mags + np.abs(term)
        bound = bound + m * (da + a_hi * (rel + _U))
        worst = np.maximum(worst, rel)
        tiny += 2.0 ** -1068 * (1.0 + a_hi)
    n = len(rows) - 1
    bound = 2.0 * (bound + n * _U / (1.0 - n * _U) * mags + tiny)
    bound[worst + _U > 2.0 ** -20] = np.inf
    return total, bound


def _enclosure(name: str, c: float, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The double power sum S of ``name`` on the samples t, term by term as
    ``_power_sum`` forms it, fl(fl(t^fl(b)) fl(a)), and its bound B
    (``_bounded_sum``)."""
    with np.errstate(all="ignore"):
        return _bounded_sum(_rows(name, c, t, np.abs(np.log(t))))


def _fraction_enclosures(c: float, t: np.ndarray) -> tuple[tuple, tuple]:
    """(M, B_M) and (N, B_N) on the double samples t: M = (F - 1)(t^c - t)
    and N = g (t^c - t) = A (1 - t^(1-c)) - M, A = ((1+t)/2)^(2c), each
    with its bound (``_bounded_sum``).

    A is fl(fl(fl(1 + t)/2)^(2c)): halving and 2c are exact, and the
    rounding of 1 + t, by at most u relative, moves A by about |2c| u on top
    of eps_pow.  A row of 1 - t^(1-c) times A adds that and the product's u
    to its power's error.  B_N is inf where A or t^(1-c) falls below the
    normal range, whose absolute errors A or t^(1-c) would magnify.
    """
    with np.errstate(all="ignore"):
        log_t = np.abs(np.log(t))
        gap = _rows("fraction_gap", c, t, log_t)
        a = (0.5 * (1.0 + t)) ** (2.0 * c)
        a_err = abs(2.0 * c) * _U + _POW_ERR + _U
        weight = _rows("fraction_weight", c, t, log_t)
        power = weight[1][0]  # t^(1-c)
        n_total, n_bound = _bounded_sum(
            [(a * m, w, dw, w_hi, rel + a_err) for m, w, dw, w_hi, rel in weight]
            + [(m, -g, dg, g_hi, rel) for m, g, dg, g_hi, rel in gap]
        )
        n_bound[np.minimum(a, power) < 2.0 ** -1022] = np.inf
        return _bounded_sum(gap), (n_total, n_bound)


def _decided(total: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """The sign of a double sum where |S| > B, else 0."""
    return np.where(np.abs(total) > bound, np.sign(total), 0.0).astype(int)


def _certified_signs(name: str, c: float, t: np.ndarray) -> np.ndarray:
    """The sign of ``name`` on the double samples t where a double error
    bound decides it, else 0.  A power sum has the sign of its double sum S
    where |S| > B (``_enclosure``).  On (0, 1) t^c - t has the sign of 1 - c
    and F > 0, so f' has the sign of -N and g that of (1 - c) N, and where
    (1 - c) M > 0, that is F > 1, h has g's sign (``_fraction_enclosures``).
    No bound is given for f, so its signs are all 0.
    """
    if name in _TABLES:
        return _decided(*_enclosure(name, c, t))
    if name == "f":
        return np.zeros(t.shape, dtype=int)
    m, n = (_decided(*pair) for pair in _fraction_enclosures(c, t))
    side = _sign_of(1.0 - c)
    if name == "f_prime":
        return -n
    if name == "g":
        return side * n
    return np.where(side * m > 0, side * n, 0)


def _power_sum(name: str, s: _Samples):
    """The sum of the table's terms a t^b on the samples, each power a
    monomial of ``s``; t stays left of each product (see ``_mp_chain``)."""
    terms = _table(name, s.xp, s.c)
    return functools.reduce(operator.add, (s.monomial(b, i, j) * a for a, b, i, j in terms))


# name -> formula(samples), one per chain function of t
_CHAIN_FLOAT: Mapping[str, Callable] = {
    name: functools.partial(_power_sum, name)
    if name in _TABLES
    else globals()["_chain_" + name]
    for name in CHAIN_NAMES
    if name != "h0"
}

# values at t = 1 for the names whose displayed form is 0/0 there
_AT_ONE = {"f": 0.0, "f_prime": 0.0, "g": 0.0, "h": 0.0}


def _h0_value(c: float) -> float:
    if c < 0.0:
        return -math.inf
    if c == 1.0:
        raise NameRequiresC("h0 is not defined at c in {0, 1}")
    if c < 1.0:
        return -2.0 * c * math.log(2.0) - math.log1p(-c)
    return math.inf


def chain_eval(name: str, c: float, t: float) -> float:
    """Evaluate one auxiliary chain function at t in (0, 1] (h0 ignores t)."""
    c = _as_c(c)
    if name not in CHAIN_NAMES:
        raise NameRequiresC(f"unknown chain function {name!r}")
    if name == "h0":
        return _h0_value(c)
    t = float(t)
    if not 0.0 < t <= 1.0:
        raise DomainError(f"t must lie in (0, 1], got {t}")
    if c == 1.0 and name in ("f_prime", "g", "h"):
        raise ExponentOutOfRange(f"{name} divides by 1 - c, which is 0 at c = 1")
    with backend() as xp:
        if t == 1.0 and name in _AT_ONE:
            return xp.asarray(_AT_ONE[name])
        if xp is MP:
            return _mp_chain(name, c, np.array([t]))[0]
        with np.errstate(all="ignore"):
            return _CHAIN_FLOAT[name](_Samples(xp, c, t))


# ---------------------------------------------------------------------------
# sign-change detection
# ---------------------------------------------------------------------------


class PatternKind(enum.Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"
    PLUS_TO_MINUS = "plus_to_minus"
    MINUS_TO_PLUS = "minus_to_plus"
    OTHER = "other"


@dataclass(frozen=True)
class Crossing:
    bracket_lo: float
    bracket_hi: float
    sign_before: int
    sign_after: int


@dataclass(frozen=True)
class SignChangePattern:
    crossings: tuple[Crossing, ...]
    overall: PatternKind
    # samples and bisection probes evaluated at 50 digits
    escalated: int = field(default=0, compare=False)


@functools.lru_cache(maxsize=256)
def _limit_signs(name: str, c: float) -> tuple[int, int]:
    """The signs of the t -> 0+ and t -> 1- limits; 0 where none is known.

    A power sum's signs are read from its exact table, with rows merged by
    exact exponent b.  At 0+ it is the sign of the coefficient sum at the
    lowest b.  At 1-, with s = 1 - t, t^b is the sum of C(b, k) (-s)^k, so
    it is (-1)^k times the sign of the sum of a C(b, k) at the lowest k
    where that sum is not 0; a sum that is 0 for every k below the number
    of exponents is 0 identically.  f_prime, g and h keep the chain's stated
    t -> 0+ asymptotics.  Needed because a crossing can fall outside the
    truncated scan interval: for small c the g/h crossing sits at
    astronomically small t, for large c the v'' crossing near t = 1 - 1.6/c.
    """
    if name in ("f_prime", "g", "h"):
        hs = -1 if c < 0.5 else 1  # g and h; f' has the sign of -(1 - c) g
        return (-hs if name == "f_prime" and c < 1.0 else hs), 0
    if name not in _TABLES:
        return 0, 0
    sums: dict = {}
    for a, b, _, _ in _exact_table(name, c):
        sums[b] = sums.get(b, 0) + a
    rows = sorted((b, a) for b, a in sums.items() if a != 0)
    left = _sign_of(rows[0][1]) if rows else 0
    binomials = [1] * len(rows)  # C(b, k) per row, from k = 0
    for k in range(len(rows)):
        total = sum(a * binomial for (_, a), binomial in zip(rows, binomials))
        if total != 0:
            return left, (-1) ** k * _sign_of(total)
        binomials = [x * (b - k) / (k + 1) for x, (b, _) in zip(binomials, rows)]
    return left, 0


def _sign_of(x: float) -> int:
    return (x > 0) - (x < 0)


def _mp_chain(name: str, c: float, t: np.ndarray, kept: dict | None = None) -> np.ndarray:
    """The chain function at 50 digits on the samples ``t``, as one object
    array of mpf, with c one mpf.

    ``kept`` holds one ``_Samples`` by (c, the samples' bytes): a function
    called on the same c and samples reuses its t^c, monomials, X, X^c and F,
    and other samples replace it.  ``audit_chain`` passes one such dict to
    the scans of its c, whose functions mostly escalate the same samples,
    those of the edge guard bands; any other call shares nothing.  Each
    value is the same mpf as when taken anew.

    An mpf left of an object array first fails to convert it, and the failure
    formats the whole array at 50 digits, so every formula keeps the array
    left of c.
    """
    kept = {} if kept is None else kept
    key = (c, t.tobytes())
    with mp_workdps() as xp:
        if key not in kept:
            kept.clear()
            kept[key] = _Samples(xp, c, t)
        return _CHAIN_FLOAT[name](kept[key])


def _classify(
    seq_t: np.ndarray, seq_s: np.ndarray, sign_at: Callable[[float], int]
) -> SignChangePattern:
    """The crossings and the overall kind of a sampled sign sequence.

    ``seq_s`` holds the sign (-1, 0 or 1) of each sample at ``seq_t``; a
    sample at t = 0 stands for the t -> 0+ limit, one at t = 1 for the
    t -> 1- limit (never evaluated there).  Zero samples are skipped,
    a crossing is a pair of consecutive nonzero samples of opposite sign, and
    each crossing is bisected with ``sign_at``, from left to right.
    """
    idx = np.flatnonzero(seq_s)
    flips = np.flatnonzero(seq_s[idx[1:]] != seq_s[idx[:-1]])
    crossings: list[Crossing] = []
    for i_lo, i_hi in zip(idx[flips].tolist(), idx[flips + 1].tolist()):
        lo, hi = float(seq_t[i_lo]), float(seq_t[i_hi])
        s_lo, s_hi = int(seq_s[i_lo]), int(seq_s[i_hi])
        if lo == 0.0:
            # flip against the t -> 0+ limit sign: probe down to the floor
            lo = _LEFT_FLOOR
            if sign_at(lo) != s_lo:
                # crossing sits below the probing floor; record it there
                crossings.append(Crossing(0.0, lo, sign_before=s_lo, sign_after=s_hi))
                continue
        while hi - lo > _BRACKET_WIDTH:
            mid = 0.5 * (lo + hi)
            if sign_at(mid) == s_lo:
                lo = mid
            else:
                hi = mid
        crossings.append(Crossing(lo, hi, sign_before=s_lo, sign_after=s_hi))

    if idx.size == 0:
        overall = PatternKind.OTHER
    elif len(crossings) == 0:
        overall = PatternKind.POSITIVE if seq_s[idx[0]] > 0 else PatternKind.NEGATIVE
    elif len(crossings) == 1:
        overall = (
            PatternKind.PLUS_TO_MINUS
            if crossings[0].sign_before > 0
            else PatternKind.MINUS_TO_PLUS
        )
    else:
        overall = PatternKind.OTHER
    return SignChangePattern(crossings=tuple(crossings), overall=overall)


def _local_scale(mags: np.ndarray) -> np.ndarray:
    """The max of ``mags`` over each sample's 5-sample window, edge-padded."""
    padded, n = np.pad(mags, 2, mode="edge"), mags.size
    scale = np.maximum(padded[:n], padded[1 : n + 1])
    for k in range(2, 5):
        np.maximum(scale, padded[k : k + n], out=scale)
    return scale


def _ambiguous(vals: np.ndarray) -> np.ndarray:
    """The grid samples whose double sign the scan does not trust: the ones
    that are not finite, or whose magnitude is at most 1e-13 of the local
    5-sample scale."""
    absvals, finite = np.abs(vals), np.isfinite(vals)
    # a non-finite double has no trustworthy sign: where one term of an
    # opposite-sign sum overflows first, v is -inf and its 50-digit value > 0
    return ~finite | (absvals <= _ZERO_REL * _local_scale(np.where(finite, absvals, 0.0)))


def sign_changes(name: str, c: float, grid_size: int) -> SignChangePattern:
    """Locate the sign crossings of a chain function on (0, 1).

    A uniform grid on (delta, 1-delta), delta = ``DEFAULT_DELTA`` = 1e-6, is
    scanned in double precision.
    Samples that are not finite, or whose magnitude falls under 1e-13 of the
    local 5-sample scale, are re-evaluated at 50 digits before a sign is
    accepted, and so are those in the edge guard bands, except that a power
    sum (a name of ``_TABLES``) keeps each edge sample and upper-band probe
    whose double sum S exceeds its error bound B (``_enclosure``) in
    magnitude, and f', g and h each one whose sign N, and for h also M,
    decide (``_certified_signs``).  A power sum's interior samples below
    2^-900 also keep their double sign only where |S| > B.  ``escalated``
    counts the samples and probes taken at 50 digits.  The known t -> 0+
    and t -> 1- limit signs are added at either end, those of a power sum
    both read from its exact rows (``_limit_signs``), so crossings in the
    truncated bands are still reported (their brackets are refined below
    delta and above 1 - delta).  The grid
    is classified with array operations: a crossing is a pair of consecutive
    nonzero samples of opposite sign (zero samples are skipped), and only
    those pairs reach Python, where each is bisected to a bracket of width
    1e-10.  The escalated samples are evaluated together, as one 50-digit
    object array; only the bisection probes go to 50 digits one at a time,
    each as an array of one sample.  A call shares nothing with other calls;
    within one ``audit_chain`` the functions of its c share t^c, the
    monomials and F on the samples they escalate alike (``_mp_chain``).
    No Python loop runs over the grid's samples.  c must pass the audit's
    c rule (``_check_c``): it raises ExponentOutOfRange at c in {1/2, 1},
    where the chain degenerates, and NumericRange for |c| >= 1e9 (p = 1/c
    within 1e-9 of 0), where t^c is not a usable double anywhere on the grid,
    and for |c| < 1e-5, where f', g and h cancel to roundoff near t = 1.
    """
    return _scan(name, c, grid_size, {})


def _scan(name: str, c: float, grid_size: int, kept: dict) -> SignChangePattern:
    """``sign_changes``, escalating through ``kept`` (see ``_mp_chain``)."""
    if grid_size < 1000:
        raise TooCoarse("grid_size must be at least 1000")
    if name not in CHAIN_NAMES:
        raise NameRequiresC(f"unknown chain function {name!r}")
    if name == "h0":
        raise NameRequiresC("h0 is a limit value, not a function of t")
    c = _check_c(c)

    t = np.linspace(DEFAULT_DELTA, 1.0 - DEFAULT_DELTA, grid_size)
    with np.errstate(all="ignore"):
        vals = np.asarray(_CHAIN_FLOAT[name](_Samples(FLOAT, c, t)), dtype=float)

    signs = np.where(vals > 0.0, 1, np.where(vals < 0.0, -1, 0)).astype(int)
    needs_mp = _ambiguous(vals)
    check = (t <= _EDGE_GUARD) | (t >= 1.0 - _EDGE_GUARD)
    if name in _TABLES:
        # near underflow the terms of a power sum lose their relative
        # precision, which the local-scale test does not see when the
        # neighbouring samples are as small
        check |= ~needs_mp & (np.abs(vals) < _NEAR_UNDERFLOW)
    # keep the samples whose double sign an error bound decides
    sure = _certified_signs(name, c, t[check])
    signs[check] = sure
    check[check] = sure == 0
    needs_mp |= check
    mp_vals = _mp_chain(name, c, t[needs_mp], kept)
    signs[needs_mp] = (mp_vals > 0).astype(int) - (mp_vals < 0).astype(int)

    # adjacent unresolved samples defeat classification
    zero = signs == 0
    if np.any(zero[:-1] & zero[1:]):
        raise TooCoarse("adjacent sign-ambiguous samples; refine the grid")

    # the limit signs at t = 0 and t = 1 frame the samples; an unknown one is 0,
    # which classification skips
    seq_t = np.concatenate(([0.0], t, [1.0]))
    s0, s1 = _limit_signs(name, c)
    seq_s = np.concatenate(([s0], signs, [s1]))

    probes = 0

    def _sign_at(x: float) -> int:
        nonlocal probes
        with np.errstate(all="ignore"):
            v = float(_CHAIN_FLOAT[name](_Samples(FLOAT, c, x)))
        if math.isfinite(v) and abs(v) > 1e-12 * (1.0 + abs(v)):
            if x < 1.0 - _EDGE_GUARD:
                return _sign_of(v)
            sure = int(_certified_signs(name, c, np.array([x]))[0])
            if sure:
                return sure
        probes += 1
        return _sign_of(_mp_chain(name, c, np.array([x]))[0])

    pattern = _classify(seq_t, seq_s, _sign_at)
    return replace(pattern, escalated=int(needs_mp.sum()) + probes)


# ---------------------------------------------------------------------------
# whole-chain audit
# ---------------------------------------------------------------------------

CORE_AUDIT_NAMES = ("f_prime", "g", "h", "v", "v_dprime")


@dataclass(frozen=True)
class PatternEntry:
    observed: SignChangePattern
    expected: PatternKind
    match: bool


@dataclass(frozen=True)
class ChainReport:
    c: float
    patterns: dict[str, PatternEntry]
    extras: dict[str, PatternEntry]
    fraction_min: float
    fraction_ok: bool

    @property
    def all_match(self) -> bool:
        return all(entry.match for entry in self.patterns.values())


def expected_pattern(name: str, c: float) -> PatternKind:
    """Claimed sign behavior of each audited function on (0, 1)."""
    if name == "f_prime":
        if c < 0.0:
            return PatternKind.POSITIVE
        if 0.0 < c < 0.5 or c > 1.0:
            return PatternKind.PLUS_TO_MINUS
        return PatternKind.MINUS_TO_PLUS
    if name in ("g", "h"):
        if c < 0.0:
            return PatternKind.NEGATIVE
        return PatternKind.MINUS_TO_PLUS if c < 0.5 else PatternKind.PLUS_TO_MINUS
    if name in ("v", "v_dprime"):
        if c < 0.0:
            return PatternKind.POSITIVE
        return PatternKind.PLUS_TO_MINUS if c < 0.5 else PatternKind.MINUS_TO_PLUS
    raise NameRequiresC(f"no claimed pattern for {name!r}")


def _extra_expectations(c: float) -> dict[str, PatternKind]:
    """Scoped informational checks for the intermediate chain functions."""
    extras: dict[str, PatternKind] = {}
    if 0.0 < c < 1.0:
        extras["w"] = PatternKind.PLUS_TO_MINUS
        extras["p_quad"] = PatternKind.POSITIVE
    elif c < 0.0:
        extras["w"] = PatternKind.NEGATIVE
        extras["p_quad"] = PatternKind.POSITIVE
    if 1.0 < c < 2.0:
        extras["m"] = PatternKind.PLUS_TO_MINUS
    if c > 2.0:
        extras["u"] = PatternKind.MINUS_TO_PLUS
        extras["b_factor"] = PatternKind.POSITIVE
    return extras


def audit_chain(c: float, grid_size: int = 10_000) -> ChainReport:
    """Compare observed sign patterns of the whole chain to the claimed ones.

    The five pattern-bearing functions gate the audit; the intermediate
    helpers are reported informationally only on the parameter ranges where
    the argument uses them.  The always-positive second factor is checked on
    the same grid.  c must pass the audit's c rule (``_check_c``).  The
    scans share the 50-digit samples they escalate alike, and drop them when
    the call returns.
    """
    c = _check_c(c)
    kept: dict = {}

    def entry(name: str, expected: PatternKind) -> PatternEntry:
        observed = _scan(name, c, grid_size, kept)
        return PatternEntry(observed, expected, match=observed.overall is expected)

    patterns = {name: entry(name, expected_pattern(name, c)) for name in CORE_AUDIT_NAMES}
    extras = {name: entry(name, kind) for name, kind in _extra_expectations(c).items()}

    t = np.linspace(DEFAULT_DELTA, 1.0 - DEFAULT_DELTA, grid_size)
    fraction_min = float(np.nanmin(_fraction_double(c, t)))
    return ChainReport(c, patterns, extras, fraction_min, bool(fraction_min > 1.0 - 1e-12))
