"""Exponent-doubling machinery: the scalar lemma, the direct p = 4 proof, and
the p -> 2p step, for functions and for positive matrices.

The scalar lemma concerns psi_t(a) = (1+a)^(1+t) - (1+a^2)^t - 2^t a, which is
nonnegative on [0, inf) for t in [0, 1] and nonpositive for t > 1.  Combined
with the triangle inequality and the p-level sharpened bound applied to
(f^2, g^2), it transports the bound from exponent p to 2p
(``doubling_step``).  ``schatten_doubling`` runs the same chain on a pair of
positive matrices, with the symmetrized product and trace rearrangement
bounds as further links.  Every link is a ``check_link``; no command of the
CLI runs this module.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ExponentOutOfRange,
    NegativeInput,
    NotPSD,
    SharpLpError,
    UnsupportedExponent,
    ZeroPair,
)
from .inequality import InequalityReport, main_sides
from .measure import (
    SLACK,
    MeasureSpace,
    SimpleFunction,
    forward_region,
    lp_functional,
    lp_norm,
    relative_violation,
)
from .precision import backend, require_finite
from .schatten import (
    PSDMatrix,
    _is_power_of_two_exponent,
    _p_norm,
    _SpectralPair,
    lieb_thirring_check,
    schatten_norm,
    schatten_verify,
)


class InequalityViolation(SharpLpError):
    """A provably valid numeric inequality failed beyond slack (should not happen)."""


@dataclass(frozen=True)
class P4Report:
    """Quantities of the direct fourth-power proof, after normalization."""

    alpha: float            # ||fg||_2
    beta: float             # ||f^2+g^2||_2
    lhs: float              # ||f+g||_4^2
    bound_minkowski: float  # beta + 2 alpha
    bound_final: float      # sqrt(2) (1+alpha)^(3/2)
    identity_gap: float     # beta^2 - 2 - 2 alpha^2


@dataclass(frozen=True)
class DoublingLink:
    name: str
    lhs: float
    rhs: float
    direction: str  # "<=" or ">="
    slack: float
    satisfied: bool


@dataclass(frozen=True)
class DoublingReport:
    p: float
    gamma: float
    beta: float
    lhs_2p: float           # ||f+g||_{2p}^2 after normalization
    final_bound: float      # 2^(1/p) (1+gamma)^(2-1/p)
    links: tuple[DoublingLink, ...]
    level_2p: InequalityReport

    @property
    def all_links_hold(self) -> bool:
        return all(link.satisfied for link in self.links)


@dataclass(frozen=True)
class SchattenDoublingReport:
    p: float
    gamma: float
    beta: float
    lhs_2p: float
    final_bound: float
    final_bound_power_p: float
    links: tuple[DoublingLink, ...]

    @property
    def all_links_hold(self) -> bool:
        return all(link.satisfied for link in self.links)


def psi(t_param: float, alpha: float) -> float:
    """(1+a)^(1+t) - (1+a^2)^t - 2^t a for a >= 0."""
    if alpha < 0.0:
        raise NegativeInput("psi is defined on alpha >= 0")
    with backend() as xp, np.errstate(over="ignore", invalid="ignore"):
        a, t = xp.asarray(alpha), xp.asarray(t_param)
        value = (1.0 + a) ** (1.0 + t) - (1.0 + a * a) ** t - 2.0 ** t * a
    require_finite(t_param, psi=value)
    return value


def check_link(name: str, lhs: float, rhs: float, forward: bool = True) -> DoublingLink:
    """One link of a doubling chain: lhs <= rhs, or lhs >= rhs where not
    ``forward``, decided by ``measure.relative_violation`` within SLACK."""
    return DoublingLink(
        name=name, lhs=float(lhs), rhs=float(rhs),
        direction="<=" if forward else ">=",
        slack=float(rhs - lhs if forward else lhs - rhs),
        satisfied=bool(relative_violation(lhs, rhs, forward) <= SLACK),
    )


def psi_link(p: float, gamma: float, forward: bool = True) -> DoublingLink:
    """The scalar-lemma link 2^(1/p) (1+gamma^2)^(1-1/p) + 2 gamma <= the final
    bound 2^(1/p) (1+gamma)^(2-1/p); rhs - lhs = 2^(1/p) psi_{1-1/p}(gamma)."""
    root2 = 2.0 ** (1.0 / p)
    middle = root2 * (1.0 + gamma ** 2) ** (1.0 - 1.0 / p) + 2.0 * gamma
    final_bound = root2 * (1.0 + gamma) ** (2.0 - 1.0 / p)
    return check_link("psi", middle, final_bound, forward)


def _normalized(f: SimpleFunction, g: SimpleFunction, space: MeasureSpace, p: float):
    """Rescale so that the p-th power sums of f and g average to 1."""
    total = lp_functional(f, space, p) + lp_functional(g, space, p)
    if total == 0.0:
        raise ZeroPair("f and g cannot both vanish identically")
    scale = float(total / 2.0) ** (1.0 / p)
    return (
        SimpleFunction(f.values / scale),
        SimpleFunction(g.values / scale),
    )


def direct_p4(f: SimpleFunction, g: SimpleFunction, space: MeasureSpace) -> P4Report:
    """Run the direct fourth-power proof chain on one instance.

    This is ``doubling_step`` at p = 2, read in the names of the direct
    proof, with stricter checks.  Inputs are rescaled internally to
    ||f||_4^4 + ||g||_4^4 = 2.  The chain
    ||f+g||_4^2 <= beta + 2 alpha <= sqrt(2)(1+alpha)^(3/2) is checked along
    with the identity beta^2 = 2 + 2 alpha^2 and the scalar square-root bound
    psi_{1/2}(alpha) >= 0; a violation beyond slack raises InequalityViolation.
    """
    step = doubling_step(f, g, space, 2.0)
    alpha, beta, lhs, bound_final = step.gamma, step.beta, step.lhs_2p, step.final_bound
    bound_minkowski = step.links[0].rhs  # the triangle link's beta + 2 gamma
    identity_gap = beta ** 2 - 2.0 - 2.0 * alpha ** 2
    report = P4Report(alpha, beta, lhs, bound_minkowski, bound_final, identity_gap)
    chain = ((lhs, bound_minkowski), (bound_minkowski, bound_final))
    if any(relative_violation(a, b, forward=True) > SLACK for a, b in chain):
        raise InequalityViolation(f"fourth-power chain failed: {report}")
    if alpha > 1.0 + 1e-12 or beta > 2.0 + 1e-12:
        raise InequalityViolation(f"normalized overlap out of range: {report}")
    if abs(identity_gap) > 1e-12 * max(1.0, beta ** 2):
        raise InequalityViolation(f"beta^2 = 2 + 2 alpha^2 failed: {report}")
    if psi(0.5, alpha) < -1e-12:
        raise InequalityViolation(f"scalar square-root bound failed: {report}")
    return report


def doubling_step(
    f: SimpleFunction, g: SimpleFunction, space: MeasureSpace, p: float
) -> DoublingReport:
    """Verify every link transporting the bound from exponent p to 2p.

    Valid for p >= 2 (forward) and p < 0, where each ingredient reverses:
    the triangle inequality, the p-level bound on (f^2, g^2), and the scalar
    lemma with t = 1 - 1/p.  The final bound satisfies
    final^p = (2p)-level right side, which is also checked via ``main_sides``.
    """
    p = float(p)
    if not (p >= 2.0 or p < 0.0):
        raise ExponentOutOfRange("doubling applies for p >= 2 or p < 0")
    if np.any(f.values < 0.0) or np.any(g.values < 0.0):
        raise NegativeInput("f and g must be nonnegative")
    forward = forward_region(p)

    fn, gn = _normalized(f, g, space, 2.0 * p)
    X = SimpleFunction(fn.values * gn.values)
    Y = SimpleFunction(fn.values ** 2 + gn.values ** 2)
    gamma = lp_norm(X, space, p)
    beta = lp_norm(Y, space, p)
    lhs_2p = lp_norm(SimpleFunction(fn.values + gn.values), space, 2.0 * p) ** 2

    level_p = main_sides(
        SimpleFunction(fn.values ** 2), SimpleFunction(gn.values ** 2), space, p
    )
    links = (
        check_link("triangle", lhs_2p, beta + 2.0 * gamma, forward),
        check_link("level_p", level_p.lhs, level_p.rhs, forward),
        psi_link(p, gamma, forward),
    )
    return DoublingReport(
        p=p,
        gamma=float(gamma),
        beta=float(beta),
        lhs_2p=float(lhs_2p),
        final_bound=links[-1].rhs,
        links=links,
        level_2p=main_sides(fn, gn, space, 2.0 * p),
    )


def schatten_doubling(A: PSDMatrix, B: PSDMatrix, p: float) -> SchattenDoublingReport:
    """Verify every link of the operator doubling step at exponent p = 2^k.

    Inputs are rescaled so the 2p-th Schatten power sums average to 1; then
    the chain runs through the triangle inequality for X = (AB+BA)/2 and
    Y = A^2+B^2, the symmetrized product bound, the trace rearrangement, the
    p-level bound on (A^2, B^2), and the scalar doubling lemma.
    """
    p = float(p)
    if not _is_power_of_two_exponent(p):
        raise UnsupportedExponent("doubling is established only for p = 2^k")
    _SpectralPair(A.stack, B.stack)  # raises BadShape unless the shapes match
    s = _p_norm(np.concatenate((A.eigenvalues(), B.eigenvalues())), 2.0 * p)
    s *= 0.5 ** (1.0 / (2.0 * p))
    if s == 0.0:
        raise NotPSD("A and B cannot both be zero")
    An = PSDMatrix(np.asarray(A.entries) / s)
    Bn = PSDMatrix(np.asarray(B.entries) / s)

    Am, Bm = np.asarray(An.entries), np.asarray(Bn.entries)
    X = (Am @ Bm + Bm @ Am) / 2.0
    Y = Am @ Am + Bm @ Bm
    lhs_2p = schatten_norm(PSDMatrix((Am + Bm) @ (Am + Bm)), p)  # ||A+B||_{2p}^2
    norm_X = _p_norm(np.linalg.eigvalsh((X + X.conj().T) / 2.0), p)
    norm_Y = schatten_norm(PSDMatrix(Y), p)
    # singular values of AB and BA coincide, so the symmetrization bound reads
    # ||X||_p <= ||AB||_p
    norm_AB = _p_norm(np.linalg.svd(Am @ Bm, compute_uv=False), p)

    lt_lhs, lt_rhs = lieb_thirring_check(An, Bn, p)
    gamma = lt_rhs ** (1.0 / p)
    beta = norm_Y

    level_p = schatten_verify(PSDMatrix(Am @ Am), PSDMatrix(Bm @ Bm), p)
    link_psi = psi_link(p, gamma)

    links = (
        check_link("triangle", lhs_2p, norm_Y + 2.0 * norm_X),
        check_link("symmetrized_product", norm_X, norm_AB),
        check_link("trace_rearrangement", lt_lhs, lt_rhs),
        check_link("level_p", level_p.lhs, level_p.rhs),
        link_psi,
        check_link("overall", lhs_2p, link_psi.rhs),
    )
    return SchattenDoublingReport(
        p=p,
        gamma=float(gamma),
        beta=float(beta),
        lhs_2p=float(lhs_2p),
        final_bound=link_psi.rhs,
        final_bound_power_p=float(2.0 * (1.0 + gamma) ** (2.0 * p - 1.0)),
        links=links,
    )
